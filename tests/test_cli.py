"""The command-line entry point."""

import json
from pathlib import Path

from padicpolygons import cli

GOLDEN = Path(__file__).parent / "golden"


def _family_doc(p, m, e, L):
    return {"mode": "family",
            "ring": {"p": p, "m": m, "e": e, "E": [-p] + [0] * (e - 1) + [1]},
            "family": {"n1": 1, "n2": 1, "L": L}}


def _write(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_oracle_subcommand_passes(capsys):
    assert cli.main(["oracle", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[PASS] ") for line in lines)


def test_analyze_family_output_is_pinned(tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_family_doc(7, 2, 2, "x+pi")))
    assert cli.main(["analyze", "--input", path, "--prec", "7"]) == 0
    expected = (GOLDEN / "analyze_7_2_2_x+pi_prec7.json").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_analyze_rejects_a_malformed_document(tmp_path, capsys):
    path = _write(tmp_path, '{"mode": "family", "ring": {"p": 7, "m": 2}\n')
    assert cli.main(["analyze", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_analyze_premise_ideal_failure_exits_2(tmp_path, capsys):
    # A known defect, pinned as it stands: at (11,2,4), L = pi, prec 11 the
    # run reports a failed premise-ideal membership where the digits ran out
    path = _write(tmp_path, json.dumps(_family_doc(11, 2, 4, "pi")))
    assert cli.main(["analyze", "--input", path, "--prec", "11"]) == 2
    assert capsys.readouterr().err == "error: A is not in the premise ideal\n"
