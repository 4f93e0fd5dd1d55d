"""The command-line entry point."""

import json
from pathlib import Path

from padicpolygons import RingConfig, cli

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


def test_analyze_twice_in_one_process_prints_the_golden_both_times(
        tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_family_doc(7, 2, 2, "x+pi")))
    expected = (GOLDEN / "analyze_7_2_2_x+pi_prec7.json").read_text(
        encoding="utf-8")
    for _ in range(2):
        assert cli.main(["analyze", "--input", path, "--prec", "7"]) == 0
        assert capsys.readouterr().out == expected


def test_sweep_builds_one_ring(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return RingConfig(*args, **kwargs)

    cli._ring.cache_clear()
    monkeypatch.setattr(cli, "RingConfig", counting)
    doc = _family_doc(7, 2, 2, None)
    doc["L"] = ["x", "pi", "x+pi"]
    report = cli.cmd_sweep(doc, prec_override=7)
    assert report["summary"] == {"total": 3, "failed": 0, "errors": 0}
    assert len(built) == 1


def test_ring_key_separates_rings():
    doc = _family_doc(7, 2, 1, "x")
    ring = cli.parse_ring(doc)
    assert cli.parse_ring(json.loads(json.dumps(doc))) is ring
    variants = [
        ({"prec": 6}, 2),
        ({}, 3),                                   # r = n1 + n2
        ({"modulus": [3, 1, 1]}, 2),               # x^2 + x + 3
        ({"E": [[-7, 0], [1, 0]]}, 2),             # E as coordinate lists
    ]
    seen = [ring]
    for change, r in variants:
        other = json.loads(json.dumps(doc))
        other["ring"].update(change)
        cfg = cli.parse_ring(other, r=r)
        assert all(cfg is not s for s in seen)
        assert cli.parse_ring(other, r=r) is cfg
        seen.append(cfg)
    assert seen[3].witt.modulus == (3, 1, 1) != ring.witt.modulus


def test_invalid_ring_exits_2_on_every_call(tmp_path, capsys):
    # e * (n1 + n2) = 6 is not below p - 1 = 6
    path = _write(tmp_path, json.dumps(_family_doc(7, 1, 3, "x")))
    for _ in range(2):
        assert cli.main(["analyze", "--input", path]) == 2
        assert capsys.readouterr().err == \
            "error: ring: need e*r < p-1, got e*r = 6, p = 7\n"


def test_L_division():
    cfg = cli.parse_ring(_family_doc(7, 2, 2, None), prec_override=7)
    assert cli.parse_L_expression(cfg, "1/7") == cfg.k_one().mul_p_power(-1)
    x = cli.parse_L_expression(cfg, "x")
    assert cli.parse_L_expression(cfg, "x/p") * cfg.k_elem([7]) == x
    assert cli.parse_L_expression(cfg, "2*x/x") == cfg.k_elem([2])


def test_L_division_by_zero_exits_2(tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_family_doc(7, 2, 2, "x/(p-p)")))
    assert cli.main(["analyze", "--input", path]) == 2
    assert capsys.readouterr().err == "error: L: division by zero\n"
