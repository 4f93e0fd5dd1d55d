"""The command-line entry point."""

import errno
import json
import os
from pathlib import Path

import pytest

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


def test_oracle_fail_line_names_its_first_case(capsys):
    # A known defect, pinned as it stands: seed 3 draws an E-carrier matrix
    # whose exponents sum past p; the reduction reports its raw last pivot
    # 3, the minors clamp it to the cap 7, and which is right is a question
    # of specification
    assert cli.main(["oracle", "--seed", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] tronc_remainder_divisible",
        "[FAIL] divisor_exponents_paths_agree: "
        "E carrier: reduction [2, 2, 3] vs minors [2, 2, 7]",
        "[PASS] newton_and_merge_formulas",
        "[PASS] eqX_substitution",
    ]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_oracle_without_trials_exits_2(trials, capsys):
    assert cli.main(["oracle", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: --trials: need at least 1 trial, got {trials}\n"


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


def test_analyze_exhausted_det_phi_is_a_precision_error(tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_family_doc(7, 2, 2, "x+pi")))
    assert cli.main(["analyze", "--input", path, "--prec", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precision error: Newton polygon of phi: "
                            "det(phi) is zero at working precision\n")


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


@pytest.mark.parametrize("char", ["\u0663", "\u00b2", "\u00a0"])
def test_L_accepts_ascii_only(char):
    # str.isdigit accepts the Arabic-Indic three and the superscript two,
    # and str.isspace the no-break space
    cfg = cli.parse_ring(_family_doc(7, 2, 2, None), prec_override=7)
    with pytest.raises(cli.DocError) as exc:
        cli.parse_L_expression(cfg, f"x+pi^3{char}")
    assert str(exc.value) == f"L: unexpected character {char!r}"


def test_filtration_may_repeat_its_line_with_another_generator():
    # Fil^1 = K(1, 1) and Fil^2 = K(2 pi, 2 pi) are one K-line
    doc = {"mode": "filtered", "ring": {"p": 7, "m": 1, "e": 2,
                                        "E": [-7, 0, 1], "prec": 7},
           "filtered": {"r": 2, "phi": [[1, 0], [0, 49]],
                        "jumps": [[0, [[1, 0], [0, 1]]], [1, [[1, 1]]],
                                  [2, [["2*pi", "2*pi"]]], [3, []]]}}
    report = cli.cmd_analyze(doc)
    assert report["elements"]["weakly_admissible"] is True


def test_x_is_zero_when_m_is_1():
    # the residue generator of F_p is 0, so its Teichmuller lift x is too
    cfg = cli.parse_ring(_family_doc(13, 1, 5, None), prec_override=13)
    x = cli.parse_L_expression(cfg, "x")
    assert x.is_zero()
    assert cli.parse_L_expression(cfg, "x+pi") == cfg.pi()


def test_L_division_by_zero_exits_2(tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_family_doc(7, 2, 2, "x/(p-p)")))
    assert cli.main(["analyze", "--input", path]) == 2
    assert capsys.readouterr().err == "error: L: division by zero\n"


def test_cross_precision_exception_is_reported_as_such():
    # (7,2,2), L = x + 7 pi^3: at prec 6, t(pi) vanishes to all known
    # digits, so v = inf is returned as inexact with a warning; at prec 7
    # the digit is there and v = 5/2
    doc = _family_doc(7, 2, 2, "x+7*pi^3")
    low = cli.cmd_analyze(doc, prec_override=6)
    assert (low["elements"]["v"], low["elements"]["v_exact"]) == ("inf", False)
    assert low["warnings"] == ["t(pi) = 0 at working precision: "
                               "v = infinity is precision-bounded"]
    assert all(v["passed"] for v in low["verdicts"])
    high = cli.cmd_analyze(doc, prec_override=7)
    assert (high["elements"]["v"], high["elements"]["v_exact"]) == ("5/2", True)
    assert high["warnings"] == []


# ---------------------------------------------------------------------------
# golden runs of the command line: exit code, stdout, stderr and any --out
# file of each case, compared byte for byte with tests/golden/cli/<case>.txt.

GOLDEN_CLI = GOLDEN / "cli"

_RING_7_2_2 = {"p": 7, "m": 2, "e": 2, "E": [-7, 0, 1], "prec": 7}


def _matrix_doc(carrier, entries):
    return {"mode": "matrix", "ring": _RING_7_2_2,
            "matrix": {"carrier": carrier, "entries": entries}}


def _filtered_doc(ring, flt):
    return {"mode": "filtered", "ring": ring, "filtered": flt}


def _sweep_doc(L):
    doc = _family_doc(7, 2, 2, None)
    del doc["family"]["L"]
    doc["L"] = L
    return doc


def _family_report():
    return json.loads((GOLDEN / "analyze_7_2_2_x+pi_prec7.json").read_text(
        encoding="utf-8"))


def _sweep_report():
    return {"mode": "sweep",
            "rows": [{"status": "ok", "report": _family_report()},
                     {"status": "error", "L_spec": "x/(p-p)",
                      "error": "L: division by zero"}],
            "summary": {"total": 2, "failed": 0, "errors": 1}}


_ANALYZE = ["analyze", "--input", "doc.json"]
_SWEEP = ["sweep", "--input", "doc.json", "--prec", "7"]
_RENDER = ["render", "--input", "doc.json"]
_FAMILY = _family_doc(7, 2, 2, "x+pi")
_FILTERED_PASS = _filtered_doc(_RING_7_2_2, {
    "r": 2, "phi": [["7", 0], [0, {"w": [1, 0], "pexp": 0}]],
    "jumps": [[0, [[1, 0], [0, 1]]], [1, [["x", 1]]], [2, []]]})
# phi = identity has Newton slopes (0, 0), below the Hodge slopes (1, 1)
_FILTERED_IDENTITY = _filtered_doc(
    {"p": 7, "m": 1, "e": 1, "E": [-7, 1], "prec": 6},
    {"r": 2, "phi": [[1, 0], [0, 1]], "N": [[0, 0], [0, 0]],
     "jumps": [[0, [[1, 0], [0, 1]]], [2, []]]})


def _eigenline_doc(line):
    """phi = diag(1, p^2) over Q_11 with the filtration line K*line in
    degrees 1 and 2: the stable line e_1 has t_N = 0 < t_H = 2, and the
    stable line e_2 has t_H = t_N = 2."""
    return _filtered_doc({"p": 11, "m": 1, "e": 1, "E": [-11, 1], "prec": 7},
                         {"r": 2, "phi": [[1, 0], [0, 121]],
                          "jumps": [[0, [[1, 0], [0, 1]]], [1, [line]],
                                    [3, []]]})


# case name -> (argv, document); a document that is a str is written as is
CLI_CASES = {
    # analyze, one per mode
    "analyze_family_ascii": (_ANALYZE + ["--prec", "7", "--format", "ascii"],
                             _FAMILY),
    "analyze_family_svg": (_ANALYZE + ["--prec", "7", "--format", "svg"],
                           _FAMILY),
    "analyze_family_L_coeffs": (
        _ANALYZE + ["--prec", "7"],
        _family_doc(7, 2, 2, {"coeffs": [[0, 1], 0], "pexp": 0})),
    "analyze_pseudo_11_2": (
        _ANALYZE, {"mode": "pseudo", "ring": {"p": 11}, "pseudo": {"n": 2}}),
    "analyze_matrix_E": (_ANALYZE, _matrix_doc(
        "E", [[[-7, 0, 1], [1]], [[0], [[1, 2], 3]]])),
    "analyze_matrix_u": (_ANALYZE, _matrix_doc(
        "u", [[[0, 0, 1], 2], [[0, [1, 1]], [0, 0, 0, 5]]])),
    "analyze_matrix_p": (_ANALYZE, _matrix_doc(
        "p", [[49, [1, 7]], ["14", 0]])),
    "analyze_matrix_ascii": (_ANALYZE + ["--format", "ascii"], _matrix_doc(
        "p", [[49, [1, 7]], ["14", 0]])),
    "analyze_matrix_svg": (_ANALYZE + ["--format", "svg"], _matrix_doc(
        "p", [[49, [1, 7]], ["14", 0]])),
    "analyze_filtered": (_ANALYZE, _FILTERED_PASS),
    "analyze_filtered_identity_exits_1": (_ANALYZE, _FILTERED_IDENTITY),
    "analyze_filtered_eigenline_e1": (_ANALYZE, _eigenline_doc([1, 0])),
    "analyze_filtered_eigenline_e2": (_ANALYZE, _eigenline_doc([0, 1])),
    # sweep
    "sweep_all_ok": (_SWEEP, _sweep_doc(["x", "pi", "x+pi"])),
    "sweep_error_row": (_SWEEP, _sweep_doc(["x", "x/(p-p)"])),
    "sweep_error_row_ascii": (_SWEEP + ["--format", "ascii"],
                              _sweep_doc(["x/(p-p)", "x"])),
    # render
    "render_json": (_RENDER + ["--format", "json"], _family_report()),
    "render_ascii": (_RENDER, _family_report()),
    "render_svg": (_RENDER + ["--format", "svg"], _family_report()),
    "render_out": (_RENDER + ["--format", "svg", "--out", "out.txt"],
                   _family_report()),
    "render_sweep_ascii": (_RENDER, _sweep_report()),
    "analyze_out": (_ANALYZE + ["--prec", "7", "--out", "out.txt"], _FAMILY),
    # analyze at prec = p on rings with ep = 44, 44 and 119
    "analyze_family_13_2_4_x+pi": (_ANALYZE + ["--prec", "13"],
                                   _family_doc(13, 2, 4, "x+pi")),
    "analyze_family_11_2_4_pi^3+x": (_ANALYZE + ["--prec", "11"],
                                     _family_doc(11, 2, 4, "pi^3+x")),
    "analyze_family_17_2_7_x+pi": (_ANALYZE + ["--prec", "17"],
                                   _family_doc(17, 2, 7, "x+pi")),
    # a non-monomial Eisenstein E: the outcome table's seeded E at (11,2,4)
    "analyze_family_11_2_4_seeded_E_x+pi": (
        _ANALYZE + ["--prec", "11"],
        _family_doc(11, 2, 4, "x+pi") | {"ring": {
            "p": 11, "m": 2, "e": 4,
            "E": [[-11, -990], [418, 242], [264, 869], [77, 99], [1, 0]]}}),
    # classification shape 2, adapted exponents [1, 3]
    "analyze_family_13_2_2_pi": (_ANALYZE + ["--prec", "13"],
                                 _family_doc(13, 2, 2, "pi")),
    # exit 2
    "error_unreadable_json": (_ANALYZE, '{"mode": "family",\n'),
    "error_missing_file": (["analyze", "--input", "missing.json"], None),
    "error_unknown_mode": (_ANALYZE, {"mode": "tropical"}),
    "error_missing_family": (_ANALYZE, {"mode": "family",
                                        "ring": _RING_7_2_2}),
    "error_ring_p_not_integer": (_ANALYZE, _filtered_doc(
        {"p": "seven", "e": 1, "E": [-7, 1]}, {})),
    "error_ring_p_non_ascii_digit": (_ANALYZE, _family_doc(7, 2, 2, "x+pi") | {
        "ring": {"p": "\u0667", "m": 2, "e": 2, "E": [-7, 0, 1]}}),
    "error_ring_E_length": (_ANALYZE, _matrix_doc("E", [[1]]) | {
        "ring": {"p": 7, "e": 2, "E": [-7, 1]}}),
    "error_invalid_ring": (_ANALYZE, _family_doc(7, 1, 3, "x")),
    "error_L_unknown_name": (_ANALYZE, _family_doc(7, 2, 2, "y")),
    "error_L_bad_character": (_ANALYZE, _family_doc(7, 2, 2, "x$")),
    "error_L_bad_exponent": (_ANALYZE, _family_doc(7, 2, 2, "x^pi")),
    "error_L_non_ascii_digit": (_ANALYZE, _family_doc(7, 2, 2, "pi\u00b2")),
    "error_L_too_many_coeffs": (_ANALYZE, _family_doc(7, 2, 2, [1, 2, 3])),
    "error_L_in_Qp": (_ANALYZE, _family_doc(7, 1, 2, "x")),
    "error_bad_rational": (_ANALYZE, _filtered_doc(_RING_7_2_2, {
        "phi": [["1/0", 0], [0, 1]], "jumps": []})),
    "error_no_fil0": (_ANALYZE, _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]], "jumps": [[1, []]]})),
    # Fil^1 = K e_2 and Fil^2 = K e_1
    "error_filtration_not_decreasing": (_ANALYZE, _filtered_doc(
        {"p": 11, "m": 1, "e": 1, "E": [-11, 1], "prec": 7},
        {"r": 2, "phi": [[1, 0], [0, 121]],
         "jumps": [[0, [[1, 0], [0, 1]]], [1, [[0, 1]]], [2, [[1, 0]]],
                   [3, []]]})),
    "error_empty_matrix": (_ANALYZE, _matrix_doc("p", [])),
    "error_precision": (_ANALYZE + ["--prec", "6"],
                        _family_doc(7, 2, 2, "pi^3")),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_golden(case, tmp_path, monkeypatch, capsys):
    argv, doc = CLI_CASES[case]
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / "doc.json").write_text(text, encoding="utf-8")
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    got = f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    out = tmp_path / "out.txt"
    if out.exists():
        got += "--- out.txt\n" + out.read_text(encoding="utf-8")
    assert got == (GOLDEN_CLI / f"{case}.txt").read_text(encoding="utf-8")


def test_cli_golden_exit_codes():
    # every exit code of the command line is pinned by some golden case
    codes = {(GOLDEN_CLI / f"{case}.txt").read_text(
        encoding="utf-8").split("\n", 1)[0] for case in CLI_CASES}
    assert codes == {"exit 0", "exit 1", "exit 2"}


_FILTERED_JUMPS = [[0, [[1, 0], [0, 1]]], [2, []]]

# case -> (subcommand, document, field path named by the error)
MALFORMED = {
    "document_is_a_list": ("analyze", [1], "doc.json"),
    "ring_is_a_list": ("analyze", {"mode": "family", "ring": [7],
                                   "family": {"L": "x"}}, "ring"),
    "pseudo_ring_is_a_list": ("analyze", {"mode": "pseudo", "ring": [7],
                                          "pseudo": {"n": 2}}, "ring"),
    "ring_p_padded": ("analyze", _family_doc(7, 2, 2, "x") | {
        "ring": {"p": " 7 ", "e": 2, "E": [-7, 0, 1]}}, "ring.p"),
    "ring_prec_underscore": ("analyze", _family_doc(7, 2, 2, "x") | {
        "ring": _RING_7_2_2 | {"prec": "1_1"}}, "ring.prec"),
    "L_non_ascii_integer": ("analyze", _family_doc(7, 2, 2, "\u0663"), "L"),
    "modulus_not_a_list": ("analyze", _matrix_doc("p", [[1]]) | {
        "ring": _RING_7_2_2 | {"modulus": 5}}, "ring.modulus"),
    "jump_not_a_pair": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]], "jumps": [5]}), "filtered.jumps[0]"),
    "jump_vectors_not_lists": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]], "jumps": [[0, [1, 2]]]}),
        "filtered.jumps[0]"),
    "phi_ragged": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0]], "jumps": _FILTERED_JUMPS}), "filtered.phi[1]"),
    "N_not_a_matrix": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]], "N": 3, "jumps": _FILTERED_JUMPS}),
        "filtered.N"),
    "entries_ragged": ("analyze", _matrix_doc("p", [[1, 2], [3]]),
                       "matrix.entries[1]"),
    "u_entry_coordinates": ("analyze", _matrix_doc("u", [[1, [[1, 2, 3]]]]),
                            "matrix.entries[0][1]"),
    "E_entry_coordinates": ("analyze", _matrix_doc("E", [[[[1]], 1]]),
                            "matrix.entries[0][0]"),
    "u_entry_degree": ("analyze", _matrix_doc("u", [[[0] * 15]]),
                       "matrix.entries[0][0]"),
    "E_entry_degree": ("analyze", _matrix_doc("E", [[1], [[0] * 14 + [1]]]),
                       "matrix.entries[1][0]"),
    "sweep_family_is_a_list": ("sweep", _sweep_doc(["x"]) | {"family": [1]},
                               "family"),
    "render_a_list": ("render", [1], "doc.json"),
    "render_sweep_without_rows": ("render", {"mode": "sweep"}, "rows"),
    "phi_not_square": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0, 0], [0, 1, 0]], "jumps": _FILTERED_JUMPS}),
        "filtered.phi"),
    "N_of_another_size": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]], "N": [[0, 0, 0]] * 3,
        "jumps": _FILTERED_JUMPS}), "filtered.N"),
    "jump_vector_of_another_length": ("analyze", _filtered_doc(_RING_7_2_2, {
        "phi": [[1, 0], [0, 1]],
        "jumps": [[0, [[1, 0, 0], [0, 1, 0]]], [2, []]]}),
        "filtered.jumps[0][1][0]"),
    "render_polygons_a_list": ("render", {"polygons": [1]}, "polygons"),
    "render_vertex_not_a_pair": ("render", {"polygons": {
        "hodge": [["0", "0"], ["1"]]}}, "polygons.hodge[1]"),
    "render_vertex_not_a_list": ("render", {"polygons": {"hodge": [5]}},
                                 "polygons.hodge[0]"),
    "render_sweep_row_not_an_object": ("render", {"mode": "sweep",
                                                  "rows": [1]}, "rows[0]"),
    "render_sweep_row_bad_vertex": ("render", {"mode": "sweep", "rows": [
        {"status": "ok", "report": {"polygons": {"newton": [["1", 0]]}}}]},
        "rows[0].report.polygons.newton[0]"),
    "render_verdict_not_an_object": ("render", {"verdicts": [1]},
                                     "verdicts[0]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(case, tmp_path, monkeypatch, capsys):
    command, doc, path = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command, "--input", "doc.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


# phi-matrices over (7,2,2), where the residue modulus is w^2 + 1: each is
# singular as written, not only at working precision
SINGULAR_PHI = {
    "zero_row": [[0, 0], [0, 1]],
    "w_squared_is_minus_1": [[[0, 1], -1], [1, [0, 1]]],
    "pexp_and_fraction": [[{"w": 1, "pexp": 1}, "1/7"], [7, 7]],
    "negative_pexp": [[{"w": [1, 0], "pexp": -1}, 7], [1, 1]],
}


@pytest.mark.parametrize("case", sorted(SINGULAR_PHI))
def test_filtered_rejects_a_singular_phi(case, tmp_path, capsys):
    path = _write(tmp_path, json.dumps(_filtered_doc(_RING_7_2_2, {
        "phi": SINGULAR_PHI[case], "jumps": _FILTERED_JUMPS})))
    assert cli.main(["analyze", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: filtered.phi: det(phi) is 0")


def test_filtered_phi_singular_only_at_working_precision(tmp_path, capsys):
    """det(phi) = p^7 is nonzero but zero at prec 7: the document is
    accepted and the digits run out; det(phi) = 1/7 is accepted too."""
    for phi, code in (([[7 ** 7, 0], [0, 1]], 2),
                      ([[{"w": 1, "pexp": 1}, "1/7"], [7, 8]], 1)):
        path = _write(tmp_path, json.dumps(_filtered_doc(_RING_7_2_2, {
            "phi": phi, "jumps": _FILTERED_JUMPS})))
        assert cli.main(["analyze", "--input", path]) == code
        err = capsys.readouterr().err
        assert "filtered.phi" not in err
        if code == 2:
            assert err.startswith("precision error: Newton polygon of phi: ")


@pytest.mark.parametrize("command, doc", [
    (_ANALYZE + ["--prec", "7"], _FAMILY),
    (_SWEEP, _sweep_doc(["x+pi"])),
    (_RENDER, _family_report()),
], ids=["analyze", "sweep", "render"])
@pytest.mark.parametrize("code", [errno.EISDIR, errno.ENOENT],
                         ids=["directory", "missing_directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, doc, code):
    """--out naming a directory, or a file in a missing directory, is
    refused with exit 2 (exit 1 is a failed verdict), not a traceback."""
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path if code == errno.EISDIR else tmp_path / "no" / "out.json"
    argv = [str(tmp_path / a) if a == "doc.json" else a for a in command]
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: --out: [Errno {code}] {os.strerror(code)}: '{out}'\n"
