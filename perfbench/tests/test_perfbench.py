"""Tests of the benchmark's own parts: the generator, the outcome
classification and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json

import checks
import generate
import pytest
import run
import spans
import worker


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate.instances(workload, 3) == generate.instances(workload, 3)
    a, b = generate.instances(workload, 3), generate.instances(workload, 4)
    assert a != b
    # seeds change digits, never the strata: same length, same fixed part
    assert len(a) == len(b)
    assert [x["key"] for x in a if x.get("origin") != "draw"] == \
        [x["key"] for x in b if x.get("origin") != "draw"]


def test_family_draws_lie_outside_qp_and_grid_marks_qp_members():
    for workload in ("family-small", "family-ramified"):
        for inst in generate.instances(workload, 7):
            if inst["origin"] == "draw":
                assert not inst["in_qp"]
    keys = {i["key"]: i["in_qp"]
            for i in generate.instances("family-ramified", 0)}
    assert keys["13,1,5,13:x"] is True       # x = 0 when m = 1
    assert keys["13,1,5,13:pi"] is False
    assert generate.in_qp([(1, 0)], 2, 1)    # pi = p when e = 1
    assert not generate.in_qp([(3, 0)], 1, 2)


def _report(passed=True):
    return {"elements": {"case": "i", "j": 0, "v": "1/2",
                         "classification_shape": "1",
                         "adapted_exponents_E": [0, 2],
                         "adapted_exponents_u": [0, 4]},
            "polygons": {"hodge_V": [["0/1", "0/1"]]},
            "verdicts": [{"name": "strong_divisibility", "passed": passed,
                          "evidence": ""}]}


def test_family_outcomes():
    inst = {"key": "k", "in_qp": False}
    qp_inst = {"key": "q", "in_qp": True}
    golden = {"k": checks.family_summary(_report())}
    check = worker.FamilyCheck([inst], golden)

    def outcome(report):
        text = json.dumps(report)
        return check.outcome(0, None, check.digest(0, (report, text)))[0]

    assert outcome(_report()) == "ok"
    assert outcome(_report(False)) == "wrong"
    changed = _report()
    changed["elements"]["j"] = 1
    # differs from the recorded summary and from the first repetition
    assert outcome(changed) == "wrong"
    fresh = worker.FamilyCheck([inst], golden)
    digest = fresh.digest(0, (changed, json.dumps(changed)))
    assert fresh.outcome(0, None, digest) == \
        ("wrong", "invariant summary differs from the recorded one", False)
    rejection = ("ValueError", checks.QP_REJECTION)
    assert checks.classify_family(qp_inst, rejection, None, {})[0] == "ok"
    assert checks.classify_family(inst, rejection, None, {})[0] == "wrong"
    assert checks.classify_family(
        inst, ("PrecisionError", "division by p"), None, {})[0] == "error"


def test_forced_wrong_result_lands_in_wrong_share():
    """A sabotaged reduction is caught by the minor oracle, counted as
    failed and wrong, and (off the p carrier) clears ``correct``."""
    mods = worker._package()
    insts = [i for i in generate.instances("matrix-solve", 0)
             if i["kind"] == "smith" and i["carrier"] == "u"][:2]
    ops, check = worker.build_ops(mods, "matrix-solve", insts)
    sabotaged = [ops[0], lambda: [0, 0]]
    records, _ = worker.timed_loop(sabotaged, 0.0, check.digest)
    outcomes = [check.outcome(i, raised, digest)
                for i, _, raised, _, digest in records]
    assert [o[0] for o in outcomes] == ["ok", "wrong"]
    recs = [{"i": r[0], "ns": r[1], "outcome": o[0], "known": o[2]}
            for r, o in zip(records, outcomes)]
    assert run.outcome_counts(recs) == (1, 0)
    metrics = run.end_to_end({"workload": "matrix-solve", "records": recs,
                              "wall_ns": 10 ** 9, "peak_rss_kb": 1024}, [0.5])
    assert metrics["failed_share"] == 0.5
    assert len(run.unexpected(recs)) == 1
    p_inst = {"carrier": "p"}
    assert checks.classify_smith(p_inst, [2, 7], [2, 3]) == \
        ("wrong", "reduction [2, 7] vs minors [2, 3]", True)


def test_self_times_cover_each_span_once():
    # root [0,100] > a [10,40] > a1 [20,30]; root > b [50,90]
    tree = [("op", 0, 100, -1), ("a", 10, 40, 0), ("a1", 20, 30, 1),
            ("b", 50, 90, 0)]
    assert spans.self_times(tree) == [30, 20, 10, 40]
    assert sum(spans.self_times(tree)) == 100
    assert spans.nesting_errors(tree) == []
    # overlapping children are covered once, clipped to the parent
    assert spans.self_times([("p", 0, 10, -1), ("c", 2, 6, 0),
                             ("d", 4, 12, 0)])[0] == 2
    assert spans.nesting_errors([("p", 0, 10, -1), ("c", 5, 12, 0)]) == [1]


def test_traced_operation_nests_and_uninstalls():
    mods = worker._package()
    original = mods["breuil"].normalize_L
    tracer = spans.install(mods)
    try:
        inst = generate.instances("family-small", 0)[0]
        records, _ = worker.timed_loop([worker.family_op(mods, inst)], 0.0,
                                       lambda i, result: None, tracer)
    finally:
        tracer.uninstall()
    assert mods["breuil"].normalize_L is original
    metrics, problems = worker.layer_metrics(tracer, records, "family-small")
    # every family stage but the few this one instance skips was reached
    assert all("never reached" in p for p in problems)
    assert metrics["arith.strunc_mul.calls"] > 0
    tree = [(n, s, e, p) for _, n, s, e, p in tracer.spans]
    root = tree[0]
    assert sum(spans.self_times(tree)) == root[2] - root[1]


def test_latency_tail_keeps_ten_samples_beyond():
    value, percentile, n = run.latency_tail(list(range(1, 101)))
    assert (value, percentile, n) == (90, 90.0, 100)


def test_latencies_are_quantiles_of_instance_means():
    # two instances over three passes: means 2 ms and 20 ms
    recs = [{"i": i, "ns": ns} for i, ns in
            [(0, 1e6), (1, 10e6), (0, 2e6), (1, 20e6), (0, 3e6), (1, 30e6)]]
    assert run.instance_latencies(recs) == [2.0, 20.0]
    assert run.quantile([20.0, 2.0], 0.5) == 11.0
    assert run.quantile([1.0, 2.0, 3.0], 1.0) == 3.0
    # 10 operations lie beyond the tail quantile in the fewest passes
    for workload in generate.WORKLOADS:
        n = len(generate.instances(workload, 0))
        passes = generate.MIN_PASSES[workload]
        assert (1 - run.tail_share(workload, n)) * n * passes == \
            pytest.approx(10)


def test_loop_runs_whole_passes_up_to_min_passes():
    calls = []
    ops = [lambda: calls.append(0), lambda: calls.append(1)]
    records, _ = worker.timed_loop(ops, 0.0, lambda i, result: None,
                                   min_passes=3)
    assert [r[0] for r in records] == [0, 1] * 3
    assert calls == [0, 1] * 3
