"""The benchmark's traced run still reaches every name it wraps.

``perfbench/spans.py`` patches package functions and methods from outside,
so a refactor that moves a call away from a wrapped name leaves that name
unreached without failing anything else.  One traced pass per workload
(family-small and matrix-solve, seed 0) checks it here, through the same
``worker.layer_metrics`` that a ``--trace 1`` run reports from."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["family-small", "matrix-solve"])
def test_traced_pass_reaches_every_wrapped_name(workload):
    mods = worker._package()
    tracer = spans.install(mods)
    try:
        ops, check = worker.build_ops(mods, workload,
                                      generate.instances(workload, 0))
        records, _ = worker.timed_loop(ops, 0, check.digest, tracer)
    finally:
        tracer.uninstall()
    _, problems = worker.layer_metrics(tracer, records, workload)
    assert problems == []
