"""A/B timing of two checkouts in one process, by interleaved whole passes.

    python3 tools/interleave_ab.py OLD_ROOT NEW_ROOT --workload W --passes N

Each ROOT is the root of a checkout.  Its ``src/padicpolygons`` is copied
into a temporary directory under a package name of its own, so both
packages live in this one process; the inputs of each are built by
``NEW_ROOT/perfbench/worker.build_ops``, which is only read, from the
instance list of seed 1, the seed of the benchmark's traced runs.  The two
sides then run whole passes over their operations in turn, N each, and the
side that goes first alternates from pass to pass, so a change in the
host's speed weighs on both alike.  Per side it prints the operations per
second over its passes, the median (p50) and the tail quantile of
``perfbench/run.py`` over the instances' mean latencies, the passes it won
(ran faster than the other side's pass next to it) and the operations that
raised.  Then one line per instance, in the order of the instance list,
gives its key and its mean latency on each side.  Last, one line per side
gives the p50 over the instances whose outcome class (a result, or the
class of the exception raised) is the same on both sides in every pass,
and how many instances those are.
"""

from __future__ import annotations

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("old", "new")
SEED = 1
MODULES = ("adapted", "arith", "breuil", "cli", "fontaine")


def _load(root, name, tmp):
    """The checkout's package, imported as ``name`` from a copy in tmp (and
    not from the copy of an earlier call)."""
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]
    shutil.copytree(Path(root) / "src" / "padicpolygons", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in MODULES}


def _run_pass(ops, latencies, outcomes, clock):
    """One pass over ops: (wall ns, operations that raised).  Each outcome
    class goes into the instance's set in outcomes: None for a result, else
    the exception's class name."""
    raised = 0
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            op()
            kind = None
        except Exception as exc:  # noqa: BLE001 - timed like a result
            kind = type(exc).__name__
        latencies[i].append(clock() - t0)
        raised += kind is not None
        outcomes[i].add(kind)
    return clock() - start, raised


def compare(old_root, new_root, workload, passes):
    """{side: {"ops_per_s", "p50_ms", "tail_ms", "tail_share", "won",
    "raised", "means_ms", "same", "same_p50_ms"}} for the sides "old" and
    "new"; "means_ms" maps each instance's key to its mean latency, "same"
    counts the instances whose outcome classes agree on both sides, and
    "same_p50_ms" is the median of their means (nan if there are none)."""
    bench = str(Path(new_root).resolve() / "perfbench")
    sys.path.insert(0, bench)
    import generate
    import run
    import worker
    clock = time.perf_counter_ns
    instances = generate.instances(workload, SEED)
    latencies = {side: [[] for _ in instances] for side in SIDES}
    outcomes = {side: [set() for _ in instances] for side in SIDES}
    wall = dict.fromkeys(SIDES, 0)
    raised = dict.fromkeys(SIDES, 0)
    won = dict.fromkeys(SIDES, 0)
    # the copies stay on disk while they run: the package imports lazily
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            ops = {side: worker.build_ops(
                       _load(root, f"padicpolygons_{side}_ab", tmp),
                       workload, instances)[0]
                   for side, root in zip(SIDES, (old_root, new_root))}
            for k in range(passes):
                took = {}
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    took[side], r = _run_pass(ops[side], latencies[side],
                                              outcomes[side], clock)
                    wall[side] += took[side]
                    raised[side] += r
                if took["old"] != took["new"]:
                    won[min(took, key=took.get)] += 1
        finally:
            sys.path.remove(tmp)
            sys.path.remove(bench)
    share = run.tail_share(workload, len(instances))
    same = [i for i, classes in enumerate(outcomes["old"])
            if classes == outcomes["new"][i]]
    out = {}
    for side in SIDES:
        means = [statistics.fmean(v) / 1e6 for v in latencies[side]]
        same_means = [means[i] for i in same]
        out[side] = {"ops_per_s": passes * len(instances) / (wall[side] / 1e9),
                     "p50_ms": statistics.median(means),
                     "tail_ms": run.quantile(means, share),
                     "tail_share": share, "won": won[side],
                     "raised": raised[side],
                     "means_ms": {inst["key"]: mean for inst, mean in
                                  zip(instances, means)},
                     "same": len(same),
                     "same_p50_ms": statistics.median(same_means)
                     if same else math.nan}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(prog="interleave_ab.py")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    result = compare(args.old_root, args.new_root, args.workload,
                     args.passes)
    for side in SIDES:
        r = result[side]
        print(f"{side} {args.workload} seed {SEED}: "
              f"ops/s {r['ops_per_s']:.1f}  p50 {r['p50_ms']:.3f} ms  "
              f"p{100 * r['tail_share']:.2f} {r['tail_ms']:.3f} ms  "
              f"won {r['won']}/{args.passes} passes  raised {r['raised']}")
    for key in result["old"]["means_ms"]:
        print(f"instance {key}: " + "  ".join(
            f"{side} {result[side]['means_ms'][key]:.3f} ms" for side in SIDES))
    for side in SIDES:
        r = result[side]
        print(f"{side} same outcome on both sides: {r['same']}/"
              f"{len(r['means_ms'])} instances  p50 {r['same_p50_ms']:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
