"""Benchmark of the padicpolygons pipeline.

    python3 perfbench/run.py --workload family-ramified --seed 1 \\
        --seconds 55 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric of a separate
traced run, together with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run's instance list and per-operation records go to
``perfbench/out/``.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import generate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "failed_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}

# Failure classes known today; any other (stage, kind) lands in
# errors.other and is named on standard output.
ERROR_METRICS = ("errors.breuil.phi2.ValueError",
                 "errors.breuil.verify.PrecisionError")


def per_layer_units():
    units = {name + ".calls": "calls/op" for name in spans.CALL_METRICS}
    units.update({name + "_ms": "ms/op" for name in spans.SELF_MS_METRICS})
    units["bench.unattributed_ms"] = "ms/op"
    units["arith.divrem_per_val_E"] = "ratio"
    units["breuil.solve_eqX.iterations"] = "iter/call"
    units["breuil.t_digits_min"] = "digits"
    units["breuil.elements_digits_min"] = "digits"
    for name in ERROR_METRICS + ("errors.other",):
        units[name] = "share"
    units["outcome.wrong_share"] = "share"
    units["trace.ops_per_s_untraced"] = "1/s"
    units["trace.ops_per_s_traced"] = "1/s"
    units["trace.overhead_share"] = "share"
    return units


# ---------------------------------------------------------------------------
# statistics


def latency_tail(latencies):
    """Value at the highest percentile that still has at least 10 samples
    beyond it: (value, percentile, number of samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10)
    return ordered[rank - 1], 100.0 * rank / n, n


def instance_latencies(records):
    """Each instance's mean latency in ms over the run's passes."""
    by_instance = {}
    for r in records:
        by_instance.setdefault(r["i"], []).append(r["ns"] / 1e6)
    return [statistics.fmean(v) for _, v in sorted(by_instance.items())]


def quantile(values, share):
    """The ``share`` quantile of values, interpolated between the two
    closest ranks."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_share(workload, n_instances):
    """The highest quantile that has at least 10 operations beyond it in a
    run of the workload's fewest passes, so in every run."""
    return 1 - 10 / (n_instances * generate.MIN_PASSES[workload])


def outcome_counts(records):
    wrong = sum(r["outcome"] == "wrong" for r in records)
    errors = sum(r["outcome"] == "error" for r in records)
    return wrong, errors


def ops_per_s(result):
    return len(result["records"]) / (result["wall_ns"] / 1e9)


def end_to_end(result, setup_times):
    """The end-to-end metrics of one untraced run.  The latencies are
    quantiles of the instances' mean latencies: a quantile of the raw
    samples jumps when the host's speed shifts between passes (the same
    operation takes 2.9 ms in two passes and 4.2 ms in the next four), a
    mean over passes moves with the host's average speed."""
    records = result["records"]
    per_instance = instance_latencies(records)
    wrong, errors = outcome_counts(records)
    return {
        "ops_per_s": ops_per_s(result),
        "latency_p50_ms": statistics.median(per_instance),
        "latency_tail_ms": quantile(
            per_instance, tail_share(result["workload"], len(per_instance))),
        "failed_share": (wrong + errors) / len(records),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def unexpected(records):
    """Wrong results that are not a documented defect."""
    return [r for r in records if r["outcome"] == "wrong" and not r["known"]]


# ---------------------------------------------------------------------------
# workers


def _worker(args):
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args[:3])} failed "
                         f"with code {proc.returncode}")
    return proc.stdout


def setup_times(workload):
    return [json.loads(_worker(["setup", "--workload", workload]))["setup_s"]
            for _ in range(SETUP_REPEATS)]


def run_worker(workload, seed, seconds, trace, tag, min_passes=1):
    out = OUT / f"{workload}-seed{seed}-{tag}.json"
    _worker(["run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--min-passes", str(min_passes), "--out", str(out)])
    return json.loads(out.read_text())


def describe(result):
    """Human-readable lines: outcomes and the failures by kind."""
    records = result["records"]
    wrong, errors = outcome_counts(records)
    lines = [f"# {result['workload']} seed {result['seed']}: "
             f"{len(result['instances'])} instances, {len(records)} ops, "
             f"{errors} errors, {wrong} wrong "
             f"({len(unexpected(records))} not a known defect)"]
    kinds = {}
    for r in records:
        if r["outcome"] != "ok":
            kinds.setdefault((r["outcome"], r["detail"][:90]), set()).add(
                result["instances"][r["i"]]["key"])
    for (outcome, detail), keys in sorted(kinds.items()):
        lines.append(f"#   {outcome}: {detail} [{len(keys)} instances]")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padicpolygons" / "__init__.py").is_file():
        sys.exit(f"no package source under {ROOT / 'src'}: run from the "
                 "root of a checkout")
    OUT.mkdir(exist_ok=True)

    if not args.trace:
        setups = setup_times(args.workload)
        result = run_worker(args.workload, args.seed, args.seconds, 0,
                            "untraced", generate.MIN_PASSES[args.workload])
        metrics = end_to_end(result, setups)
        records = result["records"]
        n_inst = len(result["instances"])
        share = tail_share(args.workload, n_inst)
        raw_tail, raw_pct, n = latency_tail([r["ns"] / 1e6 for r in records])
        raw_p50 = statistics.median(r["ns"] / 1e6 for r in records)
        lines = describe(result)
        lines.append(f"# {n} ops in {n // n_inst} passes; latency_p50_ms and "
                     f"latency_tail_ms (p{100 * share:.2f}) are taken over "
                     f"the {n_inst} instances' mean latencies")
        lines.append(f"# over the raw samples: p50 {raw_p50:.6g} ms, "
                     f"p{raw_pct:.2f} {raw_tail:.6g} ms")
        lines.append(f"# setup_s is the median of {setups}")
        wrong, _ = outcome_counts(records)
        lines.append(f"# wrong_share {wrong / len(records):.6f} share")
        units = END_TO_END_UNITS
        problems = []
    else:
        half = args.seconds / 2
        plain = run_worker(args.workload, args.seed, half, 0, "untraced-ref")
        result = run_worker(args.workload, args.seed, half, 1, "traced")
        records = result["records"]
        metrics = dict(result["layer"])
        known = {k: metrics.pop(k, 0.0) for k in ERROR_METRICS}
        other = {k: metrics.pop(k) for k in list(metrics)
                 if k.startswith("errors.")}
        metrics.update(known)
        metrics["errors.other"] = sum(other.values())
        wrong, _ = outcome_counts(records)
        metrics["outcome.wrong_share"] = wrong / len(records)
        untraced, traced = ops_per_s(plain), ops_per_s(result)
        metrics["trace.ops_per_s_untraced"] = untraced
        metrics["trace.ops_per_s_traced"] = traced
        metrics["trace.overhead_share"] = 1 - traced / untraced
        lines = describe(result)
        lines += [f"# new failure class {k}: {v:.6f} share"
                  for k, v in sorted(other.items())]
        units = per_layer_units()
        problems = result["problems"]

    lines += [f"# problem: {p}" for p in problems]
    for name, value in metrics.items():
        lines.append(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not unexpected(records) and not problems,
        "attempted": len(records),
        "failed": sum(r["outcome"] != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
