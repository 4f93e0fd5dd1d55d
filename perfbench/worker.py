"""Runs one benchmark workload in this process.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed S --seconds T \\
        --trace 0|1 --min-passes K --out FILE
    python3 perfbench/worker.py golden --seed S --out FILE

``run.py`` starts each mode in a fresh process: ``setup`` times the import
and the ring set-up, ``run`` drives the package through its public API in a
closed loop (one client, next operation after the previous one returns) and
writes one record per operation, and ``golden`` records the invariant
summaries of a seed's family instances.  With ``--trace 1`` the tracer is
installed before any input is built; the untraced run never imports it.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAMILY_REACHED = [
    "cli.parse", "cli.report", "cli.render", "fontaine.polygons",
    "fontaine.hermite", "fontaine.admissible", "breuil.normalize",
    "breuil.elements", "breuil.lattice", "breuil.verify", "breuil.reduce",
    "breuil.phi2", "breuil.classify", "adapted.smith_E", "adapted.smith_u",
    "arith.strunc_mul", "arith.strunc_unit_inverse", "arith.tilde_mul",
    "arith.kelem_inverse", "arith.ringconfig", "arith.witt_mul",
    "arith.strunc_val_E", "arith.strunc_divrem_E", "arith.strunc_phi",
    "arith.tilde_phi", "arith.gf_mul", "arith.kelem_val_p"]
# Wrapped names each workload must reach: a name that is never reached was
# patched where the pipeline does not look it up.
REACHED = {
    "family-small": FAMILY_REACHED,
    "family-ramified": FAMILY_REACHED,
    "matrix-solve": [
        "adapted.smith_E", "adapted.smith_u", "adapted.smith_p",
        "breuil.solve_eqX", "arith.strunc_mul", "arith.tilde_mul",
        "arith.tilde_unit_inverse", "arith.witt_mul", "arith.strunc_val_E",
        "arith.strunc_divrem_E", "arith.tilde_phi", "arith.gf_mul"],
}


def _package():
    sys.path.insert(0, str(ROOT / "src"))
    from padicpolygons import adapted, arith, breuil, cli, fontaine
    return {"adapted": adapted, "arith": arith, "breuil": breuil,
            "cli": cli, "fontaine": fontaine}


def setup_seconds(workload):
    """Import the package and its CLI and build every RingConfig the
    workload uses, in this (fresh) process."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import padicpolygons  # noqa: F401
    import padicpolygons.cli  # noqa: F401
    from padicpolygons.arith import RingConfig
    for p, m, e, prec in generate.ring_configs(workload):
        RingConfig(p, m, e, generate.eisenstein(p, e), prec=prec, r=2)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# operations


def family_op(mods, instance):
    cli, doc = mods["cli"], instance["doc"]

    def op():
        report = cli.cmd_analyze(doc)
        return report, cli.cmd_render(report, "json")

    return op


def _carrier_element(cfg, carrier, data):
    if carrier == "p":
        return cfg.w(tuple(data))
    if carrier == "u":
        return cfg.tilde([tuple(c) for c in data])
    return cfg.s([cfg.w(tuple(c)) for c in data])


def _matmul(carrier, A, B):
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = carrier.zero()
            for k, a in enumerate(row):
                acc = acc + a * B[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _invertible(cfg, carrier, factors):
    n = len(factors["lower"])
    low = [[carrier.one() if i == j else
            _carrier_element(cfg, carrier.name, factors["lower"][i][j])
            if i > j else carrier.zero() for j in range(n)] for i in range(n)]
    up = [[_carrier_element(cfg, carrier.name, factors["upper"][i][j])
           if i <= j else carrier.zero() for j in range(n)] for i in range(n)]
    return _matmul(carrier, low, up)


def build_matrix(mods, cfg, instance):
    """M = U diag(pi^n) V over the instance's carrier."""
    carrier = mods["adapted"].carrier_by_name(cfg, instance["carrier"])
    U = _invertible(cfg, carrier, instance["U"])
    V = _invertible(cfg, carrier, instance["V"])
    DV = [[V[i][j] * carrier.pi_power(n) for j in range(len(V))]
          for i, n in enumerate(instance["exponents"])]
    return carrier, _matmul(carrier, U, DV)


def smith_op(mods, carrier, rows):
    adapted = mods["adapted"]

    def op():
        return adapted.divisor_exponents(rows, carrier)

    return op


def eqx_op(mods, units, e, j):
    breuil = mods["breuil"]

    def op():
        return breuil.solve_eqX(*units, e, j)

    return op


def build_ops(mods, workload, instances):
    """One zero-argument callable per instance, and the check of their
    results.  Inputs are built here, before timing starts."""
    if workload.startswith("family"):
        golden = json.loads((HERE / "golden.json").read_text())["summaries"]
        return ([family_op(mods, inst) for inst in instances],
                FamilyCheck(instances, golden))
    RingConfig = mods["arith"].RingConfig
    p, m, e, prec = generate.MATRIX_RING
    cfg = RingConfig(p, m, e, generate.eisenstein(p, e), prec=prec, r=2)
    q, qm, qe, qprec = generate.EQX_RING
    cfg13 = RingConfig(q, qm, qe, generate.eisenstein(q, qe), prec=qprec,
                       r=2)
    ops, data = [], []
    for inst in instances:
        if inst["kind"] == "smith":
            carrier, rows = build_matrix(mods, cfg, inst)
            ops.append(smith_op(mods, carrier, rows))
            data.append((carrier, rows))
        else:
            units = [cfg13.tilde(c) for c in inst["units"]]
            ops.append(eqx_op(mods, units, qe, inst["j"]))
            data.append((cfg13, units, qe, inst["j"]))
    return ops, MatrixCheck(mods, instances, data)


# ---------------------------------------------------------------------------
# the closed loop


def timed_loop(ops, seconds, digest, tracer=None, min_passes=1):
    """Run whole passes over ops, so every instance weighs the same in every
    metric: at least ``min_passes``, then up to the pass boundary nearest
    to ``seconds`` (a run overshoots by at most half a pass).  Each result
    is reduced by ``digest`` after its timing ends, so memory does not grow
    with the run.  Returns (records, wall_ns); a record is (instance index,
    latency ns, raised (kind, message) or None, failing stage or None,
    digest of the result or None)."""
    clock = time.perf_counter_ns
    n = len(ops)
    records = []
    start = clock()
    deadline = start + int(seconds * 1e9)
    passes = 0
    while True:
        for i in range(n):
            exc = None
            result = None
            t0 = clock()
            root = tracer.begin_op(passes * n + i) if tracer else None
            try:
                result = ops[i]()
            except Exception as error:  # an operation's failure is a result
                exc = error
            stage = tracer.end_op(root, exc) if tracer else None
            t1 = clock()
            if exc is None:
                records.append((i, t1 - t0, None, None, digest(i, result)))
            else:
                records.append((i, t1 - t0, (type(exc).__name__, str(exc)),
                                stage, None))
            del exc, result
        passes += 1
        now = clock()
        if passes >= min_passes and \
                now + (now - start) // (2 * passes) >= deadline:
            return records, now - start


# ---------------------------------------------------------------------------
# checks, outside the timed region


class FamilyCheck:
    """Keeps each family result's invariant summary, not the report."""

    def __init__(self, instances, golden):
        self.instances = instances
        self.golden = golden
        self.first = {}      # instance index -> summary of its first result
        self.rendered = {}   # instance index -> rendered JSON matches report

    def digest(self, i, result):
        report, text = result
        summary = checks.family_summary(report)
        if i not in self.first:
            self.first[i] = summary
            self.rendered[i] = \
                checks.family_summary(json.loads(text)) == summary
        return summary, [v["name"] for v in report["verdicts"]
                         if not v["passed"]]

    def outcome(self, i, raised, digest):
        if raised is None:
            if not self.rendered[i]:
                return "wrong", "rendered JSON differs from the report", False
            if digest[0] != self.first[i]:
                return "wrong", "summary differs between repetitions", False
        return checks.classify_family(self.instances[i], raised, digest,
                                      self.golden)


class MatrixCheck:
    """Exponents against the minor oracle; eqX solutions by substitution
    (the first one) and by equality with the first (the repetitions)."""

    def __init__(self, mods, instances, data):
        self.adapted = mods["adapted"]
        self.instances = instances
        self.data = data
        self.first = {}      # eqX instance index -> first solution
        self.oracle = {}     # instance index -> minors, or substitution ok

    def digest(self, i, result):
        if self.instances[i]["kind"] == "smith":
            return result
        if i not in self.first:
            self.first[i] = result
            return True
        return (result - self.first[i]).is_zero()

    def outcome(self, i, raised, digest):
        if raised is not None:
            return checks.classify_raised(*raised)
        inst = self.instances[i]
        if inst["kind"] == "smith":
            if i not in self.oracle:
                carrier, rows = self.data[i]
                self.oracle[i] = self.adapted.minor_exponents(rows, carrier)
            return checks.classify_smith(inst, digest, self.oracle[i])
        if i not in self.oracle:
            cfg, (rho, alpha, mu), e, j = self.data[i]
            p, X = cfg.p, self.first[i]
            qexp = p * ((p + 1) * (e - j) - 2 * e)
            lhs = rho * X * (-alpha.phi() + X.phi() * cfg.tilde_u(qexp))
            self.oracle[i] = (lhs - mu).is_zero()
        return checks.classify_eqx(self.oracle[i] and digest)


# ---------------------------------------------------------------------------
# per-layer numbers of a traced run


def layer_metrics(tracer, records, workload):
    """Per-operation averages over the run's passes, plus the checks
    that the tracing itself is sound.  Returns (metrics, problems)."""
    from spans import (CALL_METRICS, ROOT as ROOT_SPAN, SELF_MS_METRICS,
                       nesting_errors, self_times)

    tree = [(name, start, end, parent)
            for _, name, start, end, parent in tracer.spans]
    selfs = self_times(tree)
    problems = [f"span {k} ({tree[k][0]}) is not inside its parent"
                for k in nesting_errors(tree)[:5]]
    per_op_self, root_duration = Counter(), {}
    self_by_name = Counter()
    for (op, name, start, end, _), own in zip(tracer.spans, selfs):
        per_op_self[op] += own
        self_by_name[name] += own
        if name == ROOT_SPAN:
            root_duration[op] = end - start
    for op, duration in root_duration.items():
        if per_op_self[op] != duration:
            problems.append(f"self times of op {op} add up to "
                            f"{per_op_self[op]} ns, not {duration} ns")
            break
    for name in REACHED[workload]:
        if tracer.counts[name + ".calls"] == 0:
            problems.append(f"{name} was never reached")

    n = len(records)
    counts = tracer.counts
    out = {name + ".calls": counts[name + ".calls"] / n
           for name in CALL_METRICS}
    out.update({name + "_ms": self_by_name[name] / n / 1e6
                for name in SELF_MS_METRICS})
    out["bench.unattributed_ms"] = self_by_name[ROOT_SPAN] / n / 1e6
    val_e = counts["arith.strunc_val_E.calls"]
    out["arith.divrem_per_val_E"] = (
        counts["arith.strunc_divrem_E.calls"] / val_e if val_e else 0.0)
    solves = counts["breuil.solve_eqX.calls"]
    # phi runs once on alpha, then once on X per fixed-point step and once
    # more in the substitution check that follows the steps
    out["breuil.solve_eqX.iterations"] = (
        counts["breuil.solve_eqX.phi_calls"] / solves - 1 if solves else 0.0)
    for name in ("breuil.t_digits_min", "breuil.elements_digits_min"):
        out[name] = tracer.gauges.get(name, 0)
    return out, problems


def error_shares(records, outcomes):
    """Share of operations per (innermost stage, exception class)."""
    shares = Counter()
    for (_, _, raised, stage, _), (outcome, _, _) in zip(records,
                                                        outcomes):
        if outcome == "error":
            shares[f"errors.{stage}.{raised[0]}"] += 1 / len(records)
    return dict(shares)


def write_spans(tracer, path):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
        for op, name, start, end, parent in tracer.spans:
            fh.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")


# ---------------------------------------------------------------------------
# entry point


def run(args):
    instances = generate.instances(args.workload, args.seed)
    mods = _package()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install(mods)
    ops, check = build_ops(mods, args.workload, instances)
    gc.collect()
    records, wall_ns = timed_loop(ops, args.seconds, check.digest, tracer,
                                  args.min_passes)
    if tracer is not None:
        tracer.uninstall()
    outcomes = [check.outcome(i, raised, digest)
                for i, _, raised, _, digest in records]
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "instances": instances,
        "records": [{"i": i, "ns": ns, "raised": raised, "stage": stage,
                     "outcome": o[0], "detail": o[1], "known": o[2]}
                    for (i, ns, raised, stage, _), o
                    in zip(records, outcomes)],
        "wall_ns": wall_ns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layer, problems = layer_metrics(tracer, records, args.workload)
        layer.update(error_shares(records, outcomes))
        out["layer"], out["problems"] = layer, problems
        write_spans(tracer, args.out + ".spans.tsv.gz")
    Path(args.out).write_text(json.dumps(out))


def golden(args):
    """Invariant summaries of the seed's family instances that return."""
    mods = _package()
    summaries = {}
    for workload in ("family-small", "family-ramified"):
        for inst in generate.instances(workload, args.seed):
            try:
                report = mods["cli"].cmd_analyze(inst["doc"])
            except (ValueError, ArithmeticError):
                continue
            summaries[inst["key"]] = checks.family_summary(report)
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(summaries[key])}"
                      for key in sorted(summaries))
    Path(args.out).write_text(
        f'{{"seed": {args.seed}, "summaries": {{\n{rows}\n}}}}\n')


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=["setup", "run", "golden"])
    parser.add_argument("--workload", choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_seconds(args.workload)}))
    elif args.mode == "run":
        run(args)
    else:
        golden(args)


if __name__ == "__main__":
    main()
