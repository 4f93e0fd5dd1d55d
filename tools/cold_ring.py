"""First and second analyses of a ring in fresh processes, for two checkouts.

    python3 tools/cold_ring.py OLD_ROOT NEW_ROOT --ring p,m,e --runs N

Each ROOT is the root of a checkout.  A run starts one fresh Python process
per side, and the side that goes first alternates from run to run, so a
change in the host's speed weighs on both alike.  The process imports
``padicpolygons`` from ROOT/src and times ``cli.cmd_analyze`` twice on the
family document with L = x+pi, E(u) = u^e - p and prec = p: the first call
builds the ring and every table it uses, the second finds them built (the
CLI keeps one ring per key).  Imports are not timed.  Per side it prints
the median over the N runs of the first and of the second time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("old", "new")

CHILD = """
import json, sys, time
from padicpolygons import cli
doc = json.loads(sys.argv[1])
took = []
for _ in range(2):
    t0 = time.perf_counter()
    cli.cmd_analyze(doc)
    took.append(time.perf_counter() - t0)
print(json.dumps(took))
"""


def document(p, m, e):
    """The family document of x+pi over E(u) = u^e - p at prec = p."""
    return {"mode": "family",
            "ring": {"p": p, "m": m, "e": e,
                     "E": [-p] + [0] * (e - 1) + [1], "prec": p},
            "family": {"n1": 1, "n2": 1, "L": "x+pi"}}


def _times(root, doc):
    """[first, second] seconds of one fresh process on root's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(doc)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def compare(old_root, new_root, ring, runs):
    """{side: (median first, median second)} in seconds over runs fresh
    processes per side."""
    doc = document(*ring)
    times = {side: [] for side in SIDES}
    roots = dict(zip(SIDES, (old_root, new_root)))
    for k in range(runs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            times[side].append(_times(roots[side], doc))
    return {side: tuple(statistics.median(t[i] for t in times[side])
                        for i in range(2)) for side in SIDES}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cold_ring.py")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--ring", required=True,
                        type=lambda s: tuple(int(x) for x in s.split(",")),
                        help="p,m,e")
    parser.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    if len(args.ring) != 3:
        parser.error("--ring takes p,m,e")
    result = compare(args.old_root, args.new_root, args.ring, args.runs)
    key = "(%d,%d,%d)" % args.ring
    for side in SIDES:
        first, second = result[side]
        print(f"{side} {key} x+pi prec {args.ring[0]}: first {first:.4f} s  "
              f"second {second:.4f} s  median of {args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
