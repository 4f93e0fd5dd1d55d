"""One SHA-256 per benchmark workload and one for the oracle, of a checkout.

    python3 tools/output_digest.py ROOT

ROOT is the root of a checkout (``src/`` and ``perfbench/``).  The digests
cover the family-small and family-ramified results (``cli.cmd_analyze`` and
its JSON render) and the matrix-solve results, each for seeds 0-3, with the
inputs built by ``perfbench/worker.build_ops``; an operation that raises
enters as its exception class and message.  The oracle digest covers the
exit code and output of ``oracle --seed 0..7`` (``oracle_digest`` takes
other seeds).  Two checkouts whose lines
agree gave byte-identical outputs.  To compare two checkouts, run it once
per checkout, each in its own process (the package is imported from ROOT),
and ``diff`` the two outputs:

    python3 tools/output_digest.py OLD > old.txt
    python3 tools/output_digest.py NEW > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

SEEDS = range(4)
ORACLE_SEEDS = range(8)
WORKLOADS = ("family-small", "family-ramified", "matrix-solve")


def _text(workload, result):
    if workload.startswith("family"):
        return result[1]        # the JSON render of the report
    return repr(result)


def workload_digest(worker, generate, mods, workload):
    h = hashlib.sha256()
    for seed in SEEDS:
        ops, _ = worker.build_ops(mods, workload,
                                  generate.instances(workload, seed))
        for op in ops:
            try:
                text = _text(workload, op())
            except Exception as exc:    # noqa: BLE001 - a failure is an output
                text = f"{type(exc).__name__}: {exc}"
            h.update(text.encode() + b"\0")
    return h.hexdigest()


def oracle_digest(cli, seeds=ORACLE_SEEDS):
    h = hashlib.sha256()
    for seed in seeds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["oracle", "--seed", str(seed)])
        h.update(f"{code}\n{out.getvalue()}\0".encode())
    return h.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path.insert(0, str(root / "perfbench"))
    import generate
    import worker
    mods = worker._package()
    for workload in WORKLOADS:
        print(workload, workload_digest(worker, generate, mods, workload))
    print("oracle", oracle_digest(mods["cli"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
