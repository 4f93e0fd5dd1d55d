"""``tools/output_digest.py`` pins the matrix-solve results.

The digest covers every Smith exponent list and every eqX solution X of
matrix-solve seeds 0-3 (``perfbench/worker.build_ops`` inputs), so a change
to any of them fails here.  The value was recorded before the eqX solver
moved onto packed coordinates; an intended change of the results re-records
it and says so in ``CHANGES.md``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import generate  # noqa: E402
import output_digest  # noqa: E402
import worker  # noqa: E402

MATRIX_SOLVE = \
    "fb5ec0955c8cb68c38f607b4f4c3e25cd3a2cab54a59b4640d9f6b99ef1f064a"


def test_matrix_solve_digest_is_pinned():
    mods = worker._package()
    assert output_digest.workload_digest(worker, generate, mods,
                                         "matrix-solve") == MATRIX_SOLVE
