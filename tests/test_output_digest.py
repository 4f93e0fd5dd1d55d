"""``tools/output_digest.py`` pins the results of the three benchmark
workloads.

The matrix-solve digest covers every Smith exponent list and every eqX
solution X of matrix-solve seeds 0-3, and the family digests every JSON
report (or error) of family-small and family-ramified seeds 0-3, all on
``perfbench/worker.build_ops`` inputs, so a change to any of them fails
here.  The matrix-solve value was recorded before the eqX solver moved onto
packed coordinates, and the family values before ``FamilyParams`` kept the
one normalization of L; an intended change of the results re-records them
and says so in ``CHANGES.md``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import generate  # noqa: E402
import output_digest  # noqa: E402
import worker  # noqa: E402

MATRIX_SOLVE = \
    "fb5ec0955c8cb68c38f607b4f4c3e25cd3a2cab54a59b4640d9f6b99ef1f064a"
FAMILY = {
    "family-small":
        "8ab7e4b71c795c2513a7bd35cbb6714166b89016d96170915e4f8fa9a0f0253c",
    "family-ramified":
        "2eb1b4435c643a1878d894b222c03b667155a705a7b3bcd5733250f725258f30",
}


def test_matrix_solve_digest_is_pinned():
    mods = worker._package()
    assert output_digest.workload_digest(worker, generate, mods,
                                         "matrix-solve") == MATRIX_SOLVE


@pytest.mark.parametrize("workload", sorted(FAMILY))
def test_family_digest_is_pinned(workload):
    mods = worker._package()
    assert output_digest.workload_digest(worker, generate, mods,
                                         workload) == FAMILY[workload]
