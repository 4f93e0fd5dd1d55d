"""The family pipeline along the precision axis, pinned as one golden.

One row per instance: the rings (7,2,2), (11,2,4) and (13,1,5), each with
E = u^e - p and with the outcome table's seeded E, and L in {pi, x+pi,
pi^3+x}, with n1 = n2 = 1.  A row holds one letter per precision from 2 up
to p:

* ``P``: a report whose verdicts all pass;
* ``F``: a report with a failed verdict;
* ``I``: "A is not in the premise ideal";
* ``Q``: "L lies in Q_p";
* ``r``: the lattice pipeline's refusal of a precision below r + 4;
* ``e``: a ``PrecisionError``;
* ``X``: any other exception.

Rows record the pipeline as it stands, wrong claims included; a change that
moves a letter says so.  Print the golden with
``PYTHONPATH=src python tests/test_precision_axis.py``.
"""

import sys
from pathlib import Path

from padicpolygons import (FamilyParams, PrecisionError, RingConfig,
                           analyze_family)
from padicpolygons.cli import parse_L_expression
from test_outcome_table import L_SPECS, _fmt, monomial_E, seeded_E

GOLDEN = Path(__file__).parent / "golden" / "precision_axis.txt"

RINGS = ((7, 2, 2), (11, 2, 4), (13, 1, 5))


def letter(cfg, spec):
    try:
        a = analyze_family(FamilyParams(cfg, 1, 1,
                                        parse_L_expression(cfg, spec)))
    except PrecisionError:
        return "e"
    except Exception as exc:  # the row records whatever the pipeline raises
        msg = str(exc) if isinstance(exc, ValueError) else ""
        return ("Q" if msg.startswith("L lies in Q_p") else
                "I" if msg == "A is not in the premise ideal" else
                "r" if msg.endswith("too small for the lattice pipeline "
                                    f"(need >= {cfg.r + 4})") else "X")
    return "P" if all(ok for _, ok, _ in a.verdicts) else "F"


def table():
    rows = []
    for p, m, e in RINGS:
        for E in (monomial_E(p, e), seeded_E(p, m, e)):
            cfgs = [RingConfig(p, m, e, E, prec=prec, r=2)
                    for prec in range(2, p + 1)]
            for spec in L_SPECS:
                rows.append(f"p={p} m={m} e={e} E={_fmt(E)} L={spec}: "
                            + "".join(letter(cfg, spec) for cfg in cfgs))
    return rows


def test_precision_axis_is_pinned():
    assert table() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    sys.stdout.write("".join(row + "\n" for row in table()))
