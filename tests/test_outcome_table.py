"""The family pipeline over the paper's range, pinned as one outcome table.

One row per instance: p in {7, 11, 13}, every e with 2e < p - 1, m in
{1, 2}, L in {pi, x+pi, pi^3+x}, n1 = n2 = 1 and prec = p.  Every ring runs
twice: with E = u^e - p and with one seeded non-monomial Eisenstein
polynomial E = u^e + p (a_{e-1} u^{e-1} + ... + a_1 u) - p c_0, c_0 a unit.

A row gives the outcome class: ``pass`` or ``verdict-fail`` (a report, with
case, j, v, v_exact, the classification shape and both adapted exponent
lists; a failure also names its failed verdicts), ``qp`` (L lies in Q_p),
or the exception's type and message.  Rows record the pipeline as it
stands, wrong claims included; a change that moves a row says so.

Print the table with ``PYTHONPATH=src python tests/test_outcome_table.py``.
"""

import random
import sys
from pathlib import Path

from padicpolygons import INF, FamilyParams, RingConfig, analyze_family
from padicpolygons.cli import parse_L_expression

GOLDEN = Path(__file__).parent / "golden" / "outcome_table.txt"

PRIMES = (7, 11, 13)
L_SPECS = ("pi", "x+pi", "pi^3+x")


def monomial_E(p, e):
    return [-p] + [0] * (e - 1) + [1]


def seeded_E(p, m, e):
    """u^e + p (a_{e-1} u^{e-1} + ... + a_1 u) - p c_0 with c_0 a unit of
    W, each coordinate below p^2, drawn from a seed fixed by the ring."""
    rng = random.Random(f"eisenstein {p} {m} {e}")

    def coords(unit):
        while True:
            c = [rng.randrange(p * p) for _ in range(m)]
            if not unit or c[0] % p:
                return c

    c0 = coords(True)
    lower = [[p * x for x in coords(False)] for _ in range(e - 1)]
    E = [[-p * x for x in c0]] + lower + [[1] + [0] * (m - 1)]
    return [c[0] for c in E] if m == 1 else E


def _fmt(E):
    return "[" + ",".join(str(c) if isinstance(c, int) else
                          "(" + ",".join(map(str, c)) + ")" for c in E) + "]"


def outcome(cfg, spec):
    try:
        a = analyze_family(FamilyParams(cfg, 1, 1,
                                        parse_L_expression(cfg, spec)))
    except Exception as exc:  # the row records whatever the pipeline raises
        if isinstance(exc, ValueError) and str(exc).startswith(
                "L lies in Q_p"):
            return "qp"
        return f"{type(exc).__name__}: {exc}"
    el = a.elements
    failed = [name for name, ok, _ in a.verdicts if not ok]
    head = "pass" if not failed else "verdict-fail " + ",".join(failed)
    v = "inf" if el.v == INF else str(el.v)
    return (f"{head} case={el.case_tag} j={el.j} v={v} v_exact={el.v_exact}"
            f" shape={a.classification.shape} E_exps={list(a.exponents_E)}"
            f" u_exps={list(a.exponents_u)}")


def table():
    rows = []
    for p in PRIMES:
        for e in range(1, (p - 2) // 2 + 1):     # 2e < p - 1
            for m in (1, 2):
                for E in (monomial_E(p, e), seeded_E(p, m, e)):
                    cfg = RingConfig(p, m, e, E, prec=p, r=2)
                    for spec in L_SPECS:
                        rows.append(f"p={p} m={m} e={e} E={_fmt(E)} "
                                    f"L={spec}: {outcome(cfg, spec)}")
    return rows


def test_outcome_table_is_pinned():
    assert table() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    sys.stdout.write("".join(row + "\n" for row in table()))
