"""Weak admissibility of planted 2-dimensional filtered (phi, N)-modules
over Q_p, pinned as one table.

Each module is planted from exact rationals: phi = P J P^{-1} for a random
integer matrix P and J one of

- ``diag``: diag(mu_1, mu_2);
- ``scalar``: mu times the identity;
- ``jordan``: the Jordan block [[mu, 1], [0, mu]];
- ``irreducible``: the companion matrix of a quadratic with no root in Q_p;
- ``monodromy``: [[mu, c], [0, p mu]], with N = P E_12 P^{-1}.

N = 0 for the other four.  Each mu is a small unit times p^k, k <= 2.  The
filtration is D_K up to the full depth d in {0, 1}, then one K-line up to
h_2, and 0 above.  h_2 = t_N - d, so that t_H = t_N, except on about one
row in ten, where it is moved by one.  The line is a column of P, a
K0-vector or a coordinate axis, each times 1, pi or a random K element; a
random K-vector; or absent, with h_2 = d = t_N / 2 when t_N is 0 or 2.
The rings are (p, e) in (7, 1), (7, 2), (11, 1), (11, 2) and (13, 2) with
m = 1 and E = u^e - p, at prec 5 to 7.

A row gives the module and the verdict of ``weakly_admissible_dim2``, or
the exception's type and message.  Each verdict must also be the one that
the definition gives from the planted stable lines (``_by_definition``),
unless it is a PrecisionError.

Print the table with
``PYTHONPATH=src python tests/test_admissibility_battery.py``.
"""

import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

from padicpolygons import RingConfig, weakly_admissible_dim2
from padicpolygons.fontaine import FilteredModule
from padicpolygons.oracle import random_k_elem

GOLDEN = Path(__file__).parent / "golden" / "admissibility_dim2.txt"

RINGS = ((7, 1), (7, 2), (11, 1), (11, 2), (13, 2))
J_KINDS = ("diag", "scalar", "jordan", "irreducible", "monodromy")
LINE_KINDS = ("column", "k0", "axis", "k", "none")


@functools.cache
def _ring(p, e, prec):
    return RingConfig(p, 1, e, [-p] + [0] * (e - 1) + [1], prec=prec, r=2)


def _vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x, v = Fraction(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def _unit(rng, p):
    return rng.choice([a for a in range(1 - p, p) if a % p])


def _mu(rng, p):
    return Fraction(_unit(rng, p) * p ** rng.randrange(3))


def _nonresidue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def _planted_J(rng, p, kind):
    """(J, N_0, stable) with N_0 J = p J N_0.  ``stable`` lists the phi- and
    N-stable lines of J as (vector, eigenvalue); a vector None stands for
    every line."""
    zero = ((0, 0), (0, 0))
    if kind == "diag":
        mu1, mu2 = _mu(rng, p), _mu(rng, p)
        stable = [(None, mu1)] if mu1 == mu2 else [((1, 0), mu1),
                                                    ((0, 1), mu2)]
        return ((mu1, 0), (0, mu2)), zero, stable
    if kind == "scalar":
        mu = _mu(rng, p)
        return ((mu, 0), (0, mu)), zero, [(None, mu)]
    if kind == "jordan":
        mu = _mu(rng, p)
        return ((mu, 1), (0, mu)), zero, [((1, 0), mu)]
    if kind == "irreducible":
        # X^2 - aX + b with discriminant a^2 - 4b a non-square in Q_p:
        # a nonresidue unit or p times a unit, times an even power of p
        disc = rng.choice((_nonresidue(p), p * _unit(rng, p)))
        disc *= p ** (2 * rng.randrange(2))
        a = Fraction(rng.randrange(-p, p + 1) * p ** rng.randrange(2))
        b = (a * a - disc) / 4
        return ((0, -b), (1, a)), zero, []
    # the p mu-eigenline is not N-stable: N_0 sends it onto the mu-eigenline
    mu = _mu(rng, p)
    return (((mu, rng.randrange(-p, p + 1)), (0, p * mu)), ((0, 1), (0, 0)),
            [((1, 0), mu)])


def _mat_mul(a, b):
    return tuple(tuple(sum(Fraction(a[i][k]) * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _conjugate(P, J):
    (a, b), (c, d) = P
    det = Fraction(a * d - b * c)
    inv = ((d / det, -b / det), (-c / det, a / det))
    return _mat_mul(_mat_mul(P, J), inv)


def _k(cfg, fr):
    x = cfg.k0_from_fraction(fr)
    return cfg.k_elem([x.num], x.pexp)


def _fmt_mat(M):
    return "[" + ";".join(",".join(str(Fraction(x)) for x in row)
                          for row in M) + "]"


def _line(rng, cfg, P, kind):
    """(description, K-vector, exact K0-vector) of the filtration line.
    The K0-vector spans the line over K, or is None when the line is not
    K0-rational; the K-vector is None when there is no line."""
    p = cfg.p
    if kind == "none":
        return "none", None, None
    if kind == "k":
        g = tuple(random_k_elem(cfg, rng, pexp_max=0) for _ in range(2))
        a, b = ([c.coords[0] for c in x.coeffs] for x in g)
        rational = all(a[i] * b[j] == a[j] * b[i]
                       for i in range(cfg.e) for j in range(i))
        return "k", g, next(((x, y) for x, y in zip(a, b) if x or y),
                            None) if rational else None
    if kind == "column":
        j = rng.randrange(2)
        desc, vec = f"column{j}", (P[0][j], P[1][j])
    elif kind == "k0":
        vec = tuple(rng.randrange(-p * p, p * p + 1) for _ in range(2))
        if vec == (0, 0):
            vec = (1, 0)
        desc = f"k0({vec[0]},{vec[1]})"
    else:
        j = rng.randrange(2)
        desc, vec = f"axis{j}", (1 - j, j)
    scale = rng.choice(("1", "1", "pi", "k"))
    factor = {"1": cfg.k_one(), "pi": cfg.pi(),
              "k": random_k_elem(cfg, rng, pexp_max=0)}[scale]
    return f"{desc}*{scale}", tuple(_k(cfg, x) * factor for x in vec), vec


def _by_definition(p, P, stable, tN, d, h2, w):
    """The verdict of the definition: t_H = t_N, and t_H(l) <= v(lambda) on
    every stable line l = P x.  t_H(l) is h_2 when l spans the filtration
    line over K, and d otherwise; on every line at once, it is at most h_2
    when the filtration line is K0-rational, and d otherwise."""
    if d + h2 != tN:
        return False
    for x, lam in stable:
        deepest = w is not None and d < h2 and (
            x is None or (P[0][0] * x[0] + P[0][1] * x[1]) * w[1] ==
            (P[1][0] * x[0] + P[1][1] * x[1]) * w[0])
        if (h2 if deepest else d) > _vp(lam, p):
            return False
    return True


def planted_module(rng):
    """(description, FilteredModule, the verdict by definition) of one
    planted module."""
    p, e = rng.choice(RINGS)
    prec = rng.randrange(5, 8)
    cfg = _ring(p, e, prec)
    kind = rng.choice(J_KINDS)
    J, N0, stable = _planted_J(rng, p, kind)
    while True:
        P = tuple(tuple(rng.randrange(-2 * p, 2 * p + 1) for _ in range(2))
                  for _ in range(2))
        if P[0][0] * P[1][1] - P[0][1] * P[1][0]:
            break
    phi, N = _conjugate(P, J), _conjugate(P, N0)
    tN = _vp(J[0][0] * J[1][1] - J[0][1] * J[1][0], p)
    line_desc, line, w = _line(rng, cfg, P, rng.choice(LINE_KINDS))
    d = rng.randrange(2)
    if line is None:
        d = h2 = tN // 2 if tN in (0, 2) else d
    else:
        h2 = tN - d + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
        if h2 < d:
            d = 0
            h2 = max(h2, 0)
    kone, kzero = cfg.k_one(), cfg.k_zero()
    full = ((kone, kzero), (kzero, kone))
    fil = [full] * (d + 1) + [(line,)] * (h2 - d) + [()]
    phi_k0, N_k0 = (tuple(tuple(cfg.k0_from_fraction(x) for x in row)
                          for row in M) for M in (phi, N))
    D = FilteredModule(cfg, 2, phi_k0, N_k0, tuple(fil))
    desc = (f"p={p} e={e} prec={prec} J={kind} phi={_fmt_mat(phi)} "
            f"N={_fmt_mat(N)} d={d} h2={h2} line={line_desc}")
    return desc, D, _by_definition(p, P, stable, tN, d, h2, w)


def outcome(D):
    try:
        return str(weakly_admissible_dim2(D))
    except Exception as exc:  # the row records whatever the verdict raises
        return f"{type(exc).__name__}: {exc}"


def battery(count=300, seed="admissibility dim2"):
    rng = random.Random(seed)
    return [planted_module(rng) for _ in range(count)]


def table(modules):
    return [f"{i:03d} {desc}: {outcome(D)}"
            for i, (desc, D, _) in enumerate(modules)]


def test_admissibility_battery_is_pinned():
    assert table(battery()) == GOLDEN.read_text(
        encoding="utf-8").splitlines()


def test_admissibility_battery_follows_the_definition():
    # every verdict is the one the planted stable lines give, or the digits
    # ran out
    for desc, D, expected in battery():
        got = outcome(D)
        assert got == str(expected) or got.startswith("PrecisionError: "), \
            desc


if __name__ == "__main__":
    sys.stdout.write("".join(row + "\n" for row in table(battery())))
