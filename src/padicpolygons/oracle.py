"""Randomized cross-checks of the derived-value paths, shared by the test
suite and ``padic-polygons oracle``.

Each check takes a ``random.Random`` and a trial count and returns its
failing cases, one line of text each; an empty list means it passed.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations

from . import adapted, breuil, polygons
from .arith import RingConfig

# ---------------------------------------------------------------------------
# random elements


def random_witt(cfg, rng):
    q = cfg.p ** cfg.prec
    return cfg.w(tuple(rng.randrange(q) for _ in range(cfg.m)))


def random_k_elem(cfg, rng, pexp_max=1):
    """An element of K: e random W-coordinates over p^k, k <= pexp_max."""
    coeffs = [random_witt(cfg, rng) for _ in range(cfg.e)]
    return cfg.k_elem(coeffs, rng.randrange(pexp_max + 1))


def _length(cfg, rng, max_deg):
    """A polynomial length in [1, max_deg], by default up to ep."""
    return rng.randrange(1, (max_deg or cfg.e * cfg.p) + 1)


def random_strunc(cfg, rng, max_deg=None):
    return cfg.s([random_witt(cfg, rng)
                  for _ in range(_length(cfg, rng, max_deg))])


def random_tilde(cfg, rng, max_deg=None):
    return cfg.tilde([tuple(rng.randrange(cfg.p) for _ in range(cfg.m))
                      for _ in range(_length(cfg, rng, max_deg))])


def random_tilde_unit(cfg, rng, max_deg=None):
    coeffs = list(random_tilde(cfg, rng, max_deg).coeffs)
    while coeffs[0].is_zero():
        coeffs[0] = cfg.gf.elem(tuple(rng.randrange(cfg.p)
                                      for _ in range(cfg.m)))
    return cfg.tilde(coeffs)


def random_matrix(cfg, carrier, rng, d, D, vmax):
    """A d x D carrier matrix: random elements times pi^v, v <= vmax."""
    draw = {"E": lambda: random_strunc(cfg, rng, 4),
            "u": lambda: random_tilde(cfg, rng, 6),
            "p": lambda: random_witt(cfg, rng)}[carrier.name]

    def entry():
        v = rng.randrange(0, vmax + 1)
        return draw() * carrier.pi_power(v)

    return [[entry() for _ in range(D)] for _ in range(d)]


def random_polygon(rng, d):
    return polygons.from_slopes([Fraction(rng.randrange(0, 9),
                                          rng.choice([1, 2, 3]))
                                 for _ in range(d)])


def longdiv_remainder(x, divisor):
    """Independent synthetic division: remainder of x by the monic divisor."""
    work = list(x.coeffs)
    d = len(divisor) - 1
    for k in range(len(work) - 1, d - 1, -1):
        c = work[k]
        for i in range(d + 1):
            work[k - d + i] = work[k - d + i] - c * divisor[i]
    return work[:d]


# ---------------------------------------------------------------------------
# the checks


def tronc_difference_divisible(rng, trials):
    """x - tronc_s(x) is an exact E^s-multiple for s = 1, 2, by synthetic
    division and by val_E."""
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)
    failures = []
    for _ in range(trials):
        x = random_strunc(cfg, rng)
        for s in (1, 2):
            diff = x - x.tronc(s)
            rem = longdiv_remainder(diff, cfg._E_power(s))
            if not all(c.is_zero() for c in rem) or diff.val_E() < s:
                failures.append(f"s = {s}, x = {x!r}")
    return failures


def exponent_paths_agree(rng, trials, vmax):
    """Smith reduction and minor enumeration give the same exponents on
    3 x 4 matrices with entries up to pi^vmax, over the E, u and p
    carriers."""
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)
    failures = []
    for carrier in (adapted.ECarrier(cfg), adapted.UCarrier(cfg),
                    adapted.PCarrier(cfg)):
        for _ in range(trials):
            rows = random_matrix(cfg, carrier, rng, 3, 4, vmax)
            exps = adapted.divisor_exponents(rows, carrier)
            minors = adapted.minor_exponents(rows, carrier)
            if exps != minors:
                failures.append(f"{carrier.name} carrier: reduction {exps} "
                                f"vs minors {minors}")
    return failures


def newton_split(rng, trials):
    """prod (X - p^{a_i}) has root valuations exactly the a_i."""
    failures = []
    for _ in range(trials):
        avals = [rng.randrange(0, 6) for _ in range(rng.randrange(1, 6))]
        vals = [min(sum(sub) for sub in combinations(avals, len(avals) - k))
                for k in range(len(avals) + 1)]
        slopes = list(polygons.newton_polygon(vals).slopes)
        if slopes != sorted(avals):
            failures.append(f"roots {sorted(avals)}: slopes {slopes}")
    return failures


def merge_min(rng, trials):
    """The merge's ordinates are the min-plus convolution of its parts'."""
    failures = []
    for _ in range(trials):
        P = random_polygon(rng, rng.randrange(0, 4))
        Q = random_polygon(rng, rng.randrange(1, 4))
        M = polygons.merge(P, Q)
        for k in range(M.width + 1):
            want = min(P.ordinate(m) + Q.ordinate(k - m)
                       for m in range(max(0, k - Q.width),
                                      min(k, P.width) + 1))
            if M.ordinate(k) != want:
                failures.append(f"merge of {P.slopes} and {Q.slopes}: "
                                f"ordinate {M.ordinate(k)} at {k} != {want}")
                break
    return failures


def eqX_substitution(rng, trials, max_deg):
    """solve_eqX at (13,1,5), j = 4, on units of length up to max_deg: X
    satisfies the equation and its constant term is -mu/(rho phi(alpha))."""
    cfg = RingConfig(13, 1, 5, [-13, 0, 0, 0, 0, 1], prec=8, r=2)
    q = 13 * ((13 + 1) * 1 - 2 * 5)
    assert q < cfg.e * cfg.p, "u^q must not be truncated"
    failures = []
    for _ in range(trials):
        rho, alpha, mu = (random_tilde_unit(cfg, rng, max_deg)
                          for _ in range(3))
        try:
            X = breuil.solve_eqX(rho, alpha, mu, 5, 4)
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"rho {rho!r}, alpha {alpha!r}, mu {mu!r}: {exc}")
            continue
        phialpha = alpha.phi()
        lhs = rho * X * (-phialpha + X.phi() * cfg.tilde_u(q))
        want = -(mu.coeffs[0] * (rho.coeffs[0] * phialpha.coeffs[0]).inverse())
        if not (lhs - mu).is_zero() or X.coeffs[0] != want:
            failures.append(f"rho {rho!r}, alpha {alpha!r}, mu {mu!r}: "
                            f"X = {X!r}")
    return failures


# (line name, check) of ``padic-polygons oracle``: matrices up to pi^4 (the
# tests stop at pi^2), eqX units below degree 8 (full degree doubles its time)
BATTERY = (
    ("tronc_remainder_divisible", tronc_difference_divisible),
    ("divisor_exponents_paths_agree",
     functools.partial(exponent_paths_agree, vmax=4)),
    ("newton_and_merge_formulas",
     lambda rng, trials: newton_split(rng, trials) + merge_min(rng, trials)),
    ("eqX_substitution", functools.partial(eqX_substitution, max_deg=8)),
)
