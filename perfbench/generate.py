"""Seeded inputs for the benchmark workloads.

Everything here is plain data (ints, strings, lists), so the package under
test only ever sees instance documents and, for matrix-solve, matrices that
the worker assembles from these integers before timing starts.  The same
seed always gives the same list.

Draws are stratified: each seed fixes the same number of instances per
(ring, shape) stratum and varies only the digits of the units.  The cost and
the outcome of an instance depend on its stratum, so the mix, and with it
the rate of known failures, is the same for every seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("family-small", "family-ramified", "matrix-solve")

# Whole passes over the instance list that a run makes at least, whatever
# its length: the latency tail is the highest quantile that keeps 10
# operations beyond it in this many passes.
MIN_PASSES = {"family-small": 5, "family-ramified": 2, "matrix-solve": 20}

# The grid that ROADMAP item 1 names, kept in every seed.
ROADMAP_L = ("pi", "x", "x+pi", "pi^3+x")

# family-small: p = 7, (m, e) in {(2,1), (1,2), (2,2)}, prec in {6, 7}.
SMALL_RINGS = [(7, m, e, prec) for (m, e) in ((2, 1), (1, 2), (2, 2))
               for prec in (6, 7)]
# Draw shapes per ring: "x" is a unit times x (m = 2), an int k is a unit
# times pi^k with 0 < k < e.
SMALL_DRAWS = {(2, 1): ("x", "x", "x", "x"), (1, 2): (1, 1, 1, 1),
               (2, 2): ("x", "x", 1, 1)}
# Known defect kept visible: at (7, m, 2), prec 6 these raise PrecisionError.
SMALL_DEFECTS = ("pi^3", "p*pi")

RAMIFIED_GRID_RINGS = [(11, 2, 4), (13, 2, 4), (13, 1, 5)]
# One draw per ring; the pi-power shapes are fixed so the stratum, and with
# it the outcome, does not depend on the seed.
RAMIFIED_DRAWS = [((11, 2, 2), "x"), ((13, 2, 2), 1), ((11, 2, 4), 2),
                  ((13, 2, 4), "x"), ((13, 1, 5), 3)]

# matrix-solve: planted Smith forms M = U diag(pi^n) V with U, V invertible,
# so the true exponents are n whatever the random digits.  Over the p
# carrier, (1,5), (2,3), (0,2,4) and (1,2,3) hit the known reduction defect
# (the Smith path loses the precision that the minors keep).
MATRIX_RING = (7, 2, 2, 7)
MATRIX_PATTERNS = {
    "E": [(0, 1), (1, 3), (0, 1, 2), (0, 2, 3)],
    "u": [(0, 3), (2, 5), (1, 4), (0, 6), (1, 2, 4), (0, 3, 6), (2, 2, 5),
          (0, 1, 7)],
    "p": [(0, 2), (0, 5), (1, 2), (1, 4), (2, 2), (1, 5), (2, 3),
          (0, 1, 2), (1, 1, 2), (0, 0, 3), (0, 2, 4), (1, 2, 3)],
}
EQX_RING = (13, 1, 5, 8)
EQX_CALLS = 4
EQX_UNIT_DEGREE = 8
EQX_J = 4


def eisenstein(p, e):
    """Coefficients of E(u) = u^e - p, low degree first."""
    return [-p] + [0] * (e - 1) + [1]


def ring_doc(p, m, e, prec):
    return {"p": p, "m": m, "e": e, "E": eisenstein(p, e), "prec": prec}


def in_qp(terms, m, e):
    """Whether a sum of monomials pi^i x^j (with E = u^e - p, so pi^e = p)
    lies in Q_p: every monomial must be a p-power times a Q_p element."""
    return all(i % e == 0 and (j == 0 or m == 1) for i, j in terms)


# monomials (pi exponent, x exponent) of the fixed L expressions
_TERMS = {"pi": [(1, 0)], "x": [(0, 1)], "x+pi": [(0, 1), (1, 0)],
          "pi^3+x": [(3, 0), (0, 1)], "pi^3": [(3, 0)], "p*pi": [(1, 0)]}


def family_instance(ring, L, terms, origin):
    p, m, e, prec = ring
    return {"kind": "family", "key": f"{p},{m},{e},{prec}:{L}",
            "origin": origin, "in_qp": in_qp(terms, m, e),
            "doc": {"mode": "family", "ring": ring_doc(p, m, e, prec),
                    "family": {"n1": 1, "n2": 1, "L": L}}}


def _unit_digits(rng, p, prec):
    """An integer prime to p with prec random base-p digits."""
    a = rng.randrange(1, p ** prec)
    return a if a % p else a + 1


def draw_L(rng, ring, shape):
    """A seeded L outside Q_p by construction: a unit times x (m = 2), or a
    unit times pi^k with 0 < k < e (valuation k/e is not an integer)."""
    p, m, e, prec = ring
    a, c = _unit_digits(rng, p, prec), rng.randrange(p)
    if shape == "x":
        if m != 2:
            raise ValueError("unit-times-x draws need m = 2")
        return f"({a}+{c}*pi)*x", [(0, 1), (1, 1)]
    if not 0 < shape < e:
        raise ValueError(f"need 0 < k < e, got k = {shape}")
    b = rng.randrange(p) if m == 2 else 0
    return f"({a}+{b}*x+{c}*pi)*pi^{shape}", [(shape, 0), (shape, 1),
                                              (shape + 1, 0)]


def _interleave(groups):
    """Round-robin over groups, so any prefix of a pass has the pass's mix."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def family_small(rng):
    grid = [family_instance((7, 2, 2, prec), L, _TERMS[L], "grid")
            for L in ROADMAP_L for prec in (6, 7)]
    defects = [family_instance((7, m, 2, 6), L, _TERMS[L], "defect")
               for m in (1, 2) for L in SMALL_DEFECTS]
    draws = []
    for ring in SMALL_RINGS:
        for shape in SMALL_DRAWS[ring[1:3]]:
            L, terms = draw_L(rng, ring, shape)
            draws.append(family_instance(ring, L, terms, "draw"))
    return _interleave([grid, draws, defects])


def family_ramified(rng):
    grid = [family_instance((p, m, e, p), L, _TERMS[L], "grid")
            for L in ROADMAP_L for (p, m, e) in RAMIFIED_GRID_RINGS]
    draws = []
    for (p, m, e), shape in RAMIFIED_DRAWS:
        L, terms = draw_L(rng, (p, m, e, p), shape)
        draws.append(family_instance((p, m, e, p), L, terms, "draw"))
    return _interleave([grid, draws])


def _witt_digits(rng, p, m, prec):
    return [rng.randrange(p ** prec) for _ in range(m)]


def _carrier_entry(rng, carrier, p, m, prec, unit=False):
    """Integer data of one random carrier element of fixed low degree (so
    the cost of a pattern does not depend on the seed); with ``unit`` its
    first digit is made prime to p, so the element is a unit."""
    if carrier == "p":
        data = _witt_digits(rng, p, m, prec)
        lead = data
    elif carrier == "u":
        data = [[rng.randrange(p) for _ in range(m)] for _ in range(3)]
        lead = data[0]
    else:
        data = [_witt_digits(rng, p, m, prec) for _ in range(2)]
        lead = data[0]
    if unit and lead[0] % p == 0:
        lead[0] += 1
    return data


def _unimodular_factors(rng, carrier, n, p, m, prec):
    """L (unit lower triangular) and R (upper triangular, unit diagonal
    entries) as integer data; their product is invertible."""
    lower = [[_carrier_entry(rng, carrier, p, m, prec) if i > j else None
              for j in range(n)] for i in range(n)]
    upper = [[_carrier_entry(rng, carrier, p, m, prec, unit=i == j)
              if i <= j else None for j in range(n)] for i in range(n)]
    return {"lower": lower, "upper": upper}


def matrix_solve(rng):
    p, m, e, prec = MATRIX_RING
    groups = []
    for carrier in ("E", "u", "p"):
        group = []
        for exps in MATRIX_PATTERNS[carrier]:
            d = len(exps)
            group.append({
                "kind": "smith", "carrier": carrier,
                "key": f"{carrier}:{d}x{d + 1}:{','.join(map(str, exps))}",
                "exponents": list(exps),
                "U": _unimodular_factors(rng, carrier, d, p, m, prec),
                "V": _unimodular_factors(rng, carrier, d + 1, p, m, prec)})
        groups.append(group)
    q, _, _, _ = EQX_RING
    eqx = []
    for i in range(EQX_CALLS):
        units = [[rng.randrange(1, q)] +
                 [rng.randrange(q) for _ in range(EQX_UNIT_DEGREE - 1)]
                 for _ in range(3)]
        eqx.append({"kind": "eqX", "key": f"eqX:{i}", "units": units,
                    "j": EQX_J})
    groups.append(eqx)
    return _interleave(groups)


def instances(workload, seed):
    """The instance list of one run: a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-small":
        return family_small(rng)
    if workload == "family-ramified":
        return family_ramified(rng)
    if workload == "matrix-solve":
        return matrix_solve(rng)
    raise ValueError(f"unknown workload {workload!r}")


def ring_configs(workload):
    """(p, m, e, prec) of every RingConfig the workload uses."""
    if workload == "family-small":
        return list(SMALL_RINGS)
    if workload == "family-ramified":
        return [(p, m, e, p) for (p, m, e), _ in RAMIFIED_DRAWS]
    if workload == "matrix-solve":
        return [MATRIX_RING, EQX_RING]
    raise ValueError(f"unknown workload {workload!r}")
