"""Polygon construction, Newton polygons, comparisons and the merge."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from padicpolygons import from_slopes, lies_above, merge, newton_polygon, \
    same_endpoint
from padicpolygons.oracle import merge_min, newton_split, random_polygon


def test_from_slopes_sorts():
    P = from_slopes([2, 0])
    assert P.slopes == (0, 2)
    assert P.vertices == [(0, Fraction(0)), (1, Fraction(0)), (2, Fraction(2))]


def test_from_slopes_halves():
    P = from_slopes([Fraction(1, 2), Fraction(3, 2)])
    assert P.vertices == [(0, Fraction(0)), (1, Fraction(1, 2)),
                          (2, Fraction(2))]


def test_from_slopes_empty():
    P = from_slopes([])
    assert P.width == 0
    assert P.endpoint == (0, 0)


def test_newton_polygon_quadratic():
    # valuations of X^2 + pX - p^{2n} for n = 2: slopes 1 and 2n-1
    for n in (2, 3):
        P = newton_polygon([2 * n, 1, 0])
        assert P.slopes == (1, 2 * n - 1)


def test_newton_polygon_linear():
    assert newton_polygon([5, 0]).slopes == (5,)


def test_newton_polygon_rejects_all_infinite():
    with pytest.raises(ValueError):
        newton_polygon([math.inf, math.inf])
    with pytest.raises(ValueError):
        newton_polygon([0, math.inf])
    with pytest.raises(ValueError):
        newton_polygon([math.inf, 0])


def test_newton_polygon_split_oracle():
    # polynomials prod (X - p^{a_i}) have root valuations exactly the a_i
    assert newton_split(random.Random(11), 100) == []


def _brute_ordinates(vals):
    """Lower hull ordinates by direct minimization over all segments."""
    pts = [(i, Fraction(v)) for i, v in enumerate(vals) if v != math.inf]
    d = len(vals) - 1
    out = []
    for x in range(d + 1):
        best = None
        for (x1, y1), (x2, y2) in combinations(pts, 2):
            if x1 <= x <= x2 and x1 != x2:
                y = y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
                best = y if best is None else min(best, y)
        for (x1, y1) in pts:
            if x1 == x:
                best = y1 if best is None else min(best, y1)
        out.append(best)
    return out


def test_newton_polygon_brute_force_hull():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randrange(2, 6)
        vals = [Fraction(rng.randrange(0, 12), rng.choice([1, 2, 3]))
                for _ in range(d)] + [Fraction(0)]
        P = newton_polygon(vals)
        brute = _brute_ordinates(vals)
        # the sum of the k smallest root valuations is the rise of the hull
        # over its last k steps
        for k in range(d + 1):
            assert P.ordinate(k) == brute[d - k] - brute[d]


def test_lies_above_examples():
    P = from_slopes([Fraction(1, 2), Fraction(3, 2)])
    Q = from_slopes([0, 2])
    assert lies_above(P, Q)
    assert lies_above(P, P)
    assert not lies_above(from_slopes([0, 2]), from_slopes([1, 1]))


def test_same_endpoint_examples():
    assert same_endpoint(from_slopes([Fraction(1, 2), Fraction(3, 2)]),
                         from_slopes([0, 2]))
    assert not same_endpoint(from_slopes([0, 2]), from_slopes([1, 2]))
    assert same_endpoint(from_slopes([]), from_slopes([]))


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        lies_above(from_slopes([1]), from_slopes([1, 2]))
    with pytest.raises(ValueError):
        same_endpoint(from_slopes([1]), from_slopes([1, 2]))


def test_merge_examples():
    assert merge(from_slopes([0, 2]), from_slopes([1])).slopes == (0, 1, 2)
    P = from_slopes([Fraction(1, 2), 3])
    assert merge(from_slopes([]), P) == P


def test_partial_order_properties():
    rng = random.Random(17)
    for _ in range(100):
        d = rng.randrange(1, 5)
        P = random_polygon(rng, d)
        Q = random_polygon(rng, d)
        R = random_polygon(rng, d)
        assert lies_above(P, P)
        if lies_above(P, Q) and lies_above(Q, P):
            assert P == Q
        if lies_above(P, Q) and lies_above(Q, R):
            assert lies_above(P, R)


def test_merge_min_formula():
    assert merge_min(random.Random(23), 100) == []


def _dominating_polygon(rng, base):
    """A polygon above `base` with the same endpoint: moving mass from the
    smallest slope to the largest keeps the sum and raises every
    intermediate ordinate."""
    slopes = list(base.slopes)
    if len(slopes) >= 2:
        for _ in range(rng.randrange(0, 3)):
            slopes.sort()
            delta = Fraction(rng.randrange(0, 3), 2)
            if slopes[0] + delta <= slopes[-1] - delta:
                slopes[0] += delta
                slopes[-1] -= delta
    return from_slopes(slopes)


def test_merge_monotonicity_lemma():
    # if P' is above P and Q' above Q with matching endpoints, the merges
    # compare the same way
    rng = random.Random(29)
    hits = 0
    for _ in range(300):
        P = random_polygon(rng, rng.randrange(1, 4))
        Q = random_polygon(rng, rng.randrange(1, 4))
        Pp = _dominating_polygon(rng, P)
        Qp = _dominating_polygon(rng, Q)
        if not (lies_above(Pp, P) and same_endpoint(Pp, P)):
            continue
        if not (lies_above(Qp, Q) and same_endpoint(Qp, Q)):
            continue
        hits += 1
        assert lies_above(merge(Pp, Qp), merge(P, Q))
        assert same_endpoint(merge(Pp, Qp), merge(P, Q))
    assert hits >= 100
