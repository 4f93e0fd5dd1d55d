"""Elementary-divisor exponents, the span solver, Hodge weights."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (ECarrier, PCarrier, RingConfig, UCarrier,
                           divisor_exponents, hodge_weights, minor_exponents)
from padicpolygons.adapted import smith_reduce, span_solver
from padicpolygons.breuil import ClassificationError, _fil2_solver
from padicpolygons.oracle import (exponent_paths_agree, random_matrix,
                                  random_strunc, random_tilde,
                                  random_tilde_unit, random_witt)


def _identity(carrier, d):
    one, zero = carrier.one(), carrier.zero()
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def test_identity_exponents(cfg7):
    for carrier in (ECarrier(cfg7), UCarrier(cfg7), PCarrier(cfg7)):
        rows = _identity(carrier, 3)
        assert divisor_exponents(rows, carrier) == [0, 0, 0]
        assert minor_exponents(rows, carrier) == [0, 0, 0]


def test_pseudo_module_columns():
    # columns u^n e_1 and u^n e_2 over k[u]/u^{ep} with e = 1 give (n, n)
    cfg = RingConfig(7, 1, 1, [-7, 1], prec=7, r=4)
    uc = UCarrier(cfg)
    n = 2
    rows = [[cfg.tilde_u(n), cfg.tilde_zero()],
            [cfg.tilde_zero(), cfg.tilde_u(n)]]
    assert divisor_exponents(rows, uc) == [n, n]


def test_exponent_paths_agree_smoke(rng):
    # 20 matrices per carrier with entries up to pi^2
    assert exponent_paths_agree(rng, 20, vmax=2) == []


def test_exponents_invariant_under_invertible_transforms(cfg7, rng):
    # multiply the presentation by invertible matrices on both sides
    for carrier in (UCarrier(cfg7), PCarrier(cfg7), ECarrier(cfg7)):
        for _ in range(17):
            rows = random_matrix(cfg7, carrier, rng, 2, 3, 2)
            base = divisor_exponents([list(r) for r in rows], carrier)
            # left: row_0 += x * row_1 and a unit rescale of row_1
            x = _random_unit_like(cfg7, carrier, rng)
            rows2 = [list(r) for r in rows]
            rows2[0] = [a + x * b for a, b in zip(rows2[0], rows2[1])]
            # right: col_2 += col_0
            for r in rows2:
                r[2] = r[2] + r[0]
            assert divisor_exponents(rows2, carrier) == base


def _random_unit_like(cfg, carrier, rng):
    if carrier.name == "E":
        x = random_strunc(cfg, rng, 3)
        coeffs = list(x.coeffs)
        while not coeffs[0].is_unit():
            coeffs[0] = random_witt(cfg, rng)
        return cfg.s(coeffs)
    if carrier.name == "u":
        x = random_tilde(cfg, rng, 4)
        coeffs = list(x.coeffs)
        while coeffs[0].is_zero():
            coeffs[0] = cfg.gf.elem(tuple(rng.randrange(cfg.p)
                                          for _ in range(cfg.m)))
        return cfg.tilde(coeffs)
    x = random_witt(cfg, rng)
    while not x.is_unit():
        x = random_witt(cfg, rng)
    return x


def test_exponent_sum_matches_determinant(cfg7, rng):
    uc = UCarrier(cfg7)
    for _ in range(20):
        rows = random_matrix(cfg7, uc, rng, 2, 2, 2)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        exps = divisor_exponents(rows, uc)
        vdet = min(det.u_val(), uc.cap)
        if vdet < uc.cap and uc.cap not in exps:
            assert sum(exps) == vdet


def _matmul(carrier, A, B):
    return [[sum((a * B[k][j] for k, a in enumerate(row)), carrier.zero())
             for j in range(len(B[0]))] for row in A]


def _diag(carrier, vals, d, D):
    return [[carrier.pi_power(vals[i]) if i == j else carrier.zero()
             for j in range(D)] for i in range(d)]


def _unimodular(cfg, carrier, rng, n):
    """L * R with L unit lower triangular and R upper triangular with unit
    diagonal entries: an invertible matrix."""
    rand = random_matrix(cfg, carrier, rng, 2 * n, n, 1)
    low = [[carrier.one() if i == j else rand[i][j] if i > j
            else carrier.zero() for j in range(n)] for i in range(n)]
    up = [[_random_unit_like(cfg, carrier, rng) if i == j
           else rand[n + i][j] if i < j else carrier.zero()
           for j in range(n)] for i in range(n)]
    return _matmul(carrier, low, up)


def test_tracked_smith_transforms(cfg7, rng):
    # planted M = U diag(pi^n) V: T M C = diag(pi^v)
    for carrier in (UCarrier(cfg7), PCarrier(cfg7)):
        for exps in ((0, 2), (1, 2), (0, 1, 2), (1, 1, 2)):
            d, D = len(exps), len(exps) + 1
            for _ in range(3):
                M = _matmul(carrier, _unimodular(cfg7, carrier, rng, d),
                            _matmul(carrier, _diag(carrier, exps, d, D),
                                    _unimodular(cfg7, carrier, rng, D)))
                vals, T, C = smith_reduce([list(r) for r in M], carrier,
                                          track=True)
                assert sorted(vals) == list(exps)
                assert _matmul(carrier, _matmul(carrier, T, M), C) == \
                    _diag(carrier, vals, d, D)


def _combination(carrier, columns, x):
    return [sum((xj * col[i] for xj, col in zip(x, columns)), carrier.zero())
            for i in range(len(columns[0]))]


def test_span_solver_solves_members_of_the_span(cfg7, rng):
    # over k[u]/u^{ep}, the carrier classify_rank2 solves over: members
    # sum x_j col_j are solved exactly, and a vector off u * ambient is not
    # in a span of columns that all lie in u * ambient
    uc = UCarrier(cfg7)
    for _ in range(20):
        columns = [[entry * uc.pi_power(rng.randrange(1, 3)) for entry in col]
                   for col in random_matrix(cfg7, uc, rng, 3, 2, 2)]
        _, solve = span_solver(columns, uc, 2)
        for _ in range(3):
            x = [r[0] for r in random_matrix(cfg7, uc, rng, 3, 1, 2)]
            target = _combination(uc, columns, x)
            got = solve(list(target))
            assert got is not None
            assert _combination(uc, columns, got) == target
        assert solve([uc.one(), uc.zero()]) is None
    vals, solve = span_solver([], uc, 2)
    assert vals == [uc.cap, uc.cap]
    assert solve([uc.zero(), uc.zero()]) is None


def _planted(cfg, rng, v1, v2):
    """Columns of U diag(u^v1, u^v2) V over k[u]/u^{ep}, U and V invertible
    with entries of degree < 4e, and U."""
    def draw():
        return random_tilde(cfg, rng, 2 * cfg.e)

    def unit():
        return random_tilde_unit(cfg, rng, 2 * cfg.e)

    def invertible():
        lower = [[1, 0], [draw(), 1]]
        upper = [[unit(), draw()], [0, unit()]]
        return [[sum((lower[i][k] * upper[k][j] for k in range(2)),
                     cfg.tilde_zero()) for j in range(2)] for i in range(2)]

    U, V = invertible(), invertible()
    D = [cfg.tilde_u(v1), cfg.tilde_u(v2)]
    G = [[U[i][0] * D[0] * V[0][j] + U[i][1] * D[1] * V[1][j]
          for j in range(2)] for i in range(2)]
    return [(G[0][j], G[1][j]) for j in range(2)], U


@pytest.mark.parametrize("p, m, e", [(7, 2, 2), (11, 2, 4), (13, 2, 4)])
def test_fil2_solver_agrees_with_the_full_solver(p, m, e):
    # U diag(u^v1, u^v2) V with v_i <= 2e: the solver over k[u]/u^{3e} and
    # the one over k[u]/u^{ep} agree on membership and on phi of every
    # solution coefficient; U (u^w1 c1, u^w2 c2) lies in the span iff
    # w_i >= v_i for both i
    cfg = RingConfig(p, m, e, [-p] + [0] * (e - 1) + [1], prec=p, r=2)
    rng = random.Random(p * 100 + e)
    uc = UCarrier(cfg)
    pairs = [(0, 2 * e), (2 * e, 2 * e), (e - 1, e + 1)]
    pairs.append(tuple(sorted(rng.randrange(2 * e + 1) for _ in range(2))))
    seen = set()
    for v in pairs:
        gens, U = _planted(cfg, rng, *v)
        _, full = span_solver([list(g) for g in gens], uc, 2)
        short = _fil2_solver(cfg, gens)
        for _ in range(4):
            w = [rng.randrange(3 * e + 1) for _ in range(2)]
            c = [random_tilde_unit(cfg, rng, 2 * e) * cfg.tilde_u(wi)
                 for wi in w]
            target = [U[i][0] * c[0] + U[i][1] * c[1] for i in range(2)]
            member = all(wi >= vi for wi, vi in zip(w, v))
            seen.add(member)
            x, y = full(target), short(target)
            assert (x is not None) == (y is not None) == member
            if member:
                assert len(y[0].coeffs) == 3 * e
                assert [[a.coords for a in xj.phi().coeffs] for xj in x] == \
                    [[a.coords for a in yj.phi().coeffs] for yj in y]
    assert seen == {True, False}
    # a pivot above u^{2e}: the pair does not contain u^{2e} of the module
    gens, _ = _planted(cfg, rng, 0, 2 * e + 1)
    with pytest.raises(ClassificationError, match=f"u\\^{2 * e + 1}"):
        _fil2_solver(cfg, gens)


def test_adapted_basis_diagonal_example(cfg7):
    # the exponents of an adapted basis of span(u^2 e_1, e_2), within e * r
    uc = UCarrier(cfg7)
    rows = [[uc.pi_power(2), cfg7.tilde_zero()],
            [cfg7.tilde_zero(), cfg7.tilde_one()]]
    assert divisor_exponents(rows, uc) == [0, 2]
    assert hodge_weights([0, 2], cfg7.r, cfg7.e) == [1, 2]


def test_adapted_basis_invariance_under_base_change(cfg7, rng):
    # adapted-basis exponents do not depend on the presentation
    uc = UCarrier(cfg7)
    for _ in range(10):
        n1, n2 = sorted((rng.randrange(0, 4), rng.randrange(0, 4)))
        gens = [(uc.pi_power(n1), cfg7.tilde_zero()),
                (cfg7.tilde_zero(), uc.pi_power(n2))]
        x = random_tilde(cfg7, rng, 4)
        g0 = (gens[0][0] + x * gens[1][0], gens[0][1] + x * gens[1][1])
        rows = [[g[i] for g in (g0, gens[1])] for i in range(2)]
        assert divisor_exponents(rows, uc) == [n1, n2]


def test_tracked_smith_exponents_match_divisor_exponents(cfg7, rng):
    # tracking the transforms does not change the pivot valuations
    for carrier in (UCarrier(cfg7), PCarrier(cfg7)):
        for _ in range(10):
            rows = random_matrix(cfg7, carrier, rng, 2, 3, 3)
            vals, _, _ = smith_reduce(rows, carrier, track=True)
            assert sorted(vals) == divisor_exponents(rows, carrier)


def test_smith_reduce_not_tracked_over_E(cfg7):
    ec = ECarrier(cfg7)
    rows = [[cfg7.s_one(), cfg7.s_zero()], [cfg7.s_zero(), cfg7.s_one()]]
    with pytest.raises(ValueError):
        smith_reduce(rows, ec, track=True)
    assert smith_reduce(rows, ec)[0] == [0, 0]


def test_hodge_weights_examples():
    assert hodge_weights([3, 1], 2, 2) == [Fraction(1, 2), Fraction(3, 2)]
    assert hodge_weights([0, 4], 2, 2) == [0, 2]
    # the pseudo-module at r = 2n, exponents (n, n)
    assert hodge_weights([2, 2], 4, 1) == [2, 2]
    for bad in ([5], [-1], [0, 5]):
        with pytest.raises(ValueError):
            hodge_weights(bad, 2, 2)
