"""Elementary-divisor exponents, the Fil^2 solver, Hodge weights."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (ECarrier, PCarrier, RingConfig, UCarrier,
                           divisor_exponents, hodge_weights, minor_exponents)
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


def test_u_carrier_length_bounds(cfg7):
    ep = cfg7.e * cfg7.p
    assert UCarrier(cfg7).cap == UCarrier(cfg7, ep).cap == ep
    assert UCarrier(cfg7, 1).one() == cfg7.tilde_one().truncate(1)
    for n in (0, ep + 1):
        with pytest.raises(ValueError, match=r"1 <= n <= ep = 14"):
            UCarrier(cfg7, n)


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


def _planted_matrix(cfg, carrier, rng, exps):
    """U diag(pi^exps) V with U, V invertible, of shape d x (d + 1)."""
    d, D = len(exps), len(exps) + 1
    return _matmul(carrier, _unimodular(cfg, carrier, rng, d),
                   _matmul(carrier, _diag(carrier, exps, d, D),
                           _unimodular(cfg, carrier, rng, D)))


def test_p_carrier_reads_planted_exponents(cfg7, rng):
    # the matrix-solve p patterns on which a unit-normalizing reduction
    # runs out of digits and reports the cap 7; fraction-free, each entry
    # keeps the digits of the minor it stands for
    pc = PCarrier(cfg7)
    for exps in ((1, 5), (2, 3), (0, 2, 4), (1, 2, 3)):
        for _ in range(3):
            M = _planted_matrix(cfg7, pc, rng, exps)
            assert divisor_exponents(M, pc) == list(exps)


def ref_full_sweep_exponents(rows, carrier):
    """The fraction-free reduction that clears every row and column of the
    matrix at each pivot, rows and columns of earlier pivots included (the
    reference for the active-block sweep of ``divisor_exponents``)."""
    d, D = len(rows), len(rows[0])
    M = [list(r) for r in rows]
    pivots = []
    for s in range(min(d, D)):
        best, bi, bj = carrier.cap, None, None
        for i in range(s, d):
            for j in range(s, D):
                v = carrier.val(M[i][j])
                if v < best:
                    best, bi, bj = v, i, j
        if bi is None:
            pivots.append(carrier.cap)
            continue
        M[s], M[bi] = M[bi], M[s]
        for row in M:
            row[s], row[bj] = row[bj], row[s]
        ws = carrier.shift_div(M[s][s], best)
        for i in range(d):
            if i == s or carrier.val(M[i][s]) >= carrier.cap:
                continue
            wi = carrier.shift_div(M[i][s], best)
            for j in range(D):
                M[i][j] = ws * M[i][j] - wi * M[s][j]
        for j in range(s + 1, D):
            if carrier.val(M[s][j]) >= carrier.cap:
                continue
            wj = carrier.shift_div(M[s][j], best)
            for i in range(d):
                M[i][j] = ws * M[i][j] - wj * M[i][s]
        pivots.append(best)
    return sorted(pivots + [carrier.cap] * (d - len(pivots)))


def test_active_block_sweep_matches_the_full_sweep(cfg7):
    """Clearing only the block below and right of each pivot, and reading
    its zero tests off the pivot search's valuations, against the full
    sweep: 600 p-carrier matrices, 3 x 4 with entries up to p^6 (the draw
    on which dropping the column pass changed 3 last pivots) and planted
    U diag(p^n) V, and 120 E-carrier matrices of both kinds."""
    rng = random.Random(30)
    pc, ec = PCarrier(cfg7), ECarrier(cfg7)
    cases = [(pc, random_matrix(cfg7, pc, rng, 3, 4, 6)) for _ in range(400)]
    cases += [(pc, _planted_matrix(cfg7, pc, rng, [rng.randrange(7) for _ in
                                                   range(rng.choice((2, 3)))]))
              for _ in range(200)]
    cases += [(ec, random_matrix(cfg7, ec, rng, rng.choice((2, 3)), 4, 3))
              for _ in range(80)]
    cases += [(ec, _planted_matrix(cfg7, ec, rng, [rng.randrange(4) for _ in
                                                   range(2)]))
              for _ in range(40)]
    for carrier, M in cases:
        assert divisor_exponents(M, carrier) == \
            ref_full_sweep_exponents(M, carrier)


def _planted(cfg, rng, v1, v2):
    """Columns of G = U diag(u^v1, u^v2) V over k[u]/u^{ep}, U and V
    invertible with entries of degree < 4e; with U and V^{-1}."""
    uc = UCarrier(cfg)

    def draw():
        return random_tilde(cfg, rng, 2 * cfg.e)

    def unit():
        return random_tilde_unit(cfg, rng, 2 * cfg.e)

    def invertible():
        """L R and R^{-1} L^{-1}, L unit lower and R upper triangular."""
        x, y, a, b = draw(), draw(), unit(), unit()
        ia, ib = a.unit_inverse(), b.unit_inverse()
        zero, one = uc.zero(), uc.one()
        return (_matmul(uc, [[one, zero], [x, one]], [[a, y], [zero, b]]),
                _matmul(uc, [[ia, -y * ia * ib], [zero, ib]],
                        [[one, zero], [-x, one]]))

    (U, _), (V, Vinv) = invertible(), invertible()
    G = _matmul(uc, _matmul(uc, U, _diag(uc, (v1, v2), 2, 2)), V)
    return [(G[0][j], G[1][j]) for j in range(2)], U, Vinv


@pytest.mark.parametrize("p, m, e", [(7, 2, 2), (11, 2, 4), (13, 2, 4)])
def test_fil2_solver_agrees_with_the_full_solver(p, m, e):
    # G = U diag(u^v1, u^v2) V with v1 + v2 <= 2e: the target
    # U (u^w1 c1, u^w2 c2) lies in the span iff w_i >= v_i for both i, and
    # then the Cramer solution over k[u]/u^{3e} agrees, under phi, with the
    # full solution V^{-1} (u^{w1-v1} c1, u^{w2-v2} c2)
    cfg = RingConfig(p, m, e, [-p] + [0] * (e - 1) + [1], prec=p, r=2)
    rng = random.Random(p * 100 + e)
    v1 = rng.randrange(2 * e + 1)
    pairs = [(0, 2 * e), (e, e), (e - 1, e + 1),
             (v1, rng.randrange(2 * e + 1 - v1))]
    seen = set()
    for v in pairs:
        gens, U, Vinv = _planted(cfg, rng, *v)
        solve = _fil2_solver(cfg, gens)
        for _ in range(4):
            w = [rng.randrange(3 * e + 1) for _ in range(2)]
            c = [random_tilde_unit(cfg, rng, 2 * e) for _ in range(2)]
            target = [U[i][0] * c[0] * cfg.tilde_u(w[0]) +
                      U[i][1] * c[1] * cfg.tilde_u(w[1]) for i in range(2)]
            member = all(wi >= vi for wi, vi in zip(w, v))
            seen.add(member)
            got = solve(target)
            assert (got is not None) == member
            if member:
                y = [ci * cfg.tilde_u(wi - vi) for ci, wi, vi in zip(c, w, v)]
                want = [Vinv[i][0] * y[0] + Vinv[i][1] * y[1]
                        for i in range(2)]
                assert len(got[0].coeffs) == 3 * e
                assert [x.phi() for x in got] == [x.phi() for x in want]
    assert seen == {True, False}
    # det u^{2e+1}: the pair does not contain u^{2e} of the module
    gens, _, _ = _planted(cfg, rng, e, e + 1)
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


def test_hodge_weights_examples():
    assert hodge_weights([3, 1], 2, 2) == [Fraction(1, 2), Fraction(3, 2)]
    assert hodge_weights([0, 4], 2, 2) == [0, 2]
    # the pseudo-module at r = 2n, exponents (n, n)
    assert hodge_weights([2, 2], 4, 1) == [2, 2]
    for bad in ([5], [-1], [0, 5]):
        with pytest.raises(ValueError):
            hodge_weights(bad, 2, 2)
