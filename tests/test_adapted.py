"""Elementary-divisor exponents, adapted bases, Hodge-weight dictionaries."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (ECarrier, PCarrier, RingConfig, UCarrier,
                           adapted_basis, divisor_exponents, hodge_weights,
                           minor_exponents)
from padicpolygons.adapted import smith_reduce, span_solver
from padicpolygons.oracle import (exponent_paths_agree, random_matrix,
                                  random_strunc, random_tilde, random_witt)


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
    # planted M = U diag(pi^n) V: T M C = diag(pi^v), T Tinv = Tinv T = I
    for carrier in (UCarrier(cfg7), PCarrier(cfg7)):
        for exps in ((0, 2), (1, 2), (0, 1, 2), (1, 1, 2)):
            d, D = len(exps), len(exps) + 1
            for _ in range(3):
                M = _matmul(carrier, _unimodular(cfg7, carrier, rng, d),
                            _matmul(carrier, _diag(carrier, exps, d, D),
                                    _unimodular(cfg7, carrier, rng, D)))
                vals, T, Tinv, C = smith_reduce([list(r) for r in M],
                                                carrier, track=True)
                assert sorted(vals) == list(exps)
                assert _matmul(carrier, _matmul(carrier, T, M), C) == \
                    _diag(carrier, vals, d, D)
                eye = _identity(carrier, d)
                assert _matmul(carrier, T, Tinv) == eye
                assert _matmul(carrier, Tinv, T) == eye


def test_adapted_basis_diagonal_example(cfg7):
    uc = UCarrier(cfg7)
    gens = [(uc.pi_power(2), cfg7.tilde_zero()),
            (cfg7.tilde_zero(), cfg7.tilde_one())]
    ab = adapted_basis(gens, 2, uc, bound=cfg7.e * cfg7.r)
    assert ab.exponents == [0, 2]


def test_adapted_basis_reconstruction(cfg7, rng):
    # the generated submodule is recovered from the basis and exponents:
    # each generator lies in span(pi^{n_i} e_i), and each pi^{n_i} e_i lies
    # in the generator span
    uc = UCarrier(cfg7)
    for _ in range(10):
        gens = []
        for _ in range(3):
            v = rng.randrange(0, 3)
            gens.append((random_tilde(cfg7, rng, 5) * uc.pi_power(v),
                         random_tilde(cfg7, rng, 5) * uc.pi_power(rng.randrange(0, 3))))
        gens.append((uc.pi_power(3), cfg7.tilde_zero()))
        gens.append((cfg7.tilde_zero(), uc.pi_power(3)))
        ab = adapted_basis(gens, 2, uc)
        scaled = [tuple(c * uc.pi_power(n) for c in col)
                  for col, n in zip(ab.basis, ab.exponents)]
        in_scaled = span_solver(scaled, uc, 2)
        for g in gens:
            assert in_scaled(list(g)) is not None
        in_gens = span_solver([list(g) for g in gens], uc, 2)
        for col in scaled:
            assert in_gens(list(col)) is not None


def test_adapted_basis_exponents_match_divisor_exponents(cfg7, rng):
    uc = UCarrier(cfg7)
    for _ in range(10):
        gens = [(random_tilde(cfg7, rng, 6), random_tilde(cfg7, rng, 6))
                for _ in range(3)]
        gens.append((uc.pi_power(4), cfg7.tilde_zero()))
        gens.append((cfg7.tilde_zero(), uc.pi_power(4)))
        rows = [[g[i] for g in gens] for i in range(2)]
        ab = adapted_basis(gens, 2, uc)
        assert ab.exponents == divisor_exponents(rows, uc)


def test_adapted_basis_invariance_under_base_change(cfg7, rng):
    uc = UCarrier(cfg7)
    for _ in range(10):
        n1, n2 = sorted((rng.randrange(0, 4), rng.randrange(0, 4)))
        gens = [(uc.pi_power(n1), cfg7.tilde_zero()),
                (cfg7.tilde_zero(), uc.pi_power(n2))]
        # random invertible change of presentation
        x = random_tilde(cfg7, rng, 4)
        g0 = (gens[0][0] + x * gens[1][0], gens[0][1] + x * gens[1][1])
        ab = adapted_basis([g0, gens[1]], 2, uc)
        assert ab.exponents == [n1, n2]


def test_adapted_basis_rejects_rank_deficiency(cfg7):
    uc = UCarrier(cfg7)
    gens = [(cfg7.tilde_one(), cfg7.tilde_zero())]
    with pytest.raises(ValueError):
        adapted_basis(gens, 2, uc)


def test_adapted_basis_bound_enforced(cfg7):
    uc = UCarrier(cfg7)
    gens = [(uc.pi_power(5), cfg7.tilde_zero()),
            (cfg7.tilde_zero(), cfg7.tilde_one())]
    with pytest.raises(ValueError):
        adapted_basis(gens, 2, uc, bound=4)


def test_adapted_basis_not_tracked_over_E(cfg7):
    ec = ECarrier(cfg7)
    gens = [(cfg7.s_one(), cfg7.s_zero()), (cfg7.s_zero(), cfg7.s_one())]
    with pytest.raises(ValueError):
        adapted_basis(gens, 2, ec)


def test_hodge_weights_examples():
    assert hodge_weights([0, 2], 2, 1, "integral") == [0, 2]
    assert hodge_weights([1, 3], 2, 2, "modp") == \
        [Fraction(1, 2), Fraction(3, 2)]
    # the pseudo-module at r = 2n, exponents (n, n)
    assert hodge_weights([2, 2], 4, 1, "modp") == [2, 2]
    with pytest.raises(ValueError):
        hodge_weights([3], 2, 1, "integral")
