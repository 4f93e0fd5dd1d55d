"""Filtered modules, their polygons, weak admissibility, and the Hermite
interpolant of the family."""

import random
from fractions import Fraction

import pytest

from padicpolygons import (FamilyParams, K0Elem, PrecisionError, RingConfig,
                           from_slopes, hermite_interpolant, hodge_polygon,
                           lies_above, newton_polygon_phi, same_endpoint,
                           t_numbers, weakly_admissible_dim2)
from padicpolygons.fontaine import FilteredModule, family_module
from padicpolygons.oracle import random_k_elem, random_witt


def _k0(cfg, n, pexp=0):
    return K0Elem(cfg.witt, cfg.w(n), pexp)


def _x_plus_pi(cfg):
    return cfg.k_elem([cfg.teichmuller_generator()]) + cfg.pi()


def rank1_module(cfg, alpha, jump):
    """Rank-1 module with phi(e) = alpha * e and filtration jump at ``jump``."""
    kone = cfg.k_one()
    fil = [((kone,),) if t <= jump else () for t in range(cfg.r + 2)]
    return FilteredModule(cfg, 1, ((alpha,),), ((_k0(cfg, 0),),), tuple(fil))


# ---------------------------------------------------------------------------
# polygons of filtered modules


def test_family_hodge_polygon(cfg7):
    D = family_module(FamilyParams(cfg7, 1, 1, _x_plus_pi(cfg7)))
    assert hodge_polygon(D) == from_slopes([0, 2])


def test_rank1_hodge_polygon(cfg7):
    D = rank1_module(cfg7, _k0(cfg7, 7), jump=1)
    assert hodge_polygon(D) == from_slopes([1])


def test_full_flag_rank3():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    kone, kzero = cfg.k_one(), cfg.k_zero()
    full = ((kone, kzero, kzero), (kzero, kone, kzero), (kzero, kone, kone))
    two = ((kone, kzero, kzero), (kzero, kone, kzero))
    one_b = ((kone, kzero, kzero),)
    fil = (full, two, one_b, ())
    idk0 = _k0(cfg, 1)
    zk0 = _k0(cfg, 0)
    phi = tuple(tuple(idk0 if i == j else zk0 for j in range(3))
                for i in range(3))
    nmat = tuple(tuple(zk0 for _ in range(3)) for _ in range(3))
    D = FilteredModule(cfg, 3, phi, nmat, fil)
    assert hodge_polygon(D) == from_slopes([0, 1, 2])


def test_family_newton_polygon(cfg7):
    D = family_module(FamilyParams(cfg7, 1, 1, _x_plus_pi(cfg7)))
    assert newton_polygon_phi(D) == from_slopes([1, 1])


def test_newton_polygon_phi_names_exhausted_digits():
    # det(phi) = p^2 is zero as known at prec 2: the digits ran out, which
    # says nothing about infinite slopes
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=2, r=2)
    D = family_module(FamilyParams(cfg, 1, 1, _x_plus_pi(cfg)))
    with pytest.raises(PrecisionError, match=r"^Newton polygon of phi: "
                       r"det\(phi\) is zero at working precision$"):
        newton_polygon_phi(D)


def test_identity_phi_newton():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    kone, kzero = cfg.k_one(), cfg.k_zero()
    fil = (((kone, kzero), (kzero, kone)), ())
    idm = ((_k0(cfg, 1), _k0(cfg, 0)), (_k0(cfg, 0), _k0(cfg, 1)))
    D = FilteredModule(cfg, 2, idm, idm, fil)
    assert newton_polygon_phi(D) == from_slopes([0, 0])


def test_newton_conjugation_invariance(cfg7m1, rng):
    cfg = cfg7m1
    for _ in range(15):
        entries = [[_k0(cfg, rng.randrange(1, 7 ** 6)) for _ in range(2)]
                   for _ in range(2)]
        D = FilteredModule(cfg, 2, tuple(tuple(r) for r in entries),
                           ((_k0(cfg, 0),) * 2,) * 2,
                           (((cfg.k_one(), cfg.k_zero()),
                             (cfg.k_zero(), cfg.k_one())), ()))
        P = newton_polygon_phi(D)
        # conjugate by [[1, a], [0, 1]] * diag(unit, 1)
        a = rng.randrange(7 ** 6)
        u = rng.randrange(1, 7)
        g = [[_k0(cfg, u), _k0(cfg, a)], [_k0(cfg, 0), _k0(cfg, 1)]]
        ginv = [[_k0(cfg, u).inverse(),
                 (-_k0(cfg, a) * _k0(cfg, u).inverse())],
                [_k0(cfg, 0), _k0(cfg, 1)]]
        m = entries
        gm = [[sum((g[i][k] * m[k][j] for k in range(2)), _k0(cfg, 0))
               for j in range(2)] for i in range(2)]
        gmg = [[sum((gm[i][k] * ginv[k][j] for k in range(2)), _k0(cfg, 0))
                for j in range(2)] for i in range(2)]
        D2 = FilteredModule(cfg, 2, tuple(tuple(r) for r in gmg), D.nmat,
                            D.fil)
        assert newton_polygon_phi(D2) == P


def test_t_numbers(cfg7):
    D = family_module(FamilyParams(cfg7, 1, 1, _x_plus_pi(cfg7)))
    assert t_numbers(D) == (2, 2)
    D1 = rank1_module(cfg7, _k0(cfg7, 49), jump=2)
    assert t_numbers(D1) == (2, 2)


def test_t_numbers_mixed():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    kone, kzero = cfg.k_one(), cfg.k_zero()
    fil = (((kone, kzero), (kzero, kone)), ((kzero, kone),), ())
    phi = ((_k0(cfg, 1), _k0(cfg, 0)), (_k0(cfg, 0), _k0(cfg, 121)))
    nmat = ((_k0(cfg, 0),) * 2,) * 2
    D = FilteredModule(cfg, 2, phi, nmat, fil)
    tH, tN = t_numbers(D)
    assert (tH, tN) == (1, 2)


# ---------------------------------------------------------------------------
# weak admissibility


def test_family_admissibility(cfg7, cfg7m1):
    x = cfg7.k_elem([cfg7.teichmuller_generator()])
    assert weakly_admissible_dim2(None, family=FamilyParams(cfg7, 1, 1,
                                                            cfg7.pi()))
    assert weakly_admissible_dim2(None, family=FamilyParams(cfg7, 1, 1, x))
    qp = cfg7.k_elem([12])
    assert not weakly_admissible_dim2(None, family=FamilyParams(cfg7, 1, 1,
                                                                qp))
    # with m = 1 the residue generator is 0, so x lies in Q_p: it has no
    # normalization
    x1 = FamilyParams(cfg7m1, 1, 1,
                      cfg7m1.k_elem([cfg7m1.teichmuller_generator()]))
    with pytest.raises(ValueError):
        x1.normalized
    assert not x1.is_admissible()
    # n1 != n2 excludes only n1 > 0 with L = 0
    assert weakly_admissible_dim2(None, family=FamilyParams(cfg7, 0, 1,
                                                            cfg7.k_zero()))
    # e(n1+n2) < p-1 would fail for n2 = 2 at e = 2, p = 7; stay at (1, 1)
    assert not weakly_admissible_dim2(
        None, family=FamilyParams(RingConfig(11, 2, 2, [-11, 0, 1], r=3),
                                  1, 2, RingConfig(11, 2, 2, [-11, 0, 1],
                                                   r=3).k_zero()))


def test_rank1_admissibility(cfg7):
    assert weakly_admissible_dim2(rank1_module(cfg7, _k0(cfg7, 7), jump=1))
    assert not weakly_admissible_dim2(rank1_module(cfg7, _k0(cfg7, 7),
                                                   jump=2))


def _dim2_module(cfg, phi_entries, jump_line=None, r=2):
    kone, kzero = cfg.k_one(), cfg.k_zero()
    full = ((kone, kzero), (kzero, kone))
    line = (jump_line,) if jump_line is not None else ()
    fil = [full] + [line] * r + [()]
    nmat = ((_k0(cfg, 0),) * 2,) * 2
    return FilteredModule(cfg, 2, phi_entries, nmat, tuple(fil))


def test_weak_admissibility_eigenline_violation():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    # phi = diag(1, p^2), filtration line = first coordinate axis:
    # the phi-stable line e_1 has t_N = 0 < t_H = 2
    phi = ((_k0(cfg, 1), _k0(cfg, 0)), (_k0(cfg, 0), _k0(cfg, 121)))
    bad = _dim2_module(cfg, phi, (cfg.k_one(), cfg.k_zero()))
    assert not weakly_admissible_dim2(bad)
    # the line e_2 instead gives t_H(e_2-line) = 2 = t_N: admissible
    good = _dim2_module(cfg, phi, (cfg.k_zero(), cfg.k_one()))
    assert weakly_admissible_dim2(good)


def test_weak_admissibility_irrational_eigenvalues():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    # X^2 - p: no Q_p eigenvalues, no stable lines; t_H = t_N = 1 suffices
    phi = ((_k0(cfg, 0), _k0(cfg, 11)), (_k0(cfg, 1), _k0(cfg, 0)))
    line = (cfg.k_one(), cfg.k_one())
    D = _dim2_module(cfg, phi, line, r=1)
    assert weakly_admissible_dim2(D)


def test_weak_admissibility_scalar_phi():
    cfg = RingConfig(11, 1, 1, [-11, 1], prec=7, r=2)
    phi = ((_k0(cfg, 11), _k0(cfg, 0)), (_k0(cfg, 0), _k0(cfg, 11)))
    # K0-line inside the filtration line: t_H = 2 > v_p(11) = 1: fails
    bad = _dim2_module(cfg, phi, (cfg.k_one(), cfg.k_one()))
    assert not weakly_admissible_dim2(bad)


# ---------------------------------------------------------------------------
# Hermite interpolation


def _interpolates(L, PL2):
    """(p L_2)(pi) = p L and (p L_2)'(pi) = 0."""
    return (PL2.mod_E() - L.mul_p_power(1)).is_zero() and \
        PL2.derivative().mod_E().is_zero()


def test_hermite_constant(cfg7):
    a = cfg7.k_elem([cfg7.w(5)])
    PL2, L1 = hermite_interpolant(a)
    assert L1.is_zero()
    assert PL2 == cfg7.s([cfg7.w(35)])
    assert _interpolates(a, PL2)


def test_hermite_closed_form_example(cfg7):
    # e = 2, E = u^2 - p, L = pi: p L_2 = (3p/2) u - u^3/2, L_1 = -u/2
    PL2, L1 = hermite_interpolant(cfg7.pi())
    inv2 = cfg7.w(2).unit_inverse()
    assert PL2 == cfg7.s([0, (cfg7.w(3) * inv2).scale_p(1), 0, -inv2])
    assert L1 == cfg7.s([0, -inv2])


def test_hermite_round_trip_random(cfg7, rng):
    for _ in range(10):
        L = random_k_elem(cfg7, rng, pexp_max=0)
        PL2, _ = hermite_interpolant(L)
        assert _interpolates(L, PL2)


def test_hermite_L1_is_the_E_quotient(cfg7, rng):
    # p L_2 = p L_0 + L_1 E(u): L_1 is the quotient of p L_2 - p L_0 by E
    for _ in range(10):
        L = random_k_elem(cfg7, rng, pexp_max=0)
        PL2, L1 = hermite_interpolant(L)
        assert L1 == (PL2 - L.to_strunc().scale_p(1)).div_exact_E(1)
        assert L1.degree() < cfg7.e


def test_hermite_higher_ramification(rng):
    # e = 5 inversion of E'(pi) costs e-1 digits, so work at full precision
    cfg = RingConfig(13, 1, 5, [-13, 0, 0, 0, 0, 1], prec=13, r=2)
    for _ in range(3):
        L = random_k_elem(cfg, rng, pexp_max=0)
        PL2, _ = hermite_interpolant(L)
        assert _interpolates(L, PL2)


def test_hermite_linearity(cfg7, rng):
    for _ in range(5):
        L1 = random_k_elem(cfg7, rng, pexp_max=0)
        L2 = random_k_elem(cfg7, rng, pexp_max=0)
        a = random_witt(cfg7, rng)
        P1, Q1 = hermite_interpolant(L1)
        P2, Q2 = hermite_interpolant(L2)
        P, Q = hermite_interpolant(L1 * a + L2)
        assert P == P1 * a + P2
        assert Q == Q1 * a + Q2
