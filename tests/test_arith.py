"""Coefficient-ring arithmetic: Witt vectors with Frobenius, the truncated
divided-power ring, troncation, and the valuations."""

import random

import pytest
from fractions import Fraction

from padicpolygons import (DivisibilityError, K0Elem, PrecisionError,
                           RingConfig)
from padicpolygons.oracle import (random_k_elem, random_strunc, random_tilde,
                                  random_witt, tronc_difference_divisible)


# ---------------------------------------------------------------------------
# W(F_{p^m}) and sigma


def test_frobenius_identity_on_zp(cfg7m1):
    x = cfg7m1.w(5)
    assert x.frobenius() == x


def test_frobenius_of_zero(cfg7):
    assert cfg7.witt.zero().frobenius().is_zero()


def test_frobenius_is_other_hensel_root(cfg7):
    # sigma(teich(w)) must be a root of the modulus at full precision,
    # congruent to w^p mod p, and distinct from teich(w) itself
    w = cfg7.witt.teichmuller(cfg7.witt.gen())
    s = w.frobenius()
    hval = cfg7.witt.zero()
    for c in reversed(cfg7.witt.modulus):      # Horner's rule
        hval = hval * s + c
    assert hval.prec == cfg7.prec and hval.is_zero()
    assert s.residue() == w.residue().frobenius()
    assert not (s - w).is_zero()


def test_frobenius_order_m(cfg7, rng):
    for _ in range(20):
        x = random_witt(cfg7, rng)
        y = x
        for _ in range(cfg7.m):
            y = y.frobenius()
        assert y == x


def test_frobenius_ring_homomorphism(cfg7, rng):
    for _ in range(20):
        x, y = random_witt(cfg7, rng), random_witt(cfg7, rng)
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_inseparable_modulus_rejected():
    # x^2 reducible mod 7
    with pytest.raises(Exception):
        RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2, modulus=[0, 0, 1])


def test_witt_precision_ledger(cfg7):
    x = cfg7.w(49)
    y = x.div_exact_p(1)
    assert y.prec == cfg7.prec - 1
    assert y == cfg7.w(7)
    with pytest.raises(DivisibilityError):
        cfg7.w(3).div_exact_p(1)
    dead = cfg7.w(1, prec=1)
    with pytest.raises(PrecisionError):
        dead.div_exact_p(1)


def test_unit_inverse(cfg7, rng):
    for _ in range(10):
        x = random_witt(cfg7, rng)
        if not x.is_unit():
            continue
        assert x * x.unit_inverse() == cfg7.witt.one()


# ---------------------------------------------------------------------------
# S/Fil^p S


def test_phi_defining_relation(cfg7):
    assert cfg7.s([0, 1]).phi() == cfg7.s([0] * cfg7.p + [1])


def test_phi_of_E_is_p_times_unit(cfg7):
    phiE = cfg7.s_E().phi()
    assert phiE.val_p() == 1
    c = phiE.div_exact_p(1)
    assert c.is_unit()
    assert c == cfg7.c
    # E^2 -> p^2 c^2 by multiplicativity
    E2 = cfg7.s_E() * cfg7.s_E()
    assert E2.phi() == (c * c).scale_p(2)


def test_phi_semilinear_and_multiplicative(cfg7, rng):
    for _ in range(25):
        a = random_witt(cfg7, rng)
        x = random_strunc(cfg7, rng, 6)
        y = random_strunc(cfg7, rng, 6)
        assert x.mul_w(a).phi() == x.phi().mul_w(a.frobenius())
        assert (x * y).phi() == x.phi() * y.phi()


def test_phi_intertwines_E_multiplication(cfg7, rng):
    pc = cfg7.c.scale_p(1)
    for _ in range(10):
        x = random_strunc(cfg7, rng, 8)
        assert (cfg7.s_E() * x).phi() == pc * x.phi()


def test_monodromy_defining_relations(cfg7):
    # N on k[u]/u^{ep}, which the classification's N-stability check uses
    u = cfg7.tilde_u(1)
    assert u.monodromy() == -u
    u3 = cfg7.tilde_u(3)
    assert u3.monodromy() == u3 * -3
    assert cfg7.tilde([(4, 5)]).monodromy().is_zero()


def test_monodromy_leibniz(cfg7, rng):
    for _ in range(100):
        x = random_tilde(cfg7, rng)
        y = random_tilde(cfg7, rng)
        assert (x * y).monodromy() == x.monodromy() * y + x * y.monodromy()


# ---------------------------------------------------------------------------
# tronc


def test_tronc_kills_E_power(cfg7):
    E2 = cfg7.s_E() * cfg7.s_E()
    assert E2.tronc(2).is_zero()
    assert cfg7.s_E().tronc(1).is_zero()


def test_tronc_fixes_low_degree(cfg7, rng):
    t = random_strunc(cfg7, rng, cfg7.e)
    x = cfg7.s([cfg7.p]) + t * cfg7.s_E()
    assert x.tronc(2) == x


def test_tronc_difference_divisible(rng):
    # oracle: subtracting tronc_s leaves an exact E^s-multiple (s = 1, 2),
    # checked by an independent synthetic division and by val_E
    assert tronc_difference_divisible(rng, 25) == []


def test_tronc_idempotent_and_linear(cfg7, rng):
    for _ in range(100):
        x = random_strunc(cfg7, rng)
        y = random_strunc(cfg7, rng)
        a = random_witt(cfg7, rng)
        s = rng.choice([1, 2])
        t = x.tronc(s)
        assert t.tronc(s) == t
        assert (x + y).tronc(s) == x.tronc(s) + y.tronc(s)
        assert x.mul_w(a).tronc(s) == x.tronc(s).mul_w(a)


def test_phi_tronc_congruence(cfg7, rng):
    # phi(x) = phi(tronc_r(x)) mod p^r
    r = cfg7.r
    for _ in range(25):
        x = random_strunc(cfg7, rng)
        diff = x.phi() - x.tronc(r).phi()
        assert diff.val_p() >= r


# ---------------------------------------------------------------------------
# valuations


def test_val_p_K_uniformizer_and_p(cfg7):
    assert cfg7.pi().val_p() == Fraction(1, cfg7.e)
    assert cfg7.k_elem([cfg7.p]).val_p() == 1


def _sylvester_resultant(E_ints, A_ints):
    """Resultant of monic E (degree e) and A (degree < e) over Z, via the
    Sylvester determinant with exact integer arithmetic."""
    import itertools
    e = len(E_ints) - 1
    da = len(A_ints) - 1
    n = e + da
    rows = []
    for i in range(da):
        row = [0] * n
        for k, c in enumerate(reversed(E_ints)):
            row[i + k] = c
        rows.append(row)
    for i in range(e):
        row = [0] * n
        for k, c in enumerate(reversed(A_ints)):
            row[i + k] = c
        rows.append(row)
    det = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for s in range(n):
            if not seen[s]:
                t, ln = s, 0
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        det += term
    return det


def test_val_p_K_resultant_oracle(cfg7m1):
    # x = p/(2 pi) for e = 2, p = 7 has valuation 1/2
    x = cfg7m1.k_elem([cfg7m1.p]) * cfg7m1.pi().inverse() * \
        cfg7m1.k_elem([2]).inverse()
    assert x.val_p() == Fraction(1, 2)
    # independent check on random integral elements via the resultant
    rng = random.Random(7)
    for _ in range(15):
        ints = [rng.randrange(1, 7 ** 5) * 7 ** rng.randrange(0, 2)
                for _ in range(2)]
        k = cfg7m1.k_elem(ints)
        res = _sylvester_resultant([-7, 0, 1], ints)
        v = 0
        while res % 7 == 0:
            res //= 7
            v += 1
        assert k.val_p() == Fraction(v, 2)


def test_val_p_K_multiplicative(cfg7, rng):
    for _ in range(25):
        x = random_k_elem(cfg7, rng)
        y = random_k_elem(cfg7, rng)
        if x.is_zero() or y.is_zero():
            continue
        vx, vy, vxy = x.val_p(), y.val_p(), (x * y).val_p()
        assert vxy == vx + vy


def test_val_E_examples(cfg7, rng):
    E3 = cfg7.s_E() * cfg7.s_E() * cfg7.s_E()
    unit = cfg7.s([3, 1])
    assert (E3 * unit).val_E() == 3
    assert cfg7.s_zero().val_E() == cfg7.p
    t = random_strunc(cfg7, rng, cfg7.e)
    x = cfg7.s([cfg7.w(1 + cfg7.p)]) + t * cfg7.s_E()
    assert x.val_E() == 0


def test_k_inverse(cfg7, rng):
    for _ in range(15):
        x = random_k_elem(cfg7, rng)
        if x.is_zero():
            continue
        y = x.inverse()
        assert (x * y - cfg7.k_one()).is_zero()


# ---------------------------------------------------------------------------
# the num / p^pexp prefix of K0 and K


_PREFIXED = {
    "K0": lambda cfg, num, pexp: K0Elem(cfg.witt, num, pexp),
    "K": lambda cfg, num, pexp: cfg.k_elem([num], pexp),
}


@pytest.mark.parametrize("kind", sorted(_PREFIXED))
def test_p_prefix_semantics(cfg7, kind):
    make = _PREFIXED[kind]
    p = cfg7.p
    a, b = make(cfg7, cfg7.w(3), 1), make(cfg7, cfg7.w(5), 3)
    # + and - align on the larger pexp
    total, diff = a + b, a - b
    assert total.pexp == diff.pexp == 3
    assert total == make(cfg7, cfg7.w(3 * p * p + 5), 3)
    assert diff == make(cfg7, cfg7.w(3 * p * p - 5), 3)
    assert (b - a) == -diff
    # * adds the prefixes
    prod = a * b
    assert prod.pexp == 4
    assert prod == make(cfg7, cfg7.w(15), 4)
    # is_zero needs a digit below the prefix
    assert make(cfg7, cfg7.w(0, prec=3), 2).is_zero()
    with pytest.raises(PrecisionError):
        make(cfg7, cfg7.w(0, prec=3), 3).is_zero()
    assert not make(cfg7, cfg7.w(1, prec=3), 2).is_zero()
    # mul_p_power of either sign
    x = make(cfg7, cfg7.w(4), 2)
    assert x.mul_p_power(1).pexp == 1
    assert x.mul_p_power(1) == make(cfg7, cfg7.w(4), 1)
    up = x.mul_p_power(3)
    assert up.pexp == 0
    assert up == make(cfg7, cfg7.w(4 * p), 0)
    down = x.mul_p_power(-2)
    assert down.pexp == 4
    assert down == make(cfg7, cfg7.w(4), 4)
    assert down.mul_p_power(2) == x


def test_powers(cfg7, rng):
    pi, x = cfg7.pi(), random_witt(cfg7, rng)
    assert pi ** 3 == pi * pi * pi
    assert pi ** 0 == cfg7.k_one()
    assert x ** 5 == x * x * x * x * x
    # negative powers of W and K raise instead of looping; k inverts
    with pytest.raises(ValueError):
        pi ** -1
    with pytest.raises(ValueError):
        x ** -2
    g = cfg7.gf.gen()
    assert g ** -2 * g * g == cfg7.gf.one


def test_products_bound_unknown_digits_of_zero_coefficients(cfg7):
    """A coefficient that is zero only to 3 digits is skipped by the reduced
    products, phi and the division by E, but its unknown digits still bound
    what they know."""
    low = cfg7.w(0, prec=3)
    s = cfg7.s([low, 1]) * cfg7.s_one()
    assert s.coeffs[0].prec == 3
    assert (s - cfg7.s([7 ** 3, 1])).is_zero()
    k = cfg7.k_elem([low, 1]) * cfg7.k_elem([2, 3])
    assert [c.prec for c in k.coeffs] == [3, 3]
    assert (k - cfg7.k_elem([7 ** 3, 1]) * cfg7.k_elem([2, 3])).is_zero()
    assert [c.prec for c in (cfg7.k_elem([low, 1]) ** 2).coeffs] == [3, 3]
    # u * (low u) = 7 low: the reduction by E skips the zero u^2 term, which
    # leaves the constant term 3 + v_p(E_0) = 4 digits
    k = cfg7.pi() * cfg7.k_elem([0, low])
    assert k.coeffs[0].prec == 4
    # phi(1 + low u) = 1 + sigma(low) u^7: every coefficient keeps 3 digits
    f = cfg7.s([1, low]).phi()
    assert [c.prec for c in f.coeffs] == [3] * 14
    assert (f - cfg7.s([1, 7 ** 3]).phi()).is_zero()
    # low u^2 = low E + 7 low: division by E skips the zero u^2 term, so the
    # quotient knows 3 digits and the remainder 3 + v_p(E_0) = 4
    quot, rem = cfg7.s([0, 0, low]).divrem_E(1)
    assert quot.precs[0] == 3 and rem.precs[:2] == [4, 4]
    # above degree e the remainder is zeros known to full precision
    assert not any(rem.flat[2 * cfg7.m:])
    assert rem.precs[2:] == [cfg7.prec] * (len(rem.precs) - 2)
    lquot, lrem = cfg7.s([0, 0, 7 ** 3]).divrem_E(1)
    assert (quot.coeffs[0] - lquot.coeffs[0]).is_zero()
    assert all((a - b).is_zero() for a, b in zip(rem.coeffs, lrem.coeffs))
