"""The int kernels of S/Fil^p S and K against the coefficient-object loops
they replaced, which are kept here as reference implementations only, and
the memoized determinant and the K inverse against the recursive cofactor
expansion.

Inputs have coefficients of reduced precision and coefficients that are
zero as known, so every precision rule of the kernels is exercised: the
raw product, the zero skips and their caps, the reduction by a monic
modulus, and Horner's rule for phi."""

import operator
import random

import pytest

from padicpolygons import DivisibilityError, PrecisionError, RingConfig
from padicpolygons.arith import KElem, STrunc, TildePoly, det
from padicpolygons.oracle import random_tilde, random_tilde_unit

RINGS = {
    (7, 2, 2): ([-7, 0, 1], 7),
    (13, 1, 5): ([-13, 0, 0, 0, 0, 1], 8),
    (11, 2, 3): ([-11, 0, 0, 1], 6),
    (7, 1, 2): ([-7, 0, 1], 7),
    (7, 2, 1): ([-7, 1], 7),
}


@pytest.fixture(scope="module", params=sorted(RINGS),
                ids=lambda key: "%d-%d-%d" % key)
def cfg(request):
    p, m, e = request.param
    E, prec = RINGS[request.param]
    return RingConfig(p, m, e, E, prec=prec, r=2)


# ---------------------------------------------------------------------------
# reference implementations: the coefficient-object loops


def ref_reduce(prod, modpoly, cfg, cap):
    d = len(modpoly) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c.val() == c.prec:
            if c.prec < cap:
                cap = min(cap, c.prec + min(x.val() for x in modpoly[:d]))
            continue
        for i in range(d):
            prod[k - d + i] = prod[k - d + i] - c * modpoly[i]
    if cap < cfg.prec:
        return tuple(c if c.prec <= cap else cfg.witt.elem(c.coords, cap)
                     for c in prod[:d])
    return tuple(prod[:d])


def _modulus(x):
    return x.cfg._E_power(x.cfg.p if isinstance(x, STrunc) else 1)


def ref_mul(x, y):
    cfg, n = x.cfg, len(x.coeffs)
    cap = cfg.prec
    prod = [cfg.witt.zero()] * (2 * n - 1)
    for i, a in enumerate(x.coeffs):
        if a.val() == a.prec:
            if a.prec < cap:
                cap = min(cap, a.prec + min(b.val() for b in y.coeffs))
            continue
        for j, b in enumerate(y.coeffs):
            prod[i + j] = prod[i + j] + a * b
    return type(x)(cfg, ref_reduce(prod, _modulus(x), cfg, cap))


def ref_mul_u(x):
    shifted = [x.cfg.witt.zero(), *x.coeffs]
    return type(x)(x.cfg, ref_reduce(shifted, _modulus(x), x.cfg,
                                     x.cfg.prec))


def ref_phi(x):
    """Horner's rule over the reference product."""
    cfg = x.cfg
    up = cfg.s([0] * min(cfg.p, cfg.e * cfg.p - 1) + [1])
    for _ in range(cfg.p - cfg.e * cfg.p + 1):
        up = ref_mul_u(up)
    acc = cfg.s_zero()
    for a in reversed(x.coeffs):
        acc = ref_mul(acc, up) + a.frobenius()
    return acc


def ref_unit_inverse(x):
    """Newton's iteration for 1/x, run for the full fixed step count."""
    cfg = x.cfg
    y = cfg.s([x.coeffs[0].unit_inverse()])
    two = cfg.s([2])
    for _ in range(max(1, (cfg.prec + cfg.e * cfg.p).bit_length() + 1)):
        y = y * (two - x * y)
    return y


def ref_tilde_unit_inverse(x):
    """The O((ep)^2) recurrence of GFElem products for 1/x in k[u]/u^{ep}."""
    cfg, ep = x.cfg, x.cfg.e * x.cfg.p
    inv0 = x.coeffs[0].inverse()
    out = [inv0] + [cfg.gf.zero] * (ep - 1)
    for n in range(1, ep):
        acc = cfg.gf.zero
        for i in range(1, n + 1):
            acc = acc + x.coeffs[i] * out[n - i]
        out[n] = -(inv0 * acc)
    return TildePoly(cfg, tuple(out))


def ref_divrem_E(x, s):
    """The coefficient loop of division by E^s, with the zero-skip cap: a
    skipped top coefficient leaves a zero quotient coefficient known to its
    own precision, and caps everything below it at that precision plus the
    least valuation among the lower coefficients of E^s."""
    cfg = x.cfg
    Es = cfg._E_power(s)
    work = list(x.coeffs)
    d = cfg.e * s
    mv = min(c.val() for c in Es[:d])
    quot = [cfg.witt.zero() for _ in range(len(work))]
    cap = cfg.prec

    def capped(c):
        return c if c.prec <= cap else cfg.witt.elem(c.coords, cap)

    for k in range(len(work) - 1, d - 1, -1):
        c = work[k]
        if c.val() == c.prec:
            quot[k - d] = capped(cfg.w(0, c.prec))
            cap = min(cap, c.prec + mv)
            continue
        quot[k - d] = capped(c)
        for i in range(d):
            work[k - d + i] = work[k - d + i] - c * Es[i]
    return quot, [capped(c) for c in work[:d]]


def divrem_coeffs(x, s):
    """divrem_E as the lists ref_divrem_E returns: the quotient's
    coefficients and the remainder's first es, after checking that the
    remainder is zeros known to full precision above them."""
    quot, rem = x.divrem_E(s)
    d, m = x.cfg.e * s, x.cfg.m
    assert not any(rem.flat[d * m:])
    assert rem.precs[d:] == [x.cfg.prec] * (len(rem.precs) - d)
    return list(quot.coeffs), list(rem.coeffs[:d])


def ref_val_E(x):
    """Repeated division by E through the reference division."""
    if x.is_zero():
        return x.cfg.p
    v = 0
    while v < x.cfg.p:
        quot, rem = ref_divrem_E(x, 1)
        if any(not c.is_zero() for c in rem):
            return v
        x = STrunc(x.cfg, tuple(quot))
        v += 1
        if x.is_zero():
            return x.cfg.p
    return v


# ---------------------------------------------------------------------------
# random inputs


def rough_witt(cfg, rng, zero_share=0.25):
    """A Witt element that is often zero as known, often of reduced
    precision, and of random valuation."""
    prec = cfg.prec if rng.random() < 0.6 else rng.randrange(1, cfg.prec + 1)
    if rng.random() < zero_share:
        return cfg.w(0, prec)
    pv = cfg.p ** rng.randrange(prec)
    q = cfg.p ** cfg.prec
    return cfg.w(tuple(rng.randrange(q) * pv for _ in range(cfg.m)), prec)


def rough_strunc(cfg, rng):
    n = cfg.e * cfg.p
    top = rng.choice([n, n, rng.randrange(1, n + 1)])
    return cfg.s([rough_witt(cfg, rng) for _ in range(top)])


def rough_unit(cfg, rng):
    """A unit of S/Fil^p S: a rough element with a unit constant term of
    random precision."""
    coeffs = list(rough_strunc(cfg, rng).coeffs)
    q = cfg.p ** cfg.prec
    coeffs[0] = cfg.w((1 + cfg.p * rng.randrange(q),) +
                      tuple(rng.randrange(q) for _ in range(cfg.m - 1)),
                      rng.randrange(1, cfg.prec + 1))
    return cfg.s(coeffs)


def rough_k(cfg, rng):
    return cfg.k_elem([rough_witt(cfg, rng) for _ in range(cfg.e)])


def rough_pairs(cfg, make, count, seed):
    rng = random.Random(seed)
    return [(make(cfg, rng), make(cfg, rng)) for _ in range(count)]


def trials(cfg, small, large):
    return small if cfg.e * cfg.p <= 21 else large


def digits(x):
    return [(c.coords, c.prec) for c in x.coeffs]


def same(new, ref):
    """Both calls give identical coordinates and precisions, or both raise
    PrecisionError."""
    try:
        want = ref()
    except PrecisionError:
        with pytest.raises(PrecisionError):
            new()
        return
    got = new()
    if isinstance(want, tuple):
        assert [(c.coords, c.prec) for part in got for c in part] == \
            [(c.coords, c.prec) for part in want for c in part]
    else:
        assert digits(got) == digits(want)


# ---------------------------------------------------------------------------
# the kernels against the references


def test_strunc_products_match_reference(cfg):
    for x, y in rough_pairs(cfg, rough_strunc, trials(cfg, 40, 6), 1):
        same(lambda: x * y, lambda: ref_mul(x, y))


def test_mul_u_matches_reference(cfg):
    kernel = cfg._kernel(cfg.p)
    for x, _ in rough_pairs(cfg, rough_strunc, trials(cfg, 40, 10), 2):
        same(lambda: x._mul_u_mod(kernel), lambda: ref_mul_u(x))


def test_phi_matches_horner(cfg):
    for x, _ in rough_pairs(cfg, rough_strunc, trials(cfg, 40, 3), 3):
        same(x.phi, lambda: ref_phi(x))


def test_unit_inverse_matches_fixed_step_newton(cfg):
    for x, _ in rough_pairs(cfg, rough_unit, trials(cfg, 20, 4), 10):
        same(x.unit_inverse, lambda: ref_unit_inverse(x))


def tilde_units(cfg, rng):
    """Dense units, sparse units 1 + c u^k, and units 1 - c u whose inverse
    sum (c u)^i is nonzero up to u^{ep-1}."""
    ep = cfg.e * cfg.p

    def elem():
        return cfg.gf.elem(tuple(rng.randrange(cfg.p) for _ in range(cfg.m)))

    def nonzero():
        c = elem()
        return nonzero() if c.is_zero() else c

    out = []
    for _ in range(trials(cfg, 10, 4)):
        out.append(cfg.tilde([nonzero()] + [elem() for _ in range(ep - 1)]))
        k = rng.randrange(1, ep)
        out.append(cfg.tilde_one() + cfg.tilde_u(k) * nonzero())
        out.append(cfg.tilde_one() - cfg.tilde_u(1) * nonzero())
    return out


def test_tilde_unit_inverse_matches_recurrence(cfg):
    for x in tilde_units(cfg, random.Random(14)):
        y = x.unit_inverse()
        assert [c.coords for c in y.coeffs] == \
            [c.coords for c in ref_tilde_unit_inverse(x).coeffs]
        assert x * y == cfg.tilde_one()
    full = (cfg.tilde_one() - cfg.tilde_u(1)).unit_inverse()
    assert all(c == cfg.gf.one for c in full.coeffs)
    for x in (cfg.tilde_zero(), cfg.tilde_u(1),
              cfg.tilde_u(1) + cfg.tilde_u(cfg.e * cfg.p - 1)):
        with pytest.raises(DivisibilityError):
            x.unit_inverse()


def test_cached_Eprime_inverse_is_a_fresh_inverse(cfg):
    """E'(pi) and its inverse, built once per ring, against E'(pi) built
    from the coefficients i E_i and against the s = 1 Hermite denominator."""
    Eprime, inv = cfg.Eprime_pi()
    fresh = cfg.s([cfg.E[i] * i for i in range(1, cfg.e + 1)]).mod_E()
    denom = cfg.k_one() * fresh * cfg.witt.elem(1)
    assert (Eprime.num.flat, Eprime.num.precs, Eprime.pexp) == \
        (fresh.num.flat, fresh.num.precs, fresh.pexp)
    for y in (fresh.inverse(), denom.inverse()):
        assert (inv.num.flat, inv.num.precs, inv.pexp) == \
            (y.num.flat, y.num.precs, y.pexp)
    assert cfg.Eprime_pi() is cfg.Eprime_pi()


def test_k_products_match_reference(cfg):
    for x, y in rough_pairs(cfg, rough_k, 60, 4):
        same(lambda: (x * y).num, lambda: ref_mul(x.num, y.num))
        same(lambda: x.num._mul_u_mod(cfg._kernel(1)),
             lambda: ref_mul_u(x.num))


def test_divrem_E_matches_reference(cfg):
    for x, _ in rough_pairs(cfg, rough_strunc, trials(cfg, 40, 10), 5):
        for s in (1, 2):
            same(lambda: divrem_coeffs(x, s), lambda: ref_divrem_E(x, s))


def test_val_E_matches_repeated_division(cfg):
    rng = random.Random(9)
    E = cfg.s_E()
    for _ in range(trials(cfg, 40, 10)):
        x = rough_strunc(cfg, rng)
        for _ in range(rng.randrange(4)):
            x = x * E
        try:
            want = ref_val_E(x)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                x.val_E()
            continue
        assert x.val_E() == want


def test_products_raise_where_the_reference_raises(cfg):
    empty = cfg.w(0, prec=0)
    x = cfg.s([cfg.w(0, prec=2), 1])
    y = cfg.s([empty, 1])
    same(lambda: x * y, lambda: ref_mul(x, y))
    same(lambda: y * x, lambda: ref_mul(y, x))
    same(y.phi, lambda: ref_phi(y))
    same(cfg.s([1, empty]).phi, lambda: ref_phi(cfg.s([1, empty])))


# ---------------------------------------------------------------------------
# claimed digits against full-precision lifts of the inputs


def lift(x, rng):
    """A full-precision element that agrees with x to each coefficient's
    precision."""
    cfg = x.cfg
    q = cfg.p ** cfg.prec
    return type(x)(cfg, tuple(
        cfg.w(tuple(c + rng.randrange(q) * cfg.p ** a.prec for c in a.coords))
        for a in x.coeffs))


def claims_hold(op, *args):
    """op(*args) claims only digits that op of full-precision lifts of the
    arguments has, or raises PrecisionError."""
    try:
        claimed = op(*args)
    except PrecisionError:
        return
    rng = random.Random(8)
    for _ in range(3):
        exact = op(*(lift(x, rng) for x in args))
        for c, t in zip(claimed, exact):
            q = c.ring.p ** max(c.prec, 0)
            assert all((a - b) % q == 0 for a, b in zip(c.coords, t.coords))


def test_claimed_digits_hold_for_lifts(cfg):
    for x, y in rough_pairs(cfg, rough_strunc, trials(cfg, 30, 4), 7):
        claims_hold(lambda a, b: (a * b).coeffs, x, y)
        claims_hold(lambda a: a.phi().coeffs, x)
        for s in (1, 2):
            claims_hold(lambda a: sum(divrem_coeffs(a, s), []), x)


# ---------------------------------------------------------------------------
# the coefficient-wise operations of the flat form against per-coefficient
# WittElem loops


def ref_zip(op, x, *rest):
    return type(x)(x.cfg, tuple(op(*cs) for cs in zip(
        x.coeffs, *(y.coeffs for y in rest))))


def ref_tronc(x, s):
    if not 1 <= s < x.cfg.p:
        raise ValueError("troncation level must be in [1, p)")
    rem = ref_divrem_E(x, s)[1]
    return STrunc(x.cfg, tuple(rem) + (x.cfg.witt.zero(),) * (
        len(x.coeffs) - len(rem)))


def ref_reduce_mod_p(x):
    return tuple(a.residue().coords for a in x.coeffs)


def no_digits(x, rng):
    """x with one coefficient known to no digits."""
    coeffs = list(x.coeffs)
    coeffs[rng.randrange(len(coeffs))] = x.cfg.w(0, prec=0)
    return type(x)(x.cfg, tuple(coeffs))


def agree(new, ref):
    """Both calls give identical coordinates and precisions, or both raise
    an exception of the same class."""
    try:
        want = ref()
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            new()
        assert type(raised.value) is type(exc)
        return
    got = new()
    if isinstance(want, tuple):
        assert tuple(c.coords for c in got.coeffs) == want
    elif isinstance(want, bool):
        assert got is want
    else:
        assert digits(got) == digits(want)


def flat_inputs(cfg, seed):
    """Pairs of STruncs and of K numerators: rough ones, ones divisible by
    p or p^2, and ones with a coefficient known to no digits."""
    rng = random.Random(seed)
    pairs = []
    for make in (rough_strunc, lambda c, r: rough_k(c, r).num):
        for _ in range(trials(cfg, 12, 4)):
            x, y = make(cfg, rng), make(cfg, rng)
            k = rng.randrange(1, 3)
            pairs.append((x, y))
            pairs.append((ref_zip(lambda a: a.scale_p(k), x), y))
            pairs.append((no_digits(x, rng), y))
            pairs.append((x, no_digits(y, rng)))
    return pairs


def test_coefficient_wise_ops_match_reference(cfg):
    rng = random.Random(11)
    for x, y in flat_inputs(cfg, 11):
        agree(lambda: x + y, lambda: ref_zip(operator.add, x, y))
        agree(lambda: x - y, lambda: ref_zip(operator.sub, x, y))
        agree(lambda: -x, lambda: ref_zip(operator.neg, x))
        agree(x.is_zero, lambda: all(a.is_zero() for a in x.coeffs))
        for k in (0, 1, 2):
            agree(lambda: x.scale_p(k),
                  lambda: ref_zip(lambda a: a.scale_p(k), x))
            agree(lambda: x.div_exact_p(k),
                  lambda: ref_zip(lambda a: a.div_exact_p(k), x))
        for w in (rough_witt(cfg, rng), rng.randrange(-50, 50)):
            agree(lambda: x.mul_w(w), lambda: ref_zip(lambda a: a * w, x))


def test_tronc_and_reduce_mod_p_match_reference(cfg):
    for x, _ in flat_inputs(cfg, 12):
        if not isinstance(x, STrunc):
            continue
        for s in (0, 1, 2, cfg.p):
            agree(lambda: x.tronc(s), lambda: ref_tronc(x, s))
        agree(x.reduce_mod_p, lambda: ref_reduce_mod_p(x))


def test_flat_ops_claim_only_digits_of_the_lifts(cfg):
    rng = random.Random(13)
    for x, y in rough_pairs(cfg, rough_strunc, trials(cfg, 12, 3), 13):
        w = cfg.s([rough_witt(cfg, rng)])
        k = rng.randrange(1, 3)
        claims_hold(lambda a, b: (a + b).coeffs, x, y)
        claims_hold(lambda a, b: (a - b).coeffs, x, y)
        claims_hold(lambda a: (-a).coeffs, x)
        claims_hold(lambda a: a.scale_p(k).coeffs, x)
        claims_hold(lambda a: a.scale_p(k).div_exact_p(k).coeffs, x)
        claims_hold(lambda a, b: a.mul_w(b.constant_term()).coeffs, x, w)
        for s in (1, 2):
            claims_hold(lambda a: a.tronc(s).coeffs, x)


# ---------------------------------------------------------------------------
# the degree-aware paths: operands short of ep coefficients, whose zeros
# above the values may be known to fewer than N digits


def short_strunc(cfg, rng, top, zero_prec=None):
    """A rough element of degree top (its top coefficient nonzero) whose
    zeros above are known to zero_prec digits each, or to random ones."""
    coeffs = [rough_witt(cfg, rng) for _ in range(top)]
    coeffs.append(cfg.w((rng.randrange(1, cfg.p),) + (0,) * (cfg.m - 1),
                        rng.randrange(1, cfg.prec + 1)))
    return cfg.s(coeffs + [
        cfg.w(0, zero_prec or rng.randrange(1, cfg.prec + 1))
        for _ in range(cfg.e * cfg.p - top - 1)])


def degree_pairs(cfg, seed):
    """A zero operand, pairs of degree 0, pairs whose product needs no
    division (deg a + deg b < ep) and pairs that cross ep, each with its
    zeros above known to N digits and to fewer."""
    rng, ep, N = random.Random(seed), cfg.e * cfg.p, cfg.prec
    tops = [(0, 0), (0, ep // 2), (ep // 3, ep // 2 - 1), (ep // 2, ep // 2),
            (ep - 1, 1), (ep - 2, ep - 1)]
    pairs = []
    for zp in (N, None):
        zero = cfg.s([cfg.w(0, zp or rng.randrange(1, N + 1))
                      for _ in range(ep)])
        x = short_strunc(cfg, rng, rng.randrange(ep), zp)
        pairs += [(zero, x), (x, zero)]
        pairs += [(short_strunc(cfg, rng, ta, zp),
                   short_strunc(cfg, rng, tb, zp)) for ta, tb in tops]
    return pairs


def test_short_products_match_reference(cfg):
    for x, y in degree_pairs(cfg, 16):
        same(lambda: x * y, lambda: ref_mul(x, y))
        same(lambda: y * x, lambda: ref_mul(y, x))


def test_reduced_digit_of_a_short_operand_reaches_past_the_product(cfg):
    """A nonzero coefficient known to 2 digits caps every raw coefficient
    it meets, zeros of the other operand included, so the product of a
    constant and u knows 2 digits up to u^{ep-1}."""
    ep, N = cfg.e * cfg.p, cfg.prec
    a = cfg.s([cfg.w(1 + cfg.p, prec=2)])
    u = [cfg.s([0] * k + [1]) for k in (1, 2, ep - 1)]
    for y in (u[0], cfg.s([0, 1, 2]), u[2]):
        for x, z in ((a, y), (y, a)):
            same(lambda: x * z, lambda: ref_mul(x, z))
        assert (a * y).precs == [2] * ep
    assert (u[0] * u[1]).precs == [N] * ep


def test_short_division_paths_match_reference(cfg):
    """tronc, mod_E, divrem_E, val_E, the product by u and phi of short
    elements."""
    rng, E = random.Random(17), cfg.s_E()
    elems = [x for pair in degree_pairs(cfg, 17) for x in pair]
    for x in elems:
        same(lambda: x._mul_u_mod(cfg._kernel(cfg.p)), lambda: ref_mul_u(x))
        for s in (1, 2):
            same(lambda: divrem_coeffs(x, s), lambda: ref_divrem_E(x, s))
            agree(lambda: x.tronc(s), lambda: ref_tronc(x, s))
        agree(lambda: x.mod_E().num,
              lambda: type(x)(cfg, ref_divrem_E(x, 1)[1]))
    for x in elems[:trials(cfg, 12, 4)]:
        same(x.phi, lambda: ref_phi(x))
        for _ in range(rng.randrange(3)):
            x = x * E
        try:
            want = ref_val_E(x)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                x.val_E()
            continue
        assert x.val_E() == want


# ---------------------------------------------------------------------------
# the memoized determinant against the recursive cofactor expansion


def ref_det(rows):
    """Cofactor expansion along the first row, recomputing every minor."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(n):
        term = rows[0][j] * ref_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def test_det_matches_the_recursive_expansion(cfg):
    """W and K matrices with n <= 6 and reduced precisions: the same
    coordinates, precisions and p-prefixes."""
    rng = random.Random(18)
    for n in range(1, 7):
        rows = [[rough_witt(cfg, rng) for _ in range(n)] for _ in range(n)]
        got, want = det(rows), ref_det(rows)
        assert (got.coords, got.prec) == (want.coords, want.prec)
    for n in range(1, trials(cfg, 7, 5)):
        rows = [[KElem(cfg, rough_k(cfg, rng).num, rng.randrange(3))
                 for _ in range(n)] for _ in range(n)]
        try:
            want = ref_det(rows)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                det(rows)
            continue
        got = det(rows)
        assert (got.num.flat, got.num.precs, got.pexp) == \
            (want.num.flat, want.num.precs, want.pexp)


def ref_inverse(x):
    """KElem.inverse through the adjugate, with the norm and each of the e
    minors of rows 1..e-1 recomputed by ref_det."""
    if x.is_zero():
        raise ZeroDivisionError("zero at working precision")
    cfg, M = x.cfg, x._mult_matrix()
    norm = ref_det(M)
    d = norm.val()
    if d == norm.prec:
        raise PrecisionError("norm vanishes at working precision")
    unit_inv = norm.div_exact_p(d).unit_inverse()
    adj = []
    for i in range(cfg.e):
        minor = [r[:i] + r[i + 1:] for r in M[1:]]
        mdet = ref_det(minor) if minor else cfg.witt.one()
        adj.append(mdet if i % 2 == 0 else -mdet)
    return cfg.k_elem([a * unit_inv for a in adj]).mul_p_power(x.pexp - d)


@pytest.mark.parametrize("p, m, e, prec", [(13, 1, 5, 8), (17, 2, 7, 10)])
def test_kelem_inverse_matches_the_recursive_adjugate(p, m, e, prec):
    """Reduced precisions, p-divisible coefficients and p-prefixes 0-2:
    the adjugate read from det's own minors gives the same coordinates,
    precisions and p-prefix as the recursive one, or the same error."""
    cfg = RingConfig(p, m, e, [-p] + [0] * (e - 1) + [1], prec=prec, r=2)
    rng = random.Random(e)
    for _ in range(12):
        coeffs = []
        for _ in range(e):
            pv = 0 if rng.random() < 0.15 else p ** rng.randrange(3)
            coeffs.append(cfg.w(tuple(rng.randrange(p ** prec) * pv
                                      for _ in range(m)),
                                rng.randrange(3, prec + 1)))
        x = KElem(cfg, cfg.k_elem(coeffs).num, rng.randrange(3))
        try:
            want = ref_inverse(x)
        except (PrecisionError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                x.inverse()
            continue
        got = x.inverse()
        assert (got.num.flat, got.num.precs, got.pexp) == \
            (want.num.flat, want.num.precs, want.pexp)


# ---------------------------------------------------------------------------
# truncation k[u]/u^{ep} -> k[u]/u^n is a ring map, and phi reads only the
# coefficients below u^e


def coords(x):
    return [c.coords for c in x.coeffs]


def tilde_samples(cfg, rng):
    """Dense elements, units, multiples of powers of u, and zero."""
    ep = cfg.e * cfg.p
    out = [random_tilde(cfg, rng) for _ in range(trials(cfg, 8, 3))]
    out += [random_tilde_unit(cfg, rng) for _ in range(trials(cfg, 4, 2))]
    out += [random_tilde(cfg, rng) * cfg.tilde_u(rng.randrange(1, ep))
            for _ in range(trials(cfg, 4, 2))]
    return out + [cfg.tilde_zero()]


def lengths(cfg):
    e, ep = cfg.e, cfg.e * cfg.p
    return sorted({1, e, 2 * e, min(3 * e, ep), ep - 1, ep})


def test_truncation_commutes_with_the_ring_operations(cfg):
    rng = random.Random(31)
    xs = tilde_samples(cfg, rng)
    for n in lengths(cfg):
        for x in xs:
            xn = x.truncate(n)
            assert len(xn.coeffs) == n
            y = rng.choice(xs)
            for op in (operator.add, operator.sub, operator.mul):
                assert coords(op(x, y).truncate(n)) == \
                    coords(op(xn, y.truncate(n)))
            assert coords((x + 1).truncate(n)) == coords(xn + 1)
            assert coords((-x).truncate(n)) == coords(-xn)
            if x.is_unit():
                assert coords(x.unit_inverse().truncate(n)) == \
                    coords(xn.unit_inverse())
            else:
                with pytest.raises(DivisibilityError):
                    xn.unit_inverse()
            v = x.u_val()
            assert xn.u_val() == (v if v < n else n)
            for k in sorted({0, 1, n // 2, n - 1, n}):
                assert coords(x.shift_u(k).truncate(n)) == \
                    coords(xn.shift_u(k))
                try:
                    full = x.div_exact_u(k)
                except DivisibilityError:
                    with pytest.raises(DivisibilityError):
                        xn.div_exact_u(k)
                    continue
                # u^k x' = x fixes x' mod u^{n-k} only
                assert coords(full.truncate(n - k)) == \
                    coords(xn.div_exact_u(k).truncate(n - k))


def test_phi_of_a_truncation_is_phi_of_every_lift(cfg):
    rng = random.Random(32)
    e, ep = cfg.e, cfg.e * cfg.p
    for n in (m for m in lengths(cfg) if m >= e):
        for x in tilde_samples(cfg, rng):
            xn = x.truncate(n)
            assert len(xn.phi().coeffs) == ep
            assert coords(xn.phi()) == coords(x.phi())
            # any lift of xn: its coefficients below u^n, anything above
            top = random_tilde(cfg, rng).shift_u(n)
            assert coords(xn.phi()) == coords((x + top).phi())


def test_mixed_lengths_raise(cfg):
    rng = random.Random(33)
    ep = cfg.e * cfg.p
    x = random_tilde_unit(cfg, rng)
    for n in (1, cfg.e, ep - 1):
        short = x.truncate(n)
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ValueError):
                op(x, short)
            with pytest.raises(ValueError):
                op(short, x)
    with pytest.raises(ValueError):
        x.truncate(ep + 1)
    # the full length is the identity
    assert coords(x.truncate(ep)) == coords(x)
