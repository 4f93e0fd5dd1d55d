"""The int kernels of S/Fil^p S and K, and the packed k[u]/u^n operations,
against the coefficient-object loops they replaced, which are kept here as
reference implementations only, and the memoized determinant and the K
inverse against the recursive cofactor expansion.

Inputs have coefficients of reduced precision and coefficients that are
zero as known, so every precision rule of the kernels is exercised: the
raw product, the zero skips and their caps, the reduction by a monic
modulus, and Horner's rule for phi."""

import itertools
import operator
import random

import pytest

from padicpolygons import DivisibilityError, PrecisionError, RingConfig, arith
from padicpolygons.arith import (GFElem, KElem, STrunc, TildePoly, _pack,
                                  _slot_bytes, _unpack, det)
from padicpolygons.oracle import (random_strunc, random_tilde,
                                  random_tilde_unit)

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
    """The O(n^2) recurrence of GFElem products for 1/x in k[u]/u^n: the
    schoolbook power-series inverse."""
    cfg, n = x.cfg, len(x.coeffs)
    inv0 = x.coeffs[0].inverse()
    out = [inv0] + [cfg.gf.zero] * (n - 1)
    for k in range(1, n):
        acc = cfg.gf.zero
        for i in range(1, k + 1):
            acc = acc + x.coeffs[i] * out[k - i]
        out[k] = -(inv0 * acc)
    return TildePoly(cfg, [c for a in out for c in a.coords])


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


def check_phi(cfg, count):
    """phi against Horner's rule on rough elements, and on one whose
    constant term is known to no digits."""
    xs = [x for x, _ in rough_pairs(cfg, rough_strunc, count, 3)]
    coeffs = list(xs[0].coeffs)
    coeffs[0] = cfg.w(0, prec=0)
    for x in xs + [cfg.s(coeffs)]:
        same(x.phi, lambda: ref_phi(x))


def test_phi_matches_horner(cfg):
    check_phi(cfg, trials(cfg, 40, 3))


def test_unit_inverse_matches_fixed_step_newton(cfg):
    for x, _ in rough_pairs(cfg, rough_unit, trials(cfg, 20, 4), 10):
        same(x.unit_inverse, lambda: ref_unit_inverse(x))


def ref_unit_inverse_fixed_point(x):
    """Newton's iteration for 1/x with no step cap, until a step returns
    y in coordinates and precisions."""
    cfg = x.cfg
    y = cfg.s([x.coeffs[0].unit_inverse()])
    two = cfg.s([2])
    while True:
        nxt = y * (two - x * y)
        if nxt.flat == y.flat and nxt.precs == y.precs:
            return nxt
        y = nxt


UNIT_RINGS = {**RINGS, (5, 2, 1): ([-5, 1], 5),
              (11, 2, 4): ([-11, 0, 0, 0, 1], 11)}


@pytest.mark.parametrize("key", sorted(UNIT_RINGS),
                         ids=lambda key: "%d-%d-%d" % key)
def test_unit_inverse_is_the_uncapped_fixed_point(key):
    """30 units per ring, rough (reduced precisions, zeros as known) and at
    full precision, against the uncapped iteration: equal flat and precs.
    (11,2,4) at prec 11 needs 8 steps, past the old cap of 7."""
    E, prec = UNIT_RINGS[key]
    cfg = RingConfig(*key, E, prec=prec, r=2 if 2 * key[2] < key[0] - 1
                     else 1)
    rng = random.Random(42)
    units = [rough_unit(cfg, rng) for _ in range(15)]
    while len(units) < 30:
        x = random_strunc(cfg, rng)
        if x.is_unit():
            units.append(x)
    for x in units:
        y, want = x.unit_inverse(), ref_unit_inverse_fixed_point(x)
        assert (y.flat, y.precs) == (want.flat, want.precs)


def test_unit_inverse_raises_past_its_step_bound(monkeypatch):
    """Products that never settle: after its K + 2 steps, K =
    ceil(log2(e(p + N - 1))), two products each, unit_inverse raises an
    error that names it instead of returning an unchecked y."""
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)
    x = cfg.s([1, 1])
    inner, calls = STrunc.__mul__, []

    def drifting(self, other):
        calls.append(None)
        return inner(self, other) + cfg.s([0, 0, 0, len(calls) ** 2])

    monkeypatch.setattr(STrunc, "__mul__", drifting)
    with pytest.raises(ArithmeticError, match="unit_inverse"):
        x.unit_inverse()
    assert len(calls) == 2 * ((2 * (7 + 7 - 1) - 1).bit_length() + 2)


def test_unit_inverse_skips_the_confirming_product(monkeypatch):
    """Once 2 - x y is exactly 1 at y's one precision the step would
    return y, and it is not made: a unit whose first y is exact takes one
    product."""
    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)
    inner, calls = STrunc.__mul__, []

    def counted(self, other):
        calls.append(None)
        return inner(self, other)

    monkeypatch.setattr(STrunc, "__mul__", counted)
    y = cfg.s([3]).unit_inverse()
    assert len(calls) == 1
    want = cfg.s([cfg.w(3).unit_inverse()])
    assert (y.flat, y.precs) == (want.flat, want.precs)


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


@pytest.mark.parametrize("key, E", [
    ((13, 1, 5), [-13, 0, 0, 0, 0, 1]),
    ((7, 2, 2), [-7, 0, 1]),
    ((13, 2, 4), [-13, 0, 0, 0, 1]),
], ids=["13-1-5", "7-2-2", "13-2-4"])
def test_tilde_inverse_climbs_the_halving_ladder(key, E, monkeypatch):
    """1/x in k[u]/u^n at every n from 1 to ep against the schoolbook
    series inverse.  The start is 1/x mod u^h, h = min(n, 9) coefficients
    of the series for m = 1 and h = 1 for m = 2; its packed products (each
    one ``_tilde_prod``) are made two at each precision of the ladder
    ..., ceil(n/2), n above h, from the bottom up, and never above n, each
    of the length its step appends.  It packs x once per slot width of the
    ladder and two operands per step, y and 2 - x y."""
    cfg = RingConfig(*key, E, prec=4, r=2)
    lengths, packs, inner, pack = [], [], arith._tilde_prod, arith._pack

    def prod(x, n, W, gf):
        lengths.append(n)
        return inner(x, n, W, gf)

    def counted_pack(flat, m, W):
        packs.append(W)
        return pack(flat, m, W)

    monkeypatch.setattr(arith, "_tilde_prod", prod)
    monkeypatch.setattr(arith, "_pack", counted_pack)
    x = random_tilde_unit(cfg, random.Random(40))
    for n in range(1, cfg.e * cfg.p + 1):
        xn = x.truncate(n)
        del lengths[:], packs[:]
        assert arith._tilde_inverse(xn.flat, n, cfg.gf) == \
            ref_tilde_unit_inverse(xn).flat
        h = min(n, 9) if cfg.m == 1 else 1
        ladder, k = [], n
        while k > h:
            ladder, k = [k] + ladder, -(-k // 2)
        assert lengths == [k - low for low, k in zip([h] + ladder, ladder)
                           for _ in range(2)]
        widths = {arith._slot_bytes(k * cfg.m * cfg.p ** 2) for k in ladder}
        assert len(packs) == 2 * len(ladder) + len(widths)


def ref_plain_ladder(x, n, gf):
    """1 / x in k[u]/u^n by the Newton ladder from y = 1 / x_0 alone: a
    step at every k of ..., ceil(n/4), ceil(n/2), n, each product packed on
    its own."""
    m, p = gf.m, gf.p
    y = list((GFElem(gf, tuple(x[:m])).inverse()).coords)
    for i in reversed(range((n - 1).bit_length())):
        k = ((n - 1) >> i) + 1
        h = len(y) // m
        xy = arith._tilde_mul(x[:k * m], y + [0] * ((k - h) * m), k, gf)
        d = [-c % p for c in xy[h * m:]]
        y += arith._tilde_mul(y[:(k - h) * m], d, k - h, gf)
    return y


@pytest.mark.parametrize("key, E", [
    ((13, 1, 5), [-13, 0, 0, 0, 0, 1]),
    ((7, 1, 2), [-7, 0, 1]),
    ((7, 2, 2), [-7, 0, 1]),
    ((13, 2, 4), [-13, 0, 0, 0, 1]),
], ids=["13-1-5", "7-1-2", "7-2-2", "13-2-4"])
def test_seeded_ladder_matches_the_plain_ladder(key, E):
    """The inverse whose ladder starts, for m = 1, from 9 coefficients of
    the series recurrence, against the ladder from 1 / x_0, at every n
    from 1 to ep: equal coordinates."""
    cfg = RingConfig(*key, E, prec=4, r=2)
    rng = random.Random(41)
    for _ in range(6):
        x = random_tilde_unit(cfg, rng)
        for n in range(1, cfg.e * cfg.p + 1):
            xn = x.truncate(n).flat
            assert arith._tilde_inverse(xn, n, cfg.gf) == \
                ref_plain_ladder(xn, n, cfg.gf)


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


def test_cached_E2_is_the_product_in_S(cfg):
    E2 = cfg.s_E2()
    assert digits(E2) == digits(cfg.s_E() * cfg.s_E())
    assert cfg.s_E2() is E2


@pytest.mark.parametrize("key", sorted(RINGS),
                         ids=lambda key: "%d-%d-%d" % key)
def test_a_new_ring_builds_no_packed_table(key):
    """The fold and phi tables are built on first use, not with the ring."""
    E, prec = RINGS[key]
    cfg = RingConfig(*key, E, prec=prec, r=2)
    for s in (1, cfg.p):
        assert cfg._kernel(s)._fold is None and cfg._kernel(s)._phi is None
    cfg.s_E().phi()
    assert cfg._kernel(cfg.p)._phi is not None
    assert cfg._kernel(cfg.p)._fold is None


# ---------------------------------------------------------------------------
# E(u)^s, the table walk and the ring at a lower precision


def ref_E_power(cfg, s):
    """E^s by the schoolbook loop of WittElem products, E^(s-1) times E."""
    if s == 0:
        return (cfg.witt.one(),)
    half = ref_E_power(cfg, s - 1)
    prod = [cfg.witt.zero() for _ in range(len(half) + cfg.e)]
    for i, a in enumerate(half):
        for j, b in enumerate(cfg.E):
            prod[i + j] = prod[i + j] + a * b
    return tuple(prod)


def ref_table(kernel, vec, step, count, basis):
    """``_Kernel._table`` with every basis element, 1 included, multiplied
    through ``_coord_mul``."""
    N, d, m, pc = kernel.N, kernel.d, kernel.m, kernel.pc
    table = []
    for k in range(count):
        if k:
            vec = [c % pc for c in kernel.reduce(
                [0] * (step * m) + vec, [N] * (d + step), N)[0][:d * m]]
        table += [_pack([c for i in range(0, d * m, m) for c in
                         arith._coord_mul(b, vec[i:i + m],
                                          kernel.witt.modulus, pc)],
                        m, kernel.W) for b in basis]
    return table


def seeded_E(p, m, e, seed):
    """A seeded Eisenstein E(u) over W(F_{p^m}), as coordinate tuples: p
    times random coordinates below u^e, a unit times p at u^0."""
    rng = random.Random(seed)

    def coords():
        return tuple(rng.randrange(p ** 9) for _ in range(m))

    low = [tuple(p * c for c in coords()) for _ in range(e)]
    low[0] = (p * (1 + p * rng.randrange(p ** 8)),) + low[0][1:]
    return low + [(1,) + (0,) * (m - 1)]


# (p, m, e) -> (E, prec): seeded E on m = 1, 2 and 3
E_RINGS = {(7, 1, 2): (seeded_E(7, 1, 2, 1), 7),
           (11, 2, 3): (seeded_E(11, 2, 3, 2), 6),
           (7, 3, 2): (seeded_E(7, 3, 2, 3), 5),
           (5, 2, 1): (seeded_E(5, 2, 1, 4), 5)}


def E_ring(key):
    E, prec = E_RINGS[key]
    return RingConfig(*key, E, prec=prec, r=2)


def rough_E_ring():
    """(7, 2, 2) at prec 7 with E's coefficients known to 5, 3 and 6
    digits."""
    w = RingConfig(7, 2, 2, [-7, 0, 1], prec=7).w
    return RingConfig(7, 2, 2, [w(-7, 5), w((14, 7), 3), w(1, 6)], prec=7)


def test_packed_E_powers_match_the_schoolbook_loop():
    """Coordinates and precisions of every E^s, s <= p."""
    cfgs = [RingConfig(*key, E, prec=prec, r=2) for key, (E, prec) in
            {**RINGS, **NON_MONOMIAL}.items()]
    cfgs += [E_ring(key) for key in E_RINGS] + [rough_E_ring()]
    assert {x.prec for x in cfgs[-1]._E_power(2)} == {3, 5, 6}
    for cfg in cfgs:
        for s in range(cfg.p + 1):
            assert [(x.coords, x.prec) for x in cfg._E_power(s)] == \
                [(x.coords, x.prec) for x in ref_E_power(cfg, s)]


def test_table_walk_matches_the_coord_mul_walk(cfg):
    """The fold and phi tables, whose first basis element is 1, against
    the walk that multiplies every basis element."""
    for s in (1, cfg.p):
        kernel = cfg._kernel(s)
        d, m = kernel.d, kernel.m
        top = [0] * (d * m - m) + [1] + [0] * (m - 1)
        assert kernel.fold() == ref_table(kernel, top, 1, d,
                                          kernel.units)[m:]
        one = [1] + [0] * (d * m - 1)
        assert kernel.phi_table() == ref_table(kernel, one, cfg.p, d,
                                               cfg.witt._frob_pows)


def unpacked(kernel, table):
    return [_unpack(x, kernel.d, kernel.m, kernel.W, kernel.witt.modulus)
            for x in table]


@pytest.mark.parametrize("key", sorted(E_RINGS),
                         ids=lambda key: "%d-%d-%d" % key)
def test_a_ring_at_lower_precision_is_the_ring_read_mod_p_c(key):
    """at_prec(c) reads E, c0, every E^s (s <= p) and the fold and phi
    tables of E, E^2 and E^p as the ring at full precision does, mod p^c,
    from tables of its own in its own slot width."""
    cfg = E_ring(key)
    for c in range(2, cfg.prec):
        low, q = cfg.at_prec(c), cfg.p ** c
        assert isinstance(low, RingConfig) and low.prec == c
        assert (low.p, low.m, low.e, low.r) == (cfg.p, cfg.m, cfg.e, cfg.r)
        assert low.witt.modulus == cfg.witt.modulus and low.witt.pc == q
        assert low.witt._frob_pows == tuple(tuple(x % q for x in row)
                                           for row in cfg.witt._frob_pows)
        for s in range(cfg.p + 1):
            assert [(x.coords, x.prec) for x in low._E_power(s)] == \
                [(tuple(y % q for y in x.coords), min(x.prec, c))
                 for x in cfg._E_power(s)]
        assert low.c0 == cfg.c0.reduced_to(low.witt)
        assert low.c0.prec == c - 1
        for s in (1, 2, cfg.p):
            kernel, high = low._kernel(s), cfg._kernel(s)
            assert kernel.W == _slot_bytes(2 * kernel.d * kernel.m * q * q)
            for table in ("fold", "phi_table"):
                assert unpacked(kernel, getattr(kernel, table)()) == [
                    [x % q for x in row] for row in
                    unpacked(high, getattr(high, table)())]


def test_at_prec_bounds_cache_and_first_use():
    """at_prec(prec) is the ring, c outside [2, prec] raises, a second call
    returns the same ring, and a new one builds no E^s, kernel or table
    until it is used; at (13,2,4) prec 13 it packs in 8 bytes, not 16."""
    cfg = RingConfig(13, 2, 4, [-13, 0, 0, 0, 1], prec=13)
    assert cfg.at_prec(13) is cfg
    for c in (1, 14):
        with pytest.raises(arith.ConfigError, match=f"precision {c} "):
            cfg.at_prec(c)
    low = cfg.at_prec(4)
    assert cfg.at_prec(4) is low and cfg._at_prec == {4: low}
    assert low._kernels == {} and low._E_powers == {1: low.E}
    assert cfg._kernels == {}
    low.s_E().phi()
    kernel = low._kernel(13)
    assert kernel._phi is not None and kernel._fold is None
    assert (kernel.W, cfg._kernel(13).W) == (8, 16)


def test_u_powers_out_of_range_raise(cfg):
    """div_exact_u(k) takes 0 <= k <= n and shift_u(k) takes k >= 0; out of
    range each raises ValueError naming k and n.  shift_u(k) for k >= n
    is zero, and div_exact_u(n) divides zero."""
    x = random_tilde_unit(cfg, random.Random(43))
    for y in (cfg.tilde_zero(), x, x.truncate(cfg.e), x.truncate(1)):
        n = y._n()
        for k in (-1, n + 1, n + 5):
            with pytest.raises(ValueError, match=rf"u\^{k} in k\[u\]/u\^{n}$"):
                y.div_exact_u(k)
        for k in (-1, -n - 1):
            with pytest.raises(ValueError, match=rf"u\^{k} in k\[u\]/u\^{n}$"):
                y.shift_u(k)
        for k in (n, n + 1, 3 * n):
            assert y.shift_u(k).flat == [0] * (n * cfg.m)
        assert y.shift_u(0) == y and y.div_exact_u(0) == y
    zero = cfg.tilde_zero()
    assert zero.div_exact_u(zero._n()) == zero
    with pytest.raises(DivisibilityError):
        x.div_exact_u(x._n())


def test_cached_teichmuller_generator_is_a_fresh_lift(cfg):
    x = cfg.teichmuller_generator()
    fresh = cfg.witt.teichmuller(cfg.gf.gen())
    assert (x.coords, x.prec) == (fresh.coords, fresh.prec)
    assert cfg.teichmuller_generator() is x


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
    # one precision on each side, but none known on the right
    blank, z = cfg.s([empty] * (cfg.e * cfg.p)), cfg.s([1, 1])
    same(lambda: z * blank, lambda: ref_mul(z, blank))


# ---------------------------------------------------------------------------
# products of operands of one precision each: the fold-table reduction


def uniform_poly(cfg, rng, make, n, P, zero_constant=False):
    """An element of n coefficients all known to P digits, of random degree,
    with zeros and p-divisible values among them; a_0 is nonzero as known
    unless zero_constant."""
    q, top = cfg.p ** cfg.prec, rng.randrange(1, n + 1)

    def coeff():
        pv = 0 if rng.random() < 0.2 else cfg.p ** rng.randrange(P)
        return cfg.w(tuple(rng.randrange(q) * pv for _ in range(cfg.m)), P)

    coeffs = [coeff() for _ in range(top)] + [cfg.w(0, P)] * (n - top)
    coeffs[0] = cfg.w(0, P) if zero_constant else cfg.w(
        (rng.randrange(1, cfg.p),) + (0,) * (cfg.m - 1), P)
    return make(coeffs)


def uniform_pairs(cfg, seed, count):
    """Pairs over P = N on both sides, P < N on either side, a zero constant
    term on the left, and a right operand with one coefficient known to
    fewer digits than the rest, for S and for K numerators."""
    rng, N = random.Random(seed), cfg.prec
    pairs = []
    for make, n in ((cfg.s, cfg.e * cfg.p),
                    (lambda cs: cfg.k_elem(cs).num, cfg.e)):
        for _ in range(count):
            low = rng.randrange(1, N)
            for Pa, Pb, zero in ((N, N, False), (low, N, False),
                                 (N, low, False), (N, low, True)):
                pairs.append((uniform_poly(cfg, rng, make, n, Pa, zero),
                              uniform_poly(cfg, rng, make, n, Pb)))
            y = list(uniform_poly(cfg, rng, make, n, N).coeffs)
            k = rng.randrange(n)
            y[k] = cfg.w(y[k].coords, low)
            pairs.append((pairs[-4][0], make(y)))
    return pairs


NON_MONOMIAL = {(7, 2, 2): ([-7, 14, 1], 7), (11, 1, 3): ([22, -11, 33, 1], 9)}


@pytest.fixture(params=sorted(NON_MONOMIAL), ids=lambda key: "%d-%d-%d" % key)
def cfg_nm(request):
    """Non-monomial Eisenstein E on an m = 2 and an m = 1 ring."""
    E, prec = NON_MONOMIAL[request.param]
    return RingConfig(*request.param, E, prec=prec, r=2)


def check_uniform_products(cfg, count, monkeypatch):
    """Each product matches ref_mul; it skips reduce exactly when each
    operand has one precision P >= 1 and a_0 is nonzero as known."""
    for kernel in (cfg._kernel(cfg.p), cfg._kernel(1)):
        kernel.fold()       # built here, so that it runs no reduce below
        slot_bound = 2 * kernel.d * kernel.m * kernel.pc ** 2
        assert slot_bound < 1 << 8 * kernel.W
        assert kernel.W % 8 == 0
    calls = []
    for kernel in (cfg._kernel(cfg.p), cfg._kernel(1)):
        monkeypatch.setattr(kernel, "reduce", lambda *args, _r=kernel.reduce:
                            calls.append(1) or _r(*args))
    for x, y in uniform_pairs(cfg, 21, count):
        folded = len(set(x.precs)) == len(set(y.precs)) == 1 and any(
            x.flat[:cfg.m])
        del calls[:]
        assert digits(x * y) == digits(ref_mul(x, y))
        assert not calls if folded else calls
        if folded:
            assert set((x * y).precs) == {min(x.precs[0], y.precs[0])}


def test_uniform_products_match_reference(cfg, monkeypatch):
    check_uniform_products(cfg, trials(cfg, 8, 2), monkeypatch)


def test_uniform_products_on_non_monomial_E(cfg_nm, monkeypatch):
    check_uniform_products(cfg_nm, 8, monkeypatch)


def test_phi_and_E2_on_non_monomial_E(cfg_nm):
    check_phi(cfg_nm, 10)
    assert digits(cfg_nm.s_E2()) == digits(cfg_nm.s_E() * cfg_nm.s_E())


def test_zero_operands_match_reference(cfg, monkeypatch):
    """A zero operand, of one precision or of mixed ones, on either side of
    an S or K product: the reference digits, and nothing is packed."""
    rng, N = random.Random(22), cfg.prec
    packed = []
    monkeypatch.setattr(arith, "_pack", lambda *args, _p=_pack:
                        packed.append(1) or _p(*args))
    for make, n, rough in ((cfg.s, cfg.e * cfg.p, rough_strunc),
                           (lambda cs: cfg.k_elem(cs).num, cfg.e,
                            lambda cfg, rng: rough_k(cfg, rng).num)):
        for _ in range(trials(cfg, 4, 2)):
            P = rng.randrange(1, N + 1)
            zeros = (make([cfg.w(0, P)] * n),
                     make([cfg.w(0, rng.randrange(1, N + 1))
                           for _ in range(n)]))
            others = (uniform_poly(cfg, rng, make, n, P), rough(cfg, rng))
            for z in zeros:
                for x, y in [(z, o) for o in others] + \
                        [(o, z) for o in others] + [(z, z)]:
                    del packed[:]
                    same(lambda: x * y, lambda: ref_mul(x, y))
                    assert not packed


def ref_unpack(x, count, m, W, h):
    """Slots read one by one with int.from_bytes; each coefficient's
    2m - 1 slots reduced by the monic h through long division."""
    size, n = 2 * m - 1, count * (2 * m - 1) * W
    buf = (x % (1 << 8 * n)).to_bytes(n, "little")
    slots = [int.from_bytes(buf[k:k + W], "little") for k in range(0, n, W)]
    out = []
    for i in range(0, len(slots), size):
        c = slots[i:i + size]
        for k in range(size - 1, m - 1, -1):
            for r in range(m):
                c[k - m + r] -= c[k] * h[r]
        out += c[:m]
    return out


@pytest.mark.parametrize("W", [1, 2, 4, 8, 16, 24])
@pytest.mark.parametrize("h", [(0, 1), (3, 6, 1), (2, 0, 5, 1)])
def test_unpack_reads_slots_as_from_bytes(W, h):
    """Slots of one, two and four bytes and of one, two and three words read
    as int.from_bytes reads them, top bits of every slot set included."""
    rng, m = random.Random(W), len(h) - 1
    for count in (0, 1, 7):
        slots = [rng.choice([rng.getrandbits(8 * W), (1 << 8 * W) - 1])
                 for _ in range(count * (2 * m - 1))]
        x = sum(s << 8 * W * k for k, s in enumerate(slots))
        extra = x + (rng.getrandbits(64) << 8 * W * len(slots))
        assert _unpack(extra, count, m, W, h) == ref_unpack(x, count, m, W, h)
    # _pack writes full-width slots, item by item
    flat = [rng.choice([rng.getrandbits(8 * W), (1 << 8 * W) - 1])
            for _ in range(3 * m)]
    assert _unpack(_pack(flat, m, W), 3, m, W, h) == flat


def test_slot_bytes_at_the_boundaries():
    """A bound of b bits gets the least of 1, 2 and 4 bytes that holds b
    bits, and whole 64-bit words above 32 bits."""
    assert [_slot_bytes(b) for b in (2 ** 8 - 1, 2 ** 8, 2 ** 16, 2 ** 32,
                                     2 ** 64)] == [1, 2, 4, 8, 16]


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


# (p, m, e) -> (E, prec); the last E is not monomial
DIVISION_RINGS = {
    (7, 2, 2): ([-7, 0, 1], 7),
    (13, 1, 5): ([-13, 0, 0, 0, 0, 1], 8),
    (11, 2, 4): ([-11, 0, 0, 0, 1], 6),
    (11, 1, 3): ([22, -11, 33, 1], 9),
}


def divisors(cfg, rng, n):
    """A nonzero constant, sparse units c0 + c u^k and dense units of
    k[u]/u^n."""
    def nonzero():
        c = cfg.gf.elem(tuple(rng.randrange(cfg.p) for _ in range(cfg.m)))
        return nonzero() if c.is_zero() else c

    one = cfg.tilde_one().truncate(n)
    out = [one * nonzero()]
    for _ in range(2):
        out.append(one * nonzero() +
                   cfg.tilde_u(rng.randrange(1, max(n, 2))).truncate(n)
                   * nonzero())
        out.append(cfg.tilde([nonzero() for _ in range(n)]).truncate(n))
    return out


@pytest.mark.parametrize("key", sorted(DIVISION_RINGS),
                         ids=lambda key: "%d-%d-%d" % key)
def test_tilde_division_is_exact(key):
    E, prec = DIVISION_RINGS[key]
    cfg = RingConfig(*key, E, prec=prec, r=2)
    rng = random.Random(36)
    e, ep = cfg.e, cfg.e * cfg.p
    for n in (1, e, 2 * e + 1, 3 * e, ep):
        one = cfg.tilde_one().truncate(n)
        nums = [random_tilde(cfg, rng).truncate(n) for _ in range(3)]
        nums += [one, cfg.tilde_zero().truncate(n)]
        for b in divisors(cfg, rng, n):
            inverse = b.unit_inverse()
            assert coords(inverse) == coords(one.over(b))
            for a in nums:
                quotient = a.over(b)
                assert len(quotient.coeffs) == n
                assert quotient * b == a
                assert quotient == a * inverse
        c = cfg.gf.gen() + cfg.gf.one
        assert coords(nums[0].over(c)) == coords(nums[0] * c.inverse())


def test_tilde_division_raises_on_a_non_unit_or_a_mixed_length(cfg):
    rng = random.Random(37)
    ep = cfg.e * cfg.p
    a, b = random_tilde(cfg, rng), random_tilde_unit(cfg, rng)
    for bad in (cfg.tilde_zero(), cfg.tilde_u(1), b * cfg.tilde_u(ep - 1)):
        with pytest.raises(DivisibilityError):
            a.over(bad)
        with pytest.raises(DivisibilityError):
            a.over(b, bad)
    for n in (1, cfg.e, ep - 1):
        with pytest.raises(ValueError):
            a.over(b.truncate(n))
        with pytest.raises(ValueError):
            a.truncate(n).over(b)
        with pytest.raises(ValueError):
            a.over(b, b.truncate(n))
        with pytest.raises(ValueError):
            a.is_product(b, b.truncate(n))
        with pytest.raises(ValueError):
            a.truncate(n).is_product(b)


# the packed k[u]/u^n product, its quotient and product check, and the
# sigma table of F_{p^m}, against the GFElem loop of TildePoly.__mul__ and
# GFElem ** p


def check_packed_products(cfg, seed):
    rng = random.Random(seed)
    xs = tilde_samples(cfg, rng)
    e, ep = cfg.e, cfg.e * cfg.p
    for n in sorted({1, e, 2 * e + 1, ep}):
        for x in xs:
            xn, yn, zn = (t.truncate(n) for t in (x, rng.choice(xs),
                                                  rng.choice(xs)))
            loop = xn * yn
            assert arith._tilde_mul(xn.flat, yn.flat, n, cfg.gf) == \
                loop.flat
            assert (loop * zn).is_product(xn, yn, zn)
            assert not (loop * zn + cfg.tilde_u(n - 1).truncate(n)) \
                .is_product(xn, yn, zn)
            if yn.is_unit() and zn.is_unit():
                assert xn.over(yn, zn) * (yn * zn) == xn
            if n >= e:
                want = [cfg.gf.zero] * ep
                for i, a in enumerate(xn.coeffs[:e]):
                    want[i * cfg.p] = a ** cfg.p
                assert xn.phi().coeffs == tuple(want)


def ref_tilde_mul(a, b, gf):
    """The schoolbook product in k[u]/u^n of two GFElem lists of length n."""
    n = len(a)
    out = [gf.zero] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b[:n - i]):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


@pytest.mark.parametrize("key, E, modulus", [
    ((7, 2, 2), [-7, 0, 1], None),
    ((7, 2, 2), [-7, 0, 1], (3, 1, 1)),
    ((7, 3, 1), [-7, 1], None),
    ((13, 1, 5), [-13, 0, 0, 0, 0, 1], None),
], ids=["7-2-2", "7-2-2-w2+w+3", "7-3-1", "13-1-5"])
def test_tilde_flat_ops_match_the_gfelem_reference(key, E, modulus):
    """Every operation of TildePoly, which runs on the flat coordinates,
    against the same operation on a list of GFElem coefficients: ==, +, -,
    negation, is_zero, is_unit, u_val, shift_u, div_exact_u and its
    DivisibilityError, unit_part, monodromy, truncate, phi (against
    GFElem ** p; the moduli with a linear term make the sigma table
    non-diagonal) and * (the schoolbook loop, scalars included), at every
    length of ``lengths``.  ``RingConfig.tilde`` of the GFElems and the
    element of their coordinates are one element, and ``coeffs`` reads the
    coefficients back."""
    cfg = RingConfig(*key, E, prec=4, r=2, modulus=modulus)
    rng = random.Random(42)
    gf, m, e, p = cfg.gf, cfg.m, cfg.e, cfg.p
    xs = tilde_samples(cfg, rng)
    refs = [x.coeffs for x in xs]
    for ref in refs:
        flat = [c for a in ref for c in a.coords]
        a, b = cfg.tilde(list(ref)), TildePoly(cfg, list(flat))
        assert a == b and b == a
        assert a.flat == flat and b.coeffs == ref
        for n in lengths(cfg):
            x, y = (TildePoly(cfg, flat[:n * m]), cfg.tilde(
                list(rng.choice(refs))).truncate(n))
            xr, yr, zero = ref[:n], y.coeffs, [gf.zero] * n
            assert x.coeffs == xr and len(y.flat) == n * m
            assert (x == y) == (xr == yr)
            assert x == cfg.tilde(list(xr)).truncate(n)
            assert (x + y).coeffs == tuple(map(operator.add, xr, yr))
            assert (x - y).coeffs == tuple(map(operator.sub, xr, yr))
            assert (-x).coeffs == tuple(-c for c in xr)
            assert (x - x).is_zero() and x.is_zero() == (xr == tuple(zero))
            assert x.is_unit() == (not xr[0].is_zero())
            v = next((i for i, c in enumerate(xr) if not c.is_zero()), n)
            assert x.u_val() == v
            assert x.monodromy().coeffs == tuple(c * (-i)
                                                 for i, c in enumerate(xr))
            for k in sorted({0, 1, e, v, n - 1, n, n + 1}):
                assert x.shift_u(k).coeffs == tuple(zero[:k] + list(xr))[:n]
                if k <= v:
                    assert x.div_exact_u(k).coeffs == xr[k:] + tuple(
                        zero[:k])
                elif k <= n:
                    with pytest.raises(DivisibilityError):
                        x.div_exact_u(k)
            if v == n:
                with pytest.raises(ZeroDivisionError):
                    x.unit_part()
            else:
                w, unit = x.unit_part()
                assert w == v and unit.coeffs == xr[v:] + tuple(zero[:v])
            assert (x * y).coeffs == ref_tilde_mul(xr, yr, gf)
            assert (x * 3).coeffs == (3 * x).coeffs == tuple(c * 3
                                                              for c in xr)
            for k in sorted({1, e, n}):
                if k <= n:
                    assert x.truncate(k).coeffs == xr[:k]
                    assert x.truncate(k).flat == flat[:k * m]
            if n >= e:
                want = [gf.zero] * (e * p)
                for i, c in enumerate(xr[:e]):
                    want[i * p] = c ** p
                assert x.phi().coeffs == tuple(want)


def test_packed_products_match_the_loop(cfg):
    check_packed_products(cfg, 38)


def test_packed_products_on_non_monomial_E(cfg_nm):
    check_packed_products(cfg_nm, 39)


def test_frobenius_reads_the_sigma_table(cfg):
    gf = cfg.gf
    assert len(gf.sigma) == cfg.m
    for c in itertools.product(range(cfg.p), repeat=cfg.m):
        x = gf.elem(c)
        assert x.frobenius() == x ** cfg.p
