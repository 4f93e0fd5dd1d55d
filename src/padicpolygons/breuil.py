"""Strongly divisible lattices for the two-dimensional family (n1 = n2 = 1),
their verification, reduction mod p, the rank-2 classification recipes, the
tame inertia polygon, and the pseudo-module counterexample without the
monodromy operator.

The ambient module is D(L) = S_{K0} e_1 + S_{K0} e_2 with phi(e_i) = p e_i
and top filtration generated by L_2 e_1 + e_2.  The lattice is spanned by
f_1 = Z e_1 + e_2 and f_2 = p e_1, with Fil^2 generated by

    m(A) = A f_1 + (1/p) tronc_2(A (L_2 - Z)) f_2

for A running over p + tE(u) and U E(u), together with E(u)^2 f_1, f_2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import adapted, fontaine, polygons
from .arith import (INF, DivisibilityError, KElem, PrecisionError, RingConfig,
                    STrunc, TildePoly)
from .polygons import Polygon


class VerificationError(ArithmeticError):
    """A postcondition of the lattice construction failed (bad input or
    exhausted precision)."""


class ClassificationError(ValueError):
    """The reduced object does not match any of the normalized shapes."""


# ---------------------------------------------------------------------------
# Normalization of the parameter L


@dataclass
class NormalizedL:
    """L' = p^shift * (L + a), a in Q_p, landing in case (i) or (ii)."""

    L: KElem
    case_tag: str            # "i" or "ii"
    j: int                   # e * v_p(L) in case (ii), else 0
    shift: int


def normalize_L(L):
    """Reduce L through the isomorphisms L -> L + a (a in Q_p) and
    L -> p^n L until either v_p(L) = 0 with residue outside F_p (case i)
    or 0 < v_p(L) < 1 (case ii).

    Raises ValueError when L is indistinguishable from a Q_p element at
    working precision (the reduction would strip digits forever).
    """
    cfg = L.cfg
    shift = 0
    cur = L
    for _ in range(cfg.e * cfg.prec + 2):
        v = cur.val_p()
        if v == INF:
            raise ValueError("L lies in Q_p at working precision")
        k = math.floor(v)
        if k != 0:
            cur = cur.mul_p_power(-k)
            shift -= k
            v = v - k
        if 0 < v < 1:
            return NormalizedL(cur, "ii", int(v * cfg.e), shift)
        res = cur.residue()
        if not res.in_prime_field():
            return NormalizedL(cur, "i", 0, shift)
        cur = cur - cfg.k_elem([res.coords[0] % cfg.p])
    raise ValueError("L lies in Q_p at working precision")


# ---------------------------------------------------------------------------
# The family elements t, Z, U, V


@dataclass
class FamilyElements:
    cfg: object
    case_tag: str
    j: int
    v: object                # Fraction or INF
    v_exact: bool
    L0: STrunc               # degree-< e representative of L
    L1: STrunc               # p L_2 = p L_0 + L_1 E(u), degree < e
    lam: object              # WittElem: constant term of L0
    t: STrunc
    Z: STrunc
    U: STrunc
    V: STrunc
    PL2: STrunc              # p * L_2 as an element of S
    warnings: list = field(default_factory=list)

    @functools.cached_property
    def U_pi_inverse(self):
        """1 / U(pi) in K, formed once."""
        return self.U.mod_E().inverse()


def build_elements(params):
    """Construct t, Z, U, V for n1 = n2 = 1 from the normalized L
    (``params.normalized``) and verify on the way: the three defining
    properties of t, the congruence Z = sigma(lambda) mod (p, Fil^2), and
    the case (ii) residue identities.  Any failure is a hard error.

    t and U have degree < e, so each is its value mod E, and reduction mod E
    is a ring map: one K inverse of (L_0 - sigma(lambda))(pi) gives both."""
    cfg = params.cfg
    if (params.n1, params.n2) != (1, 1):
        raise ValueError("the lattice construction is implemented for "
                         "n1 = n2 = 1 only")
    if cfg.prec < params.r + 4:
        raise ValueError(f"precision {cfg.prec} is too small for the lattice "
                         f"pipeline (need >= {params.r + 4})")
    warnings = []
    norm = params.normalized
    case = norm.case_tag
    L0 = norm.L.to_strunc()
    lam = L0.constant_term()
    slam = lam.frobenius()
    diff = L0 - slam                 # L_0 - sigma(lambda)
    diff_pi = diff.mod_E()

    # L_2 = L_0 + (1/p) L_1 E(u) with L_1(pi) = -p L_0'(pi)/E'(pi)
    PL2, L1 = fontaine.hermite_interpolant(norm.L)

    if case == "i" and not (slam - lam).is_unit():
        raise VerificationError("case (i) needs sigma(lambda) - lambda "
                                "to be a unit")
    inv = diff_pi.inverse()
    t = -(L1.mod_E() * inv).to_strunc()

    if (diff * t + L1).val_E() < 1:
        raise VerificationError("t does not satisfy its defining congruence")
    one_plus_cphit = cfg.s_one() + cfg.c * t.phi()
    if not one_plus_cphit.is_unit():
        raise VerificationError("1 + c phi(t) is not a unit")
    if case == "i" and t.constant_term().val() < 1:
        raise VerificationError("case (i) needs t in uS + pS")
    if case == "ii":
        expect = -(cfg.gf.elem(norm.j) *
                   (cfg.gf.elem(cfg.e) * cfg.c0.residue()).inverse())
        if t.constant_term().residue() != expect:
            raise VerificationError("constant term of t is not -j/(e c_0) mod p")

    # v = v_p(t(pi)); exact when L_0 is constant (then L_1 = 0 identically)
    if L0.degree() <= 0:
        if not t.is_zero():
            raise VerificationError("constant L_0 must give t = 0")
        v, v_exact = INF, True
    else:
        v = t.mod_E().val_p()
        v_exact = v != INF
        if not v_exact:
            warnings.append("t(pi) = 0 at working precision: "
                            "v = infinity is precision-bounded")

    Z = (L0.phi() + cfg.c * (t * cfg.s([slam])).phi()) * \
        one_plus_cphit.unit_inverse()
    if (Z + cfg.s([-slam])).tronc(2).val_p() < 1:
        raise VerificationError("Z - sigma(lambda) is not in pS + Fil^2 S")

    # U (L_0 - sigma(lambda)) = p + V E(u), both of degree < e
    U = inv.mul_p_power(1).to_strunc()
    U_diff = U * diff
    V = (U_diff + cfg.s([-cfg.p])).div_exact_E(1).tronc(1)
    if not (U_diff - (cfg.s([cfg.p]) + V * cfg.s_E())).is_zero():
        raise VerificationError("U, V do not satisfy U(L_0 - sigma(lambda)) "
                                "= p + V E(u)")
    if case == "ii":
        if V.constant_term().residue() != -cfg.c0.residue().inverse():
            raise VerificationError("constant term of V is not -1/c_0 mod p")

    return FamilyElements(cfg, case, norm.j, v, v_exact, L0, L1, lam,
                          t, Z, U, V, PL2, warnings)


# ---------------------------------------------------------------------------
# The lattice and its verification

# The lattice's filtration level r = n1 + n2 (n1 = n2 = 1).  Its mod-p
# readers divide phi(g) by p^r and read the quotient mod p, after one more
# division by p: they read r + 2 digits (``StrongLattice.low``).
R = 2


@dataclass
class StrongLattice:
    """Lattice spanned by f_1 = Z e_1 + e_2 and f_2 = p e_1 (n1 = n2 = 1),
    with its Fil^2 generators stored as (f_1, f_2)-coordinate pairs (A, B);
    a generator that cannot be built raises in ``strong_lattice``."""

    cfg: object
    Z: STrunc
    fil_gens: list           # [(name, (A, B))]
    elements: FamilyElements

    @functools.cached_property
    def low(self):
        """The values the mod-p readers read, at R + 2 digits, built once
        per lattice: this lattice over ``cfg.at_prec(R + 2)``, an ordinary
        ring at that precision with its own tables, kept by cfg, with E^2
        that ring's own (so its phi is formed once per ring), and p L_2
        and lambda there."""
        cfg = self.cfg.at_prec(min(R + 2, self.cfg.prec))
        E2 = self.cfg.s_E2()

        def read(x):
            return cfg.s_E2() if x is E2 else x.reduced_to(cfg)

        lat = StrongLattice(cfg, read(self.Z), [
            (name, (read(A), read(B))) for name, (A, B) in self.fil_gens],
            self.elements)
        return _Low(lat, read(self.elements.PL2),
                    self.elements.lam.reduced_to(cfg.witt))

    def e_coords(self, A, B):
        """(x, y) with A f_1 + B f_2 = x e_1 + y e_2."""
        return A * self.Z + B.scale_p(1), A

    def f_coords(self, x, y):
        """(A, B) with x e_1 + y e_2 = A f_1 + B f_2 (exact divisions)."""
        return y, (x - y * self.Z).div_exact_p(1)


@dataclass
class _Low:
    """A lattice read at R + 2 digits (``StrongLattice.low``); its
    ``elements`` are the full-precision ones, read only for ``PL2`` and
    ``lam``, which are kept here."""

    lattice: StrongLattice
    PL2: STrunc
    lam: object              # WittElem

    def read(self, A, lat):
        """A, an element of ``lat``'s ring, at R + 2 digits: the low
        lattice's own copy when A is a generator coordinate of lat."""
        for (_, (A0, _)), (_, (A1, _)) in zip(lat.fil_gens,
                                              self.lattice.fil_gens):
            if A is A0:
                return A1
        return A.reduced_to(self.lattice.cfg)


def _m_of(elements, A, Z):
    """m(A) = A f_1 + (1/p) tronc_2(A (L_2 - Z)) f_2, as (f_1, f_2)-coords."""
    Y = A * (elements.PL2 - Z.scale_p(1))
    B = Y.tronc(2).div_exact_p(2)
    return (A, B)


def strong_lattice(elements):
    """The strongly divisible lattice for n1 = n2 = 1 (so n = 1), on
    f_1 = Z e_1 + e_2, f_2 = p e_1 with Fil^2 generators m(p + tE), m(UE),
    E^2 f_1 and E^2 f_2."""
    cfg, Z = elements.cfg, elements.Z
    E, E2 = cfg.s_E(), cfg.s_E2()
    return StrongLattice(cfg, Z, [
        ("m(p+tE)", _m_of(elements, cfg.s([cfg.p]) + elements.t * E, Z)),
        ("m(UE)", _m_of(elements, elements.U * E, Z)),
        ("E^2*f1", (E2, cfg.s_zero())),
        ("E^2*f2", (cfg.s_zero(), E2))], elements)


@dataclass
class DivisibilityReport:
    entries: list            # (name, passed, detail)
    images_generate: bool
    phi2_images: list        # [(name, (TildePoly, TildePoly))] of passing gens

    @property
    def all_passed(self):
        return self.images_generate and all(ok for _, ok, _ in self.entries)


def verify_strong_divisibility(lat):
    """Check phi(g) in p^2 M generator by generator, and that the divided
    images generate the reduction mod p.

    The check reads phi(g)'s f-coordinates to R digits, and the images
    read them divided by p^R, mod p; f_B is (x - y Z)/p, one more digit.
    So it runs on the lattice read at R + 2 digits (``lat.low``), whose
    report, when it passes, is the working-precision one: every digit it
    reads is the working-precision digit.  A run that does not pass there,
    or raises, reruns at working precision, so every failure reads, and
    names, the valuations and errors of the working precision."""
    try:
        report = _verify(lat.low.lattice)
    except (DivisibilityError, PrecisionError):
        report = None
    if report is None or not report.all_passed:
        return _verify(lat)
    report.phi2_images = [(name, _on(lat.cfg, img))
                          for name, img in report.phi2_images]
    return report


def _on(cfg, images):
    """k[u]/u^{ep} elements of a ring at a lower precision as cfg's."""
    return tuple(TildePoly(cfg, x.flat) for x in images)


def _verify(lat):
    entries = []
    images = []
    for name, (A, B) in lat.fil_gens:
        x, y = lat.e_coords(A, B)
        try:
            fA, fB = lat.f_coords(x.phi().scale_p(1), y.phi().scale_p(1))
        except (DivisibilityError, PrecisionError) as exc:
            entries.append((name, False, f"phi(g) is not in the lattice: {exc}"))
            continue
        vA, vB = fA.val_p(), fB.val_p()
        if vA >= 2 and vB >= 2:
            entries.append((name, True, "phi(g) in p^2 M"))
            images.append((name, (fA.div_exact_p(2).reduce_mod_p(),
                                  fB.div_exact_p(2).reduce_mod_p())))
        else:
            entries.append((name, False,
                            f"phi(g) f-coordinate valuations ({vA}, {vB}) < 2"))
    # the divided images must generate mod (p, u): some 2x2 minor is a unit
    cols = [img for _, img in images]
    gen_ok = any(_minor_is_unit(cols[i], cols[j])
                 for i in range(len(cols)) for j in range(i + 1, len(cols)))
    return DivisibilityReport(entries, gen_ok, images)


def _minor_is_unit(x, y):
    """Whether the minor x[0] y[1] - x[1] y[0] of two columns over
    k[u]/u^{ep} is a unit, read off its constant term."""
    (x0, x1), (y0, y1) = [[t.constant_term() for t in col]
                          for col in (x, y)]
    return not (x0 * y1 - x1 * y0).is_zero()


# ---------------------------------------------------------------------------
# Reduction mod p


@dataclass
class TildeObject:
    """Rank-2 object over k[u]/u^{ep}: filtration generators and their
    divided Frobenius images.  N kills the basis, so N acts coordinatewise."""

    cfg: object
    fil_gens: list           # list of coordinate tuples (TildePoly, ...)
    phi_images: list         # parallel list


def reduce_mod_p(lat, report):
    """The mod-p object of a lattice, from its verification ``report``
    (``verify_strong_divisibility(lat)``), which must have passed.  It keeps
    the case-dependent pair of Fil^2 generators, and both computations of
    their phi_2-images (the report's direct reduction and the C-formula)
    must agree."""
    elements = lat.elements
    if not report.all_passed:
        raise VerificationError("cannot reduce an unverified lattice")
    direct = dict(report.phi2_images)
    gens = dict(lat.fil_gens)
    names = ("m(p+tE)", "E^2*f1" if elements.case_tag == "i" else "m(UE)")
    for name in names:
        formula = phi2_image(gens[name][0], lat)
        if direct[name] != formula:
            raise VerificationError("direct phi_2 images disagree with the "
                                    "C-formula")
    return TildeObject(lat.cfg,
                       [tuple(c.reduce_mod_p() for c in gens[n]) for n in names],
                       [direct[n] for n in names])


def ideal_membership(A, elements):
    """Whether A = s1 (p + tE) + s2 (U E) + Fil^2-part with s1, s2 in S.

    tronc_1(A) must be divisible by p, which gives s1, and the remaining
    E-coefficient divisible by U at pi, which gives s2.  False means that
    one of these divisions failed; digits that run out for s1, or for the
    digits of s2 read into S, raise ``PrecisionError``.  It runs at working
    precision: its readings of s2 depend on every digit.
    """
    A2 = A.tronc(2)
    try:
        s1 = A2.tronc(1).div_exact_p(1)
    except DivisibilityError:
        return False
    except PrecisionError as exc:
        raise PrecisionError(f"ideal membership: tronc_1(A)/p: {exc}") \
            from exc
    A1 = (A2 - s1.scale_p(1)).div_exact_E(1).tronc(1) - \
        (s1 * elements.t).tronc(1)
    A1pi = A1.mod_E()
    if A1pi.is_zero():
        return True
    ratio = A1pi * elements.U_pi_inverse
    vr = ratio.val_p()
    if vr == INF or vr < 0:
        return False
    ratio.to_strunc()        # s2 in S: raises where its digits run out
    return True


def phi2_image(A, lat):
    """phi_2 of m(A)-bar through the closed formula

        phi_2(m(A)) = (phi(A)/p) f_1 + C f_2,
        C = (phi tronc_2(A L_2) - phi(A) Z
             + sigma^2(lambda) phi(A - tronc_2(A))) / p^2.

    The images are read mod p: C divides by p^R and its first term
    divides phi tronc_2(A p L_2) by p once more, so the formula reads R + 2
    digits and runs on the lattice read there (``lat.low``); where that
    run raises, it reruns at working precision, whose error it raises.
    The premise-ideal membership runs at working precision."""
    if not ideal_membership(A, lat.elements):
        raise ValueError("A is not in the premise ideal")
    low = lat.low
    try:
        return _on(lat.cfg, _phi2_formula(low.read(A, lat), low.PL2,
                                          low.lattice.Z, low.lam))
    except (DivisibilityError, PrecisionError):
        return _phi2_formula(A, lat.elements.PL2, lat.Z, lat.elements.lam)


def _phi2_formula(A, PL2, Z, lam):
    term1 = (A * PL2).tronc(2).phi().div_exact_p(1)
    phiA = A.phi()
    slam2 = lam.frobenius().frobenius()
    term3 = (A - A.tronc(2)).phi().mul_w(slam2)
    C = (term1 - phiA * Z + term3).div_exact_p(2)
    return (phiA.div_exact_p(1).reduce_mod_p(), C.reduce_mod_p())


# ---------------------------------------------------------------------------
# Rank <= 2 classification and inertia polygons


def solve_eqX(rho, alpha, mu, e, j):
    """The unique X in k[u]/u^{ep} with

        rho X (-phi(alpha) + phi(X) u^q) = mu,  q = p((p+1)(e-j) - 2e).

    rho, alpha, mu must be units, rho and mu of one length, and j < e, with
    q > 0.  p divides q, so with s = q/p, D(X) = phi(X) u^q - phi(alpha) is
    phi(u^s X - alpha): one phi of a unit of k[u]/u^e, formed with no
    product, since phi reads u^{<e} only.  So D(X) reads X mod u^L only,
    L = max(0, e - s), and X = mu / (rho D(X)) is a fixed point on
    k[u]/u^L; every quotient is one ``over``, a division by the product
    rho D.  The iteration Y <- mu / (rho D(Y)) mod u^L starts from Y = 0,
    which is correct mod u^k for k = 0, and each step takes k to
    min(L, pk + q): Y correct mod u^k makes u^s Y - alpha correct mod
    u^{s+k}, and its phi mod u^{pk+q}.  It stops at k = L, so it makes as
    many steps as that recursion takes to reach L, none when L = 0, and
    none to see Y repeat.  Then Y = X mod u^L, so D(X) = D(Y), and
    X = mu / (rho D(Y)) is the one full-length division.  The check is the
    equation itself, rho X D(X) == mu, with D(X) formed again from X: when
    it equals D(Y), as it should, the check is X (rho D(Y)) == mu on the
    product the division formed.  The constant term of X is that of
    -mu/(rho phi(alpha))."""
    cfg = rho.cfg
    if not (rho.is_unit() and alpha.is_unit() and mu.is_unit()):
        raise ValueError("rho, alpha, mu must be units")
    if j >= e:
        raise ValueError("need j < e")
    q = cfg.p * ((cfg.p + 1) * (e - j) - 2 * e)
    if q <= 0:
        raise ValueError("the correction exponent must be positive")
    L = max(0, cfg.e - q // cfg.p)          # phi reads u^{<e}
    shift, alpha_e = [0] * (cfg.m * (cfg.e - L)), alpha.truncate(cfg.e)

    def D(Z):
        return (TildePoly(cfg, shift + Z.flat[:cfg.m * L])
                - alpha_e).phi()

    mu_L, rho_L = mu.truncate(L), rho.truncate(L)
    Y, k = TildePoly(cfg, [0] * (cfg.m * L)), 0
    while k < L:
        Y, k = mu_L.over(rho_L, D(Y).truncate(L)), min(L, cfg.p * k + q)
    DY = D(Y)
    rho_DY = rho.times(DY)
    X = mu.over(rho_DY)
    DX = D(X)
    if not (mu.is_product(X, rho_DY) if DX.flat == DY.flat
            else mu.is_product(rho, X, DX)):
        raise ArithmeticError("fixed point failed to satisfy the equation")
    return X


def inertia_polygon(v):
    """The family's tame inertia polygon (r = 2) from v = v_p(t(pi)):
    slopes (1-v, 1+v) for 0 <= v < 1, and (0, 2) for v >= 1 or infinite."""
    if v == INF or v >= 1:
        return polygons.from_slopes([0, 2])
    v = Fraction(v)
    if v < 0:
        raise ValueError("v must be nonnegative")
    return polygons.from_slopes([1 - v, 1 + v])


@dataclass
class Classification:
    shape: str               # "0", "1" or "2"
    irreducible: bool
    slopes: tuple            # ascending pair of Fractions
    j: int = 0
    sub_fil_exponent: object = None


def _unit_part_or_none(x):
    return None if x.is_zero() else x.unit_part()


def _normalize_generators(obj):
    """Unit-rescale and order the two Fil^2 generators to one of the
    normalized shapes; returns (shape, data) or raises.

    phi reads u^{<e}, so shapes (0)/(1) invert their units in k[u]/u^e.
    alpha, read through phi when j < e, is sa times ga_1's unit part mod
    u^e, which is exact: ga_1 has u-valuation e + j < 2e <= ep - e."""
    cfg = obj.cfg
    e = cfg.e
    if len(obj.fil_gens) != 2:
        raise ClassificationError("normalization needs two filtration "
                                  "generators")
    for first, second in ((0, 1), (1, 0)):
        ga, ia = obj.fil_gens[first], obj.phi_images[first]
        gb, ib = obj.fil_gens[second], obj.phi_images[second]
        # shapes (0)/(1): gb a unit multiple of u^{2e} e_1, ga_2 a unit
        okb = (not gb[0].is_zero()) and gb[1].is_zero() and \
            gb[0].u_val() == 2 * e
        if okb and ga[1].is_unit():
            # rescaling by units keeps units, zeros and u-valuations, so the
            # shape is read off the unscaled images first
            if not (ia[0].is_unit() and ia[1].is_zero() and
                    ib[0].is_zero() and ib[1].is_unit()):
                continue
            if not ga[0].is_zero() and ga[0].u_val() <= e:
                continue
            sa = ga[1].truncate(e).unit_inverse()
            mu_ = sa.phi() * ia[0]
            rho = gb[0].unit_part()[1].truncate(e).unit_inverse().phi() * ib[1]
            if ga[0].is_zero():
                return "0", {"mu": mu_, "rho": rho}
            jv, aunit = ga[0].unit_part()
            return "1", {"mu": mu_, "rho": rho, "j": jv - e,
                         "alpha": aunit.truncate(e) * sa}
        # shape (2): valuation pattern (e, j) and (2e-j, e) with j < e
        pa0, pa1, pb0, pb1 = map(_unit_part_or_none, (*ga, *gb))
        if None in (pa0, pa1, pb0, pb1):
            continue
        if pa0[0] != e or pb1[0] != e:
            continue
        jv = pa1[0]
        if jv >= e or pb0[0] != 2 * e - jv:
            continue
        alpha, beta = pa0[1], pa1[1]
        gamma, delta = pb0[1], pb1[1]
        if not _minor_is_unit((alpha, gamma), (beta, delta)):
            continue
        if not (ia[0].is_unit() and ia[1].is_zero()):
            continue
        rho = ib[1]
        if not rho.is_unit():
            continue
        qexp = cfg.p * (e - jv)
        if qexp >= cfg.e * cfg.p:
            if not ib[0].is_zero():
                continue
            sigma = None
        else:
            try:
                sigma = ib[0].div_exact_u(qexp)
            except DivisibilityError:
                continue
        return "2", {"mu": ia[0], "rho": rho, "sigma": sigma, "alpha": alpha,
                     "beta": beta, "gamma": gamma, "delta": delta, "j": jv}
    raise ClassificationError(
        "generators do not match any normalized shape: "
        + "; ".join(f"gen{i}=(u-val {g[0].u_val()}, u-val {g[1].u_val()})"
                    for i, g in enumerate(obj.fil_gens)))


def _fil2_solver(cfg, gens):
    """``solve(target)`` against the two Fil^2 generators ``gens``, by
    Cramer's rule over k[u]/u^{3e}: the coefficients mod u^{3e}, or None
    off their span.

    With (a, b), (c, d) the generators, det = ad - cb = u^v w, w a unit.
    Fil^2 contains u^{er} M (r = 2), so v <= er < 3e for a pair that
    generates it, and a larger v raises.  Every pair the normalization
    accepts has v = er exactly.  A target t lies in the span mod u^{3e}
    iff u^v divides adj(G) t, and the coefficients are then
    s = (adj(G) t / u^v) / w.  Any solution s' has (s - s') det = 0, so
    s = s' mod u^{3e - v}, which is mod u^e, all that phi reads; and as
    Fil^2 contains u^{er} M, membership decided mod u^{3e} is exact."""
    er = 2 * cfg.e
    n = er + cfg.e
    (a, b), (c, d) = ([x.truncate(n) for x in g] for g in gens)
    det = a * d - c * b
    v = det.u_val()
    if v > er:
        raise ClassificationError(f"the determinant u^{v} of the Fil^2 "
                                  f"generators lies above u^{er}")
    w = det.div_exact_u(v)

    def solve(target):
        t0, t1 = (x.truncate(n) for x in target)
        try:
            return [(d * t0 - c * t1).div_exact_u(v).over(w),
                    (a * t1 - b * t0).div_exact_u(v).over(w)]
        except DivisibilityError:
            return None

    return solve


def _phi2_of_member(obj, solve, vec):
    """phi_2 of an element of Fil^2 expressed against the generators, whose
    determinant ``solve`` (from ``_fil2_solver``) carries; phi reads the
    coefficients mod u^e only."""
    coeffs = solve(vec)
    if coeffs is None:
        return None
    out = [obj.cfg.tilde_zero(), obj.cfg.tilde_zero()]
    for s, img in zip(coeffs, obj.phi_images):
        fs = s.phi()
        out[0] = out[0] + fs * img[0]
        out[1] = out[1] + fs * img[1]
    return tuple(out)


def classify_rank2(obj):
    """Classify a rank-2 reduced object against the three normalized shapes.

    Reducible cases return the Fil^2 exponent of the rank-1 sub-object
    generated by m: its Fil^2 is u^{sub_fil_exponent} times it.  Its
    membership, the unit proportionality of phi_2, and N-stability are
    verified.  Unrecognized shapes raise (no guessing)."""
    cfg = obj.cfg
    e = cfg.e
    shape, data = _normalize_generators(obj)
    checks = {}
    if shape == "0":
        return Classification("0", True, (Fraction(0), Fraction(2)))
    j = data["j"]
    if shape == "1":
        if j >= e:
            return Classification("1", True, (Fraction(0), Fraction(2)), j=j)
        X = solve_eqX(data["rho"], data["alpha"], data["mu"], e, j)
        checks["X_unit"] = X.is_unit()
        sub_exp = e - j
        slopes = (1 - Fraction(j, e), 1 + Fraction(j, e))
    else:
        # sigma is None exactly when p(e - j) >= ep
        if data["sigma"] is None:
            X = cfg.tilde_zero()
        else:
            phialpha = data["alpha"].phi()
            num = phialpha * data["sigma"] - data["gamma"].phi() * data["mu"]
            X = num.over(phialpha, data["rho"])
        sub_exp = e
        slopes = (Fraction(1), Fraction(1))
    # u^{p(e-j)} X, which is 0 once p(e-j) >= ep
    m_vec = (X.shift_u(cfg.p * (e - j)), cfg.tilde_one())

    # the sub-object: Fil^2 M' = u^{sub_exp} M', generated by u^{sub_exp} m
    gen_fil = tuple(c.shift_u(sub_exp) for c in m_vec)
    # one determinant of the generators serves both phi_2 targets; it is
    # taken mod u^{3e}, where it (exactly u^{2e} times a unit) decides
    # membership, and phi of a solution, which reads it mod u^e, is fixed
    solve = _fil2_solver(cfg, obj.fil_gens)
    img = _phi2_of_member(obj, solve, gen_fil)
    checks["fil_member"] = img is not None
    # m_vec[1] = 1, so the unit of proportionality can only be img[1]
    checks["phi2_proportional_unit"] = img is not None and \
        img[1].is_unit() and img[0] == m_vec[0] * img[1]
    # N-stability through the commutation rule: phi_2(u^e N(u^{sub_exp} m)) = 0
    nshift = tuple(c.monodromy().shift_u(e) for c in gen_fil)
    nimg = _phi2_of_member(obj, solve, nshift)
    checks["n_stable"] = nimg is not None and nimg[0].is_zero() and \
        nimg[1].is_zero()
    if not all(checks.values()):
        raise ClassificationError(f"sub-object verification failed: {checks}")
    return Classification(shape, False, tuple(sorted(slopes)), j=j,
                          sub_fil_exponent=sub_exp)


# ---------------------------------------------------------------------------
# End-to-end family analysis


@dataclass
class FamilyAnalysis:
    cfg: object
    params: object           # params.normalized is the normalized L
    elements: FamilyElements
    lattice: StrongLattice
    classification: Classification
    hodge_V: Polygon
    newton_V: Polygon
    hodge_Mbar: Polygon
    inertia: Polygon
    exponents_E: list
    exponents_u: list
    verdicts: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(ok for _, ok, _ in self.verdicts)


def _family_exponents(cfg, lat):
    """Adapted exponents of Fil^2 on the E(u)-adic and u-adic carriers.  The
    reduced E^2 f_i are (u^{2e}, 0) and (0, u^{2e}), so every u-adic exponent
    is at most 2e, and Smith reduction over k[u]/u^{2e+1} reads it exactly."""
    # (p L_2, p) spans the same K0[u]/E^p-submodule as the true generator
    E2 = dict(lat.fil_gens)["E^2*f1"][0]
    cols_E = [(lat.elements.PL2, cfg.s([cfg.p])), (E2, cfg.s_zero()),
              (cfg.s_zero(), E2)]
    exps_E = adapted.divisor_exponents(
        [[c[i] for c in cols_E] for i in range(2)], adapted.ECarrier(cfg))
    n = 2 * cfg.e + 1
    cols_u = [tuple(c.reduce_mod_p().truncate(n) for c in gen)
              for _, gen in lat.fil_gens]
    exps_u = adapted.divisor_exponents(
        [[c[i] for c in cols_u] for i in range(2)], adapted.UCarrier(cfg, n))
    return exps_E, exps_u


def analyze_family(params):
    """Run the whole pipeline on one admissible family instance and collect
    every instance check the comparison theorems make."""
    cfg = params.cfg
    D = fontaine.family_module(params)
    hodge_V = fontaine.hodge_polygon(D)
    newton_V = fontaine.newton_polygon_phi(D)
    norm = params.normalized    # an L in Q_p fails here, before the floors
    elements = build_elements(params)
    lat = strong_lattice(elements)
    report = verify_strong_divisibility(lat)
    classification = classify_rank2(reduce_mod_p(lat, report))
    exps_E, exps_u = _family_exponents(cfg, lat)
    hodge_Mbar = polygons.from_slopes(
        adapted.hodge_weights(exps_u, 2, cfg.e))
    inertia = inertia_polygon(elements.v)

    verdicts = []
    vL = Fraction(norm.j, cfg.e)    # v_p(L'): j = e v_p(L') in case (ii)
    verdicts.append((
        "weakly_admissible",
        fontaine.weakly_admissible_dim2(D, family=params),
        "closed-form family criterion"))
    verdicts.append((
        "newton_above_hodge_V",
        polygons.lies_above(newton_V, hodge_V) and
        polygons.same_endpoint(newton_V, hodge_V),
        f"Newton {newton_V.slopes} vs Hodge {hodge_V.slopes}"))
    expected_Mbar = polygons.from_slopes([vL, 2 - vL])
    verdicts.append((
        "hodge_Mbar_equals_vL",
        hodge_Mbar == expected_Mbar,
        f"Hodge(Mbar) {hodge_Mbar.slopes} vs (v_p(L), 2 - v_p(L)) "
        f"{expected_Mbar.slopes}"))
    h_sums = [cfg.e * hodge_V.ordinate(k) for k in (1, 2)]
    i_sums = [cfg.e * inertia.ordinate(k) for k in (1, 2)]
    verdicts.append((
        "inertia_above_hodge_thm",
        h_sums[0] <= i_sums[0] and h_sums[1] == i_sums[1],
        f"e*(h-sums) {h_sums} vs i-sums {i_sums}"))
    verdicts.append((
        "inertia_above_hodge_Mbar",
        polygons.lies_above(inertia, hodge_Mbar) and
        polygons.same_endpoint(inertia, hodge_Mbar),
        f"inertia {inertia.slopes} vs Hodge(Mbar) {hodge_Mbar.slopes}"))
    # first-slope coincidence: wherever Hodge and Newton agree up to k, the
    # inertia slope is pinned to them
    coincide_ok = True
    for k in range(1, 3):
        if all(hodge_V.slopes[i] == newton_V.slopes[i] for i in range(k)):
            if inertia.slopes[k - 1] != cfg.e * hodge_V.slopes[k - 1]:
                coincide_ok = False
    verdicts.append((
        "newton_coincidence_thm",
        coincide_ok,
        f"Hodge {hodge_V.slopes}, Newton {newton_V.slopes}, "
        f"inertia {inertia.slopes}"))
    verdicts.append((
        "strong_divisibility",
        report.all_passed,
        "; ".join(f"{n}: {'ok' if ok else d}" for n, ok, d in report.entries)))
    verdicts.append((
        "classification_matches_v",
        tuple(classification.slopes) == tuple(inertia.slopes),
        f"classified {classification.slopes}, v gives {inertia.slopes}"))
    desc_E = sorted(exps_E, reverse=True)
    desc_u = sorted(exps_u, reverse=True)
    step_ok = all(
        cfg.e * sum(desc_E[k:]) <= sum(desc_u[k:]) for k in range(2)) and \
        cfg.e * sum(desc_E) == sum(desc_u)
    verdicts.append((
        "exponent_comparison_step",
        step_ok,
        f"e * {desc_E} against {desc_u}"))

    return FamilyAnalysis(cfg, params, elements, lat, classification,
                          hodge_V, newton_V, hodge_Mbar, inertia, exps_E,
                          exps_u, verdicts, list(elements.warnings))


# ---------------------------------------------------------------------------
# The pseudo-module counterexample (no monodromy operator)


@dataclass
class PseudoAnalysis:
    cfg: object
    n: int
    r: int
    hodge_Mbar: Polygon
    newton: Polygon
    inertia_bound: Polygon
    exponents: list
    verdicts: list
    strict_at_1: bool
    coincide: bool

    @property
    def all_passed(self):
        return all(ok for _, ok, _ in self.verdicts)


def pseudo_counterexample(n, p, prec=None):
    """The rank-2 pseudo-module with e = 1, E(u) = u - p, r = 2n:
    Fil^r generated by E^n e_1, p e_1 + E^n e_2 (and Fil^p), with
    phi(e_1) = c^n p^n e_2 and phi(e_2) = c^n p^n e_1 - p e_2.

    Its mod-p Hodge polygon is (n, n), which forces the tame inertia polygon
    to equal (n, n) as well, while the Frobenius slopes are (1, r-1):
    strictly below the inertia bound at k = 1 once n >= 2."""
    r = 2 * n
    if r >= p - 1:
        raise ValueError("need 2n < p - 1")
    cfg = RingConfig(p, 1, 1, [-p, 1], prec=prec, r=r)
    E = cfg.s_E()
    En = cfg.s_one()
    cpow = cfg.s_one()
    for _ in range(n):
        En = En * E
        cpow = cpow * cfg.c

    # mod-p adapted exponents of Fil^r
    uc = adapted.UCarrier(cfg)
    ur = cfg.tilde_u(r)
    cols = [
        (En.reduce_mod_p(), cfg.tilde_zero()),
        (cfg.tilde([p]), En.reduce_mod_p()),
        (ur, cfg.tilde_zero()),
        (cfg.tilde_zero(), ur),
    ]
    exps = adapted.divisor_exponents([[c[i] for c in cols] for i in range(2)],
                                     uc)
    hodge_Mbar = polygons.from_slopes(
        adapted.hodge_weights(exps, r, 1))
    inertia_bound = hodge_Mbar

    # Newton polygon of the Frobenius matrix over K0 (u -> 0 sends c to c(0))
    c0n_pn = cfg.k0(cpow.constant_term().scale_p(n))
    zero = cfg.k0(0)
    minus_p = cfg.k0(-p)
    phi = ((zero, c0n_pn), (c0n_pn, minus_p))
    newton = fontaine.phi_newton_polygon(cfg, phi, 2)

    # strong divisibility of the two main filtration generators
    cnpn = cpow.scale_p(n)
    sd = []
    for x, y in ((En, cfg.s_zero()), (cfg.s([p]), En)):
        imx = y.phi() * cnpn
        imy = x.phi() * cnpn - y.phi().scale_p(1)
        sd.append(imx.val_p() >= r and imy.val_p() >= r)

    verdicts = [
        ("hodge_Mbar_is_n_n",
         hodge_Mbar == polygons.from_slopes([n, n]),
         f"exponents {exps} give {hodge_Mbar.slopes}"),
        ("newton_is_1_rminus1",
         newton == polygons.from_slopes([1, r - 1]),
         f"Newton {newton.slopes}"),
        ("strong_divisibility",
         all(sd),
         f"phi(Fil^r) in p^{r} M: {sd}"),
    ]
    strict = newton.ordinate(1) < inertia_bound.ordinate(1)
    coincide = newton == inertia_bound
    if n >= 2:
        verdicts.append((
            "newton_strictly_below_inertia",
            strict and polygons.same_endpoint(newton, inertia_bound),
            f"Newton ordinate {newton.ordinate(1)} < bound "
            f"{inertia_bound.ordinate(1)} at k = 1"))
    else:
        verdicts.append((
            "degenerate_coincidence",
            coincide,
            "n = 1: the polygons coincide"))
    return PseudoAnalysis(cfg, n, r, hodge_Mbar, newton, inertia_bound,
                          exps, verdicts, strict, coincide)
