"""Filtered (phi, N)-modules over K0: Hodge and Newton polygons, Hodge and
Newton numbers, weak admissibility in dimension <= 2, and the passage to the
S_{K0}-side (Hermite interpolation and the closed-form filtration generator
for the two-dimensional family).

The family D(L), for nonnegative n1 <= n2 with e(n1+n2) < p-1 and L in K:
phi(e_1) = p^{n1} e_1, phi(e_2) = p^{n2} e_2, N = 0, and the filtration in
degrees 1..r is the line K(L e_1 + e_2), r = n1 + n2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polygons
from .arith import K0Elem, KElem, SK0Elem


@dataclass(frozen=True)
class FilteredModule:
    """A filtered (phi, N)-module over K0.

    ``fil`` maps each t in 0..r+1 to a basis (tuple of KElem coordinate
    vectors) of Fil^t D_K; it must be decreasing with Fil^0 full and
    Fil^{r+1} = 0.  ``phi`` and ``nmat`` act by column convention: column j
    holds the coordinates of the image of the j-th basis vector.
    """

    cfg: object
    dim: int
    phi: tuple
    nmat: tuple
    fil: tuple  # fil[t] = basis of Fil^t, t = 0..r+1

    def fil_dim(self, t):
        if t < 0:
            return self.dim
        if t >= len(self.fil):
            return 0
        return len(self.fil[t])


def _k0_zero(cfg):
    return K0Elem(cfg.witt, cfg.witt.zero(), 0)


def _k0_one(cfg):
    return K0Elem(cfg.witt, cfg.witt.one(), 0)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the two-dimensional family D(L)."""

    cfg: object
    n1: int
    n2: int
    L: KElem

    @property
    def r(self):
        return self.n1 + self.n2

    def validate(self):
        if not 0 <= self.n1 <= self.n2:
            raise ValueError("need 0 <= n1 <= n2")
        if self.cfg.e * self.r >= self.cfg.p - 1:
            raise ValueError("need e(n1+n2) < p-1")

    def is_admissible(self):
        """Closed-form admissibility: n1 = n2 demands L not in Q_p;
        n1 != n2 excludes only n1 > 0 with L = 0."""
        self.validate()
        if self.n1 == self.n2:
            return not _is_qp_at_precision(self.L)
        if self.n1 > 0 and self.L.is_zero():
            return False
        return True


def _is_qp_at_precision(L):
    """True when L is indistinguishable from a Q_p element at working
    precision.  Q_p elements of K are the W-multiples of 1 up to p-powers."""
    from .breuil import normalize_L
    try:
        normalize_L(L)
        return False
    except ValueError:
        return True


def family_module(params):
    """The filtered module D(L) of the family."""
    cfg = params.cfg
    params.validate()
    zero, one = _k0_zero(cfg), _k0_one(cfg)
    phi = ((one.mul_p_power(params.n1), zero),
           (zero, one.mul_p_power(params.n2)))
    nmat = ((zero, zero), (zero, zero))
    kzero, kone = cfg.k_zero(), cfg.k_one()
    full = ((kone, kzero), (kzero, kone))
    line = ((params.L, kone),)
    fil = [full] + [line] * params.r + [()]
    return FilteredModule(cfg, 2, phi, nmat, tuple(fil))


def rank1_module(cfg, alpha, jump, r=None):
    """Rank-1 module with phi(e) = alpha * e and filtration jump at ``jump``."""
    r = cfg.r if r is None else r
    kone = cfg.k_one()
    fil = [((kone,),) if t <= jump else () for t in range(r + 2)]
    return FilteredModule(cfg, 1, ((alpha,),), ((_k0_zero(cfg),),), tuple(fil))


def hodge_polygon(D):
    """Slope t with multiplicity dim Fil^t / Fil^{t+1}."""
    slopes = []
    for t in range(len(D.fil) - 1):
        mult = D.fil_dim(t) - D.fil_dim(t + 1)
        if mult < 0:
            raise ValueError("filtration is not decreasing")
        slopes.extend([t] * mult)
    if len(slopes) != D.dim:
        raise ValueError("filtration is not exhaustive/separated")
    return polygons.from_slopes(slopes)


def _charpoly_k0(cfg, M, dim):
    """Coefficients (degree 0..dim) of det(X*I - M) over K0, by permutation
    expansion of polynomials with K0 coefficients."""
    zero = _k0_zero(cfg)
    one = _k0_one(cfg)

    def poly_mul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    acc = [zero] * (dim + 1)
    for perm in itertools.permutations(range(dim)):
        sign = 1
        seen = [False] * dim
        for i in range(dim):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = [one if sign == 1 else -one]
        for i in range(dim):
            entry = M[i][perm[i]]
            if i == perm[i]:
                term = poly_mul(term, [-entry, one])
            else:
                term = poly_mul(term, [-entry])
        for k, coeff in enumerate(term):
            acc[k] = acc[k] + coeff
    return acc


def newton_polygon_phi(D):
    """Newton polygon of the characteristic polynomial of the phi-matrix.

    Only coefficient valuations enter, so the sigma-semilinearity of phi for
    m > 1 does not affect the result.
    """
    coeffs = _charpoly_k0(D.cfg, D.phi, D.dim)
    vals = [c.val_p() for c in coeffs]
    return polygons.newton_polygon(vals)


def t_numbers(D):
    """(t_H, t_N): endpoint heights of the Hodge and Newton polygons."""
    tH = hodge_polygon(D).endpoint[1]
    tN = newton_polygon_phi(D).endpoint[1]
    return int(tH), tN


def _sqrt_zp(cfg, x):
    """Square root of a K0 element, or None if there is none in Q_p."""
    if x.is_zero():
        return _k0_zero(cfg)
    num = x.num
    vnum = num.val()
    if (vnum - x.pexp) % 2 != 0:
        return None
    unit = num.div_exact_p(vnum)
    res = unit.residue()
    # p odd: a unit is a square iff its residue is a square in k
    root_res = None
    p, m = cfg.p, cfg.m
    q = p ** m
    if res ** ((q - 1) // 2) == cfg.gf.one:
        # find the square root in k by exponentiation when q = 3 mod 4,
        # else by brute force over the prime field part (q is tiny here)
        if q % 4 == 3:
            root_res = res ** ((q + 1) // 4)
        else:
            for code in range(q):
                cand = cfg.gf.elem(tuple((code // p ** i) % p for i in range(m)))
                if cand * cand == res:
                    root_res = cand
                    break
    if root_res is None:
        return None
    y = cfg.witt.elem(root_res.coords)
    two_inv = cfg.witt.elem(2).unit_inverse()
    for _ in range(cfg.prec + 1):
        y = (y + unit * y.unit_inverse()) * two_inv
    if not (y * y - unit).is_zero():
        return None
    half = (vnum - x.pexp) // 2
    w = y.scale_p(half) if half >= 0 else y
    return K0Elem(cfg.witt, w, -half if half < 0 else 0)


def _k0_to_k(cfg, x):
    coeffs = (x.num,) + tuple(cfg.witt.zero() for _ in range(cfg.e - 1))
    return KElem(cfg, coeffs, x.pexp)


def _eigenlines_dim2(D):
    """phi- and N-stable K0-lines of a 2-dimensional module with a
    non-scalar phi-matrix, m = 1.  Returns [(vector over K0, eigenvalue)]."""
    cfg = D.cfg
    a, b = D.phi[0]
    c, d = D.phi[1]
    tr = a + d
    det = a * d - b * c
    two_inv = K0Elem(cfg.witt, cfg.witt.elem(2).unit_inverse(), 0)
    disc = tr * tr - det * 4
    if disc.is_zero():
        roots = [tr * two_inv]
    else:
        sq = _sqrt_zp(cfg, disc)
        if sq is None:
            return []
        roots = [(tr + sq) * two_inv, (tr - sq) * two_inv]
        if (roots[0] - roots[1]).is_zero():
            roots = roots[:1]
    lines = []
    for lam in roots:
        # a kernel vector of (phi - lam), read off a nonzero row
        r1 = (a - lam, b)
        r2 = (c, d - lam)
        if not (r1[0].is_zero() and r1[1].is_zero()):
            vec = (-r1[1], r1[0])
        else:
            vec = (-r2[1], r2[0])
        n1 = D.nmat[0][0] * vec[0] + D.nmat[0][1] * vec[1]
        n2 = D.nmat[1][0] * vec[0] + D.nmat[1][1] * vec[1]
        if (n1 * vec[1] - n2 * vec[0]).is_zero():
            lines.append((vec, lam))
    return lines


def _line_in_fil_t(cfg, w, fil_basis):
    """Is the K-line spanned by the K0-vector w inside span(fil_basis)?"""
    if len(fil_basis) == 0:
        return False
    if len(fil_basis) >= 2:
        return True
    g0, g1 = fil_basis[0]
    w0, w1 = _k0_to_k(cfg, w[0]), _k0_to_k(cfg, w[1])
    return (w0 * g1 - w1 * g0).is_zero()


def _line_t_hodge(D, w):
    tH = 0
    for t in range(1, len(D.fil)):
        if _line_in_fil_t(D.cfg, w, D.fil[t]):
            tH = t
        else:
            break
    return tH


def _k0_line_of_fil_line(cfg, g):
    """The K0-line inside the K-line K*g, if one exists."""
    g0, g1 = g
    if g1.is_zero():
        return (_k0_one(cfg), _k0_zero(cfg))
    ratio = g0 * g1.inverse()
    for c in ratio.coeffs[1:]:
        if not c.is_zero():
            return None
    return (K0Elem(cfg.witt, ratio.coeffs[0], ratio.pexp), _k0_one(cfg))


def weakly_admissible_dim2(D, family=None):
    """Weak admissibility for dim <= 2.

    With ``family`` given, uses the closed-form criterion of the family (any
    residue degree).  Otherwise dim 1 reduces to t_H = t_N, and dim 2
    requires residue degree m = 1: for a non-scalar phi-matrix the stable
    lines come from eigen-analysis; a scalar phi (which forces N = 0, by
    N phi = p phi N) makes every K0-line stable, and only the deepest
    filtration positions need checking.
    """
    if family is not None:
        return family.is_admissible()
    if D.dim == 1:
        tH, tN = t_numbers(D)
        return Fraction(tH) == tN
    if D.dim != 2:
        raise ValueError("weak admissibility implemented for dim <= 2 only")
    cfg = D.cfg
    if cfg.m != 1:
        raise ValueError("general dim-2 admissibility requires residue degree 1")
    tH, tN = t_numbers(D)
    if Fraction(tH) != tN:
        return False
    a, b = D.phi[0]
    c, d = D.phi[1]
    scalar = b.is_zero() and c.is_zero() and (a - d).is_zero()
    if scalar:
        v = a.val_p()
        full_depth = max(t for t in range(len(D.fil)) if D.fil_dim(t) == 2)
        if Fraction(full_depth) > v:
            return False
        for t in range(len(D.fil)):
            if D.fil_dim(t) == 1:
                w = _k0_line_of_fil_line(cfg, D.fil[t][0])
                if w is not None and Fraction(_line_t_hodge(D, w)) > v:
                    return False
                break
        return True
    for w, lam in _eigenlines_dim2(D):
        if Fraction(_line_t_hodge(D, w)) > lam.val_p():
            return False
    return True


# ---------------------------------------------------------------------------
# Hermite interpolation and the S_{K0}-side of the family


def t_pi(P, r):
    """(P(pi), P'(pi), ..., P^{(r-1)}(pi)) for P a polynomial over K0."""
    out = []
    cur = P
    for _ in range(r):
        out.append(cur.mod_E())
        cur = cur.derivative()
    return out


def hermite_interpolant(L, r):
    """The unique polynomial P over K0 of degree < er with P(pi) = L and
    vanishing derivatives up to order r-1 at pi.

    Built level by level: the degree-< e correction c_s at level s solves
    c_s(pi) = -P_s^{(s)}(pi) / (s! E'(pi)^s).  For r = 2 the closed form
    L_0 + (1/p) L_1 E(u) with L_1(pi) = -p L_0'(pi)/E'(pi) is cross-checked
    against the generic construction.
    """
    cfg = L.cfg
    if r < 1:
        raise ValueError("interpolation level must be >= 1")
    if cfg.e * r >= cfg.e * cfg.p:
        raise ValueError("degree budget exceeded")
    Eprime_at_pi = _E_derivative_at_pi(cfg)
    P = SK0Elem(cfg, cfg.s(list(L.coeffs)), L.pexp)
    E_s = cfg.s_one()
    fact = 1
    Epi_pow = cfg.k_one()
    for s in range(1, r):
        E_s = E_s * cfg.s_E()
        fact *= s
        Epi_pow = Epi_pow * Eprime_at_pi
        deriv = P
        for _ in range(s):
            deriv = deriv.derivative()
        value = deriv.mod_E()
        denom = Epi_pow * cfg.witt.elem(fact)
        c_s = -(value * denom.inverse())
        P = P + SK0Elem(cfg, cfg.s(list(c_s.coeffs)) * E_s, c_s.pexp)
    # postcondition: T_pi(P) = (L, 0, ..., 0)
    images = t_pi(P, r)
    if not (images[0] - L).is_zero():
        raise ArithmeticError("interpolant does not evaluate to L at pi")
    for img in images[1:]:
        if not img.is_zero():
            raise ArithmeticError("interpolant has a nonvanishing derivative")
    if r == 2:
        closed = _hermite_r2_closed_form(L)
        if not (P - closed).is_zero():
            raise ArithmeticError("generic interpolant disagrees with the "
                                  "r = 2 closed form")
    return P


def _E_derivative_at_pi(cfg):
    dcoeffs = [cfg.E[i] * i for i in range(1, cfg.e + 1)]
    strunc = cfg.s(dcoeffs)
    return strunc.mod_E()


def _hermite_r2_closed_form(L):
    """L_0 + (1/p) L_1 E(u), L_1 the degree-< e polynomial over K0 with
    L_1(pi) = -p L_0'(pi) / E'(pi)."""
    cfg = L.cfg
    L0_num = cfg.s(list(L.coeffs))
    L0 = SK0Elem(cfg, L0_num, L.pexp)
    L0prime_at_pi = KElem(cfg, L0_num.derivative().mod_E().coeffs, L.pexp)
    L1_at_pi = -(L0prime_at_pi.mul_p_power(1) * _E_derivative_at_pi(cfg).inverse())
    L1 = SK0Elem(cfg, cfg.s(list(L1_at_pi.coeffs)), L1_at_pi.pexp)
    return L0 + (L1 * SK0Elem.from_strunc(cfg.s_E())).mul_p_power(-1)


@dataclass(frozen=True)
class BreuilFamilyModule:
    """The S_{K0}-side of D(L): phi(e_i) = p^{n_i} e_i, N(e_i) = 0, and the
    top filtration generated by (L_r e_1 + e_2) together with Fil^r S_{K0}."""

    cfg: object
    n1: int
    n2: int
    L: KElem
    Lr: SK0Elem

    @property
    def r(self):
        return self.n1 + self.n2

    def fil_generator(self):
        one = SK0Elem.from_strunc(self.cfg.s_one())
        return (self.Lr, one)


def to_breuil_family(params):
    """Base change of the admissible family module to S_{K0}."""
    if not params.is_admissible():
        raise ValueError("inadmissible family parameters")
    if params.r < 1:
        raise ValueError("the family filtration needs r >= 1")
    Lr = hermite_interpolant(params.L, params.r)
    return BreuilFamilyModule(params.cfg, params.n1, params.n2, params.L, Lr)


def fil_contains(module, vec, t):
    """Membership of a vector (pair over S_{K0}) in Fil^t of the family
    module, through the defining recursion on N and f_pi; t <= 2 only."""
    if not 0 <= t <= 2:
        raise ValueError("membership oracle implemented for t <= 2")
    if t == 0:
        return True
    L = module.L
    cur = vec
    for _ in range(t):
        f1 = cur[0].mod_E()
        f2 = cur[1].mod_E()
        if not (f1 - L * f2).is_zero():
            return False
        cur = (cur[0].monodromy(), cur[1].monodromy())
    return True


def fil2_decompose(module, vec):
    """Write vec = A * (L_r e_1 + e_2) + (Fil^r S_{K0}) * (e_1, e_2); returns
    (A, ok) where ok records that the remainder really lies in Fil^r."""
    A = vec[1]
    rem0 = vec[0] - A * module.Lr
    rem1 = vec[1] - A
    ok = rem0.val_E() >= module.r and rem1.val_E() >= module.r
    return A, ok
