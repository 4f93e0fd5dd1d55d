"""Filtered (phi, N)-modules over K0: Hodge and Newton polygons, Hodge and
Newton numbers, weak admissibility in dimension <= 2, and the Hermite
interpolant L_2 of the two-dimensional family, built in S as p L_2.

The family D(L), for nonnegative n1 <= n2 with e(n1+n2) < p-1 and L in K:
phi(e_1) = p^{n1} e_1, phi(e_2) = p^{n2} e_2, N = 0, and the filtration in
degrees 1..r is the line K(L e_1 + e_2), r = n1 + n2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polygons
from .arith import KElem


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
    zero, one = cfg.k0(0), cfg.k0(1)
    phi = ((one.mul_p_power(params.n1), zero),
           (zero, one.mul_p_power(params.n2)))
    nmat = ((zero, zero), (zero, zero))
    kzero, kone = cfg.k_zero(), cfg.k_one()
    full = ((kone, kzero), (kzero, kone))
    line = ((params.L, kone),)
    fil = [full] + [line] * params.r + [()]
    return FilteredModule(cfg, 2, phi, nmat, tuple(fil))


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
    zero, one = cfg.k0(0), cfg.k0(1)

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
        return cfg.k0(0)
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
    return cfg.k0(w, -half if half < 0 else 0)


def _eigenlines_dim2(D):
    """phi- and N-stable K0-lines of a 2-dimensional module with a
    non-scalar phi-matrix, m = 1.  Returns [(vector over K0, eigenvalue)]."""
    cfg = D.cfg
    a, b = D.phi[0]
    c, d = D.phi[1]
    tr = a + d
    det = a * d - b * c
    two_inv = cfg.k0(cfg.w(2).unit_inverse())
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
    w0, w1 = (cfg.k_elem([x.num], x.pexp) for x in w)
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
        return (cfg.k0(1), cfg.k0(0))
    ratio = g0 * g1.inverse()
    for c in ratio.coeffs[1:]:
        if not c.is_zero():
            return None
    return (cfg.k0(ratio.coeffs[0], ratio.pexp), cfg.k0(1))


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
# The Hermite interpolant of the family


def hermite_interpolant(L):
    """(p L_2, L_1) in S for an integral L in K.

    L_2 is the interpolant of degree < 2e over K0 with L_2(pi) = L and
    L_2'(pi) = 0.  With L_0 the degree-< e representative of L, it is
    L_0 + (1/p) L_1 E(u), where L_1 is the degree-< e representative of
    -p L_0'(pi) / E'(pi), integral since v_p(E'(pi)) < 1.  The result is
    checked against the defining property, which pins it because p L_2
    has degree < 2e: (p L_2)(pi) = p L and (p L_2)'(pi) = 0."""
    cfg = L.cfg
    L0 = L.to_strunc()
    # p comes off the prefix of the quotient: multiplying L_0'(pi) by p
    # first would lose its top digit to the precision cap
    L1 = (-(L0.derivative().mod_E() * cfg.Eprime_pi()[1])).mul_p_power(
        1).to_strunc()
    PL2 = L0.scale_p(1) + L1 * cfg.s_E()
    if not (PL2.mod_E() - L.mul_p_power(1)).is_zero():
        raise ArithmeticError("interpolant does not evaluate to L at pi")
    if not PL2.derivative().mod_E().is_zero():
        raise ArithmeticError("interpolant has a nonvanishing derivative")
    return PL2, L1
