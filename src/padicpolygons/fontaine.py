"""Filtered (phi, N)-modules over K0: Hodge and Newton polygons, Hodge and
Newton numbers, weak admissibility in dimension <= 2, and the Hermite
interpolant L_2 of the two-dimensional family, built in S as p L_2.

The family D(L), for nonnegative n1 <= n2 with e(n1+n2) < p-1 and L in K:
phi(e_1) = p^{n1} e_1, phi(e_2) = p^{n2} e_2, N = 0, and the filtration in
degrees 1..r is the line K(L e_1 + e_2), r = n1 + n2.

Weak admissibility of a 2-dimensional module over Q_p (m = 1), with Hodge
slopes d <= h_2 and Newton slopes s_1 <= s_2, once t_H = t_N: let w span
the K0-line of the filtration line, when there is one.  If w is phi- and
N-stable with phi(w) = lam_0 w and h_2 > v(lam_0), the module is not weakly
admissible; otherwise it is exactly when d <= s_1 (``weakly_admissible_dim2``
has the proof).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polygons
from .arith import INF, KElem, PrecisionError, det


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
    """Parameters of the two-dimensional family D(L).  ``normalized`` is L
    normalized once (``breuil.normalize_L``), shared by the lattice
    pipeline and the admissibility verdict."""

    cfg: object
    n1: int
    n2: int
    L: KElem

    @property
    def r(self):
        return self.n1 + self.n2

    @functools.cached_property
    def normalized(self):
        """``normalize_L(L)``; raises ValueError when L is indistinguishable
        from a Q_p element at working precision (and then is not cached)."""
        from .breuil import normalize_L
        return normalize_L(self.L)

    def validate(self):
        if not 0 <= self.n1 <= self.n2:
            raise ValueError("need 0 <= n1 <= n2")
        if self.cfg.e * self.r >= self.cfg.p - 1:
            raise ValueError("need e(n1+n2) < p-1")

    def is_admissible(self):
        """Closed-form admissibility: n1 = n2 demands L not in Q_p (a
        normalization exists); n1 != n2 excludes only n1 > 0 with L = 0."""
        self.validate()
        if self.n1 == self.n2:
            try:
                self.normalized
            except ValueError:
                return False
            return True
        if self.n1 > 0 and self.L.is_zero():
            return False
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


def phi_newton_polygon(cfg, phi, dim):
    """Newton polygon of det(X*I - phi) over K0 for a dim x dim matrix phi.

    The degree dim - k coefficient is (-1)^k times the sum of the k x k
    principal minors; only valuations enter, so neither the sign nor the
    sigma-semilinearity of phi for m > 1 affects the result.  A constant
    term det(phi) that is zero at working precision raises PrecisionError.
    """
    vals = [0]                      # degree dim: the leading 1
    for k in range(1, dim + 1):     # degree dim - k, prepended
        total = cfg.k0(0)
        for sel in itertools.combinations(range(dim), k):
            total = total + det([[phi[i][j] for j in sel] for i in sel])
        vals.insert(0, total.val_p())
    if vals[0] == INF:
        raise PrecisionError("Newton polygon of phi: det(phi) is zero at "
                             "working precision")
    return polygons.newton_polygon(vals)


def newton_polygon_phi(D):
    """Newton polygon of the characteristic polynomial of the phi-matrix."""
    return phi_newton_polygon(D.cfg, D.phi, D.dim)


def t_numbers(D):
    """(t_H, t_N): endpoint heights of the Hodge and Newton polygons."""
    tH = hodge_polygon(D).endpoint[1]
    tN = newton_polygon_phi(D).endpoint[1]
    return int(tH), tN


def _k0_line_of_fil_line(cfg, g):
    """The primitive K0-vector w with K*w = K*g, or None when K*g holds no
    K0-line.  With p^k g = sum_i pi^i (a_i, b_i), a_i and b_i in W, K*g is
    K0-rational exactly when the coefficient vectors a and b are
    proportional: every minor a_i b_j - a_j b_i vanishes.  Then w is the
    pair (a_i, b_i) that holds the entry c of least valuation, over c."""
    k = max(x.pexp for x in g)
    a, b = ([c.scale_p(k - x.pexp) for c in x.coeffs] for x in g)
    if not all((a[i] * b[j] - a[j] * b[i]).is_zero()
               for i, j in itertools.combinations(range(cfg.e), 2)):
        return None
    i, c = min(enumerate(a + b), key=lambda ic: ic[1].val())
    v = c.val()
    if v == c.prec:
        raise PrecisionError("filtration line is zero at working precision")
    one = cfg.k0(1)
    r = cfg.k0((b + a)[i].div_exact_p(v) * c.div_exact_p(v).unit_inverse())
    return (one, r) if i < cfg.e else (r, one)


def weakly_admissible_dim2(D, family=None):
    """Weak admissibility for dim <= 2.

    With ``family`` given, uses the closed-form criterion of the family (any
    residue degree).  Otherwise dim 1 reduces to t_H = t_N, and dim 2
    requires residue degree m = 1.  There D is weakly admissible exactly
    when t_H = t_N and every phi- and N-stable line l has t_H(l) <= t_N(l).
    With Hodge slopes d <= h_2 and Newton slopes s_1 <= s_2, let w span the
    K0-line of the filtration line Fil^{h_2}, when d < h_2 and that line is
    K0-rational.  The rule: False when w is stable, phi(w) = lam_0 w, and
    h_2 > v(lam_0); otherwise ``d <= s_1``.  The proof, in three steps:

    1. t_H = d + h_2 with h_2 >= d, so t_H = t_N gives 2d <= s_1 + s_2:
       s_2 >= d, and d <= s_1 when s_1 = s_2.
    2. w, when stable, has t_H(w) = h_2.  Every other stable line lies in
       Fil^d and in no deeper Fil^t, the filtration line or 0, so it has
       t_H = d, and by (1) it fails only when its slope is s_1 < d.  If w
       has slope s_1 and passes, then d <= h_2 <= s_1.
    3. When s_1 < s_2, the eigenvalues lam_1 and lam_2 of phi lie in Q_p,
       and N phi = p phi N sends the lam_1-eigenline into the
       lam_1/p-eigenspace, which is 0: that line is always stable, with
       t_H = d unless it is w.  So, w passing or not stable, D is weakly
       admissible exactly when d <= s_1, by (2) and, for s_1 = s_2, (1).

    v(lam_0) is the least valuation of the coordinates of phi(w), w being
    primitive; phi(w) zero at working precision raises PrecisionError.
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
    (d, h2), (s1, s2) = hodge_polygon(D).slopes, newton_polygon_phi(D).slopes
    if d + h2 != s1 + s2:
        return False
    w = _k0_line_of_fil_line(cfg, D.fil[int(h2)][0]) if d < h2 else None
    if w is not None:
        phi_w, n_w = ([row[0] * w[0] + row[1] * w[1] for row in M]
                      for M in (D.phi, D.nmat))
        if all((w[0] * y[1] - w[1] * y[0]).is_zero() for y in (phi_w, n_w)):
            v = min(y.val_p() for y in phi_w)
            if v == INF:
                raise PrecisionError("weak admissibility: phi(w) is zero at "
                                     "working precision")
            if h2 > v:
                return False
    return d <= s1


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
