"""Exact arithmetic in the coefficient rings.

The scalars are ``F_{p^m} = F_p[w]/(hbar)`` (``GFElem``) and
``W = W(F_{p^m})``, realized as Z_p[w]/(h) at a fixed absolute precision
``p^N`` (``WittElem``) with the Frobenius sigma lifting x -> x^p.  Both
multiply coordinate tuples with one product mod (modulus, q).

Every other ring is built on one of two bases:

* ``_Poly``, a fixed-length coefficient tuple over W or k.  It owns the
  coercion of constants, +, -, negation, ==, ``is_zero`` and the monodromy
  ``N(u^n) = -n u^n``.

  - ``TildePoly``: ``k[u]/u^{ep}``, the mod-p residue of ``STrunc``.  Its
    product truncates at u^{ep}; it adds phi, the u-valuation and
    division, and unit inversion.
  - ``_WPoly``, the W-coefficient case, adds ``min_prec``, ``scale_p``,
    ``div_exact_p``, ``mul_w`` and the product reduced by a monic modulus.
    Two rings are built on it:

    - ``STrunc``: ``S/Fil^p S ~ (W/p^N)[u]/E(u)^p``, the truncation of the
      divided-power ring S in which every formula of the package is
      stated.  It reduces products by E(u)^p and adds phi, troncation, the
      E-adic valuation and division, and unit inversion.
    - ``_KNum``: a W-polynomial of degree < e reduced by E(u), the
      numerator of a K element.

* ``_PExp``, ``num / p^pexp``: a numerator with a power of p split off as
  an explicit prefix, so integrality stays decidable.  It owns the
  alignment of prefixes, +, -, negation, *, ==, ``is_zero`` and
  ``mul_p_power``.

  - ``K0Elem``: ``K0 = Frac(W)``, numerator a ``WittElem``.
  - ``KElem``: ``K = K0[u]/E(u)``, numerator a ``_KNum``; it adds the
    norm, the valuation and the inverse.
  - ``SK0Elem``: numerator an ``STrunc``; enough of S_{K0} for troncation
    and for the filtration computations.

Precision model: every Witt element carries an absolute precision ``prec``
(number of significant p-digits) capped by the ring precision.  Ring
operations report ``min`` of the input precisions, multiplication by p gains
one digit, and exact division by p costs one.  A product reduced by a
monic modulus skips the coefficients that are zero as known and caps its
precision at the digits their unknown part leaves known.  Predicates
(zero tests, unit tests, valuations) answer for the element *as known*; an
element with no significant digits left raises ``PrecisionError`` instead
of guessing.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

INF = math.inf


class PrecisionError(ArithmeticError):
    """A question was asked that the remaining p-adic precision cannot answer."""


class DivisibilityError(ArithmeticError):
    """An exact division (by p, E(u) or u) left a nonzero remainder."""


class ConfigError(ValueError):
    """Invalid ring configuration."""


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _power(x, n, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply, starting from ``one``."""
    if n < 0:
        raise ValueError("negative powers: invert first")
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        x = mul(x, x)
        n >>= 1
    return result


def det(rows):
    """Cofactor-expansion determinant of a small nonempty square matrix."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _coord_mul(a, b, modulus, q):
    """Product of length-m coordinate tuples in (Z/q)[w]/(modulus), for a
    monic modulus of degree m."""
    m = len(modulus) - 1
    if m == 1:
        return ((a[0] * b[0]) % q,)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for i in range(m):
                prod[k - m + i] = (prod[k - m + i] - c * modulus[i]) % q
    return tuple(prod[:m])


# ---------------------------------------------------------------------------
# F_{p^m} = F_p[w]/(hbar)


def _gfp_poly_gcd(a, b, p):
    """Monic gcd of dense coefficient lists over F_p."""
    a = [c % p for c in a]
    b = [c % p for c in b]

    def deg(f):
        d = len(f) - 1
        while d >= 0 and f[d] == 0:
            d -= 1
        return d

    while True:
        db = deg(b)
        if db < 0:
            da = deg(a)
            if da < 0:
                return [0]
            inv = pow(a[da], -1, p)
            return [(c * inv) % p for c in a[: da + 1]]
        da = deg(a)
        while da >= db:
            c = (a[da] * pow(b[db], -1, p)) % p
            if c:
                for i in range(db + 1):
                    a[da - db + i] = (a[da - db + i] - c * b[i]) % p
            da = deg(a)
        a, b = b, a


def _gfp_poly_powmod_x(q, modulus, p):
    """x^q mod the monic modulus, as a coefficient tuple."""
    m = len(modulus) - 1
    base = tuple(1 if i == 1 else 0 for i in range(m)) if m > 1 else \
        ((-modulus[0]) % p,)
    return _power(base, q, (1,) + (0,) * (m - 1),
                  lambda a, b: _coord_mul(a, b, modulus, p))


def _gfp_is_irreducible(modulus, p):
    """Rabin test for a monic degree-m polynomial over F_p."""
    m = len(modulus) - 1
    if m < 1:
        return False
    # x^{p^m} == x mod f
    xqm = _gfp_poly_powmod_x(p ** m, modulus, p)
    xpoly = tuple(1 if i == 1 else 0 for i in range(m)) if m > 1 else \
        ((-modulus[0]) % p,)
    if xqm != xpoly:
        return False
    # gcd(x^{p^{m/q}} - x, f) == 1 for every prime divisor q of m
    mm, q = m, 2
    primes = set()
    while q * q <= mm:
        while mm % q == 0:
            primes.add(q)
            mm //= q
        q += 1
    if mm > 1:
        primes.add(mm)
    for q in primes:
        xq = list(_gfp_poly_powmod_x(p ** (m // q), modulus, p))
        sub = list(xpoly)
        diff = [(a - b) % p for a, b in zip(xq + [0] * m, sub + [0] * m)]
        g = _gfp_poly_gcd(diff, list(modulus), p)
        if len(g) != 1:
            return False
    return True


def default_modulus(p, m):
    """Lexicographically first monic degree-m lift irreducible mod p.

    For m = 1 the modulus is X itself (w = 0, W = Z_p).
    """
    if m == 1:
        return (0, 1)
    # enumerate lower coefficient tuples in counting order
    for code in range(p ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        mod = tuple(coeffs) + (1,)
        if _gfp_is_irreducible(mod, p):
            return mod
    raise ConfigError(f"no irreducible degree-{m} polynomial found mod {p}")


class GF:
    """The residue field F_{p^m} with a fixed generator wbar."""

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.modulus = tuple(c % p for c in modulus)
        if len(self.modulus) != m + 1 or self.modulus[m] != 1:
            raise ConfigError("residue modulus must be monic of degree m")
        if not _gfp_is_irreducible(self.modulus, p):
            raise ConfigError("residue modulus is reducible (or inseparable) mod p")
        self.zero = GFElem(self, (0,) * m)
        self.one = GFElem(self, (1,) + (0,) * (m - 1))

    def elem(self, coords):
        if isinstance(coords, int):
            coords = (coords,) + (0,) * (self.m - 1)
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.m:
            raise ValueError("wrong number of coordinates")
        return GFElem(self, coords)

    def gen(self):
        if self.m == 1:
            return self.zero
        return GFElem(self, tuple(1 if i == 1 else 0 for i in range(self.m)))

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.modulus == other.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


class GFElem:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def __add__(self, other):
        p = self.field.p
        return GFElem(self.field, tuple((a + b) % p for a, b in
                                        zip(self.coords, other.coords)))

    def __sub__(self, other):
        p = self.field.p
        return GFElem(self.field, tuple((a - b) % p for a, b in
                                        zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.p
        return GFElem(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return GFElem(self.field, tuple((a * other) % p for a in self.coords))
        return GFElem(self.field, _coord_mul(self.coords, other.coords,
                                             self.field.modulus, self.field.p))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one)

    def __eq__(self, other):
        return isinstance(other, GFElem) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("zero is not invertible in the residue field")
        q = self.field.p ** self.field.m
        return self ** (q - 2)

    def frobenius(self):
        return self ** self.field.p

    def in_prime_field(self):
        return self.frobenius() == self

    def __repr__(self):
        return f"GFElem{self.coords}"


# ---------------------------------------------------------------------------
# W(F_{p^m}) at capped absolute precision


class WittRing:
    """Z_p[w]/(h) at absolute precision p^cap, h monic irreducible mod p."""

    def __init__(self, p, m, cap, modulus=None):
        if not _is_prime(p):
            raise ConfigError(f"{p} is not prime")
        if p == 2:
            raise ConfigError("p = 2 is out of scope")
        if cap < 1:
            raise ConfigError("precision cap must be >= 1")
        self.p = p
        self.m = m
        self.cap = cap
        self.pc = p ** cap
        if modulus is None:
            modulus = default_modulus(p, m)
        self.modulus = tuple(int(c) for c in modulus)
        if len(self.modulus) != m + 1 or self.modulus[m] != 1:
            raise ConfigError("Witt modulus must be monic of degree m")
        self.gf = GF(p, m, self.modulus)
        self._frob_pows = self._hensel_frobenius()

    # raw coordinate-tuple helpers (used before WittElem exists)
    def _mul(self, a, b):
        return _coord_mul(a, b, self.modulus, self.pc)

    def _add(self, a, b):
        return tuple((x + y) % self.pc for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.pc for x, y in zip(a, b))

    def _unit_inverse(self, a):
        res = self.gf.elem(tuple(c % self.p for c in a))
        y = tuple(c % self.pc for c in res.inverse().coords)
        two = (2 % self.pc,) + (0,) * (self.m - 1)
        steps = max(1, self.cap.bit_length() + 1)
        for _ in range(steps):
            y = self._mul(y, self._sub(two, self._mul(a, y)))
        return y

    def _eval_intpoly(self, coeffs, x):
        """Evaluate an integer-coefficient polynomial at a coordinate tuple."""
        acc = (0,) * self.m
        for c in reversed(coeffs):
            acc = self._mul(acc, x)
            acc = self._add(acc, (c % self.pc,) + (0,) * (self.m - 1))
        return acc

    def _hensel_frobenius(self):
        """Coordinates of sigma(w^i), i < m, where sigma(w) is the Hensel
        root of the modulus congruent to w^p mod p."""
        m = self.m
        if m == 1:
            return ((1 % self.pc,),)
        w = tuple(1 if i == 1 else 0 for i in range(m))
        # seed: w^p at full precision (its residue is the target root)
        rho = _power(w, self.p, (1 % self.pc,) + (0,) * (m - 1), self._mul)
        h = self.modulus
        hp = tuple(i * h[i] for i in range(1, m + 1))
        for _ in range(self.cap + 2):
            val = self._eval_intpoly(h, rho)
            if all(v == 0 for v in val):
                break
            dval = self._eval_intpoly(hp, rho)
            rho = self._sub(rho, self._mul(val, self._unit_inverse(dval)))
        else:
            raise ConfigError("Frobenius root did not converge (modulus "
                              "not separable mod p?)")
        pows = [(1 % self.pc,) + (0,) * (m - 1)]
        for _ in range(m - 1):
            pows.append(self._mul(pows[-1], rho))
        return tuple(pows)

    def elem(self, value, prec=None):
        prec = self.cap if prec is None else min(prec, self.cap)
        if isinstance(value, int):
            coords = (value,) + (0,) * (self.m - 1)
        elif isinstance(value, GFElem):
            coords = value.coords
        else:
            coords = tuple(value)
        if len(coords) != self.m:
            raise ValueError("wrong number of Witt coordinates")
        q = self.p ** prec if prec > 0 else 1
        return WittElem(self, tuple(int(c) % q for c in coords), prec)

    def zero(self, prec=None):
        return self.elem(0, prec)

    def one(self, prec=None):
        return self.elem(1, prec)

    def gen(self):
        return self.elem(tuple(1 if i == 1 else 0 for i in range(self.m)))

    def teichmuller(self, x):
        """The Teichmuller representative with the residue of x."""
        if isinstance(x, GFElem):
            x = self.elem(x.coords)
        if x.prec < 1:
            raise PrecisionError("no digits to read a residue from")
        y = self.elem(x.coords, self.cap)
        q = self.p ** self.m
        for _ in range(self.cap):
            y = y ** q
        return y


class WittElem:
    """Element of W(F_{p^m}) known modulo p^prec."""

    __slots__ = ("ring", "coords", "prec")

    def __init__(self, ring, coords, prec):
        self.ring = ring
        self.coords = coords
        self.prec = prec

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.elem(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        q = self.ring.p ** prec if prec > 0 else 1
        return WittElem(self.ring, tuple((a + b) % q for a, b in
                                         zip(self.coords, other.coords)), prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        q = self.ring.p ** prec if prec > 0 else 1
        return WittElem(self.ring, tuple((a - b) % q for a, b in
                                         zip(self.coords, other.coords)), prec)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        q = self.ring.p ** self.prec if self.prec > 0 else 1
        return WittElem(self.ring, tuple((-a) % q for a in self.coords), self.prec)

    def __mul__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        q = self.ring.p ** prec if prec > 0 else 1
        coords = _coord_mul(self.coords, other.coords, self.ring.modulus,
                            self.ring.pc)
        return WittElem(self.ring, tuple(c % q for c in coords), prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, self.ring.one(self.prec))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.elem(other)
        if not isinstance(other, WittElem):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"W{self.coords}+O(p^{self.prec})"

    def val(self):
        """p-adic valuation, clamped at prec (val == prec means zero as known)."""
        if self.prec < 1:
            raise PrecisionError("element has no significant digits")
        p, best = self.ring.p, self.prec
        for c in self.coords:
            c %= p ** self.prec
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                best = min(best, v)
        return best

    def is_zero(self):
        return self.val() == self.prec

    def min_prec(self):
        return self.prec

    def is_unit(self):
        return self.val() == 0

    def unit_inverse(self):
        if not self.is_unit():
            raise DivisibilityError("not a unit in W")
        inv = self.ring._unit_inverse(self.coords)
        q = self.ring.p ** self.prec
        return WittElem(self.ring, tuple(c % q for c in inv), self.prec)

    def div_exact_p(self, k=1):
        """Exact division by p^k; costs k digits of precision."""
        if k == 0:
            return self
        if self.prec - k < 1:
            raise PrecisionError("division by p exhausts the precision")
        pk = self.ring.p ** k
        q = self.ring.p ** self.prec
        out = []
        for c in self.coords:
            c %= q
            if c % pk:
                raise DivisibilityError("coordinate not divisible by p^k")
            out.append(c // pk)
        return WittElem(self.ring, tuple(out), self.prec - k)

    def scale_p(self, k):
        """Multiply by p^k (k >= 0); gains k digits up to the ring cap."""
        prec = min(self.prec + k, self.ring.cap)
        q = self.ring.p ** prec
        pk = self.ring.p ** k
        return WittElem(self.ring, tuple((c * pk) % q for c in self.coords), prec)

    def frobenius(self):
        """sigma(x): the unique lift of x -> x^p on the residue field."""
        acc = (0,) * self.ring.m
        for a, rp in zip(self.coords, self.ring._frob_pows):
            if a:
                acc = self.ring._add(acc, tuple((a * c) % self.ring.pc for c in rp))
        q = self.ring.p ** self.prec if self.prec > 0 else 1
        return WittElem(self.ring, tuple(c % q for c in acc), self.prec)

    def residue(self):
        if self.prec < 1:
            raise PrecisionError("no digits to read a residue from")
        return self.ring.gf.elem(tuple(c % self.ring.p for c in self.coords))


# ---------------------------------------------------------------------------
# Ring configuration


class RingConfig:
    """All ring data: p, k = F_{p^m}, e, the Eisenstein polynomial E(u),
    the working precision, and the filtration bound r."""

    def __init__(self, p, m, e, E_coeffs, prec=None, r=2, modulus=None):
        if e < 1:
            raise ConfigError("e must be >= 1")
        if r < 0:
            raise ConfigError("r must be >= 0")
        if e * r >= p - 1:
            raise ConfigError(f"need e*r < p-1, got e*r = {e * r}, p = {p}")
        if prec is None:
            prec = min(p, r + 6)
        if prec > p:
            raise ConfigError("precision cannot exceed p "
                              "(the truncated model is only faithful there)")
        if prec < 2:
            raise ConfigError("precision must be at least 2")
        self.p = p
        self.m = m
        self.e = e
        self.r = r
        self.prec = prec
        self.witt = WittRing(p, m, prec, modulus)
        self.gf = self.witt.gf
        if len(E_coeffs) != e + 1:
            raise ConfigError("E(u) must have exactly e+1 coefficients")
        self.E = tuple(self._as_witt(c) for c in E_coeffs)
        if not (self.E[e] - self.witt.one()).is_zero():
            raise ConfigError("E(u) must be monic")
        for i in range(e):
            if self.E[i].val() < 1:
                raise ConfigError("E(u) must be Eisenstein: p | E_i for i < e")
        if self.E[0].val() != 1:
            raise ConfigError("E(u) must be Eisenstein: v_p(E_0) = 1")
        self.c0 = self.E[0].div_exact_p(1)  # E(0) = p*c0 with c0 a unit
        self._E_powers = {1: self.E}
        self.Ep = self._E_power(p)
        self._c = None

    def _as_witt(self, c):
        if isinstance(c, WittElem):
            return c
        return self.witt.elem(c)

    def _E_power(self, s):
        if s == 0:
            return (self.witt.one(),)
        if s not in self._E_powers:
            half = self._E_power(s - 1)
            prod = [self.witt.zero() for _ in range(len(half) + self.e)]
            for i, a in enumerate(half):
                for j, b in enumerate(self.E):
                    prod[i + j] = prod[i + j] + a * b
            self._E_powers[s] = tuple(prod)
        return self._E_powers[s]

    # element factories ----------------------------------------------------

    def w(self, value, prec=None):
        return self.witt.elem(value, prec)

    def s(self, coeffs):
        """STrunc from a list of Witt/int coefficients (low degree first)."""
        ep = self.e * self.p
        cs = [self._as_witt(c) for c in coeffs]
        if len(cs) > ep:
            raise ValueError("degree must be < ep")
        cs += [self.witt.zero() for _ in range(ep - len(cs))]
        return STrunc(self, tuple(cs))

    def s_zero(self):
        return self.s([])

    def s_one(self):
        return self.s([1])

    def s_u(self, k=1):
        if k >= self.e * self.p:
            # reduce the monomial through E(u)^p
            t = self.s_u(self.e * self.p - 1)
            for _ in range(k - self.e * self.p + 1):
                t = t.mul_u()
            return t
        return self.s([0] * k + [1])

    def s_E(self):
        return self.s(list(self.E))

    @property
    def c(self):
        """phi(E(u))/p, a unit of S."""
        if self._c is None:
            self._c = self.s_E().phi().div_exact_p(1)
        return self._c

    def tilde(self, coeffs):
        ep = self.e * self.p
        out = []
        for c in coeffs:
            if isinstance(c, GFElem):
                out.append(c)
            elif isinstance(c, int):
                out.append(self.gf.elem(c))
            else:
                out.append(self.gf.elem(tuple(c)))
        if len(out) > ep:
            raise ValueError("degree must be < ep")
        out += [self.gf.zero] * (ep - len(out))
        return TildePoly(self, tuple(out))

    def tilde_zero(self):
        return self.tilde([])

    def tilde_one(self):
        return self.tilde([1])

    def tilde_u(self, k=1):
        if k >= self.e * self.p:
            return self.tilde([])
        return self.tilde([0] * k + [1])

    def k_elem(self, coeffs, pexp=0):
        cs = [self._as_witt(c) for c in coeffs]
        if len(cs) > self.e:
            raise ValueError("K elements have degree < e")
        cs += [self.witt.zero() for _ in range(self.e - len(cs))]
        return KElem(self, tuple(cs), pexp)

    def k_zero(self):
        return self.k_elem([])

    def k_one(self):
        return self.k_elem([1])

    def pi(self):
        """The class of u: a uniformizer of K."""
        if self.e == 1:
            return self.k_elem([-self.E[0]])
        return self.k_elem([0, 1])

    def k0(self, w, pexp=0):
        return K0Elem(self.witt, self._as_witt(w), pexp)

    def k0_from_fraction(self, fr):
        """K0 element from an exact rational (denominator prime to nothing)."""
        fr = Fraction(fr)
        num, den = fr.numerator, fr.denominator
        vd = 0
        while den % self.p == 0:
            den //= self.p
            vd += 1
        w = self.witt.elem(num) * self.witt.elem(den).unit_inverse()
        return K0Elem(self.witt, w, vd)

    def teichmuller_generator(self):
        """Teichmuller lift of the residue-field generator wbar."""
        return self.witt.teichmuller(self.gf.gen())

    def __repr__(self):
        return (f"RingConfig(p={self.p}, m={self.m}, e={self.e}, r={self.r}, "
                f"prec={self.prec})")


# ---------------------------------------------------------------------------
# Polynomial base: fixed-length coefficient tuples over W or k


class _Poly:
    """A dense coefficient tuple of fixed length over W or k.

    Subclasses give the ring: ``_constant`` (a scalar as an element) and the
    product."""

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg, coeffs):
        self.cfg = cfg
        self.coeffs = coeffs

    def _new(self, coeffs):
        return type(self)(self.cfg, coeffs)

    def _coerce(self, other):
        return other if isinstance(other, _Poly) else self._constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        return self._new(tuple(a + b for a, b in
                               zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._new(tuple(a - b for a, b in
                               zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._new(tuple(-a for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        return all(a.is_zero() for a in self.coeffs)

    def monodromy(self):
        """N(u^n) = -n u^n, extended coefficient-linearly."""
        return self._new(tuple(a * (-i) for i, a in enumerate(self.coeffs)))

    def __repr__(self):
        return f"{type(self).__name__}({[c.coords for c in self.coeffs]})"


def _zero_bound(c, others):
    """Digits known of c * x for every x in others, where c is zero as known:
    c.prec plus the least valuation among others."""
    return c.prec + min(x.val() for x in others)


class _WPoly(_Poly):
    """A ``_Poly`` over W: adds the p-adic precision and scalings and the
    product reduced by a monic modulus."""

    __slots__ = ()

    def min_prec(self):
        return min(a.prec for a in self.coeffs)

    def scale_p(self, k):
        return self._new(tuple(a.scale_p(k) for a in self.coeffs))

    def div_exact_p(self, k=1):
        return self._new(tuple(a.div_exact_p(k) for a in self.coeffs))

    def mul_w(self, w):
        """Multiply every coefficient by an element (or integer) of W."""
        if isinstance(w, int):
            w = self.cfg.witt.elem(w)
        return self._new(tuple(a * w for a in self.coeffs))

    def _mul_mod(self, other, modulus):
        """self * other reduced by a monic W-polynomial of degree
        len(coeffs); a scalar of W multiplies every coefficient."""
        if not isinstance(other, _Poly):
            return self.mul_w(other)
        n = len(self.coeffs)
        cap = self.cfg.prec
        prod = [self.cfg.witt.zero()] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            # a coefficient that is zero as known adds no term; its unknown
            # digits only bound the precision of the product
            if a.val() == a.prec:
                if a.prec < cap:
                    cap = min(cap, _zero_bound(a, other.coeffs))
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] = prod[i + j] + a * b
        return self._new(_reduce_by_monic(prod, modulus, self.cfg, cap))

    def _mul_u_mod(self, modulus):
        """self * u reduced by a monic W-polynomial of degree len(coeffs)."""
        shifted = [self.cfg.witt.zero(), *self.coeffs]
        return self._new(_reduce_by_monic(shifted, modulus, self.cfg,
                                          self.cfg.prec))


def _reduce_by_monic(prod, modpoly, cfg, cap):
    """The remainder of a coefficient list by a monic Witt polynomial, as a
    tuple of len(modpoly) - 1 coefficients known to at most cap digits."""
    d = len(modpoly) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c.val() == c.prec:
            if c.prec < cap:
                cap = min(cap, _zero_bound(c, modpoly[:d]))
            continue
        for i in range(d):
            prod[k - d + i] = prod[k - d + i] - c * modpoly[i]
    if cap < cfg.prec:
        return tuple(c if c.prec <= cap else cfg.witt.elem(c.coords, cap)
                     for c in prod[:d])
    return tuple(prod[:d])


# ---------------------------------------------------------------------------
# S/Fil^p S = (W/p^N)[u]/E(u)^p


class STrunc(_WPoly):
    """Element of S/Fil^p S, stored as the degree-< ep representative."""

    __slots__ = ()

    def _constant(self, c):
        return self.cfg.s([c])

    def __mul__(self, other):
        return self._mul_mod(other, self.cfg.Ep)

    __rmul__ = __mul__

    def mul_u(self):
        return self._mul_u_mod(self.cfg.Ep)

    def shift_u(self, k):
        out = self
        for _ in range(k):
            out = out.mul_u()
        return out

    def phi(self):
        """The semilinear Frobenius: sigma on W, u -> u^p."""
        cfg = self.cfg
        up = cfg.s_u(cfg.p)
        acc = cfg.s_zero()
        for a in reversed(self.coeffs):
            acc = acc * up
            acc = acc + a.frobenius()
        return acc

    def derivative(self):
        """u-derivative of the canonical degree-< ep representative."""
        cfg = self.cfg
        coeffs = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        coeffs.append(cfg.witt.zero())
        return STrunc(cfg, tuple(coeffs))

    def divrem_E(self, s):
        """Quotient and remainder by E(u)^s (monic of degree es)."""
        Es = self.cfg._E_power(s)
        work = list(self.coeffs)
        d = self.cfg.e * s
        quot = [self.cfg.witt.zero() for _ in range(len(work))]
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k]
            if c.val() == c.prec:
                continue
            quot[k - d] = quot[k - d] + c
            for i in range(d + 1):
                work[k - d + i] = work[k - d + i] - c * Es[i]
        return quot, work[:d]

    def tronc(self, s):
        """The degree-< es representative modulo E(u)^s."""
        if not 1 <= s < self.cfg.p:
            raise ValueError("troncation level must be in [1, p)")
        _, rem = self.divrem_E(s)
        ep = self.cfg.e * self.cfg.p
        rem = list(rem) + [self.cfg.witt.zero()] * (ep - len(rem))
        return STrunc(self.cfg, tuple(rem))

    def val_E(self):
        """Largest i <= p with E(u)^i dividing the representative (p if zero)."""
        if self.is_zero():
            return self.cfg.p
        x = self
        v = 0
        while v < self.cfg.p:
            quot, rem = x.divrem_E(1)
            if any(not c.is_zero() for c in rem):
                return v
            x = STrunc(self.cfg, tuple(quot))
            v += 1
            if x.is_zero():
                return self.cfg.p
        return v

    def div_exact_E(self, s):
        if s == 0:
            return self
        quot, rem = self.divrem_E(s)
        if any(not c.is_zero() for c in rem):
            raise DivisibilityError(f"not divisible by E(u)^{s}")
        return STrunc(self.cfg, tuple(quot))

    def val_p(self):
        return min(a.val() for a in self.coeffs)

    def is_unit(self):
        """Unit in the local ring (W/p^N)[u]/E(u)^p: unit constant term."""
        return self.coeffs[0].is_unit()

    def unit_inverse(self):
        if not self.is_unit():
            raise DivisibilityError("not a unit of S/Fil^p S")
        cfg = self.cfg
        y = cfg.s([self.coeffs[0].unit_inverse()])
        two = cfg.s([2])
        steps = max(1, (cfg.prec + cfg.e * cfg.p).bit_length() + 1)
        for _ in range(steps):
            y = y * (two - self * y)
        return y

    def constant_term(self):
        """f_0(x): the image under u -> 0."""
        return self.coeffs[0]

    def mod_E(self):
        """Reduction modulo E(u), as an element of K (integral, pexp 0)."""
        _, rem = self.divrem_E(1)
        return KElem(self.cfg, tuple(rem), 0)

    def reduce_mod_p(self):
        """Image in k[u]/u^{ep}."""
        return TildePoly(self.cfg, tuple(a.residue() for a in self.coeffs))

    def degree(self):
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return -1


# ---------------------------------------------------------------------------
# tilde S_1 = k[u]/u^{ep}


class TildePoly(_Poly):
    """Element of k[u]/u^{ep}."""

    __slots__ = ()

    def _constant(self, c):
        return self.cfg.tilde([c])

    def __mul__(self, other):
        other = self._coerce(other)
        ep = self.cfg.e * self.cfg.p
        out = [self.cfg.gf.zero] * ep
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= ep:
                    break
                out[i + j] = out[i + j] + a * b
        return TildePoly(self.cfg, tuple(out))

    __rmul__ = __mul__

    def u_val(self):
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                return i
        return self.cfg.e * self.cfg.p

    def shift_u(self, k):
        ep = self.cfg.e * self.cfg.p
        out = [self.cfg.gf.zero] * min(k, ep) + list(self.coeffs[:ep - k])
        out += [self.cfg.gf.zero] * (ep - len(out))
        return TildePoly(self.cfg, tuple(out[:ep]))

    def div_exact_u(self, k):
        if k == 0:
            return self
        if any(not a.is_zero() for a in self.coeffs[:k]):
            raise DivisibilityError(f"not divisible by u^{k}")
        out = list(self.coeffs[k:]) + [self.cfg.gf.zero] * k
        return TildePoly(self.cfg, tuple(out))

    def is_unit(self):
        return not self.coeffs[0].is_zero()

    def unit_inverse(self):
        if not self.is_unit():
            raise DivisibilityError("not a unit of k[u]/u^{ep}")
        ep = self.cfg.e * self.cfg.p
        inv0 = self.coeffs[0].inverse()
        out = [self.cfg.gf.zero] * ep
        out[0] = inv0
        for n in range(1, ep):
            acc = self.cfg.gf.zero
            for i in range(1, n + 1):
                acc = acc + self.coeffs[i] * out[n - i]
            out[n] = -(inv0 * acc)
        return TildePoly(self.cfg, tuple(out))

    def phi(self):
        """Frobenius: x -> x^p on k, u -> u^p."""
        ep = self.cfg.e * self.cfg.p
        out = [self.cfg.gf.zero] * ep
        for i, a in enumerate(self.coeffs):
            if i * self.cfg.p >= ep:
                break
            if not a.is_zero():
                out[i * self.cfg.p] = a.frobenius()
        return TildePoly(self.cfg, tuple(out))

    def unit_part(self):
        """(u-valuation, unit cofactor); the cofactor of 0 is undefined."""
        v = self.u_val()
        if v == self.cfg.e * self.cfg.p:
            raise ZeroDivisionError("zero has no unit part")
        return v, self.div_exact_u(v)


# ---------------------------------------------------------------------------
# Prefix base: num / p^pexp


class _PExp:
    """``num / p^pexp``: a numerator with a power of p split off.

    The numerator (a ``WittElem``, ``_KNum`` or ``STrunc``) supplies +, -,
    *, ``scale_p``, ``is_zero``, ``min_prec`` and ``_coerce``; subclasses
    supply ``_new``.  Scalars and bare numerators enter with pexp 0."""

    __slots__ = ("num", "pexp")

    def _lift(self, other):
        if isinstance(other, _PExp):
            return other
        return self._new(self.num._coerce(other), 0)

    def _align(self, other):
        k = max(self.pexp, other.pexp)
        a = self.num.scale_p(k - self.pexp)
        b = other.num.scale_p(k - other.pexp)
        return a, b, k

    def __add__(self, other):
        a, b, k = self._align(self._lift(other))
        return self._new(a + b, k)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, k = self._align(self._lift(other))
        return self._new(a - b, k)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return self._new(-self.num, self.pexp)

    def __mul__(self, other):
        if isinstance(other, _PExp):
            return self._new(self.num * other.num, self.pexp + other.pexp)
        return self._new(self.num * other, self.pexp)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        if self.num.min_prec() - self.pexp < 1:
            raise PrecisionError("no significant digits below the p-prefix")
        return self.num.is_zero()

    def mul_p_power(self, k):
        """Multiply by p^k, k of either sign."""
        if k < 0 or self.pexp >= k:
            return self._new(self.num, self.pexp - k)
        return self._new(self.num.scale_p(k - self.pexp), 0)


# ---------------------------------------------------------------------------
# K0 and K = K0[u]/E(u)


class K0Elem(_PExp):
    """Element of K0 = Frac(W), stored as num / p^pexp with num in W."""

    __slots__ = ("ring",)

    def __init__(self, ring, w, pexp=0):
        self.ring = ring
        self.num = w
        self.pexp = pexp

    def _new(self, num, pexp):
        return K0Elem(self.ring, num, pexp)

    def val_p(self):
        """Valuation as a Fraction, or INF when zero at working precision."""
        v = self.num.val()
        if v == self.num.prec:
            return INF
        return Fraction(v - self.pexp)

    def inverse(self):
        v = self.num.val()
        if v == self.num.prec:
            raise ZeroDivisionError("zero at working precision")
        unit = self.num.div_exact_p(v).unit_inverse()
        pexp = v - self.pexp
        if pexp < 0:
            return K0Elem(self.ring, unit.scale_p(-pexp), 0)
        return K0Elem(self.ring, unit, pexp)

    def frobenius(self):
        return K0Elem(self.ring, self.num.frobenius(), self.pexp)

    def __repr__(self):
        return f"K0({self.num!r}/p^{self.pexp})"


class _KNum(_WPoly):
    """Numerator of a K element: a W-polynomial of degree < e mod E(u)."""

    __slots__ = ()

    def _constant(self, c):
        return self.cfg.k_elem([c]).num

    def __mul__(self, other):
        return self._mul_mod(other, self.cfg.E)

    __rmul__ = __mul__


class KElem(_PExp):
    """Element of K = K0[u]/E(u), stored as (degree-< e Witt poly) / p^pexp."""

    __slots__ = ("cfg",)

    def __init__(self, cfg, coeffs, pexp=0):
        self.cfg = cfg
        self.num = _KNum(cfg, coeffs)
        self.pexp = pexp

    def _new(self, num, pexp):
        out = KElem.__new__(KElem)
        out.cfg, out.num, out.pexp = self.cfg, num, pexp
        return out

    @property
    def coeffs(self):
        return self.num.coeffs

    def __pow__(self, n):
        return _power(self, n, self.cfg.k_one())

    def _mult_matrix(self):
        """Columns: coordinates of (num * u^j mod E), j < e."""
        cfg = self.cfg
        cols = [self.num]
        for _ in range(cfg.e - 1):
            cols.append(cols[-1]._mul_u_mod(cfg.E))
        return [[cols[j].coeffs[i] for j in range(cfg.e)]
                for i in range(cfg.e)]

    def norm(self):
        """Norm of the numerator down to W (determinant of multiplication)."""
        return det(self._mult_matrix())

    def val_p(self):
        """Valuation in (1/e)Z, or INF when zero at working precision."""
        if self.is_zero():
            return INF
        n = self.norm()
        v = n.val()
        if v == n.prec:
            return INF
        return Fraction(v, self.cfg.e) - self.pexp

    def inverse(self):
        cfg = self.cfg
        if self.is_zero():
            raise ZeroDivisionError("zero at working precision")
        M = self._mult_matrix()
        norm = det(M)
        d = norm.val()
        if d == norm.prec:
            raise PrecisionError("norm vanishes at working precision")
        unit_inv = norm.div_exact_p(d).unit_inverse()
        # first column of the adjugate: signed minors along the first row
        adj = []
        for i in range(cfg.e):
            minor = [[M[rr][cc] for cc in range(cfg.e) if cc != i]
                     for rr in range(1, cfg.e)]
            mdet = det(minor) if minor else cfg.witt.one()
            adj.append(mdet if i % 2 == 0 else -mdet)
        coeffs = tuple(a * unit_inv for a in adj)
        pexp = d - self.pexp
        if pexp < 0:
            coeffs = tuple(c.scale_p(-pexp) for c in coeffs)
            pexp = 0
        return KElem(cfg, coeffs, pexp)

    def to_integral(self):
        """The canonical Witt-coefficient representative (errors if not in O_K)."""
        return self.num.div_exact_p(self.pexp).coeffs

    def residue(self):
        """Image in the residue field k (requires valuation >= 0)."""
        return self.to_integral()[0].residue()

    def to_strunc(self):
        return self.cfg.s(list(self.to_integral()))

    def __repr__(self):
        return f"K({[c.coords for c in self.coeffs]}/p^{self.pexp})"


# ---------------------------------------------------------------------------
# Polynomials over K0 of degree < ep with a p-power prefix (inside S_{K0})


class SK0Elem(_PExp):
    """num / p^pexp with num in S/Fil^p S; enough of S_{K0} for troncation,
    monodromy, derivatives of honest polynomials, and reduction to K."""

    __slots__ = ("cfg",)

    def __init__(self, cfg, num, pexp=0):
        self.cfg = cfg
        self.num = num
        self.pexp = pexp

    def _new(self, num, pexp):
        return SK0Elem(self.cfg, num, pexp)

    @classmethod
    def from_strunc(cls, x):
        return cls(x.cfg, x, 0)

    def tronc(self, s):
        return SK0Elem(self.cfg, self.num.tronc(s), self.pexp)

    def monodromy(self):
        return SK0Elem(self.cfg, self.num.monodromy(), self.pexp)

    def derivative(self):
        return SK0Elem(self.cfg, self.num.derivative(), self.pexp)

    def mod_E(self):
        return KElem(self.cfg, self.num.mod_E().coeffs, self.pexp)

    def val_E(self):
        return self.num.val_E()

    def to_strunc(self):
        """Exact representative in S (errors when not integral)."""
        return self.num.div_exact_p(self.pexp)

    def __repr__(self):
        return f"SK0({self.num!r}/p^{self.pexp})"
