"""Exact arithmetic in the coefficient rings.

The scalars are ``F_{p^m} = F_p[w]/(hbar)`` (``GFElem``) and
``W = W(F_{p^m})``, realized as Z_p[w]/(h) at a fixed absolute precision
``p^N`` (``WittElem``) with the Frobenius sigma lifting x -> x^p.  Both
multiply coordinate tuples with one product mod (modulus, q).  ``WittRing``
keeps only the two coordinate-tuple operations that ``WittElem`` calls, the
product and the unit inverse; the Hensel root that defines sigma is found
with ``WittElem`` arithmetic.

Every other ring is built on one of two bases:

* ``_Poly``, a fixed-length polynomial over W or k.  It owns the coercion
  of constants, the reflected operators and ==.

  - ``TildePoly``: ``k[u]/u^n``, a tuple of n ``GFElem`` coefficients; the
    ring builds n = ep, the mod-p residue of ``STrunc``, and ``truncate``
    maps it onto a shorter k[u]/u^n.  Operands of one operation have one
    length.  It adds phi, which maps k[u]/u^n to k[u]/u^{ep} for n >= e,
    the u-valuation and division, and unit inversion.  The inverse runs on
    packed F_p[w] coordinates (``_pack``/``_unpack``, the one packer, shared
    with ``_Kernel``); the product, truncated at u^n, is still a loop of
    ``GFElem`` products until the benchmark's per-operation records are
    folded (ROADMAP item 4).
  - ``_WPoly``, over W, is stored in the layout of ``_Kernel``: flat int
    coordinates, each coefficient reduced mod p^prec, and a list of
    precisions.  Every operation runs on that form; ``.coeffs`` is a view
    that builds ``WittElem``s on each read.  A product is one
    Kronecker-packed bigint product over (u, w), whose packed operands are
    kept on the elements, and a reduction that loops over the nonzero
    coefficients of the monic modulus; both stop at the top nonzero
    coefficient, so the work follows operand degree.  It supplies +, -,
    negation, the zero test, multiplication and exact division by p^k,
    multiplication by a scalar of W, the reduced product and, for the
    multiplication matrix of K, the product by u.  Two rings use it:

    - ``STrunc``: ``S/Fil^p S ~ (W/p^N)[u]/E(u)^p``, the truncation of the
      divided-power ring S in which every formula of the package is
      stated.  It adds phi, the u-derivative, troncation, the E-adic
      valuation and division, reduction to K and mod p, and unit
      inversion.  ``divrem_E`` returns its quotient and remainder as
      elements of S, and ``div_exact_E`` returns that quotient.
    - ``_KNum``: a W-polynomial of degree < e reduced by E(u), the
      numerator of a K element.

* ``_PExp``, ``num / p^pexp``: a numerator with a power of p split off as
  an explicit prefix, so integrality stays decidable.  It owns the
  alignment of prefixes, +, -, negation, *, ==, ``is_zero`` and
  ``mul_p_power``.

  - ``K0Elem``: ``K0 = Frac(W)``, numerator a ``WittElem``.
  - ``KElem``: ``K = K0[u]/E(u)``, numerator a ``_KNum``; it adds the
    norm, the valuation and the inverse.

Precision model: every Witt coefficient carries an absolute precision
(number of significant p-digits) capped by the ring precision N.
Coefficient-wise operations report ``min`` of the input precisions,
multiplication by p gains one digit, and exact division by p costs one.
The product, the division by a monic modulus (the reduction of a product,
and ``divrem_E``) and phi follow the rules stated in ``_Kernel.mul``,
``_Kernel.reduce`` and ``STrunc.phi``.  A zero coefficient above the values
of a division is known to its own precision P, and from degree d up caps
all below it at P plus the least valuation of the modulus' lower
coefficients.  Predicates (zero tests, unit tests, valuations) answer for
the element *as known*; an element with no significant digits left raises
``PrecisionError`` instead of guessing.
"""

from __future__ import annotations

import itertools
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
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
    """Determinant of a small nonempty square matrix (see _cofactors)."""
    return _cofactors(rows)[0]


def _cofactors(rows):
    """(det, minors) of an n x n matrix: its expansion along the first row,
    and minors[cols], the determinant of rows 1..n-1 on the n - 1 columns
    cols ({} if n = 1).  Each lower-row minor is computed once, bottom up."""
    n = len(rows)
    if n == 1:
        return rows[0][0], {}
    a, b = rows[-2], rows[-1]   # the 2 x 2 minors, as the recursion forms them
    lower = {(0,): b[0], (1,): b[1]}    # replaced unless n = 2
    minors = {(i, j): a[i] * b[j] - a[j] * b[i]
              for i, j in itertools.combinations(range(n), 2)}
    for r in range(n - 3, -1, -1):
        lower, minors = minors, {}
        for cols in itertools.combinations(range(n), n - r):
            for j, c in enumerate(cols):
                term = rows[r][c] * lower[cols[:j] + cols[j + 1:]]
                acc = term if j == 0 else acc + (-term if j % 2 else term)
            minors[cols] = acc
    return minors[tuple(range(n))], lower


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


def _pack(flat, m, W):
    """Kronecker packing: nonnegative coordinates, m per coefficient, as one
    int of W-byte slots, 2m-1 slots per coefficient, so that a product of
    packed ints is the packed product over (u, w) before reduction by h."""
    b = [c.to_bytes(W, "little") for c in flat]
    if m > 1:
        z = bytes(W * (m - 1))
        b = [x for k in range(0, len(b), m) for x in (*b[k:k + m], z)]
    return int.from_bytes(b"".join(b), "little")


def _unpack(x, count, m, W, h):
    """The first count coefficients of a packed int (the rest truncated),
    each reduced by the monic modulus h of degree m: only the m - 1 high
    slots of a coefficient are taken off, from the top."""
    size = count * (2 * m - 1) * W
    buf = (x & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    s = [int.from_bytes(buf[k:k + W], "little") for k in range(0, size, W)]
    if m == 1:
        return s
    for top in range(2 * m - 2, len(s), 2 * m - 1):
        for k in range(top, top - m + 1, -1):
            if s[k]:
                for r in range(m):
                    s[k - m + r] -= s[k] * h[r]
    for w in range(2 * m - 1, m, -1):   # drop the high slots, top first
        del s[w - 1::w]
    return s


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
    for q in (q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)):
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
        mod = tuple(code // p ** i % p for i in range(m)) + (1,)
        if _gfp_is_irreducible(mod, p):
            return mod
    raise ConfigError(f"no irreducible degree-{m} polynomial found mod {p}")


class GF:
    """The residue field F_{p^m} with a fixed generator wbar."""

    def __init__(self, p, m, modulus):
        self.p, self.m, self.modulus = p, m, tuple(c % p for c in modulus)
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
        self.field, self.coords = field, coords

    def __add__(self, other):
        p = self.field.p
        return GFElem(self.field, tuple((a + b) % p for a, b in
                                        zip(self.coords, other.coords)))

    def __sub__(self, other):
        p = self.field.p
        return GFElem(self.field, tuple((a - b) % p for a, b in
                                        zip(self.coords, other.coords)))

    def __neg__(self):
        return GFElem(self.field, tuple(-a % self.field.p for a in self.coords))

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
        self.p, self.m, self.cap, self.pc = p, m, cap, p ** cap
        self.ppow = [p ** k for k in range(cap + 1)]
        if modulus is None:
            modulus = default_modulus(p, m)
        self.modulus = tuple(int(c) for c in modulus)
        if len(self.modulus) != m + 1 or self.modulus[m] != 1:
            raise ConfigError("Witt modulus must be monic of degree m")
        self.gf = GF(p, m, self.modulus)
        self._frob_pows = self._hensel_frobenius()

    # coordinate-tuple arithmetic of WittElem
    def _mul(self, a, b):
        return _coord_mul(a, b, self.modulus, self.pc)

    def _unit_inverse(self, a):
        res = self.gf.elem(tuple(c % self.p for c in a))
        y = tuple(c % self.pc for c in res.inverse().coords)
        steps = max(1, self.cap.bit_length() + 1)
        for _ in range(steps):
            ay = self._mul(a, y)
            y = self._mul(y, (2 - ay[0],) + tuple(-c for c in ay[1:]))
        return y

    def _hensel_frobenius(self):
        """Coordinates of sigma(w^i), i < m, where sigma(w) is the Hensel
        root of the modulus h congruent to w^p mod p: Newton's method from
        w^p at full precision, with h and h' evaluated by Horner's rule."""
        rho = self.gen() ** self.p
        for _ in range(self.cap + 2):
            val = dval = self.zero()
            for c in reversed(self.modulus):
                val, dval = val * rho + c, dval * rho + val
            if val.is_zero():
                break
            rho = rho - val * dval.unit_inverse()
        else:
            raise ConfigError("Frobenius root did not converge (modulus "
                              "not separable mod p?)")
        pows = [self.one()]
        for _ in range(self.m - 1):
            pows.append(pows[-1] * rho)
        return tuple(x.coords for x in pows)

    def _val(self, coords, prec):
        """p-adic valuation of coordinates known mod p^prec, clamped at prec."""
        if prec < 1:
            raise PrecisionError("element has no significant digits")
        p, q, best = self.p, self.p ** prec, prec
        for c in coords:
            c %= q
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                best = min(best, v)
        return best

    def _frobenius(self, coords):
        """Coordinates of sigma(x) mod p^cap."""
        acc = [0] * self.m
        for a, rp in zip(coords, self._frob_pows):
            if a:
                for s, c in enumerate(rp):
                    acc[s] += a * c
        return tuple(c % self.pc for c in acc)

    def _zero(self, flat, k, P):
        """Whether coefficient k of flat coordinates, known to P digits, is
        zero as known."""
        if P < 1:
            raise PrecisionError("element has no significant digits")
        q, m = self.ppow[P], self.m
        return not any(c % q for c in flat[k * m:k * m + m])

    def canon(self, flat, precs):
        """Flat coordinates (coefficient k at flat[k*m:(k+1)*m]), each
        reduced mod p^prec of its coefficient; zeros where flat is short."""
        qs = [self.ppow[P] if P > 0 else 1 for P in precs]
        pad = [0] * (len(precs) * self.m - len(flat))
        if self.m == 1:
            return [c % q for c, q in zip(flat, qs)] + pad
        return [c % qs[k // self.m] for k, c in enumerate(flat)] + pad

    def elems(self, flat, precs):
        """WittElems of canonical flat coordinates."""
        m = self.m
        return tuple(WittElem(self, tuple(flat[k * m:k * m + m]), P)
                     for k, P in enumerate(precs))

    def elem(self, value, prec=None):
        prec = self.cap if prec is None else min(prec, self.cap)
        if isinstance(value, int):
            coords = (value,) + (0,) * (self.m - 1)
        elif isinstance(value, GFElem):
            coords = value.coords
        else:
            coords = tuple(int(c) for c in value)
        if len(coords) != self.m:
            raise ValueError("wrong number of Witt coordinates")
        return self._reduced(coords, prec)

    def _reduced(self, coords, prec):
        """The WittElem of int coordinates reduced mod p^prec."""
        q = self.ppow[prec] if prec > 0 else 1
        return WittElem(self, tuple(c % q for c in coords), prec)

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
        self.ring, self.coords, self.prec = ring, coords, prec

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.elem(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return self.ring._reduced(map(operator.add, self.coords, other.coords),
                                  min(self.prec, other.prec))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self.ring._reduced(map(operator.sub, self.coords, other.coords),
                                  min(self.prec, other.prec))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return self.ring._reduced([-a for a in self.coords], self.prec)

    def __mul__(self, other):
        other = self._coerce(other)
        return self.ring._reduced(self.ring._mul(self.coords, other.coords),
                                  min(self.prec, other.prec))

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
        return self.ring._val(self.coords, self.prec)

    def is_zero(self):
        return self.val() == self.prec

    def min_prec(self):
        return self.prec

    def is_unit(self):
        return self.val() == 0

    def unit_inverse(self):
        if not self.is_unit():
            raise DivisibilityError("not a unit in W")
        return self.ring._reduced(self.ring._unit_inverse(self.coords),
                                  self.prec)

    def div_exact_p(self, k=1):
        """Exact division by p^k; costs k digits of precision."""
        if k == 0:
            return self
        if self.prec - k < 1:
            raise PrecisionError("division by p exhausts the precision")
        pk, q = self.ring.p ** k, self.ring.p ** self.prec
        if any(c % q % pk for c in self.coords):
            raise DivisibilityError("coordinate not divisible by p^k")
        return WittElem(self.ring, tuple(c % q // pk for c in self.coords),
                        self.prec - k)

    def scale_p(self, k):
        """Multiply by p^k (k >= 0); gains k digits up to the ring cap."""
        pk = self.ring.p ** k
        return self.ring._reduced([c * pk for c in self.coords],
                                  min(self.prec + k, self.ring.cap))

    def frobenius(self):
        """sigma(x): the unique lift of x -> x^p on the residue field."""
        return self.ring._reduced(self.ring._frobenius(self.coords), self.prec)

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
        self.p, self.m, self.e, self.r, self.prec = p, m, e, r, prec
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
        self._kernels = {}
        self._c = self._s_E = self._Eprime = None

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

    def _kernel(self, s):
        """The int kernel of the modulus E(u)^s, built on first use."""
        if s not in self._kernels:
            self._kernels[s] = _Kernel(self, self._E_power(s))
        return self._kernels[s]

    # element factories ----------------------------------------------------

    def w(self, value, prec=None):
        return self.witt.elem(value, prec)

    def _flat(self, coeffs, n, what):
        """Flat coordinates and precisions of Witt/int coefficients (low
        degree first), padded with exact zeros to n coefficients."""
        flat, precs = [], []
        for c in coeffs:
            c = self._as_witt(c)
            flat += c.coords
            precs.append(c.prec)
        return self._pad(flat, precs, n, what)

    def _pad(self, flat, precs, n, what="degree must be < ep"):
        pad = n - len(precs)
        if pad < 0:
            raise ValueError(what)
        return flat + [0] * (pad * self.m), precs + [self.prec] * pad

    def s(self, coeffs):
        """STrunc from a list of Witt/int coefficients (low degree first)."""
        return STrunc(self, *self._flat(coeffs, self.e * self.p,
                                        "degree must be < ep"))

    def s_zero(self):
        return self.s([])

    def s_one(self):
        return self.s([1])

    def s_E(self):
        """E(u) in S, built once so that its packed form is reused."""
        if self._s_E is None:
            self._s_E = self.s(self.E)
        return self._s_E

    @property
    def c(self):
        """phi(E(u))/p, a unit of S."""
        if self._c is None:
            self._c = self.s_E().phi().div_exact_p(1)
        return self._c

    def Eprime_pi(self):
        """E'(pi) in K and its inverse, built once."""
        if self._Eprime is None:
            d = self.s_E().derivative().mod_E()
            self._Eprime = (d, d.inverse())
        return self._Eprime

    def tilde(self, coeffs):
        ep = self.e * self.p
        out = [c if isinstance(c, GFElem) else self.gf.elem(c) for c in coeffs]
        if len(out) > ep:
            raise ValueError("degree must be < ep")
        return TildePoly(self, tuple(out + [self.gf.zero] * (ep - len(out))))

    def tilde_zero(self):
        return self.tilde([])

    def tilde_one(self):
        return self.tilde([1])

    def tilde_u(self, k=1):
        if k >= self.e * self.p:
            return self.tilde([])
        return self.tilde([0] * k + [1])

    def k_elem(self, coeffs, pexp=0):
        return KElem(self, _KNum(self, *self._flat(
            coeffs, self.e, "K elements have degree < e")), pexp)

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
        return self.k0(self.witt.elem(num) * self.witt.elem(den).unit_inverse(),
                       vd)

    def teichmuller_generator(self):
        """Teichmuller lift of the residue-field generator wbar."""
        return self.witt.teichmuller(self.gf.gen())

    def __repr__(self):
        return (f"RingConfig(p={self.p}, m={self.m}, e={self.e}, r={self.r}, "
                f"prec={self.prec})")


# ---------------------------------------------------------------------------
# Polynomial base: fixed-length coefficient lists over W or k


class _Poly:
    """A fixed-length polynomial over W or k.

    Subclasses give the storage, ``_zip`` (a coefficient-wise operation),
    the other ring operations and ``_constant`` (a scalar as an element)."""

    __slots__ = ("cfg",)

    def _coerce(self, other):
        return other if isinstance(other, _Poly) else self._constant(other)

    def __add__(self, other):
        return self._zip(self._coerce(other), operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(self._coerce(other), operator.sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"{type(self).__name__}({[c.coords for c in self.coeffs]})"


class _Kernel:
    """The int kernel of (W/p^N)[u]/(M), M a monic W-polynomial of degree d:
    E^p for ``STrunc``, E for ``_KNum``.

    Coefficient lists are flat, coefficient k being the coordinates
    ``flat[k*m:(k+1)*m]``, with a separate list of precisions.  Operands of
    a product are canonical (``WittRing.canon``); the lists ``reduce`` works
    on need not be.  A product is one Kronecker-packed bigint product over
    (u, w); the reduction by M loops over the nonzero coefficients of M.
    The work follows the degree of the operands: only the coefficients up
    to the top nonzero one are packed, unpacked and reduced.  A zero above
    them is known to its own precision P; from degree d up it caps all
    below it at P + mv."""

    def __init__(self, cfg, coeffs):
        witt = self.witt = cfg.witt
        self.N, self.m, self.pc = cfg.prec, witt.m, witt.pc
        self.d = len(coeffs) - 1
        self.mv = min(c.val() for c in coeffs[:-1])
        # terms[t]: (offset, v) pairs; coordinate t of a quotient coefficient
        # c at u^j adds c_t * v to flat[j*m + offset]
        self.terms = [[(i * self.m + s, v) for i, c in enumerate(coeffs[:-1])
                       for s, v in enumerate(_coord_mul(
                           tuple(int(r == t) for r in range(self.m)), c.coords,
                           witt.modulus, self.pc)) if v]
                      for t in range(self.m)]
        # bytes per packed slot: a slot sums at most d*m terms below pc^2
        self.W = (self.d * self.m * self.pc ** 2).bit_length() // 8 + 1
        self._powers = None

    def reduce(self, flat, precs, cap):
        """Division by M of (flat, precs) with at most cap digits known:
        returns (flat, precs) whose first d coefficients are the remainder
        and whose coefficient d + j is the quotient's u^j.  ``flat``, changed
        in place, may be shorter than ``precs``; it lacks only zeros.

        From the top down, each quotient coefficient is zero-tested at its
        running precision.  A nonzero one is taken off with M and passes its
        precision to the d coefficients below it; a zero one is skipped and
        caps all below it at its precision plus the least valuation of the
        lower coefficients of M.  Nothing is passed down to the zeros above
        the values, so each is known to its own precision P: it reads
        min(P, cap), and from degree d up it caps the rest at P + mv."""
        m, d, pc, mv, zero = self.m, self.d, self.pc, self.mv, self.witt._zero
        out, n = list(precs), len(flat) // m
        for k in range(len(precs) - 1, n - 1, -1):
            P = out[k] = precs[k]
            if P > cap:
                out[k] = cap
            if k >= d:
                if P < 1:
                    raise PrecisionError("element has no significant digits")
                cap = min(cap, P + mv)
        passed = []         # (degree, precision) passed down, increasing
        for k in range(n - 1, -1, -1):
            while passed and passed[0][0] > k + d:
                passed.pop(0)
            P = min(precs[k], passed[0][1]) if passed else precs[k]
            out[k] = min(P, cap)
            if k < d:
                continue
            if zero(flat, k, P):
                cap = min(cap, P + mv)
                continue
            for t in range(m):
                c = flat[k * m + t] % pc
                for off, v in self.terms[t] if c else ():
                    flat[(k - d) * m + off] -= c * v
            while passed and passed[-1][1] >= P:
                passed.pop()
            passed.append((k, P))
        return flat, out

    def mul(self, a, b):
        """The reduced product of two ``_WPoly`` operands of d coefficients,
        as canonical (flat, precs).

        Raw coefficient k knows the least precision among the pairs i + j = k
        whose a_i is not zero as known, over all 2d - 1 raw coefficients
        (zeros of b included); a zero a_i known to fewer than N digits caps
        the product at its precision plus the least valuation of b."""
        N, m, d = self.N, self.m, self.d
        fa, pa, fb, pb = a.flat, a.precs, b.flat, b.precs
        if min(pa) < 1:
            raise PrecisionError("element has no significant digits")
        (xa, la), (xb, lb) = a._packed_by(self), b._packed_by(self)
        nz = [i for i in range(la) if any(fa[i * m:i * m + m])]
        mask = sum(1 << i for i in nz)
        low = min([P for i, P in enumerate(pa) if P < N and not mask >> i & 1],
                  default=N)
        cap = N if low >= N else min(N, low + min([self.witt._val(
            fb[j * m:j * m + m], Q) for j, Q in enumerate(pb[:lb])] + [
            self.witt._val((), min(pb[lb:], default=N))]))  # b's top zeros
        flat = _unpack(xa * xb, max(la + lb - 1, 0), m, self.W,
                       self.witt.modulus)
        # each precision below N marks the raw coefficients it reaches;
        # the least one marking a coefficient is its precision
        reach = {}
        for i in nz:
            reach[pa[i]] = reach.get(pa[i], 0) | ((1 << d) - 1) << i
        for j, Q in enumerate(pb):
            reach[Q] = reach.get(Q, 0) | mask << j
        precs, done = [N] * (2 * d - 1), 0
        for P in sorted(P for P in reach if P < N):
            bits, done = reach[P] & ~done, done | reach[P]
            while bits:
                k = bits.bit_length() - 1
                precs[k], bits = P, bits ^ 1 << k
        flat, precs = self.reduce(flat, precs, cap)
        return self.witt.canon(flat[:d * m], precs[:d]), precs[:d]

    def powers(self):
        """Packed u^(p*i) mod M at full precision, i < d (built once)."""
        if self._powers is None:
            N, d, m, p = self.N, self.d, self.m, self.witt.p
            vec, self._powers = [1] + [0] * (d * m - 1), []
            for _ in range(d):
                self._powers.append(_pack([c % self.pc for c in vec], m,
                                          self.W))
                vec = self.reduce([0] * (p * m) + vec, [N] * (d + p),
                                  N)[0][:d * m]
        return self._powers


class _WPoly(_Poly):
    """A ``_Poly`` over W in the kernel's layout: flat int coordinates, each
    coefficient reduced mod p^prec, and the list of precisions; ``coeffs``
    is a view.  The packed coordinates are kept after a first product."""

    __slots__ = ("flat", "precs", "_packed", "_len")

    def __init__(self, cfg, flat, precs=None):
        if precs is None:       # a sequence of Witt/int coefficients
            flat, precs = cfg._flat(flat, len(flat), None)
        self.cfg, self.flat, self.precs = cfg, flat, precs
        self._packed = self._len = None

    def _new(self, flat, precs):
        return type(self)(self.cfg, flat, precs)

    def _map(self, flat, precs):
        """A new element from coordinates not yet reduced mod p^prec."""
        return self._new(self.cfg.witt.canon(flat, precs), precs)

    def _sig(self):
        """The flat coordinates up to the top nonzero coefficient (_len)."""
        if self._len is None:
            k = len(self.flat)
            while k and not self.flat[k - 1]:
                k -= 1
            self._len = -(-k // self.cfg.m)
        return self.flat[:self._len * self.cfg.m]

    def _packed_by(self, kernel):
        """The packed coefficients up to the top nonzero one, and _len."""
        if self._packed is None:
            self._packed = _pack(self._sig(), kernel.m, kernel.W)
        return self._packed, self._len

    @property
    def coeffs(self):
        return self.cfg.witt.elems(self.flat, self.precs)

    def _zip(self, other, op):
        return self._map(list(map(op, self.flat, other.flat)),
                         list(map(min, self.precs, other.precs)))

    def __neg__(self):
        return self._map([-c for c in self.flat], self.precs)

    def is_zero(self):
        if min(self.precs) >= 1:
            return not any(self.flat)
        zero = self.cfg.witt._zero
        return all(zero(self.flat, k, P) for k, P in enumerate(self.precs))

    def min_prec(self):
        return min(self.precs)

    def constant_term(self):
        """f_0(x): the image under u -> 0."""
        return self.cfg.witt.elems(self.flat[:self.cfg.m], self.precs[:1])[0]

    def scale_p(self, k):
        """Multiply by p^k (k >= 0); gains k digits up to the ring cap."""
        if k == 0:
            return self
        N, pk = self.cfg.prec, self.cfg.p ** k
        return self._map([c * pk for c in self.flat],
                         [min(P + k, N) for P in self.precs])

    def div_exact_p(self, k=1):
        """Exact division by p^k; costs k digits of precision."""
        if k == 0:
            return self
        flat, precs, pk, m = self.flat, self.precs, self.cfg.p ** k, self.cfg.m
        if min(precs) - k < 1 or any(c % pk for c in flat):
            for i, P in enumerate(precs):
                if P - k < 1:
                    raise PrecisionError("division by p exhausts the precision")
                if any(c % pk for c in flat[i * m:i * m + m]):
                    raise DivisibilityError("coordinate not divisible by p^k")
        return self._new([c // pk for c in flat], [P - k for P in precs])

    def mul_w(self, w):
        """Multiply every coefficient by an element (or integer) of W."""
        witt, m = self.cfg.witt, self.cfg.m
        if isinstance(w, int):
            w = witt.elem(w)
        flat = [c for k in range(0, len(self.flat), m) for c in _coord_mul(
            self.flat[k:k + m], w.coords, witt.modulus, witt.pc)]
        return self._map(flat, [min(P, w.prec) for P in self.precs])

    def _mul_mod(self, other, kernel):
        """self * other reduced by the kernel's modulus; a scalar of W
        multiplies every coefficient."""
        if not isinstance(other, _Poly):
            return self.mul_w(other)
        return self._new(*kernel.mul(self, other))

    def _mul_u_mod(self, kernel):
        """self * u reduced by the kernel's modulus."""
        m, N, d = kernel.m, kernel.N, kernel.d
        flat, precs = kernel.reduce([0] * m + self._sig(), [N] + self.precs,
                                    N)
        return self._map(flat[:d * m], precs[:d])


# ---------------------------------------------------------------------------
# S/Fil^p S = (W/p^N)[u]/E(u)^p


class STrunc(_WPoly):
    """Element of S/Fil^p S, stored as the degree-< ep representative."""

    __slots__ = ()

    def _constant(self, c):
        return self.cfg.s([c])

    def __mul__(self, other):
        return self._mul_mod(other, self.cfg._kernel(self.cfg.p))

    __rmul__ = __mul__

    def phi(self):
        """The semilinear Frobenius: sigma on W, u -> u^p.

        The value is sum_i sigma(a_i) (u^{p i} mod E^p), from the kernel's
        table; the digits are those Horner's rule over the product knows.
        For e >= 2, u^p is a monomial, so each Horner step spreads the
        precision of its constant term to every coefficient, or caps them
        all at it.  For e = 1, u^p mod E^p is p^2 times a polynomial, and
        the zero skips grant digits that depend on each partial sum, so
        Horner's rule runs on the kernel."""
        cfg = self.cfg
        kernel = cfg._kernel(cfg.p)
        m, n, N, W = kernel.m, kernel.d, kernel.N, kernel.W
        flat, precs, h = self._sig(), self.precs, cfg.witt.modulus
        sig = [c for k in range(0, len(flat), m)
               for c in cfg.witt._frobenius(flat[k:k + m])]
        powers = kernel.powers()
        if cfg.e == 1:
            up = self._map(_unpack(powers[1], n, m, W, h), [N] * n)
            acc = cfg.s_zero()
            for k in range(n - 1, -1, -1):
                acc = acc._mul_mod(up, kernel) + self._map(
                    *cfg._pad(sig[k * m:k * m + m], precs[k:k + 1], n))
            return acc
        low = min(precs[1:])
        if low < 1:
            raise PrecisionError("element has no significant digits")
        total = 0
        for k, (P, power) in enumerate(zip(precs[:self._len], powers)):
            if P > 0 and any(flat[k * m:k * m + m]):
                total += _pack(sig[k * m:k * m + m], m, W) * power
        return self._map(_unpack(total, n, m, W, h),
                         [min(low, precs[0])] + [low] * (n - 1))

    def derivative(self):
        """u-derivative of the canonical degree-< ep representative."""
        m = self.cfg.m
        return self._map([(k // m) * c for k, c in enumerate(self.flat)][m:] +
                         [0] * m, self.precs[1:] + [self.cfg.prec])

    def _divrem(self, s):
        """Division by E(u)^s: canonical (flat, precs, d), coefficients < d
        the remainder and coefficient d + j the quotient's u^j."""
        kernel = self.cfg._kernel(s)
        flat, precs = kernel.reduce(self._sig(), self.precs, self.cfg.prec)
        return self.cfg.witt.canon(flat, precs), precs, kernel.d

    def divrem_E(self, s):
        """Quotient and remainder by E(u)^s (monic of degree es), as
        elements of S; the remainder has degree < es, above which it is
        zeros known to full precision."""
        flat, precs, d = self._divrem(s)
        cfg, m, n = self.cfg, self.cfg.m, len(precs)
        return (STrunc(cfg, *cfg._pad(flat[d * m:], precs[d:], n)),
                STrunc(cfg, *cfg._pad(flat[:d * m], precs[:d], n)))

    def tronc(self, s):
        """The degree-< es representative modulo E(u)^s."""
        cfg = self.cfg
        if not 1 <= s < cfg.p:
            raise ValueError("troncation level must be in [1, p)")
        flat, precs, d = self._divrem(s)
        return STrunc(cfg, *cfg._pad(flat[:d * cfg.m], precs[:d],
                                     len(self.precs)))

    def val_E(self):
        """Largest i <= p with E(u)^i dividing the representative (p if zero):
        repeated division by E on the int kernel."""
        cfg = self.cfg
        if self.is_zero():
            return cfg.p
        kernel, e, zero = cfg._kernel(1), cfg.e, cfg.witt._zero
        flat, precs = self._sig(), self.precs
        for v in range(cfg.p):
            flat, precs = kernel.reduce(flat, precs, cfg.prec)
            if not all(zero(flat, k, P) for k, P in enumerate(precs[:e])):
                return v
            flat = flat[e * kernel.m:]
            precs = precs[e:] + [cfg.prec] * e
            if all(zero(flat, k, P) for k, P in enumerate(precs)):
                break
        return cfg.p

    def div_exact_E(self, s):
        if s == 0:
            return self
        quot, rem = self.divrem_E(s)
        if not rem.is_zero():
            raise DivisibilityError(f"not divisible by E(u)^{s}")
        return quot

    def val_p(self):
        witt, m, flat = self.cfg.witt, self.cfg.m, self.flat
        return min(witt._val(flat[k * m:k * m + m], P)
                   for k, P in enumerate(self.precs))

    def is_unit(self):
        """Unit in the local ring (W/p^N)[u]/E(u)^p: unit constant term."""
        return self.cfg.witt._val(self.flat[:self.cfg.m], self.precs[0]) == 0

    def unit_inverse(self):
        if not self.is_unit():
            raise DivisibilityError("not a unit of S/Fil^p S")
        cfg = self.cfg
        y = cfg.s([self.constant_term().unit_inverse()])
        two = cfg.s([2])
        steps = max(1, (cfg.prec + cfg.e * cfg.p).bit_length() + 1)
        for _ in range(steps):
            nxt = y * (two - self * y)
            # the step depends on y alone: once it returns y, no later
            # step changes it
            if nxt.flat == y.flat and nxt.precs == y.precs:
                return nxt
            y = nxt
        return y

    def mod_E(self):
        """Reduction modulo E(u), as an element of K (integral, pexp 0)."""
        flat, precs, d = self._divrem(1)
        return KElem(self.cfg, _KNum(self.cfg, flat[:d * self.cfg.m],
                                     precs[:d]), 0)

    def reduce_mod_p(self):
        """Image in k[u]/u^{ep}."""
        if min(self.precs) < 1:
            raise PrecisionError("no digits to read a residue from")
        gf, m, p, flat = self.cfg.gf, self.cfg.m, self.cfg.p, self.flat
        return TildePoly(self.cfg, tuple(
            GFElem(gf, tuple(c % p for c in flat[k:k + m]))
            for k in range(0, len(flat), m)))

    def degree(self):
        for i in range(len(self.precs) - 1, -1, -1):
            if not self.cfg.witt._zero(self.flat, i, self.precs[i]):
                return i
        return -1


# ---------------------------------------------------------------------------
# tilde S_1 = k[u]/u^{ep}


class TildePoly(_Poly):
    """Element of k[u]/u^n: a tuple of n ``GFElem`` coefficients.  The ring
    builds n = ep, the mod-p residue of ``STrunc``; ``truncate`` gives the
    image in a shorter k[u]/u^n.  Operands of a ring operation have one
    length.  ``phi`` maps k[u]/u^n to k[u]/u^{ep} for n >= e."""

    __slots__ = ("coeffs",)

    def __init__(self, cfg, coeffs):
        self.cfg, self.coeffs = cfg, coeffs

    def _constant(self, c):
        return self.cfg.tilde([c]).truncate(len(self.coeffs))

    def _length_error(self, other):
        return ValueError(f"operands in k[u]/u^{len(self.coeffs)} and "
                          f"k[u]/u^{len(other.coeffs)}")

    def _zip(self, other, op):
        if len(other.coeffs) != len(self.coeffs):
            raise self._length_error(other)
        return TildePoly(self.cfg, tuple(map(op, self.coeffs, other.coeffs)))

    def __neg__(self):
        return TildePoly(self.cfg, tuple(-a for a in self.coeffs))

    def is_zero(self):
        return all(a.is_zero() for a in self.coeffs)

    def monodromy(self):
        """N(u^n) = -n u^n, extended coefficient-linearly."""
        return TildePoly(self.cfg, tuple(a * (-i) for i, a in
                                         enumerate(self.coeffs)))

    def __mul__(self, other):
        other = self._coerce(other)
        n = len(self.coeffs)
        if len(other.coeffs) != n:
            raise self._length_error(other)
        out = [self.cfg.gf.zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] = out[i + j] + a * b
        return TildePoly(self.cfg, tuple(out))

    __rmul__ = __mul__

    def truncate(self, n):
        """The image in k[u]/u^n, n <= the length."""
        if n > len(self.coeffs):
            raise ValueError(f"cannot truncate k[u]/u^{len(self.coeffs)} "
                             f"to u^{n}")
        return TildePoly(self.cfg, self.coeffs[:n])

    def u_val(self):
        return next((i for i, a in enumerate(self.coeffs) if not a.is_zero()),
                    len(self.coeffs))

    def shift_u(self, k):
        n = len(self.coeffs)
        out = [self.cfg.gf.zero] * min(k, n) + list(self.coeffs[:n - k])
        out += [self.cfg.gf.zero] * (n - len(out))
        return TildePoly(self.cfg, tuple(out[:n]))

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
        """Newton iteration y <- y (2 - x y) mod u^k, k doubling up to the
        length n, from the inverse of the constant term.  Each product is
        one packed bigint product of F_p[w] coordinates, reduced by hbar and
        mod p."""
        if not self.is_unit():
            raise DivisibilityError(f"not a unit of k[u]/u^{len(self.coeffs)}")
        cfg, gf, m, p = self.cfg, self.cfg.gf, self.cfg.m, self.cfg.p
        n = len(self.coeffs)
        W = (n * m * p * p).bit_length() // 8 + 1

        def mul(a, b, k):
            return [c % p for c in _unpack(_pack(a, m, W) * _pack(b, m, W),
                                           k, m, W, gf.modulus)]

        x = [c for a in self.coeffs for c in a.coords]
        y, k = list(self.coeffs[0].inverse().coords), 1
        while k < n:
            k = min(2 * k, n)
            t = [-c % p for c in mul(x[:k * m], y, k)]
            t[0] = (t[0] + 2) % p
            y = mul(y, t, k)
        return TildePoly(cfg, tuple(GFElem(gf, tuple(y[i:i + m]))
                                    for i in range(0, n * m, m)))

    def phi(self):
        """Frobenius: x -> x^p on k, u -> u^p, into k[u]/u^{ep}; it reads
        only the coefficients below u^e."""
        p, e = self.cfg.p, self.cfg.e
        out = [self.cfg.gf.zero] * (e * p)
        for i, a in enumerate(self.coeffs[:e]):
            if not a.is_zero():
                out[i * p] = a.frobenius()
        return TildePoly(self.cfg, tuple(out))

    def unit_part(self):
        """(u-valuation, unit cofactor); the cofactor of 0 is undefined."""
        v = self.u_val()
        if v == len(self.coeffs):
            raise ZeroDivisionError("zero has no unit part")
        return v, self.div_exact_u(v)


# ---------------------------------------------------------------------------
# Prefix base: num / p^pexp


class _PExp:
    """``num / p^pexp``: a numerator with a power of p split off.

    The numerator (a ``WittElem`` or a ``_KNum``) supplies +, -,
    *, ``scale_p``, ``is_zero``, ``min_prec`` and ``_coerce``; subclasses
    supply ``_new``.  Scalars and bare numerators enter with pexp 0."""

    __slots__ = ("num", "pexp")

    def _lift(self, other):
        if isinstance(other, _PExp):
            return other
        return self._new(self.num._coerce(other), 0)

    def _align(self, other):
        k = max(self.pexp, other.pexp)
        return self.num.scale_p(k - self.pexp), other.num.scale_p(
            k - other.pexp), k

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
        self.ring, self.num, self.pexp = ring, w, pexp

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
        return self._new(unit, 0).mul_p_power(self.pexp - v)

    def frobenius(self):
        return self._new(self.num.frobenius(), self.pexp)

    def __repr__(self):
        return f"K0({self.num!r}/p^{self.pexp})"


class _KNum(_WPoly):
    """Numerator of a K element: a W-polynomial of degree < e mod E(u)."""

    __slots__ = ()

    def _constant(self, c):
        return self.cfg.k_elem([c]).num

    def __mul__(self, other):
        return self._mul_mod(other, self.cfg._kernel(1))

    __rmul__ = __mul__


class KElem(_PExp):
    """Element of K = K0[u]/E(u), stored as (degree-< e Witt poly) / p^pexp."""

    __slots__ = ("cfg",)

    def __init__(self, cfg, num, pexp=0):
        self.cfg, self.num, self.pexp = cfg, num, pexp

    def _new(self, num, pexp):
        return KElem(self.cfg, num, pexp)

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
            cols.append(cols[-1]._mul_u_mod(cfg._kernel(1)))
        cols = [c.coeffs for c in cols]
        return [[cols[j][i] for j in range(cfg.e)] for i in range(cfg.e)]

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
        norm, minors = _cofactors(self._mult_matrix())
        d = norm.val()
        if d == norm.prec:
            raise PrecisionError("norm vanishes at working precision")
        unit_inv = norm.div_exact_p(d).unit_inverse()
        # first column of the adjugate: signed minors along the first row
        cols = range(cfg.e)
        adj = [minors[tuple(c for c in cols if c != i)] for i in cols] \
            if minors else [cfg.witt.one()]
        return cfg.k_elem([(-a if i % 2 else a) * unit_inv
                           for i, a in enumerate(adj)]).mul_p_power(
            self.pexp - d)

    def residue(self):
        """Image in the residue field k (requires valuation >= 0)."""
        return self.num.div_exact_p(self.pexp).constant_term().residue()

    def to_strunc(self):
        num, cfg = self.num.div_exact_p(self.pexp), self.cfg
        return STrunc(cfg, *cfg._pad(num.flat, num.precs, cfg.e * cfg.p))

    def __repr__(self):
        return f"K({[c.coords for c in self.coeffs]}/p^{self.pexp})"
