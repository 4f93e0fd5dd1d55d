"""Elementary-divisor exponents over the three "principal" carriers and
the dictionary turning exponents into Hodge weights.

Carriers: (W/p^N)[u]/E(u)^p with maximal element E(u); k[u]/u^{ep}, or a
shorter k[u]/u^n, with u; and W/p^N with p.  Each carrier's ``val``
returns at most its ``cap``, the valuation of zero, so callers read it
without clamping.  In each carrier, the exponents
n_1 <= ... <= n_d of a submodule containing the r-th power of the maximal
element (the exponents of an adapted basis) are characterized by
n_1 + ... + n_k = (smallest valuation of a k x k minor of a generator
matrix).  The production path is a Smith-style reduction with a
minimal-valuation pivot; exhaustive minor enumeration is kept alongside as
the independent oracle.  Only the exponents are read: the pipeline never
needs the adapted basis itself.

The reduction has two branches.  The E and p carriers, whose elements carry
p-adic precision, reduce fraction-free, which spends no digit that the
minors keep.  k[u]/u^n, where arithmetic is exact, normalizes each pivot to
u^v, which is faster.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import det


class ECarrier:
    """(W/p^N)[u]/E(u)^p with maximal element E(u); valuations clamp at p.

    Cofactors of E-valuation 0 (such as p + tE) are units of K0[u]/E^p but
    not of this integral model (their inverses have p-denominators that
    grow with the E-degree), so pivots here are never normalized.
    """

    name = "E"
    fraction_free = True

    def __init__(self, cfg):
        self.cfg = cfg
        self.cap = cfg.p

    def zero(self):
        return self.cfg.s_zero()

    def one(self):
        return self.cfg.s_one()

    def val(self, x):
        return x.val_E()

    def shift_div(self, x, n):
        return x.div_exact_E(n)

    def pi_power(self, n):
        if n >= self.cap:
            return self.cfg.s_zero()
        return self.cfg.s(list(self.cfg._E_power(n)))


class UCarrier:
    """k[u]/u^n with maximal element u, n = ep unless given (1 <= n <= ep);
    valuations clamp at n, the cap, and elements have length n."""

    name = "u"
    fraction_free = False

    def __init__(self, cfg, n=None):
        ep = cfg.e * cfg.p
        if n is not None and not 1 <= n <= ep:
            raise ValueError(f"k[u]/u^n needs 1 <= n <= ep = {ep}, got {n}")
        self.cfg = cfg
        self.cap = ep if n is None else n

    def zero(self):
        return self.cfg.tilde_zero().truncate(self.cap)

    def one(self):
        return self.cfg.tilde_one().truncate(self.cap)

    def val(self, x):
        return x.u_val()

    def shift_div(self, x, n):
        return x.div_exact_u(n)

    def pi_power(self, n):
        return self.cfg.tilde_u(n).truncate(self.cap)


class PCarrier:
    """W/p^N with maximal element p; valuations clamp at the precision, and
    an element that vanishes at its own (possibly reduced) precision counts
    as zero."""

    name = "p"
    fraction_free = True

    def __init__(self, cfg):
        self.cfg = cfg
        self.cap = cfg.prec

    def zero(self):
        return self.cfg.witt.zero()

    def one(self):
        return self.cfg.witt.one()

    def val(self, x):
        v = x.val()
        return self.cap if v >= x.prec else v

    def shift_div(self, x, n):
        return x.div_exact_p(n) if n else x

    def pi_power(self, n):
        if n >= self.cap:
            return self.cfg.witt.zero()
        return self.cfg.witt.elem(self.cfg.p ** n)


def carrier_by_name(cfg, name):
    table = {"E": ECarrier, "u": UCarrier, "p": PCarrier}
    if name not in table:
        raise ValueError(f"unknown carrier {name!r} (expected E, u or p)")
    return table[name](cfg)


def minor_exponents(rows, carrier):
    """Exponents read off minimal k x k minor valuations (the oracle path).

    ``rows`` is a d x D matrix of carrier elements, d <= D.  Exponential in
    d; intended for d <= 4.
    """
    from itertools import combinations

    d = len(rows)
    D = len(rows[0]) if d else 0
    if d > D:
        raise ValueError("need at least as many generators as the rank")
    if d > 4:
        raise ValueError("minor enumeration is restricted to d <= 4")
    mins = []
    for k in range(1, d + 1):
        best = carrier.cap
        for rsel in combinations(range(d), k):
            for csel in combinations(range(D), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                best = min(best, carrier.val(det(sub)))
                if best == 0 and k == 1:
                    break
        mins.append(best)
    out = []
    prev = 0
    for k, mk in enumerate(mins):
        if mk >= carrier.cap:
            out.append(carrier.cap)
        else:
            out.append(mk - prev)
        prev = mk
    return out


def divisor_exponents(rows, carrier):
    """Elementary-divisor exponents n_1 <= ... <= n_d (reduction path):
    diagonalize by row/column operations with minimal-valuation pivots and
    return the sorted pivot valuations (carrier.cap for an exhausted
    matrix).

    Fraction-free carriers (E and p) are cleared by cross-multiplication:
    the target row or column is scaled by the pivot's cofactor w_s, so each
    remaining entry w_s*a - w_i*b is a 2 x 2 minor divided by pi^v and keeps
    that minor's digits less v.  Normalizing the pivot row to pi^v would
    instead spend v digits on the scaling and v more on clearing columns
    through the zeros it has just made.  k[u]/u^n loses no digit either
    way, so it normalizes.
    """
    d = len(rows)
    D = len(rows[0]) if d else 0
    M = [list(r) for r in rows]
    pivot_vals = []
    for s in range(min(d, D)):
        best, bi, bj = carrier.cap, None, None
        for i in range(s, d):
            for j in range(s, D):
                v = carrier.val(M[i][j])
                if v < best:
                    best, bi, bj = v, i, j
        if bi is None:
            pivot_vals.append(carrier.cap)
            continue
        if bi != s:
            M[s], M[bi] = M[bi], M[s]
        if bj != s:
            for row in M:
                row[s], row[bj] = row[bj], row[s]
        v = best
        if carrier.fraction_free:
            ws = carrier.shift_div(M[s][s], v)
            for i in range(d):
                if i == s or carrier.val(M[i][s]) >= carrier.cap:
                    continue
                wi = carrier.shift_div(M[i][s], v)
                for j in range(D):
                    M[i][j] = ws * M[i][j] - wi * M[s][j]
            for j in range(s + 1, D):
                if carrier.val(M[s][j]) >= carrier.cap:
                    continue
                wj = carrier.shift_div(M[s][j], v)
                for i in range(d):
                    M[i][j] = ws * M[i][j] - wj * M[i][s]
            pivot_vals.append(v)
            continue
        unit = carrier.shift_div(M[s][s], v).unit_inverse()
        # normalize the pivot row so the pivot is exactly pi^v
        for j in range(D):
            M[s][j] = M[s][j] * unit
        for i in range(d):
            if i == s:
                continue
            if carrier.val(M[i][s]) >= carrier.cap:
                continue
            factor = carrier.shift_div(M[i][s], v)
            for j in range(D):
                M[i][j] = M[i][j] - factor * M[s][j]
        for j in range(D):
            if j == s:
                continue
            if carrier.val(M[s][j]) >= carrier.cap:
                continue
            factor = carrier.shift_div(M[s][j], v)
            for i in range(d):
                M[i][j] = M[i][j] - M[i][s] * factor
        pivot_vals.append(v)
    pivot_vals += [carrier.cap] * (d - len(pivot_vals))
    return sorted(pivot_vals)


def hodge_weights(exponents, r, e):
    """Hodge weights h_i = r - n_i/e of the mod-p exponents n_i in [0, er],
    ascending.  In rank 1 this is the tame inertia weight of Fil^r = u^n."""
    out = []
    for n in exponents:
        if not 0 <= n <= e * r:
            raise ValueError(f"exponent {n} outside [0, {e * r}]")
        out.append(Fraction(e * r - n, e))
    return sorted(out)
