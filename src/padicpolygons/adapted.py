"""Elementary-divisor exponents over the three "principal" carriers, a
linear solver over the same carriers, and the dictionary turning
exponents into Hodge weights.

Carriers: (W/p^N)[u]/E(u)^p with maximal element E(u); k[u]/u^{ep}, or a
shorter k[u]/u^n, with u; and W/p^N with p.  In each, the exponents
n_1 <= ... <= n_d of a submodule containing the r-th power of the maximal
element (the exponents of an adapted basis) are characterized by
n_1 + ... + n_k = (smallest valuation of a k x k minor of a generator
matrix).  The production path is a Smith-style reduction with a
minimal-valuation pivot; exhaustive minor enumeration is kept alongside as
the independent oracle.  Only the exponents are read: the pipeline never
needs the adapted basis itself.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import DivisibilityError, det


class ECarrier:
    """(W/p^N)[u]/E(u)^p with maximal element E(u); valuations clamp at p.

    Cofactors of E-valuation 0 (such as p + tE) are units of K0[u]/E^p but
    not of this integral model, and their inverses have p-denominators that
    grow with the E-degree, so reductions over this carrier are done
    fraction-free: rows are cross-multiplied by unit cofactors, which leaves
    every minor's E-valuation unchanged and costs no p-adic precision.
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

    def unit_inverse(self, x):
        # only honest units of the integral model invert exactly
        return x.unit_inverse()


class UCarrier:
    """k[u]/u^n with maximal element u, n = ep unless given (1 <= n <= ep);
    valuations clamp at n, the cap, and elements have length n."""

    name = "u"

    def __init__(self, cfg, n=None):
        self.cfg = cfg
        self.cap = cfg.e * cfg.p if n is None else n

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

    def unit_inverse(self, x):
        return x.unit_inverse()


class PCarrier:
    """W/p^N with maximal element p; valuations clamp at the precision.

    An element that vanishes at its own (possibly reduced) precision counts
    as zero: that keeps the reduction path consistent with full-precision
    minors, because clearing against a valuation-v pivot costs exactly v
    digits, the same v that a minor through that pivot absorbs.
    """

    name = "p"

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

    def unit_inverse(self, x):
        return x.unit_inverse()


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
                best = min(best, min(carrier.val(det(sub)),
                                     carrier.cap))
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


def smith_reduce(rows, carrier, track=False):
    """Diagonalize by row/column operations with minimal-valuation pivots.

    Returns (pivot_vals, T, C) where pivot_vals[i] is the valuation of the
    i-th pivot (carrier.cap for an exhausted matrix), and, when track is
    set, the row transform T and the column transform C with
    T * M * C = diag(pi^{pivot_vals}); otherwise T and C are None.

    Fraction-free carriers are cleared by cross-multiplication (the pivot's
    unit cofactor scales the target row), which preserves all minor
    valuations but admits no transform tracking.
    """
    d = len(rows)
    D = len(rows[0]) if d else 0
    fraction_free = getattr(carrier, "fraction_free", False)
    if track and fraction_free:
        raise ValueError(f"carrier {carrier.name!r} does not support "
                         "transform tracking")
    M = [list(r) for r in rows]
    T = C = None
    if track:
        one, zero = carrier.one(), carrier.zero()
        T = [[one if i == j else zero for j in range(d)] for i in range(d)]
        C = [[one if i == j else zero for j in range(D)] for i in range(D)]
    pivot_vals = []
    for s in range(min(d, D)):
        best, bi, bj = carrier.cap, None, None
        for i in range(s, d):
            for j in range(s, D):
                v = min(carrier.val(M[i][j]), carrier.cap)
                if v < best:
                    best, bi, bj = v, i, j
        if bi is None:
            pivot_vals.append(carrier.cap)
            continue
        if bi != s:
            M[s], M[bi] = M[bi], M[s]
            if track:
                T[s], T[bi] = T[bi], T[s]
        if bj != s:
            for row in M:
                row[s], row[bj] = row[bj], row[s]
            if track:
                for row in C:
                    row[s], row[bj] = row[bj], row[s]
        v = best
        if fraction_free:
            ws = carrier.shift_div(M[s][s], v)
            for i in range(d):
                if i == s or min(carrier.val(M[i][s]), carrier.cap) >= carrier.cap:
                    continue
                wi = carrier.shift_div(M[i][s], v)
                for j in range(D):
                    M[i][j] = ws * M[i][j] - wi * M[s][j]
            for j in range(s + 1, D):
                if min(carrier.val(M[s][j]), carrier.cap) >= carrier.cap:
                    continue
                wj = carrier.shift_div(M[s][j], v)
                for i in range(d):
                    M[i][j] = ws * M[i][j] - wj * M[i][s]
            pivot_vals.append(v)
            continue
        unit = carrier.unit_inverse(carrier.shift_div(M[s][s], v))
        # normalize the pivot row so the pivot is exactly pi^v
        for j in range(D):
            M[s][j] = M[s][j] * unit
        if track:
            for j in range(d):
                T[s][j] = T[s][j] * unit
        for i in range(d):
            if i == s:
                continue
            if min(carrier.val(M[i][s]), carrier.cap) >= carrier.cap:
                continue
            factor = carrier.shift_div(M[i][s], v)
            for j in range(D):
                M[i][j] = M[i][j] - factor * M[s][j]
            if track:
                for j in range(d):
                    T[i][j] = T[i][j] - factor * T[s][j]
        for j in range(D):
            if j == s:
                continue
            if min(carrier.val(M[s][j]), carrier.cap) >= carrier.cap:
                continue
            factor = carrier.shift_div(M[s][j], v)
            for i in range(d):
                M[i][j] = M[i][j] - M[i][s] * factor
            if track:
                for i in range(D):
                    C[i][j] = C[i][j] - C[i][s] * factor
        pivot_vals.append(v)
    pivot_vals += [carrier.cap] * (d - len(pivot_vals))
    return pivot_vals, T, C


def divisor_exponents(rows, carrier):
    """Elementary-divisor exponents n_1 <= ... <= n_d (reduction path)."""
    return sorted(smith_reduce(rows, carrier)[0])


def span_solver(columns, carrier, rank):
    """Factor the rank x n matrix of ``columns`` once (one tracked Smith
    reduction) and return ``(vals, solve)``: the pivot valuations and
    ``solve(target)``, coefficients x with sum(x_j * columns[j]) = target,
    or None.

    Linear solve over the local carrier ring; membership fails when a
    division is inexact or a cleared row of the target is nonzero.  Over
    k[u]/u^n a solution is fixed only mod u^{n - v} in the coordinate of a
    pivot u^v: any x + C w with u^{v_i} w_i = 0 solves as well.
    """
    n = len(columns)
    if not n:
        return [carrier.cap] * rank, lambda target: None
    rows = [[col[i] for col in columns] for i in range(rank)]
    vals, T, C = smith_reduce(rows, carrier, track=True)

    def solve(target):
        # T * target must be solvable against diag(pi^{vals})
        tb = []
        for i in range(rank):
            acc = carrier.zero()
            for j in range(rank):
                acc = acc + T[i][j] * target[j]
            tb.append(acc)
        y = []
        for i in range(rank):
            if i < min(rank, n) and vals[i] < carrier.cap:
                if min(carrier.val(tb[i]), carrier.cap) < vals[i]:
                    return None
                try:
                    y.append(carrier.shift_div(tb[i], vals[i]))
                except DivisibilityError:
                    return None
            else:
                v = min(carrier.val(tb[i]), carrier.cap)
                if v < carrier.cap:
                    return None
                y.append(carrier.zero())
        y += [carrier.zero()] * (n - len(y))
        x = []
        for j in range(n):
            acc = carrier.zero()
            for k in range(n):
                acc = acc + C[j][k] * y[k]
            x.append(acc)
        return x

    return vals, solve


def hodge_weights(exponents, r, e):
    """Hodge weights h_i = r - n_i/e of the mod-p exponents n_i in [0, er],
    ascending.  In rank 1 this is the tame inertia weight of Fil^r = u^n."""
    out = []
    for n in exponents:
        if not 0 <= n <= e * r:
            raise ValueError(f"exponent {n} outside [0, {e * r}]")
        out.append(Fraction(e * r - n, e))
    return sorted(out)
