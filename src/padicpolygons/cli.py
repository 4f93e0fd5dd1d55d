"""File-driven command line front end.

Subcommands: ``analyze`` (one instance document), ``sweep`` (a grid of L
values), ``render`` (re-render a report), ``oracle`` (run the randomized
cross-check oracles).  Instance documents are JSON; all integers are decimal
strings (ASCII digits after an optional minus sign) or numbers, rationals
are "num/den" of two decimal strings, p-adic coefficients are integer values
mod p^prec.  A pseudo document reads only ``ring.p`` and ``ring.prec`` of
its ring (``--prec`` overrides the latter).  Exit status: 0 when every
verdict holds, 1 when some verdict fails, 2 on errors.

In an L expression, ``x`` is the Teichmuller lift of the generator of the
residue field.  On a ring with m = 1 that generator is 0, so ``x`` is 0
there: ``x+pi`` is ``pi``, and ``x`` alone lies in Q_p.

Rings are shared per process: every document with the same ring key (p, m,
e, E, prec, r, modulus) gets the same ``RingConfig``, so E^p, its kernels,
the table of u^{p i} mod E^p, c = phi(E)/p and the Frobenius lift are
built once per ring.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction

from . import adapted, breuil, fontaine, oracle, polygons
from .arith import (INF, ConfigError, DivisibilityError, PrecisionError,
                    RingConfig)


class DocError(ValueError):
    """Malformed input; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# document parsing


def _is_decimal(text):
    """ASCII digits after an optional minus sign; int() alone also takes
    non-ASCII digits, blanks around the digits and "1_1"."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _parse_frac(text):
    """"num/den" or "num", each part decimal (``_is_decimal``), as a
    Fraction; ValueError or ZeroDivisionError otherwise."""
    parts = text.split("/")
    if len(parts) > 2 or not all(map(_is_decimal, parts)):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(*map(int, parts))


def _as_int(value, path):
    if isinstance(value, int):
        return int(value)  # a bool as its int: True and 1 share a ring key
    if isinstance(value, str):
        if _is_decimal(value):
            return int(value)
        raise DocError(path, f"not an integer: {value!r}")
    raise DocError(path, f"expected an integer, got {type(value).__name__}")


def _section(doc, name, kind=dict):
    """doc[name], which must be an object (a list for ``kind=list``)."""
    value = doc.get(name)
    if not isinstance(value, kind):
        raise DocError(name, "missing section" if value is None else
                       f"expected {'an object' if kind is dict else 'a list'}")
    return value


def _matrix(value, path):
    """A nonempty list of rows, all lists of one length."""
    if not isinstance(value, list) or not value:
        raise DocError(path, "expected a nonempty matrix")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value[0]):
            raise DocError(f"{path}[{i}]", "rows must be lists of one length")
    return value


def parse_ring(doc, prec_override=None, r=2):
    ring = _section(doc, "ring")
    p = _as_int(ring.get("p"), "ring.p")
    m = _as_int(ring.get("m", 1), "ring.m")
    e = _as_int(ring.get("e"), "ring.e")
    E = ring.get("E")
    if not isinstance(E, list) or len(E) != e + 1:
        raise DocError("ring.E", "expected a list of e+1 coefficients")
    E_coeffs = [_parse_witt_coord(c, f"ring.E[{i}]") for i, c in enumerate(E)]
    prec = _ring_prec(ring, prec_override)
    modulus = ring.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list):
            raise DocError("ring.modulus", "expected a list of integers")
        modulus = tuple(_as_int(c, "ring.modulus") for c in modulus)
    try:
        return _ring(p, m, e, tuple(E_coeffs), prec, r, modulus)
    except ConfigError as exc:
        raise DocError("ring", str(exc)) from None


def _ring_prec(ring, prec_override):
    """ring.prec, which --prec overrides; None when neither is given."""
    prec = ring.get("prec")
    prec = _as_int(prec, "ring.prec") if prec is not None else None
    return prec if prec_override is None else prec_override


@functools.cache
def _ring(p, m, e, E_coeffs, prec, r, modulus):
    """The process's one RingConfig for a ring key.  A rejected key is not
    cached, so it raises again on every call."""
    return RingConfig(p, m, e, E_coeffs, prec=prec, r=r, modulus=modulus)


def _parse_witt_coord(value, path):
    """An integer, or a list of m integers (coordinates in the w-basis)."""
    if isinstance(value, (int, str)):
        return _as_int(value, path)
    if isinstance(value, list):
        return tuple(_as_int(c, path) for c in value)
    raise DocError(path, "expected an integer or coordinate list")


def _witt_of(cfg, value, path):
    coord = _parse_witt_coord(value, path)
    if isinstance(coord, tuple) and len(coord) != cfg.m:
        raise DocError(path, f"expected {cfg.m} coordinates")
    return cfg.w(coord)


def _parse_k0(cfg, value, path):
    """K0 entry: "num", "num/den", integer, [m coords] or
    {"w": coord-form, "pexp": k}.  Returns the element at working precision
    and its exact value: its w-coordinates, as Fractions."""
    if isinstance(value, str) and "/" in value:
        try:
            fr = _parse_frac(value)
        except (ValueError, ZeroDivisionError):
            raise DocError(path, f"bad rational {value!r}") from None
        return cfg.k0_from_fraction(fr), (fr,) + (0,) * (cfg.m - 1)
    w, pexp = value, 0
    if isinstance(value, dict):
        w, pexp = value.get("w", 0), value.get("pexp", 0)
    elem = cfg.k0(_witt_of(cfg, w, path), _as_int(pexp, path))
    coord = _parse_witt_coord(w, path)
    if not isinstance(coord, tuple):
        coord = (coord,) + (0,) * (cfg.m - 1)
    scale = Fraction(cfg.p) ** -elem.pexp
    return elem, tuple(scale * c for c in coord)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exactly_singular(h, rows):
    """Whether det(rows) = 0 in Q[w]/(h), for entries given as rational
    w-coordinates: the Leibniz sum in Q[w], then one reduction by the monic
    h.  h is irreducible mod p, so over Q, and Q[w]/(h) is a subfield of
    K0: det is 0 there exactly when it is 0 in K0."""
    m = len(h) - 1
    det = [0] * (len(rows) * (m - 1) + 1)
    for perm in itertools.permutations(range(len(rows))):
        term = [(-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))]
        for i, j in enumerate(perm):
            term = _poly_mul(term, rows[i][j])
        det = [a + b for a, b in zip(det, term)]
    for k in range(len(det) - 1, m - 1, -1):
        top = det[k]
        det[k - m:k + 1] = [a - top * c for a, c in zip(det[k - m:k + 1], h)]
    return not any(det[:m])


def _parse_k_elem(cfg, value, path):
    """K element: expression string, list of e coefficients, or
    {"coeffs": [...], "pexp": k}."""
    if isinstance(value, str) and not _is_decimal(value):
        return parse_L_expression(cfg, value)
    pexp = 0
    coeffs = value
    if isinstance(value, dict):
        coeffs = value.get("coeffs", [])
        pexp = _as_int(value.get("pexp", 0), f"{path}.pexp")
    if not isinstance(coeffs, list):
        coeffs = [coeffs]
    if len(coeffs) > cfg.e:
        raise DocError(path, f"at most e = {cfg.e} coefficients")
    return cfg.k_elem([_witt_of(cfg, c, f"{path}[{i}]")
                       for i, c in enumerate(coeffs)], pexp)


# --- tiny expression language for L values: integers, p, pi, x, + - * / ^ ()


def _tokenize(text):
    # str.isdigit and str.isalpha below accept non-ASCII characters
    for ch in text:
        if not ch.isascii():
            raise DocError("L", f"unexpected character {ch!r}")
    out, i = [], 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch.isdigit() or ch.isalpha():
            same = str.isdigit if ch.isdigit() else str.isalpha
            while j < len(text) and same(text[j]):
                j += 1
            word = text[i:j]
            out.append(("int", int(word)) if ch.isdigit() else ("name", word))
        elif ch in "+-*/^()":
            out.append((ch, ch))
        elif not ch.isspace():
            raise DocError("L", f"unexpected character {ch!r}")
        i = j
    out.append(("end", None))
    return out


def parse_L_expression(cfg, text):
    """Evaluate an L expression in K: integers, 'p', 'pi' (the class of u),
    'x' (the Teichmuller lift of the residue generator), +, -, *, /, ^.

    With m = 1 the residue generator is 0, so 'x' is 0 and 'x+pi' is 'pi'."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0]

    def take(kind=None):
        tk = tokens[pos[0]]
        if kind is not None and tk[0] != kind:
            raise DocError("L", f"expected {kind!r}, found {tk[0]!r}")
        pos[0] += 1
        return tk

    def atom():
        kind, value = take()
        if kind == "int":
            return cfg.k_elem([value])
        if kind == "name":
            if value == "p":
                return cfg.k_elem([cfg.p])
            if value == "pi":
                return cfg.pi()
            if value == "x":
                return cfg.k_elem([cfg.teichmuller_generator()])
            raise DocError("L", f"unknown name {value!r}")
        if kind == "-":
            return -atom()
        if kind == "(":
            val = expr()
            take(")")
            return val
        raise DocError("L", f"unexpected token {kind!r}")

    def factor():
        base = atom()
        if peek() == "^":
            take("^")
            kind, value = take()
            if kind != "int":
                raise DocError("L", "exponent must be a nonnegative integer")
            return base ** value
        return base

    def term():
        val = factor()
        while peek() in "*/":
            op, _ = take()
            rhs = factor()
            if op == "/":
                try:
                    rhs = rhs.inverse()
                except ZeroDivisionError:
                    raise DocError("L", "division by zero") from None
            val = val * rhs
        return val

    def expr():
        val = term()
        while peek() in "+-":
            op, _ = take()
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    out = expr()
    take("end")
    return out


# ---------------------------------------------------------------------------
# report serialization helpers


def _frac_str(x):
    if x == INF or x == math.inf:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def poly_to_json(P):
    return [[_frac_str(Fraction(k)), _frac_str(v)] for k, v in P.vertices]


def _witt_str(w):
    if w.ring.m == 1:
        return str(w.coords[0])
    return [str(c) for c in w.coords]


def _strunc_json(x):
    coeffs = list(x.coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return [_witt_str(c) for c in coeffs]


def _report(mode, cfg, elements, polys, verdicts, warnings=(), **sections):
    """The report layout of every mode; ``sections`` are the mode's own."""
    return {"mode": mode,
            "ring": {"p": cfg.p, "m": cfg.m, "e": cfg.e, "prec": cfg.prec,
                     "E": [_witt_str(c) for c in cfg.E]},
            **sections,
            "elements": elements,
            "polygons": {name: poly_to_json(P) for name, P in polys.items()},
            "verdicts": [{"name": n, "passed": bool(ok), "evidence": str(d)}
                         for n, ok, d in verdicts],
            "warnings": list(warnings)}


def family_report(analysis):
    el = analysis.elements
    elements = {
        "case": el.case_tag,
        "j": el.j,
        "v": _frac_str(el.v),
        "v_exact": el.v_exact,
        "shift": analysis.params.normalized.shift,
        "L_normalized": _strunc_json(el.L0),
        "t": _strunc_json(el.t),
        "Z": _strunc_json(el.Z),
        "U": _strunc_json(el.U),
        "V": _strunc_json(el.V),
        "adapted_exponents_E": list(analysis.exponents_E),
        "adapted_exponents_u": list(analysis.exponents_u),
        "classification_shape": analysis.classification.shape,
        "irreducible": analysis.classification.irreducible,
    }
    polys = {"hodge_V": analysis.hodge_V, "newton_V": analysis.newton_V,
             "hodge_Mbar": analysis.hodge_Mbar, "inertia": analysis.inertia}
    return _report("family", analysis.cfg, elements, polys, analysis.verdicts,
                   analysis.warnings, family={"n1": analysis.params.n1,
                                              "n2": analysis.params.n2})


def pseudo_report(analysis):
    polys = {"hodge_Mbar": analysis.hodge_Mbar, "newton": analysis.newton,
             "inertia_bound": analysis.inertia_bound}
    return _report("pseudo", analysis.cfg,
                   {"adapted_exponents_u": list(analysis.exponents)}, polys,
                   analysis.verdicts, pseudo={"n": analysis.n, "r": analysis.r})


# ---------------------------------------------------------------------------
# subcommands


def _family_report(doc, n1, n2, L, path, prec_override):
    """The family report for one L value (``path`` names it in errors)."""
    cfg = parse_ring(doc, prec_override=prec_override, r=n1 + n2)
    L = _parse_k_elem(cfg, L, path)
    params = fontaine.FamilyParams(cfg, n1, n2, L)
    return family_report(breuil.analyze_family(params))


def _family_ns(fam):
    return (_as_int(fam.get("n1", 1), "family.n1"),
            _as_int(fam.get("n2", 1), "family.n2"))


def cmd_analyze(doc, prec_override=None):
    """Analyze one instance document; returns the report dict."""
    mode = doc.get("mode")
    if mode == "family":
        fam = _section(doc, "family")
        n1, n2 = _family_ns(fam)
        return _family_report(doc, n1, n2, fam.get("L"), "family.L",
                              prec_override)
    if mode == "pseudo":
        n = _as_int(_section(doc, "pseudo").get("n"), "pseudo.n")
        ring = _section(doc, "ring")
        try:
            analysis = breuil.pseudo_counterexample(
                n, _as_int(ring.get("p"), "ring.p"),
                prec=_ring_prec(ring, prec_override))
        except ConfigError as exc:
            raise DocError("ring", str(exc)) from None
        return pseudo_report(analysis)
    if mode == "matrix":
        return _analyze_matrix(doc, prec_override)
    if mode == "filtered":
        return _analyze_filtered(doc, prec_override)
    raise DocError("mode", f"unknown mode {mode!r}")


def _parse_carrier_entry(cfg, carrier, value, path):
    """A matrix entry: a W element over the p carrier, else a list of at
    most ep coefficients, in S or reduced to k[u]/u^{ep}."""
    if carrier.name == "p":
        return _witt_of(cfg, value, path)
    if not isinstance(value, list):
        value = [value]
    if len(value) > cfg.e * cfg.p:
        raise DocError(path, f"at most ep = {cfg.e * cfg.p} coefficients")
    coeffs = [_witt_of(cfg, c, path) for c in value]
    if carrier.name == "E":
        return cfg.s(coeffs)
    return cfg.tilde([c.residue() for c in coeffs])


def _analyze_matrix(doc, prec_override):
    mat = _section(doc, "matrix")
    cfg = parse_ring(doc, prec_override=prec_override)
    carrier = adapted.carrier_by_name(cfg, mat.get("carrier", "E"))
    entries = _matrix(mat.get("entries"), "matrix.entries")
    rows = [[_parse_carrier_entry(cfg, carrier, v, f"matrix.entries[{i}][{j}]")
             for j, v in enumerate(row)] for i, row in enumerate(entries)]
    exps = adapted.divisor_exponents(rows, carrier)
    minors = adapted.minor_exponents(rows, carrier)
    verdicts = [("exponent_paths_agree", exps == minors,
                 f"reduction {exps} vs minors {minors}")]
    return _report("matrix", cfg, {"exponents": exps}, {}, verdicts,
                   matrix={"carrier": carrier.name})


def _parse_k0_matrix(cfg, rows, path):
    """The matrix of K0 entries at ``path`` and the matrix of their exact
    values (``_parse_k0``)."""
    parsed = [[_parse_k0(cfg, v, f"{path}[{i}][{j}]")
               for j, v in enumerate(row)]
              for i, row in enumerate(_matrix(rows, path))]
    return (tuple(tuple(elem for elem, _ in row) for row in parsed),
            [[exact for _, exact in row] for row in parsed])


def _analyze_filtered(doc, prec_override):
    flt = _section(doc, "filtered")
    r = _as_int(flt.get("r", 2), "filtered.r")
    cfg = parse_ring(doc, prec_override=prec_override, r=r)
    phi, exact = _parse_k0_matrix(cfg, flt.get("phi"), "filtered.phi")
    dim = len(phi)
    if len(phi[0]) != dim:
        raise DocError("filtered.phi", f"expected a square matrix, got "
                       f"{dim} x {len(phi[0])}")
    if _exactly_singular(cfg.witt.modulus, exact):
        raise DocError("filtered.phi", "det(phi) is 0: a filtered "
                       "phi-module needs phi bijective")
    if flt.get("N") is None:
        zero = cfg.k0(0)
        nmat = tuple(tuple(zero for _ in range(dim)) for _ in range(dim))
    else:
        nmat, _ = _parse_k0_matrix(cfg, flt["N"], "filtered.N")
        if (len(nmat), len(nmat[0])) != (dim, dim):
            raise DocError("filtered.N", f"expected a {dim} x {dim} matrix, "
                           f"got {len(nmat)} x {len(nmat[0])}")
    jumps = flt.get("jumps")
    if not isinstance(jumps, list):
        raise DocError("filtered.jumps", "expected [[t, [basis vectors]], ...]")
    bases = {}
    for k, item in enumerate(jumps):
        if not (isinstance(item, list) and len(item) == 2 and
                isinstance(item[1], list) and
                all(isinstance(vec, list) for vec in item[1])):
            raise DocError(f"filtered.jumps[{k}]",
                           "expected [t, [basis vectors]]")
        t = _as_int(item[0], "filtered.jumps")
        for i, vec in enumerate(item[1]):
            if len(vec) != dim:
                raise DocError(f"filtered.jumps[{k}][1][{i}]",
                               f"expected {dim} coordinates, got {len(vec)}")
        bases[t] = tuple(tuple(_parse_k_elem(cfg, c, f"filtered.jumps[{t}]")
                               for c in vec) for vec in item[1])
    if 0 not in bases:
        raise DocError("filtered.jumps", "must describe Fil^0")
    fil = [bases[0]]
    for t in range(1, r + 2):
        fil.append(bases.get(t, fil[-1]))
        # two lines in a row must be one K-line: no 2 x 2 minor of their
        # generators is nonzero
        if len(fil[-2]) == len(fil[-1]) == 1 and any(
                not (a0 * b1 - a1 * b0).is_zero() for (a0, b0), (a1, b1)
                in itertools.combinations(zip(fil[-2][0], fil[-1][0]), 2)):
            raise DocError("filtered.jumps", f"Fil^{t} is not inside "
                           f"Fil^{t - 1}: the filtration must decrease")
    D = fontaine.FilteredModule(cfg, dim, phi, nmat, tuple(fil))
    hodge = fontaine.hodge_polygon(D)
    newton = fontaine.newton_polygon_phi(D)
    verdicts = [("newton_above_hodge",
                 polygons.lies_above(newton, hodge) and
                 polygons.same_endpoint(newton, hodge),
                 f"Newton {newton.slopes} vs Hodge {hodge.slopes}")]
    warnings = []
    elements = {"t_H": str(int(hodge.endpoint[1])),
                "t_N": _frac_str(newton.endpoint[1])}
    try:
        elements["weakly_admissible"] = fontaine.weakly_admissible_dim2(D)
    except ValueError as exc:
        warnings.append(f"admissibility not decided: {exc}")
    return _report("filtered", cfg, elements,
                   {"hodge": hodge, "newton": newton}, verdicts, warnings)


def cmd_sweep(doc, prec_override=None):
    """One analyze row per grid point; per-row errors are recorded and the
    sweep continues.  Row order follows the document."""
    n1, n2 = _family_ns(_section(doc, "family") if "family" in doc else {})
    grid = doc.get("L", [])
    if not isinstance(grid, list):
        raise DocError("L", "expected a list of L expressions")
    rows = []
    n_failed = n_errors = 0
    for i, spec in enumerate(grid):
        try:
            report = _family_report(doc, n1, n2, spec, f"L[{i}]",
                                    prec_override)
        except (ValueError, ArithmeticError) as exc:
            n_errors += 1
            rows.append({"status": "error", "L_spec": spec,
                         "error": str(exc)})
            continue
        report["L_spec"] = spec
        ok = all(v["passed"] for v in report["verdicts"])
        n_failed += 0 if ok else 1
        rows.append({"status": "ok" if ok else "failed", "report": report})
    return {
        "mode": "sweep",
        "rows": rows,
        "summary": {"total": len(rows), "failed": n_failed,
                    "errors": n_errors},
    }


# ---------------------------------------------------------------------------
# rendering


def _list_of(value, path, kind=dict):
    """A list whose items are all of ``kind`` (objects by default)."""
    if not isinstance(value, list):
        raise DocError(path, "expected a list")
    for k, item in enumerate(value):
        if not isinstance(item, kind):
            raise DocError(f"{path}[{k}]", "expected an object"
                           if kind is dict else "expected a list")
    return value


def _vertex(v, path):
    """A polygon vertex: a pair of rationals written as strings."""
    if not (len(v) == 2 and all(isinstance(c, str) for c in v)):
        raise DocError(path, "expected a pair of strings")
    try:
        return tuple(_parse_frac(c) for c in v)
    except (ValueError, ArithmeticError):
        raise DocError(path, f"not a pair of rationals: {v!r}") from None


def _plot(report, path=""):
    """Sorted polygon names, their vertices, and the plot extent (at least 1
    on each axis).  ``path`` is the report's place in the document."""
    polys = report.get("polygons") or {}
    if not isinstance(polys, dict):
        raise DocError(f"{path}polygons", "expected an object")
    names = sorted(polys)
    pts = {n: [_vertex(v, f"{path}polygons.{n}[{k}]") for k, v in enumerate(
        _list_of(polys[n], f"{path}polygons.{n}", list))] for n in names}
    xmax = max([Fraction(1)] + [x for n in names for x, _ in pts[n]])
    ymax = max([Fraction(1)] + [y for n in names for _, y in pts[n]])
    return names, pts, xmax, ymax


def render_ascii(report, path=""):
    names, pts, xmax, ymax = _plot(report, path)
    verdicts = _list_of(report.get("verdicts", []), f"{path}verdicts")
    for k, v in enumerate(verdicts):
        if not {"name", "passed", "evidence"} <= v.keys():
            raise DocError(f"{path}verdicts[{k}]",
                           "expected name, passed and evidence")
    if not names:
        return "(no polygons)\n"
    marks = "*o#+%"
    W, H = 49, 17
    grid = [[" "] * (W + 1) for _ in range(H + 1)]

    def place(x, y, ch):
        col = round(float(Fraction(x) / xmax) * W)
        row = H - round(float(Fraction(y) / ymax) * H)
        grid[row][col] = ch if grid[row][col] in (" ", ch) else "@"

    for ni, name in enumerate(names):
        ch = marks[ni % len(marks)]
        vs = pts[name]
        for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
            for s in range(2 * W + 1):
                t = Fraction(s, 2 * W)
                place(x1 + (x2 - x1) * t, y1 + (y2 - y1) * t, ch)
    out = ["polygons (x: 0..%s, y: 0..%s)" % (xmax, ymax)]
    out.extend("".join(row).rstrip() for row in grid)
    out.append("vertices:")
    for ni, name in enumerate(names):
        vstr = " ".join(f"({_frac_str(a)},{_frac_str(b)})"
                        for a, b in pts[name])
        out.append(f"  {marks[ni % len(marks)]} {name}: {vstr}")
    for v in verdicts:
        out.append(f"[{'PASS' if v['passed'] else 'FAIL'}] {v['name']}: "
                   f"{v['evidence']}")
    return "\n".join(out) + "\n"


def render_svg(report):
    names, pts, xmax, ymax = _plot(report)
    colors = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910"]
    W, H, pad = 360, 240, 24
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {W + 2 * pad} {H + 2 * pad}">']
    for ni, name in enumerate(names):
        path = " ".join(
            f"{float(pad + x / xmax * W):.2f},{float(pad + H - y / ymax * H):.2f}"
            for x, y in pts[name])
        color = colors[ni % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'points="{path}"><title>{name}</title></polyline>')
    if not names:
        parts.append('<path d=""/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_row(row, path):
    """One sweep row as text: its error line or its ascii rendering."""
    status = row.get("status")
    if status == "error" and "error" in row:
        return f"row {row.get('L_spec')}: ERROR {row['error']}\n"
    if status in ("ok", "failed") and isinstance(row.get("report"), dict):
        return render_ascii(row["report"], f"{path}.report.")
    raise DocError(path, "expected an error row with an error, or an ok or "
                   "failed row with a report object")


def cmd_render(report, fmt):
    if fmt == "json":
        return render_json(report)
    if fmt == "ascii":
        if report.get("mode") == "sweep":
            rows = _list_of(_section(report, "rows", list), "rows")
            return "".join(_render_row(row, f"rows[{k}]")
                           for k, row in enumerate(rows))
        return render_ascii(report)
    if fmt == "svg":
        return render_svg(report)
    raise DocError("format", f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# the oracle battery


def cmd_oracle(seed=0, trials=25):
    """Run the randomized cross-checks of ``oracle.BATTERY``; prints one
    PASS/FAIL line per check, a FAIL line naming its first failing case,
    and returns the worst exit code."""
    if trials < 1:
        raise DocError("--trials", f"need at least 1 trial, got {trials}")
    rng = random.Random(seed)
    worst = 0
    for name, check in oracle.BATTERY:
        failures = check(rng, trials)
        if not failures:
            print(f"[PASS] {name}")
            continue
        worst = 1
        more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        print(f"[FAIL] {name}: {failures[0]}{more}")
    return worst


# ---------------------------------------------------------------------------
# entry point


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except OSError as exc:
        raise DocError(path, str(exc)) from None
    if not isinstance(doc, dict):
        raise DocError(path, "expected a JSON object")
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="padic-polygons",
        description="polygon invariants of filtered modules and strongly "
                    "divisible lattices, in exact p-adic arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fmt in (("analyze", "json"), ("sweep", "json"),
                      ("render", "ascii")):
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        if name != "render":
            sp.add_argument("--prec", type=int, default=None)
        sp.add_argument("--format", default=fmt,
                        choices=["json", "ascii", "svg"])
        sp.add_argument("--out", default=None)
    sp = sub.add_parser("oracle")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=25)
    args = parser.parse_args(argv)

    try:
        if args.command == "oracle":
            return cmd_oracle(seed=args.seed, trials=args.trials)
        report = _load_doc(args.input)
        if args.command == "analyze":
            report = cmd_analyze(report, prec_override=args.prec)
        elif args.command == "sweep":
            report = cmd_sweep(report, prec_override=args.prec)
        text = cmd_render(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: --out: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        if args.command == "render":
            return 0
        if args.command == "sweep":
            if report["summary"]["errors"]:
                return 2
            return 1 if report["summary"]["failed"] else 0
        return 0 if all(v["passed"] for v in report["verdicts"]) else 1
    except (PrecisionError, DivisibilityError) as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # DocError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
