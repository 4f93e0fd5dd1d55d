"""File-driven command line front end.

Subcommands: ``analyze`` (one instance document), ``sweep`` (a grid of L
values), ``render`` (re-render a report), ``oracle`` (run the randomized
cross-check oracles).  Instance documents are JSON; all integers are decimal
strings or numbers, rationals are "num/den", p-adic coefficients are integer
values mod p^prec.  Exit status: 0 when every verdict holds, 1 when some
verdict fails, 2 on errors.

Rings are shared per process: every document with the same ring key (p, m,
e, E, prec, r, modulus) gets the same ``RingConfig``, so E^p, its kernels,
the table of u^{p i} mod E^p, c = phi(E)/p and the Frobenius lift are
built once per ring.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import adapted, breuil, fontaine, polygons
from .arith import (INF, ConfigError, DivisibilityError, K0Elem, KElem,
                    PrecisionError, RingConfig)


class DocError(ValueError):
    """Malformed instance document; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# document parsing


def _as_int(value, path):
    if isinstance(value, int):
        return int(value)  # a bool as its int: True and 1 share a ring key
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise DocError(path, f"not an integer: {value!r}") from None
    raise DocError(path, f"expected an integer, got {type(value).__name__}")


def parse_ring(doc, path="ring", prec_override=None, r=2):
    if "ring" not in doc:
        raise DocError(path, "missing section")
    ring = doc["ring"]
    p = _as_int(ring.get("p"), f"{path}.p")
    m = _as_int(ring.get("m", 1), f"{path}.m")
    e = _as_int(ring.get("e"), f"{path}.e")
    E = ring.get("E")
    if not isinstance(E, list) or len(E) != e + 1:
        raise DocError(f"{path}.E", "expected a list of e+1 coefficients")
    E_coeffs = [_parse_witt_coord(c, f"{path}.E[{i}]") for i, c in enumerate(E)]
    prec = ring.get("prec")
    prec = _as_int(prec, f"{path}.prec") if prec is not None else None
    if prec_override is not None:
        prec = prec_override
    modulus = ring.get("modulus")
    if modulus is not None:
        modulus = tuple(_as_int(c, f"{path}.modulus") for c in modulus)
    try:
        return _ring(p, m, e, tuple(E_coeffs), prec, r, modulus)
    except ConfigError as exc:
        raise DocError(path, str(exc)) from None


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


def _witt_of(cfg, coord, path):
    if isinstance(coord, tuple):
        if len(coord) != cfg.m:
            raise DocError(path, f"expected {cfg.m} coordinates")
        return cfg.w(coord)
    return cfg.w(coord)


def _parse_k0(cfg, value, path):
    """K0 entry: "num", "num/den", integer, [m coords] or
    {"w": coord-form, "pexp": k}."""
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/", 1)
        try:
            fr = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise DocError(path, f"bad rational {value!r}") from None
        return cfg.k0_from_fraction(fr)
    if isinstance(value, dict):
        w = _witt_of(cfg, _parse_witt_coord(value.get("w", 0), path), path)
        return K0Elem(cfg.witt, w, _as_int(value.get("pexp", 0), path))
    return K0Elem(cfg.witt,
                  _witt_of(cfg, _parse_witt_coord(value, path), path), 0)


def _parse_k_elem(cfg, value, path):
    """K element: expression string, list of e coefficients, or
    {"coeffs": [...], "pexp": k}."""
    if isinstance(value, str) and not value.lstrip("-").isdigit():
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
    ws = [_witt_of(cfg, _parse_witt_coord(c, f"{path}[{i}]"), f"{path}[{i}]")
          for i, c in enumerate(coeffs)]
    return cfg.k_elem(ws, pexp)


# --- tiny expression language for L values: integers, p, pi, x, + - * / ^ ()


def _tokenize(text):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append((ch, ch))
            i += 1
        else:
            raise DocError("L", f"unexpected character {ch!r}")
    out.append(("end", None))
    return out


def parse_L_expression(cfg, text):
    """Evaluate an L expression in K: integers, 'p', 'pi' (the class of u),
    'x' (the Teichmuller lift of the residue generator), +, -, *, /, ^."""
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


def _verdicts_json(verdicts):
    return [{"name": n, "passed": bool(ok), "evidence": str(d)}
            for n, ok, d in verdicts]


def _ring_json(cfg):
    return {"p": cfg.p, "m": cfg.m, "e": cfg.e, "prec": cfg.prec,
            "E": [_witt_str(c) for c in cfg.E]}


def family_report(analysis):
    el = analysis.elements
    return {
        "mode": "family",
        "ring": _ring_json(analysis.cfg),
        "family": {"n1": analysis.params.n1, "n2": analysis.params.n2},
        "elements": {
            "case": el.case_tag,
            "j": el.j,
            "v": _frac_str(el.v),
            "v_exact": el.v_exact,
            "shift": analysis.norm.shift,
            "L_normalized": _strunc_json(el.L0),
            "t": _strunc_json(el.t),
            "Z": _strunc_json(el.Z),
            "U": _strunc_json(el.U),
            "V": _strunc_json(el.V),
            "adapted_exponents_E": list(analysis.exponents_E),
            "adapted_exponents_u": list(analysis.exponents_u),
            "classification_shape": analysis.classification.shape,
            "irreducible": analysis.classification.irreducible,
        },
        "polygons": {
            "hodge_V": poly_to_json(analysis.hodge_V),
            "newton_V": poly_to_json(analysis.newton_V),
            "hodge_Mbar": poly_to_json(analysis.hodge_Mbar),
            "inertia": poly_to_json(analysis.inertia),
        },
        "verdicts": _verdicts_json(analysis.verdicts),
        "warnings": list(analysis.warnings),
    }


def pseudo_report(analysis):
    return {
        "mode": "pseudo",
        "ring": _ring_json(analysis.cfg),
        "pseudo": {"n": analysis.n, "r": analysis.r},
        "elements": {"adapted_exponents_u": list(analysis.exponents)},
        "polygons": {
            "hodge_Mbar": poly_to_json(analysis.hodge_Mbar),
            "newton": poly_to_json(analysis.newton),
            "inertia_bound": poly_to_json(analysis.inertia_bound),
        },
        "verdicts": _verdicts_json(analysis.verdicts),
        "warnings": [],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(doc, prec_override=None):
    """Analyze one instance document; returns the report dict."""
    mode = doc.get("mode")
    if mode == "family":
        fam = doc.get("family")
        if not isinstance(fam, dict):
            raise DocError("family", "missing section")
        n1 = _as_int(fam.get("n1", 1), "family.n1")
        n2 = _as_int(fam.get("n2", 1), "family.n2")
        cfg = parse_ring(doc, prec_override=prec_override, r=n1 + n2)
        L = _parse_k_elem(cfg, fam.get("L"), "family.L")
        params = fontaine.FamilyParams(cfg, n1, n2, L)
        analysis = breuil.analyze_family(params)
        return family_report(analysis)
    if mode == "pseudo":
        ps = doc.get("pseudo")
        if not isinstance(ps, dict):
            raise DocError("pseudo", "missing section")
        n = _as_int(ps.get("n"), "pseudo.n")
        p = _as_int(doc.get("ring", {}).get("p"), "ring.p")
        analysis = breuil.pseudo_counterexample(n, p, prec=prec_override)
        return pseudo_report(analysis)
    if mode == "matrix":
        return _analyze_matrix(doc, prec_override)
    if mode == "filtered":
        return _analyze_filtered(doc, prec_override)
    raise DocError("mode", f"unknown mode {mode!r}")


def _parse_carrier_entry(cfg, carrier, value, path):
    if carrier.name == "p":
        return _witt_of(cfg, _parse_witt_coord(value, path), path)
    if not isinstance(value, list):
        value = [value]
    if carrier.name == "E":
        return cfg.s([_witt_of(cfg, _parse_witt_coord(c, path), path)
                      for c in value])
    coeffs = []
    for c in value:
        c = _parse_witt_coord(c, path)
        coeffs.append(c if isinstance(c, tuple) else c)
    return cfg.tilde(coeffs)


def _analyze_matrix(doc, prec_override):
    mat = doc.get("matrix")
    if not isinstance(mat, dict):
        raise DocError("matrix", "missing section")
    cfg = parse_ring(doc, prec_override=prec_override)
    carrier = adapted.carrier_by_name(cfg, mat.get("carrier", "E"))
    entries = mat.get("entries")
    if not isinstance(entries, list) or not entries:
        raise DocError("matrix.entries", "expected a nonempty matrix")
    rows = [[_parse_carrier_entry(cfg, carrier, v, f"matrix.entries[{i}][{j}]")
             for j, v in enumerate(row)] for i, row in enumerate(entries)]
    exps = adapted.divisor_exponents(rows, carrier)
    oracle = adapted.minor_exponents(rows, carrier)
    verdicts = [("exponent_paths_agree", exps == oracle,
                 f"reduction {exps} vs minors {oracle}")]
    return {
        "mode": "matrix",
        "ring": _ring_json(cfg),
        "matrix": {"carrier": carrier.name},
        "elements": {"exponents": exps},
        "polygons": {},
        "verdicts": _verdicts_json(verdicts),
        "warnings": [],
    }


def _analyze_filtered(doc, prec_override):
    flt = doc.get("filtered")
    if not isinstance(flt, dict):
        raise DocError("filtered", "missing section")
    r = _as_int(flt.get("r", 2), "filtered.r")
    cfg = parse_ring(doc, prec_override=prec_override, r=r)
    phi_rows = flt.get("phi")
    if not isinstance(phi_rows, list):
        raise DocError("filtered.phi", "missing matrix")
    dim = len(phi_rows)
    phi = tuple(tuple(_parse_k0(cfg, v, f"filtered.phi[{i}][{j}]")
                      for j, v in enumerate(row))
                for i, row in enumerate(phi_rows))
    n_rows = flt.get("N")
    if n_rows is None:
        zero = K0Elem(cfg.witt, cfg.witt.zero(), 0)
        nmat = tuple(tuple(zero for _ in range(dim)) for _ in range(dim))
    else:
        nmat = tuple(tuple(_parse_k0(cfg, v, f"filtered.N[{i}][{j}]")
                           for j, v in enumerate(row))
                     for i, row in enumerate(n_rows))
    jumps = flt.get("jumps")
    if not isinstance(jumps, list):
        raise DocError("filtered.jumps", "expected [[t, [basis vectors]], ...]")
    bases = {}
    for item in jumps:
        t = _as_int(item[0], "filtered.jumps")
        vecs = tuple(tuple(_parse_k_elem(cfg, c, f"filtered.jumps[{t}]")
                           for c in vec) for vec in item[1])
        bases[t] = vecs
    fil = []
    cur = None
    for t in range(r + 2):
        if t in bases:
            cur = bases[t]
        elif t == 0:
            raise DocError("filtered.jumps", "must describe Fil^0")
        fil.append(cur if cur is not None else ())
    D = fontaine.FilteredModule(cfg, dim, phi, nmat, tuple(fil))
    hodge = fontaine.hodge_polygon(D)
    newton = fontaine.newton_polygon_phi(D)
    tH, tN = fontaine.t_numbers(D)
    verdicts = [("newton_above_hodge",
                 polygons.lies_above(newton, hodge) and
                 polygons.same_endpoint(newton, hodge),
                 f"Newton {newton.slopes} vs Hodge {hodge.slopes}")]
    warnings = []
    elements = {"t_H": str(tH), "t_N": _frac_str(tN)}
    try:
        wa = fontaine.weakly_admissible_dim2(D)
        elements["weakly_admissible"] = wa
    except ValueError as exc:
        warnings.append(f"admissibility not decided: {exc}")
    return {
        "mode": "filtered",
        "ring": _ring_json(cfg),
        "elements": elements,
        "polygons": {"hodge": poly_to_json(hodge),
                     "newton": poly_to_json(newton)},
        "verdicts": _verdicts_json(verdicts),
        "warnings": warnings,
    }


def cmd_sweep(doc, prec_override=None):
    """One analyze row per grid point; per-row errors are recorded and the
    sweep continues.  Row order follows the document."""
    fam = doc.get("family", {})
    n1 = _as_int(fam.get("n1", 1), "family.n1")
    n2 = _as_int(fam.get("n2", 1), "family.n2")
    grid = doc.get("L", [])
    if not isinstance(grid, list):
        raise DocError("L", "expected a list of L expressions")
    rows = []
    n_failed = n_errors = 0
    for i, spec in enumerate(grid):
        try:
            cfg = parse_ring(doc, prec_override=prec_override, r=n1 + n2)
            L = _parse_k_elem(cfg, spec, f"L[{i}]")
            params = fontaine.FamilyParams(cfg, n1, n2, L)
            report = family_report(breuil.analyze_family(params))
            report["L_spec"] = spec if isinstance(spec, str) else list(spec)
            ok = all(v["passed"] for v in report["verdicts"])
            n_failed += 0 if ok else 1
            rows.append({"status": "ok" if ok else "failed", "report": report})
        except (DocError, ValueError, ArithmeticError) as exc:
            n_errors += 1
            rows.append({"status": "error",
                         "L_spec": spec if isinstance(spec, str) else list(spec),
                         "error": str(exc)})
    return {
        "mode": "sweep",
        "rows": rows,
        "summary": {"total": len(rows), "failed": n_failed,
                    "errors": n_errors},
    }


# ---------------------------------------------------------------------------
# rendering


def _poly_points(vertices):
    return [(Fraction(_parse_frac(a)), Fraction(_parse_frac(b)))
            for a, b in vertices]


def _parse_frac(s):
    if s == "inf":
        return math.inf
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def render_ascii(report):
    polys = report.get("polygons", {})
    if not polys:
        return "(no polygons)\n"
    marks = "*o#+%"
    names = sorted(polys)
    pts = {n: _poly_points(polys[n]) for n in names}
    xmax = max((v[0] for n in names for v in pts[n]), default=Fraction(0))
    ymax = max((v[1] for n in names for v in pts[n]), default=Fraction(0))
    xmax = max(xmax, 1)
    ymax = max(ymax, 1)
    W, H = 49, 17
    grid = [[" "] * (W + 1) for _ in range(H + 1)]

    def place(x, y, ch):
        col = round(float(Fraction(x) / xmax) * W)
        row = H - round(float(Fraction(y) / ymax) * H)
        if grid[row][col] == " " or grid[row][col] == ch:
            grid[row][col] = ch
        else:
            grid[row][col] = "@"

    for ni, name in enumerate(names):
        ch = marks[ni % len(marks)]
        vs = pts[name]
        for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
            steps = 2 * W
            for s in range(steps + 1):
                t = Fraction(s, steps)
                place(x1 + (x2 - x1) * t, y1 + (y2 - y1) * t, ch)
    lines = ["".join(row).rstrip() for row in grid]
    legend = []
    for ni, name in enumerate(names):
        vstr = " ".join(f"({_frac_str(a)},{_frac_str(b)})"
                        for a, b in pts[name])
        legend.append(f"  {marks[ni % len(marks)]} {name}: {vstr}")
    out = ["polygons (x: 0..%s, y: 0..%s)" % (xmax, ymax)]
    out.extend(lines)
    out.append("vertices:")
    out.extend(legend)
    for v in report.get("verdicts", []):
        out.append(f"[{'PASS' if v['passed'] else 'FAIL'}] {v['name']}: "
                   f"{v['evidence']}")
    return "\n".join(out) + "\n"


def render_svg(report):
    polys = report.get("polygons", {})
    names = sorted(polys)
    colors = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910"]
    xmax = ymax = Fraction(1)
    pts = {n: _poly_points(polys[n]) for n in names}
    for n in names:
        for x, y in pts[n]:
            xmax, ymax = max(xmax, x), max(ymax, y)
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


def cmd_render(report, fmt):
    if fmt == "json":
        return render_json(report)
    if fmt == "ascii":
        if report.get("mode") == "sweep":
            parts = []
            for row in report["rows"]:
                if row["status"] == "error":
                    parts.append(f"row {row.get('L_spec')}: ERROR {row['error']}\n")
                else:
                    parts.append(render_ascii(row["report"]))
            return "".join(parts)
        return render_ascii(report)
    if fmt == "svg":
        return render_svg(report)
    raise DocError("format", f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# the oracle battery


def cmd_oracle(seed=0, trials=25, out=None):
    """Randomized cross-checks of every derived-value path; prints one
    PASS/FAIL line per oracle (to ``out``, default the current stdout) and
    returns the worst exit code."""
    import itertools
    import random

    out = sys.stdout if out is None else out

    rng = random.Random(seed)
    results = []

    cfg = RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)

    def random_strunc():
        return cfg.s([cfg.w((rng.randrange(7 ** 7), rng.randrange(7 ** 7)))
                      for _ in range(rng.randrange(1, 5))])

    ok = True
    for _ in range(trials):
        x = random_strunc()
        s = rng.choice([1, 2])
        if (x - x.tronc(s)).val_E() < s:
            ok = False
    results.append(("tronc_remainder_divisible", ok))

    ok = True
    for carrier in (adapted.ECarrier(cfg), adapted.UCarrier(cfg),
                    adapted.PCarrier(cfg)):
        for _ in range(trials):
            rows = _random_matrix(cfg, carrier, rng, 3, 4)
            if adapted.divisor_exponents(rows, carrier) != \
                    adapted.minor_exponents(rows, carrier):
                ok = False
    results.append(("divisor_exponents_paths_agree", ok))

    ok = True
    for _ in range(trials):
        slopes = sorted(Fraction(rng.randrange(0, 8), rng.choice([1, 2, 4]))
                        for _ in range(rng.randrange(1, 5)))
        # random split polynomial: valuations of prod (X - p^{a_i})
        avals = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 5))]
        d = len(avals)
        vals = []
        for k in range(d + 1):
            best = math.inf
            for sub in itertools.combinations(avals, d - k):
                best = min(best, sum(sub))
            vals.append(best)
        P = polygons.newton_polygon(vals)
        if list(P.slopes) != sorted(Fraction(a) for a in avals):
            ok = False
        merged = polygons.merge(P, polygons.from_slopes(slopes))
        for k in range(merged.width + 1):
            want = min(P.ordinate(mn) +
                       polygons.from_slopes(slopes).ordinate(k - mn)
                       for mn in range(max(0, k - len(slopes)),
                                       min(k, P.width) + 1))
            if merged.ordinate(k) != want:
                ok = False
    results.append(("newton_and_merge_formulas", ok))

    cfg13 = RingConfig(13, 1, 5, [-13, 0, 0, 0, 0, 1], prec=8, r=2)
    ok = True
    for _ in range(trials):
        units = []
        for _ in range(3):
            coeffs = [rng.randrange(1, 13)] + \
                [rng.randrange(13) for _ in range(rng.randrange(0, 8))]
            units.append(cfg13.tilde(coeffs))
        rho, alpha, mu = units
        try:
            X = breuil.solve_eqX(rho, alpha, mu, 5, 4)
            q = 13 * ((13 + 1) * 1 - 10)
            lhs = rho * X * (-alpha.phi() + X.phi() * cfg13.tilde_u(q))
            if not (lhs - mu).is_zero():
                ok = False
        except (ValueError, ArithmeticError):
            ok = False
    results.append(("eqX_substitution", ok))

    worst = 0
    for name, passed in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}", file=out)
        if not passed:
            worst = 1
    return worst


def _random_matrix(cfg, carrier, rng, d, D):
    rows = []
    for _ in range(d):
        row = []
        for _ in range(D):
            v = rng.randrange(0, 5)
            if carrier.name == "E":
                x = cfg.s([cfg.w((rng.randrange(7 ** 7), rng.randrange(7 ** 7)))
                           for _ in range(rng.randrange(1, 4))])
                row.append(x * carrier.pi_power(v))
            elif carrier.name == "u":
                x = cfg.tilde([(rng.randrange(7), rng.randrange(7))
                               for _ in range(rng.randrange(1, 6))])
                row.append(x * carrier.pi_power(v))
            else:
                row.append(cfg.w((rng.randrange(7 ** 7),
                                  rng.randrange(7 ** 7))) *
                           carrier.pi_power(v))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# entry point


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except OSError as exc:
        raise DocError(path, str(exc)) from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="padic-polygons",
        description="polygon invariants of filtered modules and strongly "
                    "divisible lattices, in exact p-adic arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--prec", type=int, default=None)
        sp.add_argument("--format", default="json",
                        choices=["json", "ascii", "svg"])
        sp.add_argument("--out", default=None)
    sp = sub.add_parser("render")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", default="ascii",
                    choices=["json", "ascii", "svg"])
    sp.add_argument("--out", default=None)
    sp = sub.add_parser("oracle")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=25)
    args = parser.parse_args(argv)

    try:
        if args.command == "oracle":
            return cmd_oracle(seed=args.seed, trials=args.trials)
        if args.command == "render":
            report = _load_doc(args.input)
            text = cmd_render(report, args.format)
            _emit(text, args.out)
            return 0
        doc = _load_doc(args.input)
        if args.command == "analyze":
            report = cmd_analyze(doc, prec_override=args.prec)
        else:
            report = cmd_sweep(doc, prec_override=args.prec)
        text = cmd_render(report, args.format)
        _emit(text, args.out)
        if report.get("mode") == "sweep":
            if report["summary"]["errors"]:
                return 2
            return 1 if report["summary"]["failed"] else 0
        return 0 if all(v["passed"] for v in report["verdicts"]) else 1
    except DocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, DivisibilityError) as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
