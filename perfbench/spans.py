"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the package from outside:
module attributes (``analyze_family`` looks its stages up through module
globals, so patching the module attribute reaches it) and class attributes
(``a * b`` looks ``__mul__`` up on the class).  Nothing is recorded outside an
operation, so building inputs and checking results do not count.

Each span records its operation id, name, start, end (``perf_counter_ns``)
and parent.  Spans stay in memory until the run ends.  Counters record calls
of the innermost ring operations, where a span per call would cost more
than the call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# (module, attribute, span name): stage spans, which name the stage of a
# failure.  divisor_exponents is named per carrier at call time.
STAGES = [
    ("cli", "parse_ring", "cli.parse"),
    ("cli", "parse_L_expression", "cli.parse"),
    ("cli", "family_report", "cli.report"),
    ("cli", "cmd_render", "cli.render"),
    ("fontaine", "family_module", "fontaine.polygons"),
    ("fontaine", "hodge_polygon", "fontaine.polygons"),
    ("fontaine", "newton_polygon_phi", "fontaine.polygons"),
    ("fontaine", "hermite_interpolant", "fontaine.hermite"),
    ("fontaine", "weakly_admissible_dim2", "fontaine.admissible"),
    ("breuil", "normalize_L", "breuil.normalize"),
    ("breuil", "build_elements", "breuil.elements"),
    ("breuil", "strong_lattice", "breuil.lattice"),
    ("breuil", "verify_strong_divisibility", "breuil.verify"),
    ("breuil", "reduce_mod_p", "breuil.reduce"),
    ("breuil", "phi2_image", "breuil.phi2"),
    ("breuil", "classify_rank2", "breuil.classify"),
    ("breuil", "solve_eqX", "breuil.solve_eqX"),
    ("adapted", "divisor_exponents", None),
]

# (class, method, span name): ring operations timed with a span.
TIMED_METHODS = [
    ("STrunc", "__mul__", "arith.strunc_mul"),
    ("STrunc", "__rmul__", "arith.strunc_mul"),
    ("STrunc", "unit_inverse", "arith.strunc_unit_inverse"),
    ("TildePoly", "__mul__", "arith.tilde_mul"),
    ("TildePoly", "__rmul__", "arith.tilde_mul"),
    ("TildePoly", "unit_inverse", "arith.tilde_unit_inverse"),
    ("KElem", "inverse", "arith.kelem_inverse"),
    ("RingConfig", "__init__", "arith.ringconfig"),
]

# (class, method, counter name): ring operations that are only counted.
COUNTED_METHODS = [
    ("WittElem", "__mul__", "arith.witt_mul"),
    ("WittElem", "__rmul__", "arith.witt_mul"),
    ("STrunc", "val_E", "arith.strunc_val_E"),
    ("STrunc", "divrem_E", "arith.strunc_divrem_E"),
    ("STrunc", "phi", "arith.strunc_phi"),
    ("TildePoly", "phi", "arith.tilde_phi"),
    ("GFElem", "__mul__", "arith.gf_mul"),
    ("GFElem", "__rmul__", "arith.gf_mul"),
    ("KElem", "val_p", "arith.kelem_val_p"),
]

ROOT = "op"

# Per-layer metrics read straight off the counters (calls per operation)
# and the spans (self time per operation).
CALL_METRICS = ("arith.strunc_mul", "arith.tilde_mul", "arith.witt_mul",
                "arith.strunc_val_E", "arith.strunc_divrem_E",
                "arith.strunc_phi", "arith.tilde_phi", "arith.gf_mul",
                "arith.kelem_val_p")
SELF_MS_METRICS = (
    "arith.strunc_mul", "arith.tilde_mul", "arith.strunc_unit_inverse",
    "arith.tilde_unit_inverse", "arith.kelem_inverse", "arith.ringconfig",
    "adapted.smith_E", "adapted.smith_u", "adapted.smith_p",
    "breuil.normalize", "breuil.elements", "breuil.lattice", "breuil.verify",
    "breuil.reduce", "breuil.phi2", "breuil.classify", "breuil.solve_eqX",
    "fontaine.polygons", "fontaine.hermite", "fontaine.admissible",
    "cli.parse", "cli.report", "cli.render")


class Tracer:
    """Spans and counters of one process; ``op`` is the open operation."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.op = None
        self.spans = []        # [op, name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.gauges = {}       # name -> minimum seen
        self.failed_stage = {}  # id(exc) -> (exc, innermost stage span)
        self._patches = []

    # spans -----------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, self.clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][3] = self.clock()
        self.stack.pop()

    def begin_op(self, op_id):
        self.op = op_id
        self.failed_stage.clear()
        return self.open(ROOT)

    def end_op(self, index, exc=None):
        """Close the root span; returns the stage the failure came from."""
        self.close(index)
        self.op = None
        stage = None
        if exc is not None:
            stage = self.failed_stage.get(id(exc), (None, ROOT))[1]
        self.failed_stage.clear()
        return stage

    def gauge_min(self, name, value):
        old = self.gauges.get(name)
        self.gauges[name] = value if old is None else min(old, value)

    # wrappers --------------------------------------------------------------

    def span_wrapper(self, fn, name_of, stage, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            name = name_of(args)
            tracer.counts[name + ".calls"] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if stage:
                    tracer.failed_stage.setdefault(id(exc), (exc, name))
                raise
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapped

    def count_wrapper(self, fn, name):
        tracer = self
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.op is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _elements_digits(tracer, args, elements):
    """Precision ledger of build_elements' result."""
    tracer.gauge_min("breuil.t_digits_min", elements.t.min_prec())
    tracer.gauge_min("breuil.elements_digits_min",
                     min(x.min_prec() for x in (elements.t, elements.Z,
                                                elements.U, elements.V)))


def _solve_eqx_wrapper(tracer, wrapped_fn):
    """Counts the TildePoly.phi calls made inside solve_eqX."""
    @functools.wraps(wrapped_fn)
    def wrapped(*args, **kwargs):
        if tracer.op is None:
            return wrapped_fn(*args, **kwargs)
        before = tracer.counts["arith.tilde_phi.calls"]
        try:
            return wrapped_fn(*args, **kwargs)
        finally:
            tracer.counts["breuil.solve_eqX.phi_calls"] += \
                tracer.counts["arith.tilde_phi.calls"] - before

    return wrapped


def install(package_modules):
    """Wrap the package's stage functions and ring methods.

    ``package_modules`` maps "cli", "fontaine", "breuil", "adapted" and
    "arith" to the imported modules.  Returns the tracer."""
    tracer = Tracer()
    arith = package_modules["arith"]
    for cls_name, method, name in TIMED_METHODS:
        cls = getattr(arith, cls_name)
        tracer.patch(cls, method, tracer.span_wrapper(
            cls.__dict__[method], lambda args, n=name: n, stage=False))
    for cls_name, method, name in COUNTED_METHODS:
        cls = getattr(arith, cls_name)
        tracer.patch(cls, method,
                     tracer.count_wrapper(cls.__dict__[method], name))
    for mod_name, attr, name in STAGES:
        module = package_modules[mod_name]
        fn = module.__dict__[attr]
        if name is None:
            def name_of(args):
                return f"adapted.smith_{args[1].name}"
        else:
            def name_of(args, n=name):
                return n
        after = _elements_digits if attr == "build_elements" else None
        wrapper = tracer.span_wrapper(fn, name_of, stage=True, after=after)
        if attr == "solve_eqX":
            wrapper = _solve_eqx_wrapper(tracer, wrapper)
        tracer.patch(module, attr, wrapper)
    return tracer


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.  ``spans`` holds (name, start, end,
    parent index or -1) in any order of creation."""
    children = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for child in sorted(children.get(index, ()),
                            key=lambda c: spans[c][1]):
            c_start = max(spans[child][1], reach)
            c_end = min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def nesting_errors(spans):
    """Spans that start before or end after their parent."""
    bad = []
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end or end < start:
                bad.append(index)
    return bad
