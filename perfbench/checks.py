"""Outcome of each benchmark operation: ``ok``, ``wrong`` or ``error``.

An operation is ``wrong`` when it returned a result that the check rejects,
and ``error`` when it raised.  Both count as failed.  A wrong result that is a
documented defect of the program (``known``) stays counted as failed but does
not make the run incorrect; any other wrong result does.
"""

from __future__ import annotations

QP_REJECTION = "L lies in Q_p at working precision"

SUMMARY_ELEMENTS = ("case", "j", "v", "classification_shape",
                    "adapted_exponents_E", "adapted_exponents_u")


def family_summary(report):
    """The invariants compared against the recorded summary: case, j, v,
    classification shape, adapted exponents and the four polygons."""
    elements = report["elements"]
    out = {k: elements[k] for k in SUMMARY_ELEMENTS}
    out["polygons"] = report["polygons"]
    return out


def classify_family(instance, raised, digest, golden):
    """Outcome of one family operation.

    ``raised`` is (exception class name, message) or None; ``digest`` is
    (invariant summary, names of failed verdicts) when nothing was raised;
    ``golden`` maps instance keys to recorded summaries.  Returns (outcome,
    detail, known)."""
    if raised is not None:
        kind, message = raised
        if kind == "ValueError" and message == QP_REJECTION:
            if instance["in_qp"]:
                return "ok", "documented Q_p rejection", False
            return "wrong", "Q_p rejection of an L built outside Q_p", False
        return "error", f"{kind}: {message}", False
    if instance["in_qp"]:
        return "wrong", "verdicts returned for an L inside Q_p", False
    summary, failed = digest
    if failed:
        return "wrong", "failed verdicts: " + ", ".join(failed), False
    want = golden.get(instance["key"])
    if want is not None and summary != want:
        return ("wrong", "invariant summary differs from the recorded one",
                False)
    return "ok", "", False


def classify_smith(instance, got, minors):
    """divisor_exponents against minor_exponents.  Over the p carrier a
    disagreement is the documented precision defect of the Smith path."""
    if got == minors:
        return "ok", "", False
    return ("wrong", f"reduction {got} vs minors {minors}",
            instance["carrier"] == "p")


def classify_eqx(substitution_holds):
    if substitution_holds:
        return "ok", "", False
    return "wrong", "X does not satisfy the equation", False


def classify_raised(kind, message):
    return "error", f"{kind}: {message}", False
