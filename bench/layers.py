"""The nks3 functions the traced run wraps, and the span arithmetic.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of
the enclosing span, or -1.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

LAYERS = {
    "quat": ("qmul", "normalize", "unit"),
    "nkspace": (
        "metric", "gnorm", "apply_J", "apply_P", "frame_coords",
        "from_frame_coords", "tensor_G", "identity_report",
    ),
    "surface": (
        "immersion_grid", "partials", "almost_complex_residual",
        "extract_coefficients", "integrability_residuals", "cr_residuals",
        "lambda_field", "induced_metric", "gaussian_curvature",
        "second_fundamental_form", "classify_P_alignment", "analyze",
    ),
    "hsystem": (
        "h_surface_grid", "h_equation_residual", "epsilon_from_surface",
        "surface_from_epsilon", "mean_curvature", "metric_factor_check",
    ),
    "fixtures": ("make_fixture",),
    "io": (
        "read_immersion_csv", "write_immersion_csv",
        "read_epsilon_csv", "write_epsilon_csv",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
ROOT = "cli.main"


def self_times(spans):
    """Aggregate spans into ``{name: [calls, self_s]}`` and audit them.

    Returns ``(aggregate, audit)``.  The audit holds the root duration, the
    sum of all self times, and whether every child lies inside its parent,
    siblings do not overlap, and the only root is one ``cli.main`` span.
    With proper nesting the self times sum to the root duration.
    """
    child_time = [0.0] * len(spans)
    last_end = {}
    nested = True
    roots = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            nested = False
        if parent < 0:
            roots.append(i)
            continue
        _, pstart, pend, _ = spans[parent]
        if start < pstart or end > pend or start < last_end.get(parent, pstart):
            nested = False
        last_end[parent] = end
        child_time[parent] += end - start
    aggregate = {}
    total_self = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        own = (end - start) - child_time[i]
        total_self += own
        slot = aggregate.setdefault(name, [0, 0.0])
        slot[0] += 1
        slot[1] += own
    single_root = len(roots) == 1 and spans[roots[0]][0] == ROOT
    root_s = spans[roots[0]][2] - spans[roots[0]][1] if single_root else 0.0
    audit = {
        "nested": nested and single_root,
        "root_s": root_s,
        "self_sum_s": total_self,
    }
    return aggregate, audit


def audit_ok(audit):
    return audit["nested"] and abs(audit["self_sum_s"] - audit["root_s"]) <= 1e-9 * max(1.0, audit["root_s"])
