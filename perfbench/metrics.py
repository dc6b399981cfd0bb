"""Names and units of the reported metrics, and the per-layer derivation.

Per-layer names read ``<module>.<function>.<stat>``: ``calls`` and
``failed`` (calls that raised) are counts, ``self_s`` is span time minus
child-span time and ``incl_s`` is span time, both in seconds and summed over
calls.  ``<module>.other.self_s`` is the self time of the module's traced
functions not listed by name, so the self times reported for a run add up to
``runner.run.incl_s``.
"""

import re

from tracer import TRACED_MODULES

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "steps": "count",
    "max_err": "1",
    "peak_rss_mb": "MB",
}

# Metrics of single traced functions, by module.
FUNCTION_METRICS = {
    "spectral": [
        "forward.calls", "forward.self_s", "inverse.calls", "inverse.self_s",
        "dealias.self_s", "gradient.self_s", "inverse_laplacian.self_s",
        "velocity_from_vorticity.self_s",
    ],
    "lagrangian": [
        "build_stack.calls", "build_stack.self_s", "next_coefficient.calls",
        "next_coefficient.self_s", "evaluate_displacement.self_s",
        "jacobian_determinant.self_s", "choose_step.self_s",
    ],
    "interpolation": [
        "check_monotonicity.self_s", "cascade_revert.calls",
        "cascade_revert.self_s", "cascade_revert.failed",
    ],
    "eulerian": [
        "rhs.calls", "rhs.self_s", "rk4_step.self_s", "et_coefficients.calls",
        "et_coefficients.self_s", "et_step.self_s",
    ],
    "runner": [
        "run.self_s", "run.incl_s", "radius_probe.calls", "radius_probe.incl_s",
        "initial_vorticity.self_s",
    ],
    "diagnostics": [],
    "io": ["write_field.calls", "write_field.self_s", "write_csv.self_s"],
}

# Work counters summed from call arguments (see tracer.COUNTERS).
COUNTER_METRICS = {
    "spectral.transform_elems": "count",
    "lagrangian.recurrence_terms": "count",
    "io.bytes_written": "B",
}

# Whole-module aggregates.
MODULE_METRICS = ["diagnostics.calls", "diagnostics.self_s"] + [
    f"{m}.other.self_s" for m in TRACED_MODULES if m != "diagnostics"
]

# Facts of the traced run as a whole.
RUN_METRICS = {
    "runner.steps": "count",
    "interpolation.kernel_ms": "ms",
    "trace.solve_s": "s",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
    "trace.spans": "count",
}


def _unit(name):
    return "count" if name.endswith((".calls", ".failed")) else "s"


def per_layer_units():
    """Every per-layer metric name mapped to its unit, in report order."""
    units = {}
    for module, entries in FUNCTION_METRICS.items():
        for entry in entries:
            units[f"{module}.{entry}"] = _unit(entry)
    units.update(COUNTER_METRICS)
    for name in MODULE_METRICS:
        units[name] = _unit(name)
    units.update(RUN_METRICS)
    return units


def layer_values(stats, counters):
    """Per-layer values of one traced run, except the RUN_METRICS.

    stats: tracer.function_stats output; counters: tracer counters.
    """
    values = {}
    named_self = dict.fromkeys(TRACED_MODULES, 0.0)
    for module, entries in FUNCTION_METRICS.items():
        for entry in entries:
            func, stat = entry.rsplit(".", 1)
            value = stats.get(f"{module}.{func}", {}).get(stat, 0)
            values[f"{module}.{entry}"] = value
            if stat == "self_s":
                named_self[module] += value
    for name in COUNTER_METRICS:
        values[name] = counters.get(name, 0)
    module_self = dict.fromkeys(TRACED_MODULES, 0.0)
    for full, entry in stats.items():
        module_self[full.split(".", 1)[0]] += entry["self_s"]
    values["diagnostics.calls"] = sum(
        entry["calls"] for full, entry in stats.items() if full.startswith("diagnostics."))
    values["diagnostics.self_s"] = module_self["diagnostics"]
    for module in TRACED_MODULES:
        if module != "diagnostics":
            values[f"{module}.other.self_s"] = module_self[module] - named_self[module]
    return values


def accounted_pct(values):
    """Reported self times as a share of runner.run's inclusive time."""
    total = sum(
        v for name, v in values.items()
        if name.endswith(".self_s") and not name.startswith("trace.")
    )
    run_incl = values["runner.run.incl_s"]
    return 100.0 * total / run_incl if run_incl > 0 else 0.0
