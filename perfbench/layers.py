"""Which su3mag functions the traced run wraps, and the per-layer metrics.

Each wrapped function is a layer boundary named ``<module>.<function>``.
Per-layer metrics are reported for one set-up plus one average pass: spans
of the set-up (run id 0) count in full, spans of the N traced passes
(run ids 1..N) are divided by N.  ``_calls`` is a call count, ``_s`` the
wall time inside the function (nested calls of the same function counted
once), ``_self_s`` that time minus the time of wrapped callees.

Which end-to-end metric each layer metric should move:

* ``scalars.*``, ``algebra.build_*``: ``setup_s`` on every workload, and
  ``pass_s`` on ``exact``.
* ``algebra.np_bracket_*``, ``coords_of_matrix_*``, ``exp_map_calls``,
  ``phase.hvf_*``, ``phase.differential_*``, ``phase.twisted_bracket_s``,
  ``certify.*``, ``angles.*``: ``pass_s`` on ``certify``, except
  ``certify.bracket_table_regular_s``: the regular case is not in
  ``certify``, and the regular bracket tables of ``exact`` reach it.
* ``algebra.polar_project_s``, ``phase.rk_step_us``, ``phase.flow_steps``,
  ``reports.trajectory_csv_s``, ``reports.conservation_json_s``: ``pass_s``
  on ``flow`` (and ``peak_rss_mb`` there, which grows with the steps).
* ``poly.evaluate_*``: ``pass_s`` on ``certify`` and ``flow``.
* ``exact_linalg.*``, ``poly.mul_*``, ``poly.b_gradient_s``,
  ``invariants.*``, ``reports.bracket_table_text_s``,
  ``reports.centralizer_report_s``, ``certify.bracket_table_regular_s``:
  ``pass_s`` on ``exact``.
* ``*_accept_ratio``: accepted samples over draws, the share of sampling
  work that is not wasted.
"""

from __future__ import annotations

import statistics
import time

from tracer import children_count, summarize

# (module, function, span name or None for "<module>.<function>")
FUNCTIONS = (
    ("su3mag.algebra", "build_su3_gellmann", None),
    ("su3mag.algebra", "build_su3_chevalley", None),
    ("su3mag.algebra", "build_su2", None),
    ("su3mag.algebra", "exp_map", None),
    ("su3mag.algebra", "polar_project", None),
    ("su3mag.exact_linalg", "nullspace", None),
    ("su3mag.exact_linalg", "rref", None),
    ("su3mag.poly", "b_gradient", None),
    ("su3mag.invariants", "invariant_space", None),
    ("su3mag.invariants", "indecomposable_generators", None),
    ("su3mag.invariants", "restrict_shift", None),
    ("su3mag.invariants", "casimirs_su3", None),
    ("su3mag.phase", "hamiltonian_vector_field", "phase.hvf"),
    ("su3mag.phase", "differential", None),
    ("su3mag.phase", "twisted_bracket", None),
    ("su3mag.phase", "integrate_flow", None),
    ("su3mag.certify", "center_check", None),
    ("su3mag.certify", "jacobian_rank_pi1", None),
    ("su3mag.certify", "dimension_report", None),
    ("su3mag.certify", "bracket_table_regular", None),
    ("su3mag.certify", "phi_relation_irregular", None),
    ("su3mag.reports", "run_verification", None),
    ("su3mag.reports", "trajectory_csv", None),
    ("su3mag.reports", "conservation_json", None),
    ("su3mag.reports", "bracket_table_text", None),
    ("su3mag.reports", "bracket_table_json", None),
    ("su3mag.reports", "centralizer_report", None),
    ("su3mag.angles", "flow_step", None),
    ("su3mag.angles", "angle_action_pairing", None),
    ("su3mag.angles", "frequency_matrix", None),
    ("su3mag.angles", "chart_point", None),
)

# (module, class, method, span name)
METHODS = (
    ("su3mag.algebra", "LieAlgebraSpec", "np_bracket", "algebra.np_bracket"),
    ("su3mag.algebra", "LieAlgebraSpec", "coords_of_matrix",
     "algebra.coords_of_matrix"),
    ("su3mag.poly", "Polynomial", "evaluate", "poly.evaluate"),
    ("su3mag.poly", "Polynomial", "__mul__", "poly.mul"),
    ("su3mag.poly", "Polynomial", "__rmul__", "poly.mul"),
    ("su3mag.phase", "MagneticSystem", "random_point", "phase.random_point"),
    ("su3mag.phase", "MagneticSystem", "random_regular_point",
     "phase.random_regular_point"),
)

# counted without a span: one product is too cheap to carry one
COUNTED = (("su3mag.scalars", "Scalar", "__mul__", "scalars.mul"),
           ("su3mag.scalars", "Scalar", "__rmul__", "scalars.mul"))

INVARIANT_DEGREES = (2, 3, 4, 5, 6)


def _invariant_space_name(alg, sub, degree, *args, **kwargs):
    return f"invariants.invariant_space.deg{degree}"


def _count_steps(tracer, traj):
    tracer.count("phase.flow_steps", len(traj.points) - 1)


_SPECIAL = {
    "invariant_space": {"name_of_call": _invariant_space_name},
    "integrate_flow": {"on_result": _count_steps},
}


def install(tracer, modules, done):
    """Wrap the targets of every module in ``modules`` not yet in ``done``."""
    for mod_name, mod in modules.items():
        if mod_name in done:
            continue
        done.add(mod_name)
        for m, attr, name in FUNCTIONS:
            if m == mod_name:
                tracer.wrap_function(mod, attr, name, **_SPECIAL.get(attr, {}))
        for m, cls, attr, name in METHODS:
            if m == mod_name:
                tracer.wrap_method(getattr(mod, cls), attr, name)
        for m, cls, attr, name in COUNTED:
            if m == mod_name:
                tracer.wrap_method(getattr(mod, cls), attr, name,
                                   count_only=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _timed(name):
    return (f"{name}_s", "s", ("total_s", name))


def _calls(name):
    return (f"{name}_calls", "count", ("calls", name))


METRICS = (
    ("scalars.mul_calls", "count", ("counter", "scalars.mul")),
    ("scalars.mul_ns", "ns", ("mul_ns",)),
    _timed("algebra.build_su3_gellmann"),
    _timed("algebra.build_su3_chevalley"),
    _timed("algebra.build_su2"),
    _calls("algebra.np_bracket"),
    _timed("algebra.np_bracket"),
    _calls("algebra.coords_of_matrix"),
    _timed("algebra.coords_of_matrix"),
    _calls("algebra.exp_map"),
    _timed("algebra.polar_project"),
    _timed("exact_linalg.nullspace"),
    _calls("exact_linalg.rref"),
    _calls("poly.evaluate"),
    _timed("poly.evaluate"),
    _calls("poly.mul"),
    _timed("poly.mul"),
    _timed("poly.b_gradient"),
) + tuple(
    (f"invariants.invariant_space_s.deg{d}", "s",
     ("total_s", f"invariants.invariant_space.deg{d}"))
    for d in INVARIANT_DEGREES
) + (
    _timed("invariants.indecomposable_generators"),
    _timed("invariants.restrict_shift"),
    _timed("invariants.casimirs_su3"),
    _calls("phase.hvf"),
    ("phase.hvf_self_s", "s", ("self_s", "phase.hvf")),
    _calls("phase.differential"),
    _timed("phase.differential"),
    _timed("phase.twisted_bracket"),
    ("phase.rk_step_us", "us", ("rk_step_us",)),
    ("phase.flow_steps", "count", ("counter", "phase.flow_steps")),
    ("phase.regular_point_accept_ratio", "ratio",
     ("accept", "phase.random_regular_point", "phase.random_point")),
    _timed("certify.center_check"),
    _timed("certify.jacobian_rank_pi1"),
    _timed("certify.dimension_report"),
    _timed("certify.bracket_table_regular"),
    _timed("certify.phi_relation_irregular"),
    _timed("angles.flow_step"),
    _timed("angles.angle_action_pairing"),
    _timed("angles.frequency_matrix"),
    ("angles.chart_point_accept_ratio", "ratio",
     ("accept", "angles.chart_point", "phase.random_regular_point")),
    _timed("reports.trajectory_csv"),
    _timed("reports.conservation_json"),
    _timed("reports.bracket_table_text"),
    _timed("reports.centralizer_report"),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
    ("trace.spans", "count", ("spans",)),
)


def compute(tracer, npasses, counters_setup, mul_ns, overhead_ratio):
    """Per-layer metric values: one set-up plus one average pass."""
    spans = tracer.arrays()
    setup_mask = spans["run_id"] == 0
    pass_mask = ~setup_mask
    per_setup = summarize(tracer.names, spans, setup_mask)
    per_pass = summarize(tracer.names, spans, pass_mask)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def field(kind, name):
        return (per_setup.get(name, zero)[kind]
                + per_pass.get(name, zero)[kind] / npasses)

    def counter(name):
        at_setup = counters_setup.get(name, 0)
        return at_setup + (tracer.counters.get(name, 0) - at_setup) / npasses

    def accepted_ratio(parent, child):
        draws = (children_count(tracer.names, spans, child, parent, setup_mask)
                 + children_count(tracer.names, spans, child, parent,
                                  pass_mask) / npasses)
        return field("calls", parent) / draws if draws else 0.0

    out = {}
    for name, unit, how in METRICS:
        kind = how[0]
        if kind in ("calls", "total_s", "self_s"):
            value = field(kind, how[1])
        elif kind == "counter":
            value = counter(how[1])
        elif kind == "mul_ns":
            value = mul_ns
        elif kind == "rk_step_us":
            steps = counter("phase.flow_steps")
            value = (1e6 * field("total_s", "phase.integrate_flow") / steps
                     if steps else 0.0)
        elif kind == "accept":
            value = accepted_ratio(how[1], how[2])
        elif kind == "overhead":
            value = overhead_ratio
        elif kind == "spans":
            value = int(setup_mask.sum()) + int(pass_mask.sum()) / npasses
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def scalar_mul_ns(algebras, repeats=7, min_batch_s=0.05):
    """Nanoseconds per ``Scalar`` product over a fixed batch.

    The operands are the algebras' own structure constants and B-form
    entries, zeros included, paired in a fixed order; the figure is the
    median over ``repeats`` timings of the whole batch.
    """
    values = []
    for alg in algebras:
        values += [alg.structure[k] for k in sorted(alg.structure)]
        values += [x for row in alg.bform for x in row]
    n = len(values)
    pairs = [(values[i], values[(7 * i + 3) % n]) for i in range(n)]
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            for x, y in pairs:
                x * y
        if time.perf_counter() - t0 >= min_batch_s:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            for x, y in pairs:
                x * y
        samples.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(samples) / (loops * n)
