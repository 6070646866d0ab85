"""Report generation: verification runs, flow exports, bracket tables.

Everything written here is deterministic for a fixed configuration and
seed: no timestamps, sorted JSON keys, floats through Python's shortest
round-trip repr.
"""

from __future__ import annotations

import json

import numpy as np

from .poly import Polynomial
from .invariants import (indecomposable_generators, restrict_shift,
                         casimir_count, radial_generator)
from .phase import (su3_regular_system, su3_irregular_system, PhasePoint,
                    integrate_flow, conservation_report, closed_form_fiber)
from .algebra import build_su2, centralizer_of, identity_element
from .certify import (CertificateReport, bracket_table_regular,
                      cubic_relation_check, cubic_relation_numeric,
                      phi_relation_irregular, bracket_samples,
                      center_check, jacobian_rank_pi1, pi1_rank_samples,
                      a_matrix_minors, dimension_report, generator_family,
                      couplings, LEDGER, NUM_TOL, _worst)
from .scalars import Scalar


CASES = ("regular", "irregular")
# the flow checks' tolerance (drift, Lax closed form, conservation export)
FLOW_TOL = 1e-8


def default_config(case):
    return {
        "case": case,
        "eps": 0.1,
        "seed": 7,
        "samples": 100,
        "rank_samples": 20,
        "t_end": 10.0,
        "dt": 1e-3,
    }


def make_system(case, eps):
    if case == "regular":
        return su3_regular_system(eps)
    if case == "irregular":
        return su3_irregular_system(eps)
    raise ValueError(f"unknown case {case!r}")


def run_verification(config):
    """The full certificate suite for one case; returns a CertificateReport.

    One generator, seeded by config["seed"], feeds every sampled check
    in a fixed order.  The phi relation, the bracket samples, the centre
    check, the pi1 ranks and the dimension ledger each draw their points
    in turn and build them as one stack (MagneticSystem.points_of), then
    evaluate over the stack; so does the angle-action pairing, on chart
    draws (chart_draw), its partner flows one batch per action.  The
    other angle checks and the flow take their points one at a time.
    """
    # the case's defaults for the keys the config leaves out
    config = {**default_config(config["case"]), **config}
    case = config["case"]
    eps = config["eps"]
    seed = int(config["seed"])
    samples = int(config["samples"])
    rank_samples = int(config["rank_samples"])
    if samples < 1 or rank_samples < 1:
        # a sampled check that draws no sample would pass on no evidence
        raise ValueError(f"samples and rank_samples must be at least 1, "
                         f"got {samples} and {rank_samples}")
    sys = make_system(case, eps)
    rng = np.random.default_rng(seed)
    report = CertificateReport(case_tag=case, sample_count=samples, seed=seed)

    # --- exact structure certificates -------------------------------------
    if case == "regular":
        table = bracket_table_regular(sys)
        report.add("bracket_table_closes", True, True, "exact")
        matched = sum(table.matches_reference.values())
        report.add("bracket_table_reference_entries", 8, matched, "exact")
        cubic_exact = cubic_relation_check(sys.alg)
        report.add("cubic_relation_u1u2u3_eq_v2_w2", True, cubic_exact,
                   "exact")
        # the cubic relation again, by the float root coordinates
        worst = cubic_relation_numeric(sys, rng, samples)
        report.add("cubic_relation_numeric", 0.0, worst, 1e-12)
    else:
        phi = phi_relation_irregular(sys, rng, samples=samples)
        report.add("phi_relation_max_residual", 0.0, phi["max_residual"],
                   NUM_TOL)
        report.add("phi_relation_negative_control_nonzero", True,
                   phi["negative_control_nonzero"], "exact")
        minors = a_matrix_minors(sys)
        m_names = sys.m_names()
        R = radial_generator(sys)
        pats = [("x7", 1), ("x6", -1), ("x5", 1), ("x4", -1)]
        ok = all((minor - s * Polynomial.var(m_names, nm) * R).is_zero()
                 for minor, (nm, s) in zip(minors, pats))
        report.add("a_matrix_minor_identities", True, ok, "exact")

    # --- restriction identities --------------------------------------------
    if case == "irregular":
        c2, c3 = sys.casimirs()
        r2 = restrict_shift(c2, sys)
        m_names = sys.m_names()
        evars = m_names + ("eps",)
        expect2 = sum((Polynomial.var(evars, nm) ** 2 for nm in m_names),
                      Polynomial.var(evars, "eps") ** 2 * 3)
        ok2 = (r2 - expect2).is_zero()
        report.add("ResW_C2_equals_R_plus_3eps2", True, ok2, "exact")
        r3 = restrict_shift(c3, sys)
        expect3 = -3 * Polynomial.var(evars, "eps") * expect2 \
            + 3 * Polynomial.var(evars, "eps") ** 3
        ok3 = (r3 - expect3).is_zero()
        report.add("ResW_C3_equals_minus3eps_2eps2_plus_R", True, ok3,
                   "exact")

    # --- commutant dimensions ----------------------------------------------
    # one invariant solve per degree: the generators carry the dimensions
    if case == "regular":
        gens = indecomposable_generators(sys.alg, sys.sub, 3)
        dims = [gens.dims[d] for d in (2, 3)]
        report.add("invariant_dims_m_deg2_deg3", [3, 2], dims, "exact")
        per_degree = sorted((d, sum(1 for _, _, dd in gens.generators
                                    if dd == d)) for d in (2, 3))
        report.add("indecomposable_generators_deg2_deg3", [(2, 3), (3, 2)],
                   per_degree, "exact")
    else:
        gens = indecomposable_generators(sys.alg, sys.sub, 4)
        dims = [gens.dims[d] for d in (2, 3, 4)]
        report.add("invariant_dims_m_deg2_3_4", [1, 0, 1], dims, "exact")
        report.add("single_generator_R_through_deg4", 1,
                   len(gens.generators), "exact")

    # --- numeric bracket certificates ----------------------------------------
    worst_closure, worst_mixed = bracket_samples(sys, rng, samples)
    report.add("moment_bracket_closure", 0.0, worst_closure, NUM_TOL)
    report.add("mixed_block_vanishing", 0.0, worst_mixed, NUM_TOL)

    # --- centrality -------------------------------------------------------------
    sub_report = center_check(sys, rng, samples=min(50, samples))
    worst_center = _worst([c.observed for c in sub_report.checks])
    report.add("center_check_worst_bracket", 0.0, worst_center, NUM_TOL)

    # --- ranks -------------------------------------------------------------------
    ranks = pi1_rank_samples(sys, rng, rank_samples)
    report.add("pi1_rank", LEDGER[case]["trdeg_A"], ranks, "exact")
    if case == "irregular":
        pt0 = PhasePoint(sys, identity_element(), np.zeros(sys.alg.dim))
        r0 = jacobian_rank_pi1(sys, pt0)
        report.add("pi1_rank_at_zero_fiber", 4, r0, "exact")

    # --- dimension ledger ---------------------------------------------------------
    report.checks += dimension_report(sys, rng, samples=rank_samples).checks

    # --- casimir count ---------------------------------------------------------------
    cc = casimir_count(sys.alg, rng.uniform(-1, 1, sys.alg.dim))
    report.add("casimir_count_su3", 2, cc, "exact")
    su2 = build_su2()
    cc2 = casimir_count(su2, rng.uniform(-1, 1, 3))
    report.add("casimir_count_su2", 1, cc2, "exact")

    # --- conservation along the flow -----------------------------------------------
    t_end = float(config["t_end"])
    dt = float(config["dt"])
    pt = sys.random_regular_point(rng)
    traj = integrate_flow(sys, pt, t_end=t_end, dt=dt)
    fam = generator_family(sys)
    stride = max(1, len(traj.points) // 2000)
    # array maxima: a NaN anywhere along the flow fails the check
    drift = np.max([e["max_drift"]
                    for e in conservation_report(sys, traj, fam, stride)])
    report.add("flow_conservation_max_drift", 0.0, drift, FLOW_TOL)
    lax = np.abs(traj.points[::stride].X - closed_form_fiber(
        sys, traj.points[0], traj.times[::stride])).max()
    report.add("flow_fiber_vs_lax_closed_form", 0.0, lax, FLOW_TOL)

    # --- action-angle canonicity ------------------------------------------------------
    from .angles import (chart_draw, chart_point, angle_action_pairing,
                         frequency_matrix, angle_angle_bracket, torus_action)
    n_angle = min(5, rank_samples)
    apts = sys.points_of([chart_draw(sys, rng) for _ in range(n_angle)])
    target = np.eye(2) if case == "regular" else np.array([1.0])
    worst_pair = _worst(angle_action_pairing(sys, apts) - target)
    report.add("angle_action_pairing", 0.0, worst_pair, 1e-5)
    apt = chart_point(sys, rng)
    if case == "irregular":
        Om = frequency_matrix(sys, apt)
        u_dot = abs(float((Om / float(Om @ Om)) @ Om) - 1.0)
        report.add("frequency_normalization_u_dot_Omega", 0.0, u_dot, 1e-10)
    else:
        moved = [torus_action(sys, apt, np.array(s))
                 for s in ((0.5, 0.0), (0.0, 0.8))]
        vals = [angle_angle_bracket(sys, p) for p in [apt] + moved]
        # np.ptp, not a Python max and min: a NaN fails the line
        const = float(np.ptp(vals))
        report.add("angle_angle_bracket_constant_on_torus", 0.0, const, 1e-6)
    return report


def report_lines(report):
    lines = [f"case={report.case_tag} seed={report.seed} "
             f"samples={report.sample_count}"]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        if c.name == "pi1_rank":
            obs = c.observed[0] if (isinstance(c.observed, list)
                                    and len(c.observed) == 1) else c.observed
            lines.append(f"[{status}] pi1_rank={obs}")
        else:
            lines.append(f"[{status}] {c.name}: expected={c.expected} "
                         f"observed={c.observed} tol={c.tolerance}")
    lines.append("result=" + ("PASS" if report.passed else "FAIL"))
    return lines


def report_json(report, config):
    doc = report.to_dict()
    doc["config"] = {k: config[k] for k in sorted(config)}
    doc["known_deviations"] = KNOWN_DEVIATIONS[report.case_tag]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


KNOWN_DEVIATIONS = {
    "regular": [
        "u3-row couplings of the invariant bracket table carry the opposite "
        "sign to the naive cyclic ansatz ({u3,v} = u3(u2-u1) + c3 w, "
        "{u3,w} = -c3 v); forced for every phase convention.",
        "Res_W(C2) = 4(u1+u2+u3) + eps^2/2 in the table-normalized "
        "generators; the bare u1+u2+u3 form drops the scale and shift.",
        "P*C3 = pi*(Res_W C3) = 48 w + eps (4 sqrt3 u1 - (6+2 sqrt3) u2 "
        "+ (6-2 sqrt3) u3) + (sqrt3/6) eps^3 in the table-normalized "
        "generators; identifying it with 48 w alone is only valid in the "
        "eps->0 limit.",
        "{phi~1, phi~2} is constant on each invariant torus but not zero "
        "for the geometric angles; only the constancy is certified.",
    ],
    "irregular": [
        "The Ad(A)-fixed W is the hypercharge direction diag(1,1,-2) (up to "
        "sign); a diag(2,-1,-1) shape does not centralize this "
        "stabilizer algebra.",
        "Res_W(C3) = -3 eps (2 eps^2 + R); a -2-weighted pattern would "
        "mix slice and stabilizer directions.",
        "Moment components at the identity are (0,0,0,-x4,...,-x7,sqrt3 eps) "
        "in Hermitian coordinates; a nonzero P3 would belong to a "
        "non-centralized W.",
    ],
}


# ---------------------------------------------------------------------------
# flow and bracket exports
# ---------------------------------------------------------------------------

def monitored_functions(sys):
    return generator_family(sys)


def trajectory_csv(sys, traj, functions, stride=1):
    """CSV rows: t, Re/Im of g entries, X coordinates, monitored integrals.

    The rows of every stride-th point are formatted from one array of
    the times and the stacked g and X, one repr per entry, and the
    integral values over the stack (FlowTrajectory.integral_values,
    shared with conservation_report).  The integrals are first
    integrals, so along a flow their values repeat: each column's
    distinct values are found by their bits (0.0 and -0.0 have two
    reprs), formatted once each and gathered back to the rows.  The
    text is the same bytes as a repr of every cell.
    """
    header = ["t"]
    for r in range(3):
        for c in range(3):
            header += [f"re_g{r}{c}", f"im_g{r}{c}"]
    header += [f"X_{name}" for name in sys.alg.coord_names]
    header += [f.name for f in functions]
    points = traj.points[::stride]
    G = points.G
    rows = np.column_stack([
        np.asarray(traj.times[::stride], dtype=float),
        np.stack([G.real, G.imag], axis=-1).reshape(len(G), -1),
        points.X])
    integrals = _distinct_reprs(traj.integral_values(functions, stride))
    lines = [",".join(header)]
    # row by row: a float list of the whole table would double its peak
    lines += [",".join([*map(repr, row.tolist()), *texts])
              for row, texts in zip(rows, integrals, strict=True)]
    del rows, integrals  # the join's peak holds the lines and the text alone
    lines.append("")  # the final newline, without a copy of the text
    return "\n".join(lines)


def _distinct_reprs(values):
    """The reprs of a 2-D float array's entries, as a list of its rows,
    with one repr per distinct value of a column.  Values are keyed by
    their bits, not compared as floats: 0.0 == -0.0, but their reprs
    differ."""
    texts = np.empty(values.shape, dtype=object)
    for j, column in enumerate(values.T):
        _, first, inverse = np.unique(column.view(np.int64),
                                      return_index=True,
                                      return_inverse=True)
        distinct = np.array([repr(v) for v in column[first].tolist()],
                            dtype=object)
        texts[:, j] = distinct[inverse]
    return texts.tolist()


def conservation_json(sys, traj, functions, stride=1):
    """Conservation report of a flow; a flow of no steps passes nothing."""
    nsteps = len(traj.points) - 1
    entries = conservation_report(sys, traj, functions, stride)
    for e in entries:
        e["pass"] = nsteps > 0 and e["max_drift"] < FLOW_TOL
    return json.dumps({"case": sys.case_tag, "eps": sys.eps, "tol": FLOW_TOL,
                       "nsteps": nsteps, "functions": entries},
                      sort_keys=True, indent=2) + "\n"


def bracket_table_text(sys):
    """Human-readable symbolic bracket tables with computed couplings."""
    lines = [f"case: {sys.case_tag}", f"eps: {sys.eps}"]
    if sys.case_tag == "regular":
        cs = couplings(sys)
        lines.append("couplings c_k = eps * B(W, H_alpha_k): "
                     + ", ".join(f"c{k + 1} = eps*({c.text()})"
                                 for k, c in enumerate(cs)))
    lines.append("")
    lines.append("linear moment table {P_i, P_j} = sum_k C_ij^k P_k "
                 "(nonzero C):")
    for (i, j, k) in sorted(sys.alg.structure):
        if i < j:
            c = sys.alg.structure[(i, j, k)]
            lines.append(f"  {{P{i + 1},P{j + 1}}} -> {c.text()} * P{k + 1}")
    lines.append("")
    if sys.case_tag == "regular":
        table = bracket_table_regular(sys)
        lines.append("invariant slice table (exact, eps symbolic):")
        for (a, b), poly in sorted(table.entries.items()):
            mark = "" if table.matches_reference[(a, b)] else \
                "   [coupling sign corrected]"
            lines.append(f"  {{{a},{b}}}_2 = {poly.text()}{mark}")
        lines.append("")
        lines.append("eps -> 0 degeneration:")
        for (a, b), poly in sorted(table.entries.items()):
            zero_eps = Polynomial(poly.vars,
                                  {e: c for e, c in poly.terms.items()
                                   if e[-1] == 0})
            lines.append(f"  {{{a},{b}}}_2 = {zero_eps.text()}")
    else:
        lines.append("slice algebra: single generator R with {R, R}_2 = 0;")
        lines.append("moment relation Phi(P) = C3(P) + 3 eps C2(P) - 3 eps^3 "
                     "= 0 on the image cone")
    return "\n".join(lines) + "\n"


def bracket_table_json(sys):
    doc = {"case": sys.case_tag, "eps": sys.eps}
    if sys.case_tag == "regular":
        doc["couplings"] = [c.text() for c in couplings(sys)]
    doc["moment_table"] = {
        f"P{i + 1},P{j + 1}": {f"P{k + 1}": sys.alg.structure[(i, j, k)].text()}
        for (i, j, k) in sorted(sys.alg.structure) if i < j}
    if sys.case_tag == "regular":
        table = bracket_table_regular(sys)
        doc["slice_table"] = {f"{a},{b}": poly.text()
                              for (a, b), poly in sorted(table.entries.items())}
        doc["matches_reference"] = {f"{a},{b}": m for (a, b), m
                                  in sorted(table.matches_reference.items())}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _selection(algebra, sub):
    """The (algebra, subalgebra) pair of a CLI centralizer selection."""
    if algebra == "su2":
        if sub != "torus":
            raise ValueError("su2 supports only the torus subalgebra")
        alg = build_su2()
        return alg, centralizer_of(alg, [Scalar(1), Scalar(0), Scalar(0)])
    if algebra != "su3":
        raise ValueError(f"unknown algebra {algebra!r}")
    if sub == "torus":
        sys = su3_regular_system(0.1)
    elif sub == "irregular-A":
        sys = su3_irregular_system(0.1)
    else:
        raise ValueError(f"unknown subalgebra {sub!r}")
    return sys.alg, sys.sub


def algebra_text(algebra, sub):
    """Serialized structure data of the algebra behind a CLI selection."""
    return _selection(algebra, sub)[0].serialize()


def centralizer_report(algebra, sub, m_only, max_degree):
    """GeneratorSet report for the CLI centralizer command."""
    alg, subspec = _selection(algebra, sub)
    gens = indecomposable_generators(alg, subspec, max_degree,
                                     restrict_to_m=m_only)
    return gens.serialize()
