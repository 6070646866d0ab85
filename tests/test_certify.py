"""Chain verifier: bracket table, relations, centrality, ranks, dimensions."""

import ast
import json
import math

import numpy as np
import pytest

from su3mag.poly import Polynomial
from su3mag.scalars import Scalar
from su3mag.phase import (su3_regular_system, su3_irregular_system,
                          PhasePoint, twisted_bracket)
from su3mag.algebra import identity_element
from su3mag.invariants import torus_generators, radial_generator
from su3mag.certify import (bracket_table_regular, expected_table_entries,
                            cubic_relation_check, cubic_relation_numeric,
                            phi_relation_irregular,
                            center_check, jacobian_rank_pi1, a_matrix_minors,
                            dimension_report, generator_family, couplings,
                            rewrite_in_generators, numeric_rank,
                            phase_jacobian)
from su3mag.phase import slice_bracket_symbolic
from su3mag import certify, reports
from oracles import (bracket_samples_by_points, cubic_relation_by_points,
                     dimension_report_by_points, phi_relation_by_points,
                     pi1_rank_samples_by_points)


def test_couplings_values():
    sys = su3_regular_system(0.1)
    cs = couplings(sys)
    from fractions import Fraction
    assert cs[0] == Scalar(Fraction(1, 2))
    assert cs[1] == Scalar(Fraction(-1, 4)) + Scalar.sqrt3(Fraction(1, 4))
    assert cs[2] == Scalar(Fraction(1, 4)) + Scalar.sqrt3(Fraction(1, 4))
    assert cs[2] == cs[0] + cs[1]


def test_bracket_table_closes_and_matches():
    sys = su3_regular_system(0.1)
    table = bracket_table_regular(sys)
    matched = [k for k, m in sorted(table.matches_reference.items()) if m]
    assert len(matched) == 8
    assert set(table.matches_reference) - set(matched) == \
        {("u3", "v"), ("u3", "w")}
    # numeric redundancy: every closed form evaluates to the pointwise
    # bracket at random regular points
    u, v, w = torus_generators(sys.alg)
    by_name = {"u1": u[0], "u2": u[1], "u3": u[2], "v": v, "w": w}
    rng = np.random.default_rng(0)
    from oracles import slice_bracket_value
    for _ in range(5):
        pt = sys.random_regular_point(rng)
        gen_vals = {n: float(p.evaluate(pt.xi[sys.m]))
                    for n, p in by_name.items()}
        for (a, b), poly in table.entries.items():
            lhs = slice_bracket_value(sys, by_name[a], by_name[b], pt)
            point = [gen_vals[n] for n in ("u1", "u2", "u3", "v", "w")] \
                + [sys.eps]
            assert abs(lhs - float(poly.evaluate(point))) < 1e-10


def _count_slice_brackets(monkeypatch):
    """A list that grows by one per slice_bracket_symbolic call in certify."""
    calls = []

    def counting(*args):
        calls.append(args)
        return slice_bracket_symbolic(*args)

    monkeypatch.setattr(certify, "slice_bracket_symbolic", counting)
    return calls


def test_regular_bracket_table_is_built_once_per_system(monkeypatch):
    calls = _count_slice_brackets(monkeypatch)
    sys = reports.make_system("regular", 0.1)
    text = reports.bracket_table_text(sys)
    assert len(calls) == 10
    doc = reports.bracket_table_json(sys)
    assert len(calls) == 10
    # a fresh system builds its own table, with the same text
    fresh = reports.make_system("regular", 0.1)
    assert reports.bracket_table_json(fresh) == doc
    assert reports.bracket_table_text(fresh) == text
    assert len(calls) == 20


def test_casimir_restrictions_are_built_once_per_system(monkeypatch):
    """center_check and dimension_report share one Res_W C2 and one
    Res_W C3 per system; a fresh system builds its own."""
    from su3mag.invariants import restrict_shift
    calls = []

    def counting(c, *args, **kwargs):
        calls.append(c)
        return restrict_shift(c, *args, **kwargs)

    monkeypatch.setattr(certify, "restrict_shift", counting)
    for fresh in (1, 2):
        sys = su3_irregular_system(0.1)
        rng = np.random.default_rng(0)
        center_check(sys, rng, samples=2)
        dimension_report(sys, rng, samples=2)
        assert len(calls) == 2 * fresh
    assert calls[2:] == list(sys.casimirs())


def test_a_failed_bracket_table_is_not_cached(monkeypatch):
    calls = _count_slice_brackets(monkeypatch)
    sys = reports.make_system("regular", 0.1)
    with monkeypatch.context() as m:
        m.setattr(certify, "rewrite_in_generators",
                  lambda q, gens, products=None: None)
        with pytest.raises(AssertionError, match="not expressible"):
            bracket_table_regular(sys)
    assert len(calls) == 1
    assert len(bracket_table_regular(sys).entries) == 10
    assert len(calls) == 11


@pytest.mark.xfail(strict=True, reason=(
    "the cyclic-ansatz u3-row couplings carry the wrong sign; the slice "
    "calculus forces {u3,v} = u3(u2-u1) + c3 w and {u3,w} = -c3 v "
    ""))
def test_bracket_table_cyclic_ansatz_u3_row_literal():
    sys = su3_regular_system(0.1)
    u, v, w = torus_generators(sys.alg)
    gens = [("u1", u[0], 2), ("u2", u[1], 2), ("u3", u[2], 2),
            ("v", v, 3), ("w", w, 3)]
    raw = slice_bracket_symbolic(sys, u[2], w)
    rw = rewrite_in_generators(raw, gens)
    gv = ("u1", "u2", "u3", "v", "w", "eps")
    ansatz = Polynomial.var(gv, "eps", couplings(sys)[2]) * \
        Polynomial.var(gv, "v")
    assert (rw - ansatz).is_zero()


def test_rewrite_refuses_what_the_generator_products_do_not_span():
    # over the regular generators: x1 y1 has degree 2 but lies outside the
    # span of u1, u2, u3; x1 has degree 1, which no generator product has
    sys = su3_regular_system(0.1)
    u, v, w = torus_generators(sys.alg)
    gens = [("u1", u[0], 2), ("u2", u[1], 2), ("u3", u[2], 2),
            ("v", v, 3), ("w", w, 3)]
    names = sys.m_names() + ("eps",)
    x1 = Polynomial.var(names, "x1")
    assert rewrite_in_generators(x1 * Polynomial.var(names, "y1"),
                                 gens) is None
    assert rewrite_in_generators(x1, gens) is None


def test_table_eps_scaling():
    """Setting eps to zero kills every coupling term: the table entries
    with eps-grade zero reproduce the unmagnetized table."""
    sys = su3_regular_system(0.1)
    table = bracket_table_regular(sys)
    for (a, b), poly in table.entries.items():
        for expo, coeff in poly.terms.items():
            if expo[-1] > 0:
                continue  # coupling terms vanish with eps
        # eps-free part of {u1,u2} is exactly 2v
        if (a, b) == ("u1", "u2"):
            zero_eps = Polynomial(poly.vars,
                                  {e: c for e, c in poly.terms.items()
                                   if e[-1] == 0})
            expect = Polynomial.var(poly.vars, "v", 2)
            assert (zero_eps - expect).is_zero()


def test_cubic_relation_and_negative_control():
    sys = su3_regular_system(0.1)
    assert cubic_relation_check(sys.alg)
    u, v, w = torus_generators(sys.alg)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-1, 1, 6)
        assert abs(float((u[0] * u[1] * u[2] - v * v - w * w).evaluate(x))) \
            < 1e-12
    # negative control: v -> v + 1 breaks the relation
    vbad = v + 1
    assert not (u[0] * u[1] * u[2] - vbad * vbad - w * w).is_zero()


def test_cubic_relation_numeric_reads_the_root_coordinates(monkeypatch):
    """u1 u2 u3 against |z1 z2 z3|^2 from the float root coordinates:
    roundoff on the true z, and a failure once z is off by 1e-6."""
    from su3mag import certify
    sys = su3_regular_system(0.1)
    worst = cubic_relation_numeric(sys, np.random.default_rng(1), 100)
    assert 0.0 < worst < 1e-14
    real_z = certify.slice_z_values
    monkeypatch.setattr(certify, "slice_z_values",
                        lambda s, c: real_z(s, c) * (1 + 1e-6))
    worst = cubic_relation_numeric(sys, np.random.default_rng(1), 100)
    assert worst > 1e-12


def test_phi_relation():
    sys = su3_irregular_system(0.3)
    rng = np.random.default_rng(2)
    out = phi_relation_irregular(sys, rng, samples=100)
    assert out["max_residual"] < 1e-10
    assert out["negative_control_nonzero"]


@pytest.mark.parametrize("eps", [0.1, 0.3])
@pytest.mark.parametrize("seed", [2, 3])
def test_sampled_relations_match_their_per_point_oracles(eps, seed):
    """The stacked sample loops of cubic_relation_numeric and
    phi_relation_irregular draw the same points as the per-point loops
    and give the same residuals, bit for bit (as the report stores them,
    plain floats), and leave the generator in the same state."""
    for make, fn, oracle in (
            (su3_regular_system, cubic_relation_numeric,
             cubic_relation_by_points),
            (su3_irregular_system, phi_relation_irregular,
             phi_relation_by_points)):
        sys = make(eps)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        new = fn(sys, rng_new, 30)
        old = oracle(sys, rng_old, 30)
        assert repr(certify._plain(new)) == repr(certify._plain(old))
        assert rng_new.random() == rng_old.random()


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("eps", [0.1, 1.0])
@pytest.mark.parametrize("seed", [4, 9])
def test_stacked_samples_match_their_per_point_oracles(case, eps, seed):
    """bracket_samples, pi1_rank_samples and dimension_report draw their
    points (and the bracket samples their index draws) in the order of
    the per-point loops, build them as one stack and report the same
    values, bit for bit, leaving the generator in the same state."""
    sys = reports.make_system(case, eps)
    for fn, oracle, samples in (
            (certify.bracket_samples, bracket_samples_by_points, 25),
            (certify.pi1_rank_samples, pi1_rank_samples_by_points, 6),
            (dimension_report, dimension_report_by_points, 6)):
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        new = fn(sys, rng_new, samples)
        old = oracle(sys, rng_old, samples)
        if fn is dimension_report:
            new, old = new.to_dict(), old.to_dict()
        assert repr(certify._plain(new)) == repr(certify._plain(old))
        assert rng_new.random() == rng_old.random()
    # one sample per call, so that no sample's residual hides behind
    # another's in the maximum
    for s in range(40):
        assert (certify.bracket_samples(sys, np.random.default_rng([seed, s]),
                                        1)
                == bracket_samples_by_points(
                    sys, np.random.default_rng([seed, s]), 1))


@pytest.mark.xfail(strict=True, reason=(
    "the restriction pattern 3eps(2eps^2 + x4^2 + x5^2 - 2x6^2 - 2x7^2) "
    "mixes slice and stabilizer directions; the consistent slice gives "
    "-3eps(2eps^2 + R)"))
def test_phi_relation_mixed_frame_literal():
    sys = su3_irregular_system(0.3)
    from su3mag.invariants import restrict_shift
    c2, c3 = sys.casimirs()
    r3 = restrict_shift(c3, sys)
    m = sys.m_names()
    evars = m + ("eps",)
    eps = Polynomial.var(evars, "eps")
    mixed_frame = 3 * eps * (2 * eps ** 2
                         + Polynomial.var(evars, "x4") ** 2
                         + Polynomial.var(evars, "x5") ** 2
                         - 2 * Polynomial.var(evars, "x6") ** 2
                         - 2 * Polynomial.var(evars, "x7") ** 2)
    assert (r3 - mixed_frame).is_zero()


def test_regular_c3_deviation_states_the_computed_rewrite():
    """The regular known_deviations sentence on P*C3 states the rewrite
    of Res_W C3 in the table-normalized generators and its eps -> 0
    limit, 48 w, as rewrite_in_generators computes them."""
    from fractions import Fraction
    from su3mag.invariants import restrict_shift
    sys = su3_regular_system(0.1)
    u, v, w = torus_generators(sys.alg)
    gens = [("u1", u[0], 2), ("u2", u[1], 2), ("u3", u[2], 2),
            ("v", v, 3), ("w", w, 3)]
    r3 = rewrite_in_generators(restrict_shift(sys.casimirs()[1], sys), gens)
    u1, u2, u3, w, eps = (Polynomial.var(r3.vars, n)
                          for n in ("u1", "u2", "u3", "w", "eps"))
    stated = (48 * w
              + eps * (u1 * Scalar.sqrt3(4) - u2 * (6 + Scalar.sqrt3(2))
                       + u3 * (6 - Scalar.sqrt3(2)))
              + eps ** 3 * Scalar.sqrt3(Fraction(1, 6)))
    assert (r3 - stated).is_zero()
    limit = Polynomial(r3.vars, {e: c for e, c in r3.terms.items()
                                 if e[-1] == 0})
    assert limit == 48 * w
    sentence = reports.KNOWN_DEVIATIONS["regular"][2]
    assert sentence.startswith(
        "P*C3 = pi*(Res_W C3) = 48 w + eps (4 sqrt3 u1 - (6+2 sqrt3) u2 "
        "+ (6-2 sqrt3) u3) + (sqrt3/6) eps^3 in the table-normalized "
        "generators;")
    assert "with 48 w alone is only valid in the eps->0 limit" in sentence


def test_regular_c2_deviation_states_the_computed_rewrite():
    """The regular known_deviations sentence on Res_W(C2) states its
    rewrite in the table-normalized generators, 4(u1+u2+u3) + eps^2/2,
    as rewrite_in_generators computes it."""
    from fractions import Fraction
    from su3mag.invariants import restrict_shift
    sys = su3_regular_system(0.1)
    u, v, w = torus_generators(sys.alg)
    gens = [("u1", u[0], 2), ("u2", u[1], 2), ("u3", u[2], 2),
            ("v", v, 3), ("w", w, 3)]
    r2 = rewrite_in_generators(restrict_shift(sys.casimirs()[0], sys), gens)
    u1, u2, u3, eps = (Polynomial.var(r2.vars, n)
                       for n in ("u1", "u2", "u3", "eps"))
    assert (r2 - (4 * (u1 + u2 + u3) + eps ** 2 * Fraction(1, 2))).is_zero()
    sentence = reports.KNOWN_DEVIATIONS["regular"][1]
    assert sentence.startswith("Res_W(C2) = 4(u1+u2+u3) + eps^2/2 in the "
                               "table-normalized generators;")


def test_irregular_c3_deviation_states_the_computed_rewrite():
    """The irregular known_deviations sentence on Res_W(C3) states its
    rewrite in the one slice generator R, -3 eps (2 eps^2 + R), as
    rewrite_in_generators computes it."""
    from su3mag.invariants import restrict_shift
    sys = su3_irregular_system(0.1)
    r3 = rewrite_in_generators(restrict_shift(sys.casimirs()[1], sys),
                               [("R", radial_generator(sys), 2)])
    R, eps = (Polynomial.var(r3.vars, n) for n in ("R", "eps"))
    assert (r3 - (-3 * eps * (2 * eps ** 2 + R))).is_zero()
    sentence = reports.KNOWN_DEVIATIONS["irregular"][1]
    assert sentence.startswith("Res_W(C3) = -3 eps (2 eps^2 + R);")


def test_u3_row_deviation_states_the_computed_entries():
    """The regular known_deviations sentence on the u3 row states the
    computed entries {u3,v} = u3(u2-u1) + c3 w and {u3,w} = -c3 v (c_k
    the eps-couplings); the cyclic ansatz, the u1 row with the indices
    moved on, gives the u2 row and these two with the sign of c3
    flipped."""
    sys = su3_regular_system(0.1)
    entries = bracket_table_regular(sys).entries
    gv = ("u1", "u2", "u3", "v", "w", "eps")
    u = [Polynomial.var(gv, n) for n in ("u1", "u2", "u3")]
    v, w = Polynomial.var(gv, "v"), Polynomial.var(gv, "w")
    c = [Polynomial.var(gv, "eps", ck) for ck in couplings(sys)]
    for k, sign in enumerate((1, 1, -1)):
        ui, uj, ul = u[k], u[(k + 1) % 3], u[(k + 2) % 3]
        name = f"u{k + 1}"
        assert (entries[(name, "v")] - (ui * (ul - uj) - sign * c[k] * w)
                ).is_zero()
        assert (entries[(name, "w")] - sign * c[k] * v).is_zero()
    sentence = reports.KNOWN_DEVIATIONS["regular"][0]
    assert sentence.startswith(
        "u3-row couplings of the invariant bracket table carry the "
        "opposite sign to the naive cyclic ansatz ({u3,v} = u3(u2-u1) + "
        "c3 w, {u3,w} = -c3 v);")


def test_irregular_w_deviation_states_the_forced_hypercharge():
    """The irregular known_deviations sentence on W: the system's W has
    the Hermitian shadow diag(1,1,-2) up to sign and commutes with the
    stabilizer span{e1, e2, e3, e8}, exactly; a W of the shape
    diag(2,-1,-1) fails to commute with e1 and e2."""
    sys = su3_irregular_system(0.1)
    alg = sys.alg
    assert sys.a == [0, 1, 2, 7]

    def shadow(W):
        return 1j * alg.matrix_of(np.array([float(x) for x in W]))

    def commutes(W):
        return [all(x.is_zero() for x in alg.bracket_coords(
            [Scalar(int(t == j)) for t in range(alg.dim)], W))
            for j in sys.a]

    other = [Scalar(0)] * 2 + [Scalar(3)] + [Scalar(0)] * 4 + [Scalar.sqrt3(1)]
    assert np.abs(shadow(sys.W_exact) + np.diag([1, 1, -2])).max() < 1e-12
    assert np.abs(shadow(other) - 2 * np.diag([2, -1, -1])).max() < 1e-12
    assert commutes(sys.W_exact) == [True] * 4
    assert commutes(other) == [False, False, True, True]
    assert reports.KNOWN_DEVIATIONS["irregular"][0] == (
        "The Ad(A)-fixed W is the hypercharge direction diag(1,1,-2) (up to "
        "sign); a diag(2,-1,-1) shape does not centralize this "
        "stabilizer algebra.")


def test_a_matrix_minors_exact():
    sys = su3_irregular_system(0.1)
    minors = a_matrix_minors(sys)
    m = sys.m_names()
    R = radial_generator(sys)
    pats = [("x7", 1), ("x6", -1), ("x5", 1), ("x4", -1)]
    for minor, (var, sgn) in zip(minors, pats):
        assert (minor - sgn * Polynomial.var(m, var) * R).is_zero()
    # rank A(X) = 3 for X != 0, 0 at the origin
    from su3mag.certify import a_matrix_exact
    rows = a_matrix_exact(sys)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        A = np.array([[float(e.evaluate(x)) for e in row] for row in rows])
        assert numeric_rank(A) == 3
    A0 = np.array([[float(e.evaluate(np.zeros(4))) for e in row]
                   for row in rows])
    assert numeric_rank(A0) == 0


def test_a_matrix_refuses_a_stabilizer_other_than_s_u2_u1():
    """The regular case's stabilizer is the 2-dimensional torus, not
    S(U(2)xU(1)): A(X) and its minors are refused by one line that names
    the dimension (rows 0-2 of a 2-row stabilizer would read an m
    direction); so is su(2)'s 1-dimensional torus."""
    from su3mag.certify import a_matrix_exact
    from oracles import selection_systems
    regular, _, su2 = selection_systems()
    for sys, dim in ((regular, 2), (su2, 1)):
        for build in (a_matrix_exact, a_matrix_minors):
            with pytest.raises(ValueError) as err:
                build(sys)
            assert str(err.value) == (
                "the A matrix needs the 4-dimensional stabilizer "
                f"S(U(2)xU(1)), not one of dimension {dim}")


def test_a_nan_centre_bracket_fails_its_line_alone(monkeypatch):
    """The centre check reduces each (centre, generator) pair over the
    points by a maximum that keeps a NaN: one NaN bracket, at one point,
    fails its own line and no other."""
    real = certify.basis_bracket

    def poisoned(*args):
        out = real(*args)
        out[1, 0, 2] = np.nan  # point 1, centre J2, generator P3
        return out

    monkeypatch.setattr(certify, "basis_bracket", poisoned)
    report = center_check(su3_irregular_system(0.1),
                          np.random.default_rng(5), samples=3)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["{J2,P3}"]
    assert np.isnan([c.observed for c in report.checks
                     if c.name == "{J2,P3}"][0])


def test_a_nan_centre_bracket_reads_nan_in_its_verify_line(monkeypatch):
    """run_verification reads the centre check's residuals by _worst: one
    NaN bracket, not the first residual of the sub-report, shows as NaN
    in center_check_worst_bracket and fails that line alone."""
    real = certify.basis_bracket

    def poisoned(sys, A, B):
        out = real(sys, A, B)
        if out.shape[1:] == (2, 9):  # centres (J2, pi*R), generators P1..R
            out[1, 0, 2] = np.nan  # point 1, centre J2, generator P3
        return out

    monkeypatch.setattr(certify, "basis_bracket", poisoned)
    config = dict(reports.default_config("irregular"), samples=3,
                  rank_samples=3, t_end=0.01)
    report = reports.run_verification(config)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["center_check_worst_bracket"]
    assert math.isnan(failed[0].observed)


def test_a_nan_angle_angle_bracket_reads_nan_in_its_verify_line(monkeypatch):
    """run_verification reads the angle-angle spread by np.ptp: one NaN
    bracket, not the first of the three, shows as NaN in
    angle_angle_bracket_constant_on_torus and fails that line and the
    report."""
    from su3mag import angles
    real, calls = angles.angle_angle_bracket, []

    def poisoned(sys, pt):
        calls.append(pt)
        return np.nan if len(calls) == 2 else real(sys, pt)

    monkeypatch.setattr(angles, "angle_angle_bracket", poisoned)
    config = dict(reports.default_config("regular"), samples=3,
                  rank_samples=3, t_end=0.01)
    report = reports.run_verification(config)
    failed = [c for c in report.checks if not c.passed]
    assert len(calls) == 3
    assert [c.name for c in failed] == ["angle_angle_bracket_constant_on_torus"]
    assert math.isnan(failed[0].observed) and not report.passed
    line = [ln for ln in reports.report_lines(report)
            if "angle_angle_bracket" in ln]
    assert line == ["[FAIL] angle_angle_bracket_constant_on_torus: "
                    "expected=0.0 observed=nan tol=1e-06"]


def test_run_verification_refuses_a_zero_eps():
    """The system refuses eps = 0, and an eps that is not a real number
    or a Scalar (a string, which Fraction would parse, or a bool);
    run_verification has no refusal of its own."""
    with pytest.raises(ValueError, match="eps must be nonzero"):
        reports.run_verification({"case": "irregular", "eps": 0, "seed": 1})
    for eps in ("0.1", True, False, None, [0.1]):
        with pytest.raises(TypeError,
                           match=r"^the magnetic parameter eps must be a "
                                 r"real number or a Scalar, got "):
            reports.run_verification({"case": "irregular", "eps": eps,
                                      "seed": 1})


def test_run_verification_takes_the_defaults_for_missing_keys():
    """A config holding only the case and the sizes runs on the case's
    defaults for eps and seed: its report, written with the full config,
    is byte for byte the report of the run with the defaults spelled
    out."""
    sizes = {"samples": 2, "rank_samples": 1, "t_end": 0.01}
    full = {**reports.default_config("irregular"), **sizes}
    short = reports.run_verification({"case": "irregular", **sizes})
    assert (reports.report_json(short, full)
            == reports.report_json(reports.run_verification(full), full))


def _verdict(expected, observed, tolerance):
    """The documented rule of CertificateReport.add: a numeric tolerance
    passes observed < tolerance, "exact" passes observed == expected or
    observed == [expected]."""
    if tolerance == "exact":
        return observed == expected or observed == [expected]
    return observed < tolerance


def test_the_verdict_is_read_off_the_evidence():
    rep = certify.CertificateReport(case_tag="regular")
    rep.add("under", 0.0, np.float64(1e-11), 1e-10)
    rep.add("at", 0.0, 1e-10, 1e-10)
    rep.add("nan", 0.0, float("nan"), 1e-10)
    rep.add("equal", [3, 2], [np.int64(3), 2], "exact")
    rep.add("one rank", 7, [7], "exact")
    rep.add("two ranks", 7, [6, 7], "exact")
    rep.add("other rank", 7, np.int64(6), "exact")
    rep.add("true", True, np.bool_(True), "exact")
    rep.add("false", True, False, "exact")
    assert [c.passed for c in rep.checks] == [
        True, False, False, True, True, False, False, True, False]
    assert all(type(c.passed) is bool for c in rep.checks)


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("seed", [0, 3])
def test_each_verify_line_passes_by_the_rule_on_its_json(case, seed,
                                                         monkeypatch):
    """Each check of the verify JSON, read back from its expected,
    observed and tolerance fields, passes exactly when the documented
    rule says so; a ledger entry forced wrong fails the lines that read
    it, and those lines only."""
    def lines():
        config = dict(reports.default_config(case), seed=seed)
        report = reports.run_verification(config)
        checks = json.loads(reports.report_json(report, config))["checks"]
        for c in checks:
            fields = [ast.literal_eval(c[k]) if c[k] != "nan" else math.nan
                      for k in ("expected", "observed", "tolerance")]
            assert c["pass"] is _verdict(*fields), c
        return checks

    assert all(c["pass"] for c in lines())
    monkeypatch.setitem(certify.LEDGER, case,
                        dict(certify.LEDGER[case], trdeg_A=6))
    failed = [c["name"] for c in lines() if not c["pass"]]
    assert failed == ["pi1_rank", "trdeg A (pi1 rank)"]


def test_slice_generators_name_the_slice_family():
    """slice_generators states each case's slice family once:
    generator_family appends it to the moments, the bracket table names
    it, and dimension_report's rho family is it."""
    sysR, sysI = su3_regular_system(0.1), su3_irregular_system(0.1)
    u, v, w = torus_generators(sysR.alg)
    named = certify.slice_generators(sysR)
    assert [n for n, _ in named] == ["u1", "u2", "u3", "v", "w"]
    assert all(p is q for (_, p), q in zip(named, (*u, v, w)))
    assert [p.degree() for _, p in named] == [2, 2, 2, 3, 3]
    assert bracket_table_regular(sysR).generator_names == \
        ("u1", "u2", "u3", "v", "w")
    assert certify.slice_generators(sysI) == [("R", radial_generator(sysI))]
    for sys in (sysR, sysI):
        names = [f.name for f in generator_family(sys)]
        assert names == [f"P{i + 1}" for i in range(8)] + [
            n for n, _ in certify.slice_generators(sys)]


def test_a_wrong_rho_fails_the_rho_line_alone(monkeypatch):
    """dimension_report reads its expected values from LEDGER."""
    sys = su3_irregular_system(0.1)
    monkeypatch.setitem(certify.LEDGER, "irregular",
                        dict(certify.LEDGER["irregular"], rho=2))
    rep = dimension_report(sys, np.random.default_rng(7), samples=4)
    assert [c.name for c in rep.checks if not c.passed] == \
        ["rho_A = trdeg S(m)^A"]


def test_center_check_both_cases():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(4)
        rep = center_check(sys, rng, samples=10)
        assert rep.passed, [c.line() for c in rep.checks if not c.passed]


def test_jacobian_ranks():
    rng = np.random.default_rng(5)
    sysR = su3_regular_system(0.1)
    assert all(jacobian_rank_pi1(sysR, sysR.random_regular_point(rng)) == 10
               for _ in range(5))
    sysI = su3_irregular_system(0.1)
    assert all(jacobian_rank_pi1(sysI, sysI.random_regular_point(rng)) == 7
               for _ in range(5))
    pt0 = PhasePoint(sysI, identity_element(), np.zeros(8))
    assert jacobian_rank_pi1(sysI, pt0) == 4


def test_rank_never_exceeds_certified_value():
    """Rank functions are locally constant on the sampled regular locus:
    resampling never exceeds the certified value."""
    rng = np.random.default_rng(6)
    sysR = su3_regular_system(0.1)
    for _ in range(10):
        pt = sysR.random_point(rng)  # even without the regularity filter
        assert jacobian_rank_pi1(sysR, pt) <= 10
    sysI = su3_irregular_system(0.1)
    for _ in range(10):
        pt = sysI.random_point(rng)
        assert jacobian_rank_pi1(sysI, pt) <= 7


def test_dimension_reports():
    rng = np.random.default_rng(7)
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rep = dimension_report(sys, rng, samples=5)
        assert rep.passed, [c.line() for c in rep.checks if not c.passed]


def test_dimension_ledger_adds_the_measured_ranks(monkeypatch):
    """The ledger line sums the measured rank sets: one sum when each set
    holds one value, the sorted sums otherwise.  A pi1 rank forced to 6
    in the irregular case makes it read 7 and fail; ranks alternating 6
    and 7 make it read [7, 8] and fail.  The ranks are taken over the
    stack of sampled points, one per point."""
    sys = su3_irregular_system(0.1)
    name = "trdeg A + trdeg R0 = dim T*M"

    def ledger():
        rep = dimension_report(sys, np.random.default_rng(7), samples=4)
        return next(c for c in rep.checks if c.name == name)

    line = ledger()
    assert (line.expected, line.observed, line.passed) == (8, 8, True)
    monkeypatch.setattr(certify, "jacobian_rank_pi1",
                        lambda s, pts: np.full(len(pts), 6))
    line = ledger()
    assert (line.observed, line.passed) == (7, False)
    monkeypatch.setattr(certify, "jacobian_rank_pi1",
                        lambda s, pts: np.resize([6, 7], len(pts)))
    line = ledger()
    assert (line.observed, line.passed) == ([7, 8], False)


def test_generator_brackets_close_numerically():
    """Every bracket of two listed generators matches its closed form at
    random regular points (closure of the joint Poisson algebra)."""
    sys = su3_regular_system(0.1)
    table = bracket_table_regular(sys)
    u, v, w = torus_generators(sys.alg)
    by_name = {"u1": u[0], "u2": u[1], "u3": u[2], "v": v, "w": w}
    from su3mag.phase import SlicePullback
    fns = {n: SlicePullback(p, name=n) for n, p in by_name.items()}
    rng = np.random.default_rng(8)
    names = ("u1", "u2", "u3", "v", "w")
    for _ in range(3):
        pt = sys.random_regular_point(rng)
        vals = {n: float(by_name[n].evaluate(pt.xi[sys.m])) for n in names}
        point = [vals[n] for n in names] + [sys.eps]
        for (a, b), poly in table.entries.items():
            lhs = twisted_bracket(sys, fns[a], fns[b], pt)
            assert abs(lhs - float(poly.evaluate(point))) < 1e-10
