"""Chain verifier: bracket table, relations, centrality, ranks, dimensions."""

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
    from su3mag.phase import slice_bracket_value, SlicePullback
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


def test_a_failed_bracket_table_is_not_cached(monkeypatch):
    calls = _count_slice_brackets(monkeypatch)
    sys = reports.make_system("regular", 0.1)
    with monkeypatch.context() as m:
        m.setattr(certify, "rewrite_in_generators", lambda q, gens: None)
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
    assert out["pass"] and out["max_residual"] < 1e-10
    assert out["negative_control_nonzero"]


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
