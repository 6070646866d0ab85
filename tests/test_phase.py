"""Phase space: maps, vector fields, twisted brackets and the flow."""

from fractions import Fraction

import numpy as np
import pytest

from su3mag import exp_map, identity_element, GroupElement
from su3mag.poly import Polynomial
from su3mag.scalars import Scalar
from su3mag.phase import (su3_regular_system, su3_irregular_system,
                          MagneticSystem, PhasePoint, moment_coordinate,
                          MomentPullback, SlicePullback,
                          hamiltonian_vector_field, twisted_bracket,
                          slice_bracket_symbolic, integrate_flow,
                          conservation_report, closed_form_fiber,
                          closed_form_group, differential, flow_steps,
                          solve_field, BLOCK_ROWS)
from su3mag.invariants import radial_generator, torus_generators
from oracles import (add_with_verdict, adjoint_group, fiber_velocity,
                     moment_map, moment_of_direction, omega_eps,
                     per_direction_differential,
                     phase_tangent_basis, project_m, point_by_exp_map,
                     reference_float_evaluate, regular_point_by_exp_map,
                     slice_bracket_by_substitution, slice_bracket_value,
                     slice_map,
                     stage_projected_flow_step, symbolic_bracket)


# A step in the driver's second block, and a flow of 100 steps more
# (steps 300 and 400 at 256 rows a block): tests of the blocked driver
# derive their step counts from BLOCK_ROWS, so that they cross a block
# boundary at any block size.
LATE_STEP = BLOCK_ROWS + 44
LONG_STEPS = LATE_STEP + 100


def _left_translate(pt, h):
    """The point (h g, X): the left action of h on pt."""
    return PhasePoint(pt.sys, h.matrix @ pt.G, pt.X)


def test_eps_zero_rejected():
    with pytest.raises(ValueError):
        su3_regular_system(0.0)


def test_moment_components_at_identity():
    """At the identity gauge the moment components are the shifted fiber.

    The fiber coordinates of this build are the negatives of the Hermitian
    presentation, so (P1..P8) = (0, 0, 0, -x4, ..., -x7, sqrt3 eps) in
    Hermitian coordinates x_j; the sqrt3 eps sits in the hypercharge slot
    because an Ad(A)-fixed W is forced onto that line.
    """
    sys = su3_irregular_system(0.25)
    rng = np.random.default_rng(0)
    X = np.zeros(8)
    X[sys.m] = rng.uniform(-1, 1, 4)
    pt = PhasePoint(sys, identity_element(), X)
    P = moment_map(sys, pt)
    assert np.abs(P[:3]).max() < 1e-15
    x_herm = -X  # Hermitian-view fiber coordinates
    assert np.abs(P[3:7] - (-x_herm[3:7])).max() < 1e-15
    assert abs(P[7] - np.sqrt(3.0) * sys.eps) < 1e-14
    # pt = (e, 0) maps to -eps W
    pt0 = PhasePoint(sys, identity_element(), np.zeros(8))
    assert np.abs(moment_map(sys, pt0) + sys.eps * sys.W).max() < 1e-15
    assert np.abs(slice_map(sys, pt0) + sys.eps * sys.W).max() < 1e-15
    # the irregular known_deviations sentence states these components;
    # P3 = -eps W3 at the identity, and an e3 part of W is not
    # centralized by e1 (exactly)
    from su3mag.reports import KNOWN_DEVIATIONS
    assert KNOWN_DEVIATIONS["irregular"][2].startswith(
        "Moment components at the identity are (0,0,0,-x4,...,-x7,"
        "sqrt3 eps) in Hermitian coordinates; a nonzero P3 would belong "
        "to a non-centralized W.")
    e1, e3 = ([Scalar(int(t == j)) for t in range(8)] for j in (0, 2))
    assert not all(c.is_zero() for c in sys.alg.bracket_coords(e1, e3))


def test_moment_equivariance_and_slice_invariance():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        pt = sys.random_point(rng)
        h = exp_map(sys.alg, rng.uniform(-1, 1, 8))
        lhs = moment_map(sys, _left_translate(pt, h))
        rhs = adjoint_group(sys.alg, h, moment_map(sys, pt))
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(slice_map(sys, _left_translate(pt, h))
                      - slice_map(sys, pt)).max() < 1e-15
    # B(P, P) independent of the group factor (oracle: Ad-invariance of B)
    pt = sys.random_point(rng)
    val = np.dot(pt.moment_coords, pt.moment_coords)
    for _ in range(100):
        h = exp_map(sys.alg, rng.uniform(-1, 1, 8))
        p2 = moment_map(sys, _left_translate(pt, h))
        assert abs(np.dot(p2, p2) - val) < 1e-12


def test_gauge_well_definedness():
    """pi* theta evaluates identically on gauge-equivalent representatives."""
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(2)
    u, v, w = torus_generators(sys.alg)
    theta = SlicePullback(v, name="v")
    for _ in range(20):
        pt = sys.random_point(rng)
        sigma = rng.uniform(-2, 2, 2)
        a = exp_map(sys.alg, np.concatenate([sigma, np.zeros(6)]))
        pt2 = pt.right_act(a)
        assert abs(theta.values(pt) - theta.values(pt2)) < 1e-12
        assert abs(moment_coordinate(sys, 3).values(pt)
                   - moment_coordinate(sys, 3).values(pt2)) < 1e-12
    # irregular case: gauge by full stabilizer elements, not just the torus
    sysI = su3_irregular_system(0.1)
    R = SlicePullback(radial_generator(sysI), name="R")
    for _ in range(20):
        pt = sysI.random_point(rng)
        coeff = np.zeros(8)
        coeff[[0, 1, 2, 7]] = rng.uniform(-2, 2, 4)
        a = exp_map(sysI.alg, coeff)
        pt2 = pt.right_act(a)
        assert abs(R.values(pt) - R.values(pt2)) < 1e-12
        assert abs(moment_coordinate(sysI, 4).values(pt)
                   - moment_coordinate(sysI, 4).values(pt2)) < 1e-12


def test_hvf_defining_equation():
    """omega_eps(X_f, .) = df on 20 random tangents, for both pullback
    types; df is cross-checked by central finite differences of the
    function value along the tangent curve (the independent oracle), and
    against the per-direction differential within a relative 1e-14 (of
    its largest value over the tangents)."""
    from su3mag import exp_map as _exp
    h = 1e-6
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.3)):
        rng = np.random.default_rng(3)
        pt = sys.random_regular_point(rng)
        c2, c3 = sys.casimirs()
        fns = [moment_coordinate(sys, 2), MomentPullback(c3, name="J3"),
               SlicePullback(radial_generator(sys), name="R")]
        for fn in fns:
            Xf = hamiltonian_vector_field(fn, sys, pt)
            dfs, refs = [], []
            for _ in range(20):
                v = np.zeros(sys.alg.dim)
                w = np.zeros(sys.alg.dim)
                v[sys.m] = rng.uniform(-1, 1, len(sys.m))
                w[sys.m] = rng.uniform(-1, 1, len(sys.m))
                lhs = omega_eps(sys, Xf, (v, w))
                rhs = differential(fn, sys, pt, v, w)
                dfs.append(rhs)
                refs.append(per_direction_differential(fn, sys, pt, v, w))
                assert abs(lhs - rhs) < 1e-10
                dX = fiber_velocity(sys, pt, v, w)
                gp = pt.G @ _exp(sys.alg, h * v).matrix
                gm = pt.G @ _exp(sys.alg, -h * v).matrix
                fd = (fn.values(PhasePoint(sys, gp, pt.X + h * dX))
                      - fn.values(PhasePoint(sys, gm, pt.X - h * dX))) / (2 * h)
                assert abs(lhs - fd) < 1e-6
            assert _agrees(np.array(dfs), np.array(refs)), fn.name


def test_moment_flow_realizes_bracket():
    """d/dt P_eta' along the flow of X_{P_eta} equals {P_eta', P_eta} at
    t = 0 within 1e-8 (the moment flow is the left translation flow).
    P_eta is not Ad-invariant, so the stage-projected loop integrates it."""
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(30)
    pt = sys.random_regular_point(rng)
    h = 1e-6
    for _ in range(5):
        eta = rng.uniform(-1, 1, 8)
        etap = rng.uniform(-1, 1, 8)
        f = moment_of_direction(sys, eta)
        fp = moment_of_direction(sys, etap)
        plus = stage_projected_flow_step(f, sys, pt, h)
        minus = stage_projected_flow_step(f, sys, pt, -h)
        ddt = (fp.values(plus) - fp.values(minus)) / (2 * h)
        comm = sys.alg.np_bracket(etap, eta)
        expect = np.dot(pt.moment_coords, comm)
        assert abs(ddt - expect) < 1e-8


def test_hvf_moment_stabilizer_direction():
    """For eta in the stabilizer at the identity the base velocity vanishes
    and the fiber velocity is [eta, X]."""
    sys = su3_irregular_system(0.1)
    rng = np.random.default_rng(4)
    X = np.zeros(8)
    X[sys.m] = rng.uniform(-1, 1, 4)
    pt = PhasePoint(sys, identity_element(), X)
    eta = np.zeros(8)
    eta[0] = 1.0  # first stabilizer direction
    v, w = hamiltonian_vector_field(moment_of_direction(sys, eta), sys, pt)
    assert np.abs(v).max() < 1e-12
    dX = fiber_velocity(sys, pt, v, w)
    expect = project_m(sys, sys.alg.np_bracket(eta, X))
    assert np.abs(dX - expect).max() < 1e-12


def test_hvf_slice_gradient_direction():
    """theta = R at the identity moves the base with velocity 2X."""
    sys = su3_irregular_system(0.1)
    rng = np.random.default_rng(5)
    X = np.zeros(8)
    X[sys.m] = rng.uniform(-1, 1, 4)
    pt = PhasePoint(sys, identity_element(), X)
    v, w = hamiltonian_vector_field(SlicePullback(radial_generator(sys)),
                                    sys, pt)
    assert np.abs(v - 2 * X).max() < 1e-12
    # a constant gives the zero field
    const = Polynomial.const(sys.m_names(), 7)
    v0, w0 = hamiltonian_vector_field(SlicePullback(const), sys, pt)
    assert np.abs(v0).max() < 1e-14 and np.abs(w0).max() < 1e-14


def test_bracket_identities_both_cases():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(6)
        P = [moment_coordinate(sys, i) for i in range(sys.alg.dim)]
        m_names = sys.m_names()
        R = SlicePullback(radial_generator(sys), name="R")
        for _ in range(10):
            pt = sys.random_regular_point(rng)
            Pv = pt.moment_coords
            i, j = rng.integers(0, sys.alg.dim, 2)
            br = twisted_bracket(sys, P[i], P[j], pt)
            expect = sum(float(c) * Pv[k]
                         for (a, b, k), c in sys.alg.structure.items()
                         if a == i and b == j)
            assert abs(br - expect) < 1e-10
            assert abs(twisted_bracket(sys, P[i], R, pt)) < 1e-10
            assert twisted_bracket(sys, R, R, pt) == 0.0
            # omega route matches the symbolic route
            sym = symbolic_bracket(sys, P[i], P[j], pt)
            assert abs(br - sym) < 1e-10
            # slice bracket formula
            th2 = SlicePullback(
                Polynomial.var(m_names, m_names[0]) *
                Polynomial.var(m_names, m_names[1]))
            b_om = twisted_bracket(sys, R, th2, pt)
            b_f = slice_bracket_value(sys, R.theta, th2.theta, pt)
            assert abs(b_om - b_f) < 1e-10


def test_symbolic_mixed_bracket_refuses_a_slice_function_not_invariant():
    """A-invariance of a slice function is decided from its polynomial:
    x4 is not Ad(A)-invariant, and its bracket with P5 is not zero."""
    sys = su3_irregular_system(0.2)
    pt = sys.random_regular_point(np.random.default_rng(8))
    P5 = moment_coordinate(sys, 4)
    theta = SlicePullback(Polynomial.var(sys.m_names(), "x4"))
    assert abs(twisted_bracket(sys, P5, theta, pt)) > 0.1
    for f, h in ((P5, theta), (theta, P5)):
        with pytest.raises(ValueError, match="not A-invariant"):
            symbolic_bracket(sys, f, h, pt)
    R = SlicePullback(radial_generator(sys), name="R")
    assert symbolic_bracket(sys, P5, R, pt) == 0.0
    assert abs(twisted_bracket(sys, P5, R, pt)) < 1e-10
    reg = su3_regular_system(0.2)
    q = reg.random_regular_point(np.random.default_rng(8))
    u, v, w = torus_generators(reg.alg)
    for theta in u + (v, w):
        assert symbolic_bracket(reg, moment_coordinate(reg, 4),
                                SlicePullback(theta), q) == 0.0


def test_systems_over_one_algebra_share_its_exact_objects():
    """Casimirs, slice generators and moment coordinates are built once
    per algebra; the restrictions, which depend on eps, stay per system."""
    from su3mag.invariants import casimirs_su3, restrict_shift
    for make in (su3_regular_system, su3_irregular_system):
        a, b = make(0.1), make(0.25)
        assert all(x is y for x, y in zip(a.casimirs(), b.casimirs()))
        assert all(moment_coordinate(a, i) is moment_coordinate(b, i)
                   for i in range(a.alg.dim))
        if a.case_tag == "regular":
            assert torus_generators(a.alg) is torus_generators(b.alg)
        else:
            assert radial_generator(a) is radial_generator(b)
        fresh = casimirs_su3.__wrapped__(a.alg)
        for k in (0, 1):
            ra, rb = (restrict_shift(s.casimirs()[k], s, symbolic_eps=False)
                      for s in (a, b))
            assert ra != rb
            for s, r in ((a, ra), (b, rb)):
                assert r == restrict_shift(fresh[k], s, symbolic_eps=False)


def test_symbolic_slice_bracket_matches_pointwise():
    sys = su3_regular_system(0.1)
    u, v, w = torus_generators(sys.alg)
    sym = slice_bracket_symbolic(sys, u[0], v)
    rng = np.random.default_rng(7)
    for _ in range(5):
        pt = sys.random_regular_point(rng)
        lhs = float(sym.evaluate(list(pt.xi[sys.m]) + [sys.eps]))
        rhs = slice_bracket_value(sys, u[0], v, pt)
        assert abs(lhs - rhs) < 1e-12


def _random_invariants(gens, rng, count, most):
    """count random polynomials in the generators (name, Polynomial,
    degree), each a sum of three products of one to ``most`` of them with
    small integer coefficients, Ad(A)-invariant as the generators are."""
    out = []
    for _ in range(count):
        poly = Polynomial.zero(gens[0][1].vars)
        for _ in range(3):
            term = Polynomial.const(poly.vars, int(rng.integers(-3, 4)))
            for f in rng.choice(len(gens), size=rng.integers(1, most + 1)):
                term = term * gens[f][1]
            poly = poly + term
        out.append(poly)
    return out


def test_slice_bracket_is_the_substitution_route():
    """The partials on m give the polynomial of the B-gradients over every
    coordinate read at X in m: for the 10 regular generator pairs, for the
    irregular (R, R), for random Ad(A)-invariant polynomials and for one
    pair that is not invariant (theta need only live on m)."""
    sysR = su3_regular_system(0.1)
    u, v, w = torus_generators(sysR.alg)
    gens = [("u1", u[0], 2), ("u2", u[1], 2), ("u3", u[2], 2),
            ("v", v, 3), ("w", w, 3)]
    cases = [(sysR, a, b) for k, (_, a, _) in enumerate(gens)
             for (_, b, _) in gens[k + 1:]]
    assert len(cases) == 10
    # degrees at most 4 and 3, so that every bracket stays in the cap
    rng = np.random.default_rng(27)
    cases += [(sysR, a, b) for a, b in zip(
        _random_invariants(gens[:3], rng, 4, 2),
        _random_invariants(gens, rng, 4, 1))]
    sysI = su3_irregular_system(Fraction(1, 4))
    R = radial_generator(sysI)
    x1 = Polynomial.var(R.vars, R.vars[0])
    cases += [(sysI, R, R), (sysI, R * x1, R + x1)]
    with_eps = 0
    for sys, a, b in cases:
        bracket = slice_bracket_symbolic(sys, a, b)
        assert bracket == slice_bracket_by_substitution(sys, a, b)
        with_eps += any(e[-1] for e in bracket.terms)
    assert with_eps >= 10  # the a-block term -eps W is read


def test_flow_conservation_and_closed_forms():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(9)
        pt = sys.random_regular_point(rng)
        traj = integrate_flow(sys, pt, t_end=1.0, dt=1e-3)
        fns = [moment_coordinate(sys, i) for i in range(sys.alg.dim)]
        if sys.case_tag == "regular":
            u, v, w = torus_generators(sys.alg)
            fns += [SlicePullback(q, name=n) for q, n in
                    ((u[0], "u1"), (u[1], "u2"), (u[2], "u3"),
                     (v, "v"), (w, "w"))]
        else:
            fns.append(SlicePullback(radial_generator(sys), name="R"))
        rep = conservation_report(sys, traj, fns)
        assert max(r["max_drift"] for r in rep) < 1e-10
        # closed-form checks for the fiber and the group factor
        for idx in (len(traj.points) // 2, len(traj.points) - 1):
            t = traj.times[idx]
            assert np.abs(traj.points[idx].X
                          - closed_form_fiber(sys, pt, t)).max() < 1e-10
            assert np.abs(traj.points[idx].G
                          - closed_form_group(sys, pt, t)).max() < 1e-9
        # negative control: a bare coordinate is not conserved
        bare = SlicePullback(
            Polynomial.var(sys.m_names(), sys.m_names()[0]), name="x_bare")
        rep_bad = conservation_report(sys, traj, [bare])
        assert rep_bad[0]["max_drift"] > 1e-3


def test_eps_zero_flow_limit_via_small_eps():
    """eps = 0 itself is rejected; the geodesic limit is visible for the
    closed form with W-rotation switched off by hand."""
    sys = su3_regular_system(1e-9)
    rng = np.random.default_rng(10)
    pt = sys.random_regular_point(rng)
    traj = integrate_flow(sys, pt, t_end=0.5, dt=1e-3)
    # X barely moves and g follows plain exp(tX)
    assert np.abs(traj.points[-1].X - pt.X).max() < 1e-8
    expect = pt.G @ exp_map(sys.alg, 0.5 * pt.xi).matrix
    # xi = X - eps W with eps ~ 0
    assert np.abs(traj.points[-1].G - expect).max() < 1e-7


def test_integrator_guards():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(11)
    pt = sys.random_regular_point(rng)
    with pytest.raises(ValueError):
        integrate_flow(sys, pt, t_end=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate_flow(sys, pt, t_end=1.0, dt=-1e-3)
    # a flow of zero steps, or one that would stop short of t_end
    with pytest.raises(ValueError, match="zero steps"):
        integrate_flow(sys, pt, t_end=0.01, dt=1.0)
    with pytest.raises(ValueError, match="whole number"):
        integrate_flow(sys, pt, t_end=1.0, dt=0.3)
    with pytest.raises(ValueError, match="finite"):
        integrate_flow(sys, pt, t_end=float("inf"), dt=1e-3)
    assert flow_steps(10.0, 1e-3) == 10000
    assert flow_steps(1.0, 1e-3) == 1000


def test_conservation_json_records_steps_and_refuses_empty_flows():
    from su3mag.reports import conservation_json, monitored_functions
    import json
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(4))
    traj = integrate_flow(sys, pt, t_end=0.01, dt=1e-3)
    fns = monitored_functions(sys)
    doc = json.loads(conservation_json(sys, traj, fns))
    assert doc["nsteps"] == 10 and all(e["pass"] for e in doc["functions"])
    traj.points, traj.times = traj.points[:1], traj.times[:1]
    doc = json.loads(conservation_json(sys, traj, fns))
    assert doc["nsteps"] == 0 and not any(e["pass"] for e in doc["functions"])


def _reference_flow(sys, pt0, t_end, dt, drift_limit=1e-8):
    """The per-step object loop integrate_flow replaced, kept as an oracle.

    Same RK4 arithmetic, with the matrix realization through tensordot,
    a checked GroupElement and PhasePoint built at every step and the
    points kept in a list.
    """
    from su3mag.algebra import polar_project
    from su3mag.phase import FlowTrajectory
    nsteps = flow_steps(t_end, dt)
    alg = sys.alg
    adW = sys._adW

    def matrix_of(X):
        return np.tensordot(np.asarray(X, dtype=float), alg._np_basis, 1)

    def xdot(X):
        return -sys.eps * (adW @ X)

    g = pt0.G.copy()
    X = pt0.X.copy()
    times = [0.0]
    points = [PhasePoint(sys, GroupElement(g), X.copy())]
    eye = np.eye(g.shape[0])
    for step in range(nsteps):
        k1g = g @ matrix_of(X)
        k1x = xdot(X)
        g2 = g + 0.5 * dt * k1g
        x2 = X + 0.5 * dt * k1x
        k2g = g2 @ matrix_of(x2)
        k2x = xdot(x2)
        g3 = g + 0.5 * dt * k2g
        x3 = X + 0.5 * dt * k2x
        k3g = g3 @ matrix_of(x3)
        k3x = xdot(x3)
        g4 = g + dt * k3g
        x4 = X + dt * k3x
        k4g = g4 @ matrix_of(x4)
        k4x = xdot(x4)
        g = g + dt / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
        X = X + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        drift = np.abs(g.conj().T @ g - eye).max()
        if drift > drift_limit:
            raise RuntimeError(f"unitarity drift {drift:.2e} exceeds limit "
                               f"at step {step}")
        g = polar_project(g)
        times.append((step + 1) * dt)
        points.append(PhasePoint(sys, GroupElement(g), X.copy()))
    return FlowTrajectory(times=times, points=PhasePoint.of(sys, points),
                          dt=dt)


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_array_driver_matches_reference_loop_bit_for_bit(case):
    """The driver's callback producer, given the geodesic field: times
    and X bit for bit; g within 1e-12 of the loop that stepped (g, X)
    together and polar-projected every step, and the exports inside the
    float fixture's budget of the conservation tolerance."""
    from float_fixture import compare
    from su3mag.phase import _rk4_flow
    from su3mag.reports import (conservation_json, monitored_functions,
                                trajectory_csv)
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    fns = monitored_functions(sys)
    for seed in (9, 11):
        pt = sys.random_regular_point(np.random.default_rng(seed))
        ref = _reference_flow(sys, pt, t_end=0.2, dt=1e-3)
        traj = integrate_flow(sys, pt, t_end=0.2, dt=1e-3)
        traj.points = PhasePoint.prevalidated(sys, *_rk4_flow(
            sys, pt, 0.2, 1e-3, lambda X: (X, -sys.eps * (sys._adW @ X))))
        assert traj.times == ref.times and traj.dt == ref.dt
        assert len(traj.points) == len(ref.points) == 201
        for new, old in zip(traj.points, ref.points):
            assert np.abs(new.G - old.G).max() < 1e-12
            assert np.array_equal(new.X, old.X)
        for stride in (1, 7):
            rows = compare(f"trajectory_{case}.csv",
                           trajectory_csv(sys, ref, fns, stride),
                           trajectory_csv(sys, traj, fns, stride))
            rows += compare(f"conservation_{case}.json",
                            conservation_json(sys, ref, fns, stride=stride),
                            conservation_json(sys, traj, fns, stride=stride))
            assert all(r["ok"] for r in rows), rows


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_linear_propagator_matches_the_callback_route(case):
    """integrate_flow steps the geodesic's fiber with the linear
    propagator; over 10k steps its X stays within 5e-14 of the callback
    producer on the same field, and its G within 1e-12."""
    from su3mag.phase import _rk4_flow
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    for seed in (5, 7, 11):
        pt = sys.random_regular_point(np.random.default_rng(seed))
        traj = integrate_flow(sys, pt, t_end=10.0, dt=1e-3)
        G, X = _rk4_flow(sys, pt, 10.0, 1e-3,
                         lambda X: (X, -sys.eps * (sys._adW @ X)))
        assert np.abs(traj.points.X - X).max() < 5e-14
        assert np.abs(traj.points.G - G).max() < 1e-12


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_rk4_increment_is_one_callback_step(case):
    """The one-step map E of _rk4_increments, applied to each unit
    vector, is one callback RK4 step's increment dt/6 (k1 + 2 k2 + 2 k3
    + k4) of the geodesic field within 1e-17."""
    from su3mag.phase import _rk4_increments
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    A = -sys.eps * sys._adW
    for dt in (1e-3, 1e-2):
        E = _rk4_increments(A, dt)[-1]
        for i, x in enumerate(np.eye(sys.alg.dim)):
            k1 = A @ x
            k2 = A @ (x + 0.5 * dt * k1)
            k3 = A @ (x + 0.5 * dt * k2)
            k4 = A @ (x + dt * k3)
            step = dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.abs(E[:, i] - step).max() < 1e-17


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1 / 3, 2.5e-4, 0.007])
def test_flow_times_are_the_list_formula(monkeypatch, dt):
    """integrate_flow's times, one product of the step numbers with dt,
    are bit for bit the Python floats [0.0] + [(k + 1) dt for each step
    k]; the driver is stubbed by stacks of the start point, so that a
    coarse dt runs no flow."""
    from su3mag import phase
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(5))

    def still(sys_, pt0, t_end, dt_, field):
        rows = flow_steps(t_end, dt_) + 1
        return (np.repeat(pt0.G[None], rows, axis=0),
                np.repeat(pt0.X[None], rows, axis=0))

    monkeypatch.setattr(phase, "_rk4_flow", still)
    traj = integrate_flow(sys, pt, t_end=10000 * dt, dt=dt)
    want = [0.0] + [(step + 1) * dt for step in range(10000)]
    assert traj.times == want
    assert all(type(t) is float for t in traj.times)
    assert np.array_equal(np.array(traj.times).view(np.int64),
                          np.array(want).view(np.int64))


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_one_step_flow_matches_the_reference_loop(case):
    """A flow of one step (t_end = dt), a scan over a single factor:
    X within 1e-16 and g within 2e-15 of the per-step object loop."""
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    pt = sys.random_regular_point(np.random.default_rng(3))
    ref = _reference_flow(sys, pt, t_end=1e-3, dt=1e-3)
    traj = integrate_flow(sys, pt, t_end=1e-3, dt=1e-3)
    assert traj.times == ref.times == [0.0, 1e-3]
    for new, old in zip(traj.points, ref.points, strict=True):
        assert np.abs(new.X - old.X).max() < 1e-16
        assert np.abs(new.G - old.G).max() < 2e-15


def test_small_matrix_product_is_matmul():
    """_mm, on matrices stored with the matrix axes first, equals
    np.matmul within 1e-15 of the product of the entries' sizes, for
    complex stacks, single matrices and a single matrix (N, N, 1)
    broadcast against a stack, at N = 2 and N = 3; the product of one
    matrix pair is its row of the stack's product, bit for bit."""
    from su3mag.algebra import _axes_first, _mm
    rng = np.random.default_rng(49)
    for N in (2, 3):
        for _ in range(50):
            real, imag = rng.normal(size=(2, 2, 17, N, N))
            A, B = real + 1j * imag
            for a, b in ((A, B), (A[0], B[0]), (A[:1], B), (A, B[:1])):
                scale = np.abs(a).max() * np.abs(b).max()
                out = _mm(_axes_first(a), _axes_first(b))
                assert out.shape == _axes_first(a @ b).shape
                assert (np.abs(out - _axes_first(a @ b)).max()
                        <= 1e-15 * scale)
            stack = _mm(_axes_first(A), _axes_first(B))
            assert np.array_equal(_mm(A[5], B[5]), stack[:, :, 5])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 15, 16, 17, 255, 256, 784, 1000,
                               1023, 1024])
def test_prefix_products_match_the_sequential_loop(n):
    """The scan writes g Psi_0 ... Psi_k into step k of its stack
    (matrix axes first), within 1e-14 of the loop g <- g Psi_k, on
    near-identity SU(3) factors: powers of two and one either side, odd
    lengths whose last step only the down-sweep reaches (3, 5), the
    flow's last block (784 = 10000 mod 1024, 16 = 10000 mod 256), the
    1000 steps of certify's flow and a full block of 1024; and row by
    row for a batch of two flows, the batch axis last."""
    from su3mag.algebra import _axes_first
    from su3mag.phase import _prefix_products
    rng = np.random.default_rng(50 + n)
    alg = su3_regular_system(0.1).alg
    g = exp_map(alg, alg.matrix_of(rng.uniform(-2, 2, (2, 8))))
    Psi = exp_map(alg, alg.matrix_of(rng.uniform(-1e-2, 1e-2, (2 * n, 8)))
                  ).reshape(n, 2, 3, 3)
    out = np.empty((3, 3, n), dtype=complex)
    _prefix_products(g[0], _axes_first(Psi[:, 0]), out)
    batch = np.empty((3, 3, n, 2), dtype=complex)
    _prefix_products(_axes_first(g), _axes_first(Psi), batch)
    for b in range(2):
        gb = g[b]
        for k in range(n):
            gb = gb @ Psi[k, b]
            assert np.abs(batch[:, :, k, b] - gb).max() < 1e-14
            if b == 0:
                assert np.abs(out[:, :, k] - gb).max() < 1e-14


@pytest.mark.parametrize("n", [3, 5, 784, 1000, 1023, 1024])
def test_prefix_products_are_work_efficient(monkeypatch, n):
    """The scan is work-efficient: fewer than 2n step products in at
    most 2 floor(log2 n) stacked products (_mm), 2 floor(log2 n) - 1 for
    n a power of two, then one product of all n steps with g."""
    from su3mag import phase
    from su3mag.algebra import _mm
    widths = []

    def counted(A, B):
        out = _mm(A, B)
        widths.append(out.shape[2])
        return out

    monkeypatch.setattr(phase, "_mm", counted)
    eye = np.eye(3, dtype=complex)
    out = np.empty((3, 3, n), dtype=complex)
    phase._prefix_products(eye, np.repeat(eye[:, :, None], n, axis=2), out)
    *levels, with_g = widths
    depth = n.bit_length() - 1
    assert with_g == n
    assert sum(levels) < 2 * n
    assert len(levels) <= 2 * depth
    if n == 2 ** depth:
        assert len(levels) == 2 * depth - 1
    assert np.array_equal(out, np.repeat(eye[:, :, None], n, axis=2))


def test_array_driver_guards(monkeypatch):
    from su3mag import phase
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(5))
    # the per-step drift guard before reprojection
    monkeypatch.setattr(phase, "DRIFT_LIMIT", 1e-30)
    with pytest.raises(RuntimeError, match="exceeds limit at step 0"):
        integrate_flow(sys, pt, t_end=0.01, dt=1e-3)
    monkeypatch.undo()
    # the bulk check after the loop, on what the reprojection returned
    real_project = phase._divide_det_phase
    monkeypatch.setattr(phase, "_divide_det_phase",
                        lambda G: real_project(G) * np.exp(1e-3j))
    with pytest.raises(ValueError, match="determinant one at step 0"):
        integrate_flow(sys, pt, t_end=0.01, dt=1e-3)
    shear = np.eye(3)
    shear[0, 1] = 1e-10  # off-diagonal Gram error above UNITARY_TOL
    monkeypatch.setattr(phase, "_divide_det_phase",
                        lambda G: real_project(G) @ shear)
    with pytest.raises(ValueError, match="not unitary .* at step 0"):
        integrate_flow(sys, pt, t_end=0.01, dt=1e-3)
    # a diagonal Gram error of 2e-7 at determinant one, inside numpy's
    # default rtol but far above UNITARY_TOL
    stretch = np.diag([1 + 1e-7, 1 / (1 + 1e-7), 1.0])
    monkeypatch.setattr(phase, "_divide_det_phase",
                        lambda G: real_project(G) @ stretch)
    with pytest.raises(ValueError, match="not unitary .* at step 0"):
        integrate_flow(sys, pt, t_end=0.01, dt=1e-3)
    seen = [0]  # the rows of every block so far: one per step

    def bad_late(G):
        out = real_project(G)
        first = seen[0]
        seen[0] += len(G)
        if first <= LATE_STEP - 1 < seen[0]:
            out[LATE_STEP - 1 - first] *= np.exp(1e-3j)
        return out

    monkeypatch.setattr(phase, "_divide_det_phase", bad_late)
    with pytest.raises(ValueError, match=f"determinant one at step "
                                         f"{LATE_STEP - 1}$"):
        integrate_flow(sys, pt, t_end=LONG_STEPS * 1e-3, dt=1e-3)
    assert seen[0] == LONG_STEPS
    monkeypatch.undo()
    # a fiber off m at the start is caught too
    X = pt.X.copy()
    X[sys.a[0]] = 1e-10
    off = PhasePoint.prevalidated(sys, pt.G, X)
    with pytest.raises(ValueError, match="supported on m at the initial"):
        integrate_flow(sys, off, t_end=0.01, dt=1e-3)


def test_a_nan_fiber_coordinate_off_m_is_refused():
    """A NaN in a stabilizer coordinate of X is not a fiber supported on
    m: PhasePoint refuses it, and integrate_flow refuses it at the
    initial point, before any step can report it as a drift."""
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(5))
    X = pt.X.copy()
    X[sys.a[0]] = np.nan
    with pytest.raises(ValueError, match="fiber coordinate must be "
                                         "supported on m$"):
        PhasePoint(sys, pt.G, X)
    off = PhasePoint.prevalidated(sys, pt.G, X)
    with pytest.raises(ValueError, match="fiber coordinate must be "
                       "supported on m at the initial point$"):
        integrate_flow(sys, off, t_end=0.01, dt=1e-3)


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("seed", [1, 8])
def test_sampled_stacks_are_the_points_built_alone(case, seed):
    """points_of builds the draws as one stack whose rows are, bit for
    bit, the points built one by one from the same generator (one
    exp_map and one GroupElement each); random_point and
    random_regular_point are its one-row case, and every route leaves
    the generator in the same state."""
    sys = su3_regular_system(0.3) if case == "regular" \
        else su3_irregular_system(0.3)
    for draw, alone in ((sys.draw_point, point_by_exp_map),
                        (sys.draw_regular_point, regular_point_by_exp_map)):
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        pts = sys.points_of([draw(rng_new) for _ in range(7)])
        assert len(pts) == 7
        for p in pts:
            q = alone(sys, rng_old)
            assert np.array_equal(p.G, q.G)
            assert np.array_equal(p.X, q.X)
        assert rng_new.random() == rng_old.random()
    for one, alone in ((sys.random_point, point_by_exp_map),
                       (sys.random_regular_point, regular_point_by_exp_map)):
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        for _ in range(3):
            p, q = one(rng_new), alone(sys, rng_old)
            assert isinstance(p, PhasePoint)
            assert np.array_equal(p.G, q.G)
            assert np.array_equal(p.X, q.X)
        assert rng_new.random() == rng_old.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flow_stack_check_refuses_a_nan_or_infinite_entry(bad):
    """The flow's check of its whole stack refuses a group row with a NaN
    or infinite entry and names it: the initial point, a step in the
    first block, and one in the second."""
    import warnings
    from su3mag.phase import _check_stack
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(5))
    traj = integrate_flow(sys, pt, t_end=LONG_STEPS * 1e-3, dt=1e-3)
    for row, where in ((0, "the initial point"), (17, "step 16"),
                       (LATE_STEP, f"step {LATE_STEP - 1}")):
        G = traj.points.G.copy()
        G[row, 1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"not unitary within "
                               f"tolerance at {where}$"):
                _check_stack(sys, G, traj.points.X)


def test_blocked_driver_names_the_first_failing_step():
    """A field that turns NaN, or overflows, at LATE_STEP (in the middle
    of the second block) is rejected at exactly that step: a NaN drift
    fails the guard as an infinite one does, and no numpy warning
    escapes."""
    import warnings
    from su3mag.phase import _rk4_flow
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(5))
    for bad in (np.nan, 1e200):
        calls = [0]

        def field(X):
            calls[0] += 1  # four stages per step
            scale = bad if calls[0] > 4 * LATE_STEP else 1.0
            return scale * X, -sys.eps * (sys._adW @ X)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError,
                               match=f"exceeds limit at step {LATE_STEP}$"):
                _rk4_flow(sys, pt, LONG_STEPS * 1e-3, 1e-3, field)
        assert calls[0] == 4 * LONG_STEPS


def _batch_of_flows(seed, rows):
    """An irregular system, a sample stack of ``rows`` regular points and
    the geodesic's field on a batch, each row its own matrix-vector
    product, as one point's callback would take it."""
    sys = su3_irregular_system(0.1)
    rng = np.random.default_rng(seed)
    pts = sys.points_of([sys.draw_regular_point(rng) for _ in range(rows)])
    A = -sys.eps * sys._adW

    def field(X):
        return X, np.matmul(A, X[..., None])[..., 0]

    return sys, pts, field


def test_batched_driver_rows_are_the_flows_alone():
    """The driver's batch axis (callback producer): each row of a batch
    of LATE_STEP-step flows, across the block boundary at BLOCK_ROWS
    steps, is bit for bit the flow of its point alone, G and X."""
    from su3mag.phase import _rk4_flow
    sys, pts, field = _batch_of_flows(52, 5)
    G, X = _rk4_flow(sys, pts, LATE_STEP * 1e-3, 1e-3, field)
    rows = LATE_STEP + 1
    assert G.shape == (rows, 5, 3, 3) and X.shape == (rows, 5, sys.alg.dim)
    for b in range(5):
        G1, X1 = _rk4_flow(sys, pts[b], LATE_STEP * 1e-3, 1e-3, field)
        assert np.array_equal(G[:, b], G1) and np.array_equal(X[:, b], X1)


def test_batched_driver_names_the_step_and_the_row():
    """A field that turns NaN, or overflows, in row 2 of a batch at
    LATE_STEP (in the second block) fails the drift guard there, and the error names the row and the
    step; a NaN fiber coordinate off m in row 1 of the start, and a bad
    group entry or fiber coordinate in one row of a batch's stack, are
    refused naming both, with no numpy warning."""
    import warnings
    from su3mag.phase import _check_stack, _rk4_flow
    sys, pts, field = _batch_of_flows(53, 4)
    for bad in (np.nan, 1e200):
        calls = [0]

        def faulty(X):
            calls[0] += 1  # four stages per step
            scale = np.ones((len(X), 1))
            if calls[0] > 4 * LATE_STEP:
                scale[2] = bad
            v, F = field(X)
            return scale * v, F

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError,
                               match=f" in batch row 2 exceeds limit at "
                                     f"step {LATE_STEP}$"):
                _rk4_flow(sys, pts, LONG_STEPS * 1e-3, 1e-3, faulty)
    X0 = pts.X.copy()
    X0[1, sys.a[0]] = np.nan
    with pytest.raises(ValueError, match="supported on m at the initial "
                                         "point of batch row 1$"):
        _rk4_flow(sys, PhasePoint.prevalidated(sys, pts.G, X0),
                  LONG_STEPS * 1e-3, 1e-3, field)
    G, X = _rk4_flow(sys, pts, LONG_STEPS * 1e-3, 1e-3, field)
    for row, b, where in ((0, 3, "the initial point"), (17, 2, "step 16"),
                          (LATE_STEP, 1, f"step {LATE_STEP - 1}")):
        for bad in (np.nan, np.inf):
            G1 = G.copy()
            G1[row, b, 1, 2] = bad
            X1 = X.copy()
            X1[row, b, sys.a[1]] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"not unitary within "
                                   f"tolerance at {where} of batch row "
                                   f"{b}$"):
                    _check_stack(sys, G1, X)
                with pytest.raises(ValueError, match=f"supported on m at "
                                   f"{where} of batch row {b}$"):
                    _check_stack(sys, G, X1)


def test_step_factor_projection_commutes_with_a_unitary_g():
    """g Psi with Psi = _newton_schulz(Phi) equals the Newton-Schulz step
    of g Phi, Y - 1/2 Y (Y* Y - I) for Y = g Phi, within 1e-15 at
    unitarity drifts of Y up to 1e-8, for a stack of factors Phi stored
    with the matrix axes first, as the driver holds a block."""
    from su3mag.algebra import _adjoint, _axes_first
    from su3mag.phase import _newton_schulz
    rng = np.random.default_rng(48)
    alg = su3_regular_system(0.1).alg
    eye = np.eye(3)
    for drift in (1e-8, 1e-10, 1e-12):
        g = exp_map(alg, alg.matrix_of(rng.uniform(-2, 2, (20, 8))))
        u = exp_map(alg, alg.matrix_of(rng.uniform(-1e-2, 1e-2, (20, 8))))
        E = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        E = (E + _adjoint(E)) / 2
        E *= 0.49 * drift / np.abs(E).max(axis=(1, 2), keepdims=True)
        Phi = u @ (eye + E)
        Y = g @ Phi
        assert (np.abs(_adjoint(Y) @ Y - eye).max(axis=(1, 2))
                <= drift).all()
        ns = Y - 0.5 * (Y @ (_adjoint(Y) @ Y - eye))
        Psi = np.moveaxis(_newton_schulz(_axes_first(Phi)), (0, 1), (1, 2))
        assert np.abs(g @ Psi - ns).max() < 1e-15


def test_newton_schulz_step_matches_the_polar_projection():
    """At a unitarity drift up to 1e-8, the Newton-Schulz step g (I -
    1/2 (g* g - I)) of a stack stored with the matrix axes first, then
    the det phase divided out in the layout of the flow's rows, lands
    on SU(3) and on polar_project within 1e-14, row by row."""
    from su3mag.algebra import _adjoint, _axes_first, polar_project
    from su3mag.phase import _divide_det_phase, _newton_schulz
    rng = np.random.default_rng(47)
    alg = su3_regular_system(0.1).alg
    eye = np.eye(3)
    for drift in (1e-8, 1e-10, 1e-12):
        u = exp_map(alg, alg.matrix_of(rng.uniform(-2, 2, (20, 8))))
        E = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        E = (E + _adjoint(E)) / 2
        E *= 0.49 * drift / np.abs(E).max(axis=(1, 2), keepdims=True)
        g = u @ (eye + E) * np.exp(0.3j)
        D = _adjoint(g) @ g - eye
        assert (np.abs(D).max(axis=(1, 2)) <= drift).all()
        out = _divide_det_phase(np.moveaxis(
            _newton_schulz(_axes_first(g)), (0, 1), (1, 2)))
        assert np.abs(_adjoint(out) @ out - eye).max() < 1e-14
        assert np.abs(np.linalg.det(out) - 1).max() < 1e-14
        assert np.abs(out - polar_project(g)).max() < 1e-14


def test_trajectory_points_view():
    sys = su3_regular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(6))
    traj = integrate_flow(sys, pt, t_end=0.02, dt=1e-3)
    pts = traj.points
    assert len(pts) == 21 and len(traj.times) == 21
    # a row is read as a PhasePoint over views of the stored arrays
    for k in (0, 20, -1, -21):
        assert np.shares_memory(pts[k].G, pts.G)
        assert np.shares_memory(pts[k].X, pts.X)
    assert np.array_equal(pts[-1].X, pts[20].X)
    assert np.array_equal(pts[0].G, pt.G)
    assert np.array_equal(pts[0].X, pt.X)
    with pytest.raises(IndexError):
        pts[21]
    # a single point has no rows
    with pytest.raises(TypeError):
        len(pt)
    with pytest.raises(TypeError):
        pt[0]
    # slicing gives a stack over views of the rows
    thin = pts[::5]
    assert isinstance(thin, PhasePoint) and len(thin) == 5
    assert np.shares_memory(thin.G, pts.G) and np.shares_memory(thin.X, pts.X)
    for p, k in zip(thin, range(0, 21, 5)):
        assert np.array_equal(p.G, pts[k].G)
        assert np.array_equal(p.X, pts[k].X)
    assert np.array_equal(pts[-2:].X, pts.X[19:])
    listed = list(pts)
    assert len(listed) == 21 and all(isinstance(p, PhasePoint) for p in listed)
    # the stacked memos are the per-point ones, bit for bit
    for k, p in enumerate(listed):
        assert np.array_equal(pts.xi[k], p.xi)
        assert np.array_equal(pts.moment_coords[k], p.moment_coords)
        assert np.array_equal(pts.fiber_images[k], p.fiber_images)
        assert np.array_equal(pts.moment_images[k], p.moment_images)
    # and so are the stacked gradients, differentials and brackets
    from su3mag.certify import generator_family, phase_jacobian
    from su3mag.phase import basis_bracket
    fam = generator_family(sys)
    P, xi_m = pts.moment_coords, pts.xi[:, sys.m]
    D = phase_jacobian(sys, fam, pts)
    B = basis_bracket(sys, D[:, :3], D)
    for fn in fam[:3] + fam[-5:]:
        poly, x = (fn.h, P) if fn.tag == "moment" else (fn.theta, xi_m)
        grads = poly.gradient(x)
        brackets = twisted_bracket(sys, fam[0], fn, pts)
        for k, p in enumerate(listed):
            assert np.array_equal(grads[k], poly.gradient(x[k]))
            assert brackets[k] == twisted_bracket(sys, fam[0], fn, p)
    for k, p in enumerate(listed):
        Dk = phase_jacobian(sys, fam, p)
        assert np.array_equal(D[k], Dk)
        assert np.array_equal(B[k], basis_bracket(sys, Dk[:3], Dk))
    stacked = PhasePoint.of(sys, listed)
    assert np.array_equal(stacked.G, pts.G) and np.array_equal(stacked.X, pts.X)
    # the stored arrays cannot be changed through a point
    with pytest.raises(ValueError):
        pts[3].X[0] = 1.0
    with pytest.raises(TypeError):
        pts[3] = pts[4]
    # the fields stay assignable
    traj.points, traj.times = traj.points[:1], traj.times[:1]
    assert len(traj.points) == 1
    assert np.array_equal(traj.points[0].X, pts[0].X)


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_poisson_tensor_is_minus_the_inverse_of_omega(case):
    """The system's Poisson tensor Pi, built in closed form, is -Om^-1
    for the matrix Om of omega_eps on the tangent basis directions, and
    the entries i < j of _poisson, mirrored, rebuild it exactly."""
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.3)
    dirs = phase_tangent_basis(sys)
    Om = np.array([[omega_eps(sys, a, b) for b in dirs] for a in dirs])
    assert np.abs(sys._Pi + np.linalg.inv(Om)).max() < 1e-12
    P = np.zeros(sys._Pi.shape)
    for i, j, p in sys._poisson:
        assert i < j
        P[i, j], P[j, i] = p, -p
    assert np.array_equal(P, sys._Pi)


def test_chart_block_structure_of_omega():
    """The (x, p, F_ij) coordinate presentation of the magnetic bracket.

    In the base/fiber tangent frame the inverse of the omega-matrix must
    show {x_i, x_j} = 0, {x_i, p_j} = delta_ij and {p_i, p_j} equal to
    -eps times the magnetic two-form F_ij = omega_KKS(b_i, b_j); by left
    invariance checking it at any point covers the chart presentation.
    """
    sys = su3_regular_system(0.3)
    rng = np.random.default_rng(13)
    pt = sys.random_regular_point(rng)
    dirs = phase_tangent_basis(sys)
    n = len(dirs)
    Om = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            Om[a, b] = omega_eps(sys, dirs[a], dirs[b])
    poisson = np.linalg.inv(Om)
    nm = len(sys.m)
    F = np.zeros((nm, nm))
    for a, i in enumerate(sys.m):
        for b, j in enumerate(sys.m):
            ei = np.zeros(8)
            ej = np.zeros(8)
            ei[i] = 1.0
            ej[j] = 1.0
            F[a, b] = np.dot(sys.W, sys.alg.np_bracket(ei, ej))
    # Poisson blocks: {x,x} = 0, {x,p} = -delta, {p,p} = -eps F in this
    # orientation (the overall sign is the documented global flip of the
    # canonical chart form; the block structure is the content)
    assert np.abs(poisson[:nm, :nm]).max() < 1e-12
    assert np.abs(poisson[:nm, nm:] + np.eye(nm)).max() < 1e-12
    assert np.abs(poisson[nm:, nm:] + sys.eps * F).max() < 1e-12


def test_regular_point_sampling_respects_locus():
    from su3mag.phase import slice_z_values
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(12)
    for _ in range(5):
        pt = sys.random_regular_point(rng)
        z = slice_z_values(sys, pt.xi)
        assert np.min(np.abs(z)) > 1e-3
    sysI = su3_irregular_system(0.1)
    for _ in range(5):
        pt = sysI.random_regular_point(rng)
        assert np.linalg.norm(pt.X[sysI.m]) > 1e-3


def _reference_z_values(alg, coords):
    """The pure-Python loop over the exact z_rows that slice_z_values
    replaced: z_k = sum_i z_rows[k][i] x_i."""
    vals = []
    for row in alg.extras["z_rows"]:
        acc = 0j
        for c, x in zip(row, coords):
            if not c.is_zero():
                acc += complex(c) * float(x)
        vals.append(acc)
    return np.array(vals)


def test_slice_z_values_match_the_exact_row_loop():
    from su3mag.phase import slice_z_values
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(13)
    stack = []
    for _ in range(500):
        pt = sys.random_point(rng)
        assert np.array_equal(slice_z_values(sys, pt.xi),
                              _reference_z_values(sys.alg, pt.xi))
        stack.append(pt.xi)
    # a stack of coordinate vectors gives the same rows
    stack = np.array(stack)
    assert np.array_equal(slice_z_values(sys, stack),
                          [_reference_z_values(sys.alg, x) for x in stack])


# ---------------------------------------------------------------------------
# the per-direction routes the tangent-image memos replaced, kept as oracles
# ---------------------------------------------------------------------------

def _reference_coords_of_matrix(alg, M):
    """The trace-per-basis-element pairing and the solve against the Gram
    matrix that coords_of_matrix replaced."""
    pair = np.array([-0.5 * np.trace(M @ b).real for b in alg._np_basis])
    gram = np.array([[float(x) for x in row] for row in alg.bform])
    return np.linalg.solve(gram, pair)


def _reference_hvf(fn, sys, pt):
    """The Hamiltonian vector field solved (solve_field) from 2 dim(m)
    calls to the per-direction differential, one per tangent basis
    direction: a check of the df route, whose inversion of omega_eps
    test_hvf_defining_equation checks."""
    return solve_field(sys, _reference_jacobian(sys, [fn], pt)[0])


def _reference_jacobian(sys, fns, pt):
    return np.asarray([[per_direction_differential(fn, sys, pt, v, w)
                        for v, w in phase_tangent_basis(sys)]
                       for fn in fns])


def _agrees(new, ref):
    """new within a relative 1e-14 of ref (of its largest entry): the
    stacked images and one-pass gradients sum in another order than the
    per-direction route, which moves the last bits only."""
    return np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()


def _fresh(pt):
    """The same (g, X) as a new point, with none of pt's memos."""
    return PhasePoint.prevalidated(pt.sys, pt.G, pt.X)


def _oracle_functions(sys, rng):
    """Moment, slice and moment_of_direction functions."""
    c2, c3 = sys.casimirs()
    m_names = sys.m_names()
    P = [moment_coordinate(sys, i) for i in range(sys.alg.dim)]
    if sys.case_tag == "regular":
        u, v, w = torus_generators(sys.alg)
        slices = [SlicePullback(u[0], name="u1"), SlicePullback(w, name="w")]
    else:
        slices = [SlicePullback(radial_generator(sys), name="R")]
    bare = SlicePullback(Polynomial.var(m_names, m_names[1])
                         * Polynomial.var(m_names, m_names[2]))
    eta = moment_of_direction(sys, rng.uniform(-1, 1, sys.alg.dim))
    return (P + [MomentPullback(c2, name="J2"), MomentPullback(c3, name="J3"),
                 eta, bare] + slices)


def _oracle_points(sys, seed):
    rng = np.random.default_rng(seed)
    pts = [sys.random_regular_point(rng) for _ in range(2)]
    X = np.zeros(sys.alg.dim)
    X[sys.m] = rng.uniform(-1, 1, len(sys.m))
    return pts + [PhasePoint(sys, identity_element(), X),
                  PhasePoint(sys, identity_element(), np.zeros(sys.alg.dim))]


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_hvf_and_jacobian_match_the_per_direction_route(case, monkeypatch):
    from su3mag.algebra import LieAlgebraSpec
    from su3mag.certify import phase_jacobian
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.3)
    fns = _oracle_functions(sys, np.random.default_rng(40))
    for seed in (41, 42):
        for pt in _oracle_points(sys, seed):
            fields = [hamiltonian_vector_field(fn, sys, pt) for fn in fns]
            jac = phase_jacobian(sys, fns, pt)
            with monkeypatch.context() as mp:
                mp.setattr(LieAlgebraSpec, "coords_of_matrix",
                           _reference_coords_of_matrix)
                old = _fresh(pt)
                ref_fields = [_reference_hvf(fn, sys, old) for fn in fns]
                ref_jac = _reference_jacobian(sys, fns, old)
            for fn, (v, w), (v0, w0) in zip(fns, fields, ref_fields):
                assert _agrees(v, v0), fn.name
                assert _agrees(w, w0), fn.name
            assert jac.shape == (len(fns), 2 * len(sys.m))
            for row, ref_row in zip(jac, ref_jac):
                assert _agrees(row, ref_row)


def test_coords_of_matrix_matches_trace_and_solve():
    from su3mag.algebra import build_su2, build_su3_chevalley, \
        build_su3_gellmann
    rng = np.random.default_rng(43)
    for alg in (build_su3_gellmann(), build_su3_chevalley(), build_su2()):
        n = alg._np_basis.shape[1]
        for _ in range(300):
            x = rng.uniform(-1, 1, alg.dim)
            x[rng.integers(0, alg.dim, 2)] = 0.0
            e = np.zeros(alg.dim)
            e[rng.integers(alg.dim)] = 1.0
            Mx, Me = alg.matrix_of(x), alg.matrix_of(e)
            for M in (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                      Mx, Me, Mx @ Me - Me @ Mx):
                assert np.array_equal(alg.coords_of_matrix(M),
                                      _reference_coords_of_matrix(alg, M))


def _matmul_trace_coords(alg, M):
    """The batched product over the basis and its trace: the route that
    coords_of_matrix's gather replaced."""
    prods = M[..., None, :, :] @ alg._np_basis
    return -0.5 * np.trace(prods, axis1=-2, axis2=-1).real


def _same_bits(a, b):
    """Equal shapes and equal bit patterns (so also the signs of zeros)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _sparse_matrices(rng, n, N):
    """n random complex N x N matrices with about half their entries
    zero, some of those with negative zero parts."""
    M = rng.normal(size=(n, N, N)) + 1j * rng.normal(size=(n, N, N))
    zero = rng.random(M.shape) < 0.5
    M[zero] = 0.0
    M.real[zero & (rng.random(M.shape) < 0.4)] = -0.0
    M.imag[zero & (rng.random(M.shape) < 0.4)] = -0.0
    return M


@pytest.mark.parametrize("build", ["gellmann", "chevalley", "su2"])
def test_coords_of_matrix_is_the_trace_bit_for_bit(build):
    """The gather gives the bits of the batched product and trace, the
    signs of zeros included, and the values of the trace-and-solve
    oracle, as a C-ordered array: for a stack of sparse matrices, for
    each matrix alone, for a transposed view and for a stack broadcast
    along a new axis (g[..., None], as the moment images pass it)."""
    from su3mag.algebra import build_su2, build_su3_chevalley, \
        build_su3_gellmann, _adjoint
    alg = {"gellmann": build_su3_gellmann, "chevalley": build_su3_chevalley,
           "su2": build_su2}[build]()
    rng = np.random.default_rng(49)
    N = alg._np_basis.shape[1]
    M = _sparse_matrices(rng, 60, N)
    x = rng.uniform(-1, 1, (20, alg.dim))
    x[rng.random(x.shape) < 0.3] = 0.0
    Mx = alg.matrix_of(x)
    M = np.concatenate([M, Mx, Mx[:10] @ Mx[10:] - Mx[10:] @ Mx[:10]])
    new = alg.coords_of_matrix(M)
    assert new.flags.c_contiguous
    assert _same_bits(new, _matmul_trace_coords(alg, M))
    for row, one in zip(new, M):
        assert _same_bits(alg.coords_of_matrix(one), row)
        assert np.array_equal(row, _reference_coords_of_matrix(alg, one))
    view = _adjoint(M)
    assert _same_bits(alg.coords_of_matrix(view),
                      _matmul_trace_coords(alg, view))
    spread = np.broadcast_to(M[:, None], (len(M), 3, N, N))
    out = alg.coords_of_matrix(spread)
    assert out.flags.c_contiguous and out.shape == (len(M), 3, alg.dim)
    assert _same_bits(out, np.broadcast_to(new[:, None], out.shape))


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_moment_images_keep_their_bits_under_the_gather(case, monkeypatch):
    """The (n, 2 dim m, 3, 3) stack of products g M(S) g* that
    _moment_images builds, read by the gather, has the bits of the
    batched product and trace; and so do the moment coordinates and
    images of a sample, computed afresh with the old route patched in."""
    from su3mag.algebra import LieAlgebraSpec, _adjoint
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.3)
    rng = np.random.default_rng(50)
    pts = sys.points_of([sys.draw_regular_point(rng) for _ in range(12)])
    g = pts.G[:, None]
    M = g @ sys.alg.matrix_of(pts.fiber_images) @ _adjoint(g)
    assert M.shape == (12, 2 * len(sys.m), 3, 3)
    out = sys.alg.coords_of_matrix(M)
    assert out.flags.c_contiguous
    assert _same_bits(out, _matmul_trace_coords(sys.alg, M))
    images, coords = pts.moment_images, pts.moment_coords
    with monkeypatch.context() as mp:
        mp.setattr(LieAlgebraSpec, "coords_of_matrix", _matmul_trace_coords)
        old = PhasePoint.prevalidated(sys, pts.G, pts.X)
        assert _same_bits(images, old.moment_images)
        assert _same_bits(coords, old.moment_coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_coords_of_a_nan_or_infinite_entry_are_a_row_of_nans(bad):
    """A matrix with a NaN or infinite entry anywhere, also where the
    gather reads nothing, gives a row of NaNs, as the product and trace
    do; the other rows of its stack keep their bits."""
    import warnings
    from su3mag.algebra import build_su2, build_su3_chevalley, \
        build_su3_gellmann
    rng = np.random.default_rng(51)
    for alg in (build_su3_gellmann(), build_su3_chevalley(), build_su2()):
        N = alg._np_basis.shape[1]
        good = _sparse_matrices(rng, 3, N)
        for entry in np.ndindex(N, N):
            M = good.copy()
            M[(1,) + entry] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = alg.coords_of_matrix(M)
                assert np.isnan(_matmul_trace_coords(alg, M[1])).all()
                assert np.isnan(alg.coords_of_matrix(M[1])).all()
            assert np.isnan(out[1]).all(), (alg.name, entry)
            assert _same_bits(out[[0, 2]], alg.coords_of_matrix(good[[0, 2]]))


def _reference_center_check(sys, rng, samples):
    """center_check with one twisted_bracket per (centre, generator) pair
    and the identifications evaluated one point at a time, each line
    with its verdict stated by hand."""
    from su3mag.certify import (CertificateReport, NUM_TOL, center_family,
                                generator_family)
    from su3mag.invariants import restrict_shift
    tol = NUM_TOL
    report = CertificateReport(case_tag=sys.case_tag, sample_count=samples)
    gens = generator_family(sys)
    centers = center_family(sys)
    c2, c3 = sys.casimirs()
    res2 = restrict_shift(c2, sys, symbolic_eps=False)
    res3 = restrict_shift(c3, sys, symbolic_eps=False)
    worst = {(c.name, g.name): 0.0 for c in centers for g in gens}
    ident2 = ident3 = 0.0
    for _ in range(samples):
        pt = sys.random_regular_point(rng)
        for c in centers:
            for g in gens:
                val = abs(twisted_bracket(sys, c, g, pt))
                worst[(c.name, g.name)] = max(worst[(c.name, g.name)], val)
        xi_m = pt.xi[sys.m]
        P = pt.moment_coords
        ident2 = max(ident2, abs(reference_float_evaluate(c2, P)
                                 - reference_float_evaluate(res2, xi_m)))
        ident3 = max(ident3, abs(reference_float_evaluate(c3, P)
                                 - reference_float_evaluate(res3, xi_m)))
    for (cname, gname), val in sorted(worst.items()):
        add_with_verdict(report, f"{{{cname},{gname}}}", 0.0, val, tol,
                         val < tol)
    add_with_verdict(report, "P*C2 == pi*(Res_W C2)", 0.0, ident2, tol,
                     ident2 < tol)
    add_with_verdict(report, "P*C3 == pi*(Res_W C3)", 0.0, ident3, tol,
                     ident3 < tol)
    return report


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_center_check_matches_twisted_bracket_route(case):
    from su3mag.certify import center_check
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    for seed in (44, 45):
        new = center_check(sys, np.random.default_rng(seed), samples=3)
        old = _reference_center_check(sys, np.random.default_rng(seed), 3)
        assert new.to_dict() == old.to_dict()
        assert [c.observed for c in new.checks] == \
            [c.observed for c in old.checks]


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_basis_bracket_matches_omega_of_the_solved_fields(case, eps):
    """basis_bracket on the rows of the generator and centre families and
    the angle differential agrees with omega_eps of the fields solved
    from each row, within a relative 1e-14 of the largest entry.  A stack
    bracketed with itself is exactly antisymmetric with a zero diagonal,
    and each entry reads its two rows alone, bit for bit."""
    from su3mag.angles import angle_differential, chart_point
    from su3mag.certify import center_family, generator_family, phase_jacobian
    from su3mag.phase import basis_bracket, solve_field
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(eps)
    rng = np.random.default_rng(47)
    fns = generator_family(sys) + center_family(sys)
    for _ in range(4):
        pt = chart_point(sys, rng)
        A = angle_differential(sys, pt)
        D = np.concatenate([phase_jacobian(sys, fns, pt), A])
        fields = ([hamiltonian_vector_field(fn, sys, pt) for fn in fns]
                  + [solve_field(sys, row) for row in A])
        ref = np.array([[omega_eps(sys, X, Y) for Y in fields]
                        for X in fields])
        new = basis_bracket(sys, D, D)
        assert _agrees(new, ref)
        assert np.array_equal(new, -new.T)
        assert not np.diag(new).any()
        assert np.array_equal(basis_bracket(sys, D[:3], D[3:]), new[:3, 3:])


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_derived_points_build_their_own_tangent_images(case):
    """A point made from another never reuses that point's images."""
    from su3mag.angles import flow_step
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.2)
    rng = np.random.default_rng(46)
    fns = [moment_coordinate(sys, 4),
           MomentPullback(sys.casimirs()[0], name="J2"),
           SlicePullback(radial_generator(sys), name="R")]
    pt = sys.random_regular_point(rng)
    for fn in fns:
        hamiltonian_vector_field(fn, sys, pt)
    a = np.zeros(sys.alg.dim)
    a[sys.a] = rng.uniform(-1, 1, len(sys.a))
    traj = integrate_flow(sys, pt, t_end=0.003, dt=1e-3)
    for fn in fns:
        hamiltonian_vector_field(fn, sys, traj.points[0])
    derived = {
        "left_translate": _left_translate(
            pt, exp_map(sys.alg, rng.uniform(-1, 1, sys.alg.dim))),
        "right_act": pt.right_act(exp_map(sys.alg, a)),
        "flow_step": flow_step(fns[1], sys, pt, 1e-3),
        "trajectory 1": traj.points[1],
        "trajectory 3": traj.points[3],
    }
    for name, q in derived.items():
        for fn in fns:
            v, w = hamiltonian_vector_field(fn, sys, q)
            v0, w0 = _reference_hvf(fn, sys, _fresh(q))
            assert _agrees(v, v0) and _agrees(w, w0), (name, fn.name)
        for other in (pt, traj.points[0]):
            assert q.fiber_images is not other.fiber_images, name
            assert q.moment_images is not other.moment_images, name
