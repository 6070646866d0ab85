"""Action-angle machinery: phases, equivariance, frequencies, canonicity."""

import subprocess
import sys

import numpy as np
import pytest

from su3mag.phase import (su3_regular_system, su3_irregular_system,
                          PhasePoint, integrate_flow,
                          hamiltonian_vector_field, moment_coordinate)
from su3mag.algebra import GroupElement, exp_map, identity_element
from su3mag.angles import (root_phases, torus_action,
                           chart_point, frequency_matrix,
                           angle_action_pairing, angle_angle_bracket,
                           angle_differential, angle_map_matrix,
                           action_functions,
                           flow_step, slice_z_values, ChartUndefined,
                           THETA_MATRIX, LEFT_INVERSE, _nearest_branch,
                           _rescale, TWO_PI)
from su3mag.reports import KNOWN_DEVIATIONS
from oracles import (fiber_velocity, pairing_by_points, phase_tangent_basis,
                     stage_projected_flow_step)


def test_import_builds_no_algebra():
    """Importing the module is cheap: the algebra it needs is built lazily."""
    probe = ("import su3mag.angles\n"
             "from su3mag import algebra\n"
             "for b in (algebra.build_su3_gellmann, "
             "algebra.build_su3_chevalley, algebra.build_su2):\n"
             "    assert b.cache_info().misses == 0, b.__name__\n"
             "assert su3mag.phase._z_matrix.cache_info().misses == 0\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_left_inverse_of_theta():
    assert np.abs(LEFT_INVERSE @ THETA_MATRIX - np.eye(2)).max() == 0.0


def test_real_positive_roots_have_zero_phase():
    sys = su3_regular_system(0.1)
    # choose the fiber so that z_k(xi) is real and positive for all roots:
    # z1 = (x1 + i y1)/2, z2 likewise, z3 = i (x3 + i y3)/2
    X = np.zeros(8)
    X[2] = 1.0            # x1
    X[4] = 1.0            # x2
    X[7] = -1.0           # y3 -> z3 = -i*i/2 = 1/2
    pt = PhasePoint(sys, identity_element(), X)
    th = root_phases(sys, pt)
    assert np.abs(th).max() < 1e-12
    # and so are the torus angles phi = L theta, mod 2 pi
    assert np.abs(np.mod(angle_map_matrix(sys) @ th, TWO_PI)).max() < 1e-12


def test_phase_equivariance_regular():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(0)
    pt = chart_point(sys, rng)
    for sig in ((0.37, -0.21), (1.2, 0.4), (0.0, -0.9)):
        sig = np.array(sig)
        th0 = root_phases(sys, pt)
        th1 = _nearest_branch(root_phases(sys, torus_action(sys, pt, sig)),
                              th0)
        assert np.abs((th1 - th0) + THETA_MATRIX @ sig).max() < 1e-12
        # torus angles shift by +sigma (right-action equivariance)
        ph1 = -LEFT_INVERSE @ th1
        shift = (ph1 - (-LEFT_INVERSE @ th0)) - sig
        assert np.abs(shift).max() < 1e-8


def test_full_rotation_returns_angle():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(1)
    pt = chart_point(sys, rng)
    L = angle_map_matrix(sys)
    ph0 = np.mod(L @ root_phases(sys, pt), TWO_PI)
    moved = torus_action(sys, pt, np.array([TWO_PI, 0.0]))
    ph1 = np.mod(L @ root_phases(sys, moved), TWO_PI)
    assert np.abs(np.mod(ph1 - ph0 + np.pi, TWO_PI) - np.pi).max() < 1e-8


def test_chart_undefined_raises():
    sys = su3_regular_system(0.1)
    pt = PhasePoint(sys, identity_element(), np.zeros(8))
    with pytest.raises(ChartUndefined):
        root_phases(sys, pt)


def test_branch_consistency():
    """Angles computed from overlapping arg branches differ by 2 pi."""
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(2)
    pt = chart_point(sys, rng)
    z = slice_z_values(sys, pt.xi)
    th = root_phases(sys, pt)
    alt = np.angle(z)  # principal branch in (-pi, pi]
    diff = th - alt
    assert np.abs(diff - TWO_PI * np.round(diff / TWO_PI)).max() < 1e-12


def test_frequency_constancy_along_flows():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(3)
        pt = chart_point(sys, rng)
        Om0 = frequency_matrix(sys, pt)
        for J in action_functions(sys):
            moved = flow_step(J, sys, pt, 5e-3, nsteps=4)
            drift = np.abs(frequency_matrix(sys, moved) - Om0).max()
            assert drift < 1e-5


def test_moment_casimirs_commute():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(4)
    from su3mag.phase import twisted_bracket
    J2, J3 = action_functions(sys)
    for _ in range(5):
        pt = sys.random_regular_point(rng)
        assert abs(twisted_bracket(sys, J2, J3, pt)) < 1e-10


def test_angle_action_pairing_regular():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        pt = chart_point(sys, rng)
        pair = angle_action_pairing(sys, pt)
        assert np.abs(pair - np.eye(2)).max() < 1e-5


def test_angle_action_pairing_irregular_and_normalization():
    sys = su3_irregular_system(0.1)
    rng = np.random.default_rng(6)
    for _ in range(5):
        pt = chart_point(sys, rng)
        pair = angle_action_pairing(sys, pt)
        assert np.abs(pair - 1.0).max() < 1e-5
        Om = frequency_matrix(sys, pt)
        u = Om / float(Om @ Om)
        assert abs(float(u @ Om) - 1.0) < 1e-10


def test_angle_angle_constant_on_torus():
    """The regular known_deviations sentence on {phi~1, phi~2}: the
    bracket is constant along the torus actions and an action flow, and
    far from zero (the strict xfail below holds the vanishing claim)."""
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(7)
    pt = chart_point(sys, rng)
    vals = [angle_angle_bracket(sys, pt)]
    for sig in ((0.5, 0.0), (0.0, 0.8), (-0.7, 0.3)):
        vals.append(angle_angle_bracket(
            sys, torus_action(sys, pt, np.array(sig))))
    J2, J3 = action_functions(sys)
    vals.append(angle_angle_bracket(sys, flow_step(J3, sys, pt, 5e-3,
                                                   nsteps=4)))
    assert max(vals) - min(vals) < 1e-6
    assert min(abs(v) for v in vals) > 1e-3
    assert KNOWN_DEVIATIONS["regular"][3] == (
        "{phi~1, phi~2} is constant on each invariant torus but not zero "
        "for the geometric angles; only the constancy is certified.")


@pytest.mark.xfail(strict=True, reason=(
    KNOWN_DEVIATIONS["regular"][3] + " The geometric angles are phi~ = "
    "Omega^-1 phi; the vanishing claim needs an action-dependent shear "
    "unavailable pointwise."))
def test_angle_angle_bracket_vanishes_literal():
    sys = su3_regular_system(0.1)
    rng = np.random.default_rng(8)
    pt = chart_point(sys, rng)
    assert abs(angle_angle_bracket(sys, pt)) < 1e-5


def test_affine_advance_along_physical_flow():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(9)
        pt = chart_point(sys, rng)
        traj = integrate_flow(sys, pt, t_end=5.0, dt=2e-3)
        pts = traj.points[::125]
        ts = np.array(traj.times[::125])
        phis = (np.unwrap(root_phases(sys, pts), axis=0)
                @ angle_map_matrix(sys).T)
        tilde = np.array([_rescale(sys, frequency_matrix(sys, p), ph)
                          for p, ph in zip(pts, phis)])
        for c in range(tilde.shape[1]):
            coef = np.polyfit(ts, tilde[:, c], 1)
            resid = np.abs(np.polyval(coef, ts) - tilde[:, c]).max()
            assert resid < 1e-4
        # the actions stay constant along the flow
        for J in action_functions(sys):
            assert max(abs(J.values(p) - J.values(pts[0])) for p in pts) < 1e-8


# ---------------------------------------------------------------------------
# the finite-difference routes the closed form d theta = Im(dz / z)
# replaced, kept as oracles
# ---------------------------------------------------------------------------

def _flow_difference(partner, sys, pt, h=1e-5):
    """{phi_a, partner}_eps by central differencing along the RK4 flow,
    the root phases unwrapped against the base point."""
    base = root_phases(sys, pt)
    plus = _nearest_branch(root_phases(sys, flow_step(partner, sys, pt, h)),
                           base)
    minus = _nearest_branch(root_phases(sys, flow_step(partner, sys, pt, -h)),
                            base)
    return angle_map_matrix(sys) @ ((plus - minus) / (2.0 * h))


def _fd_frequency_matrix(sys, pt):
    cols = [_flow_difference(J, sys, pt) for J in action_functions(sys)]
    return np.column_stack(cols) if sys.case_tag == "regular" else cols[0]


def _fd_angle_differential(sys, pt, h=1e-6):
    """Central differences of the angles over the tangent basis, the group
    moved by exp(+-h v) and the fiber by +-h dX."""
    alg = sys.alg
    base = root_phases(sys, pt)
    rows = []
    for (v, w) in phase_tangent_basis(sys):
        dX = fiber_velocity(sys, pt, v, w)
        ends = []
        for s in (h, -h):
            g = pt.G @ exp_map(alg, alg.matrix_of(v) * s).matrix
            moved = PhasePoint(sys, GroupElement(g), pt.X + s * dX)
            ends.append(_nearest_branch(root_phases(sys, moved), base))
        rows.append(angle_map_matrix(sys) @ ((ends[0] - ends[1]) / (2.0 * h)))
    return np.array(rows).T


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_frequency_matrix_matches_flow_differences(eps):
    for sys in (su3_regular_system(eps), su3_irregular_system(eps)):
        rng = np.random.default_rng(20)
        for _ in range(3):
            pt = chart_point(sys, rng)
            Om = frequency_matrix(sys, pt)
            assert Om.shape == ((2, 2) if sys.case_tag == "regular" else (2,))
            assert np.abs(Om - _fd_frequency_matrix(sys, pt)).max() < 1e-8


def test_angle_differential_matches_finite_differences():
    for sys in (su3_regular_system(0.1), su3_irregular_system(0.1)):
        rng = np.random.default_rng(21)
        for _ in range(3):
            pt = chart_point(sys, rng)
            D = angle_differential(sys, pt)
            assert D.shape == (2, 2 * len(sys.m))
            assert np.abs(D - _fd_angle_differential(sys, pt)).max() < 1e-8


@pytest.mark.parametrize("seed", [10131, 10408, 10459])
def test_angle_action_pairing_near_a_singular_frequency_matrix(seed):
    """Regular chart points where det Omega is small and the finite-difference
    frequency matrix, re-measured at both flow ends, broke the pairing."""
    sys = su3_regular_system(0.1)
    pt = chart_point(sys, np.random.default_rng(seed))
    pair = angle_action_pairing(sys, pt)
    assert np.abs(pair - np.eye(2)).max() < 1e-5


# ---------------------------------------------------------------------------
# the partner flows' own RK4 loop, which projected every stage, replaced by
# the flow integrator's loop; kept as an oracle in oracles.py
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_flow_step_matches_the_stage_projected_loop(case):
    """The partner flows at the pairing step agree with the loop that
    projected every stage: the actions and a moment coordinate within
    1e-8 after 4 steps of +-1e-3.  The moment coordinate P5 is not
    Ad-invariant, so its field depends on g and flow_step refuses it."""
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    P5 = moment_coordinate(sys, 4)
    for seed in (30, 31, 32):
        pt = chart_point(sys, np.random.default_rng(seed))
        for fn in action_functions(sys):
            for h in (1e-3, -1e-3):
                new = flow_step(fn, sys, pt, h, nsteps=4)
                old = stage_projected_flow_step(fn, sys, pt, h, nsteps=4)
                for f in (*action_functions(sys), P5):
                    assert abs(f.values(new) - f.values(old)) < 1e-8, \
                        (seed, fn.name, h, f.name)
                assert np.abs(new.G - old.G).max() < 1e-8
                assert np.abs(new.X - old.X).max() < 1e-8
        with pytest.raises(ValueError, match="P5 is not one"):
            flow_step(P5, sys, pt, 1e-3, nsteps=4)


def test_flow_step_accepts_left_invariant_functions_only():
    """Slice functions and Ad-invariant moment pullbacks flow; a moment
    pullback that is not Ad-invariant is refused by its polynomial, also
    at g = I, where a comparison of its field with the field at I would
    show nothing."""
    from su3mag.phase import MomentPullback, SlicePullback
    from su3mag.invariants import radial_generator
    sys = su3_regular_system(0.1)
    pt = chart_point(sys, np.random.default_rng(33))
    at_identity = PhasePoint(sys, identity_element(), pt.X)
    J2, J3 = action_functions(sys)
    P5 = moment_coordinate(sys, 4)
    R = SlicePullback(radial_generator(sys), name="R")
    for fn in (J2, J3, R):
        for start in (pt, at_identity):
            flow_step(fn, sys, start, 1e-3)
    # what flow_step relies on: their fields at (g, X) and (I, X) agree
    for fn in (J2, J3, R):
        for full, at_I in zip(hamiltonian_vector_field(fn, sys, pt),
                              hamiltonian_vector_field(fn, sys, at_identity)):
            assert np.abs(full - at_I).max() < 1e-12 * np.abs(full).max()
    shifted = MomentPullback(sys.casimirs()[0] + P5.h, name="C2 plus P5")
    untagged = type("Untagged", (), {"tag": "other", "name": "f"})()
    for fn in (P5, shifted, untagged):
        for start in (pt, at_identity):
            with pytest.raises(ValueError) as err:
                flow_step(fn, sys, start, 1e-3)
            assert str(err.value) == ("flow_step integrates left-invariant "
                                      f"functions only, and {fn.name} is "
                                      "not one")


def _chart_stack(sys, seeds):
    """The chart points of the seeds, one at a time, and their stack."""
    pts = [chart_point(sys, np.random.default_rng(seed)) for seed in seeds]
    return pts, PhasePoint.of(sys, pts)


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_stacked_pairing_is_the_per_point_pairing(case, eps):
    """angle_action_pairing over a stack of the chart points of seeds
    30-32 (its partner flows one batch of six per action) equals the
    per-point calls bit for bit, row by row, and so do the stacked
    frequency matrices, angle differentials and root phases; each row is
    also the pairing of the point with one partner flow per action and
    sign (oracles.pairing_by_points)."""
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(eps)
    pts, stack = _chart_stack(sys, (30, 31, 32))
    pair = angle_action_pairing(sys, stack)
    assert pair.shape == ((3, 2, 2) if case == "regular" else (3, 1))
    for k, pt in enumerate(pts):
        assert np.array_equal(pair[k], angle_action_pairing(sys, pt))
        assert np.array_equal(pair[k], pairing_by_points(sys, pt))
    for fn in (frequency_matrix, angle_differential, root_phases):
        rows = fn(sys, stack)
        for k, pt in enumerate(pts):
            assert np.array_equal(rows[k], fn(sys, pt)), (fn.__name__, k)
    assert np.abs(pair - (np.eye(2) if case == "regular" else 1.0)
                  ).max() < 1e-5


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_stacked_flow_step_matches_the_stage_projected_loop(case):
    """flow_step on a stack of the chart points of seeds 30-32, each with
    steps +1e-3 and -1e-3 (one batch of six flows): every row agrees with
    the loop that projected every stage as the per-point flow does (the
    actions and a moment coordinate within 1e-8 after 4 steps), and is
    bit for bit the per-point flow_step of its point and step."""
    sys = (su3_regular_system if case == "regular"
           else su3_irregular_system)(0.1)
    P5 = moment_coordinate(sys, 4)
    pts, stack = _chart_stack(sys, (30, 31, 32))
    rows = PhasePoint.of(sys, pts + pts)
    steps = np.repeat([1e-3, -1e-3], len(pts))
    for fn in action_functions(sys):
        moved = flow_step(fn, sys, rows, steps, nsteps=4)
        assert len(moved) == 6
        for k, (pt, h) in enumerate(zip(pts + pts, steps)):
            new = moved[k]
            old = stage_projected_flow_step(fn, sys, pt, h, nsteps=4)
            for f in (*action_functions(sys), P5):
                assert abs(f.values(new) - f.values(old)) < 1e-8, \
                    (k, fn.name, f.name)
            assert np.abs(new.G - old.G).max() < 1e-8
            assert np.abs(new.X - old.X).max() < 1e-8
            alone = flow_step(fn, sys, pt, h, nsteps=4)
            assert np.array_equal(new.G, alone.G)
            assert np.array_equal(new.X, alone.X)
    with pytest.raises(ValueError, match="steps of one size"):
        flow_step(action_functions(sys)[0], sys, stack, [1e-3, 2e-3, 1e-3])


def test_a_partner_step_too_coarse_for_the_drift_guard_raises():
    """The partner flows carry the integrator's drift guard: a J3 step of
    0.05 drifts off the group by ~3e-5 before projection."""
    sys = su3_regular_system(0.1)
    pt = chart_point(sys, np.random.default_rng(1))
    J3 = action_functions(sys)[1]
    with pytest.raises(RuntimeError,
                       match=r"unitarity drift .* exceeds limit at step 0"):
        flow_step(J3, sys, pt, 0.05)
