"""Root phases, torus angles, frequency matrices and canonical angles.

The phases are carried by the affine slice xi = X - eps W: its complex root
coordinates z_k = r_k exp(i theta_k) (taken in the root frame, for both
cases) advance affinely along every flow generated by a pulled-back Casimir.
Indeed along the flow of P*h one has xi(t) = Ad(exp(t (grad h(xi))_a)) xi(0)
with the a-part constant on each joint level set, so the phase speeds are
constant there; this is what makes the frequency matrix well defined.

Under the right-gauge torus action (g, X) -> (g t(sigma), Ad(t(sigma)^-1) X)
generated by the coroots, the phases shift by

    d theta = -Theta d sigma,      Theta = [[2, -1], [-1, 2], [1, 1]],

and the geometric angles phi_1 = -(theta1 + theta3)/3,
phi_2 = -(theta2 + theta3)/3 move with unit speeds, d phi_j = delta_jk
along the k-th coroot flow.

arg is not polynomial, but it has an analytic differential: z_k is linear
in xi, so d theta_k = Im(z_k(d xi) / z_k(xi)) exactly.  The angle
differential is this formula over the fiber images of the tangent basis,
and the frequency matrix Omega_ak = {phi_a, J_k}_eps brackets it with the
action differentials; no finite difference is taken.  The one
flow-difference left is deliberate: angle_action_pairing differences phi
along the integrated partner flow, an independent check that Omega is the
true frequency.

The pairing layer (root_phases, angle_differential, frequency_matrix,
flow_step and angle_action_pairing) takes a point or a stack of points
(PhasePoint), row by row: a single point is the one-row case, and row
k of a stack is bit for bit the value at point k.  The pairing
integrates the partner flows of all its points, both signs of the
step, as one batch of the RK4 driver per action.
"""

from __future__ import annotations

from functools import lru_cache
import math

import numpy as np

from .algebra import exp_map
from .phase import (PhasePoint, basis_bracket, hamiltonian_vector_field,
                    slice_z_values, _invariant_under, _rk4_flow, _z_matrix)
from .certify import action_functions, phase_jacobian

TWO_PI = 2.0 * math.pi

THETA_MATRIX = np.array([[2.0, -1.0], [-1.0, 2.0], [1.0, 1.0]])
LEFT_INVERSE = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]) / 3.0

# the pairing check's differencing step, not a tolerance
PAIRING_FLOW_STEP = 1e-3

_COROOT_MATRICES = [
    np.diag([1j, -1j, 0j]),
    np.diag([0j, 1j, -1j]),
]


class ChartUndefined(ValueError):
    """A root modulus is too small for the phase chart."""


@lru_cache(maxsize=4)
def live_roots(sys):
    """Indices of the root coordinates z_k not identically zero on the
    slice: the columns of the z matrix nonzero on the m rows, per system."""
    return tuple(np.flatnonzero(_z_matrix(sys.alg)[sys.m].any(0)).tolist())


def _live_z(sys, pt):
    """The live root coordinates z_k(xi), inside the angle chart, or row
    by row for a stack of points.  Each part of z_k reads one coordinate
    of xi, so row k of a stack is bit for bit the value at point k."""
    z = slice_z_values(sys, pt.xi)[..., list(live_roots(sys))]
    if np.min(np.abs(z)) <= 1e-6:
        raise ChartUndefined("root coordinate too small for the angle chart")
    return z


def root_phases(sys, pt):
    """Slice phases theta_k = arg z_k(xi) on the live roots, in [0, 2 pi),
    or row by row for a stack of points."""
    return np.mod(np.angle(_live_z(sys, pt)), TWO_PI)


def angle_map_matrix(sys):
    """The map phi = L theta on the live roots, with L Theta_live = -I:
    -LEFT_INVERSE for a tall Theta_live, the inverse for a square one."""
    theta_live = THETA_MATRIX[list(live_roots(sys))]
    if theta_live.shape[0] > theta_live.shape[1]:
        return -LEFT_INVERSE
    return -np.linalg.inv(theta_live)


def chart_draw(sys, rng):
    """A draw_regular_point comfortably inside the angle chart, tested
    on its X - eps W, the bits of its point's xi, before any point."""
    for _ in range(500):
        seed, X = sys.draw_regular_point(rng)
        z = slice_z_values(sys, X - sys.eps * sys.W)[list(live_roots(sys))]
        if np.min(np.abs(z)) > 5e-2:
            return seed, X
    raise RuntimeError("failed to sample a chart-safe point")


def chart_point(sys, rng):
    """A random regular point inside the angle chart (chart_draw)."""
    return sys.points_of([chart_draw(sys, rng)])[0]


def torus_action(sys, pt, sigma):
    """Right-gauge action by t(sigma) = exp(sigma1 H_a1 + sigma2 H_a2).

    (g, X) -> (g t, Ad(t^-1) X); the orientation is fixed so that the root
    phases shift by -alpha_k(sigma) and the torus angles by +sigma_j.
    """
    H = sigma[0] * _COROOT_MATRICES[0] + sigma[1] * _COROOT_MATRICES[1]
    return pt.right_act(exp_map(sys.alg, H))


def flow_step(fn, sys, pt, h, nsteps=1):
    """The point nsteps RK4 steps of h along the Hamiltonian flow of a
    left-invariant integral function, on the driver (_rk4_flow) of
    integrate_flow: its group reconstruction and drift guard.

    pt is a point, or a stack of B points with h one step or B steps of
    one size |h|, one per row; the result is then the stack of the B
    moved points.  The stack's flows run side by side as one batch of
    the driver, and a single point runs as one flow.

    The field of a left-invariant function does not depend on g, so the
    driver gets it at g = I, as a callback that its callback producer
    calls four times a step, on all rows at once (the geodesic's field,
    being linear, is stepped by a propagator instead).  Only an
    Ad-invariant MomentPullback or a SlicePullback is accepted; any other
    function raises ValueError.
    """
    if not _left_invariant(fn, sys.alg):
        raise ValueError(f"flow_step integrates left-invariant functions "
                         f"only, and {fn.name} is not one")
    h = np.broadcast_to(np.asarray(h, dtype=float), pt.X.shape[:-1])
    dt = abs(h.flat[0])
    if np.any(np.abs(h) != dt):
        raise ValueError("flow_step takes steps of one size |h|")
    sign = np.where(h >= 0, 1.0, -1.0)[..., None]  # |h| steps of -field
    eye = np.broadcast_to(np.eye(3, dtype=complex), pt.G.shape)

    def field(X):
        p = PhasePoint.prevalidated(sys, eye, X)
        v, w = hamiltonian_vector_field(fn, sys, p)
        # dX = -1/2 [v, X]_m + w: the field's coordinates on the tangent
        # basis times the fiber images of the basis
        c = np.concatenate((v[..., sys.m], w[..., sys.m]), axis=-1)
        dX = np.matmul(c[..., None, :], p.fiber_images)[..., 0, :]
        return sign * v, sign * dX

    G, X = _rk4_flow(sys, pt, nsteps * dt, dt, field)
    return PhasePoint.prevalidated(sys, G[-1], X[-1])


def _left_invariant(fn, alg):
    """Whether fn is invariant under (g, X) -> (k g, X): a slice function
    or an Ad-invariant moment pullback."""
    if fn.tag == "slice":
        return True
    return fn.tag == "moment" and _invariant_under(fn.h, alg,
                                                    tuple(range(alg.dim)))


def _nearest_branch(values, reference):
    """Shift each angle by multiples of 2 pi to land nearest the reference."""
    values = np.asarray(values, dtype=float)
    return values + TWO_PI * np.round((reference - values) / TWO_PI)


def frequency_matrix(sys, pt):
    """Omega_{ak} = {phi_a, J_k}_eps, the angle differential bracketed
    with the action Jacobian, at a point or row by row at a stack of
    points.

    Shape (2, n) for n actions, and (2,) for a single action (per row,
    for a stack).
    """
    Om = basis_bracket(sys, angle_differential(sys, pt),
                       phase_jacobian(sys, action_functions(sys), pt))
    return Om[..., 0] if Om.shape[-1] == 1 else Om


def _rescale(Om, phi):
    """S phi, S the canonical rescaling: Omega^-1 for a frequency matrix,
    Omega/|Omega|^2 for a single action's covector (shaped as phi); row
    by row for stacks, each row its own solve or dot product."""
    if Om.ndim > phi.ndim:
        if np.any(np.abs(np.linalg.det(Om)) < 1e-12):
            raise ValueError("singular frequency matrix; cannot rescale")
        return np.linalg.solve(Om, phi[..., None])[..., 0]
    norm2 = np.matmul(Om[..., None, :], Om[..., None])[..., 0]
    if np.any(norm2 < 1e-24):
        raise ValueError("vanishing frequency; cannot rescale")
    return np.matmul((Om / norm2)[..., None, :], phi[..., None])[..., 0]


def angle_action_pairing(sys, pt):
    """Matrix {phi~_i, J_j}_eps by central flow-differencing, at a point
    or row by row at a stack of B points, one matrix per row; row k is
    bit for bit the pairing at point k.

    Per action, one flow_step integrates the 2B partner flows (B = 1 for
    a single point), a short exact step +h from each point and then -h
    from each, as one batch.
    The root phases are unwrapped against the base point and combined
    into angles, and the canonical rescaling is applied with the
    frequency matrix frozen at the base point: Omega is a function of
    the actions, which every action flow keeps, so this is exact.
    Expect the n x n identity for n actions, and (1.0,) for one.
    """
    h_flow = PAIRING_FLOW_STEP
    th0 = root_phases(sys, pt)
    L = angle_map_matrix(sys)
    Om = frequency_matrix(sys, pt)
    both = PhasePoint.prevalidated(
        sys, np.stack([pt.G, pt.G]).reshape((-1,) + pt.G.shape[-2:]),
        np.stack([pt.X, pt.X]).reshape(-1, pt.X.shape[-1]))
    steps = np.repeat([h_flow, -h_flow], len(both) // 2)
    cols = []
    for J in action_functions(sys):
        th = root_phases(sys, flow_step(J, sys, both, steps, nsteps=4))
        th = th.reshape((2,) + th0.shape)  # +h rows, then -h rows
        d = _nearest_branch(th[0], th0) - _nearest_branch(th[1], th0)
        dphi = np.matmul(L, d[..., None])[..., 0]
        cols.append(_rescale(Om, dphi) / (8.0 * h_flow))
    return np.stack(cols, axis=-1) if len(cols) > 1 else cols[0]


def angle_differential(sys, pt):
    """Differential of the torus angles over the tangent basis, shape
    (n_angles, 2 dim m), at a point or row by row at a stack of points:
    d phi(d xi) = L Im(z(d xi) / z(xi)) on the live roots, one column
    per fiber image d xi, exact since the angles read xi alone."""
    dz = slice_z_values(sys, pt.fiber_images)[..., list(live_roots(sys))]
    ratio = np.imag(dz / _live_z(sys, pt)[..., None, :])
    return angle_map_matrix(sys) @ np.swapaxes(ratio, -1, -2)


def angle_angle_bracket(sys, pt):
    """{phi~_1, phi~_2}_eps with the canonical rescaling frozen at pt.

    On a joint level torus the rescaling matrix is a function of the
    actions alone, so freezing it at the base point computes the on-torus
    bracket sum_ab S_1a S_2b {phi_a, phi_b}; it needs two actions.
    """
    if len(action_functions(sys)) < 2:
        raise ValueError("two independent angles exist only in the regular case")
    S = np.linalg.inv(frequency_matrix(sys, pt))
    D = angle_differential(sys, pt)
    M = S @ basis_bracket(sys, D, D) @ S.T
    return M[0, 1]
