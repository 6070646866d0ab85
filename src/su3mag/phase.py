"""The twisted phase space T*(G/A) in left trivialization.

Points are pairs (g, X) with g special-unitary and X in the B-orthogonal
complement m of the stabilizer algebra.  A tangent vector is parametrized as
(v, w) with v, w in m, the fiber velocity being dX = -1/2 [v, X]_m + w, and
the magnetic symplectic form is evaluated through its left-invariant
expression

    omega_eps((v1,w1), (v2,w2)) = B(w2,v1) - B(w1,v2) - eps B(W, [v1,v2]).

The sign convention is fixed so that, with iota_{X_f} omega = df and
{f,h} = omega(X_f, X_h), the moment components close on the structure
constants, the slice bracket takes the form -B(xi, [grad1_m, grad2_m]) and
the Hamilton equations of H = 1/2 B(X,X) read gdot = gX, Xdot = -eps [W,X].
These three identities pin the orientation; they are enforced by tests.

The form is used through its Poisson tensor Pi on the tangent basis,
which is the same at every point: every Hamiltonian vector field has the
coordinates Pi df (solve_field), and every twisted bracket, numeric
Jacobian pairing and angle bracket is basis_bracket of two stacks of
differentials.  The exact bracket table comes from
slice_bracket_symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
from numbers import Rational, Real

import numpy as np

from .scalars import CZERO, Scalar
from .poly import Polynomial, lie_poisson_bracket
from .algebra import (GroupElement, build_su3_chevalley,
                      build_su3_gellmann, centralizer_of, regularity,
                      check_special_unitary, exp_map, _adjoint,
                      _axes_first, _divide_det_phase, _first,
                      _gram_defect, _identity, _mm)
from .invariants import casimirs_su3, shift_images

# Rows per block of the routes over a whole flow (the RK4 driver,
# integral_values, _check_stack): blocks keep the temporaries of a long
# flow small, and each block's stacked products run over its steps.
# 1024 holds certify's 1000-step flow in one block; past it, a 2048-row
# block barely speeds the flow and grows the temporaries.
BLOCK_ROWS = 1024
# Largest unitarity drift of an RK4 step before its projection.
DRIFT_LIMIT = 1e-8
# The W of the regular (root-adapted) and irregular (Gell-Mann) systems.
REGULAR_W = (Scalar(Fraction(1, 2)),) * 2 + (Scalar(0),) * 6
IRREGULAR_W = (Scalar(0),) * 7 + (Scalar.sqrt3(-1),)


class MagneticSystem:
    """One phase space T*(G/A): algebra, reductive split, W and eps; its
    case_tag is "regular" iff dim a is the rank (the matrix size less one,
    as _weight_split counts it), else "irregular"."""

    def __init__(self, alg, W_exact, eps):
        if isinstance(eps, bool) or not isinstance(eps, (Real, Scalar)):
            raise TypeError(f"the magnetic parameter eps must be a real "
                            f"number or a Scalar, got {eps!r}")
        self.eps = float(eps)
        # a rational eps stays exact; any other real (a float) is taken
        # exactly, by the binary expansion of its float
        self.eps_exact = (eps if isinstance(eps, Scalar) else Scalar(
            Fraction(eps if isinstance(eps, Rational) else self.eps)))
        if self.eps == 0.0:
            raise ValueError("the magnetic parameter eps must be nonzero")
        self.alg = alg
        self.W_exact = [Scalar.of(w) for w in W_exact]
        # a = ker(ad W) is spanned by basis elements (centralizer_of), so
        # W is Ad(A)-fixed exactly
        self.sub = centralizer_of(alg, self.W_exact)
        self.case_tag = ("regular" if len(self.sub.a_indices)
                         == len(alg.matrix_rep[0]) - 1 else "irregular")
        self.W = np.array([float(w) for w in self.W_exact])
        self.m = list(self.sub.m_indices)
        self.a = list(self.sub.a_indices)
        self._adW = np.tensordot(self.W, alg.ad_matrices(), 1)
        # ad(e_j) and the rows e_j for j in m: the tangent basis directions
        self._ad_m = alg.ad_matrices()[self.m]
        self._e_m = np.eye(alg.dim)[self.m]
        # the Poisson tensor Pi_ij = omega_eps(X_i, X_j) on the tangent
        # basis, X_i solved from the i-th basis covector, the same at
        # every point, in closed form: with n = dim m, Pi(j, n + j) = 1
        # and Pi(n + i, n + j) = eps B(W, [e_i, e_j]) = -eps (ad_W)[i, j].
        # A field has the coordinates Pi df (solve_field), and
        # basis_bracket sums the nonzero entries i < j, row by row.
        n = len(self.m)
        self._Pi = np.zeros((2 * n, 2 * n))
        self._Pi[:n, n:] = np.eye(n)
        self._Pi[n:, :n] = -np.eye(n)
        self._Pi[n:, n:] = -self.eps * self._adW[np.ix_(self.m, self.m)]
        self._poisson = [(i, j, self._Pi[i, j])
                         for i, j in zip(*np.nonzero(np.triu(self._Pi, 1)))]

    # -- common exact objects -------------------------------------------------

    def casimirs(self):
        """(C2, C3) of the algebra, shared by every system over it."""
        return casimirs_su3(self.alg)

    def m_names(self):
        return tuple(self.alg.coord_names[i] for i in self.m)

    # -- sampling ---------------------------------------------------------------

    def draw_point(self, rng):
        """The draw behind random_point: the exp_map seed of g, uniform in
        [-1, 1] on every coordinate, then the fiber X, uniform in [-1, 1]
        on m, as (seed, X)."""
        seed = rng.uniform(-1.0, 1.0, self.alg.dim)
        X = np.zeros(self.alg.dim)
        X[self.m] = rng.uniform(-1.0, 1.0, len(self.m))
        return seed, X

    def draw_regular_point(self, rng):
        """Draw (draw_point) until xi = X - eps W is regular and the chart
        is safe; the test reads X alone.

        Regular case: all root moduli |z_k| above 1e-3; irregular case:
        the fiber norm above 1e-3 (the rank statements hold on this locus).
        """
        for _ in range(500):
            seed, X = self.draw_point(rng)
            xi = X - self.eps * self.W
            if not regularity(self.alg, xi, tol=1e-3).regular:
                continue
            if self.case_tag == "regular":
                if np.min(np.abs(slice_z_values(self, xi))) <= 1e-3:
                    continue
            elif np.linalg.norm(X[self.m]) <= 1e-3:
                continue
            return seed, X
        raise RuntimeError("failed to sample a regular phase point")

    def points_of(self, draws):
        """The stack of points of a list of draws, row k from draw k: the
        seeds' matrices built one by one (matrix_of), one stacked exp_map,
        then PhasePoint's checks on the stack (check_special_unitary,
        _check_fiber).  Row k is bit for bit the point the draw gave when
        it was built alone."""
        seeds, X = zip(*draws)
        G = exp_map(self.alg, np.array([self.alg.matrix_of(s)
                                         for s in seeds]))
        X = np.array(X)
        check_special_unitary(G, lambda k: f"sample {k}")
        _check_fiber(self, X, lambda k: f"sample {k}")
        return PhasePoint.prevalidated(self, G, X)

    def random_point(self, rng):
        """A phase point with fiber coordinates uniform in [-1, 1]: the
        one-row stack of a draw_point."""
        return self.points_of([self.draw_point(rng)])[0]

    def random_regular_point(self, rng):
        """A regular phase point: the one-row stack of a
        draw_regular_point."""
        return self.points_of([self.draw_regular_point(rng)])[0]


@lru_cache(maxsize=3)
def _z_matrix(alg):
    """The complex (dim, 3) matrix Z of the root coordinate functionals,
    z = coords @ Z: row i holds z_k(e_i), exactly from the z_rows of the
    root-adapted basis and the exact root-adapted coordinates of e_i.  A
    ValueError refuses an algebra whose matrices are not 3x3."""
    n = len(alg.matrix_rep[0])
    if n != 3:
        raise ValueError(f"root coordinates need 3x3 matrices, "
                         f"{alg.name} has {n}x{n}")
    chev = build_su3_chevalley()
    return np.array([[complex(sum((c * x for c, x in zip(row, coords)), CZERO))
                      for row in chev.extras["z_rows"]]
                     for coords in map(chev.exact_coords_of_matrix,
                                       alg.matrix_rep)])


def slice_z_values(sys, coords):
    """Complex root coordinates z_k of a slice coordinate vector (xi =
    X - eps W, or a tangent to the slice), or row by row for a stack."""
    return np.asarray(coords, dtype=float) @ _z_matrix(sys.alg)


def su3_regular_system(eps):
    """T*(SU(3)/T) with the regular element W = (H1 + H2)/2."""
    return MagneticSystem(build_su3_chevalley(), REGULAR_W, eps)


def su3_irregular_system(eps):
    """T*(SU(3)/S(U(2)xU(1))) for the partial-flag stabilizer.

    W is the Ad(A)-fixed torus direction whose Hermitian shadow is
    diag(1,1,-2); its centralizer is span{e1,e2,e3,e8} and the slice is
    span{e4,...,e7}.  The eigenvalue pattern (c,c,-2c) is the only one an
    Ad(A)-fixed W can have once this stabilizer is fixed: a diag(2,-1,-1)
    shape would fail to commute with the su(2) block.
    """
    return MagneticSystem(build_su3_gellmann(), IRREGULAR_W, eps)


class PhasePoint:
    """(g, X) with X a full coordinate vector supported on m, or a stack
    of such points: G of shape (..., N, N) and X of shape (..., dim).

    The constructor checks g (check_special_unitary, unless g is a
    GroupElement, checked when it was built) and X (_check_fiber); a
    stack of checked arrays skips them (prevalidated).  Every routine
    that reads points takes a stack, row by row, and a single point is
    its one-row case.  Indexing a stack gives the point of a row over
    views of its arrays, and slicing gives a stack.

    The shifted fiber, the moment coordinates and the images of the
    tangent basis are memos, each computed once over the whole stack:
    row k is bit for bit the memo of the point of row k.  Every operation
    that makes a new point makes a new PhasePoint, which builds its own.
    """

    __slots__ = ("sys", "G", "X", "_xi", "_moment", "_dX", "_dP")

    def __init__(self, sys, g, X):
        G = g.matrix if isinstance(g, GroupElement) else GroupElement(g).matrix
        X = np.asarray(X, dtype=float)
        _check_fiber(sys, X)
        self.sys, self.G, self.X = sys, G, X
        self._xi = self._moment = self._dX = self._dP = None

    @classmethod
    def prevalidated(cls, sys, G, X):
        """The point or stack (G, X) from arrays whose checks have
        already passed: a sample (MagneticSystem.points_of), a flow
        (integrate_flow) or the stage points of flow_step."""
        pt = cls.__new__(cls)
        pt.sys, pt.G, pt.X = sys, G, X
        pt._xi = pt._moment = pt._dX = pt._dP = None
        return pt

    @classmethod
    def of(cls, sys, points):
        """The stack of a sequence of points, row k from points[k]."""
        return cls.prevalidated(sys, np.array([p.G for p in points]),
                                np.array([p.X for p in points]))

    def __len__(self):
        # the rows of a stack; X[..., 0] of a single point is a number,
        # which has no length
        return len(self.X[..., 0])

    def __getitem__(self, idx):
        range(len(self))[idx]  # refuses a bad row, and a single point
        return PhasePoint.prevalidated(self.sys, self.G[idx], self.X[idx])

    @property
    def xi(self):
        """Coordinates of the shifted fiber X - eps W."""
        if self._xi is None:
            self._xi = self.X - self.sys.eps * self.sys.W
        return self._xi

    @property
    def moment_coords(self):
        """Coordinates of Ad(g)(X - eps W)."""
        if self._moment is None:
            self._moment = _adjoint_coords(self.sys.alg, self.G, self.xi)
        return self._moment

    # The images of the tangent basis, one row per direction: the 2 dim(m)
    # directions (v, w) are (e_j, 0) and then (0, e_j), for j in m.  Each
    # memo is a few whole-array operations, built once per point or stack.

    @property
    def fiber_images(self):
        """dX = -1/2 [v, X]_m + w of each tangent basis direction (v, w)
        (_fiber_images)."""
        if self._dX is None:
            self._dX = _fiber_images(self.sys, self.X)
        return self._dX

    @property
    def moment_images(self):
        """dP = Ad(g)([v, xi] + dX) of each tangent basis direction
        (_moment_images)."""
        if self._dP is None:
            self._dP = _moment_images(self.sys, self.G, self.xi,
                                      self.fiber_images)
        return self._dP

    def right_act(self, a):
        """[g, X] -> [g a, Ad(a^-1) X] (the same point in a new gauge only
        when a is in A; for torus elements of A this is the right action)."""
        a = a if isinstance(a, GroupElement) else GroupElement(a)
        Xn = _adjoint_coords(self.sys.alg, a.matrix.conj().T, self.X)
        Xn[self.sys.a] = 0.0
        return PhasePoint(self.sys, self.G @ a.matrix, Xn)


def _adjoint_coords(alg, g, coords):
    """Coordinates of g M(coords) g*, for one matrix g and coordinate
    vector, or row by row for a stack of each."""
    return alg.coords_of_matrix(g @ alg.matrix_of(coords) @ _adjoint(g))


def _fiber_images(sys, X):
    """The fiber images -1/2 [e_j, X]_m stacked on the rows e_j, for one
    fiber X or row by row for a stack: one contraction of the ad tensor
    per row, projected to m."""
    rows = -0.5 * np.matmul(sys._ad_m, X[..., None, :, None])[..., 0]
    rows[..., sys.a] = 0.0
    return np.concatenate([rows, np.zeros(rows.shape) + sys._e_m], axis=-2)


def _moment_images(sys, g, xi, dX):
    """The moment images Ad(g) S of the rows S = [v, xi] + dX, for one
    point or row by row for a stack: one stacked matrix_of, g M g* and
    coords_of_matrix."""
    S = dX.copy()
    S[..., :len(sys.m), :] += np.matmul(sys._ad_m,
                                        xi[..., None, :, None])[..., 0]
    return _adjoint_coords(sys.alg, g[..., None, :, :], S)


# ---------------------------------------------------------------------------
# integral functions
# ---------------------------------------------------------------------------

class MomentPullback:
    """f = h o P for a polynomial h on the algebra coordinates."""

    tag = "moment"

    def __init__(self, h, name=None):
        self.h = h
        self.name = name or f"P*({h.text()})"

    def values(self, pt):
        """f at a point, a float, or row by row at a stack (_evaluate)."""
        return _evaluate(self.h, pt.moment_coords)


def moment_coordinate(sys, i):
    return _moment_coordinate(sys.alg, i)


@lru_cache(maxsize=32)
def _moment_coordinate(alg, i):
    names = alg.coord_names
    return MomentPullback(Polynomial.var(names, names[i]), name=f"P{i + 1}")


class SlicePullback:
    """f = theta o pi_m for a polynomial theta on the m-coordinates; a
    first integral when theta is Ad(A)-invariant."""

    tag = "slice"

    def __init__(self, theta, name=None):
        self.theta = theta  # over the m-coordinate names
        self.name = name or f"pi*({theta.text()})"

    def values(self, pt):
        """f at a point, a float, or row by row at a stack (_evaluate)."""
        return _evaluate(self.theta, pt.xi[..., pt.sys.m])


def _evaluate(poly, x):
    """poly at a point x, a float, or row by row at a stack of points:
    Polynomial.evaluate_stack of the rows, whose one-row case is
    Polynomial.evaluate (``[()]`` reads a 0-d result as its number)."""
    return poly.evaluate_stack(
        x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])[()]


def integral_values(points, functions):
    """Array whose entry [k, j] is functions[j].values(points[k]).

    ``points`` is a stack: each function's ``values`` reads the shifted
    fibers and moment coordinates of every row, computed once over the
    whole stack, and evaluates its polynomial over the rows, in blocks of
    BLOCK_ROWS rows.
    """
    out = np.empty((len(points), len(functions)))
    for lo in range(0, len(points), BLOCK_ROWS):
        block = points[lo:lo + BLOCK_ROWS]
        for j, fn in enumerate(functions):
            out[lo:lo + BLOCK_ROWS, j] = fn.values(block)
    return out


def differential(fn, sys, pt, v, w):
    """df at pt applied to the tangent (v, w), v and w supported on m:
    basis_differential against the coordinates (v[m], w[m]) of (v, w)
    on the tangent basis, since df is linear."""
    return basis_differential(fn, sys, pt) @ np.concatenate((v[sys.m],
                                                              w[sys.m]))


def basis_differential(fn, sys, pt):
    """df at pt on the 2 dim(m) tangent basis directions, at a point or
    row by row at a stack of points.

    df = images @ grad h: the point's image memos times the polynomial's
    full gradient vector (Polynomial.gradient), one matmul for a whole
    stack, whose row k is bit for bit the differential at point k.
    """
    if fn.tag == "moment":
        images, poly, x = pt.moment_images, fn.h, pt.moment_coords
    elif fn.tag == "slice":
        # fancy indexing keeps each point's images column-major, as
        # the bits of the product at one point were taken
        images = pt.fiber_images[..., sys.m]
        poly, x = fn.theta, pt.xi.take(sys.m, axis=-1)
    else:
        raise TypeError(f"untagged integral function {fn!r}")
    return np.matmul(images, poly.gradient(x)[..., None])[..., 0]


def solve_field(sys, df):
    """Solve iota_X omega_eps = df for the tangent (v, w), df given on
    the tangent basis directions (basis_differential), or row by row for
    a stack of rows df: the tangent whose coordinates on the tangent
    basis are Pi df, v on the first dim(m) and w on the last."""
    n = len(sys.m)
    coords = np.matmul(df, sys._Pi.T)
    v = np.zeros(df.shape[:-1] + (sys.alg.dim,))
    w = np.zeros(v.shape)
    v[..., sys.m] = coords[..., :n]
    w[..., sys.m] = coords[..., n:]
    return v, w


def hamiltonian_vector_field(fn, sys, pt):
    """Solve iota_{X_f} omega_eps = df for the tangent (v_f, w_f), at a
    point or row by row at a stack of points."""
    return solve_field(sys, basis_differential(fn, sys, pt))


def basis_bracket(sys, Df, Dh):
    """{f_r, h_s}_eps for the rows of two arrays of tangent-basis
    differentials, or stack by stack for two stacks of such arrays: the
    sum of Pi_ij (df_i dh_j - df_j dh_i) over the nonzero i < j of the
    point-free Poisson tensor Pi of the system (sys._poisson).  Term by
    term in a fixed order, entry [r, s] reads rows r and s alone, bit for
    bit, and a stack's bracket with itself is exactly antisymmetric;
    D Pi D^T is neither."""
    out = np.zeros(Df.shape[:-1] + Dh.shape[-2:-1])
    for i, j, p in sys._poisson:
        out += p * (Df[..., :, i, None] * Dh[..., None, :, j]
                    - Df[..., :, j, None] * Dh[..., None, :, i])
    return out


def twisted_bracket(sys, f, h, pt):
    """{f, h}_eps at pt, or point by point at a stack of points, an
    array: df and dh on the tangent basis, paired through the Poisson
    tensor of omega_eps (basis_bracket)."""
    df, dh = (basis_differential(fn, sys, pt)[..., None, :] for fn in (f, h))
    return basis_bracket(sys, df, dh)[..., 0, 0][()]


@lru_cache(maxsize=64)
def _invariant_under(h, alg, indices):
    """{h, x_j} = 0 exactly for every j in indices, h a polynomial over
    the algebra's coordinates or over some of them: h is invariant under
    the coadjoint action of the span of the e_j."""
    names = alg.coord_names
    if h.vars != names:
        h = h.extend(names)
    return all(lie_poisson_bracket(h, Polynomial.var(names, names[j]),
                                   alg).is_zero() for j in indices)


def slice_bracket_symbolic(sys, theta1, theta2):
    """{theta1, theta2}_2 as an exact polynomial over (m-vars..., "eps").

    theta1, theta2 are polynomials over the m-coordinate names of the
    system; the result keeps eps symbolic.  theta depends on m alone, so
    its B-gradient is its partials on m and zero on a.
    """
    alg = sys.alg
    m_names = sys.m_names()
    evars = m_names + ("eps",)
    zero = Polynomial.zero(m_names)
    on_m = dict(zip(sys.m, m_names))
    d1, d2 = ([t.diff(on_m[i]) if i in on_m else zero for i in range(alg.dim)]
              for t in (theta1.extend(m_names), theta2.extend(m_names)))
    comm = alg.bracket_coords(d1, d2)
    # B(xi, comm) = sum_i xi_i comm_i with xi = X - eps W over evars: the
    # basis is B-orthonormal
    out = Polynomial.zero(evars)
    for xi, c in zip(shift_images(sys, evars), comm):
        if c.is_zero() or xi.is_zero():
            continue
        out = out + xi * c.extend(evars)
    return -out


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

@dataclass
class FlowTrajectory:
    """A flow's times (a list of floats) and its points, the stack over
    the arrays of the steps that integrate_flow builds."""

    times: list
    points: PhasePoint
    dt: float

    def __post_init__(self):
        self._values = {}

    def integral_values(self, functions, stride=1):
        """integral_values(points[::stride], functions), as a read-only
        array computed once per stride and list of functions: the CSV
        rows and the conservation report of a flow read the same
        array."""
        key = (stride, *functions)
        if key not in self._values:
            V = integral_values(self.points[::stride], functions)
            V.flags.writeable = False
            self._values[key] = V
        return self._values[key]


def flow_steps(t_end, dt):
    """Number of steps of size dt that reach t_end.

    Raises ValueError unless dt and t_end are finite and positive and
    t_end/dt is a positive integer to within 1e-9 (relative): a flow
    of zero steps would certify nothing, and a rounded step count would
    end at a time other than t_end.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end)):
        raise ValueError("dt and t_end must be finite")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    ratio = t_end / dt
    nsteps = round(ratio)
    if nsteps == 0:
        raise ValueError(f"t_end/dt = {ratio:g} rounds to zero steps")
    if abs(ratio - nsteps) > 1e-9 * ratio:
        raise ValueError(f"t_end/dt = {ratio:.12g} is not a whole number "
                         f"of steps")
    return nsteps


def integrate_flow(sys, pt0, t_end, dt):
    """Classical RK4 (_rk4_flow) for gdot = g M(X), Xdot = -eps [W, X].

    The fiber field is g-free and linear, v = X and Xdot = A X with
    A = -eps ad_W, so the driver gets the matrix A: it steps X alone by
    the linear propagator (_linear_fiber) and rebuilds g from the stage
    values of X.  The X-component has the closed Lax form
    Ad(exp(-t eps W)) X0 and g the closed form of closed_form_group,
    which the tests compare against.  The trajectory's points are the
    stack over the arrays of the steps.
    """
    G, Xs = _rk4_flow(sys, pt0, t_end, dt, -sys.eps * sys._adW)
    times = (np.arange(len(G)) * dt).tolist()
    return FlowTrajectory(times=times,
                          points=PhasePoint.prevalidated(sys, G, Xs), dt=dt)


def _rk4_flow(sys, pt0, t_end, dt, field):
    """The one RK4 driver: ``flow_steps(t_end, dt)`` steps from pt0 of
    gdot = g M(v), Xdot = F(X), for a g-free fiber field, returned as
    read-only arrays G of shape (n+1, N, N) and X of shape (n+1, dim).

    With the callback producer, pt0 may also be a stack of B points,
    integrated as B flows side by side: G then has
    shape (n+1, B, N, N) and X shape (n+1, B, dim), the batch axis after
    the step axis, and ``field`` takes and returns (B, dim) rows.  Every
    step below acts row by row on the batch axis, and the guard and the
    checks name the failing row of the batch with the step.

    This is Lie-Poisson reduction and reconstruction.  A fiber producer
    steps X as RK4 on Xdot = F(X) does and, block by block of BLOCK_ROWS
    steps, fills the four stage values of v of each step: _callback_fiber
    for a callback ``field(X) -> (v, F(X))``, and _linear_fiber, on the
    same tableau, when ``field`` is the matrix A of the linear field
    v = X, F(X) = A X.  The one reconstruction rebuilds g by
    g_{n+1} = g_n Phi_n with

        A1 = M1, A2 = (I + dt/2 A1) M2, A3 = (I + dt/2 A2) M3,
        A4 = (I + dt A3) M4, Phi = I + dt/6 (A1 + 2 A2 + 2 A3 + A4),

    M_k = M(v) at the k-th stage.  A block's 3x3 stacks are stored with
    the matrix axes first, (3, 3, n[, B]): the step axis next and the
    batch axis last and contiguous, so that the stacked 3x3 products
    (_mm) loop over the block's steps, not over an axis of length 3.
    One stacked product per stage (_stage_matrices) gives the M_k, and
    stacked products build a block's Phi_n (no temporary larger than the
    block's 3x3 stack); the group is rebuilt as a product of step
    factors:

    - Psi_n = NS(Phi_n), one Newton-Schulz step (_newton_schulz), for
      the whole block at once.  For unitary g, g Psi_n = NS(g Phi_n).
    - The block's rows g_{n+1} = g_lo Psi_lo ... Psi_n come from one
      work-efficient prefix scan (_prefix_products: Brent-Kung, fewer
      than two stacked 3x3 products a step, then one with g_lo), not a
      loop of g <- g Psi_n.
    - Over the block at once: with D_n = Y_n* Y_n - I for Y_n = g_n
      Phi_n, a unitarity drift max |D_n| beyond DRIFT_LIMIT rejects the
      block's first such step, which a RuntimeError names; a NaN drift
      is rejected too.  Each row then takes one more Newton-Schulz step
      back to the unitary group, and _divide_det_phase takes it, in the
      layout of G, to SU(3).

    The fiber of the initial point is checked before the first step
    (_check_fiber), and at the end every row with PhasePoint's checks
    (_check_stack: check_special_unitary, and the fiber supported on m);
    a failure raises ValueError naming the initial point or the step.
    """
    nsteps = flow_steps(t_end, dt)
    g = pt0.G
    G = np.empty((nsteps + 1,) + g.shape, dtype=complex)
    Xs = np.empty((nsteps + 1,) + pt0.X.shape)
    G[0] = g
    Xs[0] = pt0.X
    _check_fiber(sys, Xs[:1], _flow_row)
    # the block's rows g_lo, g_lo+1, ..., the matrix axes first
    S = np.empty(g.shape[-2:] + (min(nsteps, BLOCK_ROWS) + 1,)
                 + g.shape[:-2], dtype=complex)
    S[:, :, 0] = _axes_first(g)
    eye = _identity(S)
    alg = sys.alg
    V = np.empty((4, min(nsteps, BLOCK_ROWS)) + pt0.X.shape)
    fiber = _callback_fiber if callable(field) else _linear_fiber
    for lo, n in fiber(field, Xs, V, dt):
        rows = S[:, :, 1:n + 1]
        # the factors of a step that fails the guard may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            A1 = _stage_matrices(alg, V[0, :n])
            A2 = _mm(eye + 0.5 * dt * A1, _stage_matrices(alg, V[1, :n]))
            A3 = _mm(eye + 0.5 * dt * A2, _stage_matrices(alg, V[2, :n]))
            A4 = _mm(eye + dt * A3, _stage_matrices(alg, V[3, :n]))
            Phi = eye + dt / 6.0 * (A1 + 2 * A2 + 2 * A3 + A4)
            _prefix_products(S[:, :, 0], _newton_schulz(Phi), rows)
            drift = np.abs(_gram_defect(_mm(S[:, :, :n], Phi))).max(
                axis=(0, 1))
        bad = ~(drift <= DRIFT_LIMIT)
        if bad.any():
            k, *b = idx = _first(bad)
            row = "".join(f" in batch row {r}" for r in b)
            raise RuntimeError(f"unitarity drift {drift[idx]:.2e}{row} "
                               f"exceeds limit at step {lo + k}")
        G[lo + 1:lo + n + 1] = _divide_det_phase(
            np.moveaxis(_newton_schulz(rows), (0, 1), (-2, -1)))
        S[:, :, 0] = _axes_first(G[lo + n])
    _check_stack(sys, G, Xs)
    G.flags.writeable = False
    Xs.flags.writeable = False
    return G, Xs


def _stage_matrices(alg, V):
    """alg.matrix_of of each row of V, a stack (n[, B], dim) of
    coordinates, stored with the matrix axes first, (N, N, n[, B]): one
    np.dot of the transposed flattened arrays."""
    M = np.dot(alg._np_basis_rows.T, V.reshape(-1, alg.dim).T)
    return M.reshape(alg._np_basis.shape[1:] + V.shape[:-1])


def _callback_fiber(field, Xs, V, dt):
    """Per block of BLOCK_ROWS steps, a loop of RK4 steps of four field
    calls each fills the block's rows of Xs and its stage values V of v;
    then yields (first step, steps)."""
    X = Xs[0]
    for lo in range(0, len(Xs) - 1, BLOCK_ROWS):
        n = min(BLOCK_ROWS, len(Xs) - 1 - lo)
        for k in range(n):
            V[0, k], k1 = field(X)
            V[1, k], k2 = field(X + 0.5 * dt * k1)
            V[2, k], k3 = field(X + 0.5 * dt * k2)
            V[3, k], k4 = field(X + dt * k3)
            X = X + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            Xs[lo + k + 1] = X
        yield lo, n


def _rk4_increments(A, dt):
    """RK4's stage maps I + E_j (j = 1, 2, 3) and step map I + E on
    Xdot = A X, as (E1, E2, E3, E): kept apart from I, an increment
    keeps the low bits that rounding I + E would drop."""
    E1 = 0.5 * dt * A
    E2 = 0.5 * dt * (A + A @ E1)
    E3 = dt * (A + A @ E2)
    E = dt / 6.0 * (6.0 * A + 2.0 * (A @ E1) + 2.0 * (A @ E2) + A @ E3)
    return E1, E2, E3, E


def _linear_fiber(A, Xs, V, dt):
    """The rows X_{k+1} = X_k + X_k E^T of RK4 on Xdot = A X, by doubling
    in place: with R^m = I + E_m, rows [m, 2m) are rows [0, m) plus rows
    [0, m) E_m^T, and E_2m = 2 E_m + E_m E_m.  Then per block of
    BLOCK_ROWS steps, the stage values V_0 = X_k, V_j = X_k + X_k E_j^T;
    yields (first step, steps)."""
    E1, E2, E3, E = _rk4_increments(A, dt)
    m = 1
    while m < len(Xs):
        rows = min(m, len(Xs) - m)
        np.matmul(Xs[:rows], E.T, out=Xs[m:m + rows])
        Xs[m:m + rows] += Xs[:rows]
        E = 2.0 * E + E @ E
        m *= 2
    for lo in range(0, len(Xs) - 1, BLOCK_ROWS):
        n = min(BLOCK_ROWS, len(Xs) - 1 - lo)
        X = V[0, :n] = Xs[lo:lo + n]
        for j, Ej in enumerate((E1, E2, E3), 1):
            np.matmul(X, Ej.T, out=V[j, :n])
            V[j, :n] += X
        yield lo, n


def _prefix_products(g, Psi, out):
    """out[:, :, k] = g Psi_0 ... Psi_k for a stack Psi of n factors
    stored with the matrix axes first, (N, N, n), and g (N, N) (or row
    by row of a batch: g (N, N, B), Psi (N, N, n, B)), by a work-efficient
    scan (Brent and Kung 1982; Blelloch 1990) in place along the step
    axis.  The up-sweep, for s = 1, 2, 4, ... with 2s <= n, takes step
    k - s in front of each step k = 2s-1 mod 2s, so that step 2^j - 1
    holds its whole prefix; the down-sweep, for s back down to 1, takes
    the prefix at step k - s in front of each step k = 3s-1 mod 2s.  The
    earlier factor is always on the left.  Each level is one stacked
    product (_mm) over strided steps: fewer than 2n products in at most
    2 floor(log2 n) levels (one fewer when n < 3/2 2^floor(log2 n), as
    for n a power of two), then one product of all n steps with g."""
    out[...] = Psi
    n = out.shape[2]
    s = 1
    while 2 * s <= n:
        out[:, :, 2 * s - 1::2 * s] = _mm(out[:, :, s - 1:n - s:2 * s],
                                          out[:, :, 2 * s - 1::2 * s])
        s *= 2
    while s > 1:
        s //= 2
        if 3 * s <= n:
            out[:, :, 3 * s - 1::2 * s] = _mm(
                out[:, :, 2 * s - 1:n - s:2 * s], out[:, :, 3 * s - 1::2 * s])
    out[...] = _mm(g[:, :, None], out)


def _newton_schulz(M):
    """One Newton-Schulz step M (I - 1/2 (M* M - I)) towards the unitary
    group (Higham, Functions of Matrices, ch. 8), for a matrix or row by
    row for a stack with the matrix axes first, (N, N, ...): at a drift
    |M* M - I| of d it lands within O(d^2)."""
    return _mm(M, _identity(M) - 0.5 * _gram_defect(M))


def _flow_row(row, *batch_row):
    """Where row ``row`` of a flow's stack is, for its checks, and in
    which row of a batch of flows."""
    at = "the initial point" if row == 0 else f"step {row - 1}"
    return at + "".join(f" of batch row {b}" for b in batch_row)


def _check_stack(sys, G, X):
    """PhasePoint's checks on every row of a flow, or of a batch of
    flows, in blocks of BLOCK_ROWS rows; a failure names its row
    (_flow_row)."""
    for lo in range(0, len(G), BLOCK_ROWS):
        check_special_unitary(G[lo:lo + BLOCK_ROWS],
                              lambda k, *b: _flow_row(lo + k, *b))
        _check_fiber(sys, X[lo:lo + BLOCK_ROWS],
                     lambda k, *b: _flow_row(lo + k, *b))


def _check_fiber(sys, X, where=None):
    """PhasePoint's check of the fiber, supported on m (a NaN is not), on
    one fiber or every row of a stack (or of a stack of batches); with
    ``where``, a failure names where(k) of its row k (where(k, b) of its
    batch row b)."""
    bad = ~(np.abs(X[..., sys.a]) <= 1e-14).all(axis=-1)
    if bad.any():
        at = "" if where is None else f" at {where(*_first(bad))}"
        raise ValueError(f"fiber coordinate must be supported on m{at}")


def closed_form_fiber(sys, pt0, t):
    """Lax solution X(t) = Ad(exp(-t eps W)) X(0) in coordinates, for a
    time t or one row per time of an array.  One eigh, i M(W) = U diag(w)
    U*, gives X(t) = U P U*, P being N0 = U* M(X0) U with entry (a, b)
    turned by exp(i t eps (w_a - w_b)); coordinate i is Re sum_ab P_ab
    K[(a, b), i], K[(a, b), i] = -1/2 tr(U E_ab U* E_i).  A time holds
    N^2 numbers, as many as its output row, so no blocks; row k of a
    stack is bit for bit the value at time k alone."""
    t = np.asarray(t, dtype=float)
    w, U = np.linalg.eigh(1j * sys.alg.matrix_of(sys.W))
    N0 = (_adjoint(U) @ sys.alg.matrix_of(pt0.X) @ U).reshape(-1)
    K = -0.5 * (_adjoint(U) @ sys.alg.matrix_of(np.eye(sys.alg.dim)) @ U).T
    theta = (t.reshape(-1, 1) * sys.eps) * (w[:, None] - w).reshape(-1)
    X = ((N0 * np.exp(1j * theta)) @ K.reshape(-1, sys.alg.dim)).real
    return X.reshape(t.shape + X.shape[1:])


def closed_form_group(sys, pt0, t):
    """g(t) = g0 exp(t (X0 - eps W)) exp(t eps W), the magnetic geodesic."""
    a = exp_map(sys.alg, t * pt0.xi)
    b = exp_map(sys.alg, t * sys.eps * sys.W)
    return pt0.G @ a.matrix @ b.matrix


def conservation_report(sys, traj, functions, stride=1):
    """Per-function max |f(pt_t) - f(pt_0)| over every stride-th point of
    the trajectory, as Python floats; a NaN value at any of those points
    makes the drift NaN."""
    V = traj.integral_values(functions, stride)
    drift = np.abs(V - V[0]).max(axis=0)
    return [{"function": fn.name, "initial": first, "max_drift": d}
            for fn, first, d in zip(functions, V[0].tolist(),
                                    drift.tolist())]
