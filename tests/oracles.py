"""Oracles and helpers shared by the test modules (not collected).

* ``moment_of_direction``: the moment coordinate along a direction eta,
  a function the package itself never builds;
* ``moment_map``, ``slice_map``, ``adjoint_group`` and ``group_inverse``:
  the moment and slice maps, Ad(g) on coordinates and the inverse of a
  group element, each through a validated GroupElement or PhasePoint;
* ``phase_tangent_basis``: the tangent basis directions as (v, w) pairs,
  which the per-direction routes step through;
* ``per_direction_differential``: df on one tangent (v, w) from its own
  fiber and moment velocities and per-partial gradients, independent of
  the stacked tangent images and the one-pass gradient;
* ``parse_algebra_text``: the reader of ``LieAlgebraSpec.serialize``,
  for its round trip;
* ``stage_projected_flow_step``: the partner flows' own RK4 loop, which
  evaluated the full field at (g, X) and projected every stage.  Unlike
  ``angles.flow_step`` it integrates any integral function, also one
  whose field depends on g.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from su3mag.algebra import GroupElement, polar_project
from su3mag.phase import (MomentPullback, PhasePoint,
                          hamiltonian_vector_field, _fiber_velocity)
from su3mag.poly import Polynomial
from su3mag.scalars import Scalar, parse_scalar


def moment_map(sys, pt):
    """P(g, X) = Ad(g)(X - eps W), as a coordinate vector."""
    return pt.moment_coords


def slice_map(sys, pt):
    """pi_m(g, X) = X - eps W, as a coordinate vector."""
    return pt.xi


def adjoint_group(alg, g, coords):
    """Coordinates of Ad(g) X = g X g^-1; g must be a GroupElement."""
    if not isinstance(g, GroupElement):
        g = GroupElement(g)
    M = alg.matrix_of(np.asarray(coords, dtype=float))
    return alg.coords_of_matrix(g.matrix @ M @ g.matrix.conj().T)


def group_inverse(g):
    """The inverse g* of a GroupElement, validated."""
    return GroupElement(g.matrix.conj().T)


def moment_of_direction(sys, eta):
    """P_eta = B(P, eta) as a MomentPullback, for an exact or float eta."""
    names = sys.alg.coord_names
    h = Polynomial.zero(names)
    # B(P, eta) = sum_i P_i eta_i: the basis is B-orthonormal
    for i, e in enumerate(eta):
        c = e if isinstance(e, Scalar) else Scalar(Fraction(float(e)))
        if not c.is_zero():
            h = h + Polynomial.var(names, names[i], c)
    return MomentPullback(h, name="P_eta")


@dataclass
class AlgebraData:
    """Structure-constant data parsed back from the text format.

    Carries everything except the matrix realization: enough to rebuild
    Lie-Poisson brackets, adjoint matrices and kernels.
    """

    name: str
    labels: tuple
    coord_names: tuple
    bform: list
    structure: dict

    @property
    def dim(self):
        return len(self.labels)


def parse_algebra_text(text):
    """Inverse of LieAlgebraSpec.serialize (up to the matrix realization)."""
    name = None
    labels = coords = None
    bform_rows = {}
    structure = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "algebra":
            name = parts[1]
        elif parts[0] == "labels":
            labels = tuple(parts[1:])
        elif parts[0] == "coords":
            coords = tuple(parts[1:])
        elif parts[0] == "bform":
            bform_rows[int(parts[1])] = [parse_scalar(tok)
                                         for tok in parts[2:]]
        elif parts[0] == "C":
            i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
            c = parse_scalar(parts[4])
            structure[(i, j, k)] = c
            structure[(j, i, k)] = -c
    bform = [bform_rows[i] for i in sorted(bform_rows)]
    return AlgebraData(name=name, labels=labels, coord_names=coords,
                       bform=bform, structure=structure)


def phase_tangent_basis(sys):
    """The 2 dim(m) tangent directions: (e_j, 0) then (0, e_j), e_j in m."""
    dirs = []
    for j in sys.m:
        v = np.zeros(sys.alg.dim)
        v[j] = 1.0
        dirs.append((v, np.zeros(sys.alg.dim)))
    for j in sys.m:
        w = np.zeros(sys.alg.dim)
        w[j] = 1.0
        dirs.append((np.zeros(sys.alg.dim), w))
    return dirs


@lru_cache(maxsize=None)
def _partials(p):
    """The exact partial derivatives of p, one per variable."""
    return [p.diff(x) for x in p.vars]


def per_direction_differential(fn, sys, pt, v, w):
    """df at pt applied to the tangent (v, w): its fiber velocity dX, for
    a moment pullback its moment velocity dP = Ad(g)([v, xi] + dX), each
    paired with the partials of the polynomial evaluated one by one."""
    alg = sys.alg
    dX = _fiber_velocity(sys, pt, v, w)
    if fn.tag == "moment":
        g = pt.g.matrix
        Mdot = alg.matrix_of(alg.np_bracket(v, pt.xi) + dX)
        dP = alg.coords_of_matrix(g @ Mdot @ g.conj().T)
        P = pt.moment_coords
        return sum(float(gr.evaluate(P)) * dP[i]
                   for i, gr in enumerate(_partials(fn.h)) if gr.terms)
    xi_m = pt.xi[sys.m]
    return sum(float(gr.evaluate(xi_m)) * dX[sys.m[i]]
               for i, gr in enumerate(_partials(fn.theta)) if gr.terms)


def stage_projected_flow_step(fn, sys, pt, h, nsteps=1):
    """RK4 along the Hamiltonian flow of fn, every stage's group factor
    polar-projected, each stage a validated PhasePoint."""
    alg = sys.alg
    g = pt.g.matrix.copy()
    X = pt.X.copy()

    def deriv(gm, Xv):
        p = PhasePoint(sys, GroupElement(gm), Xv)
        v, w = hamiltonian_vector_field(fn, sys, p)
        return gm @ alg.matrix_of(v), _fiber_velocity(sys, p, v, w)

    for _ in range(nsteps):
        k1g, k1x = deriv(g, X)
        k2g, k2x = deriv(polar_project(g + 0.5 * h * k1g), X + 0.5 * h * k1x)
        k3g, k3x = deriv(polar_project(g + 0.5 * h * k2g), X + 0.5 * h * k2x)
        k4g, k4x = deriv(polar_project(g + h * k3g), X + h * k3x)
        g = polar_project(g + h / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g))
        X = X + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    return PhasePoint(sys, GroupElement(g), X)
