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
  whose field depends on g;
* ``rref_by_scalars``, ``greedy_complete_by_rank`` and
  ``monomials_by_recursion``: the exact elimination on Scalar entries with
  the first available row as pivot, the generator-basis completion by one
  rank test per candidate, and the recursive monomial enumeration, which
  ``exact_linalg.rref``, ``invariants._greedy_complete`` and
  ``invariants.monomials_of_degree`` must reproduce;
* ``operator_rows_by_scalars``: the rows of the stacked coadjoint
  derivations on a bucket of monomials, one Scalar product per operator
  term and a Scalar sum per (target, source) pair, which the int rows of
  ``invariants._operator_rows`` must reproduce;
* ``solve_in_span_dense``: span membership on dense vectors, checked by
  recombining every entry, which the sparse
  ``exact_linalg.solve_in_span`` must reproduce.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from su3mag.algebra import GroupElement, polar_project
from su3mag.phase import (MomentPullback, PhasePoint,
                          hamiltonian_vector_field, _fiber_velocity)
from su3mag.poly import Polynomial
from su3mag.exact_linalg import transposed
from su3mag.scalars import ZERO, Scalar, from_ints, parse_scalar


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


def rref_by_scalars(rows, ncols):
    """(pivots, reduced rows) by Gauss-Jordan elimination on Scalar
    entries, columns in ascending order, the first row holding a column
    as its pivot."""
    work = [dict(r) for r in rows if r]
    reduced = []
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for idx, row in enumerate(work):
            if col in row:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = row[col].inv()
        row = {c: v * inv for c, v in row.items()}
        for other in chain(work, reduced):
            if col in other:
                factor = other[col]
                for c, v in row.items():
                    acc = other.get(c)
                    nv = -factor * v if acc is None else acc - factor * v
                    if nv.is_zero():
                        other.pop(c, None)
                    else:
                        other[c] = nv
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if r]
        if not work:
            break
    return pivots, reduced


def greedy_complete_by_rank(span_rows, candidates, ncols):
    """Indices of candidates that raise the rank of the span rows and the
    candidates picked before them, one elimination per candidate."""
    rows = list(span_rows)
    picked = []
    current_rank = len(rref_by_scalars(rows, ncols)[0]) if rows else 0
    for idx, cand in enumerate(candidates):
        trial = rows + [cand]
        r = len(rref_by_scalars(trial, ncols)[0])
        if r > current_rank:
            rows = trial
            current_rank = r
            picked.append(idx)
    return picked


def monomials_by_recursion(nvars, degree):
    """Exponent tuples of total degree, the first variable's power
    falling first."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_by_recursion(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def _apply_operator(terms, expo):
    """L_j applied to a monomial: list of (new exponent tuple, Scalar)."""
    out = []
    for (kpos, ipos, c) in terms:
        e = expo[ipos]
        if e == 0:
            continue
        new = list(expo)
        new[ipos] -= 1
        new[kpos] += 1
        out.append((tuple(new), c * e))
    return out


def operator_rows_by_scalars(ops, bucket):
    """Sparse rows {source index: Scalar} of the stacked operators on a
    bucket, one per operator and target in the order first reached;
    ops maps each operator to its terms (k_pos, i_pos, coeff ints)."""
    index = {e: i for i, e in enumerate(bucket)}
    rows = []
    for terms in ops.values():
        terms = [(k, i, from_ints(c)) for k, i, c in terms]
        per_source = {}
        for src, expo in enumerate(bucket):
            for new, coeff in _apply_operator(terms, expo):
                tgt = index[new]
                per_source.setdefault(tgt, {})
                acc = per_source[tgt].get(src)
                val = coeff if acc is None else acc + coeff
                if val.is_zero():
                    per_source[tgt].pop(src, None)
                else:
                    per_source[tgt][src] = val
        rows.extend(r for r in per_source.values() if r)
    return rows


def solve_in_span_dense(target, vectors, ncols):
    """Coefficients expressing the dense Scalar list target in the span of
    the dense vectors, or None: the augmented system solved by
    ``rref_by_scalars``, then every entry recombined and compared."""
    columns = [{j: x for j, x in enumerate(vec) if x}
               for vec in [*vectors, target]]
    pivots, reduced = rref_by_scalars(transposed(columns, ncols),
                                      len(vectors) + 1)
    if len(vectors) in pivots:
        return None  # inconsistent: target has a component outside the span
    coeffs = [ZERO] * len(vectors)
    for pcol, row in zip(pivots, reduced):
        coeffs[pcol] = row.get(len(vectors), ZERO)
    for j in range(ncols):
        acc = ZERO
        for c, vec in zip(coeffs, vectors):
            acc = acc + c * vec[j]
        if acc != target[j]:
            return None
    return coeffs
