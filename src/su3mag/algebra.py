"""Lie-algebra substrate: bases, structure constants, bilinear form, adjoint
actions and regularity classification for su(2) and the two su(3) bases.

Conventions
-----------
All algebras are presented by real bases of anti-Hermitian matrices, so that
every structure constant is a real element of Q(sqrt3) and the trace
form B(X, Y) = -1/2 tr(XY) is positive definite.

* Gell-Mann basis (``build_su3_gellmann``): e_k = -i * lambda_k.  These are
  orthonormal for B and satisfy [e_i, e_j] = 2 f_ijk e_k with the standard
  totally antisymmetric f (f_123 = 1, f_458 = f_678 = sqrt3/2, ...); the
  factor 2 is the price of orthonormality.  The Hermitian matrices familiar
  from the physics literature correspond to elements here via H -> i*H, so
  coordinates pick up a global sign relative to that presentation.

* Root-adapted basis (``build_su3_chevalley``): orthonormal basis
  (H1, H2, X1, Y1, X2, Y2, X3, Y3) where H1 = i*diag(1,-1,0),
  H2 = (i/sqrt3)*diag(1,1,-2) span the torus and Xk, Yk are real and
  imaginary root directions for the positive roots (1,2), (2,3), (1,3).
  The build records root functionals, coroots and the complex root
  coordinate functionals z_k used by the torus-invariant generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalars import (ONE, ZERO, Scalar, CScalar, CZERO, cmat,
                      cmat_commutator, cmat_scale, cmat_add, is_exact)
from .exact_linalg import nullspace
from .poly import Polynomial

UNITARY_TOL = 1e-12

_MINUS_HALF = Scalar(Fraction(-1, 2))


def _bpair_exact(A, B):
    """B(A, B) = -1/2 sum_ik A_ik B_ki for exact complex matrices; must be
    real.  Zero entries of A and B are skipped."""
    acc = CZERO
    for i, row in enumerate(A):
        for a, brow in zip(row, B):
            if a.is_zero():
                continue
            b = brow[i]
            if not b.is_zero():
                acc = acc + a * b
    if not acc.im.is_zero():
        raise ValueError("trace pairing of anti-Hermitian elements must be real")
    return acc.re * _MINUS_HALF


class LieAlgebraSpec:
    """Basis labels, structure constants, bilinear form and matrix realization.

    structure is a sparse map (i, j, k) -> Scalar with antisymmetric (i, j);
    bform is the dense Gram matrix of B on the basis, which must be the
    identity: every basis here is B-orthonormal, so coordinates are plain
    B-pairings and B-gradients are plain partials.
    """

    def __init__(self, name, labels, coord_names, matrix_rep, extras=None):
        self.name = name
        self.labels = tuple(labels)
        self.coord_names = tuple(coord_names)
        self.dim = len(labels)
        self.matrix_rep = matrix_rep
        self.extras = extras or {}

        n = self.dim
        self.bform = [[_bpair_exact(matrix_rep[i], matrix_rep[j])
                       for j in range(n)] for i in range(n)]
        for i, row in enumerate(self.bform):
            for j, x in enumerate(row):
                if x != (1 if i == j else 0):
                    raise ValueError(f"basis of {name} is not B-orthonormal: "
                                     f"B({self.labels[i]}, {self.labels[j]})"
                                     f" = {x.text()}")

        # structure constants from the matrix commutators, exactly; the
        # (j, i) constants are the negated (i, j) ones.  Keys go in in
        # (i, j, k) order: float sums over the structure follow it.
        coords = {}
        for i in range(n):
            for j in range(i + 1, n):
                comm = cmat_commutator(matrix_rep[i], matrix_rep[j])
                coords[(i, j)] = self.exact_coords_of_matrix(comm)
        self.structure = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                coeffs = coords[(i, j)] if i < j else \
                    [-c for c in coords[(j, i)]]
                for k, c in enumerate(coeffs):
                    if not c.is_zero():
                        self.structure[(i, j, k)] = c

        # cached numeric views
        self._np_basis = np.array(
            [[[complex(x) for x in row] for row in M] for M in matrix_rep])
        self._np_basis_rows = self._np_basis.reshape(n, -1)
        self._np_ad = None
        self._pair_gather = self._gather_of_pairing()
        # per basis element, the index pairs (r, c), r <= c, of its nonzero
        # entries, which give its torus weight (invariants._weight_split)
        self.entry_pairs = tuple(
            tuple(sorted({(min(r, c), max(r, c)) for r, row in enumerate(E)
                          for c, x in enumerate(row) if not x.is_zero()}))
            for E in matrix_rep)

    def _gather_of_pairing(self):
        """coords_of_matrix's gather: for basis element i and column a,
        the one entry E_i[k, a] that may be nonzero, read as a float
        factor c on the real or the imaginary part of M[a, k]:
        Re(M[a, k] E_i[k, a]) = c Re M[a, k] for a real entry c, and
        -c' Im M[a, k] for an imaginary entry i c'.  Returns the
        positions (row a, column 2k or 2k + 1) in M's float view and the
        factors, each of shape (dim, N); a column of zeros gives factor
        0.  Refuses a basis element with two nonzero entries in a column
        or an entry with both parts nonzero."""
        N = len(self.matrix_rep[0])
        cols = np.zeros((self.dim, N), dtype=int)
        factors = np.zeros((self.dim, N))
        for i, E in enumerate(self.matrix_rep):
            for a in range(N):
                nonzero = [k for k in range(N) if not E[k][a].is_zero()]
                if len(nonzero) > 1:
                    raise ValueError(f"basis element {self.labels[i]} of "
                                     f"{self.name} has {len(nonzero)} "
                                     f"nonzero entries in column {a}")
                for k in nonzero:
                    e = self._np_basis[i, k, a]
                    if e.real and e.imag:
                        raise ValueError(
                            f"basis element {self.labels[i]} of {self.name}"
                            f" has an entry with both real and imaginary "
                            f"parts at ({k}, {a})")
                    cols[i, a] = 2 * k + (e.real == 0)
                    factors[i, a] = e.real or -e.imag
        return np.arange(N), cols, factors

    # -- exact views ---------------------------------------------------------

    def exact_coords_of_matrix(self, M):
        """Exact B-projection of an exact matrix onto the orthonormal basis."""
        return [_bpair_exact(M, E) for E in self.matrix_rep]

    def bracket_coords(self, x, y):
        """[x, y]^k = sum_ij C_ij^k x_i y_j: the one exact contraction of
        the structure constants, for coordinate vectors of exact scalars
        (is_exact) or of Polynomials over one variable tuple.  Zero entries
        are skipped; an entry no term reaches is the zero of their kind."""
        x, y = ([v if isinstance(v, Polynomial) else Scalar.of(v)
                 for v in vec] for vec in (x, y))
        out = [None] * self.dim
        for (i, j, k), c in self.structure.items():
            xi, yj = x[i], y[j]
            if xi.is_zero() or yj.is_zero():
                continue
            term = xi * yj * c
            out[k] = term if out[k] is None else out[k] + term
        polys = [v for v in x + y if isinstance(v, Polynomial)]
        zero = Polynomial.zero(polys[0].vars) if polys else ZERO
        return [zero if v is None else v for v in out]

    def bpair_coords(self, x, y):
        """Exact B(x, y) = sum_i x_i y_i on the orthonormal basis."""
        return sum((Scalar.of(a) * Scalar.of(b) for a, b in zip(x, y)),
                   Scalar(0))

    # -- numeric views --------------------------------------------------------

    def matrix_of(self, coords):
        """sum_i x_i E_i for one coordinate vector or a stack of them.

        One np.dot of the flattened arrays: the product np.tensordot(x,
        basis, 1) computes, without tensordot's argument handling.
        """
        x = np.asarray(coords, dtype=float)
        out = np.dot(x.reshape(-1, self.dim), self._np_basis_rows)
        return out.reshape(x.shape[:-1] + self._np_basis.shape[1:])

    def coords_of_matrix(self, M):
        """Coordinates B(M, E_i) = -1/2 tr(M E_i) on the orthonormal basis,
        for one matrix or a stack of them: a C-ordered array, one row of
        coordinates per matrix.

        Precondition, checked in the constructor: each basis matrix has
        at most one nonzero entry per column, purely real or purely
        imaginary.  So the diagonal entry a of M E_i is the one product
        M[a, k] E_i[k, a], and coordinate i is -1/2 of the sum over
        a = 0, 1, ... of their real parts, gathered from M's float view
        and added in that order from +0.0: bit for bit the trace of the
        product M E_i, zeros' signs included.  The Gram matrix is the
        identity (checked exactly in the constructor), so no solve.  A
        matrix with a NaN or infinite entry gives a row of NaNs, as the
        product would.
        """
        M = np.ascontiguousarray(M, dtype=complex)
        rows, cols, factors = self._pair_gather
        parts = M.view(float)[..., rows, cols] * factors
        out = np.zeros(parts.shape[:-1])
        for a in range(len(rows)):
            out += parts[..., a]
        out *= -0.5
        out[~np.isfinite(M).all(axis=(-2, -1))] = np.nan
        return out

    def np_bracket(self, x, y):
        """[x, y]^k = sum over i < j of (x_i y_j - x_j y_i) C_ij^k for two
        coordinate vectors, or row by row for stacks of them (broadcast):
        [y, x] = -[x, y] and [x, x] = 0 exactly.  Each row is its own
        vector-matrix product, so row k is bit for bit the bracket of the
        vectors of row k."""
        self.ad_matrices()
        I, J = self._pairs
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        pairs = x[..., I] * y[..., J] - x[..., J] * y[..., I]
        return np.matmul(pairs[..., None, :], self._pair_ad)[..., 0, :]

    def ad_matrices(self):
        """ad_i as dense float arrays: (ad_i)[k, j] = C_ij^k; the one float
        copy of the structure constants, with its i < j rows C_ij^."""
        if self._np_ad is None:
            ad = np.zeros((self.dim, self.dim, self.dim))
            for (i, j, k), c in self.structure.items():
                ad[i, k, j] = float(c)
            self._np_ad = ad
            self._pairs = np.triu_indices(self.dim, 1)
            self._pair_ad = ad[self._pairs[0], :, self._pairs[1]]
        return self._np_ad

    # -- verification -----------------------------------------------------------

    def verify(self):
        """Exact antisymmetry, Jacobi, B-invariance and closure checks."""
        n = self.dim
        for (i, j, k), c in self.structure.items():
            if self.structure.get((j, i, k), ZERO) != -c:
                raise AssertionError("structure constants are not antisymmetric")
        # Jacobi on basis triples, by nested brackets
        unit = [[ONE if t == i else ZERO for t in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [ZERO] * n
                    for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_coords(
                            self.bracket_coords(unit[a], unit[b]), unit[cc])
                        acc = [p + q for p, q in zip(acc, inner)]
                    if any(not v.is_zero() for v in acc):
                        raise AssertionError("Jacobi identity fails")
        # ad-invariance of B on basis triples
        for ei in unit:
            for ej in unit:
                for ek in unit:
                    lhs = self.bpair_coords(self.bracket_coords(ei, ej), ek)
                    rhs = self.bpair_coords(ej, self.bracket_coords(ei, ek))
                    if not (lhs + rhs).is_zero():
                        raise AssertionError("B is not ad-invariant")
        return True

    # -- serialization ------------------------------------------------------------

    def serialize(self):
        lines = [f"algebra {self.name}", f"dim {self.dim}",
                 "labels " + " ".join(self.labels),
                 "coords " + " ".join(self.coord_names)]
        for i in range(self.dim):
            row = " ".join(self.bform[i][j].text() for j in range(self.dim))
            lines.append(f"bform {i} {row}")
        for (i, j, k) in sorted(self.structure):
            if i < j:
                lines.append(f"C {i} {j} {k} {self.structure[(i, j, k)].text()}")
        return "\n".join(lines) + "\n"


@dataclass
class SubalgebraSpec:
    """A reductive split g = a (+) m given by basis index sets."""

    parent: LieAlgebraSpec
    a_indices: tuple
    m_indices: tuple

    def __post_init__(self):
        n = self.parent.dim
        if sorted(self.a_indices + self.m_indices) != list(range(n)):
            raise ValueError("a_indices and m_indices must partition the basis")
        # a and m are B-orthogonal: the basis is B-orthonormal
        # (LieAlgebraSpec) and they partition it
        # reductivity: [a, m] in m, checked on structure constants
        for (i, j, k), c in self.parent.structure.items():
            if i in self.a_indices and j in self.m_indices:
                if k in self.a_indices and not c.is_zero():
                    raise ValueError("split is not reductive: [a, m] leaves m")


class GroupElement:
    """A unitary determinant-one matrix, validated on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=complex)
        check_special_unitary(M)
        self.matrix = M


def identity_element(dim=3):
    return GroupElement(np.eye(dim, dtype=complex))


def exp_map(alg, coords):
    """Group element exp(X) via eigendecomposition of the skew-Hermitian X.

    i*X is Hermitian, so X = U diag(-i w) U* with real w; the exponential
    U diag(exp(-i w)) U* is unitary up to roundoff, and the determinant
    phase is divided out to land exactly in the special unitary group.

    X is a coordinate vector or a matrix.  A stack of matrices, shape
    (n, N, N), gives the (n, N, N) array of their exponentials, each equal
    bit for bit to the matrix of its own exp_map.  The argument is refused
    by one ValueError if the largest entry of |H - H*|, H = iX, exceeds
    1e-10 in any one of them; the compare is written so that a NaN or
    infinite entry fails it, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = alg.matrix_of(coords) if not isinstance(coords, np.ndarray) \
            or coords.ndim == 1 else coords
        H = 1j * M
        skew = np.abs(H - _adjoint(H)).max()
    if not skew <= 1e-10:
        raise ValueError("exp_map requires an anti-Hermitian argument")
    w, U = np.linalg.eigh(H)
    g = _divide_det_phase((U * np.exp(-1j * w)[..., None, :]) @ _adjoint(U))
    return g if g.ndim == 3 else GroupElement(g)


def _adjoint(M):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def _mm(A, B):
    """A B for N x N matrices stored with the two matrix axes first: A
    and B of shape (N, N, ...), the axes after the first two broadcast
    as numpy's do (a single matrix against a stack of n is (N, N, 1)).
    A sum over k of broadcast outer products, so that numpy's inner loop
    runs along the stack axes, not along an axis of length N."""
    out = A[:, 0, None] * B[None, 0]
    for k in range(1, len(A)):
        out += A[:, k, None] * B[None, k]
    return out


def _axes_first(G):
    """The view (N, N, ...) of a matrix or stack of shape (..., N, N):
    the layout of _mm and _det."""
    rest = tuple(range(G.ndim - 2))
    return G.transpose((G.ndim - 2, G.ndim - 1) + rest)


def _identity(M):
    """The identity, shaped to broadcast against M, a matrix or a stack
    with the matrix axes first."""
    return np.eye(len(M)).reshape(M.shape[:2] + (1,) * (M.ndim - 2))


def _gram_defect(M):
    """M* M - I by _mm, for a matrix or a stack with the matrix axes
    first."""
    return _mm(M.conj().swapaxes(0, 1), M) - _identity(M)


def _det(M):
    """Determinant of a 2 x 2 or 3 x 3 matrix, or of each matrix of a
    stack with the matrix axes first, in closed form (cofactors along
    the first row).  A NaN or infinite entry gives a non-finite
    determinant, with no numpy warning."""
    if len(M) not in (2, 3):
        raise ValueError(f"_det takes 2 x 2 or 3 x 3 matrices, not "
                         f"{len(M)} x {len(M)}")
    # a trailing axis keeps each entry M[i, j] an array even for one
    # matrix: numpy multiplies complex scalars with other roundings than
    # complex arrays, and one matrix must get the bits of its stack's row
    M = M[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        if len(M) == 2:
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        else:
            det = (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
                   - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
                   + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]))
    return det[..., 0]


def check_special_unitary(G, where=None):
    """Raise ValueError unless G, an N x N matrix or a stack of them, is
    unitary and of determinant one within UNITARY_TOL: the largest entry
    of |G* G - I| is at most UNITARY_TOL, so that a NaN or infinite
    entry fails with no numpy warning, and then so is |det G - 1|.  The
    stack is transposed once, to the matrix axes first, for the Gram
    product (_gram_defect) and the determinant (_det).  For a stack, the
    message ends "at <where(k)>" for the first row k that fails, and
    "at <where(k, b)>" for the first failing row b of step k of a stack
    of flows' stacks, shape (n, B, N, N)."""
    def refuse(bad, fault):
        if bad.any():
            at = "" if where is None else f" at {where(*_first(bad))}"
            raise ValueError(f"group element {fault}{at}")

    M = np.ascontiguousarray(_axes_first(G))
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.abs(_gram_defect(M)).max(axis=(0, 1))
    refuse(~(drift <= UNITARY_TOL), "is not unitary within tolerance")
    refuse(~(np.abs(_det(M) - 1.0) <= UNITARY_TOL),
           "does not have determinant one")


def _first(bad):
    """The index, a tuple, of the first True entry of a boolean array in
    C order."""
    return np.unravel_index(np.argmax(bad), bad.shape)


def _divide_det_phase(g):
    """A unitary N x N matrix divided by an N-th root of its determinant
    (_det, in closed form), landing in SU(N), or row by row for a stack
    of shape (..., N, N)."""
    det = _det(_axes_first(g))
    return g * np.exp(-np.log(det) / g.shape[-1])[..., None, None]


def polar_project(M):
    """Nearest special-unitary matrix: polar factor with det-phase removed."""
    U, _, Vh = np.linalg.svd(M)
    return _divide_det_phase(U @ Vh)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

_I = CScalar.i()
_S3INV = CScalar(Scalar.sqrt3(Fraction(1, 3)))  # 1/sqrt3 = sqrt3/3


def _gm_lambda_matrices():
    z, o = CScalar(0), CScalar(1)
    i, mi = _I, -_I
    lam = [
        cmat([[z, o, z], [o, z, z], [z, z, z]]),
        cmat([[z, mi, z], [i, z, z], [z, z, z]]),
        cmat([[o, z, z], [z, -o, z], [z, z, z]]),
        cmat([[z, z, o], [z, z, z], [o, z, z]]),
        cmat([[z, z, mi], [z, z, z], [i, z, z]]),
        cmat([[z, z, z], [z, z, o], [z, o, z]]),
        cmat([[z, z, z], [z, z, mi], [z, i, z]]),
        cmat_scale(_S3INV, cmat([[o, z, z], [z, o, z], [z, z, CScalar(-2)]])),
    ]
    return lam


@lru_cache(maxsize=1)
def build_su3_gellmann():
    """su(3) in the anti-Hermitian Gell-Mann basis e_k = -i lambda_k."""
    basis = [cmat_scale(-_I, L) for L in _gm_lambda_matrices()]
    labels = tuple(f"e{k}" for k in range(1, 9))
    coords = tuple(f"x{k}" for k in range(1, 9))
    extras = {"family": "su3", "presentation": "gellmann"}
    return LieAlgebraSpec("su3-gellmann", labels, coords, basis, extras)


# phases of the complex root coordinates z_k = phase_k (x_k + i y_k)/2;
# phase3 = i is the unique choice (up to relabeling symmetry) under which
# the torus-invariant bracket table closes in its reference form.
_Z_PHASES = (CScalar(1), CScalar(1), CScalar.i())


@lru_cache(maxsize=1)
def build_su3_chevalley():
    """su(3) in the orthonormal root-adapted basis (see module docstring)."""
    z, o = CScalar(0), CScalar(1)
    i = _I

    def E(r, c):
        rows = [[z, z, z], [z, z, z], [z, z, z]]
        rows[r][c] = o
        return cmat(rows)

    H1 = cmat([[i, z, z], [z, -i, z], [z, z, z]])
    H2 = cmat_scale(_S3INV, cmat([[i, z, z], [z, i, z], [z, z, CScalar(0, -2)]]))
    pairs = [(0, 1), (1, 2), (0, 2)]
    basis = [H1, H2]
    for (r, c) in pairs:
        X = cmat_scale(i, cmat_add(E(r, c), E(c, r)))        # i(E_rc + E_cr)
        Y = cmat_add(E(c, r), cmat_scale(CScalar(-1), E(r, c)))  # E_cr - E_rc
        basis.extend([X, Y])
    labels = ("H1", "H2", "X1", "Y1", "X2", "Y2", "X3", "Y3")
    coords = ("h1", "h2", "x1", "y1", "x2", "y2", "x3", "y3")

    # real root functionals alpha_k(h1 H1 + h2 H2) / i and coroots
    roots = ((Scalar(2), Scalar(0)),
             (Scalar(-1), Scalar.sqrt3()),
             (Scalar(1), Scalar.sqrt3()))
    coroots = ((Scalar(1), Scalar(0)),
               (Scalar(Fraction(-1, 2)), Scalar.sqrt3(Fraction(1, 2))),
               (Scalar(Fraction(1, 2)), Scalar.sqrt3(Fraction(1, 2))))

    # z_k as exact complex-linear functionals on coordinates:
    # z_k = phase_k * (x_k + i y_k) / 2
    half = CScalar(Scalar(Fraction(1, 2)))
    z_rows = []
    for k in range(3):
        row = [CScalar(0)] * 8
        row[2 + 2 * k] = _Z_PHASES[k] * half
        row[3 + 2 * k] = _Z_PHASES[k] * half * i
        z_rows.append(tuple(row))

    extras = {
        "family": "su3",
        "presentation": "chevalley",
        "torus_indices": (0, 1),
        "root_pairs": pairs,
        "roots": roots,
        "coroots": coroots,
        "z_rows": tuple(z_rows),
    }
    return LieAlgebraSpec("su3-chevalley", labels, coords, basis, extras)


@lru_cache(maxsize=1)
def build_su2():
    """su(2) with orthonormal basis (x, y, z); x spans the torus."""
    z0 = CScalar(0)
    i = _I
    bx = cmat([[-i, z0], [z0, i]])          # -i sigma3
    by = cmat([[z0, -i], [-i, z0]])         # -i sigma1
    bz = cmat([[z0, -CScalar(1)], [CScalar(1), z0]])  # -i sigma2
    extras = {"family": "su2", "torus_indices": (0,)}
    return LieAlgebraSpec("su2", ("X", "Y", "Z"), ("x", "y", "z"),
                          [bx, by, bz], extras)


# ---------------------------------------------------------------------------
# centralizers and regularity
# ---------------------------------------------------------------------------

def centralizer_of(alg, w):
    """SubalgebraSpec for a = ker(ad W), m = its B-orthogonal complement.

    W must have exact (int, Fraction or Scalar) coordinates; the kernel is
    computed exactly.  The kernel must be spanned by basis elements (true
    for every configuration used here); otherwise the basis is not adapted
    and we refuse.
    """
    if not all(map(is_exact, w)):
        raise ValueError("centralizer_of needs W with exact coordinates")
    w = [Scalar.of(c) for c in w]
    if all(c.is_zero() for c in w):
        raise ValueError("W = 0 centralizes everything")
    # column j of ad_W is [W, e_j]; row k reads entry k of each column
    cols = [alg.bracket_coords(w, [int(t == j) for t in range(alg.dim)])
            for j in range(alg.dim)]
    rows = [{j: col[k].ints for j, col in enumerate(cols)
             if not col[k].is_zero()} for k in range(alg.dim)]
    a_idx = []
    for vec in nullspace(rows, alg.dim):  # sparse: the support is its keys
        if len(vec) != 1:
            raise ValueError("centralizer is not spanned by basis elements")
        a_idx.extend(vec)
    a_idx = tuple(sorted(a_idx))
    m_idx = tuple(j for j in range(alg.dim) if j not in a_idx)
    return SubalgebraSpec(alg, a_idx, m_idx)


@dataclass
class Regularity:
    regular: bool
    vanishing_roots: list


def regularity(alg, w, tol=1e-10):
    """Classify W by its vanishing roots Phi_W.

    Uses exact root data for torus elements of the root-adapted build, and
    eigenvalue multiplicities of the matrix realization otherwise (for a
    3x3 anti-Hermitian matrix, the positive roots vanishing on W biject
    with coinciding eigenvalue pairs).
    """
    roots = alg.extras.get("roots")
    torus = alg.extras.get("torus_indices")
    exact = all(map(is_exact, w))
    if roots is not None and exact and torus is not None and \
            all(Scalar.of(w[j]).is_zero() for j in range(alg.dim) if j not in torus):
        vanishing = []
        for k, root in enumerate(roots):
            val = sum((Scalar.of(w[torus[t]]) * root[t] for t in range(len(torus))),
                      Scalar(0))
            if val.is_zero():
                vanishing.append(f"alpha{k + 1}")
        return Regularity(regular=not vanishing, vanishing_roots=vanishing)
    M = alg.matrix_of(np.asarray([float(c) for c in w], dtype=float))
    eig = np.sort(np.linalg.eigvalsh(1j * M))
    scale = max(1.0, np.abs(eig).max())
    vanishing = []
    for a in range(len(eig)):
        for b in range(a + 1, len(eig)):
            if abs(eig[a] - eig[b]) <= tol * scale:
                vanishing.append(f"pair({a},{b})")
    return Regularity(regular=not vanishing, vanishing_roots=vanishing)
