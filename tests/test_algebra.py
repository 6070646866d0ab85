"""Lie algebra builds: structure constants, forms, adjoints, regularity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3mag import (build_su3_gellmann, build_su3_chevalley, build_su2,
                    centralizer_of, regularity, exp_map,
                    identity_element, GroupElement, Polynomial,
                    lie_poisson_bracket)
from su3mag.scalars import (Scalar, CScalar, cmat, cmat_add,
                            cmat_commutator, cmat_scale, cmat_sub)
from su3mag.algebra import LieAlgebraSpec, UNITARY_TOL
from fractions import Fraction

from oracles import (a_matrix_by_structure, ad_matrix_by_structure,
                     adjoint_group, group_inverse, lie_poisson_by_structure,
                     selection_systems, slice_bracket_by_structure)


def exact_matrix_of(alg, coords):
    """sum_i c_i E_i over the exact matrices of alg."""
    out = None
    for c, M in zip(coords, alg.matrix_rep):
        term = cmat_scale(CScalar.of(c), M)
        out = term if out is None else cmat_add(out, term)
    return out


def cmat_is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def test_gellmann_structure_constants():
    alg = build_su3_gellmann()
    alg.verify()
    # orthonormal for B = -tr/2
    for i in range(8):
        for j in range(8):
            assert alg.bform[i][j] == (Scalar(1) if i == j else Scalar(0))
    # the commutator of the pair housing (lambda1, lambda2) closes on the
    # element housing lambda3 with twice the standard constant f_123 = 1
    # (the factor 2 is the documented price of the orthonormal rescaling)
    assert alg.structure[(0, 1, 2)] == Scalar(2)
    # every nonzero constant is 2 * (+-1, +-1/2, +-sqrt3/2)
    allowed = {Scalar(2), Scalar(-2), Scalar(1), Scalar(-1),
               Scalar.sqrt3(), Scalar.sqrt3(-1)}
    assert set(alg.structure.values()) <= allowed


def test_chevalley_build():
    alg = build_su3_chevalley()
    alg.verify()
    for i in range(8):
        for j in range(8):
            assert alg.bform[i][j] == (Scalar(1) if i == j else Scalar(0))
    # the elementary root vectors E_alpha = E_rc, E_-alpha = E_cr of each
    # root pair (r, c): the torus is perpendicular to them, and
    # [E_alpha, E_-alpha] = E_rr - E_cc = -i H_alpha exactly for the
    # recorded coroot H_alpha (the torus is i times the real diagonal)
    from su3mag.algebra import _bpair_exact

    def elementary(r, c):
        return cmat([[int((i, j) == (r, c)) for j in range(3)]
                     for i in range(3)])

    coroots = alg.extras["coroots"]
    for k, (r, c) in enumerate(alg.extras["root_pairs"]):
        e_plus, e_minus = elementary(r, c), elementary(c, r)
        for t in (0, 1):
            val = _bpair_exact(alg.matrix_rep[t], e_plus)
            assert val == Scalar(0)
        comm = cmat_commutator(e_plus, e_minus)
        h = exact_matrix_of(alg, [coroots[k][0], coroots[k][1]]
                            + [Scalar(0)] * 6)
        assert cmat_is_zero(cmat_sub(comm, cmat_scale(CScalar(0, -1), h)))


def test_su2_build():
    alg = build_su2()
    alg.verify()
    assert alg.structure[(0, 1, 2)] == Scalar(2)


def test_exp_map_identities():
    alg = build_su3_chevalley()
    zero = exp_map(alg, np.zeros(8))
    assert np.allclose(zero.matrix, np.eye(3), atol=1e-14)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 8)
    g = exp_map(alg, x)
    ginv = exp_map(alg, -x)
    assert np.abs(g.matrix @ ginv.matrix - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(g.matrix) - 1) < 1e-12
    # period of the compact torus direction H1 = i diag(1,-1,0)
    h1 = np.zeros(8)
    h1[0] = 2 * np.pi
    assert np.abs(exp_map(alg, h1).matrix - np.eye(3)).max() < 1e-10


def test_group_checks_hold_at_their_absolute_tolerances():
    """GroupElement's Gram check and exp_map's anti-Hermitian check use
    their absolute tolerances alone: numpy's default rtol=1e-5 would let
    a Gram error of 2e-7 and a Hermitian part of 1e-6 through."""
    s = 1 + 1e-7
    stretch = np.diag([s, 1 / s, 1.0])
    assert abs(np.linalg.det(stretch) - 1) <= UNITARY_TOL
    with pytest.raises(ValueError, match="not unitary"):
        GroupElement(stretch)
    alg = build_su3_chevalley()
    M = alg.matrix_of([0, np.sqrt(3.0)] + [0] * 6)  # i diag(1, 1, -2)
    exp_map(alg, M)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        exp_map(alg, M + 1e-6 * np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_group_element_refuses_a_nan_or_infinite_entry(bad, entry):
    """A NaN or infinite entry fails the Gram check, on the diagonal and
    off it, with no numpy warning: a test of the form max > tol would let
    the NaN through."""
    import warnings
    M = np.eye(3, dtype=complex)
    M[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not unitary within tolerance$"):
            GroupElement(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exp_map_refuses_a_nan_or_infinite_argument(bad):
    """exp_map's anti-Hermitian check is a max-abs compare that a NaN or
    infinite entry fails: a coordinate vector, a matrix (on the diagonal
    and off it) and one matrix of a stack each get the one ValueError,
    with no numpy warning."""
    import warnings
    alg = build_su3_chevalley()
    x = np.linspace(-0.5, 0.5, 8)
    coords = x.copy()
    coords[3] = bad
    M = alg.matrix_of(x)
    on_diag, off_diag = M.copy(), M.copy()
    on_diag[1, 1] = bad
    off_diag[0, 2] = bad
    stack = np.array([M, M, off_diag])
    for arg in (coords, on_diag, off_diag, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^exp_map requires an anti-Hermitian "
                                     "argument$"):
                exp_map(alg, arg)


def _rotated_su2(mix):
    """su(2) with two of its basis elements e_j, e_k replaced by
    (3 e_j + 4 e_k)/5 and (4 e_j - 3 e_k)/5: still B-orthonormal."""
    basis = list(build_su2().matrix_rep)
    j, k = mix
    c, s = CScalar(Fraction(3, 5)), CScalar(Fraction(4, 5))
    plus = cmat_add(cmat_scale(c, basis[j]), cmat_scale(s, basis[k]))
    minus = cmat_sub(cmat_scale(s, basis[j]), cmat_scale(c, basis[k]))
    basis[j], basis[k] = plus, minus
    return LieAlgebraSpec("rotated", ("X", "Y", "Z"), ("x", "y", "z"), basis)


def test_coords_gather_refuses_a_basis_it_cannot_read():
    """coords_of_matrix reads one product per diagonal entry, which needs
    at most one nonzero entry per column of each basis matrix, purely
    real or purely imaginary.  Rotating X into Y puts two nonzeros in a
    column; rotating Y into Z (-i sigma1 and -i sigma2) makes entries
    with both parts.  Each is refused by a one-line ValueError naming the
    basis element, though both bases are B-orthonormal."""
    with pytest.raises(ValueError,
                       match=r"^basis element X of rotated has 2 nonzero "
                             r"entries in column 0$"):
        _rotated_su2((0, 1))
    with pytest.raises(ValueError,
                       match=r"^basis element Y of rotated has an entry "
                             r"with both real and imaginary parts at "
                             r"\(1, 0\)$"):
        _rotated_su2((1, 2))


def test_adjoint_group():
    alg = build_su3_gellmann()
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 8)
    e = identity_element()
    assert np.abs(adjoint_group(alg, e, x) - x).max() < 1e-14
    g = exp_map(alg, rng.uniform(-1, 1, 8))
    # exact round trip Ad(g^-1) Ad(g) X = X
    y = adjoint_group(alg, g, x)
    back = adjoint_group(alg, group_inverse(g), y)
    assert np.abs(back - x).max() < 1e-12
    # Ad(exp(tW)) W = W
    w = np.zeros(8)
    w[7] = -np.sqrt(3.0)
    gw = exp_map(alg, 0.73 * w)
    assert np.abs(adjoint_group(alg, gw, w) - w).max() < 1e-12
    # B preserved under Ad at random samples (oracle: direct trace)
    for _ in range(20):
        x = rng.uniform(-1, 1, 8)
        g = exp_map(alg, rng.uniform(-1, 1, 8))
        y = adjoint_group(alg, g, x)
        Mx = alg.matrix_of(x)
        direct = -0.5 * np.trace(Mx @ Mx).real
        assert abs(np.dot(y, y) - direct) < 1e-12
    with pytest.raises(ValueError):
        GroupElement(np.diag([2.0, 1.0, 0.5]))


def test_centralizer_regular_and_irregular():
    ch = build_su3_chevalley()
    W = [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))] + [Scalar(0)] * 6
    sub = centralizer_of(ch, W)
    assert sub.a_indices == (0, 1)
    assert regularity(ch, W).regular

    # the torus direction with vanishing alpha1 has a four-dimensional
    # centralizer (torus plus the alpha1 root plane)
    H = [Scalar(0), Scalar(1)] + [Scalar(0)] * 6
    sub4 = centralizer_of(ch, H)
    assert sub4.a_indices == (0, 1, 2, 3)
    reg = regularity(ch, H)
    assert not reg.regular and reg.vanishing_roots == ["alpha1"]

    gm = build_su3_gellmann()
    Wig = [Scalar(0)] * 7 + [Scalar.sqrt3(-1)]
    subA = centralizer_of(gm, Wig)
    assert subA.a_indices == (0, 1, 2, 7)
    r = regularity(gm, Wig)
    assert not r.regular and len(r.vanishing_roots) == 1

    s2 = build_su2()
    sub2 = centralizer_of(s2, [Scalar(1), Scalar(0), Scalar(0)])
    assert sub2.a_indices == (0,)
    with pytest.raises(ValueError):
        centralizer_of(gm, [Scalar(0)] * 8)
    # centralizers are exact only: a float W is refused
    with pytest.raises(ValueError, match="exact"):
        centralizer_of(gm, [float(c) for c in Wig])


def test_centralizer_refuses_a_kernel_not_spanned_by_basis_elements():
    # W = e1 + e4 on the Gell-Mann basis: the kernel of ad W holds W, whose
    # support is two basis elements, so the basis is not adapted to it
    W = [Scalar(1), Scalar(0), Scalar(0), Scalar(1)] + [Scalar(0)] * 4
    with pytest.raises(ValueError, match="not spanned by basis elements"):
        centralizer_of(build_su3_gellmann(), W)
    # that kernel also holds a vector of support three; on su(2) the
    # kernel of ad W is the line of W alone, so W = e1 + e2 is refused for
    # its two-element support only
    with pytest.raises(ValueError, match="not spanned by basis elements"):
        centralizer_of(build_su2(), [Scalar(1), Scalar(1), Scalar(0)])


def test_regularity_matrix_path_and_rank_nullity():
    gm = build_su3_gellmann()
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.uniform(-1, 1, 8)
        eig = np.linalg.eigvalsh(1j * gm.matrix_of(w))
        distinct = (min(abs(eig[0] - eig[1]), abs(eig[1] - eig[2]),
                        abs(eig[0] - eig[2])) > 1e-6)
        assert regularity(gm, w, tol=1e-6).regular == distinct
        ad = np.tensordot(w, gm.ad_matrices(), 1)
        s = np.linalg.svd(ad, compute_uv=False)
        rank = int((s > 1e-10 * s.max()).sum())
        nullity = 8 - rank
        assert rank + nullity == 8
        if distinct:
            assert nullity == 2


def test_serialization_round_trip():
    from oracles import parse_algebra_text
    for alg in (build_su2(), build_su3_gellmann(), build_su3_chevalley()):
        data = parse_algebra_text(alg.serialize())
        assert data.name == alg.name
        assert data.labels == alg.labels
        assert data.coord_names == alg.coord_names
        assert data.structure == alg.structure
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert data.bform[i][j] == alg.bform[i][j]
    text = build_su2().serialize()
    assert "algebra su2" in text and "C 0 1 2 2" in text
    assert "bform 0 1 0 0" in text


def test_non_orthonormal_basis_rejected():
    alg = build_su2()
    x, y, z = alg.matrix_rep
    # a scaled element: B(2x, 2x) = 4
    with pytest.raises(ValueError, match="not B-orthonormal"):
        LieAlgebraSpec("scaled", ("X", "Y", "Z"), ("x", "y", "z"),
                       [cmat_scale(CScalar(2), x), y, z])
    # a sheared pair: B(x + y, y) = 1
    sheared = tuple(tuple(p + q for p, q in zip(ra, rb))
                    for ra, rb in zip(x, y))
    with pytest.raises(ValueError, match="not B-orthonormal"):
        LieAlgebraSpec("sheared", ("X", "Y", "Z"), ("x", "y", "z"),
                       [sheared, y, z])


def test_a_split_that_does_not_partition_the_basis_is_refused():
    from su3mag.algebra import SubalgebraSpec
    alg = build_su2()
    for a, m in (((0,), (1,)), ((0,), (0, 1, 2)), ((0, 1), (1, 2))):
        with pytest.raises(ValueError, match="must partition the basis"):
            SubalgebraSpec(alg, a, m)


def test_a_split_that_is_not_reductive_is_refused():
    from su3mag.algebra import SubalgebraSpec
    # [e_x, e_z] is a multiple of e_y: with a = span{e_x, e_y} the bracket
    # [a, m] leaves m = span{e_z}
    alg = build_su2()
    assert not alg.structure[(0, 2, 1)].is_zero()
    with pytest.raises(ValueError, match="not reductive"):
        SubalgebraSpec(alg, (0, 1), (2,))
    # the split by one basis element is reductive
    assert SubalgebraSpec(alg, (2,), (0, 1)).m_indices == (0, 1)


def test_exact_coords_recover_unit_vectors():
    for alg in (build_su2(), build_su3_gellmann(), build_su3_chevalley()):
        for i, E in enumerate(alg.matrix_rep):
            coords = alg.exact_coords_of_matrix(E)
            assert coords == [Scalar(1) if j == i else Scalar(0)
                              for j in range(alg.dim)]
        # and a combination comes back coefficient for coefficient
        combo = [Scalar(k + 1, Fraction(1, k + 2)) for k in range(alg.dim)]
        assert alg.exact_coords_of_matrix(exact_matrix_of(alg, combo)) == combo


# ---------------------------------------------------------------------------
# the numeric kernel: brackets from the structure-constant tensor
# ---------------------------------------------------------------------------

ALGEBRAS = (build_su2, build_su3_gellmann, build_su3_chevalley)


def _matrix_bracket(alg, x, y):
    """The oracle: the commutator of the matrix realizations, read back
    in coordinates (the route np_bracket used to take)."""
    Mx, My = alg.matrix_of(x), alg.matrix_of(y)
    return alg.coords_of_matrix(Mx @ My - My @ Mx)


# zeros for sparse vectors, and no magnitudes whose products underflow
_COORD = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@st.composite
def _algebra_and_pair(draw):
    alg = draw(st.sampled_from(ALGEBRAS))()
    vec = st.lists(_COORD, min_size=alg.dim, max_size=alg.dim)
    return alg, np.array(draw(vec)), np.array(draw(vec))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_algebra_and_pair())
def test_np_bracket_is_the_structure_constant_contraction(case):
    alg, x, y = case
    xy = alg.np_bracket(x, y)
    assert np.array_equal(alg.np_bracket(y, x), -xy)
    assert np.all(alg.np_bracket(x, x) == 0.0)
    err = np.abs(xy - _matrix_bracket(alg, x, y)).max()
    assert err <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)


def test_np_bracket_of_unit_vectors_is_a_column_of_ad():
    for build in ALGEBRAS:
        alg = build()
        eye = np.eye(alg.dim)
        for i in range(alg.dim):
            for j in range(alg.dim):
                # [e_i, e_j] = C_ij^. = column j of ad_i
                assert np.array_equal(alg.np_bracket(eye[i], eye[j]),
                                      alg.ad_matrices()[i, :, j])


def test_np_bracket_of_stacks_is_the_bracket_row_by_row():
    """np_bracket of two stacks, or of one vector and a stack, is row by
    row the bracket of the two vectors, bit for bit: each row is its own
    vector-matrix product (one stacked matrix product would sum the terms
    of a row in another order)."""
    rng = np.random.default_rng(54)
    for build in ALGEBRAS:
        alg = build()
        x, y = rng.normal(size=(2, 40, alg.dim))
        w = rng.normal(size=alg.dim)
        xy, wy = alg.np_bracket(x, y), alg.np_bracket(w, y)
        assert xy.shape == wy.shape == (40, alg.dim)
        for k in range(40):
            assert np.array_equal(xy[k], alg.np_bracket(x[k], y[k]))
            assert np.array_equal(wy[k], alg.np_bracket(w, y[k]))
        grid = alg.np_bracket(x.reshape(5, 8, -1), y.reshape(5, 8, -1))
        assert np.array_equal(grid.reshape(40, -1), xy)


@pytest.mark.parametrize("N", [2, 3])
def test_closed_form_determinant_is_numpys(N):
    """_det, on matrices stored with the matrix axes first, agrees with
    np.linalg.det within 1e-15 of the product of the rows' 1-norms (a
    bound on the sum of the expansion's terms), for single matrices and
    a stack, and one matrix gets its row of the stack bit for bit; a NaN
    or infinite entry gives a non-finite determinant of its matrix
    alone, with warnings set to errors."""
    import warnings
    from su3mag.algebra import _axes_first, _det
    rng = np.random.default_rng(60 + N)
    real, imag = rng.normal(size=(2, 40, N, N))
    A = real + 1j * imag
    scale = np.abs(A).sum(axis=-1).prod(axis=-1)
    det = _det(_axes_first(A))
    assert det.shape == (40,)
    assert (np.abs(det - np.linalg.det(A)) <= 1e-15 * scale).all()
    for k in range(40):
        assert _det(A[k]) == det[k]
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        B = A.copy()
        B[7, N - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _det(_axes_first(B))
            assert not np.isfinite(_det(B[7]))
        assert np.isfinite(out).tolist() == [k != 7 for k in range(40)]
    with pytest.raises(ValueError, match="2 x 2 or 3 x 3"):
        _det(np.eye(4))


# ---------------------------------------------------------------------------
# the exact kernel: bracket_coords, the one exact structure-constant
# contraction, against the commutator and the per-caller loops
# ---------------------------------------------------------------------------

_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_VARS = ("a", "b")
# exponents over _VARS of degree at most 2
_EXPONENT = st.sampled_from([(i, j) for i in range(3) for j in range(3)
                             if i + j <= 2])


@st.composite
def _algebra_and_polynomial_pair(draw):
    """An algebra, two coordinate vectors of polynomials over _VARS of
    degree at most 2 (some zero) and a rational point."""
    alg = draw(st.sampled_from(ALGEBRAS))()
    poly = st.dictionaries(_EXPONENT, _RATIONAL, max_size=3).map(
        lambda terms: Polynomial(_VARS, terms))
    vec = st.lists(poly, min_size=alg.dim, max_size=alg.dim)
    return alg, draw(vec), draw(vec), draw(st.tuples(_RATIONAL, _RATIONAL))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_algebra_and_polynomial_pair())
def test_bracket_coords_of_polynomials_commutes_with_evaluation(case):
    """bracket_coords of polynomial vectors, evaluated at a rational
    point, is bracket_coords of the evaluated Scalar vectors, which is
    the exact commutator of their matrices read back in coordinates;
    every entry of the polynomial bracket is a Polynomial over the same
    variables."""
    alg, x, y, point = case
    xy = alg.bracket_coords(x, y)
    assert all(isinstance(p, Polynomial) and p.vars == _VARS for p in xy)
    at = [[p.evaluate(point) for p in vec] for vec in (x, y)]
    assert [p.evaluate(point) for p in xy] == alg.bracket_coords(*at)
    comm = cmat_commutator(*(exact_matrix_of(alg, v) for v in at))
    assert alg.bracket_coords(*at) == alg.exact_coords_of_matrix(comm)


def test_bracket_coords_returns_the_zero_of_the_entries_kind():
    for build in ALGEBRAS:
        alg = build()
        n = alg.dim
        zeros = alg.bracket_coords([0] * n, [Scalar(0)] * n)
        assert zeros == [Scalar(0)] * n
        assert all(type(c) is Scalar for c in zeros)
        unit = [int(t == 0) for t in range(n)]
        X = [Polynomial.var(_VARS, "a")] + [Polynomial.zero(_VARS)] * (n - 1)
        assert alg.bracket_coords(unit, X) == [Polynomial.zero(_VARS)] * n


SELECTIONS = ("su3/torus", "su3/irregular-A", "su2/torus")


@pytest.fixture(scope="module")
def selections():
    return dict(zip(SELECTIONS, selection_systems()))


@pytest.mark.parametrize("name", SELECTIONS)
def test_ad_w_columns_match_the_structure_loop(selections, name):
    """The columns [W, e_j] that centralizer_of reads are the matrix of
    ad_W summed over the structure constants, for the selection's W and
    for a rational W."""
    sys = selections[name]
    alg = sys.alg
    n = alg.dim
    w_rat = [Fraction(k + 1, 3) * (-1) ** k for k in range(n)]
    for w in (sys.W_exact, w_rat):
        cols = [alg.bracket_coords(w, [int(t == j) for t in range(n)])
                for j in range(n)]
        assert [[col[k] for col in cols] for k in range(n)] == \
            ad_matrix_by_structure(alg, w)


@pytest.mark.parametrize("name", SELECTIONS)
def test_lie_poisson_bracket_matches_the_structure_loop(selections, name):
    alg = selections[name].alg
    names = alg.coord_names
    xs = [Polynomial.var(names, v) for v in names]
    c2 = sum((x * x for x in xs), Polynomial.zero(names))
    polys = xs + [c2, xs[0] * xs[-1] + xs[1] * 3,
                  xs[1] * xs[2] * xs[-1] - xs[0]]
    for p in polys:
        for q in polys:
            assert lie_poisson_bracket(p, q, alg) == \
                lie_poisson_by_structure(p, q, alg)


@pytest.mark.parametrize("name", SELECTIONS)
def test_slice_bracket_matches_the_structure_loop(selections, name):
    from su3mag.phase import slice_bracket_symbolic
    sys = selections[name]
    names = sys.m_names()
    xs = [Polynomial.var(names, v) for v in names]
    thetas = xs + [xs[0] * xs[-1], sum((x * x for x in xs),
                                       Polynomial.zero(names)),
                   xs[-1] * xs[-1] * xs[0] - xs[1]]
    for t1 in thetas:
        for t2 in thetas:
            assert slice_bracket_symbolic(sys, t1, t2) == \
                slice_bracket_by_structure(sys, t1, t2)


@pytest.mark.parametrize("name", SELECTIONS)
def test_a_matrix_columns_match_the_structure_loop(selections, name):
    """The columns [e_j, X] of a_matrix_exact, on every row of a, are the
    structure-constant sums; a_matrix_exact itself takes the first three
    rows of the 4-dimensional stabilizer."""
    from su3mag.certify import a_matrix_exact
    from su3mag.invariants import shift_images
    sys = selections[name]
    alg = sys.alg
    X = shift_images(sys, sys.m_names(), eps=0)
    cols = [alg.bracket_coords([int(t == j) for t in range(alg.dim)], X)
            for j in sys.m]
    assert [[col[a] for col in cols] for a in sys.a] == \
        a_matrix_by_structure(sys, sys.a)
    if len(sys.a) == 4:
        assert a_matrix_exact(sys) == a_matrix_by_structure(sys, sys.a[:3])
