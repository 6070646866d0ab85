"""Lie algebra builds: structure constants, forms, adjoints, regularity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3mag import (build_su3_gellmann, build_su3_chevalley, build_su2,
                    centralizer_of, regularity, exp_map,
                    identity_element, GroupElement)
from su3mag.scalars import (Scalar, CScalar, cmat_add, cmat_commutator,
                            cmat_scale, cmat_sub)
from su3mag.algebra import LieAlgebraSpec, UNITARY_TOL
from fractions import Fraction

from oracles import adjoint_group, group_inverse


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
    # B(E_alpha, E_-alpha) = 1 exactly; torus perpendicular to root vectors
    from su3mag.algebra import _bpair_exact
    for k, (e_plus, e_minus) in enumerate(alg.extras["root_vectors"]):
        pair = _bpair_exact(e_plus, e_minus)
        assert pair == Scalar(1)
        for t in (0, 1):
            val = _bpair_exact(alg.matrix_rep[t], e_plus)
            assert val == Scalar(0)
    # [E_alpha, E_-alpha] = 2i H_alpha exactly (the compact-form pairing
    # makes a real coroot impossible with B(E,E)=1; the 2i is documented)
    coroots = alg.extras["coroots"]
    for k, (e_plus, e_minus) in enumerate(alg.extras["root_vectors"]):
        comm = cmat_commutator(e_plus, e_minus)
        h = exact_matrix_of(alg, [coroots[k][0], coroots[k][1]]
                            + [Scalar(0)] * 6)
        assert cmat_is_zero(cmat_sub(comm, cmat_scale(CScalar(0, 2), h)))


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
        assert abs(alg.np_bpair(y, y) - direct) < 1e-12
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


def test_exact_coords_recover_unit_vectors():
    for alg in (build_su2(), build_su3_gellmann(), build_su3_chevalley()):
        for i, E in enumerate(alg.matrix_rep):
            coords = alg.exact_coords_of_matrix(E)
            assert coords == [Scalar(1) if j == i else Scalar(0)
                              for j in range(alg.dim)]
        # and a combination comes back coefficient for coefficient
        combo = [Scalar(k + 1, 0, Fraction(1, k + 2)) for k in range(alg.dim)]
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
