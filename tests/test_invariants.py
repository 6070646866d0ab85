"""Commutant computations, Casimirs, restriction and rank counting."""

from fractions import Fraction
import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3mag import (build_su3_gellmann, build_su3_chevalley, build_su2,
                    centralizer_of, Polynomial, lie_poisson_bracket, reports)
from su3mag import invariants
from su3mag.algebra import SubalgebraSpec
from su3mag.scalars import Scalar, cmat, cmat_mul, cmat_scale, from_ints
from su3mag.invariants import (invariant_space, indecomposable_generators,
                               casimirs_su3, restrict_shift, shift_images,
                               independence_rank, casimir_count,
                               numeric_rank,
                               torus_generators, radial_generator,
                               monomials_of_degree)
from su3mag.phase import su3_regular_system, su3_irregular_system
from su3mag.exact_linalg import (Echelon, nullspace, rref, rref_ints,
                                 solve_in_span)
from su3mag.invariants import (CallMemo, _generator_products, _greedy_complete,
                               _monomials_in_generators, _operator_terms,
                               _product_echelon)

from oracles import (generator_products_by_chain, greedy_complete_by_rank,
                     invariant_space_by_operator_rows, monomial_buckets,
                     monomials_by_recursion, operator_moves, operator_rows,
                     operator_rows_by_scalars, reduced_operators,
                     rref_by_scalars, solve_in_span_dense, transposed)


def dense_nullity_oracle(alg, sub, degree, restrict_to_m=True):
    """Brute-force float nullspace of the stacked coadjoint derivations on
    the monomial basis; independent of the exact blocked solver."""
    var_idx = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    pos = {v: p for p, v in enumerate(var_idx)}
    monos = monomials_of_degree(len(var_idx), degree)
    index = {m: i for i, m in enumerate(monos)}
    blocks = []
    for j in sub.a_indices:
        M = np.zeros((len(monos), len(monos)))
        for (jj, k, i), c in alg.structure.items():
            if jj != j or k not in pos or i not in pos:
                continue
            for src, expo in enumerate(monos):
                e = expo[pos[i]]
                if e == 0:
                    continue
                new = list(expo)
                new[pos[i]] -= 1
                new[pos[k]] += 1
                M[index[tuple(new)], src] += float(c) * e
        blocks.append(M)
    stack = np.vstack(blocks)
    s = np.linalg.svd(stack, compute_uv=False)
    if s.max() == 0.0:
        return len(monos)
    return len(monos) - int((s > 1e-10 * s.max()).sum())


def test_su2_torus_invariants():
    alg = build_su2()
    sub = centralizer_of(alg, [Scalar(1), Scalar(0), Scalar(0)])
    basis = invariant_space(alg, sub, 2)
    assert len(basis) == 1
    y2z2 = Polynomial.var(("y", "z"), "y") ** 2 + Polynomial.var(("y", "z"), "z") ** 2
    assert (basis[0] - y2z2).is_zero()
    assert dense_nullity_oracle(alg, sub, 2) == 1


def test_su3_torus_invariant_dimensions():
    sys = su3_regular_system(0.1)
    dims = {d: len(invariant_space(sys.alg, sys.sub, d)) for d in (1, 2, 3)}
    assert dims == {1: 0, 2: 3, 3: 2}
    for d in (2, 3):
        assert dense_nullity_oracle(sys.alg, sys.sub, d) == dims[d]
    # exact annihilation by every operator
    for p in invariant_space(sys.alg, sys.sub, 3):
        full = p.extend(sys.alg.coord_names)
        for j in sys.sub.a_indices:
            lj = Polynomial.zero(sys.alg.coord_names)
            names = sys.alg.coord_names
            for (jj, k, i), c in sys.alg.structure.items():
                if jj == j:
                    lj = lj + Polynomial.var(names, names[k], c) * full.diff(names[i])
            assert lj.is_zero()


def test_su3_irregular_invariant_dimensions():
    sys = su3_irregular_system(0.1)
    dims = [len(invariant_space(sys.alg, sys.sub, d)) for d in (2, 3, 4)]
    assert dims == [1, 0, 1]
    assert dense_nullity_oracle(sys.alg, sys.sub, 2) == 1
    assert dense_nullity_oracle(sys.alg, sys.sub, 4) == 1
    gens = indecomposable_generators(sys.alg, sys.sub, 4)
    assert gens.dims == {1: 0, 2: 1, 3: 0, 4: 1}
    assert len(gens.generators) == 1
    name, poly, deg = gens.generators[0]
    assert deg == 2 and (poly - radial_generator(sys)).is_zero()
    assert gens.relations == []


def test_generators_and_relation_regular():
    sys = su3_regular_system(0.1)
    gens = indecomposable_generators(sys.alg, sys.sub, 6)
    degrees = sorted(d for _, _, d in gens.generators)
    assert degrees == [2, 2, 2, 3, 3]
    assert [gens.dims[d] for d in (1, 2, 3)] == [0, 3, 2]
    assert len(gens.relations) == 1
    rel = gens.relations[0]
    # the relation is proportional to q2_1 q2_2 q2_3 - q3_1^2 - q3_2^2 in
    # whatever generator basis was picked; check by substituting generators
    images = [p.extend(sys.alg.coord_names) if False else p
              for _, p, _ in gens.generators]
    m_names = images[0].vars
    val = rel.substitute(m_names, images)
    assert val.is_zero()
    # determinism: rerun yields identical polynomials
    again = indecomposable_generators(sys.alg, sys.sub, 6)
    assert [(n, d) for n, _, d in again.generators] == \
        [(n, d) for n, _, d in gens.generators]
    assert all((p - q).is_zero() for (_, p, _), (_, q, _)
               in zip(gens.generators, again.generators))
    assert again.serialize() == gens.serialize()


def test_full_variable_commutant_and_mu_centrality():
    sys = su3_regular_system(0.1)
    alg = sys.alg
    gens = indecomposable_generators(alg, sys.sub, 3, restrict_to_m=False)
    degrees = sorted(d for _, _, d in gens.generators)
    assert degrees == [1, 1, 2, 2, 2, 3, 3]
    names = alg.coord_names
    # mu-centrality: the torus coordinates Poisson-commute with every
    # computed invariant generator, exactly
    for hvar in ("h1", "h2"):
        mu = Polynomial.var(names, hvar)
        for _, p, _ in gens.generators:
            assert lie_poisson_bracket(mu, p, alg).is_zero()
    # trdeg of the full torus commutant at a random point is dim g - r = 6,
    # and together with the two Casimirs the counts close: 6 + 2 = dim g
    rng = np.random.default_rng(5)
    polys = [p for _, p, _ in gens.generators]
    point = rng.uniform(-1, 1, 8)
    assert independence_rank(polys, point) == 6
    c2, c3 = casimirs_su3(alg)
    assert independence_rank([c2, c3], point) == 2
    assert independence_rank(polys, point) + \
        independence_rank([c2, c3], point) == alg.dim


def test_casimirs():
    for alg in (build_su3_gellmann(), build_su3_chevalley()):
        c2, c3 = casimirs_su3(alg)
        names = alg.coord_names
        for v in names:
            assert lie_poisson_bracket(c2, Polynomial.var(names, v), alg).is_zero()
            assert lie_poisson_bracket(c3, Polynomial.var(names, v), alg).is_zero()
    # positive definiteness of C2 in Gell-Mann coordinates
    gm = build_su3_gellmann()
    c2, c3 = casimirs_su3(gm)
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.uniform(-1, 1, 8)
        if np.linalg.norm(x) > 1e-6:
            assert float(c2.evaluate(x)) > 0
    # evaluation against the trace formulas (oracle: matrix traces)
    for _ in range(10):
        x = rng.uniform(-1, 1, 8)
        M = gm.matrix_of(x)
        assert abs(float(c2.evaluate(x)) + 0.5 * np.trace(M @ M).real) < 1e-12
        assert abs(float(c2.evaluate(x)) - float(x @ x)) < 1e-12
        assert abs(float(c3.evaluate(x)) - (-1j * np.trace(M @ M @ M)).real) \
            < 1e-12


def _c3_by_polynomial_matmul(alg):
    """-i tr(Y^3) by a polynomial 3x3 matrix product over the entries of
    Y = sum x_i b_i, as (re, im) pairs: the route casimirs_su3 replaced."""
    names = alg.coord_names
    size = len(alg.matrix_rep[0])

    def zeros():
        return [[Polynomial.zero(names) for _ in range(size)]
                for _ in range(size)]

    ent_re, ent_im = zeros(), zeros()
    for i, M in enumerate(alg.matrix_rep):
        xi = Polynomial.var(names, names[i])
        for r in range(size):
            for c in range(size):
                if not M[r][c].re.is_zero():
                    ent_re[r][c] = ent_re[r][c] + xi * M[r][c].re
                if not M[r][c].im.is_zero():
                    ent_im[r][c] = ent_im[r][c] + xi * M[r][c].im

    def matmul(Are, Aim, Bre, Bim):
        Cre, Cim = zeros(), zeros()
        for r in range(size):
            for c in range(size):
                for k in range(size):
                    Cre[r][c] = (Cre[r][c] + Are[r][k] * Bre[k][c]
                                 - Aim[r][k] * Bim[k][c])
                    Cim[r][c] = (Cim[r][c] + Are[r][k] * Bim[k][c]
                                 + Aim[r][k] * Bre[k][c])
        return Cre, Cim

    sq_re, sq_im = matmul(ent_re, ent_im, ent_re, ent_im)
    cu_re, cu_im = matmul(sq_re, sq_im, ent_re, ent_im)
    tr_re = sum((cu_re[r][r] for r in range(size)), Polynomial.zero(names))
    tr_im = sum((cu_im[r][r] for r in range(size)), Polynomial.zero(names))
    assert tr_re.is_zero()
    return tr_im


@pytest.mark.parametrize("build", [build_su3_gellmann, build_su3_chevalley],
                         ids=lambda b: b.__name__)
def test_c3_matches_the_polynomial_matmul(build):
    """C3 from the exact basis products is the polynomial of the old
    route, exactly; C2 keeps its term order."""
    alg = build()
    c2, c3 = casimirs_su3(alg)
    assert c3 == _c3_by_polynomial_matmul(alg)
    assert list(c2.terms) == [tuple(2 if k == i else 0
                                    for k in range(alg.dim))
                              for i in range(alg.dim)]


def test_restriction_identities():
    sysI = su3_irregular_system(0.1)
    c2, c3 = sysI.casimirs()
    r2 = restrict_shift(c2, sysI)
    m_names = sysI.m_names()
    evars = m_names + ("eps",)
    expect = sum((Polynomial.var(evars, v) ** 2 for v in m_names),
                 Polynomial.var(evars, "eps") ** 2 * 3)
    assert (r2 - expect).is_zero()
    r3 = restrict_shift(c3, sysI)
    expect3 = -3 * Polynomial.var(evars, "eps") * expect \
        + 3 * Polynomial.var(evars, "eps") ** 3
    assert (r3 - expect3).is_zero()
    # bound numeric eps agrees with the symbolic restriction
    r2n = restrict_shift(c2, sysI, symbolic_eps=False)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 4)
    sym = float(r2.evaluate(list(x) + [sysI.eps]))
    assert abs(float(r2n.evaluate(x)) - sym) < 1e-14

    sysR = su3_regular_system(0.1)
    c2r, _ = sysR.casimirs()
    r2r = restrict_shift(c2r, sysR)
    u, v, w = torus_generators(sysR.alg)
    evars_r = sysR.m_names() + ("eps",)
    # Res_W C2 = 4 (u1 + u2 + u3) + eps^2 / 2 in the table normalization
    expect_r = 4 * (u[0] + u[1] + u[2]).extend(evars_r) \
        + Polynomial.var(evars_r, "eps") ** 2 * Scalar(Fraction(1, 2))
    assert (r2r - expect_r).is_zero()


@pytest.mark.parametrize("build", [su3_regular_system, su3_irregular_system],
                         ids=["regular", "irregular"])
@pytest.mark.parametrize("eps", [0.1, Fraction(1, 4)], ids=["0.1", "1_4"])
def test_symbolic_restriction_at_exact_eps_is_the_bound_one(build, eps):
    """Res_W C with eps symbolic, eps then substituted exactly, is the
    restriction with eps bound, for C2 and C3."""
    sys = build(eps)
    m_names = sys.m_names()
    at_eps = [Polynomial.var(m_names, n) for n in m_names] + \
        [Polynomial.const(m_names, sys.eps_exact)]
    for C in sys.casimirs():
        symbolic = restrict_shift(C, sys).substitute(m_names, at_eps)
        assert symbolic == restrict_shift(C, sys, symbolic_eps=False)
    # eps = 0 projects onto m: variables on m, zero on a
    images = shift_images(sys, m_names, eps=0)
    assert all(images[i].is_zero() for i in sys.a)
    assert [images[i] for i in sys.m] == at_eps[:-1]


def test_independence_rank_examples():
    sysI = su3_irregular_system(0.1)
    c2, c3 = sysI.casimirs()
    res = [restrict_shift(c2, sysI, symbolic_eps=False),
           restrict_shift(c3, sysI, symbolic_eps=False)]
    rng = np.random.default_rng(8)
    pt = sysI.random_regular_point(rng)
    assert independence_rank(res, pt.xi[sysI.m]) == 1

    sysR = su3_regular_system(0.1)
    c2r, c3r = sysR.casimirs()
    resR = [restrict_shift(c2r, sysR, symbolic_eps=False),
            restrict_shift(c3r, sysR, symbolic_eps=False)]
    ptR = sysR.random_regular_point(rng)
    assert independence_rank(resR, ptR.xi[sysR.m]) == 2


def test_casimir_count():
    rng = np.random.default_rng(9)
    assert casimir_count(build_su3_gellmann(), rng.uniform(-1, 1, 8)) == 2
    assert casimir_count(build_su2(), rng.uniform(-1, 1, 3)) == 1
    assert casimir_count(build_su2(), np.zeros(3)) == 3  # degenerate origin


def test_cubic_relation_of_torus_generators():
    alg = build_su3_chevalley()
    u, v, w = torus_generators(alg)
    assert (u[0] * u[1] * u[2] - v * v - w * w).is_zero()


@st.composite
def integer_matrices_of_chosen_rank(draw):
    """Integer matrices up to 6x6 with entries in [-5, 5] and rank at most
    a drawn r: r drawn rows, the others zero or signed copies of them."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    row = st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)
    base = [draw(row) for _ in range(rank)]
    rows = list(base)
    while len(rows) < nrows:
        if base and draw(st.booleans()):
            sign = draw(st.sampled_from((-1, 1)))
            rows.append([sign * x for x in draw(st.sampled_from(base))])
        else:
            rows.append([0] * ncols)
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_matrices_of_chosen_rank())
def test_numeric_rank_equals_exact_rank_on_integer_matrices(rows):
    # the r nonzero singular values of an integer matrix have a product
    # >= 1 and are each <= 30 here, so the smallest is >= 30**-5 and the
    # threshold 1e-10 * max separates them from zero
    exact = len(rref([{j: Scalar(x) for j, x in enumerate(r) if x}
                      for r in rows], len(rows[0]))[0])
    assert numeric_rank(np.array(rows)) == exact


def test_numeric_rank_of_a_stack_is_the_rank_of_each_matrix():
    """Over a stack, numeric_rank returns one int rank per matrix, each
    the rank of that matrix alone, a zero matrix's rank 0 included."""
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(6, 4, 5))
    stack[1] = 0.0
    stack[2, 3] = stack[2, 0] + stack[2, 1]
    stack[4, 1:] = 0.0
    ranks = numeric_rank(stack)
    assert ranks.tolist() == [numeric_rank(J) for J in stack]
    assert ranks.tolist() == [4, 0, 3, 4, 1, 4]
    assert isinstance(numeric_rank(stack[0]), int)


# entries of the elimination properties: small rationals and the field's
# generators, with zeros weighted up so that the rows come out sparse
_NONZERO = (Scalar(1), Scalar(-1), Scalar(2), Scalar(-2),
            Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 2)),
            Scalar.sqrt3(), Scalar.sqrt3(-1), Scalar.sqrt3(Fraction(1, 2)),
            Scalar.sqrt3(Fraction(-1, 2)), Scalar(2, 1), Scalar(2, -1),
            Scalar(1, 1))
_ENTRIES = (Scalar(0),) * 13 + _NONZERO


@st.composite
def field_matrices(draw):
    """(sparse rows, ncols): up to 8 rows of up to 10 columns over
    Q(sqrt3), some rows drawn entry by entry and the rest sums or
    multiples of earlier rows, or zero."""
    ncols = draw(st.integers(1, 10))
    nrows = draw(st.integers(1, 8))
    rows = []
    while len(rows) < nrows:
        kind = draw(st.sampled_from(("drawn", "sum", "multiple", "zero")))
        if kind == "zero":
            rows.append([Scalar(0)] * ncols)
        elif kind == "drawn" or not rows:
            rows.append([draw(st.sampled_from(_ENTRIES))
                         for _ in range(ncols)])
        elif kind == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
        else:
            f = draw(st.sampled_from(_NONZERO))
            rows.append([f * x for x in draw(st.sampled_from(rows))])
    return [{j: x for j, x in enumerate(r) if x} for r in rows], ncols


# pivot scales: negative rationals, denominators above 1, multiples of
# sqrt3 and elements with both a rational and a sqrt3 part
_PIVOTS = (Scalar(-1), Scalar(Fraction(-3, 2)), Scalar(Fraction(2, 3)),
           Scalar(Fraction(-5, 4)), Scalar(7), Scalar.sqrt3(),
           Scalar.sqrt3(Fraction(-1, 2)), Scalar(Fraction(1, 3), -1),
           Scalar(1, 1))


@st.composite
def pivot_matrices(draw):
    """(sparse rows, ncols): the rows of field_matrices, each scaled by a
    drawn pivot scale, then empty rows and shadows: a scaled copy of a
    row plus a row drawn past its second column, which the row's pivot
    reduces to that tail, skipping a column that can end up free."""
    rows, ncols = draw(field_matrices())
    rows = [{j: f * x for j, x in r.items()}
            for r, f in zip(rows, draw(st.lists(st.sampled_from(_PIVOTS),
                                                min_size=len(rows),
                                                max_size=len(rows))))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("empty", "shadow")))
        long_rows = [r for r in rows if len(r) > 2]
        if kind == "empty" or not long_rows:
            rows.insert(draw(st.integers(0, len(rows))), {})
            continue
        base = draw(st.sampled_from(long_rows))
        f = draw(st.sampled_from(_PIVOTS))
        shadow = {j: f * x for j, x in base.items()}
        for j in range(sorted(base)[1] + 1, ncols):
            shadow[j] = shadow.get(j, Scalar(0)) + draw(st.sampled_from(
                _ENTRIES))
        rows.append({j: x for j, x in shadow.items() if x})
    return rows, ncols


def int_row(row):
    """A sparse row {column: Scalar} as exact_linalg takes it."""
    return {j: x.ints for j, x in row.items()}


def test_rref_pivots_rational_irrational_and_across_a_free_column():
    # column 0: a tie of negative rational pivots with denominator 2, the
    # first taken; the second row drops to its column 2 and leaves column
    # 1 free; column 2: the rational pivot -1; column 3: 4 + sqrt3
    half = Scalar(Fraction(-3, 2))
    rows = [{0: half, 1: Scalar(1), 2: Scalar(1)},
            {0: half, 1: Scalar(1), 3: Scalar.sqrt3()},
            {}, {2: Scalar(1, 1), 3: Scalar(1)}]
    pivots, reduced = rref(rows, 5)
    assert pivots == [0, 2, 3]
    assert (pivots, reduced) == rref_by_scalars(rows, 5)
    assert reduced == [{0: Scalar(1), 1: Scalar(Fraction(-2, 3))},
                       {2: Scalar(1)}, {3: Scalar(1)}]
    assert [list(r) for r in reduced] == [[1, 0], [2], [3]]
    assert len(nullspace(list(map(int_row, rows)), 5)) == 2


def test_rref_stops_reading_rows_at_full_rank():
    # read sparsest first, the unit rows give both columns a pivot, so
    # the dense row, given first, is never read and comes back untouched
    one, two = Scalar(1).ints, Scalar(2).ints
    rows = [{0: one, 1: two}, {1: two}, {0: one}]
    assert rref_ints(rows, 2) == ([0, 1], [{0: one}, {1: one}])
    assert list(rows[0].items()) == [(0, one), (1, two)]
    assert rref_ints([], 0) == ([], []) == rref_ints([{}], 0)
    assert rref_ints([], 3) == ([], [])
    assert nullspace([], 2) == [{0: Scalar(1)}, {1: Scalar(1)}]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(field_matrices(), pivot_matrices()), st.data())
def test_rref_is_the_oracle_rref_under_any_row_order(matrix, data):
    rows, ncols = matrix
    pivots, reduced = rref(rows, ncols)
    assert (pivots, reduced) == rref_by_scalars(rows, ncols)
    shuffled = data.draw(st.permutations(rows))
    assert rref(shuffled, ncols) == (pivots, reduced)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(field_matrices(), pivot_matrices()))
def test_nullspace_vectors_annihilate_every_row(matrix):
    rows, ncols = matrix
    basis = nullspace(list(map(int_row, rows)), ncols)
    assert len(basis) == ncols - len(rref(rows, ncols)[0])
    for vec in basis:
        for row in rows:
            assert sum((x * vec.get(j, Scalar(0)) for j, x in row.items()),
                       Scalar(0)).is_zero()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field_matrices(), st.data())
def test_greedy_completion_picks_the_oracle_candidates(matrix, data):
    rows, ncols = matrix
    k = data.draw(st.integers(0, len(rows)))
    span, candidates = rows[:k], rows[k:]
    assert _greedy_complete(Echelon(list(map(int_row, span))),
                            list(map(int_row, candidates))) == \
        greedy_complete_by_rank(span, candidates, ncols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field_matrices(), st.data())
def test_tagged_kernel_is_the_nullspace_of_the_transposed_rows(matrix, data):
    # the rows include sums, multiples and zeros of earlier ones, and one
    # more repeats a drawn row; the relation kernel is the tags of the rows
    # that vanish, read as _generator_relations reads them
    rows, ncols = matrix
    rows = rows + [data.draw(st.sampled_from(rows))]
    kernel = Echelon(list(map(int_row, rows)), tagged=True).kernel
    expected = nullspace(transposed(list(map(int_row, rows)), ncols),
                         len(rows))
    assert [[(i, from_ints(tag[i])) for i in sorted(tag)] for tag in kernel] \
        == [list(vec.items()) for vec in expected]


def test_monomial_order_is_the_recursive_order():
    for nvars in range(1, 10):
        for degree in range(8):
            assert monomials_of_degree(nvars, degree) == \
                monomials_by_recursion(nvars, degree)


def test_monomials_come_in_descending_lexicographic_order():
    for nvars in range(1, 10):
        for degree in range(8):
            monos = monomials_of_degree(nvars, degree)
            assert monos == sorted(monos, reverse=True)
            assert len(set(monos)) == len(monos)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field_matrices(), st.data())
def test_sparse_solve_in_span_is_the_dense_solve(matrix, data):
    # the vectors include sums, multiples and zeros of earlier ones; each
    # target is a combination of them, drawn entry by entry (in the span
    # or not), or zero, and every target is solved through one echelon
    vectors, ncols = matrix
    echelon = Echelon(list(map(int_row, vectors)), tagged=True)

    def dense(row):
        return [row.get(j, Scalar(0)) for j in range(ncols)]

    kinds = data.draw(st.lists(st.sampled_from(("combination", "drawn",
                                                "zero")), min_size=1,
                               max_size=4))
    for kind in kinds:
        target = {}
        if kind == "combination":
            for vec in vectors:
                c = data.draw(st.sampled_from(_ENTRIES))
                for j, x in vec.items():
                    target[j] = target.get(j, Scalar(0)) + c * x
        elif kind == "drawn":
            for j in range(ncols):
                target[j] = data.draw(st.sampled_from(_ENTRIES))
        target = {j: x for j, x in target.items() if x}

        sparse = solve_in_span(int_row(target), echelon)
        expected = solve_in_span_dense(dense(target),
                                       list(map(dense, vectors)), ncols)
        if kind != "drawn":
            assert sparse is not None
        if sparse is None:
            assert expected is None
            continue
        assert list(sparse) == sorted(sparse)
        assert not any(c.is_zero() for c in sparse.values())
        coeffs = [sparse.get(i, Scalar(0)) for i in range(len(vectors))]
        assert coeffs == expected
        if kind == "zero":
            assert sparse == {}
        combo = [sum((c * v.get(j, Scalar(0)) for c, v in zip(coeffs, vectors)),
                     Scalar(0)) for j in range(ncols)]
        assert combo == dense(target)


# (algebra, subalgebra) selections of the centralizer reports
SELECTIONS = (("su3", "torus"), ("su3", "irregular-A"), ("su2", "torus"))


def _buckets_by_degree(selection, m_only):
    """(names, operator terms, buckets) of invariant_space, degrees 1-5."""
    alg, sub = reports._selection(*selection)
    var_indices = list(sub.m_indices) if m_only else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    ops = _operator_terms(alg, sub, var_indices)
    for degree in range(1, 6):
        yield (alg, sub, degree, names, ops,
               monomial_buckets(
                   ops, monomials_of_degree(len(var_indices), degree)))


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_int_operator_rows_are_the_scalar_rows(selection, m_only):
    for _, _, degree, names, ops, buckets in _buckets_by_degree(selection,
                                                                m_only):
        coded = operator_moves(ops, len(names), degree)
        for bucket in buckets:
            rows = [{c: from_ints(t) for c, t in r.items()}
                    for r in operator_rows(coded, bucket)]
            assert rows == operator_rows_by_scalars(ops, bucket)


def test_operator_rows_sum_diagonal_terms_and_drop_zeros():
    # x0 d/dx0 - x1 d/dx1 + (sqrt3/2) x0 d/dx1: the two diagonal terms land
    # on the same (target, source) pair and cancel where the exponents
    # agree; the half needs the entry reduced (every structure constant of
    # the built algebras is integral over Z[sqrt3], so none does)
    ops = {0: [(0, 0, Scalar(1).ints), (1, 1, Scalar(-1).ints),
               (0, 1, Scalar.sqrt3(Fraction(1, 2)).ints)]}
    for degree in range(1, 6):
        bucket = monomials_of_degree(2, degree)
        rows = [{c: from_ints(t) for c, t in r.items()}
                for r in operator_rows(operator_moves(ops, 2, degree),
                                       bucket)]
        assert rows == operator_rows_by_scalars(ops, bucket)
        if degree == 2:  # bucket x0^2, x0 x1, x1^2
            assert rows == [{0: Scalar(2), 1: Scalar.sqrt3(Fraction(1, 2))},
                            {2: Scalar.sqrt3()}, {2: Scalar(-2)}]


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_invariant_space_is_the_nullspace_of_the_scalar_rows(selection,
                                                              m_only):
    for alg, sub, degree, names, ops, buckets in _buckets_by_degree(
            selection, m_only):
        expected = []
        for bucket in buckets:
            rows = operator_rows_by_scalars(ops, bucket)
            for vec in nullspace(list(map(int_row, rows)), len(bucket)):
                expected.append({bucket[i]: vec[i] for i in sorted(vec)})
        basis = invariant_space(alg, sub, degree, m_only)
        assert [list(p.terms.items()) for p in basis] == \
            [list(t.items()) for t in expected]


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_weight_route_is_the_operator_row_route(selection, m_only):
    """The invariants read off the weights are, term for term and in
    order, the nullspaces of the operator rows on every bucket, to
    degree 6, with one memo over the degrees."""
    alg, sub = reports._selection(*selection)
    memo = CallMemo()
    for degree in range(7):
        basis = invariant_space(alg, sub, degree, m_only, memo)
        expected = invariant_space_by_operator_rows(alg, sub, degree, m_only)
        assert [list(p.terms.items()) for p in basis] == \
            [list(p.terms.items()) for p in expected]


def _assert_same_span(ops, reduced):
    """The reduced operators and ops, as rows {term column: Scalar} over
    ops' term keys, have one RREF, with one reduced operator per pivot."""
    keys = sorted({(k, i) for terms in ops.values() for k, i, _ in terms})

    def rows(operators):
        return [{keys.index((k, i)): from_ints(c) for k, i, c in terms}
                for terms in operators.values()]

    expected = rref_by_scalars(rows(ops), len(keys))
    assert rref_by_scalars(rows(reduced), len(keys)) == expected
    assert len(reduced) == len(expected[0])
    for key, terms in reduced.items():  # each keyed by its leading 1
        assert terms[0] == (*key, Scalar(1).ints)


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_reduced_operators_span_the_operators(selection, m_only):
    alg, sub = reports._selection(*selection)
    var_indices = list(sub.m_indices) if m_only else list(range(alg.dim))
    ops = _operator_terms(alg, sub, var_indices)
    reduced = reduced_operators(ops)
    _assert_same_span(ops, reduced)
    # the torus operators rotate three root planes, with sqrt3 weights;
    # their span has a rational basis of two operators of four terms
    if selection == ("su3", "torus"):
        assert [len(t) for t in reduced.values()] == [4, 4]
        assert all(from_ints(c).is_rational() for terms in
                   reduced.values() for _, _, c in terms)


def test_reduced_operators_of_irrational_and_zero_operators():
    # an irrational leading coefficient, an operator with no terms, one
    # that is the first times 1 + sqrt3, and a rational one that the
    # first reduces to a new pivot
    s3 = Scalar.sqrt3()
    first = [(0, 1, s3), (1, 0, -s3), (2, 2, (1 + s3) / 2)]
    ops = {0: [(k, i, c.ints) for k, i, c in first],
           1: [],
           2: [(k, i, (c * (1 + s3)).ints) for k, i, c in first],
           3: [(0, 1, Scalar(3).ints), (1, 0, Scalar(-3).ints),
               (2, 1, Scalar(Fraction(1, 5)).ints)]}
    reduced = reduced_operators(ops)
    _assert_same_span(ops, reduced)
    assert list(reduced) == [(0, 1), (2, 1)]
    assert reduced[(0, 1)] == [(0, 1, Scalar(1).ints),
                               (1, 0, Scalar(-1).ints),
                               (2, 2, ((1 + s3) / (2 * s3)).ints)]
    assert reduced_operators({0: [], 1: []}) == {}


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_one_memo_over_the_degrees_gives_the_fresh_bases(selection, m_only):
    alg, sub = reports._selection(*selection)
    memo = CallMemo()
    for degree in range(1, 7):
        shared = invariant_space(alg, sub, degree, m_only, memo)
        fresh = invariant_space(alg, sub, degree, m_only)
        assert [list(p.terms.items()) for p in shared] == \
            [list(p.terms.items()) for p in fresh]


def _counting(monkeypatch, name):
    """Replace invariants.<name> by a wrapper that logs each call's args."""
    calls = []
    original = getattr(invariants, name)

    def logged(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, name, logged)
    return calls


def _logging_rref(monkeypatch):
    """Replace invariants.rref_ints by a wrapper that logs, per call, the
    number of rows handed to it and of pivots it returns."""
    calls = []
    original = invariants.rref_ints

    def logged(rows, ncols):
        out = original(rows, ncols)
        calls.append((len(rows), len(out[0])))
        return out

    monkeypatch.setattr(invariants, "rref_ints", logged)
    return calls


def test_full_torus_solves_each_active_profile_once(monkeypatch):
    """Over all 8 su(3) variables no torus operator touches h1 or h2, so
    the buckets to degree 4 are those of the 6 m-variables to degree 4
    times powers of h1 and h2: 35 profiles of 210 columns, not 494.  A
    profile of degrees (d1, d2, d3) in the three root planes has a
    monomial of weight 0 (p_k - q_k = n, n, -n) only when d1, d2 and d3
    have one parity: 11 profiles of 60 columns.  Each of them is reduced
    once, from one real or imaginary part per monomial of weight 0 up to
    conjugation, which are a basis of its operator-row kernel."""
    alg, sub = reports._selection("su3", "torus")
    ops = _operator_terms(alg, sub, list(sub.m_indices))
    profiles = [bucket for a in range(5) for bucket in
                monomial_buckets(ops, monomials_of_degree(6, a))]
    assert len(profiles) == 35 and sum(map(len, profiles)) == 210

    def planes(expo):  # the degrees in x1, y1 | x2, y2 | x3, y3
        return [expo[2 * k] + expo[2 * k + 1] for k in range(3)]

    kept = [bucket for bucket in profiles
            if len({d % 2 for d in planes(bucket[0])}) == 1]
    assert len(kept) == 11 and sum(map(len, kept)) == 60
    coded = {a: operator_moves(ops, 6, a) for a in range(5)}
    ranks = [len(nullspace(operator_rows(coded[sum(b[0])], b), len(b)))
             for b in kept]
    reduced = _logging_rref(monkeypatch)
    memo = CallMemo()
    for degree in range(1, 5):
        invariant_space(alg, sub, degree, False, memo)
    # the parts are independent: each spanning set is already a basis
    assert all(rows == pivots for rows, pivots in reduced)
    assert sorted(pivots for _, pivots in reduced) == sorted(ranks)
    assert sum(ranks) == 12
    # indecomposable_generators shares one memo over its degrees: one
    # kernel per active profile, 11 of them reduced
    kernels = _counting(monkeypatch, "_bucket_kernel")
    del reduced[:]
    indecomposable_generators(alg, sub, 4, restrict_to_m=False)
    assert len(kernels) == len(profiles) and len(reduced) == len(kept)


def _ad_of_sign(s, E):
    """Ad(diag(s)) E = diag(s) E diag(s) for a sign vector s, exactly."""
    D = cmat([[s[r] if r == c else 0 for c in range(len(s))]
              for r in range(len(s))])
    return cmat_mul(cmat_mul(D, E), D)


def _sign_elements(alg, sub, var_indices):
    """Per sign matrix D = diag(s), s in {1, -1}^N with s_0 = 1, whose
    exact adjoint action fixes every element of a and negates some
    variable, the positions in var_indices of the variables it negates;
    it fixes the others.  Such a D (times a root of unity of det 1) lies
    in the torus of A when a holds it."""
    N = len(alg.matrix_rep[0])
    flips = []
    for tail in itertools.product((1, -1), repeat=N - 1):
        s = (1,) + tail
        images = [_ad_of_sign(s, E) for E in alg.matrix_rep]
        if any(images[j] != alg.matrix_rep[j] for j in sub.a_indices):
            continue
        negated = []
        for p, v in enumerate(var_indices):
            if images[v] != alg.matrix_rep[v]:
                assert images[v] == cmat_scale(-1, alg.matrix_rep[v])
                negated.append(p)
        if negated:
            flips.append(tuple(negated))
    return flips


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_sign_elements_are_the_sign_matrices_that_fix_a(selection, m_only):
    """The sign matrices whose exact adjoint action fixes a are elements
    of A, so each fixes every invariant: every term of every basis
    polynomial of invariant_space, to degree 6, has an even degree in the
    variables one of them negates.  The torus of su(3) has three, su(2)'s
    and the A block's one."""
    alg, sub = reports._selection(*selection)
    var_indices = list(sub.m_indices) if m_only else list(range(alg.dim))
    flips = _sign_elements(alg, sub, var_indices)
    assert len(flips) == {"torus": 3 if selection[0] == "su3" else 1,
                          "irregular-A": 1}[selection[1]]
    memo = CallMemo()
    for degree in range(1, 7):
        for p in invariant_space(alg, sub, degree, m_only, memo):
            assert all(sum(expo[q] for q in negated) % 2 == 0
                       for expo in p.terms for negated in flips)


# (buckets, empty kernels, buckets a sign element negates, kernels
# reduced) to degree 6 on m and over the full su(2), to degree 5 over the
# full su(3)
SIGN_SKIPS = {
    ("su3", "torus", True): (83, 60, 60, 23),
    ("su3", "torus", False): (251, 174, 174, 35),
    ("su3", "irregular-A", True): (6, 3, 3, 3),
    ("su3", "irregular-A", False): (55, 31, 22, 24),
    ("su2", "torus", True): (6, 3, 3, 3),
    ("su2", "torus", False): (27, 12, 12, 15),
}


@pytest.mark.parametrize("m_only", (True, False), ids=("m", "full"))
@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_a_bucket_that_a_sign_element_negates_has_no_invariant(
        monkeypatch, selection, m_only):
    """Every monomial of a bucket has one sign under each sign element,
    and a bucket of sign -1 has an empty kernel by nullspace of its
    rows; the counts are pinned.  invariant_space reduces a kernel for
    just the buckets whose kernel is not empty, once per active profile
    (so none that a sign element negates), each to its dimension."""
    alg, sub = reports._selection(*selection)
    var_indices = list(sub.m_indices) if m_only else list(range(alg.dim))
    ops = reduced_operators(_operator_terms(alg, sub, var_indices))
    active = sorted({v for terms in ops.values() for k, i, _ in terms
                     for v in (k, i)})
    flips = _sign_elements(alg, sub, var_indices)
    top = 5 if selection[0] == "su3" and not m_only else 6
    reduced = _logging_rref(monkeypatch)
    buckets = empty = negated = solves = 0
    for degree in range(1, top + 1):
        coded = operator_moves(ops, len(var_indices), degree)
        solved = {}
        for bucket in monomial_buckets(
                ops, monomials_of_degree(len(var_indices), degree)):
            signs = [{sum(expo[p] for p in f) % 2 for expo in bucket}
                     for f in flips]
            assert all(len(sign) == 1 for sign in signs)
            kernel = nullspace(operator_rows(coded, bucket), len(bucket))
            buckets += 1
            empty += not kernel
            if {1} in signs:
                assert kernel == []
                negated += 1
            elif kernel:
                solved[tuple(bucket[0][v] for v in active)] = len(kernel)
        del reduced[:]
        invariant_space(alg, sub, degree, m_only)
        assert sorted(pivots for _, pivots in reduced) == \
            sorted(solved.values())
        solves += len(reduced)
    assert (buckets, empty, negated, solves) == \
        SIGN_SKIPS[(*selection, m_only)]


def test_an_a_without_the_torus_or_a_plane_off_one_pair_is_refused():
    """invariant_space refuses, by a one-line ValueError, a subalgebra a
    without the diagonal torus (H1 alone), an algebra with a basis
    element on two index pairs or on a pair and the diagonal, and one
    whose root plane has (0, 1) entries in the ratio 1, not i or -i."""
    alg = build_su3_chevalley()
    torus = reports._selection("su3", "torus")[1]
    line = SubalgebraSpec(alg, (0,), tuple(range(1, 8)))
    for m_only in (True, False):
        with pytest.raises(ValueError, match=r"^a of su3-chevalley does not "
                                             r"hold its diagonal torus$"):
            invariant_space(alg, line, 2, m_only)
    for odd in (((0, 1), (1, 2)), ((0, 0), (1, 2))):
        pairs = alg.entry_pairs[:2] + (odd,) + alg.entry_pairs[3:]
        stand_in = SimpleNamespace(**{**vars(alg), "entry_pairs": pairs})
        with pytest.raises(ValueError, match=r"^basis elements X1 of "
                                             r"su3-chevalley are not one root "
                                             r"plane in the ratio i or -i$"):
            invariant_space(stand_in, torus, 2)
    rep = alg.matrix_rep[:3] + [alg.matrix_rep[2]] + alg.matrix_rep[4:]
    stand_in = SimpleNamespace(**{**vars(alg), "matrix_rep": rep})
    with pytest.raises(ValueError, match=r"^basis elements X1, Y1 of "
                                         r"su3-chevalley are not one root "
                                         r"plane in the ratio i or -i$"):
        invariant_space(stand_in, torus, 2)


def test_irregular_a_full_reduces_no_empty_kernel(monkeypatch):
    """The generators of irregular-A over all 8 variables to degree 5
    reduce no kernel that comes back empty: a bucket with no monomial of
    weight 0, or with as many of weight alpha (the root of A's su(2)
    block) as of weight 0, is proven empty and not reduced."""
    alg, sub = reports._selection("su3", "irregular-A")
    reduced = _logging_rref(monkeypatch)
    indecomposable_generators(alg, sub, 5, restrict_to_m=False)
    assert reduced and all(pivots for _, pivots in reduced)
    assert len(reduced) == 9


def test_nothing_outlives_an_indecomposable_generators_call(monkeypatch):
    alg, sub = reports._selection("su3", "torus")
    products = invariants._generator_products
    counts = []
    for _ in range(2):
        solves = _counting(monkeypatch, "_bucket_kernel")
        listed = _counting(monkeypatch, "monomials_of_degree")
        built = []

        def logged(gens, names, degree, memo):
            # len(gens) now: the list grows after the call
            built.append((degree, len(gens)))
            return products(gens, names, degree, memo)

        monkeypatch.setattr(invariants, "_generator_products", logged)
        indecomposable_generators(alg, sub, 4, restrict_to_m=False)
        counts.append((len(solves), sorted(listed), built))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    # one list of each degree's 8-variable monomials and one of its bucket
    # profiles over the 5 blocks (h1, h2 and the three root planes),
    # degrees 1-4
    assert counts[0][1] == sorted((n, d) for n in (5, 8) for d in (1, 2, 3, 4))
    # one echelon of products per degree and generator count, built anew
    # by each call: degrees 1-4 as the generators grow (h1 and h2, then
    # u1-u3, then v and w), then the relations over all seven, which
    # share degree 4's
    assert counts[0][2] == [(1, 0), (2, 2), (3, 5), (4, 7), (2, 7), (3, 7)]


def test_a_negative_degree_is_refused_by_name():
    alg, sub = reports._selection("su2", "torus")
    for call in (lambda: invariant_space(alg, sub, -1),
                 lambda: monomials_of_degree(3, -2)):
        with pytest.raises(ValueError, match=r"^degree -\d is negative$"):
            call()


@pytest.mark.parametrize("selection", SELECTIONS, ids="/".join)
def test_generator_products_are_the_chained_products(selection):
    """Rows of the generator products on the m-coordinates to degree 6,
    with a memo per degree and with one memo filled first by the first
    generators alone, as indecomposable_generators fills it."""
    alg, sub = reports._selection(*selection)
    names = tuple(alg.coord_names[i] for i in sub.m_indices)
    gens = indecomposable_generators(alg, sub, 6).generators
    shared = CallMemo()
    for first in (gens[:len(gens) // 2], gens):
        for degree in range(7):
            expected = generator_products_by_chain(first, names, degree)
            assert _generator_products(first, names, degree,
                                       CallMemo()) == expected
            assert _generator_products(first, names, degree,
                                       shared) == expected
            # the memo keeps one echelon per degree and generator count
            combos, _, mono_index = expected
            assert _product_echelon(first, names, degree,
                                    shared)[:2] == (combos, mono_index)


def test_each_generator_product_is_one_multiplication(monkeypatch):
    """indecomposable_generators(torus, m, 6) multiplies polynomials once
    per distinct product of two or more generators, and nowhere else."""
    alg, sub = reports._selection("su3", "torus")
    calls = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    gens = indecomposable_generators(alg, sub, 6).generators
    monkeypatch.undo()
    products = {c for d in range(7) for c in _monomials_in_generators(gens, d)
                if sum(c) > 1}
    assert [d for _, _, d in gens] == [2, 2, 2, 3, 3]
    assert len(products) == 25
    assert len(calls) == len(products)


# SHA-256 of centralizer reports (the text `su3mag centralizer` prints)
# that neither the benchmark nor tests/test_golden.py draws: the
# non-abelian A block over all 8 su(3) variables to degrees 4 and 5 and on
# m to the degree cap, the full torus commutant to degree 6, the torus
# commutant on m to the degree cap, su(2)'s m-only one and its full one to
# the degree cap.  The full selections have inert variables (touched by no
# operator term), whose buckets the solver shares.  The torus on m past
# degree 6 is the one selection that lifts a lower relation (the cubic,
# times each u_k at degree 8): without the lift it lists three more.
UNDRAWN_REPORT_DIGESTS = {
    ("su3", "irregular-A", False, 4):
        "9012f74951b01a90e98da5f9b8b923e30528a9c19e10d25f74e5596b9dcd7e5d",
    ("su3", "irregular-A", False, 5):
        "9012f74951b01a90e98da5f9b8b923e30528a9c19e10d25f74e5596b9dcd7e5d",
    ("su3", "irregular-A", True, 8):
        "182486364d62ce0a2240bdc38c5630e24b5022985e4de3435578848a42a9c8c9",
    ("su3", "torus", False, 6):
        "0ebf04c7aa38b40f1e59438f71603f34211cce1a3c728386c8d7523bf0a366cf",
    ("su3", "torus", True, 8):
        "8f237f3d91868c0467ccdfa83e49e98e492aa84a2c1e7f848949005ced5e54e7",
    ("su2", "torus", True, 4):
        "9e3b9122b873904085731bda4e358c78eee62315deb5c7a308fa8e82de33e9d6",
    ("su2", "torus", False, 8):
        "195dbec569936d914604dbc0da82ef40499fb4650ac1a6eb752d70471faa4d54",
}


@pytest.mark.parametrize("case", sorted(UNDRAWN_REPORT_DIGESTS))
def test_undrawn_centralizer_report_digest(case):
    text = reports.centralizer_report(*case)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        UNDRAWN_REPORT_DIGESTS[case]
