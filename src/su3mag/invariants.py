"""Commutants, Casimirs and the shift-restriction map.

The commutant S(g)^a is computed degree by degree as the joint kernel of the
coadjoint derivations

    L_j = sum_{k,i} C_jk^i x_k d/dx_i,       j in a_indices,

acting on homogeneous polynomials.  Kernels are exact (Gaussian elimination
over Q(sqrt3)).  The joint kernel depends only on span{L_j}, so it
is taken of the reduced row echelon basis of that span (the L_j as rows
over their term keys (k, i)): the fewest terms, and rational for the
torus and the A block.  Monomials are grouped into buckets preserved by
every operator (equal multidegree over the finest variable partition
closed under the operators), which keeps the elimination small.  A
variable that no operator term touches is inert (h1 and h2 over all of
su(3) for the torus, z for su(2)); buckets that differ only in inert
exponents have the same rows, so one kernel serves them all.  The rows
are built on monomials coded as one int whose digits in base degree + 1
are the exponents: a term moves a source to its target by one addition.
Every row handed to exact_linalg is a sparse row of integral
representations {column: Scalar.ints}; _poly_to_row reads a polynomial's.
invariant_space returns its basis as a list of Polynomials.
One builder, _generator_products, makes the rows of a degree's products of
generators (each product is one lower product times one generator), and
_product_echelon adds them in order to one Echelon, row i tagged {i: 1}.
The quotient by decomposables, the relations and rewrite_in_generators
(the bracket table's rewrite) share that echelon: a candidate generator
is picked when it does not reduce to zero against it and the generators
picked before it, the relations are the tags of the product rows that
vanish, and a part of q reduced against it gives its coefficients.  A
lower relation times a generator monomial is the relation with each
exponent shifted by the monomial's, and the rewrite solves one part of q
per (power of eps, degree in the m-vars).  A CallMemo, owned by one
top-level call (indecomposable_generators, or one bracket table), keeps
the products, each degree's product echelon, one list of each degree's
monomials and the bucket kernels by active exponents; nothing is cached
across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, mul

import numpy as np

from .scalars import (CZERO, ONE, ZERO, cmat_mul, from_ints, neg_ints,
                      scale_ints, submul_ints)
from .poly import Polynomial
from .exact_linalg import Echelon, nullspace, rref_ints, solve_in_span


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the degree, in descending lexicographic order."""
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.append(tuple(expo))
    return out


class CallMemo:
    """What one top-level computation (one indecomposable_generators call,
    or one bracket table) builds once and reuses; the caller makes it, and
    nothing in it outlives that call.

    monomials: (nvars, degree) -> {exponent tuple: index}, in the order of
    monomials_of_degree; products: generator exponent tuple -> Polynomial
    (see _product); echelons: (degree, len(gens)) -> the combos, monomial
    index and tagged Echelon of the degree's generator products (see
    _product_echelon); kernels: active exponents -> the nullspace vectors
    of a bucket (see invariant_space), valid for one (alg, sub, variables).
    products and echelons are valid for one gens that only grows.
    """

    def __init__(self):
        self.monomials = {}
        self.products = {}
        self.echelons = {}
        self.kernels = {}

    def monomial_index(self, nvars, degree):
        """{monomial: index} over the degree's monomials, listed once."""
        index = self.monomials.get((nvars, degree))
        if index is None:
            index = {e: i for i, e in
                     enumerate(monomials_of_degree(nvars, degree))}
            self.monomials[(nvars, degree)] = index
        return index


def _operator_terms(alg, sub, var_indices):
    """Terms (j, k, i, coeff) of each L_j restricted to the chosen variables.

    Returns {j: [(k_pos, i_pos, coeff.ints)]}; positions index var_indices.
    """
    pos = {v: p for p, v in enumerate(var_indices)}
    ops = {}
    for j in sub.a_indices:
        terms = []
        for (jj, k, i), c in alg.structure.items():
            if jj == j and k in pos and i in pos:
                terms.append((pos[k], pos[i], c.ints))
        ops[j] = terms
    return ops


def _reduced_operators(ops):
    """A basis of span{L_j} with the same joint kernel and the fewest
    terms: the reduced row echelon form of the operators as rows over
    their term keys (k_pos, i_pos) in ascending order.  Returns
    {pivot key: [(k_pos, i_pos, coeff.ints)]}, terms by key."""
    keys = sorted({(k, i) for terms in ops.values() for k, i, _ in terms})
    column = {key: c for c, key in enumerate(keys)}
    rows = [{column[(k, i)]: c for k, i, c in terms} for terms in ops.values()]
    pivots, reduced = rref_ints(rows, len(keys))
    return {keys[p]: [(*keys[c], row[c]) for c in sorted(row)]
            for p, row in zip(pivots, reduced)}


def _monomial_buckets(ops, monomials):
    """Buckets of the monomials of one degree that every L_j preserves:
    equal multidegree over the finest variable partition closed under the
    terms, blocks numbered by first variable, buckets in ascending
    multidegree, monomials in the order given."""
    first = next(iter(monomials), ())
    parent = list(range(len(first)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for terms in ops.values():
        for (k, i, _) in terms:
            ra, rb = find(k), find(i)
            if ra != rb:
                parent[rb] = ra
    number = {}
    block_of = [number.setdefault(find(v), len(number))
                for v in range(len(first))]
    # the multidegree as one int in base degree + 1, the first block the
    # most significant digit: ascending ints are ascending multidegrees
    place = [(sum(first) + 1) ** (len(number) - 1 - b) for b in block_of]
    buckets = {}
    for expo in monomials:
        buckets.setdefault(sum(map(mul, expo, place)), []).append(expo)
    return [buckets[profile] for profile in sorted(buckets)]


def _operator_moves(ops, nvars, degree):
    """The operators on the integer code of the degree's monomials, whose
    exponents are the digits of one int in base degree + 1: (weight,
    moves) with weight[v] the place value of x_v, and per operator the
    list of (i_pos, shift, entries) of its terms C x_k d/dx_i, which move
    a source's code by shift = weight[k] - weight[i] with entries[e] the
    reduced ints of C * e for a source of exponent e >= 1 in x_i."""
    weight = [(degree + 1) ** v for v in range(nvars)]
    moves = [[(ipos, weight[kpos] - weight[ipos],
               [None] + [scale_ints(c, e) for e in range(1, degree + 1)])
              for kpos, ipos, c in terms]
             for terms in ops.values()]
    return weight, moves


def _operator_rows(coded, bucket):
    """Rows {source index: reduced ints} of the stacked L_j on a bucket, one
    per operator and target: C x_k d/dx_i maps a source with exponent e in
    x_i to its target with entry C * e, summed per pair, zeros dropped.
    coded is _operator_moves of the operators at the bucket's degree."""
    weight, moves = coded
    codes = [sum(map(mul, expo, weight)) for expo in bucket]
    index = {code: i for i, code in enumerate(codes)}
    rows = []
    for terms in moves:
        per_target = {}
        for src, expo in enumerate(bucket):
            code = codes[src]
            for ipos, shift, entries in terms:
                e = expo[ipos]
                if e == 0:
                    continue
                row = per_target.setdefault(index[code + shift], {})
                val = entries[e]
                if src in row:  # one more diagonal term x_k d/dx_k: add
                    val = submul_ints(row.pop(src), neg_ints(val), ONE.ints)
                if val != ZERO.ints:
                    row[src] = val
        rows.extend(r for r in per_target.values() if r)
    return rows


def invariant_space(alg, sub, degree, restrict_to_m=True, memo=None):
    """Exact basis of the joint kernel of the L_j on degree-k polynomials,
    a list of Polynomials.

    memo is the CallMemo of one top-level call over this (alg, sub,
    restrict_to_m), shared by its degrees; a fresh one by default.  A
    bucket's kernel is kept under its active exponents (those of the
    variables some operator term touches): buckets that differ only in
    the inert exponents have the same rows, so the same kernel."""
    from .poly import DEGREE_CAP
    if degree > DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    memo = CallMemo() if memo is None else memo
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    ops = _reduced_operators(_operator_terms(alg, sub, var_indices))
    active = sorted({v for terms in ops.values() for k, i, _ in terms
                     for v in (k, i)})
    coded = _operator_moves(ops, len(var_indices), degree)
    basis = []
    for bucket in _monomial_buckets(
            ops, memo.monomial_index(len(var_indices), degree)):
        key = tuple(bucket[0][v] for v in active)
        kernel = memo.kernels.get(key)
        if kernel is None:
            kernel = nullspace(_operator_rows(coded, bucket), len(bucket))
            memo.kernels[key] = kernel
        for vec in kernel:
            terms = {bucket[c]: x for c, x in vec.items()}
            basis.append(Polynomial(names, terms))
    return basis


@dataclass
class GeneratorSet:
    generators: list  # list of (name, Polynomial, degree)
    relations: list   # list of Polynomial in generator variables
    dims: dict        # degree -> dimension of the invariant space

    def serialize(self):
        lines = []
        for name, poly, degree in self.generators:
            lines.append(f"generator {name} degree {degree}")
            lines.append(f"  {poly.text()}")
        for rel in self.relations:
            lines.append("relation " + rel.text())
        if not self.relations:
            lines.append("relations none")
        return "\n".join(lines) + "\n"


def _poly_to_row(poly, mono_index):
    """The sparse coefficient row {monomial index: coeff.ints} of poly."""
    return {mono_index[expo]: c.ints for expo, c in poly.terms.items()}


def _greedy_complete(echelon, candidates):
    """Indices of the candidate rows that enlarge the span of echelon and
    of the candidates picked before them, in order; each candidate is
    reduced in place, and each one picked joins the echelon."""
    return [k for k, row in enumerate(candidates) if echelon.add(row)]


def indecomposable_generators(alg, sub, max_degree, restrict_to_m=True):
    """Per-degree quotient of the invariant spaces by products of lower gens."""
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    gens = []  # (name, Polynomial, degree)
    dims = {}
    memo = CallMemo()  # shared by the degrees and relations of this call

    for d in range(1, max_degree + 1):
        basis = invariant_space(alg, sub, d, restrict_to_m, memo)
        dims[d] = len(basis)
        if not basis:
            continue
        # span of all products of existing generators with total degree d;
        # every generator so far has degree below d, so every such
        # product has at least two factors.  The candidates picked join
        # its echelon; gens then grows, so the memo hands it out no more
        _, mono_index, products = _product_echelon(gens, names, d, memo)
        picked = _greedy_complete(
            products, [_poly_to_row(p, mono_index) for p in basis])
        for rank_in_degree, idx in enumerate(picked, start=1):
            gens.append((f"q{d}_{rank_in_degree}", basis[idx], d))

    relations = _generator_relations(gens, names, max_degree, memo)
    return GeneratorSet(generators=gens, relations=relations, dims=dims)


def _generator_products(gens, names, degree, memo):
    """(combos, rows, mono_index) of the products of generators of the
    weighted degree: the exponent tuples over gens (a list of (name,
    Polynomial over names, degree)) as listed by _monomials_in_generators,
    the int row of each product over the degree's monomials, and the
    index of those monomials (memo's, not to be changed).  memo is the
    CallMemo of one top-level computation on one growing gens."""
    combos = _monomials_in_generators(gens, degree)
    mono_index = memo.monomial_index(len(names), degree)
    rows = [_poly_to_row(_product(gens, combo, memo.products) if any(combo)
                         else Polynomial.const(names, 1), mono_index)
            for combo in combos]
    return combos, rows, mono_index


def _product_echelon(gens, names, degree, memo):
    """(combos, mono_index, echelon) of the generator products of the
    weighted degree: combos and mono_index as _generator_products lists
    them, and the Echelon of the product rows added in the order of combos,
    row i tagged {i: 1}, so its kernel holds the linear relations among the
    products.  Kept in memo under (degree, len(gens)), for the generator
    completion, the relations and the rewrites of one call to share."""
    key = (degree, len(gens))
    entry = memo.echelons.get(key)
    if entry is None:
        combos, rows, mono_index = _generator_products(gens, names, degree,
                                                       memo)
        entry = combos, mono_index, Echelon(rows, tagged=True)
        memo.echelons[key] = entry
    return entry


def rewrite_in_generators(q, gens, memo=None):
    """Rewrite q (over m-vars + eps) as a polynomial in named generators.

    gens is a list of (name, Polynomial over the m-vars, degree); q is
    split once into its parts of one power of eps and one degree in the
    m-vars, and each part is reduced against the echelon of the generator
    monomials of that degree.  Returns the rewritten polynomial over
    (gen names..., "eps"), or None if q is not expressible.  memo is the
    CallMemo of the generator products, their echelons and the monomials,
    shared by the rewrites of one bracket table.
    """
    memo = CallMemo() if memo is None else memo
    m_names = gens[0][1].vars
    parts = {}
    for expo, coeff in q.terms.items():
        parts.setdefault((expo[-1], sum(expo[:-1])), {})[expo[:-1]] = coeff
    terms = {}
    for (e_eps, deg), part in sorted(parts.items()):
        combos, mono_index, products = _product_echelon(gens, m_names, deg,
                                                        memo)
        coeffs = solve_in_span(
            _poly_to_row(Polynomial(m_names, part), mono_index), products)
        if coeffs is None:
            return None
        for i, c in coeffs.items():
            terms[combos[i] + (e_eps,)] = c
    return Polynomial(tuple(n for n, _, _ in gens) + ("eps",), terms)


def _product(gens, combo, products):
    """The product of generators of a nonzero exponent tuple: the product
    of one factor fewer times its last generator, each kept in products
    under its tuple without trailing zeros (gens only ever grows)."""
    key = combo[:max(i for i, k in enumerate(combo) if k) + 1]
    poly = products.get(key)
    if poly is None:
        gen = gens[len(key) - 1][1]
        lower = key[:-1] + (key[-1] - 1,)
        poly = _product(gens, lower, products) * gen if any(lower) else gen
        products[key] = poly
    return poly


def _generator_relations(gens, names, max_degree, memo):
    """Minimal linear relations among generator monomials, degree by degree.

    A degree's kernel is the tags of its product rows that vanish: one
    relation per product that lies in the span of the products before it,
    with a 1 on that product and its other entries on earlier products, in
    ascending order (the canonical kernel basis of the products' matrix)."""
    gen_vars = tuple(name for name, _, _ in gens)
    relations = []

    for d in range(2, max_degree + 1):
        combos, _, products = _product_echelon(gens, names, d, memo)
        kernel = products.kernel
        if not kernel:
            continue
        # quotient by relations lifted from lower degrees
        lifted = Echelon(_lift_relations(relations, gens, combos, d))
        for idx in _greedy_complete(lifted, [dict(t) for t in kernel]):
            tag = kernel[idx]
            relations.append(Polynomial(
                gen_vars, {combos[i]: from_ints(tag[i]) for i in sorted(tag)}))
    return relations


def _monomials_in_generators(gens, total_degree):
    """Exponent tuples over generators with weighted degree == total_degree."""
    out = []

    def rec(i, remaining, acc):
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(acc))
            return
        d = gens[i][2]
        kmax = remaining // d
        for k in range(kmax, -1, -1):
            acc.append(k)
            rec(i + 1, remaining - k * d, acc)
            acc.pop()

    rec(0, total_degree, [])
    return out


def _lift_relations(relations, gens, combos, degree):
    """Int coefficient rows over combos of (lower relation) * (generator
    monomial): the relation's terms with each exponent shifted by the
    monomial's.  A relation is weighted-homogeneous, so its first term
    gives the gap; a shifted exponent has the weighted degree, so it is a
    combo, and a shift is injective, so no two terms meet."""
    combo_index = {e: i for i, e in enumerate(combos)}
    rows = []
    for rel in relations:
        first = next(iter(rel.terms))
        gap = degree - sum(k * gens[i][2] for i, k in enumerate(first))
        for mult in _monomials_in_generators(gens, gap):
            rows.append({combo_index[tuple(map(add, expo, mult))]: c.ints
                         for expo, c in rel.terms.items()})
    return rows


@lru_cache(maxsize=4)
def torus_generators(alg):
    """The five torus-invariant generators ((u1, u2, u3), v, w) on m,
    built once per algebra.

    u_k = |z_k|^2 and v + i w = z1 z2 conj(z3) for the complex root
    coordinates recorded by the root-adapted build; all five are exact
    polynomials over the m-coordinates (x1, y1, ..., x3, y3).
    """
    if "z_rows" not in alg.extras:
        raise ValueError("torus generators need the root-adapted su(3) build")
    torus = alg.extras["torus_indices"]
    m_idx = [i for i in range(alg.dim) if i not in torus]
    names = tuple(alg.coord_names[i] for i in m_idx)
    units = [tuple(int(q == p) for q in range(len(m_idx)))
             for p in range(len(m_idx))]

    def zpoly(k):
        row = [alg.extras["z_rows"][k][i] for i in m_idx]
        return (Polynomial(names, {e: c.re for e, c in zip(units, row)}),
                Polynomial(names, {e: c.im for e, c in zip(units, row)}))

    z = [zpoly(k) for k in range(3)]
    u = tuple(z[k][0] * z[k][0] + z[k][1] * z[k][1] for k in range(3))
    a1, b1 = z[0]
    a2, b2 = z[1]
    a3, b3 = z[2]
    pr = a1 * a2 - b1 * b2
    pi = a1 * b2 + b1 * a2
    v = pr * a3 + pi * b3
    w = pi * a3 - pr * b3
    return u, v, w


def radial_generator(sys):
    """R = sum of squared m-coordinates (the irregular-case generator),
    one polynomial per tuple of m-coordinate names."""
    return _radial(sys.m_names())


@lru_cache(maxsize=4)
def _radial(names):
    return sum((Polynomial.var(names, n) ** 2 for n in names),
               Polynomial.zero(names))


# ---------------------------------------------------------------------------
# Casimirs and the shift restriction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def casimirs_su3(alg):
    """The quadratic and cubic Casimirs (C2, C3) as exact coordinate
    polynomials, built once per algebra.

    C2(Y) = B(Y, Y) and C3(Y) = -i tr(Y^3) on the anti-Hermitian matrix
    realization; both are Poisson-central.  On the Gell-Mann basis these
    reduce to the trace-normalized forms of the Hermitian presentation.
    """
    names = alg.coord_names
    n = alg.dim
    # B(Y, Y) = sum_i x_i^2: the basis is B-orthonormal
    c2 = _radial(names)

    # C3 = sum_ijk -i tr(b_i b_j b_k) x_i x_j x_k from the exact products
    # b_i b_j; the real parts of the traces cancel monomial by monomial
    rep = alg.matrix_rep
    nonzero = [[(r, c, x) for r, row in enumerate(M)
                for c, x in enumerate(row) if not x.is_zero()] for M in rep]
    coeffs = {}
    for i, bi in enumerate(rep):
        for j, bj in enumerate(rep):
            bij = cmat_mul(bi, bj)
            for k, bk in enumerate(nonzero):
                # tr(b_ij b_k) = sum_rc (b_ij)_cr (b_k)_rc
                t = sum((bij[c][r] * x for r, c, x in bk
                         if not bij[c][r].is_zero()), CZERO)
                if not t.is_zero():
                    expo = tuple((i, j, k).count(m) for m in range(n))
                    coeffs[expo] = coeffs.get(expo, CZERO) + t
    if any(not z.re.is_zero() for z in coeffs.values()):
        raise AssertionError("tr(Y^3) of anti-Hermitian Y must be imaginary")
    c3 = Polynomial(names, {e: z.im for e, z in coeffs.items()})
    return c2, c3


def shift_images(sys, target, eps=None):
    """The coordinates of X - eps W as polynomials over target: the
    variables on m, -eps W_i on a, with eps the variable "eps" of target
    or the given exact eps (eps = 0 gives the projection onto m)."""
    names = sys.alg.coord_names
    images = []
    for i in range(sys.alg.dim):
        if i in sys.sub.m_indices:
            images.append(Polynomial.var(target, names[i]))
        elif eps is None:
            images.append(Polynomial.var(target, "eps", -sys.W_exact[i]))
        else:
            images.append(Polynomial.const(target, -(eps * sys.W_exact[i])))
    return images


def restrict_shift(C, sys, symbolic_eps=True):
    """Res_W(C)(X) = C(X - eps W) with X restricted to the m-coordinates.

    With symbolic_eps the result is a polynomial over (m-vars..., "eps");
    otherwise eps is bound to sys.eps_exact and the result is over the
    m-vars alone.
    """
    m_names = sys.m_names()
    if symbolic_eps:
        target = m_names + ("eps",)
        return C.substitute(target, shift_images(sys, target))
    return C.substitute(m_names, shift_images(sys, m_names, sys.eps_exact))


def numeric_rank(J):
    """Numeric rank of a matrix: singular values above 1e-10 * the
    largest; or matrix by matrix for a stack, an int array."""
    s = np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)
    top = s.max(axis=-1, initial=0.0)
    ranks = (s > 1e-10 * top[..., None]).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def independence_rank(polys, point):
    """Numeric rank of the Jacobian of a polynomial family at a point, or
    point by point at a stack of points, an int array."""
    return numeric_rank(np.stack([p.gradient(point) for p in polys],
                                 axis=-2))


def casimir_count(alg, point):
    """dim g - rank(A) with rows A_i = [e_i, x] = sum_j C_ij^. x_j at the
    point (the Lie-Poisson matrix up to sign on an orthonormal basis)."""
    x = np.asarray([float(c) for c in point], dtype=float)
    return alg.dim - numeric_rank(alg.ad_matrices() @ x)
