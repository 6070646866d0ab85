"""Commutants, Casimirs and the shift-restriction map.

The commutant S(g)^a is, degree by degree, the joint kernel of the
coadjoint derivations L_j = sum_{k,i} C_jk^i x_k d/dx_i, j in a_indices.
Every a here holds the diagonal torus T, so it is read off the weights
(Sturmfels, Algorithms in Invariant Theory, 1.4; Derksen-Kemper,
Computational Invariant Theory, ch. 3): the T-invariants are the real and
imaginary parts of the monomials of weight 0 in the entries of X, cut by
one root operator per root plane of a where a is more than T.  Each
bucket of monomials that the L_j preserve is brought to the one form in
which exact_linalg.nullspace lists a kernel.  Rows handed to exact_linalg
are sparse rows {column: Scalar.ints}; a polynomial's row is keyed by its
exponent tuples, and the one monomial list is the bucket profiles
(invariant_space).  _product_echelon adds the rows of a degree's
products of generators (_generator_products: each one lower product
times one generator) in order to one Echelon, row i tagged {i: 1}, which
the quotient by decomposables (a candidate is picked when it does not
reduce to zero against it and those picked before it), the relations
(the tags of the rows that vanish, lower ones lifted by shifting
exponents) and rewrite_in_generators (one part of q per power of eps and
degree) share.  A pick is span membership and a tag or coefficient is
unique, so none depends on where the pivots fall.  A CallMemo, owned by
one top-level call (indecomposable_generators, or one bracket table),
keeps what the call shares; nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import add

import numpy as np

from .scalars import (CZERO, ZERO, CScalar, cmat_mul, from_ints, neg_ints,
                      scale_ints, submul_ints)
from .poly import DEGREE_CAP, Polynomial
from .exact_linalg import Echelon, rref_ints, solve_in_span

_I = CScalar.i()
# a weight sum_r n_r e_r of a monomial of degree at most DEGREE_CAP, so
# |n_r| <= DEGREE_CAP, as the one int sum_r n_r _BASE^r
_BASE = 2 * DEGREE_CAP + 3


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

    products: generator exponent tuple -> Polynomial (_product);
    echelons: (degree, len(gens)) -> the combos and the tagged Echelon,
    rows keyed by exponent, of the degree's generator products
    (_product_echelon), both valid for one gens that only grows; split
    (_weight_split) and kernels (active blocks' degrees -> invariants, see
    invariant_space), valid for one (alg, sub, variables).  It keeps no
    monomial list."""

    def __init__(self):
        self.products = {}
        self.echelons = {}
        self.kernels = {}
        self.split = None


def _operator_terms(alg, sub, var_indices):
    """{j: [(k_pos, i_pos, coeff.ints)]}: the terms C x_k d/dx_i of each
    L_j on the variables, by their positions in var_indices."""
    pos = {v: p for p, v in enumerate(var_indices)}
    ops = {}
    for j in sub.a_indices:
        terms = []
        for (jj, k, i), c in alg.structure.items():
            if jj == j and k in pos and i in pos:
                terms.append((pos[k], pos[i], c.ints))
        ops[j] = terms
    return ops


def _weight_split(alg, sub, var_indices):
    """(pieces, planes, roots, block, active).  A variable is diagonal, of
    weight 0, or one of x_a, x_b (a first) on a pair (r, c), r < c, with
    M[r, c] = c_a (x_a + t x_b), t = +-i, of weight e_r - e_c: planes lists
    (a, b, t as +-1, weight).  block numbers, by first variable, the finest
    partition that the L_j join, active the blocks they touch; pieces lists
    per active block (its place n in active) (n, v, None, 0) per diagonal
    variable, (n, a, b, weight) per plane; roots (weight, L_j) per root
    plane of a, j its first element.  A ValueError refuses an a without
    the diagonal torus and basis elements that are not one root plane."""
    rep, pairs = alg.matrix_rep, alg.entry_pairs
    diagonal = {i for i, p in enumerate(pairs) if all(r == c for r, c in p)}
    if len(diagonal.intersection(sub.a_indices)) < len(rep[0]) - 1:
        raise ValueError(f"a of {alg.name} does not hold its diagonal torus")
    on_pair = {}
    for i in sorted(set(range(len(pairs))) - diagonal):
        on_pair.setdefault(pairs[i], []).append(i)
    pos = {v: p for p, v in enumerate(var_indices)}
    ops = _operator_terms(alg, sub, var_indices)
    planes, roots = [], []
    for pair, members in on_pair.items():
        (r, c), a, b = pair[0], members[0], members[-1]
        t = [s for s in (1, -1) if rep[b][r][c] == rep[a][r][c] * _I * s]
        if len(pair) != 1 or len(members) != 2 or not t:
            labels = ", ".join(alg.labels[i] for i in members)
            raise ValueError(f"basis elements {labels} of {alg.name} are "
                             f"not one root plane in the ratio i or -i")
        weight = _BASE ** r - _BASE ** c
        if a in pos:
            planes.append((pos[a], pos[b], t[0], weight))
        if a in ops:
            roots.append((weight, ops[a]))
    block = list(range(len(var_indices)))
    for k, i, _ in (term for terms in ops.values() for term in terms):
        block = [block[k] if x == block[i] else x for x in block]
    number = {}
    block = [number.setdefault(x, len(number)) for x in block]
    active = sorted({block[v] for terms in ops.values()
                     for k, i, _ in terms for v in (k, i)})
    plane_of = {a: (b, weight) for a, b, _, weight in planes}
    seconds = {b for b, _ in plane_of.values()}
    pieces = [(n, v, *plane_of.get(v, (None, 0))) for n, x in enumerate(active)
              for v in range(len(block)) if block[v] == x and v not in seconds]
    return pieces, planes, roots, block, active


def _exponents_of_weight(pieces, degrees, nvars, target):
    """The exponent tuples of weight target with the degrees on the active
    blocks: a plane (a, b) of weight beta holds the powers p, q of w and
    conj(w) at a, b and weighs (p - q) beta; the last plane's is solved."""
    out = []
    expo = [0] * nvars
    end = len(pieces) - 1

    def rec(k, left, weight):
        block, a, b, beta = pieces[k]
        if k == 0 or pieces[k - 1][0] != block:
            left = degrees[block]
        last = k == end or pieces[k + 1][0] != block
        for d in (left,) if last else range(left + 1):
            if b is None:
                expo[a] = d
                if k < end:
                    rec(k + 1, left - d, weight)
                elif weight == target:
                    out.append(tuple(expo))
            elif k == end:
                n, rest = divmod(target - weight, beta)
                if not rest and abs(n) <= d and (n + d) % 2 == 0:
                    expo[a], expo[b] = (d + n) // 2, (d - n) // 2
                    out.append(tuple(expo))
            else:
                for p in range(d + 1):
                    expo[a], expo[b] = p, d - p
                    rec(k + 1, left - d, weight + (2 * p - d) * beta)

    rec(0, 0, 0)
    return out


@lru_cache(maxsize=None)
def _binomial_terms(p, q):
    """(j, K_j) per nonzero coefficient K_j of y^j in (1 + y)^p (1 - y)^q."""
    coeffs = [1]
    for s in [1] * p + [-1] * q:  # times 1 + s y
        coeffs = [a + s * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple((j, k) for j, k in enumerate(coeffs) if k)


def _real_parts(exponents, planes):
    """The nonzero real and imaginary parts, int rows {exponent: ints}, of
    the monomials of the exponents, one per conjugate pair (the first plane
    with p != q has p > q): (x_a + t x_b)^p (x_a - t x_b)^q is sum_j K_j t^j
    x_a^(p+q-j) x_b^j, one real monomial per j, real or imaginary by t^j."""
    rows = []
    for e in exponents:
        if next((e[a] < e[b] for a, b, *_ in planes if e[a] != e[b]), 0):
            continue
        parts = ({}, {})
        for combo in product(*[[(a, b, e[a] + e[b] - j, j, t * j, k)
                                for j, k in _binomial_terms(e[a], e[b])]
                               for a, b, t, _ in planes]):
            expo, phase, coeff = list(e), 0, 1
            for a, b, ea, eb, s, k in combo:
                expo[a], expo[b] = ea, eb
                phase += s
                coeff *= k
            phase %= 4  # i^phase: 1, i, -1, -i
            parts[phase % 2][tuple(expo)] = (coeff if phase < 2 else -coeff,
                                             0, 1)
        rows += [part for part in parts if part]
    return rows


def _bucket_kernel(degrees, split):
    """The invariants of the bucket with the degrees on the active blocks
    in nullspace's form: by ascending free column (lowest exponent), each
    {exponent: Scalar} with its terms descending.  Per root plane of a,
    of root alpha, the invariants of T and its su(2) number the monomials
    of weight 0 less those of weight alpha, so an equal count proves the
    bucket empty; else the root operators' kernel on the T-invariants is
    it ([H, X] is a multiple of Y for an H in t)."""
    pieces, planes, roots, block, _ = split
    zero = _exponents_of_weight(pieces, degrees, len(block), 0)
    if not zero or any(len(_exponents_of_weight(pieces, degrees, len(block),
                                                 alpha)) == len(zero)
                       for alpha, _ in roots):
        return []
    vectors = _real_parts(zero, planes)
    if roots:  # each vector is the tag of its row of images
        echelon = Echelon()
        for vec in vectors:
            row = {}
            for n, (_, terms) in enumerate(roots):
                for (e, y), (k, i, c) in product(vec.items(), terms):
                    if e[i]:  # C x_k d/dx_i moves a power of x_i to x_k
                        key = (n, tuple(x + (v == k) - (v == i)
                                        for v, x in enumerate(e)))
                        row[key] = submul_ints(row.get(key), neg_ints(c),
                                               scale_ints(y, e[i]))
            echelon.add({key: x for key, x in row.items()
                         if x != ZERO.ints}, vec)
        vectors = echelon.kernel
    # a row read makes at most one pivot: len(vectors) stops nothing early
    _, reduced = rref_ints(vectors, len(vectors))
    return [{e: from_ints(x) for e, x in sorted(row.items(), reverse=True)}
            for row in reversed(reduced)]


def invariant_space(alg, sub, degree, restrict_to_m=True, memo=None):
    """Exact basis of the joint kernel of the L_j on degree-k polynomials,
    a list of Polynomials: per bucket, in ascending multidegree over the
    blocks of _weight_split, its invariants.  memo, the CallMemo of one
    call over this alg, sub and restrict_to_m (a fresh one by default),
    keeps the split and each kernel under the active blocks' degrees, for
    the buckets that differ in inert exponents, times their monomial."""
    if degree > DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    memo = CallMemo() if memo is None else memo
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    if memo.split is None:
        memo.split = _weight_split(alg, sub, var_indices)
    block, active = memo.split[3:]
    basis = []
    for profile in reversed(monomials_of_degree(max(block) + 1, degree)):
        key = tuple(profile[b] for b in active)
        kernel = memo.kernels.get(key)
        if kernel is None:
            kernel = memo.kernels[key] = _bucket_kernel(key, memo.split)
        shift = [0 if b in active else profile[b] for b in block]
        basis += [Polynomial(names, {tuple(map(add, e, shift)): x
                                     for e, x in vec.items()}) for vec in kernel]
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


def _poly_to_row(poly):
    """The sparse coefficient row {exponent tuple: coeff.ints} of poly."""
    return {expo: c.ints for expo, c in poly.terms.items()}


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
        _, products = _product_echelon(gens, names, d, memo)
        picked = _greedy_complete(products, [_poly_to_row(p) for p in basis])
        for rank_in_degree, idx in enumerate(picked, start=1):
            gens.append((f"q{d}_{rank_in_degree}", basis[idx], d))

    relations = _generator_relations(gens, names, max_degree, memo)
    return GeneratorSet(generators=gens, relations=relations, dims=dims)


def _generator_products(gens, names, degree, memo):
    """(combos, rows) of the products of generators of the weighted
    degree: the exponent tuples over gens (a list of (name, Polynomial
    over names, degree)) as listed by _monomials_in_generators, and the
    int row of each product keyed by its exponent tuples over names.
    memo is the CallMemo of one top-level computation on one growing
    gens."""
    combos = _monomials_in_generators(gens, degree)
    rows = [_poly_to_row(_product(gens, combo, memo.products) if any(combo)
                         else Polynomial.const(names, 1))
            for combo in combos]
    return combos, rows


def _product_echelon(gens, names, degree, memo):
    """(combos, echelon) of the generator products of the weighted
    degree: combos as _generator_products lists them, and the Echelon of
    the product rows, keyed by exponent, added in the order of combos, row
    i tagged {i: 1}, so its kernel holds the linear relations among the
    products.  Kept in memo under (degree, len(gens)), for the generator
    completion, the relations and the rewrites of one call to share."""
    key = (degree, len(gens))
    entry = memo.echelons.get(key)
    if entry is None:
        combos, rows = _generator_products(gens, names, degree, memo)
        entry = combos, Echelon(rows, tagged=True)
        memo.echelons[key] = entry
    return entry


def rewrite_in_generators(q, gens, memo=None):
    """Rewrite q (over m-vars + eps) as a polynomial in named generators.

    gens is a list of (name, Polynomial over the m-vars, degree); q is
    split once into its parts of one power of eps and one degree in the
    m-vars, and each part, a row keyed by its m-exponents, is reduced
    against the echelon of the generator monomials of that degree.
    Returns the rewritten polynomial over (gen names..., "eps"), or None
    if q is not expressible.  memo is the CallMemo of the generator
    products and their echelons, shared by the rewrites of one bracket
    table.
    """
    memo = CallMemo() if memo is None else memo
    m_names = gens[0][1].vars
    parts = {}
    for expo, coeff in q.terms.items():
        parts.setdefault((expo[-1], sum(expo[:-1])), {})[expo[:-1]] = coeff
    terms = {}
    for (e_eps, deg), part in sorted(parts.items()):
        combos, products = _product_echelon(gens, m_names, deg, memo)
        coeffs = solve_in_span({e: c.ints for e, c in part.items()}, products)
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
        combos, products = _product_echelon(gens, names, d, memo)
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
