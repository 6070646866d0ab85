"""Commutants, Casimirs and the shift-restriction map.

The commutant S(g)^a is computed degree by degree as the joint kernel of the
coadjoint derivations

    L_j = sum_{k,i} C_jk^i x_k d/dx_i,       j in a_indices,

acting on homogeneous polynomials.  Kernels are exact (Gaussian elimination
over Q(sqrt2, sqrt3)); monomials are grouped into blocks preserved by all
L_j (the finest variable partition closed under the operators), which keeps
the elimination small.  Every row handed to exact_linalg is a sparse row
of integral representations {column: Scalar.ints}: the operator rows are
built on the ints of their entries, and _poly_to_row reads a polynomial's.
One builder, _generator_products, makes the rows of a degree's products of
generators for the quotient by decomposables, the relations and the
bracket table's rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .scalars import CZERO, ZERO, _reduce, cmat_mul, submul_ints
from .poly import Polynomial
from .exact_linalg import nullspace, rref_ints, transposed
from .algebra import SubalgebraSpec


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the degree, in descending lexicographic order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.append(tuple(expo))
    return out


@dataclass
class InvariantBasis:
    subalgebra: SubalgebraSpec
    degree: int
    basis: list  # list of Polynomial

    @property
    def dim(self):
        return len(self.basis)


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


def _monomial_buckets(ops, nvars, degree):
    """Buckets of the degree's monomials that every L_j preserves: equal
    multidegree over the finest variable partition closed under the terms,
    blocks numbered by first variable, buckets in ascending multidegree."""
    parent = list(range(nvars))

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
    block_of = [number.setdefault(find(v), len(number)) for v in range(nvars)]
    buckets = {}
    for expo in monomials_of_degree(nvars, degree):
        profile = [0] * len(number)
        for v, e in enumerate(expo):
            profile[block_of[v]] += e
        buckets.setdefault(tuple(profile), []).append(expo)
    return [buckets[profile] for profile in sorted(buckets)]


def _operator_rows(ops, bucket):
    """Rows {source index: reduced ints} of the stacked L_j on a bucket, one
    per operator and target: C x_k d/dx_i maps a source with exponent e in
    x_i to its target with entry C * e, summed per pair, zeros dropped."""
    index = {e: i for i, e in enumerate(bucket)}
    rows = []
    for terms in ops.values():
        per_target = {}
        for src, expo in enumerate(bucket):
            for kpos, ipos, (c0, c1, c2, c3, cd) in terms:
                e = expo[ipos]
                if e == 0:
                    continue
                new = list(expo)
                new[ipos] -= 1
                new[kpos] += 1
                row = per_target.setdefault(index[tuple(new)], {})
                val = _reduce(c0 * e, c1 * e, c2 * e, c3 * e, cd)
                if src in row:  # one more diagonal term x_k d/dx_k: add
                    val = submul_ints(row.pop(src), (-1, 0, 0, 0, 1), val)
                if val != ZERO.ints:
                    row[src] = val
        rows.extend(r for r in per_target.values() if r)
    return rows


def invariant_space(alg, sub, degree, restrict_to_m=True):
    """Exact basis of the joint kernel of the L_j on degree-k polynomials."""
    from .poly import DEGREE_CAP
    if degree > DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    ops = _operator_terms(alg, sub, var_indices)
    basis = []
    for bucket in _monomial_buckets(ops, len(var_indices), degree):
        for vec in nullspace(_operator_rows(ops, bucket), len(bucket)):
            terms = {bucket[c]: x for c, x in vec.items()}
            basis.append(Polynomial(names, terms))
    return InvariantBasis(subalgebra=sub, degree=degree, basis=basis)


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


def _greedy_complete(span_rows, candidates, ncols):
    """Indices of candidates that enlarge the span, in order: candidate k
    does exactly when it is a pivot column of the matrix whose columns are
    the span rows, then the candidates."""
    columns = list(span_rows) + list(candidates)
    pivots, _ = rref_ints(transposed(columns, ncols), len(columns))
    offset = len(span_rows)
    return [p - offset for p in pivots if p >= offset]


def indecomposable_generators(alg, sub, max_degree, restrict_to_m=True):
    """Per-degree quotient of the invariant spaces by products of lower gens."""
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    gens = []  # (name, Polynomial, degree)
    dims = {}

    for d in range(1, max_degree + 1):
        inv = invariant_space(alg, sub, d, restrict_to_m)
        dims[d] = inv.dim
        if not inv.basis:
            continue
        # span of all products of existing generators with total degree d;
        # every generator so far has degree below d, so every such
        # product has at least two factors
        _, prod_rows, mono_index = _generator_products(gens, names, d)
        cand_rows = [_poly_to_row(p, mono_index) for p in inv.basis]
        picked = _greedy_complete(prod_rows, cand_rows, len(mono_index))
        for rank_in_degree, idx in enumerate(picked, start=1):
            gens.append((f"q{d}_{rank_in_degree}", inv.basis[idx], d))

    relations = _generator_relations(gens, names, max_degree)
    return GeneratorSet(generators=gens, relations=relations, dims=dims)


def _generator_products(gens, names, degree):
    """(combos, rows, mono_index) of the products of generators of the
    weighted degree: the exponent tuples over gens (a list of (name,
    Polynomial over names, degree)) as listed by _monomials_in_generators,
    the int row of each product over the degree's monomials, and the
    index of those monomials."""
    combos = _monomials_in_generators(gens, degree)
    mono_index = {e: i for i, e in
                  enumerate(monomials_of_degree(len(names), degree))}
    rows = []
    for combo in combos:
        poly = Polynomial.const(names, 1)
        for (_, gp, _), k in zip(gens, combo):
            for _ in range(k):
                poly = poly * gp
        rows.append(_poly_to_row(poly, mono_index))
    return combos, rows, mono_index


def _generator_relations(gens, names, max_degree):
    """Minimal linear relations among generator monomials, degree by degree."""
    gen_vars = tuple(name for name, _, _ in gens)
    relations = []

    for d in range(2, max_degree + 1):
        combos, rows, mono_index = _generator_products(gens, names, d)
        if len(combos) < 2:
            continue
        # kernel of the transpose system: coefficient vectors over combos
        kernel = nullspace(transposed(rows, len(mono_index)), len(combos))
        if not kernel:
            continue
        # quotient by relations lifted from lower degrees
        lifted_rows = _lift_relations(relations, gens, gen_vars, combos, d)
        picked = _greedy_complete(
            lifted_rows,
            [{i: c.ints for i, c in vec.items()} for vec in kernel],
            len(combos))
        for idx in picked:
            terms = {combos[i]: c for i, c in kernel[idx].items()}
            relations.append(Polynomial(gen_vars, terms))
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


def _lift_relations(relations, gens, gen_vars, combos, degree):
    """Int coefficient rows of (lower relation) * (generator monomial)."""
    combo_index = {e: i for i, e in enumerate(combos)}
    rows = []
    for rel in relations:
        rel_deg = max(sum(k * gens[i][2] for i, k in enumerate(expo))
                      for expo in rel.terms)
        gap = degree - rel_deg
        if gap < 0:
            continue
        for mult in _monomials_in_generators(gens, gap):
            row = {}
            for expo, coeff in rel.terms.items():
                shifted = tuple(a + b for a, b in zip(expo, mult))
                idx = combo_index.get(shifted)
                if idx is None:
                    row = None
                    break
                row[idx] = row.get(idx, ZERO) + coeff
            if row:
                row = {i: c.ints for i, c in row.items() if not c.is_zero()}
                if row:
                    rows.append(row)
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
    pos = {i: p for p, i in enumerate(m_idx)}

    def zpoly(k):
        row = alg.extras["z_rows"][k]
        re = Polynomial.zero(names)
        im = Polynomial.zero(names)
        for i, c in enumerate(row):
            if c.is_zero():
                continue
            if not c.re.is_zero():
                re = re + Polynomial.var(names, names[pos[i]], c.re)
            if not c.im.is_zero():
                im = im + Polynomial.var(names, names[pos[i]], c.im)
        return re, im

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
    """Numeric rank of a matrix: singular values above 1e-10 * the largest."""
    s = np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)
    if s.size == 0 or s.max() == 0.0:
        return 0
    return int((s > 1e-10 * s.max()).sum())


def independence_rank(polys, point):
    """Numeric rank of the Jacobian of a polynomial family at a point."""
    return numeric_rank([p.gradient(point) for p in polys])


def casimir_count(alg, point):
    """dim g - rank(A) with rows A_i = [e_i, x] = sum_j C_ij^. x_j at the
    point (the Lie-Poisson matrix up to sign on an orthonormal basis)."""
    x = np.asarray([float(c) for c in point], dtype=float)
    return alg.dim - numeric_rank(alg.ad_matrices() @ x)
