"""Oracles and helpers shared by the test modules (not collected).

* ``moment_of_direction``: the moment coordinate along a direction eta,
  a function the package itself never builds;
* ``moment_map``, ``slice_map``, ``adjoint_group`` and ``group_inverse``:
  the moment and slice maps, Ad(g) on coordinates and the inverse of a
  group element, each through a validated GroupElement or PhasePoint;
* ``phase_tangent_basis``: the tangent basis directions as (v, w) pairs,
  which the per-direction routes step through;
* ``project_m`` and ``fiber_velocity``: the fiber velocity
  -1/2 [v, X]_m + w of one tangent (v, w) through the float bracket
  ``np_bracket``, independent of the tangent images and the Poisson
  tensor that ``phase.solve_field`` and ``angles.flow_step`` read;
* ``omega_eps``, ``symbolic_bracket`` and ``slice_bracket_value``: the
  magnetic form on two tangents, and the twisted bracket by the block
  shortcuts (Lie-Poisson on moment pairs, the slice formula on slice
  pairs, zero on mixed pairs after an exact invariance test), which
  ``phase.twisted_bracket``'s Poisson-tensor route must reproduce;
* ``per_direction_differential``: df on one tangent (v, w) from its own
  fiber and moment velocities and per-partial gradients, independent of
  the stacked tangent images and the one-pass gradient;
* ``parse_algebra_text``: the reader of ``LieAlgebraSpec.serialize``,
  for its round trip;
* ``stage_projected_flow_step``: the partner flows' own RK4 loop, which
  evaluated the full field at (g, X) and projected every stage.  Unlike
  ``angles.flow_step`` it integrates any integral function, also one
  whose field depends on g;
* ``pairing_by_points``: the angle-action pairing at one point with one
  partner flow per action and sign, the angle difference as one
  matrix-vector product and the rescaling by one solve or dot product,
  which the rows of the batched ``angles.angle_action_pairing`` must
  reproduce bit for bit;
* ``slice_bracket_by_substitution``: the exact slice bracket from the
  B-gradients over every coordinate, read at X in m by substitution,
  which ``phase.slice_bracket_symbolic``'s partials on m must reproduce;
* ``selection_systems``, ``ad_matrix_by_structure``,
  ``lie_poisson_by_structure``, ``slice_bracket_by_structure`` and
  ``a_matrix_by_structure``: the three centralizer selections as
  systems, and the exact brackets each by its own loop over the
  structure constants, which the routes through
  ``LieAlgebraSpec.bracket_coords`` (``centralizer_of``'s ad_W,
  ``poly.lie_poisson_bracket``, ``phase.slice_bracket_symbolic`` and
  ``certify.a_matrix_exact``) must reproduce;
* ``generator_products_by_chain``: the products of generators, each
  chained from 1 one factor at a time, which the memoized
  ``invariants._generator_products`` must reproduce;
* ``rref_by_scalars``, ``greedy_complete_by_rank`` and
  ``monomials_by_recursion``: the exact elimination on Scalar entries with
  the first available row as pivot, the generator-basis completion by one
  rank test per candidate, and the recursive monomial enumeration, which
  ``exact_linalg.rref``, ``invariants._greedy_complete`` and
  ``invariants.monomials_of_degree`` must reproduce;
* ``invariant_space_by_operator_rows``, with ``reduced_operators``,
  ``monomial_buckets``, ``operator_moves`` and ``operator_rows``: the
  commutant by elimination, the nullspace of the int rows of the reduced
  coadjoint derivations on each monomial bucket, which the weight route
  of ``invariants.invariant_space`` must reproduce term for term;
* ``operator_rows_by_scalars``: the rows of the stacked coadjoint
  derivations on a bucket of monomials, one Scalar product per operator
  term and a Scalar sum per (target, source) pair, which the int rows of
  ``operator_rows`` must reproduce;
* ``solve_in_span_dense``: span membership on dense vectors, checked by
  recombining every entry, which the sparse
  ``exact_linalg.solve_in_span`` must reproduce;
* ``transposed``: the sparse rows of the matrix whose columns are given
  sparse vectors, so that the kernel of a row combination (the
  ``nullspace`` of the transposed rows) and a span solve by columns are
  the oracles of the tags that ``exact_linalg.Echelon`` tracks;
* ``sum_by_loop``, ``negation_by_loop``, ``product_by_loop``,
  ``derivative_by_loop``, ``extension_by_loop`` and
  ``substitution_by_loop``: the polynomial ring operations by their
  term loops, each result built through the validating
  ``Polynomial(vars, terms)``, whose term maps (their insertion order
  included) the ring operations of ``poly`` must reproduce;
* ``reference_float_evaluate``, ``cubic_relation_by_points`` and
  ``phi_relation_by_points``: a polynomial's float value term by term in
  Python floats, and the sampled cubic and Phi relations one point at a
  time on it, which ``Polynomial.evaluate_stack`` and the stacked sample
  loops of ``certify`` must reproduce bit for bit;
* ``point_by_exp_map`` and ``regular_point_by_exp_map``: a random phase
  point built alone, by one exp_map of its seed and a validated
  PhasePoint, which the rows of ``MagneticSystem.points_of`` must
  reproduce bit for bit;
* ``bracket_samples_by_points``, ``pi1_rank_samples_by_points`` and
  ``dimension_report_by_points``: the bracket samples, the pi1 rank
  samples and the dimension ledger one point at a time, each point
  built alone and each bracket one ``twisted_bracket``, which the
  stacked checks of ``certify`` must reproduce bit for bit;
* ``closed_form_fiber_by_exp_map``: the Lax form X(t) = Ad(exp(-t eps
  W)) X(0) by one exp_map of a coordinate vector per time, which
  ``phase.closed_form_fiber``'s spectral form must reproduce within
  roundoff;
* ``add_with_verdict``: a certificate line appended with its verdict
  stated by hand, so that the oracles' explicit verdicts cross-check the
  rule that ``CertificateReport.add`` reads off the evidence.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul

import numpy as np

from su3mag.algebra import (GroupElement, build_su2, exp_map, polar_project,
                            regularity)
from su3mag.certify import (NUM_TOL, CertificateReport, CheckResult,
                            action_functions, center_family,
                            generator_family, jacobian_rank_pi1,
                            phase_jacobian, _plain)
from su3mag.invariants import (independence_rank, numeric_rank,
                               radial_generator, restrict_shift,
                               shift_images, torus_generators,
                               monomials_of_degree, _monomials_in_generators,
                               _operator_terms, _poly_to_row)
from su3mag.phase import (MagneticSystem, MomentPullback, PhasePoint,
                          hamiltonian_vector_field, slice_z_values,
                          su3_irregular_system, su3_regular_system,
                          twisted_bracket, _invariant_under)
from su3mag.poly import Polynomial, b_gradient, lie_poisson_bracket
from su3mag.exact_linalg import nullspace, rref_ints
from su3mag.scalars import (ONE, ZERO, Scalar, from_ints, neg_ints,
                            parse_scalar, scale_ints, submul_ints)


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


def closed_form_fiber_by_exp_map(sys, pt0, t):
    """Coordinates of Ad(exp(-t eps W)) X(0) at one time t."""
    return adjoint_group(sys.alg, exp_map(sys.alg, -t * sys.eps * sys.W),
                         pt0.X)


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


def project_m(sys, coords):
    """coords with the components on a set to zero, row by row for a
    stack."""
    out = coords.copy()
    out[..., sys.a] = 0.0
    return out


def fiber_velocity(sys, pt, v, w):
    """dX = -1/2 [v, X]_m + w, the fiber velocity of the tangent (v, w),
    or row by row for a stack of points and tangents."""
    return -0.5 * project_m(sys, sys.alg.np_bracket(v, pt.X)) + w


@lru_cache(maxsize=None)
def _partials(p):
    """The exact partial derivatives of p, one per variable."""
    return [p.diff(x) for x in p.vars]


def per_direction_differential(fn, sys, pt, v, w):
    """df at pt applied to the tangent (v, w): its fiber velocity dX, for
    a moment pullback its moment velocity dP = Ad(g)([v, xi] + dX), each
    paired with the partials of the polynomial evaluated one by one."""
    alg = sys.alg
    dX = fiber_velocity(sys, pt, v, w)
    if fn.tag == "moment":
        g = pt.G
        Mdot = alg.matrix_of(alg.np_bracket(v, pt.xi) + dX)
        dP = alg.coords_of_matrix(g @ Mdot @ g.conj().T)
        P = pt.moment_coords
        return sum(float(gr.evaluate(P)) * dP[i]
                   for i, gr in enumerate(_partials(fn.h)) if gr.terms)
    xi_m = pt.xi[sys.m]
    return sum(float(gr.evaluate(xi_m)) * dX[sys.m[i]]
               for i, gr in enumerate(_partials(fn.theta)) if gr.terms)


def omega_eps(sys, vw1, vw2):
    """The magnetic symplectic form in the (v, w) parametrization."""
    v1, w1 = vw1
    v2, w2 = vw2
    alg = sys.alg
    return float(np.dot(w2, v1) - np.dot(w1, v2)
                 - sys.eps * np.dot(sys.W, alg.np_bracket(v1, v2)))


def symbolic_bracket(sys, f, h, pt):
    """{f, h}_eps at pt by the block shortcuts: the moment pullback is
    Poisson for the Lie-Poisson bracket, the slice pullback obeys
    {theta1, theta2}_2(xi) = -B(xi, [grad1_m, grad2_m]) and mixed brackets
    vanish.  A mixed bracket raises ValueError unless its slice function
    is Ad(A)-invariant, which is decided exactly."""
    alg = sys.alg
    if f.tag == "moment" and h.tag == "moment":
        return float(lie_poisson_bracket(f.h, h.h, alg)
                     .evaluate(pt.moment_coords))
    if f.tag == "slice" and h.tag == "slice":
        return slice_bracket_value(sys, f.theta, h.theta, pt)
    if {f.tag, h.tag} == {"moment", "slice"}:
        theta = f.theta if f.tag == "slice" else h.theta
        if not _invariant_under(theta, alg, tuple(sys.a)):
            raise ValueError("slice function is not A-invariant")
        return 0.0
    raise TypeError("untagged integral function in symbolic bracket")


def slice_bracket_by_substitution(sys, theta1, theta2):
    """{theta1, theta2}_2 as an exact polynomial over (m-vars..., "eps"):
    the B-gradients over every coordinate, their bracket comm over all
    coordinates, read at X in m by substituting the shift images at eps
    = 0, then -B(xi, comm) with xi = X - eps W."""
    alg = sys.alg
    names = alg.coord_names
    evars = sys.m_names() + ("eps",)
    g1, g2 = (b_gradient(t.extend(names), alg) for t in (theta1, theta2))
    comm = [Polynomial.zero(names) for _ in range(alg.dim)]
    for (i, j, k), c in alg.structure.items():
        p, q = g1[i], g2[j]
        if p.is_zero() or q.is_zero():
            continue
        comm[k] = comm[k] + p * q * c
    images = shift_images(sys, evars, eps=0)
    out = Polynomial.zero(evars)
    for xi, c in zip(shift_images(sys, evars), comm):
        if c.is_zero() or xi.is_zero():
            continue
        out = out + xi * c.substitute(images=images, target_vars=evars)
    return -out


def selection_systems():
    """The systems of the three centralizer selections: su(3) over its
    torus (the regular case), su(3) over S(U(2)xU(1)) (the irregular
    case) and su(2) over its torus, W = e_x."""
    return [su3_regular_system(0.1), su3_irregular_system(0.1),
            MagneticSystem(build_su2(), [1, 0, 0], 0.1, "su2")]


def ad_matrix_by_structure(alg, w):
    """The matrix of ad_W over Scalars, (ad_W)[k][j] = sum_i w_i C_ij^k,
    for an exact coordinate vector w."""
    n = alg.dim
    M = [[Scalar(0)] * n for _ in range(n)]
    for (i, j, k), c in alg.structure.items():
        wi = Scalar.of(w[i])
        if not wi.is_zero():
            M[k][j] = M[k][j] + wi * c
    return M


def lie_poisson_by_structure(p, q, alg):
    """{p, q} = sum C_ij^k x_k dp/dx_i dq/dx_j, one product per nonzero
    structure constant."""
    names = alg.coord_names
    dp = [p.diff(v) for v in names]
    dq = [q.diff(v) for v in names]
    out = Polynomial.zero(names)
    for (i, j, k), c in alg.structure.items():
        if dp[i].is_zero() or dq[j].is_zero():
            continue
        xk = Polynomial.var(names, names[k], c)
        out = out + xk * dp[i] * dq[j]
    return out


def slice_bracket_by_structure(sys, theta1, theta2):
    """{theta1, theta2}_2 over (m-vars..., "eps") from the partials on m:
    their bracket comm summed term by term over the structure constants,
    then -B(xi, comm) with xi = X - eps W."""
    alg = sys.alg
    m_names = sys.m_names()
    evars = m_names + ("eps",)
    zero = Polynomial.zero(m_names)
    on_m = dict(zip(sys.m, m_names))
    d1, d2 = ([t.diff(on_m[i]) if i in on_m else zero for i in range(alg.dim)]
              for t in (theta1.extend(m_names), theta2.extend(m_names)))
    comm = [zero] * alg.dim
    for (i, j, k), c in alg.structure.items():
        p, q = d1[i], d2[j]
        if p.is_zero() or q.is_zero():
            continue
        comm[k] = comm[k] + p * q * c
    out = Polynomial.zero(evars)
    for xi, c in zip(shift_images(sys, evars), comm):
        if c.is_zero() or xi.is_zero():
            continue
        out = out + xi * c.extend(evars)
    return -out


def a_matrix_by_structure(sys, rows):
    """The matrix of u -> B([u, X], e_a) for a in rows and u over the m
    basis, X the m-coordinate variables: entry (a, j) is the sum of
    C_jk^a x_k over k in m."""
    alg = sys.alg
    m_names = sys.m_names()
    out = []
    for a in rows:
        row = []
        for j in sys.m:
            entry = Polynomial.zero(m_names)
            for (jj, k, kk), c in alg.structure.items():
                if jj == j and kk == a and k in sys.m:
                    entry = entry + Polynomial.var(
                        m_names, alg.coord_names[k], c)
            row.append(entry)
        out.append(row)
    return out


def slice_bracket_value(sys, theta1, theta2, pt):
    """{theta1, theta2}_2 at xi(pt) = -B(xi, [grad1_m, grad2_m])."""
    alg = sys.alg
    xi_m = pt.xi[sys.m]
    g1 = np.zeros(alg.dim)
    g2 = np.zeros(alg.dim)
    for i, name in enumerate(theta1.vars):
        g1[sys.m[i]] = float(theta1.diff(name).evaluate(xi_m))
    for i, name in enumerate(theta2.vars):
        g2[sys.m[i]] = float(theta2.diff(name).evaluate(xi_m))
    # orthonormal-basis gradients: already the B-duals on m
    comm = alg.np_bracket(g1, g2)
    return -float(np.dot(pt.xi, comm))


def stage_projected_flow_step(fn, sys, pt, h, nsteps=1):
    """RK4 along the Hamiltonian flow of fn, every stage's group factor
    polar-projected, each stage a validated PhasePoint."""
    alg = sys.alg
    g = pt.G.copy()
    X = pt.X.copy()

    def deriv(gm, Xv):
        p = PhasePoint(sys, GroupElement(gm), Xv)
        v, w = hamiltonian_vector_field(fn, sys, p)
        return gm @ alg.matrix_of(v), fiber_velocity(sys, p, v, w)

    for _ in range(nsteps):
        k1g, k1x = deriv(g, X)
        k2g, k2x = deriv(polar_project(g + 0.5 * h * k1g), X + 0.5 * h * k1x)
        k3g, k3x = deriv(polar_project(g + 0.5 * h * k2g), X + 0.5 * h * k2x)
        k4g, k4x = deriv(polar_project(g + h * k3g), X + h * k3x)
        g = polar_project(g + h / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g))
        X = X + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    return PhasePoint(sys, GroupElement(g), X)


def pairing_by_points(sys, pt):
    """{phi~_i, J_j}_eps at one point: per action, the flow_step of the
    point alone by +h and by -h, the angle difference L d as one
    matrix-vector product, and the rescaling by a solve against Omega
    (regular) or a dot product with Omega/|Omega|^2 (irregular)."""
    from su3mag.angles import (PAIRING_FLOW_STEP, angle_map_matrix,
                               flow_step, frequency_matrix, root_phases,
                               _nearest_branch)
    h = PAIRING_FLOW_STEP
    th0 = root_phases(sys, pt)
    L = angle_map_matrix(sys)
    Om = frequency_matrix(sys, pt)
    cols = []
    for J in action_functions(sys):
        th_p = root_phases(sys, flow_step(J, sys, pt, h, nsteps=4))
        th_m = root_phases(sys, flow_step(J, sys, pt, -h, nsteps=4))
        dphi = L @ (_nearest_branch(th_p, th0) - _nearest_branch(th_m, th0))
        if sys.case_tag == "regular":
            cols.append(np.linalg.solve(Om, dphi) / (8.0 * h))
        else:
            cols.append(np.array([float((Om / float(Om @ Om)) @ dphi)])
                        / (8.0 * h))
    return np.column_stack(cols) if len(cols) > 1 else cols[0]


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


def generator_products_by_chain(gens, names, degree):
    """(combos, rows, mono_index) of the products of generators of the
    weighted degree, each product chained from 1 by one multiplication
    per factor, generators in order, nothing shared between products."""
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


def reduced_operators(ops):
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


def monomial_buckets(ops, monomials):
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


def operator_moves(ops, nvars, degree):
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


def operator_rows(coded, bucket):
    """Rows {source index: reduced ints} of the stacked L_j on a bucket, one
    per operator and target: C x_k d/dx_i maps a source with exponent e in
    x_i to its target with entry C * e, summed per pair, zeros dropped.
    coded is operator_moves of the operators at the bucket's degree."""
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


def invariant_space_by_operator_rows(alg, sub, degree, restrict_to_m=True):
    """The commutant by elimination: the nullspace of the rows of the
    reduced operators on every monomial bucket, buckets in ascending
    multidegree, which the weight route of ``invariant_space`` must
    reproduce term for term."""
    var_indices = list(sub.m_indices) if restrict_to_m else list(range(alg.dim))
    names = tuple(alg.coord_names[i] for i in var_indices)
    ops = reduced_operators(_operator_terms(alg, sub, var_indices))
    coded = operator_moves(ops, len(var_indices), degree)
    basis = []
    for bucket in monomial_buckets(
            ops, monomials_of_degree(len(var_indices), degree)):
        for vec in nullspace(operator_rows(coded, bucket), len(bucket)):
            basis.append(Polynomial(names,
                                    {bucket[c]: x for c, x in vec.items()}))
    return basis


def transposed(vectors, length):
    """The sparse rows of the matrix whose columns are the sparse vectors."""
    rows = [{} for _ in range(length)]
    for i, vec in enumerate(vectors):
        for j, c in vec.items():
            rows[j][i] = c
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


def sum_by_loop(p, q):
    """p + q: a copy of p's terms, then q's added in q's order, a sum that
    cancels popped (a later term on that monomial goes to the end)."""
    terms = dict(p.terms)
    for expo, coeff in q.terms.items():
        acc = terms.get(expo)
        coeff = coeff if acc is None else acc + coeff
        if coeff.is_zero():
            terms.pop(expo, None)
        else:
            terms[expo] = coeff
    return Polynomial(p.vars, terms)


def negation_by_loop(p):
    """-p, term by term in p's order."""
    return Polynomial(p.vars, {e: -c for e, c in p.terms.items()})


def product_by_loop(p, q):
    """p * q: every pair of terms, p's outer, q's inner, accumulated as
    sum_by_loop does."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = terms.get(e)
            c = c1 * c2 if acc is None else acc + c1 * c2
            if c.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = c
    return Polynomial(p.vars, terms)


def derivative_by_loop(p, name):
    """dp/d(name), term by term in p's order."""
    i = p.vars.index(name)
    terms = {}
    for expo, coeff in p.terms.items():
        if expo[i]:
            e = list(expo)
            e[i] -= 1
            terms[tuple(e)] = coeff * expo[i]
    return Polynomial(p.vars, terms)


def extension_by_loop(p, variables):
    """p over the larger variable tuple, term by term in p's order."""
    variables = tuple(variables)
    terms = {}
    for expo, coeff in p.terms.items():
        e = [0] * len(variables)
        for name, k in zip(p.vars, expo):
            e[variables.index(name)] = k
        terms[tuple(e)] = coeff
    return Polynomial(variables, terms)


def substitution_by_loop(p, target_vars, images):
    """p with each variable replaced by its image: per term of p, the
    coefficient times each image k times, added to the running sum."""
    target_vars = tuple(target_vars)
    out = Polynomial.zero(target_vars)
    for expo, coeff in p.terms.items():
        term = Polynomial.const(target_vars, coeff)
        for img, k in zip(images, expo):
            for _ in range(k):
                term = product_by_loop(term, img)
        out = sum_by_loop(out, term)
    return out


def reference_float_evaluate(poly, point):
    """The float value of poly at point, term by term in ``terms`` order
    with Python floats: the float branch Polynomial.evaluate had before it
    read evaluate_stack."""
    pt = [float(x) for x in point]
    out = 0.0
    for expo, coeff in poly.terms.items():
        term = float(coeff)
        for x, k in zip(pt, expo):
            if k:
                term *= x ** k
        out += term
    return out


def cubic_relation_by_points(sys, rng, samples):
    """certify.cubic_relation_numeric one sample point at a time, each
    value through reference_float_evaluate."""
    u, _, _ = torus_generators(sys.alg)
    u123 = u[0] * u[1] * u[2]
    coords = np.zeros(sys.alg.dim)
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-1, 1, len(sys.m))
        coords[sys.m] = x
        z = slice_z_values(sys, coords)
        worst = max(worst, abs(reference_float_evaluate(u123, x)
                               - abs(z[0] * z[1] * z[2]) ** 2))
    return worst


def phi_relation_by_points(sys, rng, samples):
    """certify.phi_relation_irregular one sample point at a time, each
    value through reference_float_evaluate."""
    c2, c3 = sys.casimirs()
    eps = sys.eps
    worst = 0.0
    control = 0.0
    for _ in range(samples):
        P = sys.random_point(rng).moment_coords
        lhs = (reference_float_evaluate(c3, P)
               + 3 * eps * reference_float_evaluate(c2, P))
        worst = max(worst, abs(lhs - 3 * eps ** 3))
        control = max(control, abs(lhs - 2.9 * eps ** 3))
    return {"max_residual": worst, "negative_control_residual": control,
            "negative_control_nonzero": control > NUM_TOL}


def point_by_exp_map(sys, rng):
    """A phase point with fiber coordinates uniform in [-1, 1], built
    alone: g = exp_map of its seed, a validated GroupElement."""
    seed = rng.uniform(-1.0, 1.0, sys.alg.dim)
    g = exp_map(sys.alg, seed)
    X = np.zeros(sys.alg.dim)
    X[sys.m] = rng.uniform(-1.0, 1.0, len(sys.m))
    return PhasePoint(sys, g, X)


def regular_point_by_exp_map(sys, rng):
    """point_by_exp_map until xi is regular and the chart is safe, each
    draw built before it is tested."""
    for _ in range(500):
        pt = point_by_exp_map(sys, rng)
        if not regularity(sys.alg, pt.xi, tol=1e-3).regular:
            continue
        if sys.case_tag == "regular":
            if np.min(np.abs(slice_z_values(sys, pt.xi))) <= 1e-3:
                continue
        elif np.linalg.norm(pt.X[sys.m]) <= 1e-3:
            continue
        return pt
    raise RuntimeError("failed to sample a regular phase point")


def bracket_samples_by_points(sys, rng, samples):
    """certify.bracket_samples one point at a time: per sample a point, a
    moment pair (i, j) and a slice generator, two twisted_brackets."""
    fam = generator_family(sys)
    moments = fam[:sys.alg.dim]
    slices = fam[sys.alg.dim:]
    worst_mixed = 0.0
    worst_closure = 0.0
    for _ in range(samples):
        pt = regular_point_by_exp_map(sys, rng)
        P = pt.moment_coords
        i, j = rng.integers(0, sys.alg.dim, 2)
        br = twisted_bracket(sys, moments[i], moments[j], pt)
        expect = float(sys.alg.ad_matrices()[i, :, j] @ P)
        worst_closure = max(worst_closure, abs(br - expect))
        th = slices[rng.integers(0, len(slices))]
        worst_mixed = max(worst_mixed,
                          abs(twisted_bracket(sys, moments[i], th, pt)))
    return worst_closure, worst_mixed


def pi1_rank_samples_by_points(sys, rng, samples):
    """certify.pi1_rank_samples one point at a time."""
    return sorted({jacobian_rank_pi1(sys, regular_point_by_exp_map(sys, rng))
                   for _ in range(samples)})


def add_with_verdict(report, name, expected, observed, tolerance, passed):
    """Append a check to a CertificateReport with its own verdict, the
    values made plain as CertificateReport.add makes them."""
    report.checks.append(CheckResult(name, _plain(expected), _plain(observed),
                                     _plain(tolerance), bool(passed)))


def dimension_report_by_points(sys, rng, samples):
    """certify.dimension_report one point at a time: per point the
    independence ranks, the pi1 rank and the R0 rank."""
    report = CertificateReport(case_tag=sys.case_tag, sample_count=samples)
    n, r = sys.alg.dim, 2
    c2, c3 = sys.casimirs()
    res = [restrict_shift(c2, sys, symbolic_eps=False),
           restrict_shift(c3, sys, symbolic_eps=False)]
    if sys.case_tag == "regular":
        expect = {"s": 2, "rho": 4, "trdeg_A": 10, "trdeg_R0": 2}
        u, v, w = torus_generators(sys.alg)
        slice_family = [u[0], u[1], u[2], v, w]
    else:
        expect = {"s": 1, "rho": 1, "trdeg_A": 7, "trdeg_R0": 1}
        slice_family = [radial_generator(sys)]
    s_vals, rho_vals, trA_vals, trR_vals = [], [], [], []
    for _ in range(samples):
        pt = regular_point_by_exp_map(sys, rng)
        xi_m = pt.xi[sys.m]
        s_vals.append(independence_rank(res, xi_m))
        rho_vals.append(independence_rank(slice_family, xi_m))
        trA_vals.append(jacobian_rank_pi1(sys, pt))
        trR_vals.append(numeric_rank(
            phase_jacobian(sys, center_family(sys), pt)))
    add_with_verdict(report, "s = trdeg Im(Res_W)", expect["s"],
                     sorted(set(s_vals)), "exact",
                     set(s_vals) == {expect["s"]})
    add_with_verdict(report, "rho_A = trdeg S(m)^A", expect["rho"],
                     sorted(set(rho_vals)), "exact",
                     set(rho_vals) == {expect["rho"]})
    add_with_verdict(report, "trdeg A (pi1 rank)", expect["trdeg_A"],
                     sorted(set(trA_vals)), "exact",
                     set(trA_vals) == {expect["trdeg_A"]})
    add_with_verdict(report, "trdeg R0", expect["trdeg_R0"],
                     sorted(set(trR_vals)), "exact",
                     set(trR_vals) == {expect["trdeg_R0"]})
    phase_dim = 2 * len(sys.m)
    sums = sorted({a + b for a in trA_vals for b in trR_vals})
    add_with_verdict(report, "trdeg A + trdeg R0 = dim T*M", phase_dim,
                     sums[0] if len(sums) == 1 else sums, "exact",
                     sums == [phase_dim])
    add_with_verdict(report, "leaf dimension dim g - 3r (informational)",
                     n - 3 * r, n - 3 * r, "exact", True)
    return report
