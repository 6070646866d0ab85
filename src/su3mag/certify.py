"""Superintegrability certificates for the two su(3) chains.

Certificates are exact where the claim is exact (bracket table, cubic
relation, restriction identities, minor identities) and numeric-at-samples
where the claim is generic (Jacobian ranks, mixed-bracket vanishing,
centrality), with the tolerances fixed here once and for all.

Two classical-looking identities fail structurally and are documented:

* u3-row couplings: the consistent slice calculus yields
  {u3, v}_2 = u3 (u2 - u1) + c3 w   and   {u3, w}_2 = -c3 v.
  A naive cyclic permutation of the u1-row would predict the opposite sign
  of c3, but alpha3 = alpha1 + alpha2 is not on the same footing as the
  simple roots: every choice of root phases and labels reproduces the
  other eight entries of the cyclic ansatz exactly and these two with the
  flipped coupling, so the flip is structural.

* The irregular-case cubic relation: with an Ad(A)-fixed W (forced to be a
  multiple of the hypercharge direction once the stabilizer is fixed), the
  cubic Casimir restricted to the slice is a function of the radial
  invariant alone: Res_W(C3) = -3 eps (2 eps^2 + R).  The moment-variable
  relation is Phi(P) = C3(P) + 3 eps C2(P) - 3 eps^3 = 0 on the image cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .scalars import ZERO, Scalar
from .poly import Polynomial
from .invariants import (torus_generators, radial_generator, restrict_shift,
                         independence_rank, numeric_rank, CallMemo,
                         rewrite_in_generators, shift_images)
from .phase import (MomentPullback, SlicePullback, moment_coordinate,
                    slice_bracket_symbolic, basis_bracket,
                    basis_differential, slice_z_values)

NUM_TOL = 1e-10
# the superintegrability ledger of each case: s = trdeg Im(Res_W), rho =
# trdeg S(m)^A, trdeg A (the pi1 rank) and trdeg R0
LEDGER = {"regular": {"s": 2, "rho": 4, "trdeg_A": 10, "trdeg_R0": 2},
          "irregular": {"s": 1, "rho": 1, "trdeg_A": 7, "trdeg_R0": 1}}


def _plain(x):
    """Coerce numpy scalars and containers to plain Python values."""
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    return x


@dataclass
class CheckResult:
    name: str
    expected: object
    observed: object
    tolerance: object
    passed: bool

    def line(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: expected {self.expected}, "
                f"observed {self.observed} (tol {self.tolerance})")


@dataclass
class CertificateReport:
    case_tag: str
    checks: list = field(default_factory=list)
    sample_count: int = 0
    seed: int = 0

    def add(self, name, expected, observed, tolerance):
        """Append a check whose verdict is read off its evidence by one
        rule.  With a numeric tolerance the check passes when observed <
        tolerance (a NaN fails); with "exact" it passes when observed ==
        expected, or observed == [expected] for a measured rank set."""
        expected, observed = _plain(expected), _plain(observed)
        tolerance = _plain(tolerance)
        if tolerance == "exact":
            passed = observed == expected or observed == [expected]
        else:
            passed = observed < tolerance
        self.checks.append(CheckResult(name, expected, observed, tolerance,
                                       bool(passed)))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "case": self.case_tag,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "passed": self.passed,
            "checks": [{"name": c.name, "expected": repr(c.expected),
                        "observed": repr(c.observed),
                        "tolerance": repr(c.tolerance), "pass": c.passed}
                       for c in self.checks],
        }


def _worst(residuals):
    """max |residual| over a sample's residuals, as a Python float; NaN
    if any residual is NaN."""
    return float(np.abs(residuals).max())


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

def couplings(sys):
    """c_k = eps B(W, H_alpha_k) for the three positive roots, exact in eps.

    Returned as the Scalar factors B(W, H_alpha_k); multiply by eps for the
    numeric coupling.
    """
    torus = sys.alg.extras["torus_indices"]
    return [sum((sys.W_exact[ti] * cr[t] for t, ti in enumerate(torus)), ZERO)
            for cr in sys.alg.extras["coroots"]]


def slice_generators(sys):
    """The case's named slice generators, (name, polynomial on m) pairs.

    Regular: (u1, u2, u3, v, w); irregular: (R,).
    """
    if sys.case_tag == "regular":
        u, v, w = torus_generators(sys.alg)
        return list(zip(("u1", "u2", "u3", "v", "w"), (*u, v, w)))
    return [("R", radial_generator(sys))]


def generator_family(sys):
    """The full first-integral generator list Phi for the case.

    Regular: (P1..P8, u1, u2, u3, v, w); irregular: (P1..P8, R).
    """
    return ([moment_coordinate(sys, i) for i in range(sys.alg.dim)]
            + [SlicePullback(p, name=n) for n, p in slice_generators(sys)])


def action_functions(sys):
    """The action coordinates paired with the angles.

    Regular case: J2 = P*C2 and J3 = P*C3; irregular case: the single
    action pi*R.
    """
    c2, c3 = sys.casimirs()
    if sys.case_tag == "regular":
        return [MomentPullback(c2, name="J2"), MomentPullback(c3, name="J3")]
    return [SlicePullback(radial_generator(sys), name="pi*R")]


def center_family(sys):
    """Generators of R0: the actions, after J2 = P*C2 in the irregular case."""
    actions = action_functions(sys)
    if sys.case_tag == "regular":
        return actions
    return [MomentPullback(sys.casimirs()[0], name="J2")] + actions


# ---------------------------------------------------------------------------
# the bracket table
# ---------------------------------------------------------------------------

@dataclass
class BracketTable:
    generator_names: tuple
    entries: dict        # (i, j) -> Polynomial over generator names + eps
    matches_reference: dict  # (i, j) -> bool against the cyclic-ansatz forms


def expected_table_entries(sys):
    """Closed forms of the slice bracket table over (u1,u2,u3,v,w,eps).

    The cyclic-ansatz closed forms, except that the u3-row couplings
    carry the structurally forced sign flip (see module docstring).
    """
    gv = tuple(n for n, _ in slice_generators(sys)) + ("eps",)
    cs = couplings(sys)

    def gen(name, coeff=1):
        return Polynomial.var(gv, name, coeff)

    def cpoly(k, sign=1):
        return Polynomial.var(gv, "eps", cs[k] * sign)

    u1, u2, u3 = gen("u1"), gen("u2"), gen("u3")
    v, w = gen("v"), gen("w")
    entries = {
        ("u1", "u2"): 2 * v,
        ("u2", "u3"): 2 * v,
        ("u3", "u1"): 2 * v,
        ("u1", "v"): u1 * (u3 - u2) - cpoly(0) * w,
        ("u2", "v"): u2 * (u1 - u3) - cpoly(1) * w,
        ("u3", "v"): u3 * (u2 - u1) - cpoly(2, -1) * w,
        ("u1", "w"): cpoly(0) * v,
        ("u2", "w"): cpoly(1) * v,
        ("u3", "w"): cpoly(2, -1) * v,
        ("v", "w"): Scalar(-1) / 2 * (cpoly(2) * u1 * u2
                                      - cpoly(1) * u1 * u3
                                      - cpoly(0) * u2 * u3),
    }
    corrected = {("u3", "v"), ("u3", "w")}
    return entries, corrected


@lru_cache(maxsize=2)
def bracket_table_regular(sys):
    """Compute the slice bracket table symbolically and certify it, once
    per system (lru_cache keeps no table whose certification raised)."""
    if sys.case_tag != "regular":
        raise ValueError("the bracket table is a regular-case certificate")
    gens = [(n, p, p.degree()) for n, p in slice_generators(sys)]
    by_name = {n: p for n, p, _ in gens}
    expected, corrected = expected_table_entries(sys)
    entries = {}
    matches = {}
    residuals = {}
    memo = CallMemo()  # the generator products, built once for the table
    for (a, b), exp_poly in expected.items():
        raw = slice_bracket_symbolic(sys, by_name[a], by_name[b])
        rw = rewrite_in_generators(raw, gens, memo)
        if rw is None:
            raise AssertionError(
                f"bracket {{{a},{b}}} is not expressible in the generators; "
                f"residual {raw.text()}")
        entries[(a, b)] = rw
        diff = rw - exp_poly
        matches[(a, b)] = diff.is_zero()
        if not matches[(a, b)]:
            residuals[(a, b)] = diff
    table = BracketTable(generator_names=tuple(by_name), entries=entries,
                         matches_reference={k: (m and k not in corrected)
                                          for k, m in matches.items()})
    if residuals:
        lines = [f"{{{a},{b}}}: {r.text()}" for (a, b), r in residuals.items()]
        raise AssertionError("bracket table mismatch:\n" + "\n".join(lines))
    return table


def cubic_relation_check(alg):
    """u1 u2 u3 - v^2 - w^2 must expand to the zero polynomial exactly."""
    u, v, w = torus_generators(alg)
    return (u[0] * u[1] * u[2] - v * v - w * w).is_zero()


def cubic_relation_numeric(sys, rng, samples):
    """max |u1 u2 u3 - |z1 z2 z3|^2| over ``samples`` slice points, drawn
    uniform in [-1, 1] on m: the polynomial u1 u2 u3 against the float
    root coordinates of slice_z_values, an independent route to v^2 + w^2
    = |z1 z2 z3|^2 (v + i w = z1 z2 conj(z3))."""
    u, _, _ = torus_generators(sys.alg)
    u123 = u[0] * u[1] * u[2]
    coords = np.zeros(sys.alg.dim)
    xs, zz = [], []
    for _ in range(samples):
        x = rng.uniform(-1, 1, len(sys.m))
        coords[sys.m] = x
        z = slice_z_values(sys, coords)
        xs.append(x)
        zz.append(abs(z[0] * z[1] * z[2]) ** 2)
    return _worst(u123.evaluate_stack(xs) - zz)


# ---------------------------------------------------------------------------
# moment-image relation (irregular)
# ---------------------------------------------------------------------------

def phi_relation_irregular(sys, rng, samples=100):
    """The single cubic relation among the moment coordinates.

    On the image cone Ad(G)(m - eps W) the two Casimirs are dependent:
    Phi(P) = C3(P) + 3 eps C2(P) - 3 eps^3 vanishes identically (its
    restriction at the identity is C3 + 3 eps (2 eps^2 + R)).  Checked at
    random phase points, drawn in turn and built as one stack, plus a
    perturbed negative control.
    """
    c2, c3 = sys.casimirs()
    eps = sys.eps
    P = sys.points_of([sys.draw_point(rng)
                       for _ in range(samples)]).moment_coords
    lhs = c3.evaluate_stack(P) + 3 * eps * c2.evaluate_stack(P)
    worst = _worst(lhs - 3 * eps ** 3)
    control = _worst(lhs - 2.9 * eps ** 3)
    return {"max_residual": worst, "negative_control_residual": control,
            "negative_control_nonzero": control > NUM_TOL}


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _casimir_restrictions(sys):
    """(Res_W C2, Res_W C3) at the system's float eps, exact polynomials
    over the m-coordinates, built once per system for center_check and
    dimension_report."""
    return tuple(restrict_shift(c, sys, symbolic_eps=False)
                 for c in sys.casimirs())


def center_check(sys, rng, samples=50):
    """R0 elements Poisson-commute with every generator; identifications hold.

    J2 = P*C2 and (regular) J3 = P*C3 are checked against every generator
    of the case's joint family at random regular points, along with the
    pointwise identifications P*C = pi*(Res_W C).  The points are drawn
    in turn and built as one stack (MagneticSystem.points_of); the
    brackets are one basis_bracket of the centres' Jacobian with the
    generators' over the stack, and each identification one evaluation
    over it.
    """
    report = CertificateReport(case_tag=sys.case_tag, sample_count=samples)
    gens = generator_family(sys)
    centers = center_family(sys)
    c2, c3 = sys.casimirs()
    res2, res3 = _casimir_restrictions(sys)
    pts = sys.points_of([sys.draw_regular_point(rng)
                         for _ in range(samples)])
    br = basis_bracket(sys, phase_jacobian(sys, centers, pts),
                       phase_jacobian(sys, gens, pts))
    # a maximum over the points per pair: a NaN bracket stays NaN and fails
    worst = np.abs(br).max(axis=0).ravel().tolist()
    xi_m, P = pts.xi[:, sys.m], pts.moment_coords
    ident2 = _worst(c2.evaluate_stack(P) - res2.evaluate_stack(xi_m))
    ident3 = _worst(c3.evaluate_stack(P) - res3.evaluate_stack(xi_m))
    pairs = [(c.name, g.name) for c in centers for g in gens]
    for (cname, gname), val in sorted(zip(pairs, worst)):
        report.add(f"{{{cname},{gname}}}", 0.0, val, NUM_TOL)
    report.add("P*C2 == pi*(Res_W C2)", 0.0, ident2, NUM_TOL)
    report.add("P*C3 == pi*(Res_W C3)", 0.0, ident3, NUM_TOL)
    return report


def bracket_samples(sys, rng, samples):
    """Worst moment-bracket closure and mixed-block residuals over
    ``samples`` random regular points, as (closure, mixed).

    Each sample draws its point, then a moment pair (i, j) and a slice
    generator th; the residuals are |{P_i, P_j} - C_ij^k P_k| and
    |{P_i, th}|.  The points are built as one stack, the Jacobian of the
    generator family is taken over it, and basis_bracket pairs each
    point's picked rows as twisted_bracket pairs two differentials.
    """
    fam = generator_family(sys)
    dim = sys.alg.dim
    draws, pairs, picks = [], [], []
    for _ in range(samples):
        draws.append(sys.draw_regular_point(rng))
        pairs.append(rng.integers(0, dim, 2))
        picks.append(dim + rng.integers(0, len(fam) - dim))
    pts = sys.points_of(draws)
    D = phase_jacobian(sys, fam, pts)
    rows = np.arange(samples)
    i, j = np.transpose(pairs)
    br = basis_bracket(sys, D[rows, i][:, None],
                       np.stack([D[rows, j], D[rows, picks]], axis=1))[:, 0]
    # C_ij^k P_k one dot per sample, on the strided column of ad_i: a
    # stacked product of gathered rows rounds differently
    ad = sys.alg.ad_matrices()
    expect = [ad[a, :, b] @ P for a, b, P in zip(i, j, pts.moment_coords)]
    return _worst(br[:, 0] - expect), _worst(br[:, 1])


# ---------------------------------------------------------------------------
# Jacobian ranks
# ---------------------------------------------------------------------------

def phase_jacobian(sys, fns, pt):
    """Analytic Jacobian of integral functions over the tangent basis, at
    a point or point by point at a stack of points, one row per
    function."""
    return np.stack([basis_differential(fn, sys, pt) for fn in fns],
                    axis=-2)


def jacobian_rank_pi1(sys, pt):
    """Rank of the differential of the full generator family at pt, or
    point by point at a stack of points, an int array."""
    return numeric_rank(phase_jacobian(sys, generator_family(sys), pt))


def pi1_rank_samples(sys, rng, samples):
    """The sorted distinct pi1 ranks at ``samples`` random regular points,
    drawn in turn and built as one stack."""
    pts = sys.points_of([sys.draw_regular_point(rng)
                         for _ in range(samples)])
    return sorted(set(jacobian_rank_pi1(sys, pts).tolist()))


def a_matrix_exact(sys):
    """The 3x4 matrix of u -> B([u, X], e_a) for e_a the su(2) block of
    the stabilizer S(U(2)xU(1)), the first three basis elements of a,
    exactly.

    Column j is the bracket [e_j, X] of the m basis element e_j with X
    the m-coordinate variables (bracket_coords), read on those rows;
    entries are linear polynomials in the m-coordinates.  In the
    Hermitian presentation (coordinates negated) its column minors are
    x7 R, -x6 R, x5 R, -x4 R.  Any other stabilizer is refused.
    """
    if len(sys.a) != 4:
        raise ValueError(f"the A matrix needs the 4-dimensional stabilizer "
                         f"S(U(2)xU(1)), not one of dimension {len(sys.a)}")
    alg = sys.alg
    X = shift_images(sys, sys.m_names(), eps=0)
    cols = [alg.bracket_coords([int(t == j) for t in range(alg.dim)], X)
            for j in sys.m]
    return [[col[a] for col in cols] for a in sys.a[:3]]


def a_matrix_minors(sys):
    """The four exact 3x3 column minors of A(X).

    The minors are expressed in the Hermitian-view coordinates (the system
    coordinates negated), where they factor as x7 R, -x6 R, x5 R, -x4 R.
    """
    rows = a_matrix_exact(sys)

    def det3(cols):
        M = [[rows[r][c] for c in cols] for r in range(3)]
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

    minors = [det3(cols) for cols in ((0, 1, 2), (0, 1, 3),
                                      (0, 2, 3), (1, 2, 3))]
    # x -> -x negates the minors, which are homogeneous cubics
    return [-p for p in minors]


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------

def dimension_report(sys, rng, samples=20):
    """Measured transcendence degrees against the case's LEDGER, and the
    superintegrability ledger, which adds the measured trdeg A and trdeg
    R0 rank sets.  The random regular points are drawn in turn and built
    as one stack, and every rank is taken over the stack."""
    report = CertificateReport(case_tag=sys.case_tag, sample_count=samples)
    n, r = sys.alg.dim, 2
    expect = LEDGER[sys.case_tag]
    slice_family = [p for _, p in slice_generators(sys)]

    pts = sys.points_of([sys.draw_regular_point(rng)
                         for _ in range(samples)])
    xi_m = pts.xi[:, sys.m]
    s_vals = independence_rank(_casimir_restrictions(sys), xi_m).tolist()
    rho_vals = independence_rank(slice_family, xi_m).tolist()
    trA_vals = jacobian_rank_pi1(sys, pts).tolist()
    trR_vals = numeric_rank(
        phase_jacobian(sys, center_family(sys), pts)).tolist()

    report.add("s = trdeg Im(Res_W)", expect["s"], sorted(set(s_vals)),
               "exact")
    report.add("rho_A = trdeg S(m)^A", expect["rho"], sorted(set(rho_vals)),
               "exact")
    report.add("trdeg A (pi1 rank)", expect["trdeg_A"], sorted(set(trA_vals)),
               "exact")
    report.add("trdeg R0", expect["trdeg_R0"], sorted(set(trR_vals)),
               "exact")
    phase_dim = 2 * len(sys.m)
    sums = sorted({a + b for a in trA_vals for b in trR_vals})
    report.add("trdeg A + trdeg R0 = dim T*M", phase_dim,
               sums[0] if len(sums) == 1 else sums, "exact")
    report.add("leaf dimension dim g - 3r (informational)", n - 3 * r,
               n - 3 * r, "exact")
    return report
