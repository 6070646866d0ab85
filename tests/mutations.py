"""The mutation suite: deliberate faults that the named tests must catch.

Each entry of MUTATIONS is one fault: an id, the file it edits, an exact
old text (which must occur once in that file) and the new text put in
its place, the change that first recorded it (by its commit subject),
and the tests that must fail with it.  The script extracts a ``git
archive`` copy of a revision (HEAD unless ``--rev`` is given) into a
temporary directory, and for each entry applies the edit, runs the
named tests with ``-x`` and puts the file back.  It prints CAUGHT when the tests fail, MISSED when they
pass, and ERROR when pytest could not run them (say, a collection
error), and exits 1 unless every entry is caught.

Run from the repository root:

    python tests/mutations.py                 # every entry
    python tests/mutations.py scan-up-swap    # the entries named

``tests/test_imports.py::test_each_mutation_still_applies`` checks, in
tier-1, that each old text still occurs exactly once and each named
test still exists, so a change that rewrites the code must update or
retire its entries.  Like ``tests/pairing_sweep.py``, pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    change: str
    tests: tuple


# the changes that recorded the entries, by their commit subjects
KERNEL = "One exact Lie-algebra kernel"
VERDICT = "One verdict rule"
LAX = "Lax closed form from one eigendecomposition of W"
SCAN = "Brent-Kung prefix scan over 1024-step blocks"
POISSON = "One Poisson tensor for brackets and fields"
FIELD = "One field: the exact scalar kernel over Q(sqrt3)"
HALVE = "Halve the exact pass: row-reduce on integer numerators"
ONE_ROW = "Exact elimination on one row format"
GENERATORS = "The exact generator layer on exponent tuples and term maps"
ROW_BY_ROW = "Row-by-row exact elimination that stops at full rank"
ECHELON = ("Row-oriented generator layer: one shared echelon of generator "
           "products per degree")
DISTINCT = "Flow CSV: one repr per distinct value of each monitored integral"
LEAN_RING = ("A lean exact polynomial ring: one trusted constructor for the "
             "term maps its own operations build")
WEIGHTS = ("Weight-first commutants: read the torus invariants off their "
           "weights, do not solve operator rows")

MUTATIONS = (
    # the one exact structure-constant contraction
    Mutation("bracket-coords-swap", "src/su3mag/algebra.py",
             "xi, yj = x[i], y[j]", "xi, yj = y[i], x[j]", KERNEL,
             ("tests/test_algebra.py::"
              "test_ad_w_columns_match_the_structure_loop",)),
    Mutation("bracket-coords-scalar-zero", "src/su3mag/algebra.py",
             "zero = Polynomial.zero(polys[0].vars) if polys else ZERO",
             "zero = ZERO", KERNEL,
             ("tests/test_algebra.py::"
              "test_bracket_coords_returns_the_zero_of_the_entries_kind",)),
    Mutation("a-matrix-minors-sign", "src/su3mag/certify.py",
             "return [-p for p in minors]", "return minors", KERNEL,
             ("tests/test_certify.py::test_a_matrix_minors_exact",)),
    # the one verdict rule
    Mutation("verdict-rank-set-dropped", "src/su3mag/certify.py",
             "passed = observed == expected or observed == [expected]",
             "passed = observed == expected", VERDICT,
             ("tests/test_certify.py::"
              "test_each_verify_line_passes_by_the_rule_on_its_json",)),
    Mutation("verdict-lt-made-le", "src/su3mag/certify.py",
             "passed = observed < tolerance",
             "passed = observed <= tolerance", VERDICT,
             ("tests/test_certify.py::"
              "test_the_verdict_is_read_off_the_evidence",)),
    Mutation("centre-line-python-max", "src/su3mag/reports.py",
             "worst_center = _worst([c.observed for c in sub_report.checks])",
             "worst_center = max(c.observed for c in sub_report.checks)",
             VERDICT,
             ("tests/test_certify.py::"
              "test_a_nan_centre_bracket_reads_nan_in_its_verify_line",)),
    Mutation("pi1-rank-literal", "src/su3mag/reports.py",
             'report.add("pi1_rank", LEDGER[case]["trdeg_A"], ranks, '
             '"exact")',
             'report.add("pi1_rank", 10, ranks, "exact")', VERDICT,
             ("tests/test_certify.py::"
              "test_each_verify_line_passes_by_the_rule_on_its_json",)),
    Mutation("slice-generators-v-w-swap", "src/su3mag/certify.py",
             '("u1", "u2", "u3", "v", "w"), (*u, v, w)',
             '("u1", "u2", "u3", "v", "w"), (*u, w, v)', VERDICT,
             ("tests/test_certify.py::"
              "test_bracket_table_closes_and_matches",)),
    # the Lax closed form from one eigendecomposition of W
    Mutation("lax-phase-sign", "src/su3mag/phase.py",
             "* (w[:, None] - w).reshape(-1)",
             "* (w - w[:, None]).reshape(-1)", LAX,
             ("tests/test_trajectory_arrays.py::"
              "test_lax_form_matches_the_exp_map_oracle_to_t_10",)),
    Mutation("lax-eps-dropped", "src/su3mag/phase.py",
             "theta = (t.reshape(-1, 1) * sys.eps)",
             "theta = (t.reshape(-1, 1) * 1.0)", LAX,
             ("tests/test_trajectory_arrays.py::"
              "test_lax_form_matches_the_exp_map_oracle_to_t_10",)),
    Mutation("lax-u-adjoint-swap", "src/su3mag/phase.py",
             "N0 = (_adjoint(U) @ sys.alg.matrix_of(pt0.X) @ U)",
             "N0 = (U @ sys.alg.matrix_of(pt0.X) @ _adjoint(U))", LAX,
             ("tests/test_trajectory_arrays.py::"
              "test_lax_form_matches_the_exp_map_oracle_to_t_10",)),
    # the Brent-Kung prefix scan of the RK4 driver
    Mutation("scan-up-swap", "src/su3mag/phase.py",
             "_mm(out[:, :, s - 1:n - s:2 * s],\n"
             "                                          "
             "out[:, :, 2 * s - 1::2 * s])",
             "_mm(out[:, :, 2 * s - 1::2 * s],\n"
             "                                          "
             "out[:, :, s - 1:n - s:2 * s])", SCAN,
             ("tests/test_phase.py::"
              "test_prefix_products_match_the_sequential_loop",)),
    Mutation("scan-down-swap", "src/su3mag/phase.py",
             "out[:, :, 2 * s - 1:n - s:2 * s], out[:, :, 3 * s - 1::2 * s])",
             "out[:, :, 3 * s - 1::2 * s], out[:, :, 2 * s - 1:n - s:2 * s])",
             SCAN,
             ("tests/test_phase.py::"
              "test_prefix_products_match_the_sequential_loop",)),
    Mutation("scan-down-offset", "src/su3mag/phase.py",
             "out[:, :, 3 * s - 1::2 * s] = _mm(\n"
             "                out[:, :, 2 * s - 1:n - s:2 * s], "
             "out[:, :, 3 * s - 1::2 * s])",
             "out[:, :, 3 * s::2 * s] = _mm(\n"
             "                out[:, :, 2 * s - 1:n - s:2 * s], "
             "out[:, :, 3 * s::2 * s])", SCAN,
             ("tests/test_phase.py::"
              "test_prefix_products_match_the_sequential_loop",)),
    Mutation("flow-times-running-sum", "src/su3mag/phase.py",
             "times = (np.arange(len(G)) * dt).tolist()",
             "times = np.cumsum([0.0] + [dt] * (len(G) - 1)).tolist()", SCAN,
             ("tests/test_phase.py::test_flow_times_are_the_list_formula",)),
    Mutation("config-unknown-key-allowed", "src/su3mag/cli.py",
             "            if key not in known:",
             "            if key not in known and key != 'sampels':", SCAN,
             ("tests/test_cli.py::"
              "test_an_unknown_config_key_is_a_one_line_error",)),
    # the one Poisson tensor of the fields and the brackets
    Mutation("pi-fiber-block-sign", "src/su3mag/phase.py",
             "self._Pi[n:, n:] = -self.eps * self._adW",
             "self._Pi[n:, n:] = self.eps * self._adW", POISSON,
             ("tests/test_phase.py::test_hvf_defining_equation",
              "tests/test_phase.py::"
              "test_basis_bracket_matches_omega_of_the_solved_fields")),
    Mutation("pi-unit-block-sign", "src/su3mag/phase.py",
             "self._Pi[:n, n:] = np.eye(n)\n"
             "        self._Pi[n:, :n] = -np.eye(n)",
             "self._Pi[:n, n:] = -np.eye(n)\n"
             "        self._Pi[n:, :n] = np.eye(n)", POISSON,
             ("tests/test_phase.py::test_hvf_defining_equation",
              "tests/test_phase.py::test_hvf_slice_gradient_direction")),
    # only the regular case catches it: on the irregular slice the
    # v rows' part -1/2 [v, X]_m of the fiber velocity is zero
    Mutation("flow-step-fiber-v-rows-dropped", "src/su3mag/angles.py",
             "c = np.concatenate((v[..., sys.m], w[..., sys.m]), axis=-1)",
             "c = np.concatenate((0 * v[..., sys.m], w[..., sys.m]), "
             "axis=-1)", POISSON,
             ("tests/test_angles.py::"
              "test_flow_step_matches_the_stage_projected_loop",
              "tests/test_angles.py::test_frequency_constancy_along_flows")),
    # the exact scalar kernel over Q(sqrt3)
    Mutation("mul-sqrt3-square-made-2", "src/su3mag/scalars.py",
             "return _make(a0 * b0 + 3 * a1 * b1,",
             "return _make(a0 * b0 + 2 * a1 * b1,", FIELD,
             ("tests/test_scalars.py::test_sqrt_constants_multiply",
              "tests/test_scalars.py::"
              "test_integer_kernel_matches_fraction_reference")),
    Mutation("inv-conjugate-sign", "src/su3mag/scalars.py",
             "return _reduce(den * n0, -den * n1, norm)",
             "return _reduce(den * n0, den * n1, norm)", FIELD,
             ("tests/test_scalars.py::test_division",
              "tests/test_scalars.py::"
              "test_integer_kernel_matches_fraction_reference")),
    # the Scalar constructor multiplies by -sqrt3 = (0, -1, 1), whose
    # rational part is 0, so only the elimination tests see this one
    Mutation("submul-cross-term-sign", "src/su3mag/scalars.py",
             "f0 * v1 + f1 * v0", "f0 * v1 - f1 * v0", FIELD,
             ("tests/test_invariants.py::"
              "test_rref_is_the_oracle_rref_under_any_row_order",)),
    Mutation("rational-inverse-sign", "src/su3mag/scalars.py",
             "return (den, 0, n0) if n0 > 0 else (-den, 0, -n0)",
             "return (-den, 0, n0) if n0 > 0 else (den, 0, -n0)", FIELD,
             ("tests/test_scalars.py::test_normal_form_examples",
              "tests/test_invariants.py::"
              "test_rref_pivots_rational_irrational_and_across_a_free_column")),
    # the exact elimination and the commutant's operator rows
    Mutation("submul-denominator-ad", "src/su3mag/scalars.py",
             "a1 * pd - p1 * ad, ad * pd)", "a1 * pd - p1 * ad, ad)", HALVE,
             ("tests/test_invariants.py::"
              "test_rref_is_the_oracle_rref_under_any_row_order",
              "tests/test_invariants.py::"
              "test_nullspace_vectors_annihilate_every_row")),
    Mutation("rref-back-substitution-skipped", "src/su3mag/exact_linalg.py",
             "            _submul(row, row.pop(c), piv[c].items())",
             "            pass", ROW_BY_ROW,
             ("tests/test_invariants.py::"
              "test_rref_pivots_rational_irrational_and_across_a_free_column",
              "tests/test_invariants.py::"
              "test_rref_is_the_oracle_rref_under_any_row_order")),
    Mutation("rref-stops-one-column-early", "src/su3mag/exact_linalg.py",
             "if len(piv) == ncols:", "if len(piv) == ncols - 1:",
             ROW_BY_ROW,
             ("tests/test_invariants.py::"
              "test_rref_is_the_oracle_rref_under_any_row_order",
              "tests/test_invariants.py::"
              "test_rref_stops_reading_rows_at_full_rank")),
    # the RREF is the same in any row order: only the rows left unread
    # at full rank show which were read first
    Mutation("rref-rows-read-as-given", "src/su3mag/exact_linalg.py",
             "for row in sorted(rows, key=len):", "for row in rows:",
             ROW_BY_ROW,
             ("tests/test_invariants.py::"
              "test_rref_stops_reading_rows_at_full_rank",)),
    # the shared echelon of the generator layer
    Mutation("greedy-picked-not-kept", "src/su3mag/invariants.py",
             "if echelon.add(row)]", "if echelon.add(row, keep=False)]",
             ECHELON,
             ("tests/test_invariants.py::"
              "test_greedy_completion_picks_the_oracle_candidates",)),
    Mutation("tag-not-updated", "src/su3mag/exact_linalg.py",
             "                _submul(tag, factor, self.tags[col].items())",
             "                pass", ECHELON,
             ("tests/test_invariants.py::"
              "test_tagged_kernel_is_the_nullspace_of_the_transposed_rows",
              "tests/test_invariants.py::"
              "test_sparse_solve_in_span_is_the_dense_solve")),
    # a report shares one echelon between a degree's completion and its
    # relations only where nothing was picked there, so no report digest
    # sees this key; the memo shared by two generator lists does
    Mutation("product-echelon-keyed-by-degree", "src/su3mag/invariants.py",
             "key = (degree, len(gens))", "key = degree", ECHELON,
             ("tests/test_invariants.py::"
              "test_generator_products_are_the_chained_products",)),
    # accepting supports of two (len(vec) > 2) rather than of one: the
    # Gell-Mann kernel of the test also holds a support of three, so only
    # its su(2) input catches it
    Mutation("centralizer-two-element-support", "src/su3mag/algebra.py",
             "        if len(vec) != 1:", "        if len(vec) > 2:", ONE_ROW,
             ("tests/test_algebra.py::test_centralizer_refuses_a_kernel_"
              "not_spanned_by_basis_elements",)),
    # the flow exports: the integral texts and the memo of the values
    Mutation("csv-integral-keyed-by-value", "src/su3mag/reports.py",
             "np.unique(column.view(np.int64),", "np.unique(column,",
             DISTINCT,
             ("tests/test_trajectory_arrays.py::"
              "test_csv_integral_columns_are_every_cell_repr",)),
    Mutation("integral-memo-stride-dropped", "src/su3mag/phase.py",
             "key = (stride, *functions)", "key = (*functions,)", DISTINCT,
             ("tests/test_trajectory_arrays.py::"
              "test_exports_match_the_per_point_routes",)),
    # the generator layer: relation multiples, the rewrite, the z_k; only
    # the torus on m to degree 8 lifts a relation (the cubic, times u_k)
    Mutation("lift-shift-dropped", "src/su3mag/invariants.py",
             "combo_index[tuple(map(add, expo, mult))]", "combo_index[expo]",
             GENERATORS,
             ("tests/test_invariants.py::"
              "test_undrawn_centralizer_report_digest",)),
    Mutation("rewrite-eps-power-dropped", "src/su3mag/invariants.py",
             "terms[combos[i] + (e_eps,)] = c",
             "terms[combos[i] + (0,)] = c",
             GENERATORS,
             ("tests/test_certify.py::test_bracket_table_closes_and_matches",
              "tests/test_certify.py::test_table_eps_scaling")),
    Mutation("z-re-im-swap", "src/su3mag/invariants.py",
             "return (Polynomial(names, {e: c.re for e, c in zip(units, row)}),"
             "\n                Polynomial(names, {e: c.im for e, c in "
             "zip(units, row)}))",
             "return (Polynomial(names, {e: c.im for e, c in zip(units, row)}),"
             "\n                Polynomial(names, {e: c.re for e, c in "
             "zip(units, row)}))", GENERATORS,
             ("tests/test_certify.py::test_bracket_table_closes_and_matches",
              "tests/test_certify.py::"
              "test_slice_generators_name_the_slice_family")),
    # the polynomial ring: only the ring's own term maps skip the checks
    Mutation("scalar-product-unchecked", "src/su3mag/poly.py",
             "            return Polynomial(self.vars,\n"
             "                              {e: c * v for e, v in "
             "self.terms.items()})",
             "            return _from_terms(self.vars,\n"
             "                               {e: c * v for e, v in "
             "self.terms.items()})", LEAN_RING,
             ("tests/test_poly.py::"
              "test_degree_memo_on_cancellation_zero_and_the_cap",)),
    Mutation("product-degree-max", "src/su3mag/poly.py",
             "return _from_terms(self.vars, terms, degree if terms else 0)",
             "return _from_terms(self.vars, terms, max(self.degree(), "
             "other.degree()) if terms else 0)", LEAN_RING,
             ("tests/test_poly.py::"
              "test_degree_memo_on_cancellation_zero_and_the_cap",)),
    Mutation("product-cancelled-term-kept", "src/su3mag/poly.py",
             "terms.pop(e, None)", "terms[e] = c", LEAN_RING,
             ("tests/test_poly.py::"
              "test_ring_operations_keep_the_term_loops_order",)),
    Mutation("sum-records-smaller-degree", "src/su3mag/poly.py",
             "return _from_terms(self.vars, terms, max(d1, d2) if d1 != d2",
             "return _from_terms(self.vars, terms, min(d1, d2) if d1 != d2",
             WEIGHTS,
             ("tests/test_poly.py::"
              "test_degree_is_the_top_degree_after_every_operation",)),
    # the weight route of the commutants: the first root plane's conjugate
    # sign or weight turned, the su(2) step of A skipped, the inert
    # monomial left off; su(2) has one plane, whose span either sign
    # gives, so only su(3) catches the first two
    Mutation("plane-t-negated", "src/su3mag/invariants.py",
             "planes.append((pos[a], pos[b], t[0], weight))",
             "planes.append((pos[a], pos[b], t[0] * (1 if planes else -1), "
             "weight))", WEIGHTS,
             ("tests/test_invariants.py::"
              "test_weight_route_is_the_operator_row_route",)),
    Mutation("plane-weight-reversed", "src/su3mag/invariants.py",
             "weight = _BASE ** r - _BASE ** c",
             "weight = _BASE ** r - _BASE ** c if planes else "
             "_BASE ** c - _BASE ** r", WEIGHTS,
             ("tests/test_invariants.py::"
              "test_weight_route_is_the_operator_row_route",)),
    Mutation("root-operator-step-skipped", "src/su3mag/invariants.py",
             "    if roots:  #", "    if False:  #", WEIGHTS,
             ("tests/test_invariants.py::"
              "test_weight_route_is_the_operator_row_route",)),
    Mutation("inert-shift-dropped", "src/su3mag/invariants.py",
             "{tuple(map(add, e, shift)): x", "{e: x", WEIGHTS,
             ("tests/test_invariants.py::"
              "test_weight_route_is_the_operator_row_route",)),
)


def archive(rev, dest, tool="the mutation suite"):
    """Extract ``git archive rev`` of the repository into dest; outside a
    git checkout (or for an unknown rev) exit 2 with a one-line error
    that names the tool."""
    proc = subprocess.run(["git", "archive", rev], cwd=ROOT,
                          capture_output=True)
    if proc.returncode:
        reason = proc.stderr.decode(errors="replace").strip().splitlines()
        print(f"error: git archive {rev} failed; {tool} needs a "
              f"git checkout with that revision"
              f"{': ' + reason[0] if reason else ''}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as fh:
        fh.extractall(dest, filter="data")


def run_entry(copy, entry):
    """Apply one entry in copy, run its tests, put the file back; returns
    (verdict, seconds)."""
    path = Path(copy) / entry.file
    text = path.read_text(encoding="utf-8")
    if text.count(entry.old) != 1:
        return "STALE", 0.0
    path.write_text(text.replace(entry.old, entry.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *entry.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text, encoding="utf-8")
    verdict = {0: "MISSED", 1: "CAUGHT"}.get(proc.returncode, "ERROR")
    return verdict, time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", help="entries to run (default all)")
    parser.add_argument("--rev", default="HEAD",
                        help="revision to mutate (default HEAD)")
    args = parser.parse_args(argv)
    known = {m.id for m in MUTATIONS}
    unknown = set(args.ids) - known
    if unknown:
        parser.error(f"unknown mutation ids: {', '.join(sorted(unknown))}")
    entries = [m for m in MUTATIONS if not args.ids or m.id in args.ids]
    caught = 0
    with tempfile.TemporaryDirectory() as copy:
        archive(args.rev, copy)
        for entry in entries:
            verdict, secs = run_entry(copy, entry)
            caught += verdict == "CAUGHT"
            print(f"{verdict:6} {entry.id} ({entry.change}; {secs:.1f} s)",
                  flush=True)
    print(f"{caught} of {len(entries)} caught")
    return 0 if caught == len(entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
