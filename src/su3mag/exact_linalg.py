"""Exact Gaussian elimination over Q(sqrt3).

The package calls it on sparse rows {column: reduced ints}, the integral
representation ``Scalar.ints``, only.  One loop, ``rref_ints``, does every
elimination, with the fused kernel scalars.submul_ints; ``nullspace`` is the
one reader of a kernel and ``solve_in_span`` the one span solve, each
building a Scalar per output coefficient only.  ``rref`` wraps the loop for
rows {column: Scalar}; the package does not call it.  The loop reads the
rows sparsest first, reduces each at its lowest column until that column has
no pivot, and stops once every column has one; the pivot rows are then
back-substituted from the highest pivot down, each clearing only the higher
pivot columns it holds.  A rational pivot is inverted on its integers, an
irrational one by its conjugate.  The reduced row echelon form is unique, so
the output does not depend on the row order or the pivots taken: reduced
forms, and every kernel and generator basis derived from them, are
reproducible run to run.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, from_ints, inv_ints, neg_ints, submul_ints


def rref_ints(rows, ncols):
    """Reduced row echelon form of sparse rows {column: reduced ints}.

    Returns (pivots, reduced) where pivots is the ascending list of pivot
    columns and reduced is a list of sparse rows, one per pivot, normalized to
    a leading 1 and fully reduced, each with its pivot entry last.  The result
    is the unique RREF, so it does not depend on the order of the rows or on
    the pivot rule.  The rows are read sparsest first (in the given order on a
    tie) until every column has a pivot.  A row read is reduced in place; one
    left nonzero is normalized in place and becomes the pivot row of its lowest
    column, and the reduced rows returned are these same dicts.  The rows not
    read are left as they are.
    """
    piv = {}  # pivot column -> its normalized row without the leading 1
    for row in sorted(rows, key=len):
        if len(piv) == ncols:
            break  # full rank: the rows left lie in the span already
        while row and (col := min(row)) in piv:
            _eliminate(row, col, piv[col].items())
        if row:  # a new pivot row, normalized in place
            neg_inv = neg_ints(inv_ints(row.pop(col)))
            for c, v in row.items():
                row[c] = submul_ints(None, neg_inv, v)
            piv[col] = row
    # from the highest pivot down: the pivot rows above are reduced, so
    # clearing their columns brings in free columns only
    pivots = sorted(piv)
    for col in reversed(pivots):
        row = piv[col]
        for c in [c for c in row if c in piv]:
            _eliminate(row, c, piv[c].items())
    for col in pivots:
        piv[col][col] = ONE.ints
    return pivots, [piv[col] for col in pivots]


def _eliminate(row, col, rest):
    """Subtract row[col] times the normalized pivot row (rest and a 1 in
    col) from row, in place, dropping zeros; returns the row."""
    factor = row.pop(col)
    for c, v in rest:
        nv = submul_ints(row.get(c), factor, v)
        if nv == ZERO.ints:
            del row[c]
        else:
            row[c] = nv
    return row


def rref(rows, ncols):
    """``rref_ints`` on sparse rows {column: Scalar}, left as they are."""
    pivots, reduced = rref_ints([{c: v.ints for c, v in r.items()}
                                 for r in rows], ncols)
    return pivots, [{c: from_ints(t) for c, t in r.items()} for r in reduced]


def nullspace(rows, ncols):
    """Basis of the exact nullspace of sparse rows {column: reduced ints}.

    One vector per free column, in ascending order, each a sparse
    {column: Scalar} with the negated pivot entries (pivot columns
    ascending, all left of the free column) and then a 1 in its free
    column: the deterministic tie-breaking of every kernel computation.
    The rows passed in are updated in place.
    """
    pivots, reduced = rref_ints(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = {}
        for pcol, row in zip(pivots, reduced):
            t = row.get(f)
            if t is not None:
                vec[pcol] = from_ints(neg_ints(t))
        vec[f] = ONE
        basis.append(vec)
    return basis


def transposed(vectors, length):
    """The sparse rows of the matrix whose columns are the sparse vectors."""
    rows = [{} for _ in range(length)]
    for i, vec in enumerate(vectors):
        for j, c in vec.items():
            rows[j][i] = c
    return rows


def solve_in_span(target, vectors, ncols):
    """Express target in the span of vectors, all sparse rows {j: nonzero
    reduced ints}.

    Returns the list of Scalar coefficients, or None if target is not in
    the span.  Solves the stacked augmented system exactly.
    """
    n = len(vectors)
    pivots, reduced = rref_ints(transposed([*vectors, target], ncols), n + 1)
    if n in pivots:
        return None  # inconsistent: target has a component outside the span
    coeffs = [ZERO.ints] * n
    for pcol, row in zip(pivots, reduced):
        coeffs[pcol] = row.get(n, ZERO.ints)
    # verify (cheap, catches underdetermined corner cases) on stored
    # entries: target minus the recombination must vanish
    residual = dict(target)
    for c, vec in zip(coeffs, vectors):
        if c != ZERO.ints:
            for j, x in vec.items():
                residual[j] = submul_ints(residual.get(j), c, x)
    if any(x != ZERO.ints for x in residual.values()):
        return None
    return [from_ints(c) for c in coeffs]
