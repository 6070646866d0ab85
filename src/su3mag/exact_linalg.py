"""Exact Gaussian elimination over Q(sqrt2, sqrt3).

The package calls it on sparse rows {column: reduced ints}, the integral
representation ``Scalar.ints``, only.  One loop, ``rref_ints``, does every
elimination, with the fused kernel scalars.submul_ints; ``nullspace`` is
the one reader of a kernel and ``solve_in_span`` the one span solve, each
building a Scalar per output coefficient only.  ``rref`` wraps the loop
for rows {column: Scalar}; the package does not call it.  Columns are
processed in ascending order, each with the sparsest row holding it as
pivot (the first on a tie).  The reduced row echelon form is unique, so
the output is the same whatever the pivot: reduced forms, and every
kernel and generator basis derived from them, are reproducible run to run.
"""

from __future__ import annotations

from itertools import chain

from .scalars import ONE, ZERO, from_ints, submul_ints


def rref_ints(rows, ncols):
    """Reduced row echelon form of sparse rows {column: reduced ints}.

    Returns (pivots, reduced) where pivots is the ordered list of pivot
    columns and reduced is a list of sparse rows, one per pivot, normalized
    to a leading 1 and fully reduced.  The result is the unique RREF, so it
    does not depend on the order of the rows or on the pivot rule.  The
    rows passed in are updated in place.
    """
    work = [r for r in rows if r]
    reduced = []
    pivots = []
    for col in range(ncols):
        holders = [i for i, r in enumerate(work) if col in r]
        if not holders:
            continue
        row = work.pop(min(holders, key=lambda i: len(work[i])))
        neg_inv = (-from_ints(row.pop(col)).inv()).ints
        # the normalized pivot row without its leading 1
        rest = [(c, submul_ints(None, neg_inv, v)) for c, v in row.items()]
        for other in chain(work, reduced):
            if col not in other:
                continue
            factor = other.pop(col)
            for c, v in rest:
                nv = submul_ints(other.get(c), factor, v)
                if nv == ZERO.ints:
                    del other[c]
                else:
                    other[c] = nv
        reduced.append(dict(rest + [(col, ONE.ints)]))
        pivots.append(col)
        work = [r for r in work if r]
    # columns run in ascending order, so the pivots come out sorted
    return pivots, reduced


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
                vec[pcol] = from_ints((-t[0], -t[1], -t[2], -t[3], t[4]))
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
