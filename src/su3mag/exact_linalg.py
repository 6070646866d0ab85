"""Exact Gaussian elimination over Q(sqrt2, sqrt3).

Rows are sparse dicts {column: Scalar}.  Pivoting is deterministic: columns
are processed in ascending order and the first available row is used, so
reduced forms (and hence every generator basis derived from them) are
reproducible run to run.
"""

from __future__ import annotations

from itertools import chain

from .scalars import ONE, ZERO


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (pivots, reduced) where pivots is the ordered list of pivot
    columns and reduced is a list of sparse rows, one per pivot, normalized
    to a leading 1 and fully reduced.
    """
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
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def nullspace(rows, ncols):
    """Basis of the exact nullspace of the row system.

    Basis vectors are indexed by free columns in ascending order, each a
    dense list of Scalars with a 1 in its free slot.  This is the
    deterministic tie-breaking used for all kernel computations.
    """
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for pcol, row in zip(pivots, reduced):
            coeff = row.get(f)
            if coeff is not None:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def solve_in_span(target, vectors, ncols):
    """Express target (dense Scalar list) in the span of given vectors.

    Returns the coefficient list, or None if target is not in the span.
    Solves the stacked augmented system exactly.
    """
    rows = []
    for j in range(ncols):
        row = {}
        for i, vec in enumerate(vectors):
            if not vec[j].is_zero():
                row[i] = vec[j]
        t = target[j]
        if not t.is_zero():
            row[len(vectors)] = t
        if row:
            rows.append(row)
    pivots, reduced = rref(rows, len(vectors) + 1)
    if len(vectors) in pivots:
        return None  # inconsistent: target has a component outside the span
    coeffs = [ZERO] * len(vectors)
    for pcol, row in zip(pivots, reduced):
        coeffs[pcol] = row.get(len(vectors), ZERO)
    # verify (cheap, catches underdetermined corner cases)
    for j in range(ncols):
        acc = ZERO
        for c, vec in zip(coeffs, vectors):
            acc = acc + c * vec[j]
        if acc != target[j]:
            return None
    return coeffs

