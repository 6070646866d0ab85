"""Exact Gaussian elimination over Q(sqrt3).

The package calls it on sparse rows {column: reduced ints}, the integral
representation ``Scalar.ints``, only.  One loop, ``Echelon.add``, does
every elimination, with the fused kernel scalars.submul_ints.  An Echelon
takes rows one at a time: each is reduced at its lowest column until that
column has no pivot, and a row left nonzero is normalized and becomes that
column's pivot row.  A row may carry a tag that takes the same updates, so
a tagged echelon knows which combination of its rows each reduced row is:
the rows that vanish give a kernel, and a target reduced against it gives
its coefficients in the span (``solve_in_span``).  ``rref_ints`` adds the
rows sparsest first, stops once every column has a pivot, and then
back-substitutes the pivot rows from the highest pivot down, each clearing
only the higher pivot columns it holds; ``nullspace`` reads a kernel off
that form, and ``rref`` wraps it for rows {column: Scalar} (the package
does not call it).  A Scalar is built per output coefficient only.  A
rational pivot is inverted on its integers, an irrational one by its
conjugate.  The reduced row echelon form is unique, and so is a kernel
basis or a span solution read off the rows in a fixed order, so the
output does not depend on the pivots taken: reduced forms, and every
kernel and generator basis derived from them, are reproducible run to
run.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, from_ints, inv_ints, neg_ints, submul_ints


class Echelon:
    """An incremental row echelon of sparse rows {column: reduced ints}.

    Rows are added one at a time, in the order given.  Each is reduced in
    place at its lowest column by that column's pivot row for as long as
    the column has one; a row left nonzero is normalized in place to a
    leading 1 and becomes the pivot row of its lowest column, stored
    without that 1.  A row may carry a tag, a sparse dict {index: reduced
    ints} that takes the same updates as the row: tag row i with {i: 1}
    and a reduced row is the combination of the rows its tag names.  The
    tags of the tagged rows that vanish are kept in order on kernel; a
    tagged row reduces only by tagged pivot rows.
    """

    __slots__ = ("piv", "tags", "kernel")

    def __init__(self, rows=(), tagged=False):
        """The echelon of rows, added in order, row i tagged {i: 1} when
        tagged; the rows are reduced in place."""
        self.piv = {}     # pivot column -> its normalized row without the 1
        self.tags = {}    # pivot column -> the tag of its row, if tagged
        self.kernel = []  # the tags of the tagged rows that vanished
        for i, row in enumerate(rows):
            self.add(row, {i: ONE.ints} if tagged else None)

    def add(self, row, tag=None, keep=True):
        """Reduce row in place at its lowest column while that column has
        a pivot row, subtracting the same multiples of the pivot rows'
        tags from tag.  Returns whether the row is left nonzero, that is,
        outside the span.  With keep, such a row is normalized in place,
        with its tag, and becomes the pivot row of its lowest column, and
        a tagged row that vanished puts its tag on kernel; without it the
        echelon is left as it was."""
        piv = self.piv
        while row and (col := min(row)) in piv:
            factor = row.pop(col)
            _submul(row, factor, piv[col].items())
            if tag is not None:
                _submul(tag, factor, self.tags[col].items())
        if not keep:
            return bool(row)
        if not row:
            if tag is not None:
                self.kernel.append(tag)
            return False
        neg_inv = neg_ints(inv_ints(row.pop(col)))
        for c, v in row.items():
            row[c] = submul_ints(None, neg_inv, v)
        piv[col] = row
        if tag is not None:
            for i, v in tag.items():
                tag[i] = submul_ints(None, neg_inv, v)
            self.tags[col] = tag
        return True


def rref_ints(rows, ncols):
    """Reduced row echelon form of sparse rows {column: reduced ints}.

    Returns (pivots, reduced) where pivots is the ascending list of pivot
    columns and reduced is a list of sparse rows, one per pivot, normalized to
    a leading 1 and fully reduced, each with its pivot entry last.  The result
    is the unique RREF, so it does not depend on the order of the rows or on
    the pivot rule.  The rows are added to an Echelon sparsest first (in the
    given order on a tie) until every column has a pivot: a row read is
    reduced in place, one left nonzero is normalized in place, and the
    reduced rows returned are these same dicts.  The rows not read are left
    as they are.
    """
    echelon = Echelon()
    piv = echelon.piv
    for row in sorted(rows, key=len):
        if len(piv) == ncols:
            break  # full rank: the rows left lie in the span already
        echelon.add(row)
    # from the highest pivot down: the pivot rows above are reduced, so
    # clearing their columns brings in free columns only
    pivots = sorted(piv)
    for col in reversed(pivots):
        row = piv[col]
        for c in [c for c in row if c in piv]:
            _submul(row, row.pop(c), piv[c].items())
    for col in pivots:
        piv[col][col] = ONE.ints
    return pivots, [piv[col] for col in pivots]


def _submul(row, factor, rest):
    """Subtract factor times the sparse row of items rest from row, in
    place, dropping zeros."""
    for c, v in rest:
        nv = submul_ints(row.get(c), factor, v)
        if nv == ZERO.ints:
            del row[c]
        else:
            row[c] = nv


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


def solve_in_span(target, echelon):
    """Express target, a sparse row {column: reduced ints} reduced in place,
    in the span of the rows of echelon, row i tagged {i: 1}.

    Returns {i: Scalar}, the nonzero coefficients in ascending i, or None
    if target is not in the span.  A row that lies in the span of the rows
    before it gets 0, so the coefficients are unique.
    """
    tag = {}  # what is left of target is target plus the rows tag names
    if echelon.add(target, tag, keep=False):
        return None  # target has a component outside the span
    return {i: from_ints(neg_ints(tag[i])) for i in sorted(tag)}
