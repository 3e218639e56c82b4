"""Fraction-free Gaussian elimination over the scalar ring.

Rows are sparse mappings column -> nonzero Scalar.  The one-step Bareiss
recurrence

    new[j] = (pivot * row[j] - row[c] * pivot_row[j]) / previous_pivot

keeps every intermediate entry a polynomial (the division is exact, each
entry being a minor of the original matrix), so no rational-function
arithmetic or polynomial gcd is ever needed.  `_step` is that one step, run
both by `echelon` and by `Echelon.reduce`.  Membership of a vector in the
row span over the fraction field is decided by replaying the recorded pivot
steps against the vector and testing for zero.

A row without an entry in the pivot column would only be multiplied by
pivot / previous_pivot, so a step leaves it alone: each row keeps the pivot
of the step that last updated it and divides by that pivot when it next
meets one (see `echelon`).  Entries still grow with the steps that meet a
row, so callers with a sparse, decomposable matrix eliminate each
independent block on its own (see `rtt.compare_relation_spans`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .scalars import ONE, Scalar

Row = dict[int, Scalar]


@dataclass
class Echelon:
    """Pivot history of a fraction-free elimination, replayable on vectors."""

    # per elimination step: pivot column, pivot value, eliminated pivot row
    steps: list[tuple[int, Scalar, Row]] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.steps)

    def reduce(self, row: Row) -> Row:
        """Replay the elimination against one extra row, up to a nonzero factor.

        The vector skips every step whose column it lacks, and a step that
        meets it divides by the pivot of the last step that met it (1 before
        any), which is exact for the reason given in `echelon`.  The result
        is the Bareiss reduction times a quotient of pivots, so it is zero
        exactly when the Bareiss reduction is.
        """
        vec = dict(row)
        last = ONE
        for col, pivot, pivot_row in self.steps:
            if not vec:
                return vec
            if col in vec:
                vec = _step(vec, col, pivot, pivot_row, last)
                last = pivot
        return vec

    def contains(self, row: Row) -> bool:
        """Is the row in the span of the eliminated rows (over fractions)?"""
        return not self.reduce(row)


def _step(row: Row, col: int, pivot: Scalar, pivot_row: Row, last: Scalar) -> Row:
    """One Bareiss step: clear `col` of `row` against the pivot row, dividing by `last`.

    Only nonzero entries are visited, so no zero scalar is built or multiplied.
    """
    neg = -row[col]
    new: Row = {}
    for j, v in row.items():
        w = pivot_row.get(j)
        if w is None:
            new[j] = (pivot * v).exact_div(last)
        elif j != col and (v := pivot * v + neg * w):
            new[j] = v.exact_div(last)
    for j, w in pivot_row.items():
        if j not in row:
            new[j] = (neg * w).exact_div(last)
    return new


def echelon(rows: list[Row]) -> Echelon:
    """Fraction-free row echelon form of sparse rows.

    The columns are those the rows hold, in increasing order (a step fills in
    no other).  The pivot at each step is chosen among candidates in the
    lowest available column as the stored entry with the fewest polynomial
    terms, breaking ties by row order, which keeps intermediate entries
    small and the run deterministic.

    A step updates only the rows with an entry in its column.  Each row keeps
    the pivot P_j of the step that last updated it (1 at the start).  Bareiss
    would multiply an untouched row by P_{i+1}/P_i at each step i + 1, and
    these factors telescope, so at step k the Bareiss row is P_k/P_j * row.
    The step with pivot P_{k+1} and pivot row r therefore gives

        (P_{k+1} * (P_k/P_j) * row - (P_k/P_j) * row[c] * r) / P_k
            = (P_{k+1} * row - row[c] * r) / P_j,

    the Bareiss row itself, a minor, so the division by P_j is exact.  The
    chosen pivot row is brought to its Bareiss value P_k/P_j * row once,
    before it is used, unless P_k equals P_j.
    """
    # each work row with the pivot of the step that last updated it
    work = [(dict(r), ONE) for r in rows if r]
    ech = Echelon()
    prev = ONE
    for col in sorted({col for row, _ in work for col in row}):
        best: Optional[int] = None
        for idx, (row, _) in enumerate(work):
            coeff = row.get(col)
            if coeff is not None and (
                best is None or coeff.term_count() < work[best][0][col].term_count()
            ):
                best = idx
        if best is None:
            continue
        pivot_row, last = work.pop(best)
        if last != prev:
            pivot_row = {j: (prev * v).exact_div(last) for j, v in pivot_row.items()}
        pivot = pivot_row[col]
        remaining = []
        for row, last in work:
            if col in row:
                row, last = _step(row, col, pivot, pivot_row, last), pivot
                if not row:
                    continue
            remaining.append((row, last))
        ech.steps.append((col, pivot, pivot_row))
        work = remaining
        prev = pivot
    return ech
