"""Fraction-free Gaussian elimination over the scalar ring.

Rows are sparse mappings column -> Scalar.  The one-step Bareiss recurrence

    new[j] = (pivot * row[j] - row[c] * pivot_row[j]) / previous_pivot

keeps every intermediate entry a polynomial (the division is exact, each
entry being a minor of the original matrix), so no rational-function
arithmetic or polynomial gcd is ever needed.  `_step` is that one step, run
both by `echelon` and by `Echelon.reduce`.  Membership of a vector in the
row span over the fraction field is decided by replaying the recorded pivot
steps against the vector and testing for zero.

Every step multiplies each remaining row by the pivot, whether or not the row
meets the pivot's columns, so entries grow with the number of steps taken.
Callers with a sparse, decomposable matrix eliminate each independent block
on its own (see `rtt.compare_relation_spans`).
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
        """Replay the elimination against one extra row."""
        vec = dict(row)
        prev = ONE
        for col, pivot, pivot_row in self.steps:
            if not vec:
                return vec
            vec = _step(vec, col, pivot, pivot_row, prev)
            prev = pivot
        return vec

    def contains(self, row: Row) -> bool:
        """Is the row in the span of the eliminated rows (over fractions)?"""
        return not self.reduce(row)


_ZERO = Scalar.zero()


def _step(row: Row, col: int, pivot: Scalar, pivot_row: Row, prev: Scalar) -> Row:
    """One Bareiss step: clear `col` of `row` against the pivot row."""
    coeff = row.get(col)
    new: Row = {}
    if coeff is None:
        for j, v in row.items():
            new[j] = (pivot * v).exact_div(prev)
    else:
        for j in set(row) | set(pivot_row):
            v = pivot * row.get(j, _ZERO) - coeff * pivot_row.get(j, _ZERO)
            if v:
                new[j] = v.exact_div(prev)
    return new


def echelon(rows: list[Row], ncols: int) -> Echelon:
    """Fraction-free row echelon form of sparse rows.

    The pivot at each step is chosen among candidates in the lowest available
    column as the entry with the fewest polynomial terms, breaking ties by
    row order, which keeps intermediate entries small and the run
    deterministic.
    """
    work = [dict(r) for r in rows if r]
    ech = Echelon()
    prev = ONE
    for col in range(ncols):
        best: Optional[int] = None
        for idx, row in enumerate(work):
            coeff = row.get(col)
            if coeff and (
                best is None or coeff.term_count() < work[best][col].term_count()
            ):
                best = idx
        if best is None:
            continue
        pivot_row = work.pop(best)
        pivot = pivot_row[col]
        remaining = []
        for row in work:
            new = _step(row, col, pivot, pivot_row, prev)
            if new:
                remaining.append(new)
        ech.steps.append((col, pivot, pivot_row))
        work = remaining
        prev = pivot
    return ech
