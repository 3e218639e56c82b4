from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from qlie import linalg
from qlie.linalg import echelon
from qlie.scalars import BETA, C, ONE, P, P_INV, Scalar


def scalar_rows(int_rows):
    return [
        {j: Scalar.rational(v) for j, v in enumerate(row) if v}
        for row in int_rows
    ]


def fraction_rank(int_rows, ncols):
    # plain Gaussian elimination over Fraction, written independently
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in
         [{j: v for j, v in enumerate(r) if v} for r in int_rows]]
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_agrees_with_fraction_gauss(int_rows):
    ech = echelon(scalar_rows(int_rows))
    assert ech.rank == fraction_rank(int_rows, 4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_membership_of_linear_combinations(int_rows, coeffs):
    rows = scalar_rows(int_rows)
    ech = echelon(rows)
    combo: dict[int, Scalar] = {}
    for row, k in zip(rows, coeffs):
        for j, v in row.items():
            acc = combo.get(j, Scalar.zero()) + v * Scalar.rational(k)
            if acc:
                combo[j] = acc
            else:
                combo.pop(j, None)
    assert ech.contains(combo)


def test_membership_rejects_outside_vectors():
    rows = scalar_rows([[1, 0, 0], [0, 1, 0]])
    ech = echelon(rows)
    assert not ech.contains({2: ONE})
    assert ech.contains({0: BETA, 1: C})  # fraction-field coefficients allowed


def test_polynomial_pivots():
    # rows dependent over the fraction field but not term-by-term
    rows = [
        {0: BETA, 1: BETA * C},
        {0: ONE, 1: C},
        {0: C, 1: ONE},
    ]
    ech = echelon(rows)
    assert ech.rank == 2
    assert ech.contains({0: BETA + C, 1: BETA * C + ONE})


def test_polynomial_proper_subspace():
    ech = echelon([{0: BETA, 1: BETA * C}])
    assert ech.rank == 1
    assert ech.contains({0: ONE, 1: C})  # divide by b in the fraction field
    assert not ech.contains({0: ONE, 1: ONE})


def test_polynomial_membership_requires_field_coefficients():
    # (1) and (b) span the same line over the fraction field
    ech = echelon([{0: BETA}])
    assert ech.contains({0: ONE})
    assert ech.contains({0: C})


def test_randomized_cross_check_with_numeric_path():
    # membership decided a second way: the probe is in the span iff adding
    # it leaves the rank of plain Fraction elimination unchanged
    rng = Random(3)
    for _ in range(50):
        ncols = 5
        int_rows = [
            [rng.randint(-3, 3) for _ in range(ncols)]
            for _ in range(rng.randint(1, 5))
        ]
        probe = [rng.randint(-3, 3) for _ in range(ncols)]
        ech = echelon(scalar_rows(int_rows))
        exact = ech.contains(
            {j: Scalar.rational(v) for j, v in enumerate(probe) if v}
        )
        numeric = fraction_rank(int_rows + [probe], ncols) == fraction_rank(int_rows, ncols)
        assert exact == numeric


# -- the eager elimination, as an independent reference ----------------------
# The elimination as it was before rows were scaled lazily: every step
# multiplies each remaining row by pivot / previous pivot, whether or not the
# row meets the pivot column.  `test_rtt` uses it too.

_ZERO = Scalar.zero()


def _eager_step(row, col, pivot, pivot_row, prev):
    coeff = row.get(col)
    new = {}
    if coeff is None:
        for j, v in row.items():
            new[j] = (pivot * v).exact_div(prev)
    else:
        for j in set(row) | set(pivot_row):
            v = pivot * row.get(j, _ZERO) - coeff * pivot_row.get(j, _ZERO)
            if v:
                new[j] = v.exact_div(prev)
    return new


def eager_echelon(rows, ncols):
    """The (column, pivot, pivot row) steps of the eager Bareiss elimination."""
    work = [dict(r) for r in rows if r]
    steps = []
    prev = ONE
    for col in range(ncols):
        best = None
        for idx, row in enumerate(work):
            coeff = row.get(col)
            if coeff and (best is None or coeff.term_count() < work[best][col].term_count()):
                best = idx
        if best is None:
            continue
        pivot_row = work.pop(best)
        pivot = pivot_row[col]
        work = [new for new in (_eager_step(r, col, pivot, pivot_row, prev) for r in work) if new]
        steps.append((col, pivot, pivot_row))
        prev = pivot
    return steps


def eager_reduce(steps, row):
    vec = dict(row)
    prev = ONE
    for col, pivot, pivot_row in steps:
        if not vec:
            break
        vec = _eager_step(vec, col, pivot, pivot_row, prev)
        prev = pivot
    return vec


def eager_contains(steps, row):
    return not eager_reduce(steps, row)


def combination(rows, coeffs):
    """sum_i coeffs[i] * rows[i], without zero entries."""
    out = {}
    for row, k in zip(rows, coeffs):
        for j, v in row.items():
            out[j] = out.get(j, _ZERO) + k * v
    return {j: v for j, v in out.items() if v}


# entries over Q[b, C, p, p^-1] with int and Fraction coefficients
small_scalars = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-1, 1)),
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
    min_size=1,
    max_size=2,
).map(Scalar)
# rows use columns 0..3 of 5, so a vector with an entry in column 4 is outside
sparse_rows = st.dictionaries(st.integers(0, 3), small_scalars, max_size=3).map(
    lambda row: {j: v for j, v in row.items() if v}
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(sparse_rows, min_size=1, max_size=5),
    st.lists(small_scalars, min_size=5, max_size=5),
    st.dictionaries(st.integers(0, 3), small_scalars, max_size=4),
    small_scalars.filter(bool),
)
def test_lazy_elimination_agrees_with_eager_reference(rows, coeffs, probe, outside):
    ech = echelon(rows)
    ref = eager_echelon(rows, 5)
    assert ech.rank == len(ref)
    member = combination(rows, coeffs)
    assert ech.contains(member) and eager_contains(ref, member)
    non_member = {**member, 4: outside}
    assert not ech.contains(non_member) and not eager_contains(ref, non_member)
    probe = {j: v for j, v in probe.items() if v}
    assert ech.contains(probe) == eager_contains(ref, probe)
    # the columns are read from the rows: relabeled by a strictly increasing
    # map with gaps, they give the same steps, relabeled, and the same verdicts
    relabel = lambda row: {3 * j + 5: v for j, v in row.items()}
    gapped = echelon([relabel(r) for r in rows])
    assert gapped.steps == [(3 * col + 5, pivot, relabel(row)) for col, pivot, row in ech.steps]
    for vec in (member, non_member, probe):
        assert gapped.contains(relabel(vec)) == ech.contains(vec)


def test_stale_rows_are_brought_up_to_date(monkeypatch):
    # full rank in columns 0..4; column 5 is met by no row
    a = {0: BETA, 3: ONE, 4: ONE}
    # met by step 1 (column 0), then skips columns 1 and 2
    b = {0: ONE, 3: C, 4: P}
    d = {1: C, 4: ONE}
    e = {2: ONE + P, 4: BETA}
    # skips three steps and is then the pivot row of column 3
    f = {3: ONE, 4: C}
    g = {3: BETA + ONE, 4: C * P_INV}
    rows = [a, b, d, e, f, g]

    calls = []
    step = linalg._step

    def spy(row, col, pivot, pivot_row, last):
        calls.append((col, last))
        return step(row, col, pivot, pivot_row, last)

    monkeypatch.setattr(linalg, "_step", spy)
    ech = echelon(rows)
    pivots = [pivot for _, pivot, _ in ech.steps]
    assert [col for col, _, _ in ech.steps] == [0, 1, 2, 3, 4]
    # b's update at column 3 divides by the pivot of step 1, not of step 3
    assert (3, pivots[0]) in calls and pivots[0] != pivots[2]
    # the stale pivot row f is caught up to P_3 * f before it is used
    assert ech.steps[3][2] == {j: pivots[2] * v for j, v in f.items()}
    # the same pivots, pivot rows and memberships as the eager elimination
    ref = eager_echelon(rows, 6)
    assert [(col, pivot) for col, pivot, _ in ech.steps] == [(col, pivot) for col, pivot, _ in ref]
    assert [row for _, _, row in ech.steps] == [row for _, _, row in ref]
    member = combination(rows, [ONE, C, P_INV, BETA, ONE + C, Scalar.rational(Fraction(1, 2))])
    # meets column 3 first, so the vector skips three steps before its first division
    late = {3: C, 4: ONE + BETA}
    for vec, inside in ((member, True), ({5: ONE}, False), (late, True), ({**late, 5: ONE}, False)):
        assert ech.contains(vec) is inside
        assert eager_contains(ref, vec) is inside
    # a vector that meets the last step ends on the Bareiss value itself
    assert ech.reduce({**late, 5: ONE}) == eager_reduce(ref, {**late, 5: ONE})
