from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from qlie.linalg import echelon
from qlie.scalars import BETA, C, ONE, Scalar


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
    ech = echelon(scalar_rows(int_rows), 4)
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
    ech = echelon(rows, 3)
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
    ech = echelon(rows, 3)
    assert not ech.contains({2: ONE})
    assert ech.contains({0: BETA, 1: C})  # fraction-field coefficients allowed


def test_polynomial_pivots():
    # rows dependent over the fraction field but not term-by-term
    rows = [
        {0: BETA, 1: BETA * C},
        {0: ONE, 1: C},
        {0: C, 1: ONE},
    ]
    ech = echelon(rows, 2)
    assert ech.rank == 2
    assert ech.contains({0: BETA + C, 1: BETA * C + ONE})


def test_polynomial_proper_subspace():
    ech = echelon([{0: BETA, 1: BETA * C}], 2)
    assert ech.rank == 1
    assert ech.contains({0: ONE, 1: C})  # divide by b in the fraction field
    assert not ech.contains({0: ONE, 1: ONE})


def test_polynomial_membership_requires_field_coefficients():
    # (1) and (b) span the same line over the fraction field
    ech = echelon([{0: BETA}], 1)
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
        ech = echelon(scalar_rows(int_rows), ncols)
        exact = ech.contains(
            {j: Scalar.rational(v) for j, v in enumerate(probe) if v}
        )
        numeric = fraction_rank(int_rows + [probe], ncols) == fraction_rank(int_rows, ncols)
        assert exact == numeric
