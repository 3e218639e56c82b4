from qlie.freealg import _row_str
from qlie.scalars import BETA, ONE

# at n = 2 a word codes x_i as i and f(i,j) as 3*i + j
N = 2


def f(i, j):
    return (N + 1) * i + j


def row(terms):
    """The flat row of {word: Scalar}."""
    return {(w, key): q for w, s in terms.items() for key, q in s._terms.items()}


def test_generator_ordering():
    # unit < x_i by index < f(i, j) lexicographically
    text = _row_str(row({(f(2, 1),): ONE, (f(1, 2),): ONE, (2,): ONE, (1,): ONE, (): ONE}), N)
    assert text == "(1)*1 + (1)*x1 + (1)*x2 + (1)*f(1,2) + (1)*f(2,1)"
    # at n = 9, x9 is coded 9 and f(1,1) 11
    assert _row_str(row({(11,): ONE, (9,): ONE}), 9) == "(1)*x9 + (1)*f(1,1)"


def test_word_strings():
    assert _row_str(row({(): ONE}), N) == "(1)*1"
    assert _row_str(row({(1, f(2, 1)): ONE}), N) == "(1)*x1*f(2,1)"


def test_string_form():
    assert _row_str(row({(2,): BETA, (): -ONE}), N) == "(-1)*1 + (b)*x2"
    assert _row_str({}, N) == "0"
