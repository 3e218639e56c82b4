import pytest

from qlie.freealg import NCPoly, chi, ff, generator_key, word_str
from qlie.scalars import BETA, ONE


def test_generator_ordering():
    # unit < x_i by index < f(i, j) lexicographically
    assert generator_key(chi(1)) < generator_key(chi(2))
    assert generator_key(chi(9)) < generator_key(ff(1, 1))
    assert generator_key(ff(1, 2)) < generator_key(ff(2, 1))


def test_word_strings():
    assert word_str(()) == "1"
    assert word_str((chi(1), ff(2, 1))) == "x1*f(2,1)"


def test_string_form():
    p = NCPoly({(chi(2),): BETA, (): -ONE})
    assert str(p) == "(-1)*1 + (b)*x2"
    assert str(NCPoly()) == "0"


def test_index_validation():
    with pytest.raises(ValueError):
        chi(0)
    with pytest.raises(ValueError):
        ff(1, 0)
