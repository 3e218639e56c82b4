"""Noncommutative polynomials in the free algebra on x_i and f(i,j).

`NCPoly` is the output type of the `rtt` relations: a canonical sparse map
from words to scalars that is printed and compared, with no ring operations
(the span comparison runs on `rtt`'s flat rows instead).  Words are plain
tuples of generators, the empty word being the unit.  No commutation rules
are ever applied: two words are equal only if they are literally the same
sequence.  Generators are ordered x_1 < x_2 < ... < f(1,1) < f(1,2) < ...,
and words first by length, then letter by letter.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from .scalars import Scalar

# ("x", i) is the vector-field generator x_i, ("f", i, j) the functional f(i,j)
Generator = tuple
Word = tuple


def chi(i: int) -> Generator:
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return ("x", i)


def ff(i: int, j: int) -> Generator:
    if i < 1 or j < 1:
        raise ValueError(f"generator indices must be >= 1, got ({i}, {j})")
    return ("f", i, j)


def generator_key(g: Generator) -> tuple:
    if g[0] == "x":
        return (0, g[1], 0)
    return (1, g[1], g[2])


def generator_str(g: Generator) -> str:
    if g[0] == "x":
        return f"x{g[1]}"
    return f"f({g[1]},{g[2]})"


def word_key(w: Word) -> tuple:
    return (len(w), tuple(generator_key(g) for g in w))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(generator_str(g) for g in w)


class NCPoly:
    """Scalar-linear combination of free-algebra words, canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Word, Scalar]] = None):
        canon: dict[Word, Scalar] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    canon[tuple(word)] = coeff
        self._terms = canon

    def terms(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(sorted(self._terms.items(), key=lambda t: word_key(t[0])))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({coeff})*{word_str(word)}" for word, coeff in self.terms())

    def __repr__(self) -> str:
        return f"NCPoly({self})"
