"""Noncommutative polynomials in the free algebra on x_i and f(i,j), and
the defining relations of the bicovariant calculus.

`NCPoly` is the output type of the `rtt` relations: a canonical sparse map
from words to scalars that is printed and compared, with no ring operations
(the span comparison runs on `rtt`'s flat rows instead).  Words are plain
tuples of generators, the empty word being the unit.  No commutation rules
are ever applied: two words are equal only if they are literally the same
sequence.  Generators are ordered x_1 < x_2 < ... < f(1,1) < f(1,2) < ...,
and words first by length, then letter by letter.

This module also owns the one builder of the calculus relations, `_bcc_row`,
which `rtt` and `checks` both import: it emits a relation as a flat row
{(word, packed monomial): rational}, a word coding x_i as i and f(i,j) as
(n+1)*i + j.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .scalars import ONE, Scalar, _by_index

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


# {(word, packed monomial): nonzero rational}, a word a tuple of generator codes
FlatRow = dict

# entries {(out, in): coefficient} grouped by input and by output: by_in[in]
# lists (out, terms), by_out[out] lists (in, terms), where terms are the
# coefficient's (packed monomial, rational) pairs; the structure constants
# C^k_{ij} are indexed as entries {(k, (i, j)): coefficient}
EntryIndex = tuple[dict, dict]

# the number of indices of each calculus relation family
_ARITY = {1: 2, 2: 4, 3: 3, 4: 3}

_UNIT = tuple(ONE._terms.items())


def _index(entries: Mapping[tuple, Scalar]) -> EntryIndex:
    by_in: dict[tuple, list] = {}
    by_out: dict[tuple, list] = {}
    for (out, inp), coeff in entries.items():
        terms = tuple(coeff._terms.items())
        by_in.setdefault(inp, []).append((out, terms))
        by_out.setdefault(out, []).append((inp, terms))
    return by_in, by_out


def _index_constants(entries: Mapping[tuple[int, int, int], Scalar]) -> EntryIndex:
    """`_index` of structure constants {(k, i, j): C^k_{ij}}."""
    return _index({(k, (i, j)): v for (k, i, j), v in entries.items()})


def _flat_row(parts: Iterable[tuple[tuple, tuple, int]]) -> FlatRow:
    """The sum of (word, terms, sign) parts; zero coefficients are dropped."""
    row: FlatRow = {}
    for word, terms, sign in parts:
        for key, q in terms:
            k, v = (word, key), (q if sign > 0 else -q)
            row[k] = row[k] + v if k in row else v
    return {k: q for k, q in row.items() if q}


def _poly(row: FlatRow, n: int) -> NCPoly:
    """A flat row as a polynomial in the generators x_i and f(i,j)."""
    def letter(g: int):
        return chi(g) if g <= n else ff(*divmod(g, n + 1))

    scalars = _by_index((w, key, q) for (w, key), q in row.items())
    return NCPoly({tuple(map(letter, w)): s for w, s in scalars.items()})


def _bcc_row(
    family: int, indices: tuple[int, ...], n: int, sigma: EntryIndex, constants: EntryIndex
) -> FlatRow:
    """One calculus relation, left minus right, as `rtt.bcc_relation` states it."""
    by_in, by_out = sigma
    ct_lower, ct_upper = constants
    m = n + 1
    if family == 1:
        i, j = indices
        return _flat_row([
            ((i, j), _UNIT, 1),
            *(((k, l), w, -1) for (k, l), w in by_in.get((i, j), ())),
            *(((k,), v, -1) for k, v in ct_lower.get((i, j), ())),
        ])
    if family == 2:
        i, j, a, b = indices
        return _flat_row([
            *(((m * a + k, m * b + l), w, 1) for (k, l), w in by_in.get((i, j), ())),
            *(((m * k + i, m * l + j), w, -1) for (k, l), w in by_out.get((a, b), ())),
        ])
    if family == 3:
        i, j, a = indices
        return _flat_row([
            *(((k, m * a + l), w, 1) for (k, l), w in by_in.get((i, j), ())),
            *(((m * a + l,), v, 1) for l, v in ct_lower.get((i, j), ())),
            *(((m * k + i, m * l + j), v, -1) for (k, l), v in ct_upper.get(a, ())),
            ((m * a + i, j), _UNIT, -1),
        ])
    if family == 4:
        i, j, a = indices
        return _flat_row([
            ((i, m * a + j), _UNIT, 1),
            *(((m * a + k, l), w, -1) for (k, l), w in by_in.get((i, j), ())),
        ])
    raise ValueError(f"unknown relation family {family}")
