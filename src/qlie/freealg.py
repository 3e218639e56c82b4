"""Relation rows in the free algebra on x_i and f(i,j), their text form, and
the defining relations of the bicovariant calculus.

A relation is a flat row {(word, packed monomial): rational}: a linear
combination of free-algebra words with coefficients in Q[b, C, p, p^-1],
each coefficient split into its packed monomials (Monagan & Pearce, CASC
2007).  A word is a tuple of generator codes, x_i coded as i and f(i,j) as
(n+1)*i + j, the empty word being the unit.  No commutation rules are ever
applied: two words are equal only if they are literally the same sequence.
Every x code lies below every f code, so sorting words by length, then
code by code, orders generators x_1 < x_2 < ... < f(1,1) < f(1,2) < ...;
`_row_str` prints a row in that order.

This module also owns the one builder of the calculus relations, `_bcc_row`,
which only `rtt` imports.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .scalars import ONE, Scalar, _by_index


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


def _flat_row(parts: Iterable[tuple[tuple, tuple, int]]) -> FlatRow:
    """The sum of (word, terms, sign) parts; zero coefficients are dropped."""
    row: FlatRow = {}
    for word, terms, sign in parts:
        for key, q in terms:
            k, v = (word, key), (q if sign > 0 else -q)
            row[k] = row[k] + v if k in row else v
    return {k: q for k, q in row.items() if q}


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


def _row_str(row: FlatRow, n: int) -> str:
    """A row as text: (coefficient)*word terms, words by length, then codes."""
    if not row:
        return "0"

    def letter(g: int) -> str:
        if g <= n:
            return f"x{g}"
        i, j = divmod(g, n + 1)
        return f"f({i},{j})"

    scalars = _by_index((w, key, q) for (w, key), q in row.items())
    return " + ".join(
        f"({scalars[w]})*{'*'.join(map(letter, w)) or '1'}"
        for w in sorted(scalars, key=lambda w: (len(w), w))
    )
