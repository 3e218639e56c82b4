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

Relations are built as packed terms, {packed key: rational}, many
relations into one dict, each at its position (`_layout`): the key of a
term holds its b/C/p monomial on top, then the relation's position, then
the code of its word.  Every word here has at most two generators, and
with base = (n+1)^2, above every generator code, the word c1 c2 has code
c1*base + c2, a word of one generator c its code c and the unit 0.  So a
sum of relations at distinct positions keeps them apart, and a sum that
cancels leaves only zeros.  `_rows` reads packed terms back as flat rows.

This module also owns the one builder of the calculus relations,
`_bcc_terms`, which only `rtt` imports; `_row` reads one relation of any
builder as a flat row.
"""

from __future__ import annotations

from typing import Mapping

from .scalars import Scalar, _by_index


# {(word, packed monomial): nonzero rational}, a word a tuple of generator codes
FlatRow = dict

# entries {(out, in): coefficient} grouped by input and by output: by_in[in]
# lists (out, its code, key, q) and by_out[out] lists (in, its code, key, -q)
# for each term of the coefficient, key its packed monomial shifted to the
# top of a packed term.  A relation only ever subtracts a term it reads by
# output, so by_out holds it negated.  An index pair (k, l) is coded
# k*base + l, the code of the word x_k x_l, and an index k is coded k.  The
# structure constants C^k_{ij} are indexed as entries {(k, (i, j)): coefficient}
EntryIndex = tuple[dict, dict]

# the number of indices of each calculus relation family
_ARITY = {1: 2, 2: 4, 3: 3, 4: 3}

# the one term of the coefficient 1, at code 0
_UNIT = (((), 0, 0, 1),)


def _layout(n: int) -> tuple[int, int]:
    """(base, width) of the packed terms at size n: a word code lies below
    base^2 and so does a position (at most n^2 (n+1)^2 relations are built
    at once), each in a field of `width` bits; the monomial sits above both."""
    return (n + 1) ** 2, ((n + 1) ** 4).bit_length()


def _index(entries: Mapping[tuple, Scalar], n: int) -> EntryIndex:
    base, width = _layout(n)
    by_in, by_out = {}, {}
    for (out, inp), coeff in entries.items():
        c_out, c_in = (idx if type(idx) is int else idx[0] * base + idx[1] for idx in (out, inp))
        for key, q in coeff._terms.items():
            by_in.setdefault(inp, []).append((out, c_out, key << 2 * width, q))
            by_out.setdefault(out, []).append((inp, c_in, key << 2 * width, -q))
    return by_in, by_out


def _rows(terms: dict, n: int) -> dict[int, FlatRow]:
    """The nonzero packed terms as flat rows, by position."""
    base, width = _layout(n)
    low = (1 << width) - 1
    rows: dict[int, FlatRow] = {}
    for k, q in terms.items():
        if q:
            code = k & low
            word = divmod(code, base) if code >= base else (code,) if code else ()
            rows.setdefault(k >> width & low, {})[word, k >> 2 * width] = q
    return rows


def _bcc_terms(out: dict, relations: list, n: int, sigma: EntryIndex, ct: EntryIndex) -> None:
    """Add each (family, indices, sign) of `relations` into out at its
    position: sign times the calculus relation, left minus right, as
    `rtt.bcc_relation` states it.

    A part (sign, offset, scale, entries) puts the term of an entry whose
    index has code c at word code offset + scale * c: with m = n + 1,
    f^a_k f^b_l has code m (a base + b) + (k base + l), and f^k_i f^l_j has
    m (k base + l) + (i base + j).  Entries read by output hold their terms
    negated (`EntryIndex`), so the parts that subtract them carry +sign.
    """
    (by_in, by_out), (ct_lower, ct_upper) = sigma, ct
    m = n + 1
    base, width = _layout(n)
    get = out.get
    for pos, (family, indices, sign) in enumerate(relations):
        i, j, a, b = (*indices, 0, 0)[:4]
        ij, s_ij, c_ij = i * base + j, by_in.get((i, j), ()), ct_lower.get((i, j), ())
        if family == 1:  # x_i x_j - sigma^{kl}_{ij} x_k x_l - C^k_{ij} x_k
            parts = [(sign, ij, 1, _UNIT), (-sign, 0, 1, s_ij), (-sign, 0, 1, c_ij)]
        elif family == 2:  # sigma^{kl}_{ij} f^a_k f^b_l - f^k_i f^l_j sigma^{ab}_{kl}
            parts = [(sign, m * (a * base + b), 1, s_ij), (sign, ij, m, by_out.get((a, b), ()))]
        elif family == 3:  # sigma^{kl}_{ij} x_k f^a_l + C^l_{ij} f^a_l
            #                - f^k_i f^l_j C^a_{kl} - f^a_i x_j
            parts = [(sign, m * a, 1, s_ij), (sign, m * a, 1, c_ij),
                     (sign, ij, m, ct_upper.get(a, ())), (-sign, (m * a + i) * base + j, 1, _UNIT)]
        elif family == 4:  # x_i f^a_j - sigma^{kl}_{ij} f^a_k x_l
            parts = [(sign, i * base + m * a + j, 1, _UNIT), (-sign, m * a * base, 1, s_ij)]
        else:
            raise ValueError(f"unknown relation family {family}")
        for s, offset, scale, entries in parts:
            offset += pos << width
            for _, c, key, q in entries:
                k = key + (offset + scale * c)
                out[k] = get(k, 0) + s * q


def _row(build, relation: tuple, n: int, *tables) -> FlatRow:
    """One relation as a flat row: `relation` built alone by a builder of
    packed terms, `_bcc_terms` or `rtt._rtt_terms`, from its tables."""
    out: dict = {}
    build(out, [relation], n, *tables)
    return _rows(out, n).get(0, {})


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
