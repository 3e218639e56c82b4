"""Exchange relations of the extended matrix against the defining relations.

The block matrix T has unit in the corner, the x_j along the top row, the
f(i,j) in the body and zeros below the corner.  Expanding

    Rhat^{KL}_{IJ} T^A_K T^B_L  -  T^K_I T^L_J Rhat^{AB}_{KL}

over all capital index tuples yields quadratic relations in the free algebra
on x and f; these are compared, as linear spans over the fraction field of
the scalar ring, with the four directly-substituted relation families of the
bicovariant calculus.

Each side's one builder emits flat rows {(word, packed monomial): rational}
(Monagan & Pearce, CASC 2007), a word coding x_i as i and f(i,j) as (n+1)*i + j,
so the sums and signs are int arithmetic; the public functions return these
rows, and `freealg._row_str` prints them.  The exchange-relation builder lives
here, and the calculus-relation builder is `freealg._bcc_row`.

Grade a word by the sums of w over its letters' upper and lower indices,
x_i being T^0_i and f(a, l) T^a_l, with `cg`'s weight w.  While the
constants lie on their support, every relation is homogeneous, of a grade
its key gives in closed form (`_key_groups`), and rows of different grades
share no word.  So the span comparison generates, compares and drops one
grade at a time, and its memory is bounded by the largest grade: a
tracemalloc peak of 1.6 MiB at n = 12, against 85 MiB with every relation
held at once.  A constant off the support joins two weights, and then
each group is a cell of the grades those joins merge.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterator, Optional

from .cg import StructureTensor, _constants, extended_rhat, sigma_cg
from .checks import Collector, VerificationReport
from .freealg import _ARITY, FlatRow, _bcc_row, _flat_row, _index, _index_constants, _row_str
from .linalg import Echelon, Row, echelon
from .scalars import _by_index

RelationKey = tuple


def _rtt_tables(n: int) -> tuple[dict, dict, list]:
    """Rhat by input and output pair, and T[upper][lower] as a word or None, a structural zero."""
    m = n + 1
    t = [[(m * upper + lower,) if lower else None for lower in range(m)] for upper in range(m)]
    t[0] = [(lower,) if lower else () for lower in range(m)]
    return (*_index(extended_rhat(n).entries), t)


def _rtt_row(I: int, J: int, A: int, B: int, tables: tuple[dict, dict, list]) -> FlatRow:
    by_in, by_out, t = tables
    # Rhat^{KL}_{IJ} T^A_K T^B_L  -  T^K_I T^L_J Rhat^{AB}_{KL}
    parts = [(t[A][K], t[B][L], terms, 1) for (K, L), terms in by_in.get((I, J), ())]
    parts += [(t[K][I], t[L][J], terms, -1) for (K, L), terms in by_out.get((A, B), ())]
    return _flat_row(
        (ta + tb, terms, sign) for ta, tb, terms, sign in parts if ta is not None and tb is not None
    )


def rtt_relation(I: int, J: int, A: int, B: int, n: int) -> FlatRow:
    """One exchange relation, as left side minus right side.

    Zero-pattern rows of T silently drop their terms, so many index tuples
    produce the empty row.
    """
    for idx in (I, J, A, B):
        if idx < 0 or idx > n:
            raise ValueError(f"index {idx} outside 0..{n}")
    return _rtt_row(I, J, A, B, _rtt_tables(n))


def bcc_relation(
    family: int,
    indices: tuple[int, ...],
    n: int,
    constants: Optional[StructureTensor] = None,
) -> FlatRow:
    """A defining relation of the bicovariant calculus, left minus right.

    family 1, (i, j):    x_i x_j - sigma^{kl}_{ij} x_k x_l - C^k_{ij} x_k
    family 2, (i, j, a, b): sigma^{kl}_{ij} f^a_k f^b_l - f^k_i f^l_j sigma^{ab}_{kl}
    family 3, (i, j, a): sigma^{kl}_{ij} x_k f^a_l + C^l_{ij} f^a_l
                         - f^k_i f^l_j C^a_{kl} - f^a_i x_j
    family 4, (i, j, a): x_i f^a_j - sigma^{kl}_{ij} f^a_k x_l
    """
    if family in _ARITY and len(indices) != _ARITY[family]:
        raise ValueError(f"family {family} takes {_ARITY[family]} indices, got {len(indices)}")
    for idx in indices:
        if idx < 1 or idx > n:
            raise ValueError(f"index {idx} outside 1..{n}")
    ct = _index_constants(_constants(n, constants).entries)
    return _bcc_row(family, indices, n, _index(sigma_cg(n).entries), ct)


def _rtt_rows(n: int) -> Iterator[tuple[RelationKey, FlatRow]]:
    tables = _rtt_tables(n)
    for I, J, A, B in product(range(0, n + 1), repeat=4):
        yield ("rtt", I, J, A, B), _rtt_row(I, J, A, B, tables)


def _bcc_rows(
    n: int, constants: Optional[StructureTensor] = None
) -> Iterator[tuple[RelationKey, FlatRow]]:
    sig = _index(sigma_cg(n).entries)
    ct = _index_constants(_constants(n, constants).entries)
    for family, arity in _ARITY.items():
        for indices in product(range(1, n + 1), repeat=arity):
            yield ("bcc", family, *indices), _bcc_row(family, indices, n, sig, ct)


def _key_groups(n: int, constants: StructureTensor) -> Iterator[tuple[list, list]]:
    """Each side's relation keys, in key order, one group per cell of grades (U, L).

    With `cg`'s weight w(i) = max(i - 1, 0), the grade of `rtt` key
    (I, J, A, B) is (w(A)+w(B), w(I)+w(J)); of `bcc` keys, (0, w(i)+w(j))
    for family 1 (i, j), (w(a)+w(b), w(i)+w(j)) for family 2 (i, j, a, b)
    and (w(a), w(i)+w(j)) for families 3 and 4 (i, j, a).  Index pairs
    grouped by weight give each grade's keys, so no list of all keys is
    built.  A constant C^k_{ij} off the support k = i + j - 1 joins the
    weights w(k) and w(i)+w(j), on the lower side of families 1 and 3 and
    on the upper side of family 3; a cell is a pair of classes (upper,
    lower) of the partition of the weights 0..2n-2 those pairs generate.
    On the support every class is one weight, and every cell one grade.
    """
    pairs: tuple[dict, dict] = ({}, {})  # index pairs over 0..n and over 1..n, by weight
    for lo, by_weight in enumerate(pairs):
        for i, j in product(range(lo, n + 1), repeat=2):
            by_weight.setdefault(max(i - 1, 0) + max(j - 1, 0), []).append((i, j))
    cap, small = pairs
    label = list(range(2 * n - 1))  # each weight's class
    for k, i, j in constants.entries:
        old, new = label[i + j - 2], label[k - 1]
        label = [new if c == old else c for c in label]
    classes: dict[int, list] = {}
    for weight, c in enumerate(label):
        classes.setdefault(c, []).append(weight)
    for uppers, lowers in product(classes.values(), repeat=2):
        rtt_keys, bcc_keys = [], []
        for U, L in product(uppers, lowers):
            rtt_keys += [("rtt", *lower, *upper) for lower in cap[L] for upper in cap[U]]
            bcc_keys += [("bcc", 1, *lower) for lower in small[L] if U == 0]
            bcc_keys += [("bcc", 2, *lower, *upper) for lower in small[L] for upper in small[U]]
            bcc_keys += [("bcc", f, *lower, U + 1) for f in (3, 4) if U < n for lower in small[L]]
        yield sorted(rtt_keys), sorted(bcc_keys)


def _signature(row: FlatRow) -> tuple:
    """A row's sorted ((word, packed monomial), q) items, negated unless the last is positive.

    A row and its negative span one line and share one signature.
    """
    items = sorted(row.items())
    return tuple(items) if items[-1][1] > 0 else tuple((wk, -q) for wk, q in items)


def compare_relation_spans(
    n: int, bcc_constants: Optional[StructureTensor] = None
) -> VerificationReport:
    """Mutual span inclusion of the two relation sets, exactly.

    Each group of `_key_groups`, one grade or (constants off their support)
    a cell of merged grades, is generated, compared and dropped on its own,
    so memory is bounded by the largest group.  No block of `_outside_spans`
    crosses a group, so each elimination gets the rows and columns it would
    get from all relations at once.  Witnesses are buffered and sorted back
    into key order, every `rtt`-side witness first.
    """
    ct = _constants(n, bcc_constants)
    collector = Collector("rtt", n)
    collector.checked += (n + 1) ** 4 + sum(n ** a for a in _ARITY.values())
    tables = _rtt_tables(n)
    sig, cti = _index(sigma_cg(n).entries), _index_constants(ct.entries)
    found: list[tuple[str, RelationKey]] = []
    for rtt_keys, bcc_keys in _key_groups(n, ct):
        # each nonzero relation as its signature, which also spans its line
        rtt_rows = [(k, _signature(r)) for k in rtt_keys if (r := _rtt_row(*k[1:], tables))]
        bcc_rows = [
            (k, _signature(r)) for k in bcc_keys if (r := _bcc_row(k[1], k[2:], n, sig, cti))
        ]
        found += _outside_spans(rtt_rows, bcc_rows)
    # "bcc-span" sorts first, so every rtt-side witness comes first
    for outside, key in sorted(found):
        collector.witnesses.append({"relation": list(key), "outside": outside})
    return collector.report()


def _outside_spans(rtt_rows: list, bcc_rows: list) -> Iterator[tuple[str, RelationKey]]:
    """The (opposing span, key) of each signed row outside the opposing span.

    A row that equals an opposing row up to sign is in the opposing span
    outright; this match compares signatures, tuples of ints and rationals,
    and on correct input it settles every row.  Only when some row is left
    over are relations coordinatized over the common word basis.  Rows that
    share no word are independent, so span membership splits over the
    connected components of the row-word graph (the trivial case of the
    block triangular form): every unmatched row is tested by fraction-free
    elimination against the opposing rows of its own block only.  A
    block's elimination is built the first time one of its rows needs it.
    """
    rtt_set, bcc_set = {row for _, row in rtt_rows}, {row for _, row in bcc_rows}
    unmatched = [(key, row, 1, "bcc-span") for key, row in rtt_rows if row not in bcc_set]
    unmatched += [(key, row, 0, "rtt-span") for key, row in bcc_rows if row not in rtt_set]
    if not unmatched:
        return

    # columns numbered by first appearance, a row's words by length, then letters
    columns: dict[tuple, int] = {}
    for _, row in rtt_rows + bcc_rows:
        for w in sorted({w for (w, _), _ in row}, key=lambda w: (len(w), w)):
            columns.setdefault(w, len(columns))

    # union-find over columns: a row joins all of its words into one block
    parent = list(range(len(columns)))

    def find(col: int) -> int:
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    def block(row: tuple) -> int:
        return find(columns[row[0][0][0]])

    for _, row in rtt_rows + bcc_rows:
        first = block(row)
        for (w, _), _ in row[1:]:
            parent[find(columns[w])] = first

    def coordinates(row: tuple) -> Row:
        scalars = _by_index((w, key, q) for (w, key), q in row)
        return {columns[w]: s for w, s in scalars.items()}

    # per block root, the rows of each side (0: rtt, 1: bcc)
    members: dict[int, tuple[list[tuple], list[tuple]]] = {}
    for side, rows in enumerate((rtt_rows, bcc_rows)):
        for _, row in rows:
            members.setdefault(block(row), ([], []))[side].append(row)
    echelons: dict[tuple[int, int], Echelon] = {}
    for key, row, side, outside in unmatched:
        root = block(row)
        ech = echelons.get((root, side))
        if ech is None:
            ech = echelons[root, side] = echelon([coordinates(r) for r in members[root][side]])
        if not ech.contains(coordinates(row)):
            yield outside, key


def dump_relations(n: int) -> str:
    """Stable text dump of every generated relation, one per line."""
    rows = chain(_rtt_rows(n), _bcc_rows(n))
    return "".join(f"{' '.join(map(str, key))} : {_row_str(row, n)}\n" for key, row in rows)
