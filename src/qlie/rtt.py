"""Exchange relations of the extended matrix against the defining relations.

The block matrix T has T^0_0 = 1 in the corner, T^0_i = x_i along the top
row, T^a_i = f(a,i) in the body and T^a_0 = 0 below the corner.  Expanding

    Rhat^{KL}_{IJ} T^A_K T^B_L  -  T^K_I T^L_J Rhat^{AB}_{KL}

over all capital index tuples, Rhat being E = `extended_rhat(n)`, yields
quadratic relations in the free algebra on x and f; these are compared, as
linear spans over the fraction field of the scalar ring, with the four
directly-substituted relation families of the bicovariant calculus, built
by `freealg._bcc_terms`.  Each side has one builder of packed terms
(`_rtt_terms`, `freealg._bcc_terms`), which the single-relation readers
(`rtt_relation`, `bcc_relation`, `dump_relations`) and the comparison all
call.

Theorem.  Let E have any body sigma and constants C, and the calculus
relations the same.  Exchange relation (I, J, A, B) is 0 when I = 0 or
J = 0, and for i, j >= 1 it is its keyed partner (`_partner`):

    (i, j, 0, 0) = -family 1 (i, j)      (i, j, 0, a) = +family 3 (i, j, a)
    (i, j, a, 0) = -family 4 (i, j, a)   (i, j, a, b) = +family 2 (i, j, a, b)

Proof.  E^{KL}_{IJ} is sigma^{kl}_{ij} at (K, L) = (k, l) and C^k_{ij} at
(0, k) for i, j >= 1, and E's delta blocks send input (0, a) to (a, 0)
and (a, 0) to (0, a) with coefficient 1, for a in 0..n.
1. I = 0: the left side is T^A_J T^B_0 = [B = 0] T^A_J, and T^K_0 =
   [K = 0] leaves T^L_J E^{AB}_{0L} = [B = 0] T^A_J on the right.  J = 0
   is the mirror case.
2. i, j >= 1: the left side is sigma^{kl}_{ij} T^A_k T^B_l + C^k_{ij}
   T^A_0 T^B_k.  On the right, output (A, B) comes from input (0, 0) at
   (0, 0), from the C^a_{kl} and the delta input (a, 0) at (0, a), from
   the delta input (0, a) at (a, 0), and from sigma alone else.  These are
   the families of `bcc_relation`, with the signs above.
The proof fixes no sigma or C, so it holds row by row for every input;
`suite_qlie` reads the same identity in a representation.  So the
(n+1)^2 (2n+1) keys with I J = 0 give 0, and the other n^2 (n+1)^2 pair
one to one with the calculus keys.  The exchange side always takes the
closed form and the calculus side the given constants, so one corrupted
constant makes the n (n+1) pairs it enters differ.

While the constants lie on their support, every relation is homogeneous
in `cg`'s weight grading, of its key's grade (`_key_groups`), so the
comparison takes one grade at a time: a tracemalloc peak of 1.2 MiB at
n = 12, against 85 MiB with every relation held at once.

Each group is compared in one signed sweep: every key's exchange relation
with sign + and its partner's calculus relation times the partner's sign
with sign - go into one dict of packed terms, each relation at the key's
position in the group (`freealg`).  The position keeps the pairs apart, so
a group whose terms all cancel is exactly a group whose pairs all agree,
and only a group that does not cancel is split into keyed pairs
(`_split`) for the exact span test.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterator, Optional

from .cg import StructureTensor, _constants, extended_rhat, sigma_cg
from .checks import Collector, VerificationReport
from .freealg import _ARITY, FlatRow, _bcc_terms, _index, _layout, _row, _row_str, _rows
from .linalg import Echelon, Row, echelon
from .scalars import _by_index

def _rtt_tables(n: int) -> tuple[dict, dict, list, list]:
    """Rhat indexed by input and output pair (`freealg.EntryIndex`), and T
    by rows, t[upper][lower], and by columns, t[lower][upper], each entry a
    generator code, 0 for the unit or None for a structural zero."""
    m = n + 1
    t = [[m * upper + lower if lower else None for lower in range(m)] for upper in range(m)]
    t[0] = list(range(m))
    return (*_index(extended_rhat(n).entries, n), t, list(zip(*t)))


def _bcc_tables(n: int, constants: Optional[StructureTensor]) -> tuple[tuple, tuple]:
    """sigma_cg(n) and the constants, the closed-form ones for None, indexed for `_bcc_terms`."""
    ct = {(k, (i, j)): v for (k, i, j), v in _constants(n, constants).entries.items()}
    return _index(sigma_cg(n).entries, n), _index(ct, n)


def _rtt_terms(out: dict, keys: list, n: int, tables: tuple[dict, dict, list, list]) -> None:
    """Add the exchange relation of each key (I, J, A, B) of `keys` into out
    at its position, as packed terms (`freealg`)."""
    by_in, by_out, t, columns = tables
    base, width = _layout(n)
    get = out.get
    for pos, (I, J, A, B) in enumerate(keys):
        at = pos << width
        # Rhat^{KL}_{IJ} T^A_K T^B_L  -  T^K_I T^L_J Rhat^{AB}_{KL}, by_out's terms negated
        for entries, first, second in ((by_in.get((I, J), ()), t[A], t[B]),
                                       (by_out.get((A, B), ()), columns[I], columns[J])):
            for (K, L), _, key, q in entries:
                c1, c2 = first[K], second[L]
                if c1 is not None and c2 is not None:
                    k = key + (at + (c1 * base + c2 if c2 else c1))
                    out[k] = get(k, 0) + q


def rtt_relation(I: int, J: int, A: int, B: int, n: int) -> FlatRow:
    """One exchange relation, as left side minus right side.

    Zero-pattern rows of T silently drop their terms.  By the module's
    theorem the empty rows are exactly the keys with I = 0 or J = 0, and
    those whose calculus partner is 0.
    """
    for idx in (I, J, A, B):
        if idx < 0 or idx > n:
            raise ValueError(f"index {idx} outside 0..{n}")
    return _row(_rtt_terms, (I, J, A, B), n, _rtt_tables(n))


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
    return _row(_bcc_terms, (family, indices, 1), n, *_bcc_tables(n, constants))


def _rtt_rows(n: int) -> Iterator[tuple[tuple, FlatRow]]:
    tables = _rtt_tables(n)
    for I, J, A, B in product(range(0, n + 1), repeat=4):
        yield ("rtt", I, J, A, B), _row(_rtt_terms, (I, J, A, B), n, tables)


def _bcc_rows(
    n: int, constants: Optional[StructureTensor] = None
) -> Iterator[tuple[tuple, FlatRow]]:
    tables = _bcc_tables(n, constants)
    for family, arity in _ARITY.items():
        for indices in product(range(1, n + 1), repeat=arity):
            yield ("bcc", family, *indices), _row(_bcc_terms, (family, indices, 1), n, *tables)


def _key_groups(n: int, constants: StructureTensor) -> Iterator[list[tuple[int, ...]]]:
    """The exchange keys (i, j, A, B) with i, j >= 1, in key order, one list per cell of grades.

    With `cg`'s weight w(i) = max(i - 1, 0), key (i, j, A, B) and its
    partner have grade (w(A)+w(B), w(i)+w(j)).  A constant C^k_{ij} off
    the support k = i + j - 1 joins the weights w(k) and w(i)+w(j); a cell
    is a pair of classes (upper, lower) of the partition of the weights
    0..2n-2 those joins generate.  On the support every class is one
    weight, and every cell one grade.  One walk over the index pairs of
    0..n, in order, lists each class's pairs in order, so the keys of a
    cell, lower pair then upper pair, come out in key order unsorted, and
    no list of all keys is built.
    """
    label = list(range(2 * n - 1))  # each weight's class
    for k, i, j in constants.entries:
        old, new = label[i + j - 2], label[k - 1]
        label = [new if c == old else c for c in label]
    pairs: dict[int, list] = {}  # each class's index pairs, in order
    for i, j in product(range(n + 1), repeat=2):
        pairs.setdefault(label[max(i - 1, 0) + max(j - 1, 0)], []).append((i, j))
    for uppers, lowers in product(pairs.values(), repeat=2):
        yield [(*lower, *upper) for lower in lowers if all(lower) for upper in uppers]


def _partner(i: int, j: int, A: int, B: int) -> tuple[int, tuple[int, ...], int]:
    """(family, indices, sign) of the calculus relation that exchange relation (i, j, A, B) equals."""
    return (1, 3, 4, 2)[2 * bool(A) + bool(B)], (i, j, *filter(None, (A, B))), 1 if B else -1


def compare_relation_spans(
    n: int, bcc_constants: Optional[StructureTensor] = None
) -> VerificationReport:
    """Mutual span inclusion of the two relation sets, exactly.

    Only the keys of `_key_groups` are built, each beside its partner: the
    other exchange rows are 0 by the module's theorem, and in every span.
    A pair that agrees is in both spans.  A group is swept once (the
    module docstring); one that does not cancel is split into its pairs,
    from the sweep's own terms and a copy of its exchange side, so no
    relation is built twice, and `_outside_spans` tests the pairs that
    differ.  Each group is generated, compared and dropped on its own, so
    memory is bounded by the largest group, and no block of
    `_outside_spans` crosses a group.  Witnesses are sorted back into key
    order, `rtt`-side first.
    """
    ct = _constants(n, bcc_constants)
    collector = Collector("rtt", n)
    collector.checked += (n + 1) ** 4 + sum(n ** a for a in _ARITY.values())
    tables, bcc_tables = _rtt_tables(n), _bcc_tables(n, ct)
    found: list[tuple[str, tuple]] = []
    for keys in _key_groups(n, ct):
        terms: dict = {}
        _rtt_terms(terms, keys, n, tables)
        exchange = terms.copy()
        partners = [_partner(*key) for key in keys]
        _bcc_terms(terms, [(family, idx, -sign) for family, idx, sign in partners], n, *bcc_tables)
        if any(terms.values()):
            found += _outside_spans(list(_split(keys, partners, exchange, terms, n)))
    # "bcc-span" sorts first, so every rtt-side witness comes first
    for outside, key in sorted(found):
        collector.witness(lambda: {"relation": list(key), "outside": outside})
    return collector.report()


def _split(keys: list, partners: list, exchange: dict, rest: dict, n: int) -> Iterator[tuple]:
    """The keyed pairs of a group for `_outside_spans`: each key's exchange
    row and its signed partner row, the exchange row less what the sweep
    left at the key's position; one row object where the two agree.  Every
    key of `exchange` is a key of `rest`, which began as its copy."""
    rows = _rows(exchange, n)
    calculus = _rows({k: exchange.get(k, 0) - q for k, q in rest.items()}, n)
    for pos, (key, (family, indices, _)) in enumerate(zip(keys, partners)):
        row, partner = rows.get(pos, {}), calculus.get(pos, {})
        yield ("rtt", *key), row, ("bcc", family, *indices), row if partner == row else partner


def _outside_spans(pairs: list) -> Iterator[tuple[str, tuple]]:
    """(opposing span, key) of each nonzero row of a differing pair outside that span.

    `pairs` holds (exchange key, row, calculus key, signed partner row),
    one row object on both sides of a pair that agrees.  Rows that share
    no word are independent, so span membership splits over the connected
    components of the row-word graph (the trivial case of the block
    triangular form): a row is tested by fraction-free elimination against
    the opposing rows of its block, built when needed.  Each row object is
    converted to coordinates once.
    """
    differing = [pair for pair in pairs if pair[1] is not pair[3]]
    unmatched = [(key, row, 1, "bcc-span") for key, row, _, _ in differing if row]
    unmatched += [(key, row, 0, "rtt-span") for _, _, key, row in differing if row]
    if not unmatched:
        return
    rtt_rows = [row for _, row, _, _ in pairs if row]
    bcc_rows = [row for _, _, _, row in sorted(pairs, key=lambda p: p[2]) if row]

    # columns numbered by first appearance, a row's words by length, then letters
    columns: dict[tuple, int] = {}
    for row in rtt_rows + bcc_rows:
        for w in sorted({w for w, _ in row}, key=lambda w: (len(w), w)):
            columns.setdefault(w, len(columns))

    # union-find over columns: a row joins all of its words into one block
    parent = list(range(len(columns)))

    def find(col: int) -> int:
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    def block(row: FlatRow) -> int:
        return find(columns[next(iter(row))[0]])

    for row in rtt_rows + bcc_rows:
        first = block(row)
        for w, _ in row:
            parent[find(columns[w])] = first

    converted: dict[int, Row] = {}  # by id: a row object is converted once

    def coordinates(row: FlatRow) -> Row:
        if id(row) not in converted:
            scalars = _by_index((w, key, q) for (w, key), q in row.items())
            converted[id(row)] = {columns[w]: s for w, s in scalars.items()}
        return converted[id(row)]

    # per block root, the rows of each side (0: rtt, 1: bcc)
    members: dict[int, tuple[list[FlatRow], list[FlatRow]]] = {}
    for side, rows in enumerate((rtt_rows, bcc_rows)):
        for row in rows:
            members.setdefault(block(row), ([], []))[side].append(row)
    echelons: dict[tuple[int, int], Echelon] = {}
    for key, row, side, outside in unmatched:
        root = block(row)
        if (root, side) not in echelons:
            echelons[root, side] = echelon([coordinates(r) for r in members[root][side]])
        if not echelons[root, side].contains(coordinates(row)):
            yield outside, key


def dump_relations(n: int) -> str:
    """Stable text dump of every generated relation, one per line."""
    rows = chain(_rtt_rows(n), _bcc_rows(n))
    return "".join(f"{' '.join(map(str, key))} : {_row_str(row, n)}\n" for key, row in rows)
