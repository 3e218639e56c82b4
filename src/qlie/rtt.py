"""Exchange relations of the extended matrix against the defining relations.

The block matrix T has unit in the corner, the x_j along the top row, the
f(i,j) in the body and zeros below the corner.  Expanding

    Rhat^{KL}_{IJ} T^A_K T^B_L  -  T^K_I T^L_J Rhat^{AB}_{KL}

over all capital index tuples yields quadratic relations in the free algebra
on x and f; these are compared, as linear spans over the fraction field of
the scalar ring, with the four directly-substituted relation families of the
bicovariant calculus.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional

from .cg import StructureTensor, extended_rhat, sigma_cg, structure_constants
from .checks import Collector, VerificationReport
from .freealg import NCPoly, Word, chi, ff
from .linalg import Echelon, Row, echelon
from .operators import Operator
from .scalars import ONE, Scalar

RelationKey = tuple

# an operator's entries grouped by input pair and by output pair:
# by_in[(i, j)] lists (out, coeff), by_out[(k, l)] lists (in, coeff)
EntryIndex = tuple[dict, dict]
# structure constants C^k_{ij} grouped by lower pair, listing (k, coeff),
# and by upper index, listing ((i, j), coeff)
ConstantIndex = tuple[dict, dict]


def _index_entries(op: Operator) -> EntryIndex:
    by_in: dict[tuple[int, int], list] = {}
    by_out: dict[tuple[int, int], list] = {}
    for (out, inp), coeff in op.entries.items():
        by_in.setdefault(inp, []).append((out, coeff))
        by_out.setdefault(out, []).append((inp, coeff))
    return by_in, by_out


def _index_constants(ct: StructureTensor) -> ConstantIndex:
    by_lower: dict[tuple[int, int], list] = {}
    by_upper: dict[int, list] = {}
    for (k, i, j), v in ct.entries.items():
        by_lower.setdefault((i, j), []).append((k, v))
        by_upper.setdefault(k, []).append(((i, j), v))
    return by_lower, by_upper


def _collect(terms: Iterable[tuple[Word, Scalar]]) -> NCPoly:
    """Sum of scalar multiples of words; zero coefficients are dropped."""
    out: dict[Word, Scalar] = {}
    for word, coeff in terms:
        acc = out.get(word)
        out[word] = coeff if acc is None else acc + coeff
    return NCPoly(out)


def _t_entry(upper: int, lower: int) -> Optional[Word]:
    """Entry of the block matrix T as a word; None encodes a structural zero."""
    if upper == 0 and lower == 0:
        return ()
    if upper == 0:
        return (chi(lower),)
    if lower == 0:
        return None
    return (ff(upper, lower),)


def rtt_relation(I: int, J: int, A: int, B: int, n: int) -> NCPoly:
    """One exchange relation, as left side minus right side.

    Zero-pattern rows of T silently drop their terms, so many index tuples
    produce the zero polynomial.
    """
    for idx in (I, J, A, B):
        if idx < 0 or idx > n:
            raise ValueError(f"index {idx} outside 0..{n}")
    return _rtt_relation(I, J, A, B, _index_entries(extended_rhat(n)))


def _rtt_relation(I: int, J: int, A: int, B: int, rhat: EntryIndex) -> NCPoly:
    by_in, by_out = rhat

    def terms() -> Iterator[tuple[Word, Scalar]]:
        # Rhat^{KL}_{IJ} T^A_K T^B_L
        for (K, L), coeff in by_in.get((I, J), ()):
            ta, tb = _t_entry(A, K), _t_entry(B, L)
            if ta is not None and tb is not None:
                yield ta + tb, coeff
        # T^K_I T^L_J Rhat^{AB}_{KL}
        for (K, L), coeff in by_out.get((A, B), ()):
            ta, tb = _t_entry(K, I), _t_entry(L, J)
            if ta is not None and tb is not None:
                yield ta + tb, -coeff

    return _collect(terms())


def bcc_relation(
    family: int,
    indices: tuple[int, ...],
    n: int,
    constants: Optional[StructureTensor] = None,
) -> NCPoly:
    """A defining relation of the bicovariant calculus, left minus right.

    family 1, (i, j):    x_i x_j - sigma^{kl}_{ij} x_k x_l - C^k_{ij} x_k
    family 2, (i, j, a, b): sigma^{kl}_{ij} f^a_k f^b_l - f^k_i f^l_j sigma^{ab}_{kl}
    family 3, (i, j, a): sigma^{kl}_{ij} x_k f^a_l + C^l_{ij} f^a_l
                         - f^k_i f^l_j C^a_{kl} - f^a_i x_j
    family 4, (i, j, a): x_i f^a_j - sigma^{kl}_{ij} f^a_k x_l
    """
    ct = structure_constants(n) if constants is None else constants
    return _bcc_relation(family, indices, _index_entries(sigma_cg(n)), _index_constants(ct))


def _bcc_relation(
    family: int, indices: tuple[int, ...], sigma: EntryIndex, constants: ConstantIndex
) -> NCPoly:
    by_in, by_out = sigma
    ct_lower, ct_upper = constants
    if family == 1:
        i, j = indices
        return _collect([
            ((chi(i), chi(j)), ONE),
            *(((chi(k), chi(l)), -w) for (k, l), w in by_in.get((i, j), ())),
            *(((chi(k),), -v) for k, v in ct_lower.get((i, j), ())),
        ])
    if family == 2:
        i, j, a, b = indices
        return _collect([
            *(((ff(a, k), ff(b, l)), w) for (k, l), w in by_in.get((i, j), ())),
            *(((ff(k, i), ff(l, j)), -w) for (k, l), w in by_out.get((a, b), ())),
        ])
    if family == 3:
        i, j, a = indices
        return _collect([
            *(((chi(k), ff(a, l)), w) for (k, l), w in by_in.get((i, j), ())),
            *(((ff(a, l),), v) for l, v in ct_lower.get((i, j), ())),
            *(((ff(k, i), ff(l, j)), -v) for (k, l), v in ct_upper.get(a, ())),
            ((ff(a, i), chi(j)), -ONE),
        ])
    if family == 4:
        i, j, a = indices
        return _collect([
            ((chi(i), ff(a, j)), ONE),
            *(((ff(a, k), chi(l)), -w) for (k, l), w in by_in.get((i, j), ())),
        ])
    raise ValueError(f"unknown relation family {family}")


def all_rtt_relations(n: int) -> Iterator[tuple[RelationKey, NCPoly]]:
    R = _index_entries(extended_rhat(n))
    for I, J, A, B in product(range(0, n + 1), repeat=4):
        yield ("rtt", I, J, A, B), _rtt_relation(I, J, A, B, R)


def all_bcc_relations(
    n: int, constants: Optional[StructureTensor] = None
) -> Iterator[tuple[RelationKey, NCPoly]]:
    sig = _index_entries(sigma_cg(n))
    ct = _index_constants(structure_constants(n) if constants is None else constants)
    small = range(1, n + 1)
    for i, j in product(small, repeat=2):
        yield ("bcc", 1, i, j), _bcc_relation(1, (i, j), sig, ct)
    for i, j, a, b in product(small, repeat=4):
        yield ("bcc", 2, i, j, a, b), _bcc_relation(2, (i, j, a, b), sig, ct)
    for i, j, a in product(small, repeat=3):
        yield ("bcc", 3, i, j, a), _bcc_relation(3, (i, j, a), sig, ct)
    for i, j, a in product(small, repeat=3):
        yield ("bcc", 4, i, j, a), _bcc_relation(4, (i, j, a), sig, ct)


def compare_relation_spans(
    n: int, bcc_constants: Optional[StructureTensor] = None
) -> VerificationReport:
    """Mutual span inclusion of the two relation sets, exactly.

    Relations are coordinatized over the common word basis.  A row that
    equals an opposing row up to sign is in the opposing span outright.  Rows
    that share no word are independent, so span membership splits over the
    connected components of the row-word graph (the trivial case of the
    block triangular form): every other row is tested by fraction-free
    elimination against the opposing rows of its own block only, in
    block-local columns.  A block's elimination is built the first time one
    of its rows needs it.  Witnesses name relations outside the opposing span.
    """
    collector = Collector("rtt", n)
    collector.checked += (n + 1) ** 4 + n * n + n ** 4 + 2 * n ** 3

    # columns numbered by first appearance, in the pass that builds the rows
    columns: dict[Word, int] = {}

    def to_rows(relations: Iterator[tuple[RelationKey, NCPoly]]) -> list[tuple[RelationKey, tuple]]:
        rows = []
        for key, poly in relations:
            if not poly.is_zero():
                pairs = tuple((columns.setdefault(w, len(columns)), c) for w, c in poly.terms())
                rows.append((key, _row_signature(pairs)))
        return rows

    # each nonzero relation as its sign-normalized row: a row and its
    # negative span the same line, so the normalized rows serve both the
    # signature match and the elimination
    rtt_rows = to_rows(all_rtt_relations(n))
    bcc_rows = to_rows(all_bcc_relations(n, constants=bcc_constants))

    # union-find over columns: a row joins all of its words into one block
    parent = list(range(len(columns)))

    def find(col: int) -> int:
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    for _, row in rtt_rows + bcc_rows:
        first = find(row[0][0])
        for col, _ in row[1:]:
            parent[find(col)] = first
    # block-local column indices, in global column order
    local = [0] * len(columns)
    width: dict[int, int] = {}
    for col in range(len(columns)):
        root = find(col)
        local[col] = width.get(root, 0)
        width[root] = local[col] + 1

    def localize(row: tuple) -> Row:
        return {local[col]: v for col, v in row}

    # per block root, the rows of each side (0: rtt, 1: bcc)
    members: dict[int, tuple[list[tuple], list[tuple]]] = {}
    for side, rows in enumerate((rtt_rows, bcc_rows)):
        for _, row in rows:
            members.setdefault(find(row[0][0]), ([], []))[side].append(row)
    echelons: dict[tuple[int, int], Echelon] = {}

    rtt_set = {row for _, row in rtt_rows}
    bcc_set = {row for _, row in bcc_rows}
    for rows, opposing, side, outside in (
        (rtt_rows, bcc_set, 1, "bcc-span"),
        (bcc_rows, rtt_set, 0, "rtt-span"),
    ):
        for key, row in rows:
            if row in opposing:
                continue
            root = find(row[0][0])
            ech = echelons.get((root, side))
            if ech is None:
                ech = echelons[root, side] = echelon(
                    [localize(r) for r in members[root][side]], width[root]
                )
            if not ech.contains(localize(row)):
                collector.witnesses.append({"relation": list(key), "outside": outside})
    return collector.report()


def _row_signature(pairs: tuple) -> tuple:
    """A row's (column, coefficient) pairs, negated unless the first is positive.

    The pairs come in word order, so sign-opposite relations agree.
    """
    _, coeff = max(pairs[0][1].terms(), key=lambda t: (sum(t[0]), t[0]))
    return pairs if coeff > 0 else tuple((col, -v) for col, v in pairs)


def dump_relations(n: int) -> str:
    """Stable text dump of every generated relation, one per line."""
    lines = []
    for key, poly in all_rtt_relations(n):
        lines.append(f"rtt {' '.join(map(str, key[1:]))} : {poly}")
    for key, poly in all_bcc_relations(n):
        lines.append(f"bcc {' '.join(map(str, key[1:]))} : {poly}")
    return "\n".join(lines) + "\n"
