"""Verification suites for the braid, Yang-Baxter and quantum-Lie identities.

Each suite checks an identity exactly, over symbolic coefficients whatever
the run's values, and returns a VerificationReport.  Failures are
collected as witnesses, never raised.  Each operator identity is stated
once, as the text its witnesses print, such as "[s12,rho13]+s12*rho23" or
"R12*R13*R23 = R23*R13*R12": a factor is an operator name followed by two
distinct slots in 1..3, a product is one word, its leftmost factor applied
last, "[x,y]" means x*y - y*x, and an identity without "=" says that its
expression vanishes.  `_expression` parses the text into signed words, and
one engine, `check_identities`, verifies them: given a monomial domain, on
three legs and two independent routes, functionally, by applying the words
to basis monomials, and matrix-wise, by multiplying out sparse restriction
matrices row by row; given none, matrix-wise alone, on two legs when only
slots 1 and 2 appear.

Both routes run on flat terms {key: q}, q a plain rational and the key one
int of `width`-bit fields (Monagan & Pearce, CASC 2007), from the lowest:
three index fields, the first index highest, so packed indices sort as
their tuples do; three start fields, the index the term started from, a
monomial or an output row; and on top the packed b/C/p monomial of
`scalars`, there because its p field is signed.  A field always holds an
index: on the functional route, exponent e has index e + 1, as in the
matrices, so x^-1 is index 0 (`_index_images`), and a witness prints
exponents again.  The routes share one product loop, a slab at a time,
every start that shares a first index, through tables keyed by the two
index fields a factor reads, which one builder makes from a kernel's basis
images in indices or a leaf's rows.  So moving a term is one int add; the
loop adds and multiplies rationals, ints unless an input has a fraction,
and builds no Scalar.  A word's first factor cannot merge two terms, so its
terms go in a plain list, and only the later factors merge.  The matrices
of rho, s, r and the braid operator that `cybe`, `components`, `ybfr` and
`cross-check` take as leaves are tabulated from the same basis images
(`_functional_matrix`), so a passing run builds no LaurentFn and composes
no Operator.

A run's --beta/--C/--p values are an evaluation homomorphism, so a
specialized difference is the specialization of the symbolic one: every
suite checks its symbolic inputs, and `Collector.specialize`, the one
place the values are applied, substitutes them only into a position that
differs.  A slab that passes is never decoded: the Collector turns flat
terms back into Scalars only to decide a specialized verdict or print a
witness, and prints only the WITNESS_CAP witnesses a report keeps; a
symbolic run counts the failing positions past them from their packed
keys.

`braid` and the `extended` part of `ybe` state one identity.  With R =
P Rhat, R12 R13 R23 = W Rhat23 Rhat12 Rhat23 and R23 R13 R12 = W Rhat12
Rhat23 Rhat12, where W = P12 P13 P23 reverses the three legs.  Proof.
Write R_ab = P_ab Rhat_ab, X_ba being X with its first leg on slot b, and
move each P left, using P X_ab P = X_{pi(a) pi(b)} for the transposition
pi of P: Rhat12 P13 = P13 Rhat32 and Rhat32 Rhat13 P23 = P23 Rhat23
Rhat12, so R12 R13 R23 = P12 P13 P23 Rhat23 Rhat12 Rhat23; the other
word is the mirror case, and P23 P13 P12 = W too.  So the part's matrix
witnesses are braid's, each `out` (a, b, c) read as (c, b, a) and `lhs`
and `rhs` swapped, for every Rhat:
`test_braid_and_the_ybe_extended_part_are_one_identity` compares them over
all 243 single-entry mutants of `extended_rhat(2)`.

`cybe` and the `full` part of `ybfr` are `braid`'s identity on P (I + r).
Expanding, (I + r12)(I + r13)(I + r23) - (I + r23)(I + r13)(I + r12) is
CYBE(r) + (r12 r13 r23 - r23 r13 r12): the degree-1 terms cancel, and
those of degree 2 are [r12,r13] + [r12,r23] + [r13,r23].  With R = I + r,
so Rhat = P (I + r), the proof above makes the left side W (Rhat23 Rhat12
Rhat23 - Rhat12 Rhat23 Rhat12), braid's rhs - lhs with its legs reversed.
So for every r, braid's rhs - lhs at `out` (c, b, a) is cybe's value plus
full's at (a, b, c), entry for entry.  When r is homogeneous of degree 1
in (b, C), as the matrix of r is, the two parts have degrees 2 and 3, so
braid fails exactly when cybe or full does:
`test_cybe_and_the_ybfr_full_part_are_braid_on_the_identity_plus_r`
compares them over all 324 mutants of `_functional_matrix("r", 2)` that
move one entry by b, C, -b or -C.

A suite given an input that differs from its default checks only the
identities that take that input, on the matrix route, the only route the
input reaches.  The functional route applies the built-in kernels by name,
and `ybe`'s `cg-family` parts and `qlie` family 2, when only the constants
differ, check built-in matrices, so on such an input they would repeat the
plain run's verdict at the same n.  The input is compared by value with
`DEFAULT_INPUTS`, or the constants with `structure_constants`, so an
override by an entry's own value prints the plain run's report, and a suite
given nothing compares nothing.  The matrix witnesses still name their
route, `"side": "matrix"`; only `checked` counts less:
`test_an_overridden_run_drops_no_witness` compares the reports with those
of every check over the mutants above and the constant mutants at n = 2.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from itertools import groupby, product
from typing import Callable, Iterator, Optional, Sequence

from .cg import StructureTensor, _extended, extended_rhat, sigma_cg, sigma_cg_family
from .cg import structure_constants
from .laurent import _KERNELS, LaurentFn, SpaceConfig, _apply_kernel, _basis_image, basis_monomials
from .laurent import op_r, op_rhat, op_rho, op_s
# no suite composes operators, but the benchmark's self-test and
# tests/test_benchmark_contract.py pin `checks.compose` (ROADMAP item 8)
from .operators import Operator, compose
from .scalars import BETA, ONE, ZERO, Coeff, Scalar, _by_index, _values

WITNESS_CAP = 16

# substitution mapping: keys among {"beta", "c", "p"} with rational values
Subs = Optional[dict]
# flat terms: packed int key (index fields, start fields, monomial) -> rational
Flat = dict[int, Coeff]

# a word is a composition of elementary two-slot operators, leftmost applied
# last; an expression is a sum of words, each with sign +1 or -1
Word = Sequence[tuple[str, tuple[int, int]]]
Expression = Sequence[tuple[int, Word]]
# (witness tag, lhs, rhs): lhs = rhs, or lhs = 0 when rhs is empty
Identity = tuple[dict, Expression, Expression]


def _expression(text: str, statement: str = "") -> Expression:
    """The signed words of text, a sum of products of factors and commutators.

    A ValueError names the statement, text unless given, and the token at fault.
    """
    # reversed, so the next token is last; "" marks the end
    tokens = ["", *reversed(re.findall(r"[A-Za-z]+\d*|\S", text))]
    return _sum(tokens, "", statement or text)


def _fail(tokens: list[str], source: str, expected: str) -> ValueError:
    found = repr(tokens[-1]) if tokens[-1] else "the end"
    return ValueError(f"cannot parse {source!r}: expected {expected}, found {found}")


def _factor(tokens: list[str], source: str) -> list:
    """Take the next factor or commutator off tokens."""
    if tokens[-1] == "[":
        tokens.pop()
        x, y = _sum(tokens, ",", source), _sum(tokens, "]", source)
        return [*_product(x, y), *((-sign, word) for sign, word in _product(y, x))]
    match = re.fullmatch(r"([A-Za-z]+)([1-3])([1-3])", tokens[-1])
    if match is None or match[2] == match[3]:
        raise _fail(tokens, source, "an operator on two distinct slots in 1..3, or '['")
    tokens.pop()
    return [(1, ((match[1], (int(match[2]) - 1, int(match[3]) - 1)),))]


def _sum(tokens: list[str], end: str, source: str) -> list:
    """Take signed products off tokens up to the token end, which is taken too."""
    words, sign = [], 1
    while sign:
        term = _factor(tokens, source)
        while tokens[-1] == "*":
            tokens.pop()
            term = _product(term, _factor(tokens, source))
        words += [(sign * s, word) for s, word in term]
        if tokens[-1] not in ("+", "-", end):
            raise _fail(tokens, source, f"'+', '-' or {repr(end) if end else 'the end'}")
        sign = {"+": 1, "-": -1}.get(tokens.pop(), 0)
    return words


def _product(x: Expression, y: Expression) -> list:
    return [(sx * sy, (*wx, *wy)) for sx, wx in x for sy, wy in y]


def _identity(text: str) -> tuple[Expression, Expression]:
    """The two sides of "lhs = rhs"."""
    lhs, _, rhs = text.partition("=")
    return _expression(lhs, text), _expression(rhs, text)


def _statements(*labels: str) -> list[tuple[str, Expression]]:
    """Each label with the words it states, after any "grade: " prefix."""
    return [(label, _expression(label.rpartition(": ")[2])) for label in labels]


# the functional operator of each kernel: the tests' reference for the
# tabulated leaves, which the benchmark's self-test pins (ROADMAP item 8)
_FUNCTIONAL_OPS: dict[str, Callable] = {
    "rho": op_rho,
    "s": op_s,
    "r": op_r,
    "rhat": op_rhat,
    "R": lambda fn, slots: _apply_kernel(fn, slots, "R"),
}


@dataclass
class VerificationReport:
    """Outcome of one verification suite; passes iff no witnesses exist."""

    suite: str
    n: int
    symbolic: list[str]
    passed: bool
    checked: int
    failures: int
    witnesses: list[dict] = field(default_factory=list)
    millis: int = 0

    def to_json_dict(self) -> dict:
        """The fields in order, `passed` named "pass"."""
        return {"pass" if key == "passed" else key: value for key, value in vars(self).items()}


class Collector:
    """Specialization, check count, failure count and witnesses of one suite run.

    Create it when the suite starts; `report()` takes the elapsed time from
    then.  Every failure goes through `witness` or `counted`: `failures`
    counts them all, and `witnesses` keeps the first WITNESS_CAP, in the
    order they fail, so only those are decoded and printed.  Once the list
    is full, a symbolic run counts its failing positions straight from the
    packed keys whose terms differ (`counted`); a specialized one still
    substitutes every such position, since a value can erase a difference,
    but prints none of them.
    """

    def __init__(self, suite: str, n: int, subs: Subs = None) -> None:
        _values(**subs or {})  # a bad value raises whether or not a row differs
        self.suite = suite
        self.n = n
        self.subs = subs
        self.checked = 0
        self.failures = 0
        self.witnesses: list[dict] = []
        self._t0 = time.perf_counter()

    def witness(self, build: Callable[[], dict]) -> None:
        """Count one failure, and keep the witness `build` makes while the list has room."""
        self.failures += 1
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append(build())

    def counted(self, positions: set) -> bool:
        """Count `positions` as failures with no witness, and return True,
        once the list is full on a symbolic run, where every position whose
        flat terms differ fails; else count nothing and return False."""
        if self.subs or len(self.witnesses) < WITNESS_CAP:
            return False
        self.failures += len(positions)
        return True

    def specialize(self, row: dict) -> dict:
        """The Scalars of a flat row {(index, packed monomial): q}, by index,
        specialized; those that vanish are left out.  The one place where a
        run's values are applied."""
        by_index = _by_index((index, m, q) for (index, m), q in row.items())
        if not self.subs:
            return by_index
        return {index: v for index, s in by_index.items() if (v := s.substitute(**self.subs))}

    def entries(self, tag: dict, lhs: Flat, rhs: Optional[Flat], width: int, legs: int) -> None:
        """Witnesses of a matrix slab's entries, `lhs` and `rhs` its two
        sides' flat terms, keyed as `check_identities` packs them.

        Every nonzero entry of lhs when rhs is None, else every position where
        the two differ once specialized; in output, then input, order.  Only
        the positions whose flat terms differ are decoded.
        """
        entry, mono = (1 << 6 * width) - 1, 6 * width
        differ = {key & entry for key, _ in lhs.items() ^ (rhs or {}).items()}
        if self.counted(differ):
            return
        sides = [self.specialize({(key & entry, key >> mono): q for key, q in terms.items()
                                  if key & entry in differ}) for terms in (lhs, rhs or {})]
        for position in sorted(differ):
            ca, cb = (side.get(position, ZERO) for side in sides)
            if ca == cb:
                continue
            self.witness(lambda: {
                **tag, "out": list(_unpack_fields(position >> 3 * width, width, legs)),
                "in": list(_unpack_fields(position, width, legs)),
                **({"value": str(ca)} if rhs is None else {"lhs": str(ca), "rhs": str(cb)}),
            })

    def report(self) -> VerificationReport:
        fixed = set(self.subs or ())
        symbolic = [name for key, name in (("beta", "b"), ("c", "C"), ("p", "p")) if key not in fixed]
        return VerificationReport(
            suite=self.suite,
            n=self.n,
            symbolic=symbolic,
            passed=not self.failures,
            checked=self.checked,
            failures=self.failures,
            witnesses=list(self.witnesses),
            millis=int((time.perf_counter() - self._t0) * 1000),
        )


# ---------------------------------------------------------------------------
# the identity engine
# ---------------------------------------------------------------------------


def check_identities(
    col: Collector,
    identities: Sequence[Identity],
    leaves: dict[str, Operator],
    domain: Optional[range] = None,
) -> None:
    """Verify each identity functionally, then matrix-wise, a slab at a time.

    The inputs decide the legs and the routes.  With a monomial `domain`, an
    identity acts on three legs and runs on both routes, and each witness
    names its route under `side`.  Without one, it is a matrix identity on
    the legs its factors name, two when only slots 1 and 2 appear, else
    three, and its witnesses carry no `side`.  The functional route applies
    lhs - rhs to every monomial in three variables with exponents in
    `domain`, in the space SpaceConfig(domain.stop): range(-1, n) is the
    Laurent domain of SpaceConfig(n), range(0, n + 1) the polynomials of
    degree n per variable.  The matrix route multiplies out the `leaves`,
    the two-leg matrices of the operators the words name, by rows, as in
    Gustavson's row-wise sparse product (ACM TOMS 1978), so no product
    matrix is ever built; each entry position is one check.  Leaves of
    another shape than the first, or a factor naming no leaf (with a
    domain, no kernel), raise a ValueError before any identity runs.

    Both routes run one product loop, `_image`, a slab at a time: every
    start monomial, or every output row, with one first index, as keys in
    the layout of the module docstring, a field the `bit_length` of the
    leaves' size n, or of domain.stop when that is larger, on both routes:
    packed keys sort as their index tuples at any width.  Each factor is a
    table built once per call by `_table`: a kernel's `_index_images` on
    SpaceConfig(domain.stop), or a leaf's two-leg rows, which hold no copy
    per spectator index.  The functional route adds lhs - rhs into one
    total, which must be empty; the matrix route compares the two sides'
    slab dicts once.  Only a slab that differs reaches `col`, and of it only
    the positions whose flat terms differ: on the functional route the
    distinct start fields of the total, on the matrix route the output and
    input fields of the symmetric difference of the two sides' terms.  While
    `col` keeps fewer than WITNESS_CAP witnesses, those positions are
    decoded in sorted order; once it is full, a symbolic run only counts
    them (`Collector.counted`).

    Both routes run on the symbolic leaves and kernels, whatever the run's
    values: `col` specializes each differing position, and one whose sides
    agree once specialized is no failure.  Witnesses start with the
    identity's tag and print the specialized value.
    """
    first, leaf = next(iter(leaves.items()))
    for name, op in leaves.items():
        _check_shape(name, op, leaf.n, leaf.lo, f", as {first} has" if name != first else "")
    factors = {factor for _, lhs, rhs in identities for _, word in (*lhs, *rhs) for factor in word}
    for name in sorted({name for name, _ in factors}):
        if name not in leaves or domain is not None and name not in _KERNELS:
            kind = "kernel" if name in leaves else "leaf"
            raise ValueError(f"an identity names {name!r}, which is no {kind}")
    width = max(leaf.n, domain.stop if domain is not None else 0).bit_length()
    low = (1 << 3 * width) - 1
    matrices = {(name, slots): _rows(leaves[name].entries, slots, width) for name, slots in factors}
    if domain is not None:
        cfg = SpaceConfig(domain.stop)
        kernels = {(name, slots): _table(_index_images(name, domain.stop), slots, width)
                   for name, slots in factors}
        indices = range(domain.start + 1, domain.stop + 1)
        packed = [[_pack_fields((i0, *rest), width) for rest in product(indices, repeat=2)]
                  for i0 in indices]
        slabs = [[k | k << 3 * width for k in slab] for slab in packed]
    for tag, lhs, rhs in identities:
        named = {slot for _, word in (*lhs, *rhs) for _, pair in word for slot in pair}
        legs = 3 if domain is not None or 2 in named else 2
        if domain is not None:
            # lhs - rhs, each word's factors in the order they apply
            words = [(sign, [kernels[factor] for factor in reversed(word)])
                     for sign, word in (*lhs, *((-sign, word) for sign, word in rhs))]
            for starts in slabs:
                col.checked += len(starts)
                total = _image(words, starts)
                if not total or col.counted({key >> 3 * width & low for key in total}):
                    continue
                for start, row in sorted(_by_start(total, width).items()):
                    if values := col.specialize(_decoded(row, width)):
                        # an index is an exponent plus one
                        col.witness(lambda: {
                            **tag, "side": "functional",
                            "monomial": [i - 1 for i in _unpack_fields(start, width)],
                            "value": str(LaurentFn(cfg, 3, {tuple(i - 1 for i in index): v
                                                            for index, v in values.items()})),
                        })
            tag = {**tag, "side": "matrix"}
        col.checked += (leaf.n + 1 - leaf.lo) ** (2 * legs)
        left, right = ([(sign, [matrices[factor] for factor in word]) for sign, word in side]
                       for side in (lhs, rhs))
        # each two-leg row of a word's first factor, with every spectator
        # index in the field of slot 3 - a - b
        spectators = range(leaf.lo, leaf.n + 1) if legs == 3 else (0,)
        outs = {mid + (s << (a + b - 1) * width) for _, ((name, (a, b)), *_) in (*lhs, *rhs)
                for mid in matrices[name, (a, b)][1] for s in spectators}
        # packed rows sort as their index tuples; a slab shares out[0]
        for _, slab in groupby(sorted(outs), lambda out: out >> 2 * width):
            starts = [out | out << 3 * width for out in slab]
            lrows, rrows = _image(left, starts), _image(right, starts)
            if lrows != rrows:
                col.entries(tag, lrows, rrows if rhs else None, width, legs)


def _image(words: list, starts: list[int]) -> Flat:
    """The signed words' image of the distinct start keys, summed: a factor
    (mask, rows) takes term e, times c1, to e + move, times c1 * c2, for each
    (move, c2) in rows[e & mask], c2 nonzero.

    A word's first factor is expanded into a plain list, with no merge: its
    terms from distinct starts differ in their start fields, which no move
    changes, and the moves of one row are distinct, so no two of its terms
    share a key and none cancels.  Each later factor merges into a dict, the
    last one into the total; a one-factor word adds its list into the total.
    """
    total: Flat = {}
    for sign, ((mask, rows), *later) in words:
        terms = [(e + move, sign * c) for e in starts for move, c in rows.get(e & mask, ())]
        for k, (mask, rows) in enumerate(later, 1):
            acc = total if k == len(later) else {}
            get = acc.get
            for e, c1 in terms:
                for move, c2 in rows.get(e & mask, ()):
                    key = e + move
                    v = acc[key] = get(key, 0) + c1 * c2
                    if not v:
                        del acc[key]
            terms = acc.items()
        if not later:
            get = total.get
            for key, c in terms:
                v = total[key] = get(key, 0) + c
                if not v:
                    del total[key]
    return total


def _table(images, slots: tuple[int, int], width: int) -> tuple[int, dict[int, list]]:
    """A two-slot factor on slots a and b as a table (mask, rows) for `_image`.

    `images` gives pairs (source, terms), source an index pair and terms its
    (target, packed monomial, q) triples, target an index pair.
    rows[source's fields] lists (move, q), move taking the key of source to
    that of target and adding the monomial; mask holds the fields of slots a
    and b.
    """
    field, (a, b) = (1 << width) - 1, slots
    sa, sb, mono = (2 - a) * width, (2 - b) * width, 6 * width
    rows: dict[int, list] = {}
    for (ia, ib), terms in images:
        row = rows.setdefault(ia << sa | ib << sb, [])
        for (x, y), m, q in terms:
            row.append(((x - ia << sa) + (y - ib << sb) + (m << mono), q))
    return field << sa | field << sb, rows


def _rows(entries: dict, slots: tuple[int, int], width: int) -> tuple[int, dict[int, list]]:
    """The `_table` of a two-leg matrix's entries {(out, in): Scalar} on
    slots a and b, keyed by output row: a row times the table is that row
    of the matrix product."""
    return _table(((o, [(i, m, q) for m, q in c._terms.items()]) for (o, i), c in entries.items()),
                  slots, width)


def _pack_fields(index: Sequence[int], width: int) -> int:
    """The three index fields of a flat key holding the three indices of index, index[0] highest."""
    i, j, k = index
    return (i << width | j) << width | k


def _unpack_fields(key: int, width: int, count: int = 3) -> tuple[int, ...]:
    """The first `count` indices in the three index fields of key."""
    mask = (1 << width) - 1
    return (key >> 2 * width & mask, key >> width & mask, key & mask)[:count]


def _by_start(terms: Flat, width: int) -> dict[int, Flat]:
    """A slab's terms split by the packed start fields of their keys."""
    low = (1 << 3 * width) - 1
    rows: dict[int, Flat] = {}
    for key, q in terms.items():
        rows.setdefault(key >> 3 * width & low, {})[key] = q
    return rows


def _decoded(terms: Flat, width: int) -> dict:
    """Flat terms of one start as a flat row {(index, packed monomial): q}."""
    low, mono = (1 << 3 * width) - 1, 6 * width
    return {(_unpack_fields(key & low, width), key >> mono): q for key, q in terms.items()}


def _index_images(name: str, n: int) -> Iterator[tuple[tuple[int, int], list]]:
    """The named kernel of `laurent._KERNELS` on the basis pairs of
    SpaceConfig(n), in indices: pairs (source, terms) as `_table` reads
    them, each index the exponent plus one, so that x^-1 is index 0."""
    for ea, eb in basis_monomials(SpaceConfig(n), 2):
        images = _basis_image(name, ea, eb)
        yield (ea + 1, eb + 1), [((x + 1, y + 1), m, q) for (x, y), m, q in images]


def _functional_matrix(name: str, n: int) -> Operator:
    """Matrix of the named kernel of `laurent._KERNELS` on SpaceConfig(n).

    Entry (I,J; K,L) is the coefficient of x^(I-1) y^(J-1) in the kernel's
    image of x^(K-1) y^(L-1), read off `_index_images`, so no LaurentFn is
    built; it equals `operators.from_functional` of the kernel's functional
    operator, the reference the tests compare.
    """
    terms = (((out, inp), m, q) for inp, images in _index_images(name, n) for out, m, q in images)
    return Operator(n, 2, _by_index(terms), lo=0)


def _flipped(op: Operator) -> Operator:
    """P·op, P the flip of the two legs: entry ((a, b), in) is op's entry
    ((b, a), in), the same Scalar, so no product is taken."""
    return Operator(op.n, 2, {((b, a), inp): c for ((a, b), inp), c in op.entries.items()}, op.lo)


# the matrix each suite checks unless it is given one, whose entry `--corrupt`
# overrides; cybe's looks `_functional_matrix` up when called
DEFAULT_INPUTS: dict[str, Callable[[int], Operator]] = {
    "braid": extended_rhat,
    "ybe": extended_rhat,
    "qlie": sigma_cg,
    "cybe": lambda n: _functional_matrix("r", n),
}


def _given_or(suite: str, name: str, op: Optional[Operator], n: int, lo: int) -> Operator:
    """op, or the suite's DEFAULT_INPUTS at n when op is None; op must be a
    two-leg matrix on lo..n."""
    if op is None:
        return DEFAULT_INPUTS[suite](n)
    _check_shape(name, op, n, lo)
    return op


def _differs(suite: str, op: Optional[Operator], n: int) -> bool:
    """Whether op, the suite's input or None, was given and differs from its
    DEFAULT_INPUTS at n."""
    return op is not None and op != DEFAULT_INPUTS[suite](n)


def _routes(
    suite: str, op: Optional[Operator], n: int, domain: range
) -> tuple[dict, Optional[range]]:
    """The witness tag and the domain of an identity that takes the suite's
    input op: the matrix route alone, its witnesses still naming it, when op
    differs from the default (the module docstring's rule), else both routes
    on domain."""
    return ({"side": "matrix"}, None) if _differs(suite, op, n) else ({}, domain)


def _check_shape(name: str, op: Operator, n: int, lo: int, like: str = "") -> None:
    if op.shape() != (n, 2, lo):
        raise ValueError(f"{name} must have size {n}, 2 legs and index base {lo}{like}, "
                         f"got size {op.n}, {op.legs} legs and index base {op.lo}")


# ---------------------------------------------------------------------------
# braid / Yang-Baxter suites
# ---------------------------------------------------------------------------


def _braid(op: str) -> tuple[Expression, Expression]:
    return _identity(f"{op}12*{op}23*{op}12 = {op}23*{op}12*{op}23")


def _ybe(op: str) -> tuple[Expression, Expression]:
    return _identity(f"{op}12*{op}13*{op}23 = {op}23*{op}13*{op}12")


def suite_braid(
    n: int, subs: Subs = None, rhat: Optional[Operator] = None
) -> VerificationReport:
    """Braid equation R12 R23 R12 = R23 R12 R23, on both routes.

    The matrix route composes the extended matrix, or `rhat` when given; the
    functional route applies the braid words built from the functional
    operator to every basis monomial of the 3-fold truncated space.  Given
    an `rhat` that differs from the extended matrix, the run checks the
    matrix route alone.
    """
    col = Collector("braid", n, subs)
    R = _given_or("braid", "rhat", rhat, n, 0)
    tag, domain = _routes("braid", rhat, n, range(-1, n))
    check_identities(col, [(tag, *_braid("rhat"))], {"rhat": R}, domain)
    return col.report()


def suite_ybe(
    n: int, subs: Subs = None, rhat: Optional[Operator] = None
) -> VerificationReport:
    """Yang-Baxter equation R12 R13 R23 = R23 R13 R12 for P.Rhat and P.R_CG,p.

    Rhat is the extended matrix, or `rhat` when given; P.Rhat is checked on
    both routes, the p-family on the matrix route.  Also checks that the
    family at p = 1 reproduces the plain braid matrix.  Given an `rhat` that
    differs from the extended matrix, the run checks the `extended` part
    alone, on the matrix route.
    """
    col = Collector("ybe", n, subs)
    R = _given_or("ybe", "rhat", rhat, n, 0)
    tag, domain = _routes("ybe", rhat, n, range(-1, n))
    check_identities(col, [({"part": "extended", **tag}, *_ybe("R"))], {"R": _flipped(R)}, domain)
    if domain is None:  # the family parts take no rhat
        return col.report()

    family = sigma_cg_family(n)
    check_identities(col, [({"part": "cg-family"}, *_ybe("R"))], {"R": _flipped(family)})
    # the family at p = 1, whatever p the run gives
    at_one = family.map_entries(lambda s: s.substitute(p=1))
    leaves = {"family": at_one, "sigma": sigma_cg(n)}
    check_identities(col, [({"part": "cg-family-p1"}, *_identity("family12 = sigma12"))], leaves)
    return col.report()


# ---------------------------------------------------------------------------
# classical Yang-Baxter and graded component suites
# ---------------------------------------------------------------------------


def _cybe(op: str) -> Expression:
    """[r12, r13] + [r12, r23] + [r13, r23] for r the named operator."""
    return _expression(f"[{op}12,{op}13]+[{op}12,{op}23]+[{op}13,{op}23]")


def suite_cybe(
    n: int, subs: Subs = None, r_matrix: Optional[Operator] = None
) -> VerificationReport:
    """Classical Yang-Baxter equation for r, functional and matrix routes.

    The functional route covers every monomial of degree at most n per
    variable; the matrix route uses the matrix of r, or `r_matrix` when given.
    Given an `r_matrix` that differs from the matrix of r, the run checks the
    matrix route alone.
    """
    col = Collector("cybe", n, subs)
    r = _given_or("cybe", "r_matrix", r_matrix, n, 0)
    tag, domain = _routes("cybe", r_matrix, n, range(0, n + 1))
    check_identities(col, [(tag, _cybe("r"), ())], {"r": r}, domain)
    return col.report()


def _check_vanishing(col: Collector, labeled: list[tuple[str, Expression]]) -> None:
    """Each labeled expression vanishes, on the polynomial domain of degree n."""
    n = col.n
    identities = [({"identity": label}, expr, ()) for label, expr in labeled]
    names = dict.fromkeys(name for _, expr in labeled for _, word in expr for name, _ in word)
    leaves = {name: _functional_matrix(name, n) for name in names}
    check_identities(col, identities, leaves, range(0, n + 1))


COMPONENT_IDENTITIES: list[tuple[str, Expression]] = [
    *_statements("rho13*s23", "rho23*s13", "rho23*s12", "[s12,rho13]+s12*rho23",
                 "[rho12,s13]+s13*rho23-s23*rho13+[rho12,s23]",
                 "s23*s12", "s23*s13", "s13*s23", "[s12,s13]+s12*s23"),
    ("cybe-rho", _cybe("rho")),
    ("cybe-s", _cybe("s")),
]


def check_component_identities(n: int, subs: Subs = None) -> VerificationReport:
    """Every listed product identity between rho and s, itemized.

    Covers the mixed list whose signed sum is the b*C component of the
    classical Yang-Baxter equation, the pure-s list giving the C^2 component,
    and the classical Yang-Baxter equations for rho and s themselves.
    """
    col = Collector("components", n, subs)
    _check_vanishing(col, COMPONENT_IDENTITIES)
    return col.report()


QUADRATIC_COMPONENTS: list[tuple[str, Expression]] = _statements(
    "b^3: rho12*rho13*rho23-rho23*rho13*rho12",
    "b^2*C: s12*rho13*rho23", "b^2*C: rho12*rho13*s23", "b^2*C: rho23*s13*rho12",
    "b^2*C: rho23*rho13*s12", "b^2*C: rho12*s13*rho23-s23*rho13*rho12",
    "b*C^2: s12*s13*rho23", "b*C^2: s12*rho13*s23", "b*C^2: rho12*s13*s23",
    "b*C^2: rho23*s13*s12", "b*C^2: s23*rho13*s12", "b*C^2: s23*s13*rho12",
    "C^3: s12*s13*s23", "C^3: s23*s13*s12",
)


def check_quadratic_ybe_components(n: int, subs: Subs = None) -> VerificationReport:
    """r12 r13 r23 = r23 r13 r12 plus each of its four graded components.

    The full identity is verified with symbolic b and C; the components are
    the b^3 equation for rho, the five b^2 C identities, the six b C^2
    products and the two C^3 products, each checked separately.
    """
    col = Collector("ybfr", n, subs)
    _check_vanishing(col, [*_statements("full: r12*r13*r23-r23*r13*r12"), *QUADRATIC_COMPONENTS])
    return col.report()


# ---------------------------------------------------------------------------
# quantum Lie algebra axioms
# ---------------------------------------------------------------------------


def suite_qlie(
    n: int,
    subs: Subs = None,
    sigma: Optional[Operator] = None,
    constants: Optional[StructureTensor] = None,
) -> VerificationReport:
    """The four component relations tying sigma to the structure constants.

    sigma is the braid matrix and the constants are the closed-form ones,
    unless given.  Family 2 is the braid relation for sigma.  Families 1, 3
    and 4 are the calculus relations 1, 3 and 4 of `rtt.bcc_relation`
    (Woronowicz, CMP 1989) at (i, j), (i, j, a) and (i, j, a), built from
    this run's sigma and constants, in the representation on the span of
    the x_N, x_k -> (C^m_{Nk})_{N,m} and f(a,l) -> (sigma^{am}_{Nl})_{N,m}:
    the braided Jacobi identity and two mixed sigma-C compatibilities, with
    witness indices (N, i, j, m) and (N, i, j, a, m), all in 1..n.

    They are read off the braid relation of E, `cg._extended(sigma,
    constants)`, the extended matrix with sigma as its body (Delius &
    Hueffmann, J. Phys. A 1996): a family's entry is entry ((A, B, m),
    (N, i, j)) of sign * (E12 E23 E12 - E23 E12 E23), its rows (A, B, m)
    being (0, 0, m), (0, a, m) and (a, 0, m) and its sign +1, -1 and +1
    for families 1, 3 and 4.  Proof.  Let rho send T^A_K to
    (E^{Am}_{NK})_{N,m}, N and m in 0..n.  E's delta blocks make each image
    block-diagonal on {0} and 1..n, with T^0_0 -> 1 and T^a_0 -> 0, so on
    1..n rho is the representation above, x_k being T^0_k and f(a, l) T^a_l.
    1. Entry (N, m) of rho(rtt(I, J, A, B)), the exchange relation
       E^{KL}_{IJ} T^A_K T^B_L - T^K_I T^L_J E^{AB}_{KL}, is sum E^{KL}_{IJ}
       E^{AM}_{NK} E^{Bm}_{ML} - sum E^{KM}_{NI} E^{Lm}_{MJ} E^{AB}_{KL}:
       entry ((A, B, m), (N, I, J)) of E23 E12 E23 - E12 E23 E12.
    2. Expanding E's blocks, relations 1, 3 and 4 are -rtt(i, j, 0, 0),
       rtt(i, j, 0, a) and -rtt(i, j, a, 0) for every sigma and C, as
       `test_rtt.py::test_degenerate_index_patterns` checks at the closed
       form.
    3. These rows vanish at an input holding 0: rtt(0, J, A, B) and
       rtt(I, 0, A, B) are 0 by the delta blocks, and a block-diagonal
       image has entry (0, m) = 0 for m >= 1.  So no input is filtered.
    Each family is thus one run of the engine's product loop, `_image`, on
    `_rows` tables of E, each row checked at n^3 inputs; its positions are
    the start and index fields of the total's keys, which a full Collector
    only counts.

    Family 2 takes sigma alone, so a run whose constants differ from the
    closed form and whose sigma does not checks families 1, 3 and 4 alone.
    """
    only_constants = (constants is not None and constants != structure_constants(n)
                      and not _differs("qlie", sigma, n))
    sigma = _given_or("qlie", "sigma", sigma, n, 1)
    E = _extended(sigma, constants).entries
    col = Collector("qlie", n, subs)
    width = n.bit_length()
    entry = (1 << 6 * width) - 1  # a key's start and index fields, its position
    e12, e23 = _rows(E, (0, 1), width), _rows(E, (1, 2), width)
    small = range(1, n + 1)

    def read(family: int, sign: int, outs: list[tuple[int, int, int]]) -> None:
        col.checked += len(outs) * n ** 3
        starts = [k | k << 3 * width for k in (_pack_fields(out, width) for out in outs)]
        total = _image([(sign, [e12, e23, e12]), (-sign, [e23, e12, e23])], starts)
        if not total or col.counted({key & entry for key in total}):
            return
        found = {}
        for key, q in total.items():
            (N, i, j), (A, B, m) = _unpack_fields(key, width), _unpack_fields(key >> 3 * width, width)
            # one of A and B is a, the other 0; family 1 goes in (m, N, i, j) order
            indices = (N, i, j, m) if family == 1 else (N, i, j, A + B, m)
            order = (m, N, i, j) if family == 1 else indices
            found[(order, indices), key >> 6 * width] = q
        for (_, indices), value in sorted(col.specialize(found).items()):
            col.witness(lambda: {"family": family, "indices": list(indices), "value": str(value)})

    read(1, 1, [(0, 0, m) for m in small])
    if not only_constants:
        # family 2: braid relation for sigma, on the matrix route alone
        check_identities(col, [({"family": 2}, *_braid("sigma"))], {"sigma": sigma})
    read(3, -1, [(0, a, m) for a in small for m in small])
    read(4, 1, [(a, 0, m) for a in small for m in small])
    return col.report()


# ---------------------------------------------------------------------------
# cross-construction and exploratory checks
# ---------------------------------------------------------------------------


def suite_cross_check(n: int, flip_s_sign: bool = False) -> VerificationReport:
    """Matrix of the functional braid operator vs the closed-form blocks.

    The flip_s_sign flag negates every term with a factor C in the built
    functional matrix, a deliberate corruption used to prove the comparison
    has teeth: each C-term entry, one per nonzero structure constant, then
    differs from the closed form.
    """
    col = Collector("cross-check", n)
    functional = _functional_matrix("rhat", n)
    if flip_s_sign:
        functional = functional.map_entries(
            lambda s: Scalar({(b, c, p): -q if c else q for (b, c, p), q in s.terms()})
        )
    leaves = {"functional": functional, "closed": extended_rhat(n)}
    check_identities(col, [({}, *_identity("functional12 = closed12"))], leaves)
    return col.report()


def suite_hecke(n: int, subs: Subs = None) -> VerificationReport:
    """Exploratory: does sigma satisfy sigma^2 = b*sigma + (1-b)*id?

    Not part of the acceptance surface; reported for curiosity.
    """
    col = Collector("hecke", n, subs)
    sigma = sigma_cg(n)
    h = {key: coeff * BETA for key, coeff in sigma.entries.items()}
    for i in product(range(1, n + 1), repeat=2):
        h[(i, i)] = h.get((i, i), ZERO) + ONE - BETA
    leaves = {"sigma": sigma, "h": Operator(n, 2, h, lo=1)}
    check_identities(col, [({}, *_identity("sigma12*sigma12 = h12"))], leaves)
    return col.report()
