"""Truncated Laurent-function spaces and the functional braid operator.

The single space V is spanned by x^(-1), x^0, ..., x^(n-1): polynomials of
degree at most n divided by x.  Tensor powers V (x) V and V (x) V (x) V are
functions of two and three variables with every exponent in [-1, n-1].

The braid operator acts on a function F of two active variables as

    (Rhat F)(x, y) = F(y, x) + b * y * (f(y,x) - f(x,y)) / (x - y)
                   + C * (f(y,0) - f(0,y)) / x

where f is the part of F regular in the two active variables.  On three
variables an operator acts on a chosen pair of slots, treating the third
exponent as a passive index.  Divided differences are expanded through the
closed geometric-sum formula per monomial, so the division by x - y never
materializes an out-of-range term.

`op_rho`, `op_s`, `op_r` and `op_rhat` run one private kernel,
`_single_pass`: one loop over the input terms tests regularity inline and
writes the identity (or swap), b-term and C-term contributions into one
accumulator, with no intermediate function built.  The kernel works on flat
terms {key: q}, q a plain rational and the key one int of `width`-bit fields
(Monagan & Pearce, CASC 2007): three index fields, the first index highest,
each exponent stored plus one so that -1 fits; above them three more fields
that the kernel carries through untouched, as it does a spectator exponent
(`checks` keeps there the monomial a term started from); and above those the
packed monomial of `scalars`, which goes on top because its p field is
signed.  So multiplying by b or C is one int add, a sign flip negates q, and
packed index fields sort as their tuples do.  The `op_*` functions pack a
LaurentFn into flat terms and unpack the image; `checks` runs no kernel per
slab but applies its table, which `_kernel_table` builds in one kernel run.
`reg`, `permute` and `divided_difference` remain the public primitives the
operators are defined by, and the tests check every kernel against them.
The kernel takes no corruption argument: a mutation test edits a built
matrix instead (`checks.suite_cross_check` negates the C-terms of the braid
operator's matrix), so the kernel a test proves is the one every run
executes.  A LaurentFn is a value at the boundary, built, compared and
printed; it has no ring operations, since no route sums functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .scalars import ONE, Coeff, Scalar, _by_index, _pack

Slots = tuple[int, int]
# flat terms: packed int key (index fields, start fields, monomial) -> rational
Flat = dict[int, Coeff]

_BETA, _C = _pack((1, 0, 0)), _pack((0, 1, 0))

# `_single_pass` arguments (identity, beta, c, swap) of each named two-slot
# operator; beta and c are the packed monomials multiplying its rho and s
# parts, None where the part is absent
_KERNELS = {
    "rho": (False, 0, None, False),
    "s": (False, None, 0, False),
    "r": (False, _BETA, _C, False),
    "rhat": (True, _BETA, _C, True),
    # permute o rhat = identity + r, the flipped braid operator
    "R": (True, _BETA, _C, False),
}


@dataclass(frozen=True)
class SpaceConfig:
    """Truncation level: dim V = n + 1, exponents range over [-1, n-1]."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"space size must be >= 1, got n={self.n}")

    @property
    def min_exp(self) -> int:
        return -1

    @property
    def max_exp(self) -> int:
        return self.n - 1


class LaurentFn:
    """Sparse element of V, V (x) V or V (x) V (x) V over the scalar ring."""

    __slots__ = ("cfg", "arity", "_terms")

    def __init__(
        self,
        cfg: SpaceConfig,
        arity: int,
        terms: Optional[Mapping[tuple[int, ...], Scalar]] = None,
    ):
        if arity not in (1, 2, 3):
            raise ValueError(f"arity must be 1, 2 or 3, got {arity}")
        self.cfg = cfg
        self.arity = arity
        canon: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise ValueError(f"exponent vector {exps} has wrong length")
                for e in exps:
                    if e < cfg.min_exp or e > cfg.max_exp:
                        raise ValueError(
                            f"exponent {e} outside [{cfg.min_exp}, {cfg.max_exp}] "
                            f"for n={cfg.n}"
                        )
                if coeff:
                    canon[tuple(exps)] = coeff
        self._terms = canon

    @classmethod
    def monomial(
        cls,
        cfg: SpaceConfig,
        exps: tuple[int, ...],
        coeff: Scalar = ONE,
    ) -> "LaurentFn":
        return cls(cfg, len(exps), {tuple(exps): coeff})

    def terms(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentFn):
            return NotImplemented
        return (self.cfg, self.arity, self._terms) == (other.cfg, other.arity, other._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = "xyz"[: self.arity]
        parts = []
        for exps, coeff in self.terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e != 0
            ]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentFn({self})"


def basis_monomials(cfg: SpaceConfig, arity: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of the monomial basis of the truncated space [-1, n-1],
    lexicographically ordered."""
    return product(range(cfg.min_exp, cfg.max_exp + 1), repeat=arity)


def _check_slots(fn: LaurentFn, slots: Slots) -> None:
    a, b = slots
    if a == b or not (0 <= a < fn.arity) or not (0 <= b < fn.arity):
        raise ValueError(f"bad slot pair {slots} for arity {fn.arity}")


def reg(fn: LaurentFn, slots: Optional[Slots] = None) -> LaurentFn:
    """Regular part: drop terms with a negative exponent.

    With slots given, only those two positions are inspected; exponents of a
    spectator variable pass through untouched (they play the role of a
    coefficient index).
    """
    if slots is not None:
        _check_slots(fn, slots)
    active = range(fn.arity) if slots is None else slots
    out = {
        exps: coeff
        for exps, coeff in fn._terms.items()
        if all(exps[i] >= 0 for i in active)
    }
    return LaurentFn(fn.cfg, fn.arity, out)


def permute(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """Exchange the two variables in the given slots; an involution."""
    _check_slots(fn, slots)
    a, b = slots
    out = {}
    for exps, coeff in fn._terms.items():
        e = list(exps)
        e[a], e[b] = e[b], e[a]
        out[tuple(e)] = coeff
    return LaurentFn(fn.cfg, fn.arity, out)


def divided_difference(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """(f(..y..x..) - f(..x..y..)) / (x - y) on the active slots.

    Requires the active exponents to be nonnegative; the quotient is then an
    honest polynomial in the active variables, computed term by term from the
    geometric-sum identity
        (x^a y^b - x^b y^a) / (x - y) = sum_t x^(b+t) y^(a-1-t),  a > b,
    so no intermediate term ever leaves the truncated space.
    """
    _check_slots(fn, slots)
    a, b = slots
    out: dict[tuple[int, ...], Scalar] = {}
    for exps, coeff in fn._terms.items():
        ea, eb = exps[a], exps[b]
        if ea < 0 or eb < 0:
            raise ValueError(f"divided difference on a singular term {exps}")
        if ea == eb:
            continue
        # swap minus identity on x^ea y^eb is the geometric sum, negated
        # when ea > eb
        term = -coeff if ea > eb else coeff
        lo, hi = min(ea, eb), max(ea, eb)
        for t in range(hi - lo):
            e = list(exps)
            e[a] = lo + t
            e[b] = hi - 1 - t
            key = tuple(e)
            acc = out.get(key)
            out[key] = term if acc is None else acc + term
    return LaurentFn(fn.cfg, fn.arity, out)


def op_rho(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """(rho F)(x, y) = x * (f(y,x) - f(x,y)) / (x - y), f the regular part."""
    return _apply_kernel(fn, slots, "rho")


def op_s(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """(s F)(x, y) = (f(x, 0) - f(0, x)) / y, f the regular part."""
    return _apply_kernel(fn, slots, "s")


def op_r(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """(r F) = b * (rho F) + C * (s F); the classical r-matrix operator."""
    return _apply_kernel(fn, slots, "r")


def op_rhat(fn: LaurentFn, slots: Slots = (0, 1)) -> LaurentFn:
    """The braid operator, by its three-term closed form.

    Equals permute o (identity + r) as an operator; both routes are compared
    in the test suite.
    """
    return _apply_kernel(fn, slots, "rhat")


def _apply_kernel(fn: LaurentFn, slots: Slots, name: str) -> LaurentFn:
    """The named operator of _KERNELS on fn, through flat terms."""
    _check_slots(fn, slots)
    # exponents plus one lie in [0, n]
    width = fn.cfg.n.bit_length()
    flat = {
        _pack_fields(exps, width, 1) + (m << 6 * width): q
        for exps, coeff in fn._terms.items()
        for m, q in coeff._terms.items()
    }
    image = _single_pass(flat, slots, *_KERNELS[name], width)
    return LaurentFn(fn.cfg, fn.arity, _by_index(
        (_unpack_fields(k, width, fn.arity, 1), k >> 6 * width, q) for k, q in image.items()
    ))


def _pack_fields(index: Sequence[int], width: int, bias: int = 0) -> int:
    """The three low `width`-bit fields of a flat key holding index + bias,
    index[0] highest; an index shorter than three leaves the lowest fields 0."""
    key = 0
    for e in index:
        key = key << width | e + bias
    return key << (3 - len(index)) * width


def _unpack_fields(key: int, width: int, count: int = 3, bias: int = 0) -> tuple[int, ...]:
    """The first `count` indices in the three low fields of key, bias removed."""
    mask = (1 << width) - 1
    index = ((key >> 2 * width & mask) - bias, (key >> width & mask) - bias, (key & mask) - bias)
    return index[:count]


def _single_pass(
    terms: Flat, slots: Slots, identity: bool, beta: Optional[int], c: Optional[int], swap: bool,
    width: int, out: Optional[Flat] = None,
) -> Flat:
    """[permute o] (identity + beta * rho + c * s), in one pass over flat terms.

    Keys have the layout of the module docstring: `width`-bit fields, each
    exponent stored plus one, so no exponent may exceed 2^width - 2.  The
    image has no exponent above the largest of its input.  Each input term
    writes its identity, rho and s contributions straight into one
    accumulator, `out` when given (the image is added to it), the rho part
    from the geometric-sum formula of `divided_difference` shifted by one in
    slot a.  A term with a negative active exponent is singular: its regular
    part, hence its rho and s parts, vanish.  With `swap` every output key
    has slots a and b exchanged.  Only the two active fields are read: every
    other field and the monomial pass through as they are.  Terms that
    cancel are dropped.
    """
    mask = (1 << width) - 1
    sa, sb = (2 - slots[0]) * width, (2 - slots[1]) * width
    spa, spb = (sb, sa) if swap else (sa, sb)
    # swapping fields fa and fb adds (fb - fa) * flip to a key
    flip = (1 << sa) - (1 << sb)
    step = (1 << spa) - (1 << spb)
    mono = 6 * width
    beta = None if beta is None else beta << mono
    c = None if c is None else c << mono
    out = {} if out is None else out
    get = out.get
    for key, q in terms.items():
        # active exponents plus one: 0 marks a singular exponent -1
        fa, fb = key >> sa & mask, key >> sb & mask
        if identity:
            k = key + (fb - fa) * flip if swap else key
            v = out[k] = get(k, 0) + q
            if not v:
                del out[k]
        # the regular part of x^ea y^eb contributes only when ea != eb
        if not fa or not fb or fa == fb:
            continue
        base = key - (fa << sa) - (fb << sb)
        if beta is not None:
            # x * (y^ea x^eb - x^ea y^eb) / (x - y) is the sum of
            # x^u y^(lo+hi-u) over u in (lo, hi], negated when ea > eb; the
            # same sum holds for the fields, exponents plus one
            lo, hi, t = (fb, fa, -q) if fa > fb else (fa, fb, q)
            k = base + beta + (lo << spa) + (hi << spb)
            for _ in range(hi - lo):
                k += step
                v = out[k] = get(k, 0) + t
                if not v:
                    del out[k]
        if c is not None and (fa == 1 or fb == 1):
            # f(x, 0) - f(0, x), divided by y: exactly one of ea, eb is 0,
            # and slot b takes the exponent -1, field 0
            k = base + c + (fa + fb - 1 << spa)
            v = out[k] = get(k, 0) + (q if fb == 1 else -q)
            if not v:
                del out[k]
    return out


def _kernel_table(name: str, slots: Slots, n: int) -> tuple[int, dict[int, list]]:
    """The named kernel on SpaceConfig(n) as a table (mask, rows): term k,
    times q, maps to k + move, times q * q2, for each (move, q2) in
    rows[k & mask].  The kernel is linear and moves a key's image by what
    its two active fields decide, so one run on every basis value of them,
    kept in the start fields too, finds every row."""
    width = n.bit_length()
    field, start = (1 << width) - 1, 3 * width
    sa, sb = (2 - slots[0]) * width, (2 - slots[1]) * width
    keys = [fa << sa | fb << sb for fa, fb in product(range(n + 1), repeat=2)]
    image = _single_pass({k | k << start: 1 for k in keys}, slots, *_KERNELS[name], width)
    rows: dict[int, list] = {}
    for k, q in image.items():
        key = k >> start & (1 << start) - 1
        rows.setdefault(key, []).append((k - (key | key << start), q))
    return field << sa | field << sb, rows
