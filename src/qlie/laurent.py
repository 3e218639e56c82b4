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

`op_rho`, `op_s`, `op_r` and `op_rhat` apply one kernel, `_basis_image`,
term by term: the image of one basis monomial x^ea y^eb under an entry of
`_KERNELS`, [permute o] (identity + beta * rho + c * s), as a few terms in
plain exponents, each with a packed b/C/p monomial of `scalars` and a sign.
The engine in `checks` tabulates the same function over the basis pairs,
so both read one formula; the flat keys the engine packs terms into are
stated there, and this module knows no key layout.  `reg`, `permute` and
`divided_difference` remain the public primitives the operators are
defined by, and the tests check every kernel against them.  The kernel
takes no corruption argument: a mutation test edits a built matrix instead
(`checks.suite_cross_check` negates the C-terms of the braid operator's
matrix), so the kernel a test proves is the one every run executes.  A
LaurentFn is a value at the boundary, built, compared and printed; it has
no ring operations, since no route sums functions.  Its constructor raises
StabilityError for an exponent outside the space, so an operator whose
image leaves it is reported as unstable by `operators.from_functional`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional

from .scalars import ONE, Coeff, Scalar, _by_index, _pack

Slots = tuple[int, int]

_BETA, _C = _pack((1, 0, 0)), _pack((0, 1, 0))

# (identity, beta, c, swap) of each named two-slot operator, as
# `_basis_image` reads them; beta and c are the packed monomials multiplying
# its rho and s parts, None where the part is absent
_KERNELS = {
    "rho": (False, 0, None, False),
    "s": (False, None, 0, False),
    "r": (False, _BETA, _C, False),
    "rhat": (True, _BETA, _C, True),
    # permute o rhat = identity + r, the flipped braid operator
    "R": (True, _BETA, _C, False),
}


class StabilityError(ValueError):
    """An exponent outside the truncated space, such as in the image of an
    operator that leaves it."""


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
                        raise StabilityError(
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

    def __bool__(self) -> bool:
        return bool(self._terms)

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
    """The named operator of _KERNELS on fn, one basis image per term."""
    _check_slots(fn, slots)
    a, b = slots
    acc: dict[tuple, Coeff] = {}
    for exps, coeff in fn._terms.items():
        for (ea, eb), m, t in _basis_image(name, exps[a], exps[b]):
            e = list(exps)
            e[a], e[b] = ea, eb
            for k, q in coeff._terms.items():
                key = (tuple(e), m + k)
                v = acc[key] = acc.get(key, 0) + t * q
                if not v:
                    del acc[key]
    return LaurentFn(fn.cfg, fn.arity, _by_index((e, m, q) for (e, m), q in acc.items()))


def _basis_image(name: str, ea: int, eb: int) -> list[tuple[Slots, int, int]]:
    """The named kernel's image of x^ea y^eb, as ((ea', eb'), monomial, +-1) terms.

    The kernel is [permute o] (identity + beta * rho + c * s), its
    (identity, beta, c, swap) read from _KERNELS, beta and c packed
    monomials.  Only a regular monomial off the diagonal, 0 <= ea != eb,
    has rho and s parts.  With lo < hi the two exponents, the geometric sum

        x * (x^hi y^lo - x^lo y^hi) / (x - y) = sum of x^u y^(lo+hi-u), lo < u <= hi,

    gives rho, negated when ea > eb; and s, (f(x,0) - f(0,x)) / y, is
    x^hi / y when lo = 0, negated when ea = 0, and 0 otherwise.  No
    term leaves [-1, max(ea, eb)], and no two terms share both exponents
    and monomial, so the image needs no merge.  With swap, each term's two
    exponents are exchanged.
    """
    identity, beta, c, swap = _KERNELS[name]
    image = [((ea, eb), 0, 1)] if identity else []
    if ea >= 0 and eb >= 0 and ea != eb:
        lo, hi, t = (eb, ea, -1) if ea > eb else (ea, eb, 1)
        if beta is not None:
            image += [((u, lo + hi - u), beta, t) for u in range(lo + 1, hi + 1)]
        if c is not None and lo == 0:
            image.append(((hi, -1), c, -t))
    return [((y, x), m, q) for (x, y), m, q in image] if swap else image
