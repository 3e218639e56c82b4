"""Exact arithmetic in the coefficient ring Q[b, C, p, p^-1].

Every quantity in this package is a sparse polynomial in the formal
parameters b and C and the Laurent parameter p, with rational coefficients;
a float raises TypeError.  Scalars are immutable; all operations return new
values.  To evaluate one, `substitute(beta=..., c=..., p=...)` and read the
constant that results with `as_rational`.

Coefficients are stored as Python ints wherever they are integral, which is
everywhere on symbolic input: the Cremmer-Gervais entries, the structure
constants and the flips have integer coefficients, and fraction-free
elimination keeps them integral.  A Fraction appears only where a
non-integer rational does: after a rational substitution, in a parsed
"a/b", or as a non-integral exact quotient.  Since 1 == Fraction(1) and
hash(1) == hash(Fraction(1)), equality, hashing and printing do not depend
on which of the two types holds an integral value.

A monomial b^i C^j p^k is one packed int key i + (j << 32) + (k << 64)
(Monagan & Pearce, CASC 2007): b and C own 32-bit fields and the signed top
field holds p, so p^-1 needs no offset and a monomial product is one integer
addition.  The constructor, `monomial` and `parse` take b and C exponents up
to EXP_MAX = 65535.  No Scalar holds one of 2^24 or more: `*` and the
conversion of flat terms (`_by_index`) raise ValueError instead.  A sum of
fewer than 256 such exponents stays below 2^32, so a kernel of `laurent` or
`checks`, which adds one exponent per factor of a word, cannot carry one
field into the next.  Those kernels run on packed keys and plain rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Union

Coeff = Union[int, Fraction]

# exponent triple (deg b, deg C, deg p); b and C are never negative, p may be
Exponents = tuple[int, int, int]

_SYMBOLS = ("b", "C", "p")

_BITS = 32
_MASK = (1 << _BITS) - 1
# the largest b or C exponent taken from input
EXP_MAX = (1 << 16) - 1
# no Scalar holds a b or C exponent of _LIMIT or more; _OVER has the bits of
# both fields that such an exponent sets
_LIMIT = 1 << 24
_OVER = (_MASK & -_LIMIT) * (1 | 1 << _BITS)


class ScalarParseError(ValueError):
    """Malformed scalar string; carries its message and the 0-based offset of the error."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message, self.pos = message, pos


def _coerce(value: Union[int, Fraction, str]) -> Coeff:
    """An int stays an int; any other rational becomes an int if integral."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError(f"not an exact rational: {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(cr: Coeff, cd: Coeff) -> Coeff:
    """cr / cd: an int if both are ints and cd divides cr, else via Fraction."""
    if type(cr) is int and type(cd) is int:
        cq, r = divmod(cr, cd)
        return Fraction(cr, cd) if r else cq
    return _coerce(Fraction(cr) / cd)


def _pack(exps: Exponents) -> int:
    """The packed key of b^i C^j p^k; raises ValueError unless 0 <= i, j <= EXP_MAX."""
    db, dc, dp = exps
    if not (0 <= db <= EXP_MAX and 0 <= dc <= EXP_MAX):
        raise ValueError(f"exponent for b or C outside [0, {EXP_MAX}]: {exps}")
    return db | dc << _BITS | dp << 2 * _BITS


def _unpack(key: int) -> Exponents:
    return (key & _MASK, key >> _BITS & _MASK, key >> 2 * _BITS)


def _from_packed(terms: Mapping[int, Coeff]) -> "Scalar":
    """A Scalar holding `terms`, packed key -> nonzero rational, as given."""
    s = Scalar.__new__(Scalar)
    s._terms = terms
    return s


def _within_limit(terms: Mapping[int, Coeff]) -> Mapping[int, Coeff]:
    """`terms`, or ValueError if a b or C exponent of theirs reached _LIMIT."""
    if any(key & _OVER for key in terms):
        raise ValueError(f"a b or C exponent reached {_LIMIT}")
    return terms


def _by_index(terms: Iterable[tuple[tuple, int, Coeff]]) -> dict[tuple, "Scalar"]:
    """The Scalars of nonzero (index, packed key, rational) terms, by index."""
    grouped: dict[tuple, dict[int, Coeff]] = {}
    for index, key, q in terms:
        grouped.setdefault(index, {})[key] = q
    return {index: _from_packed(_within_limit(t)) for index, t in grouped.items()}


@lru_cache(maxsize=1 << 12)
def _substitute_key(key: int, beta: Optional[Coeff], c: Optional[Coeff],
                    p: Optional[Coeff]) -> tuple[int, Coeff]:
    """(key', factor) with monomial(key) = factor * monomial(key') once the
    given values (None keeps a symbol) are substituted; p must be nonzero."""
    db, dc, dp = _unpack(key)
    factor: Coeff = 1
    if beta is not None:
        factor *= beta ** db
        db = 0
    if c is not None:
        factor *= c ** dc
        dc = 0
    if p is not None:
        # an int to a negative power would be a float
        factor *= p ** dp if dp >= 0 else Fraction(p) ** dp
        dp = 0
    return _pack((db, dc, dp)), factor


class Scalar:
    """Element of Q[b, C, p, p^-1] in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Exponents, Coeff]] = None):
        canon: dict[int, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(exps)
                if coeff := _coerce(coeff):
                    canon[key] = coeff
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: Coeff) -> "Scalar":
        return cls({(0, 0, 0): _coerce(value)})

    @classmethod
    def monomial(cls, exps: Exponents, coeff: Coeff = 1) -> "Scalar":
        return cls({exps: _coerce(coeff)})

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Exponents, Coeff]]:
        """Terms in the canonical order: total degree, then lexicographic."""
        items = [(_unpack(k), c) for k, c in self._terms.items()]
        if len(items) > 1:
            items.sort(key=lambda t: (sum(t[0]), t[0]))
        return iter(items)

    def as_rational(self) -> Fraction:
        """The value of a constant scalar; raises if any symbol is present."""
        if self._terms.keys() - {0}:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._terms.get(0, 0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Scalar.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its rational value, so it hashes as that value
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out[key] = out.get(key, 0) + coeff
            if not acc:
                del out[key]
        return _from_packed(out)

    def __neg__(self) -> "Scalar":
        return _from_packed({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: Union["Scalar", Coeff]) -> "Scalar":
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                return self._scaled(_coerce(other))
            return NotImplemented
        out: dict[int, Coeff] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = ka + kb
                acc = out[key] = out.get(key, 0) + ca * cb
                if not acc:
                    del out[key]
        return _from_packed(_within_limit(out))

    __rmul__ = __mul__

    def _scaled(self, factor: Coeff) -> "Scalar":
        # scalars are immutable, so a product with 1 may share its factor
        if factor == 1:
            return self
        return _from_packed({e: c * factor for e, c in self._terms.items()} if factor else {})

    # -- evaluation --------------------------------------------------------

    def substitute(
        self,
        beta: Optional[Coeff] = None,
        c: Optional[Coeff] = None,
        p: Optional[Coeff] = None,
    ) -> "Scalar":
        """Partially evaluate some of b, C, p at rational values.

        p must be nonzero (it occurs with negative exponents).
        """
        beta, c, p = (None if v is None else _coerce(v) for v in (beta, c, p))
        if p == 0:
            raise ValueError("p must be nonzero")
        out: dict[int, Coeff] = {}
        for key, coeff in self._terms.items():
            key, factor = _substitute_key(key, beta, c, p)
            acc = out[key] = _coerce(out.get(key, 0) + coeff * factor)
            if not acc:
                del out[key]
        return _from_packed(out)

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: "Scalar") -> "Scalar":
        """Exact quotient self / divisor; raises ValueError when not exact.

        Used by the fraction-free elimination, where divisions are exact by
        construction.  p-exponents are first shifted to be nonnegative, so the
        division runs in a polynomial ring, where the integer order of packed
        keys is the lexicographic monomial order on (p, C, b); it terminates,
        and the quotient, being unique, does not depend on the order.  A
        one-term divisor needs no loop: each key shifts and each coefficient
        divides.
        """
        if not divisor:
            raise ZeroDivisionError("scalar division by zero")
        if not self:
            return ZERO
        if len(divisor._terms) == 1:
            # one term: shift every key; a b or C exponent below the
            # divisor's borrows from the next field and sets bits of _OVER
            (kd, cd), = divisor._terms.items()
            if not kd and cd == 1:
                return self
            quo = {k - kd: _quotient(c, cd) for k, c in self._terms.items()}
            if any(k & _OVER for k in quo):
                raise ValueError("inexact scalar division")
            return _from_packed(quo)
        shift_r = min(self._terms) >> 2 * _BITS << 2 * _BITS
        shift_d = min(divisor._terms) >> 2 * _BITS << 2 * _BITS
        rem = {k - shift_r: c for k, c in self._terms.items()}
        den = {k - shift_d: c for k, c in divisor._terms.items()}
        lt_d = max(den)
        cd = den[lt_d]
        db_d, dc_d, _ = _unpack(lt_d)
        quo: dict[int, Coeff] = {}
        while rem:
            lt_r = max(rem)
            e = lt_r - lt_d
            db, dc, _ = _unpack(lt_r)
            if e < 0 or db < db_d or dc < dc_d:
                raise ValueError("inexact scalar division")
            quo[e] = cq = _quotient(rem[lt_r], cd)
            for kd, cden in den.items():
                key = e + kd
                acc = rem[key] = rem.get(key, 0) - cq * cden
                if not acc:
                    del rem[key]
        return _from_packed({k + shift_r - shift_d: c for k, c in quo.items()})

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.terms():
            factors = []
            for name, d in zip(_SYMBOLS, exps):
                if d == 0:
                    continue
                factors.append(name if d == 1 else f"{name}^{d}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Inverse of str(); tolerates extra whitespace and implicit '*'.

        The text is a signed sum of terms.  A term is an optional number
        "N" or "N/D", then factors b, C or p, each with an optional "^K" or
        "^-K" and each after an optional '*'; a term holds at least one of
        them.  A b or C exponent sums to at most EXP_MAX in each term.
        """
        # reversed, so the next token is last; the end is the token ""
        tokens = [*_TOKEN.finditer(text)][::-1]
        sign = _SIGNS[tokens.pop()[1]] if tokens[-1][1] in _SIGNS else 1
        total = _term(tokens, sign)
        while tokens[-1][1]:
            token = tokens.pop()
            if token[1] not in _SIGNS:
                raise ScalarParseError(f"unexpected character {token[1][0]!r}", token.start(1))
            total = total + _term(tokens, _SIGNS[token[1]])
        return total


# One token of scalar text after any whitespace, in group 1: a number
# (group 2) with "/" and a denominator (3), a symbol (4) with "^", a sign (5)
# and an exponent (6), any other character, or "" at the end.  A denominator
# or exponent is "" when its digits are missing and None without its "/" or
# "^".  \d is a decimal digit in any script, which is what int() converts.
_TOKEN = re.compile(r"\s*((\d+)(?:\s*/\s*(\d*))?|([bCp])(?:\s*\^\s*(-?)(\d*))?|.|\Z)")
_SIGNS = {"+": 1, "-": -1}


def _term(tokens: list[re.Match], sign: int) -> Scalar:
    """Take the next term off `tokens` and return it times `sign`."""
    first = tokens[-1]
    if not first[1]:
        raise ScalarParseError("expected a term", first.start(1))
    coeff, exps = Fraction(sign), [0, 0, 0]
    if first[2]:
        tokens.pop()
        coeff *= _integer(first, 2, "a number")
        if first[3] is not None:
            if not (den := _integer(first, 3, "a denominator")):
                raise ScalarParseError("zero denominator", first.end(3) - 1)
            coeff /= den
    while True:
        star = tokens[-1][1] == "*"
        if star:
            tokens.pop()
        token = tokens[-1]
        if token[4] is None:
            if star:
                raise ScalarParseError("expected a factor after '*'", token.start(1))
            break
        tokens.pop()
        k = 1 if token[6] is None else _integer(token, 6, "an integer exponent")
        exps[_SYMBOLS.index(token[4])] += -k if token[5] else k
    if tokens[-1] is first:
        raise ScalarParseError("expected a number or symbol", first.start(1))
    if not (0 <= exps[0] <= EXP_MAX and 0 <= exps[1] <= EXP_MAX):
        raise ScalarParseError(f"exponent for b or C outside [0, {EXP_MAX}]", first.start(1))
    return Scalar.monomial(tuple(exps), coeff)


def _integer(token: re.Match, group: int, what: str) -> int:
    """The int in a token's group; ScalarParseError if it is missing or too long for int()."""
    try:
        return int(token[group])
    except ValueError:
        message = f"too many digits in {what}" if token[group] else f"expected {what}"
        raise ScalarParseError(message, token.start(group)) from None


ZERO = Scalar()
ONE = Scalar.rational(1)
BETA = Scalar.monomial((1, 0, 0))
C = Scalar.monomial((0, 1, 0))
P = Scalar.monomial((0, 0, 1))
P_INV = Scalar.monomial((0, 0, -1))
