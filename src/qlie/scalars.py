"""Exact arithmetic in the coefficient ring Q[b, C, p, p^-1].

Every quantity in this package is a sparse polynomial in the formal
parameters b and C and the Laurent parameter p, with rational coefficients.
Scalars are immutable; all operations return new values.

Coefficients are stored as Python ints wherever they are integral, which is
everywhere on symbolic input: the Cremmer-Gervais entries, the structure
constants and the flips have integer coefficients, and fraction-free
elimination keeps them integral.  A Fraction appears only where a
non-integer rational does: after a rational substitution, in a parsed
"a/b", or as a non-integral exact quotient.  Since 1 == Fraction(1) and
hash(1) == hash(Fraction(1)), equality, hashing and printing do not depend
on which of the two types holds an integral value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

Coeff = Union[int, Fraction]

# exponent triple (deg b, deg C, deg p); b and C are never negative, p may be
Exponents = tuple[int, int, int]

_SYMBOLS = ("b", "C", "p")


class ScalarParseError(ValueError):
    """Malformed scalar string; carries the 0-based offset of the error."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _coerce(value: Union[int, Fraction, str]) -> Coeff:
    """An int stays an int; any other rational becomes an int if integral."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _grlex(e: Exponents) -> tuple:
    # total degree first, then lexicographic; a group order on Z^3, so it is
    # compatible with monomial multiplication (needed by exact_div)
    return (e[0] + e[1] + e[2], e)


class Scalar:
    """Element of Q[b, C, p, p^-1] in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Exponents, Coeff]] = None):
        canon: dict[Exponents, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                db, dc, dp = exps
                if db < 0 or dc < 0:
                    raise ValueError(f"negative exponent for b or C: {exps}")
                coeff = _coerce(coeff)
                if coeff:
                    canon[(db, dc, dp)] = coeff
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def rational(cls, value: Coeff) -> "Scalar":
        return cls({(0, 0, 0): _coerce(value)})

    @classmethod
    def monomial(cls, exps: Exponents, coeff: Coeff = 1) -> "Scalar":
        return cls({exps: _coerce(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Exponents, Coeff]]:
        """Terms in the canonical (graded-lexicographic) order."""
        return iter(sorted(self._terms.items(), key=lambda t: _grlex(t[0])))

    def as_rational(self) -> Fraction:
        """The value of a constant scalar; raises if any symbol is present."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {(0, 0, 0)}:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._terms[(0, 0, 0)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Scalar.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        s = Scalar.__new__(Scalar)
        s._terms = out
        return s

    def __neg__(self) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s._terms = {e: -c for e, c in self._terms.items()}
        return s

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: Union["Scalar", Coeff]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_coerce(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = (other, self) if len(self._terms) == 1 else (self, other)
        if len(b._terms) == 1:
            # times one monomial: distinct exponents stay distinct, and a
            # product of nonzero rationals is nonzero, so nothing cancels
            ((b0, b1, b2), cb), = b._terms.items()
            if not (b0 or b1 or b2):
                return a._scaled(cb)
            s = Scalar.__new__(Scalar)
            s._terms = {(a0 + b0, a1 + b1, a2 + b2): ca * cb for (a0, a1, a2), ca in a._terms.items()}
            return s
        out: dict[Exponents, Coeff] = {}
        for (a0, a1, a2), ca in a._terms.items():
            for (b0, b1, b2), cb in b._terms.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                acc = out.get(e, 0) + ca * cb
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        s = Scalar.__new__(Scalar)
        s._terms = out
        return s

    __rmul__ = __mul__

    def _scaled(self, factor: Coeff) -> "Scalar":
        # scalars are immutable, so a product with 1 may share its factor
        if factor == 1:
            return self
        s = Scalar.__new__(Scalar)
        s._terms = {e: c * factor for e, c in self._terms.items()} if factor else {}
        return s

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            raise ValueError("negative powers of a general scalar are not defined")
        acc = ONE
        for _ in range(k):
            acc = acc * self
        return acc

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
        out: dict[Exponents, Coeff] = {}
        for (db, dc, dp), coeff in self._terms.items():
            if beta is not None:
                coeff = coeff * beta ** db
                db = 0
            if c is not None:
                coeff = coeff * c ** dc
                dc = 0
            if p is not None:
                # an int to a negative power would be a float
                coeff = coeff * (p ** dp if dp >= 0 else Fraction(p) ** dp)
                dp = 0
            e = (db, dc, dp)
            acc = _coerce(out.get(e, 0) + coeff)
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        s = Scalar.__new__(Scalar)
        s._terms = out
        return s

    def eval(
        self,
        beta: Coeff,
        c: Coeff,
        p: Coeff,
    ) -> Fraction:
        """Evaluate fully; a ring homomorphism Q[b,C,p,p^-1] -> Q."""
        return self.substitute(beta=beta, c=c, p=p).as_rational()

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: "Scalar") -> "Scalar":
        """Exact quotient self / divisor; raises ValueError when not exact.

        Used by the fraction-free elimination, where divisions are exact by
        construction.  p-exponents are first shifted to be nonnegative so the
        division runs in an honestly graded polynomial ring and terminates.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_zero():
            return ZERO
        shift_r = min(e[2] for e in self._terms)
        shift_d = min(e[2] for e in divisor._terms)
        rem = {(e[0], e[1], e[2] - shift_r): c for e, c in self._terms.items()}
        den = {(e[0], e[1], e[2] - shift_d): c for e, c in divisor._terms.items()}
        lt_d = max(den, key=_grlex)
        cd = den[lt_d]
        quo: dict[Exponents, Coeff] = {}
        while rem:
            lt_r = max(rem, key=_grlex)
            e = (lt_r[0] - lt_d[0], lt_r[1] - lt_d[1], lt_r[2] - lt_d[2])
            if e[0] < 0 or e[1] < 0 or e[2] < 0:
                raise ValueError("inexact scalar division")
            cr = rem[lt_r]
            if type(cr) is int and type(cd) is int:
                cq, r = divmod(cr, cd)
                if r:
                    cq = Fraction(cr, cd)
            else:
                cq = _coerce(Fraction(cr) / cd)
            quo[e] = cq
            for ed, cden in den.items():
                key = (e[0] + ed[0], e[1] + ed[1], e[2] + ed[2])
                acc = rem.get(key, 0) - cq * cden
                if acc:
                    rem[key] = acc
                else:
                    rem.pop(key, None)
        out = {(e[0], e[1], e[2] + shift_r - shift_d): c for e, c in quo.items()}
        s = Scalar.__new__(Scalar)
        s._terms = out
        return s

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
        """Inverse of str(); tolerates extra whitespace and implicit '*'."""
        return _Parser(text).parse()


class _Parser:
    """Recursive-descent parser for the canonical scalar grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Scalar:
        total = ZERO
        sign = self._leading_sign()
        total = total + self._term(sign)
        while True:
            self._skip_ws()
            if self.pos >= len(self.text):
                return total
            ch = self.text[self.pos]
            if ch == "+":
                self.pos += 1
                total = total + self._term(1)
            elif ch == "-":
                self.pos += 1
                total = total + self._term(-1)
            else:
                raise ScalarParseError(f"unexpected character {ch!r}", self.pos)

    def _leading_sign(self) -> int:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            ch = self.text[self.pos]
            self.pos += 1
            return -1 if ch == "-" else 1
        return 1

    def _term(self, sign: int) -> Scalar:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ScalarParseError("expected a term", self.pos)
        coeff = Fraction(sign)
        exps = [0, 0, 0]
        saw_factor = False
        if self.text[self.pos].isdigit():
            coeff *= self._number()
            saw_factor = True
        while True:
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "*":
                self.pos += 1
                self._skip_ws()
                explicit = True
            else:
                explicit = False
            if self.pos < len(self.text) and self.text[self.pos] in _SYMBOLS:
                idx = _SYMBOLS.index(self.text[self.pos])
                self.pos += 1
                exps[idx] += self._exponent()
                saw_factor = True
            elif explicit:
                raise ScalarParseError("expected a factor after '*'", self.pos)
            else:
                break
        if not saw_factor:
            raise ScalarParseError("expected a number or symbol", self.pos)
        return Scalar.monomial((exps[0], exps[1], exps[2]), coeff)

    def _exponent(self) -> int:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "^":
            self.pos += 1
            self._skip_ws()
            sign = 1
            if self.pos < len(self.text) and self.text[self.pos] == "-":
                sign = -1
                self.pos += 1
            if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
                raise ScalarParseError("expected an integer exponent", self.pos)
            return sign * self._int()
        return 1

    def _number(self) -> Fraction:
        num = self._int()
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            self._skip_ws()
            if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
                raise ScalarParseError("expected a denominator", self.pos)
            den = self._int()
            if den == 0:
                raise ScalarParseError("zero denominator", self.pos - 1)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ScalarParseError("expected digits", self.pos)
        return int(self.text[start: self.pos])

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


ZERO = Scalar.zero()
ONE = Scalar.rational(1)
BETA = Scalar.monomial((1, 0, 0))
C = Scalar.monomial((0, 1, 0))
P = Scalar.monomial((0, 0, 1))
P_INV = Scalar.monomial((0, 0, -1))
