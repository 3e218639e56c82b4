import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlie.cg import sigma_cg_family
from qlie.scalars import (
    BETA, C, EXP_MAX, ONE, P, P_INV, ZERO, Scalar, ScalarParseError, _by_index, _pack, _unpack,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)
)
scalars = st.dictionaries(exponents, fractions, max_size=6).map(Scalar)


def test_additive_inverse_is_structural_zero():
    assert (BETA + (-BETA)).is_zero()
    assert BETA - BETA == ZERO


def test_ring_identities():
    assert (ONE - BETA) + BETA == ONE
    assert BETA * C + BETA * C == Scalar.monomial((1, 1, 0), 2)
    assert BETA * C == Scalar.monomial((1, 1, 0))
    assert P * P_INV == ONE
    assert (ONE - BETA) * ZERO == ZERO


def test_eval_examples():
    assert (ONE - BETA).eval(0, 0, 1) == 1
    assert (BETA * C).eval(Fraction(1, 2), 3, 1) == Fraction(3, 2)
    assert P_INV.eval(0, 0, 2) == Fraction(1, 2)


def test_eval_rejects_zero_p():
    with pytest.raises(ValueError):
        P.eval(1, 1, 0)
    with pytest.raises(ValueError):
        ONE.substitute(p=0)


def test_to_string_examples():
    assert str(ZERO) == "0"
    assert str(ONE - BETA) == "1 - b"
    assert str(BETA * C + BETA * C) == "2*b*C"
    assert str(-BETA) == "-b"
    assert str(P_INV) == "p^-1"
    assert str(Scalar.monomial((0, 1, 0), Fraction(3, 2))) == "3/2*C"


def test_parse_examples():
    assert Scalar.parse("0") == ZERO
    assert Scalar.parse("1 - b") == ONE - BETA
    assert Scalar.parse("2*b*C") == BETA * C * 2
    assert Scalar.parse("2C") == C * 2  # implicit product tolerated
    assert Scalar.parse("p^-1") == P_INV
    assert Scalar.parse("*b") == BETA  # a leading '*' is tolerated
    assert Scalar.parse("2 b C - b b") == BETA * C * 2 - BETA * BETA
    assert Scalar.parse("3 / 4 * p ^ -2") == P_INV * P_INV * Fraction(3, 4)


def test_parse_error_carries_position():
    rejected = [
        ("b*", 2),
        ("b^", 2),
        ("2/", 2),
        ("2/0", 2),
        ("2**b", 2),
        ("1 2", 2),
        ("b + + C", 4),
        ("q", 0),
        ("²", 0),  # a digit to str.isdigit, not to int()
        ("b^²", 2),
        ("9" * 5000, 0),  # more digits than int() converts
        ("b^" + "9" * 5000, 2),
        ("1/" + "9" * 5000, 2),
    ]
    for text, pos in rejected:
        with pytest.raises(ScalarParseError) as err:
            Scalar.parse(text)
        assert err.type is ScalarParseError and err.value.pos == pos, text[:10]


@settings(max_examples=1000, deadline=None)
@given(scalars)
def test_parse_roundtrip(a):
    assert Scalar.parse(str(a)) == a


def test_parse_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        Scalar.parse("2/3 b^2 C - p^-1 + *C")
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def spelled(draw) -> tuple[str, Scalar]:
    """Non-canonical text of a sum of terms, and the Scalar its terms build."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    text, value = "", ZERO
    for t in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([1, -1])) if t else draw(st.sampled_from([0, 1, -1]))
        text += draw(space) + {0: "", 1: "+", -1: "-"}[sign] + draw(space)
        term = Scalar.rational(-1 if sign < 0 else 1)
        factors = []
        if draw(st.booleans()):
            num, den = draw(st.integers(0, 99)), draw(st.integers(1, 9))
            factors.append(f"{num}{draw(space)}/{draw(space)}{den}" if den > 1 else str(num))
            term = term * Fraction(num, den)
        for _ in range(draw(st.integers(0 if factors else 1, 4))):  # symbols may repeat
            symbol = draw(st.sampled_from(["b", "C", "p"]))
            k = draw(st.integers(-3 if symbol == "p" else 0, 3))
            power = {"b": BETA, "C": C, "p": P if k >= 0 else P_INV}[symbol] ** abs(k)
            if k == 1 and draw(st.booleans()):
                factors.append(symbol)
            else:
                factors.append(f"{symbol}{draw(space)}^{draw(space)}{k}")
            term = term * power
        text += "".join(
            (draw(st.sampled_from(["*", " * ", " ", ""])) if i else "") + factor
            for i, factor in enumerate(factors)
        )
        value = value + term
    return text + draw(space), value


@settings(max_examples=1000, deadline=None)
@given(spelled())
def test_parse_reads_noncanonical_text(case):
    # implicit and explicit '*', repeated symbols, fractions, signed p exponents
    text, value = case
    assert Scalar.parse(text) == value


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, fractions, fractions, st.fractions(min_value=1, max_value=5, max_denominator=7))
def test_eval_is_a_homomorphism(a, b, beta0, c0, p0):
    lhs = (a * b + a).eval(beta0, c0, p0)
    rhs = a.eval(beta0, c0, p0) * b.eval(beta0, c0, p0) + a.eval(beta0, c0, p0)
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_self_subtraction_is_canonical_zero(a):
    assert (a - a).term_count() == 0


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_exact_division_rejects_inexact():
    with pytest.raises(ValueError):
        BETA.exact_div(C)
    with pytest.raises(ValueError):
        (BETA + ONE).exact_div(BETA * BETA)
    # one-term divisors: a b or C exponent below the divisor's
    for dividend, divisor in ((BETA, BETA * BETA), (C, BETA), (BETA + ONE, BETA)):
        with pytest.raises(ValueError, match="inexact"):
            dividend.exact_div(divisor)
    for dividend in (ONE, BETA):
        with pytest.raises(ZeroDivisionError):
            dividend.exact_div(ZERO)


def test_exact_division_with_laurent_p():
    a = (P_INV + ONE) * (P - C)
    assert a.exact_div(P - C) == P_INV + ONE
    assert a.exact_div(P_INV + ONE) == P - C
    # p^-1 divisors shift the p exponent up
    assert (BETA * P_INV * 3 + C).exact_div(P_INV) == BETA * 3 + C * P
    assert (BETA * C * 4 - P * 2).exact_div(P_INV * 2) == BETA * C * P * 2 - P * P
    assert ZERO.exact_div(BETA * P_INV) == ZERO


def test_partial_substitution():
    s = BETA * P + C * P_INV
    at_p1 = s.substitute(p=1)
    assert at_p1 == BETA + C
    assert s.substitute(beta=0) == C * P_INV
    assert s.substitute(beta=1, c=2, p=2) == Scalar.rational(3)


# -- int coefficients, Fraction only where a rational appears ---------------

int_scalars = st.dictionaries(exponents, st.integers(-5, 5), max_size=6).map(Scalar)
values = st.one_of(st.integers(-4, 4), fractions)


def _coefficient_types(a):
    return {type(coeff) for _, coeff in a.terms()}


def test_int_and_integral_fraction_coefficients_are_interchangeable():
    for exps in ((0, 0, 0), (1, 0, 0), (0, 2, -1)):
        a = Scalar.monomial(exps, 2)
        b = Scalar.monomial(exps, Fraction(2))
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert {a: "found"}[b] == "found"
    assert Scalar.rational(2) == Scalar.rational(Fraction(4, 2)) == 2 == Fraction(2)
    assert Scalar({(1, 0, 0): Fraction(3), (0, 0, 0): 1}) == BETA * 3 + ONE


@pytest.mark.parametrize(
    "scalar, value",
    [(ZERO, 0), (ONE, 1), (-ONE, -1), (Scalar.rational(Fraction(1, 2)), Fraction(1, 2))],
    ids=["zero", "one", "minus-one", "half"],
)
def test_constant_scalar_hashes_as_its_rational(scalar, value):
    assert scalar == value and hash(scalar) == hash(value)
    assert len({scalar, value}) == 1
    assert {value: "found"}[scalar] == "found"


@given(scalars, values)
def test_equal_scalar_and_rational_hash_equal(a, q):
    # q built directly and by cancelling a, and a itself where it is constant
    for s in (Scalar.rational(q), (a + Scalar.rational(q)) - a, a * ZERO + q * ONE):
        assert s == q and hash(s) == hash(q)
    if a == q:
        assert hash(a) == hash(q)


def test_non_integral_exact_quotient_is_a_fraction():
    q = (BETA * 2).exact_div(Scalar.rational(3))
    assert q == Scalar.monomial((1, 0, 0), Fraction(2, 3))
    assert str(q) == "2/3*b"
    assert _coefficient_types(q) == {Fraction}
    assert _coefficient_types((BETA * 6 - C * 3).exact_div(Scalar.rational(3))) == {int}
    assert _coefficient_types((BETA * C * 6 + C * P * 3).exact_div(C * -3)) == {int}
    q = BETA.exact_div(Scalar.rational(Fraction(2, 3)))
    assert q == Scalar.monomial((1, 0, 0), Fraction(3, 2)) and _coefficient_types(q) == {Fraction}


def test_as_rational_returns_a_fraction():
    for s in (ZERO, ONE, Scalar.rational(-7), Scalar.rational(Fraction(1, 3))):
        assert type(s.as_rational()) is Fraction
    assert type((BETA * 2).eval(3, 0, 1)) is Fraction


def test_integer_substitution_keeps_int_coefficients():
    s = BETA * BETA * C * 3 + BETA * P * 2 - C * P_INV
    for beta in (2, Fraction(2)):
        assert _coefficient_types(s.substitute(beta=beta)) == {int}
    at_p2 = s.substitute(p=2)
    assert at_p2 == BETA * BETA * C * 3 + BETA * 4 - C * Fraction(1, 2)
    assert _coefficient_types(at_p2) == {int, Fraction}


@settings(max_examples=200, deadline=None)
@given(int_scalars, int_scalars, st.integers(-4, 4), fractions, values, values,
       values.filter(lambda v: v != 0))
def test_coefficients_are_ints_or_fractions_never_floats(a, b, k, q, beta0, c0, p0):
    # int coefficients stay ints under ring operations and exact quotients
    results = [a + b, a - b, a * b, a * k, k * a]
    if b:
        results.append((a * b).exact_div(b))
    for value in results:
        assert _coefficient_types(value) <= {int}
    # a rational factor or substitution may bring in a Fraction, never a float,
    # and substitution leaves no Fraction with denominator 1
    assert _coefficient_types(a * q) <= {int, Fraction}
    for value in (a.substitute(beta=beta0), a.substitute(c=c0, p=p0),
                  a.substitute(beta=beta0, c=c0, p=p0)):
        assert _coefficient_types(value) <= {int, Fraction}
        assert all(type(c) is int or c.denominator != 1 for _, c in value.terms())


# -- division by one term --------------------------------------------------

one_term_divisors = st.builds(
    Scalar.monomial, exponents, st.one_of(st.integers(-4, 4), fractions).filter(bool)
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scalars, int_scalars), one_term_divisors)
def test_one_term_division_agrees_with_the_general_path(a, m):
    # (a x) / (m x) with a two-term x runs the general loop, and is exact
    # exactly when a / m is, the ring having no zero divisors
    x = ONE + BETA * P_INV
    for dividend in (a, a * m):
        try:
            fast = dividend.exact_div(m)
        except ValueError:
            fast = None
        try:
            general = (dividend * x).exact_div(m * x)
        except ValueError:
            general = None
        assert fast == general
        if fast is not None:
            assert fast * m == dividend
            assert [type(c) for _, c in fast.terms()] == [type(c) for _, c in general.terms()]
    assert (a * m).exact_div(m) == a


# -- packed monomial keys ---------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, EXP_MAX), st.integers(0, EXP_MAX), st.integers(-2 ** 20, 2 ** 20),
       st.integers(0, EXP_MAX), st.integers(0, EXP_MAX), st.integers(-2 ** 20, 2 ** 20))
def test_packed_keys_round_trip_and_add_as_exponents(b1, c1, p1, b2, c2, p2):
    for exps in ((b1, c1, p1), (b2, c2, p2)):
        assert _unpack(_pack(exps)) == exps
    assert _unpack(_pack((b1, c1, p1)) + _pack((b2, c2, p2))) == (b1 + b2, c1 + c2, p1 + p2)


def test_negative_p_exponents_pack_without_offset():
    for exps in ((0, 0, -1), (3, 0, -1), (0, 5, -7), (EXP_MAX, EXP_MAX, -(2 ** 40))):
        assert _unpack(_pack(exps)) == exps
        assert Scalar.parse(str(Scalar.monomial(exps, -2))) == Scalar.monomial(exps, -2)
    assert P * P_INV == ONE and next((P_INV * P_INV).terms())[0] == (0, 0, -2)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_sigma_cg_family_degrees_survive_packing(n):
    degrees = set()
    for coeff in sigma_cg_family(n).entries.values():
        for exps, value in coeff.terms():
            assert _unpack(_pack(exps)) == exps
            assert Scalar.monomial(exps, value) * Scalar.monomial(exps, 1) == Scalar.monomial(
                tuple(2 * e for e in exps), value
            )
            degrees.add(exps)
    # the flip term carries p^(k-l) and the b-summand b p^(k-s), k, l, s in 1..n
    assert {d[2] for d in degrees} == set(range(1 - n, n))
    assert {d[:2] for d in degrees} <= {(0, 0), (1, 0)}


def test_exponents_outside_their_field_are_rejected():
    for exps in ((EXP_MAX + 1, 0, 0), (0, EXP_MAX + 1, 0), (-1, 0, 0), (0, -1, 0)):
        with pytest.raises(ValueError):
            Scalar({exps: 1})
        with pytest.raises(ValueError):
            Scalar.monomial(exps)
    for text in (f"b^{EXP_MAX + 1}", f"2*C^{EXP_MAX + 1}", "b^-1", "1 + C^-2"):
        with pytest.raises(ScalarParseError):
            Scalar.parse(text)
    with pytest.raises(ValueError):
        BETA ** 2 ** 24
    edge = Scalar.monomial((EXP_MAX, EXP_MAX, -3))
    assert str(edge) == f"b^{EXP_MAX}*C^{EXP_MAX}*p^-3"
    assert Scalar.parse(str(edge)) == edge


def test_products_past_the_input_limit_stay_exact():
    top = Scalar.monomial((EXP_MAX, EXP_MAX, -3), 5)
    assert next((top * BETA).terms()) == ((EXP_MAX + 1, EXP_MAX, -3), 5)
    assert top * BETA != top * C and Scalar.monomial((EXP_MAX, 0, 0)) * BETA != C
    square = (top + ONE) * (top - ONE)
    assert dict(square.terms()) == {(2 * EXP_MAX, 2 * EXP_MAX, -6): 25, (0, 0, 0): -1}
    assert str(BETA ** 3 * top ** 2) == f"25*b^{2 * EXP_MAX + 3}*C^{2 * EXP_MAX}*p^-6"


def test_no_scalar_reaches_two_to_the_24():
    big = Scalar.monomial((EXP_MAX, 0, 0)) ** 256  # b^(2^24 - 256)
    assert next(big.terms())[0] == (2 ** 24 - 256, 0, 0)
    with pytest.raises(ValueError):
        big * BETA ** 256
    with pytest.raises(ValueError):
        (C ** 255) ** 65794  # C^(2^24 + 14)
    # flat terms whose sum reached the limit are refused on their way back
    with pytest.raises(ValueError):
        _by_index([((0,), 2 ** 24, 1)])
    assert _by_index([((0,), 2 ** 24 - 1, 1)])[0,] == big * BETA ** 255
