from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlie.checks import _FUNCTIONAL_OPS, _image, _pack_fields, _table
from qlie.laurent import (
    _KERNELS,
    LaurentFn,
    SpaceConfig,
    StabilityError,
    basis_monomials,
    divided_difference,
    op_r,
    op_rhat,
    op_rho,
    op_s,
    permute,
    reg,
)
from qlie.laurent import _basis_image
from qlie.scalars import BETA, C, ONE, ZERO, Scalar, _by_index, _pack, _unpack

CFG3 = SpaceConfig(3)


def mono(cfg, exps, coeff=ONE):
    return LaurentFn.monomial(cfg, exps, coeff)


def lin(space, *parts):
    """The sum of coeff * fn over the (coeff, fn) parts, in the space of `space`."""
    out = {}
    for coeff, fn in parts:
        for exps, c in fn.terms():
            out[exps] = out.get(exps, ZERO) + c * coeff
    return LaurentFn(space.cfg, space.arity, out)


# -- independent oracle: evaluate the defining rational formulas at points --


def fn_value(fn, xs, beta=Fraction(2, 3), c=Fraction(5, 7), p=1):
    total = Fraction(0)
    for exps, coeff in fn.terms():
        v = coeff.substitute(beta=beta, c=c, p=p).as_rational()
        for x0, e in zip(xs, exps):
            v *= Fraction(x0) ** e
        total += v
    return total


def poly_value(fn, xs, beta, c):
    # value of the regular part only, as an honest polynomial
    return fn_value(reg(fn), xs, beta, c)


def rho_oracle(fn, x0, y0, beta, c):
    f = reg(fn)
    num = fn_value(f, (y0, x0), beta, c) - fn_value(f, (x0, y0), beta, c)
    return Fraction(x0) * num / (Fraction(x0) - Fraction(y0))


def s_oracle(fn, x0, y0, beta, c):
    f = reg(fn)
    num = fn_value(f, (x0, 0), beta, c) - fn_value(f, (0, x0), beta, c)
    return num / Fraction(y0)


def rhat_oracle(fn, x0, y0, beta, c):
    f = reg(fn)
    swap = fn_value(fn, (y0, x0), beta, c)
    dd = (
        Fraction(beta)
        * y0
        * (fn_value(f, (y0, x0), beta, c) - fn_value(f, (x0, y0), beta, c))
        / (Fraction(x0) - Fraction(y0))
    )
    ev = Fraction(c) * (fn_value(f, (y0, 0), beta, c) - fn_value(f, (0, y0), beta, c)) / Fraction(x0)
    return swap + dd + ev


POINTS = [(Fraction(3), Fraction(5)), (Fraction(-2), Fraction(7)), (Fraction(1, 2), Fraction(4, 3))]
PARAMS = [(Fraction(2, 3), Fraction(5, 7)), (Fraction(-1), Fraction(3))]


# -- reg ---------------------------------------------------------------------


def test_reg_drops_singular_terms():
    assert reg(mono(CFG3, (-1, 0))).is_zero()
    f = mono(CFG3, (2, 1))
    assert reg(f) == f
    g = lin(f, (1, mono(CFG3, (-1, -1))), (3, mono(CFG3, (0, 2))))
    assert reg(g) == mono(CFG3, (0, 2), Scalar.rational(3))


def test_reg_is_slot_local_when_asked():
    f = mono(CFG3, (-1, 0, 2))
    assert reg(f, (1, 2)) == f  # slot 0 is a spectator here
    assert reg(f, (0, 1)).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reg_idempotent_and_linear(data):
    fn = data.draw(laurent_fns(2))
    gn = data.draw(laurent_fns(2))
    assert reg(reg(fn)) == reg(fn)
    assert reg(lin(fn, (1, fn), (1, gn))) == lin(fn, (1, reg(fn)), (1, reg(gn)))


def test_reg_idempotent_on_500_random_functions():
    rng = Random(7)
    for _ in range(500):
        fn = random_fn(rng, CFG3, 2)
        assert reg(reg(fn)) == reg(fn)


# -- permutation --------------------------------------------------------------


def test_permute_examples():
    assert permute(mono(CFG3, (2, 0))) == mono(CFG3, (0, 2))
    f = mono(CFG3, (1, 0, -1))
    assert permute(f, (0, 2)) == mono(CFG3, (-1, 0, 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permute_is_an_involution(data):
    fn = data.draw(laurent_fns(3))
    for slots in ((0, 1), (0, 2), (1, 2)):
        assert permute(permute(fn, slots), slots) == fn


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_permute_commutes_with_reg(data):
    fn = data.draw(laurent_fns(2))
    assert permute(reg(fn)) == reg(permute(fn))


# -- divided difference --------------------------------------------------------


def test_divided_difference_examples():
    # (x^2 - y^2)/(x - y) = x + y ... here as (swap - id)/(x - y) on y^2
    f = mono(CFG3, (0, 2))
    assert divided_difference(f) == lin(f, (1, mono(CFG3, (0, 1))), (1, mono(CFG3, (1, 0))))
    # f = x: (y - x)/(x - y) = -1
    assert divided_difference(mono(CFG3, (1, 0))) == mono(CFG3, (0, 0), -ONE)
    # symmetric input
    assert divided_difference(mono(CFG3, (0, 0))).is_zero()
    assert divided_difference(mono(CFG3, (2, 2))).is_zero()


def test_divided_difference_multiply_back():
    # (x - y) * dd(f) must reproduce swap(f) - f; product computed on raw dicts
    rng = Random(13)
    for _ in range(200):
        fn = reg(random_fn(rng, CFG3, 2))
        dd = divided_difference(fn)
        prod_ = _times_x_minus_y(dd)
        expect = _raw(permute(fn))
        for k, v in _raw(fn).items():
            expect[k] = expect.get(k, ZERO) - v
        expect = {k: v for k, v in expect.items() if v}
        assert prod_ == expect


def _raw(fn):
    return {exps: coeff for exps, coeff in fn.terms()}


def _times_x_minus_y(fn):
    out = {}
    for (a, b), coeff in fn.terms():
        for key, sgn in (((a + 1, b), 1), ((a, b + 1), -1)):
            acc = out.get(key, ZERO) + coeff * sgn
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def test_divided_difference_rejects_singular_active_slots():
    with pytest.raises(ValueError):
        divided_difference(mono(CFG3, (-1, 0)))


# -- rho, s, r ---------------------------------------------------------------


def test_rho_examples():
    assert op_rho(mono(CFG3, (1, 0))) == mono(CFG3, (1, 0), -ONE)
    assert op_rho(mono(CFG3, (0, 1))) == mono(CFG3, (1, 0))
    assert op_rho(mono(CFG3, (-1, 0))).is_zero()


def test_s_examples():
    assert op_s(mono(CFG3, (1, 0))) == mono(CFG3, (1, -1))
    assert op_s(mono(CFG3, (0, 1))) == mono(CFG3, (1, -1), -ONE)
    assert op_s(mono(CFG3, (1, 1))).is_zero()


def test_r_example():
    # r(x) = -b*x + C*x/y
    x = mono(CFG3, (1, 0))
    expect = lin(x, (-BETA, x), (C, mono(CFG3, (1, -1))))
    assert op_r(x) == expect
    assert op_r(mono(CFG3, (-1, -1))).is_zero()
    assert op_r(mono(CFG3, (0, 0))).is_zero()


@pytest.mark.parametrize("exps", list(product(range(0, 3), repeat=2)))
def test_rho_and_s_match_rational_oracles(exps):
    fn = mono(CFG3, exps)
    for (x0, y0) in POINTS:
        for beta, c in PARAMS:
            got = fn_value(op_rho(fn), (x0, y0), beta, c)
            assert got == rho_oracle(fn, x0, y0, beta, c)
            got = fn_value(op_s(fn), (x0, y0), beta, c)
            assert got == s_oracle(fn, x0, y0, beta, c)


# -- the braid operator --------------------------------------------------------


def test_rhat_pure_permutation_on_singular_basis():
    # K = 0 monomials have no regular part: only the flip survives
    assert op_rhat(mono(CFG3, (-1, 0))) == mono(CFG3, (0, -1))
    assert op_rhat(mono(CFG3, (-1, 2))) == mono(CFG3, (2, -1))


def test_rhat_on_x():
    # Rhat(x) = (1 - b) y + C y / x; hand expansion of the three-term formula
    x = mono(CFG3, (1, 0))
    expect = lin(x, (ONE - BETA, mono(CFG3, (0, 1))), (C, mono(CFG3, (-1, 1))))
    assert op_rhat(x) == expect


def test_rhat_fixes_constants():
    assert op_rhat(mono(CFG3, (0, 0))) == mono(CFG3, (0, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rhat_matches_rational_oracle(n):
    cfg = SpaceConfig(n)
    for exps in basis_monomials(cfg, 2):
        fn = mono(cfg, exps)
        for (x0, y0) in POINTS:
            for beta, c in PARAMS:
                got = fn_value(op_rhat(fn), (x0, y0), beta, c)
                assert got == rhat_oracle(fn, x0, y0, beta, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rhat_equals_permute_after_identity_plus_r(n):
    cfg = SpaceConfig(n)
    for exps in basis_monomials(cfg, 2):
        fn = mono(cfg, exps)
        assert op_rhat(fn) == permute(lin(fn, (1, fn), (1, op_r(fn))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rhat_preserves_the_truncated_space(n):
    # constructing the image already bounds every exponent; assert explicitly
    cfg = SpaceConfig(n)
    for exps in basis_monomials(cfg, 2):
        image = op_rhat(mono(cfg, exps))
        for out, _ in image.terms():
            assert all(-1 <= e <= n - 1 for e in out)


# -- linearity over the scalar ring --------------------------------------------


SLOT_PAIRS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operators_are_scalar_linear(data):
    fn = data.draw(laurent_fns(3))
    gn = data.draw(laurent_fns(3))
    factor = BETA * 2 + C
    for slots in SLOT_PAIRS:
        for op in (reg, permute, op_rho, op_s, op_r, op_rhat):
            image = lin(fn, (1, op(fn, slots)), (1, op(gn, slots)))
            assert op(lin(fn, (1, fn), (1, gn)), slots) == image
            assert op(lin(fn, (factor, fn)), slots) == lin(fn, (factor, op(fn, slots)))


# -- single-pass kernels against their definitions -------------------------------
#
# The operators are fused kernels; these references build each one from the
# primitives reg, divided_difference and permute, term by term.


def _shifted(fn, slot):
    """fn times the variable in `slot`."""
    out = {}
    for exps, coeff in fn.terms():
        e = list(exps)
        e[slot] += 1
        out[tuple(e)] = coeff
    return LaurentFn(fn.cfg, fn.arity, out)


def _from_terms(fn, terms):
    """Sum of (exponents, coefficient) pairs, in the space of fn."""
    return lin(fn, *((coeff, mono(fn.cfg, exps)) for exps, coeff in terms))


def _with(exps, values):
    """exps with the exponent of each slot in `values` replaced."""
    e = list(exps)
    for slot, value in values.items():
        e[slot] = value
    return tuple(e)


def rho_ref(fn, slots):
    a, _ = slots
    return _shifted(divided_difference(reg(fn, slots), slots), a)


def s_ref(fn, slots):
    # (f(x, 0) - f(0, x)) / y on the regular part f
    a, b = slots
    f = reg(fn, slots)
    return _from_terms(fn, [
        *((_with(e, {b: -1}), c) for e, c in f.terms() if e[b] == 0),
        *((_with(e, {a: e[b], b: -1}), -c) for e, c in f.terms() if e[a] == 0),
    ])


def r_ref(fn, slots):
    return lin(fn, (BETA, rho_ref(fn, slots)), (C, s_ref(fn, slots)))


def rhat_c_term_ref(fn, slots):
    # (f(y, 0) - f(0, y)) / x on the regular part f
    a, b = slots
    f = reg(fn, slots)
    return _from_terms(fn, [
        *((_with(e, {a: -1, b: e[a]}), c) for e, c in f.terms() if e[b] == 0),
        *((_with(e, {a: -1}), -c) for e, c in f.terms() if e[a] == 0),
    ])


def rhat_ref(fn, slots):
    _, b = slots
    beta_term = _shifted(divided_difference(reg(fn, slots), slots), b)
    c_term = rhat_c_term_ref(fn, slots)
    return lin(fn, (1, permute(fn, slots)), (BETA, beta_term), (C, c_term))


KERNELS = [
    ("rho", op_rho, rho_ref),
    ("s", op_s, s_ref),
    ("r", op_r, r_ref),
    ("rhat", op_rhat, rhat_ref),
    ("R", _FUNCTIONAL_OPS["R"], lambda fn, slots: permute(rhat_ref(fn, slots), slots)),
]


@pytest.mark.parametrize("name, kernel, reference", KERNELS, ids=[k[0] for k in KERNELS])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_kernel_equals_its_definition(name, kernel, reference, data):
    n = data.draw(st.integers(1, 4))
    fn = data.draw(laurent_fns(3, SpaceConfig(n), symbolic_scalars()))
    for slots in SLOT_PAIRS:
        assert kernel(fn, slots) == reference(fn, slots)


REFERENCES = {name: reference for name, _, reference in KERNELS}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_basis_images_equal_the_definition(name):
    # every basis monomial of V (x) V at n = 1..8, on both slot orders: the
    # image term by term, which stays in [-1, max(ea, eb)] and needs no merge
    for n in range(1, 9):
        cfg = SpaceConfig(n)
        for slots, exps in product(((0, 1), (1, 0)), basis_monomials(cfg, 2)):
            a, b = slots
            image = _basis_image(name, exps[a], exps[b])
            assert len({(pair, m) for pair, m, _ in image}) == len(image)
            assert all(-1 <= e <= max(exps) for pair, _, _ in image for e in pair)
            fn = mono(cfg, exps)
            got = _from_terms(fn, [(_with(exps, {a: x, b: y}), Scalar.monomial(_unpack(m), t))
                                   for (x, y), m, t in image])
            assert got == REFERENCES[name](fn, slots)


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_tables_equal_the_kernel(name):
    # the engine applies each kernel as a table of its basis images on
    # SpaceConfig(n), term by term, through its product loop: on multi-term
    # inputs with nonzero spectator exponents, start fields and monomials,
    # p^-1 among them, that must give exactly the operator's image, alone or
    # added into an accumulator that cancels part of it
    rng = Random(f"table/{name}")
    monomials = [_pack(m) for m in ((0, 0, -1), (1, 0, 0), (0, 2, 1), (2, 1, -3))]
    coefficients = [1, -1, 3, Fraction(-2, 7)]
    op = _FUNCTIONAL_OPS[name]
    images = 0
    for n in range(1, 9):
        cfg, width = SpaceConfig(n), n.bit_length()
        for slots in SLOT_PAIRS:
            table = _table(((e, _basis_image(name, *e)) for e in basis_monomials(cfg, 2)),
                           slots, width, 1)
            start = _pack_fields([rng.randint(1, n) for _ in range(3)], width) << 3 * width
            terms = {(tuple(rng.randint(-1, n - 1) for _ in range(3)), rng.choice(monomials)):
                     rng.choice(coefficients) for _ in range(16)}
            image = op(LaurentFn(cfg, 3, _by_index((e, m, q) for (e, m), q in terms.items())), slots)
            want = {_pack_fields(e, width, 1) | start | m << 6 * width: q
                    for e, coeff in image.terms() for m, q in coeff._terms.items()}
            cancelling = {key: -q for key, q in list(want.items())[::2]}
            extra = _pack_fields((0, 0, 0), width, 1) | start
            for out in ({}, {**cancelling, extra: Fraction(1, 3)}):
                got = dict(out)
                for (e, m), q in terms.items():
                    key = _pack_fields(e, width, 1) | start | m << 6 * width
                    for image_key, v in _image([(q, [table])], [key]).items():
                        got[image_key] = got.get(image_key, 0) + v
                got = {key: q for key, q in got.items() if q}
                total = dict(out)
                for key, q in want.items():
                    total[key] = total.get(key, 0) + q
                assert got == {key: q for key, q in total.items() if q}
            images += bool(want)
    assert images >= 40


# -- three-slot behavior --------------------------------------------------------


def test_spectator_exponent_is_passive():
    # a singular spectator must pass through a slot-pair operator untouched
    fn = mono(CFG3, (-1, 1, 0))
    assert op_rho(fn, (1, 2)) == mono(CFG3, (-1, 1, 0), -ONE)
    assert op_s(fn, (1, 2)) == mono(CFG3, (-1, 1, -1))
    # ... while an active singular exponent is killed by the regularization
    assert op_rho(mono(CFG3, (2, -1, 0)), (1, 2)).is_zero()


@pytest.mark.parametrize("op", [reg, permute, divided_difference, op_rhat])
@pytest.mark.parametrize("slots", [(0, 0), (0, 5), (-1, 1)])
def test_bad_slot_pairs_are_rejected(op, slots):
    # a repeated slot, or one outside the two variables of fn
    fn = mono(CFG3, (1, 0))
    with pytest.raises(ValueError, match=r"^bad slot pair \(.*\) for arity 2$"):
        op(fn, slots)


def test_functions_on_different_spaces_are_not_equal():
    # the same exponents and coefficients in V(2) and in V(3)
    assert mono(SpaceConfig(2), (0, 0)) != mono(SpaceConfig(3), (0, 0))
    assert mono(SpaceConfig(3), (0, 0)) == mono(CFG3, (0, 0))


def test_bounds_are_enforced_at_construction():
    with pytest.raises(StabilityError):
        mono(SpaceConfig(2), (2, 0))
    with pytest.raises(StabilityError):
        mono(CFG3, (-2, 0))
    with pytest.raises(ValueError):
        SpaceConfig(0)


# -- strategies ----------------------------------------------------------------


def laurent_fns(arity, cfg=CFG3, coeffs=None):
    exps = st.tuples(*[st.integers(cfg.min_exp, cfg.max_exp)] * arity)
    if coeffs is None:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(
            Scalar.rational
        )
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda terms: LaurentFn(cfg, arity, terms)
    )


def symbolic_scalars():
    """Nonzero polynomials in b, C, p, p^-1 with small rational coefficients."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return st.dictionaries(exps, rationals, min_size=1, max_size=3).map(Scalar)


def random_fn(rng, cfg, arity):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(cfg.min_exp, cfg.max_exp) for _ in range(arity))
        terms[exps] = Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
    return LaurentFn(cfg, arity, terms)
