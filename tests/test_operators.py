import json
from itertools import product
from random import Random

import pytest

from qlie.checks import Collector, _identity, check_identities
from qlie.laurent import LaurentFn, SpaceConfig, basis_monomials, op_rho, op_rhat, permute
from qlie.operators import Operator, StabilityError, compose, from_functional
from qlie.scalars import BETA, C, ONE, ZERO, Scalar


def embed(op, pair):
    """The 2-leg op acting on legs `pair` ("12", "13", "23" or a slot pair) of three."""
    a, b = (int(c) - 1 for c in pair) if isinstance(pair, str) else pair
    ent = {}
    for ((o1, o2), (i1, i2)), coeff in op.entries.items():
        for s in range(op.lo, op.n + 1):
            out, inp = [s] * 3, [s] * 3
            out[a], out[b], inp[a], inp[b] = o1, o2, i1, i2
            ent[tuple(out), tuple(inp)] = coeff
    return Operator(op.n, 3, ent, op.lo)


def three_leg_matrix(op, cfg):
    """The matrix of a functional operator on three variables, entries as in `from_functional`."""
    ent = {}
    for exps in basis_monomials(cfg, 3):
        for out, coeff in op(LaurentFn.monomial(cfg, exps)).terms():
            ent[tuple(e + 1 for e in out), tuple(e + 1 for e in exps)] = coeff
    return Operator(cfg.n, 3, ent, lo=0)


def identity(n, legs=2, lo=0):
    return Operator(n, legs, {(idx, idx): ONE for idx in product(range(lo, n + 1), repeat=legs)}, lo)


def test_from_functional_examples():
    m1 = from_functional(op_rhat, SpaceConfig(1))
    assert m1.coeff((1, 0), (0, 1)) == ONE
    m2 = from_functional(op_rhat, SpaceConfig(2))
    assert m2.coeff((1, 2), (2, 1)) == ONE - BETA
    ident = from_functional(lambda fn: fn, SpaceConfig(2))
    assert ident == identity(2, 2, lo=0)


def test_from_functional_reports_stability_violations():
    def bad(fn):
        # shift every exponent up by one: leaves the space at the top degree
        return LaurentFn(
            fn.cfg, fn.arity, {tuple(e + 1 for e in k): v for k, v in fn.terms()}
        )

    with pytest.raises(StabilityError):
        from_functional(bad, SpaceConfig(2))


def test_from_functional_raises_an_operator_error_as_it_is():
    # a bad slot pair is the caller's error, not an image leaving the space
    with pytest.raises(ValueError, match=r"^bad slot pair \(0, 2\) for arity 2$") as info:
        from_functional(lambda fn: op_rho(fn, (0, 2)), SpaceConfig(2))
    assert type(info.value) is ValueError


def test_embed_identity_and_flip():
    ident = identity(2, 2, lo=0)
    assert embed(ident, "12") == identity(2, 3, lo=0)
    P = Operator.flip(2, lo=0)
    P12 = embed(P, "12")
    assert P12.coeff((1, 0, 2), (0, 1, 2)) == ONE
    assert P12.coeff((1, 0, 2), (1, 0, 2)) == ZERO


@pytest.mark.parametrize("pair,slots", [("12", (0, 1)), ("13", (0, 2)), ("23", (1, 2))])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedded_matrix_agrees_with_three_slot_functional(n, pair, slots):
    cfg = SpaceConfig(n)
    two = from_functional(op_rho, cfg)
    direct = three_leg_matrix(lambda fn: op_rho(fn, slots), cfg)
    assert embed(two, pair) == direct


def test_compose_examples():
    P = Operator.flip(2, lo=0)
    assert compose(P, P) == identity(2, 2, lo=0)
    sigma = from_functional(op_rhat, SpaceConfig(2))
    assert compose(sigma, identity(2, 2, lo=0)) == sigma
    a = compose(embed(P, "12"), embed(P, "23"))
    b = compose(embed(P, "23"), embed(P, "12"))
    assert a != b


def test_compare_reports_first_discrepancy():
    # a matrix identity on slots 1 and 2 alone is checked on two legs
    P, ident = Operator.flip(1, lo=0), identity(1, 2, lo=0)
    same, differ = _identity("P12 = Q12"), _identity("P12 = I12")
    col = Collector("compare", 1)
    check_identities(col, [({}, *same)], {"P": P, "Q": P})
    assert P == P and not col.witnesses and col.checked == 2 ** 4
    check_identities(col, [({}, *differ)], {"P": P, "I": ident})
    assert P != ident
    assert col.witnesses[0] == {"out": [0, 1], "in": [0, 1], "lhs": "0", "rhs": "1"}


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        compose(Operator.flip(1, lo=0), Operator.flip(2, lo=0))
    with pytest.raises(ValueError):
        compose(Operator.flip(2, lo=0), Operator.flip(2, lo=1))


def random_operator(rng, n=2, legs=2, lo=0):
    ent = {}
    idx = list(range(lo, n + 1))
    for _ in range(rng.randint(0, 8)):
        out = tuple(rng.choice(idx) for _ in range(legs))
        inp = tuple(rng.choice(idx) for _ in range(legs))
        ent[(out, inp)] = Scalar.monomial(
            (rng.randint(0, 2), rng.randint(0, 1), 0), rng.randint(-3, 3)
        )
    return Operator(n, legs, ent, lo)


def test_compose_is_associative_on_random_operators():
    rng = Random(5)
    for _ in range(100):
        a, b, c = (random_operator(rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_embed_is_multiplicative():
    rng = Random(6)
    for _ in range(60):
        a, b = random_operator(rng), random_operator(rng)
        for pair in ("12", "13", "23"):
            assert embed(compose(a, b), pair) == compose(embed(a, pair), embed(b, pair))


def test_from_functional_is_linear_in_the_operator():
    def rho_plus_permute(fn):
        total = dict(op_rho(fn).terms())
        for exps, coeff in permute(fn).terms():
            total[exps] = total.get(exps, ZERO) + coeff
        return LaurentFn(fn.cfg, fn.arity, total)

    cfg = SpaceConfig(2)
    sum_op = from_functional(rho_plus_permute, cfg)
    rho, perm = from_functional(op_rho, cfg), from_functional(permute, cfg)
    for out, inp in sum_op.entries.keys() | rho.entries.keys() | perm.entries.keys():
        assert sum_op.coeff(out, inp) == rho.coeff(out, inp) + perm.coeff(out, inp)


def test_json_export_schema_and_determinism():
    op = Operator(1, 2, {((0, 1), (1, 0)): BETA}, lo=0)
    doc = op.to_json_dict()
    assert doc == {
        "n": 1,
        "legs": 2,
        "entries": [{"out": [0, 1], "in": [1, 0], "coeff": "b"}],
    }
    assert json.dumps(doc) == json.dumps(op.to_json_dict())


def test_csv_export():
    op = Operator(1, 2, {((0, 1), (1, 0)): BETA, ((0, 0), (0, 0)): ONE}, lo=0)
    assert op.to_csv() == (
        "n,legs,out,in,coeff\n"
        "1,2,0 0,0 0,1\n"
        "1,2,0 1,1 0,b\n"
    )


def test_with_entry_override_and_bounds():
    op = Operator.flip(2, lo=0)
    mutated = op.with_entry((0, 2), (2, 1), C + C)
    assert mutated.coeff((0, 2), (2, 1)) == C * 2
    assert op.coeff((0, 2), (2, 1)) == ZERO  # original untouched
    assert ((1, 0), (0, 1)) not in op.with_entry((1, 0), (0, 1), ZERO).entries
    with pytest.raises(ValueError, match=r"^index 5 outside 0\.\.2$"):
        op.with_entry((0, 5), (0, 0), ONE)
    with pytest.raises(ValueError, match=r"^index tuple of wrong length in \(\(1, 1, 1\), \(1, 1\)\)$"):
        op.with_entry((1, 1, 1), (1, 1), ONE)  # wrong arity
