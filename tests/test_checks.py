import gc
import json
import os
import re
import signal
import threading
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlie import checks, cli, freealg, operators
from qlie.cg import extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from qlie.laurent import _KERNELS, LaurentFn, SpaceConfig, op_r, op_rhat, op_rho, op_s, permute
from qlie.operators import Operator, compose, from_functional
from qlie.scalars import BETA, C, ONE, P, P_INV, ZERO, Scalar, _by_index, _pack
from test_operators import embed
from test_witness_pins import CORRUPTED_SUITES, RECORDED, _suite_with_corrupted


# -- braid ---------------------------------------------------------------------


def test_braid_passes_for_the_flip():
    report = checks.suite_braid(2, rhat=Operator.flip(2, lo=0))
    assert report.passed and report.failures == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_braid_passes_for_the_extended_matrix(n):
    assert checks.suite_braid(n, rhat=extended_rhat(n)).passed


def test_braid_fails_under_the_documented_corruption():
    bad = extended_rhat(2).with_entry((0, 2), (2, 1), C + C)
    report = checks.suite_braid(2, rhat=bad)
    assert not report.passed
    assert report.failures > 0
    assert report.witnesses, "corruption must produce witnesses"


def test_suite_braid_runs_both_routes():
    report = checks.suite_braid(2)
    assert report.passed
    # functional route contributes one check per basis monomial of V x V x V
    assert report.checked >= 27


# -- Yang-Baxter ------------------------------------------------------------------


def test_ybe_passes_for_identity():
    # suite_ybe checks P.rhat, which is the identity for rhat = P
    report = checks.suite_ybe(2, rhat=Operator.flip(2, lo=0))
    assert report.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ybe_for_flipped_extended_matrix(n):
    # the extended part of suite_ybe is R = P.rhat
    assert checks.suite_ybe(n, rhat=extended_rhat(n)).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ybe_for_flipped_family_with_symbolic_p(n):
    # the cg-family part of suite_ybe is R = P.sigma_cg_family(n), p symbolic
    report = checks.suite_ybe(n)
    assert report.passed and report.symbolic == ["b", "C", "p"]


def test_suite_ybe_parts(n=2):
    report = checks.suite_ybe(n)
    assert report.passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_flipped_leaf_is_the_flip_composed_with_r(n):
    # ybe's P.R leaves swap each entry's output pair and share R's Scalars
    corrupted = extended_rhat(n).with_entry((1, n), (n, 0), C + BETA)
    for R in (extended_rhat(n), sigma_cg_family(n), corrupted):
        flipped = checks._flipped(R)
        assert flipped == compose(Operator.flip(n, lo=R.lo), R)
        assert all(flipped.entries[(b, a), inp] is c for ((a, b), inp), c in R.entries.items())


def extended_mutants(n):
    """The 243 single-entry mutants of extended_rhat(n) at the positions of
    level 2: every entry position over 0..2, raised by 1, b or C."""
    rhat = extended_rhat(n)
    for out, inp in product(product(range(3), repeat=2), repeat=2):
        for delta in (ONE, BETA, C):
            yield rhat.with_entry(out, inp, rhat.coeff(out, inp) + delta)


def r_mutants():
    """The 324 single-entry mutants of the matrix of r at n = 2: every entry
    position over 0..2, moved by b, C, -b or -C."""
    r = checks._functional_matrix("r", 2)
    for out, inp in product(product(range(3), repeat=2), repeat=2):
        for delta in (BETA, C, -BETA, -C):
            yield r.with_entry(out, inp, r.coeff(out, inp) + delta)


def constant_mutants():
    """The 32 single-constant mutants at n = 2, raised by 1, b, C or p."""
    constants = structure_constants(2)
    for (k, i, j), delta in product(product(range(1, 3), repeat=3), (ONE, BETA, C, P)):
        yield constants.with_entry(k, i, j, constants.coeff(k, i, j) + delta)


def test_braid_and_the_ybe_extended_part_are_one_identity(monkeypatch):
    # with R = P Rhat, R12 R13 R23 and R23 R13 R12 are the reversal
    # P12 P13 P23 times Rhat23 Rhat12 Rhat23 and Rhat12 Rhat23 Rhat12 (the
    # `checks` docstring): a braid witness at out (a, b, c) is a ybe
    # witness at (c, b, a), its sides swapped
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    for rhat in extended_mutants(2):
        braid, ybe = checks.suite_braid(2, rhat=rhat), checks.suite_ybe(2, rhat=rhat)
        assert not braid.passed and braid.failures == ybe.failures
        # the functional routes apply the kernel, which no mutant reaches
        assert {w["side"] for w in braid.witnesses} == {"matrix"}
        assert {(w["part"], w["side"]) for w in ybe.witnesses} == {("extended", "matrix")}
        assert (sorted((w["out"][::-1], w["in"], w["rhs"], w["lhs"]) for w in braid.witnesses)
                == sorted((w["out"], w["in"], w["lhs"], w["rhs"]) for w in ybe.witnesses))


def matrix_values(identities, leaves):
    """Each matrix witness of the identities, uncapped, as {(out, in): rhs - lhs, or value}."""
    col = checks.Collector("values", 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "WITNESS_CAP", 10 ** 6)
        checks.check_identities(col, identities, leaves)
    value = Scalar.parse
    return {(tuple(w["out"]), tuple(w["in"])):
            value(w["rhs"]) - value(w["lhs"]) if "lhs" in w else value(w["value"])
            for w in col.witnesses}


def test_cybe_and_the_ybfr_full_part_are_braid_on_the_identity_plus_r():
    # (I + r12)(I + r13)(I + r23) - (I + r23)(I + r13)(I + r12) is CYBE(r) +
    # r12 r13 r23 - r23 r13 r12, and for Rhat = P (I + r) it is the leg
    # reversal times braid's rhs - lhs (the `checks` docstring): so braid's
    # rhs - lhs at out (c, b, a) is cybe's plus full's value at (a, b, c).
    # r is homogeneous of degree 1 in (b, C), and so is each mutant: the two
    # parts have degrees 2 and 3, and braid fails iff cybe or full does
    r = checks._functional_matrix("r", 2)
    full = checks._expression("r12*r13*r23-r23*r13*r12")
    failing = 0
    for out, inp in product(product(range(3), repeat=2), repeat=2):
        for delta in (BETA, C, -BETA, -C):
            mutant = r.with_entry(out, inp, r.coeff(out, inp) + delta)
            plus = dict(mutant.entries)
            for i in product(range(3), repeat=2):
                plus[i, i] = plus.get((i, i), ZERO) + ONE
            braid = matrix_values([({}, *checks._braid("rhat"))],
                                  {"rhat": checks._flipped(Operator(2, 2, plus, lo=0))})
            parts = [matrix_values([({}, expr, ())], {"r": mutant})
                     for expr in (checks._cybe("r"), full)]
            summed = {key: sum((part.get(key, ZERO) for part in parts), ZERO)
                      for key in parts[0].keys() | parts[1].keys()}
            assert {(o[::-1], i): v for (o, i), v in braid.items()} == summed, (out, inp, delta)
            assert bool(braid) == any(parts)
            failing += bool(braid)
    assert failing


def test_level_2_braid_witnesses_are_those_of_level_3_on_level_2(monkeypatch):
    # level n is an invariant subspace of level n + 1 (the `cg` docstring),
    # and a mutant on level-2 indices keeps it so
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    for low, high in zip(extended_mutants(2), extended_mutants(3)):
        at_2 = [w for w in checks.suite_braid(2, rhat=low).witnesses if w["side"] == "matrix"]
        at_3 = [w for w in checks.suite_braid(3, rhat=high).witnesses
                if w["side"] == "matrix" and max(w["out"] + w["in"]) <= 2]
        assert at_2 and at_3 == at_2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite, given", [
    (checks.suite_braid, lambda n: {"rhat": extended_rhat(n)}),
    (checks.suite_ybe, lambda n: {"rhat": extended_rhat(n)}),
    (checks.suite_cybe, lambda n: {"r_matrix": checks._functional_matrix("r", n)}),
    (checks.suite_qlie, lambda n: {"sigma": sigma_cg(n), "constants": structure_constants(n)}),
], ids=["braid", "ybe", "cybe", "qlie"])
def test_a_suite_given_its_own_default_prints_the_plain_report(suite, given, n):
    # inputs are compared by value: a copy of the default is no override
    copied = {name: op.map_entries(lambda s: s) for name, op in given(n).items()}
    plain, same = (suite(n, **inputs).to_json_dict() for inputs in ({}, copied))
    plain["millis"] = same["millis"] = 0
    assert same == plain


def test_an_overridden_run_drops_no_witness(monkeypatch):
    # an input that differs from the default is checked by what takes it, on
    # the matrix route (the `checks` docstring); the reference runs both
    # routes and the parts the rule skips, so every witness must be there
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    matrix = 3 ** 6  # the entry positions of a three-leg matrix on 0..2

    def agree(report, identities, leaves, domain, skipped=None):
        reference = checks.Collector(report.suite, 2)
        checks.check_identities(reference, identities, leaves, domain)
        for part_identities, part_leaves in skipped or ():
            checks.check_identities(reference, part_identities, part_leaves)
        assert report.failures == len(reference.witnesses)
        assert report.witnesses == reference.witnesses
        assert report.checked == matrix

    family = sigma_cg_family(2)
    at_one = family.map_entries(lambda s: s.substitute(p=1))
    ybe_skipped = [([({"part": "cg-family"}, *checks._ybe("R"))], {"R": checks._flipped(family)}),
                   ([({"part": "cg-family-p1"}, *checks._identity("family12 = sigma12"))],
                    {"family": at_one, "sigma": sigma_cg(2)})]
    for rhat in extended_mutants(2):
        agree(checks.suite_braid(2, rhat=rhat), [({}, *checks._braid("rhat"))], {"rhat": rhat},
              range(-1, 2))
        agree(checks.suite_ybe(2, rhat=rhat), [({"part": "extended"}, *checks._ybe("R"))],
              {"R": checks._flipped(rhat)}, range(-1, 2), ybe_skipped)
    for mutant in r_mutants():
        agree(checks.suite_cybe(2, r_matrix=mutant), [({}, checks._cybe("r"), ())],
              {"r": mutant}, range(0, 3))
    # qlie family 2 takes sigma alone: the reference takes the mutant for
    # the closed form, so the rule sees no override and checks every family
    sigma = sigma_cg(2)
    family_2 = checks.Collector("qlie", 2)
    checks.check_identities(family_2, [({"family": 2}, *checks._braid("sigma"))], {"sigma": sigma})
    for mutant in constant_mutants():
        report = checks.suite_qlie(2, constants=mutant)
        with monkeypatch.context() as patch:
            patch.setattr(checks, "structure_constants", lambda n: mutant)
            reference = checks.suite_qlie(2, constants=mutant)
        assert (report.failures, report.witnesses) == (reference.failures, reference.witnesses)
        assert report.checked == reference.checked - family_2.checked == 2 ** 4 + 2 * 2 ** 5
        assert checks.suite_qlie(2, sigma=sigma, constants=mutant).checked == report.checked
    assert not family_2.witnesses


# -- classical Yang-Baxter ----------------------------------------------------------


def test_cybe_zero_operator_passes():
    assert checks.suite_cybe(2, r_matrix=Operator(2, 2, {}, lo=0)).passed


def test_cybe_matrix_route():
    r = from_functional(op_r, SpaceConfig(3))
    assert checks.suite_cybe(3, r_matrix=r).passed


def test_cybe_functional_route():
    report = checks.suite_cybe(3)
    assert report.passed
    # one check per monomial of degree <= 3 per variable, then the matrix
    assert report.checked == 4 ** 3 + 4 ** 6


def _cybe_report(name, op, n):
    """Classical Yang-Baxter equation for one two-slot operator, both routes."""
    col = checks.Collector("cybe", n)
    expr = dict(checks.COMPONENT_IDENTITIES)[f"cybe-{name}"]
    leaves = {name: from_functional(op, SpaceConfig(n))}
    checks.check_identities(col, [({}, expr, ())], leaves, range(0, n + 1))
    return col.report()


def test_cybe_for_rho_alone():
    # the divided-difference part is itself a classical r-matrix
    assert _cybe_report("rho", op_rho, 3).passed
    assert _cybe_report("rho", op_rho, 2).passed


def test_cybe_for_s_alone():
    assert _cybe_report("s", op_s, 3).passed


def test_suite_cybe_fails_with_corrupted_matrix():
    r = from_functional(op_r, SpaceConfig(2)).with_entry((1, 1), (2, 0), ONE)
    report = checks.suite_cybe(2, r_matrix=r)
    assert not report.passed
    assert any(w.get("side") == "matrix" for w in report.witnesses)


# -- component identities ---------------------------------------------------------


def test_s23_s12_kills_xyz():
    cfg = SpaceConfig(4)
    xyz = LaurentFn.monomial(cfg, (1, 1, 1))
    assert not op_s(op_s(xyz, (0, 1)), (1, 2))


def test_s12_s13_s23_kills_xyz():
    cfg = SpaceConfig(4)
    xyz = LaurentFn.monomial(cfg, (1, 1, 1))
    assert not op_s(op_s(op_s(xyz, (1, 2)), (0, 2)), (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_identities_hold(n):
    report = checks.check_component_identities(n)
    assert report.passed, report.witnesses[:3]


def test_component_report_itemizes_identities():
    labels = [label for label, _ in checks.COMPONENT_IDENTITIES]
    assert "rho13*s23" in labels
    assert "[s12,rho13]+s12*rho23" in labels
    assert "s23*s12" in labels
    assert len(labels) == 11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_identity_and_components_hold(n):
    report = checks.check_quadratic_ybe_components(n)
    assert report.passed, report.witnesses[:3]


def test_quadratic_component_list_is_complete():
    labels = [label for label, _ in checks.QUADRATIC_COMPONENTS]
    assert sum(1 for l in labels if l.startswith("b^3")) == 1
    assert sum(1 for l in labels if l.startswith("b^2*C")) == 5
    assert sum(1 for l in labels if l.startswith("b*C^2")) == 6
    assert sum(1 for l in labels if l.startswith("C^3")) == 2


def test_full_quadratic_passes_iff_components_pass():
    # consistency of the graded split: both views agree on the same n
    for n in (1, 2, 3):
        full = checks.check_quadratic_ybe_components(n)
        comps = checks.check_component_identities(n)
        assert full.passed == comps.passed == True  # noqa: E712


# -- quantum Lie algebra axioms ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qlie_axioms_hold_symbolically(n):
    report = checks.suite_qlie(n, sigma=sigma_cg(n), constants=structure_constants(n))
    assert report.passed, report.witnesses[:3]


def test_qlie_axioms_with_zero_constants():
    # braided Jacobi holds trivially, the braid relation is still checked
    from qlie.cg import StructureTensor

    report = checks.suite_qlie(2, sigma=sigma_cg(2), constants=StructureTensor(2, {}))
    assert report.passed
    assert report.checked >= 2 ** 6


def test_qlie_axioms_fail_with_flipped_sign():
    ct = structure_constants(2).with_entry(2, 1, 2, C)  # should be -C
    report = checks.suite_qlie(2, sigma=sigma_cg(2), constants=ct)
    assert not report.passed
    families = {w["family"] for w in report.witnesses}
    assert families, "flipped sign must be caught"


def test_qlie_axioms_fail_with_corrupted_sigma():
    bad = sigma_cg(2).with_entry((1, 2), (2, 1), ONE)
    report = checks.suite_qlie(2, sigma=bad, constants=structure_constants(2))
    assert not report.passed
    assert any(w["family"] == 2 for w in report.witnesses)


def qlie_reference(n, sigma, constants, subs):
    """The family 1, 3 and 4 witnesses of `suite_qlie`, uncapped, from the
    calculus relations of `freealg._bcc_terms` in the representation x_k ->
    (C^m_{Nk})_{N,m}, f(a,l) -> (sigma^{am}_{Nl})_{N,m}, a word going to the
    product of its letters' matrices, in Scalar arithmetic."""
    letters = {}  # letters[code][N] lists (m, entry (N, m))
    for (m, N, k), c in constants.entries.items():
        letters.setdefault(k, {}).setdefault(N, []).append((m, c))
    for ((a, m), (N, l)), c in sigma.entries.items():
        letters.setdefault((n + 1) * a + l, {}).setdefault(N, []).append((m, c))
    sig = freealg._index(sigma.entries, n)
    ct = freealg._index({(k, (i, j)): v for (k, i, j), v in constants.entries.items()}, n)
    witnesses = []
    for family in (1, 3, 4):
        found = {}
        for indices in product(range(1, n + 1), repeat=freealg._ARITY[family]):
            row = freealg._row(freealg._bcc_terms, (family, indices, 1), n, sig, ct)
            value = {}
            for word, coeff in _by_index((w, key, q) for (w, key), q in row.items()).items():
                matrix = {(N, N): coeff for N in range(1, n + 1)}
                for code in word:
                    letter, product_ = letters.get(code, {}), {}
                    for (N, s), c1 in matrix.items():
                        for m, c2 in letter.get(s, ()):
                            product_[N, m] = product_.get((N, m), ZERO) + c1 * c2
                    matrix = product_
                for key, c in matrix.items():
                    value[key] = value.get(key, ZERO) + c
            for (N, m), v in value.items():
                if subs:
                    v = v.substitute(**subs)
                if v:
                    key = (m, N, *indices) if family == 1 else (N, *indices, m)
                    found[key] = {"family": family, "indices": [N, *indices, m], "value": str(v)}
        witnesses += [found[key] for key in sorted(found)]
    return witnesses


def test_qlie_families_are_the_calculus_relations_in_the_representation(monkeypatch):
    """Families 1, 3 and 4, read off the extended braid relation, equal the
    calculus relations evaluated in the representation, on random inputs:
    1 to 3 entries of sigma and of the constants, off the support too,
    raised by deltas, symbolic and specialized."""
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    rng = Random(2023)
    deltas = [ONE, BETA, C, P, P_INV, Scalar.parse("1/3")]
    values = {"beta": Fraction(2, 3), "c": Fraction(-9, 5), "p": Fraction(8, 7)}
    failing = set()
    for example in range(40):
        n = 2 + example % 4
        sigma, ct = sigma_cg(n), structure_constants(n)
        small = range(1, n + 1)
        for _ in range(rng.randint(1, 3)):
            out, inp = (rng.choice(small), rng.choice(small)), (rng.choice(small), rng.choice(small))
            sigma = sigma.with_entry(out, inp, sigma.coeff(out, inp) + rng.choice(deltas))
        for _ in range(rng.randint(1, 3)):
            k, i, j = rng.choice(small), rng.choice(small), rng.choice(small)
            ct = ct.with_entry(k, i, j, ct.coeff(k, i, j) + rng.choice(deltas))
        subs = values if example % 8 >= 4 else None
        report = checks.suite_qlie(n, subs, sigma=sigma, constants=ct)
        found = [w for w in report.witnesses if w["family"] != 2]
        assert found == qlie_reference(n, sigma, ct, subs), (n, subs)
        assert report.checked == n ** 4 + 2 * n ** 5 + n ** 6
        failing.update(w["family"] for w in found)
    assert failing == {1, 3, 4}


def test_qlie_rejects_inputs_of_another_size():
    with pytest.raises(ValueError):
        checks.suite_qlie(2, constants=structure_constants(3))
    with pytest.raises(ValueError):
        checks.suite_qlie(2, sigma=sigma_cg(3))


@pytest.mark.parametrize(
    "suite, keyword, operator, shape",
    [
        # a smaller matrix would be proved in place of the size-3 one
        (checks.suite_braid, "rhat", extended_rhat(2), "size 2, 2 legs and index base 0"),
        (checks.suite_ybe, "rhat", extended_rhat(2), "size 2, 2 legs and index base 0"),
        (checks.suite_cybe, "r_matrix", extended_rhat(2), "size 2, 2 legs and index base 0"),
        (checks.suite_braid, "rhat", sigma_cg(3), "size 3, 2 legs and index base 1"),
        (checks.suite_braid, "rhat", Operator(3, 3, {}, lo=0), "size 3, 3 legs and index base 0"),
        # sigma indexes 1..n; the extended matrix adds the index 0
        (checks.suite_qlie, "sigma", extended_rhat(3), "size 3, 2 legs and index base 0"),
    ],
    ids=["braid-size", "ybe-size", "cybe-size", "braid-base", "braid-legs", "qlie-base"],
)
def test_suites_reject_an_operator_of_another_shape(suite, keyword, operator, shape):
    lo = 1 if keyword == "sigma" else 0
    want = f"^{keyword} must have size 3, 2 legs and index base {lo}, got {shape}$"
    with pytest.raises(ValueError, match=want):
        suite(3, **{keyword: operator})


# -- the statement grammar ---------------------------------------------------------------


def test_a_product_is_one_word_in_written_order():
    # slots are 0-based; the leftmost factor is applied last, by the engine
    assert checks._expression("rho13*s23*r12") == [
        (1, (("rho", (0, 2)), ("s", (1, 2)), ("r", (0, 1))))
    ]


def test_sums_and_differences_sign_their_terms():
    assert checks._expression("s12 - rho13*s23 + r21") == [
        (1, (("s", (0, 1)),)),
        (-1, (("rho", (0, 2)), ("s", (1, 2)))),
        (1, (("r", (1, 0)),)),
    ]


def test_a_commutator_expands_to_both_orders():
    assert checks._expression("[s12,rho13]") == checks._expression("s12*rho13-rho13*s12")
    # a commutator is a factor: it distributes over products and signs
    assert checks._expression("s23-[a12,b13]*c23") == [
        (1, (("s", (1, 2)),)),
        (-1, (("a", (0, 1)), ("b", (0, 2)), ("c", (1, 2)))),
        (1, (("b", (0, 2)), ("a", (0, 1)), ("c", (1, 2)))),
    ]
    # nested commutators: [x,[y,z]] = x*y*z - x*z*y - y*z*x + z*y*x
    assert [sign for sign, _ in checks._expression("[x12,[y13,z23]]")] == [1, -1, -1, 1]


def test_parsing_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        checks._expression("[x12,[y13,z23]] - rho13*s23 + r21")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cybe_is_the_sum_of_three_commutators():
    expanded = checks._expression("r12*r13-r13*r12+r12*r23-r23*r12+r13*r23-r23*r13")
    assert checks._cybe("r") == expanded


def test_an_identity_splits_at_the_equals_sign():
    lhs, rhs = checks._identity("R12*R13*R23 = R23*R13*R12")
    assert lhs == checks._expression("R12*R13*R23")
    assert rhs == checks._expression("R23*R13*R12")
    assert checks._braid("rhat") == checks._identity("rhat12*rhat23*rhat12 = rhat23*rhat12*rhat23")


def test_a_graded_label_states_the_words_after_its_grade():
    ((label, words),) = checks._statements("b^2*C: rho23*s13*rho12")
    assert label == "b^2*C: rho23*s13*rho12"
    assert words == checks._expression("rho23*s13*rho12")


@pytest.mark.parametrize(
    "parse, text, found",
    [
        (checks._expression, "rho12&s13", "'&'"),
        (checks._expression, "rho14", "'rho14'"),
        (checks._expression, "rho11", "'rho11'"),
        (checks._expression, "s0", "'s0'"),
        (checks._expression, "12", "'1'"),
        (checks._expression, "rho12+", "the end"),
        (checks._expression, "rho12+-s13", "'-'"),
        (checks._expression, "rho12*", "the end"),
        (checks._expression, "", "the end"),
        (checks._expression, "[rho12,s13", "the end"),
        (checks._expression, "rho12,s13]", "','"),
        (checks._expression, "rho12]", "']'"),
        (checks._expression, "[rho12]", "']'"),
        (checks._expression, "rho12 = s12", "'='"),
        (checks._identity, "rho12 = s12 = r12", "'='"),
        (checks._identity, "rho12", "the end"),
        (checks._identity, "rho12 = [s12,r13", "the end"),
    ],
    ids=[
        "unknown-character", "slot-outside", "equal-slots", "one-slot", "no-name",
        "empty-last-term", "empty-middle-term", "empty-factor", "empty", "unclosed-bracket",
        "unopened-bracket", "stray-bracket", "commutator-of-one", "equals-in-expression",
        "two-equals", "no-equals", "identity-unclosed-bracket",
    ],
)
def test_malformed_statements_raise_a_value_error_naming_them(parse, text, found):
    with pytest.raises(ValueError) as error:
        parse(text)
    message = str(error.value)
    assert message.startswith(f"cannot parse {text!r}: expected ")
    assert message.endswith(f", found {found}")


# -- the identity engine ---------------------------------------------------------------


def test_engine_witness_keys_for_a_failing_identity(monkeypatch):
    # no CLI input makes components/ybfr fail, so their witness shapes are
    # pinned here: s12 neither vanishes nor equals rho12
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    s12, rho12 = checks._expression("s12"), checks._expression("rho12")
    leaves = {name: from_functional(op, SpaceConfig(2)) for name, op in (("s", op_s), ("rho", op_rho))}
    for rhs, matrix_keys in (
        ([], ["identity", "side", "out", "in", "value"]),
        (rho12, ["identity", "side", "out", "in", "lhs", "rhs"]),
    ):
        col = checks.Collector("components", 2)
        checks.check_identities(col, [({"identity": "s12"}, s12, rhs)], leaves, range(0, 3))
        report = col.report()
        assert not report.passed
        assert report.checked == 3 ** 3 + 3 ** 6
        keys = {side: [list(w) for w in col.witnesses if w["side"] == side] for side in ("functional", "matrix")}
        assert keys["functional"] and keys["matrix"]
        assert all(k == ["identity", "side", "monomial", "value"] for k in keys["functional"])
        assert all(k == matrix_keys for k in keys["matrix"])
        # functional witnesses come before matrix ones
        assert col.witnesses[0]["side"] == "functional" and col.witnesses[-1]["side"] == "matrix"


@pytest.mark.parametrize(
    "other, after, before",
    [
        (extended_rhat(3),
         "b must have size 2, 2 legs and index base 0, as a has, got size 3, 2 legs and index base 0",
         "a must have size 3, 2 legs and index base 0, as b has, got size 2, 2 legs and index base 0"),
        (sigma_cg(2),
         "b must have size 2, 2 legs and index base 0, as a has, got size 2, 2 legs and index base 1",
         "a must have size 2, 2 legs and index base 1, as b has, got size 2, 2 legs and index base 0"),
        (Operator(2, 3, {}, lo=0),
         "b must have size 2, 2 legs and index base 0, as a has, got size 2, 3 legs and index base 0",
         "b must have size 2, 2 legs and index base 0, got size 2, 3 legs and index base 0"),
    ],
    ids=["size", "base", "legs"],
)
def test_engine_rejects_leaves_of_another_shape(other, after, before):
    # the field width, the spectator range and `checked` come from the
    # leaves, so each must be a two-leg matrix of the first one's shape,
    # whichever comes first
    first = extended_rhat(2)
    for leaves, want in (({"a": first, "b": other}, after), ({"b": other, "a": first}, before)):
        col = checks.Collector("engine", 2)
        with pytest.raises(ValueError) as error:
            checks.check_identities(col, [({}, *checks._identity("a12 = b12"))], leaves)
        assert str(error.value) == want
        assert col.checked == 0 and not col.witnesses


def test_engine_rejects_a_factor_naming_no_leaf():
    # before any identity runs; with a domain the name must be a kernel too
    rhat, sigma = {"rhat": extended_rhat(2)}, {"rhat": extended_rhat(2), "sigma": extended_rhat(2)}
    for statement, leaves, domain, name, kind in (
        ("rhat12 = zz12", rhat, None, "zz", "leaf"),
        ("R12 = rhat12", rhat, range(-1, 2), "R", "leaf"),
        ("sigma12 = rhat12", sigma, range(-1, 2), "sigma", "kernel"),
    ):
        col = checks.Collector("engine", 2)
        identities = [({}, *checks._braid("rhat")), ({}, *checks._identity(statement))]
        with pytest.raises(ValueError) as error:
            checks.check_identities(col, identities, leaves, domain)
        assert str(error.value) == f"an identity names {name!r}, which is no {kind}"
        assert col.checked == 0 and not col.witnesses


def _place(op, slots, legs):
    """The two-leg op on `slots` of `legs` legs: the test-local `embed` of
    test_operators on three legs, a relabelling of op's legs on two."""
    if legs == 3:
        return embed(op, slots)
    ent = {}
    for ((o1, o2), (i1, i2)), coeff in op.entries.items():
        out, inp = [0, 0], [0, 0]
        out[slots[0]], out[slots[1]], inp[slots[0]], inp[slots[1]] = o1, o2, i1, i2
        ent[tuple(out), tuple(inp)] = coeff
    return Operator(op.n, 2, ent, op.lo)


def _reference_matrix_route(col, identities, leaves, domain=None):
    """The matrix route by whole products: place, compose, compare entries.

    As in the engine, an identity acts on three legs with a domain, and
    names its route under `side`; without one, on two legs when its
    factors name only slots 1 and 2.  The engine places leaves on their
    legs straight from the entries and builds no product matrix.
    """
    leaf = next(iter(leaves.values()))

    def signed_sum(expr, legs):
        total = {}
        for sign, word in expr:
            value = None
            for name, slots in word:
                m = _place(leaves[name], slots, legs)
                value = m if value is None else compose(value, m)
            for key, coeff in value.entries.items():
                total[key] = total.get(key, ZERO) + (coeff if sign > 0 else -coeff)
        return Operator(leaf.n, legs, total, leaf.lo)

    for tag, lhs, rhs in identities:
        named = {slot for _, word in (*lhs, *rhs) for _, pair in word for slot in pair}
        legs = 3 if domain is not None or 2 in named else 2
        tag = {**tag, "side": "matrix"} if domain is not None else tag
        col.checked += (leaf.n + 1 - leaf.lo) ** (2 * legs)
        left, right = signed_sum(lhs, legs), signed_sum(rhs, legs)
        for out, inp in sorted(left.entries.keys() | right.entries.keys()):
            position = {**tag, "out": list(out), "in": list(inp)}
            a, b = left.coeff(out, inp), right.coeff(out, inp)
            if not rhs:
                col.witness(lambda: {**position, "value": str(a)})
            elif a != b:
                col.witness(lambda: {**position, "lhs": str(a), "rhs": str(b)})


def _hecke_rhs(n):
    """b*sigma + (1-b), the right side of hecke's identity."""
    h = sigma_cg(n).map_entries(lambda s: s * BETA).entries
    for i in product(range(1, n + 1), repeat=2):
        h[i, i] = h.get((i, i), ZERO) + ONE - BETA
    return Operator(n, 2, h, lo=1)


# (kind, identities, mutated leaf name, its builder, builders of the fixed
# leaves): an equality identity, a vanishing six-word identity, qlie family
# 2, and the two-leg identities of hecke and cross-check
MATRIX_ROUTE_CASES = [
    ("braid", [({}, *checks._braid("rhat"))], "rhat", extended_rhat, {}),
    ("cybe", [({}, checks._cybe("r"), ())], "r", lambda n: checks._functional_matrix("r", n), {}),
    ("qlie-family-2", [({"family": 2}, *checks._braid("rhat"))], "rhat", sigma_cg, {}),
    ("hecke", [({}, *checks._identity("sigma12*sigma12 = h12"))], "sigma", sigma_cg,
     {"h": _hecke_rhs}),
    ("cross-check", [({}, *checks._identity("functional12 = closed12"))], "functional",
     lambda n: checks._functional_matrix("rhat", n), {"closed": extended_rhat}),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "kind, identities, name, build, fixed", MATRIX_ROUTE_CASES, ids=[c[0] for c in MATRIX_ROUTE_CASES]
)
def test_row_wise_matrix_route_matches_whole_products(kind, identities, name, build, fixed, n,
                                                      monkeypatch):
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    leaf = build(n)
    fixed = {other: build_other(n) for other, build_other in fixed.items()}
    rng = Random(f"{kind}/{n}")
    positions = sorted(leaf.entries)
    indices = range(leaf.lo, leaf.n + 1)
    mutants = [leaf]
    for delta in (ONE, C, -BETA):
        # one existing entry and one structural zero, each shifted by delta
        out, inp = rng.choice(positions)
        mutants.append(leaf.with_entry(out, inp, leaf.coeff(out, inp) + delta))
        out = tuple(rng.choice(indices) for _ in range(2))
        inp = tuple(rng.choice(indices) for _ in range(2))
        mutants.append(leaf.with_entry(out, inp, leaf.coeff(out, inp) + delta))
    for corner in ((leaf.lo, leaf.lo), (n, n)):
        # a structural zero in the first and in the last output row, which a
        # wrong spectator range or field mask would miss
        inp = next(i for i in product(indices, repeat=2) if (corner, i) not in leaf.entries)
        mutants += [leaf.with_entry(corner, inp, delta) for delta in (ONE, C)]
    failing = 0
    for mutant in mutants:
        engine, reference = checks.Collector(kind, n), checks.Collector(kind, n)
        checks.check_identities(engine, identities, {name: mutant, **fixed})
        _reference_matrix_route(reference, identities, {name: mutant, **fixed})
        assert engine.witnesses == reference.witnesses
        got, want = engine.report(), reference.report()
        assert (got.checked, got.failures) == (want.checked, want.failures)
        assert got.witnesses == want.witnesses
        failing += not got.passed
    assert failing >= 3


def _matrix_routes_agree(identities, leaves, subs=None):
    """Engine and whole-product reference give the same report; is it a failure?

    With subs, the engine runs the symbolic leaves with those values, and
    the reference multiplies the leaves they specialize to.
    """
    engine, reference = checks.Collector("engine", 2, subs), checks.Collector("engine", 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "WITNESS_CAP", 10 ** 6)
        checks.check_identities(engine, identities, leaves)
        if subs:
            leaves = {name: op.map_entries(lambda s: s.substitute(**subs))
                      for name, op in leaves.items()}
        _reference_matrix_route(reference, identities, leaves)
    assert engine.witnesses == reference.witnesses
    got, want = engine.report(), reference.report()
    assert (got.checked, got.failures, got.witnesses) == (want.checked, want.failures, want.witnesses)
    return not got.passed


FULL = {"beta": Fraction(3, 8), "c": Fraction(-9, 5), "p": Fraction(8, 7)}
# with p alone the p-family's denominators come from p = 8/7 and from
# p^-1 = 7/8; with beta alone, p and p^-1 stay symbolic beside them
SPECIALIZED_ROUTE_CASES = [
    ("braid-full", [({}, *checks._braid("rhat"))], "rhat", extended_rhat, FULL),
    ("cybe-full", [({}, checks._cybe("r"), ())], "r", lambda n: checks._functional_matrix("r", n), FULL),
    ("family-2-full", [({"family": 2}, *checks._braid("rhat"))], "rhat", sigma_cg, FULL),
    ("ybe-family-beta", [({}, *checks._ybe("R"))], "R",
     lambda n: compose(Operator.flip(n, lo=1), sigma_cg_family(n)), {"beta": Fraction(3, 8)}),
    ("ybe-family-p", [({}, *checks._ybe("R"))], "R",
     lambda n: compose(Operator.flip(n, lo=1), sigma_cg_family(n)), {"p": Fraction(8, 7)}),
]


@pytest.mark.parametrize(
    "identities, name, build, subs", [c[1:] for c in SPECIALIZED_ROUTE_CASES],
    ids=[c[0] for c in SPECIALIZED_ROUTE_CASES],
)
def test_integer_matrix_route_matches_rational_products(identities, name, build, subs):
    n = 2
    leaf = build(n)
    rng = Random(f"{name}/{sorted(subs)}")
    mutants = [leaf]
    for delta in (ONE, C, Scalar.rational(Fraction(5, 3)), -BETA):
        out, inp = rng.choice(sorted(leaf.entries))
        mutants.append(leaf.with_entry(out, inp, leaf.coeff(out, inp) + delta))
    # the engine's specialized witnesses against products of specialized leaves
    failing = [_matrix_routes_agree(identities, {name: m}, subs=subs) for m in mutants]
    assert not failing[0] and sum(failing) >= 3


def test_integer_matrix_route_with_leaves_of_different_denominators():
    # rho, s and r carry the denominators 7, 15 and 40 (from b and C), and
    # the words have lengths 1 and 3, so the matrix route multiplies and
    # adds Fractions of different denominators
    n = 2
    leaves = {
        "rho": _leaf("rho", n).map_entries(lambda s: s * Scalar.rational(Fraction(2, 7))),
        "s": _leaf("s", n).map_entries(lambda s: s * Scalar.rational(Fraction(-4, 15))),
        "r": _leaf("r", n).map_entries(lambda s: s.substitute(**FULL)),
    }
    mixed, other = checks._expression("r12-rho12*s13*r23"), checks._expression("s23*rho13*r12")
    identities = [({"identity": "equal"}, mixed, other), ({"identity": "vanish"}, mixed, ())]
    assert _matrix_routes_agree(identities, leaves)
    # the difference of a word and itself vanishes with either word length
    same = [({}, *checks._identity("r13+s23*rho13*r12 = s23*rho13*r12+r13"))]
    assert not _matrix_routes_agree(same, leaves)


def test_specialized_matrix_route_multiplies_no_fractions(monkeypatch):
    n = 3
    subs = {"beta": Fraction(2, 3), "c": Fraction(-9, 5), "p": Fraction(8, 7)}
    col = checks.Collector("braid", n, subs)
    leaves = {"rhat": extended_rhat(n)}

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the matrix route")

    for method in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, method, refuse)
    # both routes: the functional one on the Laurent domain, then the matrix one
    checks.check_identities(col, [({}, *checks._braid("rhat"))], leaves, range(-1, n))
    report = col.report()
    assert report.passed and report.checked == (n + 1) ** 3 + (n + 1) ** 6


OPS = ("rho", "s", "r", "R")
ORDERED_SLOTS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
REFERENCE_OPS = {
    "rho": op_rho,
    "s": op_s,
    "r": op_r,
    # R = P.Rhat: the flipped braid operator
    "R": lambda fn, slots: permute(op_rhat(fn, slots), slots),
}
words = st.lists(st.tuples(st.sampled_from(OPS), st.sampled_from(ORDERED_SLOTS)), min_size=1, max_size=3)
signed_words = st.lists(st.tuples(st.sampled_from([1, -1]), words), min_size=1, max_size=3)
small_fractions = st.fractions(-3, 3, max_denominator=4)
specializations = st.fixed_dictionaries(
    {}, optional={"beta": small_fractions, "c": small_fractions, "p": small_fractions.filter(bool)}
)


@lru_cache(maxsize=None)
def _leaf(name, n):
    return checks._functional_matrix(name, n)


def _reference_functional_route(col, identities, domain):
    """The functional route by composing the public LaurentFn operators."""
    cfg = SpaceConfig(domain.stop)
    for tag, lhs, rhs in identities:
        for exps in product(domain, repeat=3):
            col.checked += 1
            total = {}
            for sign, word in (*lhs, *((-sign, word) for sign, word in rhs)):
                value = LaurentFn.monomial(cfg, exps)
                for name, slots in reversed(word):
                    value = REFERENCE_OPS[name](value, slots)
                for e, coeff in value.terms():
                    total[e] = total.get(e, ZERO) + (coeff if sign > 0 else -coeff)
            # a witness prints the specialized function
            values = {e: v for e, coeff in total.items()
                      if (v := coeff.substitute(**col.subs) if col.subs else coeff)}
            if values:
                value = str(LaurentFn(cfg, 3, values))
                col.witness(lambda: {**tag, "side": "functional", "monomial": list(exps), "value": value})


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    polynomial=st.booleans(),
    sides=st.lists(st.tuples(signed_words, st.one_of(st.just([]), signed_words)), min_size=1, max_size=2),
    subs=st.one_of(st.none(), specializations),
)
def test_functional_route_matches_composed_public_operators(n, polynomial, sides, subs):
    domain = range(0, n + 1) if polynomial else range(-1, n)
    identities = [({"identity": str(k)}, lhs, rhs) for k, (lhs, rhs) in enumerate(sides)]
    engine = checks.Collector("engine", n, subs or None)
    reference = checks.Collector("engine", n, subs or None)
    leaves = {name: _leaf(name, n) for name in OPS}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "WITNESS_CAP", 10 ** 6)
        checks.check_identities(engine, identities, leaves, domain)
        _reference_functional_route(reference, identities, domain)
    assert [w for w in engine.witnesses if w["side"] == "functional"] == reference.witnesses
    assert engine.checked == reference.checked + len(identities) * (n + 1) ** 6


@pytest.mark.parametrize("polynomial", [False, True], ids=["laurent", "polynomial"])
@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_key_fields_hold_the_largest_index(n, polynomial, monkeypatch):
    # the engine packs each index in a field of n.bit_length() bits (the
    # matrix route, indices 0..n) or domain.stop.bit_length() bits (the
    # functional route, exponents plus one, 0..stop): n = 3, 4, 7 and 8 sit
    # on both sides of a step in those widths.  A false identity fails on
    # both routes, a leaf corrupted at its largest indices on the matrix
    # route; every witness must match the references.
    monkeypatch.setattr(checks, "WITNESS_CAP", 10 ** 6)
    domain = range(0, n + 1) if polynomial else range(-1, n)
    rho = _leaf("rho", n)
    corrupted = rho.with_entry((n, n), (0, n), rho.coeff((n, n), (0, n)) + C)
    s12, rho12 = checks._expression("s12"), checks._expression("rho12")
    for leaf, identity in (
        (rho, ({"identity": "s12=rho12"}, s12, rho12)),
        (corrupted, ({"identity": "rho23*s12"}, dict(checks.COMPONENT_IDENTITIES)["rho23*s12"], ())),
    ):
        leaves = {"rho": leaf, "s": _leaf("s", n)}
        engine = checks.Collector("engine", n)
        functional, matrix = checks.Collector("engine", n), checks.Collector("engine", n)
        checks.check_identities(engine, [identity], leaves, domain)
        _reference_functional_route(functional, [identity], domain)
        _reference_matrix_route(matrix, [identity], leaves, domain)
        assert engine.witnesses == functional.witnesses + matrix.witnesses
        assert engine.checked == functional.checked + matrix.checked
        assert matrix.witnesses
        assert bool(functional.witnesses) == (leaf is rho)


def _dict_image(words, starts):
    """The product loop with every factor merged in a dict, the first one too."""
    total = {}
    for sign, factors in words:
        terms = dict.fromkeys(starts, sign)
        for k, (mask, rows) in enumerate(factors):
            acc = total if k == len(factors) - 1 else {}
            for e, c1 in terms.items():
                for move, c2 in rows.get(e & mask, ()):
                    key = e + move
                    v = acc[key] = acc.get(key, 0) + c1 * c2
                    if not v:
                        del acc[key]
            terms = acc
    return total


@pytest.mark.parametrize("n", [2, 3, 5])
def test_image_equals_the_merging_product_loop(n):
    # seeded random tables, with p^-1 monomials (negative keys) and Fraction
    # coefficients, on one-, two- and three-factor words and several starts
    # sharing a first index: the merge-free first factor must give the same
    # terms, of the same types, and the words with their negations must
    # cancel to nothing
    rng = Random(f"image/{n}")
    width, indices = n.bit_length(), range(n + 1)
    monomials = [0, *(_pack(m) for m in ((0, 0, -1), (1, 0, 0), (0, 1, -2), (2, 0, 1)))]
    coefficients = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]

    def table(slots):
        images = []
        for source in product(indices, repeat=2):
            image = {(tuple(rng.choices(indices, k=2)), rng.choice(monomials)): rng.choice(coefficients)
                     for _ in range(rng.randint(0, 4))}
            images.append((source, [(target, m, q) for (target, m), q in image.items()]))
        return checks._table(images, slots, width)

    tables = [table(slots) for slots in [(0, 1), (1, 2), (0, 2), (2, 0), (1, 0)] * 2]
    compared = negative = 0
    for _ in range(30):
        words = [(rng.choice([1, -1, Fraction(2, 3)]), rng.choices(tables, k=rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        first = rng.choice(indices)
        slab = {checks._pack_fields((first, *rng.choices(indices, k=2)), width) for _ in range(5)}
        starts = [k | k << 3 * width for k in sorted(slab)]
        got, want = checks._image(words, starts), _dict_image(words, starts)
        assert got == want
        assert all(type(got[key]) is type(q) for key, q in want.items())
        assert checks._image([*words, *((-sign, factors) for sign, factors in words)], starts) == {}
        compared += len(want)
        negative += sum(key < 0 for key in want)
    assert compared > 100 and negative > 0


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_functional_matrix_equals_the_functional_operator(name):
    # the leaves are tabulated from the kernels' basis images; the matrix of
    # the functional operator, LaurentFn by LaurentFn, is the reference
    op = checks._FUNCTIONAL_OPS[name]
    for n in range(1, 13):
        want = from_functional(lambda fn: op(fn, (0, 1)), SpaceConfig(n))
        assert checks._functional_matrix(name, n) == want, n


# -- specialization soundness --------------------------------------------------------


def test_twenty_random_specializations_pass():
    rng = Random(11)
    for _ in range(20):
        subs = {
            "beta": Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            "c": Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            "p": Fraction(rng.randint(1, 6), rng.randint(1, 6)),
        }
        assert checks.suite_braid(2, subs).passed
        assert checks.suite_qlie(2, subs).passed
        assert checks.suite_ybe(1, subs).passed


def test_a_passing_specialized_run_substitutes_nothing(monkeypatch):
    # the values reach only a row that differs; ybe builds its family at p = 1
    substitute = Scalar.substitute

    def at_one_only(self, *args, **values):
        assert not args and values == {"p": 1}, (args, values)
        return substitute(self, **values)

    monkeypatch.setattr(Scalar, "substitute", at_one_only)
    subs = {"beta": Fraction(2, 3), "c": Fraction(-9, 5), "p": Fraction(8, 7)}
    for suite in (checks.suite_braid, checks.suite_ybe, checks.suite_cybe,
                  checks.check_component_identities, checks.check_quadratic_ybe_components,
                  checks.suite_qlie, checks.suite_hecke):
        report = suite(3, subs)
        assert report.passed and report.symbolic == [], suite.__name__


@pytest.mark.parametrize(
    "subs, error",
    [({"beta": 0.1}, TypeError), ({"p": 0}, ValueError), ({"gamma": 1}, TypeError),
     ({"beta": "x"}, ValueError)],
    ids=["float", "p-zero", "unknown-name", "no-rational"],
)
def test_a_bad_value_raises_whether_or_not_the_run_passes(subs, error):
    # the values are read when a suite starts, not only where a row differs
    raised = []
    for rhat in (None, extended_rhat(2).with_entry((0, 2), (2, 1), C + C)):
        with pytest.raises(error) as info:
            checks.suite_braid(2, subs, rhat=rhat)
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    for suite in (checks.suite_ybe, checks.suite_cybe, checks.check_component_identities,
                  checks.check_quadratic_ybe_components, checks.suite_qlie, checks.suite_hecke):
        with pytest.raises(error):
            suite(2, subs)


def test_a_passing_run_builds_no_laurent_function_and_composes_nothing(monkeypatch):
    # the leaves come from the basis images and ybe's P.R from R's entries
    def refuse(*args, **kwargs):
        raise AssertionError("called on the passing path")

    monkeypatch.setattr(LaurentFn, "__init__", refuse)
    monkeypatch.setattr(operators, "from_functional", refuse)
    monkeypatch.setattr(checks, "compose", refuse)
    for suite in (checks.suite_braid, checks.suite_ybe, checks.suite_cybe,
                  checks.check_component_identities, checks.check_quadratic_ybe_components,
                  checks.suite_cross_check):
        assert suite(3).passed, suite.__name__
    assert checks.DEFAULT_INPUTS["cybe"](3).shape() == (3, 2, 0)


def test_degenerate_specialization_beta0_c1():
    subs = {"beta": Fraction(0), "c": Fraction(1)}
    assert checks.suite_qlie(4, subs).passed
    assert checks.suite_braid(2, subs).passed


# -- cross-construction ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_check_passes(n):
    report = checks.suite_cross_check(n)
    assert report.passed


def test_cross_check_flipped_sign_fails_at_c_entries():
    report = checks.suite_cross_check(2, flip_s_sign=True)
    assert not report.passed
    assert report.witnesses
    for w in report.witnesses:
        assert "C" in w["lhs"] or "C" in w["rhs"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cross_check_flip_negates_each_c_term_entry(n):
    # the C-term entries of the extended matrix are its structure constants,
    # 2(n - 1) of them; each one's flipped functional value is its negation
    closed = extended_rhat(n)
    c_terms = {
        key: coeff for key, coeff in closed.entries.items()
        if any(exps[1] for exps, _ in coeff.terms())
    }
    assert len(c_terms) == 2 * (n - 1)
    report = checks.suite_cross_check(n, flip_s_sign=True)
    assert report.failures == len(c_terms) == len(report.witnesses)
    assert {(tuple(w["out"]), tuple(w["in"])): (w["lhs"], w["rhs"]) for w in report.witnesses} == {
        key: (str(-coeff), str(coeff)) for key, coeff in c_terms.items()
    }


# -- exploratory quadratic relation ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sigma_satisfies_a_quadratic_relation(n):
    # exploratory, not part of the acceptance surface
    assert checks.suite_hecke(n).passed


# -- report shape ----------------------------------------------------------------------


def test_report_json_shape():
    report = checks.suite_braid(1)
    doc = report.to_json_dict()
    assert list(doc) == [
        "suite",
        "n",
        "symbolic",
        "pass",
        "checked",
        "failures",
        "witnesses",
        "millis",
    ]
    assert doc["suite"] == "braid"
    assert doc["pass"] is True
    assert doc["symbolic"] == ["b", "C", "p"]


def test_witness_list_is_capped_but_counted():
    bad = extended_rhat(3).with_entry((0, 2), (2, 1), C + C)
    report = checks.suite_braid(3, rhat=bad)
    assert not report.passed
    assert len(report.witnesses) <= checks.WITNESS_CAP
    assert report.failures >= len(report.witnesses)


def _s12_is_rho12(subs):
    """s12 = rho12 on both routes at degree 4, which fails at 230 positions."""
    col = checks.Collector("components", 4, subs)
    leaves = {name: _leaf(name, 4) for name in ("s", "rho")}
    identity = ({}, checks._expression("s12"), checks._expression("rho12"))
    checks.check_identities(col, [identity], leaves, range(0, 5))
    return col.report()


def test_a_capped_report_is_the_uncapped_one_cut_short():
    # past the cap a symbolic run counts its failing positions from the flat
    # keys, and a specialized one substitutes them but prints none, so every
    # report must be the uncapped run's with its witness list cut at the cap
    values = {"beta": Fraction(2, 3), "c": Fraction(-9, 5), "p": Fraction(8, 7)}
    rhat = extended_rhat(3)
    # a late entry raised by b - 2/3, which the values erase past the cap,
    # and an early one by C: 36 failures when symbolic, 27 once specialized
    erased = rhat.with_entry((3, 3), (3, 3), rhat.coeff((3, 3), (3, 3)) + BETA - Scalar.parse("2/3"))
    erased = erased.with_entry((1, 1), (1, 1), erased.coeff((1, 1), (1, 1)) + C)
    runs = [
        *(("matrix", lambda suite=suite, mutant=mutant: suite(2, rhat=mutant))
          for mutant in extended_mutants(2) for suite in (checks.suite_braid, checks.suite_ybe)),
        *(("matrix", lambda mutant=mutant: checks.suite_cybe(2, r_matrix=mutant))
          for mutant in r_mutants()),
        *(("qlie", lambda mutant=mutant: checks.suite_qlie(2, constants=mutant))
          for mutant in constant_mutants()),
        # the helper sets the cap; read it when called, patched or not
        *(("matrix", lambda case=case: _suite_with_corrupted(*case, cap=checks.WITNESS_CAP))
          for case in CORRUPTED_SUITES.values()),
        ("matrix", lambda: checks.suite_cross_check(6, flip_s_sign=True)),
        ("qlie", lambda: checks.suite_qlie(3, sigma=sigma_cg_family(3))),
        ("functional", lambda: _s12_is_rho12(None)),
        ("specialized matrix", lambda: checks.suite_braid(3, values, rhat=erased)),
        ("specialized qlie", lambda: checks.suite_qlie(3, values, sigma=sigma_cg_family(3))),
        ("specialized functional", lambda: _s12_is_rho12(values)),
    ]
    past_cap = set()
    for label, run in runs:
        capped = run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "WITNESS_CAP", 10 ** 6)
            full = run()
        assert ((capped.passed, capped.failures, capped.checked, capped.witnesses)
                == (full.passed, full.failures, full.checked, full.witnesses[:checks.WITNESS_CAP]))
        if capped.failures > checks.WITNESS_CAP:
            past_cap.add(label)
    assert past_cap == {label for label, _ in runs}
    assert (checks.suite_braid(3, rhat=erased).failures,
            checks.suite_braid(3, values, rhat=erased).failures) == (36, 27)


@pytest.mark.parametrize("argv, failures", [
    (("verify", "braid", "--n", "5", "--corrupt", "(5,5;3,4)=2"), 143),
    (("verify", "qlie", "--n", "5", "--corrupt", "(5,5;4,2)=-C"), 139),
], ids=["braid", "qlie"])
def test_only_the_kept_witnesses_are_printed(argv, failures, monkeypatch, capsys):
    # a failing run formats the values of the witnesses it keeps and of no
    # other failing position: at most two Scalars (lhs and rhs) per witness
    calls = []
    to_text = Scalar.__str__
    monkeypatch.setattr(Scalar, "__str__", lambda s: calls.append(1) or to_text(s))
    assert cli.main(list(argv)) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["failures"] == failures and len(report["witnesses"]) == checks.WITNESS_CAP
    assert len(calls) <= 2 * checks.WITNESS_CAP


# -- both routes on two processes -------------------------------------------------

# the smallest n whose domain, n + 1 values per variable, holds SPLIT_STARTS
# start monomials: the first n at which a run forks for its both-route calls
SPLIT_N = next(n for n in range(1, 100) if (n + 1) ** 3 >= checks.SPLIT_STARTS)
VALUES = ("--beta=2/3", "--C=-9/5", "--p=8/7")
ROUTE_SUITES = ("braid", "ybe", "cybe", "components", "ybfr")


def _on_cpus(cpus, run):
    """(run(), or the type and message of what it raised; the forks it made)
    with `cpus` CPUs to run on: the process's own where it has two, which it
    must get back, with every child reaped."""
    own = checks._cpus()
    given = own if cpus > 1 and len(own) > 1 else set(range(cpus))
    forks = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_cpus", lambda: given)
        patch.setattr(os, "fork", lambda: forks.append(1) or fork())
        try:
            outcome = run()
        except Exception as exc:
            outcome = (type(exc), str(exc))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert checks._cpus() == own
    return outcome, len(forks)


def _verify(capsys, *argv):
    """(exit code, stdout, stderr) of `qlie verify ARGV`, every time masked."""
    code = cli.main(["verify", *argv])
    out, err = capsys.readouterr()
    return code, re.sub(r'"millis": \d+', '"millis": 0', out), re.sub(r"\d+ ms\)", "0 ms)", err)


def _report(suite, n=SPLIT_N):
    """The report of the suite at n as JSON, its time masked."""
    return {**getattr(checks, suite)(n).to_json_dict(), "millis": 0}


@pytest.mark.parametrize("values", [(), VALUES], ids=["symbolic", "specialized"])
@pytest.mark.parametrize("suite", ROUTE_SUITES)
def test_both_routes_on_two_processes_report_what_one_reports(suite, values, monkeypatch, capsys):
    both = []
    engine = checks.check_identities
    monkeypatch.setattr(checks, "check_identities", lambda col, identities, leaves, domain=None:
                        both.append(domain is not None) or engine(col, identities, leaves, domain))
    argv = (suite, "--n", str(SPLIT_N), *values)
    two, forks = _on_cpus(2, lambda: _verify(capsys, *argv))
    assert forks == sum(both) == 1
    assert _on_cpus(1, lambda: _verify(capsys, *argv)) == (two, 0)
    assert two[0] == 0


@pytest.mark.parametrize("name", sorted(CORRUPTED_SUITES))
def test_corrupted_leaves_on_two_processes_keep_their_pinned_witnesses(name, monkeypatch):
    # the rule lowered, so that n = 2 splits
    monkeypatch.setattr(checks, "SPLIT_STARTS", 1)
    run = lambda: _suite_with_corrupted(*CORRUPTED_SUITES[name])
    two, forks = _on_cpus(2, run)
    one, _ = _on_cpus(1, run)
    assert forks == 1
    assert (two.failures, two.checked, two.witnesses) == (one.failures, one.checked, one.witnesses)
    assert json.loads(RECORDED[f"{name}-corrupted"]) == {"checked": two.checked,
                                                         "witnesses": two.witnesses}


def test_a_run_below_the_rule_does_not_fork(capsys):
    outcome, forks = _on_cpus(2, lambda: _verify(capsys, "braid", "--n", "2"))
    assert forks == 0 and outcome[0] == 0


@pytest.mark.parametrize("route", ["_functional_route", "_matrix_route"])
def test_a_route_that_raises_raises_on_both_paths(route, monkeypatch):
    def broken(*args):
        raise ValueError(f"{route} is broken")

    monkeypatch.setattr(checks, route, broken)
    two, forks = _on_cpus(2, lambda: _report("suite_braid"))
    assert forks == 1
    assert two == _on_cpus(1, lambda: _report("suite_braid"))[0] == (ValueError, f"{route} is broken")


def test_a_route_whose_child_dies_runs_again_in_the_caller(monkeypatch, tmp_path):
    # the caller sleeps through the route it takes first, so the child takes
    # the other, and dies in it
    caller, log = os.getpid(), tmp_path / "pids"
    for route in ("_functional_route", "_matrix_route"):
        def dying(*args, run=getattr(checks, route)):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.2)
            return run(*args)

        monkeypatch.setattr(checks, route, dying)
    two, forks = _on_cpus(2, lambda: _report("suite_ybe"))
    assert forks == 1 and str(caller) in log.read_text().split()
    assert len(set(log.read_text().split())) == 2  # the child took a route
    assert two == _on_cpus(1, lambda: _report("suite_ybe"))[0]
    assert two["pass"] and not two["witnesses"]


def test_both_routes_do_not_fork_beside_another_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        two, forks = _on_cpus(2, lambda: _report("suite_cybe"))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == 0
    assert two == _on_cpus(1, lambda: _report("suite_cybe"))[0]


def test_verify_all_above_the_rule_forks_once_on_two_cpus(monkeypatch, capsys):
    # each of its two processes is pinned to one CPU, so neither splits its routes
    own = checks._cpus()
    if len(own) < 2 or not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs two CPUs and CPU masks")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ("all", "--n", str(SPLIT_N))
    try:
        os.sched_setaffinity(0, set(sorted(own)[:2]))
        two = _verify(capsys, *argv)
        assert len(forks) == 1
        os.sched_setaffinity(0, set(sorted(own)[:1]))
        one = _verify(capsys, *argv)
        assert len(forks) == 1
    finally:
        os.sched_setaffinity(0, own)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert two == one and two[0] == 0


def test_the_queue_takes_at_most_256_jobs():
    # one byte per job in the queue
    jobs = [lambda i=i: i for i in range(257)]
    for cpus in (2, 1):
        assert _on_cpus(cpus, lambda: checks._run_jobs(jobs)) == (
            (ValueError, "257 jobs; the queue takes at most 256"), 0)
    assert _on_cpus(2, lambda: checks._run_jobs(jobs[:256])) == (list(range(256)), 1)


def _s_is_rho(monkeypatch, earlier):
    """(the Collector, the witnesses built) of checking s = rho at each slot
    pair, on both routes at n = 4, after `earlier` witnesses of another call."""
    built = []
    witness = checks.Collector.witness
    monkeypatch.setattr(checks.Collector, "witness",
                        lambda col, build: witness(col, lambda: built.append(1) or build()))
    col = checks.Collector("components", 4)
    col.witnesses = list(earlier)
    identities = [({}, checks._expression(f"s{slots}"), checks._expression(f"rho{slots}"))
                  for slots in ("12", "13", "23")]
    leaves = {name: _leaf(name, 4) for name in ("s", "rho")}
    checks.check_identities(col, identities, leaves, range(0, 5))
    return col, built


def test_a_route_decodes_only_the_witnesses_its_report_can_keep(monkeypatch):
    # s = rho fails on both routes at every slot pair; each route builds
    # witnesses only while the route's earlier identities leave room
    col, built = _s_is_rho(monkeypatch, [])
    assert col.failures > 6 * checks.WITNESS_CAP and len(col.witnesses) == checks.WITNESS_CAP
    assert len(built) <= 2 * checks.WITNESS_CAP


def test_a_route_decodes_only_the_witnesses_an_earlier_call_leaves_room_for(monkeypatch):
    earlier = [{"earlier": i} for i in range(checks.WITNESS_CAP - 3)]
    col, built = _s_is_rho(monkeypatch, earlier)
    assert col.witnesses[:len(earlier)] == earlier and len(col.witnesses) == checks.WITNESS_CAP
    assert len(built) <= 2 * 3
