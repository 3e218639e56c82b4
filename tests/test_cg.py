from itertools import permutations, product

import pytest

from qlie.cg import _extended, extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from qlie.checks import _FUNCTIONAL_OPS, suite_qlie
from qlie.laurent import LaurentFn, SpaceConfig, op_r, op_rhat, op_rho, op_s
from qlie.operators import Operator, compose, from_functional
from qlie.rtt import bcc_relation, compare_relation_spans
from qlie.scalars import BETA, C, ONE, ZERO, Scalar


# -- brute-force oracles: literal delta sums, no shared code with qlie.cg -----


def delta(a, b):
    return 1 if a == b else 0


def sigma_entry_oracle(i, j, k, l):
    total = Scalar.rational(delta(i, l) * delta(j, k))
    for s in range(k, l):  # k <= s < l
        total = total + BETA * (delta(i, s) * delta(j, k + l - s))
    for s in range(l, k):  # l <= s < k
        total = total - BETA * (delta(i, s) * delta(j, k + l - s))
    return total


def family_entry_oracle(i, j, k, l):
    total = Scalar.monomial((0, 0, k - l), delta(i, l) * delta(j, k))
    for s in range(k, l):
        total = total + Scalar.monomial((1, 0, k - s), delta(i, s) * delta(j, k + l - s))
    for s in range(l, k):
        total = total - Scalar.monomial((1, 0, k - s), delta(i, s) * delta(j, k + l - s))
    return total


def constants_entry_oracle(j, k, l):
    return C * (delta(1, l) * delta(j, k) - delta(1, k) * delta(j, l))


# -- sigma ---------------------------------------------------------------------


def test_sigma_n1_is_the_unit_entry():
    sg = sigma_cg(1)
    assert sg.entries == {((1, 1), (1, 1)): ONE}


def test_sigma_n2_exact_table():
    sg = sigma_cg(2)
    assert sg.entries == {
        ((1, 1), (1, 1)): ONE,
        ((2, 2), (2, 2)): ONE,
        ((2, 1), (1, 2)): ONE,
        ((1, 2), (1, 2)): BETA,
        ((1, 2), (2, 1)): ONE - BETA,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_matches_brute_force_sum(n):
    sg = sigma_cg(n)
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        assert sg.coeff((i, j), (k, l)) == sigma_entry_oracle(i, j, k, l)


def test_sigma_at_beta_zero_is_a_permutation():
    for n in (1, 2, 3):
        sg = sigma_cg(n).map_entries(lambda s: s.substitute(beta=0))
        assert sg == Operator.flip(n, lo=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sigma_conserves_index_weight(n):
    for ((i, j), (k, l)), _ in sigma_cg(n).entries.items():
        assert i + j == k + l


# -- the weight grading w(0) = 0, w(i) = i - 1 ------------------------------------


def weight(i):
    return max(i - 1, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_matrices_keep_the_weight_grading(n):
    for op in (extended_rhat(n), sigma_cg(n), sigma_cg_family(n)):
        for (out, inp) in op.entries:
            assert weight(out[0]) + weight(out[1]) == weight(inp[0]) + weight(inp[1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_kernels_keep_the_weight_grading(n):
    # exponent e is index e + 1, of weight max(e, 0)
    cfg = SpaceConfig(n)
    kernels = (op_rho, op_s, op_r, op_rhat, _FUNCTIONAL_OPS["R"])
    for exps in product(range(-1, n), repeat=3):
        fn, grade = LaurentFn.monomial(cfg, exps), sum(max(e, 0) for e in exps)
        for kernel, slots in product(kernels, permutations(range(3), 2)):
            for image, _ in kernel(fn, slots).terms():
                assert sum(max(e, 0) for e in image) == grade, (kernel, slots, exps)


@pytest.mark.parametrize("build", [extended_rhat, sigma_cg, sigma_cg_family])
def test_levels_form_a_tower(build):
    # level n is an invariant subspace of level n + 1, not a direct summand
    for n, converse in ((2, 2), (3, 6), (5, 20), (8, 56)):
        above = build(n + 1).entries
        assert {key: v for key, v in above.items() if max(key[0] + key[1]) <= n} == build(n).entries
        assert not [out for out, inp in above if max(inp) <= n < max(out)]
        assert sum(max(out) <= n < max(inp) for out, inp in above) == converse


@pytest.mark.parametrize("n", range(1, 9))
def test_constants_lie_on_the_graded_support(n):
    # C^k_{ij} != 0 only at k = i + j - 1, that is w(k) = w(i) + w(j)
    entries = structure_constants(n).entries
    assert len(entries) == 2 * (n - 1)
    assert all(k == i + j - 1 for k, i, j in entries)


# -- the p-family ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_at_p1_reproduces_sigma(n):
    fam = sigma_cg_family(n).map_entries(lambda s: s.substitute(p=1))
    assert fam == sigma_cg(n)


def test_family_n2_entry():
    assert sigma_cg_family(2).coeff((2, 1), (1, 2)) == Scalar.monomial((0, 0, -1))


@pytest.mark.parametrize("n", range(1, 7))
def test_family_matches_brute_force_sum(n):
    fam = sigma_cg_family(n)
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        assert fam.coeff((i, j), (k, l)) == family_entry_oracle(i, j, k, l)


def test_family_at_beta_zero_is_weighted_flip():
    fam = sigma_cg_family(3).map_entries(lambda s: s.substitute(beta=0))
    expect = {
        ((l, k), (k, l)): Scalar.monomial((0, 0, k - l))
        for k, l in product(range(1, 4), repeat=2)
    }
    assert fam.entries == expect


# -- structure constants -----------------------------------------------------------


def test_constants_n2_exact():
    ct = structure_constants(2)
    assert ct.entries == {(2, 2, 1): C, (2, 1, 2): -C}


def test_constants_n1_all_zero():
    assert structure_constants(1).entries == {}


def test_constants_match_formula_up_to_n6():
    for n in range(1, 7):
        ct = structure_constants(n)
        for j, k, l in product(range(1, n + 1), repeat=3):
            assert ct.coeff(j, k, l) == constants_entry_oracle(j, k, l)
        expect = {}
        for j in range(2, n + 1):
            expect[(j, j, 1)] = C
            expect[(j, 1, j)] = -C
        assert ct.entries == expect


def test_constants_c3_31_for_larger_n():
    for n in (3, 4, 5):
        assert structure_constants(n).coeff(3, 3, 1) == C


# -- the extended matrix -------------------------------------------------------------


def test_extended_corner_and_blocks():
    ext = extended_rhat(2)
    assert ext.coeff((0, 0), (0, 0)) == ONE
    assert ext.coeff((0, 2), (2, 1)) == C
    assert ext.coeff((1, 0), (1, 0)) == ZERO
    # delta blocks
    for a in range(0, 3):
        assert ext.coeff((0, a), (a, 0)) == ONE
        assert ext.coeff((a, 0), (0, a)) == ONE


@pytest.mark.parametrize("n, size", [(3, 2), (2, 3)], ids=["smaller", "larger"])
def test_extended_rejects_constants_of_another_size(n, size):
    # a smaller tensor used to drop the entries of its missing indices, a
    # larger one to fail on an index outside the matrix
    with pytest.raises(ValueError, match=f"^structure tensor must have size {n}, got {size}$"):
        _extended(sigma_cg(n), structure_constants(size))


@pytest.mark.parametrize(
    "build",
    [
        lambda n, ct: _extended(sigma_cg(n), ct),
        lambda n, ct: suite_qlie(n, constants=ct),
        lambda n, ct: bcc_relation(1, (1, 2), n, constants=ct),
        lambda n, ct: compare_relation_spans(n, bcc_constants=ct),
    ],
    ids=["extended_rhat", "suite_qlie", "bcc_relation", "compare_relation_spans"],
)
def test_every_taker_of_constants_rejects_another_size(build):
    with pytest.raises(ValueError, match="^structure tensor must have size 2, got 3$"):
        build(2, structure_constants(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_small_block_is_sigma(n):
    ext = extended_rhat(n)
    sg = sigma_cg(n)
    small = {
        key: coeff
        for key, coeff in ext.entries.items()
        if all(idx >= 1 for idx in key[0] + key[1])
    }
    assert small == sg.entries


def test_extended_zero_pattern():
    # entries outside the four blocks must vanish identically
    ext = extended_rhat(2)
    for (out, inp) in ext.entries:
        I, J = out
        K, L = inp
        in_sigma = min(out + inp) >= 1
        in_constants = I == 0 and J >= 1 and K >= 1 and L >= 1
        in_delta = (I == 0 and L == 0 and J == K) or (J == 0 and K == 0 and I == L)
        assert in_sigma or in_constants or in_delta


@pytest.mark.parametrize("n", range(1, 13))
def test_cross_construction_equality(n):
    assert from_functional(op_rhat, SpaceConfig(n)) == extended_rhat(n)


# -- spectral identities, with `operators.compose` as the product ---------------------


def shifted(op, c):
    """op - c times the identity, on op's indices."""
    diagonal = {(i, i): op.coeff(i, i) - c for i in product(range(op.lo, op.n + 1), repeat=2)}
    return Operator(op.n, 2, {**op.entries, **diagonal}, op.lo)


def factors(n):
    rhat = extended_rhat(n)
    return {"-1": shifted(rhat, ONE), "+1": shifted(rhat, -ONE), "-(b-1)": shifted(rhat, BETA - ONE)}


@pytest.mark.parametrize("n", range(1, 7))
def test_extended_matrix_satisfies_the_cubic(n):
    # (R - 1)(R + 1)(R - (b - 1)) = 0
    f = factors(n)
    assert compose(compose(f["-1"], f["+1"]), f["-(b-1)"]).entries == {}


@pytest.mark.parametrize("n", range(2, 7))
def test_no_quadratic_factor_pair_vanishes(n):
    f = factors(n)
    nonzero = {(a, b): len(compose(f[a], f[b]).entries)
               for a, b in (("-1", "-(b-1)"), ("+1", "-(b-1)"), ("-1", "+1"))}
    assert all(nonzero.values())
    if n == 2:
        assert list(nonzero.values()) == [12, 19, 8]


def test_at_n1_the_extended_matrix_is_an_involution():
    f = factors(1)
    assert compose(f["-1"], f["+1"]).entries == {}


@pytest.mark.parametrize("n", range(1, 6))
def test_the_family_satisfies_the_hecke_relation(n):
    # sigma^2 = b sigma + (1 - b), as `hecke` checks for sigma_cg alone
    sigma = sigma_cg_family(n)
    rhs = {key: BETA * c for key, c in sigma.entries.items()}
    for i in product(range(sigma.lo, sigma.n + 1), repeat=2):
        rhs[i, i] = rhs.get((i, i), ZERO) + ONE - BETA
    assert compose(sigma, sigma) == Operator(n, 2, rhs, lo=1)
