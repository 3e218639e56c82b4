import tracemalloc
from itertools import chain, product

import pytest

from qlie import rtt
from qlie.cg import structure_constants
from qlie.checks import WITNESS_CAP, Collector
from qlie.freealg import _ARITY
from qlie.rtt import (
    _bcc_rows,
    _key_groups,
    _rtt_rows,
    bcc_relation,
    compare_relation_spans,
    dump_relations,
    rtt_relation,
)
from qlie.scalars import BETA, C, ONE, P, P_INV, _by_index
from test_linalg import eager_contains, eager_echelon


def neg(row):
    return {k: -q for k, q in row.items()}


def ff(i, j, n):
    """The code of the generator f(i,j) at size n; x_i is coded i."""
    return (n + 1) * i + j


def flat(terms):
    """The flat row {(word, packed monomial): rational} of {word: Scalar}."""
    return {(w, key): q for w, s in terms.items() for key, q in s._terms.items()}


# -- single relations against hand expansion -------------------------------------


def test_corner_relation_is_trivial():
    assert rtt_relation(0, 0, 0, 0, 2) == {}


def test_relations_with_zero_row_index_vanish():
    # the zero-pattern of T wipes out every term of these instances
    assert rtt_relation(0, 1, 1, 2, 2) == {}
    assert rtt_relation(0, 0, 0, 1, 2) == {}
    assert rtt_relation(0, 2, 1, 0, 2) == {}


def test_chi_chi_family_sits_at_capital_zero_columns():
    # (i, j; 0, 0) carries the bracket relation: s.c.. chi chi + C chi = chi chi
    n = 2
    for i, j in product((1, 2), repeat=2):
        assert rtt_relation(i, j, 0, 0, n) == neg(bcc_relation(1, (i, j), n))


def test_hand_expansion_of_the_n2_bracket_instance():
    # relation (2, 1; 0, 0): sigma^{kl}_{21} x_k x_l + C^k_{21} x_k - x_2 x_1
    expect = flat({(1, 2): ONE - BETA, (2,): C, (2, 1): -ONE})
    assert rtt_relation(2, 1, 0, 0, 2) == expect


def test_fourth_family_instance():
    # x_2 f^2_1 = sigma^{kl}_{21} f^2_k x_l, realized at (2, 1; 2, 0)
    rel = bcc_relation(4, (2, 1, 2), 2)
    expect = flat({(2, ff(2, 1, 2)): ONE, (ff(2, 1, 2), 2): BETA - ONE})
    assert rel == expect
    assert rtt_relation(2, 1, 2, 0, 2) == neg(expect)


def test_second_family_is_purely_quadratic_in_f():
    for idx in product((1, 2), repeat=4):
        rel = bcc_relation(2, idx, 2)
        for word, _ in rel:
            # codes above n = 2 are f generators
            assert all(g > 2 for g in word)


def test_first_family_diagonal_instance_cancels():
    # x_1 x_1 - sigma^{11}_{11} x_1 x_1 - C^k_{11} x_k = 0
    assert bcc_relation(1, (1, 1), 2) == {}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_relations_are_at_most_quadratic(n):
    for _, rel in _rtt_rows(n):
        assert all(len(word) <= 2 for word, _ in rel)
    for _, rel in _bcc_rows(n):
        assert all(len(word) <= 2 for word, _ in rel)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degenerate_index_patterns(n):
    """Exchange relations reduce to known shorter forms, exhaustively.

    Instances with a 0 among the input indices collapse to zero; the others
    are (up to sign) exactly the four directly-substituted families.
    """
    for I, J, A, B in product(range(n + 1), repeat=4):
        rel = rtt_relation(I, J, A, B, n)
        if I == 0 or J == 0:
            assert rel == {}
        elif A == 0 and B == 0:
            assert rel == neg(bcc_relation(1, (I, J), n))
        elif A == 0:
            assert rel == bcc_relation(3, (I, J, B), n)
        elif B == 0:
            assert rel == neg(bcc_relation(4, (I, J, A), n))
        else:
            assert rel == bcc_relation(2, (I, J, A, B), n)


# -- the weight grading that groups the span comparison ---------------------------


def weight(i):
    return max(i - 1, 0)


def key_grade(key):
    """A key's grade (U, L), in closed form: (w(A)+w(B), w(I)+w(J)) for rtt
    (I, J, A, B); the upper indices of bcc keys are none, (a, b) or (a)."""
    if key[0] == "rtt":
        I, J, A, B = key[1:]
        return weight(A) + weight(B), weight(I) + weight(J)
    _, _, i, j, *upper = key
    return sum(map(weight, upper)), weight(i) + weight(j)


def word_grade(word, n):
    """(sum of w over upper indices, over lower indices), x_i being T^0_i and f(a,l) T^a_l."""
    letters = [divmod(g, n + 1) for g in word]
    return sum(weight(a) for a, _ in letters), sum(weight(l) for _, l in letters)


def paired_keys(n):
    """The exchange keys (i, j, A, B) with i, j >= 1, in key order: those with a partner."""
    return [(i, j, *upper) for i, j in product(range(1, n + 1), repeat=2)
            for upper in product(range(n + 1), repeat=2)]


def partner_key(key):
    family, indices, _ = rtt._partner(*key)
    return ("bcc", family, *indices)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_word_has_its_keys_grade(n):
    seen = set()
    for key, row in chain(_rtt_rows(n), _bcc_rows(n)):
        for word, _ in row:
            assert word_grade(word, n) == key_grade(key), (key, word)
        if row:
            seen.add(key[0] if key[0] == "rtt" else key[1])
    assert seen == ({"rtt", 1, 2, 3, 4} if n > 1 else {"rtt", 3, 4})


@pytest.mark.parametrize("n", range(1, 9))
def test_grade_groups_hold_every_key_once(n):
    groups = list(_key_groups(n, structure_constants(n)))
    assert len(groups) == (2 * n - 1) ** 2
    assert sorted(key for keys in groups for key in keys) == paired_keys(n)
    grades = []
    for keys in groups:
        assert keys == sorted(keys)
        (grade,) = {key_grade(k) for key in keys for k in (("rtt", *key), partner_key(key))}
        grades.append(grade)
    assert len(set(grades)) == len(groups)


def sorted_key_groups(n, constants):
    """`_key_groups` as built before it walked the index pairs once: pairs
    grouped by weight, weights by class, and every group's keys sorted."""
    by_weight = {}
    for i, j in product(range(n + 1), repeat=2):
        by_weight.setdefault(max(i - 1, 0) + max(j - 1, 0), []).append((i, j))
    label = list(range(2 * n - 1))
    for k, i, j in constants.entries:
        old, new = label[i + j - 2], label[k - 1]
        label = [new if c == old else c for c in label]
    classes = {}
    for weight, c in enumerate(label):
        classes.setdefault(c, []).append(weight)
    for uppers, lowers in product(classes.values(), repeat=2):
        yield sorted((*lower, *upper) for U, L in product(uppers, lowers)
                     for lower in by_weight[L] if all(lower) for upper in by_weight[U])


@pytest.mark.parametrize("n", range(1, 6))
def test_key_groups_are_the_sorted_weight_classes(n):
    # the same groups in the same order, each already in key order, for the
    # closed form and every single-constant mutant
    base = structure_constants(n)
    mutants = [base.with_entry(k, i, j, base.coeff(k, i, j) + delta)
               for k, i, j in product(range(1, n + 1), repeat=3) for delta in (ONE, C)]
    for ct in (base, *mutants):
        assert list(_key_groups(n, ct)) == list(sorted_key_groups(n, ct)), ct.entries


@pytest.mark.parametrize("n", [2, 3])
def test_single_constant_mutants_keep_their_relations_graded(n):
    # a constant off the support k = i + j - 1 merges its weights into one
    # class, not every grade into one group: the groups still partition the
    # keys, and no word occurs in rows of two groups, on either side
    base = structure_constants(n)
    rtt_words = {key[1:]: {w for w, _ in row} for key, row in _rtt_rows(n)}
    for (k, i, j), delta in product(product(range(1, n + 1), repeat=3), (ONE, C)):
        ct = base.with_entry(k, i, j, base.coeff(k, i, j) + delta)
        bcc_words = {key: {w for w, _ in row} for key, row in _bcc_rows(n, ct)}
        groups = list(_key_groups(n, ct))
        assert sorted(key for keys in groups for key in keys) == paired_keys(n)
        owner = {}
        for g, keys in enumerate(groups):
            for key in keys:
                for w in rtt_words[key] | bcc_words[partner_key(key)]:
                    assert owner.setdefault(w, g) == g, (k, i, j, delta)
        assert len(groups) > 1
        if k == i + j - 1:
            assert len(groups) == (2 * n - 1) ** 2


@pytest.mark.parametrize("n", range(1, 9))
def test_exchange_rows_are_zero_or_their_keyed_partner(n):
    # the theorem of the rtt docstring: a row with I = 0 or J = 0 is 0, and
    # every other one is its partner times the family's sign, which pairs
    # the exchange keys with i, j >= 1 one to one with the calculus keys
    rows = {key[1:]: row for key, row in _rtt_rows(n)}
    assert all(row == {} for (I, J, _, _), row in rows.items() if I == 0 or J == 0)
    bcc = dict(_bcc_rows(n))
    assert sorted(map(partner_key, paired_keys(n))) == sorted(bcc)

    def differing(bcc):
        """The keys whose row is not their partner's row times its sign."""
        out = []
        for key in paired_keys(n):
            family, indices, sign = rtt._partner(*key)
            if rows[key] != {w: sign * q for w, q in bcc[("bcc", family, *indices)].items()}:
                out.append(key)
        return out

    assert differing(bcc) == []
    # the exchange side keeps the closed form, so a corrupted C^k_{ij} makes
    # the pairs it enters differ: family 1 at (i, j), and family 3 at
    # (i, j, a) for every a and at (i', j', k) for every (i', j'), one of
    # which is (i, j, k): 1 + n + n^2 - 1 pairs
    base = structure_constants(n)
    mutants = [((2, 1, 2), C), ((2, 1, 1), C), ((1, 1, 2), ONE)] if n > 1 else []
    for (k, i, j), delta in mutants:
        ct = base.with_entry(k, i, j, base.coeff(k, i, j) + delta)
        assert len(differing(dict(_bcc_rows(n, ct)))) == n * (n + 1)


def test_off_support_constant_is_compared_in_one_group():
    # C^1_{22} joins the weights 0 and 2 in families 1 and 3, so their
    # grades are compared in one group; compared per grade, it gave 8 failures
    ct = structure_constants(2).with_entry(1, 2, 2, ONE)
    expect = _whole_matrix_witnesses(2, ct)
    report = compare_relation_spans(2, bcc_constants=ct)
    assert report.failures == len(expect) == 6
    assert report.witnesses == expect


def test_span_comparison_memory_is_bounded_by_one_grade():
    # all relations at once peaked at 13.7 MiB, and at 16.2 MiB with C^2_{11}
    # raised by C, off its support; one grade at a time peaks at about
    # 0.4 MiB passing and 0.6 MiB with that constant
    ct = structure_constants(8)
    for constants, passes in ((ct, True), (ct.with_entry(2, 1, 1, ct.coeff(2, 1, 1) + C), False)):
        tracemalloc.start()
        try:
            assert compare_relation_spans(8, constants).passed == passes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# -- span comparison ----------------------------------------------------------------


def test_spans_at_n1_by_hand():
    # at n = 1 every nonzero relation on either side is the single commutator
    commutator = flat({(1, ff(1, 1, 1)): ONE, (ff(1, 1, 1), 1): -ONE})
    nonzero_rtt = [rel for _, rel in _rtt_rows(1) if rel]
    nonzero_bcc = [rel for _, rel in _bcc_rows(1) if rel]
    assert nonzero_rtt == [commutator, neg(commutator)]
    assert nonzero_bcc == [commutator, commutator]
    report = compare_relation_spans(1)
    assert report.passed


@pytest.mark.parametrize("n", [1, 2])
def test_spans_equal(n):
    report = compare_relation_spans(n)
    assert report.passed
    assert report.failures == 0


@pytest.mark.slow
def test_spans_equal_n3():
    assert compare_relation_spans(3).passed


def test_a_passing_run_splits_no_group(monkeypatch):
    # every group of a passing run cancels in its signed sweep, so none is
    # split into keyed pairs
    def refuse(*args):
        raise AssertionError("a group of a passing run was split")

    monkeypatch.setattr(rtt, "_split", refuse)
    for n in range(1, 6):
        assert compare_relation_spans(n).passed


def _per_pair_report(n, constants):
    """The span comparison as a loop over keyed pairs, as reference: each
    key's exchange row beside its partner's row times its sign, one row
    object where they agree, every group through `_outside_spans`."""
    collector = Collector("rtt", n)
    collector.checked += (n + 1) ** 4 + sum(n ** a for a in _ARITY.values())
    found = []
    for keys in _key_groups(n, constants):
        pairs = []
        for key in keys:
            family, indices, sign = rtt._partner(*key)
            row = rtt_relation(*key, n)
            partner = {w: sign * q for w, q in bcc_relation(family, indices, n, constants).items()}
            pairs.append((("rtt", *key), row, ("bcc", family, *indices),
                          row if partner == row else partner))
        found += rtt._outside_spans(pairs)
    for outside, key in sorted(found):
        collector.witness(lambda: {"relation": list(key), "outside": outside})
    return collector.report()


def test_the_sweep_reports_as_the_per_pair_loop(monkeypatch):
    # every single-constant mutant at n = 2, P_INV putting a negative p
    # field into the packed keys, and two constants off the support at n = 3:
    # the same report, and the groups the sweep splits are the reference's
    # groups that hold a differing pair, pair for pair
    base = structure_constants(2)
    mutants = [(2, base.with_entry(*position, base.coeff(*position) + delta))
               for position in product((1, 2), repeat=3)
               for delta in (ONE, -ONE, BETA, C, P, P_INV)]
    three = structure_constants(3)
    mutants += [(3, three.with_entry(2, 1, 1, C)), (3, three.with_entry(3, 1, 1, -C))]
    outside_spans, tested = rtt._outside_spans, []

    def record(pairs):
        tested.append(pairs)
        return outside_spans(pairs)

    monkeypatch.setattr(rtt, "_outside_spans", record)
    for n, constants in mutants:
        report = compare_relation_spans(n, constants)
        split = tested[:]
        tested.clear()
        reference = _per_pair_report(n, constants)
        assert not reference.passed
        assert (report.passed, report.failures, report.witnesses) == \
            (reference.passed, reference.failures, reference.witnesses)
        assert split == [pairs for pairs in tested if any(p[1] != p[3] for p in pairs)]
        tested.clear()


def test_correct_input_is_settled_without_elimination(monkeypatch):
    # every relation matches an opposing one up to sign
    def refuse(rows, ncols):
        raise AssertionError("elimination ran on correct input")

    monkeypatch.setattr(rtt, "echelon", refuse)
    assert compare_relation_spans(4).passed


def test_constants_of_another_size_are_rejected():
    with pytest.raises(ValueError, match="size 2"):
        compare_relation_spans(2, bcc_constants=structure_constants(3))


@pytest.mark.parametrize(
    "family, indices, message",
    [
        # x5 would be coded as f(1,2) at n = 2
        (1, (1, 5), "index 5 outside 1..2"),
        # f(3,1) is no generator at n = 2
        (2, (1, 1, 1, 3), "index 3 outside 1..2"),
        (4, (1, 3, 1), "index 3 outside 1..2"),
        (3, (1, 0, 1), "index 0 outside 1..2"),
        (1, (1, 1, 1), "family 1 takes 2 indices, got 3"),
        (2, (1, 1, 1), "family 2 takes 4 indices, got 3"),
        (4, (1, 1), "family 4 takes 3 indices, got 2"),
        (5, (1, 1), "unknown relation family 5"),
    ],
)
def test_bcc_relation_rejects_bad_indices(family, indices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bcc_relation(family, indices, 2)


def test_bcc_relation_rejects_constants_of_another_size():
    # the relation at n = 3 would silently lack the term C^3_{13} x_3
    with pytest.raises(ValueError, match="^structure tensor must have size 3, got 2$"):
        bcc_relation(1, (1, 3), 3, constants=structure_constants(2))


def test_span_mismatch_with_corrupted_constants():
    ct = structure_constants(2).with_entry(2, 2, 1, C + C)
    report = compare_relation_spans(2, bcc_constants=ct)
    assert not report.passed
    sides = {w["outside"] for w in report.witnesses}
    # both directions are checked, and both must notice
    assert sides == {"bcc-span", "rtt-span"}


def test_span_comparison_is_deterministic():
    ct = structure_constants(2).with_entry(2, 2, 1, C + C)
    a = compare_relation_spans(2, bcc_constants=ct)
    b = compare_relation_spans(2, bcc_constants=ct)
    assert a.witnesses and a.witnesses == b.witnesses and a.passed == b.passed


def _whole_matrix_witnesses(n, constants):
    """Span comparison with one elimination of all rows per side, as reference.

    The elimination is test_linalg's eager Bareiss reference, not `linalg`.
    """
    def by_word(rel):
        return [(k, _by_index((w, key, q) for (w, key), q in row.items())) for k, row in rel if row]

    rtt_rel, bcc_rel = by_word(_rtt_rows(n)), by_word(_bcc_rows(n, constants=constants))
    columns = {}
    for _, poly in rtt_rel + bcc_rel:
        for word in sorted(poly, key=lambda w: (len(w), w)):
            columns.setdefault(word, len(columns))
    rows = lambda rel: [(k, {columns[w]: c for w, c in p.items()}) for k, p in rel]
    rtt_rows, bcc_rows = rows(rtt_rel), rows(bcc_rel)
    ech_rtt = eager_echelon([r for _, r in rtt_rows], len(columns))
    ech_bcc = eager_echelon([r for _, r in bcc_rows], len(columns))
    witnesses = [
        {"relation": list(k), "outside": "bcc-span"}
        for k, r in rtt_rows
        if not eager_contains(ech_bcc, r)
    ]
    witnesses += [
        {"relation": list(k), "outside": "rtt-span"}
        for k, r in bcc_rows
        if not eager_contains(ech_rtt, r)
    ]
    return witnesses


@pytest.mark.parametrize("position", list(product((1, 2), repeat=3)))
def test_block_elimination_matches_whole_matrix(position):
    base = structure_constants(2)
    # P and P_INV put positive and negative p fields into the packed keys
    for delta in (ONE, BETA, -BETA, C + C, P, P_INV):
        ct = base.with_entry(*position, base.coeff(*position) + delta)
        expect = _whole_matrix_witnesses(2, ct)
        report = compare_relation_spans(2, bcc_constants=ct)
        assert expect and report.failures == len(expect)
        assert report.witnesses == expect[:WITNESS_CAP]


# the recorded witnesses of C^2_{12} = 2C at n = 3 (18 failures, capped at 16)
_N3_WITNESSES = [
    *[("rtt", i, j, 0, 2) for i, j in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))],
    ("bcc", 1, 1, 2),
    *[("bcc", 3, *idx) for idx in (
        (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2),
        (3, 1, 2),
    )],
]


def test_corrupted_constant_at_n3_gives_recorded_witnesses():
    ct = structure_constants(3).with_entry(2, 1, 2, C + C)
    report = compare_relation_spans(3, bcc_constants=ct)
    assert report.failures == 18
    assert [tuple(w["relation"]) for w in report.witnesses] == _N3_WITNESSES
    assert [w["outside"] for w in report.witnesses] == ["bcc-span"] * 6 + ["rtt-span"] * 10


@pytest.mark.slow
def test_corrupted_constant_at_n4_fails_32_relations():
    ct = structure_constants(4).with_entry(2, 1, 2, C + C)
    report = compare_relation_spans(4, bcc_constants=ct)
    assert not report.passed and report.failures == 32


def test_relation_dump_is_stable():
    text = dump_relations(1)
    assert text == dump_relations(1)
    lines = text.strip().split("\n")
    assert lines[0] == "rtt 0 0 0 0 : 0"
    # n = 1: 16 exchange instances plus 1 + 1 + 1 + 1 calculus instances
    assert len(lines) == 20
    assert "bcc 1 1 1 : 0" in text


def test_dump_word_format():
    text = dump_relations(2)
    assert "x2*f(2,1)" in text
