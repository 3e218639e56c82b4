"""Verification suites for the braid, Yang-Baxter and quantum-Lie identities.

Each suite checks an identity exactly, over symbolic coefficients unless a
specialization is requested, and returns a VerificationReport.  Failures are
collected as witnesses, never raised.  Operator identities are verified on
two independent routes wherever both exist: functionally, by applying
composed operators to basis monomials, and matrix-wise, by composing sparse
restriction matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence, Union

from .cg import StructureTensor, extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from .laurent import (
    LaurentFn,
    SpaceConfig,
    _rhat_beta_term,
    _rhat_c_term,
    op_r,
    op_rhat,
    op_rho,
    op_s,
    permute,
)
from .operators import Operator, compose, embed, from_functional, op_equal
from .scalars import BETA, ONE, Scalar

WITNESS_CAP = 16

# substitution mapping: keys among {"beta", "c", "p"} with rational values
Subs = Optional[dict]

S12 = (0, 1)
S13 = (0, 2)
S23 = (1, 2)
_PAIR_NAME = {S12: "12", S13: "13", S23: "23"}

# a word is a composition of elementary two-slot operators, leftmost applied
# last; an expression is a signed sum of words and must vanish
Word = Sequence[tuple[str, tuple[int, int]]]
Expression = Sequence[tuple[int, Word]]

_FUNCTIONAL_OPS: dict[str, Callable] = {
    "rho": op_rho,
    "s": op_s,
    "r": op_r,
    "rhat": op_rhat,
    "R": lambda fn, slots: permute(op_rhat(fn, slots), slots),
}


@dataclass
class VerificationReport:
    """Outcome of one verification suite; passes iff no witnesses exist."""

    suite: str
    n: int
    symbolic: list[str]
    passed: bool
    checked: int
    failures: int
    witnesses: list[dict] = field(default_factory=list)
    millis: int = 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "symbolic": self.symbolic,
            "pass": self.passed,
            "checked": self.checked,
            "failures": self.failures,
            "witnesses": self.witnesses,
            "millis": self.millis,
        }


class _Collector:
    def __init__(self) -> None:
        self.checked = 0
        self.witnesses: list[dict] = []

    def count(self, k: int = 1) -> None:
        self.checked += k

    def witness(self, w: dict) -> None:
        self.witnesses.append(w)

    def extend_compare(self, a: Operator, b: Operator, tag: dict) -> None:
        """Count one comparison per entry position; collect all discrepancies."""
        keys = set(a.entries) | set(b.entries)
        self.count((a.n + 1 - a.lo) ** (2 * a.legs))
        for key in sorted(keys):
            ca = a.entries.get(key, Scalar.zero())
            cb = b.entries.get(key, Scalar.zero())
            if ca != cb:
                out, inp = key
                self.witness(
                    {**tag, "out": list(out), "in": list(inp), "lhs": str(ca), "rhs": str(cb)}
                )


def _symbolic_names(subs: Subs) -> list[str]:
    fixed = set(subs or ())
    return [name for key, name in (("beta", "b"), ("c", "C"), ("p", "p")) if key not in fixed]


def _finish(suite: str, n: int, subs: Subs, col: _Collector, t0: float) -> VerificationReport:
    return VerificationReport(
        suite=suite,
        n=n,
        symbolic=_symbolic_names(subs),
        passed=not col.witnesses,
        checked=col.checked,
        failures=len(col.witnesses),
        witnesses=col.witnesses[:WITNESS_CAP],
        millis=int((time.perf_counter() - t0) * 1000),
    )


def _subst(scalar: Scalar, subs: Subs) -> Scalar:
    return scalar if not subs else scalar.substitute(**subs)


def _specialize(op: Operator, subs: Subs) -> Operator:
    return op if not subs else op.map_entries(lambda s: s.substitute(**subs))


# ---------------------------------------------------------------------------
# elementary matrix / functional evaluation of operator words
# ---------------------------------------------------------------------------


def _apply_word(word: Word, fn: LaurentFn) -> LaurentFn:
    for name, slots in reversed(list(word)):
        fn = _FUNCTIONAL_OPS[name](fn, slots)
    return fn


def _apply_expression(expr: Expression, fn: LaurentFn) -> LaurentFn:
    total = LaurentFn.zero(fn.cfg, fn.arity)
    for sign, word in expr:
        total = total + _apply_word(word, fn).scale(sign)
    return total


def _word_matrix(word: Word, cfg: SpaceConfig, cache: dict) -> Operator:
    result: Optional[Operator] = None
    for name, slots in word:
        key = (name, slots)
        if key not in cache:
            if name not in cache:
                cache[name] = from_functional(lambda f, op=_FUNCTIONAL_OPS[name]: op(f, (0, 1)), cfg)
            cache[key] = embed(cache[name], _PAIR_NAME[slots])
        m = cache[key]
        result = m if result is None else compose(result, m)
    assert result is not None
    return result


def _expression_matrix(expr: Expression, cfg: SpaceConfig, cache: dict) -> Operator:
    total = Operator(cfg.n, 3, {}, lo=0)
    for sign, word in expr:
        total = total + _word_matrix(word, cfg, cache).scale(sign)
    return total


def _check_expressions_vanish(
    labeled: Sequence[tuple[str, Expression]],
    n: int,
    col: _Collector,
    subs: Subs,
    monomial_degree: int,
) -> None:
    """Verify each expression vanishes, functionally and matrix-wise.

    Functional route: apply to every monomial with exponents in
    [0, monomial_degree] per variable (the polynomial domain).  Matrix route:
    assemble the expression on the truncated space of size n and compare with
    the zero operator.
    """
    cfg_poly = SpaceConfig(monomial_degree + 1)
    domain = list(product(range(0, monomial_degree + 1), repeat=3))
    cfg_mat = SpaceConfig(n)
    cache: dict = {}
    for label, expr in labeled:
        for exps in domain:
            col.count()
            value = _apply_expression(expr, LaurentFn.monomial(cfg_poly, exps))
            if not _vanishes_fn(value, subs):
                col.witness(
                    {
                        "identity": label,
                        "side": "functional",
                        "monomial": list(exps),
                        "value": str(value),
                    }
                )
        mat = _specialize(_expression_matrix(expr, cfg_mat, cache), subs)
        col.count((n + 1) ** 6)
        for (out, inp), coeff in mat.sorted_entries():
            col.witness(
                {
                    "identity": label,
                    "side": "matrix",
                    "out": list(out),
                    "in": list(inp),
                    "value": str(coeff),
                }
            )


def _vanishes_fn(fn: LaurentFn, subs: Subs) -> bool:
    if not subs:
        return fn.is_zero()
    return all(not coeff.substitute(**subs) for _, coeff in fn.terms())


# ---------------------------------------------------------------------------
# braid / Yang-Baxter suites
# ---------------------------------------------------------------------------


def check_braid(R: Operator, suite: str = "braid") -> VerificationReport:
    """R12 R23 R12 = R23 R12 R23 for a 2-leg operator, exactly."""
    t0 = time.perf_counter()
    col = _Collector()
    _braid_into(R, col, {})
    return _finish(suite, R.n, None, col, t0)


def _braid_into(R: Operator, col: _Collector, tag: dict) -> None:
    R12, R23 = embed(R, "12"), embed(R, "23")
    lhs = compose(compose(R12, R23), R12)
    rhs = compose(compose(R23, R12), R23)
    col.extend_compare(lhs, rhs, tag)


def check_ybe_R(R: Operator, suite: str = "ybe") -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12 for a 2-leg operator, exactly."""
    t0 = time.perf_counter()
    col = _Collector()
    _ybe_into(R, col, {})
    return _finish(suite, R.n, None, col, t0)


def _ybe_into(R: Operator, col: _Collector, tag: dict) -> None:
    R12, R13, R23 = embed(R, "12"), embed(R, "13"), embed(R, "23")
    lhs = compose(compose(R12, R13), R23)
    rhs = compose(compose(R23, R13), R12)
    col.extend_compare(lhs, rhs, tag)


def suite_braid(
    n: int, subs: Subs = None, rhat: Optional[Operator] = None
) -> VerificationReport:
    """Braid equation for the extended matrix, on both routes.

    The matrix route composes the closed-form extended matrix; the functional
    route applies the braid words built from the functional operator to every
    basis monomial of the 3-fold truncated space.
    """
    t0 = time.perf_counter()
    col = _Collector()
    R = _specialize(extended_rhat(n) if rhat is None else rhat, subs)
    _braid_into(R, col, {"side": "matrix"})
    cfg = SpaceConfig(n)
    lhs_w: Expression = [(1, [("rhat", S12), ("rhat", S23), ("rhat", S12)])]
    rhs_w: Expression = [(1, [("rhat", S23), ("rhat", S12), ("rhat", S23)])]
    for exps in product(range(-1, n), repeat=3):
        col.count()
        fn = LaurentFn.monomial(cfg, exps)
        diff = _apply_expression(lhs_w, fn) - _apply_expression(rhs_w, fn)
        if not _vanishes_fn(diff, subs):
            col.witness(
                {"side": "functional", "monomial": list(exps), "value": str(diff)}
            )
    return _finish("braid", n, subs, col, t0)


def suite_ybe(
    n: int, subs: Subs = None, rhat: Optional[Operator] = None
) -> VerificationReport:
    """Yang-Baxter equation for P.Rhat and for the p-family P.R_CG,p.

    Also checks that the family at p = 1 reproduces the plain braid matrix.
    """
    t0 = time.perf_counter()
    col = _Collector()
    R = _specialize(extended_rhat(n) if rhat is None else rhat, subs)
    _ybe_into(compose(Operator.flip(n, lo=R.lo), R), col, {"part": "extended", "side": "matrix"})

    cfg = SpaceConfig(n)
    word = [("R", S12), ("R", S13), ("R", S23)]
    word_r = [("R", S23), ("R", S13), ("R", S12)]
    for exps in product(range(-1, n), repeat=3):
        col.count()
        fn = LaurentFn.monomial(cfg, exps)
        diff = _apply_word(word, fn) - _apply_word(word_r, fn)
        if not _vanishes_fn(diff, subs):
            col.witness(
                {
                    "part": "extended",
                    "side": "functional",
                    "monomial": list(exps),
                    "value": str(diff),
                }
            )

    raw_family = sigma_cg_family(n)
    family = _specialize(raw_family, subs)
    _ybe_into(compose(Operator.flip(n, lo=1), family), col, {"part": "cg-family", "side": "matrix"})
    # set p = 1 before any --p value is substituted
    at_one = _specialize(raw_family.map_entries(lambda s: s.substitute(p=1)), subs)
    col.extend_compare(at_one, _specialize(sigma_cg(n), subs), {"part": "cg-family-p1"})
    return _finish("ybe", n, subs, col, t0)


# ---------------------------------------------------------------------------
# classical Yang-Baxter and graded component suites
# ---------------------------------------------------------------------------

_CYBE_EXPR: Callable[[str], Expression] = lambda op: [
    (1, [(op, S12), (op, S13)]),
    (-1, [(op, S13), (op, S12)]),
    (1, [(op, S12), (op, S23)]),
    (-1, [(op, S23), (op, S12)]),
    (1, [(op, S13), (op, S23)]),
    (-1, [(op, S23), (op, S13)]),
]


def check_cybe(
    r: Union[Operator, Callable], n: Optional[int] = None, suite: str = "cybe"
) -> VerificationReport:
    """[r12, r13] + [r12, r23] + [r13, r23] = 0.

    Accepts either the sparse matrix of r (checked on the 3-fold truncated
    space) or a two-slot functional operator (checked on every monomial with
    exponents up to n per variable, as for polynomials).
    """
    t0 = time.perf_counter()
    col = _Collector()
    if isinstance(r, Operator):
        _cybe_matrix_into(r, col, {"side": "matrix"})
        return _finish(suite, r.n, None, col, t0)
    if n is None:
        raise ValueError("a functional operator needs the degree bound n")
    cfg = SpaceConfig(n + 1)
    name = "__cybe_op__"
    ops = dict(_FUNCTIONAL_OPS)
    ops[name] = r
    expr = _CYBE_EXPR(name)
    for exps in product(range(0, n + 1), repeat=3):
        col.count()
        fn = LaurentFn.monomial(cfg, exps)
        total = LaurentFn.zero(cfg, 3)
        for sign, word in expr:
            val = fn
            for wname, slots in reversed(word):
                val = ops[wname](val, slots)
            total = total + val.scale(sign)
        if not total.is_zero():
            col.witness(
                {"side": "functional", "monomial": list(exps), "value": str(total)}
            )
    return _finish(suite, n, None, col, t0)


def _cybe_matrix_into(r: Operator, col: _Collector, tag: dict) -> None:
    r12, r13, r23 = embed(r, "12"), embed(r, "13"), embed(r, "23")

    def comm(a: Operator, b: Operator) -> Operator:
        return compose(a, b) - compose(b, a)

    total = comm(r12, r13) + comm(r12, r23) + comm(r13, r23)
    col.count((r.n + 1 - r.lo) ** 6)
    for (out, inp), coeff in total.sorted_entries():
        col.witness({**tag, "out": list(out), "in": list(inp), "value": str(coeff)})


def suite_cybe(
    n: int, subs: Subs = None, r_matrix: Optional[Operator] = None
) -> VerificationReport:
    """Classical Yang-Baxter equation for r, functional and matrix routes."""
    t0 = time.perf_counter()
    col = _Collector()
    labeled = [("cybe r", _CYBE_EXPR("r"))]
    cfg_poly = SpaceConfig(n + 1)
    for exps in product(range(0, n + 1), repeat=3):
        col.count()
        value = _apply_expression(labeled[0][1], LaurentFn.monomial(cfg_poly, exps))
        if not _vanishes_fn(value, subs):
            col.witness(
                {"side": "functional", "monomial": list(exps), "value": str(value)}
            )
    r = r_matrix if r_matrix is not None else from_functional(op_r, SpaceConfig(n))
    _cybe_matrix_into(_specialize(r, subs), col, {"side": "matrix"})
    return _finish("cybe", n, subs, col, t0)


COMPONENT_IDENTITIES: list[tuple[str, Expression]] = [
    ("rho13*s23", [(1, [("rho", S13), ("s", S23)])]),
    ("rho23*s13", [(1, [("rho", S23), ("s", S13)])]),
    ("rho23*s12", [(1, [("rho", S23), ("s", S12)])]),
    (
        "[s12,rho13]+s12*rho23",
        [
            (1, [("s", S12), ("rho", S13)]),
            (-1, [("rho", S13), ("s", S12)]),
            (1, [("s", S12), ("rho", S23)]),
        ],
    ),
    (
        "[rho12,s13]+s13*rho23-s23*rho13+[rho12,s23]",
        [
            (1, [("rho", S12), ("s", S13)]),
            (-1, [("s", S13), ("rho", S12)]),
            (1, [("s", S13), ("rho", S23)]),
            (-1, [("s", S23), ("rho", S13)]),
            (1, [("rho", S12), ("s", S23)]),
            (-1, [("s", S23), ("rho", S12)]),
        ],
    ),
    ("s23*s12", [(1, [("s", S23), ("s", S12)])]),
    ("s23*s13", [(1, [("s", S23), ("s", S13)])]),
    ("s13*s23", [(1, [("s", S13), ("s", S23)])]),
    (
        "[s12,s13]+s12*s23",
        [
            (1, [("s", S12), ("s", S13)]),
            (-1, [("s", S13), ("s", S12)]),
            (1, [("s", S12), ("s", S23)]),
        ],
    ),
    ("cybe-rho", _CYBE_EXPR("rho")),
    ("cybe-s", _CYBE_EXPR("s")),
]


def check_component_identities(n: int, subs: Subs = None) -> VerificationReport:
    """Every listed product identity between rho and s, itemized.

    Covers the mixed list whose signed sum is the b*C component of the
    classical Yang-Baxter equation, the pure-s list giving the C^2 component,
    and the classical Yang-Baxter equations for rho and s themselves.
    """
    t0 = time.perf_counter()
    col = _Collector()
    _check_expressions_vanish(COMPONENT_IDENTITIES, n, col, subs, monomial_degree=n)
    return _finish("components", n, subs, col, t0)


QUADRATIC_COMPONENTS: list[tuple[str, Expression]] = [
    (
        "b^3: rho12*rho13*rho23-rho23*rho13*rho12",
        [
            (1, [("rho", S12), ("rho", S13), ("rho", S23)]),
            (-1, [("rho", S23), ("rho", S13), ("rho", S12)]),
        ],
    ),
    ("b^2*C: s12*rho13*rho23", [(1, [("s", S12), ("rho", S13), ("rho", S23)])]),
    ("b^2*C: rho12*rho13*s23", [(1, [("rho", S12), ("rho", S13), ("s", S23)])]),
    ("b^2*C: rho23*s13*rho12", [(1, [("rho", S23), ("s", S13), ("rho", S12)])]),
    ("b^2*C: rho23*rho13*s12", [(1, [("rho", S23), ("rho", S13), ("s", S12)])]),
    (
        "b^2*C: rho12*s13*rho23-s23*rho13*rho12",
        [
            (1, [("rho", S12), ("s", S13), ("rho", S23)]),
            (-1, [("s", S23), ("rho", S13), ("rho", S12)]),
        ],
    ),
    ("b*C^2: s12*s13*rho23", [(1, [("s", S12), ("s", S13), ("rho", S23)])]),
    ("b*C^2: s12*rho13*s23", [(1, [("s", S12), ("rho", S13), ("s", S23)])]),
    ("b*C^2: rho12*s13*s23", [(1, [("rho", S12), ("s", S13), ("s", S23)])]),
    ("b*C^2: rho23*s13*s12", [(1, [("rho", S23), ("s", S13), ("s", S12)])]),
    ("b*C^2: s23*rho13*s12", [(1, [("s", S23), ("rho", S13), ("s", S12)])]),
    ("b*C^2: s23*s13*rho12", [(1, [("s", S23), ("s", S13), ("rho", S12)])]),
    ("C^3: s12*s13*s23", [(1, [("s", S12), ("s", S13), ("s", S23)])]),
    ("C^3: s23*s13*s12", [(1, [("s", S23), ("s", S13), ("s", S12)])]),
]

_QUADRATIC_FULL: Expression = [
    (1, [("r", S12), ("r", S13), ("r", S23)]),
    (-1, [("r", S23), ("r", S13), ("r", S12)]),
]


def check_quadratic_ybe_components(n: int, subs: Subs = None) -> VerificationReport:
    """r12 r13 r23 = r23 r13 r12 plus each of its four graded components.

    The full identity is verified with symbolic b and C; the components are
    the b^3 equation for rho, the five b^2 C identities, the six b C^2
    products and the two C^3 products, each checked separately.
    """
    t0 = time.perf_counter()
    col = _Collector()
    labeled = [("full: r12*r13*r23-r23*r13*r12", _QUADRATIC_FULL)]
    labeled += QUADRATIC_COMPONENTS
    _check_expressions_vanish(labeled, n, col, subs, monomial_degree=n)
    return _finish("ybfr", n, subs, col, t0)


# ---------------------------------------------------------------------------
# quantum Lie algebra axioms
# ---------------------------------------------------------------------------


def check_qlie_axioms(
    sigma: Operator,
    constants: StructureTensor,
    subs: Subs = None,
    suite: str = "qlie",
) -> VerificationReport:
    """The four component relations tying sigma to the structure constants.

    Family 1 is the braided Jacobi identity, family 2 the braid relation for
    sigma, families 3 and 4 the mixed sigma-C compatibilities.  All free
    index tuples are covered; the contractions run over nonzero entries only.
    """
    t0 = time.perf_counter()
    if sigma.n != constants.n:
        raise ValueError("sigma and structure tensor sizes differ")
    n = sigma.n
    sigma = _specialize(sigma, subs)
    ct = constants.entries if not subs else {
        key: coeff.substitute(**subs)
        for key, coeff in constants.entries.items()
        if coeff.substitute(**subs)
    }
    col = _Collector()

    sig_by_in: dict[tuple[int, int], list] = {}
    sig_by_out: dict[tuple[int, int], list] = {}
    sig_in_first: dict[int, list] = {}
    sig_in_second: dict[int, list] = {}
    for (out, inp), w in sigma.entries.items():
        sig_by_in.setdefault(inp, []).append((out, w))
        sig_by_out.setdefault(out, []).append((inp, w))
        sig_in_first.setdefault(inp[0], []).append((out, inp, w))
        sig_in_second.setdefault(inp[1], []).append((out, inp, w))
    ct_by_upper: dict[int, list] = {}
    ct_by_lower: dict[tuple[int, int], list] = {}
    ct_by_lower2: dict[int, list] = {}
    ct_by_lower1: dict[int, list] = {}
    for (k, i, j), v in ct.items():
        ct_by_upper.setdefault(k, []).append(((i, j), v))
        ct_by_lower.setdefault((i, j), []).append((k, v))
        ct_by_lower2.setdefault(j, []).append((k, i, v))
        ct_by_lower1.setdefault(i, []).append((k, j, v))

    def acc(d: dict, key: tuple, value: Scalar) -> None:
        cur = d.get(key)
        cur = value if cur is None else cur + value
        if cur:
            d[key] = cur
        else:
            d.pop(key, None)

    # family 1, keys (m, N, i, j):
    #   C^s_{Ni} C^m_{sj} - sigma^{kl}_{ij} C^s_{Nk} C^m_{sl} - C^k_{ij} C^m_{Nk}
    diff1: dict = {}
    for (s, N, i), v1 in ct.items():
        for (m, j, v2) in ct_by_lower1.get(s, ()):
            acc(diff1, (m, N, i, j), v1 * v2)
    for (s, N, k), v1 in ct.items():
        for (m, l, v2) in ct_by_lower1.get(s, ()):
            for (i, j), w in sig_by_out.get((k, l), ()):
                acc(diff1, (m, N, i, j), -(w * v1 * v2))
    for (k, i, j), v1 in ct.items():
        for (m, N, v2) in ct_by_lower2.get(k, ()):
            acc(diff1, (m, N, i, j), -(v1 * v2))
    col.count(n ** 4)
    for key in sorted(diff1):
        m, N, i, j = key
        col.witness(
            {"family": 1, "indices": [N, i, j, m], "value": str(diff1[key])}
        )

    # family 2: braid relation for sigma, via operator composition
    _braid_into(sigma, col, {"family": 2})

    # family 3, keys (N, i, j, a, m):
    #   sigma^{kl}_{ij} C^s_{Nk} sigma^{am}_{sl} + C^l_{ij} sigma^{am}_{Nl}
    #   - sigma^{ks}_{Ni} sigma^{lm}_{sj} C^a_{kl} - sigma^{as}_{Ni} C^m_{sj}
    diff3: dict = {}
    for ((k, l), (i, j)), w1 in sigma.entries.items():
        for (s, N, v) in ct_by_lower2.get(k, ()):
            for (a, m), w2 in sig_by_in.get((s, l), ()):
                acc(diff3, (N, i, j, a, m), w1 * v * w2)
    for (l, i, j), v in ct.items():
        for ((a, m), (N, l2), w) in sig_in_second.get(l, ()):
            acc(diff3, (N, i, j, a, m), v * w)
    for ((k, s), (N, i)), w1 in sigma.entries.items():
        for ((l, m), (_, j), w2) in sig_in_first.get(s, ()):
            for (a, v) in ct_by_lower.get((k, l), ()):
                acc(diff3, (N, i, j, a, m), -(w1 * w2 * v))
    for ((a, s), (N, i)), w in sigma.entries.items():
        for (m, j, v) in ct_by_lower1.get(s, ()):
            acc(diff3, (N, i, j, a, m), -(w * v))
    col.count(n ** 5)
    for key in sorted(diff3):
        N, i, j, a, m = key
        col.witness(
            {"family": 3, "indices": [N, i, j, a, m], "value": str(diff3[key])}
        )

    # family 4, keys (N, i, j, a, m):
    #   C^s_{Ni} sigma^{am}_{sj} - sigma^{kl}_{ij} sigma^{as}_{Nk} C^m_{sl}
    diff4: dict = {}
    for (s, N, i), v in ct.items():
        for ((a, m), (_, j), w) in sig_in_first.get(s, ()):
            acc(diff4, (N, i, j, a, m), v * w)
    for ((k, l), (i, j)), w1 in sigma.entries.items():
        for ((a, s), (N, _), w2) in sig_in_second.get(k, ()):
            for (m, v) in ct_by_lower.get((s, l), ()):
                acc(diff4, (N, i, j, a, m), -(w1 * w2 * v))
    col.count(n ** 5)
    for key in sorted(diff4):
        N, i, j, a, m = key
        col.witness(
            {"family": 4, "indices": [N, i, j, a, m], "value": str(diff4[key])}
        )

    return _finish(suite, n, subs, col, t0)


def suite_qlie(
    n: int,
    subs: Subs = None,
    sigma: Optional[Operator] = None,
    constants: Optional[StructureTensor] = None,
) -> VerificationReport:
    return check_qlie_axioms(
        sigma if sigma is not None else sigma_cg(n),
        constants if constants is not None else structure_constants(n),
        subs=subs,
    )


# ---------------------------------------------------------------------------
# cross-construction and exploratory checks
# ---------------------------------------------------------------------------


def _op_rhat_flipped(fn: LaurentFn, slots: tuple[int, int] = (0, 1)) -> LaurentFn:
    # debug variant with the sign of the C-term reversed
    return permute(fn, slots) + _rhat_beta_term(fn, slots) - _rhat_c_term(fn, slots)


def suite_cross_check(n: int, flip_s_sign: bool = False) -> VerificationReport:
    """Matrix of the functional braid operator vs the closed-form blocks.

    The flip_s_sign flag negates the C-term of the functional operator, a
    deliberate corruption used to prove the comparison has teeth.
    """
    t0 = time.perf_counter()
    col = _Collector()
    op = _op_rhat_flipped if flip_s_sign else op_rhat
    functional = from_functional(op, SpaceConfig(n))
    closed = extended_rhat(n)
    col.extend_compare(functional, closed, {})
    return _finish("cross-check", n, None, col, t0)


def suite_hecke(n: int, subs: Subs = None) -> VerificationReport:
    """Exploratory: does sigma satisfy sigma^2 = b*sigma + (1-b)*id?

    Not part of the acceptance surface; reported for curiosity.
    """
    t0 = time.perf_counter()
    col = _Collector()
    sigma = _specialize(sigma_cg(n), subs)
    lhs = compose(sigma, sigma)
    rhs = sigma.scale(_subst(BETA, subs)) + Operator.identity(n, 2, lo=1).scale(
        _subst(ONE - BETA, subs)
    )
    col.extend_compare(lhs, rhs, {})
    return _finish("hecke", n, subs, col, t0)
