"""Closed-form Cremmer-Gervais matrices and structure constants.

The braid matrix on small indices 1..n is

    sigma^{ij}_{kl} = delta(i,l) delta(j,k)
                    + b * (sum_{k<=s<l} - sum_{l<=s<k}) delta(i,s) delta(j,k+l-s),

its p-family, sigma under the gauge D = diag(p, ..., p^n), multiplies the
flip term by p^(k-l) and the summand by p^(k-s).  The structure constants are

    C^j_{kl} = C * (delta(1,l) delta(j,k) - delta(1,k) delta(j,l)),

and the extended braid matrix packages both into a single operator on the
capital indices 0..n.

Weight grading: with w(0) = 0 and w(i) = i - 1, every entry of sigma_cg(n),
sigma_cg_family(n) and extended_rhat(n) keeps w(out_1) + w(out_2) =
w(in_1) + w(in_2).  Sigma keeps i + j, the delta blocks exchange 0 with an
index, and C^j_{kl} is nonzero only on the support j = k + l - 1, where
w(j) = w(k) + w(l).  So every exchange and calculus relation is homogeneous
(see `rtt`); a mutated constant off the support breaks this.

Tower: each of these matrices at level n + 1, restricted to indices <= n,
is its level-n matrix, and no entry takes an input within level n to an
output holding n + 1.  So level n is an invariant subspace, though not a
direct summand: b-terms of sigma take inputs holding n + 1 into level n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .operators import Entry, Operator
from .scalars import BETA, C, ONE, ZERO, Scalar


def sigma_cg(n: int) -> Operator:
    """The Cremmer-Gervais braid matrix on small indices 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ent: dict[Entry, Scalar] = {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            ent[(l, k), (k, l)] = ONE
            sign = 1 if k < l else -1
            for s in range(min(k, l), max(k, l)):  # s = l < k adds to the flip term
                key = ((s, k + l - s), (k, l))
                ent[key] = ent.get(key, ZERO) + BETA * sign
    return Operator(n, 2, ent, lo=1)


def sigma_cg_family(n: int) -> Operator:
    """The p-deformed family: sigma_cg(n) under the gauge D = diag(p, p^2, ..., p^n).

    Entry ((o1, o2), (i1, i2)) of sigma_cg(n) is multiplied by p^(i1 - o1),
    which is (D^-1 (x) 1) sigma (D (x) 1).  Sigma keeps i + j, so it commutes
    with D (x) D, and one conjugation, by D^2 (x) D (x) 1, carries sigma_12
    and sigma_23 to the family's; so the family's braid and Hecke relations
    follow from sigma's.  Specializing p = 1 recovers sigma_cg(n).
    """
    gauged = {
        (out, inp): coeff * Scalar.monomial((0, 0, inp[0] - out[0]))
        for (out, inp), coeff in sigma_cg(n).entries.items()
    }
    return Operator(n, 2, gauged, lo=1)


@dataclass
class StructureTensor:
    """Sparse rank-3 tensor C^k_{ij}: upper index k, lower pair (i, j)."""

    n: int
    entries: dict[tuple[int, int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canon = {}
        for (k, i, j), coeff in self.entries.items():
            for idx in (k, i, j):
                if idx < 1 or idx > self.n:
                    raise ValueError(f"index {idx} outside 1..{self.n}")
            if coeff:
                canon[(k, i, j)] = coeff
        self.entries = canon

    def coeff(self, k: int, i: int, j: int) -> Scalar:
        return self.entries.get((k, i, j), ZERO)

    def with_entry(self, k: int, i: int, j: int, coeff: Scalar) -> "StructureTensor":
        """Copy with one entry overridden (zero coefficient deletes it)."""
        return StructureTensor(self.n, {**self.entries, (k, i, j): coeff})

    def map_entries(self, fn: Callable[[Scalar], Scalar]) -> "StructureTensor":
        """Apply fn to every coefficient (e.g. a specialization)."""
        return StructureTensor(self.n, {key: fn(coeff) for key, coeff in self.entries.items()})

    def sorted_entries(self) -> Iterator[tuple[tuple[int, int, int], Scalar]]:
        return iter(sorted(self.entries.items()))

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"upper": k, "lower": [i, j], "coeff": str(coeff)}
                for (k, i, j), coeff in self.sorted_entries()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["upper,lower,coeff"]
        for (k, i, j), coeff in self.sorted_entries():
            lines.append(f"{k},{i} {j},{coeff}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"structure constants n={self.n} entries={len(self.entries)}"]
        for (k, i, j), coeff in self.sorted_entries():
            lines.append(f"C[{k};{i},{j}] = {coeff}")
        return "\n".join(lines) + "\n"


def structure_constants(n: int) -> StructureTensor:
    """Structure constants of the quantum Lie algebra: C^j_{j1} = -C^j_{1j} = C.

    The formula cancels to zero at j = 1, so nonzero entries exist only for
    j = 2..n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ent: dict[tuple[int, int, int], Scalar] = {}
    for j in range(2, n + 1):
        ent[(j, 1, j)] = Scalar.monomial((0, 1, 0), -1)
        ent[(j, j, 1)] = C
    return StructureTensor(n, ent)


def extended_rhat(
    n: int, constants: Optional[StructureTensor] = None
) -> Operator:
    """The extended braid matrix on capital indices 0..n.

    Blocks: the small-index block is sigma_cg(n); row pairs (0, j) against
    column pairs (k, l) hold the structure constants; the two delta blocks
    exchange index 0 with any capital index; every other entry is zero.
    Passing a custom structure tensor supports mutation testing.
    """
    ent = dict(sigma_cg(n).entries)
    for (k, i, j), coeff in _constants(n, constants).entries.items():
        ent[(0, k), (i, j)] = coeff
    for a in range(0, n + 1):
        ent[((0, a), (a, 0))] = ONE
        ent[((a, 0), (0, a))] = ONE
    return Operator(n, 2, ent, lo=0)


def _constants(n: int, constants: Optional[StructureTensor]) -> StructureTensor:
    """The given structure tensor, or the closed-form one for None; it must have size n."""
    if constants is None:
        return structure_constants(n)
    if constants.n != n:
        raise ValueError(f"structure tensor must have size {n}, got {constants.n}")
    return constants
