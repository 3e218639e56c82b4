"""Sparse linear operators on tensor powers of the truncated space.

An operator stores only its nonzero entries, keyed by (output, input)
multi-indices.  Indices run over lo..n: lo = 0 for the extended space with
the added 0 index, lo = 1 for the plain braid-matrix block.  Operators
are built, composed, compared and exported here; the identity engine in
`checks` places a two-leg operator on a pair of three legs itself, straight
from its entries, so no three-leg embedding is built.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product
from typing import Callable, Iterator, Mapping, Optional

from .laurent import LaurentFn, SpaceConfig, StabilityError, basis_monomials
from .scalars import ONE, ZERO, Scalar

Index = tuple[int, ...]
Entry = tuple[Index, Index]


class Operator:
    """Sparse linear map on the 2- or 3-fold tensor power."""

    __slots__ = ("n", "legs", "lo", "entries")

    def __init__(
        self,
        n: int,
        legs: int,
        entries: Optional[Mapping[Entry, Scalar]] = None,
        lo: int = 0,
    ):
        if legs not in (2, 3):
            raise ValueError(f"legs must be 2 or 3, got {legs}")
        if lo not in (0, 1):
            raise ValueError(f"index base must be 0 or 1, got {lo}")
        self.n = n
        self.legs = legs
        self.lo = lo
        canon: dict[Entry, Scalar] = {}
        if entries:
            for (out, inp), coeff in entries.items():
                if len(out) != legs or len(inp) != legs:
                    raise ValueError(f"index tuple of wrong length in {(out, inp)}")
                for i in (*out, *inp):
                    if i < lo or i > n:
                        raise ValueError(f"index {i} outside {lo}..{n}")
                if coeff:
                    canon[(tuple(out), tuple(inp))] = coeff
        self.entries = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def flip(cls, n: int, lo: int = 0) -> "Operator":
        """The permutation P on two legs: e_i (x) e_j -> e_j (x) e_i."""
        ent = {}
        for i, j in product(range(lo, n + 1), repeat=2):
            ent[((j, i), (i, j))] = ONE
        return cls(n, 2, ent, lo)

    # -- basic structure ----------------------------------------------------

    def indices(self) -> range:
        return range(self.lo, self.n + 1)

    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.legs, self.lo)

    def coeff(self, out: Index, inp: Index) -> Scalar:
        return self.entries.get((tuple(out), tuple(inp)), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.shape() == other.shape() and self.entries == other.entries

    def map_entries(self, fn: Callable[[Scalar], Scalar]) -> "Operator":
        """Apply fn to every coefficient (e.g. a specialization)."""
        out = {}
        for key, coeff in self.entries.items():
            acc = fn(coeff)
            if acc:
                out[key] = acc
        return self._wrap(out)

    def with_entry(self, out: Index, inp: Index, coeff: Scalar) -> "Operator":
        """Copy with one entry overridden (zero coefficient deletes it)."""
        key = (tuple(out), tuple(inp))
        return Operator(self.n, self.legs, {**self.entries, key: coeff}, self.lo)

    def _wrap(self, entries: dict[Entry, Scalar]) -> "Operator":
        op = Operator.__new__(Operator)
        op.n = self.n
        op.legs = self.legs
        op.lo = self.lo
        op.entries = entries
        return op

    def _require_shape(self, other: "Operator") -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    # -- export --------------------------------------------------------------

    def sorted_entries(self) -> Iterator[tuple[Entry, Scalar]]:
        return iter(sorted(self.entries.items()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "legs": self.legs,
            "entries": [
                {"out": list(out), "in": list(inp), "coeff": str(coeff)}
                for (out, inp), coeff in self.sorted_entries()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "legs", "out", "in", "coeff"])
        for (out, inp), coeff in self.sorted_entries():
            writer.writerow(
                [self.n, self.legs, " ".join(map(str, out)), " ".join(map(str, inp)), str(coeff)]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"operator n={self.n} legs={self.legs} entries={len(self.entries)}"]
        for (out, inp), coeff in self.sorted_entries():
            lines.append(f"[{','.join(map(str, out))};{','.join(map(str, inp))}] = {coeff}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Operator(n={self.n}, legs={self.legs}, lo={self.lo}, nnz={len(self.entries)})"


def compose(a: Operator, b: Operator) -> Operator:
    """Matrix product a . b (apply b first)."""
    a._require_shape(b)
    b_by_out: dict[Index, list[tuple[Index, Scalar]]] = {}
    for (out, inp), coeff in b.entries.items():
        b_by_out.setdefault(out, []).append((inp, coeff))
    ent: dict[Entry, Scalar] = {}
    for (out, mid), ca in a.entries.items():
        for inp, cb in b_by_out.get(mid, ()):
            key = (out, inp)
            acc = ent.get(key)
            prod_ = ca * cb
            acc = prod_ if acc is None else acc + prod_
            if acc:
                ent[key] = acc
            else:
                ent.pop(key, None)
    return a._wrap(ent)


def from_functional(op: Callable[[LaurentFn], LaurentFn], cfg: SpaceConfig) -> Operator:
    """Two-leg matrix of a functional operator on the truncated space.

    Entry (I,J; K,L) is the coefficient of x^(I-1) y^(J-1) in the image of
    x^(K-1) y^(L-1).  Raises StabilityError when an image exponent leaves
    [-1, n-1]; any other error of op raises as it is.
    """
    ent: dict[Entry, Scalar] = {}
    for exps in basis_monomials(cfg, 2):
        inp = tuple(e + 1 for e in exps)
        try:
            image = op(LaurentFn.monomial(cfg, exps))
        except StabilityError as exc:
            raise StabilityError(
                f"image of basis monomial {exps} leaves the space: {exc}"
            ) from exc
        for out_exps, coeff in image.terms():
            ent[(tuple(e + 1 for e in out_exps), inp)] = coeff
    return Operator(cfg.n, 2, ent, lo=0)
