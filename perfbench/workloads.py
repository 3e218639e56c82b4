"""Seeded workloads for the qlie benchmark.

A workload is a list of `qlie` command lines plus the verdicts an exact
engine must return for them.  Everything is drawn from the benchmark's own
seed; the program under test receives nothing but the generated argv.  No
argv ever carries `--seed` or `--jobs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

# suite order of `qlie verify all`
ALL_SUITES = ("braid", "ybe", "cybe", "components", "ybfr", "qlie", "rtt")
SPECIALIZED_SUITES = ("braid", "ybe", "cybe", "components", "ybfr", "qlie")

WORKLOADS = ("verify-pass", "verify-specialized", "verify-corrupt")

# A mutant replaces one entry by (current + delta); the result always differs
# from the current coefficient.  p is left out: rtt reads the structure
# constants as elements of Q[b, C] and crashes on a p-valued constant, an
# input-validation defect rather than a performance path.
MUTANT_DELTAS = ("1", "-1", "2", "b", "-b", "C", "-C")


@dataclass(frozen=True)
class Sizes:
    """Truncation levels of each workload; the self-tests shrink them."""

    pass_n: int = 6
    specialized_n: int = 7
    corrupt_n: int = 5
    rtt_corrupt_n: int = 2


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    suites: tuple[str, ...]  # suite verdicts the invocation returns, in order
    passes: bool  # the verdict of an exact engine, for every suite
    # the ybe suite wrongly compares the p-family with sigma after
    # specializing p; with --p != 1 it reports these false failures
    ybe_p1_defect: bool = False

    @property
    def exit_code(self) -> int:
        return 0 if self.passes else 1


def generate(workload: str, seed: int, sizes: Sizes = Sizes()) -> list[Invocation]:
    rng = Random(f"{workload}/{seed}")
    if workload == "verify-pass":
        return [Invocation(("verify", "all", "--n", str(sizes.pass_n)), ALL_SUITES, True)]
    if workload == "verify-specialized":
        return [_specialized(suite, sizes.specialized_n, rng) for suite in SPECIALIZED_SUITES]
    if workload == "verify-corrupt":
        return _corrupt(sizes, rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _rational(rng: Random, positive: bool = False) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return value if positive or rng.random() < 0.5 else -value


def _specialized(suite: str, n: int, rng: Random) -> Invocation:
    beta, c = _rational(rng), _rational(rng)
    p = Fraction(1)
    while p == 1:
        p = _rational(rng, positive=True)
    # --flag=value, because argparse takes a bare "-7/2" for an option
    argv = ("verify", suite, "--n", str(n), f"--beta={beta}", f"--C={c}", f"--p={p}")
    return Invocation(argv, (suite,), True, ybe_p1_defect=suite == "ybe")


def _corrupt(sizes: Sizes, rng: Random) -> list[Invocation]:
    from qlie import SpaceConfig, extended_rhat, from_functional, op_r, sigma_cg, structure_constants

    n = str(sizes.corrupt_n)
    extended = extended_rhat(sizes.corrupt_n)
    r_matrix = from_functional(op_r, SpaceConfig(sizes.corrupt_n))
    invocations = []
    for suite, op in (("braid", extended), ("ybe", extended), ("cybe", r_matrix),
                      ("qlie", sigma_cg(sizes.corrupt_n))):
        entry = _entry_mutant(op, rng)
        invocations.append(Invocation(("verify", suite, "--n", n, "--corrupt", entry), (suite,), False))
    constants = structure_constants(sizes.corrupt_n)
    k, i, j = (rng.randint(1, sizes.corrupt_n) for _ in range(3))
    entry = _constant_mutant(constants, (k, i, j), rng)
    invocations.append(Invocation(("verify", "qlie", "--n", n, "--corrupt-constants", entry), ("qlie",), False))
    # every structure-constant position at the rtt level, each once, so that
    # the cost of a run does not depend on which positions the seed hits
    m = sizes.rtt_corrupt_n
    constants = structure_constants(m)
    positions = list(product(range(1, m + 1), repeat=3))
    rng.shuffle(positions)
    for position in positions:
        entry = _constant_mutant(constants, position, rng)
        argv = ("verify", "rtt", "--n", str(m), "--corrupt-constants", entry)
        invocations.append(Invocation(argv, ("rtt",), False))
    return invocations


def _mutated(current, rng: Random) -> str:
    from qlie import Scalar

    coeff = current + Scalar.parse(rng.choice(MUTANT_DELTAS))
    text = str(coeff)
    if Scalar.parse(text) != coeff or coeff == current:
        raise AssertionError(f"mutant coefficient {text!r} does not round-trip")
    return text


def _entry_mutant(op, rng: Random) -> str:
    """`(I,J;K,L)=COEFF` over the operator's own index range."""
    lo, hi = op.lo, op.n
    out = (rng.randint(lo, hi), rng.randint(lo, hi))
    inp = (rng.randint(lo, hi), rng.randint(lo, hi))
    coeff = _mutated(op.coeff(out, inp), rng)
    return f"({out[0]},{out[1]};{inp[0]},{inp[1]})={coeff}"


def _constant_mutant(constants, position: tuple[int, int, int], rng: Random) -> str:
    """`(K;I,J)=COEFF` for the structure constant C^K_{IJ}."""
    k, i, j = position
    coeff = _mutated(constants.coeff(k, i, j), rng)
    return f"({k};{i},{j})={coeff}"


def describe(invocations: list[Invocation]) -> list[str]:
    return ["qlie " + " ".join(inv.argv) for inv in invocations]


def suite_verdicts(invocations: list[Invocation]) -> int:
    return sum(len(inv.suites) for inv in invocations)
