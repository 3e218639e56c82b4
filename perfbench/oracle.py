"""Correctness oracle: checks every verdict of a workload and digests the reports.

Each identity the suites check holds at every specialization, so on the
passing workloads every verdict must be `pass` with exit code 0, and every
planted single-entry mutant must give `fail` with exit code 1.  The one
recorded seed defect (false `cg-family-p1` failures of `verify ybe` with
--p != 1) counts as a wrong verdict in the error rate but is expected, so it
does not make a run incorrect; a fix of it is accepted too.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from workloads import Invocation

# per-invocation digests for workload seeds 0-20, written by record_digests.py
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# witness fields that hold a value or a pre-filter tag rather than naming
# where an identity fails; the digest leaves them out
_VALUE_FIELDS = ("value", "lhs", "rhs", "prefilter")


@dataclass
class Outcome:
    """What one CLI invocation returned."""

    exit_code: Optional[int]
    reports: Optional[list]  # parsed JSON reports; None when none were printed
    stdout_bytes: int = 0
    crash: Optional[str] = None  # exception text when cli.main raised


@dataclass
class Verdicts:
    attempted: int = 0
    wrong: int = 0  # wrong verdicts and crashes, the recorded defect included
    known: int = 0  # of those, occurrences of the recorded seed defect
    problems: list[str] = field(default_factory=list)

    @property
    def unexpected(self) -> int:
        return self.wrong - self.known

    def merge(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.known += other.known
        self.problems += other.problems


@lru_cache(maxsize=None)
def ybe_p1_false_failures(argv: tuple[str, ...]) -> int:
    """How many false `cg-family-p1` failures `qlie <argv>` gives today.

    `verify ybe` specializes the p-family at the given p before comparing
    "the family at p = 1" with sigma_cg, so it reports every entry where the
    family at p differs from the family at p = 1.  How many there are
    depends on beta and C as well: at n=7 it is 112, but 91 when beta = 1.
    """
    from qlie import sigma_cg_family

    values = dict(arg[2:].split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    n = int(argv[argv.index("--n") + 1])
    beta, c = (Fraction(values[k]) if k in values else None for k in ("beta", "C"))
    family = sigma_cg_family(n).map_entries(lambda s: s.substitute(beta=beta, c=c))
    at_p = family.map_entries(lambda s: s.substitute(p=Fraction(values["p"])))
    at_one = family.map_entries(lambda s: s.substitute(p=1))
    return sum(at_p.coeff(*key) != at_one.coeff(*key) for key in set(at_p.entries) | set(at_one.entries))


def is_ybe_p1_defect(inv: Invocation, report: dict) -> bool:
    witnesses = report.get("witnesses", [])
    if not inv.ybe_p1_defect or report.get("suite") != "ybe" or report.get("pass") or not witnesses:
        return False
    if any(w.get("part") != "cg-family-p1" for w in witnesses):
        return False
    return report.get("failures") == ybe_p1_false_failures(inv.argv)


def judge(invocations: list[Invocation], outcomes: list[Outcome],
          recorded: Optional[list[str]] = None) -> Verdicts:
    """Score every verdict; `recorded` holds per-invocation digests to match."""
    result = Verdicts()
    for number, (inv, out) in enumerate(zip(invocations, outcomes)):
        result.attempted += len(inv.suites)
        label = "qlie " + " ".join(inv.argv)
        wrong_before = result.wrong
        if out.crash is not None or out.reports is None:
            result.wrong += len(inv.suites)
            result.problems.append(f"{label}: crashed ({out.crash or 'no report'})")
            continue
        got = [r.get("suite") for r in out.reports]
        if got != list(inv.suites):
            result.wrong += len(inv.suites)
            result.problems.append(f"{label}: reported suites {got}")
            continue
        for report in out.reports:
            if bool(report.get("pass")) == inv.passes:
                continue
            result.wrong += 1
            if is_ybe_p1_defect(inv, report):
                result.known += 1
            else:
                result.problems.append(f"{label}: {report['suite']} verdict pass={report.get('pass')}")
        # the exit code must agree with the verdicts printed, right or wrong
        expected_exit = 0 if all(r.get("pass") for r in out.reports) else 1
        if out.exit_code != expected_exit:
            result.wrong += 1
            result.problems.append(f"{label}: exit code {out.exit_code}, expected {expected_exit}")
        # right verdicts with the wrong witnesses are wrong verdicts too
        if (recorded is not None and result.wrong == wrong_before
                and invocation_digest(inv, out) != recorded[number]):
            result.wrong += len(inv.suites)
            result.problems.append(f"{label}: witnesses differ from the recorded ones")
    return result


def invocation_digest(inv: Invocation, out: Outcome) -> str:
    """SHA-256 over suite, n, pass, failures and witness identities.

    `millis`, the nominal `checked` count and the `prefilter` tag are left
    out.  The recorded seed defect is digested as the pass it should be, so
    fixing it does not change the digest.
    """
    reports = []
    exit_code = out.exit_code
    for report in out.reports or []:
        if is_ybe_p1_defect(inv, report):
            report = {**report, "pass": True, "failures": 0, "witnesses": []}
            exit_code = inv.exit_code
        reports.append(
            {
                "suite": report.get("suite"),
                "n": report.get("n"),
                "pass": report.get("pass"),
                "failures": report.get("failures"),
                "witnesses": [
                    {k: v for k, v in w.items() if k not in _VALUE_FIELDS}
                    for w in report.get("witnesses", [])
                ],
            }
        )
    item = {"argv": list(inv.argv), "exit": exit_code, "crash": out.crash is not None,
            "reports": reports}
    blob = json.dumps(item, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(invocations: list[Invocation], outcomes: list[Outcome]) -> list[str]:
    return [invocation_digest(inv, out) for inv, out in zip(invocations, outcomes)]


def workload_digest(invocation_digests: list[str]) -> str:
    return hashlib.sha256(" ".join(invocation_digests).encode()).hexdigest()


def recorded_digests(workload: str, seed: int) -> Optional[list[str]]:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))
