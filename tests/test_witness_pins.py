"""Byte-identity of the engine's full witness lists for failing identities.

No CLI input makes a functional-route witness, so `test_golden.py` cannot
pin one.  `data/engine_witnesses.json` holds, per case, the `checked` count
and the uncapped witness list of `checks.check_identities`, recorded before
the functional kernels and the row-wise matrix route ran on flat terms:

- the braid relation of the flipped leaf "R" = P.Rhat at n = 2 (it satisfies
  the Yang-Baxter equation, not the braid relation), symbolic and with
  b = 2/3, C = -1, p = 3/5;
- s12 = 0 and s12 = rho12 on the polynomial domain of degree 2;
- s12 = rho12 on the polynomial domain of degree 4, whose functional
  witnesses start at every first exponent, and the braid relation of
  `extended_rhat(4)` with entry ((1, 3), (3, 1)) raised by 1, whose matrix
  witnesses lie on several first output indices; both were recorded before
  the engine swept one first index at a time;
- the `components` and `ybfr` suites at n = 2 with one leaf corrupted, one
  or two entries of its matrix raised by C: rho or s for `components`, r,
  rho or s for `ybfr`.  No CLI input makes these suites fail; together these
  cases pin the witness label of every identity of both suites, and were
  recorded before the identities were parsed from those labels.

`data/qlie_witnesses.json` holds `suite_qlie` reports with the witness cap
lifted, recorded before families 1, 3 and 4 were evaluated from the calculus
relations: the full report for the p-family sigma at n = 2, 3 and 4, and one
digest each over the reports of every single-constant mutant at n = 2 and 3
(deltas 1, b, C and p) and every single-entry sigma mutant at n = 2 (deltas
1 and b).  Two more digests were recorded before families 1, 3 and 4 were
read off the braid relation of the extended matrix: every single-constant
mutant at n = 4 (deltas 1, b, C and p, 256 runs) and every single-entry
sigma mutant at n = 3 (deltas 1 and b, 162 runs), which reach families 3
and 4 where no capped golden case does.

`data/rtt_witnesses.json` holds the failure count and the capped witness
list of `rtt.compare_relation_spans` at n = 3 for every single-constant
mutant C^k_{ij} + delta (27 positions, deltas 1, C and p), recorded before
the elimination scaled its rows lazily.

Any later change to them must be intended.  To re-record after an intended
change, run `PYTHONPATH=src python tests/test_witness_pins.py` and say in the
change what moved and why.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qlie import checks, rtt
from qlie.cg import extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from qlie.laurent import SpaceConfig, op_rho, op_s
from qlie.operators import Operator, compose, from_functional
from qlie.scalars import BETA, C, ONE, P

DATA = Path(__file__).resolve().parent / "data" / "engine_witnesses.json"
QLIE_DATA = DATA.with_name("qlie_witnesses.json")
RTT_DATA = DATA.with_name("rtt_witnesses.json")

SPECIALIZED = {"beta": Fraction(2, 3), "c": Fraction(-1), "p": Fraction(3, 5)}


def _braid_of_flipped(subs):
    n = 2
    col = checks.Collector("braid", n, subs)
    flipped = compose(Operator.flip(n), extended_rhat(n))
    checks.check_identities(col, [({}, *checks._braid("R"))], {"R": flipped}, range(-1, n))
    return col


def _s12_against(rhs, n=2):
    leaves = {name: from_functional(op, SpaceConfig(n)) for name, op in (("s", op_s), ("rho", op_rho))}
    s12 = checks._expression("s12")
    col = checks.Collector("components", n)
    checks.check_identities(col, [({"identity": "s12"}, s12, rhs)], leaves, range(0, n + 1))
    return col


def _braid_of_mutant():
    n = 4
    rhat = extended_rhat(n)
    mutant = rhat.with_entry((1, 3), (3, 1), rhat.coeff((1, 3), (3, 1)) + ONE)
    col = checks.Collector("braid", n)
    checks.check_identities(col, [({}, *checks._braid("rhat"))], {"rhat": mutant}, range(-1, n))
    return col


# (suite, leaf, entries raised by C): at n = 2 these entries make every
# identity of the suite that names the leaf fail, but for three b*C^2
# products that pass even with every rho entry raised; the s case covers them
CORRUPTED_SUITES = {
    "components-rho": (checks.check_component_identities, "rho", [((1, 0), (0, 0))]),
    "components-s": (checks.check_component_identities, "s", [((2, 2), (1, 1))]),
    "ybfr-r": (checks.check_quadratic_ybe_components, "r", [((0, 0), (0, 0))]),
    "ybfr-rho": (checks.check_quadratic_ybe_components, "rho", [((1, 1), (0, 0)), ((2, 0), (2, 0))]),
    "ybfr-s": (checks.check_quadratic_ybe_components, "s", [((1, 2), (2, 2)), ((0, 1), (1, 1))]),
}


def _suite_with_corrupted(suite, corrupted, entries, cap=None):
    """The report of suite at n = 2, its `corrupted` leaf raised by C at
    entries, with the witness cap at `cap`, uncapped unless given."""
    build = checks._functional_matrix

    def leaf(name, n):
        op = build(name, n)
        for out, inp in entries if name == corrupted else ():
            op = op.with_entry(out, inp, op.coeff(out, inp) + C)
        return op

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_functional_matrix", leaf)
        patch.setattr(checks, "WITNESS_CAP", cap or UNCAPPED)
        return suite(2)


CASES = {
    "braid-R-n2-symbolic": lambda: _braid_of_flipped(None),
    "braid-R-n2-specialized": lambda: _braid_of_flipped(SPECIALIZED),
    "s12-vanishes": lambda: _s12_against([]),
    "s12-equals-rho12": lambda: _s12_against(checks._expression("rho12")),
    "s12-equals-rho12-n4": lambda: _s12_against(checks._expression("rho12"), n=4),
    "braid-rhat-n4-mutant": _braid_of_mutant,
    **{f"{name}-corrupted": (lambda case=case: _suite_with_corrupted(*case))
       for name, case in CORRUPTED_SUITES.items()},
}


def record(name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "WITNESS_CAP", UNCAPPED)
        col = CASES[name]()
    return json.dumps({"checked": col.checked, "witnesses": col.witnesses}, indent=1)


def _qlie(n, **inputs):
    """A suite_qlie report without its time, as sorted JSON."""
    report = checks.suite_qlie(n, **inputs).to_json_dict()
    del report["millis"]
    return json.dumps(report, sort_keys=True)


def _constant_mutants(*sizes):
    for n in sizes:
        ct = structure_constants(n)
        for (k, i, j), delta in product(product(range(1, n + 1), repeat=3), (ONE, BETA, C, P)):
            yield n, {"constants": ct.with_entry(k, i, j, ct.coeff(k, i, j) + delta)}


def _sigma_mutants(n):
    sigma = sigma_cg(n)
    pairs = list(product(range(1, n + 1), repeat=2))
    for out, inp, delta in product(pairs, pairs, (ONE, BETA)):
        yield n, {"sigma": sigma.with_entry(out, inp, sigma.coeff(out, inp) + delta)}


def _digest(mutants):
    reports = [_qlie(n, **inputs) for n, inputs in mutants]
    failing = sum(not json.loads(r)["pass"] for r in reports)
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    return json.dumps({"runs": len(reports), "failing": failing, "sha256": digest})


QLIE_CASES = {
    **{f"qlie-p-family-n{n}": (lambda n=n: _qlie(n, sigma=sigma_cg_family(n))) for n in (2, 3, 4)},
    "qlie-constant-mutants-n2-n3": lambda: _digest(_constant_mutants(2, 3)),
    "qlie-constant-mutants-n4": lambda: _digest(_constant_mutants(4)),
    "qlie-sigma-mutants-n2": lambda: _digest(_sigma_mutants(2)),
    "qlie-sigma-mutants-n3": lambda: _digest(_sigma_mutants(3)),
}


def _rtt_mutant(k, i, j, delta):
    """The span comparison at n = 3 with C^k_{ij} raised by delta, as JSON."""
    ct = structure_constants(3)
    report = rtt.compare_relation_spans(3, ct.with_entry(k, i, j, ct.coeff(k, i, j) + delta))
    return json.dumps({"failures": report.failures, "witnesses": report.witnesses})


RTT_CASES = {
    f"C^{k}_{i}{j}+{name}": (lambda k=k, i=i, j=j, delta=delta: _rtt_mutant(k, i, j, delta))
    for (k, i, j) in product(range(1, 4), repeat=3)
    for name, delta in (("1", ONE), ("C", C), ("p", P))
}

# far above any failure count of these cases, so whole witness lists are pinned
UNCAPPED = 10 ** 6

RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}
RTT_RECORDED = json.loads(RTT_DATA.read_text()) if RTT_DATA.exists() else {}
QLIE_RECORDED = json.loads(QLIE_DATA.read_text()) if QLIE_DATA.exists() else {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_witnesses_match_recording(name):
    text = record(name)
    assert text == RECORDED[name]
    assert json.loads(text)["witnesses"], "a pinned case must fail"


def test_corrupted_suites_pin_every_label():
    labels = {"components": set(), "ybfr": set()}
    for name in CORRUPTED_SUITES:
        witnesses = json.loads(RECORDED[f"{name}-corrupted"])["witnesses"]
        labels[name.split("-")[0]].update(w["identity"] for w in witnesses)
    assert labels["components"] == {label for label, _ in checks.COMPONENT_IDENTITIES}
    quadratic = {label for label, _ in checks.QUADRATIC_COMPONENTS}
    assert quadratic < labels["ybfr"] and len(labels["ybfr"]) == len(quadratic) + 1


@pytest.mark.parametrize("name", sorted(QLIE_CASES))
def test_qlie_reports_match_recording(name, monkeypatch):
    monkeypatch.setattr(checks, "WITNESS_CAP", UNCAPPED)
    text = QLIE_CASES[name]()
    assert text == QLIE_RECORDED[name]
    recorded = json.loads(text)
    # a pinned report fails, and so does some mutant of a pinned digest
    assert recorded["failing"] if "runs" in recorded else not recorded["pass"]


@pytest.mark.parametrize("name", sorted(RTT_CASES))
def test_rtt_mutant_witnesses_match_recording(name):
    text = RTT_CASES[name]()
    assert text == RTT_RECORDED[name]
    assert json.loads(text)["failures"], "every constant mutant must fail"


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: record(name) for name in sorted(CASES)}, indent=1) + "\n")
    RTT_DATA.write_text(
        json.dumps({name: RTT_CASES[name]() for name in sorted(RTT_CASES)}, indent=1) + "\n"
    )
    checks.WITNESS_CAP = UNCAPPED
    QLIE_DATA.write_text(
        json.dumps({name: QLIE_CASES[name]() for name in sorted(QLIE_CASES)}, indent=1) + "\n"
    )
