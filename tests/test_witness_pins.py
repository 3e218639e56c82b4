"""Byte-identity of the engine's full witness lists for failing identities.

No CLI input makes a functional-route witness, so `test_golden.py` cannot
pin one.  `data/engine_witnesses.json` holds, per case, the `checked` count
and the uncapped witness list of `checks.check_identities`, recorded before
the functional kernels and the row-wise matrix route ran on flat terms:

- the braid relation of the flipped leaf "R" = P.Rhat at n = 2 (it satisfies
  the Yang-Baxter equation, not the braid relation), symbolic and with
  b = 2/3, C = -1, p = 3/5;
- s12 = 0 and s12 = rho12 on the polynomial domain of degree 2.

Any later change to them must be intended.  To re-record after an intended
change, run `PYTHONPATH=src python tests/test_witness_pins.py` and say in the
change what moved and why.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qlie import checks
from qlie.cg import extended_rhat
from qlie.laurent import SpaceConfig, op_rho, op_s
from qlie.operators import Operator, compose, from_functional

DATA = Path(__file__).resolve().parent / "data" / "engine_witnesses.json"

SPECIALIZED = {"beta": Fraction(2, 3), "c": Fraction(-1), "p": Fraction(3, 5)}


def _braid_of_flipped(subs):
    n = 2
    col = checks.Collector("braid", n, subs)
    flipped = col.leaf(compose(Operator.flip(n), extended_rhat(n)))
    checks.check_identities(col, [({}, *checks._braid("R"))], {"R": flipped}, range(-1, n))
    return col


def _s12_against(rhs):
    leaves = {name: from_functional(op, SpaceConfig(2)) for name, op in (("s", op_s), ("rho", op_rho))}
    s12 = [(1, [("s", checks.S12)])]
    col = checks.Collector("components", 2)
    checks.check_identities(col, [({"identity": "s12"}, s12, rhs)], leaves, range(0, 3))
    return col


CASES = {
    "braid-R-n2-symbolic": lambda: _braid_of_flipped(None),
    "braid-R-n2-specialized": lambda: _braid_of_flipped(SPECIALIZED),
    "s12-vanishes": lambda: _s12_against([]),
    "s12-equals-rho12": lambda: _s12_against([(1, [("rho", checks.S12)])]),
}


def record(name):
    col = CASES[name]()
    return json.dumps({"checked": col.checked, "witnesses": col.witnesses}, indent=1)


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_witnesses_match_recording(name):
    text = record(name)
    assert text == RECORDED[name]
    assert json.loads(text)["witnesses"], "a pinned case must fail"


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: record(name) for name in sorted(CASES)}, indent=1) + "\n")
