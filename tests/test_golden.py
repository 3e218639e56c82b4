"""Byte-identity of reports against recorded outputs.

`data/golden_outputs.json` holds, per command line, the exit code and the
stdout of `qlie`, with every `"millis": N` replaced by `"millis": 0`.  The
cases are `verify all --n 1..4` plus failing, specialized and generated
outputs whose scalars print rationals, recorded before the scalar layer
stored int coefficients, and three failing runs that pin witness shapes
(`ybe` extended parts, `qlie` families 2 and 3, a specialized `cybe`),
recorded before `checks` had one identity engine.  The last three,
`cross-check --n 3 --flip-s-sign`, `verify all --n 5` and a `braid` run with
19 failures (more than the witness cap), were recorded before the functional
operators became single-pass kernels and the matrix route went row by row.
`dump-relations --n 2`, every exchange and calculus relation as text, was
recorded before the relation builders moved to flat packed-key rows;
`dump-relations --n 1` and `--n 3` were recorded before relations were
printed straight from those rows, with `NCPoly` and its generator helpers
still in place.  The `gen` cases, every target in every format at n = 2 and
the constants at n = 3 with `--C=2/3` as CSV, were recorded before the
exports lost `to_json` and `Operator.to_csv` its `csv` writer.
Any later change to them must be intended.
To re-record after an intended change, run `PYTHONPATH=src python
tests/test_golden.py` and say in the change what moved and why.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from qlie.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden_outputs.json"
CASES = json.loads(DATA.read_text())


def run(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, re.sub(r'"millis": \d+', '"millis": 0', stdout.getvalue())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_matches_recording(case):
    code, stdout = run(case["argv"])
    assert code == case["exit"]
    assert stdout == case["stdout"]


if __name__ == "__main__":
    recorded = [dict(zip(("argv", "exit", "stdout"), (c["argv"], *run(c["argv"])))) for c in CASES]
    DATA.write_text(json.dumps(recorded, indent=1) + "\n")
