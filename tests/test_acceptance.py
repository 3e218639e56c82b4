"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from qlie import checks, rtt
from qlie.cg import extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from qlie.laurent import SpaceConfig, op_r, op_rhat
from qlie.operators import from_functional
from qlie.scalars import C, Scalar

SRC = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(num, description, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def test_criterion_1_cross_construction_identity():
    with criterion(1, "functional matrix equals closed-form blocks, n=1..4", 10):
        for n in (1, 2, 3, 4):
            functional = from_functional(op_rhat, SpaceConfig(n))
            assert functional == extended_rhat(n), n


def test_criterion_2_braid_equation():
    with criterion(2, "braid equation for the extended matrix, n=1..4", 60):
        for n in (1, 2, 3, 4):
            report = checks.suite_braid(n, rhat=extended_rhat(n))
            assert report.passed, (n, report.witnesses[:3])


def test_criterion_3_cg_family_yang_baxter():
    with criterion(3, "Yang-Baxter for P.R_CG,p with symbolic p, n=1..4", 60):
        for n in (1, 2, 3, 4):
            # the cg-family part of suite_ybe checks P.sigma_cg_family(n)
            report = checks.suite_ybe(n)
            assert report.passed, (n, report.witnesses[:3])
            family = sigma_cg_family(n)
            at_one = family.map_entries(lambda s: s.substitute(p=1))
            assert at_one == sigma_cg(n), n


def test_criterion_4_classical_ybe_and_component_identities():
    with criterion(4, "classical Yang-Baxter and rho/s identities, degree <= 4", 30):
        report = checks.suite_cybe(4)
        assert report.passed, report.witnesses[:3]
        report = checks.check_component_identities(4)
        assert report.passed, report.witnesses[:3]


def test_criterion_5_quadratic_identity_and_graded_components():
    with criterion(5, "quadratic identity and all graded components, degree <= 4", 30):
        report = checks.check_quadratic_ybe_components(4)
        assert report.passed, report.witnesses[:3]


def test_criterion_6_quantum_lie_axioms():
    with criterion(6, "quantum Lie algebra axioms, symbolic, n=1..5", 60):
        for n in (1, 2, 3, 4, 5):
            report = checks.suite_qlie(n, sigma=sigma_cg(n), constants=structure_constants(n))
            assert report.passed, (n, report.witnesses[:3])


def test_criterion_7_structure_constants_pattern():
    with criterion(7, "structure constants match the closed-form pattern, n<=6", 10):
        for n in range(1, 7):
            expect = {}
            for j in range(2, n + 1):
                expect[(j, j, 1)] = C
                expect[(j, 1, j)] = -C
            assert structure_constants(n).entries == expect


def test_criterion_8_rtt_span_equivalence():
    with criterion(8, "exchange and calculus relations span each other, n=1,2", 60):
        for n in (1, 2):
            report = rtt.compare_relation_spans(n)
            assert report.passed, (n, report.witnesses[:3])


@pytest.mark.slow
def test_criterion_8_slow_tier_n3():
    report = rtt.compare_relation_spans(3)
    assert report.passed, report.witnesses[:3]


def test_criterion_9_mutation_sensitivity():
    with criterion(9, "suites 2, 4, 6, 8 fail under documented corruptions", 60):
        # braid: one C-block entry doubled
        bad = extended_rhat(2).with_entry((0, 2), (2, 1), C + C)
        report = checks.suite_braid(2, rhat=bad)
        assert not report.passed and report.witnesses

        # classical Yang-Baxter: one spurious matrix entry
        r = from_functional(op_r, SpaceConfig(2)).with_entry((1, 1), (2, 0), Scalar.rational(1))
        report = checks.suite_cybe(2, r_matrix=r)
        assert not report.passed and report.witnesses

        # quantum Lie axioms: sign of one structure constant flipped
        ct = structure_constants(2).with_entry(2, 1, 2, C)
        report = checks.suite_qlie(2, sigma=sigma_cg(2), constants=ct)
        assert not report.passed and report.witnesses

        # span comparison: one structure constant doubled on the calculus side
        ct = structure_constants(2).with_entry(2, 2, 1, C + C)
        report = rtt.compare_relation_spans(2, bcc_constants=ct)
        assert not report.passed and report.witnesses


def test_criterion_10_report_determinism():
    with criterion(10, "verify all --n 3 is byte-identical modulo timing", 120):
        env = dict(os.environ, PYTHONPATH=SRC)
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "qlie.cli", "verify", "all", "--n", "3"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        strip = lambda s: re.sub(r'"millis": \d+', '"millis": 0', s)
        assert strip(runs[0]) == strip(runs[1])
        reports = json.loads(runs[0])
        assert all(r["pass"] for r in reports)
        assert [r["suite"] for r in reports] == [
            "braid", "ybe", "cybe", "components", "ybfr", "qlie", "rtt",
        ]
