"""Self-tests of the benchmark: oracle, seeded generator, speed sampler and tracer.

Run with `python3 -m pytest -q perfbench/tests`.  The workloads are shrunk
(smaller n) so the whole file takes seconds; the code paths are the ones the
benchmark runs.
"""

from __future__ import annotations

import copy

import pytest

import oracle
import tracer as tracing
import workloads
from oracle import Outcome
from calibrate import SpeedSampler
from worker import invoke, run_traced, sampled_pass
from workloads import Invocation, Sizes

from qlie import Scalar, cli, checks, operators

SMALL = Sizes(pass_n=2, specialized_n=3, corrupt_n=3, rtt_corrupt_n=2)


def _report(suite, passed, witnesses=(), n=3):
    return {"suite": suite, "n": n, "symbolic": [], "pass": passed, "checked": 10,
            "failures": len(witnesses), "witnesses": list(witnesses), "millis": 5}


# -- oracle --------------------------------------------------------------------


def test_oracle_rejects_a_flipped_verdict():
    passing = Invocation(("verify", "braid", "--n", "3"), ("braid",), True)
    assert oracle.judge([passing], [Outcome(0, [_report("braid", True)])]).wrong == 0
    flipped = oracle.judge([passing], [Outcome(1, [_report("braid", False, [{"side": "matrix"}])])])
    assert flipped.unexpected >= 1 and flipped.problems

    mutant = Invocation(("verify", "braid", "--n", "3", "--corrupt", "(0,0;0,0)=2"), ("braid",), False)
    assert oracle.judge([mutant], [Outcome(1, [_report("braid", False, [{"side": "matrix"}])])]).wrong == 0
    missed = oracle.judge([mutant], [Outcome(0, [_report("braid", True)])])
    assert missed.unexpected >= 1


def test_oracle_counts_crashes_and_wrong_exit_codes():
    inv = Invocation(("verify", "all", "--n", "2"), workloads.ALL_SUITES, True)
    crashed = oracle.judge([inv], [Outcome(None, None, crash="ValueError: boom")])
    assert crashed.unexpected == len(workloads.ALL_SUITES)
    reports = [_report(s, True) for s in workloads.ALL_SUITES]
    assert oracle.judge([inv], [Outcome(1, reports)]).unexpected == 1


def test_digest_sees_a_changed_witness_set_but_not_values_or_timing():
    inv = Invocation(("verify", "rtt", "--n", "2", "--corrupt-constants", "(1;1,1)=1"), ("rtt",), False)
    witnesses = [{"relation": ["bcc", 1, 1, 1], "outside": "rtt-span", "prefilter": True},
                 {"relation": ["bcc", 3, 1, 1, 1], "outside": "rtt-span", "prefilter": True}]
    base = Outcome(1, [_report("rtt", False, witnesses)])
    digest = oracle.invocation_digest(inv, base)

    same = copy.deepcopy(base)
    same.reports[0]["millis"] = 999
    same.reports[0]["checked"] = 1
    for w in same.reports[0]["witnesses"]:
        w["prefilter"] = False
    assert oracle.invocation_digest(inv, same) == digest

    fewer = copy.deepcopy(base)
    fewer.reports[0]["witnesses"].pop()
    fewer.reports[0]["failures"] = 1
    assert oracle.invocation_digest(inv, fewer) != digest
    moved = copy.deepcopy(base)
    moved.reports[0]["witnesses"][0]["relation"] = ["bcc", 1, 2, 1]
    assert oracle.invocation_digest(inv, moved) != digest

    # against a recorded digest, fewer witnesses count as a wrong verdict
    assert oracle.judge([inv], [same], [digest]).wrong == 0
    verdicts = oracle.judge([inv], [fewer], [digest])
    assert verdicts.unexpected == 1 and "witnesses differ" in verdicts.problems[0]


def test_recorded_ybe_defect_is_counted_but_expected():
    inv = Invocation(("verify", "ybe", "--n", "3", "--p=2"), ("ybe",), True, ybe_p1_defect=True)
    defect = _report("ybe", False, [{"part": "cg-family-p1", "out": [1, 1], "in": [1, 1]}] * 8)
    verdicts = oracle.judge([inv], [Outcome(1, [defect])])
    assert (verdicts.wrong, verdicts.known, verdicts.unexpected) == (1, 1, 0)
    # a fix of the defect changes neither the verdict count nor the digest
    fixed = oracle.judge([inv], [Outcome(0, [_report("ybe", True)])])
    assert fixed.wrong == 0
    assert oracle.invocation_digest(inv, Outcome(1, [defect])) == oracle.invocation_digest(
        inv, Outcome(0, [_report("ybe", True)]))
    other = _report("ybe", False, [{"part": "extended", "side": "matrix"}])
    assert oracle.judge([inv], [Outcome(1, [other])]).unexpected == 1
    more = _report("ybe", False, [{"part": "cg-family-p1", "out": [1, 1], "in": [1, 1]}] * 9)
    assert oracle.judge([inv], [Outcome(1, [more])]).unexpected == 1


def test_ybe_defect_size_depends_on_the_specialization():
    base = ("verify", "ybe", "--n", "7", "--C=3", "--p=2")
    assert oracle.ybe_p1_false_failures((*base, "--beta=-2/7")) == 112
    # at beta = 1 some entries of the family vanish at every p
    assert oracle.ybe_p1_false_failures((*base, "--beta=1")) == 91


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_and_avoids_doomed_flags(workload):
    first = workloads.generate(workload, 7, SMALL)
    assert first == workloads.generate(workload, 7, SMALL)
    for inv in first:
        assert not any(arg.startswith(("--seed", "--jobs")) for arg in inv.argv)
    if workload != "verify-pass":
        assert first != workloads.generate(workload, 8, SMALL)


def test_specialized_values_are_nonzero_and_p_is_not_one():
    from fractions import Fraction

    for seed in range(20):
        for inv in workloads.generate("verify-specialized", seed):
            values = dict(arg[2:].split("=", 1) for arg in inv.argv if "=" in arg)
            assert Fraction(values["beta"]) != 0 and Fraction(values["C"]) != 0
            assert Fraction(values["p"]) != 1


def test_mutants_change_the_entry_within_its_range():
    from qlie import extended_rhat

    rhat = extended_rhat(5)
    for seed in range(20):
        braid = workloads.generate("verify-corrupt", seed)[0]
        text = braid.argv[-1]
        indices, coeff = text[1:].split(")=")
        out, inp = (tuple(int(x) for x in part.split(",")) for part in indices.split(";"))
        assert all(0 <= i <= 5 for i in out + inp)
        assert Scalar.parse(coeff) != rhat.coeff(out, inp)


# -- speed sampler ---------------------------------------------------------------


def test_sampler_leaves_its_chunks_out_of_the_call_time():
    import signal
    import time

    def busy(argv):
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return 0

    handler = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        _, wall = invoke(busy, [], sampler)
    # one chunk on entry, one on exit, the rest inside the call
    inside = sampler.sampled_s - sampler.chunks[0] - sampler.chunks[-1]
    assert len(sampler.chunks) >= 4 and inside > 0
    assert wall == pytest.approx(0.35 - inside, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is handler


# -- traced and untraced passes ------------------------------------------------


@pytest.fixture(scope="module")
def passes():
    runs = {}
    for workload in workloads.WORKLOADS:
        invocations = workloads.generate(workload, 3, SMALL)
        plain, _, _ = sampled_pass(cli.main, invocations)
        traced, wall, tr = run_traced(invocations)
        runs[workload] = (invocations, plain, traced, wall, tr)
    return runs


def _without_millis(outcomes):
    return [[{k: v for k, v in r.items() if k != "millis"} for r in o.reports or []] for o in outcomes]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_reports_are_identical(passes, workload):
    invocations, plain, traced, _, _ = passes[workload]
    assert _without_millis(plain) == _without_millis(traced)
    assert [o.exit_code for o in plain] == [o.exit_code for o in traced]
    assert oracle.judge(invocations, plain).unexpected == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_echelon_runs_only_on_corrupted_inputs(passes, workload):
    metrics = tracing.per_layer_metrics(passes[workload][4], 0, 0.0)
    calls = metrics["linalg.echelon_calls"][0]
    if workload == "verify-corrupt":
        assert calls > 0 and metrics["linalg.max_pivot_terms"][0] > 0
    else:
        assert calls == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_traced_verdict_time(passes, workload):
    _, _, _, wall, tr = passes[workload]
    total = sum(tr.layer_self_times().values())
    assert abs(total - wall) <= tracing.self_time_tolerance(wall)
    metrics = tracing.per_layer_metrics(tr, 0, 0.0)
    assert metrics["cli.wall_s"][0] == pytest.approx(total)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_witnesses_count_every_report_rtt_included(passes, workload):
    _, _, traced, _, tr = passes[workload]
    reported = sum(r["failures"] for o in traced for r in o.reports or [])
    assert tracing.per_layer_metrics(tr, 0, 0.0)["checks.witnesses"][0] == reported


def test_every_per_layer_metric_is_reported(passes):
    import json
    import os

    with open(os.path.join(os.path.dirname(workloads.__file__), "..", "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for workload in workloads.WORKLOADS:
        assert set(tracing.per_layer_metrics(passes[workload][4], 0, 0.0)) == declared


def test_uninstall_restores_the_program():
    tr = tracing.Tracer()
    before = (checks.compose, checks._FUNCTIONAL_OPS["rho"], Scalar.__mul__, cli.main)
    tr.install()
    assert checks.compose is not before[0] and Scalar.__mul__ is not before[2]
    tr.uninstall()
    assert (checks.compose, checks._FUNCTIONAL_OPS["rho"], Scalar.__mul__, cli.main) == before
    assert checks.compose is operators.compose
