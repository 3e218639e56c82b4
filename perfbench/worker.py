"""One workload in one fresh process: set up, run the CLI invocations, report.

Started by `run.py`.  Prints one JSON object on its last stdout line.
`ready` is the CLOCK_MONOTONIC reading (system-wide on Linux) taken once
qlie is imported and the workload's inputs are generated; the parent
subtracts the reading it took before starting this process to get the
set-up time.  With `--baseline` the reading is taken before qlie is imported,
which gives the qlie-free start that set-up times are gauged against.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import oracle
import workloads
from calibrate import SpeedSampler, at_reference, calibration_seconds
from oracle import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def invoke(main, argv, sampler=None):
    """Run `qlie <argv>` in-process; return (outcome, wall seconds).

    Time the sampler spends in chunks during the call is left out.
    """
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    sampled = sampler.sampled_s if sampler else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is an outcome the oracle scores
        crash = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if sampler:
        wall -= sampler.sampled_s - sampled
    text = out.getvalue()
    try:
        reports = json.loads(text) if text else None
    except ValueError:
        reports = None
    if isinstance(reports, dict):
        reports = [reports]
    return Outcome(code, reports, len(text.encode()), crash), wall


def run_pass(main, invocations, sampler=None, tracer=None):
    """One pass over the workload; returns the outcomes and the summed cli.main wall time."""
    outcomes, total = [], 0.0
    for number, inv in enumerate(invocations, 1):
        if tracer is not None:
            tracer.invocation = number
        outcome, wall = invoke(main, inv.argv, sampler)
        outcomes.append(outcome)
        total += wall
    return outcomes, total


def sampled_pass(main, invocations):
    """One pass under a SpeedSampler; returns the outcomes, the wall time and the sampler."""
    with SpeedSampler() as sampler:
        outcomes, wall = run_pass(main, invocations, sampler)
    return outcomes, wall, sampler


def run_traced(invocations):
    """One pass with every layer wrapped; returns run_pass's values and the tracer.

    The pass is not sampled: chunks would add to the self time of whatever
    layer they interrupt.
    """
    from qlie import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        # cli.main is looked up after install, so the root span is recorded
        return (*run_pass(cli.main, invocations, tracer=tracer), tracer)
    finally:
        tracer.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--baseline", action="store_true", help="report ready before importing qlie")
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = parser.parse_args()

    if args.baseline:
        print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        return 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qlie import cli  # import time is part of set-up

    invocations = workloads.generate(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    recorded = oracle.recorded_digests(args.workload, args.seed)
    result = {"ready": ready, "argv": workloads.describe(invocations), "recorded": recorded is not None,
              "per_pass_verdicts": workloads.suite_verdicts(invocations)}
    verdicts, digests = oracle.Verdicts(), set()
    started = time.perf_counter()
    walls, reference_walls, chunks = [], [], []
    # the first pass always runs; more follow while another fits in --seconds
    while not walls or (args.trace == 0 and time.perf_counter() - started
                        + statistics.median(walls) * 1.2 <= args.seconds):
        outcomes, wall, sampler = sampled_pass(cli.main, invocations)
        walls.append(wall)
        reference_walls.append(at_reference(wall, sampler.chunk_s))
        chunks.append(sampler.chunk_s)
        verdicts.merge(oracle.judge(invocations, outcomes, recorded))
        digests.add(oracle.workload_digest(oracle.digests(invocations, outcomes)))
    if args.trace == 0:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["reference_walls"] = reference_walls
    else:
        from tracer import per_layer_metrics

        # the traced pass is rescaled by calibrations on either side of it
        before = calibration_seconds()
        traced, traced_wall, tracer = run_traced(invocations)
        traced_reference = at_reference(traced_wall, (before + calibration_seconds()) / 2)
        if args.spans:
            tracer.write_spans(args.spans)
        verdicts.merge(oracle.judge(invocations, traced, recorded))
        digests.add(oracle.workload_digest(oracle.digests(invocations, traced)))
        report_bytes = sum(o.stdout_bytes for o in traced)
        metrics = per_layer_metrics(tracer, report_bytes, traced_reference - reference_walls[-1])
        result["per_layer"] = {k: [v, unit] for k, (v, unit) in metrics.items()}
        result["traced_verdict_s"] = traced_wall
        result["layer_self_sum_s"] = sum(tracer.layer_self_times().values())
    result.update(walls=walls, chunks=chunks, attempted=verdicts.attempted, wrong=verdicts.wrong,
                  known=verdicts.known, problems=verdicts.problems[:20], digests=sorted(digests))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
