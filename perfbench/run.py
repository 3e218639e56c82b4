"""qlie benchmark: time to verdict on passing, specialized and corrupted inputs.

    python3 perfbench/run.py --workload verify-pass --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout that has `src/qlie`.  Each workload runs
in its own fresh process (closed loop, one caller, CLI invocations in
sequence, no `--jobs`, `PYTHONHASHSEED` pinned, `QLIE_JOBS` cleared).
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
runs the workload once untraced and once traced and reports the per-layer
metrics.  Every verdict is checked by the oracle; the last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import BASELINE_REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up probes per run; their median at reference speed gives setup_s
SETUP_SAMPLES = 21
# the measuring worker stops starting passes at --seconds; this covers its
# set-up, the pass that is running then and, with --trace 1, the traced pass
WORKER_MARGIN_S = 140.0
SPANS_DIR = os.path.join(HERE, "out")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QLIE_JOBS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON result and its start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                          timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def start_time(args: list[str]) -> float:
    """Seconds from starting a worker with `args` until it reports ready."""
    probe, started = start_worker(args, 60.0)
    return probe["ready"] - started


def measure_setup(common: list[str]) -> tuple[list[float], list[float], list[float]]:
    """Set-up probes, each between two baseline starts.

    Returns the raw probe times, the baseline times and the probe times at
    reference speed.
    """
    baselines = [start_time([*common, "--baseline"])]
    setups, reference_setups = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(start_time([*common, "--setup-only"]))
        baselines.append(start_time([*common, "--baseline"]))
        baseline = (baselines[-2] + baselines[-1]) / 2
        reference_setups.append(setups[-1] * BASELINE_REFERENCE_S / baseline)
    return setups, baselines, reference_setups


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups, baselines, reference_setups = measure_setup(common)
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        extra += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")]
    result, _ = start_worker([*common, *extra], seconds + WORKER_MARGIN_S)

    problems = list(result["problems"])
    if len(result["digests"]) != 1:
        problems.append(f"passes disagree: digests {result['digests']}")
    result.update(setups=setups, baselines=baselines, reference_setups=reference_setups,
                  problems=problems, correct=not problems)
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (statistics.median(result["reference_setups"]), "s"),
        "verdict_s": (statistics.median(result["reference_walls"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def print_summary(workload: str, seed: int, result: dict, metrics: dict) -> None:
    walls = result["walls"]
    print(f"workload {workload} seed {seed}: {len(result['argv'])} invocations, "
          f"{result['per_pass_verdicts']} suite verdicts per pass, {len(walls)} passes")
    for line in result["argv"]:
        print(f"  {line}")
    rate = result["wrong"] / result["attempted"]
    print(f"error_rate          {rate:.4f} ratio  ({result['wrong']} wrong of {result['attempted']} "
          f"verdicts; {result['known']} of them the recorded ybe --p defect)")
    print(f"setup wall s        {' '.join(f'{s:.4f}' for s in result['setups'])}")
    print(f"pass wall s         {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup baseline s    {' '.join(f'{b:.4f}' for b in result['baselines'])}")
    print(f"pass mean chunk s   {' '.join(f'{c:.5f}' for c in result['chunks'])}")
    status = ("per-invocation digests checked against digests.json" if result["recorded"]
              else "no digests recorded for this seed")
    print(f"digest              {' '.join(result['digests'])} ({status})")
    if "traced_verdict_s" in result:
        print(f"traced verdict_s    {result['traced_verdict_s']:.4f} s; layer self times sum to "
              f"{result['layer_self_sum_s']:.4f} s")
    for problem in result["problems"]:
        print(f"WRONG: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qlie", "cli.py")):
        print(f"error: no qlie sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            found = {k: (v, unit) for k, (v, unit) in result["per_layer"].items()}
        else:
            found = end_to_end(result)
        print_summary(name, args.seed, result, found)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": unit} for k, (v, unit) in found.items()})
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["wrong"] - result["known"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
