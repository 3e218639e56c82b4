"""Record the report digest of every workload for a range of seeds.

    PYTHONHASHSEED=0 python3 perfbench/record_digests.py

Runs one untraced pass per workload and seed in SEEDS in this process and
rewrites `digests.json`, which `run.py` compares against.  Every pass must
satisfy the oracle first, so a digest is only ever recorded for correct verdicts.  Re-run
only when a benchmark change alters the workloads, never to absorb a program
change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

SEEDS = range(0, 21)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0, as the benchmark does", file=sys.stderr)
        return 2

    from qlie import cli

    recorded: dict[str, dict[str, list[str]]] = {}
    known: dict[tuple, list[str]] = {}  # argv of a whole workload -> digests
    for workload in workloads.WORKLOADS:
        digests = recorded.setdefault(workload, {})
        for seed in SEEDS:
            invocations = workloads.generate(workload, seed)
            key = tuple(inv.argv for inv in invocations)
            if key in known:
                digests[str(seed)] = known[key]
                continue
            outcomes, _ = run_pass(cli.main, invocations)
            verdicts = oracle.judge(invocations, outcomes)
            if verdicts.unexpected:
                print(f"error: {workload} seed {seed}: {verdicts.problems}", file=sys.stderr)
                return 1
            digests[str(seed)] = known[key] = oracle.digests(invocations, outcomes)
            print(f"{workload} {seed} {oracle.workload_digest(known[key])}", flush=True)
    with open(oracle.DIGESTS_FILE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
