#!/usr/bin/env python3
"""Time every `verify` suite per n and write BENCH_<label>.json.

Usage: PYTHONPATH=src python scripts/bench.py LABEL

Each suite runs in-process through `qlie.cli.main`, exactly as `qlie verify
SUITE --n N` would, with its report discarded.  Four paths are timed: the
passing path of every suite; the specialized path, every suite but `rtt`
(which takes no specialization) with `--beta=2/3 --C=-9/5 --p=8/7`; the
failing, witness-producing path of `verify braid --corrupt "(1,2;2,1)=C"`;
and the elimination path of `verify rtt --corrupt-constants "(2;1,2)=2C"`,
the one path that runs `linalg`'s exact Bareiss elimination.
For each (path, suite, n in N) the file records the median
`time.process_time` and `time.perf_counter` seconds over REPEATS runs, and
the exit code.  The interpreter version, the git commit checked out and the
git tree hash of `src/` as measured are recorded with them; `git rev-parse
COMMIT:src` gives that hash for the commit that holds the measured code,
also when it was measured before being committed.
Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from qlie import cli

N = (5, 6, 7, 8, 9, 10)
REPEATS = 5
SPECIALIZED = ("--beta=2/3", "--C=-9/5", "--p=8/7")
CORRUPT = ("braid", "--corrupt", "(1,2;2,1)=C")
ELIMINATION = ("rtt", "--corrupt-constants", "(2;1,2)=2C")


def _git(*args: str, env: dict | None = None) -> str:
    root = Path(cli.__file__).resolve().parents[2]
    out = subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def _git_ids() -> dict:
    """The commit checked out and the tree hash of src/ as it is on disk."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            # stage src/ into a scratch index, so the real one is left alone
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            _git("read-tree", "HEAD", env=env)
            _git("add", "--all", "src", env=env)
            tree = _git("write-tree", "--prefix=src/", env=env)
        return {"commit": _git("rev-parse", "HEAD"), "src_tree": tree}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": "unknown", "src_tree": "unknown"}


def _time(argv: list[str]) -> dict:
    cpu, wall, codes = [], [], set()
    for _ in range(REPEATS):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t_cpu, t_wall = time.process_time(), time.perf_counter()
            codes.add(cli.main(argv))
            cpu.append(time.process_time() - t_cpu)
            wall.append(time.perf_counter() - t_wall)
    (code,) = codes
    return {
        "exit": code,
        "process_time_s": round(statistics.median(cpu), 4),
        "perf_counter_s": round(statistics.median(wall), 4),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    (label,) = argv

    passing = {
        suite: {str(n): _time(["verify", suite, "--n", str(n)]) for n in N}
        for suite in cli.VERIFY_SUITES
    }
    specialized = {
        suite: {str(n): _time(["verify", suite, "--n", str(n), *SPECIALIZED]) for n in N}
        for suite in cli.VERIFY_SUITES
        if suite != "rtt"
    }
    corrupt = {str(n): _time(["verify", CORRUPT[0], "--n", str(n), *CORRUPT[1:]]) for n in N}
    elimination = {
        str(n): _time(["verify", ELIMINATION[0], "--n", str(n), *ELIMINATION[1:]]) for n in N
    }
    result = {
        "label": label,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **_git_ids(),
        "repeats": REPEATS,
        "passing": passing,
        "specialized": {"argv": ["verify", "SUITE", "--n", "N", *SPECIALIZED], **specialized},
        "corrupt": {"argv": ["verify", CORRUPT[0], "--n", "N", *CORRUPT[1:]], "braid": corrupt},
        "elimination": {
            "argv": ["verify", ELIMINATION[0], "--n", "N", *ELIMINATION[1:]],
            "rtt": elimination,
        },
    }
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
