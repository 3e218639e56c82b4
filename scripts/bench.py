#!/usr/bin/env python3
"""Time every `verify` suite and `cross-check` per n, for HEAD and for the working tree.

Usage: PYTHONPATH=src python scripts/bench.py LABEL

Writes BENCH_<LABEL>-parent.json, the `src/` of the commit checked out
(HEAD, exported once to a temporary directory), and BENCH_<LABEL>.json, the
`src/` on disk, both compiled to bytecode first.  Nine paths are timed: the passing path of every suite, the exploratory `hecke`
included; the specialized path, every suite but
`rtt` (which takes no specialization) with `--beta=2/3 --C=-9/5 --p=8/7`;
the failing, witness-producing paths of `verify braid --corrupt
"(1,2;2,1)=C"` and of `verify qlie --corrupt-constants "(2;1,2)=2C"`,
whose witnesses lie in qlie families 1, 3 and 4; the two paths that run
`linalg`'s exact Bareiss elimination: the elimination path of `verify rtt
--corrupt-constants "(2;1,2)=2C"`, a constant on the support k = i + j - 1,
compared one weight grade at a time, and the off-support path of `verify
rtt --corrupt-constants "(2;1,1)=C"`, which joins the weights 0 and 1, so
their grades are compared together; `cross-check`, passing, and failing
with `--flip-s-sign`; and `verify all`, passing.
Each run is one fresh subprocess that imports `qlie` from one of the two
trees and times `qlie.cli.main`, exactly as `qlie verify SUITE --n N` would,
and hashes its report, the stdout with every `"millis": N` masked.  For each
(path, suite, n in N) cell the two trees run alternately, REPEATS times
each, the first of each pair swapping every repeat, so the host's speed
drift falls on both sides of a cell alike.  Every repeat of a cell on one
tree must print the same report.  Each file records, per cell, the median
process seconds, `time.process_time` plus the user and system seconds of
the children `cli.main` forks and reaps (`verify all` runs its suites on
two processes), and `time.perf_counter` seconds, the exit code and the
report's `report_sha256`; every cell whose two trees print different
reports is listed on stdout.  Every `rtt` and `qlie` cell, passing or
failing, and every `specialized` cell also records its work and memory,
counted in one more, untimed subprocess per tree, so no timed run is
wrapped or traced: the number of `Scalar.__mul__`, `Scalar.exact_div` and
`Scalar.substitute` calls, the number of `LaurentFn` constructions and the
`tracemalloc` peak of `qlie.cli.main`, in MiB; unlike the times, these do
not drift with the host.  Each file also records the ROADMAP's two measures
of simplicity for its tree: `src_lines`, the lines of `src/qlie/*.py` (`cat
src/qlie/*.py | wc -l`), beside `module_lines`, the lines of each of those
files, so that code moved between modules is not read as a reduction, and
`public_names`, the length of `qlie.__all__`, beside `public_members`, the
number of public members of the classes in `qlie.__all__` (the names in
`vars(cls)` that do not start with "_"), listed per class in
`class_members`, so that a removed method counts; and it records the
interpreter version, the git commit checked out and the git tree hash of
the `src/` measured; `git rev-parse COMMIT:src` gives that hash for the
commit that holds the measured code, also when it was measured before being
committed.  Standard library only.
"""

from __future__ import annotations

import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from qlie import cli

N = (5, 6, 7, 8, 9, 10)
REPEATS = 5
SPECIALIZED = ("--beta=2/3", "--C=-9/5", "--p=8/7")
# the paths with one command line per n, N standing for n; a cell's suite
# is the word before --n
FIXED = {
    "corrupt": ("verify", "braid", "--n", "N", "--corrupt", "(1,2;2,1)=C"),
    "qlie-corrupt": ("verify", "qlie", "--n", "N", "--corrupt-constants", "(2;1,2)=2C"),
    "elimination": ("verify", "rtt", "--n", "N", "--corrupt-constants", "(2;1,2)=2C"),
    "off-support": ("verify", "rtt", "--n", "N", "--corrupt-constants", "(2;1,1)=C"),
    "cross-check": ("cross-check", "--n", "N"),
    "cross-check-flipped": ("cross-check", "--n", "N", "--flip-s-sign"),
    "all": ("verify", "all", "--n", "N"),
}
ROOT = Path(cli.__file__).resolve().parents[2]

# one timed run in a subprocess: [exit code, process seconds, wall seconds,
# sha256 of the report with its times masked]; the process seconds add those
# of the children cli.main forks and reaps
CHILD = """
import contextlib, hashlib, io, json, re, resource, sys, time
from qlie import cli
def children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
report = io.StringIO()
with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
    cpu, wall = time.process_time() + children(), time.perf_counter()
    code = cli.main(sys.argv[1:])
    cpu, wall = time.process_time() + children() - cpu, time.perf_counter() - wall
masked = re.sub(r'"millis": \\d+', '"millis": N', report.getvalue())
print(json.dumps([code, cpu, wall, hashlib.sha256(masked.encode()).hexdigest()]))
"""

# one untimed run with Scalar.__mul__, Scalar.exact_div, Scalar.substitute
# and LaurentFn constructions counted and memory traced: [exit code, counts
# and tracemalloc peak]
COUNT_CHILD = """
import contextlib, io, json, sys, tracemalloc
from qlie import cli
from qlie.laurent import LaurentFn
from qlie.scalars import Scalar
counts = {"mul_calls": 0, "exact_div_calls": 0, "substitute_calls": 0, "laurentfn_calls": 0}
def counted(name, method):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)
    return wrapper
Scalar.__mul__ = counted("mul_calls", Scalar.__mul__)
Scalar.exact_div = counted("exact_div_calls", Scalar.exact_div)
Scalar.substitute = counted("substitute_calls", Scalar.substitute)
LaurentFn.__init__ = counted("laurentfn_calls", LaurentFn.__init__)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    tracemalloc.start()
    code = cli.main(sys.argv[1:])
    counts["tracemalloc_peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    tracemalloc.stop()
print(json.dumps([code, counts]))
"""


def _git(*args: str, env: dict | None = None, text: bool = True):
    out = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=text, check=True, env=env
    )
    return out.stdout.strip() if text else out.stdout


def _git_ids() -> tuple[dict, dict]:
    """The commit checked out with the tree hash of its src/, and of src/ as it is on disk."""
    try:
        commit = _git("rev-parse", "HEAD")
        with tempfile.TemporaryDirectory() as tmp:
            # stage src/ into a scratch index, so the real one is left alone
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            _git("read-tree", "HEAD", env=env)
            _git("add", "--all", "src", env=env)
            tree = _git("write-tree", "--prefix=src/", env=env)
        head = _git("rev-parse", "HEAD:src")
    except (OSError, subprocess.CalledProcessError):
        commit = tree = head = "unknown"
    return {"commit": commit, "src_tree": head}, {"commit": commit, "src_tree": tree}


def _run(src: Path, argv: list[str], child: str = CHILD) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, check=True, env=env
    )
    return tuple(json.loads(out.stdout))


# [the number of names in qlie.__all__, {class: its public members}]
SURFACE_CHILD = """
import json, qlie
classes = [(name, getattr(qlie, name)) for name in qlie.__all__]
members = {name: sorted(m for m in vars(cls) if not m.startswith("_"))
           for name, cls in classes if isinstance(cls, type)}
print(json.dumps([len(qlie.__all__), members]))
"""


def _size(src: Path) -> dict:
    """The lines of src/qlie/*.py, in all and per file, and the public names and class members."""
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted((src / "qlie").glob("*.py"))}
    names, members = _run(src, [], SURFACE_CHILD)
    return {"src_lines": sum(lines.values()), "module_lines": lines, "public_names": names,
            "public_members": sum(map(len, members.values())), "class_members": members}


def _cell(trees: tuple[Path, Path], argv: list[str]) -> tuple[dict, dict]:
    """Median times and the report digest of argv on each tree, the trees run alternately."""
    runs: tuple[list, list] = ([], [])
    for r in range(REPEATS):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            runs[side].append(_run(trees[side], argv))

    def summary(side_runs: list) -> dict:
        (code,) = {code for code, _, _, _ in side_runs}
        digests = {digest for _, _, _, digest in side_runs}
        assert len(digests) == 1, f"{argv}: {len(digests)} reports in {REPEATS} repeats"
        return {
            "exit": code,
            "process_time_s": round(statistics.median(cpu for _, cpu, _, _ in side_runs), 4),
            "perf_counter_s": round(statistics.median(wall for _, _, wall, _ in side_runs), 4),
            "report_sha256": digests.pop(),
        }

    return summary(runs[0]), summary(runs[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    (label,) = argv

    cells = {
        ("passing", suite, n): ["verify", suite, "--n", str(n)]
        for suite in cli.SUITES for n in N
    }
    cells.update({
        ("specialized", suite, n): ["verify", suite, "--n", str(n), *SPECIALIZED]
        for suite in cli.SUITES if suite != "rtt" for n in N
    })
    for path, template in FIXED.items():
        suite = template[template.index("--n") - 1]
        cells.update({
            (path, suite, n): [str(n) if word == "N" else word for word in template] for n in N
        })

    with tempfile.TemporaryDirectory() as tmp:
        archive = _git("archive", "HEAD", "src", text=False)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        trees = (Path(tmp) / "src", ROOT / "src")
        # both trees' bytecode compiled in place, so that no run compiles
        # qlie on import: a tree without a cache reads a lower tracemalloc
        # peak than the same source with one.  A PYTHONPYCACHEPREFIX would
        # leave the standard library's cache unread.
        for tree in trees:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)],
                           check=True, stdout=subprocess.DEVNULL)
        sizes = [_size(tree) for tree in trees]
        timed = {key: _cell(trees, cell_argv) for key, cell_argv in cells.items()}
        for key, pair in timed.items():
            if key[1] in ("rtt", "qlie") or key[0] == "specialized":
                for side, summary in enumerate(pair):
                    code, counts = _run(trees[side], cells[key], COUNT_CHILD)
                    assert code == summary["exit"]
                    summary.update(counts)

    differ = [key for key, (parent, change) in timed.items()
              if parent["report_sha256"] != change["report_sha256"]]
    for path, suite, n in differ:
        print(f"report differs: {path} {suite} --n {n}")
    print(f"{len(differ)} of {len(timed)} cells print a different report")
    for suffix, size in zip(("parent", "change"), sizes):
        print(f"{suffix}: {size['src_lines']} src lines, {size['public_names']} public names, "
              f"{size['public_members']} public class members")

    for side, (suffix, ids) in enumerate(zip(("-parent", ""), _git_ids())):
        result = {
            "label": label + suffix,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            **ids,
            **sizes[side],
            "repeats": REPEATS,
            "passing": {},
            "specialized": {"argv": ["verify", "SUITE", "--n", "N", *SPECIALIZED]},
            **{path: {"argv": list(template)} for path, template in FIXED.items()},
        }
        for (path, suite, n), pair in timed.items():
            result[path].setdefault(suite, {})[str(n)] = pair[side]
        path = Path(f"BENCH_{label}{suffix}.json")
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
