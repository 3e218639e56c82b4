#!/usr/bin/env python3
"""Time every `verify` suite, `cross-check` and two `gen` exports per n, at HEAD and on disk.

Usage: PYTHONPATH=src python scripts/bench.py LABEL

Writes BENCH_<LABEL>-parent.json, the `src/` of the commit checked out
(HEAD, exported once to a temporary directory), and BENCH_<LABEL>.json, the
`src/` on disk, both compiled to bytecode first.  Eleven paths are timed:
the passing path of every suite, the exploratory `hecke` included; the
specialized path, every suite but `rtt` (which takes no specialization)
with `--beta=2/3 --C=-9/5 --p=8/7`;
the failing, witness-producing paths of `verify braid --corrupt
"(1,2;2,1)=C"` and of `verify qlie --corrupt-constants "(2;1,2)=2C"`,
whose witnesses lie in qlie families 1, 3 and 4; the two paths that run
`linalg`'s exact Bareiss elimination: the elimination path of `verify rtt
--corrupt-constants "(2;1,2)=2C"`, a constant on the support k = i + j - 1,
compared one weight grade at a time, and the off-support path of `verify
rtt --corrupt-constants "(2;1,1)=C"`, which joins the weights 0 and 1, so
their grades are compared together; `cross-check`, passing, and failing
with `--flip-s-sign`; `verify all`, passing; and two exports, `gen
extended --format csv` and `gen constants --format json`, whose cells are
named by their target.
Each run is one fresh subprocess that imports `qlie` from one of the two
trees and times `qlie.cli.main`, exactly as `qlie verify SUITE --n N` would,
and hashes its report, the stdout with every `"millis": N` masked.  For each
(path, suite, n in N) cell the two trees run alternately, REPEATS times
each, the first of each pair swapping every repeat, so the host's speed
drift falls on both sides of a cell alike.  Every repeat of a cell on one
tree must print the same report.  Each file records, per cell, the median
process seconds, `time.process_time` plus the user and system seconds of
the children `cli.main` forks and reaps (`verify all` runs its suites, and
a large call of `checks.check_identities` its two routes, on two
processes), with their interquartile range and `change_faster_pairs`, the
number of the REPEATS pairs in which the change took fewer process
seconds; the median `time.perf_counter` seconds, with their interquartile
range `perf_counter_iqr_s` and `change_faster_wall_pairs`, the pairs in
which the change took fewer wall seconds; `forks`, the `os.fork` calls of
one run, and `children_maxrss_mib`, the largest `ru_maxrss` of the
children any repeat reaped, which `perfbench`, reading `RUSAGE_SELF`, does
not see; the exit code and the report's `report_sha256`.  Every cell whose
two trees print different reports or fork a different number of times is
listed on stdout.  A median of fresh subprocesses of a few
milliseconds moves with the host by tens of percent, and five pairs agree
on a side by chance once in 16 cells, so stdout also lists the cells whose
process or wall time difference is resolved: at least 9 of the 10 pairs
agree on which tree is faster, as `perfbench` requires of a claimed gain,
and the medians differ by more than the parent's interquartile range.
Only those cells' times may be quoted.  Every `rtt` and `qlie` cell, passing or
failing, every `specialized` cell and every `corrupt` cell also records
its work and memory, counted in one more, untimed subprocess per tree,
pinned to one CPU so that it forks no route, so
no timed run is wrapped or traced: the number of `Scalar.__mul__`,
`Scalar.exact_div`, `Scalar.substitute` and `Scalar.__str__` calls (the
last, `str_calls`, the witness values printed), the number of `LaurentFn`
constructions, `pairs_split`, the keyed pairs `rtt` hands to its exact
span test (`rtt._outside_spans`), those of the grade groups whose signed
sweep did not cancel, 0 off `rtt`, and the `tracemalloc` peak of
`qlie.cli.main`, in MiB;
unlike the times, these do not drift with the host.  Each file also records the ROADMAP's two measures
of simplicity for its tree: `src_lines`, the lines of `src/qlie/*.py` (`cat
src/qlie/*.py | wc -l`), beside `code_lines`, those lines that hold code,
not blank, a comment or part of a docstring, so that editing a docstring
does not move the count, and `module_lines` and `module_code_lines`, the
lines and the code lines of each of those files, so that code moved between
modules is not read as a reduction, and
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

import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

from qlie import cli

N = (5, 6, 7, 8, 9, 10)
REPEATS = 10
# a time difference is resolved when this many of the REPEATS pairs agree on its sign
AGREEING = 9
SPECIALIZED = ("--beta=2/3", "--C=-9/5", "--p=8/7")
# the paths with one command line per n, N standing for n; a cell's suite
# is the word before --n, a suite or a `gen` target
FIXED = {
    "corrupt": ("verify", "braid", "--n", "N", "--corrupt", "(1,2;2,1)=C"),
    "qlie-corrupt": ("verify", "qlie", "--n", "N", "--corrupt-constants", "(2;1,2)=2C"),
    "elimination": ("verify", "rtt", "--n", "N", "--corrupt-constants", "(2;1,2)=2C"),
    "off-support": ("verify", "rtt", "--n", "N", "--corrupt-constants", "(2;1,1)=C"),
    "cross-check": ("cross-check", "--n", "N"),
    "cross-check-flipped": ("cross-check", "--n", "N", "--flip-s-sign"),
    "all": ("verify", "all", "--n", "N"),
    "gen-csv": ("gen", "extended", "--n", "N", "--format", "csv"),
    "gen-json": ("gen", "constants", "--n", "N", "--format", "json"),
}
ROOT = Path(cli.__file__).resolve().parents[2]

# one timed run in a subprocess: [exit code, process seconds, wall seconds,
# sha256 of the report with its times masked, os.fork calls, the largest
# ru_maxrss of the children in MiB]; the process seconds add those of the
# children cli.main forks and reaps
CHILD = """
import contextlib, hashlib, io, json, os, re, resource, sys, time
from qlie import cli
def children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
report = io.StringIO()
with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
    cpu, wall = time.process_time() + children(), time.perf_counter()
    code = cli.main(sys.argv[1:])
    cpu, wall = time.process_time() + children() - cpu, time.perf_counter() - wall
masked = re.sub(r'"millis": \\d+', '"millis": N', report.getvalue())
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([code, cpu, wall, hashlib.sha256(masked.encode()).hexdigest(), len(forks), rss]))
"""

# one untimed run with Scalar.__mul__, Scalar.exact_div, Scalar.substitute,
# Scalar.__str__ and LaurentFn constructions and the pairs rtt splits out
# counted and memory traced: [exit code, counts and tracemalloc peak]; pinned
# to one CPU, so that it forks no child whose counts it would not see
COUNT_CHILD = """
import contextlib, io, json, os, sys, tracemalloc
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from qlie import cli, rtt
from qlie.laurent import LaurentFn
from qlie.scalars import Scalar
counts = {"mul_calls": 0, "exact_div_calls": 0, "substitute_calls": 0, "str_calls": 0,
          "laurentfn_calls": 0, "pairs_split": 0}
outside_spans = rtt._outside_spans
def split(pairs):
    counts["pairs_split"] += len(pairs)
    return outside_spans(pairs)
rtt._outside_spans = split
def counted(name, method):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)
    return wrapper
Scalar.__mul__ = counted("mul_calls", Scalar.__mul__)
Scalar.exact_div = counted("exact_div_calls", Scalar.exact_div)
Scalar.substitute = counted("substitute_calls", Scalar.substitute)
Scalar.__str__ = counted("str_calls", Scalar.__str__)
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


# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def _code_lines(source: str) -> int:
    """The lines of source that hold a token of code and are no part of a
    module, class or function docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def _size(src: Path) -> dict:
    """The lines of src/qlie/*.py, in all, holding code and per file, and
    the public names and class members."""
    paths = sorted((src / "qlie").glob("*.py"))
    lines = {path.name: path.read_bytes().count(b"\n") for path in paths}
    code = {path.name: _code_lines(path.read_text()) for path in paths}
    names, members = _run(src, [], SURFACE_CHILD)
    return {"src_lines": sum(lines.values()), "code_lines": sum(code.values()),
            "module_lines": lines, "module_code_lines": code, "public_names": names,
            "public_members": sum(map(len, members.values())), "class_members": members}


def _cell(trees: tuple[Path, Path], argv: list[str]) -> tuple[dict, dict]:
    """Median times, forks, children's memory and the report digest of argv
    on each tree, the trees run alternately, with the spread of each tree's
    process and wall seconds and the number of repeats, each a pair of runs,
    in which the change took fewer of them."""
    runs: tuple[list, list] = ([], [])
    for r in range(REPEATS):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            runs[side].append(_run(trees[side], argv))

    def faster(column: int) -> int:
        return sum(change[column] < parent[column] for parent, change in zip(*runs))

    def median_iqr(side_runs: list, column: int) -> tuple[float, float]:
        values = [run[column] for run in side_runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        return round(statistics.median(values), 4), round(q3 - q1, 4)

    def summary(side_runs: list) -> dict:
        (code,) = {run[0] for run in side_runs}
        digests = {run[3] for run in side_runs}
        assert len(digests) == 1, f"{argv}: {len(digests)} reports in {REPEATS} repeats"
        (forks,) = {run[4] for run in side_runs}
        cpu, cpu_iqr = median_iqr(side_runs, 1)
        wall, wall_iqr = median_iqr(side_runs, 2)
        return {
            "exit": code,
            "process_time_s": cpu,
            "process_time_iqr_s": cpu_iqr,
            "change_faster_pairs": faster(1),
            "perf_counter_s": wall,
            "perf_counter_iqr_s": wall_iqr,
            "change_faster_wall_pairs": faster(2),
            "forks": forks,
            "children_maxrss_mib": round(max(run[5] for run in side_runs), 1),
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
            if key[1] in ("rtt", "qlie") or key[0] in ("specialized", "corrupt"):
                for side, summary in enumerate(pair):
                    code, counts = _run(trees[side], cells[key], COUNT_CHILD)
                    assert code == summary["exit"]
                    summary.update(counts)

    differ = [key for key, (parent, change) in timed.items()
              if parent["report_sha256"] != change["report_sha256"]]
    for path, suite, n in differ:
        print(f"report differs: {path} {suite} --n {n}")
    print(f"{len(differ)} of {len(timed)} cells print a different report")
    # a time difference counts only when AGREEING pairs agree on its sign and
    # the medians differ by more than the parent's interquartile range; process
    # and wall time are judged alike
    for clock, time_key, iqr_key, pairs_key in (
        ("process", "process_time_s", "process_time_iqr_s", "change_faster_pairs"),
        ("wall", "perf_counter_s", "perf_counter_iqr_s", "change_faster_wall_pairs"),
    ):
        resolved = [(key, parent[time_key], change[time_key])
                    for key, (parent, change) in timed.items()
                    if max(change[pairs_key], REPEATS - change[pairs_key]) >= AGREEING
                    and abs(change[time_key] - parent[time_key]) > parent[iqr_key]]
        for (path, suite, n), before, after in resolved:
            print(f"{clock} time resolved: {path} {suite} --n {n}: {before} -> {after} s")
        print(f"{len(resolved)} of {len(timed)} cells resolve a {clock} time difference")
    forked = [(key, parent["forks"], change["forks"]) for key, (parent, change) in timed.items()
              if parent["forks"] != change["forks"]]
    for (path, suite, n), before, after in forked:
        print(f"forks differ: {path} {suite} --n {n}: {before} -> {after}")
    for suffix, size in zip(("parent", "change"), sizes):
        print(f"{suffix}: {size['src_lines']} src lines, {size['code_lines']} code lines, "
              f"{size['public_names']} public names, "
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
