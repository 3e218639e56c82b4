import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qlie import cli, rtt
from qlie.cg import extended_rhat, sigma_cg, structure_constants
from qlie.laurent import SpaceConfig, op_r
from qlie.operators import from_functional
from qlie.scalars import ONE, Scalar

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "qlie.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_gen_sigma_n2_lists_the_five_entries():
    proc = run_cli("gen", "sigma", "--n", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 2 and doc["legs"] == 2
    entries = {(tuple(e["out"]), tuple(e["in"])): e["coeff"] for e in doc["entries"]}
    assert entries == {
        ((1, 1), (1, 1)): "1",
        ((1, 2), (1, 2)): "b",
        ((1, 2), (2, 1)): "1 - b",
        ((2, 1), (1, 2)): "1",
        ((2, 2), (2, 2)): "1",
    }


def test_gen_constants_n3_has_four_entries():
    proc = run_cli("gen", "constants", "--n", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["entries"]) == 4
    by_key = {(e["upper"], tuple(e["lower"])): e["coeff"] for e in doc["entries"]}
    assert by_key == {
        (2, (2, 1)): "C",
        (2, (1, 2)): "-C",
        (3, (3, 1)): "C",
        (3, (1, 3)): "-C",
    }


def test_gen_rejects_n0():
    proc = run_cli("gen", "sigma", "--n", "0")
    assert proc.returncode == 2


def test_gen_rejects_zero_p():
    proc = run_cli("gen", "sigma-family", "--n", "2", "--p", "0")
    assert proc.returncode == 2


def test_gen_formats(tmp_path):
    out = tmp_path / "sigma.csv"
    proc = run_cli("gen", "sigma", "--n", "1", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert out.read_text() == "n,legs,out,in,coeff\n1,2,1 1,1 1,1\n"
    proc = run_cli("gen", "sigma", "--n", "1", "--format", "text")
    assert "[1,1;1,1] = 1" in proc.stdout


def test_gen_specialized_output():
    proc = run_cli("gen", "sigma", "--n", "2", "--beta", "1/2")
    doc = json.loads(proc.stdout)
    coeffs = {c["coeff"] for c in doc["entries"]}
    assert coeffs == {"1", "1/2"}


def test_gen_specializes_the_constants():
    proc = run_cli("gen", "constants", "--n", "3", "--C=2/3", "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "C[2;1,2] = -2/3" in lines and "C[2;2,1] = 2/3" in lines
    proc = run_cli("gen", "constants", "--n", "3", "--C=0", "--format", "text")
    assert proc.stdout == "structure constants n=3 entries=0\n"
    # at C = 0 the extended matrix keeps its braid and delta blocks only
    proc = run_cli("gen", "extended", "--n", "2", "--C=0")
    entries = json.loads(proc.stdout)["entries"]
    assert len(entries) == 10
    assert not [e for e in entries if e["out"][0] == 0 and 0 not in e["in"]]


def test_verify_braid_passes():
    proc = run_cli("verify", "braid", "--n", "2")
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert len(reports) == 1 and reports[0]["pass"] is True
    assert "braid: PASS" in proc.stderr


def test_verify_braid_corrupted_fails():
    proc = run_cli("verify", "braid", "--n", "2", "--corrupt", "(0,2;2,1)=2C")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    assert reports[0]["pass"] is False
    assert reports[0]["witnesses"]


def test_verify_qlie_specialized():
    proc = run_cli("verify", "qlie", "--n", "4", "--beta", "0", "--C", "1")
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert reports[0]["symbolic"] == ["p"]


def test_verify_rtt_corrupted_constants():
    proc = run_cli(
        "verify", "rtt", "--n", "2", "--corrupt-constants", "(2;2,1)=2C"
    )
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    assert reports[0]["suite"] == "rtt" and reports[0]["failures"] > 0


def test_verify_all_passes_and_is_deterministic():
    first = run_cli("verify", "all", "--n", "2")
    second = run_cli("verify", "all", "--n", "2")
    assert first.returncode == 0 and second.returncode == 0
    strip = lambda s: re.sub(r'"millis": \d+', '"millis": 0', s)
    assert strip(first.stdout) == strip(second.stdout)
    suites = [r["suite"] for r in json.loads(first.stdout)]
    assert suites == ["braid", "ybe", "cybe", "components", "ybfr", "qlie", "rtt"]


@pytest.mark.slow
def test_verify_all_n7_passes():
    # every suite, both kernels and the row-wise matrix route at n = 7
    proc = run_cli("verify", "all", "--n", "7")
    assert proc.returncode == 0, proc.stderr
    assert all(r["pass"] for r in json.loads(proc.stdout))


@pytest.mark.slow
def test_verify_all_n10_passes():
    # the exhaustive check beyond the interactive target, every suite at n = 10
    proc = run_cli("verify", "all", "--n", "10")
    assert proc.returncode == 0, proc.stderr
    assert all(r["pass"] for r in json.loads(proc.stdout))


@pytest.mark.slow
def test_verify_specialized_n8_passes():
    # rational values whose powers, 3^k, 5^k and 7^k, have large
    # denominators; a passing run checks its symbolic inputs and
    # substitutes them into no row
    subs = ("--beta=-7/3", "--C=9/5", "--p=8/7")
    for suite in ("braid", "ybe", "cybe", "components", "ybfr", "qlie"):
        proc = run_cli("verify", suite, "--n", "8", *subs)
        assert proc.returncode == 0, (suite, proc.stderr)
        (report,) = json.loads(proc.stdout)
        assert report["pass"] and report["symbolic"] == [], suite


@pytest.mark.parametrize(
    "args, code",
    [
        (("verify", "all", "--n", "2"), 0),
        (("verify", "rtt", "--n", "2", "--corrupt-constants", "(2;1,2)=2C"), 1),
    ],
)
def test_verify_output_does_not_depend_on_the_hash_seed(args, code):
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "qlie.cli", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == code, proc.stderr
        outputs.append(re.sub(r'"millis": \d+', '"millis": 0', proc.stdout))
    assert outputs[0] == outputs[1]


def test_verify_rtt_p_valued_constant_fails():
    proc = run_cli("verify", "rtt", "--n", "2", "--corrupt-constants", "(1;1,2)=p")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    assert reports[0]["pass"] is False and reports[0]["failures"] > 0


def test_verify_ybe_with_p_passes():
    proc = run_cli("verify", "ybe", "--n", "3", "--p", "3/4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["pass"] is True


@pytest.mark.parametrize(
    "args, values, failures",
    [
        (("braid", "--corrupt", "(1,2;2,1)=1-b+C"), ("--C=0",), 4),
        (("qlie", "--corrupt-constants", "(2;2,1)=C+b"), ("--beta=0",), 4),
        (("cybe", "--corrupt", "(1,1;2,0)=C"), ("--C=0",), 20),
    ],
    ids=["braid-C", "qlie-beta", "cybe-C"],
)
def test_a_defect_that_the_values_erase_is_not_reported(args, values, failures):
    # each corruption fails symbolically and vanishes at the given values
    symbolic = run_cli("verify", *args, "--n", "2")
    assert symbolic.returncode == 1
    assert json.loads(symbolic.stdout)[0]["failures"] == failures
    specialized = run_cli("verify", *args, "--n", "2", *values)
    assert specialized.returncode == 0, specialized.stderr
    assert json.loads(specialized.stdout)[0]["pass"] is True


def test_verify_rejects_jobs_flag():
    proc = run_cli("verify", "all", "--n", "1", "--jobs", "2")
    assert proc.returncode == 2


def test_verify_seed_flag():
    proc = run_cli("verify", "rtt", "--n", "2", "--seed", "7")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ("verify", "all", "--n", "2", "--corrupt", "(0,1;1,1)=2"),
            "--corrupt has no effect on suites components, ybfr, rtt; "
            "select only suites that use it",
        ),
        (
            ("verify", "braid", "--n", "2", "--corrupt", "(1,1,1;1,1)=2"),  # wrong arity
            "--corrupt '(1,1,1;1,1)=2': index tuple of wrong length in ((1, 1, 1), (1, 1))",
        ),
        (
            ("verify", "rtt", "--n", "2", "--corrupt-constants", "(3;1,2)=C"),  # out of range
            "--corrupt-constants '(3;1,2)=C': index 3 outside 1..2",
        ),
        (
            ("verify", "braid", "--n", "2", "--corrupt", "(0,5;0,0)=2"),  # out of range
            "--corrupt '(0,5;0,0)=2': index 5 outside 0..2",
        ),
        (
            ("verify", "qlie", "--n", "2", "--corrupt", "(0,1;1,1)=2"),  # below sigma's base 1
            "--corrupt '(0,1;1,1)=2': index 0 outside 1..2",
        ),
        (
            # a coefficient error is placed in the flag's value, not in COEFF
            ("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=b*"),
            "--corrupt '(1,2;2,1)=b*': expected a factor after '*' (at position 12)",
        ),
        (
            ("verify", "qlie", "--n", "2", "--corrupt-constants", "(2;1,2)= 2/0"),
            "--corrupt-constants '(2;1,2)= 2/0': zero denominator (at position 11)",
        ),
    ],
    ids=["corrupt-range", "corrupt-arity", "corrupt-constants-range", "corrupt-range-braid",
         "corrupt-range-qlie", "corrupt-coefficient-position", "constants-coefficient-position"],
)
def test_bad_overrides_exit_2_without_traceback(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines()[-1] == "qlie: error: " + message


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "braid", "--n", "2", "--corrupt", "(1,,1;1,1)=1"),
        ("verify", "braid", "--n", "2", "--corrupt", "(1,1,;1,1)=1"),
        ("verify", "braid", "--n", "2", "--corrupt", "(1 2,1;1,1)=1"),
        ("verify", "qlie", "--n", "2", "--corrupt-constants", "(1;1,,2)=1"),
        ("verify", "qlie", "--n", "2", "--corrupt-constants", "(1;,)=1"),
        # more digits than int() converts
        ("verify", "braid", "--n", "2", "--corrupt", f"(1,2;2,{'9' * 5000})=1"),
        ("verify", "qlie", "--n", "2", "--corrupt-constants", f"({'9' * 5000};1,2)=1"),
    ],
    ids=[
        "corrupt-empty",
        "corrupt-trailing-comma",
        "corrupt-space-split",
        "constants-empty",
        "constants-no-index",
        "corrupt-long-index",
        "constants-long-index",
    ],
)
def test_empty_index_fields_exit_2_with_one_error_line(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("qlie: error: ")]
    assert len(errors) == 1 and "index" in errors[0]


@pytest.mark.parametrize(
    "args, message",
    [
        (("verify", "braid", "--n", "2", "--corrupt="),
         "--corrupt '': expected (INDICES;INDICES)=COEFF"),
        (("verify", "rtt", "--n", "2", "--corrupt-constants="),
         "--corrupt-constants '': expected (INDICES;INDICES)=COEFF"),
    ],
    ids=["corrupt", "corrupt-constants"],
)
def test_an_empty_override_exits_2(args, message):
    # an empty value is an override that cannot be read, not an absent one
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines()[-1] == "qlie: error: " + message


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=C", "--corrupt", "(1,1;1,1)=C"),
        ("verify", "qlie", "--n", "2", "--corrupt-constants", "(2;1,2)=C",
         "--corrupt-constants=(2;1,2)=C"),
        ("verify", "braid", "--n", "2", "--beta=1/2", "--beta", "1/2"),
        ("verify", "braid", "--n", "2", "--C", "1", "--C", "2"),
        ("verify", "braid", "--n", "2", "--p", "2", "--p=symbolic"),
        ("gen", "sigma", "--n", "2", "--beta", "2", "--beta", "3"),
    ],
    ids=["corrupt", "corrupt-constants", "beta", "C", "p", "gen-beta"],
)
def test_a_repeated_value_flag_exits_2(args):
    # the last value would win silently, leaving the first one unused
    flag = args[4].split("=")[0]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not SUMMARY_LINE.search(proc.stderr)
    last = proc.stderr.strip().splitlines()[-1]
    assert last == f"qlie: error: {flag} given more than once; give it once"


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "braid", "--n", "2", "--out="),
        ("verify", "all", "--n", "1", "--out", ""),
        ("gen", "sigma", "--n", "2", "--out="),
        ("cross-check", "--n", "2", "--out="),
        ("dump-relations", "--n", "1", "--out="),
    ],
    ids=["verify", "verify-all", "gen", "cross-check", "dump-relations"],
)
def test_an_empty_out_exits_2(args):
    # an empty path names no file; it must not fall back to stdout
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("qlie: error: ")]
    assert errors == ["qlie: error: --out '': expected a file path"]


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--n", ("verify", "braid", "--n", "2", "--n", "3")),
        ("--n", ("verify", "all", "--n", "1", "--n=1")),
        ("--n", ("gen", "sigma", "--n", "2", "--n", "2")),
        ("--n", ("cross-check", "--n", "2", "--n", "3")),
        ("--n", ("dump-relations", "--n", "1", "--n", "2")),
        ("--out", ("verify", "braid", "--n", "2", "--out", "a.json", "--out", "b.json")),
        ("--out", ("gen", "sigma", "--n", "2", "--out", "a.json", "--out=a.json")),
        ("--out", ("cross-check", "--n", "2", "--out", "a.json", "--out", "b.json")),
        ("--out", ("dump-relations", "--n", "1", "--out", "a.json", "--out", "b.json")),
    ],
    ids=["verify-n", "verify-all-n", "gen-n", "cross-check-n", "dump-relations-n",
         "verify-out", "gen-out", "cross-check-out", "dump-relations-out"],
)
def test_a_repeated_n_or_out_exits_2(flag, args, tmp_path):
    # the last value would win silently: another n, or one file of two
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "qlie.cli", *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not SUMMARY_LINE.search(proc.stderr)
    assert list(tmp_path.iterdir()) == []
    last = proc.stderr.strip().splitlines()[-1]
    assert last == f"qlie: error: {flag} given more than once; give it once"


def test_n_and_out_are_not_suite_flags(tmp_path):
    # every suite takes --n and --out; only value and override flags are
    # checked against what the selected suites use
    out = tmp_path / "report.json"
    proc = run_cli("verify", "components", "--n", "1", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())[0]["suite"] == "components"


def test_out_into_missing_directory_exits_2(tmp_path):
    proc = run_cli("verify", "braid", "--n", "1", "--out", str(tmp_path / "no" / "report.json"))
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines()[-1].startswith("qlie: error: ")


def test_cross_check_passes():
    proc = run_cli("cross-check", "--n", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "cross-check" and doc["pass"] is True


def test_cross_check_flip_s_sign_fails_at_c_weighted_entry():
    proc = run_cli("cross-check", "--n", "2", "--flip-s-sign")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["pass"] is False
    assert any("C" in w["lhs"] or "C" in w["rhs"] for w in doc["witnesses"])


def test_verify_hecke_is_not_in_all():
    proc = run_cli("verify", "all", "--n", "2")
    suites = [r["suite"] for r in json.loads(proc.stdout)]
    assert "hecke" not in suites
    proc = run_cli("verify", "hecke", "--n", "3")
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "args",
    [*(("--n", str(n)) for n in (1, 2, 3, 4)), ("--n", "3", "--beta=0"), ("--n", "3", "--beta=1")],
    ids=["n1", "n2", "n3", "n4", "beta0", "beta1"],
)
def test_verify_hecke_passes(args):
    # at b = 0 the b*sigma part of the right side vanishes, at b = 1 the (1-b)*id part
    proc = run_cli("verify", "hecke", *args)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["pass"] is True


def test_dump_relations_golden_n1():
    proc = run_cli("dump-relations", "--n", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "rtt 0 0 0 0 : 0"
    assert "rtt 1 1 0 1 : (1)*x1*f(1,1) + (-1)*f(1,1)*x1" in lines
    assert "bcc 4 1 1 1 : (1)*x1*f(1,1) + (-1)*f(1,1)*x1" in lines


def test_bad_flags_exit_2():
    assert run_cli("verify", "braid").returncode == 2  # --n missing
    assert run_cli("verify", "nosuch", "--n", "1").returncode == 2
    assert run_cli("verify", "braid", "--n", "1", "--beta", "x").returncode == 2
    assert run_cli("verify", "braid", "--n", "1", "--corrupt", "junk").returncode == 2


SUMMARY_LINE = re.compile(r"^[\w-]+: (PASS|FAIL) \(", re.MULTILINE)


def test_bad_override_is_rejected_before_any_suite_runs():
    proc = run_cli("verify", "all", "--n", "2", "--corrupt", "(0,1;1,1)=2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not SUMMARY_LINE.search(proc.stderr)
    assert proc.stderr.strip().splitlines()[-1].startswith("qlie: error: ")


def test_main_builds_one_parser(capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["verify", "braid", "--n", "1"]) == 0
    assert cli.main(["verify", "hecke", "--n", "1"]) == 0
    assert cli._build_parser.cache_info().misses == 1


def test_every_override_is_checked_against_every_selected_suite():
    # index 0 exists in braid's extended matrix but not in qlie's braid matrix
    args = cli._build_parser().parse_args(["verify", "braid", "--n", "2", "--corrupt", "(0,1;1,1)=2"])
    assert set(cli._corrupted_inputs(args, ["braid", "ybe"], 2)) == {"braid", "ybe"}
    with pytest.raises(cli.InputError, match="index 0 outside 1..2"):
        cli._corrupted_inputs(args, ["braid", "ybe", "qlie"], 2)


def _masked(text):
    return re.sub(r'"millis": \d+', '"millis": 0', re.sub(r"\d+ ms\)", "0 ms)", text))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "suite, default",
    [
        ("braid", extended_rhat),
        ("ybe", extended_rhat),
        ("cybe", lambda n: from_functional(op_r, SpaceConfig(n))),
        ("qlie", sigma_cg),
    ],
    ids=["braid", "ybe", "cybe", "qlie"],
)
def test_corrupt_overrides_the_matrix_the_suite_checks(suite, default, n):
    # setting an entry of the suite's own matrix to its value changes nothing
    (out, inp), coeff = max((key, c) for key, c in default(n).entries.items() if c != ONE)
    entry = f"({','.join(map(str, out))};{','.join(map(str, inp))})={coeff}"
    plain = run_cli("verify", suite, "--n", str(n))
    same = run_cli("verify", suite, "--n", str(n), "--corrupt", entry)
    assert same.returncode == plain.returncode == 0
    assert _masked(same.stdout) == _masked(plain.stdout)
    assert _masked(same.stderr) == _masked(plain.stderr)


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "rtt", "--n", "2", "--beta", "1/2"),
        ("verify", "rtt", "--n", "2", "--C", "1"),
        ("verify", "rtt", "--n", "2", "--p", "2"),
        ("verify", "rtt", "--n", "2", "--beta", "symbolic"),  # given, though the default
        ("verify", "components", "--n", "2", "--corrupt", "(1,1;1,1)=2"),
        ("verify", "ybfr", "--n", "2", "--corrupt", "(1,1;1,1)=2"),
        ("verify", "hecke", "--n", "2", "--corrupt", "(1,1;1,1)=2"),
        ("verify", "braid", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "ybe", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "cybe", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "components", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "ybfr", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "hecke", "--n", "2", "--corrupt-constants", "(2;1,2)=C"),
        ("verify", "all", "--n", "2", "--beta", "1/2"),
        ("cross-check", "--n", "2", "--beta", "1/2"),
        ("dump-relations", "--n", "1", "--p", "2"),
    ],
    ids=lambda a: " ".join(a),
)
def test_flag_a_selected_suite_ignores_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not SUMMARY_LINE.search(proc.stderr)
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("qlie: error: ") and args[-2] in last


@pytest.mark.parametrize(
    "args, named",
    [
        (("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=b^-1"), "exponent"),
        (("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=C^65536"), "exponent"),
        (("verify", "qlie", "--n", "2", "--corrupt-constants", "(2;1,2)=b^70000"), "exponent"),
        # digits to str.isdigit, not to int(), and more digits than int() converts
        (("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=b^²"), "exponent"),
        (("verify", "braid", "--n", "2", "--corrupt", "(1,2;2,1)=²"), "number"),
        (("verify", "braid", "--n", "2", "--corrupt", f"(1,2;2,1)=b^{'9' * 5000}"), "exponent"),
        (("verify", "braid", "--n", "2", "--corrupt", f"(1,2;2,1)={'9' * 5000}"), "number"),
    ],
    ids=["negative-b", "C-beyond-field", "constant-b-beyond-field", "superscript-exponent",
         "superscript-value", "long-exponent", "long-value"],
)
def test_exponents_outside_their_field_exit_2_with_one_error_line(args, named):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("qlie: error: ")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize("entry", ["(2,2;2,2)", "(1,2;1,2)"])
def test_large_accepted_exponents_chain_exactly(entry):
    # the braid words meet the entry twice, so b^E shows up as b^(2E) + ...;
    # with E = 40000 the witnesses are those of E = 400 with every exponent
    # 400 k + j read as 40000 k + j
    def witnesses(e: int) -> list:
        proc = run_cli("verify", "braid", "--n", "2", "--corrupt", f"{entry}=b^{e}")
        assert proc.returncode == 1
        (report,) = json.loads(proc.stdout)
        return report["witnesses"]

    def scaled(text: str) -> str:
        return re.sub(r"b\^(\d+)", lambda m: f"b^{int(m[1]) // 400 * 40000 + int(m[1]) % 400}", text)

    large = witnesses(40000)
    assert "b^80000" in json.dumps(large)
    assert large == json.loads(scaled(json.dumps(witnesses(400))))


# -- verify all on two processes ---------------------------------------------


def _verify_in_process(monkeypatch, capsys, cpus, *argv):
    """(exit code, or exception type and message; masked stdout; masked stderr)
    of `qlie verify ARGV` through cli.main, with `cpus` CPUs to run on."""
    own_cpus = cli._cpus
    own = own_cpus()
    # two or more: the caller's own CPUs where it has two, which it must get back
    given = own if cpus > 1 and len(own) > 1 else set(range(cpus))
    monkeypatch.setattr(cli, "_cpus", lambda: given)
    try:
        outcome = cli.main(["verify", *argv])
    except Exception as exc:
        outcome = (type(exc), str(exc))
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # the child, if any, is reaped
        os.waitpid(-1, os.WNOHANG)
    assert own_cpus() == own
    return outcome, _masked(out), _masked(err)


def _slow_caller(monkeypatch, log, change=lambda name, run: run):
    """Wrap every suite's runner, first in `change(name, runner)`: each run
    appends its pid to log, and once forked the caller sleeps through each
    suite it takes, so the child runs the rest of the queue."""
    caller = os.getpid()
    for name, suite in list(cli.SUITES.items()):
        def run(*args, run=change(name, suite.run)):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if os.getpid() == caller and len(cli._cpus()) > 1:
                time.sleep(0.2)
            return run(*args)

        monkeypatch.setitem(cli.SUITES, name, suite._replace(run=run))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_all_on_two_processes_prints_what_one_prints(monkeypatch, capsys, n):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(n) or fork())
    two = _verify_in_process(monkeypatch, capsys, 2, "all", "--n", str(n))
    assert forks == [n]
    one = _verify_in_process(monkeypatch, capsys, 1, "all", "--n", str(n))
    assert forks == [n]
    assert two == one
    assert one[0] == 0 and len(json.loads(one[1])) == len(cli.VERIFY_SUITES)


def test_a_failing_report_crosses_the_pipe_intact(monkeypatch, capsys, tmp_path):
    # every suite reports the rtt comparison with a corrupted constant
    constants = structure_constants(3).with_entry(2, 1, 2, Scalar.parse("2C"))
    failing = lambda n, subs, op, ct: rtt.compare_relation_spans(n, bcc_constants=constants)
    log = tmp_path / "pids"
    _slow_caller(monkeypatch, log, lambda name, run: failing)
    two = _verify_in_process(monkeypatch, capsys, 2, "all", "--n", "3")
    assert len(set(log.read_text().split())) == 2  # the child ran suites
    assert two == _verify_in_process(monkeypatch, capsys, 1, "all", "--n", "3")
    code, out, _ = two
    reports = json.loads(out)
    assert code == 1 and len(reports) == len(cli.VERIFY_SUITES)
    assert all(r["witnesses"] and not r["pass"] for r in reports)


# rtt is first in the queue, so the caller mostly takes it; behind the slow
# caller, the child takes ybe
@pytest.mark.parametrize("broken", ["rtt", "ybe"])
def test_a_suite_that_raises_raises_on_both_paths(monkeypatch, capsys, tmp_path, broken):
    def change(name, run):
        if name != broken:
            return run

        def raises(*args):
            raise ValueError(f"{name} is broken")
        return raises

    log = tmp_path / "pids"
    _slow_caller(monkeypatch, log, change)
    two = _verify_in_process(monkeypatch, capsys, 2, "all", "--n", "2")
    assert len(set(log.read_text().split())) == 2
    assert two == _verify_in_process(monkeypatch, capsys, 1, "all", "--n", "2")
    assert two == ((ValueError, f"{broken} is broken"), "", "")


def test_a_suite_whose_child_dies_runs_again_in_the_caller(monkeypatch, capsys, tmp_path):
    caller = os.getpid()

    def change(name, run):
        def dying(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(*args)
        return dying if name == "qlie" else run

    _slow_caller(monkeypatch, tmp_path / "pids", change)
    two = _verify_in_process(monkeypatch, capsys, 2, "all", "--n", "2")
    assert two == _verify_in_process(monkeypatch, capsys, 1, "all", "--n", "2")
    assert two[0] == 0


def test_verify_all_does_not_fork_beside_another_thread(monkeypatch, capsys):
    def fork():
        raise AssertionError("forked beside a thread")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        two = _verify_in_process(monkeypatch, capsys, 2, "all", "--n", "2")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert two == _verify_in_process(monkeypatch, capsys, 1, "all", "--n", "2")
    assert two[0] == 0
