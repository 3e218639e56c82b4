"""Command-line front end: generate matrices, run suites, export reports.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on bad flags.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import checks, rtt
from .cg import StructureTensor, extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from .laurent import SpaceConfig, op_r
from .operators import Operator, from_functional
from .scalars import Scalar, ScalarParseError

VERIFY_SUITES = ("braid", "ybe", "cybe", "components", "ybfr", "qlie", "rtt")

# the flags each suite uses; giving a selected suite any other flag exits 2
_VALUES = ("--beta", "--C", "--p")
SUITE_FLAGS = {
    "braid": (*_VALUES, "--corrupt"),
    "ybe": (*_VALUES, "--corrupt"),
    "cybe": (*_VALUES, "--corrupt"),
    "components": _VALUES,
    "ybfr": _VALUES,
    "qlie": (*_VALUES, "--corrupt", "--corrupt-constants"),
    "rtt": ("--corrupt-constants",),
    "hecke": _VALUES,
}


class InputError(Exception):
    """A flag value that parses but cannot be used; exits 2 like a bad flag."""


@dataclass
class Config:
    n: int
    beta: Optional[Fraction] = None  # None means symbolic
    c: Optional[Fraction] = None
    p: Optional[Fraction] = None
    fmt: str = "json"
    out: Optional[str] = None

    @property
    def subs(self) -> Optional[dict]:
        subs = {}
        if self.beta is not None:
            subs["beta"] = self.beta
        if self.c is not None:
            subs["c"] = self.c
        if self.p is not None:
            subs["p"] = self.p
        return subs or None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(parser, args)
    try:
        if args.command == "gen":
            return _cmd_gen(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        if args.command == "cross-check":
            return _cmd_cross_check(args, cfg)
        if args.command == "dump-relations":
            return _cmd_dump(args, cfg)
    except (ScalarParseError, InputError) as exc:
        parser.error(str(exc))
    raise AssertionError(f"unhandled command {args.command}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlie",
        description="Generate and verify the Cremmer-Gervais quantum Lie algebra data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="space size, >= 1")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    def values(p: argparse.ArgumentParser) -> None:
        p.add_argument("--beta", default="symbolic", help="rational value for b, or 'symbolic'")
        p.add_argument("--C", dest="c", default="symbolic", help="rational value for C, or 'symbolic'")
        p.add_argument("--p", default="symbolic", help="nonzero rational value for p, or 'symbolic'")

    gen = sub.add_parser("gen", help="emit a matrix or the structure constants")
    gen.add_argument("target", choices=("sigma", "sigma-family", "extended", "constants"))
    common(gen)
    values(gen)
    gen.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("suite", choices=VERIFY_SUITES + ("hecke", "all"))
    common(ver)
    values(ver)
    ver.add_argument(
        "--corrupt",
        default=None,
        metavar="(I,J;K,L)=COEFF",
        help="override one entry of the operator under test (mutation testing)",
    )
    ver.add_argument(
        "--corrupt-constants",
        default=None,
        metavar="(K;I,J)=COEFF",
        help="override one structure constant (mutation testing)",
    )

    cross = sub.add_parser("cross-check", help="functional matrix vs closed-form blocks")
    common(cross)
    cross.add_argument(
        "--flip-s-sign",
        action="store_true",
        help="negate the C-term of the functional operator (mutation testing)",
    )

    dump = sub.add_parser("dump-relations", help="dump every exchange and calculus relation")
    common(dump)
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Config:
    if args.n < 1:
        parser.error(f"--n must be >= 1, got {args.n}")

    def rational(text: str, flag: str) -> Optional[Fraction]:
        if text == "symbolic":
            return None
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            parser.error(f"{flag} expects a rational number or 'symbolic', got {text!r}")

    beta = rational(getattr(args, "beta", "symbolic"), "--beta")
    c = rational(getattr(args, "c", "symbolic"), "--C")
    p = rational(getattr(args, "p", "symbolic"), "--p")
    if p is not None and p == 0:
        parser.error("--p must be nonzero")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"--out {args.out!r}: no such directory")
    return Config(
        n=args.n,
        beta=beta,
        c=c,
        p=p,
        fmt=getattr(args, "fmt", "json"),
        out=args.out,
    )


def _emit(text: str, cfg: Config) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"--out {cfg.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# -- gen ---------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace, cfg: Config) -> int:
    target = args.target
    if target == "constants":
        tensor = structure_constants(cfg.n)
        if cfg.subs:
            entries = {
                key: coeff.substitute(**cfg.subs)
                for key, coeff in tensor.entries.items()
            }
            tensor = StructureTensor(cfg.n, entries)
        text = {"json": tensor.to_json, "csv": tensor.to_csv, "text": tensor.to_text}[cfg.fmt]()
        _emit(text, cfg)
        return 0
    builder = {
        "sigma": sigma_cg,
        "sigma-family": sigma_cg_family,
        "extended": extended_rhat,
    }[target]
    op = builder(cfg.n)
    if cfg.subs:
        op = op.map_entries(lambda s: s.substitute(**cfg.subs))
    text = {"json": op.to_json, "csv": op.to_csv, "text": op.to_text}[cfg.fmt]()
    _emit(text, cfg)
    return 0


# -- verify ------------------------------------------------------------------


def _parse_entry_override(text: str) -> tuple[tuple[int, ...], tuple[int, ...], Scalar]:
    m = re.fullmatch(r"\s*\(([\d\s,]+);([\d\s,]+)\)\s*=\s*(.+)", text)
    if not m:
        raise ScalarParseError(f"bad entry override {text!r}", 0)
    out = _indices(m.group(1), f"entry override {text!r}")
    inp = _indices(m.group(2), f"entry override {text!r}")
    return out, inp, Scalar.parse(m.group(3))


def _parse_constant_override(text: str) -> tuple[int, tuple[int, int], Scalar]:
    m = re.fullmatch(r"\s*\((\d+)\s*;([\d\s,]+)\)\s*=\s*(.+)", text)
    if not m:
        raise ScalarParseError(f"bad constant override {text!r}", 0)
    lower = _indices(m.group(2), f"constant override {text!r}")
    if len(lower) != 2:
        raise ScalarParseError(f"bad constant override {text!r}", 0)
    return int(m.group(1)), lower, Scalar.parse(m.group(3))


def _indices(field: str, what: str) -> tuple[int, ...]:
    """Comma-separated indices; an empty or space-split field is an input error."""
    parts = field.split(",")
    if not all(re.fullmatch(r"\s*\d+\s*", part) for part in parts):
        raise InputError(f"bad {what}: every index must be one nonnegative integer")
    return tuple(int(part) for part in parts)


def _run_one_suite(
    name: str,
    cfg: Config,
    op: Optional[Operator] = None,
    constants: Optional[StructureTensor] = None,
) -> checks.VerificationReport:
    """Run one suite; op and constants replace its defaults when given."""
    subs = cfg.subs
    if name == "braid":
        return checks.suite_braid(cfg.n, subs, rhat=op)
    if name == "ybe":
        return checks.suite_ybe(cfg.n, subs, rhat=op)
    if name == "cybe":
        return checks.suite_cybe(cfg.n, subs, r_matrix=op)
    if name == "components":
        return checks.check_component_identities(cfg.n, subs)
    if name == "ybfr":
        return checks.check_quadratic_ybe_components(cfg.n, subs)
    if name == "qlie":
        return checks.suite_qlie(cfg.n, subs, sigma=op, constants=constants)
    if name == "rtt":
        return rtt.compare_relation_spans(cfg.n, bcc_constants=constants)
    if name == "hecke":
        return checks.suite_hecke(cfg.n, subs)
    raise AssertionError(f"unhandled suite {name}")


def _corrupt_target(name: str, n: int) -> Operator:
    """The operator whose entry `--corrupt` overrides in the named suite."""
    if name in ("braid", "ybe"):
        return extended_rhat(n)
    if name == "cybe":
        return from_functional(op_r, SpaceConfig(n))
    if name == "qlie":
        return sigma_cg(n)
    raise AssertionError(f"suite {name} takes no --corrupt")


def _reject_unused_flags(args: argparse.Namespace, names: list[str]) -> None:
    given = [
        flag
        for flag, value, unset in (
            ("--beta", args.beta, "symbolic"),
            ("--C", args.c, "symbolic"),
            ("--p", args.p, "symbolic"),
            ("--corrupt", args.corrupt, None),
            ("--corrupt-constants", args.corrupt_constants, None),
        )
        if value != unset
    ]
    for flag in given:
        ignoring = [name for name in names if flag not in SUITE_FLAGS[name]]
        if ignoring:
            suites = "suite" if len(ignoring) == 1 else "suites"
            raise InputError(
                f"{flag} has no effect on {suites} {', '.join(ignoring)}; "
                f"select only suites that use it"
            )


def _corrupted_inputs(args: argparse.Namespace, names: list[str], n: int) -> dict[str, dict]:
    """Apply every override for every selected suite, before any suite runs.

    Returns per suite the keyword arguments of `_run_one_suite`.
    """
    inputs: dict[str, dict] = {name: {} for name in names}
    if args.corrupt:
        out, inp, coeff = _parse_entry_override(args.corrupt)
        for name in names:
            try:
                inputs[name]["op"] = _corrupt_target(name, n).with_entry(out, inp, coeff)
            except ValueError as exc:
                raise InputError(f"--corrupt {args.corrupt!r}: {exc}") from None
    if args.corrupt_constants:
        upper, lower, coeff = _parse_constant_override(args.corrupt_constants)
        try:
            constants = structure_constants(n).with_entry(upper, lower[0], lower[1], coeff)
        except ValueError as exc:
            raise InputError(f"--corrupt-constants {args.corrupt_constants!r}: {exc}") from None
        for name in names:
            inputs[name]["constants"] = constants
    return inputs


def _cmd_verify(args: argparse.Namespace, cfg: Config) -> int:
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    _reject_unused_flags(args, names)
    inputs = _corrupted_inputs(args, names, cfg.n)
    reports = [_run_one_suite(name, cfg, **inputs[name]) for name in names]
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    _emit(payload, cfg)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{report.suite}: {status} ({report.checked} checked, "
            f"{report.failures} failures, {report.millis} ms)",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_cross_check(args: argparse.Namespace, cfg: Config) -> int:
    report = checks.suite_cross_check(cfg.n, flip_s_sign=args.flip_s_sign)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", cfg)
    status = "PASS" if report.passed else "FAIL"
    print(f"cross-check: {status} ({report.failures} failures)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_dump(args: argparse.Namespace, cfg: Config) -> int:
    _emit(rtt.dump_relations(cfg.n), cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
