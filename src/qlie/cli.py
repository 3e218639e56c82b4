"""Command-line front end: generate matrices, run suites, export reports.

`verify` runs its suites as jobs of `checks._run_jobs`, the one fork queue,
which also splits a large `checks.check_identities` call into its two
routes: on the caller and one forked child when the process may run on two
CPUs, in order otherwise.  `verify all` forks once there and pins each of
its two processes to one CPU, so on two CPUs no route split nests in it.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on bad flags.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

from . import checks, rtt
from .cg import StructureTensor, extended_rhat, sigma_cg, sigma_cg_family, structure_constants
from .operators import Operator
from .scalars import Scalar, ScalarParseError


class Suite(NamedTuple):
    """How `verify` runs one suite.

    `run(n, subs, op, constants)` runs it, op and constants replacing its
    defaults when given; it looks the suite up when called, so a wrapped
    suite runs.  `flags` are the flags it uses; giving a selected suite any
    other one exits 2.  `--corrupt` overrides an entry of the suite's
    `checks.DEFAULT_INPUTS`.
    """

    run: Callable[..., checks.VerificationReport]
    flags: tuple[str, ...]


_VALUES = ("--beta", "--C", "--p")
_CORRUPT = (*_VALUES, "--corrupt")
SUITES = {
    "braid": Suite(lambda n, subs, op, ct: checks.suite_braid(n, subs, rhat=op), _CORRUPT),
    "ybe": Suite(lambda n, subs, op, ct: checks.suite_ybe(n, subs, rhat=op), _CORRUPT),
    "cybe": Suite(lambda n, subs, op, ct: checks.suite_cybe(n, subs, r_matrix=op), _CORRUPT),
    "components": Suite(lambda n, subs, op, ct: checks.check_component_identities(n, subs),
                        _VALUES),
    "ybfr": Suite(lambda n, subs, op, ct: checks.check_quadratic_ybe_components(n, subs),
                  _VALUES),
    "qlie": Suite(lambda n, subs, op, ct: checks.suite_qlie(n, subs, sigma=op, constants=ct),
                  (*_CORRUPT, "--corrupt-constants")),
    "rtt": Suite(lambda n, subs, op, ct: rtt.compare_relation_spans(n, bcc_constants=ct),
                 ("--corrupt-constants",)),
    "hecke": Suite(lambda n, subs, op, ct: checks.suite_hecke(n, subs), _VALUES),
}
# `verify all` runs every suite but the exploratory hecke
VERIFY_SUITES = tuple(name for name in SUITES if name != "hecke")


class InputError(Exception):
    """A flag value that argparse takes but that cannot be read or used; exits 2 like a bad flag."""


class _Once(argparse.Action):
    """Store a value flag and list it in `args.given`; giving it again is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", [])
        if self.option_strings[0] in given:
            raise InputError(f"{self.option_strings[0]} given more than once; give it once")
        given.append(self.option_strings[0])
        setattr(namespace, self.dest, values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.run(args)
    except InputError as exc:  # the one way a bad value exits 2
        parser.error(str(exc))


@cache  # once, on first use: at import it would slow every import, and each build leaves cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlie",
        description="Generate and verify the Cremmer-Gervais quantum Lie algebra data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, action=_Once, help="space size, >= 1")
        p.add_argument("--out", action=_Once, default=None,
                       help="write output to this file instead of stdout")

    def values(p: argparse.ArgumentParser) -> None:
        value = partial(p.add_argument, action=_Once, default="symbolic")
        value("--beta", help="rational value for b, or 'symbolic'")
        value("--C", dest="c", help="rational value for C, or 'symbolic'")
        value("--p", help="nonzero rational value for p, or 'symbolic'")

    gen = sub.add_parser("gen", help="emit a matrix or the structure constants")
    gen.add_argument("target", choices=("sigma", "sigma-family", "extended", "constants"))
    common(gen)
    values(gen)
    gen.add_argument("--format", dest="fmt", action=_Once, choices=("json", "csv", "text"),
                     default="json")
    gen.set_defaults(run=_cmd_gen)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("suite", choices=(*SUITES, "all"))
    common(ver)
    values(ver)
    ver.add_argument(
        "--corrupt",
        action=_Once,
        default=None,
        metavar="(I,J;K,L)=COEFF",
        help="override one entry of the operator under test (mutation testing)",
    )
    ver.add_argument(
        "--corrupt-constants",
        action=_Once,
        default=None,
        metavar="(K;I,J)=COEFF",
        help="override one structure constant (mutation testing)",
    )
    ver.set_defaults(run=_cmd_verify)

    cross = sub.add_parser("cross-check", help="functional matrix vs closed-form blocks")
    common(cross)
    cross.add_argument(
        "--flip-s-sign",
        action="store_true",
        help="negate the C-term of the functional operator (mutation testing)",
    )
    cross.set_defaults(run=_cmd_cross_check)

    dump = sub.add_parser("dump-relations", help="dump every exchange and calculus relation")
    common(dump)
    dump.set_defaults(run=_cmd_dump)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Raise InputError on a value the run cannot use; set `args.subs`, the
    values of beta, c and p given, or None when all are symbolic."""
    if args.n < 1:
        raise InputError(f"--n must be >= 1, got {args.n}")

    def rational(text: str, flag: str) -> Optional[Fraction]:
        if text == "symbolic":
            return None
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{flag} expects a rational number or 'symbolic', got {text!r}") from None

    values = {
        key: value
        for key, flag in (("beta", "--beta"), ("c", "--C"), ("p", "--p"))
        if (value := rational(getattr(args, key, "symbolic"), flag)) is not None
    }
    if values.get("p") == 0:
        raise InputError("--p must be nonzero")
    if args.out == "":
        raise InputError("--out '': expected a file path")
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InputError(f"--out {args.out!r}: no such directory")
    if args.out is not None and os.path.isdir(args.out):
        raise InputError(f"--out {args.out!r}: is a directory")
    args.subs = values or None


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"--out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json(doc: object) -> str:
    """The text of every JSON document qlie writes: two-space indent and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


# -- gen ---------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    build = {
        "sigma": sigma_cg,
        "sigma-family": sigma_cg_family,
        "extended": extended_rhat,
        "constants": structure_constants,
    }[args.target]
    built = build(args.n)
    if args.subs:
        built = built.map_entries(lambda s: s.substitute(**args.subs))
    export = {"json": lambda: _json(built.to_json_dict()), "csv": built.to_csv, "text": built.to_text}
    _emit(export[args.fmt](), args)
    return 0


# -- verify ------------------------------------------------------------------


def _override(text: str) -> tuple[tuple[int, ...], tuple[int, ...], Scalar]:
    """The two index tuples and the coefficient of "(INDICES;INDICES)=COEFF"."""
    m = re.fullmatch(r"\s*\(([\d\s,]+);([\d\s,]+)\)\s*=\s*(.+)", text)
    if not m:
        raise ValueError("expected (INDICES;INDICES)=COEFF")
    try:
        upper, lower = (tuple(map(int, field.split(","))) for field in (m[1], m[2]))
    except ValueError:  # an empty or space-split index, or more digits than int() takes
        raise ValueError("every index must be one nonnegative integer") from None
    try:
        return upper, lower, Scalar.parse(m[3])
    except ScalarParseError as exc:  # its position in the whole text
        raise ScalarParseError(exc.message, exc.pos + m.start(3)) from None


def _reject_unused_flags(args: argparse.Namespace, names: list[str]) -> None:
    """Each value or override flag given must be one every selected suite uses."""
    for flag in getattr(args, "given", []):
        if flag in ("--n", "--out"):  # every suite takes these
            continue
        ignoring = [name for name in names if flag not in SUITES[name].flags]
        if ignoring:
            suites = "suite" if len(ignoring) == 1 else "suites"
            raise InputError(
                f"{flag} has no effect on {suites} {', '.join(ignoring)}; "
                f"select only suites that use it"
            )


def _corrupted_inputs(
    args: argparse.Namespace, n: int
) -> tuple[Optional[Operator], Optional[StructureTensor]]:
    """The arguments op and constants of the runner of `args.suite`, each
    None or overridden, before any suite runs.  `_reject_unused_flags`
    refuses every override under `verify all`, so one reaches one suite."""
    op = constants = None
    if args.corrupt is not None:
        try:
            out, inp, coeff = _override(args.corrupt)
            if len(out) != 2 or len(inp) != 2:
                raise ValueError("expected (I,J;K,L)=COEFF")
            op = checks.DEFAULT_INPUTS[args.suite](n).with_entry(out, inp, coeff)
        except ValueError as exc:
            raise InputError(f"--corrupt {args.corrupt!r}: {exc}") from None
    if args.corrupt_constants is not None:
        try:
            upper, lower, coeff = _override(args.corrupt_constants)
            if len(upper) != 1 or len(lower) != 2:
                raise ValueError("expected (K;I,J)=COEFF")
            constants = structure_constants(n).with_entry(*upper, *lower, coeff)
        except ValueError as exc:
            raise InputError(f"--corrupt-constants {args.corrupt_constants!r}: {exc}") from None
    return op, constants


def _run_suites(
    names: list[str], run: Callable[[str], checks.VerificationReport]
) -> list[checks.VerificationReport]:
    """run(name) for each name, in order, as jobs of `checks._run_jobs`:
    on two processes when it can, `rtt`, the last, first."""
    jobs = [lambda name=name: vars(run(name)) for name in names]
    return [checks.VerificationReport(**fields) for fields in checks._run_jobs(jobs)]


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    _reject_unused_flags(args, names)
    op, constants = _corrupted_inputs(args, args.n)
    reports = _run_suites(names, lambda name: SUITES[name].run(args.n, args.subs, op, constants))
    _emit(_json([r.to_json_dict() for r in reports]), args)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{report.suite}: {status} ({report.checked} checked, "
            f"{report.failures} failures, {report.millis} ms)",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_cross_check(args: argparse.Namespace) -> int:
    report = checks.suite_cross_check(args.n, flip_s_sign=args.flip_s_sign)
    _emit(_json(report.to_json_dict()), args)
    status = "PASS" if report.passed else "FAIL"
    print(f"cross-check: {status} ({report.failures} failures)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_dump(args: argparse.Namespace) -> int:
    _emit(rtt.dump_relations(args.n), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
