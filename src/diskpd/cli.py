"""Command-line interface.

Subcommands:
  check   read a disk collection from JSON, report admissibility, overlap,
          the positivity verdict with its certificate, and optionally the
          first uniform radius scale at which positivity is lost
  rho     tabulate the maximal radius, its bounds and overlap coefficient
          over a range of n, as text or CSV
  verify  run the built-in verification suites

Exit codes: 0 success, 1 verification failure, 2 usage/schema error,
3 admissibility rejection under --strict-admissible.  All output is
deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import radius, verify
from .core import (
    DiskCollection,
    GaussianRational,
    Verdict,
    _read_scalar,
    build_q_matrix,
    is_admissible,
    is_positive_definite,
    max_uniform_scale,
    overlap_measure,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3


class SchemaError(Exception):
    """Field-targeted error in a collection document."""


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _json_number(x: float) -> float | None:
    """x to the 12 digits that text output prints, or null where x is not
    finite: JSON has no inf."""
    return float(_fmt(x)) if math.isfinite(x) else None


def _parse_component(value, idx: int, field: str) -> tuple[Fraction | None, float]:
    """The exact and floating views, read once by core's _read_scalar, of a
    JSON number or of a string like "3/4" for exact rational input, the
    field of disk idx."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"disks[{idx}].{field}: must be a number or rational string")
    try:
        return _read_scalar(value)
    except (ValueError, ZeroDivisionError) as exc:  # a string that is no rational literal
        raise SchemaError(f"disks[{idx}].{field}: invalid rational literal {value!r}") from exc


def parse_collection_document(text: str) -> tuple[DiskCollection, dict]:
    """Parse the JSON collection document; raises SchemaError with the
    offending field path on any violation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document: must be a JSON object")
    disks = doc.get("disks")
    if not isinstance(disks, list) or not disks:
        raise SchemaError("disks: must be a non-empty list")
    metadata = doc.get("metadata", {})
    if metadata and not isinstance(metadata, dict):
        raise SchemaError("metadata: must be an object")

    exact_centers, centers, exact_radii, radii = [], [], [], []
    nonfinite = None  # the first field not finite as a double, reported after every schema error
    for idx, disk in enumerate(disks):
        if not isinstance(disk, dict):
            raise SchemaError(f"disks[{idx}]: must be an object")
        center = disk.get("center")
        if not isinstance(center, list) or len(center) != 2:
            raise SchemaError(f"disks[{idx}].center: must be a [re, im] pair")
        a, x = _parse_component(center[0], idx, "center[0]")
        b, y = _parse_component(center[1], idx, "center[1]")
        if "radius" not in disk:
            raise SchemaError(f"disks[{idx}].radius: missing")
        exact, rad = _parse_component(disk["radius"], idx, "radius")
        if not (rad > 0 if exact is None else exact > 0):
            raise SchemaError(f"disks[{idx}].radius: must be positive")
        z = complex(x, y)
        if nonfinite is None and not (cmath.isfinite(z) and math.isfinite(rad)):
            nonfinite = f"disks[{idx}].{'radius' if cmath.isfinite(z) else 'center'}"
        exact_centers.append(None if a is None or b is None else GaussianRational(a, b))
        centers.append(z)
        exact_radii.append(exact)
        radii.append(rad)
    if nonfinite is not None:
        # no digits are echoed: an exact value can have many
        raise SchemaError(f"{nonfinite}: not finite as a double")
    try:
        collection = DiskCollection._of_views(exact_centers, centers, exact_radii, radii)
    except ValueError as exc:
        raise SchemaError(f"disks: {exc}") from exc
    return collection, metadata


def _minor_strings(minors) -> list[str]:
    """Minors in full, past Python's int-to-str digit limit (lifted for this call only)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit in this Python
    if not limit:
        return [str(m) for m in minors]
    sys.set_int_max_str_digits(0)
    try:
        return [str(m) for m in minors]
    finally:
        sys.set_int_max_str_digits(limit)


def _certificate_payload(report) -> dict:
    payload: dict = {"tolerance": report.tolerance_used}
    if report.pivots is not None:
        payload["pivots"] = list(report.pivots)
    if report.minors is not None:
        payload["leading_minors"] = _minor_strings(report.minors)
    if report.failing_index is not None:
        payload["failing_index"] = report.failing_index
    return payload


def cmd_check(args) -> int:
    if not 0 < args.tol < math.inf:
        print(f"error: --tol must be positive and finite, got {args.tol!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        collection, _ = parse_collection_document(text)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    admissible = is_admissible(collection)
    if args.strict_admissible and not admissible:
        print("error: collection is not admissible (--strict-admissible)", file=sys.stderr)
        return EXIT_INADMISSIBLE

    mode = args.mode
    if mode == "auto":
        mode = "exact" if collection.is_exact else "floating"
    if mode == "exact" and not collection.is_exact:
        print("error: exact mode needs rational centers and radii", file=sys.stderr)
        return EXIT_USAGE

    if collection.is_exact and len(set(collection.centers)) < collection.n:
        # distinct rational centers that round to one double: beta and
        # --scale read the float values, and a floating build needs them
        print("error: disks: centers must be pairwise distinct", file=sys.stderr)
        return EXIT_USAGE
    source = collection
    if mode == "floating" and collection.is_exact:
        # the floating decision runs on E, which only a floating build makes
        source = DiskCollection(collection.centers, collection.radii)
    matrix = build_q_matrix(source)
    report = is_positive_definite(matrix, mode=mode, tol=args.tol)
    beta = overlap_measure(collection) if collection.n >= 2 else None
    try:
        scale = max_uniform_scale(collection) if args.scale else None
    except (ValueError, RuntimeError) as exc:
        why = "left the double range" if isinstance(exc, ValueError) else "could not bracket the scale"
        print(f"error: --scale: the scale search {why}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        payload = {
            "n": collection.n,
            "exact_input": collection.is_exact,
            "admissible": admissible,
            "beta": None if beta is None else _json_number(beta),
            "mode": mode,
            "verdict": report.verdict.value,
            "certificate": _certificate_payload(report),
        }
        if scale is not None:
            payload["max_uniform_scale"] = _json_number(scale)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"disks:       {collection.n} (exact input: {'yes' if collection.is_exact else 'no'})")
        print(f"admissible:  {'yes' if admissible else 'no'}")
        if beta is not None:
            print(f"beta:        {_fmt(beta)}")
        print(f"verdict:     {report.verdict.value} (mode={mode})")
        if report.pivots is not None:
            print(f"pivots:      {' '.join(_fmt(p) for p in report.pivots)}")
        if report.minors is not None:
            print(f"minors:      {' '.join(_minor_strings(report.minors))}")
        if report.failing_index is not None:
            print(f"failing idx: {report.failing_index}")
        if scale is not None:
            print(f"max scale:   {_fmt(scale)}")
    return EXIT_OK


_PRECISION = 1e-13  # the default and coarsest --precision
_RHO_COLUMNS = ("n", "rho", "mu", "lower_bound", "upper_bound", "beta", "n_rho")


def _rho_rows(ns, precision):
    rows = []
    for n in ns:
        res = radius.maximal_radius(n, precision)
        rows.append(
            (
                str(n),
                _fmt(res.rho),
                _fmt(res.mu),
                _fmt(res.lower_bound),
                _fmt(res.upper_bound),
                _fmt(res.beta),
                _fmt(n * res.rho),
            )
        )
    return rows


def cmd_rho(args) -> int:
    if args.n is not None:
        ns = [args.n]
    else:
        try:
            lo_text, hi_text = args.n_range.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            print(f"error: invalid range {args.n_range!r}, expected LO:HI", file=sys.stderr)
            return EXIT_USAGE
        if lo > hi:
            print(f"error: empty range {args.n_range!r}", file=sys.stderr)
            return EXIT_USAGE
        ns = list(range(lo, hi + 1))
    if any(n < 2 for n in ns):
        print("error: n must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if not 0 < args.precision < math.inf:
        print(f"error: --precision must be positive and finite, got {args.precision!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.precision > _PRECISION:
        # a wider interval than the default prints digits that are not rho's
        print(f"error: --precision must be at most {_PRECISION:g}, got {args.precision!r}", file=sys.stderr)
        return EXIT_USAGE

    rows = _rho_rows(ns, args.precision)
    if args.limits:
        j11 = radius.bessel_j1_first_zero()
        rows.append(("limit", "", "", "", "", _fmt(j11 / math.pi), _fmt(j11)))

    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_RHO_COLUMNS)
        writer.writerows(rows)
        sys.stdout.write(buffer.getvalue())
    else:
        widths = [
            max(len(col), max(len(row[i]) for row in rows))
            for i, col in enumerate(_RHO_COLUMNS)
        ]
        print("  ".join(col.rjust(widths[i]) for i, col in enumerate(_RHO_COLUMNS)))
        for row in rows:
            print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        suite = verify.SUITES[name]
        kwargs = {}
        if name in ("core", "orthopoly", "symmetric", "triangle"):
            kwargs["seed"] = args.seed
        if args.nmax is not None and name in ("symmetric", "orthopoly", "radius"):
            kwargs["nmax"] = max(2, args.nmax)
        if args.nmax is not None and name == "core":
            kwargs["nmax"] = max(2, min(args.nmax, 8))
        for result in suite(**kwargs):
            if result.informational:
                tag = "INFO"
            elif result.passed:
                tag = "PASS"
            else:
                tag = "FAIL"
                failures += 1
            line = f"{tag} {result.name}"
            if result.detail:
                line += f": {result.detail}"
            print(line)
    total = "ok" if failures == 0 else f"{failures} failure(s)"
    print(f"verify: {total}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


class _Command(NamedTuple):
    """One command of the table: its help line, its positional argument as
    (dest, help) or None, its options as argparse keywords by flag, in the
    order that usage and help list them, and the flags of its required pair
    of mutually exclusive options, if it has one."""

    help: str
    positional: tuple[str, str] | None
    options: dict[str, dict]
    one_of: tuple[str, ...] = ()


_COMMANDS = {
    "check": _Command(
        "check a JSON disk collection",
        ("input", "path to a JSON document, or - for stdin"),
        {
            "--mode": dict(
                choices=("auto", "floating", "exact"),
                default="auto",
                help="decision arithmetic (auto: exact when the input is rational)",
            ),
            "--tol": dict(type=float, default=1e-10, help="floating pivot tolerance"),
            "--scale": dict(action="store_true", help="also compute the first radius scale where positivity is lost"),
            "--strict-admissible": dict(action="store_true", help="reject non-admissible collections with exit code 3"),
            "--format": dict(choices=("text", "json"), default="text"),
        },
    ),
    "rho": _Command(
        "maximal radius table",
        None,
        {
            "--n": dict(type=int, help="single n"),
            "--n-range": dict(help="inclusive range LO:HI"),
            "--precision": dict(type=float, default=_PRECISION),
            "--csv": dict(action="store_true", help="emit CSV instead of a table"),
            "--limits": dict(action="store_true", help="append the Bessel-zero limit row"),
        },
        one_of=("--n", "--n-range"),
    ),
    "verify": _Command(
        "run verification suites",
        None,
        {
            "--suite": dict(choices=tuple(verify.SUITES) + ("all",), default="all"),
            "--nmax": dict(type=int, default=None, help="cap the symmetric/orthopoly/radius ranges"),
            "--seed": dict(type=int, default=0, help="seed for randomized checks"),
        },
    ),
}


def _function(name: str):
    """cmd_<name>, looked up at each call, so that a rebinding of the module
    name (a test's stub, a tracer's wrapper) is the function that runs."""
    return globals()[f"cmd_{name}"]


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The arguments and function of command name, from its table entry."""
    command = _COMMANDS[name]
    if command.positional:
        dest, help_line = command.positional
        parser.add_argument(dest, help=help_line)
    group = parser.add_mutually_exclusive_group(required=True) if command.one_of else None
    for flag, option in command.options.items():
        (group if flag in command.one_of else parser).add_argument(flag, **option)
    parser.set_defaults(func=_function(name))


def build_parser() -> argparse.ArgumentParser:
    """The diskpd parser with every subcommand.  main builds it only for a
    command line that _read_argv does not read, to parse it or to write
    help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="diskpd",
        description="Positive definiteness of disk collections and maximal n-gon radii",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.help), name)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The Namespace that the parser of command argv[0] gives a canonical
    command line, read from the table without building a parser, or None
    for any other argv.

    Canonical: a command, then, in any order, its options in their exact
    spellings, each value option followed by a value that does not start
    with "-", and as many positional tokens as the command takes, each "-"
    or one that does not start with "-".  Every value passes its option's
    converter and choices, and a required pair is given exactly one member;
    a repeated option keeps its last value, as in argparse.  argparse reads
    every such argv to this Namespace (the full parser adds command), and
    main hands every other argv to argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        option = command.options.get(token)
        if option is None:
            if token.startswith("-") and token != "-":
                return None
            positionals.append(token)
        elif option.get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, "-")  # a missing value reads as one that starts with "-"
            if value.startswith("-"):
                return None
            try:
                value = option.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in option and value not in option["choices"]:
                return None
            given[token] = value
    if len(positionals) != (command.positional is not None):
        return None
    if command.one_of and sum(flag in given for flag in command.one_of) != 1:
        return None
    args = {command.positional[0]: positionals[0]} if command.positional else {}
    for flag, option in command.options.items():
        default = False if option.get("action") == "store_true" else option.get("default")
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return argparse.Namespace(**args, func=_function(argv[0]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        # help, an error, or an argv that only argparse reads: the full
        # parser writes what argparse always wrote
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors; normalize for callers
            return int(exc.code) if exc.code is not None else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())  # unrun: only the untraced subprocess of TestEntryPoint runs it
