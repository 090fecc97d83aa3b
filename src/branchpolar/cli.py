"""Command-line interface: predict / verify / example."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from . import polar, verify
from .charclass import parse_char
from .errors import BranchPolarError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4  # a fault of the program once argv is checked, not a usage error

WORKED_EXAMPLES = {"ex1": "12,16,31", "ex2": "10,14,15"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as JSON and returns 1, not argparse's 2
        raise argparse.ArgumentError(None, message)


def _emit(write, args) -> None:
    """Put the document that the writer ``write(put)`` writes, a prediction
    or a report in any format, then one newline, to stdout or to --output.
    Every writer makes its checks before its first piece, and --output is
    opened "w" only at that piece, so a refused document leaves an existing
    file as it was."""
    if args.output is None:
        write(sys.stdout.write)
        sys.stdout.write("\n")
        return
    fh = None

    def put(piece):
        nonlocal fh
        if fh is None:
            fh = open(args.output, "w")
        fh.write(piece)

    try:
        write(put)
        put("\n")
    finally:
        if fh is not None:
            fh.close()


# ---------------------------------------------------------------------------
# subcommands: operands read off argv and checked before any work, then handlers
# ---------------------------------------------------------------------------


def _class_and_order(args) -> tuple:
    cs = parse_char(WORKED_EXAMPLES[args.name] if args.command == "example" else args.char)
    return cs, polar.check_order(cs, args.k)


def _class_order_and_seeds(args) -> tuple:
    seeds = verify.check_seeds(int(v) for v in args.seeds.split(","))
    return (*_class_and_order(args), seeds)


def _cmd_predict(args, cs, k) -> int:
    prediction = polar.predict(cs, k)
    if args.format == "json":
        _emit(prediction.to_json, args)
    elif args.format == "dot":
        _emit(polar.export_eggers_wall(prediction, include_branch=not args.no_branch).to_dot, args)
    else:
        _emit(prediction.to_text, args)
    return EXIT_OK


def _cmd_verify(args, cs, k, seeds) -> int:
    report = verify.verify_prediction(cs, k, seeds)
    _emit(report.to_json if args.format == "json" else report.to_text, args)
    return {"PASS": EXIT_OK, "FAIL": EXIT_FAIL}.get(report.verdict, EXIT_UNKNOWN)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, formats):
    sub.add_argument("--format", choices=formats, default=formats[0],
                     help=f"output format (default {formats[0]})")
    sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    sub.add_argument("--quiet", action="store_true", help="suppress the version banner")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's parser by its name."""
    parser = _Parser(prog="branchpolar",
                     description="Equisingularity data of generic higher-order polars "
                                 "of plane branches.")
    parser.add_argument("--version", action="version", version=f"branchpolar {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="factor structure of the generic k-th polar")
    p.add_argument("char", metavar="CHAR", help="characteristic b0,b1,...")
    p.add_argument("--k", type=int, required=True, help="derivative order, 1 <= k < b0")
    p.add_argument("--no-branch", action="store_true",
                   help="omit the branch and semiroots from the Eggers-Wall tree")
    _add_common(p, ["text", "json", "dot"])
    p.set_defaults(operands=_class_and_order, func=_cmd_predict)

    v = subs.add_parser("verify", help="check the prediction against exact witnesses")
    v.add_argument("char", metavar="CHAR", help="characteristic b0,b1,...")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated witness seeds")
    _add_common(v, ["text", "json"])
    v.set_defaults(operands=_class_order_and_seeds, func=_cmd_verify)

    e = subs.add_parser("example", help="reproduce a worked example")
    e.add_argument("name", choices=sorted(WORKED_EXAMPLES))
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--no-branch", action="store_true")
    _add_common(e, ["text", "json", "dot"])
    e.set_defaults(operands=_class_and_order, func=_cmd_predict)

    return parser, subs.choices


def _parse(argv) -> argparse.Namespace:
    """Parse argv once: argv that names a command goes straight to that
    command's parser; only the rest (--help, --version, a missing or unknown
    command) goes through the top-level parser."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except argparse.ArgumentError as exc:
        return _fail(exc, EXIT_USAGE)
    if not args.quiet and sys.stderr.isatty():
        print(f"branchpolar {__version__}", file=sys.stderr)
    try:
        operands = args.operands(args)
        if args.output is not None:
            # open() refuses a bad path before the work, with its own error;
            # "a" creates a missing file and leaves an existing one as it is
            open(args.output, "a").close()
    except (BranchPolarError, ValueError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        return args.func(args, *operands)
    except OSError as exc:
        # an output that cannot be written
        return _fail(exc, EXIT_USAGE)
    except (BranchPolarError, ValueError) as exc:
        # argv is checked: what fails now is the program's fault
        return _fail(exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
