"""Command-line interface: predict / verify / diagram / contfrac / example."""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from . import __version__
from . import contfrac as contfrac_mod
from . import diagram as diagram_mod
from . import polar, verify
from .charclass import parse_char
from .errors import BranchPolarError, DiagramTooLarge, InvalidRange, OrderOutOfRange
from .jsontext import dumps
from .rational import fmt_q

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4  # a fault of the program once argv is checked, not a usage error

WORKED_EXAMPLES = {"ex1": "12,16,31", "ex2": "10,14,15"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as JSON and returns 1, not argparse's 2
        raise argparse.ArgumentError(None, message)


def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: operands read off argv and checked before any work, then handlers
# ---------------------------------------------------------------------------


def _check_output(args) -> None:
    # output is written after the work, but a missing folder fails before it
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)


def _class_and_order(args) -> tuple:
    cs = parse_char(WORKED_EXAMPLES[args.name] if args.command == "example" else args.char)
    if not 1 <= args.k < cs.b0:
        raise OrderOutOfRange(f"polar order must satisfy 1 <= k < {cs.b0}, got {args.k}")
    return (cs,)


def _class_order_and_seeds(args) -> tuple:
    seeds = verify.check_seeds(int(v) for v in args.seeds.split(",") if v.strip())
    return (*_class_and_order(args), seeds)


def _m_over_n(text: str) -> tuple[int, int]:
    """M/N, or M alone for M/1, as two ints."""
    m, _, n = text.partition("/")
    return int(m), int(n) if n else 1


def _diagram(args) -> tuple:
    if args.action == "derive" and args.k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {args.k}")
    if args.elementary is not None:
        return (diagram_mod.elementary(*_m_over_n(args.elementary)),)
    return (diagram_mod.NewtonDiagram.from_json({"vertices": json.loads(args.vertices)}),)


def _ratio(args) -> tuple:
    m, n = _m_over_n(args.ratio)
    if not 0 < n < m:
        raise InvalidRange(f"need 0 < n < m, got m={m}, n={n}")
    return m, n


def _cmd_predict(args, cs) -> int:
    prediction = polar.predict(cs, args.k)
    if args.format == "json":
        _emit(prediction.to_json(), args)
    elif args.format == "dot":
        tree = polar.export_eggers_wall(prediction, include_branch=not args.no_branch)
        _emit(tree.to_dot(), args)
    else:
        _emit(prediction.to_text(), args)
    return EXIT_OK


def _cmd_verify(args, cs, seeds) -> int:
    report = verify.verify_prediction(cs, args.k, seeds)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args)
    return {"PASS": EXIT_OK, "FAIL": EXIT_FAIL}.get(report.verdict, EXIT_UNKNOWN)


def _cmd_diagram(args, d) -> int:
    if args.action == "derive":
        d = d.symbolic_derivative(args.k)
    if args.format == "json":
        rep = d.canonical_rep(long=args.long)
        canonical = {"offset": list(rep.offset), "parts": [list(p) for p in rep.parts],
                     "long": rep.long}
        _emit(dumps(dict(d.to_json(), canonical=canonical)), args)
    elif args.format == "svg":
        _emit(render_svg(d), args)
    else:
        _emit(str(d.canonical_rep(long=args.long)), args)
    return EXIT_OK


def _cmd_contfrac(args, m, n) -> int:
    cf = contfrac_mod.expand(m, n)
    if args.even:
        cf = contfrac_mod.to_even_length(cf)
    if args.format == "json":
        blob = {
            "value": fmt_q(cf.value),
            "h": list(cf.h),
            "convergents": [{"p": p, "q": q} for p, q in zip(cf.p, cf.q)],
        }
        _emit(dumps(blob), args)
    else:
        lines = ["[" + ",".join(str(v) for v in cf.h) + "]"]
        lines += [f"p_{i}/q_{i} = {p}/{q}" for i, (p, q) in enumerate(zip(cf.p, cf.q))]
        _emit("\n".join(lines), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering (static)
# ---------------------------------------------------------------------------


SVG_CELL = 26  # pixels between lattice points
SVG_MAX_POINTS = 1 << 20  # one <circle> per lattice point is drawn


def render_svg(d: diagram_mod.NewtonDiagram) -> str:
    """Static picture: lattice points, shaded diagram, polygon highlighted."""
    xmax = d.bottom[0] + 2
    ymax = d.top[1] + 2
    if (xmax + 1) * (ymax + 1) > SVG_MAX_POINTS:
        raise DiagramTooLarge(
            f"a {xmax + 1} x {ymax + 1} lattice exceeds {SVG_MAX_POINTS} points"
        )
    pad = 30

    def px(x, y):
        return pad + x * SVG_CELL, pad + (ymax - y) * SVG_CELL

    width = pad * 2 + xmax * SVG_CELL
    height = pad * 2 + ymax * SVG_CELL
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    corner = [px(d.top[0], ymax), *(px(x, y) for x, y in d.vertices), px(xmax, d.bottom[1]), px(xmax, ymax)]
    pts = " ".join(f"{x},{y}" for x, y in corner)
    out.append(f'<polygon points="{pts}" fill="#ffe8c8" stroke="none"/>')

    for x in range(xmax + 1):
        for y in range(ymax + 1):
            cx, cy = px(x, y)
            inside = d.contains((x, y))
            fill = "#404040" if inside else "#c8c8c8"
            out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{fill}"/>')

    ox, oy = px(0, 0)
    ex, _ = px(xmax, 0)
    _, ey = px(0, ymax)
    out.append(f'<line x1="{ox}" y1="{oy}" x2="{ex + 10}" y2="{oy}" stroke="black"/>')
    out.append(f'<line x1="{ox}" y1="{oy}" x2="{ox}" y2="{ey - 10}" stroke="black"/>')

    chain = " ".join("{},{}".format(*px(x, y)) for x, y in d.vertices)
    if len(d.vertices) > 1:
        out.append(
            f'<polyline points="{chain}" fill="none" stroke="#c03000" stroke-width="2.5"/>'
        )
    for x, y in d.vertices:
        cx, cy = px(x, y)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="3.5" fill="#c03000"/>')
        out.append(
            f'<text x="{cx + 6}" y="{cy - 6}" font-size="11" font-family="monospace">'
            f"({x},{y})</text>"
        )
    out.append("</svg>")
    return "\n".join(out)


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

    d = subs.add_parser("diagram", help="Newton diagram operations")
    d.add_argument("action", choices=["derive", "show"])
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("--elementary", metavar="M/N", help="elementary diagram with legs M, N")
    source.add_argument("--vertices", metavar="JSON", help='support points, e.g. "[[0,2],[3,0]]"')
    d.add_argument("--k", type=int, default=1, help="derivative order for derive")
    d.add_argument("--long", action="store_true", help="use the long canonical representation")
    _add_common(d, ["text", "json", "svg"])
    d.set_defaults(operands=_diagram, func=_cmd_diagram)

    c = subs.add_parser("contfrac", help="continued fraction expansion with convergents")
    c.add_argument("ratio", metavar="M/N")
    c.add_argument("--even", action="store_true", help="normalize to even length")
    _add_common(c, ["text", "json"])
    c.set_defaults(operands=_ratio, func=_cmd_contfrac)

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
        _check_output(args)
        operands = args.operands(args)
    except (BranchPolarError, ValueError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        return args.func(args, *operands)
    except (DiagramTooLarge, OSError) as exc:
        # a picture too large to draw, or an output that cannot be written
        return _fail(exc, EXIT_USAGE)
    except (BranchPolarError, ValueError) as exc:
        # argv is checked: what fails now is the program's fault
        return _fail(exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
