"""Command-line interface: predict / verify / diagram / contfrac / example."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from . import contfrac as contfrac_mod
from . import diagram as diagram_mod
from . import polar, verify
from .charclass import parse_char
from .errors import BranchPolarError
from .rational import fmt_q

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNKNOWN = 3

WORKED_EXAMPLES = {"ex1": "12,16,31", "ex2": "10,14,15"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


def _seeds(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_predict(args) -> int:
    cs = parse_char(args.char)
    prediction = polar.predict(cs, args.k)
    if args.format == "json":
        _emit(prediction.to_json_text(), args)
    elif args.format == "dot":
        tree = polar.export_eggers_wall(prediction, include_branch=not args.no_branch)
        _emit(tree.to_dot(), args)
    else:
        _emit(prediction.to_text(), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cs = parse_char(args.char)
    report = verify.verify_prediction(cs, args.k, _seeds(args.seeds))
    if args.format == "json":
        _emit(_dump(report.to_json()), args)
    else:
        _emit(report.to_text(), args)
    if report.verdict == "FAIL":
        return EXIT_FAIL
    if report.verdict != "PASS":
        return EXIT_UNKNOWN
    return EXIT_OK


def _parse_diagram(args) -> diagram_mod.NewtonDiagram:
    if args.elementary:
        m, _, n = args.elementary.partition("/")
        return diagram_mod.elementary(int(m), int(n) if n else 1)
    if args.vertices:
        return diagram_mod.NewtonDiagram.from_json({"vertices": json.loads(args.vertices)})
    raise BranchPolarError("one of --elementary or --vertices is required")


def _emit_diagram(d: diagram_mod.NewtonDiagram, args) -> None:
    if args.format == "json":
        blob = d.to_json()
        rep = d.canonical_rep(long=args.long)
        blob["canonical"] = {
            "offset": list(rep.offset),
            "parts": [list(p) for p in rep.parts],
            "long": rep.long,
        }
        _emit(_dump(blob), args)
    elif args.format == "svg":
        _emit(render_svg(d), args)
    else:
        _emit(str(d.canonical_rep(long=args.long)), args)


def _cmd_diagram(args) -> int:
    d = _parse_diagram(args)
    if args.action == "derive":
        d = d.symbolic_derivative(args.k)
    _emit_diagram(d, args)
    return EXIT_OK


def _cmd_contfrac(args) -> int:
    m, _, n = args.ratio.partition("/")
    cf = contfrac_mod.expand(int(m), int(n) if n else 1)
    if args.even:
        cf = contfrac_mod.to_even_length(cf)
    if args.format == "json":
        blob = {
            "value": fmt_q(cf.value),
            "h": list(cf.h),
            "convergents": [{"p": p, "q": q} for p, q in zip(cf.p, cf.q)],
        }
        _emit(_dump(blob), args)
    else:
        lines = ["[" + ",".join(str(v) for v in cf.h) + "]"]
        for i, (p, q) in enumerate(zip(cf.p, cf.q)):
            lines.append(f"p_{i}/q_{i} = {p}/{q}")
        _emit("\n".join(lines), args)
    return EXIT_OK


def _cmd_example(args) -> int:
    args.char = WORKED_EXAMPLES[args.name]
    return _cmd_predict(args)


# ---------------------------------------------------------------------------
# SVG rendering (static)
# ---------------------------------------------------------------------------


def render_svg(d: diagram_mod.NewtonDiagram, cell: int = 26) -> str:
    """Static picture: lattice points, shaded diagram, polygon highlighted."""
    xmax = d.bottom[0] + 2
    ymax = d.top[1] + 2
    pad = 30

    def px(x, y):
        return pad + x * cell, pad + (ymax - y) * cell

    width = pad * 2 + xmax * cell
    height = pad * 2 + ymax * cell
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
    # the default is read from the environment per call, in main()
    sub.add_argument("--format", choices=formats,
                     help=f"output format (default $BRANCHPOLAR_FORMAT if it is one "
                          f"of these, else {formats[0]})")
    sub.set_defaults(formats=formats)
    sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    sub.add_argument("--quiet", action="store_true", help="suppress the version banner")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="branchpolar",
                     description="Equisingularity data of generic higher-order polars "
                                 "of plane branches.")
    parser.add_argument("--version", action="version", version=f"branchpolar {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="factor structure of the generic k-th polar")
    p.add_argument("char_pos", nargs="?", metavar="CHAR", help="characteristic b0,b1,...")
    p.add_argument("--char", dest="char_opt", metavar="CHAR")
    p.add_argument("--k", type=int, required=True, help="derivative order, 1 <= k < b0")
    p.add_argument("--no-branch", action="store_true",
                   help="omit the branch and semiroots from the Eggers-Wall tree")
    _add_common(p, ["text", "json", "dot"])
    p.set_defaults(func=_cmd_predict)

    v = subs.add_parser("verify", help="check the prediction against exact witnesses")
    v.add_argument("char_pos", nargs="?", metavar="CHAR")
    v.add_argument("--char", dest="char_opt", metavar="CHAR")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated witness seeds")
    _add_common(v, ["text", "json"])
    v.set_defaults(func=_cmd_verify)

    d = subs.add_parser("diagram", help="Newton diagram operations")
    d.add_argument("action", choices=["derive", "show"])
    d.add_argument("--elementary", metavar="M/N", help="elementary diagram with legs M, N")
    d.add_argument("--vertices", metavar="JSON", help='support points, e.g. "[[0,2],[3,0]]"')
    d.add_argument("--k", type=int, default=1, help="derivative order for derive")
    d.add_argument("--long", action="store_true", help="use the long canonical representation")
    _add_common(d, ["text", "json", "svg"])
    d.set_defaults(func=_cmd_diagram)

    c = subs.add_parser("contfrac", help="continued fraction expansion with convergents")
    c.add_argument("ratio", metavar="M/N")
    c.add_argument("--even", action="store_true", help="normalize to even length")
    _add_common(c, ["text", "json"])
    c.set_defaults(func=_cmd_contfrac)

    e = subs.add_parser("example", help="reproduce a worked example")
    e.add_argument("name", choices=sorted(WORKED_EXAMPLES))
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--no-branch", action="store_true")
    _add_common(e, ["text", "json", "dot"])
    e.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format is None:
        env_fmt = os.environ.get("BRANCHPOLAR_FORMAT")
        args.format = env_fmt if env_fmt in args.formats else args.formats[0]
    if hasattr(args, "char_pos"):
        args.char = args.char_opt or args.char_pos
        if not args.char:
            print("branchpolar: error: a characteristic is required "
                  "(positional or --char)", file=sys.stderr)
            return EXIT_USAGE
    if not args.quiet and sys.stderr.isatty():
        print(f"branchpolar {__version__}", file=sys.stderr)
    try:
        return args.func(args)
    except (BranchPolarError, ValueError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
