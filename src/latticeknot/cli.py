"""Command-line interface.

Exit codes: 0 all checks hold, 2 a bound check failed, 3 invariant
mismatch, 4 invalid input, 64 usage error, 70 internal error (a pipeline
bug, EX_SOFTWARE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import dataset
from .arc import (
    ArcPresentation,
    dual,
    is_star_shaped,
    random_presentation,
    rotate,
    torus_order_check,
)
from .certify import (
    MAX_ARC_COUNT,
    build_branch,
    check_bounds,
    construct_auto,
    require_crossing_number,
)
from .diagram import (
    alexander,
    arc_to_planar,
    jones_kauffman,
    project_polygon,
    simplify_diagram,
)
from .errors import InternalInvariantError
from .jsonio import canonical_dumps, detect_input, presentation_from_obj, polygon_from_obj
from .lattice import LatticePolygon, SelfIntersectionError
from .render import render_obj, render_svg

EXIT_OK = 0
EXIT_BOUND_FAILED = 2
EXIT_MISMATCH = 3
EXIT_INVALID = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _write_output(path: str, text: str) -> None:
    """Write text to the file at path, or to stdout when path is "-"."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _output_path(path: str) -> str:
    """An output option's value as given; an empty one names no file."""
    if not path:
        raise argparse.ArgumentTypeError("empty path; give a file, or - for stdout")
    return path


def _load_presentation(path: str) -> ArcPresentation:
    return presentation_from_obj(_read_json(path))


def _print(obj) -> None:
    print(canonical_dumps(obj))


def _cmd_validate(args) -> int:
    P = _load_presentation(args.file)
    _print(P.to_json_obj())
    return EXIT_OK


def _cmd_dual(args) -> int:
    _print(dual(_load_presentation(args.file)).to_json_obj())
    return EXIT_OK


def _cmd_rotate(args) -> int:
    if args.pages is None and args.bindings is None:
        raise _UsageError("rotate needs --pages and/or --bindings")
    P = rotate(_load_presentation(args.file), args.pages or 0, args.bindings or 0)
    _print(P.to_json_obj())
    return EXIT_OK


def _cmd_star(args) -> int:
    P = _load_presentation(args.file)
    star = is_star_shaped(P)
    torus = torus_order_check(P) if star else None
    _print(
        {
            "star_shaped": star,
            "torus_order": None
            if torus is None
            else {
                "n": torus.n,
                "direction": torus.direction,
                "rotation_offset": torus.rotation_offset,
                "torus_knot": [torus.n + 1, torus.n],
            },
        }
    )
    return EXIT_OK


def _cmd_build(args) -> int:
    P = _load_presentation(args.file)
    _, poly = build_branch(P, args.branch)
    _write_output(args.out or "-", canonical_dumps(poly.to_json_obj()) + "\n")
    return EXIT_OK


def _cmd_invariant(args) -> int:
    value = detect_input(_read_json(args.file))
    if isinstance(value, LatticePolygon):
        diagram = project_polygon(value)
    else:
        diagram = arc_to_planar(value)
    simplified = simplify_diagram(diagram)
    poly = alexander(simplified)
    out = {
        "alexander": poly.coeff_list(),
        "alexander_str": str(poly),
        "determinant": abs(poly.evaluate(-1)),
        "crossings": diagram.n,
    }
    if args.jones:
        out["jones_bracket"] = jones_kauffman(simplified).coeff_list()
    if args.pd:
        out["pd_code"] = diagram.pd_code_text().splitlines()
    _print(out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    P = _load_presentation(args.file)
    require_crossing_number(args.c)  # check_bounds checks it too, but after the pipeline
    poly, cert = construct_auto(P, check_invariant=not args.skip_invariant)
    cert = check_bounds(cert, args.c, non_alternating_prime=args.non_alternating_prime)
    _print(cert.to_json_obj())
    if cert.invariant_match.status == "mismatched":
        return EXIT_MISMATCH
    if not cert.all_hold():
        return EXIT_BOUND_FAILED
    return EXIT_OK


def _cmd_render(args) -> int:
    if not args.svg and not args.obj:
        raise _UsageError("render needs --svg and/or --obj")
    if args.svg == args.obj == "-":
        raise _UsageError("render can write only one of --svg and --obj to stdout (-)")
    poly = polygon_from_obj(_read_json(args.file))
    if args.svg:
        _write_output(args.svg, render_svg(poly))
    if args.obj:
        _write_output(args.obj, render_obj(poly))
    return EXIT_OK


def _cmd_dataset(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise _UsageError("dataset list takes no knot name")
        for name in dataset.names():
            e = dataset.get(name)
            kind = "non-alternating" if e.non_alternating_prime else "alternating"
            print(f"{name}\ta={e.arcs.a}\tc={e.crossing_number}\t{kind}")
        return EXIT_OK
    if not args.name:
        raise _UsageError("dataset get needs a knot name")
    try:
        e = dataset.get(args.name)
    except KeyError:
        raise ValueError(f"no bundled knot named {args.name!r}; see latticeknot dataset list") from None
    _print(e.arcs.to_json_obj())
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.a > MAX_ARC_COUNT:
        raise ValueError(f"random presentations have at most {MAX_ARC_COUNT} arcs, got a={args.a}")
    rng = random.Random(args.seed)
    _print(random_presentation(args.a, rng).to_json_obj())
    return EXIT_OK


_FILE = ("file", {})
_STORE_TRUE = {"action": "store_true"}

# name -> (handler, help, arguments as (name or flag, add_argument options));
# one table for the full tree and for a parser holding only the command run,
# each built once per process
_COMMANDS = {
    "validate": (_cmd_validate, "check a presentation and print its canonical JSON", [_FILE]),
    "dual": (_cmd_dual, "print the dual presentation", [_FILE]),
    "rotate": (
        _cmd_rotate,
        "rotate page numbers and/or binding indices",
        [
            ("--pages", dict(type=int, default=None)),
            ("--bindings", dict(type=int, default=None)),
            _FILE,
        ],
    ),
    "star": (_cmd_star, "star-shape and torus-order classification", [_FILE]),
    "build": (
        _cmd_build,
        "construct a lattice polygon",
        [
            ("--branch", dict(choices=["auto", "basic", "reduced", "nonstar"], default="auto")),
            ("--out", dict(type=_output_path, help="output file; - or none for stdout")),
            _FILE,
        ],
    ),
    "invariant": (
        _cmd_invariant,
        "Alexander polynomial and determinant",
        [
            ("--jones", dict(_STORE_TRUE, help="also compute the Kauffman bracket Jones form")),
            ("--pd", dict(_STORE_TRUE, help="include the PD-code lines of the diagram")),
            ("file", dict(help="presentation or polygon JSON")),
        ],
    ),
    "certify": (
        _cmd_certify,
        "run the pipeline and check bounds",
        [
            ("--c", dict(type=int, required=True, help="minimal crossing number of the knot")),
            ("--non-alternating-prime", _STORE_TRUE),
            ("--skip-invariant", _STORE_TRUE),
            _FILE,
        ],
    ),
    "render": (
        _cmd_render,
        "export SVG and/or OBJ",
        [
            ("--svg", dict(type=_output_path, help="SVG output file; - for stdout")),
            ("--obj", dict(type=_output_path, help="OBJ output file; - for stdout")),
            ("file", dict(help="polygon JSON")),
        ],
    ),
    "dataset": (
        _cmd_dataset,
        "bundled example knots",
        [("action", dict(choices=["list", "get"])), ("name", dict(nargs="?"))],
    ),
    "random": (
        _cmd_random,
        "print a seeded random presentation",
        [("--a", dict(type=int, required=True)), ("--seed", dict(type=int, default=0))],
    ),
}


@functools.cache
def _make_parser(command: str | None = None) -> _Parser:
    """The parser with only `command`'s subparser, or the full tree for None.

    Safe to share: parse_args returns a new Namespace and leaves the parser
    as it was, and help reads the terminal width when it is formatted.
    """
    parser = _Parser(prog="latticeknot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _silence(stream) -> None:
    """Point a broken stream's descriptor at the null device, so the flush at exit is quiet."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _diagnose(message: str) -> None:
    """Best-effort line on stderr: when stderr is a closed pipe too, only the message is lost."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _silence(sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one command; argv defaults to sys.argv[1:] and the result is the exit code.

    The parser holds one subparser, the one named by argv[0], or the full
    tree of commands when argv[0] names none (no command, -h or --help, or an
    unknown command), so usage errors and help read the same. Each parser is
    built once per process and no call changes it, so concurrent calls need
    no coordination (at worst two threads each build the same parser once).
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _make_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        _silence(sys.stdout)
        _diagnose(f"invalid input: cannot write <stdout>: {exc}")
        return EXIT_INVALID
    except _UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return EXIT_USAGE
    except (SelfIntersectionError, ValueError) as exc:
        _diagnose(f"invalid input: {exc}")
        return EXIT_INVALID
    except (InternalInvariantError, KeyError) as exc:
        _diagnose(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
