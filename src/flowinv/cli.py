"""Command-line interface.

Exit codes: 0 success, 1 negative result (validation violations,
non-isomorphic inputs, unrealizable graph), 2 parse/schema errors,
64 usage errors.  A reader that closes stdout early (``flowinv enumerate
... | head -1``) ends the command quietly: exit 0, nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .enumeration import EnumBounds, enumerate_pairs
from .graph import classify_separation
from .isomorphism import (
    REVERSIBLE,
    ORIENTED,
    canonical_form,
    pair_isomorphic,
)
from .model_io import (
    ParseError,
    SchemaError,
    SemanticError,
    export_dot,
    parse_graph,
    parse_model,
    serialize_model,
)
from .reconstruction import NotRealizableError, realize_multigraph, reconstruct

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_USAGE = 64

# the enumeration bounds, one ``--max-*`` flag each
_BOUNDS = tuple(f.name for f in fields(EnumBounds) if f.name != "mode")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bound(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _mode(args):
    return REVERSIBLE if args.reverse_allowed else ORIENTED


def _load(path: str, parse=parse_model):
    """Read and parse one input file.

    An error in the file's content leaves with the file's ``path`` set
    on it, so that ``main`` can name the file in the diagnostic.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (ParseError, SchemaError, SemanticError, UnicodeDecodeError) as exc:
        exc.path = path
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowinv",
                     description="surface-flow invariant toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_reversal(p):
        p.add_argument("--reverse-allowed", action="store_true",
                       help="treat orientation-reversed models as equal")

    p = sub.add_parser("validate", help="check one model file")
    p.add_argument("file")

    p = sub.add_parser("canon", help="print the canonical digest of a model")
    p.add_argument("file")
    with_reversal(p)

    p = sub.add_parser("iso", help="decide isomorphism of two models")
    p.add_argument("file_a")
    p.add_argument("file_b")
    with_reversal(p)

    p = sub.add_parser("classify", help="separation axioms of the orbit spaces")
    p.add_argument("file")

    p = sub.add_parser("reconstruct", help="surface signature per component")
    p.add_argument("file")

    p = sub.add_parser("realize",
                       help="realize an abstract multi-graph as a model")
    p.add_argument("graph_file")

    p = sub.add_parser("enumerate", help="stream model classes within bounds")
    for name in _BOUNDS:
        p.add_argument("--" + name.replace("_", "-"), type=_bound, default=0)
    with_reversal(p)

    p = sub.add_parser("export-dot", help="Graphviz view of a model")
    p.add_argument("file")
    p.add_argument("--which", choices=("graph", "diagram"), required=True)

    return parser


def _cmd_validate(args) -> int:
    try:
        _load(args.file)
    except SemanticError as exc:
        for d in exc.diagnostics:
            print(f"{exc.path}:{d.render()}", file=sys.stderr)
        return EXIT_NEGATIVE
    print("OK")
    return EXIT_OK


def _cmd_canon(args) -> int:
    print(canonical_form(_load(args.file), _mode(args)).digest())
    return EXIT_OK


def _cmd_iso(args) -> int:
    a, b = _load(args.file_a), _load(args.file_b)
    witness = pair_isomorphic(a, b, _mode(args))
    if witness is None:
        print("NO")
        return EXIT_NEGATIVE
    print("YES")
    print(f"orientation={'reversed' if witness.reversed_orientation else 'preserved'}")
    for title, mapping in (("saddle", witness.saddles),
                           ("separatrix", witness.separatrices),
                           ("vertex", witness.vertices),
                           ("annulus", witness.annuli)):
        for src in sorted(mapping):
            print(f"{title} {src} -> {mapping[src]}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    report = classify_separation(_load(args.file))

    print(" ".join(f"{f.name}={'true' if getattr(report, f.name) else 'false'}"
                   for f in fields(report)))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    _, signature = reconstruct(_load(args.file))
    for line in signature.summary_lines():
        print(line)
    return EXIT_OK


def _cmd_realize(args) -> int:
    try:
        pair = realize_multigraph(_load(args.graph_file, parse_graph))
    except NotRealizableError as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    sys.stdout.write(serialize_model(pair))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    bounds = EnumBounds(**{name: getattr(args, name) for name in _BOUNDS},
                        mode=_mode(args))
    for pair in enumerate_pairs(bounds):
        digest = canonical_form(pair, bounds.mode).digest()
        print(f"{digest} {serialize_model(pair, compact=True)}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(_load(args.file), args.which))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "canon": _cmd_canon,
    "iso": _cmd_iso,
    "classify": _cmd_classify,
    "reconstruct": _cmd_reconstruct,
    "realize": _cmd_realize,
    "enumerate": _cmd_enumerate,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; the null device
        # takes what is still buffered, so that flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc.path}:{exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        for d in exc.diagnostics:
            print(f"schema error: {exc.path}:{d.render()}", file=sys.stderr)
        return EXIT_PARSE
    except SemanticError as exc:
        for d in exc.diagnostics:
            print(f"invalid model: {exc.path}:{d.render()}", file=sys.stderr)
        return EXIT_NEGATIVE
    except UnicodeDecodeError as exc:  # a model or graph file, read as UTF-8
        print(f"parse error: {exc.path}: byte {exc.start}: not valid UTF-8"
              f" ({exc.reason})", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
