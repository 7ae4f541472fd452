"""Command line surface: validation, reports, exports, generation, corpus.

Exit codes: 0 success, 1 validation or check failure (and I/O errors),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .divide_map import (
    DivideError, DivideMap, compute_faces, map_from_document, parse_json,
)
from .dynkin import build_gamma, gamma_to_dot
from .generators import (
    chords_document, chords_from_document, coil, from_chords, gen_chords,
    zigzag,
)
from .render import render_chords_svg
from .report import (build_report, check_corpus_args, render_text,
                     run_corpus, summary_text)
from .seifert import K_DEFAULT, TheoremReport, walk_table


def _load_json(path: str) -> dict:
    with open(path, "rb") as fh:
        doc = parse_json(fh.read())
    if not isinstance(doc, dict):
        raise DivideError("malformed document: expected a JSON object")
    return doc


def _load_map(path: str) -> DivideMap:
    """Auto-detect divide-map/1 or divide-chords/1 by the format field."""
    doc = _load_json(path)
    fmt = doc.get("format")
    if fmt == "divide-map/1":
        return map_from_document(doc)
    if fmt == "divide-chords/1":
        return from_chords(chords_from_document(doc))
    raise DivideError(f"unknown format {fmt!r}")


def cmd_validate(args) -> int:
    _load_map(args.file)
    print("valid")
    return 0


def cmd_report(args) -> int:
    rep = build_report(_load_map(args.file), source=args.file, k=args.traces)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict(), indent=2))
    else:
        print(render_text(rep), end="")
    return 0


def _write(path: str, text: str, note: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}{note}")


def cmd_gamma(args) -> int:
    m = _load_map(args.file)
    _write(args.dot, gamma_to_dot(build_gamma(m, compute_faces(m))))
    return 0


def cmd_render(args) -> int:
    doc = _load_json(args.file)
    if doc.get("format") != "divide-chords/1":
        raise DivideError("no geometry available: render needs a "
                          "divide-chords/1 input")
    _write(args.svg, render_chords_svg(chords_from_document(doc)))
    return 0


def cmd_gen_chords(args) -> int:
    cs = gen_chords(args.n, args.seed)
    _write(args.output, json.dumps(chords_document(cs), indent=2) + "\n",
           f" ({args.n} chords, seed {args.seed}, {cs.rejections} resamples)")
    return 0


def cmd_gen(args) -> int:
    m = (zigzag if args.family == "zigzag" else coil)(args.k)
    _write(args.output, json.dumps(m.to_document(), indent=2) + "\n",
           f" ({args.family} k={args.k})")
    return 0


def cmd_corpus(args) -> int:
    check_corpus_args(args.count, args.n, args.seed)   # before --csv opens
    with (open(args.csv, "w", encoding="utf-8") if args.csv
          else nullcontext()) as csv_fh:
        summary = run_corpus(args.count, args.n, args.seed, csv_out=csv_fh)
    print(summary_text(summary), end="")
    return 0 if summary.ok() else 1


def cmd_traces(args) -> int:
    table = walk_table(TheoremReport(_load_map(args.file)), args.k)
    if args.csv:
        _write(args.csv, table.to_csv())
    else:
        print(table.to_csv(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divide",
        description="Exact invariants of divides: diagram, Seifert form, "
                    "monodromy, Lefschetz number.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a divide document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="full invariant report")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--traces", type=int, default=K_DEFAULT, metavar="K")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gamma", help="write the diagram as Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--dot", required=True, metavar="OUT")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("render", help="write an SVG of a chord arrangement")
    p.add_argument("file")
    p.add_argument("--svg", required=True, metavar="OUT")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gen-chords", help="generate a random chord set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_chords)

    p = sub.add_parser("gen", help="generate a parametric family member")
    p.add_argument("--family", choices=("zigzag", "coil"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("corpus", help="bulk generate-and-verify run")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", metavar="OUT")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("traces", help="monodromy trace / walk count table")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=K_DEFAULT)
    p.add_argument("--csv", metavar="OUT")
    p.set_defaults(func=cmd_traces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (DivideError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
