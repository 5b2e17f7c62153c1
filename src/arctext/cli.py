"""Command-line interface.

Exit codes: 0 success, 1 validation/parse/lint findings or runtime errors,
2 usage errors. Artifact-producing commands (canonicalize, parse, dot,
vectorize) write byte-exact output to the -o file or to stdout; report
commands (validate, lint, diff, digest) print human-readable lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from .canonical import DEFAULT_MAX_PATHS, assign_positions
from .codec import parse_description, read_description, render_description
from .errors import ArcTextError, read_text
from .graphio import (
    diff_descriptions,
    export_dot,
    graph_to_json,
    parse_graph_json,
)
from .lint import lint_shapes
from .model import validate_graph
from .unitformat import join_multi
from .vectorize import Vocabulary, tokenize, vectors_csv


class _UsageError(Exception):
    pass


class _EncodingError(ArcTextError):  # an input that is not UTF-8
    code = "Encoding"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctext",
        description="Canonical text descriptions of CNN architectures.",
    )
    parser.add_argument(
        "--max-paths", type=int, default=None, metavar="N",
        help="cap on tied longest-path candidates per ordering round "
             f"(default {DEFAULT_MAX_PATHS}; env ARCTEXT_MAX_PATHS)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress report lines and warnings; exit codes still apply",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_, *, input_=None, output=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if input_:
            p.add_argument("-i", "--input", required=True, metavar="FILE", help=input_)
        if output:
            p.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
        return p

    cmd("canonicalize", _cmd_canonicalize, "graph file -> canonical description text",
        input_="graph file (JSON)", output=True)
    cmd("parse", _cmd_parse, "description text -> graph file",
        input_="description text file", output=True)
    cmd("validate", _cmd_validate, "check a graph file or description text",
        input_="graph file or description text (auto-detected)")
    cmd("lint", _cmd_lint, "shape-consistency warnings for a graph file",
        input_="graph file (JSON)")
    cmd("digest", _cmd_digest, "SHA-224 of the checked text as given (ROADMAP item 11)",
        input_="description text file")
    p = cmd("diff", _cmd_diff, "compare two description texts by id")
    p.add_argument("left", metavar="A.txt")
    p.add_argument("right", metavar="B.txt")
    cmd("dot", _cmd_dot, "graph file -> DOT digraph",
        input_="graph file (JSON)", output=True)
    p = cmd("vectorize", _cmd_vectorize, "description text -> per-unit vector CSV",
            input_="description text file", output=True)
    p.add_argument("--vocab", metavar="FILE",
                   help="vocabulary file to tokenize against; created or "
                        "extended in place when open")
    return parser


def _max_paths(args) -> int:
    if args.max_paths is not None:
        value, source = args.max_paths, "--max-paths"
    else:
        raw = os.environ.get("ARCTEXT_MAX_PATHS")
        if raw is None:
            return DEFAULT_MAX_PATHS
        try:
            value = int(raw)
        except ValueError:
            raise _UsageError(f"ARCTEXT_MAX_PATHS must be an integer, got {raw!r}")
        source = "ARCTEXT_MAX_PATHS"
    if value < 1:
        raise _UsageError(f"{source} must be >= 1")
    return value


def _read(path) -> str:
    return read_text(path, _EncodingError)


def _write_out(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _cmd_canonicalize(args) -> int:
    graph = parse_graph_json(_read(args.input))
    desc = render_description(graph, max_paths=_max_paths(args))
    _write_out(desc.text, args.output)
    return 0


def _cmd_parse(args) -> int:
    graph, order = parse_description(_read(args.input))
    _write_out(graph_to_json(graph, order), args.output)
    return 0


def _cmd_validate(args) -> int:
    text = _read(args.input)
    if text.lstrip().startswith("{"):
        graph = parse_graph_json(text)
    else:
        graph, _ = parse_description(text)
    diag = validate_graph(graph)
    for finding in diag.findings:
        _say(args, f"{finding.severity}[{finding.code}]: {finding.message}")
    if diag.has_errors:
        return 1
    _say(args, "ok")
    return 0


def _cmd_lint(args) -> int:
    graph = parse_graph_json(_read(args.input))
    report = lint_shapes(graph)
    for entry in report.entries:
        if entry.status == "mismatch":
            expected = "?" if entry.expected is None else join_multi(entry.expected)
            detail = f" ({entry.note})" if entry.note else ""
            _say(args, f"{entry.node}: mismatch expected {expected}, "
                       f"declared {join_multi(entry.declared)}{detail}")
        else:
            _say(args, f"{entry.node}: {entry.status}")
    for warning in report.addition_warnings:
        _say(args, f"warning: {warning}")
    return 0 if report.clean else 1


def _cmd_digest(args) -> int:
    _, _, desc = read_description(_read(args.input))  # digest covers exact bytes
    print(hashlib.sha224(desc.text.encode("utf-8")).hexdigest())
    return 0


def _cmd_diff(args) -> int:
    left_text, right_text = _read(args.left), _read(args.right)
    _, _, left = read_description(left_text)
    _, _, right = read_description(right_text)
    diff = diff_descriptions(left, right)
    for uid in diff.left_only:
        _say(args, f"- id {uid} only in {args.left}")
    for uid in diff.right_only:
        _say(args, f"+ id {uid} only in {args.right}")
    for change in diff.changed:
        if change.kind_change:
            a, b = change.kind_change
            _say(args, f"~ id {change.id} kind: {a} -> {b}")
        for key, va, vb in change.field_changes:
            _say(args, f"~ id {change.id} {key}: {va} -> {vb}")
    return 0 if diff.empty else 1


def _cmd_dot(args) -> int:
    graph = parse_graph_json(_read(args.input))
    order = assign_positions(graph, max_paths=_max_paths(args))
    _write_out(export_dot(graph, order), args.output)
    return 0


def _cmd_vectorize(args) -> int:
    _, _, desc = read_description(_read(args.input))
    if args.vocab:  # the vectors do not depend on a vocabulary
        exists = os.path.exists(args.vocab)
        vocab = Vocabulary.load(args.vocab) if exists else Vocabulary.default()
        size_before = len(vocab)
        tokenize(desc, vocab)
        if not exists or len(vocab) > size_before:
            vocab.save(args.vocab)
    _write_out(vectors_csv(desc), args.output)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArcTextError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a failed write to stdout or to -o
        print(f"error[IoError]: {exc}", file=sys.stderr)
        return 1
