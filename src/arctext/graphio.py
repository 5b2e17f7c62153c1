"""Structured graph files, DOT export, and description diffing.

The graph file is strict JSON: top-level "nodes" (ordered records) and
"edges" (name pairs). Every record carries "name", "kind" and exactly the
fields of its kind, named after the NodeSpec dataclass fields; unknown or missing
keys are errors. Strictness keeps fixtures stable and makes the format
auto-detectable from ArcText by the first byte ("{" vs "i"). A record with
as many keys as its kind has, or as it requires, goes to the kind's speller
in :mod:`arctext.unitformat` for that many fields, which proves its keys by
reading them. If the speller returns the basic string,
``unitformat.proved_spec`` builds the spec from the class and that string
alone. Any other record goes to the spec class, which words the error. A
refused record's name and kind are echoed cut after 200 characters.

orjson decodes a str with fewer "[" and "{" than the recursion limit, which
nests no deeper than json may: orjson 3.8 has no depth limit, and deep input
kills the process. Any other input, and a text that orjson or the checks
refuse, json decodes and the checks read again, so json words every refusal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import orjson

from .canonical import CanonicalOrder
from .codec import Description
from .errors import (ArcTextError, GraphFileSyntaxError, InvalidSpecError, IoError, SchemaError,
                     read_text)
from .model import ArchGraph, build_graph
from .unitformat import (
    _SPELLERS,
    UNIT_FIELDS,
    ConvSpec,
    FullSpec,
    NodeSpec,
    PoolSpec,
    _connect_text,
    _shown,
    kind_of,
    proved_spec,
)

# a record's keys: name, kind and the spec attributes of its kind's text fields
_ALLOWED = {kind: frozenset({"name", "kind"} | {f.attr for f in fields})
            for kind, (_, fields) in UNIT_FIELDS.items()}
_REQUIRED = {kind: frozenset({"name", "kind"} | {f.attr for f in fields if not f.optional})
             for kind, (_, fields) in UNIT_FIELDS.items()}


def _record_to_spec(record: dict, index: int) -> tuple[str, NodeSpec]:
    """One node record to (name, spec).

    A record its kind's speller proves is built unchecked. For any other, only
    its shape is checked here: the record keys are the spec's attribute
    names, so the values go to the spec class, which checks them and words
    the error.
    """
    if not isinstance(record, dict):
        raise SchemaError(f"node record #{index} must be an object")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        where = f"node {name!r}" if isinstance(name, str) else f"node record #{index}"
        raise SchemaError(f"{where}: missing or empty \"name\"")
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _ALLOWED:
        raise SchemaError(f"node {_shown(name)}: unknown kind {_shown(kind)}")
    spell = _SPELLERS[kind].get(len(record) - 2)  # of every field or the required ones
    if spell is not None and (text := spell(record)) is not None:
        return name, proved_spec(UNIT_FIELDS[kind][0], text)

    unknown = record.keys() - _ALLOWED[kind]
    if unknown:
        raise SchemaError(f"node {_shown(name)}: unknown field(s) {sorted(unknown)}")
    missing = _REQUIRED[kind] - record.keys()
    if missing:
        raise SchemaError(f"node {_shown(name)}: missing field(s) {sorted(missing)}")
    fields = {key: value for key, value in record.items() if key not in ("name", "kind")}
    try:
        return name, UNIT_FIELDS[kind][0](**fields)
    except InvalidSpecError as exc:
        raise SchemaError(f"node {_shown(name)}: {exc}") from exc


def _graph(doc) -> ArchGraph:
    if not isinstance(doc, dict) or set(doc) != {"nodes", "edges"}:
        raise SchemaError('top level must be an object with exactly "nodes" and "edges"')
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise SchemaError('"nodes" and "edges" must be arrays')
    nodes = [_record_to_spec(rec, i) for i, rec in enumerate(doc["nodes"])]
    for i, pair in enumerate(doc["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise SchemaError(f"edge #{i} must be a [from, to] pair of names")
    return build_graph(nodes, doc["edges"])  # which makes the checked pairs its edges


def parse_graph_json(text: str) -> ArchGraph:
    """Build a graph from graph-file JSON text, decoded as the module docstring says."""
    if isinstance(text, str) and text.count("[") + text.count("{") < sys.getrecursionlimit():
        try:
            return _graph(orjson.loads(text))
        except (orjson.JSONDecodeError, ArcTextError, RecursionError):
            pass  # a float for a wide int, NaN, a lone surrogate, a refused graph
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise GraphFileSyntaxError(f"cannot read the JSON: {exc}") from exc
    return _graph(doc)


def load_graph_file(path) -> ArchGraph:
    return parse_graph_json(read_text(path, GraphFileSyntaxError))


def _spec_to_record(name: str, spec: NodeSpec) -> dict:
    kind = kind_of(spec)
    record: dict = {"name": name, "kind": kind}
    for f in UNIT_FIELDS[kind][1]:
        value = getattr(spec, f.attr)
        if value is not None or not f.optional:
            record[f.attr] = value
    return record


def graph_to_json(g: ArchGraph, order: CanonicalOrder | None = None) -> str:
    """Serialize a graph; node records follow canonical positions if given."""
    if order is not None:
        names = list(order.by_position)
    else:
        names = sorted(g.names())
    records = [_spec_to_record(name, g.spec(name)) for name in names]
    by_name = {name: i for i, name in enumerate(names)}
    edges = sorted(g.edges, key=lambda e: (by_name[e[0]], by_name[e[1]]))
    doc = {"nodes": records, "edges": [list(e) for e in edges]}
    return json.dumps(doc, indent=2) + "\n"


def save_graph_file(g: ArchGraph, path, order: CanonicalOrder | None = None) -> None:
    text = graph_to_json(g, order)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- DOT export ---------------------------------------------------------------

def _dot_summary(spec: NodeSpec) -> str:
    if isinstance(spec, ConvSpec):
        return f"conv {spec.kernel[0]}x{spec.kernel[1]}"
    if isinstance(spec, PoolSpec):
        return f"{spec.pool_type} pool {spec.kernel[0]}x{spec.kernel[1]}"
    if isinstance(spec, FullSpec):
        return f"full {spec.in_size}>{spec.out_size}"
    return spec.op_name


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g: ArchGraph, order: CanonicalOrder) -> str:
    """Render the graph as a DOT digraph, nodes and edges position-sorted."""
    lines = ["digraph arctext {"]
    for pos, name in enumerate(order.by_position, start=1):
        summary = _dot_escape(_dot_summary(g.spec(name)))
        lines.append(f'  u{pos} [label="id:{pos}\\n{summary}"];')
    edge_pairs = sorted(
        (order.position_of(a), order.position_of(b)) for a, b in g.edges
    )
    for a, b in edge_pairs:
        lines.append(f"  u{a} -> u{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- description diffing -------------------------------------------------------

@dataclass(frozen=True)
class LineChange:
    id: int
    kind_change: tuple[str, str] | None
    field_changes: tuple[tuple[str, str | None, str | None], ...]


@dataclass(frozen=True)
class DescriptionDiff:
    left_only: tuple[int, ...]
    right_only: tuple[int, ...]
    changed: tuple[LineChange, ...]

    @property
    def empty(self) -> bool:
        return not (self.left_only or self.right_only or self.changed)


def _line_fields(line) -> dict[str, str]:
    fields = dict(line.fields)
    fields["connect_to"] = _connect_text(line.connect_to)
    return fields


def diff_descriptions(a: Description, b: Description) -> DescriptionDiff:
    """Line-aligned structural diff by id."""
    left = {line.id: line for line in a.lines}
    right = {line.id: line for line in b.lines}
    left_only = tuple(sorted(set(left) - set(right)))
    right_only = tuple(sorted(set(right) - set(left)))

    changed = []
    for uid in sorted(set(left) & set(right)):
        la, lb = left[uid], right[uid]
        if la.unit_kind != lb.unit_kind:
            changed.append(LineChange(uid, (la.unit_kind, lb.unit_kind), ()))
            continue
        fa, fb = _line_fields(la), _line_fields(lb)
        keys = list(fa)
        keys += [k for k in fb if k not in fa]
        field_changes = tuple(
            (k, fa.get(k), fb.get(k))
            for k in keys
            if fa.get(k) != fb.get(k)
        )
        if field_changes:
            changed.append(LineChange(uid, None, field_changes))
    return DescriptionDiff(left_only, right_only, tuple(changed))
