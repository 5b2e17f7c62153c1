"""Structured graph files, DOT export, and description diffing.

The graph file is strict JSON: top-level "nodes" (ordered records) and
"edges" (name pairs). Every record carries "name", "kind" and exactly the
fields of its kind, named after the NodeSpec dataclass fields; unknown or missing
keys are errors. Strictness keeps fixtures stable and makes the format
auto-detectable from ArcText by the first byte ("{" vs "i"). A record with
exactly its kind's keys is spelled in one pass: its values are taken in line
order, each field's speller gives its spec value and its text, and the texts
are joined under their keys. If the kind's line pattern and value comparison
(both from :mod:`arctext.unitformat`) accept the joined text, it is the
spec's basic string, and ``unitformat.proved_spec`` builds the spec with its
basic fields and string kept. Any other record, and any record whose text
they refuse, goes to the spec class, which words the error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import itemgetter

from .canonical import CanonicalOrder
from .codec import Description
from .errors import GraphFileSyntaxError, InvalidSpecError, IoError, SchemaError, read_text
from .model import ArchGraph, build_graph
from .unitformat import (
    _AGREE,
    UNIT_FIELDS,
    ConvSpec,
    FullSpec,
    NodeSpec,
    PoolSpec,
    _connect_text,
    _kind_pattern,
    kind_of,
    proved_spec,
)

# a record's keys: name, kind and the spec attributes of its kind's text fields
_ALLOWED = {kind: {"name", "kind"} | {f.attr for f in fields}
            for kind, (_, fields) in UNIT_FIELDS.items()}
_REQUIRED = {kind: {"name", "kind"} | {f.attr for f in fields if not f.optional}
             for kind, (_, fields) in UNIT_FIELDS.items()}


def _plan(kind: str, record_keys: set[str]):
    """How a record with exactly ``record_keys`` is spelled and proved."""
    cls, fields = UNIT_FIELDS[kind]
    kept = [f for f in fields if f.attr in record_keys]
    return (record_keys,
            itemgetter(*[f.attr for f in kept]),  # two or more: always a tuple
            tuple(f.shape.spell for f in kept),
            "".join([f";{f.key}:%s" for f in kept]),
            re.compile(_kind_pattern(kept)).fullmatch,
            tuple(f.key for f in kept),
            cls, (None,) * (len(fields) - len(kept)),  # left out: optional, so last
            _AGREE.get(kind))


# per kind, by the number of keys in a record: every field, or the required ones
_PLANS = {kind: {len(keys): _plan(kind, keys) for keys in (_ALLOWED[kind], _REQUIRED[kind])}
          for kind in UNIT_FIELDS}


def _loaded_spec(record: dict, kind: str) -> NodeSpec | None:
    """The spec of a record the line grammar proves, or None to leave it to the class.

    Every field is spelled in one pass and the joined text is proved by the
    kind's line pattern and value comparison. No field pattern takes a ";",
    so each field's text is what its group matched: the texts are the spec's
    basic fields, and the proved text is its basic string.
    """
    plan = _PLANS[kind].get(len(record))
    if plan is None or record.keys() != plan[0]:
        return None
    _, get, spells, template, proves, keys, cls, absent, agree = plan
    try:
        values, texts = zip(*[spell(value) for spell, value in zip(spells, get(record))])
    except (TypeError, ValueError):  # a sequence of the wrong length, or a bad element
        return None
    text = template % texts
    if proves(text) is None or agree and not agree(texts):
        return None
    return proved_spec(cls, values + absent, tuple(zip(keys, texts)), text[1:])


def _record_to_spec(record: dict, index: int) -> tuple[str, NodeSpec]:
    """One node record to (name, spec).

    A record the line grammar proves is built unchecked. For any other, only
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
        raise SchemaError(f"node {name!r}: unknown kind {kind!r}")
    if (spec := _loaded_spec(record, kind)) is not None:
        return name, spec

    unknown = record.keys() - _ALLOWED[kind]
    if unknown:
        raise SchemaError(f"node {name!r}: unknown field(s) {sorted(unknown)}")
    missing = _REQUIRED[kind] - record.keys()
    if missing:
        raise SchemaError(f"node {name!r}: missing field(s) {sorted(missing)}")
    fields = {key: value for key, value in record.items() if key not in ("name", "kind")}
    try:
        return name, UNIT_FIELDS[kind][0](**fields)
    except InvalidSpecError as exc:
        raise SchemaError(f"node {name!r}: {exc}") from exc


def parse_graph_json(text: str) -> ArchGraph:
    """Build a graph from graph-file JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise GraphFileSyntaxError(f"cannot read the JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"nodes", "edges"}:
        raise SchemaError('top level must be an object with exactly "nodes" and "edges"')
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise SchemaError('"nodes" and "edges" must be arrays')

    nodes = [_record_to_spec(rec, i) for i, rec in enumerate(doc["nodes"])]
    edges = []
    for i, pair in enumerate(doc["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise SchemaError(f"edge #{i} must be a [from, to] pair of names")
        edges.append((pair[0], pair[1]))
    return build_graph(nodes, edges)


def load_graph_file(path) -> ArchGraph:
    return parse_graph_json(read_text(path, GraphFileSyntaxError))


def _json_value(value):
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


def _spec_to_record(name: str, spec: NodeSpec) -> dict:
    kind = kind_of(spec)
    record: dict = {"name": name, "kind": kind}
    for f in UNIT_FIELDS[kind][1]:
        value = getattr(spec, f.attr)
        if value is not None or not f.optional:
            record[f.attr] = _json_value(value)
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
