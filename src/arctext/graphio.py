"""Structured graph files, DOT export, and description diffing.

The graph file is strict JSON: top-level "nodes" (ordered records) and
"edges" (name pairs). Every record carries "name", "kind" and exactly the
fields of its kind, named after the NodeSpec dataclass fields; unknown or missing
keys are errors. Strictness keeps fixtures stable and makes the format
auto-detectable from ArcText by the first byte ("{" vs "i").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .canonical import CanonicalOrder
from .codec import Description
from .errors import GraphFileSyntaxError, InvalidSpecError, IoError, SchemaError
from .model import (
    ArchGraph,
    ConvSpec,
    FullSpec,
    MFSpec,
    NodeSpec,
    PoolSpec,
    build_graph,
)
from .unitformat import KIND_CONV, KIND_FULL, KIND_MF, KIND_POOL, kind_of

_CONV_FIELDS = ("in_size", "out_size", "kernel", "stride", "padding",
                "dilation", "groups", "bias_used")
_POOL_FIELDS = ("pool_type", "in_size", "out_size", "kernel", "stride",
                "padding", "dilation", "bias_used")
_FULL_FIELDS = ("in_size", "out_size", "act_fun")
_MF_FIELDS = ("op_name", "in_size", "out_size", "values")

_REQUIRED = {
    KIND_CONV: set(_CONV_FIELDS),
    KIND_POOL: set(_POOL_FIELDS),
    KIND_FULL: {"in_size", "out_size"},  # act_fun optional
    KIND_MF: set(_MF_FIELDS),
}
_ALLOWED = {
    KIND_CONV: set(_CONV_FIELDS),
    KIND_POOL: set(_POOL_FIELDS),
    KIND_FULL: set(_FULL_FIELDS),
    KIND_MF: set(_MF_FIELDS),
}
_SPEC_CLASS = {KIND_CONV: ConvSpec, KIND_POOL: PoolSpec, KIND_FULL: FullSpec, KIND_MF: MFSpec}


def _record_to_spec(record: dict, index: int) -> tuple[str, NodeSpec]:
    """One node record to (name, spec).

    Only the record's shape is checked here. The record keys are the spec's
    attribute names, so every value goes straight to the spec class, which
    checks it and words the error. ``values`` must also be an array: a JSON
    object would pass the spec check with its keys as the values.
    """
    if not isinstance(record, dict):
        raise SchemaError(f"node record #{index} must be an object")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        where = f"node {name!r}" if isinstance(name, str) else f"node record #{index}"
        raise SchemaError(f"{where}: missing or empty \"name\"")
    kind = record.get("kind")
    if kind not in _ALLOWED:
        raise SchemaError(f"node {name!r}: unknown kind {kind!r}")

    fields = {key: value for key, value in record.items() if key not in ("name", "kind")}
    unknown = fields.keys() - _ALLOWED[kind]
    if unknown:
        raise SchemaError(f"node {name!r}: unknown field(s) {sorted(unknown)}")
    missing = _REQUIRED[kind] - fields.keys()
    if missing:
        raise SchemaError(f"node {name!r}: missing field(s) {sorted(missing)}")
    if kind == KIND_MF and not isinstance(fields["values"], list):
        raise SchemaError(f"node {name!r}: values must be an array of strings")

    try:
        return name, _SPEC_CLASS[kind](**fields)
    except (InvalidSpecError, UnicodeEncodeError) as exc:
        # MFSpec sorts values by UTF-8 bytes; a lone surrogate has none
        raise SchemaError(f"node {name!r}: {exc}") from exc


def parse_graph_json(text: str) -> ArchGraph:
    """Build a graph from graph-file JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or set(doc) != {"nodes", "edges"}:
        raise SchemaError('top level must be an object with exactly "nodes" and "edges"')
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise SchemaError('"nodes" and "edges" must be arrays')

    nodes = [_record_to_spec(rec, i) for i, rec in enumerate(doc["nodes"])]
    edges = []
    for i, pair in enumerate(doc["edges"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, str) for p in pair)
        ):
            raise SchemaError(f"edge #{i} must be a [from, to] pair of names")
        edges.append((pair[0], pair[1]))
    return build_graph(nodes, edges)


def load_graph_file(path) -> ArchGraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph_json(text)


def _spec_to_record(name: str, spec: NodeSpec) -> dict:
    record: dict = {"name": name, "kind": kind_of(spec)}
    if isinstance(spec, ConvSpec):
        record.update(
            in_size=list(spec.in_size), out_size=list(spec.out_size),
            kernel=list(spec.kernel), stride=list(spec.stride),
            padding=[list(p) for p in spec.padding],
            dilation=spec.dilation, groups=spec.groups, bias_used=spec.bias_used,
        )
    elif isinstance(spec, PoolSpec):
        record.update(
            pool_type=spec.pool_type,
            in_size=list(spec.in_size), out_size=list(spec.out_size),
            kernel=list(spec.kernel), stride=list(spec.stride),
            padding=list(spec.padding),
            dilation=spec.dilation, bias_used=spec.bias_used,
        )
    elif isinstance(spec, FullSpec):
        record.update(in_size=spec.in_size, out_size=spec.out_size)
        if spec.act_fun is not None:
            record["act_fun"] = spec.act_fun
    else:
        record.update(
            op_name=spec.op_name,
            in_size=list(spec.in_size), out_size=list(spec.out_size),
            values=list(spec.values),
        )
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
    fields["connect_to"] = (
        "Null" if line.connect_to is None
        else "-".join(str(t) for t in line.connect_to)
    )
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
