"""Text rendering and strict parsing of architecture descriptions.

One node becomes one line of ``key:value`` fields joined by ``;``; lines are
joined by a single LF with no trailing newline. The grammar is deliberately
rigid -- fixed field order per kind, canonical integer spelling, sorted
multi-values, ascending connect_to -- so each architecture has exactly one
spelling and byte equality coincides with architectural equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .canonical import DEFAULT_MAX_PATHS, CanonicalOrder, assign_positions
from .errors import (
    DanglingConnectError,
    DuplicateIdError,
    EmptyInputError,
    InvalidSpecError,
    MalformedLineError,
    MultipleSinksError,
    NonCanonicalSinkError,
    NonContiguousIdsError,
    UnclassifiableLineError,
)
from .model import (
    ArchGraph,
    ConvSpec,
    FullSpec,
    MFSpec,
    NodeSpec,
    PoolSpec,
    build_graph,
)
from .unitformat import basic_fields, join_multi, kind_of

_INT = "(?:0|[1-9][0-9]*)"
# one pattern per arity of a dash-joined integer field: the common, valid case
# is checked in one match, and the per-token loop only words the error
_INTS_RE = {n: re.compile("-".join([_INT] * n) + "$") for n in (1, 2, 3, 4, 8)}

_CONV_KEYS = ("id", "in_size", "out_size", "kernel", "stride", "padding",
              "dilation", "groups", "bias_used", "connect_to")
_POOL_KEYS = ("id", "type", "in_size", "out_size", "kernel", "stride",
              "padding", "dilation", "bias_used", "connect_to")
_FULL_KEYS = ("id", "in_size", "out_size", "act_fun", "connect_to")
_FULL_KEYS_BARE = ("id", "in_size", "out_size", "connect_to")
_MF_KEYS = ("id", "name", "in_size", "out_size", "value", "connect_to")
_KIND_KEYS = {"conv": _CONV_KEYS, "pool": _POOL_KEYS, "mf": _MF_KEYS}


@dataclass(frozen=True)
class UnitLine:
    """One rendered unit: kind, id, its basic fields, and its successors.

    ``connect_to`` is None for the sink (rendered as the literal "Null").
    ``text`` is computed on first use and kept.
    """

    unit_kind: str
    id: int
    fields: tuple[tuple[str, str], ...]
    connect_to: tuple[int, ...] | None

    @cached_property
    def text(self) -> str:
        body = ";".join(f"{k}:{v}" for k, v in self.fields)
        tail = "Null" if self.connect_to is None else join_multi(self.connect_to)
        return f"id:{self.id};{body};connect_to:{tail}"


@dataclass(frozen=True)
class Description:
    """A complete rendered architecture: lines ascending by id."""

    lines: tuple[UnitLine, ...]
    text: str


def render_unit(spec: NodeSpec, id: int, connect_to) -> UnitLine:
    if not isinstance(id, int) or isinstance(id, bool) or id < 1:
        raise InvalidSpecError(f"id must be a positive integer, got {id!r}")
    targets: tuple[int, ...] | None
    if connect_to is None:
        targets = None
    else:
        targets = tuple(connect_to)
        for t in targets:
            if not isinstance(t, int) or isinstance(t, bool) or t < 1:
                raise InvalidSpecError(f"connect_to entries must be positive integers, got {t!r}")
        if any(a >= b for a, b in zip(targets, targets[1:])):
            raise InvalidSpecError(f"connect_to must be strictly ascending, got {targets}")
        if not targets:
            targets = None  # outdegree 0 is the sink
    return UnitLine(kind_of(spec), id, basic_fields(spec), targets)


def render_description(g: ArchGraph, *, max_paths: int = DEFAULT_MAX_PATHS) -> Description:
    """Canonicalize and render a whole graph.

    Node ids are canonical positions; each connect_to lists the positions of
    the node's successors in ascending order.
    """
    order = assign_positions(g, max_paths=max_paths)
    positions = order.positions
    lines = []
    for pos, name in enumerate(order.by_position, start=1):
        spec = g.spec(name)
        succ = tuple(sorted([positions[s] for s in g.successors(name)]))
        lines.append(UnitLine(kind_of(spec), pos, basic_fields(spec), succ or None))
    text = "\n".join(line.text for line in lines)
    return Description(tuple(lines), text)


def _split(line: str) -> list[tuple[str, str, str]]:
    """Each ``;``-separated part of a line, partitioned at its first colon."""
    return [part.partition(":") for part in line.split(";")]


def _classify(parts, keys, line: str) -> str:
    if "type" in keys:
        return "pool"
    if "name" in keys:
        return "mf"
    if "kernel" in keys:
        return "conv"
    if all(sep for _, sep, _ in parts) and set(keys) <= set(_FULL_KEYS):
        return "full"
    raise UnclassifiableLineError(
        f"line matches no unit kind: {line!r}", subject=line
    )


def classify_line(line: str) -> str:
    """Decide a line's unit kind from its distinguishing keys."""
    parts = _split(line)
    return _classify(parts, [key for key, _, _ in parts], line)


def _fail(lineno: int, msg: str):
    raise MalformedLineError(f"line {lineno}: {msg}", subject=lineno)


def _int(token: str, lineno: int, what: str) -> int:
    if not _INTS_RE[1].match(token):
        _fail(lineno, f"{what} must be a non-negative integer, got {token!r}")
    return int(token)


def _ints(value: str, lineno: int, what: str, arity: int) -> tuple[int, ...]:
    if _INTS_RE[arity].match(value):
        return tuple(map(int, value.split("-")))
    tokens = value.split("-")
    if len(tokens) != arity:
        _fail(lineno, f"{what} needs {arity} values, got {len(tokens)}")
    return tuple(_int(t, lineno, what) for t in tokens)


def _parse_connect(value: str, lineno: int) -> tuple[int, ...] | None:
    if value == "Null":
        return None
    targets = tuple(_int(t, lineno, "connect_to") for t in value.split("-"))
    if any(t < 1 for t in targets):
        _fail(lineno, "connect_to ids must be >= 1")
    if any(a >= b for a, b in zip(targets, targets[1:])):
        _fail(lineno, f"connect_to must be strictly ascending, got {targets}")
    return targets


def parse_line(line: str, lineno: int = 1) -> tuple[int, NodeSpec, tuple[int, ...] | None]:
    """Parse one line into (id, spec, connect_to); strict on everything."""
    parts = _split(line)
    keys = tuple(key for key, _, _ in parts)
    kind = _classify(parts, keys, line)
    for key, sep, value in parts:
        if not sep or not key or not value:
            _fail(lineno, f"field {key + sep + value!r} is not key:value")
    if kind == "full":
        expected = _FULL_KEYS if len(parts) == 5 else _FULL_KEYS_BARE
    else:
        expected = _KIND_KEYS[kind]
    if keys != expected:
        _fail(lineno, f"expected fields {expected}, got {keys}")
    # safe after the key-sequence check: schemas repeat no key
    values = {key: value for key, _, value in parts}

    uid = _int(values["id"], lineno, "id")
    if uid < 1:
        _fail(lineno, "id must be >= 1")
    connect = _parse_connect(values["connect_to"], lineno)

    try:
        if kind == "conv":
            flat = _ints(values["padding"], lineno, "padding", 8)
            spec: NodeSpec = ConvSpec(
                in_size=_ints(values["in_size"], lineno, "in_size", 3),
                out_size=_ints(values["out_size"], lineno, "out_size", 3),
                kernel=_ints(values["kernel"], lineno, "kernel", 2),
                stride=_ints(values["stride"], lineno, "stride", 2),
                padding=tuple(zip(flat[0::2], flat[1::2])),
                dilation=_int(values["dilation"], lineno, "dilation"),
                groups=_int(values["groups"], lineno, "groups"),
                bias_used=_parse_bool(values["bias_used"], lineno),
            )
        elif kind == "pool":
            spec = PoolSpec(
                pool_type=values["type"],
                in_size=_ints(values["in_size"], lineno, "in_size", 3),
                out_size=_ints(values["out_size"], lineno, "out_size", 3),
                kernel=_ints(values["kernel"], lineno, "kernel", 2),
                stride=_ints(values["stride"], lineno, "stride", 2),
                padding=_ints(values["padding"], lineno, "padding", 4),
                dilation=_int(values["dilation"], lineno, "dilation"),
                bias_used=_parse_bool(values["bias_used"], lineno),
            )
        elif kind == "full":
            spec = FullSpec(
                in_size=_int(values["in_size"], lineno, "in_size"),
                out_size=_int(values["out_size"], lineno, "out_size"),
                act_fun=values.get("act_fun"),
            )
        else:
            spec = MFSpec(
                op_name=values["name"],
                in_size=_parse_shape(values["in_size"], lineno, "in_size"),
                out_size=_parse_shape(values["out_size"], lineno, "out_size"),
                values=_parse_mf_values(values["value"], lineno),
            )
    except InvalidSpecError as exc:
        _fail(lineno, str(exc))
    return uid, spec, connect


def _parse_bool(value: str, lineno: int) -> bool:
    if value == "Yes":
        return True
    if value == "No":
        return False
    _fail(lineno, f'bias_used must be "Yes" or "No", got {value!r}')


def _parse_shape(value: str, lineno: int, what: str) -> tuple[int, ...]:
    arity = value.count("-") + 1
    if arity not in (1, 3):
        _fail(lineno, f"{what} needs 1 or 3 values, got {arity}")
    return _ints(value, lineno, what, arity)


def _parse_mf_values(value: str, lineno: int) -> tuple[str, ...]:
    if value == "Null":
        return ()
    tokens = value.split("-")
    if any(not t for t in tokens):
        _fail(lineno, "empty parameter value")
    encoded = [t.encode("utf-8") for t in tokens]
    if any(a > b for a, b in zip(encoded, encoded[1:])):
        _fail(lineno, f"parameter values must be sorted ascending, got {tokens}")
    return tuple(tokens)


def _body(text: str) -> str:
    """The text without its one tolerated trailing newline; never empty."""
    if text.endswith("\n"):
        text = text[:-1]  # tolerate one trailing newline, nothing more
    if not text:
        raise EmptyInputError("no content to parse")
    return text


def _parse_lines(lines: list[str]) -> list[tuple[int, NodeSpec, tuple[int, ...] | None]]:
    parsed = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            _fail(lineno, "blank line")
        parsed.append(parse_line(line, lineno))
    return parsed


def _check_ids(parsed) -> int:
    seen: set[int] = set()
    prev = 0
    for lineno, (uid, _, _) in enumerate(parsed, start=1):
        if uid in seen:
            raise DuplicateIdError(f"line {lineno}: id {uid} repeats", subject=uid)
        seen.add(uid)
        if uid != prev + 1:
            raise NonContiguousIdsError(
                f"line {lineno}: expected id {prev + 1}, got {uid}", subject=uid
            )
        prev = uid
    return prev


def parse_description(text: str) -> tuple[ArchGraph, CanonicalOrder]:
    """Parse a full description back into a graph.

    Node names are synthesized as "n1".."nN" from the ids; the returned
    order maps each name to its id. Rendering the result reproduces the
    input bytes whenever the input was itself canonically rendered.
    """
    parsed = _parse_lines(_body(text).split("\n"))
    n = _check_ids(parsed)

    sinks = [uid for uid, _, connect in parsed if connect is None]
    if len(sinks) > 1:
        raise MultipleSinksError(
            f"connect_to:Null on ids {sinks}; only the last unit may be the sink",
            subject=tuple(sinks),
        )
    if sinks and sinks[0] != n:
        raise NonCanonicalSinkError(
            f"connect_to:Null on id {sinks[0]}, but the highest id is {n}",
            subject=sinks[0],
        )

    for uid, _, connect in parsed:
        for target in connect or ():
            if target > n:
                raise DanglingConnectError(
                    f"id {uid} connects to missing id {target}", subject=target
                )

    nodes = [(f"n{uid}", spec) for uid, spec, _ in parsed]
    edges = [
        (f"n{uid}", f"n{target}")
        for uid, _, connect in parsed
        for target in connect or ()
    ]
    graph = build_graph(nodes, edges)  # cycles surface here when no unit is Null
    order = CanonicalOrder({f"n{uid}": uid for uid, _, _ in parsed}, n)
    return graph, order


def description_from_text(text: str) -> Description:
    """Validate text and repackage it as a Description (used by diffing).

    Every line the parser accepts is already in rendered form, so each
    UnitLine takes its fields straight from the line and ``text`` is the
    input minus its one tolerated trailing newline; nothing is re-rendered.
    """
    text = _body(text)
    lines = text.split("\n")
    parsed = _parse_lines(lines)
    _check_ids(parsed)
    units = tuple(
        UnitLine(kind_of(spec), uid,
                 tuple((key, value) for key, _, value in _split(line)[1:-1]), connect)
        for line, (uid, spec, connect) in zip(lines, parsed)
    )
    return Description(units, text)
