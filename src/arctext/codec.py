"""Text rendering and strict parsing of architecture descriptions.

One node becomes one line of ``key:value`` fields joined by ``;``; lines are
joined by a single LF with no trailing newline. The grammar is deliberately
rigid -- fixed field order per kind, canonical integer spelling, sorted
multi-values, ascending connect_to -- so each architecture has exactly one
spelling and byte equality coincides with architectural equality.

The grammar is built from the rules in :mod:`arctext.unitformat`: its field
table and connect list. A line is one pattern, the alternation of every
kind's line pattern. Each spells its kind's key sequence, no value holds
``;`` or ``:`` and no two kinds share a sequence, so a line that matches is
of one kind, told by the first of the keys ``type``, ``name`` and
``kernel`` it spells, else full. The pattern makes every check on one
value; one scan per check then makes those that compare values: connect
targets strictly ascending, and each kind's value comparison from
``unitformat`` on the texts of its keys. A whole text is proved the same
way, by one ``fullmatch`` of its lines and the same scans, and its ids by
one more; only a text that fails is read line by line, to raise its first
fault. A proved line is sliced: its basic string lies between its first
``;`` and its connect list, which follows its last ``:``. Its spec is
``unitformat.proved_spec`` of that basic string, which the spec keeps and
reads its values from on first use; its ``UnitLine`` keeps the line as its
text, with its kind and connect list. A rendered or parsed ``Description``
holds its text alone until its lines are read; neither vectorizer reads
them. A refused line's first fault is worded by ``_refuse``: a value its
shape's pattern refuses by that shape's one template, "<key> must be
<says>, got <value>"; descending connect targets and unsorted MF values by
their own message; and the rest (pool channels, a ``Null`` among MF values)
by the public spec class.

A text has three readers, each proving it once: ``description_from_text``
keeps it as a ``Description``, ``parse_description`` builds its graph and
numbering, and ``read_description`` gives all three. The graph is built from
what the grammar proved: each name "n<k>" is made once and a target is a
name by its id. Its edges go to the ``ArchGraph`` constructor, which builds
the edge set and neighbour tuples and refuses a repeated edge, as for
``build_graph``. Only the faults no line shows are checked: the sink,
dangling targets, self-loops and (in the constructor) cycles, in the order
``build_graph`` reports them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import starmap
from operator import lt
from typing import NoReturn

from .canonical import DEFAULT_MAX_PATHS, CanonicalOrder, _ordered, assign_positions
from .errors import (
    DanglingConnectError,
    DuplicateIdError,
    EmptyInputError,
    InvalidSpecError,
    MalformedLineError,
    MultipleSinksError,
    NonCanonicalSinkError,
    NonContiguousIdsError,
    SelfLoopError,
    UnclassifiableLineError,
)
from .model import ArchGraph
from .unitformat import (
    _AGREE,
    _CONNECT,
    _COUNT,
    KIND_CONV,
    KIND_FULL,
    KIND_MF,
    KIND_POOL,
    UNIT_FIELDS,
    NodeSpec,
    _check_int,
    _connect_text,
    _kind_pattern,
    _pairs,
    _read_ints,
    _shown,
    basic_string,
    proved_spec,
)


@dataclass(frozen=True)
class UnitLine:
    """One rendered unit: kind, id, its basic fields, and its successors.

    ``connect_to`` is None for the sink (rendered as the literal "Null").
    A parsed or rendered unit holds its line as ``text``, proved by the
    grammar or by the spec's checks, and reads its ``fields`` from it on each
    use. A unit built by hand holds its fields and spells its ``text`` from
    them on each use; nothing proves it, and fields that cannot be spelled
    raise ``MalformedLineError`` naming its id.
    """

    unit_kind: str
    id: int
    fields: tuple[tuple[str, str], ...]
    connect_to: tuple[int, ...] | None

    def __getattr__(self, name: str):  # only reached for what the unit does not hold
        if name == "fields" and "text" in self.__dict__:  # proved: no value holds ";"
            return _pairs(self.text.split(";")[1:-1])
        if name != "text":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        try:
            body = ";".join(f"{k}:{v}" for k, v in self.fields)
            return f"id:{self.id};{body};connect_to:{_connect_text(self.connect_to)}"
        except (TypeError, ValueError):  # not pairs, not iterable, or an int str() cannot write
            raise _not_well_formed(self) from None


def _not_well_formed(line: UnitLine) -> MalformedLineError:
    """The refusal of a unit built by hand, by its id and kind."""
    return MalformedLineError(
        f"unit {_shown(line.id)} is not a well-formed {line.unit_kind!r} line", subject=line.id)


def _proved_line(id: int, text: str) -> UnitLine:
    """The unit of a proved line ``text`` as ``id``, built without the ``UnitLine`` constructor."""
    line = object.__new__(UnitLine)
    line.__dict__.update(unit_kind=_line_kind(text), id=id, connect_to=_targets(text), text=text)
    return line


@dataclass(frozen=True)
class Description:
    """A complete rendered architecture: lines ascending by id.

    A rendered or parsed one holds its proved text alone and builds its lines
    from it on first use; it compares, hashes, copies and pickles as if it
    held them.
    """

    lines: tuple[UnitLine, ...]
    text: str

    def __getattr__(self, name: str):  # only reached for the unread lines of a proved text
        if name != "lines" or "text" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["lines"] = lines = tuple([  # line k has id k
            _proved_line(uid, line) for uid, line in enumerate(self.text.split("\n"), start=1)])
        return lines

    def __getstate__(self):  # the constructor's state, lines first
        return {"lines": self.lines, "text": self.text}


def render_unit(spec: NodeSpec, id: int, connect_to) -> UnitLine:
    _check_int(id, "id")
    targets = () if connect_to is None else tuple(connect_to)
    for t in targets:
        _check_int(t, "connect_to entry")
    if any(a >= b for a, b in zip(targets, targets[1:])):
        raise InvalidSpecError(f"connect_to must be strictly ascending, got {targets}")
    connect = _connect_text(targets or None)  # outdegree 0 is the sink
    # proved: a checked spec, id and targets
    return _proved_line(id, f"id:{id};{basic_string(spec)};connect_to:{connect}")


def render_description(g: ArchGraph, *, max_paths: int = DEFAULT_MAX_PATHS) -> Description:
    """Canonicalize and render a whole graph.

    Node ids are canonical positions; each connect_to lists the positions of
    the node's successors in ascending order. The description holds its text
    alone: its values are already proved. Its lines are built on first use,
    each equal to what ``render_unit`` gives for its spec, id and successors.
    """
    order = assign_positions(g, max_paths=max_paths)
    positions = order.positions
    specs, successors = g.nodes, g._succ
    texts = []
    for pos, name in enumerate(order.by_position, start=1):
        targets = successors[name]
        if len(targets) == 1:  # most lines: no sort, no join
            connect = positions[targets[0]]
        else:
            connect = _connect_text(sorted([positions[s] for s in targets]) or None)
        # ordering has already joined and kept each spec's basic string
        texts.append(f"id:{pos};{basic_string(specs[name])};connect_to:{connect}")
    return _held("\n".join(texts))


def _held(text: str) -> Description:  # of a proved text, which it holds alone
    d = object.__new__(Description)
    d.__dict__["text"] = text
    return d


# --- the line grammar ----------------------------------------------------------

# every key of a kind's line, then the same without its optional keys
_KIND_KEYS = {
    kind: (("id",) + tuple(f.key for f in fields) + ("connect_to",),
           ("id",) + tuple(f.key for f in fields if not f.optional) + ("connect_to",))
    for kind, (_, fields) in UNIT_FIELDS.items()
}
_FULL_KEYS = set(_KIND_KEYS[KIND_FULL][0])


# a line of any kind, as that kind's pattern spells it, ungrouped (no shape's
# pattern holds a literal parenthesis); no two kinds share a key sequence
_LINE = re.sub(r"\((?!\?)", "(?:", f"id:{_COUNT.pattern}(?:"
               + "|".join(_kind_pattern(fields) for _, fields in UNIT_FIELDS.values())
               + f");connect_to:(?:{_CONNECT.pattern})")
_WHOLE = re.compile(f"{_LINE}(?:\n{_LINE})*").fullmatch  # the LF-joined lines of a text
# what the checks that compare values read, each found by keys no token can
# spell: later ids, lists of two or more targets, pool sizes, MF value lists
_LATER_IDS = re.compile("\nid:([0-9]+)").findall
_TARGET_LISTS = re.compile("connect_to:([0-9]+-[-0-9]+)").findall
_POOL_SIZES = re.compile("type:[^;]*;in_size:([^;]*);out_size:([^;]*)").findall
_VALUE_LISTS = re.compile("value:([^;]*-[^;]*)").findall


def _agrees(text: str) -> bool:
    """Whether the proved lines of ``text`` have strictly ascending targets and values that
    pass their kind's comparison from ``unitformat``, given the texts of its keys."""
    return (all(all(map(lt, c, c[1:])) for c in map(_read_ints, _TARGET_LISTS(text)))
            and all(starmap(_AGREE[KIND_POOL][1], _POOL_SIZES(text)))
            and all(map(_AGREE[KIND_MF][1], _VALUE_LISTS(text))))


def _split(line: str) -> list[tuple[str, str, str]]:
    """Each ``;``-separated part of a line, partitioned at its first colon."""
    return [part.partition(":") for part in line.split(";")]


# the keys that tell a line's kind in this order, else it is full; a proved line spells key k ";k:"
_KIND_BY_KEY = (("type", KIND_POOL), ("name", KIND_MF), ("kernel", KIND_CONV))
_KIND_MARKS = tuple((f";{key}:", kind) for key, kind in _KIND_BY_KEY)


def _line_kind(line: str) -> str:  # of a proved line
    for mark, kind in _KIND_MARKS:
        if mark in line:
            return kind
    return KIND_FULL


def _targets(line: str) -> tuple[int, ...] | None:
    """A proved line's connect list, which follows its last ":"; None for the sink's "Null"."""
    targets = line[line.rindex(":") + 1:]
    if "-" in targets:
        return _read_ints(targets)
    return None if targets == "Null" else (int(targets),)  # most lines: one target, no split


def _entry(uid: int, line: str) -> tuple:
    """The proved ``line``'s (id, spec, connect_to) as id ``uid``; no value holds ";" or ":"."""
    basic = line[line.index(";") + 1:line.rindex(";connect_to:")]
    return uid, proved_spec(UNIT_FIELDS[_line_kind(line)][0], basic), _targets(line)


def _classify(parts, keys, line: str) -> str:
    for key, kind in _KIND_BY_KEY:
        if key in keys:
            return kind
    if all(sep for _, sep, _ in parts) and set(keys) <= _FULL_KEYS:
        return KIND_FULL
    raise UnclassifiableLineError(
        f"line matches no unit kind: {line!r}", subject=line
    )


def classify_line(line: str) -> str:
    """Decide a line's unit kind from its distinguishing keys."""
    parts = _split(line)
    return _classify(parts, [key for key, _, _ in parts], line)


def _fail(lineno: int, msg: str):
    raise MalformedLineError(f"line {lineno}: {msg}", subject=lineno)


def _refuse(line: str, lineno: int):
    """Raise the error that words the first fault of a line the grammar refuses.

    After the key sequence, each value is matched alone against its shape's
    pattern; then come the comparisons no pattern or spec class words, and
    the public spec class words the rest.
    """
    parts = _split(line)
    keys = tuple(key for key, _, _ in parts)
    kind = _classify(parts, keys, line)
    for key, sep, value in parts:
        if not sep or not key or not value:
            _fail(lineno, f"field {key + sep + value!r} is not key:value")
    every, required = _KIND_KEYS[kind]
    expected = every if len(parts) == len(every) else required
    if keys != expected:
        _fail(lineno, f"expected fields {expected}, got {keys}")
    # safe after the key-sequence check: schemas repeat no key
    values = {key: value for key, _, value in parts}

    cls, fields = UNIT_FIELDS[kind]
    shapes = [("id", _COUNT), *[(f.key, f.shape) for f in fields], ("connect_to", _CONNECT)]
    for key, shape in shapes:
        value = values.get(key)  # None: an optional field the line leaves out
        if value is not None and not re.fullmatch(shape.pattern, value):
            _fail(lineno, f"{key} must be {shape.says}, got {value!r}")
    if values["connect_to"] != "Null":
        connect = _read_ints(values["connect_to"])
        if any(a >= b for a, b in zip(connect, connect[1:])):
            _fail(lineno, f"connect_to must be strictly ascending, got {connect}")
    # code-point order is UTF-8 byte order, so no token needs encoding
    if kind == KIND_MF and (tokens := values["value"].split("-")) != sorted(tokens):
        _fail(lineno, f"parameter values must be sorted ascending, got {tokens}")
    try:
        cls(*[f.shape.read(values.get(f.key)) for f in fields])
    except InvalidSpecError as exc:
        _fail(lineno, str(exc))
    _fail(lineno, "line passes every field's pattern but not the grammar")


def _proves(line: str) -> bool:
    """Whether ``line`` is one line, which one match and the value checks accept."""
    return "\n" not in line and _WHOLE(line) is not None and _agrees(line)


def parse_line(line: str, lineno: int = 1):
    """Parse one line into (id, spec, connect_to); strict on everything."""
    if not _proves(line):
        _refuse(line, lineno)
    return _entry(int(line[3:line.index(";")]), line)  # the id follows "id:", up to the first ";"


# --- whole descriptions ------------------------------------------------------------

def _proved_body(text: str) -> str | None:
    """``text`` minus its one tolerated trailing newline, if one match and the
    value checks prove its lines and its ids run 1..n; else None."""
    body = text[:-1] if text.endswith("\n") else text
    if not (_WHOLE(body) and body.startswith("id:1;") and _agrees(body)):
        return None
    ids = _LATER_IDS(body)
    return body if ids == list(map(str, range(2, len(ids) + 2))) else None


def _refuse_text(text: str) -> NoReturn:
    """Raise the error that words the first fault of a text the whole-text match refused.

    Every line is parsed before line k is checked to carry id k. Some line
    is then out of step, as the match would otherwise have proved the text;
    at the first, a smaller id repeats one of lines 1..k-1.
    """
    if text.endswith("\n"):
        text = text[:-1]  # tolerate one trailing newline, nothing more
    if not text:
        raise EmptyInputError("no content to parse")
    ids = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            _fail(lineno, "blank line")
        ids.append(parse_line(line, lineno)[0])
    lineno, uid = next((k, uid) for k, uid in enumerate(ids, start=1) if uid != k)
    if uid < lineno:
        raise DuplicateIdError(f"line {lineno}: id {uid} repeats", subject=uid)
    raise NonContiguousIdsError(f"line {lineno}: expected id {lineno}, got {uid}", subject=uid)


def _proved(text: str) -> str:  # what one match cannot prove, the line reader refuses
    return _proved_body(text) or _refuse_text(text)


def _entries(body: str) -> list[tuple]:
    return [_entry(uid, line) for uid, line in enumerate(body.split("\n"), start=1)]


def _build(entries) -> tuple[ArchGraph, CanonicalOrder]:
    """The graph and numbering of proved entries, after the checks no line can make.

    The grammar has proved each line's spec and its targets (integers >= 1,
    strictly ascending, so no line repeats an edge) and the ids run 1..n, so
    a target is a name "n<k>" by its index. Checked here, in order: one sink,
    the last id; no target beyond n; no self-loop. The ``(name, target)``
    edges go to the ``ArchGraph`` constructor, which builds the edge set and
    neighbour tuples and finds a cycle.
    """
    n = len(entries)
    sinks = [entry[0] for entry in entries if entry[2] is None]
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

    for entry in entries:
        targets = entry[2]
        if targets and targets[-1] > n:  # ascending: the last is the largest
            target = next(t for t in targets if t > n)
            raise DanglingConnectError(
                f"id {entry[0]} connects to missing id {target}", subject=target
            )

    names = tuple([f"n{k}" for k in range(1, n + 1)])
    name_of = ("",) + names  # by id
    edges: list[tuple[str, str]] = []
    for name, (uid, _, targets) in zip(names, entries):
        if targets is None:
            continue
        if targets[0] <= uid and uid in targets:  # only a target up to its own id can be it
            raise SelfLoopError(f"self-loop on node {name!r}", subject=(name, name))
        edges += [(name, name_of[t]) for t in targets]
    nodes = dict(zip(names, [entry[1] for entry in entries]))
    graph = ArchGraph(nodes, tuple(edges))  # a cycle surfaces here
    return graph, _ordered(dict(zip(names, range(1, n + 1))), names)


def parse_description(text: str) -> tuple[ArchGraph, CanonicalOrder]:
    """Parse a full description back into a graph.

    Node names are synthesized as "n1".."nN" from the ids; the returned
    order maps each name to its id. Rendering the result reproduces the
    input bytes whenever the input was itself canonically rendered.
    """
    return _build(_entries(_proved(text)))


def description_from_text(text: str) -> Description:
    """Validate text and repackage it as a Description (used by diffing).

    Each line and the ids are checked as ``parse_description`` checks them;
    the sink, the connect targets and cycles are not. The Description holds
    the text minus its one tolerated trailing newline alone, and builds its
    lines on first use. Nothing is re-rendered, and no spec is built.
    """
    return _held(_proved(text))


def read_description(text: str) -> tuple[ArchGraph, CanonicalOrder, Description]:
    """``parse_description`` and ``description_from_text`` of ``text``, proved once."""
    body = _proved(text)
    return (*_build(_entries(body)), _held(body))
