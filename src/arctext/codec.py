"""Text rendering and strict parsing of architecture descriptions.

One node becomes one line of ``key:value`` fields joined by ``;``; lines are
joined by a single LF with no trailing newline. The grammar is deliberately
rigid -- fixed field order per kind, canonical integer spelling, sorted
multi-values, ascending connect_to -- so each architecture has exactly one
spelling and byte equality coincides with architectural equality.

The line grammar is one compiled pattern per kind, built from the rules in
:mod:`arctext.unitformat`: its field table and connect list. A line is
tried against the kinds in table order. Each pattern spells its kind's key
sequence, no value holds ``;`` and no two kinds share a sequence, so at most
one pattern can match; its ``fullmatch`` yields the kind, the id, every
field's string and the connect list. The patterns make every check on one
value; after the match run only the checks that compare values: connect
targets strictly ascending (on a line with two or more), and the kind's
value comparison from ``unitformat``. Every check has then run. A line
that passes builds its spec with ``unitformat.proved_spec`` from the line's
basic string alone, which the spec keeps and reads its values from on first
use (``description_from_text`` builds no spec), and its ``UnitLine`` with
``_proved_line``, which keeps the line as its text. A rendered ``Description``
holds its text alone until its lines are read, and then builds each line by
``_proved_line`` from the id, kind keys and connect list the line spells.
Any other line's first fault is worded by ``_refuse``: a value its shape's
pattern refuses by that shape's one template, "<key> must be <says>, got
<value>"; descending connect targets and unsorted MF values by their own
message; and the rest (pool channels, a ``Null`` among MF values) by the
public spec class.

``parse_description`` builds its graph from what the grammar proved: each
name "n<k>" is made once, a target is a name by its id, and the
``ArchGraph`` constructor gets distinct edges. Only the faults no line
shows are checked: the sink, dangling targets, self-loops and (in the
constructor) cycles, in that order, which is the order ``build_graph``
would report them in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import lt

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
    kind_of,
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


def _proved_line(kind: str, id: int, connect_to, text: str) -> UnitLine:
    """The unit of a proved line ``text``, built without the ``UnitLine`` constructor."""
    line = object.__new__(UnitLine)
    line.__dict__.update(unit_kind=kind, id=id, connect_to=connect_to, text=text)
    return line


@dataclass(frozen=True)
class Description:
    """A complete rendered architecture: lines ascending by id.

    A rendered one holds its proved text alone and builds its lines from it
    on first use; it compares, hashes, copies and pickles as if it held them.
    """

    lines: tuple[UnitLine, ...]
    text: str

    def __getattr__(self, name: str):  # only reached for the unread lines of a rendered text
        if name != "lines" or "text" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        lines = []  # line k has id k, and no value holds ";" or ":"
        for uid, line in enumerate(self.text.split("\n"), start=1):
            for mark, kind in _KIND_MARKS:
                if mark in line:
                    break
            else:
                kind = KIND_FULL
            targets = line.rpartition(":")[2]  # read as parse_line reads them
            if "-" in targets:
                connect = _read_ints(targets)
            else:
                connect = None if targets == "Null" else (int(targets),)
            lines.append(_proved_line(kind, uid, connect, line))
        self.__dict__["lines"] = lines = tuple(lines)
        return lines

    def __getstate__(self):  # the constructor's state, lines first
        return {"lines": self.lines, "text": self.text}


def render_unit(spec: NodeSpec, id: int, connect_to) -> UnitLine:
    _check_int(id, "id")
    targets: tuple[int, ...] | None
    if connect_to is None:
        targets = None
    else:
        targets = tuple(connect_to)
        for t in targets:
            _check_int(t, "connect_to entry")
        if any(a >= b for a, b in zip(targets, targets[1:])):
            raise InvalidSpecError(f"connect_to must be strictly ascending, got {targets}")
        if not targets:
            targets = None  # outdegree 0 is the sink
    return _proved_line(kind_of(spec), id, targets,  # proved: a checked spec, id and targets
                        f"id:{id};{basic_string(spec)};connect_to:{_connect_text(targets)}")


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
    d = object.__new__(Description)
    d.__dict__["text"] = "\n".join(texts)
    return d


# --- the line grammar ----------------------------------------------------------

# every key of a kind's line, then the same without its optional keys
_KIND_KEYS = {
    kind: (("id",) + tuple(f.key for f in fields) + ("connect_to",),
           ("id",) + tuple(f.key for f in fields if not f.optional) + ("connect_to",))
    for kind, (_, fields) in UNIT_FIELDS.items()
}
_FULL_KEYS = set(_KIND_KEYS[KIND_FULL][0])


# per kind, in table order: its line's compiled fullmatch, spec class and
# value comparison; groups are the id, the kind's field strings and the
# connect list
_KINDS = tuple(
    (kind, re.compile(f"id:({_COUNT.pattern}){_kind_pattern(fields)}"
                      f";connect_to:({_CONNECT.pattern})").fullmatch,
     cls, _AGREE.get(kind))
    for kind, (cls, fields) in UNIT_FIELDS.items()
)


def _split(line: str) -> list[tuple[str, str, str]]:
    """Each ``;``-separated part of a line, partitioned at its first colon."""
    return [part.partition(":") for part in line.split(";")]


# the keys that tell a line's kind in this order, else it is full; a proved line spells key k ";k:"
_KIND_BY_KEY = (("type", KIND_POOL), ("name", KIND_MF), ("kernel", KIND_CONV))
_KIND_MARKS = tuple((f";{key}:", kind) for key, kind in _KIND_BY_KEY)


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


_SPEC, _UNIT, _BOTH = 1, 2, 3  # what parse_line builds for the description readers


def parse_line(line: str, lineno: int = 1, *, _want: int = _SPEC):
    """Parse one line into (id, spec, connect_to); strict on everything.

    The description readers pass ``_want``. With ``_BOTH`` or ``_UNIT`` the
    line's ``UnitLine`` comes fourth, its ``text`` the line itself; with
    ``_UNIT`` no spec is built (None).
    """
    for kind, fullmatch, cls, agree in _KINDS:
        if match := fullmatch(line):
            break
    else:
        _refuse(line, lineno)
    uid, *values, targets = match.groups()
    if "-" in targets:  # two or more targets, which must ascend
        connect = _read_ints(targets)
        if not all(map(lt, connect, connect[1:])):
            _refuse(line, lineno)
    else:
        connect = None if targets == "Null" else (int(targets),)
    if agree and not agree(values):
        _refuse(line, lineno)
    uid = int(uid)
    # the basic string lies between the id and the connect list, which holds no ";"
    spec = None if _want == _UNIT else proved_spec(cls, line[match.end(1) + 1:line.rfind(";")])
    if _want == _SPEC:
        return uid, spec, connect
    return uid, spec, connect, _proved_line(kind, uid, connect, line)  # already rendered


# --- whole descriptions ------------------------------------------------------------

def _read_text(text: str, want: int):
    """The text minus its one tolerated trailing newline, and each line's entry.

    An entry is what ``parse_line`` returns with ``_want=want``. Every line is
    parsed before the ids are checked, and line k must carry id k. At the
    first line out of step, lines 1..k-1 hold ids 1..k-1, so a smaller id
    repeats one of them.
    """
    if text.endswith("\n"):
        text = text[:-1]  # tolerate one trailing newline, nothing more
    if not text:
        raise EmptyInputError("no content to parse")
    entries = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            _fail(lineno, "blank line")
        entries.append(parse_line(line, lineno, _want=want))
    for lineno, entry in enumerate(entries, start=1):
        uid = entry[0]
        if uid < lineno:
            raise DuplicateIdError(f"line {lineno}: id {uid} repeats", subject=uid)
        if uid > lineno:
            raise NonContiguousIdsError(
                f"line {lineno}: expected id {lineno}, got {uid}", subject=uid
            )
    return text, entries


def _build(entries) -> tuple[ArchGraph, CanonicalOrder]:
    """The graph and numbering of proved entries, after the checks no line can make.

    The grammar has proved each line's spec and its targets (integers >= 1,
    strictly ascending, so no line repeats an edge), and the ids run 1..n,
    so each name "n<k>" is made once and a target is a name by its index.
    Left to check, in this order: one sink and it is the last id, no target
    beyond n, no line connecting to itself, and (in the constructor) no cycle.
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
    succ: dict[str, tuple[str, ...]] = {}
    pred: dict[str, list[str]] = {name: [] for name in names}
    for name, entry in zip(names, entries):
        uid, targets = entry[0], entry[2]
        if targets is None:
            succ[name] = ()
            continue
        if targets[0] <= uid and uid in targets:  # only a target up to its own id can be it
            raise SelfLoopError(f"self-loop on node {name!r}", subject=(name, name))
        heads = succ[name] = tuple(map(name_of.__getitem__, targets))
        for head in heads:
            edges.append((name, head))
            pred[head].append(name)
    nodes = dict(zip(names, [entry[1] for entry in entries]))
    graph = ArchGraph(nodes, tuple(edges), frozenset(edges), succ,
                      {k: tuple(v) for k, v in pred.items()})  # a cycle surfaces here
    return graph, _ordered(dict(zip(names, range(1, n + 1))), names)


def parse_description(text: str) -> tuple[ArchGraph, CanonicalOrder]:
    """Parse a full description back into a graph.

    Node names are synthesized as "n1".."nN" from the ids; the returned
    order maps each name to its id. Rendering the result reproduces the
    input bytes whenever the input was itself canonically rendered.
    """
    return _build(_read_text(text, _SPEC)[1])


def description_from_text(text: str) -> Description:
    """Validate text and repackage it as a Description (used by diffing).

    Each line is checked as strictly as ``parse_description`` checks it, and
    so is the id sequence; the sink, the connect targets and cycles are not.
    Every line the grammar accepts is already in rendered form, so each
    UnitLine's ``text`` is the line itself, and its fields are read from it;
    the Description's ``text`` is the input minus its one tolerated trailing
    newline. Nothing is re-rendered, and no spec is built.
    """
    body, entries = _read_text(text, _UNIT)
    return Description(tuple([entry[3] for entry in entries]), body)


def _parse_text(text: str) -> tuple[ArchGraph, CanonicalOrder, Description]:
    """``parse_description`` and ``description_from_text`` of ``text``.

    Each line is parsed once; errors are raised as ``parse_description``
    raises them.
    """
    body, entries = _read_text(text, _BOTH)
    graph, order = _build(entries)
    return graph, order, Description(tuple([entry[3] for entry in entries]), body)
