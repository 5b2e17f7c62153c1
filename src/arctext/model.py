"""Architecture-graph data model.

A network architecture is a DAG whose nodes are one of four unit kinds:

* :class:`ConvSpec` -- convolutional layers
* :class:`PoolSpec` -- pooling layers (max or average)
* :class:`FullSpec` -- fully-connected layers
* :class:`MFSpec`  -- everything else (activations, batch norm, dropout,
  addition/concatenation merge points, ...)

Specs hold only the *basic* configuration of a node. Identifiers and
connection lists are derived later, by canonical ordering, and are never
stored on a spec. Node names are transport-only handles: they make graphs
convenient to build and debug but never appear in rendered text.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Union

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    DuplicateNodeNameError,
    InvalidNodeNameError,
    InvalidSpecError,
    SelfLoopError,
    UnknownEdgeEndpointError,
)

POOL_TYPES = ("Max", "Avg")

_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # str()'s limit; 0: none
# the least integer whose decimal form is longer than str() writes
_TOO_LONG = 10 ** _MAX_DIGITS if _MAX_DIGITS else float("inf")

# characters that would collide with the text grammar's separators
_FORBIDDEN_TOKEN_CHARS = set(";:-\n")


def _check_token(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidSpecError(f"{what} must be a non-empty string, got {value!r}")
    bad = _FORBIDDEN_TOKEN_CHARS.intersection(value)
    if bad:
        raise InvalidSpecError(
            f"{what} {value!r} contains reserved character(s) {sorted(bad)!r}"
        )
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidSpecError(
            f"{what} {value!r} contains a lone surrogate, which UTF-8 cannot encode"
        ) from None
    return value


def _check_int(value: object, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpecError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidSpecError(f"{what} must be >= {minimum}, got {value}")
    if value >= _TOO_LONG:
        raise InvalidSpecError(f"{what} has more than {_MAX_DIGITS} digits")
    return value


def _is_sequence(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _check_ints(items: tuple, what: str, minimum: int) -> tuple[int, ...]:
    for v in items:
        _check_int(v, f"{what} element", minimum)
    return items


def _int_tuple(values: object, what: str, arity: int, minimum: int) -> tuple[int, ...]:
    if not _is_sequence(values):
        raise InvalidSpecError(f"{what} must be a sequence of {arity} integers")
    items = tuple(values)
    if len(items) != arity:
        raise InvalidSpecError(f"{what} must have {arity} elements, got {len(items)}")
    return _check_ints(items, what, minimum)


class _Spec:
    """Base of the four spec kinds.

    :mod:`arctext.unitformat` builds the specs its readers have proved and
    keeps a spec's rendered basic fields in its instance ``__dict__``; specs
    are frozen, so nothing kept can go stale. Only the dataclass fields are
    pickled, so rendering never changes a spec's pickle.
    """

    def __getstate__(self):
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class ConvSpec(_Spec):
    """Configuration of a convolutional layer.

    Shapes are (width, height, channels). ``stride`` is (vertical,
    horizontal). ``padding`` holds one (value, count) pair per direction in
    the order up, down, left, right.
    """

    in_size: tuple[int, int, int]
    out_size: tuple[int, int, int]
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[tuple[int, int], ...] = ((0, 0), (0, 0), (0, 0), (0, 0))
    dilation: int = 1
    groups: int = 1
    bias_used: bool = False

    def __post_init__(self):
        object.__setattr__(self, "in_size", _int_tuple(self.in_size, "in_size", 3, 1))
        object.__setattr__(self, "out_size", _int_tuple(self.out_size, "out_size", 3, 1))
        object.__setattr__(self, "kernel", _int_tuple(self.kernel, "kernel", 2, 1))
        object.__setattr__(self, "stride", _int_tuple(self.stride, "stride", 2, 1))
        if not isinstance(self.padding, Sequence) or len(self.padding) != 4:
            raise InvalidSpecError("padding must hold 4 (value, count) pairs")
        pads = tuple(
            _int_tuple(p, "padding pair", 2, 0) for p in self.padding
        )
        object.__setattr__(self, "padding", pads)
        _check_int(self.dilation, "dilation", 1)
        _check_int(self.groups, "groups", 1)
        if not isinstance(self.bias_used, bool):
            raise InvalidSpecError("bias_used must be a bool")


@dataclass(frozen=True)
class PoolSpec(_Spec):
    """Configuration of a pooling layer.

    ``padding`` is four pad counts in the order up, down, left, right
    (pooling always pads with zeros, so no pad value is stored). Input and
    output channel counts must agree.
    """

    pool_type: str
    in_size: tuple[int, int, int]
    out_size: tuple[int, int, int]
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[int, int, int, int] = (0, 0, 0, 0)
    dilation: int = 1
    bias_used: bool = False

    def __post_init__(self):
        if self.pool_type not in POOL_TYPES:
            raise InvalidSpecError(
                f"pool_type must be one of {POOL_TYPES}, got {self.pool_type!r}"
            )
        object.__setattr__(self, "in_size", _int_tuple(self.in_size, "in_size", 3, 1))
        object.__setattr__(self, "out_size", _int_tuple(self.out_size, "out_size", 3, 1))
        object.__setattr__(self, "kernel", _int_tuple(self.kernel, "kernel", 2, 1))
        object.__setattr__(self, "stride", _int_tuple(self.stride, "stride", 2, 1))
        object.__setattr__(self, "padding", _int_tuple(self.padding, "padding", 4, 0))
        _check_int(self.dilation, "dilation", 1)
        if not isinstance(self.bias_used, bool):
            raise InvalidSpecError("bias_used must be a bool")
        if self.in_size[2] != self.out_size[2]:
            raise InvalidSpecError(
                "pooling cannot change the channel count "
                f"({self.in_size[2]} -> {self.out_size[2]})"
            )


@dataclass(frozen=True)
class FullSpec(_Spec):
    """Configuration of a fully-connected layer."""

    in_size: int
    out_size: int
    act_fun: str | None = None

    def __post_init__(self):
        _check_int(self.in_size, "in_size", 1)
        _check_int(self.out_size, "out_size", 1)
        if self.act_fun is not None:
            _check_token(self.act_fun, "act_fun")


@dataclass(frozen=True)
class MFSpec(_Spec):
    """Configuration of a multi-function node (activation, BN, dropout,
    addition/concatenation merge, interpolation, ...).

    Sizes may be a single extent or a full (width, height, channels) shape;
    bare integers are accepted and stored as 1-tuples. Parameter strings in
    ``values`` are stored sorted by their UTF-8 byte order, which is the
    order they are rendered in. The literal ``"Null"`` is reserved to mean
    "no parameters" and is rejected as a parameter value.
    """

    op_name: str
    in_size: tuple[int, ...]
    out_size: tuple[int, ...]
    values: tuple[str, ...] = ()

    def __post_init__(self):
        _check_token(self.op_name, "op_name")
        object.__setattr__(self, "in_size", _shape_1_or_3(self.in_size, "in_size"))
        object.__setattr__(self, "out_size", _shape_1_or_3(self.out_size, "out_size"))
        if isinstance(self.values, str):
            raise InvalidSpecError("values must be a sequence of strings, not a string")
        if isinstance(self.values, Mapping) or not isinstance(self.values, Iterable):
            raise InvalidSpecError(
                f"values must be a sequence of strings, got {type(self.values).__name__}")
        vals = tuple(self.values)
        for v in vals:
            _check_token(v, "parameter value")
            if v == "Null":
                raise InvalidSpecError('"Null" is reserved and cannot be a parameter value')
        # code-point order is UTF-8 byte order once lone surrogates are out
        object.__setattr__(self, "values", tuple(sorted(vals)))


def _shape_1_or_3(value: object, what: str) -> tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = (value,)
    if not _is_sequence(value):
        raise InvalidSpecError(f"{what} must be an int or a shape tuple")
    items = tuple(value)
    if len(items) not in (1, 3):
        raise InvalidSpecError(f"{what} must have 1 or 3 elements, got {len(items)}")
    return _check_ints(items, what, 1)


NodeSpec = Union[ConvSpec, PoolSpec, FullSpec, MFSpec]


# --- diagnostics -------------------------------------------------------------

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    subject: object
    message: str


@dataclass(frozen=True)
class Diagnostics:
    """Validation result: a flat list of findings, errors before warnings."""

    findings: tuple[Finding, ...]

    @property
    def has_errors(self) -> bool:
        return any(f.severity == SEVERITY_ERROR for f in self.findings)

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ERROR)

    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_WARNING)


# --- the graph ----------------------------------------------------------------

class ArchGraph:
    """An immutable architecture DAG.

    Use :func:`build_graph`; the constructor assumes its inputs were already
    checked. Node insertion order is recorded: it seeds deterministic
    iteration and is the last key of the ordering tie-break, so it can
    change the canonical description when tied paths have equal digests
    and equal positions (ROADMAP item 1).

    Equality compares the name->spec mapping and the edge *set*; insertion
    order is deliberately ignored.
    """

    __slots__ = ("nodes", "edges", "_edge_set", "_succ", "_pred", "_index", "_topo")

    def __init__(
        self,
        nodes: dict[str, NodeSpec],
        edges: tuple[tuple[str, str], ...],
        succ: dict[str, tuple[str, ...]],
        pred: dict[str, tuple[str, ...]],
        topo: tuple[str, ...],
    ):
        self.nodes = nodes
        self.edges = edges
        self._edge_set = frozenset(edges)
        self._succ = succ
        self._pred = pred
        self._index = {name: i for i, name in enumerate(nodes)}
        self._topo = topo

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchGraph):
            return NotImplemented
        return self.nodes == other.nodes and self._edge_set == other._edge_set

    __hash__ = None  # mutable-looking container semantics; not hashable

    def names(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def spec(self, name: str) -> NodeSpec:
        return self.nodes[name]

    def successors(self, name: str) -> tuple[str, ...]:
        return self._succ[name]

    def predecessors(self, name: str) -> tuple[str, ...]:
        return self._pred[name]

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    def node_index(self, name: str) -> int:
        """Insertion index of a node, used as the last-resort tie-break."""
        return self._index[name]

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return self._edge_set

    def topological_order(self) -> tuple[str, ...]:
        return self._topo


def build_graph(
    nodes: Iterable[tuple[str, NodeSpec]],
    edges: Iterable[tuple[str, str]],
) -> ArchGraph:
    """Assemble and fully check an :class:`ArchGraph`.

    Raises InvalidNodeNameError, DuplicateNodeNameError,
    UnknownEdgeEndpointError, SelfLoopError, DuplicateEdgeError or
    CycleDetectedError (the latter reports one offending cycle).
    """
    node_map: dict[str, NodeSpec] = {}
    for name, spec in nodes:
        if not isinstance(name, str) or not name:
            raise InvalidNodeNameError(
                f"node names must be non-empty strings, got {name!r}", subject=name
            )
        if name in node_map:
            raise DuplicateNodeNameError(f"duplicate node name {name!r}", subject=name)
        if not isinstance(spec, (ConvSpec, PoolSpec, FullSpec, MFSpec)):
            raise InvalidSpecError(
                f"node {name!r} has unsupported spec type {type(spec).__name__}",
                subject=name,
            )
        node_map[name] = spec

    edge_list: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    succ: dict[str, list[str]] = {name: [] for name in node_map}
    pred: dict[str, list[str]] = {name: [] for name in node_map}
    for src, dst in edges:
        if src not in node_map or dst not in node_map:
            missing = src if src not in node_map else dst
            raise UnknownEdgeEndpointError(
                f"edge ({src!r} -> {dst!r}) references unknown node {missing!r}",
                subject=(src, dst),
            )
        if src == dst:
            raise SelfLoopError(f"self-loop on node {src!r}", subject=(src, dst))
        if (src, dst) in seen:
            raise DuplicateEdgeError(
                f"duplicate edge ({src!r} -> {dst!r})", subject=(src, dst)
            )
        seen.add((src, dst))
        edge_list.append((src, dst))
        succ[src].append(dst)
        pred[dst].append(src)

    topo = _topological_order(node_map, succ, pred)

    return ArchGraph(
        node_map,
        tuple(edge_list),
        {k: tuple(v) for k, v in succ.items()},
        {k: tuple(v) for k, v in pred.items()},
        topo,
    )


def _topological_order(
    node_map: dict[str, NodeSpec],
    succ: dict[str, list[str]],
    pred: dict[str, list[str]],
) -> tuple[str, ...]:
    indeg = {name: len(pred[name]) for name in node_map}
    queue = [name for name in node_map if indeg[name] == 0]
    order: list[str] = []
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != len(node_map):
        cycle = _find_cycle({name for name in node_map if indeg[name] > 0}, pred)
        raise CycleDetectedError(
            "graph contains a cycle: " + " -> ".join(cycle), subject=tuple(cycle)
        )
    return tuple(order)


def _find_cycle(remaining: set[str], pred: dict[str, list[str]]) -> list[str]:
    # Kahn's sort leaves every remaining node a remaining predecessor, so a
    # walk back along them must repeat a node; the repeat closes a cycle
    seen_at: dict[str, int] = {}
    v = min(remaining)
    while v not in seen_at:
        seen_at[v] = len(seen_at)
        v = next(u for u in pred[v] if u in remaining)
    cycle = list(seen_at)[seen_at[v]:][::-1]  # forward order
    first = cycle.index(min(cycle))
    cycle = cycle[first:] + cycle[:first]
    return cycle + [cycle[0]]


def validate_graph(g: ArchGraph) -> Diagnostics:
    """Check the degree structure needed for canonical ordering.

    Errors (which block canonicalization): NoNodes, AmbiguousSource,
    AmbiguousSink. Warnings: SourceOutdegreeNotOne, SinkIndegreeNotOne,
    IsolatedNode.
    """
    findings: list[Finding] = []
    if len(g) == 0:
        findings.append(
            Finding(SEVERITY_ERROR, "NoNodes", None, "graph has no nodes")
        )
        return Diagnostics(tuple(findings))

    sources = [n for n in g.names() if g.in_degree(n) == 0]
    sinks = [n for n in g.names() if g.out_degree(n) == 0]

    if len(sources) != 1:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                "AmbiguousSource",
                tuple(sources),
                f"expected exactly one indegree-0 node, found {len(sources)}: {sources}",
            )
        )
    if len(sinks) != 1:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                "AmbiguousSink",
                tuple(sinks),
                f"expected exactly one outdegree-0 node, found {len(sinks)}: {sinks}",
            )
        )

    if len(sources) == 1 and g.out_degree(sources[0]) != 1:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "SourceOutdegreeNotOne",
                sources[0],
                f"source {sources[0]!r} has outdegree {g.out_degree(sources[0])}, expected 1",
            )
        )
    if len(sinks) == 1 and g.in_degree(sinks[0]) != 1:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "SinkIndegreeNotOne",
                sinks[0],
                f"sink {sinks[0]!r} has indegree {g.in_degree(sinks[0])}, expected 1",
            )
        )
    for name in g.names():
        if g.in_degree(name) == 0 and g.out_degree(name) == 0:
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    "IsolatedNode",
                    name,
                    f"node {name!r} has no edges",
                )
            )
    return Diagnostics(tuple(findings))
