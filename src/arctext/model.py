"""The architecture graph: construction and structural validation.

A network architecture is a DAG whose nodes carry one of the four spec
kinds of :mod:`arctext.unitformat` (``ConvSpec``, ``PoolSpec``, ``FullSpec``,
``MFSpec``), which declares and checks them. Specs hold only the *basic*
configuration of a node. Identifiers and connection lists are derived
later, by canonical ordering, and are never stored on a spec. Node names
are transport-only handles: they make graphs convenient to build and debug
but never appear in rendered text.

``build_graph`` checks what it is given, node by node and edge by edge, and
hands the checked nodes, edges, edge set and neighbour tuples to the
``ArchGraph`` constructor, which finds the topological order (or a cycle).
The text parser hands the constructor what its grammar has already proved,
and checks only what no line can show.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    CycleDetectedError,
    DuplicateEdgeError,
    DuplicateNodeNameError,
    GraphError,
    InvalidEdgeError,
    InvalidNodeNameError,
    InvalidSpecError,
    SelfLoopError,
    UnknownEdgeEndpointError,
)
# the spec classes stay importable from here: specs pickled as arctext.model.* load
from .unitformat import ConvSpec, FullSpec, MFSpec, NodeSpec, PoolSpec, _shown


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

    Use :func:`build_graph`; the constructor assumes checked inputs (distinct
    edges; ``succ`` and ``pred`` as neighbour tuples in edge order), keeps
    the edge set it is given and finds the topological order, raising
    CycleDetectedError on a cycle.

    Equality compares the name->spec mapping and the edge *set*; insertion
    order is deliberately ignored.
    """

    __slots__ = ("nodes", "edges", "_edge_set", "_succ", "_pred", "_topo")

    def __init__(
        self,
        nodes: dict[str, NodeSpec],
        edges: tuple[tuple[str, str], ...],
        edge_set: frozenset[tuple[str, str]],
        succ: dict[str, tuple[str, ...]],
        pred: dict[str, tuple[str, ...]],
    ):
        self.nodes = nodes
        self.edges = edges
        self._edge_set = edge_set
        self._succ = succ
        self._pred = pred
        self._topo = _topological_order(nodes, succ, pred)

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
        """Insertion index of a node, read from the order of ``nodes``: O(n) per call."""
        return {known: i for i, known in enumerate(self.nodes)}[name]

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return self._edge_set

    def topological_order(self) -> tuple[str, ...]:
        return self._topo


def build_graph(
    nodes: Iterable[tuple[str, NodeSpec]],
    edges: Iterable[tuple[str, str]],
) -> ArchGraph:
    """Assemble and fully check an :class:`ArchGraph`.

    Raises InvalidNodeNameError, DuplicateNodeNameError, InvalidEdgeError
    (an edge that is not a pair), UnknownEdgeEndpointError, SelfLoopError,
    DuplicateEdgeError or CycleDetectedError (the latter reports one
    offending cycle). Each is the first fault in input order: nodes before
    edges, and edges one by one.
    """
    node_map: dict[str, NodeSpec] = {}
    for name, spec in nodes:
        if not isinstance(name, str) or not name:
            raise InvalidNodeNameError(
                f"node names must be non-empty strings, got {_shown(name)}", subject=name
            )
        if name in node_map:
            raise DuplicateNodeNameError(f"duplicate node name {name!r}", subject=name)
        if not isinstance(spec, (ConvSpec, PoolSpec, FullSpec, MFSpec)):
            raise InvalidSpecError(
                f"node {name!r} has unsupported spec type {type(spec).__name__}",
                subject=name,
            )
        node_map[name] = spec

    # a repeated edge is found by the one edge set, after the loop; one that
    # comes before another edge's fault is reported first
    edge_list: list[tuple[str, str]] = []
    succ: dict[str, list[str]] = {name: [] for name in node_map}
    pred: dict[str, list[str]] = {name: [] for name in node_map}
    for edge in edges:
        try:
            src, dst = edge
            known = src in node_map and dst in node_map
        except (TypeError, ValueError):  # not a pair, or an unhashable endpoint
            known = False
        if not known or src == dst:
            raise _first_repeat(edge_list) or _edge_fault(edge, node_map)
        edge_list.append((src, dst))
        succ[src].append(dst)
        pred[dst].append(src)
    edge_set = frozenset(edge_list)
    if len(edge_set) < len(edge_list):
        raise _first_repeat(edge_list)
    return ArchGraph(node_map, tuple(edge_list), edge_set,
                     {k: tuple(v) for k, v in succ.items()},
                     {k: tuple(v) for k, v in pred.items()})


def _first_repeat(edges: list[tuple[str, str]]) -> DuplicateEdgeError | None:
    seen: set[tuple[str, str]] = set()
    for src, dst in edges:
        if (src, dst) in seen:
            return DuplicateEdgeError(f"duplicate edge ({src!r} -> {dst!r})", subject=(src, dst))
        seen.add((src, dst))
    return None


def _edge_fault(edge, node_map: dict[str, NodeSpec]) -> GraphError:
    """The error that words the fault of one edge: not a pair, an unknown endpoint or a loop."""
    try:
        src, dst = edge
    except (TypeError, ValueError):
        return InvalidEdgeError(
            f"an edge must be a (from, to) pair of node names, got {_shown(edge)}", subject=edge)
    for name in (src, dst):
        try:
            known = name in node_map
        except TypeError:  # unhashable: no node's name
            known = False
        if not known:
            return UnknownEdgeEndpointError(
                f"edge ({_shown(src)} -> {_shown(dst)}) references unknown node {_shown(name)}",
                subject=(src, dst),
            )
    return SelfLoopError(f"self-loop on node {src!r}", subject=(src, dst))


def _topological_order(
    node_map: dict[str, NodeSpec],
    succ: dict[str, tuple[str, ...]],
    pred: dict[str, tuple[str, ...]],
) -> tuple[str, ...]:
    indeg = {name: len(pred[name]) for name in node_map}
    order = [name for name in node_map if indeg[name] == 0]
    for v in order:  # the list is its own queue: a node is appended once its last edge is seen
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(node_map):
        cycle = _find_cycle({name for name in node_map if indeg[name] > 0}, pred)
        raise CycleDetectedError(
            "graph contains a cycle: " + " -> ".join(cycle), subject=tuple(cycle)
        )
    return tuple(order)


def _find_cycle(remaining: set[str], pred: dict[str, tuple[str, ...]]) -> list[str]:
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
