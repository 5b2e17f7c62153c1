"""Deterministic node ordering by iterated longest-path extraction.

Positions are assigned 1..n: the source gets 1, the sink gets n, and the
remaining nodes are numbered by repeatedly taking the longest source-to-sink
path that still contains an unnumbered node and walking it in order. Among
tied longest paths the rule is: largest digest (SHA-224 of the nodes' basic
property strings); among equal digests, smallest tie key: the paths' position
vectors (past-the-end for an unnumbered node), then their colour vectors (each
node's colour-refinement class, ranked by the graph alone), then their
insertion-index vectors. Insertion order thus decides only the ties colour
refinement cannot split (ROADMAP item 14); node names and edge order, none.

A graph whose topological order is a path has no other order: that path
holds every node, it is the only candidate, and it is numbered in one step,
with no round. Any other graph builds one round state: the source and sink,
the topological order and each node's longest suffix, none of which depends
on the positions. A round reads it, counts each node's longest suffix that
holds an unnumbered node and walks from the source the paths those allow,
returning their node sequences; a digest is made only when a round has more
than one, and the tie key only when the top digest is shared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import (
    AmbiguousSinkError,
    AmbiguousSourceError,
    BrokenPathError,
    NoNodesError,
    PathExplosionError,
)
from .model import ArchGraph, validate_graph
from .unitformat import basic_string

DEFAULT_MAX_PATHS = 100_000

_VALIDATION_ERRORS = {
    "NoNodes": NoNodesError,
    "AmbiguousSource": AmbiguousSourceError,
    "AmbiguousSink": AmbiguousSinkError,
}


@dataclass(frozen=True)
class CanonicalOrder:
    """A bijection node-name <-> position in 1..n."""

    positions: Mapping[str, int]
    n: int

    def position_of(self, name: str) -> int:
        return self.positions[name]

    def name_at(self, position: int) -> str:
        if not 1 <= position <= self.n:
            raise IndexError(f"position {position} is outside 1..{self.n}")
        return self.by_position[position - 1]

    @cached_property
    def by_position(self) -> tuple[str, ...]:
        """Names in position order, sorted once per instance."""
        return tuple(sorted(self.positions, key=self.positions.__getitem__))


def _ordered(positions: Mapping[str, int], by_position: tuple[str, ...]) -> CanonicalOrder:
    """The order of ``positions`` whose names in position order are already known."""
    order = CanonicalOrder(positions, len(by_position))
    order.__dict__["by_position"] = by_position  # where cached_property keeps its value
    return order


@dataclass(frozen=True)
class PathCandidate:
    """One source-to-sink path plus the material that ranks it."""

    node_sequence: tuple[str, ...]
    basic_string: str
    digest: bytes


def detect_terminals(g: ArchGraph) -> tuple[str, str]:
    """Return (source, sink): the unique indegree-0 and outdegree-0 nodes.

    Anything else raises the typed error that ``validate_graph`` words.
    """
    sources = [name for name, pred in g._pred.items() if not pred]
    sinks = [name for name, succ in g._succ.items() if not succ]
    if len(sources) == 1 and len(sinks) == 1:
        return sources[0], sinks[0]
    first = validate_graph(g).errors()[0]
    raise _VALIDATION_ERRORS[first.code](first.message, subject=first.subject)


def _candidate(seq: tuple[str, ...], g: ArchGraph) -> PathCandidate:
    specs = g.nodes
    joined = "\n".join([basic_string(specs[name]) for name in seq])
    return PathCandidate(seq, joined, hashlib.sha224(joined.encode("utf-8")).digest())


def path_digest(path, g: ArchGraph) -> PathCandidate:
    """Hash a path's basic strings (newline-joined) with SHA-224.

    Identifiers and connection lists never enter the digest: they are what
    the ordering produces, so they cannot exist yet when paths are ranked.
    A given path's nodes and edges are checked first; the ordering
    enumerates its paths along edges and builds the same candidates
    without the check.
    """
    seq = tuple(path)
    if not seq:
        raise BrokenPathError("the given path is empty", subject=())
    for name in seq:
        if name not in g.nodes:
            raise BrokenPathError(f"no node {name!r} in the graph", subject=name)
    for a, b in zip(seq, seq[1:]):
        if b not in g.successors(a):
            raise BrokenPathError(
                f"no edge {a!r} -> {b!r} on the given path", subject=(a, b)
            )
    return _candidate(seq, g)


def longest_unnumbered_paths(
    g: ArchGraph,
    positions: Mapping[str, int],
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[PathCandidate]:
    """All maximal-length source->sink paths containing an unnumbered node.

    Empty when every source->sink path consists only of numbered nodes.
    Raises PathExplosionError if more than ``max_paths`` such paths exist;
    the bound is checked during enumeration so pathological graphs fail
    fast instead of exhausting memory. Each candidate is what ``path_digest``
    gives for its sequence.
    """
    return [_candidate(seq, g) for seq in _round(_Ordering.of(g), positions, max_paths)]


class _Ordering(NamedTuple):
    """What every round of one ordering reads: nothing here depends on positions."""

    g: ArchGraph
    source: str
    sink: str
    order: tuple[str, ...]  # topological
    longest: dict[str, int]  # v -> the nodes on the longest v->sink path

    @classmethod
    def of(cls, g: ArchGraph) -> "_Ordering":
        source, sink = detect_terminals(g)
        order, succ = g.topological_order(), g._succ
        longest: dict[str, int] = {}
        for v in reversed(order):
            top = 0
            for w in succ[v]:
                if longest[w] > top:
                    top = longest[w]
            longest[v] = top + 1
        return cls(g, source, sink, order, longest)


def _too_many(max_paths: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than {max_paths} tied longest paths; "
        "raise the limit only if the graph is trusted",
        subject=max_paths,
    )


def _longest_unnumbered(state: _Ordering, positions) -> dict[str, int]:
    # longest_u[v]: the nodes on the longest v->sink path holding an
    # unnumbered node, 0 when there is none; an unnumbered v makes every
    # suffix hold one
    succ, longest = state.g._succ, state.longest
    longest_u: dict[str, int] = {}
    for v in reversed(state.order):
        if v not in positions:
            longest_u[v] = longest[v]
            continue
        top = 0
        for w in succ[v]:
            if longest_u[w] > top:
                top = longest_u[w]
        longest_u[v] = top + 1 if top else 0
    return longest_u


# Each frame holds the successors left to try, the nodes still needed after
# its node and whether the path so far holds an unnumbered node. No candidate
# is longer than longest_u[source], so a successor ends a candidate in exactly
# the nodes still needed only if its longest suffix has exactly that many
# (counted over suffixes holding an unnumbered node until the path holds one).
def _round(state: _Ordering, positions, max_paths: int) -> list[tuple[str, ...]]:
    """The node sequences of the longest source->sink paths holding an unnumbered node."""
    succ, source, longest = state.g._succ, state.source, state.longest
    longest_u = _longest_unnumbered(state, positions)
    found: list[tuple[str, ...]] = []
    path = [source]
    stack = [(iter(succ[source]), longest_u[source] - 1, source not in positions)]
    while stack:
        successors, need, has_un = stack[-1]
        step = next(successors, None)
        if step is None:
            if not need:  # the sink: the path is a candidate
                if len(found) >= max_paths:
                    raise _too_many(max_paths)
                found.append(tuple(path))
            stack.pop()
            path.pop()
            continue
        if (longest if has_un else longest_u)[step] == need:
            path.append(step)
            stack.append((iter(succ[step]), need - 1, has_un or step not in positions))
    return found


def _colours(g: ArchGraph, names: tuple[str, ...]) -> dict[str, int]:
    """Each node's class under colour refinement (1-WL), ranked by the graph alone.

    Colours start as basic strings. Each pass refines a node's by the sorted colours of its
    predecessors and successors, ranking each class by its signature, until one adds none.
    """
    signature: dict = {v: basic_string(g.nodes[v]) for v in names}
    classes = 0
    while True:
        rank = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        colour = {v: rank[s] for v, s in signature.items()}
        if len(rank) == classes:
            return colour
        classes = len(rank)
        signature = {v: (colour[v], tuple(sorted(map(colour.get, g._pred[v]))),
                         tuple(sorted(map(colour.get, g._succ[v])))) for v in names}


def assign_positions(g: ArchGraph, *, max_paths: int = DEFAULT_MAX_PATHS) -> CanonicalOrder:
    """Number every node: source=1, sink=n, the rest by path extraction.

    A graph whose topological order is a path is numbered along it in one
    step: that path is the one longest path and the only candidate. On any
    other graph, each round takes the longest paths still containing an
    unnumbered node. Among them: largest digest (bytes compared as one
    big-endian unsigned integer); among equal digests, smallest tie key: the
    vector of assigned positions (past-the-end for none), then of colour ranks
    (``_colours``), then of insertion indices. A node takes the next free
    position only when it first receives one, so positions come out consecutive.
    """
    order = g.topological_order()
    n = len(order)
    if n and all(map(g._edge_set.__contains__, zip(order, order[1:]))):
        if n > 2 and max_paths < 1:  # the one round a middle node needs is refused
            raise _too_many(max_paths)
        return _ordered(dict(zip(order, range(1, n + 1))), order)
    state = _Ordering.of(g)
    # the sink holds n from the start, so len(positions) is the next free position
    positions: dict[str, int] = {state.source: 1, state.sink: n}

    infinity = n + 1  # beyond any assignable position
    colours, index = {}, {}  # colour ranks and insertion order, built on a shared top digest

    def tie_key(seq: tuple[str, ...]):  # the position vector, then the colours, then the indices
        return [[by.get(name, infinity) for name in seq] for by in (positions, colours, index)]

    # acyclic with one source and one sink: walking back from any node ends
    # at the source and forward at the sink, so every node lies on a
    # source->sink path and a round always has a candidate
    while len(positions) < n:
        sequences = _round(state, positions, max_paths)
        best = sequences[0]
        if len(sequences) > 1:  # a digest is made only when paths compete
            candidates = [_candidate(seq, g) for seq in sequences]
            top = max(c.digest for c in candidates)
            best, *rest = [c.node_sequence for c in candidates if c.digest == top]
            if rest:  # only a shared top digest runs the tie key
                colours = colours or _colours(g, state.order)
                index = index or {name: i for i, name in enumerate(g.nodes)}
                best = min([best, *rest], key=tie_key)
        for name in best:
            if name not in positions:
                positions[name] = len(positions)
    return CanonicalOrder(positions, n)
