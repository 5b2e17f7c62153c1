"""The paper's ordering rule, written out literally, against assign_positions.

The oracle enumerates every source->sink path once and then, each round,
keeps the longest paths that still hold an unnumbered node, takes the
largest SHA-224 of their newline-joined basic strings, breaks digest ties
with the documented tie key, and numbers the winner's new nodes in path
order. It shares nothing with the implementation except ``basic_string``.

A second oracle, ``admitted_numberings``, copies no tie key: it branches on
every path that holds the top digest and collects every numbering the rule
admits. The implementation must give one of them, and where the rule admits
only one, give it under any insertion order.
"""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from arctext import (
    ConvSpec,
    FullSpec,
    MFSpec,
    PoolSpec,
    assign_positions,
    basic_string,
    build_graph,
)

import gen


def _terminals_and_paths(g):
    """The source, the sink and every source->sink path."""
    (source,) = [v for v in g.names() if not g.predecessors(v)]
    (sink,) = [v for v in g.names() if not g.successors(v)]
    paths = []
    stack = [(source,)]
    while stack:
        path = stack.pop()
        if path[-1] == sink:
            paths.append(path)
        stack.extend(path + (w,) for w in g.successors(path[-1]))
    return source, sink, paths


def _digest(g, path) -> bytes:
    joined = "\n".join(basic_string(g.spec(v)) for v in path)
    return hashlib.sha224(joined.encode("utf-8")).digest()


def oracle_positions(g) -> dict[str, int]:
    source, sink, paths = _terminals_and_paths(g)
    n = len(g)
    positions = {source: 1, sink: n}
    next_free = 2
    while True:
        open_paths = [p for p in paths if any(v not in positions for v in p)]
        if not open_paths:
            return positions
        longest = max(len(p) for p in open_paths)
        tied = [p for p in open_paths if len(p) == longest]
        top = max(_digest(g, p) for p in tied)
        best = min(
            (p for p in tied if _digest(g, p) == top),
            key=lambda p: tuple((positions.get(v, n + 1), g.node_index(v)) for v in p),
        )
        for v in best:
            if v not in positions:
                positions[v] = next_free
                next_free += 1


def admitted_numberings(g) -> tuple[set[frozenset], int]:
    """Every numbering the rule admits without a tie rule, and the states searched.

    A state is the positions so far. Each round keeps the longest paths that
    still hold an unnumbered node, then those with the largest digest, and
    branches on every one of them, numbering its new nodes in path order.
    A numbering is the frozenset of a final state's (name, position) pairs.
    """
    source, sink, paths = _terminals_and_paths(g)
    digests = {path: _digest(g, path) for path in paths}
    admitted, seen = set(), set()
    stack = [{source: 1, sink: len(g)}]
    while stack:
        positions = stack.pop()
        state = frozenset(positions.items())
        if state in seen:
            continue
        seen.add(state)
        open_paths = [p for p in paths if any(v not in positions for v in p)]
        if not open_paths:
            admitted.add(state)
            continue
        longest = max(map(len, open_paths))
        tied = [p for p in open_paths if len(p) == longest]
        top = max(digests[p] for p in tied)
        for path in tied:
            if digests[path] == top:
                branch = dict(positions)
                for v in path:
                    if v not in branch:
                        branch[v] = len(branch)  # the source and sink are in: 2, 3, ...
                stack.append(branch)
    return admitted, len(seen)


def _shuffled(g, rng):
    nodes = [(v, g.spec(v)) for v in g.names()]
    edges = list(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return build_graph(nodes, edges)


def assert_admitted(graphs, seed):
    """Each graph numbers as the rule admits; a graph with one admitted numbering, in any order."""
    rng = random.Random(seed)
    for i, g in enumerate(graphs):
        admitted, _ = admitted_numberings(g)
        numbering = frozenset(assign_positions(g).positions.items())
        assert numbering in admitted, f"graph #{i}: outside the {len(admitted)} admitted"
        if len(admitted) == 1:
            for _ in range(4):
                shuffled = assign_positions(_shuffled(g, rng)).positions
                assert frozenset(shuffled.items()) == numbering, f"graph #{i}"


def test_five_node_dags_number_as_admitted():
    assert_admitted(gen.five_node_dags(), 51)


def test_two_spec_dags_number_as_admitted():
    assert_admitted(gen.two_spec_dags(), 52)


def test_cells_number_as_admitted():
    assert_admitted(gen.cells(), 53)


# a few specs, drawn with repetition, so that equal digests are common
SPECS = (
    MFSpec("ReLU", (8, 8, 4), (8, 8, 4)),
    MFSpec("BN", (8, 8, 4), (8, 8, 4)),
    ConvSpec((8, 8, 4), (8, 8, 4), (3, 3), (1, 1), ((0, 1),) * 4),
    PoolSpec("Max", (8, 8, 4), (4, 4, 4), (2, 2), (2, 2)),
    FullSpec(256, 10),
)


def _pool(draw):
    return draw(st.permutations(SPECS))[:draw(st.integers(1, 2))]


def _build(draw, names, specs, edges):
    order = draw(st.permutations(names))  # insertion order feeds the tie key
    return build_graph([(v, specs[v]) for v in order], draw(st.permutations(sorted(edges))))


@st.composite
def random_dags(draw):
    """Any DAG with one source and one sink, on at most two distinct specs."""
    n = draw(st.integers(1, 12))
    names = [f"d{i}" for i in range(n)]
    pool = _pool(draw)
    specs = {v: draw(st.sampled_from(pool)) for v in names}
    edges = {
        (names[i], names[j])
        for i in range(n) for j in range(i + 1, n)
        if draw(st.integers(0, 9)) < 3
    }
    for j in range(1, n):  # no stray sources
        if not any(b == names[j] for _, b in edges):
            edges.add((names[0], names[j]))
    for i in range(n - 1):  # no stray sinks
        if not any(a == names[i] for a, _ in edges):
            edges.add((names[i], names[-1]))
    return _build(draw, names, specs, edges)


@st.composite
def parallel_branches(draw):
    """A head fanning out into equal branches that merge, plus cross links.

    Branches copy one spec list, so their paths tie on length and digest;
    one branch may differ in a single spec, and links from layer k of one
    branch to layer k + 1 of another turn the stack into a braid.
    """
    width = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 9 // width))
    pool = _pool(draw)
    branch = [draw(st.sampled_from(pool)) for _ in range(depth)]
    specs = {"head": draw(st.sampled_from(SPECS)), "merge": SPECS[0],
             "tail": draw(st.sampled_from(SPECS))}
    edges = {("merge", "tail")}
    for b in range(width):
        prev = "head"
        for k in range(depth):
            name = f"b{b}_{k}"
            specs[name] = branch[k]
            edges.add((prev, name))
            prev = name
        edges.add((prev, "merge"))
    if draw(st.booleans()):
        odd = f"b{draw(st.integers(0, width - 1))}_{draw(st.integers(0, depth - 1))}"
        specs[odd] = draw(st.sampled_from(SPECS))
    for k in range(depth - 1):
        for a in range(width):
            for b in range(width):
                if a != b and draw(st.integers(0, 9)) < 2:
                    edges.add((f"b{a}_{k}", f"b{b}_{k + 1}"))
    if draw(st.booleans()):
        edges.add(("head", "merge"))
    return _build(draw, list(specs), specs, edges)


def assert_matches_oracle(g):
    assert dict(assign_positions(g).positions) == oracle_positions(g)


@settings(max_examples=300, deadline=None)
@given(g=random_dags())
def test_random_dags_match_oracle(g):
    assert_matches_oracle(g)


@settings(max_examples=300, deadline=None)
@given(g=parallel_branches())
def test_parallel_branches_match_oracle(g):
    assert_matches_oracle(g)


def test_fixtures_match_oracle(resnet4, branching25):
    assert_matches_oracle(resnet4)
    assert_matches_oracle(branching25)


def test_seeded_shapes_match_oracle():
    rng = random.Random(41)
    for _ in range(30):
        assert_matches_oracle(gen.small_dag(rng, max_nodes=12))
        for g in gen.symmetric_pair(rng):
            assert_matches_oracle(g)
    for layers in (2, 3, 4, 5):
        assert_matches_oracle(gen.braid_graph(layers=layers, width=2))
