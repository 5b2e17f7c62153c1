"""Seeded random graph generators shared by module and acceptance tests."""

from __future__ import annotations

import itertools
import random

from arctext import ArchGraph, ConvSpec, FullSpec, MFSpec, PoolSpec, build_graph

ACTS = (None, "ReLU", "Sigmoid", "Tanh")
OPS = ("ReLU", "BN", "Dropout", "Addition", "Concatenation", "Scale")
VALUE_SETS = ((), ("0.5",), ("0.1", "0.9"), ("alpha",), ("2",))


def rand_conv(rng: random.Random) -> ConvSpec:
    return ConvSpec(
        in_size=(rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)),
        out_size=(rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)),
        kernel=(rng.randint(1, 7), rng.randint(1, 7)),
        stride=(rng.randint(1, 3), rng.randint(1, 3)),
        padding=tuple(
            (rng.randint(0, 2), rng.randint(0, 3)) for _ in range(4)
        ),
        dilation=rng.randint(1, 3),
        groups=rng.randint(1, 4),
        bias_used=rng.random() < 0.5,
    )


def rand_pool(rng: random.Random) -> PoolSpec:
    channels = rng.randint(1, 16)
    return PoolSpec(
        pool_type=rng.choice(("Max", "Avg")),
        in_size=(rng.randint(1, 64), rng.randint(1, 64), channels),
        out_size=(rng.randint(1, 64), rng.randint(1, 64), channels),
        kernel=(rng.randint(1, 5), rng.randint(1, 5)),
        stride=(rng.randint(1, 3), rng.randint(1, 3)),
        padding=tuple(rng.randint(0, 2) for _ in range(4)),
        dilation=rng.randint(1, 2),
        bias_used=rng.random() < 0.2,
    )


def rand_full(rng: random.Random) -> FullSpec:
    return FullSpec(
        in_size=rng.randint(1, 4096),
        out_size=rng.randint(1, 4096),
        act_fun=rng.choice(ACTS),
    )


def rand_mf(rng: random.Random) -> MFSpec:
    if rng.random() < 0.2:
        shape: tuple = (rng.randint(1, 4096),)
    else:
        shape = (rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16))
    out = shape if rng.random() < 0.8 else tuple(reversed(shape))
    return MFSpec(
        op_name=rng.choice(OPS),
        in_size=shape,
        out_size=out,
        values=rng.choice(VALUE_SETS),
    )


def rand_spec(rng: random.Random):
    roll = rng.random()
    if roll < 0.30:
        return rand_conv(rng)
    if roll < 0.50:
        return rand_pool(rng)
    if roll < 0.65:
        return rand_full(rng)
    return rand_mf(rng)


def random_graph(
    rng: random.Random, min_nodes: int = 5, max_nodes: int = 40, max_skips: int = 3
) -> ArchGraph:
    """A spine chain with up to ``max_skips`` forward skip edges."""
    n = rng.randint(min_nodes, max_nodes)
    names = [f"v{i}" for i in range(n)]
    nodes = [(name, rand_spec(rng)) for name in names]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    present = set(edges)
    for _ in range(rng.randint(0, max_skips)):
        i = rng.randint(0, n - 3)
        j = rng.randint(i + 2, n - 1)
        if (names[i], names[j]) not in present:
            present.add((names[i], names[j]))
            edges.append((names[i], names[j]))
    return build_graph(nodes, edges)


def permuted_renamed(g: ArchGraph, rng: random.Random) -> ArchGraph:
    """The same architecture under new names and shuffled input order."""
    old = list(g.names())
    fresh = [f"w{i}" for i in range(len(old))]
    rng.shuffle(fresh)
    mapping = dict(zip(old, fresh))
    nodes = [(mapping[name], g.spec(name)) for name in old]
    rng.shuffle(nodes)
    edges = [(mapping[a], mapping[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return build_graph(nodes, edges)


def symmetric_pair(rng: random.Random) -> tuple[ArchGraph, ArchGraph]:
    """Two builds of one graph with two element-wise equal parallel branches.

    The second build inserts the branches in the opposite order, which is
    exactly a swap of the two branches up to renaming.
    """
    k = rng.randint(1, 6)
    branch = [rand_spec(rng) for _ in range(k)]
    head = rand_spec(rng)
    merge = MFSpec("Addition", (8, 8, 4), (8, 8, 4))
    tail = rand_spec(rng)

    def build(first: str, second: str) -> ArchGraph:
        nodes = [("head", head)]
        edges = []
        for label in (first, second):
            prev = "head"
            for i, spec in enumerate(branch):
                name = f"{label}{i}"
                nodes.append((name, spec))
                edges.append((prev, name))
                prev = name
            edges.append((prev, "merge"))
        nodes += [("merge", merge), ("tail", tail)]
        edges.append(("merge", "tail"))
        return build_graph(nodes, edges)

    return build("a", "b"), build("b", "a")


def small_dag(rng: random.Random, max_nodes: int = 10, *, min_nodes: int = 2,
              p: float = 0.35, spec=rand_spec) -> ArchGraph:
    """A dense-ish random DAG with a unique source and sink.

    Nodes d0.. are joined from lower to higher index with probability ``p``;
    stray sources hang from d0 and stray sinks feed the last node. ``spec``
    draws each node's spec from ``rng``.
    """
    n = rng.randint(min_nodes, max_nodes)
    names = [f"d{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((names[i], names[j]))
    for v in range(1, n):  # no stray sources
        if not any(b == names[v] for _, b in edges):
            edges.add((names[0], names[v]))
    for v in range(n - 1):  # no stray sinks
        if not any(a == names[v] for a, _ in edges):
            edges.add((names[v], names[n - 1]))
    nodes = [(name, spec(rng)) for name in names]
    return build_graph(nodes, sorted(edges))


def oracle_longest_paths(
    g: ArchGraph, numbered=frozenset()
) -> tuple[int, set[tuple[str, ...]]]:
    """Exhaustive DFS over all source->sink paths; returns (max_len, maximal set).

    Only paths holding a node outside ``numbered`` count; (0, set()) if none.
    """
    source = next(n for n in g.names() if g.in_degree(n) == 0)
    sink = next(n for n in g.names() if g.out_degree(n) == 0)
    best_len = 0
    best: set[tuple[str, ...]] = set()
    stack = [(source, (source,))]
    while stack:
        node, path = stack.pop()
        if node == sink:
            if set(path) <= set(numbered):
                continue
            if len(path) > best_len:
                best_len = len(path)
                best = {path}
            elif len(path) == best_len:
                best.add(path)
            continue
        for succ in g.successors(node):
            stack.append((succ, path + (succ,)))
    return best_len, best


def chain_graph(n: int) -> ArchGraph:
    """A linear chain of n nodes with varying specs."""
    rng = random.Random(7)
    names = [f"c{i}" for i in range(n)]
    nodes = [(name, rand_mf(rng)) for name in names]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_graph(nodes, edges)


def braid_graph(layers: int = 20, width: int = 2) -> ArchGraph:
    """Full bipartite layer stack: width**layers equal longest paths."""
    rng = random.Random(11)
    shared = [rand_mf(rng) for _ in range(width)]
    nodes = [("in", rand_conv(rng))]
    edges = []
    prev = ["in"]
    for layer in range(layers):
        current = []
        for w in range(width):
            name = f"b{layer}_{w}"
            nodes.append((name, shared[w]))
            current.append(name)
        for a in prev:
            for b in current:
                edges.append((a, b))
        prev = current
    nodes.append(("out", rand_full(rng)))
    for a in prev:
        edges.append((a, "out"))
    return build_graph(nodes, edges)


def resnext_graph(blocks: int = 2, branches: int = 4) -> ArchGraph:
    """A stem, then ``blocks`` blocks of identical conv-MF branches merged by addition."""
    rng = random.Random(13)
    branch = (rand_conv(rng), rand_mf(rng))
    merge = MFSpec("Addition", (8, 8, 4), (8, 8, 4))
    nodes = [("stem", rand_conv(rng))]
    edges = []
    prev = "stem"
    for b in range(blocks):
        for k in range(branches):
            names = [f"x{b}_{k}_{i}" for i in range(len(branch))]
            nodes += zip(names, branch)
            edges += [(prev, names[0])] + list(zip(names, names[1:])) + [(names[-1], f"m{b}")]
        nodes.append((f"m{b}", merge))
        prev = f"m{b}"
    nodes.append(("out", rand_full(rng)))
    edges.append((prev, "out"))
    return build_graph(nodes, edges)


TWO_MF_SPECS = (MFSpec("ReLU", (8, 8, 4), (8, 8, 4)), MFSpec("BN", (8, 8, 4), (8, 8, 4)))


def five_node_dags() -> list[ArchGraph]:
    """Every 5-node DAG over two MF specs, each built in identity insertion order.

    The nodes are d0..d4, every edge runs from a lower to a higher index, d0
    is the one source and d4 the one sink (122 edge sets), and each node takes
    either spec of ``TWO_MF_SPECS`` (32 labellings): 3,904 graphs, edge sets
    by bit mask and labellings in ``itertools.product`` order. Some of them
    render differently under other insertion orders (ROADMAP item 1).
    """
    names = [f"d{i}" for i in range(5)]
    pairs = list(itertools.combinations(range(5), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        if {b for _, b in edges} != {1, 2, 3, 4} or {a for a, _ in edges} != {0, 1, 2, 3}:
            continue  # a second source or sink
        for labels in itertools.product(TWO_MF_SPECS, repeat=5):
            graphs.append(build_graph(list(zip(names, labels)),
                                      [(names[a], names[b]) for a, b in edges]))
    return graphs


def two_spec_dags(count: int = 3000) -> list[ArchGraph]:
    """``count`` random DAGs of 3..12 nodes over ``TWO_MF_SPECS`` (``random.Random(7)``).

    Each forward pair is an edge with probability 0.3. Digests tie often on
    them, so the ordering searches and breaks ties in most graphs.
    """
    rng = random.Random(7)
    return [small_dag(rng, 12, min_nodes=3, p=0.3, spec=lambda r: r.choice(TWO_MF_SPECS))
            for _ in range(count)]


CELL_SHAPE = (32, 32, 128)
CELL_OPS = (  # conv 3x3, conv 1x1 and max-pool 3x3, each keeping the shape
    ConvSpec(CELL_SHAPE, CELL_SHAPE, (3, 3), (1, 1), ((0, 1),) * 4),
    ConvSpec(CELL_SHAPE, CELL_SHAPE, (1, 1), (1, 1), ((0, 0),) * 4),
    PoolSpec("Max", CELL_SHAPE, CELL_SHAPE, (3, 3), (1, 1), (1, 1, 1, 1)),
)


def cell_graph(rng: random.Random) -> ArchGraph:
    """A NAS-Bench-101-style cell (Ying et al., arXiv:1902.09635).

    Seven nodes c0..c6: c0 is an MF input, c6 an MF ``Concatenation``
    output, and each interior node draws one of ``CELL_OPS``. Each forward
    pair is an edge with probability 1/2, and the cell keeps only the nodes
    on a c0->c6 path. A draw with no such path or with more than 9 edges
    left is drawn again, so a cell has at most 7 nodes and 9 edges.
    """
    names = [f"c{i}" for i in range(7)]
    while True:
        specs = [MFSpec("Input", CELL_SHAPE, CELL_SHAPE)]
        specs += [rng.choice(CELL_OPS) for _ in range(5)]
        specs.append(MFSpec("Concatenation", CELL_SHAPE, CELL_SHAPE))
        edges = [e for e in itertools.combinations(range(7), 2) if rng.random() < 0.5]
        ahead, behind = {0}, {6}  # reached from c0, reaching c6
        for a, b in edges:  # sorted by source, so a is settled first
            if a in ahead:
                ahead.add(b)
        for a, b in reversed(edges):
            if b in behind:
                behind.add(a)
        kept = ahead & behind
        edges = [(a, b) for a, b in edges if a in kept and b in kept]
        if 6 in kept and len(edges) <= 9:
            return build_graph([(names[i], specs[i]) for i in sorted(kept)],
                               [(names[a], names[b]) for a, b in edges])


def cells(count: int = 2000) -> list[ArchGraph]:
    """``count`` cells of ``cell_graph`` from ``random.Random(101)``."""
    rng = random.Random(101)
    return [cell_graph(rng) for _ in range(count)]


def inception_graph(blocks: int = 20, branches: int = 6) -> ArchGraph:
    """A stem, then ``blocks`` blocks of parallel conv chains of lengths 1..``branches``.

    Each conv's kernel and bias follow its branch and depth, so no two
    branches tie; each block ends in a Concatenation.
    """
    shape = (14, 14, 256)
    nodes = [("stem", ConvSpec((112, 112, 3), shape, (7, 7), (2, 2), ((0, 3),) * 4))]
    edges = []
    prev = "stem"
    for b in range(blocks):
        merge = f"cat{b}"
        for k in range(branches):
            last = prev
            for i in range(k + 1):
                name = f"n{b}_{k}_{i}"
                kernel = 1 + 2 * ((k + i) % 3)
                nodes.append((name, ConvSpec(shape, shape, (kernel, kernel), (1, 1),
                                             ((0, kernel // 2),) * 4,
                                             bias_used=(k + i) % 2 == 1)))
                edges.append((last, name))
                last = name
            edges.append((last, merge))
        nodes.append((merge, MFSpec("Concatenation", shape, shape, (str(b % 4 + 1),))))
        prev = merge
    nodes.append(("fc", FullSpec(256, 1000, "ReLU")))
    edges.append((prev, "fc"))
    return build_graph(nodes, edges)


def fan_graph(k: int = 250) -> ArchGraph:
    """A ``ReLU`` source, ``k`` equal ``ReLU`` branches and a ``BN`` sink."""
    relu, bn = TWO_MF_SPECS
    branches = [f"f{i}" for i in range(k)]
    nodes = [("src", relu)] + [(name, relu) for name in branches] + [("sink", bn)]
    edges = [("src", name) for name in branches] + [(name, "sink") for name in branches]
    return build_graph(nodes, edges)
