"""Seeded random graph generators shared by module and acceptance tests."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

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


def small_dag_edge_sets(n: int) -> list[list[tuple[int, int]]]:
    """The edge sets of the ``n``-node DAGs on 0..n-1 with one source 0 and one sink n-1.

    Every edge runs from a lower to a higher index. The sets come in the
    order of their bit masks over ``itertools.combinations(range(n), 2)``.
    """
    pairs = list(itertools.combinations(range(n), 2))
    ends = set(range(1, n)), set(range(n - 1))  # every node but 0 has an input, but n-1 an output
    edge_sets = []
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        if ({b for _, b in edges}, {a for a, _ in edges}) == ends:
            edge_sets.append(edges)
    return edge_sets


def small_dags(n: int) -> Iterator[ArchGraph]:
    """Every ``n``-node DAG over two MF specs, each built in identity insertion order.

    The nodes are d0..d<n-1>, the edges one set of ``small_dag_edge_sets(n)``,
    and each node takes either spec of ``TWO_MF_SPECS``: edge sets in their
    order, and for each the 2**n labellings in ``itertools.product`` order.
    Graph k has edge set ``k >> n`` and labelling ``k % 2**n``.
    """
    names = [f"d{i}" for i in range(n)]
    for edges in small_dag_edge_sets(n):
        pairs = [(names[a], names[b]) for a, b in edges]
        for labels in itertools.product(TWO_MF_SPECS, repeat=n):
            yield build_graph(list(zip(names, labels)), pairs)


def five_node_dags() -> list[ArchGraph]:
    """The 3,904 graphs of ``small_dags(5)``: 122 edge sets, each in 32 labellings."""
    return list(small_dags(5))


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


def _bottleneck_net(mids: tuple[int, ...], cardinality: int, stride_on_3x3: bool) -> ArchGraph:
    """The 50-layer bottleneck network of ResNet (arXiv:1512.03385, Table 1) on 224x224x3.

    A 7x7 stem, a 3x3 max pool, then stages of 3, 4, 6 and 3 blocks at
    extents 56, 28, 14 and 7 with 256, 512, 1,024 and 2,048 output channels,
    a 7x7 average pool and a 1,000-way full layer. In each block,
    ``cardinality`` branches of 1x1 -> 3x3 -> 1x1 convs, the first two
    ``mids[stage]`` channels wide, are summed with the shortcut in one
    Addition and a ReLU. Each conv has a BN, and each but a branch's last a
    ReLU. Each stage's first block has a projection shortcut (a 1x1 conv and
    its BN), and from the second stage on it halves the extent by stride 2
    in its 1x1 convs, or in its 3x3 conv if ``stride_on_3x3``.
    """
    nodes: list = []
    edges: list = []

    def add(name: str, spec, *inputs: str) -> str:
        nodes.append((name, spec))
        edges.extend((src, name) for src in inputs)
        return name

    def unit(name: str, inputs: tuple, in_shape, out_shape, kernel: int, stride: int,
             relu: bool = True) -> str:
        """A conv, its BN and, if ``relu``, a ReLU; the name of the last."""
        pad = ((0, kernel // 2),) * 4
        last = add(name, ConvSpec(in_shape, out_shape, (kernel, kernel), (stride, stride), pad),
                   *inputs)
        last = add(f"{name}_bn", MFSpec("BN", out_shape, out_shape), last)
        return add(f"{name}_relu", MFSpec("ReLU", out_shape, out_shape), last) if relu else last

    stem = unit("conv1", (), (224, 224, 3), (112, 112, 64), 7, 2)
    shape = (56, 56, 64)
    prev = add("pool1", PoolSpec("Max", (112, 112, 64), shape, (3, 3), (2, 2), (1, 1, 1, 1)), stem)
    for stage, (blocks, mid, width) in enumerate(
            zip((3, 4, 6, 3), mids, (256, 512, 1024, 2048)), start=2):
        for block in range(1, blocks + 1):
            stride = 2 if block == 1 and stage > 2 else 1
            first, second = (1, stride) if stride_on_3x3 else (stride, 1)
            extent, inner = shape[0] // stride, shape[0] // first
            out_shape = (extent, extent, width)
            name = f"conv{stage}_{block}"
            ends = []
            for branch in range(cardinality):
                b = name if cardinality == 1 else f"{name}_{branch}"
                a = unit(f"{b}a", (prev,), shape, (inner, inner, mid), 1, first)
                m = unit(f"{b}b", (a,), (inner, inner, mid), (extent, extent, mid), 3, second)
                ends.append(unit(f"{b}c", (m,), (extent, extent, mid), out_shape, 1, 1, relu=False))
            if block == 1:
                ends.append(unit(f"{name}_proj", (prev,), shape, out_shape, 1, stride, relu=False))
            else:
                ends.append(prev)
            merged = add(f"{name}_add", MFSpec("Addition", out_shape, out_shape), *ends)
            prev = add(f"{name}_relu", MFSpec("ReLU", out_shape, out_shape), merged)
            shape = out_shape
    pooled = add("pool5", PoolSpec("Avg", shape, (1, 1, 2048), (7, 7), (1, 1)), prev)
    add("fc", FullSpec(2048, 1000, "Softmax"), pooled)
    return build_graph(nodes, edges)


def resnet50() -> ArchGraph:
    """ResNet-50 (He et al., arXiv:1512.03385, Table 1): 174 nodes.

    Bottleneck stages of 3, 4, 6 and 3 blocks, 64, 128, 256 and 512
    channels wide; as in the paper's model, each stage from conv3 on
    downsamples by stride 2 in its first block's 1x1 convs.
    """
    return _bottleneck_net((64, 128, 256, 512), 1, stride_on_3x3=False)


def resnext50() -> ArchGraph:
    """ResNeXt-50 32x4d (Xie et al., arXiv:1611.05431) in its split-branch form.

    The stages of ``resnet50``, each block 32 branches of 1x1 -> 3x3 -> 1x1
    convs, 4, 8, 16 and 32 channels wide, summed with the shortcut in one
    Addition; as in the paper, downsampling is by stride 2 in the 3x3 convs.
    """
    return _bottleneck_net((4, 8, 16, 32), 32, stride_on_3x3=True)


# GoogLeNet's inception modules (Szegedy et al., arXiv:1409.4842, Table 1): name, then
# #1x1, #3x3 reduce, #3x3, #5x5 reduce, #5x5 and pool proj; a max pool precedes 4a and 5a
_INCEPTIONS = (
    ("3a", 64, 96, 128, 16, 32, 32), ("3b", 128, 128, 192, 32, 96, 64),
    ("4a", 192, 96, 208, 16, 48, 64), ("4b", 160, 112, 224, 24, 64, 64),
    ("4c", 128, 128, 256, 24, 64, 64), ("4d", 112, 144, 288, 32, 64, 64),
    ("4e", 256, 160, 320, 32, 128, 128),
    ("5a", 256, 160, 320, 32, 128, 128), ("5b", 384, 192, 384, 48, 128, 128),
)


def googlenet() -> ArchGraph:
    """GoogLeNet (Szegedy et al., arXiv:1409.4842, Table 1) on 224x224x3: 139 nodes.

    The stem (7x7/2 conv, 3x3/2 max pool, 1x1 and 3x3 convs, 3x3/2 max
    pool), inception 3a-5b with a 3x3/2 max pool before 4a and 5a, a 7x7
    average pool, 40% dropout and a 1,000-way full layer with its softmax.
    Each inception has four branches: a 1x1 conv; a 1x1 reduce and a 3x3
    conv; a 1x1 reduce and a 5x5 conv; a 3x3/1 max pool and a 1x1 conv;
    one Concatenation merges them. Every conv has a bias and a ReLU.
    Table 1 gives no local response normalization and no auxiliary
    classifier (used only in training), so neither is here. Caffe rounds
    pool outputs up; a stride-2 pool here pads one row and column at its
    bottom and right instead, which gives the table's sizes.
    """
    nodes: list = []
    edges: list = []

    def add(name: str, spec, *inputs: str) -> str:
        nodes.append((name, spec))
        edges.extend((src, name) for src in inputs)
        return name

    def conv(name: str, in_shape, channels: int, kernel: int, *inputs: str, stride: int = 1):
        """A conv and its ReLU; the name and shape of the ReLU."""
        extent = in_shape[0] // stride
        out_shape = (extent, extent, channels)
        pad = ((0, kernel // 2),) * 4
        add(name, ConvSpec(in_shape, out_shape, (kernel, kernel), (stride, stride), pad,
                           bias_used=True), *inputs)
        return add(f"{name}_relu", MFSpec("ReLU", out_shape, out_shape), name), out_shape

    def max_pool(name: str, shape, source: str):
        """A 3x3/2 max pool; its name and shape."""
        out_shape = (shape[0] // 2, shape[1] // 2, shape[2])
        return add(name, PoolSpec("Max", shape, out_shape, (3, 3), (2, 2), (0, 1, 0, 1)),
                   source), out_shape

    prev, shape = conv("conv1", (224, 224, 3), 64, 7, stride=2)
    prev, shape = max_pool("pool1", shape, prev)
    prev, shape = conv("conv2_reduce", shape, 64, 1, prev)
    prev, shape = conv("conv2", shape, 192, 3, prev)
    prev, shape = max_pool("pool2", shape, prev)
    for name, c1, r3, c3, r5, c5, proj in _INCEPTIONS:
        if name in ("4a", "5a"):
            prev, shape = max_pool(f"pool_{name}", shape, prev)
        ends = [conv(f"{name}_1x1", shape, c1, 1, prev)[0]]
        for size, reduce, out in ((3, r3, c3), (5, r5, c5)):
            reduced, inner = conv(f"{name}_{size}x{size}_reduce", shape, reduce, 1, prev)
            ends.append(conv(f"{name}_{size}x{size}", inner, out, size, reduced)[0])
        pooled = add(f"{name}_pool", PoolSpec("Max", shape, shape, (3, 3), (1, 1), (1, 1, 1, 1)),
                     prev)
        ends.append(conv(f"{name}_pool_proj", shape, proj, 1, pooled)[0])
        shape = (shape[0], shape[1], c1 + c3 + c5 + proj)
        prev = add(f"{name}_concat", MFSpec("Concatenation", shape, shape), *ends)
    pooled = add("pool5", PoolSpec("Avg", shape, (1, 1, shape[2]), (7, 7), (1, 1)), prev)
    dropped = add("dropout", MFSpec("Dropout", (1, 1, 1024), (1, 1, 1024), ("0.4",)), pooled)
    add("fc", FullSpec(1024, 1000, "Softmax"), dropped)
    return build_graph(nodes, edges)


def densenet121() -> ArchGraph:
    """DenseNet-121 (Huang et al., arXiv:1608.06993, Table 1) on 224x224x3: 426 nodes.

    DenseNet-BC with growth rate 32: a 7x7/2 conv, its BN and ReLU and a
    3x3/2 max pool, then dense blocks of 6, 12, 24 and 16 layers at extents
    56, 28, 14 and 7. Each layer is BN, ReLU, a 1x1 conv to 128 channels,
    BN, ReLU and a 3x3 conv to 32 channels; one Concatenation joins its
    output to the block's running input. Each of the three transitions is
    BN, ReLU, a 1x1 conv that halves the channels and a 2x2/2 average pool.
    The head is BN, ReLU, a 7x7 global average pool and a 1,000-way full
    layer with its softmax.
    """
    nodes: list = []
    edges: list = []

    def add(name: str, spec, *inputs: str) -> str:
        nodes.append((name, spec))
        edges.extend((src, name) for src in inputs)
        return name

    def bn_relu(name: str, shape, source: str) -> str:
        bn = add(f"{name}_bn", MFSpec("BN", shape, shape), source)
        return add(f"{name}_relu", MFSpec("ReLU", shape, shape), bn)

    def conv(name: str, in_shape, channels: int, kernel: int, *inputs: str, stride: int = 1):
        """A conv without bias (a BN follows); its name and output shape."""
        extent = in_shape[0] // stride
        out_shape = (extent, extent, channels)
        pad = ((0, kernel // 2),) * 4
        return add(name, ConvSpec(in_shape, out_shape, (kernel, kernel), (stride, stride), pad),
                   *inputs), out_shape

    prev, shape = conv("conv0", (224, 224, 3), 64, 7, stride=2)
    prev = bn_relu("conv0", shape, prev)
    out_shape = (shape[0] // 2, shape[1] // 2, shape[2])
    prev = add("pool0", PoolSpec("Max", shape, out_shape, (3, 3), (2, 2), (1, 1, 1, 1)), prev)
    shape = out_shape
    for block, layers in enumerate((6, 12, 24, 16), start=1):
        if block > 1:  # the transition before this block
            name = f"transition{block - 1}"
            activated = bn_relu(name, shape, prev)
            reduced, half = conv(f"{name}_conv", shape, shape[2] // 2, 1, activated)
            out_shape = (half[0] // 2, half[1] // 2, half[2])
            prev = add(f"{name}_pool", PoolSpec("Avg", half, out_shape, (2, 2), (2, 2)), reduced)
            shape = out_shape
        for layer in range(1, layers + 1):
            name = f"block{block}_layer{layer}"
            activated = bn_relu(f"{name}_1", shape, prev)
            bottleneck, inner = conv(f"{name}_conv1", shape, 128, 1, activated)
            grown, _ = conv(f"{name}_conv2", inner, 32, 3, bn_relu(f"{name}_2", inner, bottleneck))
            shape = (shape[0], shape[1], shape[2] + 32)
            prev = add(f"{name}_concat", MFSpec("Concatenation", shape, shape), prev, grown)
    pooled = add("pool5", PoolSpec("Avg", shape, (1, 1, shape[2]), (7, 7), (1, 1)),
                 bn_relu("norm5", shape, prev))
    add("fc", FullSpec(shape[2], 1000, "Softmax"), pooled)
    return build_graph(nodes, edges)
