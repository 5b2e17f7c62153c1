"""Seeded input generators for the benchmark workloads.

Every generator returns a graph-file document: a dict with "nodes" (records
named after the NodeSpec fields, as graphio reads them) and "edges" (name
pairs). The generators use only the standard library, never arctext and
never the test helpers, so that neither a change to the package nor a
change to the tests can shift the inputs. The same ``random.Random`` state
always yields the same documents.
"""

from __future__ import annotations

import random

ACTS = (None, "ReLU", "Sigmoid", "Tanh")
OPS = ("ReLU", "BN", "Dropout", "Addition", "Concatenation", "Scale")
VALUE_SETS = ((), ("0.5",), ("0.1", "0.9"), ("alpha",), ("2",))


def conv(name, in_size, out_size, kernel=(1, 1), stride=(1, 1), pad=0,
         groups=1, bias=False):
    return {"name": name, "kind": "conv", "in_size": list(in_size),
            "out_size": list(out_size), "kernel": list(kernel),
            "stride": list(stride), "padding": [[0, pad]] * 4,
            "dilation": 1, "groups": groups, "bias_used": bias}


def mf(name, op, shape, values=()):
    return {"name": name, "kind": "mf", "op_name": op, "in_size": list(shape),
            "out_size": list(shape), "values": sorted(values)}


def full(name, in_size, out_size, act=None):
    record = {"name": name, "kind": "full", "in_size": in_size, "out_size": out_size}
    if act is not None:
        record["act_fun"] = act
    return record


def rand_record(rng: random.Random, name: str) -> dict:
    """One node of any kind, with the mix and ranges of the test corpus."""
    roll = rng.random()
    if roll < 0.30:
        return {
            "name": name, "kind": "conv",
            "in_size": [rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)],
            "out_size": [rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)],
            "kernel": [rng.randint(1, 7), rng.randint(1, 7)],
            "stride": [rng.randint(1, 3), rng.randint(1, 3)],
            "padding": [[rng.randint(0, 2), rng.randint(0, 3)] for _ in range(4)],
            "dilation": rng.randint(1, 3),
            "groups": rng.randint(1, 4),
            "bias_used": rng.random() < 0.5,
        }
    if roll < 0.50:
        channels = rng.randint(1, 16)
        return {
            "name": name, "kind": "pool",
            "pool_type": rng.choice(("Max", "Avg")),
            "in_size": [rng.randint(1, 64), rng.randint(1, 64), channels],
            "out_size": [rng.randint(1, 64), rng.randint(1, 64), channels],
            "kernel": [rng.randint(1, 5), rng.randint(1, 5)],
            "stride": [rng.randint(1, 3), rng.randint(1, 3)],
            "padding": [rng.randint(0, 2) for _ in range(4)],
            "dilation": rng.randint(1, 2),
            "bias_used": rng.random() < 0.2,
        }
    if roll < 0.65:
        return full(name, rng.randint(1, 4096), rng.randint(1, 4096), rng.choice(ACTS))
    if rng.random() < 0.2:
        shape: list = [rng.randint(1, 4096)]
    else:
        shape = [rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)]
    out = shape if rng.random() < 0.8 else shape[::-1]
    return {"name": name, "kind": "mf", "op_name": rng.choice(OPS),
            "in_size": shape, "out_size": out,
            "values": sorted(rng.choice(VALUE_SETS))}


def random_graph(rng: random.Random, min_nodes=5, max_nodes=40, max_skips=3) -> dict:
    """A spine chain with up to ``max_skips`` forward skip edges."""
    n = rng.randint(min_nodes, max_nodes)
    names = [f"v{i}" for i in range(n)]
    nodes = [rand_record(rng, name) for name in names]
    edges = [[names[i], names[i + 1]] for i in range(n - 1)]
    present = {tuple(e) for e in edges}
    for _ in range(rng.randint(0, max_skips)):
        i = rng.randint(0, n - 3)
        j = rng.randint(i + 2, n - 1)
        if (names[i], names[j]) not in present:
            present.add((names[i], names[j]))
            edges.append([names[i], names[j]])
    return {"nodes": nodes, "edges": edges}


def permuted_renamed(doc: dict, rng: random.Random) -> dict:
    """The same architecture under new names, with nodes and edges shuffled."""
    old = [record["name"] for record in doc["nodes"]]
    fresh = [f"w{i}" for i in range(len(old))]
    rng.shuffle(fresh)
    mapping = dict(zip(old, fresh))
    nodes = [dict(record, name=mapping[record["name"]]) for record in doc["nodes"]]
    rng.shuffle(nodes)
    edges = [[mapping[a], mapping[b]] for a, b in doc["edges"]]
    rng.shuffle(edges)
    return {"nodes": nodes, "edges": edges}


def resnext(rng: random.Random, blocks: int, branches: int) -> dict:
    """A stem, ``blocks`` blocks of identical conv-BN-ReLU branches merged by
    an Addition, then pooling and a classifier (Xie et al., 1611.05431).
    """
    side = rng.choice((14, 28, 56))
    width = rng.choice((64, 128, 256))
    group = rng.choice((4, 8))
    shape = (side, side, width)
    nodes = [conv("stem", (4 * side, 4 * side, 3), shape, (7, 7), (2, 2), 3)]
    edges = []
    prev = "stem"
    for b in range(blocks):
        merge = f"add{b}"
        for k in range(branches):
            names = [f"c{b}_{k}", f"bn{b}_{k}", f"r{b}_{k}"]
            nodes += [conv(names[0], shape, (side, side, group), (3, 3), pad=1),
                      mf(names[1], "BN", (side, side, group)),
                      mf(names[2], "ReLU", (side, side, group))]
            edges += [[prev, names[0]], [names[0], names[1]],
                      [names[1], names[2]], [names[2], merge]]
        nodes.append(mf(merge, "Addition", shape))
        prev = merge
    nodes += [{"name": "pool", "kind": "pool", "pool_type": "Avg",
               "in_size": list(shape), "out_size": [1, 1, width],
               "kernel": [side, side], "stride": [1, 1], "padding": [0] * 4,
               "dilation": 1, "bias_used": False},
              full("fc", width, 1000)]
    edges += [[prev, "pool"], ["pool", "fc"]]
    return {"nodes": nodes, "edges": edges}


def braid(rng: random.Random, layers: int, width: int) -> dict:
    """Full bipartite layers of ``width`` nodes: width**layers tied paths."""
    column = [mf("", rng.choice(OPS),
                 (rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 16)),
                 rng.choice(VALUE_SETS)) for _ in range(width)]
    nodes = [conv("in", (224, 224, 3), (112, 112, 64), (7, 7), (2, 2), 3)]
    edges = []
    prev = ["in"]
    for layer in range(layers):
        current = [f"b{layer}_{w}" for w in range(width)]
        nodes += [dict(column[w], name=name) for w, name in enumerate(current)]
        edges += [[a, b] for a in prev for b in current]
        prev = current
    nodes.append(full("out", rng.randint(1, 4096), rng.randint(1, 4096)))
    edges += [[a, "out"] for a in prev]
    return {"nodes": nodes, "edges": edges}


def inception(rng: random.Random, blocks: int, branches: int = 6) -> dict:
    """Blocks of ``branches`` parallel chains of lengths 1..branches, each
    node with its own kernel, merged by a Concatenation. No two branches
    tie, so every ordering round ranks distinct digests.
    """
    side = rng.choice((7, 14, 28))
    channels = rng.choice((192, 256, 480))
    shape = (side, side, channels)
    nodes = [conv("stem", (8 * side, 8 * side, 3), shape, (7, 7), (2, 2), 3)]
    edges = []
    prev = "stem"
    for b in range(blocks):
        merge = f"cat{b}"
        for k in range(branches):
            last = prev
            for i in range(k + 1):
                name = f"n{b}_{k}_{i}"
                kernel = 1 + 2 * ((k + i) % 3)
                nodes.append(conv(name, shape, shape, (kernel, kernel),
                                  pad=kernel // 2, bias=(k + i) % 2 == 1))
                edges.append([last, name])
                last = name
            edges.append([last, merge])
        nodes.append(mf(merge, "Concatenation", shape, (str(b % 4 + 1),)))
        prev = merge
    nodes.append(full("fc", channels, 1000, "ReLU"))
    edges.append([prev, "fc"])
    return {"nodes": nodes, "edges": edges}


def chain(rng: random.Random, n: int) -> dict:
    """A linear chain of ``n`` random nodes."""
    nodes = [rand_record(rng, f"c{i}") for i in range(n)]
    edges = [[f"c{i}", f"c{i + 1}"] for i in range(n - 1)]
    return {"nodes": nodes, "edges": edges}
