"""The text as a complete invariant: two graphs share a text exactly when they are isomorphic.

Round trips show that two different architectures never share a text; the
other direction needs an isomorphism test that is not the ordering itself.
Each set is grouped into isomorphism classes: graphs are bucketed by
networkx's Weisfeiler-Lehman hash with each node labelled by its basic
string, and each bucket is split by ``is_isomorphic`` (VF2; Cordella et
al., IEEE TPAMI 2004), matching nodes on that label. Each graph is built
once, in identity insertion order. ``isomorphism_6node.py`` runs the same
grouping over every 6-node two-spec DAG, outside tier-1.
"""

import warnings

import networkx as nx
import pytest

from arctext import ArchGraph, basic_string, render_description

import gen

_SAME_LABEL = nx.algorithms.isomorphism.categorical_node_match("label", None)


def labelled(nodes, edges) -> nx.DiGraph:
    """A digraph of ``(node, label)`` pairs and ``(from, to)`` edges."""
    graph = nx.DiGraph()
    graph.add_nodes_from((node, {"label": label}) for node, label in nodes)
    graph.add_edges_from(edges)
    return graph


def labelled_graph(g: ArchGraph) -> nx.DiGraph:
    return labelled([(name, basic_string(g.spec(name))) for name in g.names()], g.edges)


def isomorphism_classes(count: int, graph_at) -> list[list[int]]:
    """The indices 0..count-1 grouped by isomorphism of the labelled digraphs ``graph_at(i)``.

    Each graph is built once to bucket it and, in a bucket of more than one,
    once more to split the bucket, so no more than one bucket's graphs are held.
    """
    buckets: dict[str, list[int]] = {}
    with warnings.catch_warnings():  # its directed hashes changed in 3.5; compared in one run only
        warnings.filterwarnings("ignore", "The hashes produced for directed graphs changed")
        for i in range(count):
            key = nx.weisfeiler_lehman_graph_hash(graph_at(i), node_attr="label")
            buckets.setdefault(key, []).append(i)
    classes = []
    for members in buckets.values():
        held: list[tuple[nx.DiGraph, list[int]]] = []  # one graph per class of the bucket
        for i in members:
            graph = graph_at(i) if len(members) > 1 else None
            for first, found in held:
                if nx.is_isomorphic(first, graph, node_match=_SAME_LABEL):
                    found.append(i)
                    break
            else:
                held.append((graph, [i]))
                classes.append(held[-1][1])
    return classes


def shared_texts(classes, text_at) -> tuple[int, int]:
    """How many texts two or more classes share, and how many classes have two or more texts."""
    owner: dict = {}
    shared, split = set(), 0
    for k, members in enumerate(classes):
        texts = {text_at(i) for i in members}
        split += len(texts) > 1
        for text in texts:
            if owner.setdefault(text, k) != k:
                shared.add(text)
    return len(shared), split


_SETS = {"five_node": gen.five_node_dags, "two_spec": gen.two_spec_dags, "cells": gen.cells}
_READ: dict = {}


def _classes_and_texts(name: str) -> tuple[list[list[int]], list[str]]:
    if name not in _READ:
        graphs = _SETS[name]()
        texts = [render_description(g).text for g in graphs]
        labelled_graphs = [labelled_graph(g) for g in graphs]
        _READ[name] = isomorphism_classes(len(graphs), labelled_graphs.__getitem__), texts
    return _READ[name]


@pytest.mark.parametrize("name", list(_SETS))
def test_no_two_isomorphism_classes_share_a_text(name):
    classes, texts = _classes_and_texts(name)
    assert shared_texts(classes, texts.__getitem__)[0] == 0


@pytest.mark.parametrize("name", list(_SETS))
def test_each_isomorphism_class_has_one_text(name):
    classes, texts = _classes_and_texts(name)
    assert shared_texts(classes, texts.__getitem__)[1] == 0


def test_the_grouping_tells_isomorphic_graphs_from_others():
    # a relabelled copy joins its original's class; swapping two labels or
    # reversing an edge's neighbourhood makes a class of its own
    relu, bn = (basic_string(spec) for spec in gen.TWO_MF_SPECS)
    graphs = [
        labelled([(0, relu), (1, bn), (2, relu), (3, bn)], [(0, 1), (0, 2), (1, 3), (2, 3)]),
        labelled([("a", relu), ("c", relu), ("b", bn), ("d", bn)],
                 [("a", "c"), ("a", "b"), ("c", "d"), ("b", "d")]),
        labelled([(0, bn), (1, relu), (2, relu), (3, bn)], [(0, 1), (0, 2), (1, 3), (2, 3)]),
        labelled([(0, relu), (1, bn), (2, relu), (3, bn)], [(0, 1), (0, 2), (1, 3), (2, 1)]),
    ]
    classes = sorted(isomorphism_classes(len(graphs), graphs.__getitem__))
    assert classes == [[0, 1], [2], [3]]
    assert shared_texts(classes, "AABC".__getitem__) == (0, 0)
    assert shared_texts(classes, "ABAC".__getitem__) == (1, 1)
