"""Real architectures built from their papers' layer tables: ``gen.resnet50``,
``gen.resnext50``, ``gen.googlenet`` and ``gen.densenet121``."""

import random
import sys
import time

import pytest

from arctext import (
    PathExplosionError, build_graph, graph_to_json, lint_shapes, parse_description,
    parse_graph_json, render_description,
)

import gen


@pytest.fixture(scope="module")
def resnet50():
    return gen.resnet50()


@pytest.mark.parametrize("build", [gen.resnet50, gen.resnext50, gen.googlenet, gen.densenet121])
def test_each_model_declares_consistent_shapes(build):
    assert lint_shapes(build()).clean


def test_resnet50_round_trips_to_the_same_bytes(resnet50):
    text = render_description(resnet50).text
    assert render_description(parse_description(text)[0]).text == text


def _renamed_and_shuffled(g, rng):
    """``g`` under new names, its edges in shuffled order."""
    fresh = [f"w{i}" for i in range(len(g))]
    rng.shuffle(fresh)
    rename = dict(zip(g.names(), fresh))
    edges = [(rename[a], rename[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return build_graph([(rename[name], g.spec(name)) for name in g.names()], edges)


def test_resnet50_renders_the_same_under_new_names_with_its_edges_shuffled(resnet50):
    twin = _renamed_and_shuffled(resnet50, random.Random(50))
    assert render_description(twin).text == render_description(resnet50).text


@pytest.fixture(scope="module")
def googlenet():
    g = gen.googlenet()
    return g, render_description(g).text  # about 0.5 s, in 23 ordering rounds


def test_googlenet_round_trips_to_the_same_bytes(googlenet):
    g, text = googlenet
    assert render_description(parse_description(text)[0]).text == text


def test_googlenet_renders_the_same_under_new_names_with_its_edges_shuffled(googlenet):
    g, text = googlenet
    assert render_description(_renamed_and_shuffled(g, random.Random(1409))).text == text


def test_resnext50_is_refused_as_a_path_explosion_in_seconds():
    g = gen.resnext50()
    start = time.perf_counter()
    with pytest.raises(PathExplosionError):
        render_description(g)
    assert time.perf_counter() - start < 5.0


@pytest.fixture(scope="module")
def densenet121():
    g = gen.densenet121()
    return g, render_description(g).text  # no ordering round: one longest path spans it


def test_densenet121_round_trips_to_the_same_bytes(densenet121):
    _, text = densenet121
    assert render_description(parse_description(text)[0]).text == text


def test_densenet121_renders_the_same_under_new_names_with_its_edges_shuffled(densenet121):
    g, text = densenet121
    assert render_description(_renamed_and_shuffled(g, random.Random(1608))).text == text


def test_densenet121_reads_back_from_its_graph_file(densenet121):
    # its file holds more "[" and "{" than the recursion limit, so json, not
    # orjson, decodes it
    g, _ = densenet121
    text = graph_to_json(g)
    assert text.count("[") + text.count("{") >= sys.getrecursionlimit()
    assert parse_graph_json(text) == g
