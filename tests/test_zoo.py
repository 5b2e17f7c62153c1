"""Real architectures built from their papers' layer tables: ``gen.resnet50``, ``gen.resnext50``."""

import random
import time

import pytest

from arctext import (
    PathExplosionError, build_graph, lint_shapes, parse_description, render_description,
)

import gen


@pytest.fixture(scope="module")
def resnet50():
    return gen.resnet50()


@pytest.mark.parametrize("build", [gen.resnet50, gen.resnext50])
def test_each_model_declares_consistent_shapes(build):
    assert lint_shapes(build()).clean


def test_resnet50_round_trips_to_the_same_bytes(resnet50):
    text = render_description(resnet50).text
    assert render_description(parse_description(text)[0]).text == text


def test_resnet50_renders_the_same_under_new_names_with_its_edges_shuffled(resnet50):
    rng = random.Random(50)
    fresh = [f"w{i}" for i in range(len(resnet50))]
    rng.shuffle(fresh)
    rename = dict(zip(resnet50.names(), fresh))
    edges = [(rename[a], rename[b]) for a, b in resnet50.edges]
    rng.shuffle(edges)
    twin = build_graph([(rename[name], resnet50.spec(name)) for name in resnet50.names()], edges)
    assert render_description(twin).text == render_description(resnet50).text


def test_resnext50_is_refused_as_a_path_explosion_in_seconds():
    g = gen.resnext50()
    start = time.perf_counter()
    with pytest.raises(PathExplosionError):
        render_description(g)
    assert time.perf_counter() - start < 5.0
