"""Digests of what the graph-file path gives, and the script that records them.

    PYTHONPATH=src python tests/golden_graph_file.py

rewrites ``tests/golden/graph_file.txt``; ``tests/test_golden.py`` recomputes
every entry and names the first one that differs. Each line holds a family,
an index and short SHA-256 digests:

- ``fixtures``: both fixture graph files, loaded; the digests of the
  canonical text and of ``graph_to_json`` in canonical order.
- ``c03``: the 1,000 graphs of acceptance criterion 3 (``random.Random(1003)``),
  written by ``graph_to_json``, read back by ``parse_graph_json``, then
  digested as the fixtures are.
- ``mutants``: 2,000 seeded node-record mutants from
  ``test_graphio.record_mutants``, each loaded as a one-node graph file; the
  digest of its basic string, or of its error type and message.
- ``five_node``: the 3,904 graphs of ``gen.five_node_dags``, each built in
  identity insertion order; the digest of its canonical text.
- ``shapes``: the hard shapes that render in under a second, in the order of
  ``SHAPES``; the digests of the canonical text and of ``graph_to_json`` of
  that text read back by ``parse_description``, which reads every field of
  every spec the text holds.
- ``cells``: the 2,000 NAS-Bench-101-style cells of ``gen.cells``, written
  by ``graph_to_json`` and digested as C03 is.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from arctext import (
    ArcTextError,
    assign_positions,
    parse_description,
    parse_graph_json,
    render_description,
)
from arctext.graphio import _spec_to_record, graph_to_json
from arctext.unitformat import basic_string

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # the test helpers, when run as a script

import gen  # noqa: E402
from test_graphio import record_mutants  # noqa: E402

GOLDEN = HERE / "golden" / "graph_file.txt"
FIXTURES = HERE / "fixtures"
# ResNeXt 1 x 32 and 2 x 32, braid 12 x 2, Inception 20, chain 4,000, fan 250
SHAPES = ((gen.resnext_graph, 1, 32), (gen.resnext_graph, 2, 32), (gen.braid_graph, 12, 2),
          (gen.inception_graph, 20), (gen.chain_graph, 4000), (gen.fan_graph, 250))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def _graph_entry(graph_file: str) -> str:
    g = parse_graph_json(graph_file)
    return f"{_digest(render_description(g).text)} {_digest(graph_to_json(g, assign_positions(g)))}"


def _shape_entry(g) -> str:
    text = render_description(g).text
    return f"{_digest(text)} {_digest(graph_to_json(*parse_description(text)))}"


def _mutant_entry(record: dict) -> str:
    try:
        g = parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
    except ArcTextError as exc:
        return _digest(f"{type(exc).__name__}: {exc}")
    return _digest(basic_string(g.spec(record["name"])))


def families() -> dict[str, list[str]]:
    """Each family's entries, in index order."""
    fixtures = [_graph_entry((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))
                for stem in ("resnet4", "branching25")]
    rng = random.Random(1003)  # the C03 corpus
    c03 = [_graph_entry(graph_to_json(gen.random_graph(rng, min_nodes=5, max_nodes=40,
                                                        max_skips=3)))
           for _ in range(1000)]
    rng = random.Random(2210)
    mutants = [_mutant_entry(mutant) for _ in range(100)
               for mutant in record_mutants(_spec_to_record("a", gen.rand_spec(rng)), rng, 20)]
    five_node = [_digest(render_description(g).text) for g in gen.five_node_dags()]
    shapes = [_shape_entry(make(*args)) for make, *args in SHAPES]
    cells = [_graph_entry(graph_to_json(g)) for g in gen.cells()]
    return {"fixtures": fixtures, "c03": c03, "mutants": mutants, "five_node": five_node,
            "shapes": shapes, "cells": cells}


def read_golden(path: Path = GOLDEN) -> dict[str, list[str]]:
    recorded: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            family, index, entry = line.split(" ", 2)
            assert int(index) == len(recorded.setdefault(family, [])), line
            recorded[family].append(entry)
    return recorded


def main() -> None:
    lines = ["# family index digests; regenerate with: PYTHONPATH=src python tests/golden_graph_file.py"]
    lines += [f"{family} {i} {entry}"
              for family, entries in families().items() for i, entry in enumerate(entries)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
