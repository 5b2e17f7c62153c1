"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line with
the measured detail, so a verbose run reads as a checklist. Tolerances
(byte-exactness, corpus sizes, time budgets) are asserted, not just printed.
"""

import hashlib
import random
import time

import pytest

from arctext import (
    PathExplosionError,
    Vocabulary,
    assign_positions,
    build_graph,
    conv_output_extent,
    description_from_text,
    detokenize,
    lint_shapes,
    load_graph_file,
    parse_description,
    path_digest,
    pool_output_extent,
    render_description,
    tokenize,
    unit_vector,
)
from arctext.cli import main as cli_main
from arctext.graphio import graph_to_json
from arctext.canonical import longest_unnumbered_paths
from arctext.unitformat import basic_string

import gen
from conftest import FIXTURES
from test_lint import checkable_axes, perturbed


def _best_ms(fn, runs=5):
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def test_c01_resnet4_is_byte_exact_and_fast(resnet4_text):
    graph = load_graph_file(FIXTURES / "resnet4.json")
    desc = render_description(graph)
    assert desc.text == resnet4_text
    assert len(desc.lines) == 13

    ms = _best_ms(lambda: render_description(load_graph_file(FIXTURES / "resnet4.json")))
    assert ms < 50.0
    print(f"criterion 1: PASS - 13-line output byte-exact, {ms:.2f} ms < 50 ms")


def test_c02_branching25_matches_either_tie_variant(branching25_text):
    tieswap_text = (FIXTURES / "branching25_tieswap.arctext").read_text(encoding="utf-8")
    graph = load_graph_file(FIXTURES / "branching25.json")
    first = render_description(graph).text
    assert first in (branching25_text, tieswap_text)
    variant = "primary" if first == branching25_text else "tie-swapped"

    order = assign_positions(graph)
    pinned = {
        "S": 1, "S2": 2, "S3": 3, "I": 10, "J": 11,
        "G1": 18, "G2": 19, "G3": 20, "H": 21,
        "A1": 22, "A2": 23, "A3": 24, "E": 25,
    }
    for name, position in pinned.items():
        assert order.position_of(name) == position, name

    for _ in range(100):
        assert render_description(graph).text == first

    ms = _best_ms(lambda: render_description(load_graph_file(FIXTURES / "branching25.json")))
    assert ms < 100.0
    print(f"criterion 2: PASS - {variant} variant, 13 pinned positions, "
          f"stable over 100 runs, {ms:.2f} ms < 100 ms")


def test_c03_round_trip_on_1000_random_graphs():
    rng = random.Random(1003)
    for i in range(1000):
        g = gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)
        text = render_description(g).text
        reparsed, _ = parse_description(text)
        assert render_description(reparsed).text == text, f"graph #{i}"
    print("criterion 3: PASS - 1000/1000 parse-render round trips byte-identical")


def test_c04_canonical_form_ignores_input_order_and_names():
    rng = random.Random(1004)
    for i in range(1000):
        g = gen.random_graph(rng)
        text = render_description(g).text
        shuffled = gen.permuted_renamed(g, rng)
        assert render_description(shuffled).text == text, f"graph #{i}"
    print("criterion 4: PASS - 1000/1000 permuted and renamed builds byte-identical")


def test_cells_round_trip():
    for i, g in enumerate(gen.cells()):
        text = render_description(g).text
        reparsed, _ = parse_description(text)
        assert render_description(reparsed).text == text, f"cell #{i}"


def test_cells_render_the_same_under_new_names():
    # new names and edge order, same node order
    rng = random.Random(1009)
    for i, g in enumerate(gen.cells()):
        fresh = [f"w{k}" for k in range(len(g))]
        rng.shuffle(fresh)
        name = dict(zip(g.names(), fresh))
        edges = [(name[a], name[b]) for a, b in g.edges]
        rng.shuffle(edges)
        renamed = build_graph([(name[v], g.spec(v)) for v in g.names()], edges)
        assert render_description(renamed).text == render_description(g).text, f"cell #{i}"


def test_c05_symmetric_branches_render_identically():
    rng = random.Random(1005)
    for i in range(200):
        a, b = gen.symmetric_pair(rng)
        assert render_description(a).text == render_description(b).text, f"pair #{i}"
    print("criterion 5: PASS - 200/200 symmetric-branch pairs identical")


def test_c06_longest_path_length_matches_exhaustive_oracle():
    rng = random.Random(1006)
    for i in range(500):
        g = gen.small_dag(rng, max_nodes=10)
        oracle_len, _ = gen.oracle_longest_paths(g)
        candidates = longest_unnumbered_paths(g, {}, max_paths=100_000)
        impl_len = len(candidates[0].node_sequence)
        assert impl_len == oracle_len, f"dag #{i}"
    print("criterion 6: PASS - 500/500 longest-path lengths equal the DFS oracle")


def test_c07_sha224_reference_vectors(resnet4):
    assert hashlib.sha224(b"").hexdigest() == (
        "d14a028c2a3a2bc9476102bb288234c415a2b01f828ea62ac5b3e42f"
    )
    assert hashlib.sha224(b"abc").hexdigest() == (
        "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
    )
    # the path digest is that same function over basic-property bytes
    candidate = path_digest(("S",), resnet4)
    expected = hashlib.sha224(basic_string(resnet4.spec("S")).encode("utf-8")).digest()
    assert candidate.digest == expected
    assert len(candidate.digest) == 28
    print("criterion 7: PASS - standard SHA-224 vectors and path digests agree")


def test_c08_fixtures_lint_clean_and_every_extent_slip_is_caught(
    tmp_path, resnet4, branching25
):
    assert lint_shapes(resnet4).clean
    assert lint_shapes(branching25).clean

    checked = 0
    for label, g in (("resnet4", resnet4), ("branching25", branching25)):
        for name in g.names():
            for axis in checkable_axes(g.spec(name)):
                bad = perturbed(g, name, axis)
                report = lint_shapes(bad)
                assert len(report.mismatches()) == 1, (label, name, axis)
                assert report.mismatches()[0].node == name

                target = tmp_path / f"{label}_{name}_{axis}.json"
                target.write_text(graph_to_json(bad), encoding="utf-8")
                assert cli_main(["--quiet", "lint", "-i", str(target)]) == 1
                checked += 1
    print(f"criterion 8: PASS - both fixtures clean; {checked} single-extent "
          f"perturbations each flagged exactly once with exit 1")


def test_c09_output_extent_spot_checks():
    assert conv_output_extent(32, 2, 2, 0, 1) == 16
    assert conv_output_extent(224, 7, 2, 6, 1) == 112
    assert pool_output_extent(31, 2, 2, 1, 1) == 16
    assert pool_output_extent(112, 3, 2, 2, 1) == 56
    assert pool_output_extent(56, 56, 1, 0, 1) == 1
    print("criterion 9: PASS - all 5 extent spot checks")


def test_c10_tokenizer_is_lossless_and_vectors_are_fixed_width(
    resnet4_text, branching25_text
):
    lines = 0
    for text in (resnet4_text, branching25_text):
        d = description_from_text(text)
        v = Vocabulary.default()
        assert detokenize(tokenize(d, v), v) == text
        for line in d.lines:
            assert unit_vector(line).shape == (24,)
            lines += 1

    rng = random.Random(1010)
    for i in range(1000):
        text = render_description(gen.random_graph(rng)).text
        d = description_from_text(text)
        v = Vocabulary.default()
        assert detokenize(tokenize(d, v), v) == text, f"description #{i}"
        for line in d.lines:
            assert unit_vector(line).shape == (24,)
            lines += 1
    print(f"criterion 10: PASS - tokenize/detokenize identity on 1002 descriptions, "
          f"{lines} unit vectors all width 24")


def test_c11_scale_guard():
    chain = gen.chain_graph(1000)
    t0 = time.perf_counter()
    desc = render_description(chain)
    chain_s = time.perf_counter() - t0
    assert len(desc.lines) == 1000
    assert chain_s < 1.0

    braid = gen.braid_graph(layers=20, width=2)
    t0 = time.perf_counter()
    with pytest.raises(PathExplosionError):
        render_description(braid)
    braid_s = time.perf_counter() - t0
    assert braid_s < 5.0

    # reading back: the chain's text, and a node fanning out to 4,000 branches
    # that join at the sink, spelled directly (rendering a fan that wide grinds)
    unit = "id:{};name:A;in_size:4;out_size:4;value:Null;connect_to:{}"
    fan = "\n".join([unit.format(1, "-".join(map(str, range(2, 4002))))]
                    + [unit.format(uid, 4002) for uid in range(2, 4002)]
                    + [unit.format(4002, "Null")])
    read_s = {}
    for name, text, nodes in (("chain", desc.text, 1000), ("fan", fan, 4002)):
        for read in (description_from_text, parse_description):
            t0 = time.perf_counter()
            result = read(text)
            read_s[name, read.__name__] = seconds = time.perf_counter() - t0
            assert len(result[0] if isinstance(result, tuple) else result.lines) == nodes
            assert seconds < 1.0
    print(f"criterion 11: PASS - 1000-node chain in {chain_s:.3f} s < 1 s; "
          f"braid overflow raised in {braid_s:.3f} s < 5 s; read back in at most "
          f"{max(read_s.values()):.3f} s < 1 s")
