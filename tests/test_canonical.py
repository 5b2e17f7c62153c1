import hashlib
import pickle
import random

import pytest

from arctext import (
    AmbiguousSinkError,
    AmbiguousSourceError,
    BrokenPathError,
    ConvSpec,
    FullSpec,
    MFSpec,
    NoNodesError,
    PathExplosionError,
    PoolSpec,
    assign_positions,
    basic_string,
    build_graph,
    detect_terminals,
    load_graph_file,
    longest_unnumbered_paths,
    path_digest,
    render_description,
)
import arctext
from arctext import canonical
from arctext.unitformat import basic_fields

import gen
from conftest import FIXTURES
from test_oracle import admitted_numberings

RESNET4_POSITIONS = {
    "S": 1, "A": 2, "B": 3, "C": 4, "D": 5, "F": 6, "G": 7, "H": 8,
    "I": 9, "J": 10, "K": 11, "L": 12, "E": 13,
}

# D-branch first; its path digest outranks the B-branch's
BRANCHING25_POSITIONS = {
    "S": 1, "S2": 2, "S3": 3,
    "D1": 4, "D2": 5, "D3": 6, "F1": 7, "F2": 8, "F3": 9,
    "I": 10, "J": 11,
    "B1": 12, "B2": 13, "B3": 14, "C1": 15, "C2": 16, "C3": 17,
    "G1": 18, "G2": 19, "G3": 20, "H": 21,
    "A1": 22, "A2": 23, "A3": 24,
    "E": 25,
}


def mf_chain(*ops):
    nodes = [(f"n{i}", MFSpec(op, (4, 4, 2), (4, 4, 2))) for i, op in enumerate(ops)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(len(ops) - 1)]
    return build_graph(nodes, edges)


class TestDetectTerminals:
    def test_fixtures(self, resnet4, branching25):
        assert detect_terminals(resnet4) == ("S", "E")
        assert detect_terminals(branching25) == ("S", "E")

    def test_chain(self):
        assert detect_terminals(mf_chain("A", "B")) == ("n0", "n1")

    def test_two_sinks_raise(self):
        g = build_graph(
            [("a", MFSpec("X", (4,), (4,))), ("b", MFSpec("X", (4,), (4,))),
             ("c", MFSpec("X", (4,), (4,)))],
            [("a", "b"), ("a", "c")],
        )
        with pytest.raises(AmbiguousSinkError) as err:
            detect_terminals(g)
        assert str(err.value) == "expected exactly one outdegree-0 node, found 2: ['b', 'c']"
        assert err.value.subject == ("b", "c")

    def test_two_sources_raise(self):
        g = build_graph(
            [("a", MFSpec("X", (4,), (4,))), ("b", MFSpec("X", (4,), (4,))),
             ("c", MFSpec("X", (4,), (4,)))],
            [("a", "c"), ("b", "c")],
        )
        with pytest.raises(AmbiguousSourceError) as err:
            detect_terminals(g)
        assert str(err.value) == "expected exactly one indegree-0 node, found 2: ['a', 'b']"
        assert err.value.subject == ("a", "b")

    def test_two_sources_and_two_sinks_report_the_sources(self):
        g = build_graph(
            [(v, MFSpec("X", (4,), (4,))) for v in "abcd"],
            [("a", "c"), ("b", "d")],
        )
        with pytest.raises(AmbiguousSourceError) as err:
            detect_terminals(g)
        assert str(err.value) == "expected exactly one indegree-0 node, found 2: ['a', 'b']"
        assert err.value.subject == ("a", "b")

    def test_no_nodes(self):
        with pytest.raises(NoNodesError) as err:
            detect_terminals(build_graph([], []))
        assert str(err.value) == "graph has no nodes"
        assert err.value.subject is None


class TestBasicString:
    def test_pool_substring(self):
        spec = PoolSpec("Max", (4, 4, 2), (3, 3, 2), (2, 2), (1, 1))
        assert "kernel:2-2;stride:1-1" in basic_string(spec)

    def test_mf_exact(self):
        spec = MFSpec("ReLU", (32, 32, 3), (32, 32, 3))
        assert basic_string(spec) == "name:ReLU;in_size:32-32-3;out_size:32-32-3;value:Null"

    def test_deterministic(self):
        a = MFSpec("BN", (8, 8, 4), (8, 8, 4))
        b = MFSpec("BN", (8, 8, 4), (8, 8, 4))
        assert basic_string(a) == basic_string(b)

    def test_excludes_id_and_connections(self, resnet4):
        for name in resnet4.names():
            s = basic_string(resnet4.spec(name))
            assert "id:" not in s and "connect_to" not in s


def _one_spec_of_each_kind():
    return (
        ConvSpec((8, 8, 3), (8, 8, 16), (3, 3), (1, 1), ((0, 1),) * 4, 1, 1, True),
        PoolSpec("Avg", (8, 8, 16), (4, 4, 16), (2, 2), (2, 2)),
        FullSpec(256, 10, "ReLU"),
        MFSpec("Dropout", (512,), (512,), ("0.5",)),
    )


class TestBasicFieldsKept:
    def test_computed_once(self):
        for spec in _one_spec_of_each_kind():
            fields = basic_fields(spec)
            assert isinstance(fields, tuple)
            assert basic_fields(spec) == fields
            assert basic_string(spec) is basic_string(spec)

    def test_spec_identity_is_untouched(self):
        for spec, twin in zip(_one_spec_of_each_kind(), _one_spec_of_each_kind()):
            text = basic_string(spec)
            assert spec == twin and hash(spec) == hash(twin)
            assert repr(spec) == repr(twin)
            assert pickle.dumps(spec) == pickle.dumps(twin)
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and basic_string(copy) == text

    def test_non_spec_is_refused(self):
        with pytest.raises(TypeError):
            basic_string(object())
        with pytest.raises(TypeError):
            basic_fields(42)


class TestPathDigest:
    def test_matches_independent_hash(self, resnet4):
        candidate = path_digest(("S", "A", "B"), resnet4)
        joined = "\n".join(
            basic_string(resnet4.spec(n)) for n in ("S", "A", "B")
        )
        assert candidate.basic_string == joined
        assert candidate.digest == hashlib.sha224(joined.encode()).digest()
        assert len(candidate.digest) == 28

    def test_broken_path(self, resnet4):
        with pytest.raises(BrokenPathError):
            path_digest(("S", "C"), resnet4)

    def test_equal_specs_equal_digests(self):
        g = mf_chain("A", "B", "A", "B")
        d1 = path_digest(("n0", "n1"), g)
        d2 = path_digest(("n2", "n3"), g)
        assert d1.digest == d2.digest

    @pytest.mark.parametrize("path, subject", [
        (["zz"], "zz"),
        (["zz", "n0"], "zz"),
        (["n0", "zz"], "zz"),
        ([], ()),
    ])
    def test_unknown_node_or_empty_path(self, path, subject):
        with pytest.raises(BrokenPathError) as info:
            path_digest(path, mf_chain("A", "B"))
        assert info.value.subject == subject


class TestLongestPaths:
    def test_branching25_first_round_has_two(self, branching25):
        candidates = longest_unnumbered_paths(branching25, {})
        assert len(candidates) == 2
        assert {len(c.node_sequence) for c in candidates} == {12}
        middles = {c.node_sequence[3] for c in candidates}
        assert middles == {"B1", "D1"}

    def test_resnet4_single_longest(self, resnet4):
        candidates = longest_unnumbered_paths(resnet4, {})
        assert len(candidates) == 1
        assert candidates[0].node_sequence == (
            "S", "A", "B", "C", "D", "F", "G", "H", "I", "J", "K", "L", "E"
        )

    def test_all_numbered_gives_empty(self):
        g = mf_chain("A", "B", "C")
        assert longest_unnumbered_paths(g, {"n0": 1, "n1": 2, "n2": 3}) == []

    def test_single_node(self):
        g = build_graph([("only", MFSpec("X", (4,), (4,)))], [])
        candidates = longest_unnumbered_paths(g, {})
        assert [c.node_sequence for c in candidates] == [("only",)]

    def test_cap_raises(self):
        g = gen.braid_graph(layers=6, width=2)  # 64 tied paths
        with pytest.raises(PathExplosionError):
            longest_unnumbered_paths(g, {}, max_paths=63)
        assert len(longest_unnumbered_paths(g, {}, max_paths=64)) == 64
        single = build_graph([("only", MFSpec("X", (4,), (4,)))], [])
        with pytest.raises(PathExplosionError):  # one path is more than 0
            longest_unnumbered_paths(single, {}, max_paths=0)


def assert_position_table(order, expected):
    assert order.by_position == tuple(sorted(expected, key=expected.__getitem__))
    for pos in range(1, order.n + 1):
        assert order.name_at(pos) == order.by_position[pos - 1]


class TestAssignPositions:
    def test_resnet4(self, resnet4):
        order = assign_positions(resnet4)
        assert dict(order.positions) == RESNET4_POSITIONS
        assert order.n == 13
        assert order.by_position[0] == "S" and order.by_position[-1] == "E"
        assert_position_table(order, RESNET4_POSITIONS)

    def test_branching25(self, branching25):
        order = assign_positions(branching25)
        assert dict(order.positions) == BRANCHING25_POSITIONS
        assert_position_table(order, BRANCHING25_POSITIONS)

    def test_chain(self):
        order = assign_positions(mf_chain("A", "B", "C", "D"))
        assert [order.position_of(f"n{i}") for i in range(4)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("position", [0, -1, -4, 5, 6])
    def test_name_at_outside_one_to_n(self, position):
        order = assign_positions(mf_chain("A", "B", "C", "D"))
        with pytest.raises(IndexError):
            order.name_at(position)

    def test_single_node(self):
        g = build_graph([("only", MFSpec("X", (4,), (4,)))], [])
        order = assign_positions(g)
        assert dict(order.positions) == {"only": 1}

    def test_by_position_is_the_position_order(self, resnet4, branching25):
        # a graph numbered along one path through every node lists its
        # topological order, which is that order; any other is sorted
        rng = random.Random(23)
        graphs = [gen.random_graph(rng, min_nodes=3, max_nodes=25) for _ in range(200)]
        graphs += [mf_chain("A"), mf_chain("A", "B"), resnet4, branching25]
        whole = 0
        for g in graphs:
            order = assign_positions(g)
            assert order.by_position == tuple(sorted(order.positions, key=order.positions.get))
            assert [order.name_at(k) for k in range(1, len(g) + 1)] == list(order.by_position)
            whole += order.by_position == g.topological_order()
        assert whole > 100  # spines with forward skips: the longest path holds every node
        chain = mf_chain("A", "B", "C")
        assert assign_positions(chain).by_position is chain.topological_order()  # not sorted

    def test_bijectivity_random(self):
        rng = random.Random(9)
        for _ in range(40):
            g = gen.random_graph(rng, min_nodes=4, max_nodes=25)
            order = assign_positions(g)
            assert sorted(order.positions.values()) == list(range(1, len(g) + 1))
            source, sink = detect_terminals(g)
            assert order.position_of(source) == 1
            assert order.position_of(sink) == len(g)

    def test_input_order_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            g = gen.random_graph(rng, min_nodes=4, max_nodes=25)
            base = assign_positions(g)
            nodes = [(n, g.spec(n)) for n in g.names()]
            edges = list(g.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            again = assign_positions(build_graph(nodes, edges))
            assert dict(again.positions) == dict(base.positions)

    @pytest.mark.parametrize("graphs", [gen.two_spec_dags, gen.cells])
    def test_input_order_invariance_where_digests_tie(self, graphs):
        # digests tie often here, and colour ranks break what positions
        # leave tied; an automorphism may move names, so the text is compared
        rng = random.Random(19)
        for i, g in enumerate(graphs()):
            text = render_description(g).text
            nodes, edges = [(n, g.spec(n)) for n in g.names()], list(g.edges)
            for _ in range(6):
                rng.shuffle(nodes)
                rng.shuffle(edges)
                assert render_description(build_graph(nodes, edges)).text == text, f"graph #{i}"

    def test_largest_digest_wins_each_round(self, branching25):
        candidates = longest_unnumbered_paths(branching25, {})
        best = max(candidates, key=lambda c: c.digest)
        order = assign_positions(branching25)
        # the digest winner's interior nodes take the first free positions
        interior = best.node_sequence[3:-3]
        assert [order.position_of(n) for n in interior] == list(range(4, 10))

    def test_oracle_equivalence_small_dags(self):
        # numbered subsets the ordering never reaches too: empty, full, random
        rng, pick = random.Random(23), random.Random(29)
        for _ in range(60):
            g = gen.small_dag(rng)
            names = list(g.names())
            subsets = [[], names] + [
                pick.sample(names, pick.randint(1, len(names) - 1)) for _ in range(3)
            ]
            for numbered in subsets:
                max_len, oracle_set = gen.oracle_longest_paths(g, numbered)
                positions = {name: i for i, name in enumerate(numbered, 1)}
                cap = len(oracle_set)
                candidates = longest_unnumbered_paths(g, positions, max_paths=cap)
                assert {c.node_sequence for c in candidates} == oracle_set
                assert len(candidates) == cap
                assert all(len(c.node_sequence) == max_len for c in candidates)
                if cap:
                    with pytest.raises(PathExplosionError):
                        longest_unnumbered_paths(g, positions, max_paths=cap - 1)

    def test_symmetric_branches_identical_text(self):
        rng = random.Random(31)
        for _ in range(30):
            g1, g2 = gen.symmetric_pair(rng)
            assert assign_positions(g1).n == assign_positions(g2).n
            # byte-level equivalence is asserted via rendering elsewhere;
            # here: same multiset of positions per spec content
            p1 = assign_positions(g1)
            p2 = assign_positions(g2)
            for pos in range(1, p1.n + 1):
                s1 = g1.spec(p1.name_at(pos))
                s2 = g2.spec(p2.name_at(pos))
                assert basic_string(s1) == basic_string(s2)


# Sizes the oracle tests do not reach. In the ResNeXt shapes a round's longest
# paths all share one digest, so the tie key decides the round; in the braids
# the digest alone picks one of up to 256 candidates a round.
TIED_SHAPE_TEXT_SHA224 = {
    (gen.resnext_graph, 2, 8): "31145646ad2e9c7b0bb27f8ae524769d98b5ac582760a80962e6535d",
    (gen.resnext_graph, 3, 4): "9ca73bb8db5b086805d9d413f22ca36de79c8a28b93f8295fabc2015",
    (gen.resnext_graph, 1, 32): "636eca754c1966c6acecc53b6de6e250ea20a8c0b3950a84e99b6876",
    (gen.braid_graph, 8, 2): "0756cd39abf8fb8622f8d02361d35a24f4a5bd89f008446492449f10",
    (gen.braid_graph, 4, 3): "771f8eaecbe8f11d87e99c161db28557ca1ca06d6aebc4d1fbb10972",
}


def test_tied_shapes_keep_their_bytes():
    for (make, *args), expected in TIED_SHAPE_TEXT_SHA224.items():
        text = render_description(make(*args)).text
        assert hashlib.sha224(text.encode("utf-8")).hexdigest() == expected, (make, args)


def test_unreachable_node_error_stays_public():
    # the ordering never raises it, but callers may still name it
    from arctext import UnreachableNodeError
    assert "UnreachableNodeError" in arctext.__all__
    assert UnreachableNodeError.code == "UnreachableNode"


def test_ordering_stops_once_every_node_has_a_number(monkeypatch, resnet4, branching25):
    # every round numbers at least one node, so no round comes back empty; a
    # path-shaped graph (a chain, resnet4's spine with its skips) is numbered
    # in one step, with no round
    rounds = []
    run_round = canonical._round

    def recorded(*args, **kwargs):
        rounds.append(run_round(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(canonical, "_round", recorded)
    for g, expected in ((gen.chain_graph(1), 0), (gen.chain_graph(2), 0),
                        (gen.chain_graph(5), 0), (resnet4, 0), (branching25, None)):
        rounds.clear()
        assign_positions(g)
        assert all(rounds)
        assert len(rounds) == expected if expected is not None else rounds


def test_candidates_equal_their_path_digest(monkeypatch, resnet4, branching25):
    # each round's sequences are enumerated along edges and not re-checked;
    # each candidate the ordering makes of one must be what path_digest makes
    # of it. The C03 graphs and resnet4 are path-shaped and run no round;
    # their one candidate, from the public function, is their topological order.
    rounds = []
    run_round = canonical._round

    def recorded(state, positions, max_paths):
        rounds.append(run_round(state, positions, max_paths))
        return rounds[-1]

    rng = random.Random(1003)  # the C03 corpus
    searched = [branching25, load_graph_file(FIXTURES / "branching25.json"),
                gen.resnext_graph(2, 4), gen.resnext_graph(1, 8),
                gen.braid_graph(layers=6, width=2)]
    paths = [resnet4, load_graph_file(FIXTURES / "resnet4.json"), gen.chain_graph(1)]
    paths += [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)
              for _ in range(1000)]
    monkeypatch.setattr(canonical, "_round", recorded)
    for i, g in enumerate(searched + paths):
        rounds.clear()
        assign_positions(g)
        assert all(rounds)
        assert bool(rounds) == (i < len(searched))
        for sequences in rounds:
            for seq in sequences:
                assert canonical._candidate(seq, g) == path_digest(seq, g)
    for g in paths:
        order = g.topological_order()
        assert longest_unnumbered_paths(g, {}) == [path_digest(order, g)]


def _searched(monkeypatch):
    """Count the rounds that enumerate paths rather than take the topological order."""
    searches = []
    run_round = canonical._round

    def counted(*args):
        searches.append(1)
        return run_round(*args)

    monkeypatch.setattr(canonical, "_round", counted)
    return searches


CHAIN_SIZES = (1, 2, 3, 4, 5, 17, 100, 1000, 4000)


def test_a_path_through_every_node_is_taken_without_a_search(monkeypatch):
    # the C03 corpus graphs are spines with skip edges: the spine holds every
    # node, so the one round takes the topological order whole
    searches = _searched(monkeypatch)
    rng = random.Random(1003)  # the C03 corpus
    graphs = [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)
              for _ in range(1000)]
    graphs += [gen.chain_graph(n) for n in CHAIN_SIZES]
    for g in graphs:
        assert admitted_numberings(g) == {frozenset(assign_positions(g).positions.items())}
    assert not searches


def test_a_node_off_the_longest_path_still_goes_through_the_search(monkeypatch):
    searches = _searched(monkeypatch)
    for n in (3, 5, 40):
        chain = gen.chain_graph(n)
        names = chain.names()
        g = build_graph([(v, chain.spec(v)) for v in names] + [("off", MFSpec("X", (4,), (4,)))],
                        list(chain.edges) + [(names[0], "off"), ("off", names[-1])])
        searches.clear()
        assert admitted_numberings(g) == {frozenset(assign_positions(g).positions.items())}
        assert len(searches) == 2  # the chain, then the node off it


def test_no_paths_allowed_fails_every_graph_that_needs_a_round():
    rng = random.Random(1003)  # the C03 corpus
    graphs = [gen.chain_graph(n) for n in CHAIN_SIZES]
    graphs += [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3) for _ in range(50)]
    graphs += [gen.resnext_graph(1, 4), gen.braid_graph(layers=3, width=2),
               load_graph_file(FIXTURES / "resnet4.json")]
    for g in graphs:
        if len(g) < 3:  # source and sink are numbered without a round
            assert assign_positions(g, max_paths=0).n == len(g)
            continue
        with pytest.raises(PathExplosionError):
            assign_positions(g, max_paths=0)


def _numbered_by_public_rounds(g):
    """The positions and names in position order that the public round functions give.

    Each round takes the largest digest among ``longest_unnumbered_paths``;
    on a path-shaped graph it has one candidate, which must be unique.
    """
    source, sink = detect_terminals(g)
    positions = {source: 1, sink: len(g)}
    while len(positions) < len(g):
        candidates = longest_unnumbered_paths(g, positions)
        assert len(candidates) == 1
        (best,) = candidates
        assert best == path_digest(best.node_sequence, g)
        for name in best.node_sequence:
            positions.setdefault(name, len(positions))  # the sink holds n: next is len
    return positions, tuple(sorted(positions, key=positions.__getitem__))


def _shuffled(g, rng):
    nodes = [(name, g.spec(name)) for name in g.names()]
    edges = list(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return build_graph(nodes, edges)


def test_a_path_shaped_graph_is_numbered_as_its_rounds_would_number_it(monkeypatch):
    # the one-step numbering of a graph whose topological order is a path
    # equals the numbering its public rounds build, under any input order
    searches = _searched(monkeypatch)
    rng = random.Random(1003)  # the C03 corpus
    c03 = [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3) for _ in range(1000)]
    shuffle_rng = random.Random(2027)
    graphs = [gen.chain_graph(n) for n in range(1, 6)] + c03
    graphs += [_shuffled(g, shuffle_rng) for g in c03 for _ in range(4)]
    for g in graphs:
        searches.clear()
        order = assign_positions(g)
        assert not searches  # the one-step numbering runs no round
        positions, by_position = _numbered_by_public_rounds(g)
        assert dict(order.positions) == positions
        assert order.by_position == by_position
        assert order.n == len(g)


def test_the_one_step_numbering_keeps_the_round_limits():
    for n in (1, 2):  # source and sink are numbered without a round
        assert assign_positions(gen.chain_graph(n), max_paths=0).n == n
    with pytest.raises(PathExplosionError) as err:
        assign_positions(gen.chain_graph(3), max_paths=0)
    assert err.value.subject == 0
    with pytest.raises(NoNodesError):
        assign_positions(build_graph([], []))


class _CountedNodes(dict):
    """A node mapping that counts the walks over its names."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _walks_in_ordering(g) -> int:
    g.nodes = _CountedNodes(g.nodes)
    assign_positions(g)
    return g.nodes.walks


def test_the_insertion_order_is_read_only_when_the_top_digest_is_shared():
    # Inception's rounds have two candidates but one top digest each: no tie
    # key runs; a fan's rounds share it, and the index is built once
    assert _walks_in_ordering(gen.inception_graph(blocks=2)) == 0
    assert _walks_in_ordering(gen.fan_graph(5)) == 1
