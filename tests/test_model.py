import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from arctext import (
    ArchGraph,
    ConvSpec,
    CycleDetectedError,
    DuplicateEdgeError,
    DuplicateNodeNameError,
    FullSpec,
    InvalidEdgeError,
    InvalidNodeNameError,
    InvalidSpecError,
    MFSpec,
    PoolSpec,
    SelfLoopError,
    UnknownEdgeEndpointError,
    build_graph,
    render_description,
    validate_graph,
)

import gen


def chain(*specs) -> ArchGraph:
    nodes = [(f"n{i}", s) for i, s in enumerate(specs)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(len(specs) - 1)]
    return build_graph(nodes, edges)


def mf(op="ReLU", shape=(8, 8, 4)):
    return MFSpec(op, shape, shape)


class TestSpecValidation:
    def test_conv_defaults(self):
        spec = ConvSpec((8, 8, 3), (8, 8, 16), (3, 3), (1, 1))
        assert spec.padding == ((0, 0), (0, 0), (0, 0), (0, 0))
        assert spec.dilation == 1 and spec.groups == 1 and spec.bias_used is False

    @pytest.mark.parametrize("bad", [(0, 8, 3), (8, 8), (8, 8, 3, 3), "888"])
    def test_conv_bad_shape(self, bad):
        with pytest.raises(InvalidSpecError):
            ConvSpec(bad, (8, 8, 3), (3, 3), (1, 1))

    def test_conv_bad_padding(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec((8, 8, 3), (8, 8, 3), (3, 3), (1, 1), padding=((0, 0),) * 3)
        with pytest.raises(InvalidSpecError):
            ConvSpec((8, 8, 3), (8, 8, 3), (3, 3), (1, 1),
                     padding=((0, -1), (0, 0), (0, 0), (0, 0)))

    def test_mf_values_must_not_be_a_string(self):
        with pytest.raises(InvalidSpecError, match="not a string"):
            MFSpec("a", 1, 1, "ab")

    @pytest.mark.parametrize("values, got", [
        (5, "int"), (None, "NoneType"), ({"b": 1}, "dict"), (10**5000, "int"),
    ], ids=["5", "None", "mapping", "5001-digits"])
    def test_mf_values_must_be_a_sequence(self, values, got):
        # a non-iterable is not a bare TypeError, and a mapping is not its keys
        with pytest.raises(InvalidSpecError) as err:
            MFSpec("A", 4, 4, values)
        assert str(err.value) == f"values must be a sequence of strings, got {got}"

    def test_conv_rejects_bool_and_zero(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec((8, 8, 3), (8, 8, 3), (3, 3), (1, 1), dilation=0)
        with pytest.raises(InvalidSpecError):
            ConvSpec((8, 8, 3), (8, 8, 3), (3, 3), (1, 1), bias_used=1)

    def test_pool_channel_equality(self):
        with pytest.raises(InvalidSpecError):
            PoolSpec("Max", (8, 8, 3), (4, 4, 4), (2, 2), (2, 2))

    def test_pool_type_enum(self):
        with pytest.raises(InvalidSpecError):
            PoolSpec("Med", (8, 8, 3), (4, 4, 3), (2, 2), (2, 2))
        with pytest.raises(InvalidSpecError):
            PoolSpec("max", (8, 8, 3), (4, 4, 3), (2, 2), (2, 2))

    def test_a_pool_type_is_compared_only_as_a_string(self):
        # an array's == gives an array, whose truth value numpy refuses
        np = pytest.importorskip("numpy")
        with pytest.raises(InvalidSpecError, match=r"^pool_type must be one of .*, got array"):
            PoolSpec(np.array([1, 2]), (1, 1, 1), (1, 1, 1), (1, 1), (1, 1))

    def test_full_token_charset(self):
        with pytest.raises(InvalidSpecError):
            FullSpec(10, 10, act_fun="Re;LU")
        with pytest.raises(InvalidSpecError):
            FullSpec(10, 10, act_fun="")
        assert FullSpec(10, 10).act_fun is None

    def test_mf_values_sorted_on_construction(self):
        spec = MFSpec("Dropout", (8,), (8,), values=("0.9", "0.1"))
        assert spec.values == ("0.1", "0.9")

    def test_mf_null_value_reserved(self):
        with pytest.raises(InvalidSpecError):
            MFSpec("Dropout", (8,), (8,), values=("Null",))

    def test_mf_bare_int_shape_coerced(self):
        spec = MFSpec("Dropout", 512, 512)
        assert spec.in_size == (512,) and spec.out_size == (512,)

    def test_mf_two_element_shape_rejected(self):
        with pytest.raises(InvalidSpecError):
            MFSpec("ReLU", (8, 8), (8, 8))

    def test_mf_value_charset(self):
        with pytest.raises(InvalidSpecError):
            MFSpec("Scale", (8,), (8,), values=("0-5",))

    def test_mf_values_sorted_by_utf8_bytes(self):
        spec = MFSpec("Scale", (8,), (8,), values=("\U0001f600", "\uffff", "\u00e9", "z"))
        assert spec.values == tuple(sorted(spec.values, key=lambda v: v.encode("utf-8")))
        assert spec.values == ("z", "\u00e9", "\uffff", "\U0001f600")

    @pytest.mark.parametrize("build", [
        lambda: MFSpec("\ud800", (8,), (8,)),
        lambda: MFSpec("BN", (8,), (8,), values=("a", "b\udfff")),
        lambda: FullSpec(10, 10, act_fun="Re\udc80LU"),
    ])
    def test_lone_surrogate_tokens_rejected(self, build):
        with pytest.raises(InvalidSpecError) as err:
            build()
        assert "lone surrogate" in str(err.value)


@pytest.mark.parametrize("spec", [
    ConvSpec((8, 8, 3), (8, 8, 16), (3, 3), (1, 1)),
    PoolSpec("Max", (8, 8, 3), (4, 4, 3), (2, 2), (2, 2)),
    FullSpec(4, 5, "ReLU"),
    MFSpec("BN", 4, 4, ("b", "a")),
], ids=["conv", "pool", "full", "mf"])
def test_a_spec_pickled_under_its_old_module_still_loads(spec):
    # the spec classes moved from arctext.model to arctext.unitformat
    data = pickle.dumps(spec, protocol=0)  # names the class's module in plain text
    assert b"arctext.unitformat" in data
    assert pickle.loads(data.replace(b"arctext.unitformat", b"arctext.model")) == spec


class TestBuildGraph:
    def test_duplicate_name(self):
        with pytest.raises(DuplicateNodeNameError):
            build_graph([("a", mf()), ("a", mf())], [])

    def test_empty_name(self):
        with pytest.raises(InvalidNodeNameError):
            build_graph([("", mf())], [])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEdgeEndpointError):
            build_graph([("a", mf())], [("a", "ghost")])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph([("a", mf())], [("a", "a")])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph([("a", mf()), ("b", mf())], [("a", "b"), ("a", "b")])

    @pytest.mark.parametrize("edge, error, message", [
        (("a", ["b"]), UnknownEdgeEndpointError,
         "edge ('a' -> ['b']) references unknown node ['b']"),
        ((["a"], "b"), UnknownEdgeEndpointError,
         "edge (['a'] -> 'b') references unknown node ['a']"),
        (["a"], InvalidEdgeError, "an edge must be a (from, to) pair of node names, got ['a']"),
        (("a", "a", "a"), InvalidEdgeError,
         "an edge must be a (from, to) pair of node names, got ('a', 'a', 'a')"),
        (7, InvalidEdgeError, "an edge must be a (from, to) pair of node names, got 7"),
    ], ids=["unhashable-head", "unhashable-tail", "one-name", "three-names", "not-a-sequence"])
    def test_a_malformed_edge_is_a_typed_graph_error(self, edge, error, message):
        with pytest.raises(error) as info:
            build_graph([("a", mf()), ("b", mf())], [("a", "b"), edge])
        assert str(info.value) == message
        assert info.value.subject == (edge if error is InvalidEdgeError else tuple(edge))

    @pytest.mark.parametrize("fault, error", [
        (("a", "ghost"), UnknownEdgeEndpointError),
        (("b", "b"), SelfLoopError),
        ("a", InvalidEdgeError),
    ])
    def test_each_edge_fault_is_reported_in_edge_order(self, fault, error):
        nodes = [("a", mf()), ("b", mf()), ("c", mf())]
        # a repeat before the fault is the first fault; one after it is not
        with pytest.raises(DuplicateEdgeError) as info:
            build_graph(nodes, [("a", "b"), ("b", "c"), ("a", "b"), fault])
        assert info.value.subject == ("a", "b")
        with pytest.raises(error):
            build_graph(nodes, [("a", "b"), ("b", "c"), fault, ("a", "b")])

    def test_the_graph_keeps_the_edge_set_it_was_checked_with(self):
        g = chain(mf(), mf("BN"), mf())
        assert g.edge_set() is g.edge_set()
        assert isinstance(g.edge_set(), frozenset) and g.edge_set() == frozenset(g.edges)

    def test_cycle_reported_with_sequence(self):
        with pytest.raises(CycleDetectedError) as info:
            build_graph(
                [("a", mf()), ("b", mf()), ("c", mf())],
                [("a", "b"), ("b", "c"), ("c", "b")],
            )
        cycle = info.value.subject
        assert cycle[0] == cycle[-1] and set(cycle) == {"b", "c"}

    def test_cycle_with_a_node_downstream_of_it(self):
        # "a" sorts first among the nodes left over, but leads into no cycle
        with pytest.raises(CycleDetectedError) as info:
            build_graph(
                [("s", mf()), ("b", mf()), ("c", mf()), ("a", mf())],
                [("s", "b"), ("b", "c"), ("c", "b"), ("c", "a")],
            )
        cycle = info.value.subject
        assert cycle[0] == cycle[-1] and set(cycle) == {"b", "c"}

    def test_cycle_with_a_two_deep_tail(self):
        # c and d only lie downstream of the cycle a <-> b
        with pytest.raises(CycleDetectedError) as info:
            build_graph(
                [("s", mf()), ("a", mf()), ("b", mf()), ("c", mf()), ("d", mf())],
                [("s", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
            )
        assert info.value.subject == ("a", "b", "a")
        assert str(info.value) == "graph contains a cycle: a -> b -> a"

    def test_unsupported_spec_type(self):
        with pytest.raises(InvalidSpecError) as info:
            build_graph([("a", object())], [])
        assert info.value.subject == "a"

    def test_equality_with_a_non_graph_and_the_edge_set(self):
        g = chain(mf(), mf("BN"), mf())
        assert (g == 1) is False
        assert g.edge_set() == frozenset(g.edges)

    def test_two_node_cycle(self):
        with pytest.raises(CycleDetectedError):
            build_graph([("a", mf()), ("b", mf())], [("a", "b"), ("b", "a")])

    def test_accessors(self):
        g = chain(mf(), mf("BN"), mf())
        assert len(g) == 3 and "n1" in g
        assert g.successors("n0") == ("n1",)
        assert g.predecessors("n2") == ("n1",)
        assert g.topological_order() == ("n0", "n1", "n2")
        assert g.node_index("n2") == 2

    def test_equality_ignores_input_order(self):
        rng = random.Random(42)
        for _ in range(25):
            g = gen.random_graph(rng, min_nodes=4, max_nodes=12)
            nodes = [(n, g.spec(n)) for n in g.names()]
            edges = list(g.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            assert build_graph(nodes, edges) == g

    def test_node_index_is_the_insertion_position(self):
        rng = random.Random(26)
        g = gen.random_graph(rng, min_nodes=4, max_nodes=12)
        nodes = [(n, g.spec(n)) for n in g.names()]
        rng.shuffle(nodes)
        shuffled = build_graph(nodes, g.edges)
        assert [shuffled.node_index(name) for name, _ in nodes] == list(range(len(nodes)))
        with pytest.raises(KeyError):
            shuffled.node_index("no such node")

    def test_inequality(self):
        a = chain(mf(), mf())
        b = chain(mf(), mf("BN"))
        assert a != b
        c = build_graph([("n0", mf()), ("n1", mf())], [])
        assert a != c


class TestValidateGraph:
    def test_clean_chain(self):
        diag = validate_graph(chain(mf(), mf(), mf()))
        assert not diag.findings

    def test_fixture_graphs_clean(self, resnet4, branching25):
        assert not validate_graph(resnet4).findings
        # the 25-node net forks straight after its third node, which is fine
        assert not validate_graph(branching25).has_errors

    def test_no_nodes(self):
        diag = validate_graph(build_graph([], []))
        assert [f.code for f in diag.errors()] == ["NoNodes"]

    def test_two_sources(self):
        g = build_graph(
            [("a", mf()), ("b", mf()), ("c", mf())],
            [("a", "c"), ("b", "c")],
        )
        assert "AmbiguousSource" in {f.code for f in validate_graph(g).errors()}

    def test_two_sinks(self):
        g = build_graph(
            [("a", mf()), ("b", mf()), ("c", mf())],
            [("a", "b"), ("a", "c")],
        )
        assert "AmbiguousSink" in {f.code for f in validate_graph(g).errors()}

    def test_isolated_node_is_ambiguous_and_flagged(self):
        g = build_graph([("a", mf()), ("b", mf()), ("x", mf())], [("a", "b")])
        diag = validate_graph(g)
        assert diag.has_errors
        assert "IsolatedNode" in {f.code for f in diag.warnings()}

    def test_degree_warnings(self):
        # source fans out to two heads that merge again: warning, not error
        g = build_graph(
            [("s", mf()), ("a", mf()), ("b", mf()), ("t", mf())],
            [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        )
        diag = validate_graph(g)
        assert not diag.has_errors
        codes = {f.code for f in diag.warnings()}
        assert codes == {"SourceOutdegreeNotOne", "SinkIndegreeNotOne"}

    def test_errors_come_before_warnings(self):
        # two sources and two sinks, one of each the isolated node x
        g = build_graph([("a", mf()), ("b", mf()), ("x", mf())], [("a", "b")])
        findings = validate_graph(g).findings
        assert [f.code for f in findings] == ["AmbiguousSource", "AmbiguousSink", "IsolatedNode"]
        assert [f.severity for f in findings] == ["error", "error", "warning"]


@st.composite
def digraphs(draw):
    """Random digraphs of 2-9 nodes: shuffled node and edge order, no self-loops."""
    names = draw(st.permutations([f"v{i}" for i in range(draw(st.integers(2, 9)))]))
    pairs = [(a, b) for a in sorted(names) for b in sorted(names) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return names, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_a_cycle_report_is_a_closed_cycle_of_the_graph(graph):
    names, edges = graph
    try:
        build_graph([(name, mf()) for name in names], edges)
    except CycleDetectedError as exc:
        cycle = exc.subject
        assert isinstance(cycle, tuple) and cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == len(cycle) - 1 >= 2
        assert set(zip(cycle, cycle[1:])) <= set(edges)
        assert cycle[0] == min(cycle)
        assert str(exc) == "graph contains a cycle: " + " -> ".join(cycle)


_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


@pytest.mark.skipif(not _MAX_DIGITS, reason="str() writes any number of digits")
@pytest.mark.parametrize("build", [
    lambda big: FullSpec(big, 1),
    lambda big: FullSpec(1, big, "ReLU"),
    lambda big: ConvSpec((1, 1, big), (1, 1, 1), (1, 1), (1, 1)),
    lambda big: ConvSpec((1, 1, 1), (1, 1, 1), (big, 3), (1, 1)),
    lambda big: ConvSpec((1, 1, 1), (1, 1, 1), (1, 1), (1, 1), ((0, 0), (0, big), (0, 0), (0, 0))),
    lambda big: ConvSpec((1, 1, 1), (1, 1, 1), (1, 1), (1, 1), dilation=big),
    lambda big: ConvSpec((1, 1, 1), (1, 1, 1), (1, 1), (1, 1), groups=big),
    lambda big: PoolSpec("Max", (1, 1, 1), (1, 1, 1), (big, 1), (1, 1)),
    lambda big: PoolSpec("Avg", (1, 1, 1), (1, 1, 1), (1, 1), (1, 1), (0, 0, 0, big)),
    lambda big: MFSpec("BN", big, 1),
    lambda big: MFSpec("BN", (1, 1, 1), (1, big, 1)),
], ids=["full-in", "full-out", "conv-size", "conv-kernel", "conv-pad", "conv-dilation",
        "conv-groups", "pool-kernel", "pool-pad", "mf-extent", "mf-shape"])
def test_an_integer_too_long_to_write_is_an_invalid_spec(build):
    # the text would need more digits than str() writes: refuse it when built,
    # below the minimum as above it
    for big in (10 ** _MAX_DIGITS, -10 ** _MAX_DIGITS, 10 ** (_MAX_DIGITS + 700)):
        with pytest.raises(InvalidSpecError, match=f"has more than {_MAX_DIGITS} digits$"):
            build(big)
    with pytest.raises(InvalidSpecError, match=f"must be >= [01], got -{'9' * _MAX_DIGITS}$"):
        build(1 - 10 ** _MAX_DIGITS)  # the longest negative that is written
    spec = build(10 ** _MAX_DIGITS - 1)  # the longest that is written
    text = render_description(build_graph([("a", spec)], [])).text
    assert "9" * _MAX_DIGITS in text


@pytest.mark.skipif(not _MAX_DIGITS, reason="str() writes any number of digits")
@pytest.mark.parametrize("build, error, message", [
    (lambda big: MFSpec(big, 4, 4), InvalidSpecError,
     "op_name must be a non-empty string, got int {}"),
    (lambda big: FullSpec(1, 1, act_fun=big), InvalidSpecError,
     "act_fun must be a non-empty string, got int {}"),
    (lambda big: MFSpec("A", 4, 4, (big,)), InvalidSpecError,
     "parameter value must be a non-empty string, got int {}"),
    (lambda big: PoolSpec(big, (1, 1, 1), (1, 1, 1), (1, 1), (1, 1)), InvalidSpecError,
     "pool_type must be one of ('Max', 'Avg'), got int {}"),
    (lambda big: FullSpec([big], 1), InvalidSpecError, "in_size must be an integer, got list {}"),
    (lambda big: build_graph([(big, mf())], []), InvalidNodeNameError,
     "node names must be non-empty strings, got int {}"),
    (lambda big: build_graph([("a", mf())], [("a", big)]), UnknownEdgeEndpointError,
     "edge ('a' -> int {0}) references unknown node int {0}"),
], ids=["mf-name", "full-act", "mf-value", "pool-type", "full-in-list", "node-name",
        "edge-endpoint"])
def test_a_value_too_long_to_show_is_named_by_its_type(build, error, message):
    # such a value is not written into the message, which names its type instead
    for big in (10 ** _MAX_DIGITS, -10 ** (_MAX_DIGITS + 700)):
        with pytest.raises(error) as err:
            build(big)
        assert str(err.value) == message.format(f"of more than {_MAX_DIGITS} digits")
