import collections
import copy
import dataclasses
import json
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from arctext import (
    ArcTextError,
    ConvSpec,
    Description,
    CycleDetectedError,
    DanglingConnectError,
    DuplicateIdError,
    EmptyInputError,
    FullSpec,
    GraphFileSyntaxError,
    InvalidSpecError,
    MalformedLineError,
    MFSpec,
    MultipleSinksError,
    NonCanonicalSinkError,
    NonContiguousIdsError,
    PoolSpec,
    SchemaError,
    SelfLoopError,
    UnclassifiableLineError,
    UnitLine,
    Vocabulary,
    build_graph,
    classify_line,
    description_from_text,
    graph_to_json,
    kind_of,
    load_graph_file,
    parse_description,
    parse_graph_json,
    parse_line,
    read_description,
    render_description,
    render_unit,
    tokenize,
    vectors_csv,
)
from arctext import canonical, codec, graphio
from arctext.cli import main
from arctext.unitformat import (
    _AGREE,
    _CONNECT,
    _COUNT,
    UNIT_FIELDS,
    _kind_pattern,
    _Unread,
    basic_fields,
    basic_string,
)

import gen
from conftest import FIXTURES

_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit

MF_A = "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:2"
MF_SINK = "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:Null"


CONV_BAD_ARITY = (
    "id:1;in_size:8-8-3;out_size:8-8-3;kernel:1-1-1;stride:1-1;"
    "padding:0-0-0-0-0-0-0-0;dilation:1;groups:1;bias_used:No;connect_to:2"
)
CONV_BAD_SPELLING = (
    "id:1;in_size:01-8-3;out_size:8-8-3;kernel:1-1;stride:1-1;"
    "padding:0-0-0-0-0-0-0-0;dilation:1;groups:1;bias_used:No;connect_to:2"
)
# a misspelled value is worded by its shape's one template
MALFORMED_MESSAGES = {
    CONV_BAD_ARITY: "line 1: kernel must be 2 integers >= 1 joined by '-', got '1-1-1'",
    CONV_BAD_SPELLING: "line 1: in_size must be 3 integers >= 1 joined by '-', got '01-8-3'",
    "id:1;name:A;in_size:4-4;out_size:4-4;value:Null;connect_to:2":
        "line 1: in_size must be 1 or 3 integers >= 1 joined by '-', got '4-4'",
    "id:01;name:A;in_size:4;out_size:4;value:Null;connect_to:2":
        "line 1: id must be an integer >= 1, got '01'",
}


class TestRenderUnit:
    def test_conv_line(self):
        spec = ConvSpec((32, 32, 3), (32, 32, 3), (1, 1), (1, 1))
        assert render_unit(spec, 1, [2]).text == (
            "id:1;in_size:32-32-3;out_size:32-32-3;kernel:1-1;stride:1-1;"
            "padding:0-0-0-0-0-0-0-0;dilation:1;groups:1;bias_used:No;connect_to:2"
        )

    def test_pool_line_with_two_targets(self):
        spec = PoolSpec("Max", (112, 112, 64), (56, 56, 64), (3, 3), (2, 2), (1, 1, 1, 1))
        assert render_unit(spec, 4, [5, 10]).text == (
            "id:4;type:Max;in_size:112-112-64;out_size:56-56-64;kernel:3-3;"
            "stride:2-2;padding:1-1-1-1;dilation:1;bias_used:No;connect_to:5-10"
        )

    def test_full_line(self):
        assert render_unit(FullSpec(2560, 512, "ReLU"), 11, [25]).text == (
            "id:11;in_size:2560;out_size:512;act_fun:ReLU;connect_to:25"
        )

    def test_full_line_without_activation(self):
        assert render_unit(FullSpec(2560, 512), 11, [25]).text == (
            "id:11;in_size:2560;out_size:512;connect_to:25"
        )

    def test_empty_targets_are_the_sink(self):
        assert render_unit(FullSpec(1, 1), 1, []).text == "id:1;in_size:1;out_size:1;connect_to:Null"

    def test_mf_sink_line(self):
        spec = MFSpec("Dropout", (512,), (512,), ("0.5",))
        assert render_unit(spec, 25, None).text == (
            "id:25;name:Dropout;in_size:512;out_size:512;value:0.5;connect_to:Null"
        )

    def test_mf_multi_value_sorted(self):
        spec = MFSpec("Scale", (8,), (8,), ("b", "0.5", "a"))
        line = render_unit(spec, 1, None).text
        assert "value:0.5-a-b" in line

    def test_rejects_bad_id_and_targets(self):
        spec = FullSpec(4, 4)
        with pytest.raises(InvalidSpecError):
            render_unit(spec, 0, None)
        with pytest.raises(InvalidSpecError):
            render_unit(spec, True, None)
        with pytest.raises(InvalidSpecError):
            render_unit(spec, 1, [5, 3])
        with pytest.raises(InvalidSpecError):
            render_unit(spec, 1, [2, 2])
        with pytest.raises(InvalidSpecError):
            render_unit(spec, 1, [0])
        if _MAX_DIGITS:  # an integer too long for str() is refused, not written
            for big in (10 ** _MAX_DIGITS, -10 ** _MAX_DIGITS):
                with pytest.raises(InvalidSpecError,
                                   match=f"^id has more than {_MAX_DIGITS} digits$"):
                    render_unit(spec, big, None)
                with pytest.raises(InvalidSpecError,
                                   match=f"^connect_to entry has more than {_MAX_DIGITS} digits$"):
                    render_unit(spec, 1, [2, big])


class TestClassifyLine:
    def test_pool(self):
        assert classify_line("id:21;type:Max;in_size:1-1-1;connect_to:Null") == "pool"

    def test_full(self):
        assert classify_line("id:13;in_size:64;out_size:1000;act_fun:ReLU;connect_to:Null") == "full"

    def test_mf(self):
        assert classify_line(MF_A) == "mf"

    def test_conv(self):
        assert classify_line("id:1;kernel:3-3;connect_to:2") == "conv"

    def test_name_beats_kernel(self):
        # an mf whose value happens to be spelled like a kernel stays mf
        assert classify_line("id:1;name:X;kernel:3-3") == "mf"

    @pytest.mark.parametrize("junk", [
        "id:3;bogus:1",
        "garbage",
        "id:1;in_size:4;out_size:4;weird:1;connect_to:Null",
        "",
    ])
    def test_unclassifiable(self, junk):
        with pytest.raises(UnclassifiableLineError):
            classify_line(junk)


class TestParseLine:
    def test_round_trips_paper_style_conv(self):
        text = (
            "id:1;in_size:224-224-3;out_size:112-112-64;kernel:7-7;stride:2-2;"
            "padding:0-3-0-3-0-3-0-3;dilation:1;groups:1;bias_used:No;connect_to:2"
        )
        uid, spec, connect = parse_line(text)
        assert (uid, connect) == (1, (2,))
        assert spec.padding == ((0, 3), (0, 3), (0, 3), (0, 3))
        assert render_unit(spec, uid, connect).text == text

    @pytest.mark.parametrize("line", [
        "id:1;type:Med;in_size:4-4-2;out_size:4-4-2;kernel:2-2;stride:1-1;padding:0-0-0-0;dilation:1;bias_used:No;connect_to:Null",
        "id:01;name:A;in_size:4;out_size:4;value:Null;connect_to:2",
        "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:0",
        "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:3-2",
        "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:2-2",
        "id:1;name:A;in_size:4;out_size:4;value:b-a;connect_to:2",
        "id:1;name:A;out_size:4;in_size:4;value:Null;connect_to:2",
        "id:1;name:A;in_size:4;value:Null;connect_to:2",
        "id:1;name:A;in_size:4;out_size:4;value:Null;extra:1;connect_to:2",
        "id:1;name:A;in_size:4-4;out_size:4-4;value:Null;connect_to:2",
        "id:1;in_size:64;out_size:1000;act_fun:ReLU;connect_to:",
        "id:1;in_size:64;out_size:1000;bias_used:yes;kernel:1-1;stride:1-1;padding:0-0-0-0-0-0-0-0;dilation:1;groups:1;connect_to:2",
        "id:1;in_size:0;out_size:4;act_fun:ReLU;connect_to:2",
        CONV_BAD_ARITY,
        CONV_BAD_SPELLING,
    ])
    def test_malformed(self, line):
        with pytest.raises((MalformedLineError, UnclassifiableLineError)) as exc:
            parse_line(line)
        if line in MALFORMED_MESSAGES:
            assert str(exc.value) == MALFORMED_MESSAGES[line]

    def test_field_order_is_strict(self):
        swapped = (
            "id:1;out_size:112-112-64;in_size:224-224-3;kernel:7-7;stride:2-2;"
            "padding:0-3-0-3-0-3-0-3;dilation:1;groups:1;bias_used:No;connect_to:2"
        )
        with pytest.raises(MalformedLineError):
            parse_line(swapped)


class TestParseDescription:
    def test_fixture_round_trip(self, resnet4_text, branching25_text):
        for text in (resnet4_text, branching25_text):
            graph, order = parse_description(text)
            assert render_description(graph).text == text
            assert order.by_position == tuple(f"n{i}" for i in range(1, order.n + 1))

    def test_tolerates_one_trailing_newline(self, resnet4_text):
        graph, _ = parse_description(resnet4_text + "\n")
        assert render_description(graph).text == resnet4_text
        with pytest.raises(MalformedLineError):
            parse_description(resnet4_text + "\n\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_description("")
        with pytest.raises(EmptyInputError):
            parse_description("\n")

    def test_duplicate_id(self):
        text = MF_A + "\n" + MF_A
        with pytest.raises(DuplicateIdError):
            parse_description(text)

    def test_noncontiguous_ids(self):
        lines = [
            MF_A,
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:4",
            "id:4;name:C;in_size:4;out_size:4;value:Null;connect_to:Null",
        ]
        with pytest.raises(NonContiguousIdsError):
            parse_description("\n".join(lines))

    def test_out_of_order_ids(self):
        text = MF_SINK + "\n" + MF_A
        with pytest.raises(NonContiguousIdsError):
            parse_description(text)

    def test_dangling_connect(self):
        text = (
            "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:3\n"
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:Null"
        )
        with pytest.raises(DanglingConnectError):
            parse_description(text)

    def test_multiple_sinks(self):
        text = (
            "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:Null\n"
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:Null"
        )
        with pytest.raises(MultipleSinksError):
            parse_description(text)

    def test_sink_must_be_last_id(self):
        text = (
            "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:Null\n"
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:1"
        )
        with pytest.raises(NonCanonicalSinkError):
            parse_description(text)

    def test_no_sink_is_a_cycle(self):
        text = (
            "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:2\n"
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:1"
        )
        with pytest.raises(CycleDetectedError):
            parse_description(text)

    def test_self_reference(self):
        text = (
            "id:1;name:A;in_size:4;out_size:4;value:Null;connect_to:1-2\n"
            "id:2;name:B;in_size:4;out_size:4;value:Null;connect_to:Null"
        )
        with pytest.raises(SelfLoopError):
            parse_description(text)

    def test_blank_line(self):
        with pytest.raises(MalformedLineError):
            parse_description(MF_A + "\n\n" + MF_SINK)

    def test_synthesized_names(self):
        graph, order = parse_description(MF_A + "\n" + MF_SINK)
        assert set(graph.names()) == {"n1", "n2"}
        assert order.position_of("n1") == 1

    def test_cycle_with_a_node_downstream_of_it(self):
        # n10 sorts first among the nodes the cycle n2 <-> n3 leaves over
        targets = {3: "2-10", 10: "Null"}
        text = "\n".join(
            f"id:{i};name:A;in_size:4;out_size:4;value:Null;connect_to:{targets.get(i, i + 1)}"
            for i in range(1, 11)
        )
        with pytest.raises(CycleDetectedError) as err:
            parse_description(text)
        assert err.value.subject == ("n2", "n3", "n2")


_ID_LINES = [f"id:{i};name:{name};in_size:4;out_size:4;value:Null;connect_to:{connect}"
             for i, name, connect in ((1, "A", "2"), (2, "B", "3"), (3, "C", "Null"))]


# line k must carry id k; the wording is the one these faults have always had
@pytest.mark.parametrize("lines, error, message, subject", [
    ([0, 1, 1, 2], DuplicateIdError, "line 3: id 2 repeats", 2),
    ([0, 1, 0, 2], DuplicateIdError, "line 3: id 1 repeats", 1),
    ([0, 2], NonContiguousIdsError, "line 2: expected id 2, got 3", 3),
    ([1, 0, 2], NonContiguousIdsError, "line 1: expected id 1, got 2", 2),
    # every line is parsed before the ids are checked
    ([0, 2, "id:3;name:C;in_size:4;out_size:4;value:Null"], MalformedLineError,
     "line 3: expected fields ('id', 'name', 'in_size', 'out_size', 'value', 'connect_to'), "
     "got ('id', 'name', 'in_size', 'out_size', 'value')", 3),
])
def test_id_faults_keep_their_wording(tmp_path, capsys, lines, error, message, subject):
    text = "\n".join(_ID_LINES[k] if isinstance(k, int) else k for k in lines)
    for read in (parse_description, description_from_text):
        with pytest.raises(ArcTextError) as err:
            read(text)
        assert type(err.value) is error
        assert str(err.value) == message
        assert err.value.subject == subject
    path = tmp_path / "ids.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["digest", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"error[{error.code}]: {message}\n"


class TestRenderDescription:
    def test_two_node_chain(self):
        g = build_graph(
            [("x", ConvSpec((4, 4, 1), (4, 4, 1), (1, 1), (1, 1))),
             ("y", MFSpec("ReLU", (4, 4, 1), (4, 4, 1)))],
            [("x", "y")],
        )
        d = render_description(g)
        assert len(d.lines) == 2
        assert d.lines[0].text.startswith("id:1;") and d.text.endswith("connect_to:Null")
        assert "\n" == d.text[len(d.lines[0].text):len(d.lines[0].text) + 1]

    def test_no_trailing_newline(self, resnet4):
        assert not render_description(resnet4).text.endswith("\n")

    def test_connect_closure(self):
        rng = random.Random(3)
        for _ in range(20):
            d = render_description(gen.random_graph(rng, min_nodes=5, max_nodes=20))
            n = len(d.lines)
            nulls = [line for line in d.lines if line.connect_to is None]
            assert [line.id for line in nulls] == [n]
            for line in d.lines:
                for target in line.connect_to or ():
                    assert 1 <= target <= n and target != line.id

    def test_random_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            g = gen.random_graph(rng)
            text = render_description(g).text
            graph, _ = parse_description(text)
            assert render_description(graph).text == text

    def test_distinct_graphs_distinct_texts(self):
        rng = random.Random(8)
        texts = [render_description(gen.random_graph(rng)).text for _ in range(50)]
        assert len(set(texts)) == len(texts)

    def test_description_from_text_identity(self, branching25_text):
        assert description_from_text(branching25_text).text == branching25_text


# --- grammar totality over randomized specs -----------------------------------

_sizes = st.integers(1, 512)
_token = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1, max_size=8,
)

_conv_specs = st.builds(
    ConvSpec,
    in_size=st.tuples(_sizes, _sizes, st.integers(1, 64)),
    out_size=st.tuples(_sizes, _sizes, st.integers(1, 64)),
    kernel=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    stride=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    padding=st.tuples(*(
        st.tuples(st.integers(0, 5), st.integers(0, 5)) for _ in range(4)
    )),
    dilation=st.integers(1, 4),
    groups=st.integers(1, 8),
    bias_used=st.booleans(),
)


@st.composite
def _pool_specs(draw):
    channels = draw(st.integers(1, 64))
    return PoolSpec(
        pool_type=draw(st.sampled_from(("Max", "Avg"))),
        in_size=(draw(_sizes), draw(_sizes), channels),
        out_size=(draw(_sizes), draw(_sizes), channels),
        kernel=(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
        stride=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        padding=tuple(draw(st.integers(0, 5)) for _ in range(4)),
        dilation=draw(st.integers(1, 4)),
        bias_used=draw(st.booleans()),
    )


_full_specs = st.builds(
    FullSpec,
    in_size=st.integers(1, 100000),
    out_size=st.integers(1, 100000),
    act_fun=st.one_of(st.none(), _token),
)

_mf_specs = st.builds(
    MFSpec,
    op_name=_token,
    in_size=st.one_of(st.tuples(_sizes), st.tuples(_sizes, _sizes, _sizes)),
    out_size=st.one_of(st.tuples(_sizes), st.tuples(_sizes, _sizes, _sizes)),
    values=st.lists(
        _token.filter(lambda s: s != "Null"), max_size=3
    ).map(tuple),
)

_any_spec = st.one_of(_conv_specs, _pool_specs(), _full_specs, _mf_specs)

_connects = st.one_of(
    st.none(),
    st.lists(st.integers(1, 999), min_size=1, max_size=5, unique=True).map(
        lambda xs: tuple(sorted(xs))
    ),
)


@settings(max_examples=200, deadline=None)
@given(spec=_any_spec, uid=st.integers(1, 999), connect=_connects)
def test_every_rendered_line_parses_back(spec, uid, connect):
    line = render_unit(spec, uid, connect)
    assert classify_line(line.text) == kind_of(spec)
    parsed_uid, parsed_spec, parsed_connect = parse_line(line.text)
    assert parsed_uid == uid
    assert parsed_spec == spec
    assert parsed_connect == connect
    assert render_unit(parsed_spec, parsed_uid, parsed_connect).text == line.text


# --- one spelling: the speller a graph-file record goes through spells built specs

_WIDEST = 10 ** 4300 - 1  # 4,300 digits, the most str() writes by default
_counts = st.one_of(st.integers(1, 9), st.just(_WIDEST))
# any token the spec classes take: no separator, newline or lone surrogate
_any_token = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="-:;\n"),
                     min_size=1, max_size=6)

_class_built_specs = st.one_of(
    st.builds(ConvSpec, in_size=st.tuples(_counts, _sizes, _sizes),
              out_size=st.tuples(_sizes, _sizes, _sizes),
              kernel=st.tuples(_counts, st.integers(1, 9)), stride=st.tuples(_sizes, _sizes),
              padding=st.tuples(*[st.tuples(st.integers(0, 5), _counts)] * 4),
              dilation=_counts, groups=_counts, bias_used=st.booleans()),
    _pool_specs(),
    st.builds(FullSpec, in_size=_counts, out_size=_counts,
              act_fun=st.one_of(st.none(), _any_token)),
    st.builds(MFSpec, op_name=_any_token,
              in_size=st.one_of(_counts, st.tuples(_counts), st.tuples(_sizes, _sizes, _counts)),
              out_size=st.one_of(st.tuples(_counts), st.tuples(_sizes, _sizes, _sizes)),
              values=st.lists(_any_token.filter(lambda v: v != "Null"), max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(spec=_class_built_specs)
@example(spec=MFSpec("a", 1, 1))
@example(spec=MFSpec("a", 1, 1, ["x y"]))
@example(spec=MFSpec("a", 1, 1, ["b", "a", "Nulls", "it's"]))
@example(spec=FullSpec(64, _WIDEST))
@example(spec=FullSpec(64, 10, "ReLU"))
@example(spec=ConvSpec((8, 8, 3), (8, 8, 4), (3, 3), (1, 1), ((0, 1), (2, 3), (4, 5), (6, 7))))
def test_built_read_and_parsed_specs_have_one_spelling(spec):
    # a spec built by its class is spelled as a graph-file record of its
    # values is: the two, and the line reader, agree on its basic string
    # and read back its values
    text = basic_string(spec)
    from_file = parse_graph_json(graph_to_json(build_graph([("a", spec)], []))).spec("a")
    from_line = parse_line(render_unit(spec, 1, None).text)[1]
    assert basic_string(from_file) == text == basic_string(from_line)
    assert from_file == spec == from_line


def test_subclass_values_are_stored_as_the_ints_and_strings_they_spell():
    class Width(int):
        def __str__(self):
            return "wide"

    class Word(str):
        pass

    spec = MFSpec(Word("relu"), Width(3), (Width(4), 5, Width(6)), [Word("b"), "a"])
    assert basic_string(spec) == "name:relu;in_size:3;out_size:4-5-6;value:a-b"
    assert type(spec.op_name) is str
    assert {type(v) for v in (*spec.in_size, *spec.out_size)} == {int}
    pool = PoolSpec(Word("Max"), (Width(8), 8, 4), (4, 4, 4), (2, 2), (2, 2))
    assert dict(basic_fields(pool))["type"] == "Max"
    assert dict(basic_fields(pool))["in_size"] == "8-8-4"


_MUTANT_CHARS = "0123456789-;:_aNYes"


def _mutate(line: str, rng) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(line) + 1)
        op = rng.randrange(3)
        if op == 0:
            line = line[:i] + line[i + 1:]
        elif op == 1:
            line = line[:i] + rng.choice(_MUTANT_CHARS) + line[i:]
        else:
            line = line[:i] + rng.choice(_MUTANT_CHARS) + line[i + 1:]
    return line


@settings(max_examples=100, deadline=None)
@given(spec=_any_spec, uid=st.integers(1, 9), connect=_connects,
       rng=st.randoms(use_true_random=False))
def test_accepted_lines_are_already_rendered(spec, uid, connect, rng):
    # description_from_text keeps each accepted line as it stands, which is
    # only sound if rendering the parse of that line gives the line back
    rendered = render_unit(spec, uid, connect).text
    for _ in range(30):
        mutant = _mutate(rendered, rng)
        try:
            m_uid, m_spec, m_connect = parse_line(mutant)
        except (MalformedLineError, UnclassifiableLineError):
            continue
        expected = render_unit(m_spec, m_uid, m_connect)
        filler = [f"id:{k};name:F;in_size:1;out_size:1;value:Null;connect_to:Null"
                  for k in range(1, m_uid)]
        line = description_from_text("\n".join(filler + [mutant])).lines[-1]
        assert line == expected
        assert line.text == expected.text == mutant


# --- the compiled grammar and the wording of what it refuses -------------------

_RESPELLINGS = ("01", "+1", "1.0", "00", "-1", "0", "", "Null", "a", "\u00e9")


def _field_mutant(line: str, rng) -> str:
    """``line`` with one field blanked, re-spelled, one value longer or
    shorter, set to Null, split by a separator, renamed, swapped or dropped."""
    parts = line.split(";")
    i, j = rng.randrange(len(parts)), rng.randrange(len(parts))
    key, _, value = parts[i].partition(":")
    atoms = value.split("-")
    k = rng.randrange(len(atoms))
    cut = rng.randrange(len(parts[i]) + 1)
    edits = [
        f"{key}:",
        f":{value}",
        f"{key}:" + "-".join(atoms[:k] + [rng.choice(_RESPELLINGS)] + atoms[k + 1:]),
        f"{key}:{value}-{rng.choice('01a')}",
        f"{key}:" + "-".join(atoms[:-1]),
        f"{key}:Null",
        parts[i][:cut] + rng.choice(";:-") + parts[i][cut:],
        parts[j].partition(":")[0] + f":{value}",
    ]
    op = rng.randrange(len(edits) + 2)
    if op < len(edits):
        parts[i] = edits[op]
    elif op == len(edits):
        parts[i], parts[j] = parts[j], parts[i]
    else:
        del parts[i]
    return ";".join(parts)


def _public_spec(line: str):
    """The spec the public spec class builds from the values ``line`` matched."""
    cls, fields = UNIT_FIELDS[classify_line(line)]
    match = re.fullmatch(f"id:{_COUNT.pattern}{_kind_pattern(fields)};connect_to:.*", line)
    return cls(*[f.shape.read(value) for f, value in zip(fields, match.groups())])


@settings(max_examples=300, deadline=None)
@given(spec=_any_spec, uid=st.integers(1, 9), connect=_connects,
       rng=st.randoms(use_true_random=False))
def test_grammar_agrees_with_the_field_checks(spec, uid, connect, rng):
    # parse_line accepts a line only through the grammar, whose values the
    # public spec class also accepts; it words any other line's first fault
    # with a typed error naming the line, and never from the last resort
    rendered = render_unit(spec, uid, connect).text
    for mutant in [rendered] + [
        _field_mutant(rendered, rng) if rng.random() < 0.8 else _mutate(rendered, rng)
        for _ in range(30)
    ]:
        try:
            _, parsed, _ = parse_line(mutant)
        except MalformedLineError as exc:
            assert exc.subject == 1
            assert str(exc).startswith("line 1: ")
            assert "but not the grammar" not in str(exc)
        except UnclassifiableLineError as exc:
            assert exc.subject == mutant
        else:
            assert parsed == _public_spec(mutant)


@settings(max_examples=300, deadline=None)
@given(spec=_any_spec, uid=st.integers(1, 9), connect=_connects,
       rng=st.randoms(use_true_random=False))
def test_the_line_proof_accepts_what_parse_line_reads(spec, uid, connect, rng):
    # _proves is the one proof of a line: parse_line refuses exactly the
    # lines it rejects, a line joined to another by LF among them
    rendered = render_unit(spec, uid, connect).text
    assert not codec._proves(f"{rendered}\n{rendered}")
    for mutant in [rendered, f"{rendered}\n", f"{rendered}\n{rendered}"] + [
        _field_mutant(rendered, rng) if rng.random() < 0.8 else _mutate(rendered, rng)
        for _ in range(30)
    ]:
        try:
            parse_line(mutant)
        except ArcTextError:
            assert not codec._proves(mutant), mutant
        else:
            assert codec._proves(mutant), mutant


def test_valid_lines_never_reach_the_field_checks(monkeypatch, resnet4_text, branching25_text):
    def unexpected(line, lineno):
        raise AssertionError(f"line {lineno} missed the grammar: {line!r}")

    monkeypatch.setattr(codec, "_refuse", unexpected)
    rng = random.Random(1003)  # the C03 corpus
    texts = [resnet4_text, branching25_text] + [
        render_description(gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)).text
        for _ in range(1000)
    ]
    for text in texts:
        assert render_description(parse_description(text)[0]).text == text
        assert description_from_text(text).text == text


_WELL_FORMED = {
    "conv": "id:1;in_size:8-8-3;out_size:8-8-3;kernel:1-1;stride:1-1;"
            "padding:0-0-0-0-0-0-0-0;dilation:1;groups:1;bias_used:No;connect_to:Null",
    "pool": "id:1;type:Max;in_size:8-8-3;out_size:4-4-3;kernel:2-2;stride:2-2;"
            "padding:0-0-0-0;dilation:1;bias_used:No;connect_to:Null",
    "full": "id:1;in_size:64;out_size:10;act_fun:ReLU;connect_to:Null",
    "mf": "id:1;name:BN;in_size:4;out_size:4;value:a-b;connect_to:Null",
}
_TOKEN_SAYS = "a non-empty token with no '-', ':', ';', newline or lone surrogate"
_BAD_SIZE = ("8-8-3-3", "3 integers >= 1 joined by '-'")
_BAD_PAIR = ("1-1-1", "2 integers >= 1 joined by '-'")
_BAD_COUNT = ("01", "an integer >= 1")
_BAD_EXTENT = ("4-4", "1 or 3 integers >= 1 joined by '-'")
_BAD_FLAG = ("Maybe", "'Yes' or 'No'")
# per kind and key: a value that key's pattern refuses, and what its shape says
_MISSPELLED = {
    "conv": {"in_size": _BAD_SIZE, "out_size": _BAD_SIZE, "kernel": _BAD_PAIR,
             "stride": _BAD_PAIR,
             "padding": ("0-0-0-0-0-0-0-0-0", "8 integers >= 0 joined by '-'"),
             "dilation": _BAD_COUNT, "groups": _BAD_COUNT, "bias_used": _BAD_FLAG},
    "pool": {"type": ("Med", "'Max' or 'Avg'"), "in_size": _BAD_SIZE, "out_size": _BAD_SIZE,
             "kernel": _BAD_PAIR, "stride": _BAD_PAIR,
             "padding": ("0-0-0-0-0", "4 integers >= 0 joined by '-'"),
             "dilation": _BAD_COUNT, "bias_used": _BAD_FLAG},
    "full": {"in_size": _BAD_COUNT, "out_size": _BAD_COUNT, "act_fun": ("a:b", _TOKEN_SAYS)},
    "mf": {"name": ("a:b", _TOKEN_SAYS), "in_size": _BAD_EXTENT, "out_size": _BAD_EXTENT,
           "value": ("a:b", "'Null' or non-empty tokens joined by '-', "
                            "with no ':', ';', newline or lone surrogate")},
}
_BAD_EDGE = {"id": _BAD_COUNT, "connect_to": ("01", "'Null' or integers >= 1 joined by '-'")}


@pytest.mark.parametrize("kind, key", [
    (kind, key)
    for kind, (_, fields) in UNIT_FIELDS.items()
    for key in ("id", *[f.key for f in fields], "connect_to")
])
def test_each_misspelled_value_is_worded_by_its_shape(kind, key):
    value, says = {**_MISSPELLED[kind], **_BAD_EDGE}[key]
    line = ";".join(
        f"{key}:{value}" if part.partition(":")[0] == key else part
        for part in _WELL_FORMED[kind].split(";")
    )
    parse_description(_WELL_FORMED[kind])  # the line is well formed but for this value
    for read in (parse_line, parse_description, description_from_text):
        with pytest.raises(ArcTextError) as err:
            read(line)
        assert type(err.value) is MalformedLineError
        assert str(err.value) == f"line 1: {key} must be {says}, got {value!r}"
        assert err.value.subject == 1


def test_parsed_units_keep_their_source_line(resnet4_text, branching25_text):
    for text in (resnet4_text, branching25_text):
        units = description_from_text(text).lines
        for unit, line in zip(units, text.split("\n"), strict=True):
            assert "text" in vars(unit)  # set from the source, not rendered on use
            assert unit.text == line


def test_unit_fields_follow_the_spec_field_order():
    # parse_line hands the matched values to the spec class positionally
    for kind, (cls, fields) in codec.UNIT_FIELDS.items():
        assert [f.attr for f in fields] == [f.name for f in dataclasses.fields(cls)]


def test_each_field_writes_what_its_shape_reads(resnet4, branching25):
    rng = random.Random(1003)  # the C03 corpus
    graphs = [resnet4, branching25] + [
        gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3) for _ in range(1000)
    ]
    # each graph's records as a graph file holds them: the fixture files, else as written
    files = [(FIXTURES / f"{stem}.json").read_text(encoding="utf-8")
             for stem in ("resnet4", "branching25")]
    files += [graph_to_json(g) for g in graphs[2:]]
    for g, graph_file in zip(graphs, files):
        records = {record["name"]: record for record in json.loads(graph_file)["nodes"]}
        for name in g.names():
            spec = g.spec(name)
            written = dict(basic_fields(spec))
            # the graph-file reader runs the kind's speller on the record
            _, loaded = graphio._record_to_spec(records[name], 0)
            assert set(vars(loaded)) == {"_basic_string"}  # proved, not built by the class
            assert dict(basic_fields(loaded)) == written
            for f in UNIT_FIELDS[kind_of(spec)][1]:
                value = getattr(spec, f.attr)
                if value is None:
                    assert f.optional and f.key not in written
                    assert f.attr not in records[name]
                    continue
                text = written[f.key]
                assert re.fullmatch(f.shape.pattern, text), (f.key, text)
                assert f.shape.read(text) == value
                spelled = getattr(loaded, f.attr)
                assert spelled == value and type(spelled) is type(value)


def _rendered_graphs(resnet4, branching25) -> list:
    """The fixtures, a few shapes, C03's graphs, the cells and the five-node DAGs."""
    rng = random.Random(1003)  # the C03 corpus
    graphs = [resnet4, branching25, load_graph_file(FIXTURES / "resnet4.json"),
              load_graph_file(FIXTURES / "branching25.json"),
              gen.resnext_graph(2, 4), gen.braid_graph(layers=6, width=2), gen.chain_graph(1)]
    graphs += [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)
               for _ in range(1000)]
    return graphs + gen.cells() + gen.five_node_dags()


def test_rendered_lines_equal_render_unit(resnet4, branching25):
    # a rendered description builds its lines from its text on first use;
    # each must be the line render_unit makes from the same spec, id and
    # successors, and the line the text reader makes of the same text
    for g in _rendered_graphs(resnet4, branching25):
        d = render_description(g)
        order = canonical.assign_positions(g)
        assert len(d.lines) == len(g)
        for line, name in zip(d.lines, order.by_position):
            succ = sorted(order.position_of(s) for s in g.successors(name)) or None
            unit = render_unit(g.spec(name), order.position_of(name), succ)
            assert type(line) is UnitLine
            assert (line.unit_kind, line.id, line.connect_to, line.text, line.fields) == (
                unit.unit_kind, unit.id, unit.connect_to, unit.text, unit.fields)
            assert (line, hash(line), repr(line)) == (unit, hash(unit), repr(unit))
        assert d.text == "\n".join(line.text for line in d.lines)
        assert d.lines == description_from_text(d.text).lines


def test_a_rendered_description_reads_as_its_parsed_twin(resnet4, branching25):
    # unread, a rendered description holds only its text; it must compare,
    # hash, print, copy, replace, pickle, tokenize and vectorize as the
    # description that holds the same lines from the start
    vocab = Vocabulary.default()
    for g in _rendered_graphs(resnet4, branching25):
        text = render_description(g).text
        twin = Description(description_from_text(text).lines, text)
        d = render_description(g)
        assert pickle.dumps(d) == pickle.dumps(twin)  # unread until pickled
        assert (d, hash(d), repr(d)) == (twin, hash(twin), repr(twin))
        for made in (copy.copy(render_description(g)), dataclasses.replace(render_description(g)),
                     pickle.loads(pickle.dumps(d))):
            assert set(vars(made)) == {"lines", "text"}
            assert made == twin and pickle.dumps(made) == pickle.dumps(twin)
        assert tokenize(render_description(g), vocab) == tokenize(twin, vocab)
        assert vectors_csv(d) == vectors_csv(twin)


def test_a_description_built_by_hand_keeps_its_lines():
    line = render_unit(MFSpec("A", (4,), (4,)), 1, None)
    for lines in ((), (line,)):
        d = Description(lines, "")
        assert d.lines is lines and d.text == ""
        assert pickle.loads(pickle.dumps(d)).lines == lines
    with pytest.raises(AttributeError):
        Description((), "").missing


def test_a_spec_subclass_renders_as_its_kind():
    class Tagged(MFSpec):
        pass

    g = build_graph([("a", Tagged("ReLU", 4, 4)), ("b", FullSpec(4, 2))], [("a", "b")])
    line = render_description(g).lines[0]
    assert line.unit_kind == "mf"
    assert line.text == "id:1;name:ReLU;in_size:4;out_size:4;value:Null;connect_to:2"


def test_a_full_unit_without_act_fun_leaves_the_field_out():
    assert basic_fields(FullSpec(256, 10)) == (("in_size", "256"), ("out_size", "10"))


_SURROGATE_MESSAGES = {
    "id:1;name:BN;in_size:3;out_size:3;value:a-\ud800;connect_to:Null":
        "line 1: value must be 'Null' or non-empty tokens joined by '-', "
        "with no ':', ';', newline or lone surrogate, got 'a-\\ud800'",
    "id:1;name:\ud800;in_size:3;out_size:3;value:Null;connect_to:Null":
        "line 1: name must be a non-empty token with no '-', ':', ';', newline or lone surrogate, "
        "got '\\ud800'",
    "id:1;in_size:3;out_size:3;act_fun:Re\udc80LU;connect_to:Null":
        "line 1: act_fun must be a non-empty token with no '-', ':', ';', newline or "
        "lone surrogate, got 'Re\\udc80LU'",
}


@pytest.mark.parametrize("line", list(_SURROGATE_MESSAGES))
def test_lone_surrogate_is_a_malformed_line(line):
    for read in (parse_line, parse_description, description_from_text):
        with pytest.raises(MalformedLineError) as err:
            read(line)
        assert err.value.subject == 1
        assert str(err.value) == _SURROGATE_MESSAGES[line]


_LONG = "1" * (_MAX_DIGITS + 1)  # more digits than int() converts
_MF_LINE = "id:{};name:BN;in_size:{};out_size:3;value:Null;connect_to:{}"
_TOO_LONG = pytest.mark.skipif(not _MAX_DIGITS, reason="int() converts any number of digits")


@pytest.mark.parametrize("readers, text, error", [
    ((parse_graph_json,), "[" * 200000, GraphFileSyntaxError),
    ((Vocabulary.from_json,), "[" * 200000, SchemaError),
    pytest.param((parse_graph_json,), f'{{"nodes": [], "edges": [{_LONG}]}}',
                 GraphFileSyntaxError, marks=_TOO_LONG),
    pytest.param((Vocabulary.from_json,), f'{{"closed": false, "tokens": {{"a": {_LONG}}}}}',
                 SchemaError, marks=_TOO_LONG),
    pytest.param((parse_description, description_from_text), _MF_LINE.format(_LONG, 3, "Null"),
                 MalformedLineError, marks=_TOO_LONG),
    pytest.param((parse_description, description_from_text), _MF_LINE.format(1, _LONG, "Null"),
                 MalformedLineError, marks=_TOO_LONG),
    pytest.param((parse_description, description_from_text), _MF_LINE.format(1, 3, _LONG),
                 MalformedLineError, marks=_TOO_LONG),
], ids=["graph-deep", "vocab-deep", "graph-digits", "vocab-digits", "id-digits",
        "size-digits", "connect-digits"])
def test_deep_or_long_input_raises_a_typed_error(readers, text, error):
    # too deep for the JSON reader, or more digits than int() converts
    outcomes = []
    for read in readers:
        with pytest.raises(ArcTextError) as err:
            read(text)
        assert type(err.value) is error
        outcomes.append((str(err.value), err.value.subject))
    if error is MalformedLineError:  # the two text readers agree, and name the line
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].startswith("line 1: ") and outcomes[0][1] == 1


@_TOO_LONG
def test_the_longest_integer_int_converts_still_reads():
    line = _MF_LINE.format(1, "9" * _MAX_DIGITS, "Null")
    assert parse_description(line)[0].spec("n1").in_size == (int("9" * _MAX_DIGITS),)
    assert description_from_text(line).text == line


# --- matched lines build their specs unchecked ---------------------------------

@pytest.fixture(scope="module")
def c03_descriptions():
    rng = random.Random(1003)  # the C03 corpus
    return [render_description(gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3))
            for _ in range(1000)]


def test_checked_specs_equal_public_specs(resnet4_text, branching25_text, c03_descriptions):
    # parse_line builds a matched line's spec without the spec class's checks;
    # the public class builds it here from the same matched values
    texts = [resnet4_text, branching25_text] + [d.text for d in c03_descriptions]
    for text in texts:
        for lineno, line in enumerate(text.split("\n"), start=1):
            _, spec, _ = parse_line(line, lineno)
            public = _public_spec(line)
            assert type(spec) is type(public)
            assert spec == public
            assert hash(spec) == hash(public)
            assert repr(spec) == repr(public)
            assert pickle.dumps(spec) == pickle.dumps(public)
            body = line.split(";", 1)[1].rpartition(";")[0]
            assert basic_string(spec) == basic_string(public) == body


# every kind, with each defaulted field off its default and on it, 1-extent
# MF sizes, MF values Null and not, and act_fun present and absent
_DEFERRED = [
    (ConvSpec, dict(in_size=(8, 8, 3), out_size=(4, 4, 6), kernel=(3, 3), stride=(2, 2),
                    padding=((0, 1), (0, 1), (1, 2), (1, 2)), dilation=2, groups=2,
                    bias_used=True)),
    (ConvSpec, dict(in_size=(8, 8, 3), out_size=(8, 8, 3), kernel=(1, 1), stride=(1, 1))),
    (PoolSpec, dict(pool_type="Max", in_size=(8, 8, 3), out_size=(4, 4, 3), kernel=(2, 2),
                    stride=(2, 2), padding=(0, 1, 0, 1), dilation=2, bias_used=True)),
    (PoolSpec, dict(pool_type="Avg", in_size=(8, 8, 3), out_size=(4, 4, 3), kernel=(2, 2),
                    stride=(2, 2))),
    (FullSpec, dict(in_size=64, out_size=10, act_fun="ReLU")),
    (FullSpec, dict(in_size=64, out_size=10)),
    (MFSpec, dict(op_name="BN", in_size=(4,), out_size=(4,))),
    (MFSpec, dict(op_name="Dropout", in_size=(8, 8, 3), out_size=(8, 8, 3), values=("0.5",))),
    (MFSpec, dict(op_name="Concatenation", in_size=(8,), out_size=(2, 2, 2),
                  values=("1", "2"))),
]


def _fresh(value):
    """``value`` with every tuple built anew, as a reader builds it.

    A pickle writes an object that recurs as a reference to it, and the
    compiler shares equal tuple constants.
    """
    return tuple([_fresh(v) for v in value]) if isinstance(value, tuple) else value


@pytest.mark.parametrize("cls, fields", _DEFERRED,
                         ids=[f"{cls.__name__}{i}" for i, (cls, _) in enumerate(_DEFERRED)])
def test_a_spec_read_from_text_reads_its_values_on_first_use(cls, fields):
    # every field given, so that no default's shared tuples reach the pickle
    public = cls(**{f.name: _fresh(fields.get(f.name, f.default))
                    for f in dataclasses.fields(cls)})
    line = render_unit(public, 1, None).text
    # no default on the class is found in place of a value not yet read; __init__ keeps them
    assert {type(vars(cls)[name]) for name in cls.__dataclass_fields__} == {_Unread}
    required = {f.name: fields[f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    assert vars(cls(**required)) == {f.name: f.default for f in dataclasses.fields(cls)} | required

    def parsed(first):
        spec = parse_line(line)[1]
        assert set(vars(spec)) == {"_basic_string"}
        if first is not None:  # one field read before the comparison
            getattr(spec, first)
            assert set(vars(spec)) == {*cls.__dataclass_fields__, "_basic_string"}
        return spec

    for first in (None, *cls.__dataclass_fields__):
        assert parsed(first) == public
        assert hash(parsed(first)) == hash(public)
        assert repr(parsed(first)) == repr(public)
        assert copy.copy(parsed(first)) == public
        assert dataclasses.replace(parsed(first)) == public
        assert pickle.dumps(parsed(first)) == pickle.dumps(public)
        spec = parsed(first)
        for name in cls.__dataclass_fields__:
            got, want = getattr(spec, name), getattr(public, name)
            assert type(got) is type(want) and got == want, name
        assert basic_string(spec) == basic_string(public)


def test_parsed_graphs_equal_their_graph_files_read_back(resnet4_text, branching25_text,
                                                         c03_descriptions):
    # neither graph's specs hold a value until the comparison reads them
    for text in [resnet4_text, branching25_text] + [d.text for d in c03_descriptions]:
        assert parse_description(text)[0] == parse_graph_json(
            graph_to_json(parse_description(text)[0]))


def test_matched_lines_run_no_spec_checks(monkeypatch, resnet4_text, branching25_text):
    def checked(self):
        raise AssertionError(f"{type(self).__name__} re-checked a matched line")

    def built(*values):
        raise AssertionError("description_from_text built a spec")

    for cls in (ConvSpec, PoolSpec, FullSpec, MFSpec):
        monkeypatch.setattr(cls, "__post_init__", checked)
    for text in (resnet4_text, branching25_text):
        assert render_description(parse_description(text)[0]).text == text
    monkeypatch.setattr(codec, "proved_spec", built)
    for text in (resnet4_text, branching25_text):
        assert description_from_text(text).text == text


_POOL = ("id:1;type:{};in_size:8-8-{};out_size:4-4-{};kernel:2-2;stride:2-2;"
         "padding:0-0-0-0;dilation:{};bias_used:No;connect_to:Null")
_MF = "id:{};name:A;in_size:{};out_size:4;value:{};connect_to:{}"
_CONV = ("id:1;in_size:8-8-3;out_size:8-8-3;kernel:{};stride:1-1;"
         "padding:0-0-0-0-0-0-0-0;dilation:1;groups:{};bias_used:No;connect_to:Null")


# each line is spelled right but for one minimum or pool type, which the
# value's shape words, or fails one value comparison, which the reader or
# the public spec class words
@pytest.mark.parametrize("line, message", [
    (_POOL.format("Max", 3, 6, 1), "pooling cannot change the channel count (3 -> 6)"),
    (_POOL.format("Med", 3, 3, 1), "type must be 'Max' or 'Avg', got 'Med'"),
    (_POOL.format("Max", 3, 3, 0), "dilation must be an integer >= 1, got '0'"),
    (_MF.format(1, 4, "Null-a", "Null"), '"Null" is reserved and cannot be a parameter value'),
    (_MF.format(1, 4, "b-a", "Null"), "parameter values must be sorted ascending, got ['b', 'a']"),
    (_MF.format(1, 0, "Null", "Null"),
     "in_size must be 1 or 3 integers >= 1 joined by '-', got '0'"),
    (_MF.format(1, "4-0-4", "Null", "Null"),
     "in_size must be 1 or 3 integers >= 1 joined by '-', got '4-0-4'"),
    (_MF.format(0, 4, "Null", "Null"), "id must be an integer >= 1, got '0'"),
    (_MF.format(1, 4, "Null", "0"),
     "connect_to must be 'Null' or integers >= 1 joined by '-', got '0'"),
    (_MF.format(1, 4, "Null", "3-2"), "connect_to must be strictly ascending, got (3, 2)"),
    (_MF.format(1, 4, "Null", "2-2"), "connect_to must be strictly ascending, got (2, 2)"),
    (_CONV.format("0-1", 1), "kernel must be 2 integers >= 1 joined by '-', got '0-1'"),
    (_CONV.format("1-1", 0), "groups must be an integer >= 1, got '0'"),
    ("id:1;in_size:0;out_size:10;act_fun:ReLU;connect_to:Null",
     "in_size must be an integer >= 1, got '0'"),
])
def test_faults_past_the_spelling_keep_their_wording(line, message):
    for read in (parse_line, parse_description, description_from_text):
        with pytest.raises(ArcTextError) as err:
            read(line)
        assert type(err.value) is MalformedLineError
        assert str(err.value) == f"line 1: {message}"
        assert err.value.subject == 1


def test_rendered_line_text_is_its_fields_joined(resnet4, branching25, c03_descriptions):
    # render_description sets each line's text from the kept basic string
    for d in [render_description(resnet4), render_description(branching25)] + c03_descriptions:
        for line in d.lines:
            assert "text" in vars(line)
            assert line.text == dataclasses.replace(line).text


# --- the single-alternation reader the per-kind patterns replaced ------------------

_ALTERNATION = re.compile(
    f"id:({_COUNT.pattern})(?:"
    + "|".join(_kind_pattern(fields) for _, fields in UNIT_FIELDS.values())
    + f");connect_to:({_CONNECT.pattern})"
)


def _alternation_branches():
    # (kind, spec class, readers, keys, first group, end group, comparison)
    start = 1
    for kind, (cls, fields) in UNIT_FIELDS.items():
        stop = start + len(fields)
        yield (kind, cls, tuple(f.shape.read for f in fields),
               tuple(f.key for f in fields), start, stop, _AGREE.get(kind))
        start = stop


_ALTERNATION_BRANCHES = tuple(_alternation_branches())


def reference_parse_line(line: str, lineno: int = 1):
    """One fullmatch against every kind at once, then a search for the kind's groups.

    Gives (id, spec, connect_to, unit): the line's spec built by its public
    class, and its ``UnitLine`` built by the constructor, holding the line.
    """
    match = _ALTERNATION.fullmatch(line)
    if match is None:
        codec._refuse(line, lineno)
    groups = match.groups()
    for kind, cls, readers, keys, start, stop, agree in _ALTERNATION_BRANCHES:
        if groups[start] is not None:
            break
    values = groups[start:stop]
    connect = None if groups[-1] == "Null" else tuple(map(int, groups[-1].split("-")))
    texts = dict(zip(keys, values))
    if connect and any(a >= b for a, b in zip(connect, connect[1:])) or (
            agree and not agree[1](*map(texts.get, agree[0]))):
        codec._refuse(line, lineno)
    uid = int(groups[0])
    # the public class, every check run, from the values the shapes read
    spec = cls(*[read(v) for read, v in zip(readers, values)])
    fields = tuple(field for field in zip(keys, values) if field[1] is not None)
    unit = UnitLine(kind, uid, fields, connect)
    unit.__dict__["text"] = line
    return uid, spec, connect, unit


def codec_parse_line(line: str, lineno: int = 1):
    """``parse_line``'s (id, spec, connect_to), then the unit the codec slices from the line."""
    uid, spec, connect = parse_line(line, lineno)
    return uid, spec, connect, codec._proved_line(uid, line)


def _unit_tuple(unit) -> tuple:
    return type(unit), unit.unit_kind, unit.id, unit.fields, unit.connect_to, unit.text


def _read_outcome(reader, line: str):
    """What a line reader gives, in a form two readers' results compare by."""
    try:
        uid, spec, connect, unit = reader(line, 7)
    except ArcTextError as exc:
        return type(exc), str(exc), exc.subject
    return uid, type(spec), spec, basic_string(spec), connect, _unit_tuple(unit)


def _rendered_lines(rng, graphs: int, *fixture_texts) -> list[str]:
    texts = [render_description(gen.random_graph(rng)).text for _ in range(graphs)]
    return [line for text in texts + list(fixture_texts) for line in text.split("\n")]


def _reads_as_the_alternation(lines) -> int:
    """Assert parse_line reads every line as reference_parse_line does; count the refused."""
    refused = 0
    for line in lines:
        outcome = _read_outcome(codec_parse_line, line)
        assert outcome == _read_outcome(reference_parse_line, line), line
        refused += isinstance(outcome[0], type)
    return refused


def test_per_kind_patterns_read_as_the_alternation_did(resnet4_text, branching25_text):
    # parse_line against one fullmatch over every kind, on rendered lines and
    # their field mutants
    rng = random.Random(47)
    lines = _rendered_lines(rng, 300, resnet4_text, branching25_text)
    lines += [_field_mutant(line, rng) if rng.random() < 0.8 else _mutate(line, rng)
              for line in rng.sample(lines, 2000)]
    assert _reads_as_the_alternation(lines) > 1000  # of the 2,000 mutants


# --- one pattern for every kind: a line matches one kind's alternative --------------

# each kind's line pattern alone, the alternatives of the codec's one line pattern
_KIND_LINES = {
    kind: re.compile(f"id:{_COUNT.pattern}{_kind_pattern(fields)}"
                     f";connect_to:(?:{_CONNECT.pattern})").fullmatch
    for kind, (_, fields) in UNIT_FIELDS.items()
}


def test_each_line_matches_exactly_one_kind(resnet4_text, branching25_text):
    # what makes the alternation and the kind marks safe: no line a kind's
    # pattern accepts is accepted by another's, and the codec's marks tell
    # the kind that accepts it
    rng = random.Random(1003)  # the C03 corpus
    texts = [resnet4_text, branching25_text] + [
        render_description(gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)).text
        for _ in range(1000)
    ]
    lines = [line for text in texts for line in text.split("\n")]
    lines += [mutant for mutant in (_field_mutant(line, rng) for line in rng.sample(lines, 2000))
              if "\n" not in mutant and codec._WHOLE(mutant)]
    for line in lines:
        assert [kind for kind, fullmatch in _KIND_LINES.items() if fullmatch(line)] == [
            classify_line(line)] == [codec._line_kind(line)], line
        assert codec._WHOLE(line)


_FIRST_KEYS = ("in_size", "type", "name", "kernel", "i", "n", "t", "", "in_size:4", "value")


def _first_key_mutant(line: str, rng) -> str:
    """``line`` with its first key replaced, cut short or run on, or its first ";" moved."""
    head, semi, rest = line.partition(";")
    key, colon, tail = rest.partition(":")
    edits = [
        f"{head};{rng.choice(_FIRST_KEYS)}:{tail}",
        f"{head};{key[:rng.randrange(len(key) + 1)]}{colon}{tail}",
        f"{head};{key}{rng.choice(_MUTANT_CHARS)}{colon}{tail}",
        f"{head}{rest}",
        f"{head};",
        line[:rng.randrange(len(line) + 1)],
        f"{head};{key}",
    ]
    return rng.choice(edits)


def test_first_key_dispatch_reads_as_trying_every_kind(resnet4_text, branching25_text):
    # parse_line against one fullmatch over every kind, on lines whose first
    # key is replaced, cut short or run on, where a dispatch by first key would err
    rng = random.Random(2003)
    lines = _rendered_lines(rng, 200, resnet4_text, branching25_text)
    mutants = []
    for line in rng.sample(lines, 2500):
        mutants.append(_first_key_mutant(line, rng))
        mutants.append(_field_mutant(line, rng) if rng.random() < 0.8 else _mutate(line, rng))
    mutants += ["", ";", ":", "id:1", "id:1;", "id:1;:", "name:A;in_size:4", "id:1;name"]
    assert len(mutants) >= 5000
    assert _reads_as_the_alternation(lines[:500] + mutants) > 3000  # of the 5,008 mutants


# --- the parsed graph is built from what the grammar proved -------------------------

def reference_build(entries):
    """The graph of parsed entries through the public, fully checking build_graph."""
    n = len(entries)
    sinks = [entry[0] for entry in entries if entry[2] is None]
    if len(sinks) > 1:
        raise MultipleSinksError(
            f"connect_to:Null on ids {sinks}; only the last unit may be the sink",
            subject=tuple(sinks))
    if sinks and sinks[0] != n:
        raise NonCanonicalSinkError(
            f"connect_to:Null on id {sinks[0]}, but the highest id is {n}", subject=sinks[0])
    for entry in entries:
        for target in entry[2] or ():
            if target > n:
                raise DanglingConnectError(
                    f"id {entry[0]} connects to missing id {target}", subject=target)
    nodes = [(f"n{entry[0]}", entry[1]) for entry in entries]
    edges = [(f"n{entry[0]}", f"n{target}") for entry in entries for target in entry[2] or ()]
    graph = build_graph(nodes, edges)
    positions = {f"n{entry[0]}": entry[0] for entry in entries}
    return graph, canonical.CanonicalOrder(positions, n)


def _line_entries(text: str) -> list[tuple]:
    """Each line's (id, spec, connect_to), as ``parse_line`` reads it."""
    return [parse_line(line, lineno) for lineno, line in enumerate(text.split("\n"), start=1)]


def _with_targets(line: str, targets) -> str:
    head = line.rpartition(";connect_to:")[0]
    return f"{head};connect_to:{'-'.join(map(str, sorted(targets))) if targets else 'Null'}"


def _faulty(text: str, rng) -> str:
    """``text`` with two to four faults: a self-loop, a back edge, a dangling
    target, an extra sink, or the sink moved off the last line."""
    lines = text.split("\n")
    n = len(lines)
    for _ in range(rng.randint(2, 4)):
        k = rng.randrange(n)
        targets = set(_read_connect(lines[k]))
        fault = rng.randrange(5)
        if fault == 0:
            targets.add(k + 1)
        elif fault == 1:
            targets.add(rng.randint(1, k + 1))
        elif fault == 2:
            targets.add(n + rng.randint(1, 3))
        elif fault == 3:
            targets = set()
        else:
            lines[-1] = _with_targets(lines[-1], {rng.randint(1, n)})
        lines[k] = _with_targets(lines[k], targets)
    return "\n".join(lines)


def _read_connect(line: str) -> tuple[int, ...]:
    value = line.rpartition(";connect_to:")[2]
    return () if value == "Null" else tuple(map(int, value.split("-")))


def _graph_outcome(build, entries):
    try:
        graph, order = build(entries)
    except ArcTextError as exc:
        return type(exc), str(exc), exc.subject
    return (graph.nodes, graph.edges, graph.edge_set(), graph.topological_order(),
            {name: (graph.successors(name), graph.predecessors(name)) for name in graph.names()},
            dict(order.positions), order.n, order.by_position)


def test_a_faulty_description_raises_the_first_fault_as_build_graph_did(resnet4_text,
                                                                         branching25_text):
    rng = random.Random(2011)
    texts = [render_description(gen.random_graph(rng, min_nodes=3, max_nodes=12)).text
             for _ in range(600)]
    texts += [resnet4_text, branching25_text]
    faulty = [_faulty(text, rng) for text in texts for _ in range(4)]
    raised = collections.Counter()
    for text in texts + faulty:
        entries = _line_entries(text)
        assert codec._entries(codec._proved(text)) == entries  # by value: specs compare values
        outcome = _graph_outcome(codec._build, entries)
        assert outcome == _graph_outcome(reference_build, entries), text
        if isinstance(outcome[0], type):
            raised[outcome[0]] += 1
        try:
            parsed = parse_description(text)
        except ArcTextError as exc:
            assert (type(exc), str(exc), exc.subject) == outcome
        else:
            assert _graph_outcome(lambda _: parsed, entries) == outcome
    # a later fault can undo an earlier one, so not every mutant is faulty
    assert sum(raised.values()) > 0.9 * len(faulty)
    assert set(raised) == {SelfLoopError, CycleDetectedError, DanglingConnectError,
                           MultipleSinksError, NonCanonicalSinkError}


@pytest.mark.parametrize("connects, error, subject", [
    # each description holds two or more faults; the first in the order
    # sinks, dangling targets, self-loops, cycles is raised
    (["2", "1-3", "Null"], CycleDetectedError, ("n1", "n2", "n1")),
    (["1-2", "1-3", "Null"], SelfLoopError, ("n1", "n1")),
    (["2", "2-3", "9"], DanglingConnectError, 9),
    (["1-2", "5", "Null"], DanglingConnectError, 5),
    (["Null", "3", "1"], NonCanonicalSinkError, 1),
    (["Null", "2-7", "Null"], MultipleSinksError, (1, 3)),
    (["3", "2", "2"], SelfLoopError, ("n2", "n2")),
], ids=["back-edge-and-cycle", "loop-before-cycle", "loop-and-dangling",
        "dangling-after-loop", "sink-first-and-back-edge", "two-sinks-and-dangling",
        "two-loops-no-sink"])
def test_the_first_of_several_faults_is_raised(connects, error, subject):
    text = "\n".join(f"id:{k};name:A;in_size:4;out_size:4;value:Null;connect_to:{c}"
                     for k, c in enumerate(connects, start=1))
    with pytest.raises(error) as info:
        parse_description(text)
    assert info.value.subject == subject
    with pytest.raises(error) as reference:
        reference_build(_line_entries(text))
    assert str(info.value) == str(reference.value)


def test_a_parsed_order_lists_the_names_by_id(resnet4_text):
    graph, order = parse_description(resnet4_text)
    assert order.by_position == tuple(f"n{k}" for k in range(1, len(graph) + 1))
    assert order.by_position == tuple(sorted(order.positions, key=order.positions.get))


# --- a whole text is proved by one match, as the line reader would read it -----------

def reference_read_text(text: str):
    """A whole text read line by line through ``reference_parse_line``: its
    body and each line's entry, or the first fault the line reader words."""
    body = text[:-1] if text.endswith("\n") else text
    if not body:
        raise EmptyInputError("no content to parse")
    entries = []
    for lineno, line in enumerate(body.split("\n"), start=1):
        if not line:
            raise MalformedLineError(f"line {lineno}: blank line", subject=lineno)
        entries.append(reference_parse_line(line, lineno))
    for lineno, (uid, *_) in enumerate(entries, start=1):
        if uid < lineno:
            raise DuplicateIdError(f"line {lineno}: id {uid} repeats", subject=uid)
        if uid > lineno:
            raise NonContiguousIdsError(f"line {lineno}: expected id {lineno}, got {uid}",
                                        subject=uid)
    return body, entries


def _refusal(exc: ArcTextError) -> tuple:
    return type(exc), str(exc), exc.subject


def _description_outcome(d) -> tuple:
    return d.text, [_unit_tuple(line) for line in d.lines]


def _reference_outcomes(text: str) -> list:
    """What the line reader gives for ``description_from_text``, ``parse_description``
    and ``read_description``, each a result or the refusal's type, message and subject."""
    try:
        body, entries = reference_read_text(text)
    except ArcTextError as exc:
        return [_refusal(exc)] * 3
    read = body, [_unit_tuple(unit) for *_, unit in entries]
    graph = _graph_outcome(reference_build, [entry[:3] for entry in entries])
    return [read, graph, graph if isinstance(graph[0], type) else (graph, read)]


def _codec_outcomes(text: str) -> list:
    outcomes = []
    try:
        outcomes.append(_description_outcome(description_from_text(text)))
    except ArcTextError as exc:
        outcomes.append(_refusal(exc))
    outcomes.append(_graph_outcome(lambda _: parse_description(text), None))
    try:
        graph, order, d = read_description(text)
    except ArcTextError as exc:
        outcomes.append(_refusal(exc))
    else:
        outcomes.append((_graph_outcome(lambda _: (graph, order), None), _description_outcome(d)))
    return outcomes


def _renumbered(line: str, uid: int) -> str:
    return re.sub(r"^id:[1-9][0-9]*;", f"id:{uid};", line, count=1)


def _spliced(text: str, mutant: str, rng) -> str:
    """``text`` with a random line replaced by ``mutant``, most often carrying that line's id."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    lines[k] = _renumbered(mutant, k + 1) if rng.random() < 0.8 else mutant
    return "\n".join(lines)


def _id_fault(text: str, rng) -> str:
    """``text`` with two lines' ids swapped, an id repeated, a line dropped or doubled."""
    lines = text.split("\n")
    j, k = sorted(rng.sample(range(len(lines)), 2))
    fault = rng.randrange(4)
    if fault == 0:
        lines[j], lines[k] = _renumbered(lines[j], k + 1), _renumbered(lines[k], j + 1)
    elif fault == 1:
        lines[k] = _renumbered(lines[k], j + 1)
    elif fault == 2:
        del lines[j]
    else:
        lines.insert(k, lines[k])
    return "\n".join(lines)


def _blank_fault(text: str, rng) -> str:
    """``text`` with a blank line, a leading LF, or one or two trailing LFs."""
    lines = text.split("\n")
    return rng.choice([
        "\n".join(lines[:(k := rng.randrange(len(lines) + 1))] + [""] + lines[k:]),
        f"\n{text}", f"{text}\n", f"{text}\n\n"])


def _value_fault(text: str, rng) -> str:
    """``text`` with descending or repeated targets, MF values out of order or holding
    ``Null``, or pool channels that do not agree, on a random line that can hold them."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    line = lines[k]
    if ";type:" in line and rng.random() < 0.5:
        size = line.partition(";out_size:")[2].partition(";")[0]
        channels = int(size.rpartition("-")[2])
        line = line.replace(f";out_size:{size};", f";out_size:{size}{channels % 7 + 1}0;")
    elif ";name:" in line and rng.random() < 0.5:
        value = line.partition(";value:")[2].partition(";")[0]
        line = line.replace(f";value:{value};",
                            f";value:{rng.choice(['b-a', 'a-Null', 'Null-a', '0.9-0.1', 'a-a'])};")
    else:
        head, _, targets = line.rpartition(";connect_to:")
        low = rng.randint(1, len(lines) + 1)
        line = f"{head};connect_to:{rng.choice([f'{low + 1}-{low}', f'{low}-{low}', targets])}"
    lines[k] = line
    return "\n".join(lines)


def _fan_text(k: int, targets=None) -> str:
    """Node 1 connects to k branches, which all connect to the sink; MF lines."""
    line = "id:{};name:A;in_size:4;out_size:4;value:Null;connect_to:{}"
    targets = range(2, k + 2) if targets is None else targets
    return "\n".join([line.format(1, "-".join(map(str, targets)))]
                     + [line.format(uid, k + 2) for uid in range(2, k + 2)]
                     + [line.format(k + 2, "Null")])


def test_one_match_reads_a_text_as_the_line_reader_does(monkeypatch, c03_descriptions):
    # description_from_text, parse_description and read_description give what the
    # line-by-line reference gives, result or refusal; an accepted text is
    # proved by the match alone, with no parse_line call
    parsed = []
    parse_line = codec.parse_line

    def counted(line, *args):
        parsed.append(line)
        return parse_line(line, *args)

    rng = random.Random(2311)
    lines = [line for _ in range(100)
             for line in render_description(gen.random_graph(rng)).text.split("\n")]
    mutants = [_field_mutant(line, rng) if rng.random() < 0.8 else _mutate(line, rng)
               for line in (rng.choice(lines) for _ in range(2000))]
    c03 = [d.text for d in c03_descriptions]
    rng = random.Random(2828)
    texts = [_spliced(rng.choice(c03), mutant, rng) for mutant in mutants]
    texts += [fault(rng.choice(c03), rng)
              for fault in (_id_fault, _blank_fault) for _ in range(300)]
    texts += [_value_fault(rng.choice(c03), rng) for _ in range(1000)]
    texts += c03[:200] + ["", "\n", "\n\n", _fan_text(4000), _fan_text(4000) + "\n",
                          _fan_text(4000, [*range(2, 2000), 2001, 2000, *range(2002, 4002)]),
                          _fan_text(4000, range(3, 4003))]
    monkeypatch.setattr(codec, "parse_line", counted)
    accepted = refused = 0
    for text in texts:
        parsed.clear()
        outcomes = _codec_outcomes(text)
        reference = _reference_outcomes(text)
        assert outcomes == reference, text
        if isinstance(reference[0][0], type):  # the text is refused
            refused += 1
            assert codec._proved_body(text) is None
        else:
            accepted += 1
            assert codec._proved_body(text) == reference[0][0]
            assert parsed == []
    assert accepted > 600 and refused > 3000  # of 3,807 texts
