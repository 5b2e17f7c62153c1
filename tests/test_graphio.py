import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings, strategies as st

import arctext
from arctext import (
    ArcTextError,
    ConvSpec,
    DuplicateEdgeError,
    FullSpec,
    GraphFileSyntaxError,
    IoError,
    MFSpec,
    PoolSpec,
    SchemaError,
    assign_positions,
    build_graph,
    description_from_text,
    diff_descriptions,
    export_dot,
    graph_to_json,
    load_graph_file,
    parse_graph_json,
    render_description,
    save_graph_file,
    validate_graph,
)
from arctext import graphio, unitformat
from arctext.unitformat import UNIT_FIELDS, basic_fields, basic_string

import gen
from conftest import FIXTURES, branching25_graph, resnet4_graph


class TestGraphFileLoad:
    def test_fixture_files_match_programmatic_builds(self):
        assert load_graph_file(FIXTURES / "resnet4.json") == resnet4_graph()
        assert load_graph_file(FIXTURES / "branching25.json") == branching25_graph()

    def test_round_trip_through_text(self, resnet4, branching25):
        for g in (resnet4, branching25):
            assert parse_graph_json(graph_to_json(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(1003)  # the corpus of acceptance criterion 3
        for i in range(1000):
            g = gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3)
            assert parse_graph_json(graph_to_json(g)) == g, f"graph #{i}"

    def test_save_and_load(self, tmp_path, resnet4):
        target = tmp_path / "net.json"
        save_graph_file(resnet4, target)
        assert load_graph_file(target) == resnet4
        assert target.read_text(encoding="utf-8").endswith("}\n")

    def test_node_records_follow_canonical_order_when_given(self, resnet4):
        order = assign_positions(resnet4)
        doc = json.loads(graph_to_json(resnet4, order))
        assert [rec["name"] for rec in doc["nodes"]][:4] == ["S", "A", "B", "C"]
        assert doc["edges"][0] == ["S", "A"]

    def test_empty_graph_loads_but_fails_validation(self):
        g = parse_graph_json('{"nodes": [], "edges": []}')
        assert len(g) == 0
        assert validate_graph(g).has_errors

    def test_build_errors_propagate(self):
        doc = {
            "nodes": [
                {"name": "a", "kind": "mf", "op_name": "X",
                 "in_size": [4], "out_size": [4], "values": []},
                {"name": "b", "kind": "mf", "op_name": "X",
                 "in_size": [4], "out_size": [4], "values": []},
            ],
            "edges": [["a", "b"], ["a", "b"]],
        }
        with pytest.raises(DuplicateEdgeError):
            parse_graph_json(json.dumps(doc))


# one valid record per kind, and the value fields the spec classes check
RECORDS = {
    "conv": {"name": "layer7", "kind": "conv", "in_size": [8, 8, 3], "out_size": [8, 8, 4],
             "kernel": [3, 3], "stride": [1, 1], "padding": [[0, 1]] * 4,
             "dilation": 1, "groups": 1, "bias_used": False},
    "pool": {"name": "layer7", "kind": "pool", "pool_type": "Max", "in_size": [8, 8, 4],
             "out_size": [4, 4, 4], "kernel": [2, 2], "stride": [2, 2],
             "padding": [0, 0, 0, 0], "dilation": 1, "bias_used": False},
    "full": {"name": "layer7", "kind": "full", "in_size": 64, "out_size": 10},
    "mf": {"name": "layer7", "kind": "mf", "op_name": "BN", "in_size": [8, 8, 4],
           "out_size": 256, "values": ["0.5"]},
}
VALUE_FIELDS = {
    "conv": ("in_size", "out_size", "kernel", "stride", "padding",
             "dilation", "groups", "bias_used"),
    "pool": ("in_size", "out_size", "kernel", "stride", "padding",
             "dilation", "bias_used"),
    "full": ("in_size", "out_size"),
    "mf": ("in_size", "out_size"),
}


class TestGraphFileErrors:
    def test_base_records_load(self):
        for record in RECORDS.values():
            g = parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
            assert g.names() == ("layer7",)

    def test_syntax_error_carries_position(self):
        with pytest.raises(GraphFileSyntaxError) as err:
            parse_graph_json('{"nodes": [,]}')
        assert "line 1, column" in str(err.value)

    @pytest.mark.parametrize("doc", [
        [],
        {"nodes": []},
        {"nodes": [], "edges": [], "extra": 1},
        {"nodes": {}, "edges": []},
    ])
    def test_top_level_shape(self, doc):
        with pytest.raises(SchemaError):
            parse_graph_json(json.dumps(doc))

    def test_node_record_must_be_an_object(self):
        with pytest.raises(SchemaError, match="^node record #0 must be an object$"):
            parse_graph_json('{"nodes": [1], "edges": []}')

    def test_unknown_kind(self):
        doc = {"nodes": [{"name": "a", "kind": "dense"}], "edges": []}
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps(doc))
        assert "'a'" in str(err.value)

    @pytest.mark.parametrize("kind", [[], ["mf"], {}, {"mf": 1}])
    def test_array_or_object_kind(self, kind):
        doc = {"nodes": [{"name": "a", "kind": kind}], "edges": []}
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps(doc))
        assert str(err.value) == f"node 'a': unknown kind {kind!r}"

    def test_missing_and_unknown_keys(self):
        base = {
            "name": "a", "kind": "pool", "pool_type": "Max",
            "in_size": [4, 4, 1], "out_size": [4, 4, 1],
            "kernel": [1, 1], "stride": [1, 1],
            "padding": [0, 0, 0, 0], "dilation": 1, "bias_used": False,
        }
        incomplete = {k: v for k, v in base.items() if k != "stride"}
        with pytest.raises(SchemaError):
            parse_graph_json(json.dumps({"nodes": [incomplete], "edges": []}))
        with pytest.raises(SchemaError):
            parse_graph_json(json.dumps(
                {"nodes": [dict(base, surprise=1)], "edges": []}
            ))

    def test_invalid_values_become_schema_errors(self):
        doc = {
            "nodes": [{
                "name": "a", "kind": "conv",
                "in_size": [4, 4, 1], "out_size": [4, 4, 1],
                "kernel": [0, 0], "stride": [1, 1],
                "padding": [[0, 0], [0, 0], [0, 0], [0, 0]],
                "dilation": 1, "groups": 1, "bias_used": False,
            }],
            "edges": [],
        }
        with pytest.raises(SchemaError):
            parse_graph_json(json.dumps(doc))

    def test_values_must_be_an_array(self):
        record = dict(RECORDS["mf"], values={"a": 1})
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
        assert "'layer7'" in str(err.value)

    @pytest.mark.parametrize("kind, field, value", [
        (kind, field, value)
        for kind, fields in VALUE_FIELDS.items()
        for field in fields
        for value in (1 if field == "bias_used" else True, 1.5, "3", None, [], {})
    ])
    def test_each_bad_value_names_the_node(self, kind, field, value):
        record = dict(RECORDS[kind], **{field: value})
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
        assert "'layer7'" in str(err.value)

    @pytest.mark.parametrize("kind, field", [
        (kind, field)
        for kind, fields in VALUE_FIELDS.items()
        for field in fields
        if isinstance(RECORDS[kind][field], list)
    ])
    @pytest.mark.parametrize("value", [True, 1.5, "3", None, [], {}])
    def test_each_bad_element_names_the_node(self, kind, field, value):
        record = json.loads(json.dumps(RECORDS[kind]))
        record[field][0] = value
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
        assert "'layer7'" in str(err.value)

    def test_unencodable_value_is_a_schema_error(self):
        record = dict(RECORDS["mf"], values=["\ud800", "a"])
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
        assert "'layer7'" in str(err.value)

    @pytest.mark.parametrize("kind, field, value", [
        ("mf", "op_name", "\ud800"),
        ("mf", "values", ["\udfff"]),
        ("full", "act_fun", "Re\ud800LU"),
    ])
    def test_lone_surrogate_fails_before_render(self, kind, field, value):
        doc = {"nodes": [dict(RECORDS[kind], name="a", **{field: value}),
                         dict(RECORDS["mf"], name="b")],
               "edges": [["a", "b"]]}
        with pytest.raises(SchemaError) as err:
            render_description(parse_graph_json(json.dumps(doc)))
        assert str(err.value).startswith("node 'a': ")
        assert "lone surrogate" in str(err.value)

    def test_value_errors_are_worded_by_the_spec(self):
        record = dict(RECORDS["conv"], kernel=[True, 3])
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
        assert str(err.value) == "node 'layer7': kernel element must be an integer, got True"

    def test_bad_edge_record(self):
        doc = {"nodes": [], "edges": [["a", "b", "c"]]}
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps(doc))
        assert "edge #0" in str(err.value)

    @pytest.mark.parametrize("edge", [["a"], ["a", "b", "c"], [], ["a", 1], [1, "b"],
                                      ["a", None], [["a"], "b"], "ab", {"a": "b"}, None])
    def test_each_bad_edge_is_worded_alike(self, edge):
        doc = {"nodes": [dict(RECORDS["mf"], name="a"), dict(RECORDS["mf"], name="b")],
               "edges": [["a", "b"], edge]}
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps(doc))
        assert str(err.value) == "edge #1 must be a [from, to] pair of names"

    def test_nameless_node_is_indexed_in_message(self):
        doc = {"nodes": [{"kind": "mf"}], "edges": []}
        with pytest.raises(SchemaError) as err:
            parse_graph_json(json.dumps(doc))
        assert "#0" in str(err.value)

    def test_write_failure(self, tmp_path, resnet4):
        with pytest.raises(IoError):
            save_graph_file(resnet4, tmp_path)

    @pytest.mark.parametrize("name, data, error", [
        ("missing.json", None, IoError),
        ("", None, IoError),  # the directory itself
        ("utf16.json", b"\xff\xfe{\x00}\x00", GraphFileSyntaxError),
    ], ids=["missing", "directory", "not-utf8"])
    def test_read_failures_are_typed(self, tmp_path, name, data, error):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(error) as err:
            load_graph_file(path)
        assert type(err.value) is error
        assert str(err.value).startswith(f"cannot read {path}: ")


class TestExportDot:
    def test_two_node_chain_exact(self):
        g = build_graph(
            [("x", ConvSpec((4, 4, 1), (4, 4, 1), (1, 1), (1, 1))),
             ("y", MFSpec("ReLU", (4, 4, 1), (4, 4, 1)))],
            [("x", "y")],
        )
        dot = export_dot(g, assign_positions(g))
        assert dot == (
            "digraph arctext {\n"
            '  u1 [label="id:1\\nconv 1x1"];\n'
            '  u2 [label="id:2\\nReLU"];\n'
            "  u1 -> u2;\n"
            "}\n"
        )

    def test_resnet4_counts(self, resnet4):
        dot = export_dot(resnet4, assign_positions(resnet4))
        lines = dot.splitlines()
        assert sum("[label=" in ln for ln in lines) == 13
        assert sum("->" in ln for ln in lines) == 13

    def test_merge_node_fan_in(self, branching25):
        dot = export_dot(branching25, assign_positions(branching25))
        assert sum(ln.endswith("-> u10;") for ln in dot.splitlines()) == 4
        assert '  u25 [label="id:25\\nDropout"];' in dot

    def test_label_escaping(self):
        g = build_graph(
            [("a", MFSpec('Say"Hi"', (4,), (4,))),
             ("b", MFSpec("X", (4,), (4,)))],
            [("a", "b")],
        )
        dot = export_dot(g, assign_positions(g))
        assert '\\nSay\\"Hi\\""];' in dot

    def test_input_order_invariance(self, branching25):
        rng = random.Random(31)
        shuffled = gen.permuted_renamed(branching25, rng)
        a = export_dot(branching25, assign_positions(branching25))
        b = export_dot(shuffled, assign_positions(shuffled))
        assert a == b


class TestDiff:
    def test_reflexive(self, resnet4_text):
        d = description_from_text(resnet4_text)
        assert diff_descriptions(d, d).empty

    def test_single_field_change(self, resnet4_text):
        left = description_from_text(resnet4_text)
        right = description_from_text(
            resnet4_text.replace("out_size:1000", "out_size:1001")
        )
        diff = diff_descriptions(left, right)
        assert diff.left_only == () and diff.right_only == ()
        assert len(diff.changed) == 1
        change = diff.changed[0]
        assert change.id == 13 and change.kind_change is None
        assert change.field_changes == (("out_size", "1000", "1001"),)

    def test_connect_to_change_is_tracked(self, resnet4_text):
        right = description_from_text(
            resnet4_text.replace("connect_to:5-10", "connect_to:5")
        )
        left = description_from_text(resnet4_text)
        diff = diff_descriptions(left, right)
        ids = [c.id for c in diff.changed]
        assert 4 in ids
        change = next(c for c in diff.changed if c.id == 4)
        assert ("connect_to", "5-10", "5") in change.field_changes

    def test_length_difference(self, resnet4_text, branching25_text):
        small = description_from_text(resnet4_text)
        big = description_from_text(branching25_text)
        diff = diff_descriptions(big, small)
        assert diff.left_only == tuple(range(14, 26))
        assert diff.right_only == ()
        kinds = {c.id: c.kind_change for c in diff.changed if c.kind_change}
        assert kinds[4] == ("conv", "pool")

    def test_rendered_graphs_compare_equal(self, resnet4):
        a = render_description(resnet4)
        b = render_description(gen.permuted_renamed(resnet4, random.Random(1)))
        assert diff_descriptions(a, b).empty


# --- records read through the line grammar --------------------------------------

def test_graph_file_specs_run_no_spec_checks(monkeypatch, resnet4_text, branching25_text):
    expected = {"resnet4": resnet4_graph(), "branching25": branching25_graph()}

    def checked(self):
        raise AssertionError(f"{type(self).__name__} re-checked a graph-file record")

    for cls in (ConvSpec, PoolSpec, FullSpec, MFSpec):
        monkeypatch.setattr(cls, "__post_init__", checked)
    for stem, text in (("resnet4", resnet4_text), ("branching25", branching25_text)):
        g = load_graph_file(FIXTURES / f"{stem}.json")
        assert g == expected[stem]
        assert render_description(g).text == text


def test_rendering_graph_files_reads_no_spec_value(monkeypatch):
    # the canon path: each spec keeps its proved basic string and nothing else
    rng = random.Random(1003)  # the C03 corpus
    texts = [(FIXTURES / f"{stem}.json").read_text(encoding="utf-8")
             for stem in ("resnet4", "branching25")]
    texts += [graph_to_json(gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3))
              for _ in range(200)]

    def checked(self):
        raise AssertionError(f"{type(self).__name__} checked a graph-file record")

    for cls in (ConvSpec, PoolSpec, FullSpec, MFSpec):
        monkeypatch.setattr(cls, "__post_init__", checked)
    for text in texts:
        g = parse_graph_json(text)
        render_description(g)
        assert {frozenset(vars(g.spec(name))) for name in g.names()} == {
            frozenset({"_basic_string"})}


# words and scalars that the spec classes reject, or that a careless writer
# would spell as some other valid value
_WORDS = ("a-b", "a;b", "a:b", "a\nb", "\ud800", "", "Null", "Max", "Avg", "x", "b", "3")
_SCALARS = (True, False, 1.5, 3.0, "3", "8-8-3", None, [], {}, 0, -1, 4, 2**70, [4],
            [7, 7, 7], [[0, 1]] * 4, ["a", "b"])


def _other(value, rng):
    """Something to put where ``value`` was."""
    if isinstance(value, str) and rng.random() < 0.7:
        return rng.choice(_WORDS)
    if type(value) is int and rng.random() < 0.7:
        return rng.choice((value + 1, value - 1, str(value), f"{value}-{value}", [value],
                           float(value), value == 1))
    return rng.choice(_SCALARS)


def _mutate_value(value, rng):
    if not isinstance(value, list) or rng.random() < 0.1:
        return _other(value, rng)
    value = json.loads(json.dumps(value))
    target = value  # the list to edit: the value, or one of its pairs
    inner = [v for v in value if isinstance(v, list)]
    if inner and rng.random() < 0.5:
        target = rng.choice(inner)
    i = rng.randrange(len(target)) if target else 0
    element = target[i] if target else rng.choice(_WORDS + (1,))
    op = rng.randrange(6)
    if op == 0:  # one element more
        target.insert(rng.randrange(len(target) + 1), rng.choice((element, _other(element, rng))))
    elif op == 1:  # one fewer
        del target[i:i + 1]
    elif op == 2:  # one element changed
        target[i:i + 1] = [_other(element, rng)]
    elif op == 3:  # one element nested
        target[i:i + 1] = [[element]]
    elif op == 4:  # unsorted or duplicated
        target[:] = [element] + target if rng.random() < 0.5 else target[::-1] + [element]
    else:  # the whole value nested
        value = [value]
    return value


def record_mutants(record: dict, rng, count: int):
    """``count`` mutants of a graph-file node record, each with one or two
    fields changed, dropped, added, or set to null."""
    attrs = [key for key in record if key not in ("name", "kind")]
    allowed = sorted(graphio._ALLOWED[record["kind"]] - {"name", "kind"})
    for _ in range(count):
        mutant = json.loads(json.dumps(record))
        for _ in range(rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.05:
                mutant.pop(rng.choice(attrs), None)
            elif roll < 0.1:
                mutant[rng.choice(allowed + ["surprise"])] = rng.choice((None, "ReLU", 1))
            else:
                attr = rng.choice(attrs)
                mutant[attr] = _mutate_value(mutant.get(attr), rng)
        yield mutant


def _record_outcome(record: dict):
    """A record's spec, seen every way it can be used, or its error."""
    try:
        name, spec = graphio._record_to_spec(json.loads(json.dumps(record)), 0)
    except ArcTextError as exc:
        return type(exc), str(exc), exc.subject
    return (name, type(spec), spec, hash(spec), repr(spec), pickle.dumps(spec),
            basic_fields(spec), basic_string(spec))


def _spelled(record: dict):
    """What the speller of the record's key count makes of it: its basic string, or None."""
    return unitformat._SPELLERS[record["kind"]][len(record) - 2](record)


def _class_only():
    """The record reader with no speller, so the spec class builds every record."""
    return mock.patch.object(graphio, "_SPELLERS", dict.fromkeys(UNIT_FIELDS, {}))


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graph_file_records_agree_with_the_spec_classes(seed):
    # a record the line grammar proves builds its spec unchecked; each of
    # 50 mutants must come out as the spec class alone makes it: the same
    # spec, or the same error
    rng = random.Random(seed)
    record = graphio._spec_to_record("a", gen.rand_spec(rng))
    assert _spelled(json.loads(json.dumps(record))) is not None
    mutants = [record] + list(record_mutants(record, rng, 50))
    outcomes = [_record_outcome(mutant) for mutant in mutants]
    with _class_only():
        assert [_record_outcome(mutant) for mutant in mutants] == outcomes


# a record for each generated speller: one per kind, and full's with its optional act_fun
_READER_RECORDS = [*RECORDS.values(), dict(RECORDS["full"], act_fun="ReLU")]


@pytest.mark.parametrize("record", _READER_RECORDS, ids=lambda r: f"{r['kind']}-{len(r)}-keys")
def test_a_key_swapped_for_another_is_refused_as_the_spec_class_refuses_it(record):
    # a field key renamed to an unknown key or to another kind's keeps the
    # record's key count, so the speller of that count meets the key it lacks
    assert _spelled(json.loads(json.dumps(record))) is not None
    foreign = sorted(set().union(*graphio._ALLOWED.values()) - record.keys()) + ["surprise"]
    swaps = [{(new if key == old else key): value for key, value in record.items()}
             for old in record.keys() - {"name", "kind"} for new in foreign]
    assert {len(swap) for swap in swaps} == {len(record)}
    outcomes = [_record_outcome(swap) for swap in swaps]
    assert {outcome[0] for outcome in outcomes} == {SchemaError}
    assert [_spelled(swap) for swap in swaps] == [None] * len(swaps)
    with _class_only():
        assert [_record_outcome(swap) for swap in swaps] == outcomes


@pytest.mark.parametrize("kind, field, value", [
    ("mf", "values", ["a-b"]),
    ("mf", "values", ["Null"]),
    ("mf", "values", ["b", "a-c"]),
    ("conv", "in_size", ["8", 8, 3]),
    ("conv", "in_size", ["8-8", 3]),
    ("conv", "padding", [[0, 1, 0], [1], [0, 1], [0, 1]]),
    ("conv", "dilation", "3"),
    ("conv", "bias_used", 1),
    ("full", "act_fun", 5),
])
def test_values_spelled_like_others_are_refused(kind, field, value):
    # each of these writes as the text of a valid value, which the spec
    # class rejects: the loader must refuse it
    record = dict(RECORDS[kind], **{field: value})
    assert _spelled(record) is None
    with pytest.raises(SchemaError):
        graphio._record_to_spec(record, 0)


# values the one-pass spelling could take for others: each record must come
# out exactly as the spec class alone makes it, the same spec or the same error
_TOKENS = ("a b", "a,b", "it's", 'say"hi"', "back\\slash", "True", "bell\x07", "tab\t", "\x00")


@pytest.mark.parametrize("kind, field, value", [
    *[("mf", "op_name", token) for token in _TOKENS],
    *[("full", "act_fun", token) for token in _TOKENS],
    *[("mf", "values", [token]) for token in _TOKENS],
    ("mf", "values", ["a", "True", "it's"]),
    ("conv", "dilation", True),
    ("conv", "dilation", 1.0),
    ("conv", "dilation", "1"),
    ("conv", "in_size", [8, True, 3]),
    ("conv", "in_size", [8, 8.0, 3]),
    ("conv", "in_size", [8, "8", 3]),
    ("full", "in_size", True),
    ("full", "in_size", 64.0),
    ("full", "in_size", "64"),
    ("pool", "padding", [0, 0.0, 0, 0]),
    ("pool", "padding", [0, False, 0, 0]),
    ("mf", "in_size", True),
    ("mf", "in_size", 5.0),
    ("mf", "in_size", "5"),
    ("conv", "padding", [[0, 1], [0, 1], [0, 1], [0]]),
    ("conv", "padding", [[0, 1], [0, 1], [0, 1], [0, 1, 2]]),
    ("conv", "padding", [[0, 1], [0, 1], [0, 1], [[0], 1]]),
    ("conv", "padding", [[0, 1], [0, 1], [0, 1], [0, [1]]]),
    ("conv", "padding", [[0, 1, 0], [1, 0, 1], [0, 1]]),
    ("conv", "padding", [[0, 1]] * 3),
    ("conv", "padding", [[0, 1]] * 5),
    ("conv", "padding", [[0, 1, 0, 1]] * 2),
    ("mf", "values", ["b", "a"]),
    ("mf", "values", ["0.5", "0.1"]),
    ("mf", "values", ["Null"]),
    ("mf", "values", ["a", "Null"]),
    ("mf", "values", ["Null", "a"]),
    *[("mf", side, extent) for side in ("in_size", "out_size")
      for extent in (5, [5], [1, 2, 3], [1, 2], [])],
])
def test_loader_traps_give_what_the_spec_class_gives(kind, field, value):
    record = dict(RECORDS[kind], **{field: value})
    outcome = _record_outcome(record)
    with _class_only():
        assert _record_outcome(record) == outcome


@pytest.mark.parametrize("kind, field, value", [
    ("mf", "op_name", "a b"),
    ("full", "act_fun", "it's"),
    ("mf", "values", ["b", "back\\slash"]),
    ("mf", "values", []),
    *[("mf", "in_size", extent) for extent in (5, [5], [1, 2, 3])],
])
def test_loader_spells_valid_odd_values_itself(kind, field, value):
    # the one-pass spelling takes these, and they equal the class's spec
    record = dict(RECORDS[kind], **{field: value})
    _, spec = graphio._record_to_spec(json.loads(json.dumps(record)), 0)
    assert set(vars(spec)) == {"_basic_string"}  # proved by the speller, not built by the class
    built = UNIT_FIELDS[kind][0](**{k: v for k, v in record.items() if k not in ("name", "kind")})
    assert spec == built
    assert (basic_fields(spec), basic_string(spec)) == (basic_fields(built), basic_string(built))


# a refused record echoes its name and kind as refused values are echoed:
# whole while the repr fits in 200 characters, else cut there
_LONG = "n" * 5000


@pytest.mark.parametrize("record", [
    {"name": _LONG, "kind": "surprise"},
    {"name": "layer7", "kind": "k" * 5000},
    dict(RECORDS["full"], name=_LONG, surprise=1),
    {"name": _LONG, "kind": "full", "in_size": 64},
    dict(RECORDS["full"], name=_LONG, in_size=0),
], ids=["kind", "long-kind", "unknown-field", "missing-field", "class-refusal"])
def test_a_refused_record_echoes_a_long_name_or_kind_cut(record):
    with pytest.raises(SchemaError) as err:
        graphio._record_to_spec(record, 0)
    message = str(err.value)
    assert len(message) < 400
    assert "... (5002 characters)" in message
    cut = "n" * 199 if record["name"] == _LONG else "k" * 199
    assert f"'{cut}... (5002 characters)" in message


@pytest.mark.parametrize("name", ["a", "n" * 198, "tab\there", "it's"])
def test_a_refused_record_echoes_a_short_name_whole(name):
    for record, tail in [({"name": name, "kind": "surprise"}, "unknown kind 'surprise'"),
                         (dict(RECORDS["full"], name=name, surprise=1),
                          "unknown field(s) ['surprise']")]:
        with pytest.raises(SchemaError) as err:
            graphio._record_to_spec(record, 0)
        assert str(err.value) == f"node {name!r}: {tail}"


# --- decoding: orjson within json's nesting depth, json for the rest -----------

def _graph_file_outcome(text):
    """What ``parse_graph_json`` makes of ``text``: each node's name and basic
    string, and the edges; or the error's type, message and subject."""
    try:
        g = parse_graph_json(text)
    except Exception as exc:  # any error: the json path's own included
        return type(exc), str(exc), getattr(exc, "subject", None)
    return [(name, basic_string(g.spec(name))) for name in g.names()], list(g.edges)


def _refused(text):
    raise orjson.JSONDecodeError("refused by the reference", "", 0)


def _decoded(text):
    """``text``'s outcome and whether orjson was asked. The outcome must equal
    the reference's, the same call with orjson refusing every text, which
    reads it as json alone does; orjson must be asked exactly when ``text``
    is a str with fewer "[" and "{" than the recursion limit."""
    with mock.patch.object(graphio.orjson, "loads", wraps=orjson.loads) as spy:
        outcome = _graph_file_outcome(text)
    with mock.patch.object(graphio.orjson, "loads", _refused):
        assert _graph_file_outcome(text) == outcome
    shallow = isinstance(text, str) and text.count("[") + text.count("{") < sys.getrecursionlimit()
    assert spy.called == shallow
    return outcome, spy.called


_CORPUS_RNG = random.Random(7)
CORPUS = [graph_to_json(gen.random_graph(_CORPUS_RNG)) for _ in range(6)]
_NUMBER = re.compile(r"(?<=\s)\d+(?=,?\n)")  # an integer value as graph_to_json writes it

# values that json reads and orjson refuses or reads as a float, and values
# nested deeper than the guard lets orjson read
SPLICES = {
    "2^63": str(2**63), "2^64 - 1": str(2**64 - 1), "2^64": str(2**64), "25 digits": "9" * 25,
    "-10^19": str(-10**19), "NaN": "NaN", "Infinity": "Infinity", "1e400": "1e400",
    "lone surrogate escape": '"\\ud800"', "lone surrogate": '"\ud800"',
    "1,500-deep list": "[" * 1500 + "1" + "]" * 1500,
    "1,500-deep object": '{"a": ' * 1500 + "1" + "}" * 1500,
}


@pytest.mark.parametrize("name, splice", SPLICES.items(), ids=SPLICES)
def test_decoders_agree_on_a_value_spliced_into_a_corpus_file(name, splice):
    rng = random.Random(name)
    for text in CORPUS:
        at = rng.choice(list(_NUMBER.finditer(text)))
        _decoded(text[:at.start()] + splice + text[at.end():])


_DEEP_EDGE = "[" * 1200 + "]" * 1200
EDITS = {
    "as written": lambda t: t,
    "BOM": lambda t: "\ufeff" + t,
    "duplicate key, the first replaced": lambda t: '{"edges": [], ' + t[1:],
    "duplicate key, the last replacing": lambda t: t.rstrip()[:-1] + ', "edges": []}',
    "truncated": lambda t: t[:len(t) // 2],
    "trailing data": lambda t: t + "[]",
    "a name with a lone surrogate escape": lambda t: t.replace('"v0"', '"\\ud800"'),
    "a name with a lone surrogate": lambda t: t.replace('"v0"', '"\ud800"'),
    "an edge to an unknown node": lambda t: t.replace('"v1"\n    ]', '"v99"\n    ]', 1),
    "a 1,200-deep edge": lambda t: t.replace('"edges": [', '"edges": [' + _DEEP_EDGE + ",", 1),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_decoders_agree_on_an_edited_corpus_file(edit):
    for text in CORPUS:
        _decoded(edit(text))


def test_a_graph_file_within_the_guard_is_decoded_by_orjson_alone():
    for text in CORPUS:
        with mock.patch.object(graphio.json, "loads", side_effect=AssertionError("json asked")):
            g = parse_graph_json(text)
        assert _decoded(text) == (_graph_file_outcome(text), True)
        assert graph_to_json(g) == text


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
def test_bytes_are_decoded_by_json_alone(encoding):
    for text in CORPUS:
        assert _decoded(text.encode(encoding)) == (_graph_file_outcome(text), False)


def _one_record_file(field: str, value: str) -> str:
    """A graph file of one full record, with the JSON text ``value`` in its ``field``."""
    text = json.dumps({"nodes": [dict(RECORDS["full"], **{field: "@"})], "edges": []})
    return text.replace('"@"', value)


@pytest.mark.parametrize("below", [1, 0], ids=["one below the recursion limit", "at it"])
def test_orjson_reads_only_a_text_with_fewer_brackets_than_the_recursion_limit(below):
    brackets = sys.getrecursionlimit() - below
    n = brackets - 4  # the file's own: the top level, the nodes, the record, the edges
    accepted = _one_record_file("name", '"' + "[" * n + '"')
    deep = _one_record_file("in_size", "[" * n + "]" * n)
    for text in (accepted, deep):
        assert text.count("[") + text.count("{") == brackets
    # orjson reads the deep value below the limit, but its spelling in the
    # readers recurses too deep, so json reads it again and words the refusal
    (read, asked), (_, asked_too) = _decoded(accepted), _decoded(deep)
    assert asked == asked_too == bool(below)
    assert isinstance(read[0], list)  # its nodes, not an error type


_DEEP_CHILD = """\
from arctext import GraphFileSyntaxError, parse_graph_json
n = 200_000
for text in ("[" * n + "]" * n, '{"a": ' * n + "1" + "}" * n,
             '{"nodes": [{"name": "a", "kind": "full", "in_size": '
             + "[" * n + "]" * n + ', "out_size": 1}], "edges": []}'):
    try:
        parse_graph_json(text)
    except GraphFileSyntaxError:
        continue
    raise SystemExit("accepted")
"""


def test_input_nested_200000_deep_is_refused_without_killing_the_process():
    # orjson 3.8 has no nesting limit and dies of a stack overflow (SIGSEGV)
    # on such input, so the guard must keep it from orjson
    src = str(Path(arctext.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _DEEP_CHILD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


def deep_in_size_file(depth: int = 900) -> str:
    """A one-record conv graph file whose in_size starts with 8 in a list nested ``depth`` deep."""
    conv = ConvSpec((8, 8, 4), (8, 8, 4), (3, 3), (1, 1), ((0, 1),) * 4)
    doc = json.loads(graph_to_json(build_graph([("a", conv)], [])))
    doc["nodes"][0]["in_size"][0] = json.loads("[" * depth + "8" + "]" * depth)
    return json.dumps(doc)


def test_a_refused_value_is_echoed_up_to_200_characters():
    # the repr of 8 nested 900 deep is 1,801 characters; one nested 99 deep,
    # 199 characters, is echoed whole as before
    said = "node 'a': in_size element must be an integer, got "
    with pytest.raises(SchemaError) as err:
        parse_graph_json(deep_in_size_file())
    assert str(err.value) == said + "[" * 200 + "... (1801 characters)"
    with pytest.raises(SchemaError) as err:
        parse_graph_json(deep_in_size_file(99))
    assert str(err.value) == said + "[" * 99 + "8" + "]" * 99
    # a refused token is cut the same way
    op_name = "X;" + "y" * 5000
    record = {"name": "a", "kind": "mf", "op_name": op_name, "in_size": [8], "out_size": [8],
              "values": []}
    with pytest.raises(SchemaError) as err:
        parse_graph_json(json.dumps({"nodes": [record], "edges": []}))
    assert str(err.value) == (f"node 'a': op_name {repr(op_name)[:200]}... (5004 characters) "
                              "contains reserved character(s) [';']")
