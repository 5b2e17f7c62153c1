import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import arctext
from arctext import (
    ArcTextError,
    Description,
    IoError,
    MalformedLineError,
    MFSpec,
    SchemaError,
    Token,
    TokenStream,
    UnitLine,
    UnknownTokenError,
    Vocabulary,
    description_from_text,
    detokenize,
    parse_graph_json,
    render_description,
    render_unit,
    tokenize,
    unit_vector,
    vectors_csv,
)
from arctext.codec import _proved_line, parse_line
from arctext.unitformat import (
    _FLAG, _POOL_TYPE, _VALUES, POOL_TYPES, UNIT_FIELDS, ConvSpec, _connect_text, basic_fields,
)
from arctext.vectorize import (
    _PLANS, NUM_TOKEN, PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, VECTOR_SLOTS, _SLOTS, _numeric,
)

import gen
from conftest import FIXTURES


def _parsed(text: str) -> UnitLine:
    """The unit the codec reads from a line ``parse_line`` accepts, as its id."""
    return _proved_line(parse_line(text)[0], text)


class TestVocabulary:
    def test_default_layout(self):
        v = Vocabulary.default()
        assert len(v) == 25
        assert v.token_id(PAD_TOKEN) == PAD_ID
        assert v.token_id(UNK_TOKEN) == UNK_ID
        assert v.token_id(":") == 2
        assert v.token_id(";") == 3
        assert v.token_id("-") == 4
        assert v.token_id(NUM_TOKEN) == 5
        assert v.token_id("id") == 6
        assert v.token_id("Null") == 24

    def test_default_reserves_every_field_key(self):
        # each key and literal word the table writes is structural, so its id
        # never depends on the input: a new one must join the vocabulary
        v = Vocabulary.default(closed=True)
        keys = {f.key for _, fields in UNIT_FIELDS.values() for f in fields}
        flags = [dict(basic_fields(ConvSpec((1, 1, 1), (1, 1, 1), (1, 1), (1, 1), bias_used=b)))
                 for b in (False, True)]
        literals = {*POOL_TYPES, *(flag["bias_used"] for flag in flags),
                    dict(basic_fields(MFSpec("a", 1, 1)))["value"], _connect_text(None)}
        assert literals == {"Max", "Avg", "Yes", "No", "Null"}
        for key in keys | literals | {"id", "connect_to"}:
            assert key in v

    def test_open_growth(self):
        v = Vocabulary.default()
        assert "ReLU" not in v
        first = v.token_id("ReLU")
        assert first == 25
        assert v.token_id("BN") == 26
        assert v.token_id("ReLU") == first
        assert v.lexeme(first) == "ReLU"
        assert len(v) == 27

    def test_closed_vocabulary_refuses_new_words(self):
        v = Vocabulary.default(closed=True)
        assert v.token_id("id") == 6
        with pytest.raises(UnknownTokenError):
            v.token_id("ReLU")

    def test_unknown_id(self):
        with pytest.raises(UnknownTokenError):
            Vocabulary.default().lexeme(999)

    def test_save_load_identity(self, tmp_path):
        v = Vocabulary.default()
        v.token_id("ReLU")
        v.token_id("BN")
        path = tmp_path / "vocab.json"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.to_json() == v.to_json()
        assert loaded.token_id("BN") == 26
        assert not loaded.closed

    def test_from_json_schema(self):
        with pytest.raises(SchemaError):
            Vocabulary.from_json("not json")
        with pytest.raises(SchemaError):
            Vocabulary.from_json(json.dumps({"tokens": {}}))
        with pytest.raises(SchemaError):
            Vocabulary.from_json(json.dumps({"closed": "no", "tokens": {}}))
        with pytest.raises(SchemaError):
            Vocabulary.from_json(json.dumps(
                {"closed": False, "tokens": {PAD_TOKEN: 0, UNK_TOKEN: 1, "x": 1.5}}
            ))

    def test_new_ids_continue_above_the_largest(self):
        v = Vocabulary.from_json(json.dumps({"closed": False, "tokens": {
            PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID, "a": 7, "b": 3,
        }}))
        assert v.token_id("c") == 8
        assert v.token_id("d") == 9
        assert v.token_id("b") == 3
        assert v.lexeme(8) == "c" and v.lexeme(9) == "d"

    def test_save_to_a_directory_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError):
            Vocabulary.default().save(tmp_path)

    @pytest.mark.parametrize("name, data, error", [
        ("missing.json", None, IoError),
        ("", None, IoError),  # the directory itself
        ("utf16.json", b"\xff\xfe{\x00}\x00", SchemaError),
    ], ids=["missing", "directory", "not-utf8"])
    def test_load_failures_are_typed(self, tmp_path, name, data, error):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(error) as err:
            Vocabulary.load(path)
        assert type(err.value) is error
        assert str(err.value).startswith(f"cannot read {path}: ")

    def test_reserved_slots_enforced(self):
        with pytest.raises(SchemaError):
            Vocabulary({PAD_TOKEN: 0})
        with pytest.raises(SchemaError):
            Vocabulary({PAD_TOKEN: 0, UNK_TOKEN: 2})
        with pytest.raises(SchemaError):
            Vocabulary({PAD_TOKEN: 0, UNK_TOKEN: 1, "a": 3, "b": 3})


class TestTokenRoundTrip:
    def test_fixture_identity(self, resnet4_text, branching25_text):
        for text in (resnet4_text, branching25_text):
            v = Vocabulary.default()
            stream = tokenize(description_from_text(text), v)
            assert detokenize(stream, v) == text
            assert len(stream.units) == text.count("\n") + 1

    def test_numbers_ride_the_num_token(self, branching25_text):
        v = Vocabulary.default()
        stream = tokenize(description_from_text(branching25_text), v)
        last = stream.units[-1]
        num_id = v.token_id(NUM_TOKEN)
        values = [t.value for t in last if t.token_id == num_id]
        assert 0.5 in values and 25 in values
        assert isinstance(values[values.index(0.5)], float)

    def test_open_vocab_learns_words(self, resnet4_text):
        v = Vocabulary.default()
        tokenize(description_from_text(resnet4_text), v)
        assert "BN" in v and "ReLU" in v and "Addition" in v

    def test_closed_default_vocab_rejects_fixture(self, resnet4_text):
        v = Vocabulary.default(closed=True)
        with pytest.raises(UnknownTokenError):
            tokenize(description_from_text(resnet4_text), v)

    def test_noncanonical_numbers_stay_words(self):
        spec = MFSpec("X", (4,), (4,), ("007", "1e3"))
        line = render_unit(spec, 1, None)
        text = line.text
        d = description_from_text(text)
        v = Vocabulary.default()
        stream = tokenize(d, v)
        assert detokenize(stream, v) == text
        assert "007" in v and "1e3" in v

    def test_a_number_before_an_lf_stays_a_word(self):
        # only a hand-built line can hold an LF: the text readers split on it
        line = UnitLine("full", 1, (("in_size", "5\n"), ("out_size", "7")), None)
        v = Vocabulary.default()
        stream = tokenize(Description((line,), line.text), v)
        assert detokenize(stream, v) == line.text
        assert "5\n" in v
        assert _numeric("5\n") is None

    def test_random_descriptions_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            text = render_description(gen.random_graph(rng)).text
            v = Vocabulary.default()
            assert detokenize(tokenize(description_from_text(text), v), v) == text

    def test_tokens_are_values(self):
        assert Token(5, 3) == Token(5, 3)
        assert Token(5, 3) != Token(5, 4)


MF_LINE = "id:1;name:ReLU;in_size:4;out_size:4;value:Null;connect_to:Null"

WELL_FORMED = {  # the fields of one well-formed line of each kind
    "conv": (("in_size", "8-8-3"), ("out_size", "8-8-3"), ("kernel", "1-1"), ("stride", "1-1"),
             ("padding", "0-0-0-0-0-0-0-0"), ("dilation", "1"), ("groups", "1"),
             ("bias_used", "No")),
    "pool": (("type", "Max"), ("in_size", "8-8-3"), ("out_size", "4-4-3"), ("kernel", "2-2"),
             ("stride", "2-2"), ("padding", "0-0-0-0"), ("dilation", "1"), ("bias_used", "No")),
    "full": (("in_size", "64"), ("out_size", "10")),
    "mf": (("name", "X"), ("in_size", "4"), ("out_size", "4"), ("value", "Null")),
}


def built(kind: str, uid: int = 1, **values) -> UnitLine:
    """A line built by hand: the well-formed ``kind`` line with ``uid`` and ``values`` by key."""
    return UnitLine(kind, uid, tuple((key, values.get(key, value))
                                     for key, value in WELL_FORMED[kind]), None)


def bare_vocabulary(closed=False, words=()):
    tokens = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    tokens.update({w: i for i, w in enumerate(words, start=2)})
    return Vocabulary(tokens, closed=closed)


class TestVocabularyReads:
    def test_open_vocabulary_meets_lexemes_in_text_order(self):
        v = bare_vocabulary()
        tokenize(description_from_text(MF_LINE), v)
        assert [v.lexeme(i) for i in range(2, 7)] == ["id", ":", NUM_TOKEN, ";", "name"]

    def test_closed_vocabulary_without_a_dash_reads_dash_free_text(self):
        learned = bare_vocabulary()
        d = description_from_text(MF_LINE)
        tokenize(d, learned)
        assert "-" not in learned
        closed = closed_copy(learned)
        stream = tokenize(d, closed)
        assert detokenize(stream, closed) == MF_LINE

    def test_detokenize_never_adds_to_an_open_vocabulary(self):
        v = bare_vocabulary()
        assert detokenize(TokenStream(()), v) == ""
        assert len(v) == 2 and NUM_TOKEN not in v

    def test_detokenize_without_a_num_token_reads_words(self):
        v = bare_vocabulary(closed=True, words=("a",))
        assert detokenize(TokenStream(((Token(2),),)), v) == "a"


def reference_tokenize(d, v):
    """The plain per-atom loop: a fresh Token and a number check per atom."""
    units = []
    sep, colon, dash = (Token(v.token_id(c)) for c in ";:-")
    for line in d.lines:
        tokens = []
        for part in line.text.split(";"):
            if tokens:
                tokens.append(sep)
            key, _, value = part.partition(":")
            tokens += [Token(v.token_id(key)), colon]
            for i, atom in enumerate(value.split("-")):
                if i:
                    tokens.append(dash)
                num = _numeric(atom)
                if num is None:
                    tokens.append(Token(v.token_id(atom)))
                else:
                    tokens.append(Token(v.token_id(NUM_TOKEN), num))
        units.append(tuple(tokens))
    return TokenStream(tuple(units))


def closed_copy(v):
    doc = json.loads(v.to_json())
    doc["closed"] = True
    return Vocabulary.from_json(json.dumps(doc))


def seed_0_corpus_texts():
    """The 1,002 texts the benchmark's seed-0 ``corpus_ingest`` workload reads."""
    path = Path(__file__).parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    perfbench_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_gen)
    rng = random.Random(0)
    texts = [render_description(parse_graph_json(json.dumps(perfbench_gen.random_graph(rng)))).text
             for _ in range(1000)]
    return texts + [(FIXTURES / f"{name}.arctext").read_text(encoding="utf-8")
                    for name in ("resnet4", "branching25")]


class TestTokenizeMatchesReference:
    @pytest.fixture
    def descriptions(self, resnet4_text, branching25_text):
        rng = random.Random(43)
        texts = [render_description(gen.random_graph(rng)).text for _ in range(100)]
        texts += [resnet4_text, branching25_text]
        return [description_from_text(t) for t in texts]

    def test_open_vocabulary(self, descriptions):
        fast, slow = Vocabulary.default(), Vocabulary.default()
        for d in descriptions:
            assert tokenize(d, fast) == reference_tokenize(d, slow)
        assert fast.to_json() == slow.to_json()

    def test_closed_vocabulary_refuses_the_same_word(self, descriptions):
        learned = Vocabulary.default()
        tokenize(descriptions[-2], learned)  # resnet4 only
        raised = 0
        for closed in (Vocabulary.default(closed=True), closed_copy(learned)):
            for d in descriptions:
                outcomes = []
                for fn in (tokenize, reference_tokenize):
                    try:
                        outcomes.append(fn(d, closed))
                    except UnknownTokenError as exc:
                        outcomes.append(("refused", exc.subject))
                assert outcomes[0] == outcomes[1]
                raised += isinstance(outcomes[0], tuple)
        assert raised > 0

    def test_one_open_vocabulary_over_the_seed_0_corpus(self):
        kept, twin = Vocabulary.default(), Vocabulary.default()
        for text in seed_0_corpus_texts():
            d = description_from_text(text)
            assert tokenize(d, kept) == reference_tokenize(d, twin)
        assert kept.to_json() == twin.to_json()

    @pytest.mark.parametrize("fields", [
        (("5", "5"), ("out_size", "7")),
        (("in_size", "5"), ("5", "5")),
    ])
    def test_a_numeric_key_stays_a_word(self, fields):
        line = UnitLine("full", 1, fields, None)
        d = Description((line,), line.text)
        kept, twin = Vocabulary.default(), Vocabulary.default()
        for _ in range(2):
            stream = tokenize(d, kept)
            assert stream == reference_tokenize(d, twin)
            assert Token(kept.token_id("5")) in stream.units[0]
            assert Token(kept.token_id(NUM_TOKEN), 5) in stream.units[0]

    def test_a_refusal_leaves_a_closed_vocabulary_reading(self, resnet4_text, branching25_text):
        learned = Vocabulary.default()
        known = description_from_text(resnet4_text)
        tokenize(known, learned)
        closed, twin = closed_copy(learned), closed_copy(learned)
        with pytest.raises(UnknownTokenError):
            tokenize(description_from_text(branching25_text), closed)
        assert tokenize(known, closed) == reference_tokenize(known, twin)
        assert closed.to_json() == twin.to_json()

    def test_a_closed_vocabulary_keeps_a_token_per_distinct_number(self):
        # documented growth: the ids and the JSON stay fixed, the kept tokens do not
        closed = Vocabulary.default(closed=True)
        frozen = closed.to_json()
        for n in range(100, 150):
            line = UnitLine("full", 1, (("in_size", str(n)),), None)
            tokenize(Description((line,), line.text), closed)
        assert closed.to_json() == frozen
        assert set(closed._atoms) == {"1", "Null"} | {str(n) for n in range(100, 150)}

    def test_a_reloaded_vocabulary_gives_equal_streams(self, resnet4_text, branching25_text):
        rng = random.Random(53)
        texts = [render_description(gen.random_graph(rng)).text for _ in range(20)]
        descriptions = [description_from_text(t) for t in texts + [resnet4_text, branching25_text]]
        kept = Vocabulary.default()
        for d in descriptions[:10]:
            tokenize(d, kept)
        reloaded = Vocabulary.from_json(kept.to_json())
        for d in descriptions:
            assert tokenize(d, kept) == tokenize(d, reloaded)
        assert kept.to_json() == reloaded.to_json()


_NUMPY_ON_USE = """
import sys

import arctext

assert "numpy" not in sys.modules, "import arctext imported numpy"
line = arctext.description_from_text(sys.argv[1]).lines[0]
vector = arctext.unit_vector(line)
import numpy

assert type(vector) is numpy.ndarray and vector.shape == (24,), type(vector)
"""


class TestUnitVector:
    def test_only_unit_vector_imports_numpy(self, resnet4_text):
        # a fresh interpreter: this one has numpy loaded by the tests
        src = str(Path(arctext.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _NUMPY_ON_USE, resnet4_text],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_width_is_fixed(self, resnet4_text, branching25_text):
        assert len(VECTOR_SLOTS) == 24
        for text in (resnet4_text, branching25_text):
            for line in description_from_text(text).lines:
                assert unit_vector(line).shape == (24,)

    def test_conv_line(self, resnet4_text):
        line = description_from_text(resnet4_text).lines[0]
        expected = np.array([
            1, 0, 0, 0,
            1,
            224, 224, 3,
            112, 112, 64,
            7, 7,
            2, 2,
            3, 3, 3, 3,
            1, 1, 0, 0, 0,
        ], dtype=float)
        np.testing.assert_array_equal(unit_vector(line), expected)

    def test_pool_line(self, resnet4_text):
        lines = description_from_text(resnet4_text).lines
        max_pool = unit_vector(lines[3])
        expected = np.array([
            0, 1, 0, 0,
            4,
            112, 112, 64,
            56, 56, 64,
            3, 3,
            2, 2,
            1, 1, 1, 1,
            1, 0, 0, 1, 0,
        ], dtype=float)
        np.testing.assert_array_equal(max_pool, expected)
        avg_pool = unit_vector(lines[11])
        assert avg_pool[22] == 0.0 and avg_pool[1] == 1.0

    def test_full_line(self, resnet4_text):
        vec = unit_vector(description_from_text(resnet4_text).lines[12])
        expected = np.zeros(24)
        expected[2] = 1
        expected[4] = 13
        expected[5] = 64
        expected[8] = 1000
        np.testing.assert_array_equal(vec, expected)

    def test_mf_value_slot(self, branching25_text):
        vec = unit_vector(description_from_text(branching25_text).lines[-1])
        assert vec[3] == 1.0 and vec[4] == 25 and vec[23] == 0.5

    def test_first_numeric_value_wins(self):
        line = render_unit(MFSpec("X", (4,), (4,), ("alpha", "2")), 1, None)
        assert unit_vector(line)[23] == 2.0
        word_only = render_unit(MFSpec("X", (4,), (4,), ("alpha",)), 1, None)
        assert unit_vector(word_only)[23] == 0.0

    def test_id_is_the_only_positional_slot(self):
        spec = MFSpec("ReLU", (8, 8, 2), (8, 8, 2))
        a = unit_vector(render_unit(spec, 3, [4]))
        b = unit_vector(render_unit(spec, 9, [12]))
        diff = np.nonzero(a != b)[0]
        np.testing.assert_array_equal(diff, [4])

    def test_short_shapes_pad_and_huge_ints_go_through_float(self):
        line = render_unit(MFSpec("X", (10**20,), (2**53 + 1, 3, 4), ("7",)), 1, None)
        expected = [0.0] * 24
        expected[3], expected[4], expected[5] = 1.0, 1.0, 1e20
        expected[8:11] = [float(2**53 + 1), 3.0, 4.0]
        expected[23] = 7.0
        vec = unit_vector(line)
        assert isinstance(vec, np.ndarray) and vec.dtype == np.float64
        assert vec.tolist() == expected
        row = vectors_csv(Description((line,), line.text)).splitlines()[1]
        assert row == ",".join(
            ["0", "0", "0", "1", "1", "100000000000000000000", "0", "0",
             "9007199254740992", "3", "4"] + ["0"] * 12 + ["7"])

    def test_slot_keys_are_field_keys(self):
        keys = {f.key for _, fields in UNIT_FIELDS.values() for f in fields}
        assert set(_SLOTS) <= keys

    def test_a_value_wider_than_its_slots_is_refused(self):
        line = built("conv", kernel="3-3-3")
        with pytest.raises(MalformedLineError, match="^unit 1 is not a well-formed 'conv' line$"):
            unit_vector(line)

    def test_csv_shape(self, branching25_text):
        d = description_from_text(branching25_text)
        csv = vectors_csv(d)
        rows = csv.splitlines()
        assert rows[0] == ",".join(VECTOR_SLOTS)
        assert len(rows) == 26
        assert all(len(row.split(",")) == 24 for row in rows)
        assert rows[-1].endswith(",0.5")
        assert csv.endswith("\n")


_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
_LONG = "1" * (_MAX_DIGITS + 1)  # more digits than int() converts


@pytest.mark.skipif(not _MAX_DIGITS, reason="int() converts any number of digits")
@pytest.mark.parametrize("value, slot", [
    (_LONG, "0"),
    (f"{_LONG}-7", "7"),
    (f"{_LONG}-a", "0"),
    (f"0.5-{_LONG}", "0.5"),
    ("9" * 400, "inf"),  # int() converts it; a float cannot hold it
], ids=["long", "long-7", "long-a", "0.5-long", "400-digits"])
def test_a_number_too_long_to_convert_stays_a_word(value, slot):
    text = f"id:1;name:X;in_size:4;out_size:4;value:{value};connect_to:Null"
    d = description_from_text(text)
    v = Vocabulary.default()
    stream = tokenize(d, v)
    assert detokenize(stream, v) == text
    for atom in value.split("-"):
        assert (atom in v) == (_numeric(atom) is None)  # a word, else a number
    row = vectors_csv(d).splitlines()[1].split(",")
    assert row[VECTOR_SLOTS.index("mf_value")] == slot


def reference_row(line: UnitLine) -> list[float]:
    """The slots of a parsed line as floats, read field by field by key."""
    row = [0.0] * len(VECTOR_SLOTS)
    row[VECTOR_SLOTS.index(f"kind_{line.unit_kind}")] = 1.0
    row[4] = float(str(line.id))  # as its text reads: inf beyond a float
    for key, text in line.fields:
        if key in _SLOTS:
            values = [float(atom) for atom in text.split("-")]
            if key == "padding" and line.unit_kind == "conv":
                values = values[1::2]
            slots = _SLOTS[key]
            row[slots] = values + [0.0] * (slots.stop - slots.start - len(values))
        elif key == "bias_used":
            row[VECTOR_SLOTS.index("bias")] = float(text == "Yes")
        elif key == "type":
            row[VECTOR_SLOTS.index("pool_max")] = float(text == "Max")
        elif key == "value":
            numbers = [atom for atom in text.split("-") if _numeric(atom) is not None]
            row[VECTOR_SLOTS.index("mf_value")] = float(numbers[0]) if numbers else 0.0
    return row


def reference_cell(x: float) -> str:
    return str(int(x)) if x.is_integer() else repr(x)


def csv_cells(line: UnitLine) -> list[str]:
    return vectors_csv(Description((line,), line.text)).splitlines()[1].split(",")


class TestCellSpelling:
    def test_cells_are_the_reference_spelling(self, resnet4_text, branching25_text):
        rng = random.Random(61)
        texts = [render_description(gen.random_graph(rng)).text for _ in range(1000)]
        for text in texts + [resnet4_text, branching25_text]:
            d = description_from_text(text)
            rows = vectors_csv(d).splitlines()[1:]
            assert len(rows) == len(d.lines)
            for line, row in zip(d.lines, rows):
                cells = row.split(",")
                assert cells == [reference_cell(x) for x in reference_row(line)]
                assert unit_vector(line).tolist() == [float(c) for c in cells]

    @pytest.mark.parametrize("size, cells", [
        ("999999999999999", ["999999999999999"]),
        ("9999999999999999", ["10000000000000000"]),
        (f"{2**53 + 1}-3-4", ["9007199254740992", "3", "4"]),
        ("9" * 400, ["inf"]),
    ], ids=["15-digits", "16-digits", "2**53+1", "400-digits"])
    def test_a_size_cell_is_its_text_only_for_a_short_int(self, size, cells):
        line = built("mf", in_size=size, out_size="7")
        row = csv_cells(line)
        assert row[5:8] == cells + ["0"] * (3 - len(cells))
        assert row[8] == "7"
        assert unit_vector(line).tolist() == [float(c) for c in row]

    @pytest.mark.parametrize("uid, cell", [
        (10**15 - 1, "999999999999999"),
        (10**16 - 1, "10000000000000000"),
        (2**53 + 1, "9007199254740992"),
    ], ids=["15-digits", "16-digits", "2**53+1"])
    def test_an_id_cell_is_its_text_only_for_a_short_int(self, uid, cell):
        line = built("full", uid)
        row = csv_cells(line)
        assert row[4] == cell
        assert unit_vector(line)[4] == float(cell)

    @pytest.mark.parametrize("value, cell", [
        ("1.0", "1"), ("0.1", "0.1"), ("1e3", "0"), ("1e3-0.25", "0.25"),
    ])
    def test_mf_values(self, value, cell):
        line = render_unit(MFSpec("X", (4,), (4,), value.split("-")), 1, None)  # sorted
        assert csv_cells(line)[VECTOR_SLOTS.index("mf_value")] == cell

    @pytest.mark.parametrize("value, cell", [
        ("0.5", "0.5"), ("0.1-0.9", "0.1"), ("2", "2"), ("alpha", "0"), ("Null", "0"),
        ("9" * 400, "inf"),
    ], ids=["0.5", "0.1-0.9", "2", "alpha", "Null", "400-digits"])
    def test_mf_value_cells_of_the_corpus_values(self, value, cell):
        line = built("mf", value=value)
        assert csv_cells(line)[VECTOR_SLOTS.index("mf_value")] == cell
        assert unit_vector(line)[VECTOR_SLOTS.index("mf_value")] == float(cell)

    @pytest.mark.parametrize("uid, cell", [(10**400, "inf")])
    def test_an_id_beyond_a_float_is_infinite(self, uid, cell):
        # as the same number spelled in a size is
        line = built("full", uid)
        assert csv_cells(line)[VECTOR_SLOTS.index("id")] == cell
        assert unit_vector(line)[VECTOR_SLOTS.index("id")] == float(cell)
        size = built("full", in_size=str(uid))
        assert csv_cells(size)[VECTOR_SLOTS.index("in_w")] == "inf"

    @pytest.mark.parametrize("kind", ["unit", "Conv", "", "mf "])
    def test_an_undeclared_kind_is_refused_by_id_and_kind(self, kind):
        line = UnitLine(kind, 7, WELL_FORMED["full"], None)
        message = f"^unit 7 is not a well-formed {re.escape(repr(kind))} line$"
        for vectorize in (unit_vector, lambda line: vectors_csv(Description((line,), ""))):
            with pytest.raises(MalformedLineError, match=message) as info:
                vectorize(line)
            assert info.value.subject == 7

    @pytest.mark.parametrize("fields, connect_to", [
        (None, None), (WELL_FORMED["full"], 5)], ids=["fields=None", "connect_to=5"])
    def test_fields_that_cannot_be_spelled_are_refused_by_id(self, fields, connect_to):
        line = UnitLine("full", 7, fields, connect_to)
        d = Description((line,), "")
        for read in (lambda line: line.text, unit_vector, lambda line: vectors_csv(d),
                     lambda line: tokenize(d, Vocabulary.default())):
            with pytest.raises(MalformedLineError,
                               match="^unit 7 is not a well-formed 'full' line$") as info:
                read(line)
            assert info.value.subject == 7

    def test_conv_padding_wider_than_its_slots_is_refused(self):
        line = built("conv", padding="-".join("1" * 10))
        with pytest.raises(MalformedLineError, match="^unit 1 is not a well-formed 'conv' line$"):
            vectors_csv(Description((line,), line.text))


# --- one match per line -------------------------------------------------------------

# where a long integer can sit: (kind, None for the id or the fields that hold it)
_INTEGER_SLOTS = {
    "id": ("full", None),
    "full-in": ("full", {"in_size": "{}"}),
    "full-out": ("full", {"out_size": "{}"}),
    "conv-size": ("conv", {"in_size": "8-{}-3"}),
    "conv-kernel": ("conv", {"kernel": "1-{}"}),
    "conv-groups": ("conv", {"groups": "{}"}),
    "conv-pad-count": ("conv", {"padding": "0-{}-0-0-0-0-0-0"}),
    "conv-pad-value": ("conv", {"padding": "{}-1-0-0-0-0-0-0"}),  # fills no slot
    "pool-channels": ("pool", {"in_size": "8-8-{}", "out_size": "4-4-{}"}),
    "pool-pad": ("pool", {"padding": "0-0-{}-0"}),
    "mf-1": ("mf", {"in_size": "{}"}),
    "mf-3": ("mf", {"out_size": "4-{}-4"}),
}


@pytest.mark.parametrize("digits", [
    str(10**15 - 1), str(10**15), str(2**53 + 1), "9" * 400,
], ids=["15-digits", "16-digits", "2**53+1", "400-digits"])
@pytest.mark.parametrize("where", list(_INTEGER_SLOTS))
def test_a_long_integer_is_read_by_the_second_pattern(where, digits):
    kind, values = _INTEGER_SLOTS[where]
    if values is None:
        line = built(kind, int(digits))
    else:
        line = built(kind, **{key: value.format(digits) for key, value in values.items()})
    parsed = _parsed(line.text)
    short, long = _PLANS[kind][:2]
    assert (short(line.text) is None) == (len(digits) > 15)
    assert long(line.text)
    for read in (line, parsed):  # built by hand, and parsed
        assert csv_cells(read) == [reference_cell(x) for x in reference_row(parsed)]
        assert unit_vector(read).tolist() == reference_row(parsed)


@pytest.mark.skipif(not _MAX_DIGITS, reason="str() writes any number of digits")
def test_an_id_too_long_to_write_is_a_typed_refusal():
    line = built("full", 10**_MAX_DIGITS)
    message = f"^unit int of more than {_MAX_DIGITS} digits is not a well-formed 'full' line$"
    for vectorize in (unit_vector, lambda line: vectors_csv(Description((line,), ""))):
        with pytest.raises(MalformedLineError, match=message) as info:
            vectorize(line)
        assert info.value.subject == line.id


_SHORT = st.integers(1, 10**15 - 1).map(str)
_ODD_ATOMS = st.one_of(
    st.integers(10**15, 10**40).map(str),  # 16 digits and more: the second pattern
    st.just("9" * 400),  # beyond a float: inf
    st.integers(0, 999).map(lambda i: f"00{i}"),  # leading zeros
    st.sampled_from(["0", "5\n", "1e3", "0.5", "-0"]),
)
_TOKENS = st.sampled_from(["ReLU", "alpha", "0.5", "2", "0.1", "1e3", "007", "9" * 400])
_ODD_WORDS = st.sampled_from(["A;in_size:4", "x:y", "B;C", "Null", "", "a\nb"])


def _arities(kind: str, key: str) -> tuple[int, ...]:
    if kind == "full" or key in ("dilation", "groups"):
        return (1,)
    if kind == "mf":
        return (1, 3)
    return {"in_size": (3,), "out_size": (3,), "padding": (4 if kind == "pool" else 8,)}.get(
        key, (2,))


def _values(kind: str, field, odd: bool) -> st.SearchStrategy:
    """Texts for one declared field: as rendered, or (``odd``) spelled otherwise."""
    if field.key in _SLOTS:
        arity = st.sampled_from(_arities(kind, field.key))
        if odd:  # a wrong arity, or an atom the grammar refuses
            arity = arity.flatmap(lambda n: st.sampled_from([n, n - 1, n + 1, 0]))
        atoms = st.one_of(_SHORT, _ODD_ATOMS) if odd else _SHORT
        ints = arity.flatmap(lambda n: st.lists(atoms, min_size=n, max_size=n)).map("-".join)
        return st.one_of(ints, st.sampled_from(["4;out_size:5", "3:3", "1-2;kernel:3-3"])) \
            if odd else ints
    if field.shape in (_FLAG, _POOL_TYPE):
        words = field.shape.pattern.split("|")
        return st.sampled_from(words + ["yes", "Yes;x", ""] if odd else words)
    if field.shape is _VALUES:
        tokens = st.lists(_TOKENS, min_size=1, max_size=3).map(lambda v: "-".join(sorted(v)))
        return st.one_of(tokens, st.just("Null"), _ODD_WORDS) if odd else \
            st.one_of(tokens, st.just("Null"))
    return st.one_of(st.just("ReLU"), _ODD_WORDS) if odd else st.just("ReLU")


@st.composite
def _hand_built_lines(draw):
    """A line of any kind built from fields: as rendered, or with one to three odd fields."""
    kind = draw(st.sampled_from(list(UNIT_FIELDS)))
    declared = UNIT_FIELDS[kind][1]
    odd = draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2, 3]))
    odd = set(draw(st.lists(st.integers(0, len(declared) - 1), min_size=odd, max_size=odd)))
    fields = [(f.key, draw(_values(kind, f, i in odd))) for i, f in enumerate(declared)]
    if kind == "pool" and draw(st.integers(0, 3)):  # mostly channels that agree
        head, _, _ = fields[2][1].rpartition("-")
        fields[2] = ("out_size", f"{head}-{fields[1][1].rpartition('-')[2]}")
    change = draw(st.integers(0, 9))
    if change < 2:  # a missing field: act_fun, or any other
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif change < 4:  # two fields as one, whose value holds the second: the same text
        i = draw(st.integers(0, len(fields) - 2))
        (key, value), (key2, value2) = fields[i:i + 2]
        fields[i:i + 2] = [(key, f"{value};{key2}:{value2}")]
    uid = draw(st.integers(1, 999) if draw(st.integers(0, 3)) else st.integers(10**15, 10**20))
    connect = draw(st.sampled_from([None, (2,), (3, 4)]))
    return UnitLine(kind, uid, tuple(fields), connect)


def _outcome(line: UnitLine):
    """The cells and vector of one line, or the refusal both raise."""
    try:
        cells = csv_cells(line)
    except MalformedLineError as exc:
        assert exc.subject == line.id
        with pytest.raises(MalformedLineError) as refused:
            unit_vector(line)
        assert refused.value.subject == line.id
        return MalformedLineError
    assert unit_vector(line).tolist() == [float(c) for c in cells]
    return cells


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(line=_hand_built_lines())
def test_hand_built_lines_vectorize_as_the_reference(line):
    # a built line is read through its own text: the reference cells of the
    # line that description_from_text reads from that text, where its line
    # reader accepts it as a line of the built kind (its id check would
    # refuse a lone line whose id is not 1), and the typed refusal otherwise
    try:
        parsed = _parsed(line.text)
    except ArcTextError:
        parsed = None
    if parsed is None or parsed.unit_kind != line.unit_kind:
        reference = MalformedLineError
    else:
        reference = [reference_cell(x) for x in reference_row(parsed)]
    assert _outcome(line) == reference
    assert "text" not in vars(line)  # nothing is kept: a second read is the same
    assert _outcome(line) == reference


def test_rendered_and_parsed_lines_are_read_by_one_match(resnet4_text, branching25_text):
    rng = random.Random(2017)
    texts = [render_description(gen.random_graph(rng)).text for _ in range(300)]
    for text in texts + [resnet4_text, branching25_text]:
        for line in description_from_text(text).lines:
            assert _PLANS[line.unit_kind][0](line.text), line.text  # the short pattern
