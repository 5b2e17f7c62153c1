"""Each shared unit rule has one owner, :mod:`arctext.unitformat`.

The readers may call what it exports, but only it spells the key under
which a spec keeps its basic string (in module source and in the graph-file
readers generated at import), only it defines the spec classes and their
check, and the graph-file reader takes nothing private from the text codec.
A spec keeps nothing else, and a proved spec, read from a text line or a
graph file, keeps only its basic string until a value is asked for, which
only unitformat reads from it. The generated graph-file readers spell text
only. A proved line keeps its text and no fields: one constructor in the
codec makes every proved line, and a rendered or parsed description calls
it only once its lines are read, which neither vectorizer does.
"""

import ast
import random
import re
from pathlib import Path

import pytest

import arctext
from arctext import (
    codec,
    description_from_text,
    graphio,
    parse_description,
    parse_graph_json,
    parse_line,
    render_description,
    render_unit,
    unitformat,
)
from arctext.graphio import graph_to_json
from arctext.unitformat import _CONNECT, UNIT_FIELDS, basic_fields

import gen

PACKAGE = Path(arctext.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MEMO_KEYS = {"_basic_string"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_read():
    assert {"unitformat.py", "codec.py", "graphio.py", "model.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "unitformat"],
                         ids=lambda p: p.stem)
def test_only_unitformat_spells_the_memo_keys(path):
    spelled = [
        node.lineno for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in MEMO_KEYS
        or isinstance(node, ast.keyword) and node.arg in MEMO_KEYS
    ]
    assert spelled == [], f"{path.name} spells a spec's memo key on line(s) {spelled}"


def test_unitformat_spells_the_memo_keys():
    # the check above reads the right spelling
    tree = _tree(PACKAGE / "unitformat.py")
    keywords = {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert MEMO_KEYS <= keywords | constants


def _code_words(code) -> set:
    """The names and constants of a code object and of those nested in it."""
    words, stack = set(code.co_names), list(code.co_consts)
    while stack:
        const = stack.pop()
        if isinstance(const, tuple):
            stack += const
        elif hasattr(const, "co_consts"):
            words |= _code_words(const)
        else:
            words.add(const)
    return words


def test_no_generated_graph_file_reader_spells_the_memo_keys():
    # the readers are built from source at import, which the checks above never see
    readers = [read for by_count in graphio._READERS.values() for _, read in by_count.values()]
    assert len(readers) == 5  # one per kind, and two for full, whose act_fun is optional
    for read in readers:
        spelled = MEMO_KEYS & _code_words(read.__code__)
        assert not spelled, f"{read.__code__.co_filename} spells {sorted(spelled)}"
    # the check reads the right spelling
    assert MEMO_KEYS <= _code_words(unitformat.proved_spec.__code__)


def test_generated_graph_file_readers_spell_text_only():
    # each local is the record, a JSON value (x), a text or a padding element
    # on its way to one (t) or the joined text: no reader builds a spec value
    for by_count in graphio._READERS.values():
        for _, read in by_count.values():
            names = read.__code__.co_varnames
            assert [n for n in names if not re.fullmatch(r"record|text|x\d+|t\d+[a-h]?", n)] == []
            assert {"record", "text", "x0", "t0"} <= set(names)


SPEC_CLASSES = {"ConvSpec", "PoolSpec", "FullSpec", "MFSpec"}


def _spec_definitions(path: Path) -> list[str]:
    return sorted(
        f"{node.name}:{node.lineno}" for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and node.name in SPEC_CLASSES
        or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "__post_init__"
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "unitformat"],
                         ids=lambda p: p.stem)
def test_only_unitformat_defines_the_spec_classes_and_their_check(path):
    assert _spec_definitions(path) == [], f"{path.name} defines a spec class or a spec check"


def test_unitformat_defines_the_spec_classes_and_one_check():
    # the check above reads the right names
    names = [d.partition(":")[0] for d in _spec_definitions(PACKAGE / "unitformat.py")]
    assert sorted(names) == sorted(SPEC_CLASSES | {"__post_init__"})


def test_unitformat_imports_nothing_from_model():
    imported = [
        node.lineno for node in ast.walk(_tree(PACKAGE / "unitformat.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 and node.module == "model" or node.module == "arctext.model")
    ]
    assert imported == []


def test_graphio_imports_nothing_private_from_codec():
    private = [
        alias.name for node in ast.walk(_tree(PACKAGE / "graphio.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 and node.module == "codec" or node.module == "arctext.codec")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def _proved_line_builders() -> list[str]:
    """Where the package spells ``object.__new__(UnitLine)``, as module.function."""
    found = []
    for path in MODULES:
        for func in ast.walk(_tree(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [
                f"{path.stem}.{func.name}" for node in ast.walk(func)
                if isinstance(node, ast.Call) and ast.unparse(node) == "object.__new__(UnitLine)"
            ]
    return found


def test_one_constructor_makes_every_proved_line():
    assert _proved_line_builders() == ["codec._proved_line"]
    # nothing spells it outside a function either
    spelled = sum(ast.unparse(_tree(path)).count("object.__new__(UnitLine)") for path in MODULES)
    assert spelled == 1


def test_a_rendered_description_builds_its_lines_on_first_use(monkeypatch):
    made = []
    proved_line = codec._proved_line

    def counted(*args):
        made.append(1)
        return proved_line(*args)

    monkeypatch.setattr(codec, "_proved_line", counted)
    rng = random.Random(1003)  # the C03 corpus
    graphs = [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3) for _ in range(50)]
    for g in graphs + [gen.resnext_graph(1, 4), gen.chain_graph(1)]:
        made.clear()
        d = render_description(g)
        assert made == [] and set(vars(d)) == {"text"}
        assert len(d.lines) == len(g)
        assert len(made) == len(g) and set(vars(d)) == {"text", "lines"}
        d.lines  # kept: read once
        assert len(made) == len(g)


def test_the_vectorizers_read_a_description_held_as_text(monkeypatch):
    # tokenize and vectors_csv read each line straight from the text of a
    # rendered or parsed description: they make no line and build no spec
    made = []
    proved_line = codec._proved_line

    def counted(*args):
        made.append(1)
        return proved_line(*args)

    def built(*args):
        raise AssertionError("a spec was built")

    rng = random.Random(1003)  # the C03 corpus
    graphs = [gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3) for _ in range(50)]
    graphs += [gen.resnext_graph(1, 4), gen.chain_graph(1)]
    texts = [render_description(g).text for g in graphs]
    parsed = [codec._parse_text(text)[2] for text in texts]  # the graph's specs are built here
    monkeypatch.setattr(codec, "_proved_line", counted)
    monkeypatch.setattr(codec, "proved_spec", built)
    monkeypatch.setattr(unitformat, "proved_spec", built)
    vocab = arctext.Vocabulary.default()
    for g, text, read in zip(graphs, texts, parsed):
        for d in (render_description(g), description_from_text(text),
                  description_from_text(text + "\n"), read):
            assert set(vars(d)) == {"text"}
            assert len(arctext.tokenize(d, vocab).units) == len(g)
            assert arctext.vectors_csv(d).count("\n") == len(g) + 1
            assert made == [] and set(vars(d)) == {"text"}


def _text_pairs(text: str) -> tuple:
    return tuple(tuple(part.split(":", 1)) for part in text.split(";")[1:-1])


def test_specs_keep_one_spelling_and_proved_lines_keep_their_text():
    rng = random.Random(2312)
    graphs = [parse_graph_json(graph_to_json(gen.random_graph(rng))) for _ in range(50)]
    for g in graphs:
        d = render_description(g)
        lines = list(d.lines)
        lines += description_from_text(d.text).lines
        for name in g.names():
            spec = g.spec(name)
            assert set(vars(spec)) == {"_basic_string"}  # rendering read no value
            getattr(spec, rng.choice(list(spec.__dataclass_fields__)))  # reads every value
            assert set(vars(spec)) == {*spec.__dataclass_fields__, "_basic_string"}
        for line in d.lines:
            uid, spec, connect = parse_line(line.text)
            assert basic_fields(spec) == _text_pairs(line.text)  # reads no value on the way
            assert set(vars(spec)) == {"_basic_string"}
            getattr(spec, rng.choice(list(spec.__dataclass_fields__)))  # reads every value
            assert set(vars(spec)) == {*spec.__dataclass_fields__, "_basic_string"}
            lines += [codec._proved_line(uid, line.text), render_unit(spec, line.id, connect)]
        for line in lines:
            assert set(vars(line)) == {"unit_kind", "id", "connect_to", "text"}
            assert line.fields == _text_pairs(line.text)


def test_only_unitformat_reads_parsed_values():
    # the codec reads connect lists, which are no spec's values, and holds no
    # other reader; a spec it builds reads its values from its basic string
    # in unitformat
    readers = {f.shape.read for _, fields in UNIT_FIELDS.values() for f in fields}
    assert readers == {row[3] for rows in unitformat._ROWS.values() for row in rows}
    spec_readers = [read for read in readers if read is not _CONNECT.read]
    assert len(spec_readers) == len(readers) - 1  # connect lists read as sizes do
    held = [name for name, value in vars(codec).items()
            if any(value is read for read in spec_readers)]
    assert held == []
    rng = random.Random(2313)
    for made in (gen.rand_conv, gen.rand_pool, gen.rand_full, gen.rand_mf) * 5:
        public = made(rng)
        line = render_unit(public, 1, None).text
        for spec in (parse_line(line)[1], parse_description(line)[0].spec("n1")):
            assert type(spec) is type(public) and set(vars(spec)) == {"_basic_string"}
