"""Each shared unit rule has one owner, :mod:`arctext.unitformat`.

The readers may call what it exports, but only it spells the keys under
which a spec keeps its basic fields and string, only it defines the spec
classes and their check, and the graph-file reader takes nothing private
from the text codec.
"""

import ast
from pathlib import Path

import pytest

import arctext

PACKAGE = Path(arctext.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MEMO_KEYS = {"_basic_fields", "_basic_string"}


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
