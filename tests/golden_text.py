"""Digests of what the text side gives, and the script that records them.

    PYTHONPATH=src python tests/golden_text.py

rewrites ``tests/golden/text.txt``; ``tests/test_golden.py`` recomputes every
entry and names the first one that differs. Each line holds a family, an
index and short SHA-256 digests:

- ``fixtures`` and ``c03``: both fixture graph files, then the 1,000 graphs
  of acceptance criterion 3 (``random.Random(1003)``). Each description is
  read as rendered and again through ``description_from_text``; for each
  reading, the digests of its ``vectors_csv``, of its token ids through one
  open ``Vocabulary`` shared by every entry, and of every line's
  ``(unit_kind, id, fields, connect_to, text)``.
- ``vocabulary``: that shared vocabulary's ``to_json()`` after both families.
- ``mutants``: 2,000 seeded mutants of rendered lines, each read by
  ``parse_line`` for both its spec and its line; the digest of the spec's
  basic string and the line's tuple, or of the error type, message and
  subject.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from arctext import (
    ArcTextError,
    Vocabulary,
    description_from_text,
    load_graph_file,
    render_description,
    tokenize,
    vectors_csv,
)
from arctext.codec import _BOTH, parse_line
from arctext.unitformat import basic_string

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # the test helpers, when run as a script

import gen  # noqa: E402
from golden_graph_file import FIXTURES, _digest  # noqa: E402
from test_codec import _field_mutant, _mutate  # noqa: E402

GOLDEN = HERE / "golden" / "text.txt"


def _line_tuple(line) -> tuple:
    return (line.unit_kind, line.id, line.fields, line.connect_to, line.text)


def _reading(d, vocabulary: Vocabulary) -> str:
    ids = [[token.token_id for token in unit] for unit in tokenize(d, vocabulary).units]
    return " ".join([_digest(vectors_csv(d)), _digest(repr(ids)),
                     _digest(repr([_line_tuple(line) for line in d.lines]))])


def _description_entry(g, vocabulary: Vocabulary) -> str:
    rendered = render_description(g)
    read = description_from_text(rendered.text)
    return f"{_reading(rendered, vocabulary)} {_reading(read, vocabulary)}"


def _mutant_entry(line: str) -> str:
    try:
        _, spec, _, unit = parse_line(line, 1, _want=_BOTH)
    except ArcTextError as exc:
        return _digest(f"{type(exc).__name__}: {exc} {exc.subject!r}")
    return _digest(repr((basic_string(spec), _line_tuple(unit))))


def families() -> dict[str, list[str]]:
    """Each family's entries, in index order."""
    vocabulary = Vocabulary.default()
    fixtures = [_description_entry(load_graph_file(FIXTURES / f"{stem}.json"), vocabulary)
                for stem in ("resnet4", "branching25")]
    rng = random.Random(1003)  # the C03 corpus
    c03 = [_description_entry(gen.random_graph(rng, min_nodes=5, max_nodes=40, max_skips=3),
                              vocabulary)
           for _ in range(1000)]
    rng = random.Random(2311)
    lines = [line for _ in range(100)
             for line in render_description(gen.random_graph(rng)).text.split("\n")]
    mutants = [
        _mutant_entry(_field_mutant(line, rng) if rng.random() < 0.8 else _mutate(line, rng))
        for line in (rng.choice(lines) for _ in range(2000))
    ]
    return {"fixtures": fixtures, "c03": c03, "vocabulary": [_digest(vocabulary.to_json())],
            "mutants": mutants}


def main() -> None:
    lines = ["# family index digests; regenerate with: PYTHONPATH=src python tests/golden_text.py"]
    lines += [f"{family} {i} {entry}"
              for family, entries in families().items() for i, entry in enumerate(entries)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
