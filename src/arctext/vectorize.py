"""Token streams and fixed-width unit vectors for downstream mining.

Tokenization is reversible: every separator is its own token, numbers ride
on a dedicated NUM token carrying their value, and everything else (operation
names, activation names, non-numeric parameters) is a vocabulary word. A
number is only encoded by value when its lexeme is the canonical spelling of
that value; oddly spelled numbers ("007", "1e3") stay words so detokenize
can always reproduce the source bytes. So does an integer of more digits
than ``int()`` converts.

Each line also becomes a fixed row of ``VECTOR_SLOTS``. Which fields fill
slots, and how, is read off each kind's declared fields (``UNIT_FIELDS``). A
slot's CSV cell is its value as ``float()`` reads it, written as an integer
when it is integral and by ``repr`` otherwise. Every row comes from one
match of its kind's cell pattern: the kind's line pattern with the id, each
integer of a slot field and each word that sets a slot captured. An integer
of at most 15 digits is exact in a float, so its text is its cell; a line
holding a longer one is matched by a second pattern with the same groups,
and only those cells go through ``float()``. A parsed or rendered
description's lines are read straight from its proved text, as the kind its
keys tell, and so is a parsed or rendered line. A line built by hand is read
through its own ``text`` once ``codec.parse_line`` reads that as a line of
its kind; any other raises ``MalformedLineError`` naming its id.
``unit_vector`` is ``float()`` of the same cells.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .codec import Description, UnitLine, _line_kind, _not_well_formed, parse_line
from .errors import (
    ArcTextError, IoError, SchemaError, UnknownTokenError, read_text,
)
from .unitformat import (
    _CONNECT, _COUNT, _FLAG, _INT, _PAD_PAIRS, _POOL_TYPE, _POS, _VALUES, UNIT_FIELDS,
    _read_values,
)

_NUMBER_RE = re.compile(_INT)  # an integer's spelling that int() converts

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
NUM_TOKEN = "<num>"

_STRUCTURAL = (
    ":", ";", "-", NUM_TOKEN,
    "id", "in_size", "out_size", "kernel", "stride", "padding",
    "dilation", "groups", "bias_used", "type", "name", "value",
    "act_fun", "connect_to",
    "Max", "Avg", "Yes", "No", "Null",
)


class Vocabulary:
    """Injective token <-> id map with reserved padding/unknown slots.

    The default vocabulary is open: unseen words are assigned fresh ids.
    A closed vocabulary refuses unseen words with UnknownTokenError, which
    is what a model trained on a frozen token set needs.
    """

    def __init__(self, ids: dict[str, int], closed: bool = False):
        lexemes: dict[int, str] = {}
        for lexeme, tid in ids.items():
            if tid in lexemes:
                raise SchemaError(f"token id {tid} assigned twice")
            lexemes[tid] = lexeme
        for tid, expected in ((PAD_ID, PAD_TOKEN), (UNK_ID, UNK_TOKEN)):
            if lexemes.get(tid) != expected:
                raise SchemaError(f"id {tid} is reserved for {expected!r}")
        self._ids = dict(ids)
        self._lexemes = lexemes
        self._next_id = max(lexemes) + 1  # new words go above every id, gaps stay
        self.closed = closed
        # the Token given to each key or separator, and to each value atom;
        # ids are never reassigned, so a kept token cannot go stale. Never saved;
        # grows with the distinct lexemes read, numbers too, even when closed.
        self._words: dict[str, Token] = {}
        self._atoms: dict[str, Token] = {}

    @classmethod
    def default(cls, closed: bool = False) -> "Vocabulary":
        ids = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        ids.update({tok: i for i, tok in enumerate(_STRUCTURAL, start=2)})
        return cls(ids, closed=closed)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, lexeme: str) -> bool:
        return lexeme in self._ids

    def token_id(self, lexeme: str) -> int:
        tid = self._ids.get(lexeme)
        if tid is not None:
            return tid
        if self.closed:
            raise UnknownTokenError(
                f"{lexeme!r} is not in the closed vocabulary", subject=lexeme
            )
        tid = self._next_id
        self._next_id += 1
        self._ids[lexeme] = tid
        self._lexemes[tid] = lexeme
        return tid

    def _word(self, lexeme: str) -> "Token":
        token = self._words[lexeme] = Token(self.token_id(lexeme))
        return token

    def _atom(self, atom: str) -> "Token":
        num = _numeric(atom)
        token = self._atoms[atom] = Token(self.token_id(atom if num is None else NUM_TOKEN), num)
        return token

    def lexeme(self, token_id: int) -> str:
        try:
            return self._lexemes[token_id]
        except KeyError:
            raise UnknownTokenError(f"no token with id {token_id}", subject=token_id)

    def to_json(self) -> str:
        doc = {"closed": self.closed, "tokens": self._ids}
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
            raise SchemaError(f"vocabulary is not valid JSON: {exc}") from exc
        if (
            not isinstance(doc, dict)
            or set(doc) != {"closed", "tokens"}
            or not isinstance(doc["closed"], bool)
            or not isinstance(doc["tokens"], dict)
        ):
            raise SchemaError('vocabulary must be {"closed": bool, "tokens": {...}}')
        tokens = doc["tokens"]
        for lexeme, tid in tokens.items():
            if not isinstance(tid, int) or isinstance(tid, bool) or tid < 0:
                raise SchemaError(f"token {lexeme!r} has invalid id {tid!r}")
        return cls(tokens, closed=doc["closed"])

    def save(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.to_json())
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls.from_json(read_text(path, SchemaError))


@dataclass(frozen=True)
class Token:
    token_id: int
    value: int | float | None = None


@dataclass(frozen=True)
class TokenStream:
    """Token sequences, one tuple per unit line."""

    units: tuple[tuple[Token, ...], ...]


def _numeric(atom: str) -> int | float | None:
    if _NUMBER_RE.fullmatch(atom):
        return int(atom)
    try:
        val = float(atom)
    except ValueError:
        return None
    # only when the lexeme is the value's canonical spelling
    if math.isfinite(val) and repr(val) == atom:
        return val
    return None


def tokenize(d: Description, v: Vocabulary) -> TokenStream:
    # the vocabulary keeps the token it gives each lexeme, keys and separators
    # as words and value atoms by their number check, so a lexeme costs one
    # lookup after the first; a lexeme it does not keep yet meets it at its
    # first occurrence in the text, which fixes the ids an open vocabulary
    # assigns and asks a closed one only for what the text holds
    words, atoms = v._words, v._atoms
    sep, colon, dash = words.get(";"), words.get(":"), words.get("-")
    units = []
    lines = d.__dict__.get("lines")  # None: a proved text, whose lines are read from it
    for text in d.text.split("\n") if lines is None else (line.text for line in lines):
        tokens: list[Token] = []
        for part in text.split(";"):
            if tokens:
                tokens.append(sep or (sep := v._word(";")))
            key, _, value = part.partition(":")
            tokens.append(words.get(key) or v._word(key))
            tokens.append(colon or (colon := v._word(":")))
            if "-" not in value:  # most values are one atom
                tokens.append(atoms.get(value) or v._atom(value))
                continue
            for i, atom in enumerate(value.split("-")):
                if i:
                    tokens.append(dash or (dash := v._word("-")))
                tokens.append(atoms.get(atom) or v._atom(atom))
        units.append(tuple(tokens))
    return TokenStream(tuple(units))


def detokenize(stream: TokenStream, v: Vocabulary) -> str:
    num_id = v._ids.get(NUM_TOKEN)  # a reader: never adds <num> to the vocabulary
    lines = []
    for unit in stream.units:
        pieces = []
        for token in unit:
            if token.token_id == num_id and token.value is not None:
                pieces.append(
                    str(token.value) if isinstance(token.value, int)
                    else repr(token.value)
                )
            else:
                pieces.append(v.lexeme(token.token_id))
        lines.append("".join(pieces))
    return "\n".join(lines)


# --- fixed-width per-unit vectors ---------------------------------------------

VECTOR_SLOTS = (
    "kind_conv", "kind_pool", "kind_full", "kind_mf",
    "id",
    "in_w", "in_h", "in_c",
    "out_w", "out_h", "out_c",
    "kernel_w", "kernel_h",
    "stride_v", "stride_h",
    "pad_up", "pad_down", "pad_left", "pad_right",
    "dilation", "groups", "bias", "pool_max", "mf_value",
)

# text key -> the slots its values fill, left to right; a value with fewer
# values than slots (a 1-value size) leaves the rest 0
_SLOTS = {
    "in_size": slice(5, 8), "out_size": slice(8, 11), "kernel": slice(11, 13),
    "stride": slice(13, 15), "padding": slice(15, 19), "dilation": slice(19, 20),
    "groups": slice(20, 21),
}

_CONSTANTS = ("0", "1")  # what a row holds outside the groups


def _cell(text: str) -> str:
    """The CSV cell of ``float(text)``: an integral value without its ".0"."""
    x = float(text)  # an integer beyond a float's range reads as inf
    return str(int(x)) if x.is_integer() else repr(x)


def _first_number(text: str) -> str:
    for atom in _read_values(text):  # "Null" holds no number
        if (num := _numeric(atom)) is not None:
            # spelled as its value, an integer of at most 15 digits or a fraction is its own cell
            own = len(atom) <= 15 if type(num) is int else not num.is_integer()
            return atom if own else _cell(atom)
    return "0"


def _one_if(word: str):
    return lambda text: "1" if text == word else "0"


# each shape of a word that sets a slot: that slot, and the reader of its cell
_WORDS = {
    _FLAG: (VECTOR_SLOTS.index("bias"), _one_if("Yes")),
    _POOL_TYPE: (VECTOR_SLOTS.index("pool_max"), _one_if("Max")),
    _VALUES: (VECTOR_SLOTS.index("mf_value"), _first_number),
}

# An integer as the cell patterns capture it: at most 15 digits long, whose
# text is its cell as every integer below 10**15 is exact in a float, or any
# length str() writes. One alternation swaps each whole, as _INT holds _POS.
_SHORT = {_INT: "(?:0|[1-9][0-9]{0,14})", _POS: "[1-9][0-9]{0,14}"}
_ANY = {_INT: _INT, _POS: _POS}
_INTEGERS = re.compile(f"{re.escape(_INT)}|{re.escape(_POS)}")


def _plan(kind: str, fields) -> tuple:
    """How a row of ``kind`` is read: its two cell patterns, picker and word readers.

    Both patterns spell the kind's line with the same groups: the id and
    each integer of a slot field, at most 15 digits long in the first and
    of any length in the second, and each word that sets a slot, whole. The
    picker takes their groups (an absent atom is "0") followed by
    ``_CONSTANTS`` to the row, which holds the kind's slot 1 and the rest 0;
    each word reader then turns the word in its slot into its cell.
    """
    parts, slots, words = [f"id:{_COUNT.pattern}"], [4], []  # slot per group
    for f in fields:
        fragment, filled = f.shape.pattern, _SLOTS.get(f.key)
        if filled is not None:
            filled = list(range(filled.start, filled.stop))
            if f.shape is _PAD_PAIRS:  # a pad value fills no slot
                filled = [slot for count in filled for slot in (None, count)]
            slots += filled[:len(_INTEGERS.findall(fragment))]
        elif f.shape in _WORDS:  # any other word (an MF name, an activation) fills none
            fragment = f"({fragment})"
            slots.append(_WORDS[f.shape][0])
            words.append(_WORDS[f.shape])
        part = f";{f.key}:(?:{fragment})"
        parts.append(f"(?:{part})?" if f.optional else part)
    blank = ["1" if name == f"kind_{kind}" else "0" for name in VECTOR_SLOTS]
    source = [len(slots) + _CONSTANTS.index(cell) for cell in blank]
    for group, slot in enumerate(slots):
        if slot is not None:
            source[slot] = group
    body, connect = "".join(parts), f";connect_to:(?:{_CONNECT.pattern})"
    short, long = [
        re.compile(_INTEGERS.sub(lambda m: f"({ints[m[0]]})", body) + connect).fullmatch
        for ints in (_SHORT, _ANY)]
    return short, long, itemgetter(*source), tuple(words)


_PLANS = {kind: _plan(kind, fields) for kind, (_, fields) in UNIT_FIELDS.items()}


def _proved_text(line: UnitLine) -> str:
    """A parsed or rendered line's text; a built one's once the grammar reads it as its kind."""
    text = line.__dict__.get("text")
    if text is not None:
        return text
    text = line.text  # MalformedLineError: fields that cannot be spelled
    try:
        parse_line(text)
        if _line_kind(text) == line.unit_kind:
            return text
    except ArcTextError:
        pass
    raise _not_well_formed(line)


def _unit_cells(kind: str, text: str) -> list[str]:
    """The 24 slots of a proved line of ``kind`` as CSV cells; absent fields stay 0."""
    short, long, pick, words = _PLANS[kind]
    match = short(text)
    row = list(pick((match or long(text)).groups("0") + _CONSTANTS))
    for slot, read in words:
        row[slot] = read(row[slot])
    if match is None:  # an integer of more than 15 digits
        return [cell if len(cell) <= 15 else _cell(cell) for cell in row]
    return row


def unit_vector(line: UnitLine) -> np.ndarray:
    """A 24-slot numeric summary of one line; absent fields stay 0."""
    return np.array([float(cell) for cell in _unit_cells(line.unit_kind, _proved_text(line))])


def vectors_csv(d: Description) -> str:
    """One unit per row, comma-separated, with a slot-name header."""
    rows = [",".join(VECTOR_SLOTS)]
    lines = d.__dict__.get("lines")  # None: a proved text, whose lines are read from it
    pairs = ([(_line_kind(text), text) for text in d.text.split("\n")] if lines is None
             else [(line.unit_kind, _proved_text(line)) for line in lines])
    rows += [",".join(_unit_cells(kind, text)) for kind, text in pairs]
    return "\n".join(rows) + "\n"
