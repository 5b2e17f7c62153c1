"""The unit rules: the spec classes, the field table, proved specs and kept text.

Every unit renders to an ordered list of ``key:value`` fields. The *basic*
fields are everything except ``id`` and ``connect_to``, which depend on the
canonical ordering rather than on the node itself; path fingerprints hash
only the basic fields so that ordering does not feed back into itself.

The fields are declared once, in ``UNIT_FIELDS``: for each unit kind, its
spec class and its basic fields in line order, each with its text key, spec
attribute and value shape. A shape says how a value's text looks (a
pattern), how it is read back (text -> spec value) and checked (a spec-class
argument -> its stored value), and holds the statements that spell a value
as its text (``spell``). They check no value: they format each element with
``%r``, so that anything but an int shows a character no integer pattern
takes. A shape also puts what its pattern accepts into words (``says``), the
one template for a text value the pattern refuses. Next to the table sit the
rules no single value's pattern makes: the connect list (``_CONNECT``), the
value comparisons across fields (``_AGREE``: pool channels, MF values sorted
with no ``Null``), and each spec class's kind (``kind_of``).

A field value has one spelling. At import, the shapes' statements make one
speller per kind and field set (``_SPELLERS``), which spells a mapping of
field values, proves the text by the kind's line pattern and value
comparison, and returns the basic string or None. The graph-file reader in
:mod:`arctext.graphio` runs it on a record, and ``basic_string`` on the
values of a spec built by its class, whose checks leave no value it refuses.

The spec classes check their arguments with the table's shapes. The line
grammar in :mod:`arctext.codec` and the graph-file reader both hand what
they have proved, a spec class and its basic string, to ``proved_spec``,
which runs no spec-class check. The basic string is the one spelling a spec
keeps, in its instance ``__dict__`` the way ``functools.cached_property``
keeps its value (specs are frozen, so it cannot go stale): a spec built by
its class joins it on first use, and its basic fields are read from it when
asked for. A proved spec holds only that string until a value is asked
for; then ``_Unread`` reads every value from it and keeps them. Only this
module spells its key.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple, Union

from .errors import InvalidSpecError

KIND_CONV = "conv"
KIND_POOL = "pool"
KIND_FULL = "full"
KIND_MF = "mf"

POOL_TYPES = ("Max", "Avg")

_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # str()'s limit; 0: none
# the least integer whose decimal form is longer than str() writes
_TOO_LONG = 10 ** _MAX_DIGITS if _MAX_DIGITS else float("inf")

_POS = "[1-9][0-9]" + (f"{{0,{_MAX_DIGITS - 1}}}" if _MAX_DIGITS else "*")  # >= 1, int()-able
_INT = f"(?:0|{_POS})"
# the characters no token holds, which the text grammar separates by; "-"
# comes first, where a character class takes it literally
_RESERVED = "-:;\n"
# a token as the renderer writes it: no separator, no LF, no lone surrogate
_TOKEN = f"[^{_RESERVED}\ud800-\udfff]+"
_NOT_IN_TOKEN = "':', ';', newline or lone surrogate"  # nor "-", which joins tokens


def join_multi(values) -> str:
    return "-".join(map(str, values))


# --- value checks ---------------------------------------------------------------
# Each takes a spec-class argument and its attribute, and returns the value to
# store or raises InvalidSpecError, whose message holds no int str() refuses.

def _shown(value: object) -> str:
    """``repr(value)`` cut after 200 characters; its type if it holds an int too long to write."""
    try:
        shown = repr(value)
    except ValueError:
        return f"{type(value).__name__} of more than {_MAX_DIGITS} digits"
    return shown if len(shown) <= 200 else f"{shown[:200]}... ({len(shown)} characters)"


def _check_int(value: object, what: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpecError(f"{what} must be an integer, got {_shown(value)}")
    if not -_TOO_LONG < value < _TOO_LONG:
        raise InvalidSpecError(f"{what} has more than {_MAX_DIGITS} digits")
    if value < minimum:
        raise InvalidSpecError(f"{what} must be >= {minimum}, got {value}")
    return int(value)  # a subclass's value as an int, which "%r" spells


def _check_token(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidSpecError(f"{what} must be a non-empty string, got {_shown(value)}")
    bad = set(_RESERVED).intersection(value)
    if bad:
        raise InvalidSpecError(
            f"{what} {_shown(value)} contains reserved character(s) {sorted(bad)!r}"
        )
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidSpecError(
            f"{what} {_shown(value)} contains a lone surrogate, which UTF-8 cannot encode"
        ) from None
    return str(value)  # a subclass's value as a str, which the spelling takes


def _is_sequence(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _check_extent(value, attr):  # a bare integer is a 1-tuple
    if isinstance(value, int) and not isinstance(value, bool):
        value = (value,)
    if not _is_sequence(value):
        raise InvalidSpecError(f"{attr} must be an int or a shape tuple")
    items = tuple(value)
    if len(items) not in (1, 3):
        raise InvalidSpecError(f"{attr} must have 1 or 3 elements, got {len(items)}")
    return tuple([_check_int(v, f"{attr} element") for v in items])


def _check_pool_type(value, attr):
    if not isinstance(value, str) or value not in POOL_TYPES:  # no == on a non-string
        raise InvalidSpecError(f"{attr} must be one of {POOL_TYPES}, got {_shown(value)}")
    return str(value)


def _check_flag(value, attr):
    if not isinstance(value, bool):
        raise InvalidSpecError(f"{attr} must be a bool")
    return value


def _check_values(value, attr):
    if isinstance(value, str):
        raise InvalidSpecError(f"{attr} must be a sequence of strings, not a string")
    if isinstance(value, Mapping) or not isinstance(value, Iterable):
        raise InvalidSpecError(
            f"{attr} must be a sequence of strings, got {type(value).__name__}")
    values = tuple(value)
    for v in values:
        _check_token(v, "parameter value")
        if v == "Null":
            raise InvalidSpecError('"Null" is reserved and cannot be a parameter value')
    # code-point order is UTF-8 byte order once lone surrogates are out
    return tuple(sorted(values))


# --- value shapes ---------------------------------------------------------------

def _read_ints(value: str) -> tuple[int, ...]:
    return tuple(map(int, value.split("-")))


def _read_pad_pairs(value: str) -> tuple[tuple[int, int], ...]:
    ints = map(int, value.split("-"))
    return tuple(zip(ints, ints))  # each two in a row


def _read_token(value: str | None) -> str | None:  # a missing optional field reads as None
    return value


def _read_values(value: str) -> tuple[str, ...]:
    return () if value == "Null" else tuple(value.split("-"))


# Each shape's ``spell`` is the statements that take a field value ``{x}``, as
# a spec holds it or ``json.loads`` gives it, to its text ``{t}``; each kind's
# speller runs them inline, under its own local names. They prove nothing: the
# speller matches the text against the field's pattern. Only an int's repr is
# all digits, so "%r" writes any other element with a dot, quote, letter,
# bracket or a doubled "-", which the pattern refuses. A sequence of the wrong
# length raises TypeError or ValueError, and a value of the wrong type gets the
# empty text, which no pattern accepts.

def _spell_typed(cls: type, write="{x}") -> str:
    return f"{{t}} = {write} if type({{x}}) is {cls.__name__} else ''"


def _spell_ints(arity: int) -> str:  # the format takes exactly arity values
    return f"{{t}} = {'-'.join(['%r'] * arity)!r} % tuple({{x}})"


_SPELL_COUNT = "{t} = '%r' % ({x},)"
# written flat, so each pair must hold two values
_SPELL_PAD_PAIRS = """\
({t}a, {t}b), ({t}c, {t}d), ({t}e, {t}f), ({t}g, {t}h) = {x}
{t} = '%r-%r-%r-%r-%r-%r-%r-%r' % ({t}a, {t}b, {t}c, {t}d, {t}e, {t}f, {t}g, {t}h)"""
# a bare integer is a 1-tuple; any length but 1 or 3 leaves a format unfilled or overfilled
_SPELL_EXTENT = """\
{t} = ({x},) if type({x}) is int else tuple({x})
{t} = ('%r' if len({t}) == 1 else '%r-%r-%r') % {t}"""
# their order and a "Null" among them are left to the line's value comparison;
# a "-" inside a value, or the one value "Null", would read back as another list
_SPELL_VALUES = """\
if type({x}) not in (list, tuple):
    {t} = ''
elif {x}:
    {t} = '-'.join({x})
    if {t} == 'Null' or {t}.count('-') >= len({x}):
        {t} = ''
else:
    {t} = 'Null'"""


class _Shape(NamedTuple):
    """How one field's value is spelled, read, worded and checked.

    A value its pattern refuses is worded from ``says`` alone, as "<key> must
    be <says>, got <value>"; a value it accepts can fail only a check across
    values (their order, pool channels, a ``Null`` among MF values), which
    the reader or the spec class words.
    """

    pattern: str  # no capturing groups; makes every check on the value alone
    read: Callable[[str], object]  # a matched value -> its spec argument
    says: str  # what the pattern accepts, in words
    # the statements that spell a field value as its text, which the caller
    # proves; None for a shape no spec field has
    spell: str | None = None
    # a spec-class argument and its attribute -> the value stored, or
    # InvalidSpecError; None for a shape no spec field has
    check: Callable[[object, str], object] | None = None


def _int_shape(arity: int, least=1, read=_read_ints) -> _Shape:
    def check(value, attr):
        if not _is_sequence(value):
            raise InvalidSpecError(f"{attr} must be a sequence of {arity} integers")
        items = tuple(value)
        if len(items) != arity:
            raise InvalidSpecError(f"{attr} must have {arity} elements, got {len(items)}")
        return tuple([_check_int(v, f"{attr} element", least) for v in items])
    atom = _POS if least else _INT
    return _Shape("-".join([atom] * arity), read,
                  f"{arity} integers >= {least} joined by '-'", _spell_ints(arity), check)


_check_pad_pair = _int_shape(2, 0).check


def _check_pad_pairs(value, attr):
    if not isinstance(value, Sequence) or len(value) != 4:
        raise InvalidSpecError(f"{attr} must hold 4 (value, count) pairs")
    return tuple(_check_pad_pair(p, "padding pair") for p in value)


_COUNT = _Shape(_POS, int, "an integer >= 1", _SPELL_COUNT, _check_int)
_PAIR = _int_shape(2)
_SIZE = _int_shape(3)
_PADS = _int_shape(4, 0)
_PAD_PAIRS = _int_shape(8, 0, _read_pad_pairs)._replace(
    spell=_SPELL_PAD_PAIRS, check=_check_pad_pairs)
_EXTENT = _Shape(f"{_POS}(?:-{_POS}-{_POS})?", _read_ints, "1 or 3 integers >= 1 joined by '-'",
                 _SPELL_EXTENT, _check_extent)
_POOL_TYPE = _Shape("|".join(POOL_TYPES), _read_token, " or ".join(map(repr, POOL_TYPES)),
                    _spell_typed(str), _check_pool_type)
_FLAG = _Shape("Yes|No", "Yes".__eq__, "'Yes' or 'No'", _spell_typed(bool, "('No', 'Yes')[{x}]"),
               _check_flag)
_WORD = _Shape(_TOKEN, _read_token, f"a non-empty token with no '-', {_NOT_IN_TOKEN}",
               _spell_typed(str), _check_token)
_VALUES = _Shape(f"{_TOKEN}(?:-{_TOKEN})*", _read_values,
                 f"'Null' or non-empty tokens joined by '-', with no {_NOT_IN_TOKEN}",
                 _SPELL_VALUES, _check_values)


# --- the spec classes -----------------------------------------------------------

class _Spec:
    """Base of the four spec kinds.

    The one spec check: each field's shape checks its argument in table
    order, leaving an optional ``None`` alone, then the pool channels must
    agree. ``proved_spec`` skips it. Only the dataclass fields are pickled,
    so the basic string a spec keeps never changes its pickle.
    """

    def __post_init__(self):
        kind = kind_of(self)
        for f in UNIT_FIELDS[kind][1]:
            value = getattr(self, f.attr)
            if value is not None or not f.optional:
                object.__setattr__(self, f.attr, f.shape.check(value, f.attr))
        if kind == KIND_POOL and self.in_size[2] != self.out_size[2]:
            raise InvalidSpecError(
                "pooling cannot change the channel count "
                f"({self.in_size[2]} -> {self.out_size[2]})"
            )

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class ConvSpec(_Spec):
    """Configuration of a convolutional layer.

    Shapes are (width, height, channels). ``stride`` is (vertical,
    horizontal). ``padding`` holds one (value, count) pair per direction in
    the order up, down, left, right.
    """

    in_size: tuple[int, int, int]
    out_size: tuple[int, int, int]
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[tuple[int, int], ...] = ((0, 0), (0, 0), (0, 0), (0, 0))
    dilation: int = 1
    groups: int = 1
    bias_used: bool = False


@dataclass(frozen=True)
class PoolSpec(_Spec):
    """Configuration of a pooling layer.

    ``padding`` is four pad counts in the order up, down, left, right
    (pooling always pads with zeros, so no pad value is stored). Input and
    output channel counts must agree.
    """

    pool_type: str
    in_size: tuple[int, int, int]
    out_size: tuple[int, int, int]
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[int, int, int, int] = (0, 0, 0, 0)
    dilation: int = 1
    bias_used: bool = False


@dataclass(frozen=True)
class FullSpec(_Spec):
    """Configuration of a fully-connected layer."""

    in_size: int
    out_size: int
    act_fun: str | None = None


@dataclass(frozen=True)
class MFSpec(_Spec):
    """Configuration of a multi-function node (activation, BN, dropout,
    addition/concatenation merge, interpolation, ...).

    Sizes may be a single extent or a full (width, height, channels) shape;
    bare integers are accepted and stored as 1-tuples. Parameter strings in
    ``values`` are stored sorted by their UTF-8 byte order, which is the
    order they are rendered in. The literal ``"Null"`` is reserved to mean
    "no parameters" and is rejected as a parameter value.
    """

    op_name: str
    in_size: tuple[int, ...]
    out_size: tuple[int, ...]
    values: tuple[str, ...] = ()


NodeSpec = Union[ConvSpec, PoolSpec, FullSpec, MFSpec]


class UnitField(NamedTuple):
    key: str  # text key
    attr: str  # spec attribute
    shape: _Shape
    optional: bool = False  # a line may leave the field out


# Each kind's spec class and its fields between id and connect_to, in line
# order, which is also the spec class's field order: matched values go to the
# class positionally, and the class checks its arguments in this order.
# Optional fields come last.
UNIT_FIELDS: dict[str, tuple[type, tuple[UnitField, ...]]] = {
    KIND_CONV: (ConvSpec, (
        UnitField("in_size", "in_size", _SIZE),
        UnitField("out_size", "out_size", _SIZE),
        UnitField("kernel", "kernel", _PAIR),
        UnitField("stride", "stride", _PAIR),
        UnitField("padding", "padding", _PAD_PAIRS),
        UnitField("dilation", "dilation", _COUNT),
        UnitField("groups", "groups", _COUNT),
        UnitField("bias_used", "bias_used", _FLAG),
    )),
    KIND_POOL: (PoolSpec, (
        UnitField("type", "pool_type", _POOL_TYPE),
        UnitField("in_size", "in_size", _SIZE),
        UnitField("out_size", "out_size", _SIZE),
        UnitField("kernel", "kernel", _PAIR),
        UnitField("stride", "stride", _PAIR),
        UnitField("padding", "padding", _PADS),
        UnitField("dilation", "dilation", _COUNT),
        UnitField("bias_used", "bias_used", _FLAG),
    )),
    KIND_FULL: (FullSpec, (
        UnitField("in_size", "in_size", _COUNT),
        UnitField("out_size", "out_size", _COUNT),
        UnitField("act_fun", "act_fun", _WORD, optional=True),
    )),
    KIND_MF: (MFSpec, (
        UnitField("name", "op_name", _WORD),
        UnitField("in_size", "in_size", _EXTENT),
        UnitField("out_size", "out_size", _EXTENT),
        UnitField("value", "values", _VALUES),
    )),
}


def _kind_pattern(fields) -> str:  # each field led by its ";"
    parts = [(f";{f.key}:({f.shape.pattern})", f.optional) for f in fields]
    return "".join(f"(?:{part})?" if optional else part for part, optional in parts)


# the connect list after a line's fields: a sink's "Null", or its targets
_CONNECT = _Shape(f"Null|{_POS}(?:-{_POS})*", _read_ints, "'Null' or integers >= 1 joined by '-'")


def _connect_text(connect_to: tuple[int, ...] | None) -> str:
    return "Null" if connect_to is None else join_multi(connect_to)


def _pairs(parts) -> tuple[tuple[str, str], ...]:  # rendered "key:value" parts; no value holds ":"
    return tuple([part.partition(":")[::2] for part in parts])


# The value comparisons no pattern makes, each on the texts of its ``_AGREE``
# keys, in order; spellings are canonical, so equal text is an equal value.
def _pool_channels_agree(in_size: str, out_size: str) -> bool:
    return in_size.rpartition("-")[2] == out_size.rpartition("-")[2]


def _mf_values_agree(value: str) -> bool:
    tokens = value.split("-")
    return value == "Null" or ("Null" not in tokens and tokens == sorted(tokens))


_AGREE = {KIND_POOL: (("in_size", "out_size"), _pool_channels_agree),
          KIND_MF: (("value",), _mf_values_agree)}


def _speller(kind: str, fields: tuple[UnitField, ...]) -> Callable[[Mapping], str | None]:
    """The speller of ``fields``, the kind's every field or its required ones.

    It reads each field's value by attribute from a mapping (a graph-file
    record or a spec's ``__dict__``), runs the shapes' spelling statements
    inline, in line order, and joins the texts under their keys. It returns
    the joined text if the kind's line pattern and value comparison accept
    it, else None, as for a key it lacks; no field pattern takes a ";", so
    the proved text is the basic string. Its source holds only table
    constants and synthetic local names (``x``: a value, ``t``: its text).
    """
    keys, compare = _AGREE.get(kind, ((), None))
    compared = ", ".join(f"t{i}" for key in keys for i, f in enumerate(fields) if f.key == key)
    texts = "".join(f"t{i}, " for i in range(len(fields)))
    source = "\n".join([
        "def spell(values):",
        "    try:",
        *[f"        x{i} = values[{f.attr!r}]" for i, f in enumerate(fields)],
        *[f"        {line}" for i, f in enumerate(fields)
          for line in f.shape.spell.format(x=f"x{i}", t=f"t{i}").splitlines()],
        "    except (KeyError, TypeError, ValueError):  # a key it lacks, a bad length or element",
        "        return None",
        f"    text = {''.join(f';{f.key}:%s' for f in fields)!r} % ({texts})",
        f"    if proves(text) is None{f' or not agree({compared})' if compare else ''}:",
        "        return None",
        "    return text[1:]",
    ])
    namespace = {"proves": re.compile(_kind_pattern(fields)).fullmatch, "agree": compare}
    exec(compile(source, f"<speller: {kind}, {len(fields)} fields>", "exec"), namespace)
    return namespace["spell"]


# per kind, by the number of fields it spells: the speller of every field and
# of the required ones, which come first; a built spec leaves its None ones out
_SPELLERS = {kind: {n: _speller(kind, fields[:n])
                    for n in {len(fields), sum(not f.optional for f in fields)}}
             for kind, (_, fields) in UNIT_FIELDS.items()}
_OPTIONAL = {kind: [f.attr for f in fields if f.optional]
             for kind, (_, fields) in UNIT_FIELDS.items()}
# each kind's (attr, read) per field, in line order
_ROWS = {kind: tuple((f.attr, f.shape.read) for f in fields)
         for kind, (_, fields) in UNIT_FIELDS.items()}
_KIND_OF_TYPE = {cls: kind for kind, (cls, _) in UNIT_FIELDS.items()}


# --- the specs ------------------------------------------------------------------

class _Unread:
    """A spec field's class attribute, in place of the dataclass default, which ``__init__`` keeps.

    A lookup reaches it only when the spec holds no value: a proved spec
    holds its basic string alone until a value is asked for. Then every
    value is read from the string, once, and kept in the spec's ``__dict__``,
    which later lookups find first, as ``functools.cached_property`` does.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows):
        self.name, self.rows = name, rows  # rows: the kind's _ROWS

    def __get__(self, spec, owner=None):
        if spec is None:
            return self
        memo = spec.__dict__
        text = memo.get("_basic_string")
        if text is None:
            raise AttributeError(f"{type(spec).__name__!r} object has no attribute {self.name!r}")
        # proved, so every value reads; keys and values alternate, neither holding ":" or ";"
        values = text.replace(";", ":").split(":")[1::2]
        for (attr, read), value in zip_longest(self.rows, values):
            memo[attr] = read(value)  # a left-out optional field, always last, reads as None
        return memo[self.name]


for _kind, (_cls, _fields) in UNIT_FIELDS.items():
    for _f in _fields:
        setattr(_cls, _f.attr, _Unread(_f.attr, _ROWS[_kind]))


def proved_spec(cls: type, text: str) -> NodeSpec:
    """A ``cls`` spec of the proved basic string ``text``; no ``__post_init__`` runs.

    The spec keeps the string and reads its values from it on first use.
    """
    spec = object.__new__(cls)
    spec.__dict__["_basic_string"] = text
    return spec


def kind_of(spec: NodeSpec) -> str:
    kind = _KIND_OF_TYPE.get(type(spec))
    if kind is not None:
        return kind
    for kind, (cls, _) in UNIT_FIELDS.items():  # a subclass of a spec class
        if isinstance(spec, cls):
            return kind
    raise TypeError(f"not a node spec: {type(spec).__name__}")


# --- the writer -------------------------------------------------------------------

def basic_fields(spec: NodeSpec) -> tuple[tuple[str, str], ...]:
    """Ordered ``(key, value)`` fields of a unit, minus id and connect_to, from its basic string."""
    return _pairs(basic_string(spec).split(";"))


def basic_string(spec: NodeSpec) -> str:
    """The fields of a unit as rendered text, without id or connect_to."""
    memo = getattr(spec, "__dict__", {})  # a non-spec fails in kind_of
    text = memo.get("_basic_string")
    if text is None:  # built by its class: every value checked, None only where a field is left out
        kind = kind_of(spec)
        left_out = sum(memo[attr] is None for attr in _OPTIONAL[kind])
        text = memo["_basic_string"] = _SPELLERS[kind][len(_ROWS[kind]) - left_out](memo)
    return text
