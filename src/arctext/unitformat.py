"""Per-kind field rendering shared by the canonicalizer and the codec.

Every unit renders to an ordered list of ``key:value`` fields. The *basic*
fields are everything except ``id`` and ``connect_to``, which depend on the
canonical ordering rather than on the node itself; path fingerprints hash
only the basic fields so that ordering does not feed back into itself.

Each spec's basic fields and basic string are computed on first use and
kept in the spec's instance ``__dict__``, the way ``functools.cached_property``
keeps its value; specs are frozen, so the kept value cannot go stale.
"""

from __future__ import annotations

from .model import ConvSpec, FullSpec, MFSpec, NodeSpec, PoolSpec

KIND_CONV = "conv"
KIND_POOL = "pool"
KIND_FULL = "full"
KIND_MF = "mf"


def kind_of(spec: NodeSpec) -> str:
    if isinstance(spec, ConvSpec):
        return KIND_CONV
    if isinstance(spec, PoolSpec):
        return KIND_POOL
    if isinstance(spec, FullSpec):
        return KIND_FULL
    if isinstance(spec, MFSpec):
        return KIND_MF
    raise TypeError(f"not a node spec: {type(spec).__name__}")


def join_multi(values) -> str:
    return "-".join(map(str, values))


def yes_no(flag: bool) -> str:
    return "Yes" if flag else "No"


def basic_fields(spec: NodeSpec) -> tuple[tuple[str, str], ...]:
    """Ordered ``(key, value)`` fields of a unit, minus id and connect_to."""
    memo = getattr(spec, "__dict__", {})  # a non-spec fails in _basic_fields
    fields = memo.get("_basic_fields")
    if fields is None:
        fields = memo["_basic_fields"] = _basic_fields(spec)
    return fields


def _basic_fields(spec: NodeSpec) -> tuple[tuple[str, str], ...]:
    if isinstance(spec, ConvSpec):
        flat_pad = [x for pair in spec.padding for x in pair]
        return (
            ("in_size", join_multi(spec.in_size)),
            ("out_size", join_multi(spec.out_size)),
            ("kernel", join_multi(spec.kernel)),
            ("stride", join_multi(spec.stride)),
            ("padding", join_multi(flat_pad)),
            ("dilation", str(spec.dilation)),
            ("groups", str(spec.groups)),
            ("bias_used", yes_no(spec.bias_used)),
        )
    if isinstance(spec, PoolSpec):
        return (
            ("type", spec.pool_type),
            ("in_size", join_multi(spec.in_size)),
            ("out_size", join_multi(spec.out_size)),
            ("kernel", join_multi(spec.kernel)),
            ("stride", join_multi(spec.stride)),
            ("padding", join_multi(spec.padding)),
            ("dilation", str(spec.dilation)),
            ("bias_used", yes_no(spec.bias_used)),
        )
    if isinstance(spec, FullSpec):
        fields = (("in_size", str(spec.in_size)), ("out_size", str(spec.out_size)))
        if spec.act_fun is not None:
            fields += (("act_fun", spec.act_fun),)
        return fields
    if isinstance(spec, MFSpec):
        return (
            ("name", spec.op_name),
            ("in_size", join_multi(spec.in_size)),
            ("out_size", join_multi(spec.out_size)),
            ("value", join_multi(spec.values) if spec.values else "Null"),
        )
    raise TypeError(f"not a node spec: {type(spec).__name__}")


def basic_string(spec: NodeSpec) -> str:
    """The fields of a unit as rendered text, without id or connect_to."""
    memo = getattr(spec, "__dict__", {})
    text = memo.get("_basic_string")
    if text is None:
        text = memo["_basic_string"] = ";".join(f"{k}:{v}" for k, v in basic_fields(spec))
    return text
