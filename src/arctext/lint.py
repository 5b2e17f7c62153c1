"""Warn-only consistency checks of declared shapes.

Descriptions copy shapes verbatim from the source network, so disagreement
between a node's declared output and what its own parameters imply is worth
flagging but never blocks rendering. Fully-connected nodes are never
checked (nothing in the line constrains them), and multi-function nodes are
checked for shape preservation unless their operation is expected to change
shape (concatenation, interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpecError, NonPositiveOutputError
from .model import ArchGraph
from .unitformat import ConvSpec, FullSpec, MFSpec, PoolSpec, basic_fields

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_UNCHECKED = "unchecked"

DEFAULT_SHAPE_CHANGE_OPS = ("Concatenation", "Interpolation")


def conv_output_extent(in_: int, kernel: int, stride: int, pad_total: int, dilation: int) -> int:
    """Output extent of a convolution or pooling window along one axis."""
    if min(in_, kernel, stride, dilation) < 1:
        raise InvalidSpecError("in, kernel, stride and dilation must be >= 1")
    if pad_total < 0:
        raise InvalidSpecError("pad_total must be >= 0")
    out = (in_ + pad_total - dilation * (kernel - 1) - 1) // stride + 1
    if out < 1:
        raise NonPositiveOutputError(
            f"kernel {kernel} (dilation {dilation}) does not fit into "
            f"extent {in_} with padding {pad_total}"
        )
    return out


pool_output_extent = conv_output_extent  # pooling windows use the same arithmetic


@dataclass(frozen=True)
class ShapeEntry:
    node: str
    expected: tuple[int, ...] | None
    declared: tuple[int, ...]
    status: str
    note: str = ""


@dataclass(frozen=True)
class ShapeReport:
    """Per-node verdicts plus merge-shape warnings that belong to no single node."""

    entries: tuple[ShapeEntry, ...]
    addition_warnings: tuple[str, ...]

    def mismatches(self) -> tuple[ShapeEntry, ...]:
        return tuple(e for e in self.entries if e.status == STATUS_MISMATCH)

    @property
    def clean(self) -> bool:
        return not self.mismatches() and not self.addition_warnings


def _window(spec: ConvSpec | PoolSpec, pads) -> tuple[int, int]:
    """Output (width, height) of a conv or pool window; pads: up, down, left, right."""
    up, down, left, right = pads
    width = conv_output_extent(
        spec.in_size[0], spec.kernel[0], spec.stride[1],
        left + right, spec.dilation,
    )
    height = conv_output_extent(
        spec.in_size[1], spec.kernel[1], spec.stride[0],
        up + down, spec.dilation,
    )
    return width, height


def lint_shapes(
    g: ArchGraph,
    *,
    shape_change_ops=DEFAULT_SHAPE_CHANGE_OPS,
) -> ShapeReport:
    """Check every node's declared out_size against its own parameters."""
    allow = set(shape_change_ops)
    entries: list[ShapeEntry] = []
    warnings: list[str] = []
    for name in g.names():
        spec = g.spec(name)
        expected, declared, status, note = None, spec.out_size, STATUS_UNCHECKED, ""
        if isinstance(spec, (ConvSpec, PoolSpec)):
            conv = isinstance(spec, ConvSpec)
            # conv padding is a (value, count) pair per direction, pool's a count
            pads = [count for _, count in spec.padding] if conv else spec.padding
            try:
                width, height = _window(spec, pads)
            except NonPositiveOutputError as exc:
                note = str(exc)
            else:
                if conv and spec.in_size[2] % spec.groups:
                    note = (f"groups {spec.groups} does not divide "
                            f"input channels {spec.in_size[2]}")
                # conv channels are free up to groups; pooling keeps its input's
                expected = (width, height, (spec.out_size if conv else spec.in_size)[2])
            status = STATUS_OK if expected == declared and not note else STATUS_MISMATCH
        elif isinstance(spec, FullSpec):
            declared = (spec.out_size,)
        elif isinstance(spec, MFSpec) and spec.op_name not in allow:
            expected = spec.in_size
            status = STATUS_OK if expected == declared else STATUS_MISMATCH
        entries.append(ShapeEntry(name, expected, declared, status, note))
        if isinstance(spec, MFSpec) and spec.op_name == "Addition":
            shapes = {dict(basic_fields(g.spec(p)))["out_size"] for p in g.predecessors(name)}
            if len(shapes) > 1:
                warnings.append(
                    f"addition node {name!r} merges unequal shapes: "
                    + ", ".join(sorted(shapes))
                )
    return ShapeReport(tuple(entries), tuple(warnings))
