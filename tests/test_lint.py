import dataclasses

import pytest
from hypothesis import assume, given, strategies as st

from arctext import (
    ConvSpec,
    FullSpec,
    InvalidSpecError,
    MFSpec,
    NonPositiveOutputError,
    PoolSpec,
    build_graph,
    conv_output_extent,
    lint_shapes,
    pool_output_extent,
)
from arctext.lint import DEFAULT_SHAPE_CHANGE_OPS, STATUS_MISMATCH, STATUS_OK, STATUS_UNCHECKED


def perturbed(g, name, axis):
    """Copy of g with one out_size extent bumped by 1."""
    spec = g.spec(name)
    out = list(spec.out_size)
    out[axis] += 1
    nodes = [
        (nm, dataclasses.replace(spec, out_size=tuple(out)) if nm == name else g.spec(nm))
        for nm in g.names()
    ]
    edges = [(a, b) for a in g.names() for b in g.successors(a)]
    return build_graph(nodes, edges)


def checkable_axes(spec):
    if isinstance(spec, (ConvSpec, PoolSpec)):
        return (0, 1)
    if isinstance(spec, MFSpec) and spec.op_name not in DEFAULT_SHAPE_CHANGE_OPS:
        return tuple(range(len(spec.out_size)))
    return ()


class TestExtentArithmetic:
    @pytest.mark.parametrize("args,expected", [
        ((32, 2, 2, 0, 1), 16),
        ((224, 7, 2, 6, 1), 112),
        ((31, 2, 2, 1, 1), 16),
        ((112, 3, 2, 2, 1), 56),
        ((56, 56, 1, 0, 1), 1),
    ])
    def test_known_extents(self, args, expected):
        assert conv_output_extent(*args) == expected
        assert pool_output_extent(*args) == expected

    def test_identity_window(self):
        for n in (1, 7, 300):
            assert conv_output_extent(n, 1, 1, 0, 1) == n

    def test_dilation_widens_window(self):
        assert conv_output_extent(32, 3, 1, 2, 2) == 30

    def test_window_too_large(self):
        with pytest.raises(NonPositiveOutputError):
            conv_output_extent(1, 3, 1, 0, 1)
        with pytest.raises(NonPositiveOutputError):
            pool_output_extent(4, 2, 1, 0, 4)

    @pytest.mark.parametrize("args", [
        (0, 1, 1, 0, 1),
        (4, 0, 1, 0, 1),
        (4, 1, 0, 0, 1),
        (4, 1, 1, -1, 1),
        (4, 1, 1, 0, 0),
    ])
    def test_bad_arguments(self, args):
        with pytest.raises(InvalidSpecError):
            conv_output_extent(*args)

    @given(
        in_=st.integers(1, 300),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        pad=st.integers(0, 6),
        dilation=st.integers(1, 3),
    )
    def test_monotone_in_extent_and_padding(self, in_, kernel, stride, pad, dilation):
        assume(in_ + pad - dilation * (kernel - 1) - 1 >= 0)
        base = conv_output_extent(in_, kernel, stride, pad, dilation)
        assert conv_output_extent(in_ + 1, kernel, stride, pad, dilation) >= base
        assert conv_output_extent(in_, kernel, stride, pad + 1, dilation) >= base


class TestLintFixtures:
    def test_resnet4_clean(self, resnet4):
        report = lint_shapes(resnet4)
        assert report.clean
        assert not report.mismatches() and not report.addition_warnings
        assert len(report.entries) == len(resnet4)
        by_status = {}
        for e in report.entries:
            by_status.setdefault(e.status, []).append(e.node)
        assert by_status.get(STATUS_MISMATCH) is None
        assert by_status[STATUS_UNCHECKED] == ["E"]

    def test_branching25_clean(self, branching25):
        report = lint_shapes(branching25)
        assert report.clean
        assert len(report.entries) == 25

    def test_every_checkable_extent_perturbation_is_caught(self, resnet4, branching25):
        for g in (resnet4, branching25):
            cases = 0
            for name in g.names():
                for axis in checkable_axes(g.spec(name)):
                    report = lint_shapes(perturbed(g, name, axis))
                    bad = report.mismatches()
                    assert len(bad) == 1, (name, axis)
                    assert bad[0].node == name
                    cases += 1
            assert cases > 10

    def test_merge_disagreement_is_reported_separately(self, resnet4):
        # widening pool C desynchronizes the two inputs of addition node J
        report = lint_shapes(perturbed(resnet4, "C", 0))
        assert [e.node for e in report.mismatches()] == ["C"]
        assert len(report.addition_warnings) == 1
        assert "'J'" in report.addition_warnings[0]
        assert not report.clean


class TestLintRules:
    def test_full_nodes_unchecked(self):
        from arctext import FullSpec
        g = build_graph(
            [("a", MFSpec("X", (4,), (4,))), ("b", FullSpec(99, 7))],
            [("a", "b")],
        )
        report = lint_shapes(g)
        assert report.clean
        assert report.entries[-1].status == STATUS_UNCHECKED

    def test_shape_change_ops_are_exempt(self):
        nodes = [
            ("a", MFSpec("X", (8, 8, 4), (8, 8, 4))),
            ("b", MFSpec("Concatenation", (8, 8, 4), (8, 8, 12))),
        ]
        g = build_graph(nodes, [("a", "b")])
        assert lint_shapes(g).clean
        stricter = lint_shapes(g, shape_change_ops=())
        assert [e.node for e in stricter.mismatches()] == ["b"]

    def test_plain_op_must_preserve_shape(self):
        g = build_graph(
            [("a", MFSpec("ReLU", (8, 8, 4), (8, 8, 5))), ("b", MFSpec("X", (8, 8, 5), (8, 8, 5)))],
            [("a", "b")],
        )
        entry = lint_shapes(g).mismatches()[0]
        assert entry.node == "a"
        assert entry.expected == (8, 8, 4) and entry.declared == (8, 8, 5)

    def test_groups_must_divide_input_channels(self):
        bad = ConvSpec((8, 8, 3), (8, 8, 6), (1, 1), (1, 1), groups=2)
        g = build_graph(
            [("a", bad), ("b", MFSpec("X", (8, 8, 6), (8, 8, 6)))],
            [("a", "b")],
        )
        entry = lint_shapes(g).mismatches()[0]
        assert entry.node == "a"
        assert "groups 2" in entry.note

    def test_output_channels_are_free(self, resnet4):
        # conv may change channel depth at will; only width and height are implied
        g = perturbed(resnet4, "S", 2)
        assert lint_shapes(g).clean

    @pytest.mark.parametrize("bad", [
        PoolSpec("Max", (2, 2, 1), (1, 1, 1), (5, 5), (1, 1)),
        ConvSpec((2, 2, 1), (1, 1, 1), (5, 5), (1, 1)),
    ], ids=["pool", "conv"])
    def test_impossible_window_is_a_mismatch(self, bad):
        g = build_graph(
            [("a", MFSpec("X", (2, 2, 1), (2, 2, 1))), ("b", bad)],
            [("a", "b")],
        )
        entry = lint_shapes(g).mismatches()[0]
        assert entry.node == "b"
        assert entry.expected is None
        assert "does not fit" in entry.note

    def test_addition_of_a_full_and_a_conv_output_warns(self):
        nodes = [
            ("s", MFSpec("X", (4, 4, 3), (4, 4, 3))),
            ("f", FullSpec(48, 16)),
            ("c", ConvSpec((4, 4, 3), (1, 1, 16), (4, 4), (1, 1))),
            ("m", MFSpec("Addition", (1, 1, 16), (1, 1, 16))),
        ]
        g = build_graph(nodes, [("s", "f"), ("s", "c"), ("f", "m"), ("c", "m")])
        assert lint_shapes(g).addition_warnings == (
            "addition node 'm' merges unequal shapes: 1-1-16, 16",
        )

    def test_addition_with_agreeing_inputs_is_quiet(self):
        nodes = [
            ("s", MFSpec("X", (4, 4, 2), (4, 4, 2))),
            ("l", MFSpec("Y", (4, 4, 2), (4, 4, 2))),
            ("m", MFSpec("Addition", (4, 4, 2), (4, 4, 2))),
        ]
        g = build_graph(nodes, [("s", "l"), ("s", "m"), ("l", "m")])
        assert lint_shapes(g).addition_warnings == ()
