"""The graph-file and text paths give the bytes recorded in ``tests/golden/``."""

import golden_graph_file
import golden_text
import gen


def _assert_recorded(computed: dict[str, list[str]], recorded: dict[str, list[str]]):
    assert list(computed) == list(recorded)
    for family, entries in computed.items():
        assert len(entries) == len(recorded[family]), family
        for i, (got, want) in enumerate(zip(entries, recorded[family])):
            assert got == want, f"{family} #{i}: {got} != recorded {want}"


def test_graph_file_path_gives_the_recorded_digests():
    _assert_recorded(golden_graph_file.families(), golden_graph_file.read_golden())


def test_text_path_gives_the_recorded_digests():
    _assert_recorded(golden_text.families(), golden_graph_file.read_golden(golden_text.GOLDEN))


def test_five_node_family_holds_every_dag():
    # 122 edge sets with one source and one sink, each under 32 labellings
    assert len(gen.five_node_dags()) == 3904
