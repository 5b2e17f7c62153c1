"""The graph-file path gives the bytes recorded in ``tests/golden/graph_file.txt``."""

from golden_graph_file import families, read_golden


def test_graph_file_path_gives_the_recorded_digests():
    recorded = read_golden()
    computed = families()
    assert list(computed) == list(recorded)
    for family, entries in computed.items():
        assert len(entries) == len(recorded[family]), family
        for i, (got, want) in enumerate(zip(entries, recorded[family])):
            assert got == want, f"{family} #{i}: {got} != recorded {want}"
