"""The isomorphism check of ``test_isomorphism.py`` over every 6-node two-spec DAG.

``gen.small_dags(6)`` holds 214,144 graphs: every DAG on d0..d5 with one
source d0 and one sink d5 whose edges run from a lower to a higher index, in
each of its 64 labellings by ``gen.TWO_MF_SPECS``. Each is rendered once, in
identity insertion order, and the graphs are grouped into isomorphism
classes as the test groups its sets. The script prints the number of
graphs, of classes, and of classes that render more than one text, and
asserts that each class renders one text and no two classes share one. It
takes 50-90 s on a 2-CPU machine and is not collected by pytest. Run it from
the repository root:

    PYTHONPATH=src:tests python tests/isomorphism_6node.py
"""

import hashlib
import itertools
import sys
import time

from arctext import basic_string, render_description

import gen
from test_isomorphism import isomorphism_classes, labelled, shared_texts

N = 6


def main() -> int:
    start = time.perf_counter()
    # a graph is kept as its text's digest and rebuilt from its index when it is compared
    digests = [hashlib.sha224(render_description(g).text.encode()).digest()
               for g in gen.small_dags(N)]
    edge_sets = gen.small_dag_edge_sets(N)
    labellings = list(itertools.product([basic_string(s) for s in gen.TWO_MF_SPECS], repeat=N))

    def graph_at(k: int):
        edges, labels = divmod(k, len(labellings))
        return labelled(enumerate(labellings[labels]), edge_sets[edges])

    classes = isomorphism_classes(len(digests), graph_at)
    shared, split = shared_texts(classes, digests.__getitem__)
    print(f"{len(digests)} graphs, {len(classes)} isomorphism classes, "
          f"{split} classes with more than one text, {shared} texts shared by two or more "
          f"classes ({time.perf_counter() - start:.0f} s)")
    assert shared == 0, f"{shared} texts are shared by non-isomorphic graphs"
    assert split == 0, f"{split} isomorphism classes render more than one text"
    return 0


if __name__ == "__main__":
    sys.exit(main())
