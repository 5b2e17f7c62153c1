"""Spans around the public functions of each arctext module.

Nothing in the package changes: ``Tracer.installed()`` rebinds each wrapped
function in every loaded ``arctext.*`` namespace that holds it (so that
``basic_string`` is also caught where ``arctext.canonical`` looks it up, and
``assign_positions`` where ``arctext.codec`` does), and puts the originals
back on exit. Spans stay in memory as flat arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

# (module, function) pairs, in the order the report lists them
WRAPPED = (
    ("graphio", "parse_graph_json"),
    ("model", "build_graph"),
    ("model", "validate_graph"),
    ("canonical", "assign_positions"),
    ("canonical", "detect_terminals"),
    ("canonical", "longest_unnumbered_paths"),
    ("canonical", "path_digest"),
    ("unitformat", "basic_string"),
    ("codec", "render_description"),
    ("codec", "render_unit"),
    ("codec", "parse_description"),
    ("codec", "parse_line"),
    ("codec", "description_from_text"),
    ("vectorize", "tokenize"),
    ("vectorize", "vectors_csv"),
)
OP_SPAN = "bench.op"  # the benchmark's own span around one whole op


class Tracer:
    """Records one span per wrapped call: function, start, end, parent, op."""

    def __init__(self):
        self.names = [OP_SPAN] + [f"{m}.{f}" for m, f in WRAPPED]
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.rounds = 0  # longest_unnumbered_paths calls with >= 1 candidate
        self.candidates = 0
        self._stack = [-1]
        self._op = -1

    def _wrap(self, fn_id, func, on_result=None):
        fn, start, end, parent, op, stack = (
            self.fn, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(fn)
            fn.append(fn_id)
            parent.append(stack[-1])
            op.append(self._op)
            stack.append(i)
            start.append(clock())
            end.append(0)
            try:
                result = func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_candidates(self, candidates):
        if candidates:
            self.rounds += 1
            self.candidates += len(candidates)

    def run_op(self, op_index, func, arg):
        """Call ``func(arg)`` under one root span that tags its children."""
        self._op = op_index
        try:
            return self._wrap(0, func)(arg)
        finally:
            self._op = -1

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "arctext" or name.startswith("arctext.")]
        restore = []
        try:
            for fn_id, (module, name) in enumerate(WRAPPED, start=1):
                original = getattr(sys.modules[f"arctext.{module}"], name)
                hook = self._count_candidates if name == "longest_unnumbered_paths" else None
                wrapper = self._wrap(fn_id, original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self_ns)}``; self time excludes child spans."""
        a = self.arrays()
        n = len(a["fn"])
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        self_ns = np.bincount(a["fn"], weights=dur - child, minlength=len(self.names))
        calls = np.bincount(a["fn"], minlength=len(self.names))
        return {name: (int(calls[i]), float(self_ns[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
