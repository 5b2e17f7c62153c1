"""One workload in one fresh process: set up, run the timed loop, check.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --t0 MONOTONIC

``run.py`` starts this file; ``--t0`` is its ``time.monotonic()`` just
before the start, so ``setup_s`` includes interpreter start-up, ``import
arctext``, input generation and one warm-up op. The loop is closed: one
caller, and the next op starts when the previous one returns. It makes
whole passes over the inputs, the first pass always in full, and the clock
runs only around ops; output checks happen between them, untimed. The last
line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

# Package functions are always looked up as ``arctext.<name>`` at call time,
# so that the traced run sees the calls the benchmark itself makes.
import arctext  # noqa: E402
import numpy  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SEED = 0
FIXTURES = ROOT / "tests" / "fixtures"
CORPUS_SIZE = 1000

if Path(arctext.__file__).resolve().parent != (ROOT / "src" / "arctext").resolve():
    sys.exit(f"arctext was imported from {arctext.__file__}, not from {ROOT / 'src'}")


def sha224(data: bytes) -> bytes:
    return hashlib.sha224(data).digest()


def rerender(g, order) -> str:
    """Render a parsed graph under its parsed numbering, without reordering."""
    lines = []
    for pos, name in enumerate(order.by_position, start=1):
        succ = sorted(order.position_of(s) for s in g.successors(name))
        lines.append(arctext.render_unit(g.spec(name), pos, succ or None).text)
    return "\n".join(lines)


def corpus_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [gen.random_graph(rng) for _ in range(CORPUS_SIZE)]


# --- workloads ---------------------------------------------------------------
#
# Each workload holds ``inputs`` (what an op receives; input 0 is also the
# warm-up op), ``blobs`` (the bytes the pinned input digest covers),
# ``twins`` (index pairs that must give equal bytes) and ``accepted`` (index
# -> the only texts allowed as its output).


class Canonicalize:
    """An op renders a graph and hashes the text: the dedup path."""

    twins: tuple = ()
    accepted: dict = {}

    def op(self, x):
        d = arctext.render_description(x)
        return sha224(d.text.encode("utf-8")), d

    def digest(self, result) -> bytes:
        return result[0]

    def check(self, idx, result):
        """Return (problem or None, (nodes, edges, text_bytes, tokens))."""
        text = result[1].text
        g, order = arctext.parse_description(text)
        ir = (len(g), len(g.edges), len(text.encode("utf-8")), 0)
        if rerender(g, order) != text:
            return "parse then render changed the text", ir
        if idx in self.accepted and text not in self.accepted[idx]:
            return "fixture output is not byte-exact", ir
        return None, ir


class CorpusCanon(Canonicalize):
    """Small random graphs as graph-file JSON, each also permuted and renamed."""

    def __init__(self, seed: int):
        rng = random.Random(seed + 1)
        texts = []
        for doc in corpus_docs(seed):
            texts += [json.dumps(doc), json.dumps(gen.permuted_renamed(doc, rng))]
        self.twins = tuple((i, i + 1) for i in range(0, len(texts), 2))
        self.accepted = {}
        for name, variants in (("resnet4", ("resnet4",)),
                               ("branching25", ("branching25", "branching25_tieswap"))):
            self.accepted[len(texts)] = {
                (FIXTURES / f"{v}.arctext").read_text(encoding="utf-8") for v in variants}
            texts.append((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        self.inputs = texts
        self.blobs = [t.encode("utf-8") for t in texts]

    def op(self, x):
        return super().op(arctext.parse_graph_json(x))


class GraphMix(Canonicalize):
    """Prebuilt graphs from a fixed list of shapes; the seed fills in specs.

    The shapes and their copies are the same for every seed, so the cost of
    a pass does not depend on the seed. There are at least 100 inputs, so
    that at least ten lie beyond p90.
    """

    SHAPES: tuple = ()  # (generator, arguments, copies)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        texts = [json.dumps(make(rng, *shape))
                 for make, shape, copies in self.SHAPES for _ in range(copies)]
        self.inputs = [arctext.parse_graph_json(t) for t in texts]
        self.blobs = [t.encode("utf-8") for t in texts]


class Symmetric(GraphMix):
    """Tied longest paths with equal digests: ResNeXt blocks and braids.

    The largest shapes, ResNeXt 3 x 8 and a width-2 braid of 11 layers,
    take about 0.8 s and 0.5 s on a 2-CPU machine; none takes over 1.5 s.
    """

    SHAPES = (
        (gen.resnext, (1, 4), 12), (gen.resnext, (1, 8), 11),
        (gen.resnext, (1, 16), 8), (gen.resnext, (1, 32), 4),
        (gen.resnext, (1, 48), 2), (gen.resnext, (1, 64), 1),
        (gen.resnext, (2, 4), 10), (gen.resnext, (2, 6), 4),
        (gen.resnext, (2, 8), 3), (gen.resnext, (2, 12), 1),
        (gen.resnext, (2, 16), 1), (gen.resnext, (3, 4), 4),
        (gen.resnext, (3, 5), 1), (gen.resnext, (3, 6), 1),
        (gen.resnext, (3, 8), 1),
        (gen.braid, (6, 2), 10), (gen.braid, (7, 2), 6),
        (gen.braid, (8, 2), 3), (gen.braid, (9, 2), 1),
        (gen.braid, (10, 2), 1), (gen.braid, (11, 2), 1),
        (gen.braid, (4, 3), 10), (gen.braid, (5, 3), 4),
        (gen.braid, (6, 3), 1),
    )


class Deep(GraphMix):
    """Large graphs without structural ties: Inception stacks and chains.

    A 16-block stack takes about 0.7 s on a 2-CPU machine; 20 blocks take
    about 2 s, which would leave too few passes in a run. The twelve 8-block
    stacks sit around p90, so that p90 falls among inputs of one cost.
    """

    SHAPES = (
        (gen.inception, (5,), 40), (gen.inception, (6,), 20),
        (gen.inception, (7,), 15), (gen.chain, (1000,), 4),
        (gen.chain, (2000,), 2), (gen.chain, (3000,), 1),
        (gen.chain, (4000,), 1), (gen.inception, (8,), 12),
        (gen.inception, (10,), 2), (gen.inception, (12,), 1),
        (gen.inception, (14,), 1), (gen.inception, (16,), 1),
    )


class CorpusIngest:
    """The corpus's canonical texts, read back the way a miner reads them."""

    twins: tuple = ()
    accepted: dict = {}

    def __init__(self, seed: int):
        texts = [arctext.render_description(arctext.parse_graph_json(json.dumps(doc))).text
                 for doc in corpus_docs(seed)]
        texts += [(FIXTURES / f"{name}.arctext").read_text(encoding="utf-8")
                  for name in ("resnet4", "branching25")]
        self.inputs = texts
        self.blobs = [t.encode("utf-8") for t in texts]
        self.vocab = arctext.Vocabulary.default()

    def op(self, text):
        g, order = arctext.parse_description(text)
        d = arctext.description_from_text(text)
        stream = arctext.tokenize(d, self.vocab)
        return g, order, d, stream, arctext.vectors_csv(d)

    def digest(self, result) -> bytes:
        _, _, d, stream, csv = result
        ids = array("q", [t.token_id for unit in stream.units for t in unit])
        values = repr([t.value for unit in stream.units for t in unit if t.value is not None])
        return sha224(b"\0".join((d.text.encode("utf-8"), csv.encode("utf-8"),
                                  ids.tobytes(), values.encode("ascii"))))

    def check(self, idx, result):
        g, order, d, stream, csv = result
        text = self.inputs[idx]
        tokens = sum(len(unit) for unit in stream.units)
        ir = (len(g), len(g.edges), len(text.encode("utf-8")), tokens)
        if d.text != text or rerender(g, order) != text:
            return "parse then render changed the text", ir
        if arctext.detokenize(stream, self.vocab) != text:
            return "detokenize(tokenize(d)) differs from the text", ir
        rows = csv.rstrip("\n").split("\n")
        if len(rows) != len(d.lines) + 1 or any(len(r.split(",")) != 24 for r in rows):
            return "vectors_csv does not give lines + 1 rows of 24 columns", ir
        return None, ir


WORKLOADS = {
    "corpus_canon": CorpusCanon,
    "corpus_ingest": CorpusIngest,
    "symmetric": Symmetric,
    "deep": Deep,
}


# --- checking ----------------------------------------------------------------

class Checker:
    """Checks the first output of each input in full, later ones by digest."""

    def __init__(self, w):
        self.w = w
        self.ref: dict[int, bytes | None] = {}  # None: the first output failed
        self.ir: dict[int, tuple] = {}
        self.passed = [0] * len(w.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _problem(self, idx, message):
        if len(self.problems) < 20:
            self.problems.append(f"input {idx}: {message}")

    def accept(self, idx, result) -> None:
        self.attempted += 1
        if self._accept(idx, result):
            self.passed[idx] += 1
        else:
            self.failed += 1

    def _accept(self, idx, result) -> bool:
        if isinstance(result, Exception):
            self._problem(idx, f"raised {type(result).__name__}: {result}")
            return False
        digest = self.w.digest(result)
        if idx not in self.ref:
            problem, self.ir[idx] = self.w.check(idx, result)
            if problem:
                self._problem(idx, problem)
            self.ref[idx] = None if problem else digest
        elif self.ref[idx] is not None and digest != self.ref[idx]:
            self._problem(idx, "output differs from the first output of this input")
        return self.ref[idx] == digest

    def cross_check(self):
        """Twins must agree; a disagreement fails every op on both inputs."""
        for a, b in self.w.twins:
            if self.ref.get(a) != self.ref.get(b):
                self._problem(a, f"differs from its permuted, renamed twin {b}")
                self.failed += self.passed[a] + self.passed[b]
                self.passed[a] = self.passed[b] = 0

    def output_digest(self) -> str:
        """SHA-224 over every output in input order; fixtures are left out
        because they are checked against their files, either tie variant."""
        refs = [self.ref.get(i) or b"" for i in range(len(self.w.inputs))
                if i not in self.w.accepted]
        return hashlib.sha224(b"".join(refs)).hexdigest()


def call(op, x):
    try:
        return op(x)
    except Exception as exc:  # counted as a failed op, never fatal
        return exc


# --- modes -------------------------------------------------------------------

def timed_loop(w, checker, seconds):
    """Each input's best latency over the passes made in ``seconds``.

    This machine class runs the same op 20-40% slower at some moments than
    at others, so one input's latencies are reduced to their minimum (best
    of N, as ``timeit`` does) before any statistic is taken.
    """
    clock = time.perf_counter
    inputs, op = w.inputs, w.op
    n = len(inputs)
    best = [math.inf] * n
    ops = 0
    deadline = clock() + seconds
    while ops < n or clock() < deadline:
        idx = ops % n
        ops += 1
        start = clock()
        result = call(op, inputs[idx])
        best[idx] = min(best[idx], clock() - start)
        checker.accept(idx, result)
    return best, ops


def run_metrics(best, rss_kb, setup_s) -> dict:
    lat_ms = sorted(x * 1e3 for x in best)
    return {
        "setup_s": setup_s,
        "throughput_ops": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_kb / 1024,
    }


def traced_passes(w, checker, seconds, spans_path):
    """Alternate untraced and traced passes over every input until the time
    is up; counts come from the traced passes and are the same every pass."""
    tracer = Tracer()
    clock = time.perf_counter
    n = len(w.inputs)
    plain = traced = 0.0
    passes = 0
    deadline = clock() + seconds
    while passes == 0 or clock() < deadline:
        for idx in range(n):
            start = clock()
            result = call(w.op, w.inputs[idx])
            plain += clock() - start
            checker.accept(idx, result)
        with tracer.installed():
            for idx in range(n):
                start = clock()
                result = call(lambda x: tracer.run_op(idx, w.op, x), w.inputs[idx])
                traced += clock() - start
                checker.accept(idx, result)
        passes += 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)

    ops = passes * n
    nodes, edges, text_bytes, tokens = (sum(v[k] for v in checker.ir.values()) for k in range(4))
    totals = tracer.totals()
    metrics = {}
    for name in tracer.names[1:]:
        calls, self_ns = totals[name]
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_ms"] = self_ns / 1e6 / ops
    metrics.update({
        "canonical.rounds": tracer.rounds / ops,
        "canonical.candidates": tracer.candidates / ops,
        "canonical.win_ratio": tracer.rounds / tracer.candidates if tracer.candidates else 0.0,
        "unitformat.basic_string.per_node": totals["unitformat.basic_string"][0] / (nodes * passes),
        "codec.parse_line.per_line": totals["codec.parse_line"][0] / (nodes * passes),
        "ir.nodes": nodes / n,
        "ir.edges": edges / n,
        "ir.text_bytes": text_bytes / n,
        "ir.tokens": tokens / n,
        "trace.overhead_ratio": traced / plain,
    })
    return metrics, passes, len(tracer.fn)


def environment() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    call(w.op, w.inputs[0])  # the warm-up op; its output is checked in the loop
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(w)
    out = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.mode == "run":
        best, out["ops"] = timed_loop(w, checker, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["metrics"] = run_metrics(best, rss_kb, setup_s)
        out["inputs"] = len(best)
    else:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        out["metrics"], out["passes"], out["spans"] = traced_passes(
            w, checker, args.seconds, spans)
        out["spans_file"] = str(spans.relative_to(ROOT))

    checker.cross_check()
    inputs = hashlib.sha224(b"\0".join(w.blobs)).hexdigest()
    outputs = checker.output_digest()
    out["digests"] = {"inputs": inputs, "outputs": outputs}
    if args.seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pins.json").read_text())[args.workload]
        for key, value in (("inputs", inputs), ("outputs", outputs)):
            if pins[key] != value:
                checker.problems.append(f"pinned {key} digest {pins[key]} != {value}")
    out.update(attempted=checker.attempted, failed=checker.failed,
               problems=checker.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
