"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh processes, one at a time (see bench.py). With
``--trace 0`` the set-up is first measured in SETUP_SAMPLES - 1 processes
that stop after their warm-up op, then one more process sets up and runs
the timed loop; ``setup_s`` is the median of all of them. With ``--trace 1``
a single process alternates untraced and traced passes and reports the
per-module metrics. The metric names and units come from BENCHMARK.json.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # every process this run starts ends within it


class WorkerError(Exception):
    pass


def worker(args, mode: str, deadline: float) -> dict:
    """Run bench.py in a fresh process and return its JSON result line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"{mode} process for {args.workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} process for {args.workload} exited with "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        if args.trace:
            out = worker(args, "trace", deadline)
        else:
            setups = [worker(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            out = worker(args, "run", deadline)
            setups.append(out["metrics"]["setup_s"])
            out["metrics"]["setup_s"] = statistics.median(setups)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = out["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench.py reported no {missing}", file=sys.stderr)
        return 1

    attempted, failed, problems = out["attempted"], out["failed"], out["problems"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"env {json.dumps(out['env'], sort_keys=True)}")
    print(f"digests {json.dumps(out['digests'], sort_keys=True)}")
    if args.trace:
        print(f"{out['passes']} traced passes, {out['spans']} spans in {out['spans_file']}")
    else:
        print(f"{out['ops']} ops; latency samples: the best op of each of "
              f"{out['inputs']} inputs; setup samples "
              + " ".join(f"{s:.4f}" for s in setups))
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    for problem in problems:
        print(f"problem: {problem}")
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]:14.6f} {m['unit']}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
