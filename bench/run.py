"""qrel's benchmark: four seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports qrel from ``src/``
and reads ``corpus/``.  Every measurement runs in a fresh worker process
(worker.py) with the BLAS thread count pinned to the number of usable cores
and ``QREL_TOL`` removed, so verdicts use qrel's default tolerance.

With ``--trace 0`` it starts two set-up-only workers and one timed worker,
in turn, and prints the end-to-end metrics; ``setup_s`` is the median of the
three set-ups.  With ``--trace 1`` one worker replays a fixed list of ops,
plain and then traced, and prints the per-layer metrics; the spans go to
``.bench_out/``.  The last line of output is the result object; the line
before it is the report (environment, sample counts, error rate, failures).

Seeds: 1 is the development seed.  20260417 is reserved for confirming a
claimed gain and must not be used while the change is being written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-verify", "classical-sentences", "classical-preorder", "quantum-preorder")
DEV_SEED = 1
SETUPS = 3  # set-ups per timed run; setup_s is their median
DEADLINE_S = 170.0  # every worker has ended by then

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(names) -> dict[str, str]:
    def unit(name: str) -> str:
        if name.endswith("_ms") or name.endswith(".ms"):
            return "ms"
        if name.endswith("gflop"):
            return "GFLOP"
        if name.endswith("bytes"):
            return "B"
        if name.endswith("ratio") or name.endswith("per_directive"):
            return "ratio"
        return "count"

    return {name: unit(name) for name in names}


class WorkerFailed(RuntimeError):
    pass


def worker(env: dict, deadline: float, args, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise WorkerFailed(f"{mode} worker exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qrel" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"no qrel source tree (src/qrel, corpus/) under {ROOT}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("QREL_TOL", None)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            out = worker(env, deadline, args, "traced")
            units = per_layer_units(out["metrics"])
        else:
            setups = [worker(env, deadline, args, "setup")["setup_s"] for _ in range(SETUPS - 1)]
            out = worker(env, deadline, args, "timed")
            setups.append(out["setup_s"])
            out["metrics"]["setup_s"] = statistics.median(setups)
            out["report"]["setup_samples_s"] = setups
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    report = dict(
        out["report"], workload=args.workload,
        error_rate=out["failed"] / out["attempted"], failures=out["failures"],
    )
    print(json.dumps({"report": report}))
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
