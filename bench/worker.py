"""One benchmark process: set up one workload, then time it or trace it.

run.py starts this script in a fresh interpreter for every measurement, so
qrel's process-global memos never carry over from one workload to another
and the peak resident set belongs to one workload alone.

    python3 worker.py --root DIR --workload NAME --seed N --seconds S
                      --mode setup|timed|traced

It prints one JSON object on its last line of output.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path


OVERRUN = 4  # a timed phase ends after this many times --seconds


class OpError:
    """An op that raised; it counts as failed."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def run_op(workload, k: int):
    try:
        return workload.op(k)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return OpError(exc)


def check_all(workload, results) -> list[str]:
    """Reasons for every failed op, in op order."""
    failures = []
    for k, res in results:
        if isinstance(res, OpError):
            failures.append(f"op {k}: {res.text}")
            continue
        try:
            reason = workload.check(k, res)
        except Exception as exc:  # malformed output is a wrong answer
            reason = f"unreadable result: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {k}: {reason}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value.  Below eleven samples no percentile qualifies; the minimum is
    reported as percentile 0."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def rounds(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_s))


def timed(workload, seconds: float) -> tuple[dict, list]:
    """Closed loop, one op in flight, a fixed number of whole rounds.  A run
    that takes far longer than ``seconds`` stops early, at a round's end."""
    latencies, results = [], []
    k = 0
    start = time.perf_counter()
    for _ in range(rounds(workload, seconds)):
        for _ in range(workload.block):
            t = time.perf_counter()
            res = run_op(workload, k)
            latencies.append(time.perf_counter() - t)
            results.append((k, res))
            k += 1
        if time.perf_counter() - start > OVERRUN * seconds:
            break
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct, tail_s = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss_mb,
    }
    report = {"timed_ops": len(latencies), "elapsed_s": elapsed, "tail_percentile": pct}
    return {"metrics": metrics, "report": report}, results


def traced(workload, root: Path, seed: int) -> tuple[dict, list]:
    """The same fixed ops twice, plain and traced; per-layer numbers come
    from the traced pass and the overhead is the ratio of the two walls."""
    from tracer import Tracer

    ops = range(workload.trace_ops)
    t = time.perf_counter()
    plain = [(k, run_op(workload, k)) for k in ops]
    plain_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        traced_results = [(k, tracer.run_op(k, run_op, workload, k)) for k in ops]
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(sum(workload.verifications(k) for k in ops))
    metrics["cli.warn_band_items"] = float(
        sum(workload.warn_band_items(res) for _, res in traced_results if not isinstance(res, OpError))
    )
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload.name}-seed{seed}.npz"
    tracer.save(spans)
    report = {"traced_ops": len(ops), "spans": len(tracer.start), "span_file": str(spans.relative_to(root))}
    return {"metrics": metrics, "report": report}, plain + traced_results


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))

    import qrel

    if Path(qrel.__file__).resolve().parent != src / "qrel":
        print(f"qrel imported from {qrel.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    ops = cls.trace_ops if args.mode == "traced" else rounds(cls, args.seconds) * cls.block
    inputs = max(cls.warmup, ops)
    workload = cls(args.seed, root, inputs)
    warm = [(k, run_op(workload, k)) for k in range(workload.warmup)]
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.mode == "timed":
        out, results = timed(workload, args.seconds)
    else:
        out, results = traced(workload, root, args.seed)
    results = warm + results
    failures = check_all(workload, results)
    out["setup_s"] = setup_s
    out["attempted"] = len(results)
    out["failed"] = len(failures)
    out["failures"] = failures[:5]
    out["report"].update(environment(args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
