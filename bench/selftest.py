"""The benchmark's own tests.

    python3 bench/selftest.py

They check that a wrong verdict is counted as a failure on every workload
(the negative control), that two traced runs with one seed give exactly the
same counts, that the metric names and units match BENCHMARK.json, and
that the benchmark refuses to run without qrel's sources.  The file is not
named test_*.py so that the repository's test suite does not collect it;
the traced runs take about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = run.DEV_SEED


def flipped(name: str, result):
    """The op result with its verdict inverted."""
    if name == "corpus-verify":
        code, text = result
        return 1 - code if code in (0, 1) else 0, text
    if name == "classical-sentences":
        return not result
    first = result.conditions[0]
    conditions = (dataclasses.replace(first, passed=not first.passed),) + result.conditions[1:]
    return dataclasses.replace(result, conditions=conditions)


def test_negative_control():
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, ROOT, cls.block)
        ops = range(workload.block)
        results = [(k, worker.run_op(workload, k)) for k in ops]
        assert worker.check_all(workload, results) == [], name
        bad = [(k, flipped(name, res)) for k, res in results]
        assert len(worker.check_all(workload, bad)) == len(bad), name


def test_raising_op_is_a_failure():
    workload = WORKLOADS["classical-sentences"](SEED, ROOT, 1)
    workload.items[0] = (workload.items[0][0], None)  # truth(None) raises
    failures = worker.check_all(workload, [(0, worker.run_op(workload, 0))])
    assert len(failures) == 1 and "TypeError" in failures[0], failures


def test_tail_percentile():
    assert worker.tail([5.0] * 3) == (0.0, 5.0)
    lat = [float(i) for i in range(100)]
    assert worker.tail(lat) == (90.0, 89.0)  # ten samples, 90..99, lie beyond


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_count(metric: str) -> bool:
    return (
        metric.endswith(".calls")
        or metric.startswith(("subspace.svd.", "subspace.max_", "logic.nodes.", "qset.max"))
        and metric != "subspace.svd.ms"
        or metric in ("qset.blocks_out", "frontend.bytes", "cli.warn_band_items",
                      "subspace.span.already_orthonormal_ratio", "structures.calls_per_directive")
    )


def test_traced_counts_repeat_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        args = ("--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
        first, second = result_of(bench(*args)), result_of(bench(*args))
        assert first["correct"] and second["correct"], name
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        assert got == per_layer, (name, set(got) ^ set(per_layer))
        counts = [k for k in first["metrics"] if is_count(k)]
        differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
        assert not differ, (name, differ)


def test_end_to_end_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    out = result_of(bench("--workload", "corpus-verify", "--seed", str(SEED), "--seconds", "1"))
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS) and out["correct"]


def test_refuses_without_sources():
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "corpus-verify", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
