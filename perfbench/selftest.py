"""Small-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs the benchmark on tiny points (``--small``),
untraced and traced, and checks that

- the last output line is the result object, with ``correct`` true and no
  failed point;
- every end-to-end (untraced) or per-layer (traced) metric named in
  ``BENCHMARK.json`` is reported with its unit, in the JSON and in the
  printed table;
- the traced self times plus ``trace.unattributed_s`` add up to the traced
  wall time, and the unattributed remainder is small.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNATTRIBUTED_LIMIT = 0.05     # share of the traced wall time


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True, timeout=170)


def check_output(done: subprocess.CompletedProcess,
                 expected: list[dict]) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        sorted(set(metrics) ^ {m["name"] for m in expected}))
    table = {line.split()[0]: line.split() for line in lines[:-1] if line}
    for m in expected:
        reported = metrics[m["name"]]
        assert reported["unit"] == m["unit"], (m, reported)
        assert math.isfinite(reported["value"]), (m, reported)
        assert table[m["name"]][2] == m["unit"], (m, table[m["name"]])
    return metrics


def check_attribution(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]["value"]
    unattributed = metrics["trace.unattributed_s"]["value"]
    selves = math.fsum(v["value"] for k, v in metrics.items()
                       if k.endswith(".self_s"))
    assert math.isclose(selves + unattributed, wall, abs_tol=1e-6), (
        selves, unattributed, wall)
    assert -1e-6 <= unattributed <= UNATTRIBUTED_LIMIT * wall, (
        unattributed, wall)


def check_fails_without_library() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".selftest-", dir=HERE))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
            ".selftest-*", ".store-*", "__pycache__"))
        done = run(bare, "spinal_awgn", 0)
        assert done.returncode != 0, done.stdout
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_output(run(ROOT, workload, 0), bench["end_to_end"])
        check_attribution(check_output(run(ROOT, workload, 1),
                                       bench["per_layer"]))
        print(f"ok {workload}")
    check_fails_without_library()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
