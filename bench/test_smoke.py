"""Smoke test for the benchmark itself, outside Tier-1:

    python3 -m pytest -q bench/test_smoke.py

Each workload, gated or not, runs at a tiny size, untraced and traced. The
test checks that every metric named in BENCHMARK.json is emitted with its
unit, that all operations verify, and that the traced run's self times by
layer plus the benchmark glue add up to the traced pass wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        _, breakdown = spans.derive(ROOT / ".bench_run" / f"trace-{workload}.npz")
        accounted = sum(breakdown[layer] for layer in spans.LAYERS + ("bench",))
        assert breakdown["min_self_s"] >= -1e-6
        assert accounted == pytest.approx(breakdown["traced_pass_s"], rel=1e-2)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "bench" / "run.py", SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
