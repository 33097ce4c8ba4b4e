"""Quick-mode self-test of the perfbench benchmark.

Runs every workload once untraced and once traced on the small world and
checks the result-line contract (keys, metric names and units, counts).
Not part of the repository's tier-1 suite (``testpaths = ["tests"]``);
run it directly::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import steal  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "3", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def _empty_parse_ms() -> float:
    """Median in-process cost of parsing an empty N-Triples document, the
    ``deleted`` body of every commit the benchmark sends."""
    from repro.kb.ntriples import parse_graph

    times = []
    for _ in range(300):
        start = time.perf_counter()
        parse_graph("")
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_is_correct_and_complete(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = layers.UNITS if trace else run.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    assert set(report["tails"]) == set(run.TAILS)
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    # The counts the benchmark promises, independent of the machine.
    if workload == "read_miss":
        assert values["respcache.hit_ratio"] == 0.0
        assert values["diversity.item_distance_builds"] == 1.0
        assert values["replica.read_share"] > 0.0
        assert values["router.pipe_ms.p50"] > 0.0
    if workload == "commit_read":
        assert values["measures.compute_all_calls"] > 0
        assert values["store.sync_ms.p50"] > 0
        assert values["betweenness.incremental_updates"] + values["betweenness.full_recomputes"] > 0
        # Parses of the 10-triple commit bodies, not of the empty deletions.
        assert values["ntriples.parse_ms.p50"] > 5 * _empty_parse_ms()


def test_quietest_keeps_what_the_host_left_alone():
    # Nothing stolen: every sample is kept.
    assert steal.quietest([1, 2, 3, 4], lambda item: 0.0) == [1, 2, 3, 4]
    # At most the floor stolen counts as quiet, in the original order.
    shares = {1: 0.3, 2: steal.QUIET_FLOOR, 3: 0.0, 4: 0.5, 5: 0.01}
    assert steal.quietest([1, 2, 3, 4, 5], shares.get) == [2, 3, 5]
    # A busy host throughout: the quietest quarter, ties included.
    shares = {1: 0.4, 2: 0.2, 3: 0.3, 4: 0.2, 5: 0.5, 6: 0.6, 7: 0.7, 8: 0.8}
    assert steal.quietest(list(shares), shares.get) == [2, 4]
    assert steal.quietest([], shares.get) == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "read_miss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
