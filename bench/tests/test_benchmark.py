"""Tests of the benchmark itself (not collected by the library's test suite).

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("design-quick", "search-hard", "verify-nonlinear")
EXACT_UNITS = ("count", "B", "ratio")


def bench(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    digest = re.search(r"digest ([0-9a-f]{64})", proc.stdout).group(1)
    return digest, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_traced_runs_repeat_digest_and_counts(workload):
    digest1, first = bench(workload, 7, 1, 1)
    digest2, second = bench(workload, 7, 1, 1)
    assert first["correct"] and second["correct"]
    assert digest1 == digest2
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] in EXACT_UNITS}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    work = {"design-quick": "regulation.synthesize.calls",
            "search-hard": "polesearch.trials",
            "verify-nonlinear": "plants.dynamics.calls"}[workload]
    assert counts[work] > 0


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, untraced = bench("design-quick", 3, 0.2, 0)
    _, traced = bench("design-quick", 3, 0.2, 1)
    for printed, listed in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert {name: m["unit"] for name, m in printed["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
