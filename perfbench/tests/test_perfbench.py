"""Self-tests of the repository benchmark (``perfbench/run.py``).

Run from the repository root::

    python -m pytest perfbench/tests -q

Each workload runs at ``--scale tiny`` (a 3×3 grid, a 5-stage stack, a
handful of service requests), so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from measure import summarize  # noqa: E402

WORKLOADS = ("cli-certify", "service-mix")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny", *extra,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = result_of(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in doc["metrics"].items()
    }
    for name, metric in doc["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_end_to_end_metrics_are_never_zero():
    doc = result_of(tiny("cli-certify", 0))
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counters_repeat_exactly(workload):
    """Two traced runs of the same code report identical work counts."""
    counts = []
    for _ in range(2):
        proc = tiny(workload, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = result_of(proc)["metrics"]
        counts.append(
            {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"
             and not k.startswith("service.coalesced")}
        )
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def _flipped_table(tmp_path: Path, edit) -> Path:
    table = json.loads((BENCH / "expected.json").read_text())
    edit(table)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(table))
    return path


def test_wrong_expected_verdict_fails_the_run(tmp_path):
    def flip(table):
        table["grid-prove"][0]["expect"] = "fails"

    proc = tiny("cli-certify", 0, "--expected", str(_flipped_table(tmp_path, flip)))
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "INCORRECT: cli grid-prove: mutual_exclusion holds, expected fails" in proc.stdout


def test_wrong_certificate_expectation_fails_the_traced_run(tmp_path):
    def flip(table):
        table["compose-stack"][1]["expect"] = "rejected"

    proc = tiny("cli-certify", 1, "--expected", str(_flipped_table(tmp_path, flip)))
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "INCORRECT: in-process compose-stack: delivery certificate certified" in proc.stdout


def test_service_table_must_agree_with_family_manifests(tmp_path):
    def flip(table):
        table["service-mix"]["mesh"]["full_refill"] = True

    proc = tiny("service-mix", 0, "--expected", str(_flipped_table(tmp_path, flip)))
    assert proc.returncode != 0
    assert "family manifest says False" in proc.stderr


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(
        "--workload", "cli-certify", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_mix_is_a_pure_function_of_the_seed():
    from mix import build_mix

    table = json.loads((BENCH / "expected.json").read_text())["service-mix"]
    first = build_mix(3, "tiny", 1, table)
    assert build_mix(3, "tiny", 1, table) == first
    assert build_mix(4, "tiny", 1, table)["cold"] != first["cold"]
    assert set(first["cold"]) == set(range(len(first["queries"])))
    assert set(first["hot"]) <= set(first["cold"])
    assert len({p["text"] for p in first["programs"]}) == len(first["programs"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    lat = summarize(samples)
    assert (lat.tail_label, lat.tail, lat.p50) == ("p90", 90.0, 50.5)
    assert summarize(samples[:15]).tail_label == "max"
    assert summarize(samples[:20]).tail_label == "p50"
