"""Smoke test of the end-to-end benchmark itself.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q`` (about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, run
from benchmarks.e2e.churn_durable import ChurnDurable
from benchmarks.e2e.measure import ROOT, load_spec
from benchmarks.e2e.timetravel_mix import TimetravelMix

SPEC = load_spec()
SECONDS = 0.4


@pytest.fixture(autouse=True)
def one_setup(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_emits_exactly_the_declared_metrics(workload: str, trace: int) -> None:
    result = run.run_one(workload, seed=11, seconds=SECONDS, trace=trace)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    line = json.loads(run.contract_line(result, SPEC))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert list(line["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        produced = result["metrics"].get(entry["name"])
        if produced is not None:
            assert produced.unit == entry["unit"], entry["name"]
    if not trace:
        assert all(line["metrics"][e["name"]]["value"] > 0 for e in declared)


def test_layers_separate_as_designed() -> None:
    """WAL syncs only where there are writes; evictions only past the cache."""
    by_name = {
        name: run.run_one(name, seed=11, seconds=SECONDS, trace=1)["metrics"]
        for name in ("timetravel_mix", "churn_durable")
    }
    assert by_name["timetravel_mix"]["storage.wal.syncs"].value == 0
    assert by_name["churn_durable"]["storage.wal.syncs"].value > 0
    assert by_name["timetravel_mix"]["plan.cache_evictions"].value == 0
    assert by_name["timetravel_mix"]["storage.memgraph.temporal_index_candidates"].value > 0


def test_command_line_contract(tmp_path: Path) -> None:
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "churn_durable",
         "--seed", "5", "--seconds", "0.4", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [entry["name"] for entry in SPEC["end_to_end"]]


def test_journaled_bytes_repeat_exactly_for_one_seed(tmp_path: Path) -> None:
    def journaled(workdir: Path) -> tuple[int, int]:
        workload = ChurnDurable(seed=5, workdir=workdir)
        try:
            for _ in range(600):  # past one checkpoint
                next(workload.stream).call()
            return workload.wal_appended, workload.checkpoint_bytes
        finally:
            workload.close()

    first = journaled(tmp_path / "a")
    assert first[0] > 0 and first[1] > 0
    assert journaled(tmp_path / "b") == first


def test_wrong_expected_digest_is_a_failed_op(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(
        "benchmarks.e2e.timetravel_mix.expected_digests",
        lambda workload, seed, oracle: {text: "0" * 16 for text in oracle},
    )
    measurement = TimetravelMix(seed=5, workdir=tmp_path).measure(0.2)
    assert measurement.attempted > 0
    assert measurement.failed == measurement.attempted


def test_compare_reports_noise_as_unresolved() -> None:
    steady, noisy = [100.0, 101.0, 99.0, 100.5], [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(steady, steady, "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.10) == "REGRESSED"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "higher", 0.10) == "improved"
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict([100.0], [100.0], "lower", 0.10) == "unresolved"
