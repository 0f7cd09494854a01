"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Tiny-size runs of every workload must emit every metric ``BENCHMARK.json``
declares, with its unit, and between them produce every per-layer metric;
the output checks must catch one perturbed token or loss value; the recorded
references must cover every distinct call, which call numbers wrap onto;
and the benchmark must refuse to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import report  # noqa: E402
from spans import Capture  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def tiny_runs():
    """One tiny run of every workload in each trace mode, made on first use:
    ``(workload, trace) -> CompletedProcess``."""
    runs = {}

    def get(workload, trace):
        if (workload, trace) not in runs:
            runs[workload, trace] = run_bench(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
        return runs[workload, trace]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(tiny_runs, workload, trace):
    proc = tiny_runs(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    machine = json.loads(proc.stdout.splitlines()[0])["machine"]
    assert machine["blas_threads_requested"] <= machine["nproc"]


def test_every_declared_per_layer_metric_is_produced(tiny_runs):
    """A traced run reports a declared metric its layer did not produce as
    0; some workload must actually produce each one, or the metric reads 0
    everywhere and a lost layer would pass for a perfect gain."""
    produced = set()
    for workload in WORKLOADS:
        proc = tiny_runs(workload, 1)
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            row = json.loads(line)
            if "trace" in row:
                produced |= set(row["trace"])
    missing = {m["name"] for m in DECLARED["per_layer"]} - produced
    assert not missing, sorted(missing)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def tiny_outcome(name: str, tmp_path):
    """Run one tiny call in-process and return its checked outcome."""
    capture = Capture()
    capture.install()
    try:
        workload = WORKLOAD_CLASSES[name]("tiny", tmp_path)
        workload.setup(seed=5)
        call = workload.calls(0)[0]
        cap = capture.begin()
        outcome = call.finish(call.run(), cap)
    finally:
        capture.restore()
    return workload, outcome


@pytest.mark.parametrize("name", ["evaluate", "beam"])
def test_decode_checks_catch_one_perturbed_token(name, tmp_path):
    workload, outcome = tiny_outcome(name, tmp_path)
    record = outcome.record
    ref = report.reference_of(record)
    assert workload.check(record, ref) == []

    mutated = json.loads(json.dumps(record))
    seq = mutated["ids"][0]
    seq[len(seq) // 2] += 1
    assert any("digest" in p for p in workload.check(mutated, ref))

    capped = json.loads(json.dumps(record))
    capped["ids"][0] = [7] * (record["max_steps"] + 1)
    assert any("step cap" in p for p in workload.check(capped, None))


def test_evaluate_identity_check_catches_one_perturbed_percentage(tmp_path):
    workload, outcome = tiny_outcome("evaluate", tmp_path)
    mutated = json.loads(json.dumps(outcome.record))
    mutated["report"]["pct_over"] += 1e-9
    assert any("100.0" in p for p in workload.check(mutated, None))


def test_beam_check_catches_a_repeated_blocked_ngram(tmp_path):
    workload, outcome = tiny_outcome("beam", tmp_path)
    mutated = json.loads(json.dumps(outcome.record))
    mutated["ids"][0] = [9, 10, 11, 9, 10, 11]
    assert any("repeats" in p for p in workload.check(mutated, None))


def test_train_checks_catch_one_perturbed_loss(tmp_path):
    workload, outcome = tiny_outcome("train", tmp_path)
    record = outcome.record
    ref = report.reference_of(record)
    assert workload.check(record, ref) == []

    for key in checks.REFERENCE_LOSS_KEYS:
        mutated = json.loads(json.dumps(record))
        mutated[key][0] *= 1.0 + 1e-9
        assert any(key in p for p in workload.check(mutated, ref)), key

    mutated = json.loads(json.dumps(record))
    mutated["train_ce"][0] = float("nan")
    problems = workload.check(mutated, None)
    assert any("not finite" in p for p in problems)


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_holds_one_entry_per_distinct_call(name, tmp_path):
    distinct = WORKLOAD_CLASSES[name]("full", tmp_path).distinct_calls()
    refs = checks.load_references()
    seeds = refs.get(f"{name}@full", {})
    assert seeds, f"no recorded seeds for {name}"
    for seed in seeds:
        assert len(checks.references_for(refs, name, "full", int(seed),
                                         distinct)) == distinct
    with pytest.raises(ValueError):
        checks.references_for(refs, name, "full", int(next(iter(seeds))),
                              distinct + 1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_calls_repeat_after_distinct_calls(name, tmp_path):
    """Call ``i`` must give call ``i % distinct_calls()``'s outputs, which
    is what lets a run check every call against the recorded references."""
    capture = Capture()
    capture.install()
    try:
        workload = WORKLOAD_CLASSES[name]("tiny", tmp_path)
        workload.setup(seed=5)
        first = workload.calls(0)
        again = workload.calls(workload.distinct_calls() // len(first))
        for a, b in zip(first, again, strict=True):
            records = []
            for call in (a, b):
                cap = capture.begin()
                records.append(call.finish(call.run(), cap).record)
            assert records[0] == records[1]
    finally:
        capture.restore()
