"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench

Checks that every workload runs and prints every metric, traced and
untraced; that a planted wrong result and a memory refusal are caught
and counted in error_rate; and that the command fails cleanly outside
a checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_matches_harness():
    assert WORKLOADS == ["directional", "certify", "pipeline"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.E2E if trace == "0" else run.PER_LAYER
    assert list(result["metrics"]) == [name for name, _ in names]
    text = "\n".join(lines[:-1])
    for name, unit in names:
        assert f"{name} " in text and unit in text
    assert "error_rate" in text and "backend=" in text and "digest:" in text


def _corrupt_first(monkeypatch, workload, mutate):
    """Make the workload's first checked outcome wrong."""
    cls = run.load_library().WORKLOADS[workload]
    original = cls.outcome
    state = {"done": False}

    def outcome(self, job, result):
        out = original(self, job, result)
        if not state["done"]:
            state["done"] = True
            out = json.loads(json.dumps(out))
            mutate(job, out)
        return out

    monkeypatch.setattr(cls, "outcome", outcome)


def _flip_shift_bit(job, out):
    n, _, hx = out["witness"]["shift"].partition(":")
    out["witness"]["shift"] = f"{n}:{int(hx, 16) ^ 1:x}"


def _bump_certify(job, out):
    if job.kind == "condenser":
        out["min_best_rank"] += 1
    elif job.kind == "injector":
        out["certified"] = not out["certified"]
    else:
        out["alpha"] = str(Fraction(out["alpha"]) + 1)


def _bump_pipeline(job, out):
    rep = out["report"]
    if job.kind == "daext":
        n, _, hx = rep["z"].partition(":")
        rep["z"] = f"{n}:{int(hx, 16) ^ 1:x}"
    elif job.kind == "snmext":
        rep["distance"] = str(Fraction(rep["distance"]) + 1)
    else:
        rep["worst_catalog_member"] += "x"


@pytest.mark.parametrize("workload,mutate", [
    ("directional", _flip_shift_bit), ("certify", _bump_certify), ("pipeline", _bump_pipeline)])
def test_planted_wrong_result_is_caught(monkeypatch, workload, mutate):
    _corrupt_first(monkeypatch, workload, mutate)
    summary = run.execute(workload, 3, 0, 0, toy=True)
    failed = [r for r in summary["records"] if r.error is not None]
    assert len(failed) == 1
    assert failed[0] is next(r for r in summary["records"] if r.outcome is not None)
    summary["setup_s_samples"] = [1.0]
    _metrics, attempted, n_failed = run.report(summary)
    assert (attempted, n_failed) == (len(summary["records"]), 1)


def test_memory_guard_refuses_before_running(monkeypatch):
    monkeypatch.setattr(run, "MEMORY_CAP_BYTES", 1 << 10)
    summary = run.execute("directional", 3, 0, 0, toy=True)
    records = summary["records"]
    refused = [r for r in records if r.error and r.error.startswith("refused")]
    # every toy job's estimate is above 1 KiB
    assert len(refused) == len(records) and all(r.latency is None and r.result is None for r in refused)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
