"""Tests of the request-path benchmark itself.

Run from the repository root (the file name keeps it out of the tier-1
collection, since each case starts fresh interpreters)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
        check=False,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_of(done: subprocess.CompletedProcess) -> str:
    for line in done.stdout.splitlines():
        if line.startswith("responses digest: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no digest in output:\n{done.stdout}")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["commute", "ingest", "browse"])
def test_one_seed_gives_one_digest_in_fresh_processes(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "120", "--small")
    first, second = run_bench(*args), run_bench(*args)
    for done in (first, second):
        assert done.returncode == 0, done.stdout + done.stderr
        assert "script exhausted" in done.stdout, "the digest must cover the whole script"
        assert result_of(done)["correct"] is True
    assert digest_of(first) == digest_of(second)
    reported = set(result_of(first)["metrics"])
    assert reported <= {metric["name"] for metric in declared()["end_to_end"]}
    assert {"setup_s", "throughput_rps", "peak_rss_mb"} <= reported


def test_traced_run_reports_every_layer_metric():
    done = run_bench("--workload", "commute", "--seed", "3", "--seconds", "120",
                     "--small", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = result_of(done)["metrics"]
    assert set(metrics) == {metric["name"] for metric in declared()["per_layer"]}
    assert metrics["trace.missing_targets"]["value"] == 0
    assert metrics["unattributed_ms"]["value"] >= 0
    assert metrics["tick.calls"]["value"] > 0
    assert metrics["streaming.observe.worker_ms"]["value"] > 0
    assert metrics["recovery_s"]["value"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "commute", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.pipeline.gateway.gateway import Gateway

    original = inspect.getattr_static(Gateway, "handle_wire")
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (
        ("gone", "repro.pipeline.server", "PphcrServer.no_such_method"),
        ("gone", "repro.no_such_module", "anything"),
    ))
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert inspect.getattr_static(Gateway, "handle_wire") is not original
    finally:
        recorder.uninstall()
    assert recorder.missing == [
        "repro.pipeline.server.PphcrServer.no_such_method",
        "repro.no_such_module.anything",
    ]
    assert inspect.getattr_static(Gateway, "handle_wire") is original


def test_self_times_and_residual_add_up_to_wall_time():
    recorder = spans.Recorder()

    def leaf():
        time.sleep(0.002)

    traced_leaf = recorder._span("leaf", leaf, None)

    def outer():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    traced_outer = recorder._span("outer", outer, None)
    recorder.active = True
    start = time.perf_counter()
    traced_outer()
    time.sleep(0.003)
    traced_outer()
    end = time.perf_counter()
    recorder.active = False
    metrics = recorder.breakdown(start, end)
    assert metrics["leaf.calls"] == 4 and metrics["outer.calls"] == 2
    assert metrics["leaf.self_ms"] >= 8.0
    assert metrics["unattributed_ms"] >= 3.0
    total = metrics["leaf.self_ms"] + metrics["outer.self_ms"] + metrics["unattributed_ms"]
    assert total == pytest.approx((end - start) * 1000.0, rel=1e-9)
