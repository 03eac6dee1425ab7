"""Self-tests of the benchmark.

Each workload runs in smoke mode (small inputs), untraced and traced, and
must print a correct result carrying exactly the metrics BENCHMARK.json
names.  Run from the repository root:

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the repository's own test collection, which
covers the library, not the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sweep-simple", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_partition_an_op():
    tracer = Tracer()
    tracer.op = "op1"
    with tracer.span("op"):
        with tracer.span("cli.inject"):
            with tracer.span("dataset.read"):
                time.sleep(0.01)
            with tracer.span("injection.inject"):
                time.sleep(0.02)
            time.sleep(0.005)
    times = tracer.self_times("op1")
    root = tracer.spans[0]
    assert sum(times.values()) == pytest.approx(root.duration, abs=1e-9)
    assert times["injection.inject"] >= 0.02
    assert 0.005 <= times["cli.inject"] < times["injection.inject"]


def test_wraps_are_removed_after_a_traced_op():
    import types

    module = types.SimpleNamespace(stage=lambda x: x + 1)
    original = module.stage
    tracer = Tracer()
    tracer.wrap(module, "stage", "injection.inject",
                lambda count, sp, args, kwargs, result: count("calls", 1))
    assert module.stage(1) == 2
    tracer.uninstall()
    assert module.stage is original
    assert tracer.counters[""]["calls"] == 1
    assert [s.name for s in tracer.spans] == ["injection.inject", "trace.counters"]


def test_changed_output_fails_the_determinism_check(tmp_path):
    workload = Workload(seed=1, smoke=False, workdir=tmp_path)
    assert workload.check_same_as_first({"train.jsonl": "aa"}) == []
    assert workload.check_same_as_first({"train.jsonl": "aa"}) == []
    assert workload.check_same_as_first({"train.jsonl": "ab"}) != []
