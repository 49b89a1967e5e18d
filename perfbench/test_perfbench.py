"""Self-test of the benchmark, on tiny inputs (``--smoke``).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every workload emits every end-to-end and per-layer metric
with its unit, that the traced self times add up to the traced wall
time, that a deliberately perturbed answer and an answer that differs
from ``golden.json`` are counted as failures, that the benchmark
refuses to run without the program's sources, and that the host clock
turns wall time into reference time.
"""

from __future__ import annotations

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

from hostspeed import HostClock  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Named metrics each workload prints, beside the gated ones.
NAMED = {
    "batch-std": ("setup_s", "run_s", "host_speed", "peak_rss_mb"),
    "batch-city": ("setup_s", "run_s", "host_speed", "peak_rss_mb"),
    "stream-commit": ("setup_s", "trips_per_s", "epoch_p50_ms",
                      "epoch_tail_ms", "host_speed", "peak_rss_mb"),
    "serve-ladder": ("setup_s", "serve_max_rps", "lat_p50_ms",
                     "lat_tail_ms", "peak_rss_mb"),
}
COMMON = ("setup_wall_s", "ops", "failed", "fail_ratio")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1",
         "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def printed(proc: subprocess.CompletedProcess) -> dict:
    """``name value unit`` lines of the human-readable report."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
    lines = printed(proc)
    for name in NAMED[workload] + COMMON:
        assert name in lines, name
    assert lines["fail_ratio"] == (0.0, "ratio")
    assert "stamp " in proc.stdout and '"n_cpus"' in proc.stdout
    assert '"host_probe_ms"' in proc.stdout
    inputs = next(json.loads(line[len("inputs "):])
                  for line in proc.stdout.splitlines()
                  if line.startswith("inputs "))
    assert "trips.csv" in inputs and len(inputs["trips.csv"]) == 64
    # golden.json holds this smoke seed's answers.
    assert "golden                 matched" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up(workload: str) -> None:
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        assert metrics[name]["unit"] == unit
    wall = metrics["wall_s"]["value"]
    assert wall > 0
    seconds = sum(
        m["value"] for name, m in metrics.items()
        if m["unit"] == "s" and name != "wall_s"
    )
    if workload == "serve-ladder":
        # Per request: lateness + server + transport, in ms.
        rungs = [json.loads(line[len("rung "):])
                 for line in proc.stdout.splitlines()
                 if line.startswith("rung ")]
        assert len(rungs) == 1
        per_request_ms = sum(
            metrics[name]["value"] for name in
            ("serve.gen_late_ms", "serve.server_ms", "serve.transport_ms")
        )
        seconds += per_request_ms * rungs[0]["requests"] / 1000.0
        assert metrics["serve.server_ms"]["value"] > 0
        assert metrics["serve.transport_ms"]["value"] > 0
    else:
        assert metrics["other_s"]["value"] >= 0
    assert seconds == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_answer_is_counted(workload: str) -> None:
    proc = bench("--workload", workload, "--perturb")
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert printed(proc)["fail_ratio"][0] > 0


def copy_tree(dest: Path, with_src: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_golden_mismatch_is_counted(tmp_path: Path) -> None:
    copy_tree(tmp_path, with_src=True)
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden["batch-std-smoke/3"]["answers"] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    proc = bench("--workload", "batch-std", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert "golden                 failed" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    copy_tree(tmp_path, with_src=False)
    proc = bench("--workload", "batch-std", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert not proc.stdout.strip()


def test_host_clock_reference_time() -> None:
    with HostClock(period_s=0.02) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    assert len(clock.starts) >= 10
    ticks = sum(clock.costs[1:-1])
    speed = clock.median_speed()
    ref = clock.reference_s(start, end)
    # Tick time is left out; the rest is weighted by the host's speed.
    assert 0 < ref < (end - start - ticks) * speed * 3
    assert ref > (end - start - ticks) * speed / 3
    half = clock.reference_s(start, (start + end) / 2)
    assert 0 < half < ref
    with pytest.raises(ValueError):
        clock.reference_s(start, end + 10.0)
