"""Self-test of the benchmark harness: ``python3 -m pytest perfbench -q``.

Runs the 17^2 variant of each workload (``verify`` has no smaller form)
untraced and traced, and checks that every metric is emitted and that
broken outputs count as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
ENV_KEYS = {"cpu", "nproc", "python", "numpy", "scipy", "blas_env", "blas_threads"}


def _bench(workload: str, trace: int, cwd: Path = ROOT, small: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--small"] if small else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_harness():
    assert BENCH["per_layer"] == spans.PER_LAYER
    assert set(E2E) == {"setup_s", "scaled_wall_s", "peak_rss_mb"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload):
    for trace in (0, 1):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, report_line, result_line = proc.stdout.splitlines()
        report, result = json.loads(report_line), json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert report["ops_attempted"] == result["attempted"] >= 1
        assert report["ops_failed"] == 0
        assert set(report["env"]) == ENV_KEYS
        expected = E2E if trace == 0 else {m["name"]: m["unit"] for m in spans.PER_LAYER}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            assert result["metrics"]["trace.self_share_min"]["value"] > 0.95
            assert all({"main", "bypass"} <= set(v) for v in report["layers"].values())
        if workload == "simulate":
            assert report["dof_steps_per_s"] > 0
        if workload == "dispersion":
            assert report["wavevectors_per_s"] > 0


def test_host_probe_rescales_by_the_median_probe_time():
    probe = hostspeed.HostProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        sum(range(1000))
    t1 = time.perf_counter()
    probe.stop()
    inside = [d for s, d in zip(probe.starts, probe.durations) if t0 <= s < t1]
    assert len(inside) >= hostspeed.MIN_SAMPLES
    expected = (t1 - t0 - sum(inside)) * hostspeed.REF_PROBE_S / statistics.median(inside)
    assert probe.normalised(t0, t1) == pytest.approx(expected)


def _run_job(job, tmp: Path) -> Path:
    from cosserat_plate import cli

    out = tmp / job.name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(job.argv(job.write_config(tmp), out)) == 0
    assert workloads.failed_ops(job, out, "", 0) == (0, None)
    return out


def test_nan_in_snapshot_is_a_failed_op(tmp_path):
    job = workloads.make_jobs("static", 5, small=True)[0]
    out = _run_job(job, tmp_path)
    broken = shutil.copytree(out, tmp_path / "broken")
    snap = broken / "static_snapshot.csv"
    lines = snap.read_text().splitlines()
    cells = lines[7].split(",")
    cells[4] = "nan"
    lines[7] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")
    failed, reason = workloads.failed_ops(job, broken, "", 0)
    assert failed == 1 and "non-finite" in reason


def test_truncated_dispersion_csv_is_a_failed_op(tmp_path):
    job = workloads.make_jobs("dispersion", 5, small=True)[0]
    out = _run_job(job, tmp_path)
    broken = shutil.copytree(out, tmp_path / "broken")
    csv_path = broken / "dispersion.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-5]) + "\n")
    failed, reason = workloads.failed_ops(job, broken, "", 0)
    assert failed == 1 and "rows" in reason


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("static", 0, cwd=tmp_path, small=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
