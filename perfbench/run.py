"""Benchmark of the cosserat-plate CLI.

    python3 perfbench/run.py --workload {static,simulate,dispersion,verify}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/``.
The workload's jobs are generated from the seed (``workloads.py``) and
run through ``cosserat_plate.cli.run([...])`` in this process, with the
BLAS pool pinned to one thread.  Passes over the job list repeat until
``--seconds`` is used up, and every job's output is checked after its pass.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time for
a fresh interpreter to import the package), ``scaled_wall_s`` (median time
of one pass over the jobs) and ``peak_rss_mb``.  Both timings fall inside
``--seconds`` and are rescaled to a reference host speed that a probe
sampled during the run measures (``hostspeed.py``), because on a shared
host the raw times drift by a third from one minute to the next; the raw
times are in the report.  ``--trace 1`` spends half the time on untraced
passes and the rest on passes traced by ``spans.py``, and reports the
per-layer metrics, from raw times.  The line before the last holds the
report: the environment stamp, ``ops_attempted``/``ops_failed``, every
pass time, the per-workload throughput (per ``throughput_wall_s``: the
scaled median pass untraced, the raw median pass traced) and, when
traced, each per-layer metric's main and bypass workloads.  The last line
is the result JSON.  Spans and results are also written under
``.perfbench_out/``.

Self-test of the harness: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
SETUP_PROBES = 20
SETUP_TIMEOUT_S = 60


def measure_setup(n: int) -> tuple[list[float], list[float]]:
    """Wall times of ``n`` fresh interpreters importing the CLI module.

    Returns the raw times and the same times rescaled to the reference host
    speed (``hostspeed``) by the median of ``SETUP_PROBES`` probes timed
    just before and just after each import.  Imports alternate between the
    allowed cores like the passes do.
    """
    import hostspeed

    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(SRC))
    cores = sorted(os.sched_getaffinity(0))
    raw, scaled = [], []
    try:
        for i in range(n):
            os.sched_setaffinity(0, {cores[i % len(cores)]})
            probes = hostspeed.time_probe(SETUP_PROBES)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import cosserat_plate.cli"],
                           env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                           stdout=subprocess.DEVNULL)
            dt = time.perf_counter() - t0
            probes += hostspeed.time_probe(SETUP_PROBES)
            raw.append(dt)
            scaled.append(dt * hostspeed.REF_PROBE_S / statistics.median(probes))
    finally:
        os.sched_setaffinity(0, cores)
    return raw, scaled


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy loaded."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def env_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": _blas_threads(),
    }


class _LineClock(io.StringIO):
    """Captured stdout that notes the time at which each line ends."""

    def __init__(self):
        super().__init__()
        self.line_ends: list[float] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            self.line_ends.append(time.perf_counter())
        return super().write(text)


def pass_times(marks: dict, duration) -> list[float]:
    """Each pass's time: the stretches between its marks, ``duration(a, b)``
    each, summed over the jobs.

    A job's marks are its start, the end of each line it prints and its
    end, so the stretches of ``verify`` are its suites.
    """
    n_passes = len(next(iter(marks.values())))
    return [sum(duration(a, b) for runs in marks.values()
                for a, b in zip(runs[p], runs[p][1:])) for p in range(n_passes)]


class Harness:
    """Runs passes over one workload's jobs and tallies their ops."""

    def __init__(self, jobs, work: Path, check):
        self.jobs = jobs
        self.work = work
        self.check = check
        self.configs = [job.write_config(work) for job in jobs]
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.job_walls: dict = {}
        self.marks: dict = {job.name: [] for job in jobs}
        self.bytes_written = 0

    def run_pass(self, cli, tracer=None, tag: str = "") -> float:
        outs = [self.work / job.name for job in self.jobs]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        finished = []
        t0 = time.perf_counter()
        for job, cfg, out in zip(self.jobs, self.configs, outs):
            job_id = f"{job.name}{tag}"
            if tracer is not None:
                tracer.job = job_id
            buf, err = _LineClock(), io.StringIO()
            j0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.run(job.argv(cfg, out))
            except Exception:
                code = None
                err.write(traceback.format_exc())
            j1 = time.perf_counter()
            self.job_walls[job_id] = j1 - j0
            self.marks[job.name].append([j0, *buf.line_ends, j1])
            finished.append((job, out, buf.getvalue() + err.getvalue(), code))
        wall = time.perf_counter() - t0
        for job, out, stdout, code in finished:
            n_failed, reason = self.check(job, out, stdout, code)
            self.attempted += job.ops
            self.failed += n_failed
            if reason:
                self.reasons.append(f"{job.name}: {reason}")
            self.bytes_written += sum(p.stat().st_size for p in out.rglob("*")
                                      if p.is_file())
        return wall

    def run_passes(self, cli, budget: float, tracer=None) -> list[float]:
        """At least one pass; more while the next one fits in ``budget``.

        Successive passes are pinned to the allowed cores in turn, so a run
        samples every core instead of whichever one the scheduler kept it
        on: on a shared 2-vCPU host one core ran a dispersion pass in
        2.0-2.7 s while the other took 2.3-3.3 s.
        """
        cores = sorted(os.sched_getaffinity(0))
        walls = []
        start = time.perf_counter()
        try:
            while True:
                os.sched_setaffinity(0, {cores[len(walls) % len(cores)]})
                walls.append(self.run_pass(cli, tracer, f"#{len(walls)}"))
                if time.perf_counter() - start + statistics.median(walls) > budget:
                    return walls
        finally:
            os.sched_setaffinity(0, cores)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cosserat_plate
    from cosserat_plate import cli

    if Path(cosserat_plate.__file__).resolve().parent != (SRC / "cosserat_plate").resolve():
        raise SystemExit(f"imported cosserat_plate from {cosserat_plate.__file__}, not {SRC}")
    import hostspeed
    import workloads

    stamp = env_stamp()
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        jobs = workloads.make_jobs(workload, seed, small)
        harness = Harness(jobs, work, workloads.failed_ops)
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "small": small, "env": stamp}
        if not trace:
            start = time.perf_counter()
            setup_raw, setup = measure_setup(SETUP_SAMPLES)
            probe = hostspeed.HostProbe()
            probe.start()
            try:
                walls = harness.run_passes(cli, seconds - (time.perf_counter() - start))
            finally:
                probe.stop()
            scaled = pass_times(harness.marks, probe.normalised)
            wall = statistics.median(scaled)
            metrics = {
                "setup_s": _metric(statistics.median(setup), "s"),
                "scaled_wall_s": _metric(wall, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            report.update(setup_samples=setup, raw_setup_samples=setup_raw,
                          scaled_pass_walls=scaled,
                          probe_samples=len(probe.durations),
                          probe_median_s=statistics.median(probe.durations))
        else:
            from spans import PER_LAYER, Tracer, roles

            walls = harness.run_passes(cli, seconds / 2.0)
            wall = statistics.median(walls)
            harness.job_walls.clear()
            bytes_before = harness.bytes_written
            tracer = Tracer()
            tracer.install()
            try:
                remaining = seconds - sum(walls)
                traced = harness.run_passes(cli, remaining, tracer)
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics(
                len(traced), harness.job_walls, harness.bytes_written - bytes_before,
                statistics.median(traced), wall)
            units = {spec["name"]: spec["unit"] for spec in PER_LAYER}
            metrics = {k: _metric(v, units[k]) for k, v in values.items()}
            report["traced_pass_walls"] = traced
            report["layers"] = {k: {"value": v, "main": roles(k)[0], "bypass": roles(k)[1]}
                                for k, v in values.items()}
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.json.gz")
        report.update(pass_walls=walls, median_pass_s=statistics.median(walls),
                      throughput_wall_s=wall, ops_attempted=harness.attempted,
                      ops_failed=harness.failed, failures=harness.reasons[:10])
        if workload == "simulate":
            report["dof_steps_per_s"] = sum(j.expect["dof_steps"] for j in jobs) / wall
        if workload == "dispersion":
            report["wavevectors_per_s"] = sum(j.expect.get("wavevectors", 0)
                                              for j in jobs) / wall
        result = {"correct": harness.failed == 0, "attempted": harness.attempted,
                  "failed": harness.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("static", "simulate", "dispersion", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="17^2 variant of the workload, for the harness self-test")
    args = ap.parse_args(argv)
    if not (SRC / "cosserat_plate" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cosserat_plate'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # before numpy is first imported, so its BLAS pool starts with one thread
    os.environ.update(BLAS_ENV)
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.small)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
