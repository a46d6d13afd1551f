"""Seeded job generator and output checks for the four benchmark workloads.

``make_jobs(workload, seed)`` draws everything that varies from ``seed``
(the admissible material, load amplitudes and centres, the initial-kick
centre) and keeps grid sizes, edge patterns and job counts fixed, so the
work per pass does not depend on the seed.  The program only ever sees the
JSON configs written by ``Job.write_config``.

``failed_ops(job, out_dir, stdout, code)`` counts the job's failed ops
and gives the first reason.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("static", "simulate", "dispersion", "verify")

# Work per pass is fixed; only values are drawn.  ``small`` is the 17^2
# variant that the harness self-test runs.
GRID = 65
GRID_SMALL = 17
SIM_STEPS, SIM_EVERY = 300, 30
SIM_STEPS_SMALL, SIM_EVERY_SMALL = 60, 20
DISP_N, DISP_N_SMALL = 1000, 100
DISP_DIRECTIONS = [[1, 0], [0, 1], [1, 1], [1, -1]]
SWEEP_SHAPE = (6, 4, 4, 4)           # points of N, l_t, l_b, Psi
SWEEP_SHAPE_SMALL = (2, 1, 1, 2)
VERIFY_SUITES = 10

# The CLI already rejects a static relative residual above 1e-9.  The
# simulate drift (the leapfrog energy error against the midpoint load work)
# read 1.5e-3 to 1.6e-2 over seeds 0-15 and grows with the pulse
# amplitude; the bound is three times the largest reading.
SIM_DRIFT_BOUND = 5e-2

EDGES = ("left", "right", "bottom", "top")
CLAMPED = {e: "clamped" for e in EDGES}
CANTILEVER = {"left": "clamped", "right": "traction", "bottom": "traction",
              "top": "traction"}


@dataclass
class Job:
    """One CLI invocation: ``cosserat-plate <command> --config ... --out ...``."""

    name: str
    command: str
    config: dict | None = None
    seed: int | None = None
    expect: dict = field(default_factory=dict)

    def write_config(self, work_dir: Path) -> Path | None:
        if self.config is None:
            return None
        path = work_dir / f"{self.name}.json"
        path.write_text(json.dumps(self.config, indent=1, sort_keys=True))
        return path

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        argv = [self.command, "--out", str(out_dir)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv

    @property
    def ops(self) -> int:
        """Ops this job counts for: one, or one per verification suite."""
        return VERIFY_SUITES if self.command == "verify" else 1


def _material(rng) -> dict:
    """Moduli of an admissible material drawn over (N, l_t, l_b, Psi)."""
    from cosserat_plate.material import material_from_technical

    return material_from_technical(
        E=1.0, nu=0.3, N=rng.uniform(0.2, 0.5), l_t=rng.uniform(0.04, 0.08),
        l_b=rng.uniform(0.05, 0.09), Psi=rng.uniform(0.6, 1.2),
        rho=1.0, J=(0.1, 0.1, 0.1)).to_dict()


def _centre(rng, lo=0.3, hi=0.7) -> list[float]:
    return [float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))]


def _static_jobs(rng, n: int) -> list[Job]:
    # static: sparse factorisation dominates; the cantilever adds the
    # per-node traction rows and traction_rhs and bypasses the symmetric
    # condensation that only the all-clamped job can use.  No stepping, no
    # eigensolves.
    jobs = []
    for name, bc in (("static-clamped", CLAMPED), ("static-cantilever", CANTILEVER)):
        mat = _material(rng)
        cfg = {
            "material": mat,
            "geometry": {"a": 1.0, "b": 1.0, "h": 0.1},
            "grid": {"nx": n, "ny": n},
            "bc": dict(bc),
            "loads": {
                "p": {"preset": "constant", "amplitude": rng.uniform(0.5, 2.0)},
                "sigma0": {"preset": "sinusoidal",
                           "amplitude": rng.uniform(0.2, 1.0), "kx": 1, "ky": 1},
                "t": {"preset": "gaussian-pulse",
                      "amplitude": rng.uniform(0.1, 0.5),
                      "center": _centre(rng), "width": 0.15},
            },
        }
        jobs.append(Job(name, "static", cfg, expect={"rows": n * n}))
    return jobs


def _simulate_jobs(rng, n: int, n_steps: int, every: int) -> list[Job]:
    # simulate: time goes to stepping, per-step load evaluation and snapshot
    # CSV writing; no factorisation.  All edges clamped because a traction
    # edge diverges at its own stable dt.  t_final is (n_steps - 1/2) stable
    # steps, so the CLI takes exactly n_steps steps whatever the material.
    from cosserat_plate.dynamics import ModelConfig, assemble, stable_dt
    from cosserat_plate.material import MaterialParams

    mat = _material(rng)
    model = assemble(ModelConfig(material=MaterialParams.from_dict(mat), h=0.1,
                                 a=1.0, b=1.0, nx=n, ny=n, bc=dict(CLAMPED)))
    t_final = (n_steps - 0.5) * stable_dt(model)
    cfg = {
        "material": mat,
        "geometry": {"a": 1.0, "b": 1.0, "h": 0.1},
        "grid": {"nx": n, "ny": n},
        "bc": dict(CLAMPED),
        "loads": {"p": {"preset": "gaussian-pulse",
                        "amplitude": rng.uniform(0.5, 2.0),
                        "center": _centre(rng), "width": 0.1,
                        "t0": 0.3 * t_final, "tau": 0.1 * t_final}},
        "time": {"t_final": t_final, "dt": None, "snapshot_every": every},
        "initial": {"field": "w", "kind": "velocity", "amplitude": 1.0,
                    "center": _centre(rng), "width": 0.1},
    }
    snapshots = 1 + n_steps // every + (1 if n_steps % every else 0)
    return [Job("simulate", "simulate", cfg,
                expect={"rows": n * n, "snapshots": snapshots,
                        "n_steps": n_steps, "dof_steps": 9 * n * n * n_steps})]


def _dispersion_jobs(rng, n_mags: int, sweep_shape) -> list[Job]:
    # dispersion: thousands of small generalized eigensolves in the
    # per-wavevector loop plus large mode-shape JSONs; the sweep adds
    # per-material operator builds.  No grid, no sparse algebra.  One job
    # per direction keeps each CLI call under half a second, so a run holds
    # many short stretches to take the best of (``run.best_pass``).
    mat = _material(rng)
    k_min, k_max = 1e-2, 1e2
    mags = np.unique(np.concatenate([np.geomspace(k_min, k_max, n_mags // 2),
                                     np.linspace(k_min, k_max, n_mags - n_mags // 2)]))
    jobs = [
        Job(f"dispersion-{i}", "dispersion",
            {"material": mat, "geometry": {"h": 0.1},
             "dispersion": {"directions": [d], "k_min": k_min, "k_max": k_max,
                            "n": n_mags, "modes": True}},
            expect={"rows": len(mags) * 9, "wavevectors": len(mags),
                    "labels": [f"{d[0]}:{d[1]}"], "n_mags": len(mags)})
        for i, d in enumerate(DISP_DIRECTIONS)
    ]
    n_n, n_lt, n_lb, n_psi = sweep_shape
    # every grid point is admissible: 0 <= N < 1, 4 l_b^2 > l_t^2, 0 < Psi < 3/2
    sweep = {"sweep": {
        "N": sorted(rng.uniform(0.1, 0.6, n_n).tolist()),
        "l_t": sorted(rng.uniform(0.03, 0.08, n_lt).tolist()),
        "l_b": sorted(rng.uniform(0.05, 0.1, n_lb).tolist()),
        "Psi": sorted(rng.uniform(0.5, 1.4, n_psi).tolist()),
        "xi_mag": rng.uniform(0.5, 5.0),
        "base": {"E": 1.0, "nu": 0.3, "rho": 1.0, "J": [0.1, 0.1, 0.1], "h": 0.1},
    }}
    return jobs + [Job("sweep", "sweep", sweep,
                       expect={"rows": n_n * n_lt * n_lb * n_psi * 15})]


def _verify_jobs(seed: int) -> list[Job]:
    # verify: the acceptance contract every change must pass.  Suite 08
    # takes 50k steps on a 17^2 grid (per-step Python overhead rather than
    # matvec bandwidth); it also factorises all-clamped systems at 17^2,
    # 33^2 and 65^2 and is the only workload that reaches cosserat3d,
    # plate_constitutive, hpr and oracles.
    return [Job("verify", "verify", None, seed=seed)]


def make_jobs(workload: str, seed: int, small: bool = False) -> list[Job]:
    """The fixed job list of one pass of ``workload``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = GRID_SMALL if small else GRID
    if workload == "static":
        return _static_jobs(rng, n)
    if workload == "simulate":
        steps, every = (SIM_STEPS_SMALL, SIM_EVERY_SMALL) if small else (SIM_STEPS, SIM_EVERY)
        return _simulate_jobs(rng, n, steps, every)
    if workload == "dispersion":
        return _dispersion_jobs(rng, DISP_N_SMALL if small else DISP_N,
                                SWEEP_SHAPE_SMALL if small else SWEEP_SHAPE)
    if workload == "verify":
        return _verify_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV (a '# ...' provenance line, then a header)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2 or not rows[0] or not rows[0][0].startswith("#"):
        raise ValueError(f"{path.name}: missing provenance or header line")
    return rows[2:]


def _check_snapshot(path: Path, n_rows: int) -> str | None:
    rows = _read_rows(path)
    if len(rows) != n_rows:
        return f"{path.name}: {len(rows)} rows, expected {n_rows}"
    vals = np.array(rows, dtype=float)
    if vals.shape[1] != 11 or not np.all(np.isfinite(vals)):
        return f"{path.name}: non-finite values or wrong column count"
    return None


def _check_sorted_groups(groups: dict, what: str) -> str | None:
    for key, pairs in groups.items():
        w = np.array([v for _, v in sorted(pairs)])
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            return f"{what} {key}: omega not finite or negative"
        if np.any(np.diff(w) < 0.0):
            return f"{what} {key}: branches not ascending"
    return None


def _check_static(job: Job, out: Path, stdout: str) -> str | None:
    return _check_snapshot(out / "static_snapshot.csv", job.expect["rows"])


def _check_simulate(job: Job, out: Path, stdout: str) -> str | None:
    snaps = sorted(out.glob("snapshot_*.csv"))
    if len(snaps) != job.expect["snapshots"]:
        return f"{len(snaps)} snapshots, expected {job.expect['snapshots']}"
    for path in snaps:
        bad = _check_snapshot(path, job.expect["rows"])
        if bad:
            return bad
    summary = json.loads((out / "run_summary.json").read_text())
    if summary["n_steps"] != job.expect["n_steps"]:
        return f"{summary['n_steps']} steps, expected {job.expect['n_steps']}"
    drift = summary["energy_drift_vs_interior_work"]
    if not (math.isfinite(drift) and drift < SIM_DRIFT_BOUND):
        return f"energy drift {drift:.3e} not below {SIM_DRIFT_BOUND:g}"
    return None


def _check_dispersion(job: Job, out: Path, stdout: str) -> str | None:
    rows = _read_rows(out / "dispersion.csv")
    if len(rows) != job.expect["rows"]:
        return f"dispersion.csv: {len(rows)} rows, expected {job.expect['rows']}"
    groups: dict = {}
    for direction, mag, branch, omega, subsystem in rows:
        groups.setdefault((direction, mag, subsystem), []).append(
            (int(branch), float(omega)))
    bad = _check_sorted_groups(groups, "dispersion")
    if bad:
        return bad
    modes = json.loads((out / "dispersion_modes.json").read_text())
    for label in job.expect["labels"]:
        entry = modes.get(label)
        if entry is None or len(entry["flexural_modes_real"]) != job.expect["n_mags"]:
            return f"dispersion_modes.json: direction {label} missing or short"
    return None


def _check_sweep(job: Job, out: Path, stdout: str) -> str | None:
    rows = _read_rows(out / "sweep.csv")
    if len(rows) != job.expect["rows"]:
        return f"sweep.csv: {len(rows)} rows, expected {job.expect['rows']}"
    groups: dict = {}
    for n_, lt, lb, psi, quantity, branch, value in rows:
        groups.setdefault((n_, lt, lb, psi, quantity), []).append(
            (int(branch), float(value)))
    return _check_sorted_groups(groups, "sweep")


_CHECKS = {"static": _check_static, "simulate": _check_simulate,
           "dispersion": _check_dispersion, "sweep": _check_sweep}


def failed_ops(job: Job, out: Path, stdout: str, code) -> tuple[int, str | None]:
    """(ops failed, first reason) for one finished job.

    ``code`` is the CLI exit code, or ``None`` when the call raised.
    """
    if job.command == "verify":
        passed = sum(1 for line in stdout.splitlines() if line.startswith("PASS"))
        failed = VERIFY_SUITES - passed
        if failed == 0 and code != 0:
            failed = 1
        return failed, (f"{passed}/{VERIFY_SUITES} suites passed, exit {code}"
                        if failed else None)
    if code != 0:
        return 1, f"exit code {code}"
    try:
        reason = _CHECKS[job.command](job, out, stdout)
    except (OSError, ValueError, KeyError) as exc:
        reason = f"unreadable output: {exc}"
    return (1 if reason else 0), reason
