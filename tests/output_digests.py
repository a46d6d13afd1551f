"""Reference SHA-256 digests of every file that a fixed set of small CLI
jobs writes, and the ten printed lines of ``verify`` at seed 0 with their
wall times masked (with the digest of its ``coefficient_diff.csv``), kept
in ``tests/data/output_digests.json`` and checked by
``tests/test_output_digests.py``.

Regenerate the file only when a change moves outputs on purpose, and name
each moved digest and the reason in CHANGES.md:

    PYTHONPATH=src python tests/output_digests.py

Every output embeds the package version, so a version bump moves every
digest.  The file also records the environment the digests were taken in
(``environment_stamp``): on another Python, NumPy, SciPy or BLAS build, or
another CPU, floating-point results may differ in the last bit, and the
test then reports moved digests as an expected failure, not an error.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"

_MATERIAL = {"lambda": 1.3, "mu": 1.0, "alpha": 0.35, "beta": 0.21,
             "gamma": 0.42, "epsilon": 0.17, "rho": 1.0,
             "J": [0.1, 0.12, 0.15]}
_CLAMPED = {e: "clamped" for e in ("left", "right", "bottom", "top")}
_PLATE = {"material": _MATERIAL, "geometry": {"a": 1.0, "b": 0.8, "h": 0.1},
          "grid": {"nx": 17, "ny": 13}}

# Every command but verify, both subsystems, all four loads, clamped and
# traction edges, the t = 0 snapshot of a displacement kick and of a
# velocity kick, a run whose extensional subsystem stays at rest, a run on
# which no force does work (no loads, no lift, no traction edge), and the
# mode shapes.
JOBS = {
    "static-clamped": ("static", dict(_PLATE, bc=_CLAMPED, loads={
        "p": {"preset": "constant", "amplitude": 1.0},
        "sigma0": {"preset": "sinusoidal", "amplitude": 0.5, "kx": 1,
                   "ky": 2}})),
    "static-cantilever": ("static", dict(_PLATE, bc={
        "left": "clamped", "right": "traction", "bottom": "traction",
        "top": "traction"}, loads={
        "p": {"preset": "constant", "amplitude": 0.7},
        "t": {"preset": "gaussian-pulse", "amplitude": 0.3,
              "center": [0.6, 0.4], "width": 0.15}})),
    "simulate-clamped-at-rest-extension": ("simulate", dict(
        _PLATE, bc=_CLAMPED,
        loads={"p": {"preset": "gaussian-pulse", "amplitude": 1.5,
                     "center": [0.4, 0.5], "width": 0.1, "t0": 0.2,
                     "tau": 0.1},
               "t": {"preset": "gaussian-pulse", "amplitude": 0.4,
                     "center": [0.6, 0.3], "width": 0.2, "t0": 0.3}},
        time={"t_final": 0.6, "snapshot_every": 10},
        initial={"field": "w", "kind": "displacement", "amplitude": 0.01,
                 "center": [0.5, 0.4], "width": 0.15})),
    "simulate-right-top-traction-kick": ("simulate", dict(
        _PLATE, bc={"left": "clamped", "right": "traction",
                    "bottom": "clamped", "top": "traction"},
        loads={"v": {"preset": "gaussian-pulse", "amplitude": 0.8,
                     "center": [0.5, 0.5], "width": 0.2, "t0": 0.1}},
        time={"t_final": 0.5, "snapshot_every": 8},
        initial={"field": "u1", "kind": "velocity", "amplitude": 0.5,
                 "center": [0.5, 0.4], "width": 0.15})),
    "simulate-clamped-unforced": ("simulate", dict(
        _PLATE, bc=_CLAMPED, time={"t_final": 2.0, "snapshot_every": 25},
        initial={"field": "w", "kind": "velocity", "amplitude": 0.3,
                 "center": [0.45, 0.35], "width": 0.2})),
    "dispersion-modes": ("dispersion", {
        "material": _MATERIAL, "geometry": {"h": 0.1},
        "dispersion": {"directions": [[1, 0], [1, -1]], "k_min": 0.1,
                       "k_max": 30.0, "n": 12, "modes": True}}),
    "sweep": ("sweep", {"sweep": {
        "N": [0.1, 0.4, 1.5], "l_t": [0.04, 0.07], "l_b": [0.06],
        "Psi": [0.7, 1.1], "xi_mag": 2.5,
        "base": {"E": 1.0, "nu": 0.3, "rho": 1.0, "J": [0.1, 0.1, 0.1],
                 "h": 0.1}}}),
}


def _blas(pkg) -> str:
    blas = pkg.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment_stamp() -> dict:
    """What the digests may depend on beyond the source: the interpreter,
    NumPy and SciPy with the BLAS each was built against, and the CPU
    (OpenBLAS picks its kernels by CPU at run time)."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": _blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": _blas(scipy),
            "machine": platform.machine(), "cpu": cpu}


def run_job(command: str, config: dict, work: Path) -> dict:
    """Run one job through the CLI in ``work``; the SHA-256 of each file
    it wrote, by name."""
    from cosserat_plate import cli

    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = work / "out"
    code = cli.run([command, "--config", str(cfg_path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def masked_verify_lines(lines) -> list:
    """``verify``'s printed lines with each wall time (``0.03s``) masked,
    so that what is left depends only on the computed numbers."""
    return [re.sub(r"\d+\.\d+s", "<wall>s", line) for line in lines]


def verify_record(lines, out: Path) -> dict:
    """What the tests compare of a ``run_all(seed=0, out_dir=out)`` that
    printed ``lines``."""
    diff = (out / "coefficient_diff.csv").read_bytes()
    return {"lines": masked_verify_lines(lines),
            "digests": {"coefficient_diff.csv":
                        hashlib.sha256(diff).hexdigest()}}


def main() -> None:
    import contextlib
    import io

    from cosserat_plate import verification

    jobs = {}
    for name, (command, config) in JOBS.items():
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            digests = run_job(command, config, Path(tmp))
        jobs[name] = {"command": command, "config": config,
                      "digests": digests}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as printed:
        verification.run_all(seed=0, out_dir=tmp)
        verify = verify_record(printed.getvalue().splitlines(), Path(tmp))
    DIGESTS.write_text(json.dumps(
        {"environment": environment_stamp(), "jobs": jobs, "verify": verify},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(j['digests']) for j in jobs.values())} digests "
          f"of {len(jobs)} jobs and {len(verify['lines'])} verify lines to "
          f"{DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
