"""Deterministic CSV/JSON output helpers.

Every file starts with (or embeds) the package version and a SHA-256 hash
of the canonicalized run configuration, so outputs are traceable and two
runs with identical config and seed produce byte-identical files.  No
timestamps are written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .plate_fields import KINEMATIC_FIELDS


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header(cfg_hash: str) -> str:
    return f"# cosserat-plate v{__version__} config_sha256={cfg_hash}\n"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_lines(path, cfg_hash: str, columns: list[str], lines) -> None:
    with open(Path(path), "w") as f:
        f.write(_header(cfg_hash))
        f.write(",".join(columns) + "\n")
        f.writelines(lines)


def write_csv(path, cfg_hash: str, columns: list[str], rows) -> None:
    _write_lines(path, cfg_hash, columns, (
        ",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n"
        for row in rows
    ))


def write_snapshot(path, cfg_hash: str, model, state=None,
                   kinematics=None) -> None:
    """One row per grid node: x1, x2, then the nine kinematic fields."""
    kin = kinematics if kinematics is not None else state.kinematics()
    X, Y = model.X, model.Y
    fields = [np.broadcast_to(np.asarray(getattr(kin, n), dtype=float),
                              X.shape) for n in KINEMATIC_FIELDS]
    table = np.stack([X, Y, *fields]).reshape(2 + len(fields), -1).T
    # "%.17g" % x formats a float exactly as _fmt does
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    _write_lines(path, cfg_hash, ["x1", "x2", *KINEMATIC_FIELDS],
                 (line % tuple(row) for row in table.tolist()))


def write_energy_log(path, cfg_hash: str, energy) -> None:
    e = energy.as_arrays()
    rows = zip(e["t"], e["kinetic"], e["strain"], e["external_work"], e["total"])
    write_csv(path, cfg_hash,
              ["t", "kinetic", "strain", "external_work", "total"], rows)


def write_dispersion(path, cfg_hash: str, directions, results) -> None:
    """results: list of (direction_label, k_mags, flexural (n,6), ext (n,3))."""
    rows = []
    for label, mags, flex, ext in results:
        for i, k in enumerate(mags):
            for b in range(flex.shape[1]):
                rows.append([label, k, b, flex[i, b], "flexural"])
            for b in range(ext.shape[1]):
                rows.append([label, k, b, ext[i, b], "extensional"])
    write_csv(path, cfg_hash,
              ["direction", "xi_mag", "branch", "omega", "subsystem"], rows)


def write_summary(path, cfg_hash: str, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg_hash
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")
