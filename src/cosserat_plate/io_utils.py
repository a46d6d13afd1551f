"""Deterministic CSV/JSON output helpers.

Every file starts with (or embeds) the package version and a SHA-256 hash
of the canonicalized run configuration, so outputs are traceable and two
runs with identical config and seed produce byte-identical files.  No
timestamps are written.  The one exception is telemetry:
``verify_report.json``, written by ``verification.run_all``, records each
suite's wall time and is outside the byte-identity guarantee.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .plate_fields import KINEMATIC_FIELDS

# Values formatted into one string by a %-template before it is written
_CHUNK_VALUES = 4096


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
                 _formatted(table, line))


def write_energy_log(path, cfg_hash: str, energy) -> None:
    e = energy.as_arrays()
    rows = zip(e["t"], e["kinetic"], e["strain"], e["external_work"], e["total"])
    write_csv(path, cfg_hash,
              ["t", "kinetic", "strain", "external_work", "total"], rows)


def write_dispersion(path, cfg_hash: str, results) -> None:
    """results: list of (direction_label, k_mags (n,), flexural (n, nf),
    extensional (n, ne)); per magnitude, one row per flexural then per
    extensional branch."""
    def lines():
        for label, mags, flex, ext in results:
            label = label.replace("%", "%%")
            row = "".join(f"{label},%.17g,{b},%.17g,{sub}\n"
                          for sub, n in (("flexural", flex.shape[1]),
                                         ("extensional", ext.shape[1]))
                          for b in range(n))
            # (k, omega) per branch, in the order of the template's slots
            omega = np.hstack([flex, ext])
            values = np.empty((len(mags), 2 * omega.shape[1]))
            values[:, 0::2] = np.asarray(mags)[:, None]
            values[:, 1::2] = omega
            yield from _formatted(values, row)

    _write_lines(path, cfg_hash,
                 ["direction", "xi_mag", "branch", "omega", "subsystem"],
                 lines())


def write_sweep(path, cfg_hash: str, points, quantities) -> None:
    """One row per material point, quantity and branch: the point's
    (N, l_t, l_b, Psi), the quantity's label, the branch and its value.
    ``quantities`` is a list of (label, values (len(points), branches)),
    empty when there are no points."""
    lines = ()
    if quantities:
        # one template per point: every quantity's branches in turn
        row = "".join(f"%.17g,%.17g,%.17g,%.17g,{label.replace('%', '%%')},"
                      f"{_fmt(b)},%.17g\n"
                      for label, values in quantities
                      for b in range(values.shape[1]))
        values = np.hstack([values for _, values in quantities])
        table = np.empty(values.shape + (5,))
        table[:, :, :4] = np.reshape(points, (-1, 1, 4))
        table[:, :, 4] = values
        lines = _formatted(table.reshape(len(table), -1), row)
    _write_lines(path, cfg_hash,
                 ["N", "l_t", "l_b", "Psi", "quantity", "branch", "value"],
                 lines)


def _formatted(rows: np.ndarray, row_template: str, sep: str = ""):
    """The rows of the 2-D float array ``rows``, each through the
    %-template ``row_template`` and joined by ``sep``, as a stream of
    strings of at most ``_CHUNK_VALUES`` values each (or one row)."""
    k = max(1, _CHUNK_VALUES // max(rows.shape[1], 1))
    full = sep.join([row_template] * k)
    for start in range(0, len(rows), k):
        block = rows[start:start + k]
        template = (full if len(block) == k
                    else sep.join([row_template] * len(block)))
        yield (sep if start else "") + template % tuple(block.ravel().tolist())


def write_summary(path, cfg_hash: str, payload: dict) -> None:
    """``payload`` with the version and config hash, written as exactly the
    bytes of ``json.dump(..., indent=2, sort_keys=True)`` plus a newline.
    Float arrays are formatted through %-templates and streamed in chunks
    instead of going through the json module's pure-Python encoder."""
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg_hash
    with open(path, "w") as f:
        _write_json(f, payload, 0)
        f.write("\n")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


# Lays out everything but float64 arrays.  Its output holds a raw newline
# only before an indent (strings escape theirs), so a subtree nested
# ``level`` deep is its output with "  " * level after every newline.
_JSON = json.JSONEncoder(indent=2, sort_keys=True, default=_json_default)


def _write_json(f, obj, level: int) -> None:
    """Write ``obj`` as ``_JSON`` would at nesting depth ``level``."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim \
            and obj.size:
        _write_float_array(f, obj, level)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        indent = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(obj)):
            f.write(("," if i else "{") + indent + json.dumps(key) + ": ")
            _write_json(f, obj[key], level + 1)
        f.write("\n" + "  " * level + "}")
    else:
        newline = "\n" + "  " * level
        for chunk in _JSON.iterencode(obj):
            f.write(chunk.replace("\n", newline))


def _json_template(shape: tuple, level: int) -> str:
    """%-template of a nonempty array of ``shape`` as ``_JSON`` lays out
    its ``.tolist()`` at depth ``level``."""
    if not shape:
        return "%r"
    indent = "\n" + "  " * (level + 1)
    item = _json_template(shape[1:], level + 1)
    return ("[" + indent + ("," + indent).join([item] * shape[0])
            + "\n" + "  " * level + "]")


def _write_float_array(f, a: np.ndarray, level: int) -> None:
    """A nonempty float64 array of one or more dimensions, as ``_JSON``
    lays out its ``.tolist()``: one template per leading-axis row.  ``%r``
    is the repr that json uses for finite floats; json spells the others
    NaN, Infinity and -Infinity."""
    indent = "\n" + "  " * (level + 1)
    finite = bool(np.all(np.isfinite(a)))
    f.write("[" + indent)
    for text in _formatted(a.reshape(len(a), -1),
                           _json_template(a.shape[1:], level + 1),
                           "," + indent):
        if not finite:
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        f.write(text)
    f.write("\n" + "  " * level + "]")
