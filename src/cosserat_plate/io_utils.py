"""Deterministic CSV/JSON output helpers.

Every file starts with (or embeds) the package version and a SHA-256 hash
of the canonicalized run configuration, so outputs are traceable and two
runs with identical config and seed produce byte-identical files.  No
timestamps are written.

CSV numbers are written as ``%.17g`` through %-templates, a chunk of rows
at a time, and a number known to repeat is formatted once: a snapshot
reuses its model's coordinate text and writes a field that is constant
over the grid as a literal of its row template, and the dispersion and
sweep tables format each magnitude or material point once for all the
rows it leads.

The one exception to byte identity is telemetry: ``verify_report.json``,
written by ``verification.run_all``, records each suite's wall time.
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
    """One row per grid node: x1, x2, then the nine kinematic fields.

    The coordinates are the model's ``coordinate_text``, formatted once per
    model.  A field that holds one float64 bit pattern on every node (the
    fields of a subsystem at rest, say) is written as that value's text in
    the row template, formatted once; bits, not ==, decide, so +0 and -0
    keep their own spellings."""
    kin = kinematics if kinematics is not None else state.kinematics()
    fields = np.stack([np.broadcast_to(np.asarray(getattr(kin, n), dtype=float),
                                       model.X.shape) for n in KINEMATIC_FIELDS])
    fields = fields.reshape(len(KINEMATIC_FIELDS), -1)
    bits = fields.view(np.int64)
    constant = np.all(bits == bits[:, :1], axis=1)
    # "%.17g" % x formats a float exactly as _fmt does
    line = "".join("," + (_fmt(f[0]) if c else "%.17g")
                   for f, c in zip(fields, constant)) + "\n"
    _write_lines(path, cfg_hash, ["x1", "x2", *KINEMATIC_FIELDS],
                 _formatted(fields[~constant].T, [line],
                            keys=model.coordinate_text,
                            width=2 + len(KINEMATIC_FIELDS)))


def write_energy_log(path, cfg_hash: str, energy) -> None:
    e = energy.as_arrays()
    rows = zip(e["t"], e["kinetic"], e["strain"], e["external_work"], e["total"])
    write_csv(path, cfg_hash,
              ["t", "kinetic", "strain", "external_work", "total"], rows)


def write_dispersion(path, cfg_hash: str, results) -> None:
    """results: list of (direction_label, k_mags (n,), flexural (n, nf),
    extensional (n, ne)); per magnitude, one row per flexural then per
    extensional branch.  Each magnitude is formatted once for its rows."""
    def lines():
        for label, mags, flex, ext in results:
            branches = [f",{b},%.17g,{sub}\n"
                        for sub, n in (("flexural", flex.shape[1]),
                                       ("extensional", ext.shape[1]))
                        for b in range(n)]
            keys = [f"{label},{_fmt(k)}" for k in np.asarray(mags).tolist()]
            yield from _formatted(np.hstack([flex, ext]), branches, keys=keys)

    _write_lines(path, cfg_hash,
                 ["direction", "xi_mag", "branch", "omega", "subsystem"],
                 lines())


def write_sweep(path, cfg_hash: str, points, quantities) -> None:
    """One row per material point, quantity and branch: the point's
    (N, l_t, l_b, Psi), the quantity's label, the branch and its value.
    ``quantities`` is a list of (label, values (len(points), branches)),
    empty when there are no points.  Each point is formatted once for its
    rows."""
    lines = ()
    if quantities:
        # per point, every quantity's branches in turn
        branches = [f",{label.replace('%', '%%')},{b},%.17g\n"
                    for label, values in quantities
                    for b in range(values.shape[1])]
        keys = [",".join(map(_fmt, p))
                for p in np.reshape(points, (-1, 4)).tolist()]
        lines = _formatted(np.hstack([values for _, values in quantities]),
                           branches, keys=keys)
    _write_lines(path, cfg_hash,
                 ["N", "l_t", "l_b", "Psi", "quantity", "branch", "value"],
                 lines)


def _formatted(rows: np.ndarray, row_template, sep: str = "", keys=None,
               width: int | None = None):
    """The rows of the 2-D float array ``rows``, each through the
    %-template ``row_template`` and joined by ``sep``, as a stream of
    strings of at most ``_CHUNK_VALUES`` values each (or one row), a row
    counting ``width`` values (default: the values it is given).

    With ``keys``, text formatted once per row, ``row_template`` is a list
    of line templates instead: row i is each line led by ``keys[i]``, the
    row's floats split evenly among the lines.  So a node's coordinates, a
    wavevector magnitude or a material point is formatted once for all the
    lines it leads.  A key fills a %s slot and needs no escaping."""
    n = rows.shape[1]
    if keys is not None:
        # a row's values: each line's key, then the line's share of floats
        step = 1 + n // len(row_template)
        n = step * len(row_template)
        value_at = [i for i in range(n) if i % step]
        row_template = "".join("%s" + line for line in row_template)
    k = max(1, _CHUNK_VALUES // max(width or n, 1))
    full = sep.join([row_template] * k)
    for start in range(0, len(rows), k):
        block = rows[start:start + k]
        template = (full if len(block) == k
                    else sep.join([row_template] * len(block)))
        if keys is None:
            values = block.ravel().tolist()
        else:
            values = [None] * (len(block) * n)
            for i in range(0, n, step):
                values[i::n] = keys[start:start + k]
            for i, column in zip(value_at, block.T):
                values[i::n] = column.tolist()
        yield (sep if start else "") + template % tuple(values)


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
