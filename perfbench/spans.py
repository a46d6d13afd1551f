"""Spans around calls into the program's layers, for the traced run.

``Tracer.install()`` replaces each traced public function with a wrapper
in every module namespace of the package that bound it (for example
``dynamics.step``, ``cli.assemble`` and ``verification.static_solve``),
and the sparse factorisations on ``scipy.sparse.linalg``, through which
the package calls them (``dynamics.spla.spsolve``).  ``uninstall()``
restores the originals.  Spans are kept in memory as
``[name, layer, start, end, parent, job, grid, work]`` and written out,
gzipped JSON, by ``write_spans`` when the run ends.

A layer's self time is its spans' duration minus the part covered by
their child spans; ``layer_metrics`` turns the spans of the traced passes
into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

GRIDS = (17, 33, 65)
SUITES = (
    "suite_roundtrip_3d", "suite_energy_positivity",
    "suite_plate_quadratic_consistency", "suite_thickness_roundtrip",
    "suite_operator_residual", "suite_classical_limit", "suite_convergence",
    "suite_energy_conservation", "suite_hpr_stationarity",
    "suite_dispersion_sanity",
)

# Layers keyed by grid as well as in total, with the stats each reports.
_GRID_KEYED = (
    ("dynamics.assemble", ("s", "calls")),
    ("sparse.factor", ("s", "calls")),
    ("dynamics.static_solve", ("s", "calls")),
    ("dynamics.stable_dt", ("s", "calls")),
    ("dynamics.step", ("s", "calls", "ns_per_dof_step")),
    ("dynamics.simulate", ("s",)),
)
_PLAIN = (
    "io_utils.write_snapshot.s", "io_utils.write_snapshot.calls",
    "io_utils.write_dispersion.s", "io_utils.write_summary.s",
    "io_utils.write_energy_log.s", "io_utils.write_csv.s",
    "io_utils.bytes_written",
    "dispersion.dispersion_curves.s", "dispersion.dispersion_curves.us_per_wavevector",
    "dispersion.cutoff_frequencies.s", "dispersion.cutoff_frequencies.calls",
    "operators.build.s", "operators.build.calls",
    "material.technical_constants.s", "material.technical_constants.calls",
    "hpr.stationarity_measure.s", "hpr.stationarity_measure.calls",
    "oracles.s",
    *(f"verification.{s}.s" for s in SUITES),
    "cli.run.s", "cli.self.s",
    "trace.wall_s", "trace.overhead_s", "trace.spans", "trace.self_share_min",
)

# Which end-to-end metric and workload each layer should move most (main),
# and the workloads on which it should not move (bypass).
ROLES = {
    "dynamics.assemble": ("scaled_wall_s on static (cantilever traction rows) and verify (MMS builds 6 models)", "dispersion"),
    "sparse.factor": ("scaled_wall_s and peak_rss_mb on static; calls on verify show repeated factorisations of one matrix", "simulate, dispersion"),
    "dynamics.static_solve": ("scaled_wall_s on static", "simulate, dispersion"),
    "dynamics.stable_dt": ("dof_steps_per_s on simulate, scaled_wall_s on verify", "static, dispersion"),
    "dynamics.step": ("dof_steps_per_s on simulate; scaled_wall_s on verify (suite 08, 17^2)", "static, dispersion"),
    "dynamics.simulate": ("dof_steps_per_s on simulate", "static, dispersion"),
    "io_utils": ("scaled_wall_s on simulate and dispersion", "verify"),
    "dispersion": ("wavevectors_per_s on dispersion", "static, simulate"),
    "operators.build": ("scaled_wall_s on dispersion (sweep) and verify", "simulate"),
    "material.technical_constants": ("scaled_wall_s on dispersion (sweep) and verify", "simulate"),
    "hpr": ("scaled_wall_s on verify", "static, simulate, dispersion"),
    "oracles": ("scaled_wall_s on verify", "static, simulate, dispersion"),
    "verification": ("scaled_wall_s on verify", "n/a"),
    "cli": ("scaled_wall_s on all", "n/a"),
    "trace": ("tracing overhead, per workload", "n/a"),
}

_UNITS = {"s": "s", "wall_s": "s", "overhead_s": "s", "calls": "count",
          "spans": "count", "ns_per_dof_step": "ns", "us_per_wavevector": "us",
          "bytes_written": "B", "self_share_min": "share"}


def _per_layer_names() -> list[str]:
    names = []
    for layer, stats in _GRID_KEYED:
        for stat in stats:
            names.append(f"{layer}.{stat}")
            names += [f"{layer}.{stat}.n{g}" for g in GRIDS]
    return names + list(_PLAIN)


def _spec(name: str) -> dict:
    parts = name.split(".")
    stat = parts[-2] if parts[-1].startswith("n") and parts[-1][1:].isdigit() else parts[-1]
    better = "higher" if stat == "self_share_min" else "lower"
    return {"name": name, "unit": _UNITS[stat], "better": better}


PER_LAYER = [_spec(n) for n in _per_layer_names()]


def roles(name: str) -> tuple[str, str]:
    """(main, bypass) for a per-layer metric, by its longest layer prefix."""
    key = max((k for k in ROLES if name == k or name.startswith(k + ".")), key=len)
    return ROLES[key]


def _grid_of(args, kwargs, sig):
    for a in (*args, *kwargs.values()):
        n = getattr(a, "nx", None)
        if isinstance(n, int):
            return n
    if sig is not None:
        n = sig.bind_partial(*args, **kwargs).arguments.get("nx")
        if isinstance(n, int):
            return n
    return None


def _step_work(args, kwargs):
    model = args[1] if len(args) > 1 else kwargs["model"]
    return 9 * model.nx * model.ny


def _wavevector_work(args, kwargs):
    xi = args[2] if len(args) > 2 else kwargs["xi"]
    import numpy as np

    return int(np.atleast_2d(np.asarray(xi)).shape[0])


class Tracer:
    """Records spans around the program's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, layer, work=None, flat_prefix=None):
        spans, stack = self.spans, self._stack
        params = inspect.signature(fn).parameters
        sig = inspect.signature(fn) if "nx" in params else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if flat_prefix and parent is not None and spans[parent][1].startswith(flat_prefix):
                # nested writer calls stay inside the outer writer's span
                return fn(*args, **kwargs)
            grid = _grid_of(args, kwargs, sig)
            if grid is None and parent is not None:
                grid = spans[parent][6]
            rec = [name, layer, 0.0, 0.0, parent, self.job, grid,
                   work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()

        return wrapper

    def _rebind(self, orig, wrapper, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, orig))

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        from cosserat_plate import (cli, dispersion, dynamics, hpr, io_utils,
                                    material, operators, oracles, verification)

        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cosserat_plate" or n.startswith("cosserat_plate."))]
        targets = [(cli, "run", "cli.run", None, None)]
        targets += [(dynamics, f, f"dynamics.{f}", None, None)
                    for f in ("assemble", "static_solve", "stable_dt", "simulate")]
        targets.append((dynamics, "step", "dynamics.step", _step_work, None))
        targets += [(io_utils, f, f"io_utils.{f}", None, "io_utils.")
                    for f in ("write_snapshot", "write_dispersion", "write_summary",
                              "write_energy_log", "write_csv")]
        targets.append((dispersion, "dispersion_curves", "dispersion.dispersion_curves",
                        _wavevector_work, None))
        targets.append((dispersion, "cutoff_frequencies", "dispersion.cutoff_frequencies",
                        None, None))
        targets += [(operators, f, "operators.build", None, None)
                    for f in ("build_flexural", "build_extensional", "build_traction")]
        targets.append((material, "technical_constants", "material.technical_constants",
                        None, None))
        targets += [(oracles, f, "oracles", None, None) for f, v in vars(oracles).items()
                    if inspect.isfunction(v) and v.__module__ == oracles.__name__
                    and not f.startswith("_")]
        for module, attr, layer, work, flat in targets:
            orig = getattr(module, attr)
            self._rebind(orig, self._wrap(orig, f"{module.__name__.split('.')[-1]}.{attr}",
                                          layer, work, flat), package)
        for attr in ("spsolve", "splu", "eigsh"):
            orig = getattr(spla, attr)
            self._rebind(orig, self._wrap(orig, f"sparse.{attr}", "sparse.factor"),
                         [spla, *package])
        orig = hpr.HPRFunctional.stationarity_measure
        hpr.HPRFunctional.stationarity_measure = self._wrap(
            orig, "hpr.stationarity_measure", "hpr.stationarity_measure")
        self._undo.append((hpr.HPRFunctional, "stationarity_measure", orig))
        suites = verification.ALL_SUITES
        wrapped = tuple(self._wrap(s, f"verification.{s.__name__}",
                                   f"verification.{s.__name__}") for s in suites)
        for s, w in zip(suites, wrapped):
            self._rebind(s, w, package)
        verification.ALL_SUITES = wrapped
        self._undo.append((verification, "ALL_SUITES", suites))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "job", "grid", "work"], "spans": self.spans}, f)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, n_passes: int, job_walls: dict, bytes_written: int,
                      traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics per traced pass.

        ``job_walls`` maps each traced job id to its wall time measured
        around the CLI call; the self times of its spans must account for
        it (``trace.self_share_min``).
        """
        selfs = self.self_times()
        agg = defaultdict(float)
        job_self = defaultdict(float)
        for s, st in zip(self.spans, selfs):
            name, layer, start, end, _, job, grid, work = s
            job_self[job] += st
            keys = [layer] + ([f"{layer}@{grid}"] if grid in GRIDS else [])
            for k in keys:
                agg[k, "s"] += st
                agg[k, "calls"] += 1
                agg[k, "work"] += work
            if layer == "cli.run":
                agg["cli.run", "incl"] += end - start

        def per_pass(key, what):
            return agg[key, what] / n_passes

        def per_work(key, scale):
            work = agg[key, "work"]
            return scale * agg[key, "s"] / work if work else 0.0

        out = {}
        for layer, stats in _GRID_KEYED:
            for st in stats:
                for suffix, key in (("", layer), *((f".n{g}", f"{layer}@{g}") for g in GRIDS)):
                    out[f"{layer}.{st}{suffix}"] = (
                        per_work(key, 1e9) if st == "ns_per_dof_step" else per_pass(key, st))
        for name in _PLAIN:
            layer, st = name.rsplit(".", 1)
            if st in ("s", "calls"):
                out[name] = per_pass(layer, st)
        out["dispersion.dispersion_curves.us_per_wavevector"] = per_work(
            "dispersion.dispersion_curves", 1e6)
        out["io_utils.bytes_written"] = bytes_written / n_passes
        out["cli.run.s"] = per_pass("cli.run", "incl")
        out["cli.self.s"] = per_pass("cli.run", "s")
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.spans"] = len(self.spans) / n_passes
        out["trace.self_share_min"] = min(
            (job_self[j] / w for j, w in job_walls.items() if w > 0), default=0.0)
        return {spec["name"]: out[spec["name"]] for spec in PER_LAYER}
