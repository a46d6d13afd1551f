"""Command-line entry point.

Subcommands: validate, constants, static, simulate, dispersion, verify,
sweep.  All take a JSON config (--config) and write CSV/JSON outputs under
--out; every output embeds the package version and a hash of the config,
and identical config + seed gives byte-identical files.

Exit codes: 0 success, 1 runtime/solver/verification failure, 2
configuration or validation failure.

Each command logs one DEBUG line (logger ``cosserat_plate.cli``): the
files and bytes ``io_utils`` wrote, the floats its kernel formatted and
how many of those took Python's own formatting.  Logging goes to stderr
when configured, never into an output file.

One table, ``_SCHEMA``, gives every config key its default and its check;
``parse_config`` applies it before a command runs or creates --out, and
the commands read only what it returns.

The names that import SciPy (the static and explicit solvers and the
verification suites) are imported inside the commands that use them, so
``validate``, ``constants``, ``dispersion`` and ``sweep`` never load it.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dynamics, io_utils
from .dispersion import (
    NonConservativeSymbolError,
    NonFiniteSymbolError,
    cutoff_frequencies,
    default_wavevectors,
    dispersion_curves,
    wave_eigensystem,
    wavevector_magnitudes,
)
from .dynamics import (
    EDGES,
    ConfigError,
    ConstantLoad,
    GaussianPulseLoad,
    InstabilityError,
    LoadFunctions,
    ModelConfig,
    SingularSystemError,
    SinusoidalLoad,
    assemble,
    checked_number,
    checked_pair,
)
from .material import (
    MaterialError,
    MaterialParams,
    material_from_technical,
    technical_constants,
    validate_parameters,
)
from .operators import (
    build_extensional,
    build_extensional_stack,
    build_flexural,
    build_flexural_stack,
)
from .plate_fields import KINEMATIC_FIELDS, inertia_constants


_log = logging.getLogger(__name__)


def _load_config(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Api(NamedTuple):
    """A default that the API sets: that of parameter ``param`` (the key if
    None) of ``owner``, read from its signature.  A string ``owner`` names
    a ``dynamics`` attribute that loads SciPy, looked up only when used."""

    owner: object
    param: str | None = None

    def value(self, key: str):
        owner = (getattr(dynamics, self.owner) if isinstance(self.owner, str)
                 else self.owner)
        return inspect.signature(owner).parameters[self.param or key].default


# A checker check(where, value) returns the parsed value or raises a
# ConfigError naming ``where``; its docstring says what it accepts.
def _number(accepts: str, ok=None, **kw):
    """Numbers that checked_number takes with ``kw`` and for which ``ok``
    holds without overflow."""
    def check(where, value):
        x = checked_number(where, value, **kw)
        try:
            good = ok is None or ok(x)
        except OverflowError:
            good = False
        if not good:
            raise ConfigError(f"{where}: expected {accepts}, got {value!r}")
        return x
    check.__doc__ = accepts
    return check


def _optional(check):
    def optional(where, value):
        return None if value is None else check(where, value)
    optional.__doc__ = f"null or {check.__doc__}"
    return optional


def _choice(what: str, *names: str):
    def check(where, value):
        if not isinstance(value, str) or value not in names:
            raise ConfigError(f"{where}: unknown {what} {value!r}; expected "
                              f"one of {list(names)}")
        return value
    check.__doc__ = " or ".join(f'"{n}"' for n in names)
    return check


def _list(check, count: int | None = None):
    size = f"{count} " if count else ""

    def checks(where, value):
        if (not isinstance(value, (list, tuple))
                or count not in (None, len(value))):
            raise ConfigError(f"{where}: expected {checks.__doc__}, "
                              f"got {value!r}")
        return tuple(check(where, v) for v in value)
    checks.__doc__ = f"list of {size}{check.__doc__}s"
    return checks


def _flag(where, value):
    """true or false"""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected {_flag.__doc__}, got {value!r}")
    return value


_FINITE = _number("finite number")
_INTEGER = _number("integer", integer=True)
_POSITIVE = _number("positive number", positive=True)
_SQUARED = _number("positive number with a nonzero finite square",
                   lambda x: x**2 > 0.0, positive=True)
_CUBED = _number("positive number with a nonzero finite cube",
                 lambda x: x**3 > 0.0, positive=True)


_NUMBERS = _list(_FINITE)


def _at_least(n: int):
    return _number(f"integer >= {n}", lambda x: x >= n, integer=True)


def _directions(where, value):
    """non-empty list of [x, y], x^2 + y^2 nonzero and finite"""
    pairs = ([checked_pair(where, d) for d in value]
             if isinstance(value, (list, tuple)) else [])
    if not pairs or not all(0.0 < x * x + y * y < np.inf for x, y in pairs):
        raise ConfigError(f"{where}: expected {_directions.__doc__}, "
                          f"got {value!r}")
    return value  # as given, for the row labels


_PRESETS = {"constant": ConstantLoad, "gaussian-pulse": GaussianPulseLoad,
            "sinusoidal": SinusoidalLoad}


def _load(where, spec):
    """null or load object: the loads.* keys and its preset's"""
    if spec is None:
        return None
    path = where.strip("'")
    preset = _parse_section(path, spec, "loads.*", keys=("preset",))["preset"]
    fields = _parse_section(path, spec, "loads.*", preset)
    del fields["preset"]
    return _PRESETS[preset](**fields)


def _base(where, value):
    """object of the sweep.base keys"""
    return _parse_section("sweep.base", value, "sweep.base")


def _api(owner, **checks):
    return {key: (_Api(owner), check) for key, check in checks.items()}


# The schema: section -> key -> (default, checker).  A default is a value,
# _REQUIRED, or an _Api default read from the callable that the parsed
# value is passed to.  A load takes the keys of ``loads.*`` and those of
# the section its preset names.
_SCHEMA = {
    "material": {
        **dict.fromkeys(("lambda", "mu", "alpha", "beta", "gamma", "epsilon"),
                        (_REQUIRED, _FINITE)),
        **_api(MaterialParams, rho=_FINITE, J=_list(_FINITE, 3))},
    "geometry": {"a": (1.0, _POSITIVE), "b": (1.0, _POSITIVE),
                 "h": (0.1, _CUBED)},
    "grid": dict.fromkeys(("nx", "ny"), (33, _at_least(5))),
    "bc": dict.fromkeys(EDGES, ("clamped",
                                _choice("bc", "clamped", "traction"))),
    "loads": dict.fromkeys(("p", "sigma0", "v", "t"), (None, _load)),
    "loads.*": {"preset": ("constant", _choice("load preset", *_PRESETS)),
                "amplitude": (0.0, _FINITE)},
    "constant": {},
    "gaussian-pulse": _api(GaussianPulseLoad, center=checked_pair,
                           width=_SQUARED, t0=_FINITE,
                           tau=_optional(_SQUARED)),
    "sinusoidal": _api(SinusoidalLoad, kx=_INTEGER, ky=_INTEGER,
                       omega=_FINITE, lx=_POSITIVE, ly=_POSITIVE),
    "time": {"t_final": (1.0, _POSITIVE),
             **_api("simulate", dt=_optional(_POSITIVE),
                    snapshot_every=_at_least(0))},
    "initial": {"field": ("w", _choice("initial field", *KINEMATIC_FIELDS)),
                "kind": ("velocity", _choice("initial kind", "velocity",
                                             "displacement")),
                "amplitude": (1.0, _FINITE),
                "center": ((0.5, 0.5), checked_pair),
                "width": (0.15, _SQUARED)},
    "mode": _api(technical_constants,
                 shear_correction=_choice("shear_correction", "standard",
                                          "mindlin")),
    "dispersion": {
        **_api(default_wavevectors, directions=_directions),
        **_api(wavevector_magnitudes, k_min=_POSITIVE, k_max=_POSITIVE,
               n=_at_least(1)),
        "modes": (_Api(dispersion_curves, "with_modes"), _flag)},
    "sweep": {"N": ((0.1, 0.3, 0.5, 0.7), _NUMBERS),
              **dict.fromkeys(("l_t", "l_b"), ((0.05,), _NUMBERS)),
              "Psi": ((1.0,), _NUMBERS), "xi_mag": (1.0, _FINITE),
              "base": ({}, _base)},
    # shared by every point: a bad one would make every point inadmissible
    "sweep.base": {"E": (1.0, _POSITIVE),
                   "nu": (0.3, _number("number in (-1, 0.5)",
                                       lambda x: -1.0 < x < 0.5)),
                   **_api(material_from_technical, rho=_POSITIVE,
                          J=_list(_POSITIVE, 3)),
                   "h": (0.1, _CUBED)},
}

# The sections whose values each command reads, with the keys if not all.
_PLANE_WAVE = {"material": None, "geometry": ("h",), "mode": None}
_MODEL = dict.fromkeys(("material", "geometry", "grid", "bc", "loads", "mode"))
_READS = {
    "validate": {"material": None},
    "constants": _PLANE_WAVE,
    "static": _MODEL,
    "simulate": {**_MODEL, "time": None, "initial": None},
    "dispersion": {**_PLANE_WAVE, "dispersion": None},
    "verify": {},
    "sweep": {"sweep": None},
}


def _check_keys(path: str, section, allowed) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"'{path}' must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{path}'; "
                          f"expected some of {sorted(allowed)}")


def _parse_section(path: str, section, *names: str, keys=None) -> dict:
    """The keys of the schema sections ``names`` of the JSON object
    ``section`` at ``path``, each with its default where absent, and
    checked; or only ``keys``, the others unchecked, if given."""
    rows = {k: row for name in names for k, row in _SCHEMA[name].items()}
    _check_keys(path, section, rows if keys is None else section)
    parsed = {}
    for key in keys or rows:
        default, check = rows[key]
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"'{path}.{key}' is required")
        if isinstance(value, _Api):
            value = value.value(key)
        parsed[key] = check(f"'{path}.{key}'", value)
    return parsed


def _lam_as_lambda(material):
    """The material object, with ``lam`` (the API's name) read as lambda."""
    if isinstance(material, dict) and "lam" in material:
        material = dict(material)
        material.setdefault("lambda", material.pop("lam"))
    return material


def _parse_material(material) -> MaterialParams:
    """The material: a JSON object of the material keys or a file of one."""
    if material is None:
        raise ConfigError("config lacks a 'material' entry")
    try:
        if isinstance(material, str):
            material = _load_config(material)
        fields = _parse_section("material", _lam_as_lambda(material),
                                "material")
    except (OSError, ValueError) as exc:  # ConfigError among them
        raise ConfigError(f"'material': {exc}") from None
    return MaterialParams(lam=fields.pop("lambda"), **fields)


def parse_config(cfg, command: str) -> dict:
    """The config ``cfg`` parsed for ``command``, before any output or
    numerics.  Every key name is checked against the schema, whichever
    command reads it.  Then the sections that ``command`` reads, and no
    others, get their defaults and have their values checked.  Each comes
    back as a dict of its values, but the material as a MaterialParams, the
    loads as a LoadFunctions and an empty ``initial`` as None (a plate at
    rest); ``dispersion`` also holds its sampled "magnitudes", and the
    config as given is under "config"."""
    _check_keys("config", cfg, set().union(*_READS.values()))
    sweep = cfg.get("sweep")
    nested = {"sweep.base": sweep.get("base")} if isinstance(sweep, dict) else {}
    for name, section in {**cfg, **nested}.items():
        if isinstance(section, dict):
            _check_keys(name, _lam_as_lambda(section) if name == "material"
                        else section, _SCHEMA[name])

    record = {"config": cfg}
    for name, keys in _READS[command].items():
        section = cfg.get(name)
        if name == "material":
            record[name] = _parse_material(section)
        elif name == "initial" and not section:
            record[name] = None  # a plate at rest
        else:
            record[name] = _parse_section(name, {} if section is None
                                          else section, name, keys=keys)
    if "loads" in record:
        record["loads"] = LoadFunctions(**record["loads"])
    if "dispersion" in record:
        d = record["dispersion"]
        try:
            d["magnitudes"] = wavevector_magnitudes(d["k_min"], d["k_max"],
                                                    d["n"])
        except ValueError as exc:
            raise ConfigError(f"'dispersion': {exc}") from None
    return record


def _initial_state(spec, model):
    """The grid state at t = 0: at rest, or the Gaussian kick of the parsed
    ``initial`` section ``spec``."""
    from .dynamics import DiscreteState

    state = DiscreteState.zero(model)
    if spec is None:
        return state
    idx = KINEMATIC_FIELDS.index(spec["field"])
    cx, cy = spec["center"]
    try:
        # the kick's energy is quadratic in it: its square must be finite
        with np.errstate(over="raise", invalid="raise"):
            prof = spec["amplitude"] * np.exp(
                -0.5 * ((model.X - cx) ** 2 + (model.Y - cy) ** 2)
                / spec["width"]**2)
            np.square(prof)
    except FloatingPointError as exc:
        raise ConfigError(f"'initial' kick overflows on the grid ({exc}): "
                          f"one of 'initial.amplitude', 'initial.center', "
                          f"'initial.width' lies outside the range of double "
                          f"precision") from None
    prof[0, :] = prof[-1, :] = prof[:, 0] = prof[:, -1] = 0.0
    part = ("flex" if idx < 6 else "ext") + (
        "_vel" if spec["kind"] == "velocity" else "")
    block = getattr(state, part).copy()
    block[idx % 6] = prof
    return replace(state, **{part: block})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(parsed, args, out: Path, cfg_hash: str) -> int:
    report = validate_parameters(parsed["material"])
    if report.admissible:
        print("material admissible: all parameter conditions hold")
        return 0
    print("material inadmissible; violated conditions:")
    for v in report.violations:
        print(f"  {v}")
    return 2


def _operators(parsed: dict, paper_literal: bool = False):
    """The technical constants, the inertia and the flexural and
    extensional operators of the parsed material and thickness."""
    mat, h = parsed["material"], parsed["geometry"]["h"]
    tc = technical_constants(mat, h, parsed["mode"]["shear_correction"])
    inertia = inertia_constants(mat, h)
    return (tc, inertia,
            build_flexural(tc, inertia, paper_literal=paper_literal),
            build_extensional(tc, inertia, paper_literal=paper_literal))


def _model(parsed: dict, paper_literal: bool):
    return assemble(ModelConfig(
        material=parsed["material"], **parsed["geometry"], **parsed["grid"],
        bc=parsed["bc"], loads=parsed["loads"], **parsed["mode"],
        paper_literal=paper_literal))


@np.errstate(over="ignore", invalid="ignore")
def _cmd_constants(parsed, args, out: Path, cfg_hash: str) -> int:
    """Overflow in the derived constants is not warned of: a constant that
    is not finite is refused before anything is printed."""
    tc, inertia, flex, ext = _operators(parsed)
    named = {"E": tc.E, "nu": tc.nu, "G": tc.G, "D": tc.D, "l_t": tc.l_t,
             "l_b": tc.l_b, "N": tc.N, "Psi": tc.Psi,
             "kappa1^2": tc.kappa1_sq, "kappa2^2": tc.kappa2_sq}
    inertias = {k: getattr(inertia, k) for k in
              ("I_o", "rho_o", "I_o1", "I_o2", "J3_s", "I_o3")}
    for key, v in itertools.chain(named.items(), inertias.items(),
                                  flex.k.items(), flex.K.items(),
                                  ext.kappa.items()):
        if not np.isfinite(v):
            raise ConfigError(f"derived constant {key} = {v} is not finite: "
                              f"the moduli or h lie outside the range of "
                              f"double precision")
    for key, v in named.items():
        print(f"{key:<8} = {v:.10g}")
    print("inertia:", inertias)
    print("flexural coefficient table (literal / derived):")
    for i in range(1, 15):
        print(f"  k{i:<3} = {flex.k[f'k{i}']:.10g}   K{i:<3} = {flex.K[f'K{i}']:.10g}")
    print("extensional kappa table:", {k: round(v, 10) for k, v in ext.kappa.items()})
    return 0


def _cmd_static(parsed, args, out: Path, cfg_hash: str) -> int:
    from .dynamics import static_solve, worst_static_row

    model = _model(parsed, args.paper_literal_operators)
    kin, diag = static_solve(model)
    io_utils.write_snapshot(out / "static_snapshot.csv", cfg_hash, model,
                            kinematics=kin)
    io_utils.write_summary(out / "static_summary.json", cfg_hash, {
        "config": parsed["config"],
        "residuals": diag,
        "center_w": float(np.asarray(kin.w)[(model.nx - 1) // 2,
                                            (model.ny - 1) // 2]),
    })
    resid = max(diag["flexural_residual"] / max(diag["flexural_rhs_scale"], 1e-300),
                diag["extensional_residual"] / max(diag["extensional_rhs_scale"], 1e-300))
    print(f"static solve done; max relative residual {resid:.3e}")
    print(f"wrote {out / 'static_snapshot.csv'}")
    if resid <= 1e-9:
        return 0
    name, field, i, j, r = worst_static_row(model, kin)
    print(f"solver failure: static relative residual {r:.3e} exceeds 1e-9; "
          f"worst in the {name} {field} row at node ({i}, {j})",
          file=sys.stderr)
    return 1


def _cmd_simulate(parsed, args, out: Path, cfg_hash: str) -> int:
    from .dynamics import simulate, stable_dt

    model = _model(parsed, args.paper_literal_operators)
    traj = simulate(model, **parsed["time"],
                    initial=_initial_state(parsed["initial"], model))
    io_utils.write_energy_log(out / "energy_log.csv", cfg_hash, traj.energy)
    for k, st in enumerate(traj.states):
        io_utils.write_snapshot(out / f"snapshot_{k:05d}.csv", cfg_hash,
                                model, state=st)
    e = traj.energy.as_arrays()
    e0 = e["total"][0] if e["total"][0] != 0.0 else 1.0
    drift = float(np.max(np.abs(e["total"] - e["external_work"] - e["total"][0]))
                  / max(abs(e0), 1e-300))
    io_utils.write_summary(out / "run_summary.json", cfg_hash, {
        "config": parsed["config"],
        "dt": traj.dt,
        "n_steps": traj.n_steps,
        "stable_dt": stable_dt(model),
        # the work of the loads, the edge data g and the traction data is
        # counted on every edge pattern, so the balance is exact up to the
        # time-integration error; the flag stays for the summary's keys
        "energy_drift_vs_interior_work": drift,
        "interior_work_accounting_exact": True,
        "final_total_energy": e["total"][-1],
    })
    print(f"simulated {traj.n_steps} steps at dt={traj.dt:.6g}; "
          f"wrote {len(traj.states)} snapshots and energy log to {out}")
    return 0


@np.errstate(over="ignore", invalid="ignore")
def _cmd_dispersion(parsed, args, out: Path, cfg_hash: str) -> int:
    """Overflow in the plane-wave arithmetic is not warned of: a wave
    matrix that is not finite is refused before its eigensolve."""
    _, _, flex, ext = _operators(parsed, args.paper_literal_operators)
    sec = parsed["dispersion"]
    directions, with_modes = sec["directions"], sec["modes"]
    mags = sec["magnitudes"]
    xi = default_wavevectors(directions, k_min=sec["k_min"],
                             k_max=sec["k_max"], n=sec["n"])
    res = dispersion_curves(flex, ext, xi, with_modes=with_modes)
    results = []
    modes_payload = {}
    for j, d in enumerate(directions):
        rows = slice(j * mags.size, (j + 1) * mags.size)
        label = f"{d[0]}:{d[1]}"
        results.append((label, mags, res.flexural[rows], res.extensional[rows]))
        if with_modes:
            modes_payload[label] = {
                "xi_mag": mags,
                "flexural_modes_real": np.real(res.flexural_modes[rows]),
                "flexural_modes_imag": np.imag(res.flexural_modes[rows]),
            }
    io_utils.write_dispersion(out / "dispersion.csv", cfg_hash, results)
    cut_f = cutoff_frequencies(flex)
    cut_e = cutoff_frequencies(ext)
    io_utils.write_summary(out / "dispersion_summary.json", cfg_hash, {
        "config": parsed["config"],
        "flexural_cutoffs": cut_f.frequencies,
        "flexural_zero_modes": list(cut_f.zero_mode_fields),
        "extensional_cutoffs": cut_e.frequencies,
        "extensional_zero_modes": list(cut_e.zero_mode_fields),
    })
    if modes_payload:
        io_utils.write_summary(out / "dispersion_modes.json", cfg_hash,
                               modes_payload)
    print(f"wrote dispersion curves for {len(directions)} directions to {out}")
    return 0


def _cmd_verify(parsed, args, out: Path, cfg_hash: str) -> int:
    from . import verification

    results = verification.run_all(seed=args.seed, out_dir=out, verbose=True)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"verify: {len(results) - n_fail}/{len(results)} suites passed; "
          f"diff table at {out / 'coefficient_diff.csv'}")
    return 0 if n_fail == 0 else 1


@np.errstate(over="ignore", invalid="ignore")
def _cmd_sweep(parsed, args, out: Path, cfg_hash: str) -> int:
    """Overflow in the plane-wave arithmetic is not warned of, as in
    ``_cmd_dispersion``."""
    sw = parsed["sweep"]
    E, nu, rho, J, h = (sw["base"][k] for k in ("E", "nu", "rho", "J", "h"))
    k_mag = sw["xi_mag"]
    # the inertia depends on rho, J and h alone, so every point shares it
    inertia = inertia_constants(
        MaterialParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, rho=rho, J=J), h)
    points, tcs = [], []
    for point in itertools.product(*(sw[k] for k in ("N", "l_t", "l_b",
                                                     "Psi"))):
        Nval, lt, lb, psi = point
        try:
            mat = material_from_technical(E=E, nu=nu, N=Nval, l_t=lt, l_b=lb,
                                          Psi=psi, rho=rho, J=J)
            tc = technical_constants(mat, h)
        except MaterialError as exc:
            print(f"skip N={Nval} l_t={lt} l_b={lb} Psi={psi}: {exc}")
            continue
        except OverflowError:
            raise ConfigError(f"'sweep' point N={Nval} l_t={lt} l_b={lb} "
                              f"Psi={psi}: l_t or l_b overflows its "
                              f"square") from None
        points.append(point)
        tcs.append(tc)
    quantities = []
    if points:
        inertias = [inertia] * len(tcs)
        flex = build_flexural_stack(tcs, inertias)
        ext = build_extensional_stack(tcs, inertias)

        # with_modes as cutoff_frequencies solves, else as dispersion_curves
        def omega(stack, k, with_modes):
            w2, _ = wave_eigensystem(
                *stack, [k], with_modes,
                lambda i: "N={} l_t={} l_b={} Psi={}".format(*points[i]))
            return np.sqrt(np.clip(w2[:, 0], 0.0, None))

        cut_f = omega(flex, (0.0, 0.0), True)
        cut_e = omega(ext, (0.0, 0.0), True)
        omega_f = omega(flex, (k_mag, 0.0), False)
        # solved for its checks only, as dispersion_curves does
        omega(ext, (k_mag, 0.0), False)
        quantities = [("flexural_cutoff", cut_f),
                      ("extensional_cutoff", cut_e),
                      (f"flexural_omega@k={k_mag}", omega_f)]
    io_utils.write_sweep(out / "sweep.csv", cfg_hash, points, quantities)
    n_rows = len(points) * sum(values.shape[1] for _, values in quantities)
    print(f"wrote {n_rows} sweep rows to {out / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "constants": _cmd_constants,
    "static": _cmd_static,
    "simulate": _cmd_simulate,
    "dispersion": _cmd_dispersion,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _seed(text: str) -> int:
    """A non-negative integer, as NumPy's generators take for a seed."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cosserat-plate",
        description="Cosserat (micropolar) plate statics, dynamics, "
                    "dispersion analysis and verification suites",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", type=str, default=None,
                    help="JSON run configuration")
    ap.add_argument("--out", type=str, default="out",
                    help="output directory (default ./out)")
    ap.add_argument("--seed", type=_seed, default=0,
                    help="seed for randomized verification suites")
    ap.add_argument("--paper-literal-operators", action="store_true",
                    help="build operators from the literal published "
                         "coefficient tables (diff/exploration mode)")
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    cfg_hash = io_utils.config_hash(cfg)
    with io_utils.tally() as written:
        try:
            parsed = parse_config(cfg, args.command)
            if args.command not in ("validate", "constants"):
                out.mkdir(parents=True, exist_ok=True)
            return _COMMANDS[args.command](parsed, args, out, cfg_hash)
        except (ConfigError, MaterialError, NonFiniteSymbolError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except (SingularSystemError, InstabilityError,
                NonConservativeSymbolError) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 1
        finally:
            _log.debug("%s: wrote %d files, %d bytes; formatted %d floats, "
                       "%d by Python's formatter", args.command,
                       written.files, written.bytes, written.values,
                       written.fallbacks)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
