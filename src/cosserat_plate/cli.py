"""Command-line entry point.

Subcommands: validate, constants, static, simulate, dispersion, verify,
sweep.  All take a JSON config (--config) and write CSV/JSON outputs under
--out; every output embeds the package version and a hash of the config,
and identical config + seed gives byte-identical files.

Exit codes: 0 success, 1 runtime/solver/verification failure, 2
configuration or validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import io_utils, verification
from .dispersion import (
    NonConservativeSymbolError,
    cutoff_frequencies,
    default_wavevectors,
    dispersion_curves,
    stacked_frequencies,
    wavevector_magnitudes,
)
from .dynamics import (
    EDGES,
    ConfigError,
    ConstantLoad,
    DiscreteState,
    GaussianPulseLoad,
    InstabilityError,
    LoadFunctions,
    ModelConfig,
    SingularSystemError,
    SinusoidalLoad,
    assemble,
    checked_number,
    checked_pair,
    simulate,
    stable_dt,
    static_solve,
    worst_static_row,
)
from .material import (
    MaterialError,
    MaterialParams,
    material_from_technical,
    technical_constants,
    validate_parameters,
)
from .operators import build_extensional, build_flexural
from .plate_fields import inertia_constants


def _load_config(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# Accepted keys of each config section (the README schema); a key outside
# these is a typo that would otherwise fall back to a default silently.
_SECTION_KEYS = {
    "material": None,  # a file path, or the moduli (_MATERIAL_KEYS)
    "geometry": {"a", "b", "h"},
    "grid": {"nx", "ny"},
    "bc": set(EDGES),
    "loads": {"p", "sigma0", "v", "t"},
    "time": {"t_final", "dt", "snapshot_every"},
    "initial": {"field", "kind", "amplitude", "center", "width"},
    "mode": {"shear_correction"},
    "dispersion": {"directions", "k_min", "k_max", "n", "modes"},
    "sweep": {"N", "l_t", "l_b", "Psi", "xi_mag", "base"},
}
_MATERIAL_KEYS = {"lambda", "lam", "mu", "alpha", "beta", "gamma", "epsilon",
                  "rho", "J"}
_SWEEP_BASE_KEYS = {"E", "nu", "rho", "J", "h"}
_LOAD_KEYS = {
    "constant": {"preset", "amplitude"},
    "gaussian-pulse": {"preset", "amplitude", "center", "width", "t0", "tau"},
    "sinusoidal": {"preset", "amplitude", "kx", "ky", "omega", "lx", "ly"},
}


def _check_keys(where: str, section, allowed) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"expected some of {sorted(allowed)}")


def _check_config_keys(cfg) -> None:
    """Raise ConfigError on any key the config schema does not define."""
    _check_keys("config", cfg, set(_SECTION_KEYS))
    for name, allowed in _SECTION_KEYS.items():
        section = cfg.get(name)
        if section is not None and allowed is not None:
            _check_keys(f"'{name}'", section, allowed)
    if isinstance(cfg.get("material"), dict):
        _check_keys("'material'", cfg["material"], _MATERIAL_KEYS)
    if (cfg.get("sweep") or {}).get("base") is not None:
        _check_keys("'sweep.base'", cfg["sweep"]["base"], _SWEEP_BASE_KEYS)


def _material_from_config(cfg: dict) -> MaterialParams:
    mat = cfg.get("material")
    if mat is None:
        raise ConfigError("config lacks a 'material' entry")
    if isinstance(mat, str):
        mat = _load_config(mat)
        _check_keys("the material file", mat, _MATERIAL_KEYS)
    try:
        return MaterialParams.from_dict(mat)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"'material': {exc}") from exc


def _load_preset(name, spec):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"a load must be a JSON object, got {spec!r}")
    preset = spec.get("preset", "constant")
    if preset not in _LOAD_KEYS:
        raise ConfigError(f"unknown load preset {preset!r}")
    _check_keys(f"{preset} load", spec, _LOAD_KEYS[preset])
    try:
        if preset == "constant":
            return ConstantLoad(spec.get("amplitude", 0.0))
        if preset == "gaussian-pulse":
            return GaussianPulseLoad(
                spec.get("amplitude", 0.0),
                center=spec.get("center", (0.5, 0.5)),
                width=spec.get("width", 0.1), t0=spec.get("t0", 0.0),
                tau=spec.get("tau"),
            )
        return SinusoidalLoad(
            spec.get("amplitude", 0.0), kx=spec.get("kx", 1),
            ky=spec.get("ky", 1), omega=spec.get("omega", 0.0),
            lx=spec.get("lx", 1.0), ly=spec.get("ly", 1.0),
        )
    except ConfigError as exc:
        raise ConfigError(f"'loads.{name}' ({preset}): {exc}") from None


def _model_from_config(cfg: dict, paper_literal: bool = False):
    mat = _material_from_config(cfg)
    geo = cfg.get("geometry", {})
    grid = cfg.get("grid", {})
    loads_cfg = cfg.get("loads", {})
    loads = LoadFunctions(**{name: _load_preset(name, loads_cfg.get(name))
                             for name in ("p", "sigma0", "v", "t")})
    bc = cfg.get("bc", {e: "clamped" for e in EDGES})
    mode = cfg.get("mode", {})
    mc = ModelConfig(
        material=mat,
        h=checked_number("'geometry.h'", geo.get("h", 0.1)),
        a=checked_number("'geometry.a'", geo.get("a", 1.0)),
        b=checked_number("'geometry.b'", geo.get("b", 1.0)),
        nx=checked_number("'grid.nx'", grid.get("nx", 33), integer=True),
        ny=checked_number("'grid.ny'", grid.get("ny", 33), integer=True),
        bc=bc,
        loads=loads,
        shear_correction=mode.get("shear_correction", "standard"),
        paper_literal=paper_literal,
    )
    return assemble(mc)


def _initial_state(cfg: dict, model) -> DiscreteState:
    spec = cfg.get("initial")
    state = DiscreteState.zero(model)
    if not spec:
        return state
    from .plate_fields import KINEMATIC_FIELDS

    field = spec.get("field", "w")
    if field not in KINEMATIC_FIELDS:
        raise ConfigError(f"unknown initial field {field!r}")
    idx = KINEMATIC_FIELDS.index(field)
    kind = spec.get("kind", "velocity")
    if kind not in ("velocity", "displacement"):
        raise ConfigError(f"unknown initial kind {kind!r}; expected "
                          f"'velocity' or 'displacement'")
    amp = checked_number("'initial.amplitude'", spec.get("amplitude", 1.0))
    cx, cy = checked_pair("'initial.center'", spec.get("center", (0.5, 0.5)))
    width = checked_number("'initial.width'", spec.get("width", 0.15),
                           positive=True)
    prof = amp * np.exp(
        -0.5 * ((model.X - cx) ** 2 + (model.Y - cy) ** 2) / width**2
    )
    prof[0, :] = prof[-1, :] = prof[:, 0] = prof[:, -1] = 0.0
    flex = state.flex.copy()
    ext = state.ext.copy()
    flex_vel = state.flex_vel.copy()
    ext_vel = state.ext_vel.copy()
    target = flex_vel if kind == "velocity" else flex
    target_ext = ext_vel if kind == "velocity" else ext
    if idx < 6:
        target[idx] = prof
    else:
        target_ext[idx - 6] = prof
    return DiscreteState(flex=flex, ext=ext, flex_vel=flex_vel, ext_vel=ext_vel)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(cfg, args, out: Path, cfg_hash: str) -> int:
    mat = _material_from_config(cfg)
    report = validate_parameters(mat)
    if report.admissible:
        print("material admissible: all parameter conditions hold")
        return 0
    print("material inadmissible; violated conditions:")
    for v in report.violations:
        print(f"  {v}")
    return 2


def _operators(cfg: dict, paper_literal: bool = False):
    """The technical constants, the inertia and the flexural and
    extensional operators of the configured material and thickness."""
    mat = _material_from_config(cfg)
    h = checked_number("'geometry.h'", cfg.get("geometry", {}).get("h", 0.1))
    mode = cfg.get("mode", {})
    tc = technical_constants(mat, h, mode.get("shear_correction", "standard"))
    inertia = inertia_constants(mat, h)
    return (tc, inertia,
            build_flexural(tc, inertia, paper_literal=paper_literal),
            build_extensional(tc, inertia, paper_literal=paper_literal))


def _cmd_constants(cfg, args, out: Path, cfg_hash: str) -> int:
    tc, inertia, flex, ext = _operators(cfg)
    print(f"E        = {tc.E:.10g}")
    print(f"nu       = {tc.nu:.10g}")
    print(f"G        = {tc.G:.10g}")
    print(f"D        = {tc.D:.10g}")
    print(f"l_t      = {tc.l_t:.10g}")
    print(f"l_b      = {tc.l_b:.10g}")
    print(f"N        = {tc.N:.10g}")
    print(f"Psi      = {tc.Psi:.10g}")
    print(f"kappa1^2 = {tc.kappa1_sq:.10g}")
    print(f"kappa2^2 = {tc.kappa2_sq:.10g}")
    print("inertia:", {k: getattr(inertia, k) for k in
                       ("I_o", "rho_o", "I_o1", "I_o2", "J3_s", "I_o3")})
    print("flexural coefficient table (literal / derived):")
    for i in range(1, 15):
        print(f"  k{i:<3} = {flex.k[f'k{i}']:.10g}   K{i:<3} = {flex.K[f'K{i}']:.10g}")
    print("extensional kappa table:", {k: round(v, 10) for k, v in ext.kappa.items()})
    return 0


def _cmd_static(cfg, args, out: Path, cfg_hash: str) -> int:
    model = _model_from_config(cfg, args.paper_literal_operators)
    kin, diag = static_solve(model)
    io_utils.write_snapshot(out / "static_snapshot.csv", cfg_hash, model,
                            kinematics=kin)
    io_utils.write_summary(out / "static_summary.json", cfg_hash, {
        "config": cfg,
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


def _cmd_simulate(cfg, args, out: Path, cfg_hash: str) -> int:
    model = _model_from_config(cfg, args.paper_literal_operators)
    tcfg = cfg.get("time", {})
    t_final = checked_number("'time.t_final'", tcfg.get("t_final", 1.0))
    dt = tcfg.get("dt")
    if dt is not None:
        dt = checked_number("'time.dt'", dt, positive=True)
    every = checked_number("'time.snapshot_every'",
                           tcfg.get("snapshot_every", 0), integer=True)
    state0 = _initial_state(cfg, model)
    traj = simulate(model, t_final=t_final, dt=dt, snapshot_every=every,
                    initial=state0)
    io_utils.write_energy_log(out / "energy_log.csv", cfg_hash, traj.energy)
    for k, st in enumerate(traj.states):
        io_utils.write_snapshot(out / f"snapshot_{k:05d}.csv", cfg_hash,
                                model, state=st)
    e = traj.energy.as_arrays()
    e0 = e["total"][0] if e["total"][0] != 0.0 else 1.0
    drift = float(np.max(np.abs(e["total"] - e["external_work"] - e["total"][0]))
                  / max(abs(e0), 1e-300))
    all_clamped = all(
        model.bc[name].kind == "clamped" for name in model.bc
    )
    io_utils.write_summary(out / "run_summary.json", cfg_hash, {
        "config": cfg,
        "dt": traj.dt,
        "n_steps": traj.n_steps,
        "stable_dt": stable_dt(model),
        # exact balance holds for clamped edges, with or without data;
        # traction edges exchange additional boundary work not tracked here
        "energy_drift_vs_interior_work": drift,
        "interior_work_accounting_exact": all_clamped,
        "final_total_energy": e["total"][-1],
    })
    print(f"simulated {traj.n_steps} steps at dt={traj.dt:.6g}; "
          f"wrote {len(traj.states)} snapshots and energy log to {out}")
    return 0


def _cmd_dispersion(cfg, args, out: Path, cfg_hash: str) -> int:
    _, _, flex, ext = _operators(cfg, args.paper_literal_operators)
    dcfg = cfg.get("dispersion", {})
    directions = dcfg.get("directions", [[1, 0], [0, 1], [1, 1]])
    with_modes = dcfg.get("modes", False)
    if not isinstance(with_modes, bool):
        raise ConfigError(f"'dispersion.modes' must be true or false, "
                          f"got {with_modes!r}")
    sampling = (checked_number("'dispersion.k_min'", dcfg.get("k_min", 1e-2)),
                checked_number("'dispersion.k_max'", dcfg.get("k_max", 1e2)),
                checked_number("'dispersion.n'", dcfg.get("n", 60),
                               integer=True))
    try:
        mags = wavevector_magnitudes(*sampling)
        xi = default_wavevectors(directions, *sampling)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'dispersion': {exc}") from exc
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
        "config": cfg,
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


def _cmd_verify(cfg, args, out: Path, cfg_hash: str) -> int:
    results = verification.run_all(seed=args.seed, out_dir=out, verbose=True)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"verify: {len(results) - n_fail}/{len(results)} suites passed; "
          f"diff table at {out / 'coefficient_diff.csv'}")
    return 0 if n_fail == 0 else 1


def _numbers(where: str, values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    return tuple(checked_number(where, v) for v in values)


def _cmd_sweep(cfg, args, out: Path, cfg_hash: str) -> int:
    sw = cfg.get("sweep", {})
    base = sw.get("base", {})
    E = checked_number("'sweep.base.E'", base.get("E", 1.0))
    nu = checked_number("'sweep.base.nu'", base.get("nu", 0.3))
    rho = checked_number("'sweep.base.rho'", base.get("rho", 1.0))
    h = checked_number("'sweep.base.h'", base.get("h", 0.1))
    J = _numbers("'sweep.base.J'", base.get("J", (1.0, 1.0, 1.0)))
    if len(J) != 3:
        raise ConfigError(f"'sweep.base.J' must hold 3 numbers, got {J}")
    k_mag = checked_number("'sweep.xi_mag'", sw.get("xi_mag", 1.0))
    Ns = _numbers("'sweep.N'", sw.get("N", [0.1, 0.3, 0.5, 0.7]))
    lts = _numbers("'sweep.l_t'", sw.get("l_t", [0.05]))
    lbs = _numbers("'sweep.l_b'", sw.get("l_b", [0.05]))
    psis = _numbers("'sweep.Psi'", sw.get("Psi", [1.0]))
    points, flexes, exts = [], [], []
    for point in itertools.product(Ns, lts, lbs, psis):
        Nval, lt, lb, psi = point
        try:
            mat = material_from_technical(E=E, nu=nu, N=Nval, l_t=lt, l_b=lb,
                                          Psi=psi, rho=rho, J=J)
            tc = technical_constants(mat, h)
        except MaterialError as exc:
            print(f"skip N={Nval} l_t={lt} l_b={lb} Psi={psi}: {exc}")
            continue
        inertia = inertia_constants(mat, h)
        points.append(point)
        flexes.append(build_flexural(tc, inertia))
        exts.append(build_extensional(tc, inertia))
    quantities = []
    if points:
        names = ["N={} l_t={} l_b={} Psi={}".format(*p) for p in points]
        cut_f = stacked_frequencies(flexes, (0.0, 0.0), True, names)
        cut_e = stacked_frequencies(exts, (0.0, 0.0), True, names)
        omega_f = stacked_frequencies(flexes, (k_mag, 0.0), False, names)
        # solved for its checks only, as dispersion_curves does
        stacked_frequencies(exts, (k_mag, 0.0), False, names)
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
    ap.add_argument("--seed", type=int, default=0,
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
    if args.command != "validate" and args.command != "constants":
        out.mkdir(parents=True, exist_ok=True)
    cfg_hash = io_utils.config_hash(cfg)
    try:
        _check_config_keys(cfg)
        return _COMMANDS[args.command](cfg, args, out, cfg_hash)
    except (ConfigError, MaterialError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, InstabilityError,
            NonConservativeSymbolError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
