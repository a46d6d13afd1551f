"""Verification suites: every algebraic layer against an independent oracle.

Each suite returns a :class:`SuiteResult` with the measured numbers in
``details`` so failures are diagnosable from the report alone.  The
tolerances are fixed here, not configurable: they are the acceptance
contract of the package.  ``run_all`` executes everything and optionally
writes the operator coefficient diff table (the documentation artifact
comparing the published coefficient variants with the derived ones) and a
per-suite report.  Suites 6 and 9 share one static solve of the classical
plate, held only while ``run_all`` runs.
"""

from __future__ import annotations

import csv
import functools
import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import __version__, oracles
from .cosserat3d import (
    Strain3D,
    energy_densities_3d,
    strain_from_stress_3d,
    stress_from_strain_3d,
)
from .dispersion import cutoff_frequencies, wave_eigensystem
from .dynamics import (
    EDGES,
    ConstantLoad,
    DiscreteState,
    EdgeBC,
    LoadFunctions,
    ModelConfig,
    assemble,
    simulate,
    stable_dt,
    static_solve,
)
from .hpr import (
    HPRFunctional,
    HPRState,
    equilibrium_state,
    random_admissible_perturbation,
)
from .material import (
    MaterialParams,
    material_from_technical,
    reciprocal_constants,
    technical_constants,
)
from .operators import (
    build_extensional,
    build_flexural,
    coefficient_diff_table,
    operator_residual_oracle,
)
from .plate_constitutive import (
    internal_work_density,
    plate_energy_density,
    resultants_from_profiles,
    strain_from_stress,
    thickness_profiles,
)
from .plate_fields import (
    LoadSet,
    PlateStress,
    inertia_constants,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.details}"


def random_admissible_material(rng) -> MaterialParams:
    """Random admissible moduli with O(1) scales."""
    mu = rng.uniform(0.3, 3.0)
    lam = mu * rng.uniform(-0.6, 4.0)
    alpha = rng.uniform(0.05, 2.0)
    gamma = rng.uniform(0.05, 2.0)
    beta = gamma * rng.uniform(-0.6, 4.0)
    epsilon = rng.uniform(0.05, 2.0)
    return MaterialParams(
        lam=lam, mu=mu, alpha=alpha, beta=beta, gamma=gamma, epsilon=epsilon,
        rho=rng.uniform(0.3, 3.0), J=tuple(rng.uniform(0.1, 2.0, size=3)),
    )


def _classical_material(N: float = 1e-8) -> MaterialParams:
    return material_from_technical(
        E=1.0, nu=0.3, N=N, l_t=0.01, l_b=0.01, Psi=1.0,
        rho=1.0, J=(1.0, 1.0, 1.0),
    )


# ---------------------------------------------------------------------------
# 1. 3D constitutive round trip
# ---------------------------------------------------------------------------

def suite_roundtrip_3d(seed: int = 0, n: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        p = random_admissible_material(rng)
        r = reciprocal_constants(p)
        s = Strain3D(gamma=rng.standard_normal((3, 3)),
                     chi=rng.standard_normal((3, 3)))
        t = stress_from_strain_3d(s, p)
        s2 = strain_from_stress_3d(t, r)
        scale = max(np.max(np.abs(s.gamma)), np.max(np.abs(s.chi)))
        err = max(np.max(np.abs(s2.gamma - s.gamma)),
                  np.max(np.abs(s2.chi - s.chi))) / scale
        worst = max(worst, err)
        # reverse direction
        t2 = stress_from_strain_3d(strain_from_stress_3d(t, r), p)
        scale_t = max(np.max(np.abs(t.sigma)), np.max(np.abs(t.mu_c)))
        err_t = max(np.max(np.abs(t2.sigma - t.sigma)),
                    np.max(np.abs(t2.mu_c - t.mu_c))) / scale_t
        worst = max(worst, err_t)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 1.0
    return SuiteResult(
        "3d-constitutive-round-trip", ok,
        f"max rel err {worst:.2e} (tol 1e-12) over {n} samples, {wall:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. energy positivity
# ---------------------------------------------------------------------------

def suite_energy_positivity(seed: int = 1, n: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    min_w = np.inf
    min_phi = np.inf
    h = 0.2
    for _ in range(n):
        p = random_admissible_material(rng)
        s = Strain3D(gamma=rng.standard_normal((3, 3)),
                     chi=rng.standard_normal((3, 3)))
        w, _, _ = energy_densities_3d(s, p)
        min_w = min(min_w, float(w))
        tc = technical_constants(p, h)
        sv = PlateStress(*rng.standard_normal(20))
        phi = plate_energy_density(sv, tc)
        min_phi = min(min_phi, float(phi))
    wall = time.perf_counter() - t0
    ok = min_w > 0.0 and min_phi > 0.0 and wall < 1.0
    return SuiteResult(
        "energy-positivity", ok,
        f"min W {min_w:.3e}, min plate Phi {min_phi:.3e} over {n} samples, "
        f"{wall:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. plate quadratic-form consistency
# ---------------------------------------------------------------------------

def suite_plate_quadratic_consistency(seed: int = 2, n: int = 100) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        p = random_admissible_material(rng)
        tc = technical_constants(p, rng.uniform(0.05, 0.5))
        s = PlateStress(*rng.standard_normal(20))
        phi = float(plate_energy_density(s, tc))
        e = strain_from_stress(s, tc)
        half = 0.5 * float(internal_work_density(s, e))
        worst = max(worst, abs(phi - half) / abs(phi))
    ok = worst <= 1e-10
    return SuiteResult(
        "plate-quadratic-consistency", ok,
        f"max |Phi - S.E/2|/Phi = {worst:.2e} (tol 1e-10) over {n} samples",
    )


# ---------------------------------------------------------------------------
# 4. thickness round trip and face conditions
# ---------------------------------------------------------------------------

def suite_thickness_roundtrip(seed: int = 3, n: int = 100) -> SuiteResult:
    rng = np.random.default_rng(seed)
    h = 0.31
    s = PlateStress(*rng.standard_normal((20, n)))
    loads = LoadSet(p=rng.standard_normal(n), sigma0=rng.standard_normal(n),
                    v=rng.standard_normal(n), t=rng.standard_normal(n))

    def ev(z):
        return thickness_profiles(s, loads, h, z)

    s2 = resultants_from_profiles(ev, h)
    scale = np.max(np.abs(s.as_array()))
    rt_err = np.max(np.abs(s2.as_array() - s.as_array())) / scale

    top = thickness_profiles(s, loads, h, 1.0)
    bot = thickness_profiles(s, loads, h, -1.0)
    sig_t = np.asarray(loads.sigma0) + 0.5 * np.asarray(loads.p)
    sig_b = np.asarray(loads.sigma0) - 0.5 * np.asarray(loads.p)
    mu_t = np.asarray(loads.t) + np.asarray(loads.v)
    mu_b = np.asarray(loads.t) - np.asarray(loads.v)
    face = max(
        np.max(np.abs(top.sigma[..., 2, 2] - sig_t)),
        np.max(np.abs(bot.sigma[..., 2, 2] - sig_b)),
        np.max(np.abs(top.sigma[..., 2, 0])), np.max(np.abs(top.sigma[..., 2, 1])),
        np.max(np.abs(bot.sigma[..., 2, 0])), np.max(np.abs(bot.sigma[..., 2, 1])),
        np.max(np.abs(top.mu_c[..., 2, 2] - mu_t)),
        np.max(np.abs(bot.mu_c[..., 2, 2] - mu_b)),
        np.max(np.abs(top.mu_c[..., 2, 0])), np.max(np.abs(top.mu_c[..., 2, 1])),
        np.max(np.abs(bot.mu_c[..., 2, 0])), np.max(np.abs(bot.mu_c[..., 2, 1])),
    )
    ok = rt_err <= 1e-12 and face == 0.0
    return SuiteResult(
        "thickness-round-trip", ok,
        f"round trip rel err {rt_err:.2e} (tol 1e-12), face-condition "
        f"residual {face:.1e} (exact) over {n} samples",
    )


# ---------------------------------------------------------------------------
# 5. operator correctness and the diff table
# ---------------------------------------------------------------------------

def suite_operator_residual(seed: int = 4, n_materials: int = 5) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_materials):
        p = random_admissible_material(rng)
        h = rng.uniform(0.05, 0.5)
        tc = technical_constants(p, h)
        inertia = inertia_constants(p, h)
        flex = build_flexural(tc, inertia)
        ext = build_extensional(tc, inertia)
        worst = max(worst, operator_residual_oracle(flex, tc, rng=int(rng.integers(2**31))))
        worst = max(worst, operator_residual_oracle(ext, tc, rng=int(rng.integers(2**31))))
    # classical subsystem at N -> 0
    p0 = _classical_material()
    tc0 = technical_constants(p0, 0.1)
    i0 = inertia_constants(p0, 0.1)
    worst = max(worst, operator_residual_oracle(build_flexural(tc0, i0), tc0, rng=7))

    # the literal tables must be available and the diff table emittable
    rows = coefficient_diff_table(tc0, i0)
    n_diff = sum(1 for r in rows if r[4] > 1e-12)
    ok = worst <= 1e-10
    return SuiteResult(
        "operator-residual", ok,
        f"max composition residual {worst:.2e} (tol 1e-10); diff table has "
        f"{len(rows)} rows, {n_diff} nonzero deviations (documentation)",
    )


# ---------------------------------------------------------------------------
# 6. classical limit (static + dispersion)
# ---------------------------------------------------------------------------

def _classical_model():
    """The clamped 65^2 plate with N -> 0 under a unit pressure."""
    mat = _classical_material()
    cfg = ModelConfig(
        material=mat, h=0.1, a=1.0, b=1.0, nx=65, ny=65,
        bc={e: "clamped" for e in EDGES},
        loads=LoadFunctions(p=ConstantLoad(1.0)),
    )
    return assemble(cfg)


@functools.lru_cache(maxsize=1)
def _classical_solution():
    """The static solution of ``_classical_model()``, shared by suites 6
    and 9.  Only the (read-only) kinematic arrays are kept, not the model
    and its static factor; ``run_all`` clears the memo before its first
    suite and when it ends."""
    kin, _ = static_solve(_classical_model())
    for f in fields(kin):
        getattr(kin, f.name).flags.writeable = False
    return kin


def suite_classical_limit(seed: int = 5) -> SuiteResult:
    t0 = time.perf_counter()
    model = _classical_model()
    kin = _classical_solution()
    ic = (model.nx - 1) // 2
    w_center = float(np.asarray(kin.w)[ic, ic])

    tc = model.tc
    S = tc.kappa1_sq * tc.G * tc.h
    w_ref, _ = oracles.mindlin_static_center_deflection(
        tc.D, tc.nu, S, 1.0, 1.0, 1.0, model.nx, model.ny
    )
    static_err = abs(w_center - w_ref) / abs(w_ref)

    inertia = model.inertia
    ks = (0.7, 1.3, 2.9, 6.1, 11.3, 23.7)
    w2, vecs = wave_eigensystem(model.flex, [(k, 0.0) for k in ks],
                                with_modes=True)
    support = np.sum(np.abs(vecs[:, :3, :]) ** 2, axis=1) / np.sum(
        np.abs(vecs) ** 2, axis=1
    )
    disp_err = 0.0
    for k, w2_k, support_k in zip(ks, w2, support):
        classical = np.sort(np.sqrt(np.clip(w2_k[support_k > 0.5], 0.0, None)))
        ref = oracles.mindlin_dispersion(
            tc.D, tc.nu, S, inertia.I_o, inertia.rho_o, k
        )
        if classical.size != 3:
            return SuiteResult(
                "classical-limit", False,
                f"branch identification failed at k={k}: {classical.size} "
                f"classical branches",
            )
        disp_err = max(disp_err, float(np.max(np.abs(classical - ref) / ref)))
    wall = time.perf_counter() - t0
    ok = static_err <= 5e-3 and disp_err <= 1e-8 and wall < 30.0
    return SuiteResult(
        "classical-limit", ok,
        f"center deflection rel diff {static_err:.2e} (tol 5e-3), dispersion "
        f"rel diff {disp_err:.2e} (tol 1e-8), {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. manufactured-solution convergence
# ---------------------------------------------------------------------------

def suite_convergence(seed: int = 6) -> SuiteResult:
    rng = np.random.default_rng(seed)
    polys = oracles.manufactured_fields(rng, degree=3)
    mat = material_from_technical(
        E=1.0, nu=0.25, N=0.45, l_t=0.12, l_b=0.1, Psi=0.7,
        rho=1.0, J=(1.0, 1.0, 1.0),
    )

    errs = []
    for n in (17, 33, 65):
        # data callables bound per grid below
        def make_bc(flex_data, ext_data):
            return {
                e: EdgeBC(kind="clamped", flex_data=flex_data, ext_data=ext_data)
                for e in EDGES
            }

        cfg = ModelConfig(
            material=mat, h=0.1, a=1.0, b=1.0, nx=n, ny=n,
            bc={e: "clamped" for e in EDGES},
        )
        model = assemble(cfg)
        (f_flex, f_ext, flex_data, ext_data,
         exact_flex, exact_ext) = oracles.manufactured_static_problem(model, polys)
        cfg2 = replace(cfg, bc=make_bc(flex_data, ext_data))
        model = assemble(cfg2)
        kin, _ = static_solve(model, extra_flex_F=f_flex, extra_ext_F=f_ext)
        num = np.concatenate([kin.flexural().ravel(), kin.extensional().ravel()])
        ref = np.concatenate([exact_flex.ravel(), exact_ext.ravel()])
        errs.append(np.max(np.abs(num - ref)) / np.max(np.abs(ref)))

    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(o >= 1.9 for o in orders)
    return SuiteResult(
        "mms-convergence", ok,
        f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, observed "
        f"orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 1.9)",
    )


# ---------------------------------------------------------------------------
# 8. energy conservation
# ---------------------------------------------------------------------------

def lowest_flexural_mode(model):
    """Fundamental flexural eigenmode of the constrained discrete system."""
    import scipy.sparse as sp

    stack = model.interior_stack
    s = stack.parts[0].s
    K = (-stack.B[s, s]).tocsc()
    M = sp.diags(stack.mass[s])
    w2, vecs = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM")
    return float(np.sqrt(max(w2[0], 0.0))), vecs[:, 0]


def suite_energy_conservation(seed: int = 7, n_steps: int = 10_000) -> SuiteResult:
    mat = material_from_technical(
        E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06, Psi=0.8,
        rho=1.0, J=(0.1, 0.1, 0.1),
    )
    cfg = ModelConfig(
        material=mat, h=0.1, a=1.0, b=1.0, nx=17, ny=17,
        bc={e: "clamped" for e in EDGES},
    )
    model = assemble(cfg)
    _, mode = lowest_flexural_mode(model)
    s0 = DiscreteState.zero(model)
    fv = s0.flex_vel.reshape(6, -1).copy().ravel()
    fv[model.flex_d.interior_dofs] = mode / np.max(np.abs(mode))
    s0 = DiscreteState(flex=s0.flex, ext=s0.ext,
                       flex_vel=fv.reshape(6, model.nx, model.ny),
                       ext_vel=s0.ext_vel)
    dt = stable_dt(model)
    t_final = n_steps * dt

    def drift(run_dt):
        traj = simulate(model, t_final=t_final, dt=run_dt,
                        snapshot_every=max(1, int(round(t_final / run_dt)) // 100),
                        initial=s0)
        e = traj.energy.as_arrays()
        return float(np.max(np.abs(e["total"] - e["total"][0])) / e["total"][0])

    d_full = drift(dt)
    d_quarter = drift(dt / 4.0)
    ratio = d_full / max(d_quarter, 1e-300)
    ok = d_full < 1e-3 and ratio >= 10.0
    return SuiteResult(
        "energy-conservation", ok,
        f"drift {d_full:.2e} over {n_steps} steps at stable dt (tol 1e-3); "
        f"dt/4 drift {d_quarter:.2e}, reduction x{ratio:.1f} (need >= 10)",
    )


# ---------------------------------------------------------------------------
# 9. HPR stationarity
# ---------------------------------------------------------------------------

def suite_hpr_stationarity(seed: int = 8, n_perturbations: int = 20) -> SuiteResult:
    rng = np.random.default_rng(seed)
    model = _classical_model()
    eq = equilibrium_state(model, _classical_solution())
    F = HPRFunctional(model)

    eq_measures = F.stationarity_measures(
        eq, (random_admissible_perturbation(model, rng)
             for _ in range(n_perturbations)))
    worst_eq = max(eq_measures)

    bad = random_admissible_perturbation(model, rng)
    bad_state = HPRState(u=bad.u, s=bad.s)
    bad_measures = [
        F.stationarity_measure(bad_state, random_admissible_perturbation(model, rng))
        for _ in range(5)
    ]
    best_bad = min(bad_measures)
    separation = best_bad / max(worst_eq, 1e-300)
    ok = worst_eq <= 1e-6 and separation >= 1e3
    return SuiteResult(
        "hpr-stationarity", ok,
        f"max equilibrium measure {worst_eq:.2e} (tol 1e-6) over "
        f"{n_perturbations} perturbations; non-equilibrium min "
        f"{best_bad:.2e}, separation x{separation:.1e} (need >= 1e3)",
    )


# ---------------------------------------------------------------------------
# 10. dispersion sanity
# ---------------------------------------------------------------------------

def suite_dispersion_sanity(seed: int = 9, n_materials: int = 200,
                            n_wavevectors: int = 50) -> SuiteResult:
    rng = np.random.default_rng(seed)
    min_w2 = np.inf
    for _ in range(n_materials):
        p = random_admissible_material(rng)
        h = rng.uniform(0.05, 0.5)
        tc = technical_constants(p, h)
        inertia = inertia_constants(p, h)
        flex = build_flexural(tc, inertia)
        ext = build_extensional(tc, inertia)
        ks = rng.uniform(-30.0, 30.0, size=(n_wavevectors, 2))
        for op in (flex, ext):
            w2, _ = wave_eigensystem(op, ks)
            min_w2 = min(min_w2, float(np.min(w2)))

    # zero-mode bookkeeping of the classical block at N -> 0
    p0 = _classical_material()
    tc0 = technical_constants(p0, 0.1)
    i0 = inertia_constants(p0, 0.1)
    flex0 = build_flexural(tc0, i0)
    A0 = flex0.wave_matrix(0.0, 0.0).real
    block = A0[:3, :3]
    m3 = flex0.mass[:3]
    w2c, vecs = scipy.linalg.eigh(block, np.diag(m3))
    tol = 1e-9 * np.max(np.abs(block)) / np.min(m3)
    zero_idx = np.where(w2c <= tol)[0]
    zero_count = len(zero_idx)
    w_dominated = all(int(np.argmax(np.abs(vecs[:, j]))) == 2 for j in zero_idx)

    full = cutoff_frequencies(flex0)
    ok = min_w2 >= -1e-10 and zero_count == 1 and w_dominated
    return SuiteResult(
        "dispersion-sanity", ok,
        f"min w^2 {min_w2:.2e} over {n_materials * n_wavevectors * 2} "
        f"eigenproblems (tol -1e-10); classical-block zero modes at N~0: "
        f"{zero_count} (W translation), full-system zero modes "
        f"{full.zero_mode_count} {full.zero_mode_fields}",
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

ALL_SUITES = (
    suite_roundtrip_3d,
    suite_energy_positivity,
    suite_plate_quadratic_consistency,
    suite_thickness_roundtrip,
    suite_operator_residual,
    suite_classical_limit,
    suite_convergence,
    suite_energy_conservation,
    suite_hpr_stationarity,
    suite_dispersion_sanity,
)


def write_diff_table(path, tc=None, inertia=None) -> None:
    """Write the coefficient diff CSV (entry, literal expr, literal value,
    derived value, abs diff)."""
    if tc is None:
        p0 = _classical_material(N=0.35)
        tc = technical_constants(p0, 0.1)
        inertia = inertia_constants(p0, 0.1)
    rows = coefficient_diff_table(tc, inertia)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["entry", "paper_value_expr", "paper_value",
                    "oracle_value", "abs_diff"])
        for r in rows:
            w.writerow(r)


def run_all(seed: int = 0, out_dir=None, verbose: bool = True):
    """Run every suite, suite k with seed ``seed + k``.

    With ``out_dir``, writes ``coefficient_diff.csv`` and
    ``verify_report.json``: the package version, the seed and, per suite,
    its name, pass flag, printed details and wall time (telemetry, so not
    byte-reproducible).
    """
    results, report = [], []
    _classical_solution.cache_clear()
    try:
        for suite in ALL_SUITES:
            t0 = time.perf_counter()
            res = suite(seed=seed + len(results))
            report.append({"name": res.name, "passed": bool(res.passed),
                           "details": res.details,
                           "wall_s": time.perf_counter() - t0})
            results.append(res)
            if verbose:
                print(res.line())
    finally:
        _classical_solution.cache_clear()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_diff_table(out / "coefficient_diff.csv")
        with open(out / "verify_report.json", "w") as f:
            json.dump({"version": __version__, "seed": seed,
                       "suites": report}, f, indent=2)
            f.write("\n")
    return results
