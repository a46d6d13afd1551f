"""Verification suites: every algebraic layer against an independent oracle.

Each suite returns a :class:`SuiteResult` with the measured numbers in
``details`` so failures are diagnosable from the report alone.  The
tolerances are fixed here, not configurable: they are the acceptance
contract of the package.  ``run_all`` executes everything and optionally
writes the operator coefficient diff table (the documentation artifact
comparing the published coefficient variants with the derived ones) and a
per-suite report.  Suites 6 and 9 share one static solve of the classical
plate, held only while ``run_all`` runs.  Suites 1, 2 and 10 draw their
samples one at a time and then evaluate them as one batch, which gives
each sample the bits of a call on it alone.
"""

from __future__ import annotations

import csv
import functools
import json
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from . import __version__, oracles
from .cosserat3d import (
    Strain3D,
    strain_energy_density,
    strain_from_stress_3d,
    stress_from_strain_3d,
)
from .dispersion import ZERO_MODE_TOL, cutoff_frequencies, wave_eigensystem
from .dynamics import (
    EDGES,
    ConfigError,
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
    build_extensional_stack,
    build_flexural,
    build_flexural_stack,
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

def _draw_3d_sample(rng):
    """One admissible material and one 3D strain (gamma, chi), drawn in
    this order."""
    return (random_admissible_material(rng), rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)))


def _stacked_3d_samples(samples):
    """The samples as one batch for the 3D maps: a MaterialParams whose
    moduli are arrays (one entry per sample) and a Strain3D of (n, 3, 3)
    stacks.  Each sample's arithmetic is that of a call on it alone."""
    mats, gammas, chis = zip(*samples)
    p = MaterialParams(*(np.array([getattr(m, f) for m in mats])
                         for f in ("lam", "mu", "alpha", "beta", "gamma",
                                   "epsilon")))
    return p, Strain3D(gamma=np.stack(gammas), chi=np.stack(chis))


def _relative_errors(new, old):
    """Per sample, the largest |new - old| over a pair of tensor stacks,
    relative to the largest |old|."""
    def largest(t):
        return np.max(np.abs(t), axis=(-2, -1))

    return (np.maximum(largest(new[0] - old[0]), largest(new[1] - old[1]))
            / np.maximum(largest(old[0]), largest(old[1])))


def _roundtrip_3d_error(rng, n: int) -> float:
    """The worst relative error of strain -> stress -> strain and of
    stress -> strain -> stress over n drawn samples, mapped as one batch."""
    p, s = _stacked_3d_samples([_draw_3d_sample(rng) for _ in range(n)])
    r = reciprocal_constants(p)
    t = stress_from_strain_3d(s, p)
    s2 = strain_from_stress_3d(t, r)
    t2 = stress_from_strain_3d(s2, p)
    return max(float(np.max(_relative_errors((s2.gamma, s2.chi),
                                             (s.gamma, s.chi)))),
               float(np.max(_relative_errors((t2.sigma, t2.mu_c),
                                             (t.sigma, t.mu_c)))))


def suite_roundtrip_3d(seed: int = 0, n: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst = _roundtrip_3d_error(rng, n)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 1.0
    return SuiteResult(
        "3d-constitutive-round-trip", ok,
        f"max rel err {worst:.2e} (tol 1e-12) over {n} samples, {wall:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. energy positivity
# ---------------------------------------------------------------------------

def _energy_minima(rng, n: int) -> tuple[float, float]:
    """(min W, min plate Phi) over n drawn samples: per sample a material
    and 3D strain, then a plate stress; W is evaluated as one batch."""
    samples = []
    min_phi = np.inf
    h = 0.2
    for _ in range(n):
        samples.append(_draw_3d_sample(rng))
        tc = technical_constants(samples[-1][0], h)
        sv = PlateStress(*rng.standard_normal(20))
        phi = plate_energy_density(sv, tc)
        min_phi = min(min_phi, float(phi))
    p, s = _stacked_3d_samples(samples)
    return float(np.min(strain_energy_density(s, p))), min_phi


def suite_energy_positivity(seed: int = 1, n: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    min_w, min_phi = _energy_minima(rng, n)
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
    tcs, inertias, seeds = [], [], []
    for k in range(n_materials):
        p = random_admissible_material(rng)
        h = rng.uniform(0.05, 0.5)
        tcs.append(technical_constants(p, h))
        inertias.append(inertia_constants(p, h))
        seeds.append([int(rng.integers(2**31)) for _ in range(2)])
    # the stacks the sweep solves, one oracle call per table
    flex, _ = build_flexural_stack(tcs, inertias)
    ext, _ = build_extensional_stack(tcs, inertias)
    worst = 0.0
    for C_f, C_e, tc, (seed_f, seed_e) in zip(flex, ext, tcs, seeds):
        worst = max(worst, operator_residual_oracle(C_f, tc, rng=seed_f))
        worst = max(worst, operator_residual_oracle(C_e, tc, rng=seed_e))
    # classical subsystem at N -> 0
    p0 = _classical_material()
    tc0 = technical_constants(p0, 0.1)
    i0 = inertia_constants(p0, 0.1)
    worst = max(worst, operator_residual_oracle(build_flexural(tc0, i0).coeffs,
                                                tc0, rng=7))

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

def _classical_config() -> ModelConfig:
    """The clamped 65^2 plate with N -> 0 under a unit pressure."""
    return ModelConfig(
        material=_classical_material(), h=0.1, a=1.0, b=1.0, nx=65, ny=65,
        bc={e: "clamped" for e in EDGES},
        loads=LoadFunctions(p=ConstantLoad(1.0)),
    )


def _classical_model():
    return assemble(_classical_config())


@functools.lru_cache(maxsize=1)
def _classical_solution():
    """The static solution of ``_classical_model()``, shared by suites 6
    and 9.  Only the (read-only) kinematic arrays are kept, not the model;
    ``static_solve`` has released its factor by the time it returns.
    ``run_all`` clears the memo before its first suite and when it ends."""
    kin, _ = static_solve(_classical_model())
    for f in fields(kin):
        getattr(kin, f.name).flags.writeable = False
    return kin


def suite_classical_limit(seed: int = 5) -> SuiteResult:
    t0 = time.perf_counter()
    cfg = _classical_config()
    kin = _classical_solution()
    ic = (cfg.nx - 1) // 2
    w_center = float(np.asarray(kin.w)[ic, ic])

    # the constants and plane-wave operator that ``assemble`` builds, here
    # without a grid: the one assembly is ``_classical_solution``'s
    tc = technical_constants(cfg.material, cfg.h, cfg.shear_correction)
    inertia = inertia_constants(cfg.material, cfg.h)
    S = tc.kappa1_sq * tc.G * tc.h
    w_ref, _ = oracles.mindlin_static_center_deflection(
        tc.D, tc.nu, S, 1.0, 1.0, 1.0, cfg.nx, cfg.ny
    )
    static_err = abs(w_center - w_ref) / abs(w_ref)

    ks = (0.7, 1.3, 2.9, 6.1, 11.3, 23.7)
    flex = build_flexural(tc, inertia)
    w2, vecs = wave_eigensystem(flex.coeffs, flex.mass,
                                [(k, 0.0) for k in ks], with_modes=True)
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

    flex_data, ext_data = oracles.manufactured_boundary_data(polys)
    bc = {e: EdgeBC(kind="clamped", flex_data=flex_data, ext_data=ext_data)
          for e in EDGES}
    errs = []
    for n in (17, 33, 65):
        model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0,
                                     nx=n, ny=n, bc=bc))
        (f_flex, f_ext, _, _,
         exact_flex, exact_ext) = oracles.manufactured_static_problem(model, polys)
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
    """Fundamental flexural eigenmode of the constrained discrete system,
    K = -A_FF and M the lumped masses of the free flexural rows.  The
    classes of every mirror of the rectangle that commutes with K and M
    bit for bit (``dynamics.mirror``) do not couple: each class's P^T K P,
    P^T M P is solved alone and the lowest mode is returned, expanded
    through P, so it lies exactly in one class of each such mirror and the
    explicit kernel steps only that class (a quarter of the grid on a
    clamped rectangle).  Without such a mirror the whole system is solved.
    ARPACK starts from a fixed vector, so every call returns the same
    bits."""
    import scipy.sparse as sp

    from .dynamics.mirror import classes_of, mirror_of

    d = model.flex_d
    K = -d.A[d.free_dofs][:, d.free_dofs]
    mirrors = [m for m in (mirror_of(d, d.free_dofs, axis) for axis in (0, 1))
               if m is not None and m.commutes(K, d.mass_free)]
    if not mirrors:
        w2, vecs = spla.eigsh(K.tocsc(), k=1, M=sp.diags(d.mass_free),
                              sigma=0.0, which="LM", v0=np.ones(K.shape[0]))
        return float(np.sqrt(max(w2[0], 0.0))), vecs[:, 0]
    modes = []
    for c in classes_of(mirrors):
        w2, vecs = spla.eigsh(c.form(K).tocsc(), k=1,
                              M=sp.diags(c.weight * d.mass_free[c.rows]),
                              sigma=0.0, which="LM", v0=np.ones(c.rows.size))
        modes.append((w2[0], c.P @ vecs[:, 0]))
    w2, mode = min(modes, key=lambda wm: wm[0])
    return float(np.sqrt(max(w2, 0.0))), mode


def mode_energy_drifts(model, n_steps: int) -> tuple:
    """Criterion 08's two runs on ``model``, started from its lowest
    flexural mode as the velocity (largest entry 1): the largest relative
    drift of the total energy over ``n_steps`` steps at ``stable_dt``, and
    over the same time at dt/4."""
    _, mode = lowest_flexural_mode(model)
    s0 = DiscreteState.zero(model)
    fv = s0.flex_vel.reshape(6, -1).copy().ravel()
    fv[model.flex_d.free_dofs] = mode / np.max(np.abs(mode))
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

    return drift(dt), drift(dt / 4.0)


def suite_energy_conservation(seed: int = 7, n_steps: int = 10_000) -> SuiteResult:
    mat = material_from_technical(
        E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06, Psi=0.8,
        rho=1.0, J=(0.1, 0.1, 0.1),
    )
    cfg = ModelConfig(
        material=mat, h=0.1, a=1.0, b=1.0, nx=17, ny=17,
        bc={e: "clamped" for e in EDGES},
    )
    d_full, d_quarter = mode_energy_drifts(assemble(cfg), n_steps)
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

def _dispersion_min_w2(rng, n_materials: int, n_wavevectors: int) -> float:
    """The least w^2 over n_wavevectors drawn wavevectors for each of
    n_materials drawn materials, both subsystems; the materials' tables and
    their A(k) are built as one stack and solved in one call per
    subsystem."""
    tcs, inertias, xi = [], [], []
    for _ in range(n_materials):
        p = random_admissible_material(rng)
        h = rng.uniform(0.05, 0.5)
        tcs.append(technical_constants(p, h))
        inertias.append(inertia_constants(p, h))
        xi.append(rng.uniform(-30.0, 30.0, size=(n_wavevectors, 2)))
    xi = np.stack(xi)
    min_w2 = np.inf
    for build in (build_flexural_stack, build_extensional_stack):
        coeffs, mass = build(tcs, inertias)
        w2, _ = wave_eigensystem(coeffs, mass, xi,
                                 where=lambda i: f"material {i}")
        min_w2 = min(min_w2, float(np.min(w2)))
    return min_w2


def suite_dispersion_sanity(seed: int = 9, n_materials: int = 200,
                            n_wavevectors: int = 50) -> SuiteResult:
    rng = np.random.default_rng(seed)
    min_w2 = _dispersion_min_w2(rng, n_materials, n_wavevectors)

    # zero-mode bookkeeping of the classical block at N -> 0
    p0 = _classical_material()
    tc0 = technical_constants(p0, 0.1)
    i0 = inertia_constants(p0, 0.1)
    flex0 = build_flexural(tc0, i0)
    block, m3 = flex0.coeffs[:3, :3], flex0.mass[:3]
    (w2c,), (vecs,) = wave_eigensystem(block, m3, [(0.0, 0.0)],
                                       with_modes=True)
    # A(0) = -L(0) holds only the constant-monomial coefficients
    tol = ZERO_MODE_TOL * np.max(np.abs(block[..., 0])) / np.min(m3)
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


def write_diff_table(path) -> None:
    """Write the coefficient diff CSV (entry, literal expr, literal value,
    derived value, abs diff) of the classical material at N = 0.35."""
    p0 = _classical_material(N=0.35)
    rows = coefficient_diff_table(technical_constants(p0, 0.1),
                                  inertia_constants(p0, 0.1))
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
    byte-reproducible).  A seed that is not a non-negative integer is a
    ConfigError.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
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
