import dataclasses
import logging
import re

import numpy as np
import pytest

from conftest import random_material
import scipy.sparse.linalg as spla

from cosserat_plate import dynamics, oracles
from cosserat_plate.dynamics import (
    GUARD_EVERY,
    ConfigError,
    ConstantLoad,
    DiscreteState,
    EdgeBC,
    GaussianPulseLoad,
    InstabilityError,
    LoadFunctions,
    ModelConfig,
    SingularSystemError,
    SinusoidalLoad,
    assemble,
    simulate,
    stable_dt,
    static_solve,
    step,
)
from cosserat_plate.material import material_from_technical
from cosserat_plate.plate_fields import LoadSet

ALL_CLAMPED = {e: "clamped" for e in ("left", "right", "bottom", "top")}
ALL_TRACTION = {e: "traction" for e in ("left", "right", "bottom", "top")}


def micropolar_material():
    return material_from_technical(E=1.0, nu=0.3, N=0.4, l_t=0.06, l_b=0.07,
                                   Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))


def make_model(nx=9, ny=9, bc=None, loads=None, a=1.0, b=1.0, h=0.1,
               material=None):
    cfg = ModelConfig(
        material=material or micropolar_material(), h=h, a=a, b=b,
        nx=nx, ny=ny, bc=bc or dict(ALL_CLAMPED),
        loads=loads or LoadFunctions(),
    )
    return assemble(cfg)


class TestAssemble:
    def test_interior_unknown_count(self):
        model = make_model(nx=5, ny=5)
        assert model.interior_unknown_count == (5 - 2) ** 2 * 9 == 81

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigError, match="nx,ny >= 5"):
            make_model(nx=3, ny=7)

    def test_rejects_missing_edge(self):
        with pytest.raises(ConfigError, match="every edge"):
            make_model(bc={"left": "clamped", "right": "clamped",
                           "bottom": "clamped"})

    def test_rejects_inadmissible_material(self):
        from cosserat_plate.material import MaterialParams

        bad = MaterialParams(lam=1, mu=1, alpha=-1, beta=1, gamma=1,
                             epsilon=1, rho=1, J=(1, 1, 1))
        with pytest.raises(ConfigError, match="alpha>0"):
            make_model(material=bad)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError, match="positive"):
            make_model(h=-0.1)

    def test_mixed_edges_accepted(self):
        model = make_model(bc={"left": "clamped", "right": "traction",
                               "bottom": "clamped", "top": "traction"})
        assert model.flex_d.trac_nodes.size > 0
        assert model.flex_d.dirich_nodes.size > 0


class TestStableDt:
    def test_halving_dx_halves_dt(self):
        # grid-resolution-dominated regime: the bound tracks the largest
        # spatial frequency, so dt scales like dx for the 2nd-order operator
        d1 = stable_dt(make_model(nx=17, ny=17))
        d2 = stable_dt(make_model(nx=33, ny=33))
        assert d1 / d2 == pytest.approx(2.0, rel=0.15)

    def test_continuous_in_coupling_number(self):
        prev = None
        for N in (1e-6, 0.1, 0.2, 0.3, 0.4, 0.5):
            m = material_from_technical(E=1.0, nu=0.3, N=N, l_t=0.06,
                                        l_b=0.07, Psi=0.9, rho=1.0,
                                        J=(0.2, 0.2, 0.2))
            dt = stable_dt(make_model(material=m))
            assert np.isfinite(dt) and dt > 0
            if prev is not None:
                assert abs(dt - prev) / prev < 0.5
            prev = dt

    def test_loads_do_not_affect_dt(self):
        d1 = stable_dt(make_model())
        d2 = stable_dt(make_model(loads=LoadFunctions(p=ConstantLoad(5.0))))
        assert d1 == pytest.approx(d2, rel=1e-12)


class TestStep:
    def test_zero_state_stays_zero(self):
        model = make_model()
        s = DiscreteState.zero(model)
        s2 = step(s, model, 0.01)
        assert np.all(s2.flex == 0.0) and np.all(s2.ext == 0.0)
        assert np.all(s2.flex_vel == 0.0) and np.all(s2.ext_vel == 0.0)
        assert s2.time == pytest.approx(0.01)

    def test_rigid_translation_free_edges(self):
        """Uniform in-plane translation with traction edges produces zero
        strain, zero force, and the state never moves."""
        model = make_model(bc=dict(ALL_TRACTION))
        s = DiscreteState.zero(model)
        ext = s.ext.copy()
        ext[0] = 3.7  # U1 = const
        s = DiscreteState(flex=s.flex, ext=ext, flex_vel=s.flex_vel,
                          ext_vel=s.ext_vel)
        for _ in range(5):
            s = step(s, model, 0.3 * stable_dt(model))
        np.testing.assert_allclose(s.ext[0], 3.7, atol=1e-9)
        np.testing.assert_allclose(s.ext[1:], 0.0, atol=1e-9)
        np.testing.assert_allclose(s.ext_vel, 0.0, atol=1e-9)

    def test_dirichlet_rows_exact_after_step(self):
        def flex_data(x, y):
            return np.stack([0.1 + 0 * x, 0.2 + 0 * x, 0.3 + 0 * x,
                             0 * x, 0 * x, 0 * x])

        bc = {e: EdgeBC(kind="clamped", flex_data=flex_data) for e in
              ("left", "right", "bottom", "top")}
        model = make_model(bc=bc)
        s = DiscreteState.zero(model)
        s = step(s, model, 0.5 * stable_dt(model))
        assert np.all(s.flex[0][0, :] == 0.1)
        assert np.all(s.flex[1][-1, :] == 0.2)
        assert np.all(s.flex[2][:, 0] == 0.3)

    def test_stability_warning_flag(self):
        model = make_model()
        dt = stable_dt(model)
        s = DiscreteState.zero(model)
        s2 = step(s, model, 2.0 * dt)
        assert s2.stability_warning
        assert not step(s, model, 0.5 * dt).stability_warning


def solve_mixed_bc_manufactured(nx, degree, seed=3):
    """Static solve with clamped left/bottom and traction right/top edges,
    data manufactured from random polynomials; returns max rel error."""
    model = make_model(
        nx=nx, ny=nx,
        bc={"left": "clamped", "right": "traction",
            "bottom": "clamped", "top": "traction"},
    )
    rng2 = np.random.default_rng(seed)
    polys = oracles.manufactured_fields(rng2, degree=degree)
    (f_flex, f_ext, flex_data, ext_data,
     exact_flex, exact_ext) = oracles.manufactured_static_problem(model, polys)

    # traction data on the traction edges from the constitutive map itself
    from cosserat_plate.operators import (
        _poly_kinematics, _poly_grad, _poly_zero_loads,
    )
    from cosserat_plate.plate_constitutive import stress_from_kinematics

    flex_names = ("psi1", "psi2", "w", "omega3", "omega1_0", "omega2_0")
    u = _poly_kinematics(flexural=[polys[n] for n in flex_names],
                         extensional=[polys[n] for n in
                                      ("u1", "u2", "omega3_0")])
    s = stress_from_kinematics(u, _poly_grad(u, 1), _poly_grad(u, 2),
                               model.tc, loads=_poly_zero_loads())

    def trac_flex(n):
        return [s.M11 * n[0] + s.M21 * n[1], s.M12 * n[0] + s.M22 * n[1],
                s.Q1_s * n[0] + s.Q2_s * n[1], s.S1_s * n[0] + s.S2_s * n[1],
                s.R11 * n[0] + s.R21 * n[1], s.R12 * n[0] + s.R22 * n[1]]

    def trac_ext(n):
        return [s.N11 * n[0] + s.N21 * n[1], s.N12 * n[0] + s.N22 * n[1],
                s.M1_s * n[0] + s.M2_s * n[1]]

    def make_edge(n):
        rows_f = trac_flex(n)
        rows_e = trac_ext(n)
        return EdgeBC(
            kind="traction",
            flex_data=lambda x, y: np.stack([r(x, y) for r in rows_f]),
            ext_data=lambda x, y: np.stack([r(x, y) for r in rows_e]),
        )

    bc = {
        "left": EdgeBC(kind="clamped", flex_data=flex_data,
                       ext_data=ext_data),
        "bottom": EdgeBC(kind="clamped", flex_data=flex_data,
                         ext_data=ext_data),
        "right": make_edge((1.0, 0.0)),
        "top": make_edge((0.0, 1.0)),
    }
    cfg = dataclasses.replace(model.config, bc=bc)
    model2 = assemble(cfg)
    kin, _ = static_solve(model2, extra_flex_F=f_flex, extra_ext_F=f_ext)
    num = np.concatenate([kin.flexural().ravel(), kin.extensional().ravel()])
    ref = np.concatenate([exact_flex.ravel(), exact_ext.ravel()])
    return np.max(np.abs(num - ref)) / np.max(np.abs(ref))


class TestTractionBoundary:
    def test_quadratic_patch_exact(self):
        """Degree <= 2 manufactured fields are reproduced exactly: interior
        central stencils and one-sided boundary stencils are both exact for
        quadratics, so only rounding remains."""
        assert solve_mixed_bc_manufactured(nx=9, degree=2) < 1e-9

    def test_traction_rows_converge_at_stencil_order(self):
        """Degree-3 manufactured fields with traction edges: the boundary
        rows converge at the order of the one-sided stencils (the rate
        approaches 2 from below under refinement)."""
        errs = [solve_mixed_bc_manufactured(nx=n, degree=3)
                for n in (17, 33, 65)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.8 for o in orders), (errs, orders)


class TestStatic:
    def test_zero_loads_zero_solution(self):
        model = make_model()
        kin, diag = static_solve(model)
        assert np.max(np.abs(kin.as_array())) == 0.0

    def test_residual_tolerance(self):
        model = make_model(nx=17, ny=17,
                           loads=LoadFunctions(p=ConstantLoad(1.0)))
        kin, diag = static_solve(model)
        assert diag["flexural_residual"] <= 1e-9 * diag["flexural_rhs_scale"]

    def test_all_traction_names_null_space(self):
        model = make_model(bc=dict(ALL_TRACTION))
        with pytest.raises(SingularSystemError, match="rigid"):
            static_solve(model)

    def test_mms_order_two(self):
        rng = np.random.default_rng(11)
        polys = oracles.manufactured_fields(rng, degree=3)
        errs = []
        for n in (9, 17, 33):
            model = make_model(nx=n, ny=n)
            (f_flex, f_ext, flex_data, ext_data,
             exact_flex, exact_ext) = oracles.manufactured_static_problem(
                model, polys)
            bc = {e: EdgeBC(kind="clamped", flex_data=flex_data,
                            ext_data=ext_data)
                  for e in ("left", "right", "bottom", "top")}
            model = assemble(dataclasses.replace(model.config, bc=bc))
            kin, _ = static_solve(model, extra_flex_F=f_flex,
                                  extra_ext_F=f_ext)
            num = np.concatenate([kin.flexural().ravel(),
                                  kin.extensional().ravel()])
            ref = np.concatenate([exact_flex.ravel(), exact_ext.ravel()])
            errs.append(np.max(np.abs(num - ref)) / np.max(np.abs(ref)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.9 for o in orders), (errs, orders)


def linear_data(nrows):
    """Non-zero edge data: one linear function of (x, y) per field row."""
    return lambda x, y: np.stack([0.01 * (k + 1) * (1.0 + x - 2.0 * y)
                                  for k in range(nrows)])


STATIC_LOADS = LoadFunctions(
    p=ConstantLoad(1.0), sigma0=SinusoidalLoad(0.5),
    t=GaussianPulseLoad(0.2, center=(0.6, 0.45), width=0.15))
CLAMPED_WITH_DATA = {e: EdgeBC(kind="clamped", flex_data=linear_data(6),
                               ext_data=linear_data(3))
                     for e in ("left", "right", "bottom", "top")}
RIGHT_TOP_TRACTION = {
    "left": "clamped", "bottom": "clamped",
    "right": EdgeBC(kind="traction", flex_data=linear_data(6),
                    ext_data=linear_data(3)),
    "top": EdgeBC(kind="traction", flex_data=linear_data(6),
                  ext_data=linear_data(3)),
}
CANTILEVER = {"left": "clamped", "right": "traction",
              "bottom": "traction", "top": "traction"}


class TestStaticFactor:
    """The condensed, nested-dissection-ordered static factorization."""

    @pytest.mark.parametrize("nx,ny", [(17, 17), (13, 21), (21, 13)])
    @pytest.mark.parametrize("bc", [CLAMPED_WITH_DATA, RIGHT_TOP_TRACTION],
                             ids=["clamped-data", "right-top-traction"])
    def test_matches_full_matrix_spsolve(self, bc, nx, ny):
        model = make_model(nx=nx, ny=ny, bc=bc, loads=STATIC_LOADS)
        kin, _ = static_solve(model)
        for d, key, h in ((model.flex_d, "flex_data", kin.flexural()),
                          (model.ext_d, "ext_data", kin.extensional())):
            rhs = dynamics._static_rhs(d, key)
            ref = spla.spsolve(d.A.tocsc(), rhs)
            assert np.max(np.abs(h.ravel() - ref)) <= \
                1e-9 * np.max(np.abs(ref)), d.name

    def test_nested_dissection_is_a_permutation(self):
        for nx, ny in ((5, 5), (13, 21), (21, 13), (65, 65)):
            order = dynamics._nested_dissection(nx, ny)
            assert np.array_equal(np.sort(order), np.arange(nx * ny))

    def test_second_solve_does_not_refactor(self, monkeypatch):
        model = make_model(bc=CANTILEVER, loads=STATIC_LOADS)
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(dynamics.spla, "splu", counting_splu)
        kin1, _ = static_solve(model)
        assert len(calls) == 2  # one factor per subsystem
        kin2, _ = static_solve(model)
        assert len(calls) == 2
        assert np.array_equal(kin1.as_array(), kin2.as_array())

    def test_cantilever_residual_below_1e_10(self):
        """Threshold pivoting plus two refinement steps keep the cantilever
        flexural residual an order below the full-matrix spsolve, which
        leaves 1.9e-10 here."""
        mat = material_from_technical(E=1.0, nu=0.3, N=0.39, l_t=0.05,
                                      l_b=0.05, Psi=1.2, rho=1.0,
                                      J=(0.1, 0.1, 0.1))
        model = make_model(nx=49, ny=49, bc=CANTILEVER, material=mat,
                           loads=LoadFunctions(p=ConstantLoad(1.0)))
        _, diag = static_solve(model)
        assert diag["flexural_residual"] <= 1e-10 * diag["flexural_rhs_scale"]
        assert diag["extensional_residual"] <= \
            1e-10 * diag["extensional_rhs_scale"]

    def test_cantilever_fill_does_not_depend_on_material(self):
        """No row swap is taken, so the fill is the same for every material;
        at diag_pivot_thresh=0.01 the N=0.2 plate swapped rows."""
        nnz = set()
        for N, l_t in ((0.2, 0.04), (0.5, 0.08)):
            mat = material_from_technical(E=1.0, nu=0.3, N=N, l_t=l_t,
                                          l_b=0.05, Psi=0.6, rho=1.0,
                                          J=(0.1, 0.1, 0.1))
            model = make_model(nx=33, ny=33, bc=CANTILEVER, material=mat)
            for d in (model.flex_d, model.ext_d):
                lu = d.static_factor.lu
                assert np.array_equal(lu.perm_r, np.arange(lu.shape[0])), d.name
                nnz.add((d.name, lu.nnz))
        assert len(nnz) == 2

    def test_logs_fill_and_refinement(self, caplog):
        caplog.set_level(logging.DEBUG, logger=dynamics.__name__)
        model = make_model(bc=CANTILEVER, loads=STATIC_LOADS)
        static_solve(model)
        static_solve(model)
        lines = [r.getMessage() for r in caplog.records]
        factor = [ln for ln in lines if "static factor" in ln]
        solves = [ln for ln in lines if "static solve" in ln]
        assert len(factor) == 2 and len(solves) == 4
        assert factor[0].startswith("flexural") and "L+U nnz" in factor[0]
        assert all("2 refinement steps, relative residual" in ln
                   for ln in solves)


class TestSimulate:
    def test_zero_run_flat_energy(self):
        model = make_model()
        traj = simulate(model, t_final=0.1, snapshot_every=2)
        e = traj.energy.as_arrays()
        assert np.all(e["total"] == 0.0)
        assert np.all(e["external_work"] == 0.0)

    def test_classical_trajectory_matches_mindlin_oracle(self):
        """At N ~ 0 the (psi1, psi2, w) trajectory coincides with the
        classical plate advanced by an independent solver."""
        m = material_from_technical(E=1.0, nu=0.3, N=1e-8, l_t=0.01,
                                    l_b=0.01, Psi=1.0, rho=1.0, J=(1, 1, 1))
        model = make_model(nx=9, ny=9, material=m)
        X, Y = model.X, model.Y
        v0 = np.sin(np.pi * X) * np.sin(np.pi * Y)
        s = DiscreteState.zero(model)
        fv = s.flex_vel.copy()
        fv[2] = v0
        s = DiscreteState(flex=s.flex, ext=s.ext, flex_vel=fv,
                          ext_vel=s.ext_vel)
        dt = 0.5 * stable_dt(model)
        n_steps = 50
        traj = simulate(model, t_final=n_steps * dt, dt=dt, snapshot_every=50,
                        initial=s)
        tc = model.tc
        S = tc.kappa1_sq * tc.G * tc.h
        hist, nn = oracles.mindlin_verlet_trajectory(
            tc.D, tc.nu, S, model.inertia.I_o, model.inertia.rho_o,
            1.0, 1.0, model.nx, model.ny, v0, dt, n_steps,
        )
        w_ref = hist[-1][2 * nn:].reshape(model.nx, model.ny)
        w_num = traj.states[-1].flex[2]
        scale = np.max(np.abs(w_ref))
        assert np.max(np.abs(w_num - w_ref)) / scale < 1e-6

    def test_work_energy_balance_scaling(self):
        """|dE - W_ext| over a forced run scales as dt^2 (the load must be
        resolved at the coarse step for the asymptotic rate)."""
        model = make_model(
            nx=9, ny=9,
            loads=LoadFunctions(p=GaussianPulseLoad(
                1.0, center=(0.5, 0.5), width=0.2, t0=0.4, tau=0.15)),
        )
        dt0 = 0.5 * stable_dt(model)

        def imbalance(dt):
            traj = simulate(model, t_final=1.0, dt=dt, snapshot_every=1)
            e = traj.energy.as_arrays()
            return np.max(np.abs(e["total"] - e["total"][0]
                                 - e["external_work"]))

        c1 = imbalance(dt0)
        c2 = imbalance(dt0 / 4.0)
        assert c1 / max(c2, 1e-300) > 8.0

    def test_instability_aborts_with_diagnostic(self):
        model = make_model()
        dt = stable_dt(model)
        X, Y = model.X, model.Y
        s = DiscreteState.zero(model)
        fv = s.flex_vel.copy()
        rng = np.random.default_rng(0)
        fv[:] = rng.standard_normal(fv.shape)
        s = DiscreteState(flex=s.flex, ext=s.ext, flex_vel=fv,
                          ext_vel=s.ext_vel)
        with pytest.raises(InstabilityError, match="stability bound"):
            simulate(model, t_final=400 * dt, dt=2.05 * dt, snapshot_every=5,
                     initial=s)

    def test_drift_richardson(self):
        model = make_model(nx=9, ny=9)
        from cosserat_plate.verification import lowest_flexural_mode

        _, mode = lowest_flexural_mode(model)
        s = DiscreteState.zero(model)
        fv = s.flex_vel.reshape(6, -1).copy().ravel()
        fv[model.flex_d.interior_dofs] = mode
        s = DiscreteState(flex=s.flex, ext=s.ext,
                          flex_vel=fv.reshape(6, model.nx, model.ny),
                          ext_vel=s.ext_vel)
        dt = stable_dt(model)
        t_final = 500 * dt

        def drift(run_dt):
            traj = simulate(model, t_final=t_final, dt=run_dt,
                            snapshot_every=10, initial=s)
            e = traj.energy.as_arrays()
            return np.max(np.abs(e["total"] - e["total"][0])) / e["total"][0]

        d1, d2 = drift(dt), drift(dt / 2)
        assert d1 / d2 > 3.0  # ~4x for a dt^2 method


def kicked_state(model, amplitude=1.0, center=(0.4, 0.55), width=0.1):
    """Gaussian velocity kick in w and U1 on the interior nodes."""
    prof = amplitude * np.exp(-0.5 * ((model.X - center[0]) ** 2
                                      + (model.Y - center[1]) ** 2) / width**2)
    prof[0, :] = prof[-1, :] = prof[:, 0] = prof[:, -1] = 0.0
    s = DiscreteState.zero(model)
    fv, ev = s.flex_vel.copy(), s.ext_vel.copy()
    fv[2] = prof
    ev[0] = 0.3 * prof
    return DiscreteState(flex=s.flex, ext=s.ext, flex_vel=fv, ext_vel=ev)


def state_arrays(s):
    return (s.flex, s.ext, s.flex_vel, s.ext_vel)


def step_loop(model, s, dt, n_steps, every):
    """Reference trajectory: ``step()`` called once per step."""
    states = [s]
    for k in range(1, n_steps + 1):
        s = step(s, model, dt)
        if k % every == 0 or k == n_steps:
            states.append(s)
    return states


class TestKernel:
    """``simulate`` runs the interior-state kernel, reusing each step's end
    acceleration and load as the next step's start; ``step()`` rebuilds
    them from the grid state, so the two must agree."""

    @pytest.mark.parametrize("loads", [
        LoadFunctions(),
        LoadFunctions(p=GaussianPulseLoad(1.0, center=(0.5, 0.5), width=0.1,
                                          t0=0.05, tau=0.02)),
    ], ids=["free-vibration", "gaussian-pulse"])
    def test_simulate_bitwise_equals_step_loop_clamped(self, loads):
        model = make_model(nx=17, ny=17, loads=loads)
        dt = stable_dt(model)
        s0 = kicked_state(model)
        traj = simulate(model, t_final=40 * dt, dt=dt, snapshot_every=10,
                        initial=s0)
        ref = step_loop(model, s0, traj.dt, traj.n_steps, 10)
        assert len(traj.states) == len(ref) == 5
        for got, want in zip(traj.states, ref):
            assert got.time == want.time
            for g, w in zip(state_arrays(got), state_arrays(want)):
                assert g.tobytes() == w.tobytes()

    def test_right_traction_matches_step_loop(self):
        def flex_data(x, y):
            return np.stack([0.01 + 0 * x, 0 * x, 0.02 + 0 * x,
                             0 * x, 0 * x, 0 * x])

        bc = {"left": EdgeBC(kind="clamped", flex_data=flex_data),
              "right": "traction", "bottom": "clamped", "top": "clamped"}
        model = make_model(nx=17, ny=17, bc=bc)
        dt = stable_dt(model)
        s0 = kicked_state(model, amplitude=1e-3)
        # the quasi-static traction boundary exchanges work that the energy
        # log leaves out, so the energy guard is off for this comparison
        traj = simulate(model, t_final=50 * dt, dt=dt, snapshot_every=25,
                        initial=s0, abort_on_instability=False)
        ref = step_loop(model, s0, traj.dt, traj.n_steps, 25)
        for got, want in zip(traj.states[1:], ref[1:]):
            for g, w in zip(state_arrays(got), state_arrays(want)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
            for s in (got, want):
                assert np.all(s.flex[0][0, :] == 0.01)
                assert np.all(s.flex[2][0, :] == 0.02)
                assert np.all(s.flex[2][1:, 0] == 0.0)

    def test_dirichlet_data_work_enters_the_energy_balance(self):
        """The lift A_ID g of prescribed edge values is a constant interior
        force: a run from rest at the stable dt used to trip the energy
        guard, since its work was not counted.  Now the energy tracks that
        work to O(dt^2), and a run above the stability bound still raises."""
        def flex_data(x, y):
            return np.stack([0.01 + 0 * x, 0 * x, 0.02 + 0 * x,
                             0 * x, 0 * x, 0 * x])

        data = EdgeBC(kind="clamped", flex_data=flex_data)
        model = make_model(nx=9, ny=9, bc={"left": data, "right": "clamped",
                                           "bottom": data, "top": data})
        dt = stable_dt(model)

        def imbalance(run_dt, every):
            traj = simulate(model, t_final=2000 * dt, dt=run_dt,
                            snapshot_every=every)
            e = traj.energy.as_arrays()
            assert e["total"][0] == 0.0 and np.max(e["total"]) > 1e-5
            return np.max(np.abs(e["total"] - e["external_work"]))

        assert imbalance(dt, 10) / imbalance(dt / 4, 40) > 10.0  # ~16
        with pytest.raises(InstabilityError, match="stability bound"):
            simulate(model, t_final=2000 * dt, dt=2.05 * dt, snapshot_every=10)

    def test_stable_dt_bitwise_equals_full_matrix_power_iteration(self):
        """Oracle: the power iteration on full-grid vectors and the
        unsplit interior rows of the assembled matrix."""
        model = make_model(nx=17, ny=17)
        w2 = []
        for d, seed in ((model.flex_d, 0), (model.ext_d, 1)):
            A_interior = d.A[d.interior_dofs]
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(d.interior_dofs.size)
            v /= np.linalg.norm(v)
            for _ in range(300):
                h = np.zeros(d.ndof)
                h[d.interior_dofs] = v
                w = -((A_interior @ h - np.zeros_like(v)) / d.mass_interior)
                lam = float(v @ w)
                v = w / np.linalg.norm(w)
            w2.append(abs(lam))
        assert stable_dt(model) == 0.9 * 2.0 / np.sqrt(max(w2))

    def test_blow_up_raises_within_guard_interval(self):
        model = make_model(nx=17, ny=17)
        dt = 1.2 * stable_dt(model)
        rng = np.random.default_rng(0)
        s0 = DiscreteState.zero(model)
        fv = s0.flex_vel.copy()
        fv[:, 1:-1, 1:-1] = rng.standard_normal((6, 15, 15))
        s0 = DiscreteState(flex=s0.flex, ext=s0.ext, flex_vel=fv,
                           ext_vel=s0.ext_vel)
        first_bad, s = None, s0
        with np.errstate(all="ignore"):
            for k in range(1, 5000):
                s = step(s, model, dt)
                if not all(np.all(np.isfinite(a)) for a in state_arrays(s)):
                    first_bad = k
                    break
        assert first_bad is not None
        n_steps = first_bad + 10 * GUARD_EVERY
        with pytest.raises(InstabilityError, match="stability bound") as exc:
            simulate(model, t_final=n_steps * dt, dt=dt, snapshot_every=0,
                     initial=s0)
        msg = str(exc.value)
        raised_at = int(re.search(r"at step (\d+) of", msg).group(1))
        assert raised_at <= first_bad + GUARD_EVERY, msg
        assert re.search(r"t=\S+ .*dt=\S+ vs stability bound", msg)


def per_node_traction_load_rows(d, tc, loads):
    """Oracle: the load part of the traction rows assembled node by node."""
    out = np.zeros((d.nf, d.trac_nodes.size))
    ti, tj = d._trac_ij
    for kk in range(ti.size):
        n = d.normal[ti[kk], tj[kk]]
        p, s0, t = (np.asarray(getattr(loads, k)).ravel()[kk]
                    for k in ("p", "sigma0", "t"))
        if d.nf == 6:
            c_p = tc.nu * tc.h**2 / (10.0 * (1.0 - tc.nu)) * p
            c_t = 0.5 * tc.kappa2_sq * tc.h * (1.0 - tc.Psi) * t
            lp = [n[0] * c_p, n[1] * c_p, 0.0, 0.0, n[0] * c_t, n[1] * c_t]
        else:
            c_s = tc.h * tc.nu / (1.0 - tc.nu) * s0
            lp = [n[0] * c_s, n[1] * c_s, 0.0]
        out[:, kk] = -np.asarray(lp)
    return out.ravel()


class TestTractionLoadPart:
    def test_bitwise_equal_to_per_node_loop(self):
        """Oracle: each load term's traction rows assembled node by node from
        its spatial field, then weighted by the envelope values or rates."""
        loads = LoadFunctions(
            p=ConstantLoad(-0.7),
            sigma0=SinusoidalLoad(0.4, omega=3.0),
            t=GaussianPulseLoad(0.3, center=(0.6, 0.4), width=0.2,
                                t0=0.1, tau=0.05),
        )
        model = make_model(nx=9, ny=9, loads=loads,
                           bc={"left": "clamped", "right": "traction",
                               "bottom": "traction", "top": "traction"})
        for d in (model.flex_d, model.ext_d):
            ti, tj = d._trac_ij
            x, y = d.X[ti, tj], d.Y[ti, tj]
            presets, _, T = d.load_terms
            rows = np.array([
                per_node_traction_load_rows(d, model.tc, LoadSet(**{
                    name: f.space(x, y) if f is preset else np.zeros_like(x)
                    for name, f in vars(loads).items()}))
                for preset in presets])
            assert T.tobytes() == rows.tobytes()
            for t in (0.0, 0.13):
                for part in (0, 1):
                    e = np.array([f.envelope(t)[part] for f in presets])
                    want = e @ rows
                    got = dynamics._envelope_sum(presets, T, t, part=part)
                    assert got.tobytes() == want.tobytes()


def sampled_load_rhs(d, loads, t):
    """Oracle: the loads sampled on the grid at t, their gradients taken
    with np.gradient and the load vector built on the interior nodes."""
    sampled = loads.sample(d.X, d.Y, t)
    grads = {name: np.gradient(np.asarray(value, dtype=float), d.dx, d.dy,
                               edge_order=2)
             for name, value in vars(sampled).items()}
    F = d.op.load_vector(sampled,
                         LoadSet(**{k: g[0] for k, g in grads.items()}),
                         LoadSet(**{k: g[1] for k, g in grads.items()}))
    return np.concatenate([np.ravel(f)[d.interior_nodes] for f in F])


class TestLoadTerms:
    """Each load is a spatial field times a time envelope, so its load
    vectors are built once per discretization and weighted by the envelope
    at every t."""

    @pytest.mark.parametrize("loads", [
        LoadFunctions(
            p=ConstantLoad(0.8),
            sigma0=SinusoidalLoad(0.4, kx=2, ky=1, omega=3.0),
            v=GaussianPulseLoad(0.5, center=(0.4, 0.6), width=0.2),
            t=GaussianPulseLoad(0.3, center=(0.6, 0.4), width=0.15,
                                t0=0.1, tau=0.05)),
        LoadFunctions(
            p=GaussianPulseLoad(-1.2, center=(0.55, 0.45), width=0.12,
                                t0=0.2, tau=0.1),
            sigma0=GaussianPulseLoad(0.6, center=(0.3, 0.5), width=0.25),
            v=ConstantLoad(-0.3),
            t=SinusoidalLoad(0.7, kx=1, ky=3, omega=5.0, lx=1.0, ly=0.8)),
    ], ids=["set-a", "set-b"])
    def test_term_sum_matches_sampled_load_vector(self, loads):
        model = make_model(nx=17, ny=13, b=0.8, loads=loads)
        for d in (model.flex_d, model.ext_d):
            for t in (0.0, 0.13, 0.4):
                want = sampled_load_rhs(d, loads, t)
                got = d.load_rhs(t)
                assert np.max(np.abs(got - want)) <= \
                    1e-14 * np.max(np.abs(want)), (d.name, t)

    def test_spatial_field_is_evaluated_once_per_subsystem(self, monkeypatch):
        calls = []
        space = GaussianPulseLoad.space

        def counted(self, x, y):
            calls.append(np.shape(x))
            return space(self, x, y)

        monkeypatch.setattr(GaussianPulseLoad, "space", counted)
        counts = []
        for n_steps in (10, 100):
            model = make_model(loads=LoadFunctions(p=GaussianPulseLoad(
                1.0, width=0.2, t0=0.1, tau=0.05)))
            calls.clear()
            dt = stable_dt(model)
            simulate(model, t_final=n_steps * dt, dt=dt, snapshot_every=5)
            counts.append(len(calls))
        assert counts == [2, 2]  # one per subsystem

    def test_a_load_acts_only_on_its_subsystem(self):
        model = make_model(loads=LoadFunctions(
            p=ConstantLoad(1.0), t=GaussianPulseLoad(0.3, tau=0.1)))
        presets, F, T = model.ext_d.load_terms
        assert presets == ()
        assert F.shape == (0, model.ext_d.interior_dofs.size)
        assert model.flex_d.load_terms[0] == (model.config.loads.p,
                                              model.config.loads.t)
        model = make_model(loads=LoadFunctions(
            sigma0=GaussianPulseLoad(1.0), v=SinusoidalLoad(0.2)))
        assert model.flex_d.load_terms[0] == ()
        assert len(model.ext_d.load_terms[0]) == 2
