import dataclasses
import re

import numpy as np
import pytest

from conftest import random_material
from cosserat_plate import oracles
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
        # the lifted boundary data does work that the energy log leaves
        # out, so the energy guard is off for this comparison
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
        loads = LoadFunctions(
            p=ConstantLoad(-0.7),
            sigma0=SinusoidalLoad(0.4, omega=3.0),
            t=GaussianPulseLoad(0.3, center=(0.6, 0.4), width=0.2,
                                t0=0.1, tau=0.05),
        )
        model = make_model(nx=9, ny=9, loads=loads,
                           bc={"left": "clamped", "right": "traction",
                               "bottom": "traction", "top": "traction"})
        for d, key in ((model.flex_d, "flex_data"), (model.ext_d, "ext_data")):
            ti, tj = d._trac_ij
            x, y = d.X[ti, tj], d.Y[ti, tj]
            for t in (0.0, 0.13):
                want = per_node_traction_load_rows(
                    d, model.tc, loads.sample(x, y, t))
                assert d.traction_rhs(loads, t, key).tobytes() == want.tobytes()
                want = per_node_traction_load_rows(
                    d, model.tc, loads.sample_rate(x, y, t))
                assert d.traction_rhs_rate(loads, t, key).tobytes() == \
                    want.tobytes()
