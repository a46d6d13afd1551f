import dataclasses
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

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
from cosserat_plate.plate_fields import (
    EXTENSIONAL_FIELDS,
    FLEXURAL_FIELDS,
    LoadSet,
)

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


def per_node_matrix(d):
    """Oracle: A assembled monomial by monomial on the interior and node by
    node, field pair by field pair, on the traction boundary."""
    nx, ny, nf, dx, dy = d.nx, d.ny, d.nf, d.dx, d.dy
    nn = nx * ny
    rows, cols, vals = [], [], []

    def d1(i, n, h):
        if i == 0:
            return ((0, -1.5 / h), (1, 2.0 / h), (2, -0.5 / h))
        if i == n - 1:
            return ((0, 1.5 / h), (-1, -2.0 / h), (-2, 0.5 / h))
        return ((-1, -0.5 / h), (1, 0.5 / h))

    node = d.interior_nodes
    ii, jj = np.divmod(node, ny)

    def add(r, c, di, dj, w):
        rows.append(r * nn + node)
        cols.append(c * nn + (ii + di) * ny + jj + dj)
        vals.append(np.full(node.size, w))

    for r in range(nf):
        for c in range(nf):
            c0, c1, c2, c3, c4, c5 = d.op.active_coeffs[r, c]
            if c0 != 0.0:
                add(r, c, 0, 0, c0)
            if c1 != 0.0:
                add(r, c, 1, 0, 0.5 * c1 / dx)
                add(r, c, -1, 0, -0.5 * c1 / dx)
            if c2 != 0.0:
                add(r, c, 0, 1, 0.5 * c2 / dy)
                add(r, c, 0, -1, -0.5 * c2 / dy)
            if c3 != 0.0:
                add(r, c, 1, 0, c3 / dx**2)
                add(r, c, 0, 0, -2.0 * c3 / dx**2)
                add(r, c, -1, 0, c3 / dx**2)
            if c4 != 0.0:
                w = 0.25 * c4 / (dx * dy)
                add(r, c, 1, 1, w)
                add(r, c, -1, -1, w)
                add(r, c, 1, -1, -w)
                add(r, c, -1, 1, -w)
            if c5 != 0.0:
                add(r, c, 0, 1, c5 / dy**2)
                add(r, c, 0, 0, -2.0 * c5 / dy**2)
                add(r, c, 0, -1, c5 / dy**2)
    for f in range(nf):
        rows.append(f * nn + d.dirich_nodes)
        cols.append(f * nn + d.dirich_nodes)
        vals.append(np.ones(d.dirich_nodes.size))
    for i, j in zip(*d._trac_ij):
        coeffs = np.einsum("rcab,a->rcb", d.tn, d.normal[i, j])
        sx, sy = d1(i, nx, dx), d1(j, ny, dy)
        for r in range(nf):
            for c in range(nf):
                c0, c1, c2 = coeffs[r, c, 0], coeffs[r, c, 1], coeffs[r, c, 2]
                terms = ([(0, 0, c0)] if c0 != 0.0 else []) + (
                    [(di, 0, c1 * w) for di, w in sx] if c1 != 0.0 else []) + (
                    [(0, dj, c2 * w) for dj, w in sy] if c2 != 0.0 else [])
                for di, dj, w in terms:
                    rows.append([r * nn + i * ny + j])
                    cols.append([c * nn + (i + di) * ny + j + dj])
                    vals.append([w])
    rows = np.concatenate([np.asarray(r, dtype=int) for r in rows])
    cols = np.concatenate([np.asarray(c, dtype=int) for c in cols])
    vals = np.concatenate([np.asarray(v, dtype=float) for v in vals])
    return sp.coo_matrix((vals, (rows, cols)), shape=(d.ndof, d.ndof)).tocsr()


BC_PATTERNS = {
    "clamped": dict(ALL_CLAMPED),
    "right-top-traction": {"left": "clamped", "right": "traction",
                           "bottom": "clamped", "top": "traction"},
    "cantilever": {"left": "clamped", "right": "traction",
                   "bottom": "traction", "top": "traction"},
    "all-traction": dict(ALL_TRACTION),
}


class TestStencilRows:
    """Interior, Dirichlet and traction rows come from one stencil table
    and one row builder; A stays bitwise the per-node assembly."""

    @pytest.mark.parametrize("nx, ny, b", [(9, 9, 1.0), (17, 17, 1.0),
                                           (9, 13, 0.7)],
                             ids=["9x9", "17x17", "9x13"])
    @pytest.mark.parametrize("pattern", list(BC_PATTERNS))
    def test_bitwise_equal_to_per_node_assembly(self, pattern, nx, ny, b):
        model = make_model(nx=nx, ny=ny, b=b, bc=BC_PATTERNS[pattern])
        for d in (model.flex_d, model.ext_d):
            want = per_node_matrix(d)
            for name in ("indptr", "indices", "data"):
                got, ref = getattr(d.A, name), getattr(want, name)
                assert got.dtype == ref.dtype, (d.name, name)
                assert got.tobytes() == ref.tobytes(), (d.name, name)

    def test_node_kinds_at_corners(self):
        """Displacement data wins a corner; two traction edges share it
        with the averaged normal and half the data weight each."""
        d = make_model(bc=BC_PATTERNS["cantilever"]).flex_d
        assert d.kind[0, 0] == d.kind[0, -1] == 1
        assert d.kind[-1, 0] == d.kind[-1, -1] == 2
        s = 1.0 / np.sqrt(2.0)
        assert np.array_equal(d.normal[-1, -1], [s, s])
        assert np.array_equal(d.normal[-1, 0], [s, -s])
        assert d.trac_weight[-1, -1] == 1.0 / np.sqrt(2.0)
        assert np.array_equal(d.normal[4, -1], [0.0, 1.0])
        assert d.trac_weight[4, -1] == 1.0


RIGHT_TRACTION = dict(ALL_CLAMPED, right="traction")
CANTILEVER = {"left": "clamped", "right": "traction",
              "bottom": "traction", "top": "traction"}


def omega_max_sq(model):
    """Oracle: omega_max^2, the largest |eigenvalue| of M^-1 L over both
    subsystems, L the condensed interior operator.  Without traction edges
    M^-1/2 (-A_II) M^-1/2 is symmetric and eigsh takes its largest
    eigenvalue; with them L u = A_II u - A_IT A_TT^-1 A_TI u is not, and
    ARPACK's eigs takes the largest |eigenvalue| through the traction
    solve, on an A_TT factored here from the rows of A."""
    w2 = []
    for d in (model.flex_d, model.ext_d):
        A_int = d.A[d.interior_dofs]
        A_II = A_int[:, d.interior_dofs]
        m = d.mass_interior
        if d.trac_dofs.size == 0:
            r = sp.diags(m ** -0.5)
            lam = spla.eigsh(-(r @ A_II @ r), k=1, which="LA",
                             return_eigenvectors=False)
        else:
            A_IT = A_int[:, d.trac_dofs]
            A_T = d.A[d.trac_dofs]
            A_TI = A_T[:, d.interior_dofs]
            lu = spla.splu(A_T[:, d.trac_dofs].tocsc())

            def matvec(u, A_II=A_II, A_IT=A_IT, A_TI=A_TI, lu=lu, m=m):
                u = np.ravel(u)
                return (A_II @ u - A_IT @ lu.solve(A_TI @ u)) / m

            op = spla.LinearOperator(A_II.shape, matvec=matvec)
            lam = spla.eigs(op, k=1, which="LM", return_eigenvectors=False)
        w2.append(float(np.max(np.abs(lam))))
    return max(w2)


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

    @pytest.mark.parametrize("n", [17, 33])
    @pytest.mark.parametrize("bc", [ALL_CLAMPED, RIGHT_TRACTION, CANTILEVER],
                             ids=["clamped", "right-traction", "cantilever"])
    def test_is_a_bound_on_the_exact_stability_limit(self, bc, n):
        """stable_dt <= 0.9 * 2/omega_max with omega_max from ARPACK.  The
        300-step power iteration it replaced gave 0.9009 * 2/omega_max at
        33^2 clamped.  On traction plates the row sums leave out the
        quasi-static boundary term, so there this pins an observation."""
        model = make_model(nx=n, ny=n, bc=dict(bc))
        assert stable_dt(model) <= 0.9 * 2.0 / np.sqrt(omega_max_sq(model))

    @pytest.mark.parametrize("bc", [ALL_CLAMPED, CANTILEVER],
                             ids=["clamped", "cantilever"])
    def test_bitwise_equals_per_subsystem_row_sums(self, bc):
        """Oracle: the Gershgorin row-sum bound of M^-1/2 A_II M^-1/2 of
        each subsystem, from the unstacked interior block of A."""
        model = make_model(nx=17, ny=17, bc=dict(bc))
        G = []
        for d in (model.flex_d, model.ext_d):
            A_II = d.A[d.interior_dofs][:, d.interior_dofs]
            r = d.mass_interior ** -0.5
            G.append(np.max((abs(A_II) @ r) * r))
        assert stable_dt(model) == 0.9 * 2.0 / np.sqrt(max(G))

    def test_logs_the_row_that_sets_the_bound(self, caplog):
        model = make_model(nx=17, ny=17, bc=dict(CANTILEVER))
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            dt = stable_dt(model)
            assert stable_dt(model) == dt  # cached: logged once
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("stable_dt:")]
        assert len(lines) == 1
        m = re.fullmatch(r"stable_dt: G=(\S+) from the (\w+) row of (\w+) "
                         r"at node \((\d+), (\d+)\), dt=(\S+)", lines[0])
        assert m, lines[0]
        G, name, field, i, j = (float(m[1]), m[2], m[3], int(m[4]),
                                int(m[5]))
        assert float(m[6]) == pytest.approx(dt, rel=1e-6)
        assert 0.9 * 2.0 / np.sqrt(G) == pytest.approx(dt, rel=1e-6)
        # the named row's scaled absolute sum is G
        d = {"flexural": model.flex_d, "extensional": model.ext_d}[name]
        names = FLEXURAL_FIELDS if d.nf == 6 else EXTENSIONAL_FIELDS
        dof = names.index(field) * d.nx * d.ny + i * d.ny + j
        k = int(np.flatnonzero(d.interior_dofs == dof)[0])
        r = d.mass_interior ** -0.5
        row = d.A[dof][:, d.interior_dofs].toarray().ravel()
        assert np.abs(row) @ r * r[k] == pytest.approx(G, rel=1e-6)


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


class TestStaticFactor:
    """The condensed, nested-dissection-ordered static factorization."""

    @pytest.mark.parametrize("nx,ny", [(17, 17), (13, 21), (21, 13)])
    @pytest.mark.parametrize("bc", [CLAMPED_WITH_DATA, RIGHT_TOP_TRACTION],
                             ids=["clamped-data", "right-top-traction"])
    def test_matches_full_matrix_spsolve(self, bc, nx, ny):
        model = make_model(nx=nx, ny=ny, bc=bc, loads=STATIC_LOADS)
        kin, _ = static_solve(model)
        for d, h in ((model.flex_d, kin.flexural()),
                     (model.ext_d, kin.extensional())):
            rhs = dynamics._static_rhs(d)
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

    def test_static_solve_factors_no_traction_block(self, monkeypatch):
        """A static cantilever solve factors A_FF once per subsystem and
        nothing else; assembly used to factor each traction block A_TT as
        well, which only the explicit kernel reads."""
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(dynamics.spla, "splu", counting_splu)
        static_solve(make_model(bc=CANTILEVER, loads=STATIC_LOADS))
        assert len(calls) == 2

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
        # the normwise backward error ||r|| / (||A_FF|| ||x|| + ||b||) in
        # the infinity norm, recomputed from the dense A_FF
        for d, ln in zip((model.flex_d, model.ext_d), solves):
            assert ln.startswith(d.name)
            logged = float(re.search(r", backward error (\S+)$", ln)[1])
            f = d.static_factor
            rhs = dynamics._static_rhs(d)
            x = f.solve(rhs)[f.free]
            b = rhs[f.free] - f.A_FD @ rhs[f.dirich]
            norm = np.max(np.sum(np.abs(f.A_FF.toarray()), axis=1))
            want = np.max(np.abs(b - f.A_FF @ x)) / (
                norm * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert logged == pytest.approx(want, rel=1e-2)
            assert logged < 1e-14


    @pytest.mark.parametrize("bc", [CANTILEVER, CLAMPED_WITH_DATA],
                             ids=["cantilever", "clamped-data"])
    def test_backward_error_in_diagnostics(self, bc, monkeypatch):
        """diag carries each subsystem's normwise backward error
        ||r|| / (||A_FF|| ||x|| + ||b||), infinity norms, of the refined
        solution; ||A_FF|| is taken once, when the factor is built."""
        model = make_model(nx=11, ny=11, bc=bc, loads=STATIC_LOADS)
        kin, diag = static_solve(model)
        # |A_FF| is not formed per solve
        monkeypatch.setattr(dynamics.static, "_abs_matvec", None)
        for d, h, name in ((model.flex_d, kin.flexural(), "flexural"),
                           (model.ext_d, kin.extensional(), "extensional")):
            f = d.static_factor
            rhs = dynamics._static_rhs(d)
            x = h.ravel()[f.free]
            b = rhs[f.free] - f.A_FD @ rhs[f.dirich]
            dense = f.A_FF.toarray()
            norm = np.max(np.sum(np.abs(dense), axis=1))
            assert f.norm == pytest.approx(norm, rel=1e-14)
            want = np.max(np.abs(b - f.A_FF @ x)) / (
                norm * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert diag[f"{name}_backward_error"] == pytest.approx(want,
                                                                   rel=1e-12)
            assert diag[f"{name}_backward_error"] < 1e-14
            # a repeat solve on the cached factor reports the same number
            assert static_solve(model)[1] == diag


class TestSimulate:
    def test_stack_is_built_before_stable_dt(self, monkeypatch):
        """stable_dt only reads the interior stack: the kernel builds it
        first, so stable_dt's time is the bound alone."""
        seen = []

        def checking_stable_dt(model):
            seen.append("interior_stack" in vars(model))
            return stable_dt(model)

        monkeypatch.setattr(dynamics.explicit, "stable_dt",
                            checking_stable_dt)
        model = make_model()
        traj = simulate(model, t_final=10 * stable_dt(make_model()))
        assert seen == [True] and traj.n_steps == 10

    def test_singular_traction_block_raises_at_first_explicit_use(
            self, monkeypatch):
        """The traction block A_TT is factored when the kernel first needs
        it, no longer at assembly; a failed factorization still names the
        subsystem."""
        def failing_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(dynamics.spla, "splu", failing_splu)
        model = make_model(bc=CANTILEVER)
        with pytest.raises(SingularSystemError,
                           match="flexural traction boundary block is "
                                 "singular: Factor is exactly singular"):
            simulate(model, t_final=1.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_dt(self, dt):
        """dt = -0.1 used to run one step of dt = 1.0 and only warn."""
        with pytest.raises(ConfigError, match="dt must be"):
            simulate(make_model(), t_final=1.0, dt=dt)

    @pytest.mark.parametrize("t_final", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_t_final(self, t_final):
        """t_final = inf used to end in an OverflowError."""
        with pytest.raises(ConfigError, match="t_final must be"):
            simulate(make_model(), t_final=t_final)

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

    def test_instability_names_subsystem_field_and_node(self):
        """The message names the interior dof with the largest energy
        density at the failing check, here recomputed from the ``step()``
        loop's state at that step."""
        model = make_model(nx=17, ny=17)
        dt = 1.5 * stable_dt(model)
        s = kicked_state(model)
        with pytest.raises(InstabilityError) as exc:
            simulate(model, t_final=512 * dt, dt=dt, initial=s)
        msg = str(exc.value)
        m = re.search(r"at step (\d+) of 512, .* largest energy density in "
                      r"the (flexural|extensional) field (\w+) at node "
                      r"\((\d+), (\d+)\)$", msg)
        assert m, msg
        for _ in range(int(m[1])):
            s = step(s, model, dt)
        density, where = [], []
        for d, h, v in ((model.flex_d, s.flex, s.flex_vel),
                        (model.ext_d, s.ext, s.ext_vel)):
            h, v = h.ravel(), v.ravel()
            u, w = h[d.interior_dofs], v[d.interior_dofs]
            Lh = d.A[d.interior_dofs] @ h
            density.append(w * (d.mass_interior * w) - u * Lh)
            names = FLEXURAL_FIELDS if d.nf == 6 else EXTENSIONAL_FIELDS
            f, node = np.divmod(d.interior_dofs, d.nx * d.ny)
            where += [(d.name, names[fk], str(nk // d.ny), str(nk % d.ny))
                      for fk, nk in zip(f, node)]
        hottest = int(np.argmax(np.abs(np.concatenate(density))))
        assert where[hottest] == m.groups()[1:], msg

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

    def test_mixed_loads_and_a_one_sided_lift(self):
        """``p`` loads only the flexural subsystem and ``sigma0`` only the
        extensional one, whose edge data alone gives a Dirichlet lift, so
        each slice of the stacked kernel has its own preset list and lift.
        ``simulate`` equals the ``step()`` loop bitwise, and its energy log
        equals a per-subsystem recomputation from the step-loop states."""
        def ext_data(x, y):
            return np.stack([0.01 + 0 * x, 0.02 + 0 * x, 0 * x])

        loads = LoadFunctions(
            p=GaussianPulseLoad(1.0, center=(0.4, 0.6), width=0.1, t0=0.05,
                                tau=0.02),
            sigma0=SinusoidalLoad(0.5, kx=1, ky=2, omega=3.0))
        bc = dict(ALL_CLAMPED, left=EdgeBC(kind="clamped", ext_data=ext_data))
        model = make_model(nx=17, ny=17, loads=loads, bc=bc)
        assert model.flex_d.load_terms[0] == (loads.p,)
        assert model.ext_d.load_terms[0] == (loads.sigma0,)
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

        # per subsystem: the interior rows of A, the lift A_ID g and the
        # energies and midpoint load work recomputed from grid states
        subs = [(d, d.A[d.interior_dofs],
                 d.dirichlet_values().reshape(d.nf, -1))
                for d in (model.flex_d, model.ext_d)]
        dA = model.cell_area

        def grid(s):
            return ((s.flex, s.flex_vel), (s.ext, s.ext_vel))

        def lift(d, A_int, g):
            h = np.zeros((d.nf, d.nx * d.ny))
            h[:, d.dirich_nodes] = g
            return A_int @ h.ravel()

        assert not np.any(lift(*subs[0])) and np.any(lift(*subs[1]))

        def energies(s):
            ke = ue = 0.0
            for (d, A_int, g), (h, v) in zip(subs, grid(s)):
                u = h.ravel()[d.interior_dofs]
                w = v.ravel()[d.interior_dofs]
                ke += 0.5 * float(w @ (d.mass_interior * w)) * dA
                Lh = A_int @ h.ravel() - lift(d, A_int, g)
                ue += -0.5 * float(u @ Lh) * dA
            return ke, ue

        s, work, log = s0, 0.0, [(0.0, *energies(s0))]
        for k in range(1, traj.n_steps + 1):
            s1 = step(s, model, traj.dt)
            t_mid = s.time + 0.5 * traj.dt
            for (d, A_int, g), (_, v0), (_, v1) in zip(subs, grid(s),
                                                       grid(s1)):
                force = lift(d, A_int, g) - d.load_rhs(t_mid)
                w_mid = 0.5 * (v0.ravel() + v1.ravel())[d.interior_dofs]
                work += traj.dt * float(force @ w_mid) * dA
            s = s1
            if k % 10 == 0:
                log.append((work, *energies(s)))
        e = traj.energy.as_arrays()
        want = np.array(log)
        np.testing.assert_allclose(e["external_work"], want[:, 0], rtol=1e-12)
        for col, name in ((1, "kinetic"), (2, "strain")):
            scale = np.max(np.abs(want[:, col]))
            np.testing.assert_allclose(e[name], want[:, col], rtol=1e-9,
                                       atol=1e-12 * scale)
        # and the energy gained is the work done, to O(dt^2)
        gain = e["total"] - e["total"][0]
        assert (np.max(np.abs(gain - e["external_work"]))
                < 0.05 * np.max(np.abs(e["external_work"])))

    def test_simulate_logs_one_debug_line(self, caplog):
        """Energy checks at the snapshots (steps 40, 80, 120) and at the
        guard steps 50 and 100; one matvec per step plus the start."""
        model = make_model(nx=9, ny=9)
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger="cosserat_plate.dynamics"):
            simulate(model, t_final=120 * dt, dt=dt, snapshot_every=40,
                     initial=kicked_state(model))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("simulate:")]
        assert lines == [
            f"simulate: 120 steps, 121 matvecs, 5 guard checks, 3 snapshots, "
            f"dt={dt:.6e}, stability bound={dt:.6e}"]

    def test_blow_up_raises_within_guard_interval(self):
        """At 1.2 times the exact limit 2/omega_max (the certified
        stable_dt lies below it, so 1.2 * stable_dt may stay stable)."""
        model = make_model(nx=17, ny=17)
        dt = 1.2 * 2.0 / np.sqrt(omega_max_sq(model))
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


def pulse_loads():
    return LoadFunctions(p=GaussianPulseLoad(1.0, center=(0.45, 0.55),
                                             width=0.1, t0=0.05, tau=0.02))


def with_fields(s, **arrays):
    return dataclasses.replace(s, **arrays)


def kernel_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("kernel:")]


class TestAtRest:
    """A subsystem at rest on the whole grid that nothing drives stays
    exactly +0, so the kernel steps only the live part of the stack."""

    def test_flexural_run_does_not_see_an_extensional_kick(self):
        """The blocks do not couple: with the extensional part at rest, the
        flexural states and the load work are bitwise those of the same
        run with the extensional part kicked (and stepped)."""
        model = make_model(nx=17, ny=17, loads=pulse_loads())
        dt = stable_dt(model)
        rest = DiscreteState.zero(model)
        ev = rest.ext_vel.copy()
        ev[0, 1:-1, 1:-1] = 1e-3 * kicked_state(model).flex_vel[2, 1:-1, 1:-1]
        kicked = with_fields(rest, ext_vel=ev)
        runs = [simulate(model, t_final=60 * dt, dt=dt, snapshot_every=15,
                         initial=s) for s in (rest, kicked)]
        assert np.any(runs[1].states[-1].ext) and \
            not np.any(runs[0].states[-1].ext)
        for a, b in zip(runs[0].states, runs[1].states):
            assert a.flex.tobytes() == b.flex.tobytes()
            assert a.flex_vel.tobytes() == b.flex_vel.tobytes()
        e0, e1 = (r.energy.as_arrays() for r in runs)
        assert e0["external_work"].tobytes() == e1["external_work"].tobytes()
        # the at-rest run's energy is the kicked run's flexural energy
        stack = model.interior_stack
        f = stack.parts[0]
        for k, s in enumerate(runs[1].states):
            w = s.flex_vel.ravel()[f.d.interior_dofs]
            ke = 0.0 + 0.5 * float(w @ (stack.mass[f.s] * w)) * \
                model.cell_area
            assert e0["kinetic"][k] == ke

    def test_at_rest_part_stays_positive_zero(self):
        """No sign bit survives in the at-rest part, neither through
        ``simulate`` nor through ``step()``, even from a -0 start, which a
        stepped part turns into +0 at its first step."""
        model = make_model(nx=17, ny=17, loads=pulse_loads())
        dt = stable_dt(model)
        s0 = DiscreteState.zero(model)
        s0 = with_fields(s0, ext=np.full_like(s0.ext, -0.0),
                         ext_vel=np.full_like(s0.ext_vel, -0.0))
        traj = simulate(model, t_final=30 * dt, dt=dt, snapshot_every=10,
                        initial=s0)
        stepped = step_loop(model, s0, dt, 30, 10)
        for s in traj.states[1:] + stepped[1:]:
            assert np.any(s.flex)
            for x in (s.ext, s.ext_vel):
                assert not np.any(x) and not np.any(np.signbit(x))

    @pytest.mark.parametrize("case,live", [
        ("nothing", ()),
        ("load", ("extensional",)),
        ("lift", ("extensional",)),
        ("traction", ("flexural", "extensional")),
        ("initial", ("flexural",)),
    ])
    def test_what_makes_a_part_live(self, case, live, caplog):
        """A load, a Dirichlet lift, a traction edge or a nonzero initial
        state each makes its part live; the kernel's DEBUG line names what
        it steps, and a live part moves while an at-rest one stays 0."""
        def ext_data(x, y):
            return np.stack([0.01 + 0 * x, 0 * x, 0 * x])

        kwargs = {
            "load": dict(loads=LoadFunctions(
                sigma0=SinusoidalLoad(0.5, kx=1, ky=2, omega=3.0))),
            "lift": dict(bc=dict(ALL_CLAMPED, left=EdgeBC(
                kind="clamped", ext_data=ext_data))),
            "traction": dict(bc=dict(ALL_CLAMPED, right="traction")),
        }.get(case, {})
        model = make_model(nx=9, ny=9, **kwargs)
        s0 = DiscreteState.zero(model)
        if case == "initial":
            s0 = with_fields(s0, flex_vel=kicked_state(model).flex_vel)
        if case == "nothing":  # a signed zero is no motion
            s0 = with_fields(s0, flex=np.full_like(s0.flex, -0.0))
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            s = step_loop(model, s0, dt, 5, 5)[-1]
        n = {p.d.name: p.s.stop - p.s.start
             for p in model.interior_stack.parts}
        rest = [name for name in n if name not in live]
        want = (f"kernel: stepping {', '.join(live) or 'nothing'} "
                f"({sum(n[name] for name in live)} of {sum(n.values())} "
                f"interior dofs)"
                + (f"; {', '.join(rest)} at rest" if rest else ""))
        assert kernel_lines(caplog) == [want] * 5
        moved = {"flexural": s.flex_vel, "extensional": s.ext_vel}
        for name in n:
            if name in live and case != "traction":
                assert np.any(moved[name]), name
            elif name not in live:
                assert not np.any(moved[name]) and \
                    not np.any(np.signbit(moved[name])), name

    def test_simulate_logs_what_it_steps(self, caplog):
        """One line per run, beside the ``simulate:`` line."""
        model = make_model(nx=17, ny=17, loads=pulse_loads())
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            simulate(model, t_final=20 * dt, dt=dt)
        assert kernel_lines(caplog) == [
            "kernel: stepping flexural (1350 of 2025 interior dofs); "
            "extensional at rest"]


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

    def test_one_preset_sum_is_bitwise_the_matmul(self):
        """A one-preset envelope sum scales the preset's row instead of a
        1 x n matmul; the interior rows F hold -0 entries, and a negative
        envelope value or rate turns +0 entries into -0 products, which the
        matmul's zero-started sum and the scaled row's + 0.0 both make +0.
        Each preset alone and all together, on F and T of both
        subsystems, at envelope values and rates of both signs."""
        loads = LoadFunctions(
            p=SinusoidalLoad(-0.7, kx=2, ky=1, omega=3.0),
            sigma0=SinusoidalLoad(0.4, omega=3.0),
            t=GaussianPulseLoad(0.3, center=(0.6, 0.4), width=0.2,
                                t0=0.1, tau=0.05))
        model = make_model(nx=9, ny=9, loads=loads,
                           bc={"left": "clamped", "right": "traction",
                               "bottom": "traction", "top": "traction"})
        negative_zeros = 0
        for d in (model.flex_d, model.ext_d):
            presets, F, T = d.load_terms
            negative_zeros += np.count_nonzero((F == 0.0) & np.signbit(F))
            for rows in (F, T):
                groups = [presets[k:k + 1] for k in range(len(presets))]
                for k, group in enumerate(groups + [presets]):
                    block = rows[k:k + 1] if k < len(groups) else rows
                    for t in (0.0, 0.13, 1.0):
                        for part in (0, 1):
                            e = np.array([f.envelope(t)[part] for f in group])
                            want = e @ block
                            got = dynamics._envelope_sum(group, block, t,
                                                         part=part)
                            assert got.tobytes() == want.tobytes()
        assert negative_zeros > 0


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


# The names perfbench's tracer wraps, by the module that defines them.
TRACED = {"assemble": "discretization", "static_solve": "static",
          "stable_dt": "explicit", "simulate": "explicit", "step": "explicit"}


@pytest.mark.parametrize("first", ["discretization", "static", "explicit"])
def test_package_imports_from_any_module_and_reexports_the_traced_names(
        first):
    """Each module of the package imports first in a fresh interpreter (no
    import cycle), and ``dynamics.<f>`` is the very function its home
    module defines (no copy), so one traced wrapper serves every caller."""
    code = f"""
import importlib
importlib.import_module("cosserat_plate.dynamics.{first}")
from cosserat_plate import dynamics
for name, home in {TRACED!r}.items():
    module = importlib.import_module("cosserat_plate.dynamics." + home)
    f = getattr(module, name)
    assert getattr(dynamics, name) is f, name
    assert f.__module__ == module.__name__, name
"""
    src = str(Path(dynamics.__file__).parents[2])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
