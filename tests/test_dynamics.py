import ast
import dataclasses
import logging
import re
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import (SRC, admissible_materials, count_static_factors,
                      random_material, run_fresh)
from hypothesis import given, settings
import scipy.sparse.linalg as spla

from cosserat_plate import _blas, dynamics, oracles
from cosserat_plate.dynamics import (
    EDGE_TABLE,
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
    """Oracle: the interior rows of A assembled monomial by monomial and
    the Dirichlet rows node by node; the traction rows are left empty."""
    nx, ny, nf, dx, dy = d.nx, d.ny, d.nf, d.dx, d.dy
    nn = nx * ny
    rows, cols, vals = [], [], []
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
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(d.ndof, d.ndof)).tocsr()


def energy_hessian(d):
    """Oracle: -K / (dx dy), K the Hessian of the staggered discrete energy
    E_h on the whole grid, assembled from Kronecker products of 1D
    difference and mean operators with the blocks of the energy form Q."""
    def line(n, h):
        diff = sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n)) / h
        mean = sp.diags([0.5, 0.5], [0, 1], shape=(n - 1, n))
        w = np.ones(n)
        w[[0, -1]] = 0.5  # a boundary line's share of its dual cells
        return diff, mean, sp.identity(n), w

    Dx, Mx, Ix, wx = line(d.nx, d.dx)
    Dy, My, Iy, wy = line(d.ny, d.dy)
    X, Xbar, Wx = sp.kron(Dx, Iy), sp.kron(Mx, Iy), np.tile(wy, d.nx - 1)
    Y, Ybar, Wy = sp.kron(Ix, Dy), sp.kron(Ix, My), np.repeat(wx, d.ny - 1)
    Xc, Yc = sp.kron(Dx, My), sp.kron(Mx, Dy)
    Q = d.Q
    QVV, QXV, QYV = Q[0, :, 0], Q[1, :, 0], Q[2, :, 0]
    QXX, QYY, QXY = Q[1, :, 1], Q[2, :, 2], Q[1, :, 2]

    def form(G, w, H):
        return G.T @ sp.diags(w) @ H

    K = (sp.kron(QVV, sp.diags(np.outer(wx, wy).ravel()))
         + sp.kron(QXX, form(X, Wx, X)) + sp.kron(QXV, form(X, Wx, Xbar))
         + sp.kron(QXV.T, form(Xbar, Wx, X))
         + sp.kron(QYY, form(Y, Wy, Y)) + sp.kron(QYV, form(Y, Wy, Ybar))
         + sp.kron(QYV.T, form(Ybar, Wy, Y))
         + sp.kron(QXY, Xc.T @ Yc) + sp.kron(QXY.T, Yc.T @ Xc))
    return -K.tocsr()


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
    and one row builder; the interior and Dirichlet rows stay bitwise the
    per-node assembly, and every free row is the Hessian of E_h."""

    @pytest.mark.parametrize("nx, ny, b", [(9, 9, 1.0), (17, 17, 1.0),
                                           (9, 13, 0.7)],
                             ids=["9x9", "17x17", "9x13"])
    @pytest.mark.parametrize("pattern", list(BC_PATTERNS))
    def test_bitwise_equal_to_per_node_assembly(self, pattern, nx, ny, b):
        """The traction rows are read off E_h's Hessian once per node class,
        so they match the whole-grid Hessian to roundoff, not bit for bit;
        the interior rows keep their own table and match it to 2e-16."""
        model = make_model(nx=nx, ny=ny, b=b, bc=BC_PATTERNS[pattern])
        for d in (model.flex_d, model.ext_d):
            want = per_node_matrix(d)
            rest = np.setdiff1d(np.arange(d.ndof), d.trac_dofs)
            for name in ("indptr", "indices", "data"):
                got, ref = (getattr(A[rest], name) for A in (d.A, want))
                assert got.dtype == ref.dtype, (d.name, name)
                assert got.tobytes() == ref.tobytes(), (d.name, name)
            H = energy_hessian(d)[d.free_dofs]
            A = d.A[d.free_dofs]
            scale = np.max(np.abs(H.data))
            assert np.max(np.abs((A - H).data)) <= 2e-16 * scale, d.name

    @pytest.mark.parametrize("literal", [False, True],
                             ids=["derived", "paper-literal"])
    @pytest.mark.parametrize("pattern", list(BC_PATTERNS))
    def test_csr_is_bitwise_the_coo_conversion(self, pattern, literal):
        """A is emitted in canonical CSR form straight from the stencil
        tables; its arrays are bitwise SciPy's COO to CSR conversion of the
        same triplets, each row's entries in the order the tables list
        them."""
        model = assemble(ModelConfig(
            material=micropolar_material(), h=0.1, a=1.0, b=0.7, nx=17,
            ny=13, bc=dict(BC_PATTERNS[pattern]), paper_literal=literal))
        for d in (model.flex_d, model.ext_d):
            nn = d.nx * d.ny
            rows, cols, vals = [], [], []
            for nodes, W, di, dj in d._stencil_tables():
                r, c, s = np.nonzero(W)
                rows.append(r[:, None] * nn + nodes)
                cols.append(c[:, None] * nn + (di[s] * d.ny + dj[s])[:, None]
                            + nodes)
                vals.append(np.repeat(W[r, c, s][:, None], nodes.size, 1))
            v, r, c = (np.concatenate([a.ravel() for a in x])
                       for x in (vals, rows, cols))
            ref = sp.coo_matrix((v, (r, c)), shape=(d.ndof, d.ndof)).tocsr()
            for name in ("indptr", "indices", "data"):
                got, want = getattr(d.A, name), getattr(ref, name)
                assert got.dtype == want.dtype, (d.name, name)
                assert got.tobytes() == want.tobytes(), (d.name, name)

    def test_node_kinds_at_corners(self):
        """Displacement data wins a corner; a traction-traction corner has
        a quarter of a dual cell and takes half of each of its two edges'
        data, over the spacing across that edge."""
        bc = dict(BC_PATTERNS["cantilever"],
                  right=EdgeBC("traction", flex_data=lambda x, y: np.ones(
                      (6, np.size(x)))),
                  top=EdgeBC("traction", flex_data=lambda x, y: np.full(
                      (6, np.size(x)), 10.0)))
        d = make_model(nx=9, ny=13, b=0.7, bc=bc).flex_d
        assert d.kind[0, 0] == d.kind[0, -1] == 1
        assert d.kind[-1, 0] == d.kind[-1, -1] == 2
        assert d.weight[-1, -1] == 0.25 and d.weight[4, -1] == 0.5
        force = np.zeros((6, d.nx, d.ny))
        force.reshape(6, -1)[:, d.trac_nodes] = d.traction_force().reshape(
            6, -1)
        assert np.all(force[:, -1, -1] == 0.5 / d.dx + 0.5 * 10.0 / d.dy)
        assert np.all(force[:, -1, 0] == 0.5 / d.dx)  # bottom: no data
        assert np.all(force[:, 4, -1] == 10.0 / d.dy)
        assert np.all(force[:, -1, 6] == 1.0 / d.dx)


RIGHT_TRACTION = dict(ALL_CLAMPED, right="traction")
CANTILEVER = {"left": "clamped", "right": "traction",
              "bottom": "traction", "top": "traction"}


def omega_max_sq(model):
    """Oracle: omega_max^2, the largest eigenvalue of M^-1 K over both
    subsystems, K = -A_FF the free block of A and M the lumped masses,
    taken by eigsh on the symmetric M^-1/2 K M^-1/2."""
    w2 = []
    for d in (model.flex_d, model.ext_d):
        r = sp.diags(d.free_block.mass ** -0.5)
        K = -d.A[d.free_dofs][:, d.free_dofs]
        lam = spla.eigsh(r @ K @ r, k=1, which="LA",
                         return_eigenvectors=False)
        w2.append(float(lam[0]))
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
        33^2 clamped."""
        model = make_model(nx=n, ny=n, bc=dict(bc))
        assert stable_dt(model) <= 0.9 * 2.0 / np.sqrt(omega_max_sq(model))

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None)
    @given(admissible_materials())
    def test_every_plate_is_symmetric_and_bounded(self, material):
        """On every edge pattern A_FF is symmetric to roundoff, so the
        squared frequencies are real, and the Gershgorin stable_dt is at
        most 0.9 * 2/omega_max."""
        for pattern, bc in BC_PATTERNS.items():
            model = make_model(nx=13, ny=11, b=0.8, bc=dict(bc),
                               material=material)
            for d in (model.flex_d, model.ext_d):
                A = d.A[d.free_dofs][:, d.free_dofs]
                assert abs(A - A.T).max() <= 1e-15 * abs(A).max(), \
                    (pattern, d.name)
            assert stable_dt(model) <= \
                0.9 * 2.0 / np.sqrt(omega_max_sq(model)), pattern

    @pytest.mark.parametrize("bc", [ALL_CLAMPED, CANTILEVER],
                             ids=["clamped", "cantilever"])
    def test_bitwise_equals_per_subsystem_row_sums(self, bc):
        """Oracle: the Gershgorin row-sum bound of M^-1/2 A_FF M^-1/2 of
        each subsystem, from the unstacked free block of A."""
        model = make_model(nx=17, ny=17, bc=dict(bc))
        G = []
        for d in (model.flex_d, model.ext_d):
            A_FF = d.A[d.free_dofs][:, d.free_dofs]
            r = d.free_block.mass ** -0.5
            G.append(np.max((abs(A_FF) @ r) * r))
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
        k = int(np.flatnonzero(d.free_dofs == dof)[0])
        r = d.free_block.mass ** -0.5
        row = d.A[dof][:, d.free_dofs].toarray().ravel()
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
    def test_linear_patch_exact(self):
        """Degree <= 1 manufactured fields are reproduced exactly: the
        interior rows are exact for quadratics and the energy rows of the
        traction nodes, a first-order SBP boundary closure, for linear
        fields, so only rounding remains."""
        assert solve_mixed_bc_manufactured(nx=9, degree=1) < 1e-12

    def test_traction_rows_converge_at_stencil_order(self):
        """Degree-3 manufactured fields with traction edges: the first-order
        boundary closure of a second-order interior converges at second
        order (the rate approaches 2 from below under refinement)."""
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
        flex_data, ext_data = oracles.manufactured_boundary_data(polys)
        bc = {e: EdgeBC(kind="clamped", flex_data=flex_data,
                        ext_data=ext_data)
              for e in ("left", "right", "bottom", "top")}
        errs = []
        for n in (9, 17, 33):
            model = make_model(nx=n, ny=n, bc=bc)
            (f_flex, f_ext, _, _,
             exact_flex, exact_ext) = oracles.manufactured_static_problem(
                model, polys)
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


def literal_model(bc, n=13, material=None):
    """A plate on the literal coefficient tables, whose A_FF is the only
    nonsymmetric static system."""
    return assemble(ModelConfig(
        material=material or micropolar_material(), h=0.1, a=1.0, b=1.0,
        nx=n, ny=n, bc=bc or dict(ALL_CLAMPED), loads=STATIC_LOADS,
        paper_literal=True))


def band_width(A) -> int:
    """The half-bandwidth of a square sparse matrix: its largest i - j."""
    A = A.tocoo()
    return int(np.max(A.row - A.col))


def mirror_image(free, d, mirror) -> tuple:
    """The position of each free dof's mirror image among the free dofs
    ``free`` and the signs of the fields, for the mirror ``mirror``: "j" is
    j -> ny - 1 - j, "i" is i -> nx - 1 - i.  None where a free node's
    image is a Dirichlet node."""
    nn = d.nx * d.ny
    field, node = np.divmod(free, nn)
    i, j = np.divmod(node, d.ny)
    if mirror == "j":
        image = field * nn + i * d.ny + (d.ny - 1 - j)
        signs = {"flexural": (1, -1, 1, -1, -1, 1), "extensional": (1, -1, -1)}
    else:
        image = field * nn + (d.nx - 1 - i) * d.ny + j
        signs = {"flexural": (-1, 1, 1, -1, 1, -1), "extensional": (-1, 1, -1)}
    where = np.full(d.ndof, -1)
    where[free] = np.arange(free.size)
    if np.any(where[image] < 0):
        return None
    return where[image], np.asarray(signs[d.name], dtype=float)[field]


def index_formula_band(A) -> np.ndarray:
    """-A's lower band by the direct scatter of -A[i, j] to flat element
    i - j + (kd + 1) j of a Fortran-order (kd + 1) x n array."""
    A, n = A.tocsr(), A.shape[0]
    off = np.repeat(np.arange(n), np.diff(A.indptr)) - A.indices
    kd = int(off.max())
    lower = off >= 0
    band = np.zeros((kd + 1, n), order="F")
    band.ravel(order="F")[(kd + 1) * A.indices[lower].astype(np.intp)
                          + off[lower]] = -A.data[lower]
    return band


def line_block(f) -> tuple:
    """The static factor's free dofs, and its subsystem's free blocks A_FF
    and A_FD, in the factor's dof order ``f.order``: node by node, line by
    line."""
    o = f.order
    return f.free[o], f.block.A_FF[o][:, o], f.block.A_FD[o]


def whole_band_solve(f, rhs) -> np.ndarray:
    """The free-dof solution, in the factor's dof order, by one band
    Cholesky of the whole -A_FF in that order and one refinement step: the
    static solve without the mirror split."""
    free, A_FF, A_FD = line_block(f)
    with _blas._one_blas_thread():
        cho = sla.cholesky_banded(index_formula_band(A_FF), lower=True,
                                  check_finite=False)
    b = rhs[free] - A_FD @ rhs[f.dirich]
    x = sla.cho_solve_banded((cho, True), -b, check_finite=False)
    x += sla.cho_solve_banded((cho, True), -(b - A_FF @ x),
                              check_finite=False)
    return x


@pytest.mark.parametrize("nx,ny,bc", [
    (17, 17, None), (17, 13, CANTILEVER), (13, 17, CANTILEVER),
    (13, 13, RIGHT_TOP_TRACTION),
    (16, 16, dict(ALL_CLAMPED, right="traction"))],
    ids=["clamped-17", "cantilever-17x13", "cantilever-13x17",
         "right-top-traction", "right-traction-16"])
def test_free_block_is_the_free_slice_of_A(nx, ny, bc):
    """Each subsystem's free block, built once, is bit for bit the slice
    of A to the free rows and columns, each row's entries in their order in
    A (indptr, indices and data), and of the free rows to the Dirichlet
    columns; its mass is the lumped free mass."""
    model = make_model(nx=nx, ny=ny, bc=bc)
    for d in (model.flex_d, model.ext_d):
        block = d.free_block
        assert d.free_block is block
        # each node's mass weighted by its dual-cell fraction
        assert np.array_equal(block.mass, np.concatenate([
            m * d.weight.ravel()[d.free_nodes] for m in d.op.mass]))
        rows = d.A[d.free_dofs]
        for got, want in ((block.A_FF, rows[:, d.free_dofs]),
                          (block.A_FD, rows[:, d.dirich_dofs])):
            assert got.shape == want.shape, d.name
            assert np.array_equal(got.indptr, want.indptr), d.name
            assert np.array_equal(got.indices, want.indices), d.name
            assert np.array_equal(bits(got.data), bits(want.data)), d.name


class TestStaticFactor:
    """The condensed static factorization: band Cholesky of a symmetric
    system, split into its mirror classes where the mirror commutes with
    it, nested-dissection SuperLU of any other."""

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

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None)
    @given(admissible_materials())
    def test_symmetric_system_takes_the_band_factor(self, material):
        """On a clamped plate and on a cantilever A_FF is symmetric: each
        mirror class of -A_FF is factored in band storage on the half
        grid, with lines along the shorter side.  For L free nodes a line
        the whole band's half-bandwidth is at most nf (L + 1) + 1 (along
        the longer side it would be at least (max(nx, ny) - 1) nf) and
        each class's at most nf (ceil(L / 2) + 1) + 1; the solution keeps
        the full-matrix accuracy."""
        for nx, ny, bc in ((17, 17, CLAMPED_WITH_DATA),
                           (13, 21, CLAMPED_WITH_DATA),
                           (21, 13, CLAMPED_WITH_DATA),
                           (16, 16, CLAMPED_WITH_DATA),
                           (17, 13, dict(CANTILEVER,
                                         left=CLAMPED_WITH_DATA["left"]))):
            model = make_model(nx=nx, ny=ny, bc=bc, material=material,
                               loads=STATIC_LOADS)
            with pytest.MonkeyPatch.context() as mp:
                factors = count_static_factors(mp, lambda d, f: f)
                kin, diag = static_solve(model)
            for d, h, f in zip((model.flex_d, model.ext_d),
                               (kin.flexural(), kin.extensional()), factors,
                               strict=True):
                assert f.name == d.name and f.lu is None
                assert [name for name, _, _ in f.classes] == ["even", "odd"]
                L = int(np.max(np.sum(d.kind != 1, axis=1 if ny <= nx else 0)))
                assert band_width(line_block(f)[1]) <= d.nf * (L + 1) + 1, \
                    d.name
                for _, _, cho in f.classes:
                    assert cho.flags.f_contiguous, d.name
                    assert cho.shape[0] - 1 <= d.nf * (-(-L // 2) + 1) + 1, \
                        d.name
                rhs = dynamics._static_rhs(d)
                ref = spla.spsolve(d.A.tocsc(), rhs)
                assert np.max(np.abs(h.ravel() - ref)) <= \
                    1e-9 * np.max(np.abs(ref)), d.name
                assert diag[f"{d.name}_backward_error"] < 1e-14

    @pytest.mark.parametrize("bc", [CANTILEVER, None],
                             ids=["cantilever", "paper-literal"])
    def test_nonsymmetric_system_takes_superlu(self, bc):
        """The literal coefficient tables make A_FF nonsymmetric, on a
        cantilever as on a clamped plate: SuperLU factors it."""
        model = literal_model(bc)
        for d in (model.flex_d, model.ext_d):
            f = dynamics._StaticFactor(d)
            assert f.classes == [] and f.lu is not None, d.name

    def test_cantilever_takes_the_band_factor(self):
        """The traction rows are the Hessian of the same energy as the
        interior rows, so A_FF is symmetric and -A_FF is factored in band
        storage, with the full-matrix accuracy."""
        model = make_model(nx=13, ny=11, b=0.8, bc=CANTILEVER,
                           loads=STATIC_LOADS)
        for d in (model.flex_d, model.ext_d):
            f = dynamics._StaticFactor(d)
            assert f.lu is None and len(f.classes) == 2, d.name
        kin, diag = static_solve(model)
        for d, h in ((model.flex_d, kin.flexural()),
                     (model.ext_d, kin.extensional())):
            ref = spla.spsolve(d.A.tocsc(), dynamics._static_rhs(d))
            assert np.max(np.abs(h.ravel() - ref)) <= \
                1e-9 * np.max(np.abs(ref)), d.name
            assert diag[f"{d.name}_backward_error"] < 1e-14

    @settings(max_examples=3, deadline=None, derandomize=True,
              database=None)
    @given(admissible_materials())
    def test_mirror_commutes_with_the_free_block(self, material):
        """The isotropic energy does not see the mirror M that reverses
        every line: with the fields' parity signs s, s_k A_FF[M k, M l] s_l
        = A_FF[k, l] bit for bit on every mirror-symmetric plate, with a
        mirror line of nodes (17 x 13, 13 x 17) or without one (16 x 16),
        for both subsystems; and the factor takes the split.  The 13 x 17
        cantilever's lines along its shorter side i run along its clamped
        edge, whose mirror i -> nx - 1 - i swaps it with a traction edge:
        its lines are taken along j, and it splits by j -> ny - 1 - j."""
        for nx, ny, bc, mirror in ((17, 13, ALL_CLAMPED, "j"),
                                   (13, 17, ALL_CLAMPED, "i"),
                                   (16, 16, ALL_CLAMPED, "j"),
                                   (17, 13, CANTILEVER, "j"),
                                   (13, 17, CANTILEVER, "j")):
            model = make_model(nx=nx, ny=ny, bc=bc, material=material)
            for d in (model.flex_d, model.ext_d):
                f = dynamics._StaticFactor(d)
                image, sign = mirror_image(f.free, d, mirror)
                A = f.block.A_FF.toarray()
                assert np.array_equal(
                    sign[:, None] * A[np.ix_(image, image)] * sign, A)
                assert f.mirror == "ij"[f.axis] == mirror, (nx, ny)
                assert [name for name, _, _ in f.classes] == ["even", "odd"]
                # node by node, line by line along the mirror's axis
                order = dynamics._line_order(nx, ny, f.axis)
                assert np.array_equal(f.free[f.order][::d.nf],
                                      order[d.kind.ravel()[order] != 1])

    def test_each_class_has_half_the_band(self):
        """On the 65^2 clamped plate the whole flexural band has
        half-bandwidth nf (L + 1) + 1 = 385 (L = 63), and each mirror
        class nf (32 + 1) - 2 = 196."""
        f = dynamics._StaticFactor(make_model(nx=65, ny=65).flex_d)
        assert band_width(line_block(f)[1]) == 385
        assert [cho.shape[0] - 1 for _, _, cho in f.classes] == [196, 196]

    @pytest.mark.parametrize("nx,ny,bc", [(13, 13, RIGHT_TOP_TRACTION),
                                          (13, 13, None)],
                             ids=["right-top-traction",
                                  "clamped-one-ulp-off"])
    def test_no_exact_mirror_keeps_the_whole_band(self, nx, ny, bc,
                                                  monkeypatch):
        """Without an exact mirror symmetry the whole band is the one
        class, and the solve is bit for bit one band Cholesky of the whole
        -A_FF in lines along the shorter side: each mirror swaps a clamped
        and a traction edge on the right+top traction plate, and on a
        clamped plate one A_FF entry nudged by one ulp breaks both."""
        model = make_model(nx=nx, ny=ny, bc=bc, loads=STATIC_LOADS)
        if bc is None:
            for d in (model.flex_d, model.ext_d):
                # the first field at node (1, 1) against node (1, 2)
                A, row = d.A.copy(), d.ny + 1
                k = A.indptr[row] + np.flatnonzero(
                    A.indices[A.indptr[row]:A.indptr[row + 1]] == row + 1)[0]
                A.data[k] = np.nextafter(A.data[k], np.inf)
                monkeypatch.setattr(d, "A", A)
        for d in (model.flex_d, model.ext_d):
            f = dynamics._StaticFactor(d)
            assert f.mirror == "none" and f.axis == 1
            assert [(name, P) for name, P, _ in f.classes] == [("all", None)]
            rhs = dynamics._static_rhs(d)
            h, _ = f.solve(rhs)
            assert np.array_equal(h[f.free[f.order]].view(np.int64),
                                  whole_band_solve(f, rhs).view(np.int64))

    @pytest.mark.parametrize("nx,ny,bc,axis,mirror",
                             [(13, 17, ALL_CLAMPED, "i", "i"),
                              (13, 17, CANTILEVER, "j", "j"),
                              (13, 13, RIGHT_TOP_TRACTION, "j", "none")],
                             ids=["clamped-13x17", "cantilever-13x17",
                                  "right-top-traction"])
    def test_factor_line_names_the_mirror(self, caplog, monkeypatch, nx, ny,
                                          bc, axis, mirror):
        """The DEBUG factor line names the axis the lines run along, the
        mirror ("i", "j" or "none") and each class's dofs, half-bandwidth
        and band storage."""
        caplog.set_level(logging.DEBUG, logger=dynamics.__name__)
        factors = count_static_factors(monkeypatch, lambda d, f: f)
        model = make_model(nx=nx, ny=ny, bc=bc, loads=STATIC_LOADS)
        static_solve(model)
        lines = [r.getMessage() for r in caplog.records
                 if "static factor" in r.getMessage()]
        for d, f, ln in zip((model.flex_d, model.ext_d), factors, lines,
                            strict=True):
            head = re.fullmatch(rf"{d.name} static factor: (\d+) free dofs, "
                                rf"band Cholesky, lines along (\w), "
                                rf"mirror (\w+), (.*)", ln)
            assert int(head[1]) == f.free.size
            assert (head[2], head[3]) == (axis, mirror)
            classes = [re.fullmatch(r"(\w+) class (\d+) dofs, half-bandwidth "
                                    r"(\d+), band storage ([\d.]+) MiB", part)
                       for part in head[4].split("; ")]
            assert [(c[1], int(c[2]), int(c[3]), float(c[4]))
                    for c in classes] == [
                (name, cho.shape[1], cho.shape[0] - 1,
                 round(cho.nbytes / 2**20, 1)) for name, _, cho in f.classes]
            assert sum(int(c[2]) for c in classes) == f.free.size

    @pytest.mark.skipif(_blas._BLAS_THREADS is None,
                        reason="scipy.linalg does not call OpenBLAS")
    def test_band_factor_runs_on_one_blas_thread(self, monkeypatch):
        """The band Cholesky of each mirror class of the static factor and
        of the Mindlin oracle runs on one BLAS thread and the thread count
        is restored after it, also when the factor fails."""
        get, set_ = _blas._BLAS_THREADS
        seen = []

        def recording(name):
            call = getattr(sla, name)

            def record(*args, **kwargs):
                seen.append((name, get()))
                return call(*args, **kwargs)
            monkeypatch.setattr(sla, name, record)

        recording("cholesky_banded")
        recording("solveh_banded")
        before = get()
        set_(2)
        try:
            static_solve(make_model(nx=13, ny=13, loads=STATIC_LOADS))
            # two subsystems, two mirror classes each
            assert seen == [("cholesky_banded", 1)] * 4 and get() == 2
            model = make_model(nx=13, ny=13, loads=STATIC_LOADS)
            monkeypatch.setattr(model.flex_d, "A", -model.flex_d.A)
            with pytest.raises(SingularSystemError):
                static_solve(model)
            assert get() == 2
            seen.clear()
            oracles.mindlin_static_center_deflection(0.7, 0.3, 2.5, 1.0,
                                                     1.0, 1.0, 9, 9)
            assert seen == [("solveh_banded", 1)] and get() == 2
        finally:
            set_(before)

    def test_indefinite_symmetric_system_names_the_subsystem(
            self, monkeypatch):
        """A symmetric A_FF whose negative is not positive definite fails
        the band Cholesky as a singular system."""
        model = make_model(loads=STATIC_LOADS)
        monkeypatch.setattr(model.flex_d, "A", -model.flex_d.A)
        with pytest.raises(SingularSystemError,
                           match="flexural static factorization failed: "
                                 ".*not positive definite"):
            static_solve(model)

    @pytest.mark.parametrize("nx,ny", [(17, 17), (13, 21), (21, 13)])
    def test_lower_band_matches_the_index_formula(self, nx, ny):
        """The in-place band builder writes the same bits as the direct
        scatter of -A[i, j] to flat element i - j + (kd + 1) j, for A_FF
        in the factor's line order and for each mirror class's P^T A_FF
        P, whose columns are in line order."""
        model = make_model(nx=nx, ny=ny, bc=CLAMPED_WITH_DATA,
                           loads=STATIC_LOADS)
        for d in (model.flex_d, model.ext_d):
            f = dynamics._StaticFactor(d)
            K = f.block.A_FF
            for A in (line_block(f)[1], *(P.T @ K @ P
                                          for _, P, _ in f.classes)):
                band = dynamics.static._lower_band(A)
                ref = index_formula_band(A)
                assert band.flags.f_contiguous and band.shape == ref.shape
                assert np.array_equal(band.view(np.int64),
                                      ref.view(np.int64))

    def test_line_order_runs_along_the_shorter_side(self):
        assert np.array_equal(dynamics._line_order(3, 2),
                              [0, 1, 2, 3, 4, 5])
        assert np.array_equal(dynamics._line_order(2, 3),
                              [0, 3, 1, 4, 2, 5])

    def test_nested_dissection_is_a_permutation(self):
        for nx, ny in ((5, 5), (13, 21), (21, 13), (65, 65)):
            order = dynamics._nested_dissection(nx, ny)
            assert np.array_equal(np.sort(order), np.arange(nx * ny))

    def test_no_factor_outlives_its_solve(self, monkeypatch):
        """Each subsystem's factor is released before the next one is
        built, and a repeat solve factors again to the same bits."""
        refs = []

        def record(d, factor):
            alive = [ref() is not None for ref in refs]
            refs.append(weakref.ref(factor))
            return d.name, alive

        built = count_static_factors(monkeypatch, record)
        for model in (make_model(bc=CANTILEVER, loads=STATIC_LOADS),
                      literal_model(CANTILEVER)):  # band Cholesky, SuperLU
            refs.clear()
            built.clear()
            kin1, _ = static_solve(model)
            kin2, _ = static_solve(model)
            assert built == [("flexural", []), ("extensional", [False]),
                             ("flexural", [False] * 2),
                             ("extensional", [False] * 3)]
            assert np.array_equal(kin1.as_array().view(np.int64),
                                  kin2.as_array().view(np.int64))

    def test_static_solve_factors_no_traction_block(self, monkeypatch):
        """A static cantilever solve calls SuperLU for nothing: there is no
        traction block to factor, and its symmetric A_FF takes the band
        Cholesky."""
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(dynamics.spla, "splu", counting_splu)
        static_solve(make_model(bc=CANTILEVER, loads=STATIC_LOADS))
        assert len(calls) == 0

    def test_cantilever_residual_below_1e_10(self):
        """The band Cholesky of the mirror classes plus one refinement step
        keep the cantilever flexural residual an order below the
        full-matrix spsolve, which leaves 1.9e-10 here."""
        mat = material_from_technical(E=1.0, nu=0.3, N=0.39, l_t=0.05,
                                      l_b=0.05, Psi=1.2, rho=1.0,
                                      J=(0.1, 0.1, 0.1))
        model = make_model(nx=49, ny=49, bc=CANTILEVER, material=mat,
                           loads=LoadFunctions(p=ConstantLoad(1.0)))
        _, diag = static_solve(model)
        assert diag["flexural_residual"] <= 1e-10 * diag["flexural_rhs_scale"]
        assert diag["extensional_residual"] <= \
            1e-10 * diag["extensional_rhs_scale"]

    def test_logs_fill_and_refinement(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger=dynamics.__name__)
        factors = count_static_factors(monkeypatch, lambda d, f: f)
        for model in (literal_model(CANTILEVER, n=9),
                      make_model(bc=CANTILEVER, loads=STATIC_LOADS)):
            caplog.clear()
            factors.clear()
            static_solve(model)
            static_solve(model)
            lines = [r.getMessage() for r in caplog.records]
            factor = [ln for ln in lines if "static factor" in ln]
            solves = [ln for ln in lines if "static solve" in ln]
            # one factor line per subsystem per solve
            assert len(factor) == 4 and len(solves) == 4
            subsystems = (model.flex_d, model.ext_d) * 2
            for d, f, ln in zip(subsystems, factors, factor, strict=True):
                assert ln.startswith(d.name) and f.name == d.name
                if model.config.paper_literal:
                    assert f"SuperLU, L+U nnz {f.lu.L.nnz + f.lu.U.nnz}" in ln
                else:
                    assert ln.endswith("band Cholesky, lines along j, "
                                       "mirror j, " + "; ".join(
                        f"{name} class {cho.shape[1]} dofs, half-bandwidth "
                        f"{cho.shape[0] - 1}, band storage "
                        f"{cho.nbytes / 2**20:.1f} MiB"
                        for name, _, cho in f.classes))
            assert [int(re.search(r"(\d+) refinement step\(s\), relative "
                                  r"residual", ln)[1]) for ln in solves] == \
                [dynamics._StaticFactor.REFINE] * 4
            # the normwise backward error ||r|| / (||A_FF|| ||x|| + ||b||)
            # in the infinity norm, recomputed from the dense A_FF
            for d, f, ln in zip(subsystems, factors, solves, strict=True):
                assert ln.startswith(d.name)
                logged = float(re.search(r", backward error (\S+)$", ln)[1])
                rhs = dynamics._static_rhs(d)
                x = f.solve(rhs)[0][f.free]
                b = rhs[f.free] - f.block.A_FD @ rhs[f.dirich]
                norm = np.max(np.sum(np.abs(f.block.A_FF.toarray()), axis=1))
                want = np.max(np.abs(b - f.block.A_FF @ x)) / (
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
        factors = count_static_factors(monkeypatch, lambda d, f: f)
        norms = []
        abs_matvec = dynamics.static._abs_matvec

        def counting_abs_matvec(*args):
            norms.append(1)
            return abs_matvec(*args)

        monkeypatch.setattr(dynamics.static, "_abs_matvec",
                            counting_abs_matvec)
        kin, diag = static_solve(model)
        # |A_FF| is formed once per factor, not per solve
        assert len(norms) == len(factors) == 2
        for d, h, f in zip((model.flex_d, model.ext_d),
                           (kin.flexural(), kin.extensional()), factors,
                           strict=True):
            assert f.name == d.name
            rhs = dynamics._static_rhs(d)
            x = h.ravel()[f.free]
            b = rhs[f.free] - f.block.A_FD @ rhs[f.dirich]
            dense = f.block.A_FF.toarray()
            norm = np.max(np.sum(np.abs(dense), axis=1))
            assert f.norm == pytest.approx(norm, rel=1e-14)
            want = np.max(np.abs(b - f.block.A_FF @ x)) / (
                norm * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert diag[f"{d.name}_backward_error"] == pytest.approx(
                want, rel=1e-12)
            assert diag[f"{d.name}_backward_error"] < 1e-14
        # a repeat solve factors again and reports the same numbers
        assert static_solve(model)[1] == diag
        assert len(norms) == len(factors) == 4


def mindlin_verlet_trajectory(D, nu, S, I, rho_h, a, b, nx, ny, v0_w,
                              dt, n_steps):
    """Free vibration of the classical plate with the same explicit scheme.

    Initial condition: zero fields, w-velocity profile v0_w.  Returns the
    (psi1, psi2, w) trajectory sampled every step, for trajectory-level
    comparison with the micropolar solver at N ~ 0.
    """
    A, nn = oracles.mindlin_assemble(D, nu, S, a, b, nx, ny)
    interior = np.arange(nn).reshape(nx, ny)[1:-1, 1:-1].ravel()
    idofs = np.concatenate([f * nn + interior for f in range(3)])
    mass = np.concatenate([
        np.full(interior.size, I), np.full(interior.size, I),
        np.full(interior.size, rho_h),
    ])
    A_int = A[idofs]

    h = np.zeros(3 * nn)
    v = np.zeros(3 * nn)
    v[2 * nn + interior] = v0_w.reshape(nx, ny)[1:-1, 1:-1].ravel()

    def accel(hv):
        return (A_int @ hv) / mass

    out = [h.copy()]
    a0 = accel(h)
    for _ in range(n_steps):
        vi = v[idofs] + 0.5 * dt * a0
        h[idofs] += dt * vi
        a0 = accel(h)
        v[idofs] = vi + 0.5 * dt * a0
        out.append(h.copy())
    return np.asarray(out), nn


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

    @pytest.mark.parametrize("every", [-2, 2.5, True])
    def test_rejects_bad_snapshot_every(self, every):
        """snapshot_every = -2 used to record every second step."""
        with pytest.raises(ConfigError, match="snapshot_every must"):
            simulate(make_model(), t_final=0.1, snapshot_every=every)

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
        hist, nn = mindlin_verlet_trajectory(
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
            u, w = h[d.free_dofs], v[d.free_dofs]
            Lh = d.A[d.free_dofs] @ h
            density.append(w * (d.free_block.mass * w) - u * Lh)
            names = FLEXURAL_FIELDS if d.nf == 6 else EXTENSIONAL_FIELDS
            f, node = np.divmod(d.free_dofs, d.nx * d.ny)
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
        fv[model.flex_d.free_dofs] = mode
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


def applied_force(p, t):
    """The force at time t on part p's free dofs that the strain form
    leaves out: the boundary force minus the load vector."""
    f = -dynamics._envelope_sum(p.presets, p.F, t)
    if p.boundary_force is not None:
        f += p.boundary_force
    return f


def assert_step_matches_simulate(model, s0, n_steps=40, every=10):
    """``step()`` is bitwise ``simulate``'s first step.  A ``step()`` loop
    restarts the two-level form from each state's velocities, so over
    ``n_steps`` it agrees with ``simulate`` to 1e-13 relative to each
    array's largest magnitude, not bit for bit (measured: 1.0e-15 to
    1.3e-14 on the 17^2 and 17x13 plates, 5.7e-14 on the 16^2
    constant-load plate).  Returns ``simulate``'s trajectory and the
    loop's states."""
    dt = stable_dt(model)
    first = simulate(model, t_final=dt, dt=dt, snapshot_every=1,
                     initial=s0).states[1]
    got = step(s0, model, dt)
    assert got.time == first.time
    for g, w in zip(state_arrays(got), state_arrays(first)):
        assert g.tobytes() == w.tobytes()
    traj = simulate(model, t_final=n_steps * dt, dt=dt,
                    snapshot_every=every, initial=s0)
    ref = step_loop(model, s0, traj.dt, traj.n_steps, every)
    assert len(traj.states) == len(ref) == 1 + n_steps // every
    for got, want in zip(traj.states, ref):
        assert got.time == want.time
        for g, w in zip(state_arrays(got), state_arrays(want)):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    return traj, ref


def modified_energy_terms(model, traj):
    """Per snapshot, the four terms of the leapfrog's modified energy
    H~ = 1/2 v.Mv + 1/2 u.Ku - u.f - (dt^2/8) a.Ma on the stacked free dofs
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2006), with
    K = -A_FF, f = f_b - F the constant force of the boundary data and the
    loads and M a = f - K u the kernel's acceleration.  K u is formed from
    the rows of A with the Dirichlet values set to zero: the first
    snapshot is the initial state as given, whose boundary need not hold g.
    Velocity Verlet conserves H~ exactly when K is symmetric and f
    constant."""
    stack = model.interior_stack
    rows = []
    for st in traj.states:
        hs = [h.ravel().copy() for h in (st.flex, st.ext)]
        for p, h in zip(stack.parts, hs):
            h[p.d.dirich_dofs] = 0.0
        u = stack.free(hs)
        v = stack.free([st.flex_vel.ravel(), st.ext_vel.ravel()])
        f = np.concatenate([applied_force(p, st.time) for p in stack.parts])
        Ku = -np.concatenate([(p.d.A @ h)[p.d.free_dofs]
                              for p, h in zip(stack.parts, hs)])
        Ma = f - Ku
        rows.append((0.5 * v @ (stack.mass * v), 0.5 * u @ Ku,
                     -(u @ f), -traj.dt ** 2 / 8 * Ma @ (Ma / stack.mass)))
    return np.array(rows)


def rigid_modes(model):
    """Per subsystem, the fields of its rigid motions as rows over its free
    dofs: the flexural translation W and the two tilts with their
    microrotations, the extensional translations and in-plane rotation."""
    X, Y, one, zero = model.X, model.Y, np.ones_like(model.X), 0 * model.X
    modes = {
        "flexural": [(zero, zero, one, zero, zero, zero),
                     (one, zero, -X, zero, zero, -one),
                     (zero, one, -Y, zero, one, zero)],
        "extensional": [(one, zero, zero), (zero, one, zero), (-Y, X, -one)],
    }
    return [np.array([np.ravel(m)[d.free_dofs] for m in modes[d.name]])
            for d in (model.flex_d, model.ext_d)]


def without_rigid_motion(model, s):
    """``s`` with the M-orthogonal projection of its velocities onto the
    rigid motions removed, so the free plate does not drift."""
    vel = []
    for d, Z, v in zip((model.flex_d, model.ext_d), rigid_modes(model),
                       (s.flex_vel, s.ext_vel)):
        K = -d.A[d.free_dofs][:, d.free_dofs]
        assert np.max(np.abs(K @ Z.T)) <= 1e-12 * abs(K).max(), d.name
        v = v.copy()
        w = v.reshape(-1)[d.free_dofs]
        MZ = Z * d.free_block.mass
        w -= Z.T @ np.linalg.solve(MZ @ Z.T, MZ @ w)
        v.reshape(-1)[d.free_dofs] = w
        vel.append(v)
    return with_fields(s, flex_vel=vel[0], ext_vel=vel[1])


class TestModifiedEnergy:
    """ROADMAP item 13 stage A: the leapfrog's exact invariant H~ holds to
    roundoff over thousands of steps on every kind of plate."""

    # Drift of H~ relative to the largest sum of its terms' magnitudes over
    # the run (the roundoff of a sum scales with its terms, not with the
    # sum).  Measured floor: 1.8e-16 to 1.4e-15 over the six clamped runs
    # below; with one interior stencil weight moved by 1e-12 they read
    # 2.2e-13 to 5.5e-12.  The tolerance keeps a 70x margin over the floor.
    TOL = 1.0e-13
    STEPS = 5000

    @classmethod
    def drift(cls, model, initial=None):
        """The kick leaves the boundary at zero, not at the edge data g, so
        the "dirichlet-lift" runs check that the first acceleration imposes
        g as every later one does.  Taken from the boundary as given, a(t0)
        made H~ drift 1.4e-2 at 17^2 and 1.6e-2 at 33^2."""
        traj = simulate(model, cls.STEPS * stable_dt(model),
                        snapshot_every=250,
                        initial=initial or kicked_state(model))
        assert traj.n_steps >= cls.STEPS
        terms = modified_energy_terms(model, traj)
        H = terms.sum(axis=1)
        return np.max(np.abs(H - H[0])) / np.max(np.abs(terms).sum(axis=1))

    @pytest.mark.parametrize("n", [17, 33])
    @pytest.mark.parametrize("bc,loads", [
        (ALL_CLAMPED, None),
        (CLAMPED_WITH_DATA, None),
        (ALL_CLAMPED, LoadFunctions(p=ConstantLoad(0.1),
                                    v=ConstantLoad(0.05))),
    ], ids=["unforced", "dirichlet-lift", "constant-load"])
    def test_clamped_plate_conserves_it(self, bc, loads, n):
        model = make_model(nx=n, ny=n, bc=dict(bc), loads=loads)
        assert self.drift(model) <= self.TOL

    @pytest.mark.parametrize("n", [17, 33])
    @pytest.mark.parametrize("bc", ["right-top-traction", "cantilever",
                                    "all-traction"])
    def test_traction_plate_conserves_it(self, bc, n):
        """The traction rows are the Hessian of the same energy, so H~ holds
        as on a clamped plate (6.3e-16 to 1.5e-15).  The all-traction plate
        starts without the kick's rigid part: with it the free plate drifts
        without bound and the roundoff of u.Ku grows with |u| (4.4e-12 at
        17^2)."""
        model = make_model(nx=n, ny=n, bc=dict(BC_PATTERNS[bc]))
        s0 = kicked_state(model)
        if bc == "all-traction":
            s0 = without_rigid_motion(model, s0)
        assert self.drift(model, s0) <= self.TOL


class TestKernel:
    """``simulate`` runs the interior-state kernel, carrying the position
    increment from step to step; ``step()`` rebuilds it from the grid
    state's velocities, so the two must agree."""

    @pytest.mark.parametrize("loads", [
        LoadFunctions(),
        LoadFunctions(p=GaussianPulseLoad(1.0, center=(0.5, 0.5), width=0.1,
                                          t0=0.05, tau=0.02)),
    ], ids=["free-vibration", "gaussian-pulse"])
    def test_step_equals_simulate_clamped(self, loads):
        model = make_model(nx=17, ny=17, loads=loads)
        assert_step_matches_simulate(model, kicked_state(model))

    @pytest.mark.parametrize("bc", [CLAMPED_WITH_DATA, RIGHT_TOP_TRACTION],
                             ids=["dirichlet-data", "right-top-traction"])
    def test_initial_boundary_values_enter_only_the_first_snapshot(self, bc):
        """Past t0 a run from a state with arbitrary values on Gamma_u is
        bitwise the run from the same free values with Gamma_u at zero: the
        kernel takes only the free dofs, the interior and traction ones,
        from a state and imposes g, and ``simulate`` returns the state as
        given as its first snapshot.  Traction values are state: a run from
        other values there is another run."""
        model = make_model(nx=13, ny=11, bc=dict(bc))
        dt = stable_dt(model)
        s0 = kicked_state(model)

        def boundary(dofs, value):
            fields = []
            for d, h in ((model.flex_d, s0.flex), (model.ext_d, s0.ext)):
                h = h.copy()
                h.reshape(-1)[getattr(d, dofs)] = value
                fields.append(h)
            return with_fields(s0, flex=fields[0], ext=fields[1])

        held = boundary("dirich_dofs", 0.25)
        runs = [simulate(model, t_final=20 * dt, dt=dt, snapshot_every=5,
                         initial=s) for s in (s0, held)]
        assert runs[0].states[0] is s0 and runs[1].states[0] is held
        for a, b in zip(runs[0].states[1:], runs[1].states[1:]):
            for x, y in zip(state_arrays(a), state_arrays(b)):
                assert np.array_equal(bits(x), bits(y))
        e0, e1 = (r.energy.as_arrays() for r in runs)
        for name in ("kinetic", "strain", "external_work"):
            assert np.array_equal(bits(e0[name]), bits(e1[name])), name
        if model.flex_d.trac_dofs.size:
            moved = simulate(model, t_final=20 * dt, dt=dt, snapshot_every=5,
                             initial=boundary("trac_dofs", 0.25))
            assert not np.array_equal(moved.states[1].flex,
                                      runs[0].states[1].flex)

    def test_right_traction_matches_step_loop(self):
        def flex_data(x, y):
            return np.stack([0.01 + 0 * x, 0 * x, 0.02 + 0 * x,
                             0 * x, 0 * x, 0 * x])

        bc = {"left": EdgeBC(kind="clamped", flex_data=flex_data),
              "right": "traction", "bottom": "clamped", "top": "clamped"}
        model = make_model(nx=17, ny=17, bc=bc)
        dt = stable_dt(model)
        s0 = kicked_state(model, amplitude=1e-3)
        traj = simulate(model, t_final=50 * dt, dt=dt, snapshot_every=25,
                        initial=s0)
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

    def test_traction_data_work_enters_the_energy_balance(self):
        """Prescribed traction data is a constant force on the traction
        dofs: a plate driven by it alone, from rest, used to trip the energy
        guard at its first check, step 50, since its work was not counted.
        Now the energy tracks that work to O(dt^2)."""
        model = make_model(nx=13, ny=11, bc=RIGHT_TOP_TRACTION)
        dt = stable_dt(model)

        def imbalance(run_dt, every):
            traj = simulate(model, t_final=500 * dt, dt=run_dt,
                            snapshot_every=every)
            e = traj.energy.as_arrays()
            assert e["total"][0] == 0.0 and np.max(e["total"]) > 1e-5
            return np.max(np.abs(e["total"] - e["external_work"]))

        assert imbalance(dt, 10) / imbalance(dt / 4, 40) > 10.0

    def test_mixed_loads_and_a_one_sided_lift(self):
        """``p`` loads only the flexural subsystem and ``sigma0`` only the
        extensional one, whose edge data alone gives a Dirichlet lift, so
        each slice of the stacked kernel has its own preset list and lift.
        ``simulate`` matches ``step()`` (``assert_step_matches_simulate``),
        and its energy log equals a per-subsystem recomputation from the
        step-loop states."""
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
        s0 = kicked_state(model)
        traj, _ = assert_step_matches_simulate(model, s0)

        # per subsystem: the free rows of A, the lift A_FD g and the
        # energies and midpoint load work recomputed from grid states
        subs = [(d, d.A[d.free_dofs],
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
                u = h.ravel()[d.free_dofs]
                w = v.ravel()[d.free_dofs]
                ke += 0.5 * float(w @ (d.free_block.mass * w)) * dA
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
                w_mid = 0.5 * (v0.ravel() + v1.ravel())[d.free_dofs]
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
        guard steps 50 and 100; one matvec per step, and one per check and
        at the start."""
        model = make_model(nx=9, ny=9)
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger="cosserat_plate.dynamics"):
            simulate(model, t_final=120 * dt, dt=dt, snapshot_every=40,
                     initial=kicked_state(model))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("simulate:")]
        assert lines == [
            f"simulate: 120 steps, 120 step matvecs, 6 check matvecs, "
            f"5 guard checks, 3 snapshots, "
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


def bits(a):
    """The float64 bit patterns of ``a``: equal only if bitwise equal,
    signed zeros included."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def free_rows(model):
    """B, the block diagonal of both subsystems' free rows of A restricted
    to their free columns, sliced from A: each row's entries in their order
    there, as the free blocks the kernel steps hold them."""
    return sp.block_diag([d.A[d.free_dofs][:, d.free_dofs]
                          for d in (model.flex_d, model.ext_d)], format="csr")


def reference_leapfrog(model, s0, dt, n_steps, every):
    """``simulate``'s two-level scheme written out on the whole stack: the
    free u and w at t0 and every ``every`` steps and the final step, and
    the energy log's columns t, kinetic, strain, external work and total.
    A step is u += du; du += C u + dt^2 M^-1 (f_b - F(t)) with C = dt^2
    M^-1 B, the matvec summed into du as SciPy's kernel sums into its
    output: [I | C] [du; u] with each row's identity entry first.  A check
    forms L h and a from u and w = (du - dt^2/2 a) / dt.  The start takes
    L h as every check does, whatever boundary values ``s0`` holds."""
    stack = model.interior_stack
    m, dA, B = stack.mass, model.cell_area, free_rows(model)
    u = stack.free([h.ravel() for h in (s0.flex, s0.ext)])
    w = stack.free([v.ravel() for v in (s0.flex_vel, s0.ext_vel)])
    half, scale, n = 0.5 * dt * dt, dt * dt / m, m.size
    first = B.indptr[:-1]
    IC = sp.csr_matrix(
        (np.insert(B.data * np.repeat(scale, np.diff(B.indptr)), first, 1.0),
         np.insert(B.indices + n, first, np.arange(n)),
         B.indptr + np.arange(n + 1)), shape=(n, 2 * n))
    loaded = [p for p in stack.parts if p.presets]
    worked = [p for p in stack.parts
              if p.presets or p.boundary_force is not None]

    def acceleration(t):
        """L h and a at time t: B u and each part's boundary force, less
        the loads, over the masses."""
        Lu = B @ u
        for p in stack.parts:
            if p.boundary_force is not None:
                Lu[p.s] += p.boundary_force
        a = Lu.copy()
        for p in loaded:
            a[p.s] -= dynamics._envelope_sum(p.presets, p.F, t)
        return Lu, a / m

    def energies(Lu):
        ke = ue = 0.0
        for p in stack.parts:
            ke += 0.5 * float(w[p.s] @ (m[p.s] * w[p.s])) * dA
            uLu = float(u[p.s] @ Lu[p.s])
            if p.boundary_force is not None:
                uLu -= float(u[p.s] @ p.boundary_force)
            ue += -0.5 * uLu * dA
        return ke, ue

    t, work = s0.time, 0.0
    Lu, a = acceleration(t)
    du = w * dt
    du += a * half
    z0 = a * (dt * dt)
    states, log = [(u.copy(), w.copy())], [(t, *energies(Lu), work)]
    for k in range(1, n_steps + 1):
        prev = du
        t_mid = t + 0.5 * dt
        t = t + dt
        u = u + du
        du = IC @ np.concatenate([du, u])
        for p in stack.parts:
            if p.boundary_force is not None:
                du[p.s] += scale[p.s] * p.boundary_force
        for p in loaded:
            du[p.s] -= dynamics._envelope_sum(p.presets, scale[p.s] * p.F, t)
        # the midpoint work: dt w_mid = du_n + (z_{n+1} - z_n) / 4
        z1 = du - prev
        x = (z1 - z0) * 0.25 + prev
        z0 = z1
        for p in worked:
            step_work = (0.0 if p.boundary_force is None
                         else float(p.boundary_force @ x[p.s]))
            for f, Fx in zip(p.presets, p.F @ x[p.s]):
                step_work -= f.envelope(t_mid) * float(Fx)
            work += step_work * dA
        if k % every == 0 or k == n_steps:
            Lu, a = acceleration(t)
            w = (du - a * half) / dt
            states.append((u.copy(), w.copy()))
            log.append((t, *energies(Lu), work))
    log = np.array(log)
    return states, [*log.T, log[:, 1] + log[:, 2]]


def velocity_leapfrog(model, s0, dt, n_steps, every):
    """The oracle of the leapfrog in its velocity form, which ``simulate``
    stepped before its two-level form, written out on the whole stack:
    w += dt/2 a; u += dt w; a = a(u, t + dt); w += dt/2 a, with the load
    work of the midpoint velocity (w_n + w_{n+1}) / 2.  It returns what
    ``reference_leapfrog`` returns; the two forms agree to roundoff."""
    stack = model.interior_stack
    m, dA, B = stack.mass, model.cell_area, free_rows(model)
    u = stack.free([h.ravel() for h in (s0.flex, s0.ext)])
    w = stack.free([v.ravel() for v in (s0.flex_vel, s0.ext_vel)])
    loaded = [p for p in stack.parts if p.presets]
    worked = [p for p in stack.parts
              if p.presets or p.boundary_force is not None]

    def free_force(t):
        """L h at time t: B u and each part's boundary force."""
        Lu = B @ u
        for p in stack.parts:
            if p.boundary_force is not None:
                Lu[p.s] += p.boundary_force
        return Lu

    def acceleration(Lu, t):
        a = np.empty_like(Lu)
        np.copyto(a, Lu)
        for p in loaded:
            a[p.s] -= dynamics._envelope_sum(p.presets, p.F, t)
        a /= m
        return a

    def energies(Lu):
        ke = ue = 0.0
        for p in stack.parts:
            ke += 0.5 * float(w[p.s] @ (m[p.s] * w[p.s])) * dA
            uLu = float(u[p.s] @ Lu[p.s])
            if p.boundary_force is not None:
                uLu -= float(u[p.s] @ p.boundary_force)
            ue += -0.5 * uLu * dA
        return ke, ue

    t, work = s0.time, 0.0
    Lu = free_force(t)
    a = acceleration(Lu, t)
    states, log = [(u.copy(), w.copy())], [(t, *energies(Lu), work)]
    for k in range(1, n_steps + 1):
        w_mid = [w[p.s].copy() for p in worked]
        t_mid = t + 0.5 * dt
        w += a * (0.5 * dt)
        u += w * dt
        t = t + dt
        Lu = free_force(t)
        a = acceleration(Lu, t)
        w += a * (0.5 * dt)
        for p, buf in zip(worked, w_mid):
            buf += w[p.s]
            buf *= 0.5
            work += dt * float(applied_force(p, t_mid) @ buf) * dA
        if k % every == 0 or k == n_steps:
            states.append((u.copy(), w.copy()))
            log.append((t, *energies(Lu), work))
    log = np.array(log)
    return states, [*log.T, log[:, 1] + log[:, 2]]


def w_kick(model):
    """A velocity kick in w alone: the extensional subsystem stays at
    rest unless something drives it."""
    s = DiscreteState.zero(model)
    fv = s.flex_vel.copy()
    fv[2] = kicked_state(model).flex_vel[2]
    return with_fields(s, flex_vel=fv)


def one_sided_ext_lift():
    def ext_data(x, y):
        return np.stack([0.01 + 0 * x, -0.02 + 0 * x, 0 * x])
    return dict(ALL_CLAMPED, left=EdgeBC(kind="clamped", ext_data=ext_data))


def assert_agrees_with_velocity_form(model, s0, traj, every):
    """``traj``'s states and every energy-log column agree with the
    velocity-form oracle to 1e-12 relative to their largest magnitude."""
    states, log = velocity_leapfrog(model, s0, traj.dt, traj.n_steps, every)
    stack = model.interior_stack
    got = [(stack.free([s.flex.ravel(), s.ext.ravel()]),
            stack.free([s.flex_vel.ravel(), s.ext_vel.ravel()]))
           for s in traj.states]
    for g, want in zip(got, states, strict=True):
        for x, y in zip(g, want):
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
    e = traj.energy.as_arrays()
    for name, want in zip(("t", "kinetic", "strain", "external_work",
                           "total"), log):
        assert np.max(np.abs(e[name] - want)) <= \
            1e-12 * np.max(np.abs(want)), name


KERNEL_PLATES = pytest.mark.parametrize("bc,loads,kick", [
    (ALL_CLAMPED, None, w_kick),
    (ALL_CLAMPED, pulse_loads, kicked_state),
    (one_sided_ext_lift(), None, w_kick),
    ({"left": "clamped", "right": "traction", "bottom": "clamped",
      "top": "traction"}, None, kicked_state),
], ids=["unforced", "loaded", "lifted", "right-top-traction"])


class TestKernelArithmetic:
    """The kernel steps the two-level form with SciPy's CSR kernel adding
    C u into du in place; ``simulate``'s states and energy log are bitwise
    those of the same scheme written out with ``@`` (``reference_leapfrog``)
    and agree with the velocity form of the leapfrog to roundoff."""

    @KERNEL_PLATES
    def test_simulate_equals_reference_leapfrog(self, caplog, bc, loads,
                                                kick):
        """One matvec per step, and one per energy check: at the start and
        at steps 25, 50 and 60."""
        model = make_model(nx=17, ny=13, bc=bc,
                           loads=loads() if loads else None)
        dt = stable_dt(model)
        s0 = kick(model)
        with caplog.at_level(logging.DEBUG, logger="cosserat_plate.dynamics"):
            traj = simulate(model, t_final=60 * dt, dt=dt, snapshot_every=25,
                            initial=s0)
        assert "60 steps, 60 step matvecs, 4 check matvecs," in caplog.text
        states, log = reference_leapfrog(model, s0, traj.dt, traj.n_steps, 25)
        stack = model.interior_stack
        assert len(traj.states) == len(states) == 4
        for got, (u, w) in zip(traj.states, states):
            assert np.array_equal(bits(stack.free(
                [got.flex.ravel(), got.ext.ravel()])), bits(u))
            assert np.array_equal(bits(stack.free(
                [got.flex_vel.ravel(), got.ext_vel.ravel()])), bits(w))
        e = traj.energy.as_arrays()
        for name, want in zip(("t", "kinetic", "strain", "external_work",
                               "total"), log):
            assert np.array_equal(bits(e[name]), bits(want)), name

    @KERNEL_PLATES
    def test_simulate_agrees_with_the_velocity_form(self, bc, loads, kick):
        model = make_model(nx=17, ny=13, bc=bc,
                           loads=loads() if loads else None)
        dt = stable_dt(model)
        s0 = kick(model)
        traj = simulate(model, t_final=60 * dt, dt=dt, snapshot_every=25,
                        initial=s0)
        assert_agrees_with_velocity_form(model, s0, traj, 25)

    def test_csr_matvec_into_equals_matmul(self):
        """On each subsystem's free block and on a matrix with -0 entries
        and empty rows, over a NaN-filled ``out`` view whose neighbours stay
        untouched."""
        from cosserat_plate.dynamics.explicit import (_csr_matvec_args,
                                                      _csr_matvec_into)

        stack = make_model(nx=17, ny=13).interior_stack
        x = np.random.default_rng(2).standard_normal(stack.mass.size)
        x[::7] = -0.0
        signed = sp.csr_matrix(
            (np.array([-0.0, 1.5, -2.0, 0.0, -0.0, 3.0]),
             np.array([0, 2, 1, 3, 0, 3], dtype=np.int32),
             np.array([0, 2, 2, 4, 4, 6], dtype=np.int32)), shape=(5, 4))
        xs = np.array([2.0, 0.0, -0.0, 1.0])
        for A, v in ((stack.parts[0].B, x[stack.parts[0].s]),
                     (stack.parts[1].B, x[stack.parts[1].s]), (signed, xs)):
            out = np.full(A.shape[0] + 4, np.nan)
            _csr_matvec_into(_csr_matvec_args(A, v, out[2:-2]))
            assert np.array_equal(bits(out[2:-2]), bits(A @ v))
            assert np.isnan(out[:2]).all() and np.isnan(out[-2:]).all()


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
            w = s.flex_vel.ravel()[f.d.free_dofs]
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
        ("traction", ("extensional",)),
        ("initial", ("flexural",)),
    ])
    def test_what_makes_a_part_live(self, case, live, caplog):
        """A load, a Dirichlet lift, traction data or a nonzero initial
        state each makes its part live; the kernel's DEBUG line names what
        it steps, and a live part moves while an at-rest one stays 0.  A
        constant U1 on the left edge, clamped or traction, is even under
        the j-mirror, so the lift and the traction data step the
        extensional even class: 3 fields on the half grid's 7 x 3 (lift)
        or 8 x 3 (traction) nodes and U1 on its 7 or 8 line nodes."""
        def ext_data(x, y):
            return np.stack([0.01 + 0 * x, 0 * x, 0 * x])

        kwargs = {
            "load": dict(loads=LoadFunctions(
                sigma0=SinusoidalLoad(0.5, kx=1, ky=2, omega=3.0))),
            "lift": dict(bc=dict(ALL_CLAMPED, left=EdgeBC(
                kind="clamped", ext_data=ext_data))),
            "traction": dict(bc=dict(ALL_CLAMPED, right=EdgeBC(
                kind="traction", ext_data=ext_data))),
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
        stepped = {"lift": "extensional even class of mirror j (70",
                   "traction": "extensional even class of mirror j (80"}.get(
            case, f"{', '.join(live) or 'nothing'} "
                  f"({sum(n[name] for name in live)}")
        want = (f"kernel: stepping {stepped} of {sum(n.values())} free dofs)"
                + (f"; {', '.join(rest)} at rest" if rest else ""))
        assert kernel_lines(caplog) == [want] * 5
        moved = {"flexural": s.flex_vel, "extensional": s.ext_vel}
        for name in n:
            if name in live:
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
            "kernel: stepping flexural (1350 of 2025 free dofs); "
            "extensional at rest"]


def verify_material():
    """Criterion 08's material."""
    return material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                   Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))


def mode_state(model):
    """Criterion 08's start: the lowest flexural mode as the velocity,
    scaled to a largest entry of 1; it lies in one mirror class."""
    from cosserat_plate.verification import lowest_flexural_mode

    _, mode = lowest_flexural_mode(model)
    s = DiscreteState.zero(model)
    fv = s.flex_vel.reshape(6, -1).copy()
    fv.ravel()[model.flex_d.free_dofs] = mode / np.max(np.abs(mode))
    return with_fields(s, flex_vel=fv.reshape(s.flex_vel.shape))


def mirrored(model, s, sigma):
    """``s`` with each subsystem's free values x, positions and
    velocities, replaced by x + sigma s_k x[M k], which lies exactly in
    class sigma of the mirror M: j -> ny - 1 - j."""
    arrays = {}
    for d, names in ((model.flex_d, ("flex", "flex_vel")),
                     (model.ext_d, ("ext", "ext_vel"))):
        m = d.free_block.mirror(1)
        for name in names:
            h = getattr(s, name).ravel().copy()
            x = h[d.free_dofs]
            h[d.free_dofs] = x + sigma * m.sign * x[m.mate]
            arrays[name] = h.reshape(getattr(s, name).shape)
    return with_fields(s, **arrays)


def whole_path(monkeypatch, model):
    """Make the kernel step the whole stack whatever the state."""
    monkeypatch.setattr(model.interior_stack, "mirror_class",
                        lambda p, u, w: None)


class TestMirrorClass:
    """When a run's state and all that drives it lie exactly in one class
    of each of the mirrors that commute with a part's free block, the
    kernel steps that class on the half or quarter grid and expands it
    through P wherever full vectors are read; anything else takes the
    whole path with its bits."""

    # model, start and the classes stepped: the mode is odd under both
    # mirrors, p loads W (even under both) and v loads the drilling
    # microrotation, whose sign is -1 under both (odd); the cantilever's
    # clamped edge breaks its i-mirror
    CASES = {
        "clamped-17x17-mode": lambda: (
            make_model(nx=17, ny=17, material=verify_material()),
            mode_state, "flexural odd-odd class of mirrors i, j"),
        "clamped-16x16-constant-load": lambda: (
            make_model(nx=16, ny=16, loads=LoadFunctions(
                p=ConstantLoad(0.1), v=ConstantLoad(0.05))),
            DiscreteState.zero,
            "flexural even-even class of mirrors i, j, "
            "extensional odd-odd class of mirrors i, j"),
        "cantilever-17x13-kick": lambda: (
            make_model(nx=17, ny=13, bc=dict(CANTILEVER)),
            lambda m: mirrored(m, kicked_state(m), 1.0),
            "flexural even class of mirror j, "
            "extensional even class of mirror j"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_class_run_agrees_with_the_whole_run(self, case, caplog,
                                                 monkeypatch):
        """States and every energy-log column agree to 1e-12 relative to
        their largest magnitude; only the summation order differs."""
        model, start, stepped = self.CASES[case]()
        s0 = start(model)
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            got = simulate(model, t_final=400 * dt, dt=dt,
                           snapshot_every=100, initial=s0)
        assert kernel_lines(caplog)[0].startswith(
            f"kernel: stepping {stepped} (")
        whole_path(monkeypatch, model)
        want = simulate(model, t_final=400 * dt, dt=dt, snapshot_every=100,
                        initial=s0)
        assert len(got.states) == len(want.states) == 5
        for g, w in zip(got.states, want.states):
            for x, y in zip(state_arrays(g), state_arrays(w)):
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
        e, f = got.energy.as_arrays(), want.energy.as_arrays()
        for name in ("t", "kinetic", "strain", "external_work", "total"):
            assert np.max(np.abs(e[name] - f[name])) <= \
                1e-12 * np.max(np.abs(f[name])), name
        if "load" in case:
            assert np.all(e["external_work"][1:] > 0)

    @pytest.mark.parametrize("case", ["clamped-17x17-mode",
                                      "clamped-16x16-constant-load"])
    def test_class_run_conserves_the_modified_energy(self, case):
        """H~ holds to ``TestModifiedEnergy.TOL`` on a class run: the class
        system is the leapfrog of P^T K P with the mass P^T M P."""
        model, start, _ = self.CASES[case]()
        assert TestModifiedEnergy.drift(model, start(model)) <= \
            TestModifiedEnergy.TOL

    @pytest.mark.parametrize("other", ["one-ulp-in-w", "load"])
    def test_other_class_content_takes_the_whole_path(self, other, caplog):
        """One ulp of even content in the odd mode's w, or an even load
        on it, touches both classes: the run steps the whole flexural
        block, bit for bit as ``reference_leapfrog``."""
        loads = (LoadFunctions(p=ConstantLoad(0.1)) if other == "load"
                 else None)
        model = make_model(nx=17, ny=17, material=verify_material(),
                           loads=loads)
        s0 = mode_state(model)
        if other == "one-ulp-in-w":
            fv = s0.flex_vel.copy()
            fv[2, 3, 4] = np.nextafter(fv[2, 3, 4], np.inf)
            s0 = with_fields(s0, flex_vel=fv)
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            traj = simulate(model, t_final=60 * dt, dt=dt, snapshot_every=25,
                            initial=s0)
        assert kernel_lines(caplog) == [
            "kernel: stepping flexural (1350 of 2025 free dofs); "
            "extensional at rest"]
        states, log = reference_leapfrog(model, s0, traj.dt, traj.n_steps,
                                         25)
        stack = model.interior_stack
        for got, (u, w) in zip(traj.states, states, strict=True):
            assert np.array_equal(bits(stack.free(
                [got.flex.ravel(), got.ext.ravel()])), bits(u))
            assert np.array_equal(bits(stack.free(
                [got.flex_vel.ravel(), got.ext_vel.ravel()])), bits(w))
        e = traj.energy.as_arrays()
        for name, want in zip(("t", "kinetic", "strain", "external_work",
                               "total"), log):
            assert np.array_equal(bits(e[name]), bits(want)), name

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_step_equals_simulate(self, case):
        """``step()`` takes the class from each grid state it is given and
        expands its result; ``simulate`` keeps the class values between
        steps."""
        model, start, _ = self.CASES[case]()
        assert_step_matches_simulate(model, start(model))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_class_run_agrees_with_the_velocity_form(self, case):
        model, start, _ = self.CASES[case]()
        s0 = start(model)
        dt = stable_dt(model)
        traj = simulate(model, t_final=400 * dt, dt=dt, snapshot_every=100,
                        initial=s0)
        assert_agrees_with_velocity_form(model, s0, traj, 100)

    def test_expansion_is_bitwise_the_matmul(self):
        """The kernel expands the class values of u, w and Lu by SciPy's
        CSR kernel into zero-filled views of the full vectors: bitwise
        ``P @ x``, signed zeros included, and the at-rest part's entries
        stay untouched."""
        from cosserat_plate.dynamics.explicit import _Kernel

        model = make_model(nx=17, ny=17, material=verify_material())
        kernel = _Kernel(model).start(mode_state(model), stable_dt(model))
        (c,) = kernel.stack._classes.values()
        f, e = (p.s for p in kernel.stack.parts)
        rng = np.random.default_rng(5)
        for values in (kernel._u, kernel._w, kernel._Lu):
            values[:] = rng.standard_normal(values.size)
            values[::5] = -0.0
        for full in (kernel.u, kernel.w, kernel.Lu):
            full.fill(np.nan)
        kernel._expand()
        for full, values in ((kernel.u, kernel._u), (kernel.w, kernel._w),
                             (kernel.Lu, kernel._Lu)):
            assert np.array_equal(bits(full[f]), bits(c.c.P @ values))
            assert np.isnan(full[e]).all()

    def test_kernel_line_names_the_mirror_and_class(self, caplog):
        """Criterion 08's run steps the class odd under both mirrors, 337
        of the flexural block's 1350 rows; ``simulate``'s summary keeps its
        wording."""
        model = make_model(nx=17, ny=17, material=verify_material())
        dt = stable_dt(model)
        with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
            simulate(model, t_final=20 * dt, dt=dt, initial=mode_state(model))
        assert kernel_lines(caplog) == [
            "kernel: stepping flexural odd-odd class of mirrors i, j (337 of "
            "2025 free dofs); extensional at rest"]
        assert "simulate: 20 steps, 20 step matvecs, 2 check matvecs," \
            in caplog.text


def per_node_traction_load_rows(d, tc, loads, F):
    """Oracle: the load vector at the traction nodes assembled node by
    node: the node's dual-cell fraction of the grid load vector ``F``
    (nf, nx, ny), plus each traction edge through the node weighted by its
    outward normal times its trapezoid weight over the spacing across it,
    times the load part of the resultants."""
    out = np.zeros((d.nf, d.trac_nodes.size))
    ti, tj = d._trac_ij
    for kk, (i, j) in enumerate(zip(ti, tj)):
        ends = (i in (0, d.nx - 1), j in (0, d.ny - 1))
        weight = (0.5 if ends[0] else 1.0) * (0.5 if ends[1] else 1.0)
        n = [0.0, 0.0]
        for name, (axis, index, normal) in EDGE_TABLE.items():
            if d.bc[name].kind == "traction" and \
                    (i, j)[axis] == range((d.nx, d.ny)[axis])[index]:
                along = 0.5 if ends[1 - axis] else 1.0
                n = [n[a] + normal[a] * (along / (d.dx, d.dy)[axis])
                     for a in range(2)]
        p, s0, t = (np.asarray(getattr(loads, k))[i, j]
                    for k in ("p", "sigma0", "t"))
        if d.nf == 6:
            c_p = tc.nu * tc.h**2 / (10.0 * (1.0 - tc.nu)) * p
            c_t = 0.5 * tc.kappa2_sq * tc.h * (1.0 - tc.Psi) * t
            lp = [n[0] * c_p, n[1] * c_p, 0.0, 0.0, n[0] * c_t, n[1] * c_t]
        else:
            c_s = tc.h * tc.nu / (1.0 - tc.nu) * s0
            lp = [n[0] * c_s, n[1] * c_s, 0.0]
        out[:, kk] = weight * F[:, i, j] + np.asarray(lp)
    return out


class TestTractionLoadPart:
    def test_bitwise_equal_to_per_node_loop(self):
        """Oracle: each load term's load vector at the traction nodes
        assembled node by node from its spatial field, then weighted by the
        envelope values."""
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
            presets, F = d.load_terms
            trac = np.isin(d.free_dofs, d.trac_dofs)
            rows = []
            for preset in presets:
                field = ConstantLoad(1.0)
                field.space = preset.space  # the field under a unit envelope
                one = LoadFunctions(**{name: field if f is preset else None
                                       for name, f in vars(loads).items()})
                grid = sampled_load_rhs(d, one, 0.0, grid=True)
                sampled = one.sample(d.X, d.Y, 0.0)
                rows.append(per_node_traction_load_rows(
                    d, model.tc, sampled, grid).ravel())
            assert F[:, trac].tobytes() == np.array(rows).tobytes()
            for t in (0.0, 0.13):
                e = np.array([f.envelope(t) for f in presets])
                got = dynamics._envelope_sum(presets, F, t)
                assert got.tobytes() == (e @ F).tobytes()

    def test_one_preset_sum_is_bitwise_the_matmul(self):
        """A one-preset envelope sum scales the preset's row instead of a
        1 x n matmul; the rows F hold -0 entries, and a negative envelope
        value turns +0 entries into -0 products, which the matmul's
        zero-started sum and the scaled row's + 0.0 both make +0.  Each
        preset alone and all together, on F of both subsystems, at envelope
        values of both signs."""
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
            presets, F = d.load_terms
            negative_zeros += np.count_nonzero((F == 0.0) & np.signbit(F))
            groups = [presets[k:k + 1] for k in range(len(presets))]
            for k, group in enumerate(groups + [presets]):
                block = F[k:k + 1] if k < len(groups) else F
                for t in (0.0, 0.13, 1.0, 1.3):
                    e = np.array([f.envelope(t) for f in group])
                    want = e @ block
                    got = dynamics._envelope_sum(group, block, t)
                    assert got.tobytes() == want.tobytes()
        assert negative_zeros > 0


def sampled_load_rhs(d, loads, t, grid=False):
    """Oracle: the loads sampled on the grid at t, their gradients taken
    with np.gradient and the load vector built on the interior nodes (on
    every node, (nf, nx, ny), with ``grid``)."""
    sampled = loads.sample(d.X, d.Y, t)
    grads = {name: np.gradient(np.asarray(value, dtype=float), d.dx, d.dy,
                               edge_order=2)
             for name, value in vars(sampled).items()}
    F = d.op.load_vector(sampled,
                         LoadSet(**{k: g[0] for k, g in grads.items()}),
                         LoadSet(**{k: g[1] for k, g in grads.items()}))
    if grid:
        return np.array(F)
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
        presets, F = model.ext_d.load_terms
        assert presets == ()
        assert F.shape == (0, model.ext_d.free_dofs.size)
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
    run_fresh(f"""
import importlib
importlib.import_module("cosserat_plate.dynamics.{first}")
from cosserat_plate import dynamics
for name, home in {TRACED!r}.items():
    module = importlib.import_module("cosserat_plate.dynamics." + home)
    f = getattr(module, name)
    assert getattr(dynamics, name) is f, name
    assert f.__module__ == module.__name__, name
""")


def test_lazy_names_are_their_home_objects():
    """Every name that ``cosserat_plate`` and ``cosserat_plate.dynamics``
    resolve on first access, ``dynamics.spla`` among them, is the very
    object of its home module, and ``dir`` lists it.  Importing the package
    loads neither ``dynamics`` nor SciPy, and README's quick-start import
    works from a fresh interpreter."""
    readme = (SRC.parent / "README.md").read_text()
    quick_start = re.search(r"^from cosserat_plate import \(.*?\)$", readme,
                            re.S | re.M).group(0)
    run_fresh(f"""
import importlib
import sys
import cosserat_plate
assert "cosserat_plate.dynamics" not in sys.modules
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
from cosserat_plate import dynamics
for package in (cosserat_plate, dynamics):
    for name, (module, attr) in package._LAZY.items():
        value = getattr(package, name)
        home = importlib.import_module(module, package.__name__)
        assert value is (home if attr is None else getattr(home, attr)), name
        assert name in dir(package), name
        assert name.startswith("_") or name in package.__all__, name
import scipy.sparse.linalg
assert dynamics.spla is scipy.sparse.linalg
assert cosserat_plate.simulate is dynamics.explicit.simulate
assert cosserat_plate.HPRFunctional is cosserat_plate.hpr.HPRFunctional
{quick_start}
""")


_KERNEL_PRIVATE = {"interior_stack", "_InteriorStack", "_Part",
                   "_TractionClosure", "_Kernel"}


def _kernel_private_names(path):
    """(name, line) of each identifier, import or string constant in the
    module at ``path`` that names the explicit kernel's private parts,
    outside ``DiscreteModel.interior_stack``, the property that builds the
    stack."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef) and \
                (cls, node.name) == ("DiscreteModel", "interior_stack"):
            return
        names = {
            ast.Name: lambda n: [n.id],
            ast.Attribute: lambda n: [n.attr],
            ast.alias: lambda n: [n.name, n.asname],
            ast.FunctionDef: lambda n: [n.name],
            ast.ClassDef: lambda n: [n.name],
            ast.Constant: lambda n: [n.value],
        }.get(type(node), lambda n: [])(node)
        found.extend((name, getattr(node, "lineno", 0)) for name in names
                     if isinstance(name, str) and name in _KERNEL_PRIVATE)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(path.read_text()), None)
    return found


def _imports_sparsetools(path):
    """Whether the module at ``path`` imports SciPy's private CSR
    kernels, ``scipy.sparse._sparsetools``, by any form of import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name.startswith("scipy.sparse._sparsetools")
               for name in names):
            return True
    return False


def test_only_the_explicit_kernel_reads_its_interior_stack():
    """One interior-state integrator: no module of the package but
    ``dynamics/explicit.py`` names the interior stack or the kernel's
    private classes, except the property that builds the stack, or
    imports the CSR kernels that step it."""
    kernel = SRC / "cosserat_plate" / "dynamics" / "explicit.py"
    modules = sorted((SRC / "cosserat_plate").rglob("*.py"))
    assert kernel in modules and _kernel_private_names(kernel)
    found = {str(path.relative_to(SRC)): names for path in modules
             if path != kernel and (names := _kernel_private_names(path))}
    assert found == {}
    assert [path for path in modules if _imports_sparsetools(path)] == \
        [kernel]


def test_one_mirror_implementation():
    """One implementation per concept: exactly one module of the package
    defines the field parities ``_MIRROR_PARITY``, the bitwise commutation
    check ``Mirror.commutes``, ``mirror_of`` and the class builders, and
    only it builds a ``MirrorClass`` and so its basis P.  The free block
    (``_FreeBlock``) makes the one call of ``mirror_of`` and the one call
    of ``Mirror.commutes``: every other ``commutes`` call asks a block, and
    the static factor, the explicit kernel and ``lowest_flexural_mode``
    read the mirror from the block without importing ``mirror_of``."""

    class Scan(ast.NodeVisitor):
        """Definitions and calls of one module, by qualified name."""

        def __init__(self):
            self.scope, self.defines, self.calls = [], [], []

        def visit_ClassDef(self, node):
            self.defines.append(".".join([*self.scope, node.name]))
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_ClassDef

        def visit_Assign(self, node):
            self.defines += [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
            self.generic_visit(node)

        def visit_Call(self, node):
            f = node.func
            name = getattr(f, "attr", getattr(f, "id", None))
            # a free block is the receiver of ``block.commutes(axis)``
            receiver = getattr(f, "value", None)
            on_block = "block" in (getattr(receiver, "id", None),
                                   getattr(receiver, "attr", None))
            if name in ("mirror_of", "commutes", "MirrorClass") and \
                    not on_block:
                self.calls.append((name, ".".join(self.scope)))
            self.generic_visit(node)

    defines, calls, imports = {}, {}, {}
    watched = {"_MIRROR_PARITY", "Mirror.commutes", "mirror_of", "class_of",
               "classes_of"}
    for path in sorted((SRC / "cosserat_plate").rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        scan = Scan()
        scan.visit(tree)
        for what in set(scan.defines) & watched:
            defines.setdefault(what, []).append(name)
        for what, where in scan.calls:
            calls.setdefault(what, []).append((name, where))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and \
                    node.module in ("mirror", "dynamics.mirror"):
                imports[name] = [a.name for a in node.names]
    home = "cosserat_plate/dynamics/mirror.py"
    block = "cosserat_plate/dynamics/discretization.py"
    assert defines == dict.fromkeys(watched, [home])
    assert {name for name, _ in calls["MirrorClass"]} == {home}
    assert calls["mirror_of"] == [(block, "_FreeBlock.mirror")]
    assert calls["commutes"] == [(block, "_FreeBlock.commutes")]
    assert [m for m, names in imports.items() if "mirror_of" in names] == \
        [block]
    for module in ("dynamics/static.py", "dynamics/explicit.py",
                   "verification.py"):
        assert "mirror_of" not in imports[f"cosserat_plate/{module}"], module


def test_one_commutation_check_per_subsystem_and_axis(monkeypatch):
    """Each subsystem's free block checks each mirror once per model,
    whichever reader asks first: ``lowest_flexural_mode``, a run from the
    mode with a load on the extensional subsystem (v, on the drilling
    microrotation, odd under both mirrors, as the mode is), which steps a
    class of both mirrors in each subsystem, and a static solve."""
    from cosserat_plate.dynamics.mirror import Mirror

    checked = []
    commutes = Mirror.commutes

    def counting(self, A, mass=None):
        checked.append((A.shape[0], self.axis))
        return commutes(self, A, mass)

    monkeypatch.setattr(Mirror, "commutes", counting)
    model = make_model(nx=17, ny=17, material=verify_material(),
                       loads=LoadFunctions(v=ConstantLoad(0.05)))
    s0 = mode_state(model)
    simulate(model, t_final=20 * stable_dt(model), initial=s0)
    static_solve(model)
    names = {d.free_dofs.size: d.name for d in (model.flex_d, model.ext_d)}
    assert sorted((names[n], axis) for n, axis in checked) == [
        ("extensional", 0), ("extensional", 1),
        ("flexural", 0), ("flexural", 1)]
