"""The verification runner: the classical plate shared by suites 6 and 9,
the memo's lifetime and ``verify_report.json``."""

import ast
import gc
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cosserat_plate import __version__, oracles, verification
from cosserat_plate.cosserat3d import (
    Strain3D,
    energy_densities_3d,
    strain_from_stress_3d,
    stress_from_strain_3d,
)
from cosserat_plate.dispersion import wave_eigensystem
from cosserat_plate.dynamics import ConfigError
from cosserat_plate.material import (
    MaterialError,
    MaterialParams,
    reciprocal_constants,
    technical_constants,
)
from cosserat_plate.operators import build_extensional, build_flexural
from cosserat_plate.plate_constitutive import plate_energy_density
from cosserat_plate.plate_fields import (
    PlateKinematics,
    PlateStress,
    inertia_constants,
)
from cosserat_plate.verification import SuiteResult


def test_classical_plate_is_factored_once(verify_run):
    """Suites 6 and 9 share one static solve; each used to factor its own
    copy of the plate.  Only its flexural block is factored: the plate is
    loaded by pressure alone, so the extensional right-hand side is zero
    and its solution is +0 without a factorization."""
    _, _, _, factors = verify_run
    assert factors == [("flexural", 65, 65)]


def _without_wall_time(line):
    return re.sub(r", \d+\.\ds$", "", line)


def test_shared_solution_prints_the_standalone_lines(verify_run):
    """The lines of suites 6 and 9 in ``run_all`` equal those of each suite
    run on its own, with its own static solve, up to suite 6's wall time."""
    results, printed, _, _ = verify_run
    assert printed == [r.line() for r in results]
    alone = []
    for suite in (verification.suite_classical_limit,
                  verification.suite_hpr_stationarity):
        verification._classical_solution.cache_clear()
        alone.append(suite().line())
    verification._classical_solution.cache_clear()
    assert [_without_wall_time(ln) for ln in (printed[5], printed[8])] == \
        [_without_wall_time(ln) for ln in alone]
    assert printed[5] != _without_wall_time(printed[5])  # the field is there


def test_memo_is_empty_after_run_all(verify_run):
    assert verification._classical_solution.cache_info().currsize == 0


def test_memo_is_empty_after_run_all_raises(monkeypatch):
    def tiny_solve(model):
        return PlateKinematics.from_arrays(np.zeros((6, 2, 2)),
                                           np.zeros((3, 2, 2))), {}

    def failing_suite(seed):
        verification._classical_solution()
        assert verification._classical_solution.cache_info().currsize == 1
        raise RuntimeError("suite failed")

    monkeypatch.setattr(verification, "static_solve", tiny_solve)
    monkeypatch.setattr(verification, "ALL_SUITES", (failing_suite,))
    with pytest.raises(RuntimeError, match="suite failed"):
        verification.run_all(verbose=False)
    assert verification._classical_solution.cache_info().currsize == 0


def test_memo_keeps_only_the_solution(monkeypatch):
    """The memo must not keep the model, and with it the static factor,
    alive; the shared arrays are read-only."""
    refs = []
    assemble = verification.assemble

    def recording_assemble(cfg):
        model = assemble(cfg)
        refs.append(weakref.ref(model.flex_d))
        return model

    monkeypatch.setattr(verification, "assemble", recording_assemble)
    verification._classical_solution.cache_clear()
    try:
        kin = verification._classical_solution()
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        with pytest.raises(ValueError, match="read-only"):
            kin.w[1, 1] = 0.0
    finally:
        verification._classical_solution.cache_clear()


def test_report_round_trips_every_printed_line(verify_run):
    results, printed, out, _ = verify_run
    report = json.loads((out / "verify_report.json").read_text())
    assert report["version"] == __version__ and report["seed"] == 0
    suites = report["suites"]
    assert [SuiteResult(s["name"], s["passed"], s["details"]).line()
            for s in suites] == printed
    assert [s["name"] for s in suites] == [r.name for r in results]
    assert all(isinstance(s["wall_s"], float) and s["wall_s"] > 0.0
               for s in suites)
    assert (out / "coefficient_diff.csv").exists()


def test_hpr_suite_evaluates_the_equilibrium_state_once(monkeypatch):
    """Suite 9 measures 20 perturbations of one equilibrium state, whose
    Theta and reference energy it used to recompute for each (125 and 25
    calls per run); the five non-equilibrium measures are unchanged."""
    from cosserat_plate.hpr import HPRFunctional

    calls = {"value": 0, "reference_energy": 0}
    for name in calls:
        method = getattr(HPRFunctional, name)

        def counted(self, state, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, state)

        monkeypatch.setattr(HPRFunctional, name, counted)
    verification._classical_solution.cache_clear()
    try:
        assert verification.suite_hpr_stationarity().passed
    finally:
        verification._classical_solution.cache_clear()
    assert calls == {"value": 106, "reference_energy": 6}


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_bad_seed_is_a_config_error(monkeypatch, seed):
    """run_all(seed=-1) used to end in NumPy's bare ValueError from the
    first suite that drew a random number."""
    def suite(seed):
        np.random.default_rng(seed)
        return SuiteResult("drawn", True, "ok")

    monkeypatch.setattr(verification, "ALL_SUITES", (suite,))
    with pytest.raises(ConfigError,
                       match="seed must be a non-negative integer"):
        verification.run_all(seed=seed, verbose=False)


# ---------------------------------------------------------------------------
# Suites 1, 2 and 10 and the Mindlin oracle work on whole batches.  The
# per-sample loops they replaced are kept here as references, and the
# batched results must equal them bit for bit.
# ---------------------------------------------------------------------------

def roundtrip_3d_per_sample(rng, n):
    worst = 0.0
    for _ in range(n):
        p = verification.random_admissible_material(rng)
        r = reciprocal_constants(p)
        s = Strain3D(gamma=rng.standard_normal((3, 3)),
                     chi=rng.standard_normal((3, 3)))
        t = stress_from_strain_3d(s, p)
        s2 = strain_from_stress_3d(t, r)
        scale = max(np.max(np.abs(s.gamma)), np.max(np.abs(s.chi)))
        err = max(np.max(np.abs(s2.gamma - s.gamma)),
                  np.max(np.abs(s2.chi - s.chi))) / scale
        worst = max(worst, err)
        t2 = stress_from_strain_3d(strain_from_stress_3d(t, r), p)
        scale_t = max(np.max(np.abs(t.sigma)), np.max(np.abs(t.mu_c)))
        err_t = max(np.max(np.abs(t2.sigma - t.sigma)),
                    np.max(np.abs(t2.mu_c - t.mu_c))) / scale_t
        worst = max(worst, err_t)
    return worst


def energy_minima_per_sample(rng, n):
    min_w = min_phi = np.inf
    for _ in range(n):
        p = verification.random_admissible_material(rng)
        s = Strain3D(gamma=rng.standard_normal((3, 3)),
                     chi=rng.standard_normal((3, 3)))
        w, _, _ = energy_densities_3d(s, p)
        min_w = min(min_w, float(w))
        tc = technical_constants(p, 0.2)
        phi = plate_energy_density(PlateStress(*rng.standard_normal(20)), tc)
        min_phi = min(min_phi, float(phi))
    return min_w, min_phi


def dispersion_min_w2_per_material(rng, n_materials, n_wavevectors):
    min_w2 = np.inf
    for _ in range(n_materials):
        p = verification.random_admissible_material(rng)
        h = rng.uniform(0.05, 0.5)
        tc = technical_constants(p, h)
        inertia = inertia_constants(p, h)
        ops = (build_flexural(tc, inertia), build_extensional(tc, inertia))
        ks = rng.uniform(-30.0, 30.0, size=(n_wavevectors, 2))
        for op in ops:
            w2, _ = wave_eigensystem(op.coeffs, op.mass, ks)
            min_w2 = min(min_w2, float(np.min(w2)))
    return min_w2


def _same_draws(batched, reference, seed, *sizes):
    """Both results from generators seeded alike, which must also end in
    the same state (the same draws were taken)."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = batched(rng, *sizes), reference(ref_rng, *sizes)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got, want


@pytest.mark.parametrize("seed,n", [(0, 1000), (5, 1), (6, 4)])
def test_roundtrip_batch_equals_per_sample_loop(seed, n):
    got, want = _same_draws(verification._roundtrip_3d_error,
                            roundtrip_3d_per_sample, seed, n)
    assert got == want


@pytest.mark.parametrize("seed,n", [(1, 1000), (5, 1), (6, 4)])
def test_energy_batch_equals_per_sample_loop(seed, n):
    got, want = _same_draws(verification._energy_minima,
                            energy_minima_per_sample, seed, n)
    assert got == want


@pytest.mark.parametrize("seed,n_materials,n_wavevectors",
                         [(9, 200, 50), (5, 1, 1), (6, 3, 7)])
def test_dispersion_batch_equals_per_material_calls(seed, n_materials,
                                                    n_wavevectors):
    got, want = _same_draws(verification._dispersion_min_w2,
                            dispersion_min_w2_per_material, seed,
                            n_materials, n_wavevectors)
    assert got == want


def test_stacked_3d_maps_equal_one_call_per_material(rng):
    """The batched maps and densities give each sample the bits of a call
    on that sample alone."""
    samples = [verification._draw_3d_sample(rng) for _ in range(5)]
    p, s = verification._stacked_3d_samples(samples)
    t = stress_from_strain_3d(s, p)
    back = strain_from_stress_3d(t, reciprocal_constants(p))
    densities = energy_densities_3d(s, p)
    for k, (mat, gamma, chi) in enumerate(samples):
        one = Strain3D(gamma=gamma, chi=chi)
        t1 = stress_from_strain_3d(one, mat)
        back1 = strain_from_stress_3d(t1, reciprocal_constants(mat))
        for a, b in ((t.sigma[k], t1.sigma), (t.mu_c[k], t1.mu_c),
                     (back.gamma[k], back1.gamma), (back.chi[k], back1.chi)):
            assert a.tobytes() == b.tobytes()
        assert [d[k] for d in densities] == \
            [float(d) for d in energy_densities_3d(one, mat)]


def test_batched_maps_check_every_material():
    p = MaterialParams(lam=np.array([1.0, 1.0]), mu=np.array([1.0, 1.0]),
                       alpha=np.array([1.0, -1.0]), beta=np.ones(2),
                       gamma=np.ones(2), epsilon=np.ones(2))
    s = Strain3D(gamma=np.zeros((2, 3, 3)), chi=np.zeros((2, 3, 3)))
    with pytest.raises(MaterialError, match="alpha>0"):
        stress_from_strain_3d(s, p)


def mindlin_assemble_per_entry(D, nu, S, a, b, nx, ny):
    """The textbook assembler, one ``add`` per matrix entry."""
    dx = a / (nx - 1)
    dy = b / (ny - 1)
    nn = nx * ny

    def node(i, j):
        return i * ny + j

    rows, cols, vals = [], [], []

    def add(r, c, w):
        rows.append(r)
        cols.append(c)
        vals.append(w)

    def lap_terms(cxx, cyy):
        return [((1, 0), cxx / dx**2), ((-1, 0), cxx / dx**2),
                ((0, 0), -2.0 * cxx / dx**2 - 2.0 * cyy / dy**2),
                ((0, 1), cyy / dy**2), ((0, -1), cyy / dy**2)]

    cross = [((1, 1), 1.0), ((-1, -1), 1.0), ((1, -1), -1.0), ((-1, 1), -1.0)]
    for i in range(nx):
        for j in range(ny):
            nij = node(i, j)
            if i in (0, nx - 1) or j in (0, ny - 1):
                for f in range(3):
                    add(f * nn + nij, f * nn + nij, 1.0)
                continue
            r = 0 * nn + nij
            for (di, dj), w in lap_terms(D, D * (1 - nu) / 2):
                add(r, 0 * nn + node(i + di, j + dj), w)
            for (di, dj), w in cross:
                add(r, 1 * nn + node(i + di, j + dj),
                    w * D * (1 + nu) / 2 / (4 * dx * dy))
            add(r, 0 * nn + nij, -S)
            add(r, 2 * nn + node(i + 1, j), -S / (2 * dx))
            add(r, 2 * nn + node(i - 1, j), S / (2 * dx))
            r = 1 * nn + nij
            for (di, dj), w in lap_terms(D * (1 - nu) / 2, D):
                add(r, 1 * nn + node(i + di, j + dj), w)
            for (di, dj), w in cross:
                add(r, 0 * nn + node(i + di, j + dj),
                    w * D * (1 + nu) / 2 / (4 * dx * dy))
            add(r, 1 * nn + nij, -S)
            add(r, 2 * nn + node(i, j + 1), -S / (2 * dy))
            add(r, 2 * nn + node(i, j - 1), S / (2 * dy))
            r = 2 * nn + nij
            for (di, dj), w in lap_terms(S, S):
                add(r, 2 * nn + node(i + di, j + dj), w)
            add(r, 0 * nn + node(i + 1, j), S / (2 * dx))
            add(r, 0 * nn + node(i - 1, j), -S / (2 * dx))
            add(r, 1 * nn + node(i, j + 1), S / (2 * dy))
            add(r, 1 * nn + node(i, j - 1), -S / (2 * dy))
    return sp.coo_matrix((vals, (rows, cols)), shape=(3 * nn, 3 * nn)).tocsr()


MINDLIN = dict(D=0.7, nu=0.3, S=2.5, a=1.0, b=1.3)


@pytest.mark.parametrize("nx,ny", [(5, 5), (9, 11), (17, 13)])
def test_mindlin_matrix_equals_per_entry_assembly(nx, ny):
    A, nn = oracles.mindlin_assemble(nx=nx, ny=ny, **MINDLIN)
    ref = mindlin_assemble_per_entry(nx=nx, ny=ny, **MINDLIN)
    assert nn == nx * ny
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_mindlin_deflection_loads_every_interior_node():
    """The right-hand side is -p on the w row of each interior node, and
    zero elsewhere, as the per-node loop set it.  Dropping one interior
    load entry moves w by far more than the 1e-12 allowed here."""
    nx, ny = 9, 7
    nn = nx * ny
    rhs = np.zeros(3 * nn)
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            rhs[2 * nn + i * ny + j] = -1.5
    A = mindlin_assemble_per_entry(nx=nx, ny=ny, **MINDLIN)
    want = spla.spsolve(A.tocsc(), rhs)[2 * nn:].reshape(nx, ny)
    center, w = oracles.mindlin_static_center_deflection(
        MINDLIN["D"], MINDLIN["nu"], MINDLIN["S"], 1.5, MINDLIN["a"],
        MINDLIN["b"], nx, ny)
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
    assert center == w[4, 3]


@pytest.mark.parametrize("nx,ny", [(17, 17), (33, 33), (13, 21)])
def test_banded_oracle_matches_spsolve_on_the_full_matrix(nx, ny):
    """The band Cholesky of the interior block gives the deflection of a
    sparse LU solve of the whole ``mindlin_assemble`` matrix, boundary
    identity rows included.  The LU solve gets one step of iterative
    refinement: unrefined it is the less accurate of the two, 5.3e-12 off
    an extended-precision solution at 33^2 against 4e-15 for the band."""
    A, nn = oracles.mindlin_assemble(nx=nx, ny=ny, **MINDLIN)
    rhs = np.zeros((3, nx, ny))
    rhs[2, 1:-1, 1:-1] = -0.8
    A, rhs = A.tocsc(), rhs.ravel()
    x = spla.spsolve(A, rhs)
    x += spla.spsolve(A, rhs - A @ x)
    want = x[2 * nn:].reshape(nx, ny)
    _, w = oracles.mindlin_static_center_deflection(
        MINDLIN["D"], MINDLIN["nu"], MINDLIN["S"], 0.8, MINDLIN["a"],
        MINDLIN["b"], nx, ny)
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))


def test_oracle_interior_order_has_the_narrowest_band():
    """Three fields per node, lines along the shorter side: the interior
    block's half-bandwidth is 3 (line length + 1) + 1."""
    for nx, ny in ((9, 7), (7, 9)):
        A, _ = oracles.mindlin_assemble(nx=nx, ny=ny, **MINDLIN)
        dofs = oracles._mindlin_interior_dofs(nx, ny)
        assert np.array_equal(np.sort(dofs), np.sort(np.concatenate(
            [f * nx * ny + np.arange(nx * ny).reshape(nx, ny)[1:-1, 1:-1]
             .ravel() for f in range(3)])))
        kd = 3 * (5 + 1) + 1  # the 7 x 5 interior's lines hold 5 nodes
        assert oracles._lower_band(A[dofs][:, dofs]).shape == \
            (kd + 1, dofs.size)


def test_oracles_import_nothing_from_dynamics():
    """The Mindlin oracle checks the static solver, so it must not share
    its code: ``oracles.py`` imports nothing from ``cosserat_plate.dynamics``."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is relative to cosserat_plate
            module = ".".join(part for part in (
                "cosserat_plate" if node.level else "", node.module) if part)
            imported += [module] + [f"{module}.{alias.name}"
                                    for alias in node.names]
    assert imported
    assert not [m for m in imported
                if re.match(r"cosserat_plate\.dynamics\b", m)]


def test_classical_limit_assembles_only_the_shared_solution(monkeypatch):
    """Suite 6 reads the constants and the plane-wave operator without a
    grid; its one assembly is the static solution's."""
    calls = []
    assemble = verification.assemble

    def counting_assemble(cfg):
        calls.append((cfg.nx, cfg.ny))
        return assemble(cfg)

    monkeypatch.setattr(verification, "assemble", counting_assemble)
    verification._classical_solution.cache_clear()
    try:
        assert verification.suite_classical_limit().passed
    finally:
        verification._classical_solution.cache_clear()
    assert calls == [(65, 65)]


def test_lowest_flexural_mode_is_reproducible():
    """ARPACK starts from a fixed vector, so two calls on one model return
    bitwise-equal frequencies and modes, and criterion 08 starts from the
    same state in every run."""
    from cosserat_plate.dynamics import EDGES, ModelConfig, assemble
    from cosserat_plate.material import material_from_technical

    mat = material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                  Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=13,
                                 ny=11, bc={e: "clamped" for e in EDGES}))
    (w_a, mode_a), (w_b, mode_b) = (verification.lowest_flexural_mode(model)
                                    for _ in range(2))
    assert w_a == w_b
    assert np.array_equal(mode_a.view(np.int64), mode_b.view(np.int64))


@pytest.mark.parametrize("nx,ny", [(17, 17), (13, 11), (16, 16)])
def test_lowest_flexural_mode_lies_in_one_mirror_class(nx, ny):
    """On a clamped plate both mirrors commute with K and M, so the mode
    is solved per class of the pair: its frequency is the whole system's
    to 1e-12, and the mode lies bit for bit in one class of each mirror
    (x[M k] == sigma s_k x[k]), with the whole system's
    M-normalisation."""
    from cosserat_plate.dynamics import EDGES, ModelConfig, assemble
    from cosserat_plate.dynamics.mirror import mirror_of
    from cosserat_plate.material import material_from_technical

    mat = material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                  Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=nx,
                                 ny=ny, bc={e: "clamped" for e in EDGES}))
    omega, mode = verification.lowest_flexural_mode(model)
    d = model.flex_d
    K = (-d.A[d.free_dofs][:, d.free_dofs]).tocsc()
    w2, _ = spla.eigsh(K, k=1, M=sp.diags(d.mass_free), sigma=0.0,
                       which="LM", v0=np.ones(K.shape[0]))
    assert abs(omega - np.sqrt(w2[0])) <= 1e-12 * np.sqrt(w2[0])
    for axis in (0, 1):
        m = mirror_of(d, d.free_dofs, axis)
        assert [m.holds(mode, sigma)
                for sigma in (1.0, -1.0)].count(True) == 1, axis
    assert abs(mode @ (d.mass_free * mode) - 1.0) <= 1e-12
