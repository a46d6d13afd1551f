import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_material
from cosserat_plate import dispersion
from cosserat_plate.dispersion import (
    NonConservativeSymbolError,
    cutoff_frequencies,
    default_wavevectors,
    dispersion_curves,
    wave_eigensystem,
)
from cosserat_plate.material import material_from_technical, technical_constants
from cosserat_plate.oracles import mindlin_dispersion
from cosserat_plate.operators import (build_extensional,
                                      build_extensional_stack, build_flexural,
                                      build_flexural_stack, wave_matrices)
from cosserat_plate.plate_fields import inertia_constants


def make_ops(p, h):
    tc = technical_constants(p, h)
    inertia = inertia_constants(p, h)
    return tc, inertia, build_flexural(tc, inertia), build_extensional(tc, inertia)


@pytest.fixture
def classical_ops():
    p = material_from_technical(E=1.0, nu=0.3, N=1e-8, l_t=0.01, l_b=0.01,
                                Psi=1.0, rho=1.0, J=(1, 1, 1))
    return make_ops(p, 0.1)


@pytest.fixture
def micro_ops(rng):
    return make_ops(random_material(rng), 0.2)


def test_w_zero_mode_at_zero_wavevector(micro_ops):
    _, _, flex, _ = micro_ops
    rep = cutoff_frequencies(flex)
    assert "w" in rep.zero_mode_fields
    assert rep.frequencies[0] == 0.0


def test_shear_cutoff_classical(classical_ops):
    tc, inertia, flex, _ = classical_ops
    rep = cutoff_frequencies(flex)
    expected = math.sqrt((5 * tc.G * tc.h / 6) / inertia.I_o)
    # two rotation branches carry the shear cutoff
    top = np.sort(rep.frequencies)[-2:]
    np.testing.assert_allclose(top, expected, rtol=1e-8)


def test_classical_branches_match_mindlin(classical_ops):
    import scipy.linalg

    tc, inertia, flex, _ = classical_ops
    S = tc.kappa1_sq * tc.G * tc.h
    for k in (0.5, 2.0, 10.0, 40.0):
        A = wave_matrices(flex.coeffs, [[k, 0.0]])[0]
        M = np.diag(flex.mass)
        w2, vecs = scipy.linalg.eigh(A, M)
        support = np.sum(np.abs(vecs[:3, :]) ** 2, axis=0) / np.sum(
            np.abs(vecs) ** 2, axis=0
        )
        classical = np.sort(np.sqrt(np.clip(w2[support > 0.5], 0, None)))
        ref = mindlin_dispersion(tc.D, tc.nu, S, inertia.I_o, inertia.rho_o, k)
        assert classical.size == 3
        np.testing.assert_allclose(classical, ref, rtol=1e-8)


def test_evenness(micro_ops, rng):
    _, _, flex, ext = micro_ops
    for _ in range(5):
        xi = rng.standard_normal(2) * 5
        r1 = dispersion_curves(flex, ext, [xi])
        r2 = dispersion_curves(flex, ext, [-xi])
        np.testing.assert_allclose(r1.flexural, r2.flexural, rtol=1e-10)
        np.testing.assert_allclose(r1.extensional, r2.extensional, rtol=1e-10)


def test_branch_continuity(micro_ops):
    _, _, flex, ext = micro_ops
    mags = np.linspace(0.1, 20.0, 200)
    xi = np.stack([mags, 0.3 * mags], axis=1)
    res = dispersion_curves(flex, ext, xi)
    jumps = np.abs(np.diff(res.flexural, axis=0))
    dk = np.linalg.norm(np.diff(xi, axis=0), axis=1)
    slope = jumps / dk[:, None]
    # group-velocity-like bound: no ordering artifacts beyond a smooth slope
    assert np.max(slope) < 50.0 * np.median(slope + 1e-12)


def test_positivity_random_sweep(rng):
    for _ in range(20):
        p = random_material(rng)
        _, _, flex, ext = make_ops(p, rng.uniform(0.05, 0.5))
        xi = rng.uniform(-20, 20, size=(10, 2))
        res = dispersion_curves(flex, ext, xi)
        assert np.all(res.flexural >= 0.0)
        assert np.all(res.extensional >= 0.0)


def test_extensional_cutoffs(classical_ops, rng):
    # N ~ 0: all three cutoffs vanish (the drilling cutoff scales with N)
    _, _, _, ext0 = classical_ops
    rep = cutoff_frequencies(ext0)
    assert rep.zero_mode_count >= 2
    assert np.max(rep.frequencies) < 1e-6

    # N > 0: the drilling microrotation picks up the cutoff 2 sqrt(alpha/J3)
    p = random_material(rng)
    _, _, _, ext = make_ops(p, 0.3)
    rep = cutoff_frequencies(ext)
    assert rep.zero_mode_count == 2
    expected = 2.0 * math.sqrt(p.alpha / p.J[2])
    assert rep.frequencies[-1] == pytest.approx(expected, rel=1e-10)


def test_flexural_cutoffs_monotone_in_n(rng):
    base = dict(E=1.0, nu=0.3, l_t=0.05, l_b=0.05, Psi=1.0, rho=1.0,
                J=(1.0, 1.0, 1.0))
    prev = None
    for N in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = material_from_technical(N=N, **base)
        _, _, flex, _ = make_ops(p, 0.1)
        rep = cutoff_frequencies(flex)
        micro = np.sort(rep.frequencies)[1:4]  # nonzero micropolar cutoffs
        if prev is not None:
            assert np.all(micro >= prev - 1e-12)
        prev = micro


def test_modes_deterministic_phase(micro_ops):
    _, _, flex, ext = micro_ops
    res = dispersion_curves(flex, ext, [[1.3, 0.4]], with_modes=True)
    modes = res.flexural_modes[0]
    for j in range(6):
        i = np.argmax(np.abs(modes[:, j]))
        pivot = modes[i, j]
        assert abs(pivot.imag) < 1e-12 * abs(pivot)
        assert pivot.real > 0


def _reference_phase(vecs):
    """Per-column loop form of the phase rule: the first component within
    1e-8 of the largest in magnitude is made real and positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        mag = np.abs(out[:, j])
        i = np.flatnonzero(mag >= (1.0 - 1e-8) * mag.max())[0]
        out[:, j] *= np.conj(out[i, j]) / abs(out[i, j])
    return out


def test_batched_path_matches_per_wavevector_reference(micro_ops, rng):
    import scipy.linalg

    _, _, flex, ext = micro_ops
    xi = np.vstack([rng.uniform(-20.0, 20.0, size=(40, 2)),
                    [[0.0, 0.0], [0.53, 0.53], [2.0, -2.0], [7.5, 0.0]]])
    for op in (flex, ext):
        w2, modes = wave_eigensystem(op.coeffs, op.mass, xi, with_modes=True)
        for i, (k1, k2) in enumerate(xi):
            w2_ref, v_ref = scipy.linalg.eigh(
                wave_matrices(op.coeffs, [[k1, k2]])[0], np.diag(op.mass))
            v_ref = _reference_phase(v_ref)
            top = np.max(np.abs(w2_ref))
            assert np.max(np.abs(w2[i] - w2_ref)) <= 1e-12 * top
            gaps = np.abs(np.diff(w2_ref)) / top
            gap = np.minimum(np.append(gaps, np.inf), np.append(np.inf, gaps))
            for j in np.flatnonzero(gap > 1e-8):
                # eigenvector roundoff grows like eps / relative gap
                tol = max(1e-10, 1e-13 / gap[j]) * np.linalg.norm(v_ref[:, j])
                assert np.linalg.norm(modes[i][:, j] - v_ref[:, j]) <= tol


def test_mode_phase_ties_break_to_first_component():
    """On the diagonals |Omega1_0| = |Omega2_0| in exact arithmetic, so the
    pivot of a mode must not be left to roundoff."""
    p = material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                Psi=0.8, rho=1.0, J=(1.0, 1.0, 1.0))
    _, _, flex, ext = make_ops(p, 0.1)
    res = dispersion_curves(flex, ext, [[0.53, 0.53], [0.53, -0.53]],
                            with_modes=True)
    for modes in (*res.flexural_modes, *res.extensional_modes):
        np.testing.assert_allclose(modes, _reference_phase(modes),
                                   rtol=0, atol=1e-12)


def test_non_hermitian_symbol_raises(micro_ops):
    _, _, flex, _ = micro_ops
    bad_coeffs = flex.coeffs.copy()
    bad_coeffs[0, 5, 0] *= -1.0  # break the zero-order symmetry
    bad = dataclasses.replace(flex, coeffs=bad_coeffs)
    with pytest.raises(NonConservativeSymbolError,
                       match=r"not Hermitian.* at k=\(0\.5, 0\.25\)"):
        dispersion_curves(bad, flex, [[0.5, 0.25], [0.0, 0.0]])


def test_negative_squared_frequency_raises(micro_ops):
    """A Hermitian but indefinite symbol: W stiffens the wrong way."""
    _, _, flex, ext = micro_ops
    bad_coeffs = flex.coeffs.copy()
    bad_coeffs[2, 2] *= -1.0
    bad = dataclasses.replace(flex, coeffs=bad_coeffs)
    with pytest.raises(NonConservativeSymbolError,
                       match=r"negative squared frequency .* at k=\(0\.5, 0\.0\)"):
        dispersion_curves(bad, ext, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])


def test_non_finite_wavevector_raises(micro_ops):
    _, _, flex, ext = micro_ops
    with pytest.raises(ValueError, match="finite"):
        dispersion_curves(flex, ext, [[1.0, 0.0], [np.nan, 0.0]])


def test_default_wavevectors_shape():
    xi = default_wavevectors(n=30)
    assert xi.shape[1] == 2
    assert np.all(np.linalg.norm(xi, axis=1) > 0)


def _stack(build, rng, n_tables):
    ps = [random_material(rng) for _ in range(n_tables)]
    return build([technical_constants(p, 0.2) for p in ps],
                 [inertia_constants(p, 0.2) for p in ps])


@pytest.mark.parametrize("with_modes", [False, True])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "own"])
@pytest.mark.parametrize("build", [build_flexural_stack,
                                   build_extensional_stack])
def test_stacked_solve_equals_per_table_solves(rng, build, shared,
                                               with_modes):
    """One call on a stack of tables gives each table the bits of a call
    on that table alone, with shared or per-table wavevectors."""
    coeffs, mass = _stack(build, rng, 4)
    xi = rng.uniform(-30.0, 30.0, size=(5, 2) if shared else (4, 5, 2))
    w2, modes = wave_eigensystem(coeffs, mass, xi, with_modes)
    assert w2.shape == (4, 5, mass.shape[1])
    assert (modes is None) == (not with_modes)
    for t in range(4):
        w2_t, modes_t = wave_eigensystem(coeffs[t], mass[t],
                                         xi if shared else xi[t], with_modes)
        assert np.array_equal(w2[t].view(np.int64), w2_t.view(np.int64))
        if with_modes:
            assert np.array_equal(modes[t].view(np.int64),
                                  modes_t.view(np.int64))


@pytest.mark.parametrize("entry,message", [
    ((0, 5, 0), "wave matrix not Hermitian"),    # breaks the symmetry
    ((2, 2), "negative squared frequency"),      # W stiffens the wrong way
])
def test_stacked_solve_names_the_broken_table(rng, entry, message):
    coeffs, mass = _stack(build_flexural_stack, rng, 3)
    coeffs[(1, *entry)] *= -1.0
    xi = rng.uniform(0.5, 2.0, size=(3, 4, 2))
    where = re.escape(f"material 1, k=({xi[1, 0, 0]}, {xi[1, 0, 1]})")
    with pytest.raises(NonConservativeSymbolError,
                       match=rf"^{message} .*at {where}(:|$)"):
        wave_eigensystem(coeffs, mass, xi, where=lambda i: f"material {i}")


_DENSE_EIGENSOLVERS = {f"{lib}.{f}" for lib in ("numpy.linalg", "scipy.linalg")
                       for f in ("eig", "eigh", "eigvals", "eigvalsh")}


def _dense_eigensolver_calls(path: Path):
    """(function, line) of each call in the module at ``path`` to a dense
    eigensolver of NumPy or SciPy, through whatever name it was imported
    under."""
    tree = ast.parse(path.read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = a.name
                else:
                    top = a.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return names.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return ""

    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and dotted(node.func) in \
                _DENSE_EIGENSOLVERS:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_plane_wave_eigensolves_only_in_wave_eigensystem():
    """``wave_eigensystem`` is the one dense eigensolve in the package, so
    its checks cover every plane-wave problem."""
    src = Path(dispersion.__file__).parent
    calls = {str(path.relative_to(src)): found
             for path in sorted(src.rglob("*.py"))
             if (found := _dense_eigensolver_calls(path))}
    assert set(calls) == {"dispersion.py"}
    assert {f for f, _ in calls["dispersion.py"]} == {"wave_eigensystem"}
