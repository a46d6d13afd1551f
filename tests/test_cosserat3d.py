import numpy as np
import pytest
from hypothesis import given, settings

from conftest import admissible_materials, random_material
from cosserat_plate.cosserat3d import (
    Strain3D,
    Stress3D,
    energy_densities_3d,
    strain_from_stress_3d,
    stress_from_strain_3d,
)
from cosserat_plate.material import MaterialParams, reciprocal_constants

ONES = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1)


def constitutive_matrices(p: MaterialParams):
    """(A_sigma, A_mu): 9x9 matrices acting on row-major flattened tensors.

    Assembled index-by-index from the Kronecker-delta structure of the
    isotropic law, independent of the tensor-expression implementation.
    """
    def assemble(c_sym, c_skw, c_tr):
        A = np.zeros((9, 9))
        for j in range(3):
            for i in range(3):
                for l in range(3):
                    for k in range(3):
                        val = 0.0
                        if j == l and i == k:
                            val += c_sym
                        if j == k and i == l:
                            val += c_skw
                        if j == i and l == k:
                            val += c_tr
                        A[3 * j + i, 3 * l + k] = val
        return A

    A_sigma = assemble(p.mu + p.alpha, p.mu - p.alpha, p.lam)
    A_mu = assemble(p.gamma + p.epsilon, p.gamma - p.epsilon, p.beta)
    return A_sigma, A_mu


def test_zero_maps_to_zero():
    s = Strain3D(gamma=np.zeros((3, 3)), chi=np.zeros((3, 3)))
    t = stress_from_strain_3d(s, ONES)
    assert np.all(t.sigma == 0.0) and np.all(t.mu_c == 0.0)


def test_identity_strain_symmetric_case():
    # gamma = 1: alpha terms cancel, sigma = (2 mu + 3 lambda) 1 = 5 * 1
    for alpha in (0.2, 1.0, 3.0):
        p = MaterialParams(lam=1, mu=1, alpha=alpha, beta=1, gamma=1, epsilon=1)
        s = Strain3D(gamma=np.eye(3), chi=np.zeros((3, 3)))
        t = stress_from_strain_3d(s, p)
        np.testing.assert_allclose(t.sigma, 5.0 * np.eye(3), atol=1e-14)


def test_identity_stress_inverse_value():
    # sigma = 1, lambda = mu = 1: gamma = (2 mu' + 3 lambda') 1 = 0.2 * 1
    r = reciprocal_constants(ONES)
    t = Stress3D(sigma=np.eye(3), mu_c=np.zeros((3, 3)))
    s = strain_from_stress_3d(t, r)
    np.testing.assert_allclose(s.gamma, 0.2 * np.eye(3), atol=1e-14)


def test_matches_matrix_oracle(rng):
    for _ in range(50):
        p = random_material(rng)
        A_sigma, A_mu = constitutive_matrices(p)
        g = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        t = stress_from_strain_3d(Strain3D(gamma=g, chi=c), p)
        np.testing.assert_allclose(t.sigma.ravel(), A_sigma @ g.ravel(),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(t.mu_c.ravel(), A_mu @ c.ravel(),
                                   rtol=1e-13, atol=1e-13)


def test_unit_coefficient_matrix_form(rng):
    # with every modulus 1 the map is 2*t + tr(t)*1 on each tensor
    g = rng.standard_normal((3, 3))
    t = stress_from_strain_3d(Strain3D(gamma=g, chi=0 * g), ONES)
    np.testing.assert_allclose(t.sigma, 2 * g + np.trace(g) * np.eye(3),
                               atol=1e-14)


def test_round_trip_1000(rng):
    worst = 0.0
    for _ in range(1000):
        p = random_material(rng)
        r = reciprocal_constants(p)
        s = Strain3D(gamma=rng.standard_normal((3, 3)),
                     chi=rng.standard_normal((3, 3)))
        t = stress_from_strain_3d(s, p)
        s2 = strain_from_stress_3d(t, r)
        t2 = stress_from_strain_3d(s2, p)
        scale = max(np.max(np.abs(s.gamma)), np.max(np.abs(s.chi)))
        worst = max(
            worst,
            np.max(np.abs(s2.gamma - s.gamma)) / scale,
            np.max(np.abs(s2.chi - s.chi)) / scale,
            np.max(np.abs(t2.sigma - t.sigma)) / max(np.max(np.abs(t.sigma)), scale),
        )
    assert worst <= 1e-12


def test_batched_tensors(rng):
    p = random_material(rng)
    g = rng.standard_normal((7, 3, 3))
    c = rng.standard_normal((7, 3, 3))
    t = stress_from_strain_3d(Strain3D(gamma=g, chi=c), p)
    assert t.sigma.shape == (7, 3, 3)
    one = stress_from_strain_3d(Strain3D(gamma=g[3], chi=c[3]), p)
    np.testing.assert_allclose(t.sigma[3], one.sigma, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(admissible_materials(with_inertia=False))
def test_energy_identities(p):
    rng = np.random.default_rng(0)
    s = Strain3D(gamma=rng.standard_normal((3, 3)),
                 chi=rng.standard_normal((3, 3)))
    w, phi, work = energy_densities_3d(s, p)
    assert w > 0.0
    assert phi == pytest.approx(w, rel=1e-12)
    assert work == pytest.approx(2.0 * w, rel=1e-12)


def test_zero_strain_zero_energy():
    s = Strain3D(gamma=np.zeros((3, 3)), chi=np.zeros((3, 3)))
    w, phi, work = energy_densities_3d(s, ONES)
    assert w == 0.0 and phi == 0.0 and work == 0.0


def test_energy_definite_only_when_admissible():
    # epsilon < 0 breaks positivity for a chi-dominated state
    bad = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=0.1, epsilon=-0.5)
    chi = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0]])
    w = 0.5 * ((bad.gamma + bad.epsilon) * 2 + (bad.gamma - bad.epsilon) * (-2))
    s = Strain3D(gamma=np.zeros((3, 3)), chi=chi)
    from cosserat_plate.cosserat3d import strain_energy_density

    assert strain_energy_density(s, bad) == pytest.approx(w)
    assert strain_energy_density(s, bad) < 0.0
