import numpy as np
import pytest

from conftest import random_material
from quadrature_oracles import (
    OMEGA3_INERTIA_QUADRATURE,
    kinetic_density_quadrature,
)
from cosserat_plate.material import MaterialParams
from cosserat_plate.plate_fields import (
    InertiaSet,
    K4_STAR,
    PlateKinematics,
    inertia_constants,
    kinetic_density,
    kinetic_energy_density,
    weighted_from_microrotation,
)

UNIT = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1,
                      rho=1, J=(1, 1, 1))


class TestInertia:
    def test_unit_values(self):
        I = inertia_constants(UNIT, h=1.0)
        assert I.I_o == pytest.approx(1 / 12)
        assert I.rho_o == pytest.approx(1.0)
        assert I.I_o1 == pytest.approx(5 / 6)
        assert I.I_o2 == pytest.approx(5 / 6)
        assert I.J3_s == pytest.approx(25 / 32)
        assert I.I_o3 == pytest.approx(1.0)

    def test_thickness_scaling(self):
        I1 = inertia_constants(UNIT, h=0.2)
        I2 = inertia_constants(UNIT, h=0.4)
        assert I2.I_o == pytest.approx(8 * I1.I_o)
        assert I2.rho_o == pytest.approx(2 * I1.rho_o)
        assert I2.J3_s == pytest.approx(8 * I1.J3_s)

    def test_zero_density_keeps_micro_terms(self):
        p = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1,
                           rho=0.0, J=(2, 3, 4))
        I = inertia_constants(p, h=1.0)
        assert I.I_o == 0.0 and I.rho_o == 0.0
        assert I.I_o1 == pytest.approx(5 / 3)
        assert I.I_o3 == pytest.approx(4.0)

    def test_mass_vectors(self):
        I = inertia_constants(UNIT, h=1.0)
        np.testing.assert_allclose(
            I.flexural_mass(), [1 / 12, 1 / 12, 1.0, 25 / 32, 5 / 6, 5 / 6]
        )
        np.testing.assert_allclose(I.extensional_mass(), [1.0, 1.0, 1.0])


class TestWeightedAverages:
    def test_examples(self):
        o1, o2, o3, o30 = weighted_from_microrotation(1.0, 0.0, 0.0, 0.0, h=0.5)
        assert o1 == pytest.approx(0.8) and o2 == 0.0 and o3 == 0.0

        h = 0.37
        _, _, o3, _ = weighted_from_microrotation(0, 0, 0, h, h=h)
        assert o3 == pytest.approx(1.6)

        out = weighted_from_microrotation(0.0, 0.0, 0.0, 0.0, h=1.0)
        assert all(v == 0.0 for v in out)

    def test_linear_homogeneous(self, rng):
        args = rng.standard_normal(4)
        h = 0.21
        base = weighted_from_microrotation(*args, h=h)
        scaled = weighted_from_microrotation(*(3.5 * args), h=h)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(3.5 * b)


class TestKineticDensity:
    def test_zero_motion(self):
        I = inertia_constants(UNIT, h=1.0)
        z = PlateKinematics()
        assert kinetic_density(z, z, I) == 0.0
        assert kinetic_energy_density(z, I) == 0.0

    def test_single_term(self):
        I = inertia_constants(UNIT, h=1.0)  # rho_o = 1
        v = PlateKinematics(w=1.0)
        assert kinetic_energy_density(v, I) == pytest.approx(0.5)

    def test_positive_semidefinite(self, rng):
        p = random_material(rng)
        I = inertia_constants(p, h=0.3)
        for _ in range(50):
            v = PlateKinematics(*rng.standard_normal(9))
            assert kinetic_energy_density(v, I) >= 0.0

    def test_quadrature_oracle_all_but_omega3(self, rng):
        """Brute-force thickness integration matches the inertia set on
        every field except Omega3 (known tabulated-vs-profile mismatch)."""
        p = random_material(rng)
        h = 0.29
        I = inertia_constants(p, h)
        vals = rng.standard_normal(9)
        v = PlateKinematics(*vals)
        v_no3 = PlateKinematics(**{
            n: getattr(v, n) for n in
            ("psi1", "psi2", "w", "omega1_0", "omega2_0", "u1", "u2",
             "omega3_0")
        })
        ke = kinetic_energy_density(v_no3, I)
        oracle = kinetic_density_quadrature(v_no3, p, h)
        assert float(oracle) == pytest.approx(float(ke), rel=1e-12)

    def test_omega3_quadrature_ratio(self, rng):
        """The Omega3 inertia weight integrates to (85/1008) J3 h^3; the
        tabulated value is (25/32) J3 h^3, ratio 315/34 exactly."""
        p = random_material(rng)
        h = 0.4
        I = inertia_constants(p, h)
        v = PlateKinematics(omega3=1.3)
        ke_tab = kinetic_energy_density(v, I)
        ke_orc = kinetic_density_quadrature(v, p, h)
        assert float(ke_orc) == pytest.approx(
            0.5 * OMEGA3_INERTIA_QUADRATURE * p.J[2] * h**3 * 1.3**2, rel=1e-12
        )
        assert float(ke_tab) / float(ke_orc) == pytest.approx(315.0 / 34.0,
                                                              rel=1e-12)
        assert K4_STAR == pytest.approx((315.0 / 34.0) * OMEGA3_INERTIA_QUADRATURE)

    def test_bilinear_matches_quadratic_on_diagonal(self, rng):
        p = random_material(rng)
        I = inertia_constants(p, h=0.3)
        v = PlateKinematics(*rng.standard_normal(9))
        assert kinetic_density(v, v, I) == pytest.approx(
            2.0 * kinetic_energy_density(v, I), rel=1e-14
        )

    def test_array_fields(self, rng):
        I = inertia_constants(UNIT, h=1.0)
        w = rng.standard_normal((4, 5))
        v = PlateKinematics(w=w)
        np.testing.assert_allclose(kinetic_energy_density(v, I), 0.5 * w**2)
