import numpy as np
import pytest

from conftest import random_material
from quadrature_oracles import strain_profiles, work_density_quadrature
from cosserat_plate.material import MaterialParams, technical_constants
from cosserat_plate.plate_constitutive import (
    internal_work_density,
    plate_energy_density,
    resultants_from_profiles,
    strain_from_kinematics,
    strain_from_stress,
    stress_from_kinematics,
    thickness_profiles,
)
from cosserat_plate.plate_fields import (
    LoadSet,
    PlateKinematics,
    PlateStress,
    STRAIN_FIELDS,
)

UNIT = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1)
ZK = PlateKinematics()


def rand_kin(rng):
    return (PlateKinematics(*rng.standard_normal(9)),
            PlateKinematics(*rng.standard_normal(9)),
            PlateKinematics(*rng.standard_normal(9)))


class TestStrainFromKinematics:
    def test_constant_deflection_strain_free(self):
        e = strain_from_kinematics(PlateKinematics(w=3.0), ZK, ZK)
        assert all(np.all(np.asarray(getattr(e, n)) == 0.0)
                   for n in STRAIN_FIELDS)

    def test_constant_rotation(self):
        e = strain_from_kinematics(PlateKinematics(psi1=1.0), ZK, ZK)
        assert e.omega1 == 1.0
        assert e.omega1_s == 0.0
        assert e.e11 == e.e12 == e.e21 == e.e22 == 0.0

    def test_constant_omega3_levi_civita(self):
        e = strain_from_kinematics(PlateKinematics(omega3=2.5), ZK, ZK)
        assert e.e12 == 2.5
        assert e.e21 == -2.5
        assert e.tau31 == 0.0 and e.tau32 == 0.0

    def test_rigid_motion_strain_free(self):
        """Rigid plate tilt with the matching rigid microrotation stores no
        strain: Psi1 = theta, W = -theta x1, Omega2_0 = -theta."""
        theta = 0.7
        u = PlateKinematics(psi1=theta, omega2_0=-theta)
        d1 = PlateKinematics(w=-theta)
        e = strain_from_kinematics(u, d1, ZK)
        assert all(abs(float(np.asarray(getattr(e, n)))) < 1e-15
                   for n in STRAIN_FIELDS)

    def test_in_plane_rigid_rotation_strain_free(self):
        """u1 = -theta x2, u2 = theta x1 with Omega3_0 = -theta."""
        theta = 1.1
        u = PlateKinematics(omega3_0=-theta)
        d1 = PlateKinematics(u2=theta)
        d2 = PlateKinematics(u1=-theta)
        e = strain_from_kinematics(u, d1, d2)
        assert abs(e.upsilon12) < 1e-15 and abs(e.upsilon21) < 1e-15


class TestStressFromKinematics:
    def test_zero_everything(self):
        s = stress_from_kinematics(ZK, ZK, ZK, technical_constants(UNIT, 1.0))
        assert np.all(s.as_array() == 0.0)

    def test_pressure_moment_example(self):
        tc = technical_constants(UNIT, 1.0)  # nu = 0.25
        s = stress_from_kinematics(ZK, ZK, ZK, tc, LoadSet(p=1.0))
        assert s.M11 == pytest.approx(1.0 / 30.0)
        assert s.M22 == pytest.approx(1.0 / 30.0)
        assert s.M12 == 0.0 and s.Q1 == 0.0 and s.N11 == 0.0

    def test_roundtrip_against_compliance(self, rng):
        worst = 0.0
        for _ in range(100):
            p = random_material(rng)
            tc = technical_constants(p, rng.uniform(0.05, 0.5))
            u, d1, d2 = rand_kin(rng)
            e0 = strain_from_kinematics(u, d1, d2).as_array()
            s = stress_from_kinematics(u, d1, d2, tc)
            e1 = strain_from_stress(s, tc).as_array()
            worst = max(worst, np.max(np.abs(e1 - e0)) / np.max(np.abs(e0)))
        assert worst <= 1e-10

    def test_load_terms_pair_exactly(self, rng):
        """With loads on, the compliance with div Q* = -p inverts the
        stiffness exactly (the affine terms cancel)."""
        p = random_material(rng)
        tc = technical_constants(p, 0.23)
        loads = LoadSet(p=0.7, sigma0=-1.1, v=0.4, t=0.9)
        u, d1, d2 = rand_kin(rng)
        e0 = strain_from_kinematics(u, d1, d2).as_array()
        s = stress_from_kinematics(u, d1, d2, tc, loads)
        e1 = strain_from_stress(s, tc, loads, div_qs=-loads.p).as_array()
        np.testing.assert_allclose(e1, e0, rtol=1e-10, atol=1e-12)


class TestStrainFromStress:
    def test_zero(self):
        tc = technical_constants(UNIT, 1.0)
        e = strain_from_stress(PlateStress(), tc)
        assert np.all(e.as_array() == 0.0)

    def test_couple_moment_example(self):
        tc = technical_constants(UNIT, 1.0)  # gamma = epsilon = 1, h = 1
        e = strain_from_stress(PlateStress(S1_s=1.0), tc)
        assert e.tau31 == pytest.approx(6.0)
        assert e.tau32 == 0.0


class TestEnergyDensity:
    def test_zero(self):
        tc = technical_constants(UNIT, 1.0)
        assert plate_energy_density(PlateStress(), tc) == 0.0

    def test_in_plane_force_example(self):
        tc = technical_constants(UNIT, 1.0)
        phi = plate_energy_density(PlateStress(N11=1.0), tc)
        assert phi == pytest.approx(0.2)

    def test_quadratic_consistency(self, rng):
        for _ in range(100):
            p = random_material(rng)
            tc = technical_constants(p, rng.uniform(0.05, 0.5))
            s = PlateStress(*rng.standard_normal(20))
            phi = plate_energy_density(s, tc)
            e = strain_from_stress(s, tc)
            assert float(phi) == pytest.approx(
                0.5 * float(internal_work_density(s, e)), rel=1e-10
            )

    def test_positive_definite(self, rng):
        for _ in range(200):
            p = random_material(rng)
            tc = technical_constants(p, rng.uniform(0.05, 0.5))
            s = PlateStress(*rng.standard_normal(20))
            assert plate_energy_density(s, tc) > 0.0


class TestInternalWork:
    def test_zero_arguments(self, rng):
        from cosserat_plate.plate_fields import PlateStrain

        e = PlateStrain(*rng.standard_normal(20))
        s = PlateStress(*rng.standard_normal(20))
        assert internal_work_density(PlateStress(), e) == 0.0
        assert internal_work_density(s, PlateStrain()) == 0.0

    def test_single_product(self):
        from cosserat_plate.plate_fields import PlateStrain

        s = PlateStress(M11=2.0)
        e = PlateStrain(e11=3.0)
        assert internal_work_density(s, e) == pytest.approx(6.0)

    def test_thickness_quadrature_oracle(self, rng):
        """S . E equals the thickness-integrated 3D work for independent
        random resultants and kinematics (zero face couple mean)."""
        for _ in range(20):
            p = random_material(rng)
            h = rng.uniform(0.1, 0.5)
            u, d1, d2 = rand_kin(rng)
            s = PlateStress(*rng.standard_normal(20))
            loads = LoadSet(p=rng.standard_normal(), sigma0=rng.standard_normal(),
                            v=rng.standard_normal(), t=0.0)
            e = strain_from_kinematics(u, d1, d2)
            w_plate = float(internal_work_density(s, e))
            w_3d = float(work_density_quadrature(s, loads, u, d1, d2, h))
            assert w_3d == pytest.approx(w_plate, rel=1e-12, abs=1e-12)

    def test_face_couple_mean_correction(self, rng):
        """With t != 0 the 3D work carries the extra (5h/6) t Omega3 term
        (the mu_33 chi_33 pairing has no resultant slot)."""
        p = random_material(rng)
        h = 0.3
        u, d1, d2 = rand_kin(rng)
        s = PlateStress(*rng.standard_normal(20))
        loads = LoadSet(t=1.7)
        e = strain_from_kinematics(u, d1, d2)
        w_plate = float(internal_work_density(s, e))
        w_3d = float(work_density_quadrature(s, loads, u, d1, d2, h))
        extra = 5.0 * h / 6.0 * 1.7 * float(np.asarray(u.omega3))
        assert w_3d == pytest.approx(w_plate + extra, rel=1e-12)


class TestWeightedAverageCorrespondence:
    def test_strain_set_matches_thickness_averages(self, rng):
        """The plate strain components equal the defining weighted
        thickness integrals of the reconstructed 3D strain/torsion."""
        nodes, weights = np.polynomial.legendre.leggauss(12)
        p = random_material(rng)
        h = 0.37
        u, d1, d2 = rand_kin(rng)
        e = strain_from_kinematics(u, d1, d2)

        acc = {}
        for z, wq in zip(nodes, weights):
            gamma, chi = strain_profiles(u, d1, d2, h, z)
            terms = {
                "e11": 3.0 / h * z * gamma[0, 0],
                "e12": 3.0 / h * z * gamma[0, 1],
                "e21": 3.0 / h * z * gamma[1, 0],
                "e22": 3.0 / h * z * gamma[1, 1],
                "omega1": 0.75 * (1 - z**2) * gamma[2, 0],
                "omega2": 0.75 * (1 - z**2) * gamma[2, 1],
                "omega1_s": 0.75 * (1 - z**2) * gamma[0, 2],
                "omega2_s": 0.75 * (1 - z**2) * gamma[1, 2],
                "tau31": 3.0 / h * z * chi[0, 2],
                "tau32": 3.0 / h * z * chi[1, 2],
                "tau11_0": 0.75 * (1 - z**2) * chi[0, 0],
                "tau12_0": 0.75 * (1 - z**2) * chi[0, 1],
                "tau21_0": 0.75 * (1 - z**2) * chi[1, 0],
                "tau22_0": 0.75 * (1 - z**2) * chi[1, 1],
                "upsilon11": 0.5 * gamma[0, 0],
                "upsilon12": 0.5 * gamma[0, 1],
                "upsilon21": 0.5 * gamma[1, 0],
                "upsilon22": 0.5 * gamma[1, 1],
                "tau31_0": 0.5 * chi[0, 2],
                "tau32_0": 0.5 * chi[1, 2],
            }
            for k, v in terms.items():
                acc[k] = acc.get(k, 0.0) + wq * v
        for name in STRAIN_FIELDS:
            assert float(acc[name]) == pytest.approx(
                float(np.asarray(getattr(e, name))), rel=1e-12, abs=1e-13
            ), name


class TestThicknessProfiles:
    def test_moment_example(self):
        prof = thickness_profiles(PlateStress(M11=1.0), LoadSet.zero(), 1.0, 1.0)
        assert prof.sigma[0, 0] == pytest.approx(6.0)

    def test_face_conditions(self, rng):
        s = PlateStress(*rng.standard_normal(20))
        loads = LoadSet(p=0.9, sigma0=0.4, v=-0.3, t=0.8)
        top = thickness_profiles(s, loads, 0.25, 1.0)
        bot = thickness_profiles(s, loads, 0.25, -1.0)
        assert top.sigma[2, 2] == pytest.approx(0.4 + 0.45)
        assert bot.sigma[2, 2] == pytest.approx(0.4 - 0.45)
        assert top.sigma[2, 0] == 0.0 and bot.sigma[2, 1] == 0.0
        assert np.all(top.mu_c[2, :2] == 0.0)
        assert top.mu_c[2, 2] == pytest.approx(0.5)
        assert bot.mu_c[2, 2] == pytest.approx(1.1)

    def test_out_of_range_zeta(self):
        from cosserat_plate.material import MaterialError

        with pytest.raises(MaterialError):
            thickness_profiles(PlateStress(), LoadSet.zero(), 1.0, 1.5)

    def test_roundtrip(self, rng):
        h = 0.42
        s = PlateStress(*rng.standard_normal(20))
        loads = LoadSet(p=1.0, sigma0=2.0, v=3.0, t=4.0)

        def ev(z):
            return thickness_profiles(s, loads, h, z)

        s2 = resultants_from_profiles(ev, h)
        np.testing.assert_allclose(s2.as_array(), s.as_array(),
                                   rtol=1e-12, atol=1e-14)

    def test_constant_inplane_stress(self):
        h = 0.6
        c = 2.4

        class Prof:
            def __init__(self):
                self.sigma = np.zeros((3, 3))
                self.sigma[0, 0] = c
                self.mu_c = np.zeros((3, 3))

        s = resultants_from_profiles(lambda z: Prof(), h)
        assert s.N11 == pytest.approx(h * c)
        assert abs(s.M11) < 1e-15
