import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import admissible_materials
from cosserat_plate.material import (
    MaterialError,
    MaterialParams,
    material_from_technical,
    reciprocal_constants,
    technical_constants,
    validate_parameters,
)

ONES = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1,
                      rho=1, J=(1, 1, 1))


class TestValidate:
    def test_all_ones_admissible(self):
        assert validate_parameters(ONES).admissible

    def test_alpha_zero_violates(self):
        p = MaterialParams(lam=1, mu=1, alpha=0, beta=1, gamma=1, epsilon=1,
                           rho=1, J=(1, 1, 1))
        rep = validate_parameters(p)
        assert rep.violations == ("alpha>0",)

    def test_negative_mu_violates_two(self):
        p = MaterialParams(lam=1, mu=-1, alpha=1, beta=1, gamma=1, epsilon=1,
                           rho=1, J=(1, 1, 1))
        rep = validate_parameters(p)
        assert "mu>0" in rep.violations
        assert "mu+alpha>0" in rep.violations

    def test_nan_reported_not_raised(self):
        p = MaterialParams(lam=float("nan"), mu=1, alpha=1, beta=1, gamma=1,
                           epsilon=1, rho=1, J=(1, 1, 1))
        rep = validate_parameters(p)
        assert "3*lambda+2*mu>0" in rep.violations

    def test_inertia_checked(self):
        p = MaterialParams(lam=1, mu=1, alpha=1, beta=1, gamma=1, epsilon=1,
                           rho=-1, J=(1, 0, 1))
        rep = validate_parameters(p)
        assert "rho>0" in rep.violations and "J2>0" in rep.violations


class TestTechnicalConstants:
    def test_lame_example(self):
        tc = technical_constants(ONES, h=1.0)
        assert tc.nu == pytest.approx(0.25)
        assert tc.E == pytest.approx(2.5)
        assert tc.G == pytest.approx(1.0)
        assert tc.D == pytest.approx(2.5 / (12 * (1 - 0.25**2)))

    def test_coupling_number(self):
        p = MaterialParams(lam=1, mu=2, alpha=2, beta=1, gamma=1, epsilon=1)
        tc = technical_constants(p, h=0.3)
        assert tc.N == pytest.approx(math.sqrt(0.5))

    def test_polar_ratio(self):
        p = MaterialParams(lam=1, mu=1, alpha=1, beta=0, gamma=1, epsilon=1)
        tc = technical_constants(p, h=0.3)
        assert tc.Psi == pytest.approx(1.0)

    def test_characteristic_lengths(self):
        p = MaterialParams(lam=1, mu=4, alpha=1, beta=1, gamma=1, epsilon=3)
        tc = technical_constants(p, h=0.3)
        assert tc.l_t == pytest.approx(0.5)
        assert tc.l_b == pytest.approx(0.5)

    def test_rejects_bad_thickness(self):
        with pytest.raises(MaterialError):
            technical_constants(ONES, h=0.0)

    def test_rejects_inadmissible(self):
        bad = MaterialParams(lam=1, mu=1, alpha=-1, beta=1, gamma=1, epsilon=1)
        with pytest.raises(MaterialError):
            technical_constants(bad, h=0.1)

    def test_mindlin_shear_correction(self):
        tc = technical_constants(ONES, h=1.0, shear_correction="mindlin")
        assert tc.kappa1_sq == pytest.approx(math.pi**2 / 12.0)
        assert tc.kappa2_sq == pytest.approx(5.0 / 3.0)

    def test_moduli_roundtrip_properties(self):
        tc = technical_constants(ONES, h=0.7)
        assert tc.mu == pytest.approx(1.0)
        assert tc.alpha == pytest.approx(1.0)
        assert tc.gamma == pytest.approx(1.0)
        assert tc.epsilon == pytest.approx(1.0)
        assert tc.beta == pytest.approx(1.0)
        assert tc.lam == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(admissible_materials())
def test_constants_well_posed_for_admissible(p):
    tc = technical_constants(p, h=0.2)
    vals = [tc.E, tc.nu, tc.G, tc.D, tc.l_t, tc.l_b, tc.N, tc.Psi]
    assert all(np.isfinite(vals))
    # admissibility bounds nu in (-1, 0.5); the familiar 0 < nu < 0.5 is
    # the lambda > 0 sub-range (up to float underflow of lambda/mu)
    assert -1.0 < tc.nu < 0.5
    if p.lam > 1e-12 * p.mu:
        assert 0.0 < tc.nu < 0.5
    assert 0.0 <= tc.N < 1.0
    assert tc.l_b > 0.0
    assert 0.0 < tc.Psi <= 1.5
    assert tc.E > 0.0 and tc.G > 0.0 and tc.D > 0.0


class TestReciprocal:
    def test_quarter_rule(self):
        r = reciprocal_constants(ONES)
        assert r.mu_p == pytest.approx(0.25)
        assert r.alpha_p == pytest.approx(0.25)
        assert r.gamma_p == pytest.approx(0.25)
        assert r.epsilon_p == pytest.approx(0.25)

    def test_lambda_zero(self):
        p = MaterialParams(lam=0, mu=1, alpha=1, beta=1, gamma=1, epsilon=1)
        assert reciprocal_constants(p).lambda_p == 0.0

    def test_beta_prime_uses_gamma_denominator(self):
        p = MaterialParams(lam=1, mu=5, alpha=1, beta=2, gamma=3, epsilon=1)
        r = reciprocal_constants(p)
        assert r.beta_p == pytest.approx(-2.0 / (6.0 * 3.0 * (2.0 + 2.0)))


def test_material_from_technical_inverts():
    m = material_from_technical(E=2.0, nu=0.3, N=0.4, l_t=0.1, l_b=0.2,
                                Psi=0.8, rho=1.5, J=(1, 2, 3))
    tc = technical_constants(m, h=0.05)
    assert tc.E == pytest.approx(2.0)
    assert tc.nu == pytest.approx(0.3)
    assert tc.N == pytest.approx(0.4)
    assert tc.l_t == pytest.approx(0.1)
    assert tc.l_b == pytest.approx(0.2)
    assert tc.Psi == pytest.approx(0.8)


def test_material_json_roundtrip(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(ONES.to_dict()))
    loaded = MaterialParams.from_dict(json.loads(path.read_text()))
    assert loaded == ONES
