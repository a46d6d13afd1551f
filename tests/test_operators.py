import dataclasses

import numpy as np
import pytest

from conftest import random_material
from cosserat_plate.material import (
    MaterialError,
    MaterialParams,
    material_from_technical,
    technical_constants,
)
from cosserat_plate.operators import (
    build_extensional,
    build_flexural,
    build_traction,
    coefficient_diff_table,
    derived_extensional_table,
    derived_flexural_table,
    operator_residual_oracle,
)
from cosserat_plate.plate_fields import LoadSet, inertia_constants


def make_ops(p, h, shear_correction="standard"):
    tc = technical_constants(p, h, shear_correction)
    inertia = inertia_constants(p, h)
    return tc, inertia, build_flexural(tc, inertia), build_extensional(tc, inertia)


@pytest.fixture
def classical():
    p = material_from_technical(E=1.0, nu=0.3, N=1e-8, l_t=0.05, l_b=0.05,
                                Psi=1.0, rho=1.0, J=(1, 1, 1))
    return make_ops(p, 0.1)


@pytest.fixture
def micropolar(rng):
    p = random_material(rng)
    return make_ops(p, 0.21)


class TestCoefficientTables:
    def test_k10_formula(self, micropolar):
        tc, _, flex, _ = micropolar
        expected = tc.D * (1 + tc.nu - 2 * tc.N**2) / 2
        assert flex.k["k10"] == pytest.approx(expected)
        lit = dataclasses.replace(flex, paper_literal=True)
        assert lit.symbol(1.0, 1.0)[0, 1] == pytest.approx(expected)

    def test_l12_equals_k10_at_classical_limit(self, classical):
        _, _, flex, _ = classical
        assert flex.symbol(1.0, 1.0)[0, 1] == pytest.approx(flex.k["k10"],
                                                            rel=1e-8)

    def test_micropolar_couplings_vanish_at_n0(self, classical):
        tc, _, flex, _ = classical
        scale = tc.D
        for name in ("k6", "k9", "k12", "k13"):
            assert abs(flex.k[name]) < 1e-12 * scale
        for name in ("K6", "K9", "K12", "K13"):
            assert abs(flex.K[name]) < 1e-12 * scale

    def test_derived_vs_literal_scaling(self, micropolar):
        """The literal table is the derived one scaled by (1 - N^2) for
        every entry except the sign-flipped k3."""
        tc, _, flex, _ = micropolar
        s = 1.0 - tc.N**2
        for i in (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
            assert flex.k[f"k{i}"] == pytest.approx(s * flex.K[f"K{i}"],
                                                    rel=1e-12), i
        assert flex.k["k3"] == pytest.approx(-s * flex.K["K3"], rel=1e-12)
        assert flex.k["k4"] == pytest.approx(s * flex.K["K4"], rel=1e-12)

    def test_load_vector_example(self, classical):
        _, _, flex, _ = classical
        loads = LoadSet(p=1.0, sigma0=0.0, v=0.0, t=0.0)
        F = flex.load_vector(loads, LoadSet.zero(), LoadSet.zero())
        assert F[2] == pytest.approx(-1.0, rel=1e-14)
        assert F[3] == 0.0

    def test_load_vector_gradient_terms(self, micropolar):
        tc, _, flex, _ = micropolar
        loads = LoadSet(p=1.0, t=1.0)
        g1 = LoadSet(p=2.0, t=3.0)
        F = flex.load_vector(loads, g1, LoadSet.zero())
        c_p = tc.nu * tc.h**2 / (10 * (1 - tc.nu))
        c_t = 0.5 * tc.kappa2_sq * tc.h * (1 - tc.Psi)
        assert F[0] == pytest.approx(-2.0 * c_p)
        assert F[4] == pytest.approx(-3.0 * c_t)
        assert F[5] == 0.0


class TestExtensionalTable:
    def test_kappa1_value(self):
        p = material_from_technical(E=1.0, nu=0.25, N=1e-9, l_t=0.05,
                                    l_b=0.05, Psi=1.0, rho=1.0, J=(1, 1, 1))
        _, _, _, ext = make_ops(p, 0.1)
        assert ext.kappa["kappa1"] == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_kappa_couplings_vanish_at_n0(self, classical):
        _, _, _, ext = classical
        assert abs(ext.kappa["kappa2"]) < 1e-15
        assert abs(ext.kappa["kappa4"]) < 1e-15

    def test_kappa3_linear_identity(self, micropolar):
        # exact linear relation between kappa1 and kappa3 (kappa3 = kappa1 - 1)
        kap = micropolar[3].kappa
        assert kap["kappa3"] == pytest.approx(kap["kappa1"] - 1.0, rel=1e-12)
        assert abs(kap["kappa3"]) == pytest.approx(abs(1.0 - kap["kappa1"]),
                                                   rel=1e-12)


# Power of the length scale carried by each derived coefficient (the
# pressure scale enters every coefficient linearly).  Fixed by the units of
# the balance rows, the column fields and the derivative order of each entry.
FLEX_LENGTH_POWER = {
    "K1": 3, "K2": 3, "K3": 1, "K4": 1, "K5": 5, "K6": 3, "K7": 3,
    "K8": 3, "K9": 1, "K10": 3, "K11": 1, "K12": 3, "K13": 1, "K14": 3,
}
EXT_LENGTH_POWER = {"C_E": 1, "C_G": 1, "C_G2": 1, "C_A": 1, "C_M": 3}

# Fixed generic materials: every derived coefficient is well away from
# zero, so no ratio below rests on a cancellation (alpha = mu zeroes K11
# and C_G2).
GENERIC = (
    MaterialParams(lam=1.3, mu=0.8, alpha=0.35, beta=0.02, gamma=0.045,
                   epsilon=0.03, rho=1.0, J=(1.0, 1.0, 1.0)),
    MaterialParams(lam=-0.2, mu=2.1, alpha=3.4, beta=0.6, gamma=0.9,
                   epsilon=1.7, rho=1.0, J=(1.0, 1.0, 1.0)),
)


class TestDimensions:
    @pytest.mark.parametrize("shear", ["standard", "mindlin"])
    @pytest.mark.parametrize("table, powers", [
        (derived_flexural_table, FLEX_LENGTH_POWER),
        (derived_extensional_table, EXT_LENGTH_POWER),
    ], ids=["flexural", "extensional"])
    @pytest.mark.parametrize("m", GENERIC, ids=["alpha<mu", "alpha>mu"])
    def test_coefficients_scale_with_their_units(self, m, table, powers,
                                                 shear):
        """Moduli -> sp * moduli, couple moduli -> sp sL^2 * couple moduli
        and lengths -> sL * lengths multiply every derived coefficient by
        exactly sp * sL**power; a mismatch flags a malformed formula."""
        sp, sL, h = 3.0, 0.5, 0.2
        scaled = MaterialParams(
            lam=sp * m.lam, mu=sp * m.mu, alpha=sp * m.alpha,
            beta=sp * sL**2 * m.beta, gamma=sp * sL**2 * m.gamma,
            epsilon=sp * sL**2 * m.epsilon, rho=m.rho, J=m.J)
        T1 = table(technical_constants(m, h, shear))
        T2 = table(technical_constants(scaled, sL * h, shear))
        assert set(T1) == set(powers)
        for name, power in powers.items():
            assert abs(T1[name]) > 1e-6, name
            assert T2[name] == pytest.approx(sp * sL**power * T1[name],
                                             rel=1e-10), name

    @pytest.mark.parametrize("N", [0.7071067, 0.707106781])
    def test_builders_accept_alpha_close_to_mu(self, N):
        """N^2 near 1/2 makes alpha ~ mu: K11 and C_G2, which carry alpha
        - mu, shrink to ~1e-7 of their neighbours and lose most of their
        digits, yet the material is admissible and both builders accept
        it."""
        p = material_from_technical(E=1.0, nu=0.3, N=N, l_t=0.05, l_b=0.06,
                                    Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
        _, _, flex, ext = make_ops(p, 0.1)
        assert abs(flex.K["K11"]) < 1e-6 * abs(flex.K["K3"])
        assert np.all(np.isfinite(flex.coeffs))
        assert np.all(np.isfinite(ext.coeffs))


class TestOperatorStructure:
    ZEROS_FLEX = ((0, 4), (1, 5), (2, 3), (3, 2), (3, 4), (3, 5),
                  (4, 0), (4, 3), (5, 1), (5, 3))

    def test_sparsity(self, micropolar, rng):
        _, _, flex, _ = micropolar
        for _ in range(10):
            xi = rng.standard_normal(2)
            L = flex.symbol(*xi)
            for r, c in self.ZEROS_FLEX:
                assert L[r, c] == 0.0

    def test_printed_antisymmetry_pairs(self, micropolar, rng):
        _, _, flex, _ = micropolar
        xi = rng.standard_normal(2)
        L = flex.symbol(*xi)
        for r, c in ((2, 0), (2, 1), (3, 0), (4, 2)):
            assert L[r, c] == pytest.approx(-L[c, r], rel=1e-12, abs=1e-300)

    def test_conservative_pattern(self, micropolar, rng):
        """Even-order couplings symmetric, odd-order antisymmetric: the
        plane-wave matrix is Hermitian for every real wavevector."""
        _, _, flex, ext = micropolar
        for _ in range(5):
            k = rng.standard_normal(2)
            for op in (flex, ext):
                A = op.wave_matrix(*k)
                np.testing.assert_allclose(A, A.conj().T, rtol=0, atol=1e-12 * np.max(np.abs(A)))

    def test_literal_pattern_reproduces_printed_flips(self, micropolar, rng):
        _, _, flex, _ = micropolar
        lit = dataclasses.replace(flex, paper_literal=True)
        xi = rng.standard_normal(2)
        L = lit.symbol(*xi)
        # the printed matrix pairs (5,6)/(6,5) antisymmetrically and negates
        # the last diagonal entry relative to L55 with swapped arguments
        assert L[5, 4] == pytest.approx(-L[4, 5], rel=1e-12)
        L_sw = lit.symbol(xi[1], xi[0])
        assert L[5, 5] == pytest.approx(-L_sw[4, 4], rel=1e-12)

    def test_classical_block_decoupling(self, classical, rng):
        tc, _, flex, _ = classical
        xi = rng.standard_normal(2)
        L = flex.symbol(*xi)
        scale = np.max(np.abs(L))
        assert np.max(np.abs(L[:3, 3:])) < 1e-12 * scale
        assert np.max(np.abs(L[3:, :3])) < 1e-12 * scale


class TestResidualOracle:
    def test_flexural_quadrature_level(self, rng):
        for _ in range(3):
            p = random_material(rng)
            tc, _, flex, ext = make_ops(p, rng.uniform(0.05, 0.5))
            assert operator_residual_oracle(flex, tc, rng=1) <= 1e-10
            assert operator_residual_oracle(ext, tc, rng=2) <= 1e-10

    def test_mindlin_correction_option(self, rng):
        p = random_material(rng)
        tc, _, flex, ext = make_ops(p, 0.2, shear_correction="mindlin")
        assert operator_residual_oracle(flex, tc, rng=3) <= 1e-10
        assert operator_residual_oracle(ext, tc, rng=4) <= 1e-10

    def test_zero_fields_zero_residual(self, micropolar):
        from cosserat_plate.poly2d import Poly2D
        from cosserat_plate.operators import _poly_kinematics

        tc, _, flex, _ = micropolar
        out = flex.apply_to_polynomials([Poly2D.zero()] * 6)
        assert all(f.max_abs_coeff() == 0.0 for f in out)

    def test_literal_table_differs(self, micropolar):
        tc, _, flex, _ = micropolar
        lit = dataclasses.replace(flex, paper_literal=True)
        assert operator_residual_oracle(lit, tc, rng=5) > 1e-3


class TestTraction:
    def test_t11_example(self, micropolar):
        tc, _, _, _ = micropolar
        trac = build_traction(tc)
        T = trac.flex_symbol(1.0, 0.0, (1.0, 0.0))
        assert T[0, 0] == pytest.approx(tc.D)

    def test_zero_data_zero_fstar(self, micropolar):
        tc, _, _, _ = micropolar
        trac = build_traction(tc)
        lp = trac.flex_load_part(LoadSet.zero(), (1.0, 0.0))
        assert all(np.all(np.asarray(x) == 0.0) for x in lp)

    def test_w_coupling_vanishes_at_n0(self, classical):
        tc, _, _, _ = classical
        trac = build_traction(tc)
        T = trac.flex_symbol(1.0, 1.0, (0.6, 0.8))
        scale = np.max(np.abs(T))
        # micropolar boundary couplings (Q* rows to Omega^0) vanish with N
        assert abs(T[2, 4]) < 1e-12 * scale
        assert abs(T[2, 5]) < 1e-12 * scale

    def test_traction_rows_match_resultants(self, micropolar, rng):
        """n . (resultant gradient part) from the operator equals the
        constitutive evaluation on random polynomial fields."""
        from cosserat_plate.operators import _poly_kinematics, _poly_grad, _poly_zero_loads
        from cosserat_plate.plate_constitutive import stress_from_kinematics
        from cosserat_plate.poly2d import Poly2D, apply_symbol_monomials

        tc, _, _, _ = micropolar
        trac = build_traction(tc)
        polys = [Poly2D.random(rng, 2) for _ in range(6)]
        u = _poly_kinematics(flexural=polys)
        s = stress_from_kinematics(u, _poly_grad(u, 1), _poly_grad(u, 2), tc,
                                   loads=_poly_zero_loads())
        n = np.array([0.6, 0.8])
        x, y = 0.3, 0.7
        tr = [s.M11 * n[0] + s.M21 * n[1], s.M12 * n[0] + s.M22 * n[1],
              s.Q1_s * n[0] + s.Q2_s * n[1], s.S1_s * n[0] + s.S2_s * n[1],
              s.R11 * n[0] + s.R21 * n[1], s.R12 * n[0] + s.R22 * n[1]]
        for r in range(6):
            val = 0.0
            for c in range(6):
                coeffs = np.einsum("ab,a->b", trac.flex[r, c], n)
                val += apply_symbol_monomials(coeffs, polys[c])(x, y)
            assert val == pytest.approx(float(tr[r](x, y)), rel=1e-12,
                                        abs=1e-14), r


def test_diff_table_contents(rng):
    p = random_material(rng)
    tc = technical_constants(p, 0.3)
    inertia = inertia_constants(p, 0.3)
    rows = coefficient_diff_table(tc, inertia)
    names = [r[0] for r in rows]
    assert "k1" in names and "k14" in names and "kappa3_identity" in names
    # at generic N the (1-N^2) scaling shows up as nonzero diffs
    k1 = next(r for r in rows if r[0] == "k1")
    assert k1[4] > 0.0


def test_inertia_guard():
    from cosserat_plate.plate_fields import InertiaSet

    p = random_material(np.random.default_rng(0))
    tc = technical_constants(p, 0.3)
    with pytest.raises(MaterialError):
        build_flexural(tc, InertiaSet(I_o=0.0, rho_o=1, I_o1=1, I_o2=1,
                                      J3_s=1, I_o3=1))
