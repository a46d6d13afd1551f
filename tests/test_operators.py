import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosserat_plate
from conftest import admissible_materials, random_material
from cosserat_plate.material import (
    MaterialError,
    MaterialParams,
    material_from_technical,
    technical_constants,
)
from cosserat_plate.operators import (
    _flexural_coeffs_from,
    apply_to_polynomials,
    build_extensional,
    build_extensional_stack,
    build_flexural,
    build_flexural_stack,
    build_traction,
    coefficient_diff_table,
    derived_extensional_table,
    derived_flexural_table,
    monomial_basis,
    operator_residual_oracle,
    traction_load_part,
    wave_matrices,
)
from cosserat_plate.plate_constitutive import (
    internal_work_density,
    strain_from_kinematics,
    stress_from_kinematics,
)
from cosserat_plate.plate_fields import (
    EXTENSIONAL_FIELDS,
    FLEXURAL_FIELDS,
    KINEMATIC_FIELDS,
    STRESS_FIELDS,
    LoadSet,
    PlateKinematics,
    PlateStrain,
    PlateStress,
    inertia_constants,
)


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

    def test_literal_last_diagonal_negates_the_derived_pattern(self,
                                                               micropolar):
        """The published (6,6) entry is the derived pattern's entry negated
        as a whole, its zero monomials -0 included."""
        _, _, flex, _ = micropolar
        derived = _flexural_coeffs_from(*flex.k.values(), literal_pattern=False)
        assert flex.coeffs_literal[5, 5].tobytes() == \
            (-derived[5, 5]).tobytes()

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
                A = wave_matrices(op.coeffs, [k])[0]
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
            assert operator_residual_oracle(flex.coeffs, tc, rng=1) <= 1e-10
            assert operator_residual_oracle(ext.coeffs, tc, rng=2) <= 1e-10

    def test_mindlin_correction_option(self, rng):
        p = random_material(rng)
        tc, _, flex, ext = make_ops(p, 0.2, shear_correction="mindlin")
        assert operator_residual_oracle(flex.coeffs, tc, rng=3) <= 1e-10
        assert operator_residual_oracle(ext.coeffs, tc, rng=4) <= 1e-10

    def test_zero_fields_zero_residual(self, micropolar):
        from cosserat_plate.poly2d import Poly2D
        from cosserat_plate.operators import _poly_kinematics

        tc, _, flex, _ = micropolar
        out = apply_to_polynomials(flex.coeffs, [Poly2D.zero()] * 6)
        assert all(f.max_abs_coeff() == 0.0 for f in out)

    def test_literal_table_differs(self, micropolar):
        tc, _, flex, _ = micropolar
        assert operator_residual_oracle(flex.coeffs_literal, tc, rng=5) > 1e-3


# Oracle: the read-off of the stiffness form as two separate unit-column
# calls, one for the resultants' coefficients (row r of each subsystem is
# n_a R_ar, the normal contraction of the pair (R_1r, R_2r)) and one for
# the energy density form.
RESULTANT_PAIRS = {
    "flex": (("M11", "M21"), ("M12", "M22"), ("Q1_s", "Q2_s"),
             ("S1_s", "S2_s"), ("R11", "R21"), ("R12", "R22")),
    "ext": (("N11", "N21"), ("N12", "N22"), ("M1_s", "M2_s")),
}
SUBSYSTEMS = (("flex", FLEXURAL_FIELDS), ("ext", EXTENSIONAL_FIELDS))


def resultant_coefficients(tc):
    """Each subsystem's traction rows (nf, nf, 2, 6): entry (r, c) holds the
    coefficient of field c's monomial (1, xi1, xi2) in R_ar for each normal
    component a; and its load parts P (nf, 2, 4), the coefficient of load l
    in R_ar.  Keyed "flex" and "ext" as (rows, P)."""
    nk = len(KINEMATIC_FIELDS)
    unit = np.eye(3 * nk + 4)
    u, d1, d2 = (PlateKinematics(*unit[k * nk:(k + 1) * nk]) for k in range(3))
    s = stress_from_kinematics(u, d1, d2, tc, LoadSet(*unit[3 * nk:])).as_array()
    out = {}
    for name, fields in SUBSYSTEMS:
        R = s[[[STRESS_FIELDS.index(f) for f in pair]
               for pair in RESULTANT_PAIRS[name]]]   # (nf, 2, 3 nk + 4)
        nf, cols = len(fields), [KINEMATIC_FIELDS.index(f) for f in fields]
        rows = np.zeros((nf, nf, 2, 6))
        rows[..., :3] = np.moveaxis(
            R[..., :3 * nk].reshape(nf, 2, 3, nk)[..., cols], 3, 1)
        out[name] = rows, R[..., 3 * nk:]
    return out


def energy_form_oracle(tc):
    """Each subsystem's energy density form Q (3, nf, 3, nf), polarised on
    kinematic unit columns alone under zero loads."""
    nk = len(KINEMATIC_FIELDS)
    unit = np.eye(3 * nk)
    u, d1, d2 = (PlateKinematics(*unit[k * nk:(k + 1) * nk]) for k in range(3))
    s = stress_from_kinematics(u, d1, d2, tc, LoadSet.zero()).as_array()
    e = strain_from_kinematics(u, d1, d2).as_array()
    work = internal_work_density(PlateStress.from_array(s[:, :, None]),
                                 PlateStrain.from_array(e[:, None, :]))
    Q = 0.5 * (work + work.T)
    out = {}
    for name, fields in SUBSYSTEMS:
        idx = [k * nk + KINEMATIC_FIELDS.index(f) for k in range(3)
               for f in fields]
        out[name] = Q[np.ix_(idx, idx)].reshape(3, len(fields), 3, len(fields))
    return out


def gradient_rows(Q):
    """The traction rows (nf, nf, 2, 6) that Q's d/dx_a rows give: entry
    (r, c, a, k) is Q[1 + a, r, k, c] for the monomials k = 1, xi1, xi2."""
    nf = Q.shape[1]
    rows = np.zeros((nf, nf, 2, 6))
    rows[..., :3] = Q[1:].transpose(1, 3, 0, 2)
    return rows


def flex_traction_symbol(Q, xi1, xi2, n):
    """The flexural traction rows' symbol at (xi1, xi2) on normal n."""
    return np.einsum("rcab,a,b->rc", gradient_rows(Q),
                     np.asarray(n, dtype=float), monomial_basis(xi1, xi2))


class TestTraction:
    def test_t11_example(self, micropolar):
        tc, _, _, _ = micropolar
        Q, _ = build_traction(tc)["flex"]
        T = flex_traction_symbol(Q, 1.0, 0.0, (1.0, 0.0))
        assert T[0, 0] == pytest.approx(tc.D)

    def test_zero_data_zero_fstar(self, micropolar):
        tc, _, _, _ = micropolar
        _, P = build_traction(tc)["flex"]
        lp = traction_load_part(P, LoadSet.zero(), (1.0, 0.0))
        assert all(np.all(np.asarray(x) == 0.0) for x in lp)

    def test_w_coupling_vanishes_at_n0(self, classical):
        tc, _, _, _ = classical
        Q, _ = build_traction(tc)["flex"]
        T = flex_traction_symbol(Q, 1.0, 1.0, (0.6, 0.8))
        scale = np.max(np.abs(T))
        # micropolar boundary couplings (Q* rows to Omega^0) vanish with N
        assert abs(T[2, 4]) < 1e-12 * scale
        assert abs(T[2, 5]) < 1e-12 * scale

    def test_traction_rows_match_resultants(self, micropolar, rng):
        """n . (resultant gradient part) from Q's gradient rows equals the
        constitutive evaluation on random polynomial fields."""
        from cosserat_plate.operators import _poly_kinematics, _poly_grad, _poly_zero_loads
        from cosserat_plate.poly2d import Poly2D, apply_symbol_monomials

        tc, _, _, _ = micropolar
        rows = gradient_rows(build_traction(tc)["flex"][0])
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
                coeffs = np.einsum("ab,a->b", rows[r, c], n)
                val += apply_symbol_monomials(coeffs, polys[c])(x, y)
            assert val == pytest.approx(float(tr[r](x, y)), rel=1e-12,
                                        abs=1e-14), r

    @pytest.mark.parametrize("shear_correction", ["standard", "mindlin"])
    @pytest.mark.parametrize("subsystem", ["flexural", "extensional"])
    def test_rows_and_load_part_match_resultants(self, rng, subsystem,
                                                 shear_correction):
        """Each subsystem's traction rows (Q's gradient rows) plus their
        load part (P) equal n . (resultants) of the stiffness form on random
        polynomial fields under nonzero polynomial loads, for either shear
        correction."""
        from cosserat_plate.operators import _poly_kinematics, _poly_grad
        from cosserat_plate.poly2d import Poly2D, apply_symbol_monomials

        tc, _, _, _ = make_ops(random_material(rng), 0.21, shear_correction)
        forms = build_traction(tc)
        nf = 6 if subsystem == "flexural" else 3
        polys = [Poly2D.random(rng, 2) for _ in range(nf)]
        u = _poly_kinematics(**{subsystem: polys})
        loads = LoadSet(**{k: Poly2D.random(rng, 2)
                           for k in ("p", "sigma0", "v", "t")})
        s = stress_from_kinematics(u, _poly_grad(u, 1), _poly_grad(u, 2), tc,
                                   loads=loads)
        if subsystem == "flexural":
            pairs = [(s.M11, s.M21), (s.M12, s.M22), (s.Q1_s, s.Q2_s),
                     (s.S1_s, s.S2_s), (s.R11, s.R21), (s.R12, s.R22)]
            Q, P = forms["flex"]
        else:
            pairs = [(s.N11, s.N21), (s.N12, s.N22), (s.M1_s, s.M2_s)]
            Q, P = forms["ext"]
        table = gradient_rows(Q)
        n = np.array([-0.6, 0.8])
        x, y = 0.3, 0.7
        lp = traction_load_part(
            P, LoadSet(**{k: f(x, y) for k, f in vars(loads).items()}), n)
        assert any(v != 0.0 for v in lp)
        for r, (R1, R2) in enumerate(pairs):
            val = lp[r] + sum(apply_symbol_monomials(
                np.einsum("ab,a->b", table[r, c], n), polys[c])(x, y)
                for c in range(nf))
            assert val == pytest.approx(float((R1 * n[0] + R2 * n[1])(x, y)),
                                        rel=1e-12, abs=1e-14), r


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(admissible_materials(with_inertia=False),
       st.sampled_from(["standard", "mindlin"]))
def test_one_readoff_is_bitwise_the_two_unit_column_calls(p, correction):
    """build_traction's one polarisation over kinematic and load columns
    gives, bit for bit (signed zeros included), the energy form of a
    polarisation on kinematic columns alone and the load parts of the
    resultants read off the stiffness form directly."""
    tc = technical_constants(p, 0.21, correction)
    forms, Q_want = build_traction(tc), energy_form_oracle(tc)
    for name, (_, P_want) in resultant_coefficients(tc).items():
        Q, P = forms[name]
        for got, want in ((Q, Q_want[name]), (P, P_want)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(admissible_materials(with_inertia=False),
       st.sampled_from(["standard", "mindlin"]))
def test_energy_form_gives_traction_rows_and_derived_table(p, correction):
    """The energy density form Q is symmetric; its d/dx_a rows are the
    traction rows read off the stiffness form, and its Euler-Lagrange
    operator L = d_a (Q_a. q) - Q_V. q is the derived coefficient table."""
    tc, _, flex, ext = make_ops(p, 0.21, correction)
    forms, rows = build_traction(tc), resultant_coefficients(tc)
    for name, C in (("flex", flex.coeffs), ("ext", ext.coeffs)):
        Q, table = forms[name][0], rows[name][0]
        scale = np.max(np.abs(C))
        nf = C.shape[0]
        flat = Q.reshape(3 * nf, 3 * nf)
        assert np.array_equal(flat, flat.T)
        for a in range(2):
            assert np.max(np.abs(Q[1 + a].transpose(0, 2, 1)
                                 - table[:, :, a, :3])) <= 1e-15 * scale
        assert np.max(np.abs(gradient_rows(Q) - table)) <= 1e-15 * scale
        V, X, Y = Q[0, :, 0], Q[1, :, 0], Q[2, :, 0]
        L = np.stack([-V, X - X.T, Y - Y.T, Q[1, :, 1], Q[1, :, 2]
                      + Q[2, :, 1], Q[2, :, 2]], axis=-1)
        assert np.max(np.abs(L - C)) <= 1e-15 * scale


def _names_and_calls(tree):
    """Every name the module's tree binds or reads (identifiers, attributes,
    imported names, definitions), and (enclosing top-level function, callee
    name) of each call."""
    names, calls = set(), []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name.split(".")[-1], node.asname})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.Call):
                f = node.func
                calls.append((owner, getattr(f, "id", getattr(f, "attr", None))))
    return names, calls


def test_the_stiffness_form_is_read_off_in_one_place():
    """No module of the package names the retired read-offs (the separate
    traction-row operator, its resultant table and the second energy-form
    builder), and in ``operators.py`` only ``build_traction`` (the one
    read-off) and ``operator_residual_oracle`` (the verification hook)
    call ``stress_from_kinematics``."""
    retired = {"TractionOperator", "TRACTION_RESULTANTS", "energy_forms"}
    package = Path(cosserat_plate.__file__).parent
    paths = sorted(package.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        names, _ = _names_and_calls(ast.parse(path.read_text()))
        assert not names & retired, path
    _, calls = _names_and_calls(
        ast.parse((package / "operators.py").read_text()))
    callers = {owner for owner, f in calls if f == "stress_from_kinematics"}
    assert callers == {"build_traction", "operator_residual_oracle"}


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
    inertias = [inertia_constants(p, 0.3)] * 2
    with pytest.raises(MaterialError):
        build_extensional_stack(
            [tc] * 3, inertias + [InertiaSet(I_o=1, rho_o=1, I_o1=1, I_o2=1,
                                             J3_s=1, I_o3=float("inf"))])


@pytest.mark.parametrize("size", [1, 6])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacks_equal_one_build_per_material(size, data):
    """Each material's slice of the stacks holds the bits of build_flexural
    and build_extensional on that material alone."""
    draws = data.draw(st.lists(
        st.tuples(admissible_materials(), st.floats(0.01, 1.0)),
        min_size=size, max_size=size))
    tcs = [technical_constants(p, h) for p, h in draws]
    inertias = [inertia_constants(p, h) for p, h in draws]
    for stack, build in ((build_flexural_stack, build_flexural),
                         (build_extensional_stack, build_extensional)):
        coeffs, mass = stack(tcs, inertias)
        for k, (tc, inertia) in enumerate(zip(tcs, inertias)):
            op = build(tc, inertia)
            assert coeffs[k].shape == op.coeffs.shape
            assert np.array_equal(coeffs[k].view(np.int64),
                                  op.coeffs.view(np.int64))
            assert np.array_equal(mass[k].view(np.int64),
                                  op.mass.view(np.int64))
        assert len(coeffs) == len(mass) == size


def test_wave_matrices_take_each_tables_own_wavevectors(rng):
    """Wavevectors given per table of a stack give each table the bits of a
    call on it alone."""
    ps = [random_material(rng) for _ in range(4)]
    tcs = [technical_constants(p, 0.2) for p in ps]
    inertias = [inertia_constants(p, 0.2) for p in ps]
    xi = rng.uniform(-30.0, 30.0, size=(4, 7, 2))
    for build in (build_flexural_stack, build_extensional_stack):
        coeffs, _ = build(tcs, inertias)
        A = wave_matrices(coeffs, xi)
        for k in range(4):
            assert A[k].tobytes() == wave_matrices(coeffs[k], xi[k]).tobytes()
