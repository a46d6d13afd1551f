"""Governing differential operators of the flexural and extensional systems.

Both systems are carried in the convention

    L(d/dx) H - F = M * d^2 H / dt^2

with H the kinematic block, F the load vector and M the diagonal inertia.
Every operator entry is a polynomial of degree <= 2 in the formal symbols
(xi1, xi2) standing for (d/dx1, d/dx2); internally an entry is a 6-vector of
coefficients over the monomial basis [1, xi1, xi2, xi1^2, xi1*xi2, xi2^2].
That single representation drives the symbol evaluation, the plane-wave
(Hermitian) matrices, the finite-difference stencils and the exact
polynomial application used by the verification oracle.

Two coefficient tables are kept.  The shipped ("derived") table is the
exact composition of the balance laws with the constitutive stiffness form,
which makes the operator conservative: even-order couplings symmetric,
odd-order ones antisymmetric.  The "literal" table reproduces a published
variant of the same system, which carries an extra overall (1 - N^2) row
scaling and a handful of sign slips; it is retained behind a flag purely to
generate the coefficient diff report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import MaterialError, TechnicalConstants
from .plate_fields import InertiaSet
from .poly2d import Poly2D, apply_symbol_monomials

MONOMIALS = ("1", "xi1", "xi2", "xi1^2", "xi1*xi2", "xi2^2")


def monomial_basis(xi1, xi2) -> np.ndarray:
    """The MONOMIALS at (xi1, xi2), stacked on a new leading axis."""
    return np.stack(np.broadcast_arrays(1.0, xi1, xi2, xi1**2, xi1 * xi2, xi2**2))


def _symbol_value(coeffs: np.ndarray, xi1, xi2):
    """Evaluate entries of a coefficient tensor at a formal symbol point."""
    return coeffs @ monomial_basis(xi1, xi2)


def wave_matrices(coeffs: np.ndarray, xi) -> np.ndarray:
    """A(k) = -L(i k) at every row k of ``xi`` (n, 2): shape (n, m, m), or
    (..., n, m, m) for a stack of tables ``coeffs`` (..., m, m, 6).

    For a conservative table each A(k) is Hermitian.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    real = monomial_basis(xi[:, 0], xi[:, 1])
    # at (i k1, i k2) the first-degree monomials gain i, the second-degree -1
    basis = np.concatenate([real[:1], 1j * real[1:3], -real[3:]])
    return -np.einsum("...rcm,mk->...krc", coeffs, basis)


class _SymbolMethods:
    """Symbol evaluation shared by the flexural and extensional operators."""

    @property
    def active_coeffs(self) -> np.ndarray:
        return self.coeffs_literal if self.paper_literal else self.coeffs

    def symbol(self, xi1, xi2) -> np.ndarray:
        return _symbol_value(self.active_coeffs, xi1, xi2)

    def wave_matrix(self, k1: float, k2: float) -> np.ndarray:
        return wave_matrices(self.active_coeffs, [[k1, k2]])[0]

    def apply_to_polynomials(self, fields) -> list[Poly2D]:
        """L(d/dx) applied exactly to one Poly2D per field."""
        C = self.active_coeffs
        n = C.shape[0]
        return [
            sum(
                (apply_symbol_monomials(C[r, c], fields[c]) for c in range(n)),
                Poly2D.zero(),
            )
            for r in range(n)
        ]


@dataclass(frozen=True)
class FlexuralOperator(_SymbolMethods):
    """6x6 operator on H = [Psi1, Psi2, W, Omega3, Omega1_0, Omega2_0]."""

    coeffs: np.ndarray                 # (6, 6, 6) derived entries
    coeffs_literal: np.ndarray         # (6, 6, 6) published-variant entries
    k: dict                            # literal coefficient table k1..k14
    K: dict                            # derived coefficient table
    mass: np.ndarray                   # (6,)
    tc: TechnicalConstants
    paper_literal: bool = False

    def load_vector(self, loads, grad1, grad2):
        """F from the load set and the in-plane gradients of (p, t).

        ``grad1``/``grad2`` are LoadSet-like containers holding d/dx1 and
        d/dx2 of each load field.
        """
        tc = self.tc
        c_p = tc.nu * tc.h**2 / (10.0 * (1.0 - tc.nu))
        c_t = 0.5 * tc.kappa2_sq * tc.h * (1.0 - tc.Psi)
        scale = (1.0 - tc.N**2) if self.paper_literal else 1.0
        zero = 0.0 * np.asarray(loads.p)
        return [
            -scale * c_p * np.asarray(grad1.p),
            -scale * c_p * np.asarray(grad2.p),
            -scale * np.asarray(loads.p),
            zero,
            -scale * c_t * np.asarray(grad1.t),
            (-1.0 if not self.paper_literal else +1.0) * scale * c_t * np.asarray(grad2.t),
        ]


@dataclass(frozen=True)
class ExtensionalOperator(_SymbolMethods):
    """3x3 operator on H~ = [U1, U2, Omega3_0]."""

    coeffs: np.ndarray                 # (3, 3, 6)
    coeffs_literal: np.ndarray
    kappa: dict                        # literal kappa1..kappa5 table
    mass: np.ndarray                   # (3,)
    tc: TechnicalConstants
    paper_literal: bool = False

    def load_vector(self, loads, grad1, grad2):
        tc = self.tc
        c_s = tc.h * tc.nu / (1.0 - tc.nu)
        return [
            -c_s * np.asarray(grad1.sigma0),
            -c_s * np.asarray(grad2.sigma0),
            -np.asarray(loads.v),
        ]


@dataclass(frozen=True)
class TractionOperator:
    """Boundary resultant-traction rows: T(d/dx; n) H = F*.

    Rows give n . (gradient part of the resultants); F* is the prescribed
    boundary resultant minus the load part, so the equation is exactly
    "resultant traction = prescribed".  Entry (r, c) is stored as a (2, 6)
    block: normal components times symbol monomials.
    """

    flex: np.ndarray                   # (6, 6, 2, 6)
    ext: np.ndarray                    # (3, 3, 2, 6)
    tc: TechnicalConstants

    def flex_symbol(self, xi1, xi2, n) -> np.ndarray:
        return np.einsum("rcab,a,b->rc", self.flex, np.asarray(n, dtype=float),
                         monomial_basis(xi1, xi2))

    def flex_load_part(self, loads, n):
        """n . (load part of the flexural resultants), rows 1..6."""
        tc = self.tc
        c_p = tc.nu * tc.h**2 / (10.0 * (1.0 - tc.nu)) * np.asarray(loads.p)
        c_t = 0.5 * tc.kappa2_sq * tc.h * (1.0 - tc.Psi) * np.asarray(loads.t)
        zero = np.zeros_like(c_p)
        return [n[0] * c_p, n[1] * c_p, zero, zero, n[0] * c_t, n[1] * c_t]

    def ext_load_part(self, loads, n):
        tc = self.tc
        c_s = tc.h * tc.nu / (1.0 - tc.nu) * np.asarray(loads.sigma0)
        return [n[0] * c_s, n[1] * c_s, np.zeros_like(c_s)]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def derived_flexural_table(tc: TechnicalConstants) -> dict:
    """Physical (unscaled) coefficient table of the flexural operator."""
    h = tc.h
    mu, alpha = tc.mu, tc.alpha
    gam, eps = tc.gamma, tc.epsilon
    cq = tc.kappa1_sq * h
    cr = tc.kappa2_sq * h
    cm = h**3 / 12.0
    return {
        "K1": tc.D,
        "K2": cm * (mu + alpha),
        "K3": cq * (mu + alpha),
        "K4": cq * (mu + alpha),
        "K5": h**3 * gam * eps / (3.0 * (gam + eps)),
        "K6": h**3 * alpha / 3.0,
        "K7": cr * gam * (2.0 - tc.Psi),
        "K8": 0.5 * cr * (gam + eps),
        "K9": 4.0 * cq * alpha,
        "K10": tc.D * tc.nu + cm * (mu - alpha),
        "K11": cq * (alpha - mu),
        "K12": h**3 * alpha / 6.0,
        "K13": 2.0 * cq * alpha,
        "K14": cr * gam * (1.0 - tc.Psi) + 0.5 * cr * (gam - eps),
    }


def literal_flexural_table(tc: TechnicalConstants) -> dict:
    """Published coefficient table k1..k14 (carries a (1-N^2) row scaling)."""
    D, nu, G, h = tc.D, tc.nu, tc.G, tc.h
    N2 = tc.N**2
    lt2, lb2, Psi = tc.l_t**2, tc.l_b**2, tc.Psi
    return {
        "k1": D * (1.0 - N2),
        "k2": D * (1.0 - nu) / 2.0,
        "k3": -5.0 * G * h / 6.0,
        "k4": 5.0 * G * h / 6.0,
        "k5": D * (1.0 - nu) * lt2 * (4.0 * lb2 - lt2) * (1.0 - N2) / (2.0 * lb2),
        "k6": 2.0 * N2 * D * (1.0 - nu),
        "k7": 5.0 * h * (1.0 - N2) * G * lt2 * (2.0 - Psi) / 3.0,
        "k8": 10.0 * h * (1.0 - N2) * G * lb2 / 3.0,
        "k9": 10.0 * h * G * N2 / 3.0,
        "k10": D * (1.0 + nu - 2.0 * N2) / 2.0,
        "k11": 5.0 * G * h * (2.0 * N2 - 1.0) / 6.0,
        "k12": D * N2 * (1.0 - nu),
        "k13": 5.0 * G * h * N2 / 3.0,
        "k14": 5.0 * h * (1.0 - N2) * G * (lt2 * (2.0 - Psi) - 2.0 * lb2) / 3.0,
    }


def _entry(const=0.0, x1=0.0, x2=0.0, x11=0.0, x12=0.0, x22=0.0):
    return np.array([const, x1, x2, x11, x12, x22])


def _flexural_coeffs_from(K1, K2, K3, K4, K5, K6, K7, K8, K9, K10, K11, K12, K13, K14,
                          literal_pattern: bool) -> np.ndarray:
    """Assemble the 6x6 entry tensor.

    ``literal_pattern`` reproduces the published sparsity/sign pattern
    (symmetric (2,4)/(4,2) pair, antisymmetric zero-order couplings,
    negated last diagonal); otherwise the conservative derived pattern is
    used.
    """
    C = np.zeros((6, 6, 6))
    C[0, 0] = _entry(const=-K3, x11=K1, x22=K2)
    C[1, 1] = _entry(const=-K3, x11=K2, x22=K1)
    C[0, 1] = _entry(x12=K10)
    C[1, 0] = _entry(x12=K10)
    C[0, 2] = _entry(x1=K11)
    C[1, 2] = _entry(x2=K11)
    C[2, 0] = _entry(x1=-K11)
    C[2, 1] = _entry(x2=-K11)
    C[2, 2] = _entry(x11=K4, x22=K4)
    C[3, 3] = _entry(const=-K6, x11=K5, x22=K5)
    C[4, 4] = _entry(const=-K9, x11=K7, x22=K8)

    if literal_pattern:
        C[0, 3] = _entry(x2=K12)
        C[1, 3] = _entry(x1=K12)
        C[3, 0] = _entry(x2=-K12)
        C[3, 1] = _entry(x1=K12)
        C[0, 5] = _entry(const=K13)
        C[1, 4] = _entry(const=-K13)
        C[4, 1] = _entry(const=K13)
        C[5, 0] = _entry(const=K13)
        C[2, 4] = _entry(x2=-K13)
        C[2, 5] = _entry(x1=K13)
        C[4, 2] = _entry(x2=K13)
        C[5, 2] = _entry(x1=K13)
        C[4, 5] = _entry(x12=K14)
        C[5, 4] = _entry(x12=-K14)
        C[5, 5] = -_entry(const=-K9, x11=K8, x22=K7)
    else:
        C[0, 3] = _entry(x2=-K12)
        C[1, 3] = _entry(x1=K12)
        C[3, 0] = _entry(x2=K12)
        C[3, 1] = _entry(x1=-K12)
        C[0, 5] = _entry(const=-K13)
        C[1, 4] = _entry(const=K13)
        C[4, 1] = _entry(const=K13)
        C[5, 0] = _entry(const=-K13)
        C[2, 4] = _entry(x2=K13)
        C[2, 5] = _entry(x1=-K13)
        C[4, 2] = _entry(x2=-K13)
        C[5, 2] = _entry(x1=K13)
        C[4, 5] = _entry(x12=K14)
        C[5, 4] = _entry(x12=K14)
        C[5, 5] = _entry(const=-K9, x11=K8, x22=K7)
    return C


def build_flexural(tc: TechnicalConstants, inertia: InertiaSet,
                   paper_literal: bool = False) -> FlexuralOperator:
    """Assemble the flexural operator for the given constants and inertia."""
    if not np.all(np.isfinite(inertia.flexural_mass())) or np.any(
        inertia.flexural_mass() <= 0.0
    ):
        raise MaterialError("flexural inertia must be positive and finite")
    K = derived_flexural_table(tc)
    k = literal_flexural_table(tc)
    coeffs = _flexural_coeffs_from(
        *[K[f"K{i}"] for i in range(1, 15)], literal_pattern=False
    )
    lit = _flexural_coeffs_from(
        k["k1"], k["k2"], k["k3"], k["k4"], k["k5"], k["k6"], k["k7"],
        k["k8"], k["k9"], k["k10"], k["k11"], k["k12"], k["k13"], k["k14"],
        literal_pattern=True,
    )
    _check_scaling_consistency(tc, coeffs, "flexural")
    return FlexuralOperator(
        coeffs=coeffs, coeffs_literal=lit, k=k, K=K,
        mass=inertia.flexural_mass(), tc=tc, paper_literal=paper_literal,
    )


def derived_extensional_table(tc: TechnicalConstants) -> dict:
    h = tc.h
    mu, alpha = tc.mu, tc.alpha
    gam, eps = tc.gamma, tc.epsilon
    return {
        "C_E": tc.E * h / (1.0 - tc.nu**2),
        "C_G": h * (mu + alpha),
        "C_G2": h * (mu - alpha),
        "C_A": 2.0 * h * alpha,
        "C_M": 4.0 * h * gam * eps / (gam + eps),
    }


def literal_extensional_table(tc: TechnicalConstants) -> dict:
    """Published dimensionless kappa table (rows normalized by Gh/(1-N^2))."""
    N2 = tc.N**2
    nu = tc.nu
    return {
        "kappa1": 2.0 * (1.0 - N2) / (1.0 - nu),
        "kappa2": 2.0 * N2,
        "kappa3": (1.0 + nu - 2.0 * N2) / (1.0 - nu),
        "kappa4": N2,
        "kappa5": tc.l_t**2 * (4.0 * tc.l_b**2 - tc.l_t**2) * (1.0 - N2)
        / (2.0 * tc.l_b**2),
    }


def build_extensional(tc: TechnicalConstants, inertia: InertiaSet,
                      paper_literal: bool = False) -> ExtensionalOperator:
    if np.any(inertia.extensional_mass() <= 0.0):
        raise MaterialError("extensional inertia must be positive and finite")
    t = derived_extensional_table(tc)
    C = np.zeros((3, 3, 6))
    C[0, 0] = _entry(x11=t["C_E"], x22=t["C_G"])
    C[1, 1] = _entry(x11=t["C_G"], x22=t["C_E"])
    cross = tc.nu * t["C_E"] + t["C_G2"]
    C[0, 1] = _entry(x12=cross)
    C[1, 0] = _entry(x12=cross)
    C[0, 2] = _entry(x2=-t["C_A"])
    C[1, 2] = _entry(x1=t["C_A"])
    C[2, 0] = _entry(x2=t["C_A"])
    C[2, 1] = _entry(x1=-t["C_A"])
    C[2, 2] = _entry(const=-2.0 * t["C_A"], x11=t["C_M"], x22=t["C_M"])
    _check_scaling_consistency(tc, C, "extensional")

    kap = literal_extensional_table(tc)
    Gh = tc.G * tc.h
    L = np.zeros((3, 3, 6))
    L[0, 0] = Gh * _entry(x11=kap["kappa1"], x22=kap["kappa2"])
    L[1, 1] = Gh * _entry(x11=kap["kappa2"], x22=kap["kappa1"])
    L[0, 1] = Gh * _entry(x12=kap["kappa3"])
    L[1, 0] = Gh * _entry(x12=kap["kappa3"])
    L[0, 2] = Gh * _entry(x2=2.0 * kap["kappa4"])
    L[1, 2] = Gh * _entry(x1=2.0 * kap["kappa4"])
    L[2, 0] = Gh * _entry(x2=-kap["kappa4"])
    L[2, 1] = Gh * _entry(x1=kap["kappa4"])
    L[2, 2] = Gh * _entry(const=-kap["kappa2"], x11=kap["kappa5"], x22=kap["kappa5"])

    return ExtensionalOperator(
        coeffs=C, coeffs_literal=L, kappa=kap,
        mass=inertia.extensional_mass(), tc=tc, paper_literal=paper_literal,
    )


def build_traction(tc: TechnicalConstants) -> TractionOperator:
    """Resultant-traction rows from the constitutive stiffness form."""
    h = tc.h
    mu, alpha = tc.mu, tc.alpha
    gam, eps = tc.gamma, tc.epsilon
    D, nu = tc.D, tc.nu
    cq = tc.kappa1_sq * h
    cr = tc.kappa2_sq * h
    cm = h**3 / 12.0
    cS = h**3 * gam * eps / (3.0 * (gam + eps))
    cM = 4.0 * h * gam * eps / (gam + eps)
    CE = tc.E * h / (1.0 - nu**2)

    F = np.zeros((6, 6, 2, 6))
    # row 1: M_a1 n_a
    F[0, 0, 0] = _entry(x1=D)
    F[0, 1, 0] = _entry(x2=D * nu)
    F[0, 0, 1] = _entry(x2=cm * (mu + alpha))
    F[0, 1, 1] = _entry(x1=cm * (mu - alpha))
    F[0, 3, 1] = _entry(const=-2.0 * cm * alpha)
    # row 2: M_a2 n_a
    F[1, 1, 0] = _entry(x1=cm * (mu + alpha))
    F[1, 0, 0] = _entry(x2=cm * (mu - alpha))
    F[1, 3, 0] = _entry(const=2.0 * cm * alpha)
    F[1, 1, 1] = _entry(x2=D)
    F[1, 0, 1] = _entry(x1=D * nu)
    # row 3: Q*_a n_a
    F[2, 0, 0] = _entry(const=cq * (mu - alpha))
    F[2, 2, 0] = _entry(x1=cq * (mu + alpha))
    F[2, 5, 0] = _entry(const=-2.0 * cq * alpha)
    F[2, 1, 1] = _entry(const=cq * (mu - alpha))
    F[2, 2, 1] = _entry(x2=cq * (mu + alpha))
    F[2, 4, 1] = _entry(const=2.0 * cq * alpha)
    # row 4: S*_a n_a
    F[3, 3, 0] = _entry(x1=cS)
    F[3, 3, 1] = _entry(x2=cS)
    # row 5: R_a1 n_a
    F[4, 4, 0] = _entry(x1=cr * gam * (2.0 - tc.Psi))
    F[4, 5, 0] = _entry(x2=cr * gam * (1.0 - tc.Psi))
    F[4, 4, 1] = _entry(x2=0.5 * cr * (gam + eps))
    F[4, 5, 1] = _entry(x1=0.5 * cr * (gam - eps))
    # row 6: R_a2 n_a
    F[5, 5, 0] = _entry(x1=0.5 * cr * (gam + eps))
    F[5, 4, 0] = _entry(x2=0.5 * cr * (gam - eps))
    F[5, 5, 1] = _entry(x2=cr * gam * (2.0 - tc.Psi))
    F[5, 4, 1] = _entry(x1=cr * gam * (1.0 - tc.Psi))

    E = np.zeros((3, 3, 2, 6))
    # row 1: N_a1 n_a
    E[0, 0, 0] = _entry(x1=CE)
    E[0, 1, 0] = _entry(x2=CE * nu)
    E[0, 0, 1] = _entry(x2=h * (mu + alpha))
    E[0, 1, 1] = _entry(x1=h * (mu - alpha))
    E[0, 2, 1] = _entry(const=-2.0 * h * alpha)
    # row 2: N_a2 n_a
    E[1, 1, 0] = _entry(x1=h * (mu + alpha))
    E[1, 0, 0] = _entry(x2=h * (mu - alpha))
    E[1, 2, 0] = _entry(const=2.0 * h * alpha)
    E[1, 1, 1] = _entry(x2=CE)
    E[1, 0, 1] = _entry(x1=CE * nu)
    # row 3: M*_a n_a
    E[2, 2, 0] = _entry(x1=cM)
    E[2, 2, 1] = _entry(x2=cM)

    return TractionOperator(flex=F, ext=E, tc=tc)


# ---------------------------------------------------------------------------
# verification hooks
# ---------------------------------------------------------------------------

# Power of the length scale carried by each coefficient (the pressure scale
# enters every coefficient linearly).  Fixed by the units of the balance
# rows, the column fields and the derivative order of each entry.
_FLEX_LENGTH_POWER = {
    "K1": 3, "K2": 3, "K3": 1, "K4": 1, "K5": 5, "K6": 3, "K7": 3,
    "K8": 3, "K9": 1, "K10": 3, "K11": 1, "K12": 3, "K13": 1, "K14": 3,
}
_EXT_LENGTH_POWER = {"C_E": 1, "C_G": 1, "C_G2": 1, "C_A": 1, "C_M": 3}


def _check_scaling_consistency(tc: TechnicalConstants, coeffs: np.ndarray,
                               tag: str) -> None:
    """Dimensional-consistency guard, run at build time.

    Under the input rescaling (moduli -> sp * moduli, couple moduli ->
    sp*sL^2 * couple moduli, lengths -> sL * lengths) every coefficient of
    the table must pick up exactly sp * sL**power.  A mismatch flags a
    malformed coefficient formula.
    """
    from .material import MaterialParams, technical_constants

    sp, sL = 3.0, 0.5
    m = tc.material
    scaled = MaterialParams(
        lam=sp * m.lam, mu=sp * m.mu, alpha=sp * m.alpha,
        beta=sp * sL**2 * m.beta, gamma=sp * sL**2 * m.gamma,
        epsilon=sp * sL**2 * m.epsilon, rho=max(m.rho, 1.0), J=(1.0, 1.0, 1.0),
    )
    tc2 = technical_constants(
        scaled, sL * tc.h,
        shear_correction="standard" if tc.kappa1_sq == 5.0 / 6.0 else "mindlin",
    )
    tables = {
        "flexural": (derived_flexural_table, _FLEX_LENGTH_POWER),
        "extensional": (derived_extensional_table, _EXT_LENGTH_POWER),
    }
    build, powers = tables[tag]
    T1, T2 = build(tc), build(tc2)
    scale = max(abs(v) for v in T1.values())
    for name, power in powers.items():
        if abs(T1[name]) <= 1e-12 * scale:
            continue  # coefficient degenerates for this parameter set
        expected = sp * sL**power
        ratio = T2[name] / T1[name]
        if abs(ratio / expected - 1.0) > 1e-10:
            raise MaterialError(
                f"dimensional inconsistency in {tag} coefficient {name}:"
                f" scaling ratio {ratio}, expected {expected}"
            )


def operator_residual_oracle(op, tc: TechnicalConstants, rng=None,
                             degree: int = 3) -> float:
    """Max-norm residual between the assembled operator and the exact
    composition of the balance laws with the constitutive stiffness form,
    evaluated on random polynomial fields via exact polynomial calculus.

    Returns the residual normalized by the largest row magnitude; the
    derived table should sit at rounding level, the literal table does not.
    """
    from .plate_constitutive import stress_from_kinematics

    rng = np.random.default_rng(rng)
    nfield = op.active_coeffs.shape[0]
    polys = [Poly2D.random(rng, degree) for _ in range(nfield)]

    lhs = op.apply_to_polynomials(polys)

    if nfield == 6:
        u = _poly_kinematics(flexural=polys)
    else:
        u = _poly_kinematics(extensional=polys)
    d1 = _poly_grad(u, 1)
    d2 = _poly_grad(u, 2)
    s = stress_from_kinematics(u, d1, d2, tc, loads=_poly_zero_loads())

    if nfield == 6:
        rhs = [
            s.M11.dx1() + s.M21.dx2() - s.Q1,
            s.M12.dx1() + s.M22.dx2() - s.Q2,
            s.Q1_s.dx1() + s.Q2_s.dx2(),
            s.S1_s.dx1() + s.S2_s.dx2() - (s.M12 - s.M21),
            s.R11.dx1() + s.R21.dx2() + (s.Q2 - s.Q2_s),
            s.R12.dx1() + s.R22.dx2() - (s.Q1 - s.Q1_s),
        ]
    else:
        rhs = [
            s.N11.dx1() + s.N21.dx2(),
            s.N12.dx1() + s.N22.dx2(),
            s.M1_s.dx1() + s.M2_s.dx2() - (s.N12 - s.N21),
        ]

    num = max((a - b).max_abs_coeff() for a, b in zip(lhs, rhs))
    den = max(max(a.max_abs_coeff() for a in rhs), 1e-300)
    return num / den


def _poly_kinematics(flexural=None, extensional=None):
    from .plate_fields import PlateKinematics

    kw = {n: Poly2D.zero() for n in (
        "psi1", "psi2", "w", "omega3", "omega1_0", "omega2_0",
        "u1", "u2", "omega3_0")}
    if flexural is not None:
        for name, p in zip(
            ("psi1", "psi2", "w", "omega3", "omega1_0", "omega2_0"), flexural
        ):
            kw[name] = p
    if extensional is not None:
        for name, p in zip(("u1", "u2", "omega3_0"), extensional):
            kw[name] = p
    return PlateKinematics(**kw)


def _poly_grad(u, axis: int):
    from .plate_fields import PlateKinematics, KINEMATIC_FIELDS

    deriv = (lambda p: p.dx1()) if axis == 1 else (lambda p: p.dx2())
    return PlateKinematics(**{n: deriv(getattr(u, n)) for n in KINEMATIC_FIELDS})


def _poly_zero_loads():
    from .plate_fields import LoadSet

    z = Poly2D.zero()
    return LoadSet(p=z, sigma0=z, v=z, t=z)


def coefficient_diff_table(tc: TechnicalConstants, inertia: InertiaSet):
    """Rows (entry, literal_value_expr, derived_value, abs_diff) comparing
    the published coefficient tables with the derived ones."""
    flex = build_flexural(tc, inertia)
    ext = build_extensional(tc, inertia)
    N2 = tc.N**2
    rows = []

    lit_expr = {
        "K1": "D*(1-N^2)", "K2": "D*(1-nu)/2", "K3": "-5*G*h/6",
        "K4": "5*G*h/6",
        "K5": "D*(1-nu)*lt^2*(4*lb^2-lt^2)*(1-N^2)/(2*lb^2)",
        "K6": "2*N^2*D*(1-nu)",
        "K7": "5*h*(1-N^2)*G*lt^2*(2-Psi)/3",
        "K8": "10*h*(1-N^2)*G*lb^2/3", "K9": "10*h*G*N^2/3",
        "K10": "D*(1+nu-2*N^2)/2", "K11": "5*G*h*(2*N^2-1)/6",
        "K12": "D*N^2*(1-nu)", "K13": "5*G*h*N^2/3",
        "K14": "5*h*(1-N^2)*G*(lt^2*(2-Psi)-2*lb^2)/3",
    }
    for i in range(1, 15):
        lit = flex.k[f"k{i}"]
        der = flex.K[f"K{i}"]
        rows.append((f"k{i}", lit_expr[f"K{i}"], lit, der, abs(lit - der)))

    for xi in ((1.3, 0.7),):
        Ld = flex.symbol(*xi)
        Ll = _symbol_value(flex.coeffs_literal, *xi)
        for r in range(6):
            for c in range(6):
                if not np.isclose(Ld[r, c], Ll[r, c], rtol=1e-12, atol=1e-300):
                    rows.append(
                        (f"L[{r+1},{c+1}]@xi={xi}", "printed pattern",
                         Ll[r, c], Ld[r, c], abs(Ll[r, c] - Ld[r, c]))
                    )
        Ed = ext.symbol(*xi)
        El = _symbol_value(ext.coeffs_literal, *xi)
        for r in range(3):
            for c in range(3):
                if not np.isclose(Ed[r, c], El[r, c], rtol=1e-12, atol=1e-300):
                    rows.append(
                        (f"Lt[{r+1},{c+1}]@xi={xi}", "printed pattern (xGh)",
                         El[r, c], Ed[r, c], abs(El[r, c] - Ed[r, c]))
                    )

    kap = ext.kappa
    rows.append((
        "kappa3_identity", "printed: kappa3 = 1 - kappa1",
        1.0 - kap["kappa1"], kap["kappa3"],
        abs((1.0 - kap["kappa1"]) - kap["kappa3"]),
    ))
    return rows
