"""Isotropic micropolar (Cosserat) material parameters and derived constants.

A linear isotropic Cosserat solid is described by six elastic moduli: the
Lame pair (lambda, mu) plus four asymmetric constants (alpha, beta, gamma,
epsilon), together with the mass density rho and a rotatory microinertia
vector J = (J1, J2, J3).  The strain energy density is non-negative exactly
when

    mu > 0,   3*lambda + 2*mu > 0,
    gamma > 0, 3*beta + 2*gamma > 0,
    alpha > 0, mu + alpha > 0,
    epsilon > 0, gamma + epsilon > 0.

From these the engineering set used by the plate model follows: Young's
modulus E, Poisson ratio nu, shear modulus G, flexural rigidity D, the
characteristic lengths for torsion/bending l_t and l_b, the coupling
number N (N -> 0 recovers classical elasticity) and the polar ratio Psi.
The compliance-form ("reciprocal") moduli invert the constitutive map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class MaterialError(ValueError):
    """Raised for inadmissible material parameters or invalid geometry."""


# Shear-correction choices for the transverse shear resultants.  "standard"
# comes from the quadratic shear profile across the thickness; "mindlin"
# is the alternative dynamic calibration.
KAPPA1_SQ_STANDARD = 5.0 / 6.0
KAPPA1_SQ_MINDLIN = math.pi**2 / 12.0
KAPPA2_SQ_STANDARD = 5.0 / 3.0


@dataclass(frozen=True)
class MaterialParams:
    """Raw Cosserat moduli [Pa, N], density [kg/m^3] and microinertia [kg/m].

    ``lam`` is the Lame lambda (``lambda`` is reserved in Python).
    """

    lam: float
    mu: float
    alpha: float
    beta: float
    gamma: float
    epsilon: float
    rho: float = 0.0
    J: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def from_dict(cls, d: dict) -> "MaterialParams":
        """Inverse of ``to_dict``; the CLI's config schema checks a
        material given in a config."""
        d = {**d, "J": tuple(d["J"])}
        return cls(lam=d.pop("lambda"), **d)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "rho": self.rho,
            "J": list(self.J),
        }


@dataclass(frozen=True)
class ValidationReport:
    """Result of an admissibility check: a list of violated conditions."""

    violations: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return not self.violations


def validate_parameters(p: MaterialParams) -> ValidationReport:
    """Check the positivity conditions of the stored energy plus rho>0, Ji>0.

    Never raises; NaN inputs are reported as violations (``NaN > 0`` is
    false).  An empty report means the material is admissible.  Moduli may
    be arrays, one entry per material of a batch; a condition then holds
    only if it holds for every entry.
    """
    checks = [
        ("mu>0", p.mu),
        ("3*lambda+2*mu>0", 3.0 * p.lam + 2.0 * p.mu),
        ("gamma>0", p.gamma),
        ("3*beta+2*gamma>0", 3.0 * p.beta + 2.0 * p.gamma),
        ("alpha>0", p.alpha),
        ("mu+alpha>0", p.mu + p.alpha),
        ("epsilon>0", p.epsilon),
        ("gamma+epsilon>0", p.gamma + p.epsilon),
        ("rho>0", p.rho),
        ("J1>0", p.J[0]),
        ("J2>0", p.J[1]),
        ("J3>0", p.J[2]),
    ]
    violations = tuple(name for name, value in checks if not _positive(value))
    return ValidationReport(violations)


def _positive(value) -> bool:
    """value > 0, for a number or for every entry of an array."""
    positive = value > 0.0
    try:
        return bool(positive)
    except ValueError:  # an array of several entries has no single truth
        return bool(positive.all())


def validate_elastic(p: MaterialParams) -> ValidationReport:
    """Admissibility of the elastic moduli alone (no inertia required)."""
    report = validate_parameters(p)
    elastic = tuple(
        v for v in report.violations if not v.startswith(("rho", "J"))
    )
    return ValidationReport(elastic)


def require_admissible(p: MaterialParams) -> None:
    report = validate_elastic(p)
    if not report.admissible:
        raise MaterialError(
            "inadmissible material parameters: " + ", ".join(report.violations)
        )


@dataclass(frozen=True)
class TechnicalConstants:
    """Engineering constants derived from the moduli for a given thickness h.

    kappa1_sq / kappa2_sq are the shear-correction-type factors entering the
    transverse-shear and micropolar-moment resultants.  Note the compliance
    (stress -> strain) layer is tied to the quadratic thickness profiles and
    therefore to the standard values; selecting the Mindlin calibration only
    alters the stiffness/operator layer.
    """

    E: float
    nu: float
    G: float
    D: float
    l_t: float
    l_b: float
    N: float
    Psi: float
    kappa1_sq: float
    kappa2_sq: float
    h: float
    material: MaterialParams

    # -- reconstructed moduli (exact inverses of the defining formulas) --

    @property
    def mu(self) -> float:
        return self.G

    @property
    def alpha(self) -> float:
        return self.G * self.N**2 / (1.0 - self.N**2)

    @property
    def gamma(self) -> float:
        return self.G * self.l_t**2

    @property
    def epsilon(self) -> float:
        return self.G * (4.0 * self.l_b**2 - self.l_t**2)

    @property
    def beta(self) -> float:
        return 2.0 * self.gamma * (1.0 - self.Psi) / self.Psi

    @property
    def lam(self) -> float:
        return 2.0 * self.G * self.nu / (1.0 - 2.0 * self.nu)


def technical_constants(
    p: MaterialParams, h: float, shear_correction: str = "standard"
) -> TechnicalConstants:
    """Derive the engineering constants for a plate of thickness h.

    shear_correction: "standard" (kappa1^2 = 5/6) or "mindlin"
    (kappa1^2 = pi^2/12).  kappa2^2 is always 5/3.
    """
    require_admissible(p)
    if not h > 0.0:
        raise MaterialError(f"thickness must be positive, got {h}")
    if shear_correction == "standard":
        k1sq = KAPPA1_SQ_STANDARD
    elif shear_correction == "mindlin":
        k1sq = KAPPA1_SQ_MINDLIN
    else:
        raise MaterialError(f"unknown shear_correction {shear_correction!r}")

    E = p.mu * (3.0 * p.lam + 2.0 * p.mu) / (p.lam + p.mu)
    nu = p.lam / (2.0 * (p.lam + p.mu))
    G = E / (2.0 * (1.0 + nu))
    D = E * h**3 / (12.0 * (1.0 - nu**2))
    l_t = math.sqrt(p.gamma / p.mu)
    l_b = 0.5 * math.sqrt((p.gamma + p.epsilon) / p.mu)
    N = math.sqrt(p.alpha / (p.mu + p.alpha))
    if not N < 1.0:  # TechnicalConstants.alpha divides by 1 - N^2
        raise MaterialError(f"alpha = {p.alpha} against mu = {p.mu}: "
                            f"N = sqrt(alpha / (mu + alpha)) rounds to 1")
    Psi = 2.0 * p.gamma / (p.beta + 2.0 * p.gamma)
    return TechnicalConstants(
        E=E, nu=nu, G=G, D=D, l_t=l_t, l_b=l_b, N=N, Psi=Psi,
        kappa1_sq=k1sq, kappa2_sq=KAPPA2_SQ_STANDARD, h=h, material=p,
    )


@dataclass(frozen=True)
class ReciprocalParams:
    """Compliance-form moduli: coefficients of the inverse constitutive map."""

    mu_p: float
    alpha_p: float
    gamma_p: float
    epsilon_p: float
    lambda_p: float
    beta_p: float


def reciprocal_constants(p: MaterialParams) -> ReciprocalParams:
    """Invert the moduli for the stress -> strain form of the 3D law.

    beta_p uses gamma in the denominator, -beta / (6*gamma*(beta+2*gamma/3));
    this is the unique choice under which the compliance map inverts the
    stiffness map exactly (checked by the round-trip tests).
    """
    require_admissible(p)
    return ReciprocalParams(
        mu_p=1.0 / (4.0 * p.mu),
        alpha_p=1.0 / (4.0 * p.alpha),
        gamma_p=1.0 / (4.0 * p.gamma),
        epsilon_p=1.0 / (4.0 * p.epsilon),
        lambda_p=-p.lam / (6.0 * p.mu * (p.lam + 2.0 * p.mu / 3.0)),
        beta_p=-p.beta / (6.0 * p.gamma * (p.beta + 2.0 * p.gamma / 3.0)),
    )


def material_from_technical(
    E: float,
    nu: float,
    N: float,
    l_t: float,
    l_b: float,
    Psi: float,
    rho: float = 1.0,
    J: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> MaterialParams:
    """Build moduli realizing the given engineering constants.

    Inverse of :func:`technical_constants`; convenient for parameter sweeps
    over (N, l_t, l_b, Psi) at fixed classical stiffness.  Requires
    4*l_b^2 > l_t^2 (so epsilon > 0), 0 <= N < 1 and 0 < Psi < 3/2.
    """
    if not (0.0 <= N < 1.0):
        raise MaterialError(f"coupling number must satisfy 0 <= N < 1, got {N}")
    if Psi == 0.0:
        raise MaterialError(f"polar ratio Psi must be nonzero, got {Psi}")
    mu = E / (2.0 * (1.0 + nu))
    lam = 2.0 * mu * nu / (1.0 - 2.0 * nu)
    alpha = mu * N**2 / (1.0 - N**2)
    gamma = mu * l_t**2
    epsilon = mu * (4.0 * l_b**2 - l_t**2)
    beta = 2.0 * gamma * (1.0 - Psi) / Psi
    return MaterialParams(
        lam=lam, mu=mu, alpha=alpha, beta=beta, gamma=gamma,
        epsilon=epsilon, rho=rho, J=J,
    )
