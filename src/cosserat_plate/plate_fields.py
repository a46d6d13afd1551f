"""Plate-level field containers and thickness-averaged inertia.

The mid-plane kinematic set holds nine fields: the flexural block
(Psi1, Psi2, W, Omega3, Omega1_0, Omega2_0) and the extensional block
(U1, U2, Omega3_0).  Strain and stress sets hold the 20 work-conjugate
components produced by the thickness-weighted averaging of the 3D fields.
All containers store scalars or numpy arrays of a common shape and are
immutable; operations on them are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import MaterialParams, MaterialError

# Correspondence coefficients between the raw microrotation amplitudes and
# the weighted mid-plane averages, and the inertia weights they induce.
K1_STAR = 4.0 / 5.0
K2_STAR = 8.0 / 5.0
K3_STAR = 5.0 / 6.0
K4_STAR = 25.0 / 32.0

FLEXURAL_FIELDS = ("psi1", "psi2", "w", "omega3", "omega1_0", "omega2_0")
EXTENSIONAL_FIELDS = ("u1", "u2", "omega3_0")
KINEMATIC_FIELDS = FLEXURAL_FIELDS + EXTENSIONAL_FIELDS


def _stack(obj, names):
    arrs = [np.asarray(getattr(obj, n), dtype=float) for n in names]
    return np.stack(np.broadcast_arrays(*arrs))


@dataclass(frozen=True)
class PlateKinematics:
    """The nine mid-plane kinematic fields (values, velocities or increments)."""

    psi1: np.ndarray | float = 0.0
    psi2: np.ndarray | float = 0.0
    w: np.ndarray | float = 0.0
    omega3: np.ndarray | float = 0.0
    omega1_0: np.ndarray | float = 0.0
    omega2_0: np.ndarray | float = 0.0
    u1: np.ndarray | float = 0.0
    u2: np.ndarray | float = 0.0
    omega3_0: np.ndarray | float = 0.0

    def flexural(self) -> np.ndarray:
        """Stack [Psi1, Psi2, W, Omega3, Omega1_0, Omega2_0]."""
        return _stack(self, FLEXURAL_FIELDS)

    def extensional(self) -> np.ndarray:
        """Stack [U1, U2, Omega3_0]."""
        return _stack(self, EXTENSIONAL_FIELDS)

    def as_array(self) -> np.ndarray:
        return _stack(self, KINEMATIC_FIELDS)

    @classmethod
    def from_arrays(cls, flexural=None, extensional=None) -> "PlateKinematics":
        kw = {}
        if flexural is not None:
            kw.update(zip(FLEXURAL_FIELDS, flexural))
        if extensional is not None:
            kw.update(zip(EXTENSIONAL_FIELDS, extensional))
        return cls(**kw)


STRAIN_FIELDS = (
    "e11", "e12", "e21", "e22",
    "omega1", "omega2",
    "omega1_s", "omega2_s",
    "tau31", "tau32",
    "tau11_0", "tau12_0", "tau21_0", "tau22_0",
    "upsilon11", "upsilon12", "upsilon21", "upsilon22",
    "tau31_0", "tau32_0",
)

STRESS_FIELDS = (
    "M11", "M12", "M21", "M22",
    "Q1", "Q2",
    "Q1_s", "Q2_s",
    "R11", "R12", "R21", "R22",
    "S1_s", "S2_s",
    "N11", "N12", "N21", "N22",
    "M1_s", "M2_s",
)


@dataclass(frozen=True)
class PlateStrain:
    """Weighted strain/torsion measures; *_s marks the transverse-shear pair
    conjugate to the Q* resultants, *_0 the mid-surface averages."""

    e11: np.ndarray | float = 0.0
    e12: np.ndarray | float = 0.0
    e21: np.ndarray | float = 0.0
    e22: np.ndarray | float = 0.0
    omega1: np.ndarray | float = 0.0
    omega2: np.ndarray | float = 0.0
    omega1_s: np.ndarray | float = 0.0
    omega2_s: np.ndarray | float = 0.0
    tau31: np.ndarray | float = 0.0
    tau32: np.ndarray | float = 0.0
    tau11_0: np.ndarray | float = 0.0
    tau12_0: np.ndarray | float = 0.0
    tau21_0: np.ndarray | float = 0.0
    tau22_0: np.ndarray | float = 0.0
    upsilon11: np.ndarray | float = 0.0
    upsilon12: np.ndarray | float = 0.0
    upsilon21: np.ndarray | float = 0.0
    upsilon22: np.ndarray | float = 0.0
    tau31_0: np.ndarray | float = 0.0
    tau32_0: np.ndarray | float = 0.0

    def as_array(self) -> np.ndarray:
        return _stack(self, STRAIN_FIELDS)

    @classmethod
    def from_array(cls, a) -> "PlateStrain":
        return cls(**dict(zip(STRAIN_FIELDS, a)))


@dataclass(frozen=True)
class PlateStress:
    """Stress and couple-stress resultants: bending/twisting moments M,
    shear forces Q, transverse shear forces Q*, micropolar moments R,
    micropolar couple moments S*, in-plane forces N and micropolar shear
    couple resultants M*."""

    M11: np.ndarray | float = 0.0
    M12: np.ndarray | float = 0.0
    M21: np.ndarray | float = 0.0
    M22: np.ndarray | float = 0.0
    Q1: np.ndarray | float = 0.0
    Q2: np.ndarray | float = 0.0
    Q1_s: np.ndarray | float = 0.0
    Q2_s: np.ndarray | float = 0.0
    R11: np.ndarray | float = 0.0
    R12: np.ndarray | float = 0.0
    R21: np.ndarray | float = 0.0
    R22: np.ndarray | float = 0.0
    S1_s: np.ndarray | float = 0.0
    S2_s: np.ndarray | float = 0.0
    N11: np.ndarray | float = 0.0
    N12: np.ndarray | float = 0.0
    N21: np.ndarray | float = 0.0
    N22: np.ndarray | float = 0.0
    M1_s: np.ndarray | float = 0.0
    M2_s: np.ndarray | float = 0.0

    def as_array(self) -> np.ndarray:
        return _stack(self, STRESS_FIELDS)

    @classmethod
    def from_array(cls, a) -> "PlateStress":
        return cls(**dict(zip(STRESS_FIELDS, a)))


@dataclass(frozen=True)
class LoadSet:
    """Face loads of the plate: net transverse pressure p, mean transverse
    stress sigma0, net twisting couple v and mean twisting couple t.  Each
    entry is a scalar or an array sampled like the fields."""

    p: np.ndarray | float = 0.0
    sigma0: np.ndarray | float = 0.0
    v: np.ndarray | float = 0.0
    t: np.ndarray | float = 0.0

    @classmethod
    def zero(cls) -> "LoadSet":
        return cls()


@dataclass(frozen=True)
class InertiaSet:
    """Thickness-integrated inertia weights of the nine kinematic fields."""

    I_o: float
    rho_o: float
    I_o1: float
    I_o2: float
    J3_s: float
    I_o3: float

    def flexural_mass(self) -> np.ndarray:
        """Diagonal mass of [Psi1, Psi2, W, Omega3, Omega1_0, Omega2_0]."""
        return np.array(
            [self.I_o, self.I_o, self.rho_o, self.J3_s, self.I_o1, self.I_o2]
        )

    def extensional_mass(self) -> np.ndarray:
        """Diagonal mass of [U1, U2, Omega3_0]."""
        return np.array([self.rho_o, self.rho_o, self.I_o3])

    def mass_vector(self) -> np.ndarray:
        return np.concatenate([self.flexural_mass(), self.extensional_mass()])


def inertia_constants(p: MaterialParams, h: float) -> InertiaSet:
    """I_o = rho h^3/12, rho_o = rho h, I_oa = (5/6) J_a h,
    J3* = (25/32) J3 h^3, I_o3 = J3 h."""
    if not h > 0.0:
        raise MaterialError(f"thickness must be positive, got {h}")
    return InertiaSet(
        I_o=p.rho * h**3 / 12.0,
        rho_o=p.rho * h,
        I_o1=K3_STAR * p.J[0] * h,
        I_o2=K3_STAR * p.J[1] * h,
        J3_s=K4_STAR * p.J[2] * h**3,
        I_o3=p.J[2] * h,
    )


def weighted_from_microrotation(theta1_0, theta2_0, theta3_0, theta3, h: float):
    """Map raw microrotation amplitudes to the weighted mid-plane averages.

    Omega_a^0 = (4/5) Theta_a^0,  Omega3 = (8/5) Theta3 / h,
    Omega3^0 = Theta3^0.  The map is linear.
    """
    if not h > 0.0:
        raise MaterialError(f"thickness must be positive, got {h}")
    return (
        K1_STAR * np.asarray(theta1_0, dtype=float),
        K1_STAR * np.asarray(theta2_0, dtype=float),
        (K2_STAR / h) * np.asarray(theta3, dtype=float),
        np.asarray(theta3_0, dtype=float),
    )


def kinetic_density(accel: PlateKinematics, value: PlateKinematics, inertia: InertiaSet):
    """Bilinear acceleration-times-value density K*Udd . U.

    This is the pairing appearing in the mixed variational functional, not
    an energy; see :func:`kinetic_energy_density` for the quadratic form.
    """
    m = inertia.mass_vector()
    a = accel.as_array()
    u = value.as_array()
    return np.einsum("f,f...,f...->...", m, a, u)


def kinetic_energy_density(vel: PlateKinematics, inertia: InertiaSet):
    """Quadratic kinetic energy density 0.5 * v^T K v, used by energy logs."""
    m = inertia.mass_vector()
    v = vel.as_array()
    return 0.5 * np.einsum("f,f...,f...->...", m, v, v)
