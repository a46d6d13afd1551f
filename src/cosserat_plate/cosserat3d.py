"""Pointwise 3D micropolar constitutive maps and energy densities.

Tensors are stored row-major as {t_ji}: the first index is the face
(divergence) index, the second the component index.  Stress and couple
stress are generally asymmetric:

    sigma = (mu+alpha)*gamma + (mu-alpha)*gamma^T + lambda*tr(gamma)*1
    mu_c  = (gamma_mod+epsilon)*chi + (gamma_mod-epsilon)*chi^T
            + beta*tr(chi)*1

and the inverse map has the same form with the reciprocal moduli.  This
layer is the ground truth against which the plate-level algebra is checked.
All functions broadcast over leading batch axes, and so do the moduli: a
``MaterialParams`` or ``ReciprocalParams`` whose fields are arrays of the
batch shape (one material per tensor) maps a stack of materials at once,
with the same arithmetic, and so the same bits, as one call per material.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import (
    MaterialParams,
    ReciprocalParams,
    require_admissible,
)

_EYE = np.eye(3)


@dataclass(frozen=True)
class Strain3D:
    """Micropolar strain gamma [-] and torsion chi [1/m], each (..., 3, 3)."""

    gamma: np.ndarray
    chi: np.ndarray


@dataclass(frozen=True)
class Stress3D:
    """Stress sigma [Pa] and couple stress mu_c [Pa*m], each (..., 3, 3)."""

    sigma: np.ndarray
    mu_c: np.ndarray


def _isotropic_map(t: np.ndarray, sym_c, skw_c, tr_c) -> np.ndarray:
    """(a+b)*t + (a-b)*t^T + c*tr(t)*1 with a+b=sym_c, a-b=skw_c, c=tr_c;
    the coefficients are numbers or arrays of t's batch shape."""
    t = np.asarray(t, dtype=float)
    sym_c, skw_c, tr_c = (np.asarray(c)[..., None, None]
                          for c in (sym_c, skw_c, tr_c))
    tT = np.swapaxes(t, -1, -2)
    trace = np.trace(t, axis1=-2, axis2=-1)[..., None, None]
    return sym_c * t + skw_c * tT + tr_c * trace * _EYE


def stress_from_strain_3d(s: Strain3D, p: MaterialParams) -> Stress3D:
    """Forward constitutive map (stiffness form)."""
    require_admissible(p)
    sigma = _isotropic_map(s.gamma, p.mu + p.alpha, p.mu - p.alpha, p.lam)
    mu_c = _isotropic_map(s.chi, p.gamma + p.epsilon, p.gamma - p.epsilon, p.beta)
    return Stress3D(sigma=sigma, mu_c=mu_c)


def strain_from_stress_3d(t: Stress3D, r: ReciprocalParams) -> Strain3D:
    """Inverse constitutive map (compliance form) from reciprocal moduli."""
    gamma = _isotropic_map(t.sigma, r.mu_p + r.alpha_p, r.mu_p - r.alpha_p, r.lambda_p)
    chi = _isotropic_map(t.mu_c, r.gamma_p + r.epsilon_p, r.gamma_p - r.epsilon_p, r.beta_p)
    return Strain3D(gamma=gamma, chi=chi)


def _quadratic_density(t: np.ndarray, sym_c, skw_c, tr_c) -> np.ndarray:
    """0.5*[sym_c*t:t + skw_c*t:t^T + tr_c*tr(t)^2]."""
    t = np.asarray(t, dtype=float)
    tt = np.sum(t * t, axis=(-2, -1))
    ttT = np.sum(t * np.swapaxes(t, -1, -2), axis=(-2, -1))
    tr = np.trace(t, axis1=-2, axis2=-1)
    return 0.5 * (sym_c * tt + skw_c * ttT + tr_c * tr**2)


def strain_energy_density(s: Strain3D, p: MaterialParams) -> np.ndarray:
    """W{gamma, chi}: non-negative iff the parameter conditions hold."""
    w = _quadratic_density(s.gamma, p.mu + p.alpha, p.mu - p.alpha, p.lam)
    w = w + _quadratic_density(s.chi, p.gamma + p.epsilon, p.gamma - p.epsilon, p.beta)
    return w


def stress_energy_density(t: Stress3D, r: ReciprocalParams) -> np.ndarray:
    """Phi{sigma, mu_c}: the same quadratic form in the stress variables."""
    phi = _quadratic_density(t.sigma, r.mu_p + r.alpha_p, r.mu_p - r.alpha_p, r.lambda_p)
    phi = phi + _quadratic_density(
        t.mu_c, r.gamma_p + r.epsilon_p, r.gamma_p - r.epsilon_p, r.beta_p
    )
    return phi


def energy_densities_3d(s: Strain3D, p: MaterialParams):
    """Return (W, Phi, internal_work) for a strain state.

    Phi is evaluated on the induced stress; the internal work density is
    sigma:gamma + mu_c:chi.  On shell these satisfy W == Phi and
    internal_work == 2*W (the contraction of a quadratic form with its
    argument doubles the stored energy).
    """
    from .material import reciprocal_constants

    t = stress_from_strain_3d(s, p)
    w = strain_energy_density(s, p)
    phi = stress_energy_density(t, reciprocal_constants(p))
    work = np.sum(t.sigma * s.gamma, axis=(-2, -1)) + np.sum(
        t.mu_c * s.chi, axis=(-2, -1)
    )
    return w, phi, work
