"""Thickness-quadrature oracles of the plate work and kinetic densities.

They reconstruct the 3D fields through the plate's kinematic profiles and
integrate them over the thickness by Gauss-Legendre quadrature, without
calling the plate-level density code that the tests check against them.
"""

import numpy as np

from cosserat_plate.material import MaterialParams
from cosserat_plate.plate_constitutive import thickness_profiles
from cosserat_plate.plate_fields import LoadSet, PlateKinematics, PlateStress

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0


def kinematic_profiles(u: PlateKinematics, h: float, zeta: float):
    """(u1, u2, u3, phi1, phi2, phi3) at scaled thickness coordinate zeta.

    The mid-plane averages invert to the raw amplitudes through the
    correspondence coefficients 4/5, 8/5 and 1.
    """
    th1 = 1.25 * np.asarray(u.omega1_0)
    th2 = 1.25 * np.asarray(u.omega2_0)
    th3 = (5.0 * h / 8.0) * np.asarray(u.omega3)
    return (
        np.asarray(u.u1) + 0.5 * h * zeta * np.asarray(u.psi1),
        np.asarray(u.u2) + 0.5 * h * zeta * np.asarray(u.psi2),
        np.asarray(u.w) + 0.0 * zeta,
        th1 * (1.0 - zeta**2),
        th2 * (1.0 - zeta**2),
        np.asarray(u.omega3_0) + zeta * (1.0 - zeta**2 / 3.0) * th3,
    )


def strain_profiles(u: PlateKinematics, d1: PlateKinematics,
                    d2: PlateKinematics, h: float, zeta: float):
    """3D strain and torsion tensors gamma_ji = u_i,j + eps_jik phi_k,
    chi_ji = phi_i,j at a thickness point, from the plate kinematics."""
    prof = kinematic_profiles(u, h, zeta)
    p1 = kinematic_profiles(d1, h, zeta)
    p2 = kinematic_profiles(d2, h, zeta)
    # d/dx3 = (2/h) d/dzeta of the reconstruction
    th1 = 1.25 * np.asarray(u.omega1_0)
    th2 = 1.25 * np.asarray(u.omega2_0)
    th3 = (5.0 * h / 8.0) * np.asarray(u.omega3)
    du_dz = (
        np.asarray(u.psi1) + 0.0 * zeta,
        np.asarray(u.psi2) + 0.0 * zeta,
        0.0 * np.asarray(u.w),
        (2.0 / h) * th1 * (-2.0 * zeta),
        (2.0 / h) * th2 * (-2.0 * zeta),
        (2.0 / h) * th3 * (1.0 - zeta**2),
    )
    disp = np.stack(prof[:3])
    phi = np.stack(prof[3:])
    grads = np.stack([np.stack(p1[:3]), np.stack(p2[:3]), np.stack(du_dz[:3])])
    phgrads = np.stack([np.stack(p1[3:]), np.stack(p2[3:]), np.stack(du_dz[3:])])

    base = np.broadcast(np.asarray(u.w)).shape
    gamma = np.zeros((3, 3) + base)
    chi = np.zeros((3, 3) + base)
    for j in range(3):
        for i in range(3):
            gamma[j, i] = grads[j, i]
            for k in range(3):
                if _EPS[j, i, k] != 0.0:
                    gamma[j, i] = gamma[j, i] + _EPS[j, i, k] * phi[k]
            chi[j, i] = phgrads[j, i]
    return gamma, chi


def work_density_quadrature(s: PlateStress, loads: LoadSet,
                            u: PlateKinematics, d1: PlateKinematics,
                            d2: PlateKinematics, h: float):
    """(h/2) Int(sigma:gamma + mu:chi) dzeta with profile-consistent fields.

    For an independent resultant set s this equals S . E(u) plus the face
    couple-mean correction (5h/6) * t * Omega3 (the mu_33 chi_33 pairing,
    which has no resultant slot).
    """
    total = 0.0
    for zk, wk in zip(_GL_NODES, _GL_WEIGHTS):
        prof = thickness_profiles(s, loads, h, zk)
        gamma, chi = strain_profiles(u, d1, d2, h, zk)
        sg = np.einsum("...ji,ji...->...", prof.sigma, gamma)
        mc = np.einsum("...ji,ji...->...", prof.mu_c, chi)
        total = total + wk * (sg + mc)
    return 0.5 * h * total


def kinetic_density_quadrature(vel: PlateKinematics, p: MaterialParams,
                               h: float):
    """(h/2) Int 0.5 (rho udot.udot + J phidot.phidot) dzeta.

    Brute-force thickness integration of the kinetic energy under the
    kinematic profiles; matches the plate inertia set on every field
    except Omega3, whose profile-consistent weight is (85/1008) J3 h^3
    against the tabulated (25/32) J3 h^3 (ratio 315/34).
    """
    total = 0.0
    for zk, wk in zip(_GL_NODES, _GL_WEIGHTS):
        u1, u2, u3, f1, f2, f3 = kinematic_profiles(vel, h, zk)
        dens = 0.5 * (
            p.rho * (u1**2 + u2**2 + u3**2)
            + p.J[0] * f1**2 + p.J[1] * f2**2 + p.J[2] * f3**2
        )
        total = total + wk * dens
    return 0.5 * h * total


OMEGA3_INERTIA_QUADRATURE = 85.0 / 1008.0   # vs tabulated 25/32
