"""Independent oracles used by the verification suites.

Everything here is deliberately implemented from first principles or from
classical literature formulas, not by calling the code paths under test:
a matrix-assembled 3D constitutive map, thickness-quadrature evaluations
of the plate work and kinetic densities, a self-contained Reissner-Mindlin
finite-difference solver and its closed-form dispersion relation, and the
polynomial manufactured-solution machinery.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .material import MaterialParams
from .operators import apply_to_polynomials
from .plate_fields import (
    EXTENSIONAL_FIELDS,
    FLEXURAL_FIELDS,
    KINEMATIC_FIELDS,
    PlateKinematics,
    PlateStress,
    LoadSet,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0


# ---------------------------------------------------------------------------
# 3D constitutive map as an explicitly assembled 9x9 matrix
# ---------------------------------------------------------------------------

def constitutive_matrices(p: MaterialParams):
    """(A_sigma, A_mu): 9x9 matrices acting on row-major flattened tensors.

    Assembled index-by-index from the Kronecker-delta structure of the
    isotropic law, independent of the tensor-expression implementation.
    """
    def assemble(c_sym, c_skw, c_tr):
        A = np.zeros((9, 9))
        for j in range(3):
            for i in range(3):
                for l in range(3):
                    for k in range(3):
                        val = 0.0
                        if j == l and i == k:
                            val += c_sym
                        if j == k and i == l:
                            val += c_skw
                        if j == i and l == k:
                            val += c_tr
                        A[3 * j + i, 3 * l + k] = val
        return A

    A_sigma = assemble(p.mu + p.alpha, p.mu - p.alpha, p.lam)
    A_mu = assemble(p.gamma + p.epsilon, p.gamma - p.epsilon, p.beta)
    return A_sigma, A_mu


# ---------------------------------------------------------------------------
# thickness reconstruction of the kinematic fields
# ---------------------------------------------------------------------------

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
    from .plate_constitutive import thickness_profiles

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


# ---------------------------------------------------------------------------
# classical Reissner-Mindlin plate oracles
# ---------------------------------------------------------------------------

def mindlin_assemble(D: float, nu: float, S: float, a: float, b: float,
                     nx: int, ny: int):
    """Collocated FD matrix of the classical Mindlin plate, clamped edges.

    Fields (psi1, psi2, w); S = kappa G h.  Written directly from the
    textbook equations as an independent check on the micropolar pipeline:
    each interior row is the list of its stencil terms below, emitted for
    all interior nodes at once; each boundary row is the identity.
    """
    dx = a / (nx - 1)
    dy = b / (ny - 1)
    nn = nx * ny
    ndof = 3 * nn

    def lap_terms(cxx, cyy):
        return [((1, 0), cxx / dx**2), ((-1, 0), cxx / dx**2),
                ((0, 0), -2.0 * cxx / dx**2 - 2.0 * cyy / dy**2),
                ((0, 1), cyy / dy**2), ((0, -1), cyy / dy**2)]

    cross = [((di, dj), w * D * (1 + nu) / 2 / (4 * dx * dy))
             for (di, dj), w in (((1, 1), 1.0), ((-1, -1), 1.0),
                                 ((1, -1), -1.0), ((-1, 1), -1.0))]

    # (row field, column field, [((di, dj), weight), ...]), in row order
    stencil = [
        (0, 0, lap_terms(D, D * (1 - nu) / 2)),
        (0, 1, cross),
        (0, 0, [((0, 0), -S)]),
        (0, 2, [((1, 0), -S / (2 * dx)), ((-1, 0), S / (2 * dx))]),
        (1, 1, lap_terms(D * (1 - nu) / 2, D)),
        (1, 0, cross),
        (1, 1, [((0, 0), -S)]),
        (1, 2, [((0, 1), -S / (2 * dy)), ((0, -1), S / (2 * dy))]),
        (2, 2, lap_terms(S, S)),
        (2, 0, [((1, 0), S / (2 * dx)), ((-1, 0), -S / (2 * dx))]),
        (2, 1, [((0, 1), S / (2 * dy)), ((0, -1), -S / (2 * dy))]),
    ]
    node = np.arange(nn).reshape(nx, ny)
    inner = node[1:-1, 1:-1].ravel()
    edge = np.setdiff1d(node, inner)
    rows, cols, vals = [], [], []
    for f in range(3):
        rows.append(f * nn + edge)
        cols.append(f * nn + edge)
        vals.append(np.ones(edge.size))
    for rf, cf, terms in stencil:
        for (di, dj), w in terms:
            rows.append(rf * nn + inner)
            cols.append(cf * nn + inner + di * ny + dj)
            vals.append(np.full(inner.size, w))
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    return A, nn


def mindlin_static_center_deflection(D, nu, S, p, a, b, nx, ny):
    """Clamped square under uniform load p; returns the center deflection."""
    A, nn = mindlin_assemble(D, nu, S, a, b, nx, ny)
    rhs = np.zeros((3, nx, ny))
    rhs[2, 1:-1, 1:-1] = -p
    sol = spla.spsolve(A.tocsc(), rhs.ravel())
    w = sol[2 * nn:].reshape(nx, ny)
    return w[(nx - 1) // 2, (ny - 1) // 2], w


def mindlin_dispersion(D, nu, S, I, rho_h, k):
    """Closed-form Mindlin branch frequencies at wavenumber k.

    Returns the three sorted frequencies: the flexural/thickness-shear pair
    from det[(D k^2 + S - I w^2)(S k^2 - rho_h w^2) - S^2 k^2] = 0 and the
    twisting branch w^2 = (D(1-nu)/2 k^2 + S)/I.
    """
    aq = I * rho_h
    bq = -(rho_h * (D * k**2 + S) + I * S * k**2)
    cq = D * S * k**4
    disc = bq**2 - 4.0 * aq * cq
    sq = np.sqrt(max(disc, 0.0))
    w2a = (-bq - sq) / (2.0 * aq)
    w2b = (-bq + sq) / (2.0 * aq)
    w2c = (0.5 * D * (1.0 - nu) * k**2 + S) / I
    return np.sort(np.sqrt(np.maximum([w2a, w2b, w2c], 0.0)))


def mindlin_verlet_trajectory(D, nu, S, I, rho_h, a, b, nx, ny, v0_w,
                              dt, n_steps):
    """Free vibration of the classical plate with the same explicit scheme.

    Initial condition: zero fields, w-velocity profile v0_w.  Returns the
    (psi1, psi2, w) trajectory sampled every step, for trajectory-level
    comparison with the micropolar solver at N ~ 0.
    """
    A, nn = mindlin_assemble(D, nu, S, a, b, nx, ny)
    interior = np.arange(nn).reshape(nx, ny)[1:-1, 1:-1].ravel()
    idofs = np.concatenate([f * nn + interior for f in range(3)])
    mass = np.concatenate([
        np.full(interior.size, I), np.full(interior.size, I),
        np.full(interior.size, rho_h),
    ])
    A_int = A[idofs]

    h = np.zeros(3 * nn)
    v = np.zeros(3 * nn)
    v[2 * nn + interior] = v0_w.reshape(nx, ny)[1:-1, 1:-1].ravel()

    def accel(hv):
        return (A_int @ hv) / mass

    out = [h.copy()]
    a0 = accel(h)
    for _ in range(n_steps):
        vi = v[idofs] + 0.5 * dt * a0
        h[idofs] += dt * vi
        a0 = accel(h)
        v[idofs] = vi + 0.5 * dt * a0
        out.append(h.copy())
    return np.asarray(out), nn


# ---------------------------------------------------------------------------
# manufactured polynomial solutions
# ---------------------------------------------------------------------------

def manufactured_fields(rng, degree: int = 3):
    """Random polynomial kinematics of total degree <= degree (9 fields)."""
    from .poly2d import Poly2D

    return {n: Poly2D.random(rng, degree) for n in KINEMATIC_FIELDS}


def manufactured_boundary_data(polys):
    """Clamped edge data (flex_data, ext_data) equal to the given
    polynomial kinematics; it needs no model."""
    def data(names):
        return lambda x, y: np.stack([polys[n](x, y) for n in names])
    return data(FLEXURAL_FIELDS), data(EXTENSIONAL_FIELDS)


def manufactured_static_problem(model, polys):
    """Interior forcing and clamped boundary data realizing the given
    polynomial kinematics as the exact solution of the static systems."""
    flex_polys = [polys[n] for n in FLEXURAL_FIELDS]
    ext_polys = [polys[n] for n in EXTENSIONAL_FIELDS]
    F_flex = apply_to_polynomials(model.flex.active_coeffs, flex_polys)
    F_ext = apply_to_polynomials(model.ext.active_coeffs, ext_polys)
    X, Y = model.X, model.Y
    f_flex = np.stack([f(X, Y) for f in F_flex])
    f_ext = np.stack([f(X, Y) for f in F_ext])
    exact_flex = np.stack([p(X, Y) for p in flex_polys])
    exact_ext = np.stack([p(X, Y) for p in ext_polys])
    return (f_flex, f_ext, *manufactured_boundary_data(polys),
            exact_flex, exact_ext)
