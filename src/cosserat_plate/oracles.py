"""Independent oracles used by the verification suites.

Everything here is deliberately implemented from first principles or from
classical literature formulas, not by calling the code paths under test:
a self-contained Reissner-Mindlin finite-difference solver and its
closed-form dispersion relation, and the polynomial manufactured-solution
machinery.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._blas import _one_blas_thread
from .operators import apply_to_polynomials
from .plate_fields import EXTENSIONAL_FIELDS, FLEXURAL_FIELDS, KINEMATIC_FIELDS


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


def _mindlin_interior_dofs(nx: int, ny: int) -> np.ndarray:
    """The dofs f * nx * ny + node of the interior nodes, the 3 fields of a
    node adjacent, nodes line by line with each line along the shorter
    side: a row then reaches at most 3 (line length + 1) + 1 dofs away."""
    inner = np.arange(nx * ny).reshape(nx, ny)[1:-1, 1:-1]
    nodes = (inner if ny <= nx else inner.T).ravel()
    return (nodes[:, None] + nx * ny * np.arange(3)[None, :]).ravel()


def _lower_band(M) -> np.ndarray:
    """The lower band of the symmetric sparse M in LAPACK's band storage,
    ab[i - j, j] = M[i, j] for 0 <= i - j <= kd, in Fortran order, which
    LAPACK takes in place."""
    C = M.tocoo()
    off = C.row - C.col
    lower = off >= 0
    ab = np.zeros((int(off.max()) + 1, M.shape[0]), order="F")
    ab[off[lower], C.col[lower]] = C.data[lower]
    return ab


def mindlin_static_center_deflection(D, nu, S, p, a, b, nx, ny):
    """Clamped plate under uniform load p; returns the center deflection
    and the deflection grid.

    The identity rows of the clamped edges are dropped, and their zero
    values with them.  The interior block A_II is symmetric and negative
    definite, so -A_II w = p on the w rows is solved by LAPACK's banded
    Cholesky (pbsv), on one BLAS thread: a 65^2 solve takes 0.06 s against
    0.37-0.41 s for SuperLU on the full matrix.
    """
    A, nn = mindlin_assemble(D, nu, S, a, b, nx, ny)
    dofs = _mindlin_interior_dofs(nx, ny)
    ab = _lower_band(-A[dofs][:, dofs])
    rhs = np.zeros(dofs.size)
    rhs[2::3] = p
    with _one_blas_thread():
        sol = sla.solveh_banded(ab, rhs, lower=True, overwrite_ab=True,
                                check_finite=False)
    full = np.zeros(3 * nn)
    full[dofs] = sol
    w = full[2 * nn:].reshape(nx, ny)
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
    F_flex = apply_to_polynomials(model.flex_d.op.active_coeffs, flex_polys)
    F_ext = apply_to_polynomials(model.ext_d.op.active_coeffs, ext_polys)
    X, Y = model.X, model.Y
    f_flex = np.stack([f(X, Y) for f in F_flex])
    f_ext = np.stack([f(X, Y) for f in F_ext])
    exact_flex = np.stack([p(X, Y) for p in flex_polys])
    exact_ext = np.stack([p(X, Y) for p in ext_polys])
    return (f_flex, f_ext, *manufactured_boundary_data(polys),
            exact_flex, exact_ext)
