"""Static solves on the discretization.

``static_solve`` solves each subsystem's system A h = b condensed onto its
free (interior and traction) dofs and factored (``_StaticFactor``).  The
factor is built on the first static solve and cached on the
discretization, so later solves on one model only run the triangular
solves.  Factor fill, free-dof count and residuals are logged at DEBUG
level; the normwise backward error of each solve is logged too and
returned in ``static_solve``'s diagnostics.
"""

from __future__ import annotations

import ctypes
import logging

import numpy as np
import scipy.sparse.linalg as spla

from ..plate_fields import PlateKinematics
from .discretization import (DiscreteModel, SingularSystemError,
                             _abs_matvec, _Discretization, _envelope_sum)

_log = logging.getLogger(__name__)

# glibc's malloc_trim, which hands freed heap pages back to the OS; a no-op
# where the C library has no such call.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    def _malloc_trim(pad: int) -> int:
        return 0


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Node indices i * ny + j of the nx x ny grid in geometric nested
    dissection order (George, SIAM J. Numer. Anal. 10, 1973).

    A block is split across its longer side by one node line; the two
    halves come first, each ordered the same way, and the separator last.
    Blocks of at most 4 x 4 nodes keep their natural order.  One line
    separates the halves: interior stencils reach only the nearest nodes,
    and a one-sided boundary stencil, which reaches two nodes inward, stops
    at the separator of any block it can be split from (5 nodes or more).
    """
    order = []

    def visit(i0, i1, j0, j1):
        if i1 - i0 <= 4 and j1 - j0 <= 4:
            order.append((np.arange(i0, i1)[:, None] * ny
                          + np.arange(j0, j1)[None, :]).ravel())
        elif i1 - i0 >= j1 - j0:
            m = (i0 + i1) // 2
            visit(i0, m, j0, j1)
            visit(m + 1, i1, j0, j1)
            order.append(m * ny + np.arange(j0, j1))
        else:
            m = (j0 + j1) // 2
            visit(i0, i1, j0, m)
            visit(i0, i1, m + 1, j1)
            order.append(np.arange(i0, i1) * ny + m)

    visit(0, nx, 0, ny)
    return np.concatenate(order)


class _StaticFactor:
    """The static system of one subsystem, condensed and factored.

    The identity Dirichlet rows and columns are removed, leaving the free
    (interior and traction) dofs F and A_FF h_F = b_F - A_FD g.  F is
    ordered by nested dissection of the node grid with all fields of a
    node adjacent, and SuperLU factors A_FF in that order with threshold
    pivoting that prefers the diagonal.  Each solve adds ``REFINE`` steps
    of iterative refinement against A_FF, which recover the accuracy the
    relaxed pivoting gives up.

    ``PIVOT_THRESH`` lets SuperLU keep a diagonal pivot down to that
    fraction of its column's largest entry.  The cantilever's smallest
    such ratio is 4e-3 to 1e-2 over N 0.2-0.5, l_t 0.04-0.08, l_b
    0.05-0.09, Psi 0.6-1.2 at 33^2-129^2 (clamped plates stay above
    1e-2), so at 1e-3 no row swap happens and the fill is set by the
    sparsity alone.  At 1e-2 the swaps taken depend on the material and
    raise a 65^2 cantilever's fill from 7.0M to anywhere up to 10.6M.
    """

    REFINE = 2
    PIVOT_THRESH = 1.0e-3

    def __init__(self, d: _Discretization):
        self.name = d.name
        nn = d.nx * d.ny
        nodes = _nested_dissection(d.nx, d.ny)
        nodes = nodes[d.kind.ravel()[nodes] != 1]  # drop Dirichlet nodes
        self.free = (nodes[:, None] + nn * np.arange(d.nf)[None, :]).ravel()
        self.dirich = d.dirich_dofs
        A_F = d.A[self.free]
        self.A_FF = A_F[:, self.free]
        self.A_FD = A_F[:, self.dirich]
        del A_F
        # ||A_FF|| in the infinity norm, the largest |row| sum, for the
        # backward error; its temporary |A_FF| is freed before SuperLU runs
        self.norm = float(np.max(_abs_matvec(self.A_FF,
                                             np.ones(self.free.size))))
        self.backward_error = None
        # SuperLU sizes its work arrays from a fill estimate and touches only
        # part of them.  On fresh pages the untouched part costs no memory;
        # on C-heap pages that earlier work touched and freed, which glibc
        # keeps resident, all of it counts, and how much lands there depends
        # on the heap's history.  Trimming the heap before the factorization
        # gives SuperLU fresh pages, and after it returns the freed
        # workspace.  Untrimmed, the peak RSS of ten 26 s `verify` benchmark
        # runs spread over 221-261 MiB; trimmed, over 224-228 MiB.
        _malloc_trim(0)
        try:
            self.lu = spla.splu(self.A_FF.tocsc(), permc_spec="NATURAL",
                                diag_pivot_thresh=self.PIVOT_THRESH,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SingularSystemError(
                f"{d.name} static factorization failed: {exc}") from exc
        _malloc_trim(0)
        if _log.isEnabledFor(logging.DEBUG):
            # lu.L and lu.U are copies of the factor: build them only here
            _log.debug("%s static factor: %d free dofs, L+U nnz %d", d.name,
                       self.free.size, self.lu.L.nnz + self.lu.U.nnz)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Full-grid h with A h = rhs, where rhs holds the Dirichlet data g
        on the Dirichlet dofs.  Sets ``backward_error`` to the normwise
        backward error ||r|| / (||A_FF|| ||x|| + ||b||), infinity norms, of
        the refined free-dof solution x."""
        g = rhs[self.dirich]
        b = rhs[self.free] - self.A_FD @ g
        scale = max(np.max(np.abs(b)), 1.0e-300)
        x = self.lu.solve(b)
        resid = []
        for k in range(self.REFINE + 1):
            r = b - self.A_FF @ x
            resid.append(np.max(np.abs(r)))
            if k < self.REFINE:
                x += self.lu.solve(r)
        self.backward_error = float(
            resid[-1] / (self.norm * np.max(np.abs(x)) + scale))
        _log.debug("%s static solve: %d free dofs, %d refinement steps, "
                   "relative residual %.3e -> %.3e, backward error %.3e",
                   self.name, self.free.size, self.REFINE,
                   resid[0] / scale, resid[-1] / scale, self.backward_error)
        h = np.empty(rhs.size)
        h[self.free] = x
        h[self.dirich] = g
        return h


def _static_rhs(d: _Discretization, extra_F=None):
    rhs = np.zeros(d.ndof)
    presets, F, T = d.load_terms
    rhs[d.interior_dofs] = _envelope_sum(presets, F, 0.0)
    if extra_F is not None:
        flat = np.asarray(extra_F, dtype=float).reshape(d.nf, -1)
        rhs[d.interior_dofs] += flat[:, d.interior_nodes].ravel()
    rhs[d.dirich_dofs] = d.dirichlet_values()
    rhs[d.trac_dofs] = d.traction_values()
    rhs[d.trac_dofs] += _envelope_sum(presets, T, 0.0)
    return rhs


def _solve_subsystem(d: _Discretization, extra_F=None):
    if not d.has_dirichlet:
        raise SingularSystemError(
            f"{d.name} system has traction data on every edge; the rigid "
            f"null space ({d.null_space}) makes the static problem singular"
        )
    rhs = _static_rhs(d, extra_F)
    h = d.static_factor.solve(rhs)
    if not np.all(np.isfinite(h)):
        raise SingularSystemError(f"{d.name} static solve produced non-finite values")
    resid = np.max(np.abs(d.A @ h - rhs))
    scale = max(np.max(np.abs(rhs)), 1.0e-300)
    return h, resid, scale, d.static_factor.backward_error


def static_solve(model: DiscreteModel, extra_flex_F=None, extra_ext_F=None):
    """Solve both static systems; returns (PlateKinematics, diagnostics).

    Requires at least one displacement-constrained edge; otherwise the
    rigid modes are reported by name.  ``extra_*_F`` adds a manufactured
    interior forcing (per-field grids) to the load vector.
    """
    hf, rf, sf, bf = _solve_subsystem(model.flex_d, extra_flex_F)
    he, re_, se, be = _solve_subsystem(model.ext_d, extra_ext_F)
    shape = (model.nx, model.ny)
    flex_fields = hf.reshape(6, *shape)
    ext_fields = he.reshape(3, *shape)
    diag = {
        "flexural_residual": rf,
        "flexural_rhs_scale": sf,
        "flexural_backward_error": bf,
        "extensional_residual": re_,
        "extensional_rhs_scale": se,
        "extensional_backward_error": be,
    }
    kin = PlateKinematics.from_arrays(flexural=flex_fields, extensional=ext_fields)
    return kin, diag


def worst_static_row(model: DiscreteModel, kin: PlateKinematics) -> tuple:
    """The row of either static system that ``kin`` satisfies worst, as
    (subsystem, field, i, j, relative residual): the row with the largest
    |A h - b| / max|b|, b the right-hand side ``static_solve`` builds
    without extra forcing."""
    worst = None
    for d, h in ((model.flex_d, kin.flexural()),
                 (model.ext_d, kin.extensional())):
        rhs = _static_rhs(d)
        r = np.abs(d.A @ np.ravel(h) - rhs) / max(np.max(np.abs(rhs)), 1e-300)
        k = int(np.argmax(r))
        if worst is None or r[k] > worst[-1]:
            worst = (d.name, *d.locate(k), float(r[k]))
    return worst
