"""Static solves on the discretization.

``static_solve`` solves each subsystem's system A h = b condensed onto its
free (interior and traction) dofs, the free block A_FF (``_FreeBlock``),
and factored (``_StaticFactor``): by banded Cholesky when A_FF is
symmetric, as on every plate of the derived tables, and by SuperLU
otherwise, which only the literal tables reach.  On a plate whose edges
are mirror-symmetric the symmetric system splits exactly into its even
and odd parts under the mirror, each band-factored on half the grid.
Each solve builds its subsystem's factors and releases them before the
next subsystem is factored, so one subsystem's factors at most are
alive; a repeat solve on one model factors again.  A subsystem whose right-hand
side is all zero (no load, no boundary data, no extra forcing) is never
factored: its solution is +0.  The factor's kind, mirror classes and
size, the free-dof count and residuals are logged at DEBUG level; the
normwise backward error of each solve is logged too and returned in
``static_solve``'s diagnostics.
"""

from __future__ import annotations

import ctypes
import logging
from dataclasses import replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .._blas import _one_blas_thread
from ..plate_fields import PlateKinematics
from .discretization import (DiscreteModel, SingularSystemError,
                             _abs_matvec, _Discretization, _envelope_sum)
from .mirror import classes_of

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
    separates the halves: every stencil reaches only the nearest nodes.
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


def _line_order(nx: int, ny: int, axis: int | None = None) -> np.ndarray:
    """Node indices i * ny + j of the nx x ny grid line by line, each line
    along grid axis ``axis`` (0: i, 1: j), by default the shorter side,
    which gives a stencil matrix its narrowest band: a node couples to the
    nodes of the next line at most one line length plus one later."""
    if axis is None:
        axis = 1 if ny <= nx else 0
    nodes = np.arange(nx * ny).reshape(nx, ny)
    return (nodes if axis else nodes.T).ravel()


def _lower_band(A) -> np.ndarray:
    """-A's lower band in LAPACK's band storage, ab[i - j, j] = -A[i, j]
    for 0 <= i - j <= kd, of a CSR matrix A with no duplicate entries.
    The array is in Fortran order, which pbtrf takes in place; f2py copies
    a C-order one."""
    n = A.shape[0]
    # trimmed as before the factor: the freed temporaries of the norm,
    # the symmetry check and the mirror classes would otherwise stay
    # resident under the band (1-3 MiB more peak RSS at 65^2)
    _malloc_trim(0)
    # ab[i - j, j] is flat element i - j + (kd + 1) j, made in place in
    # one intp array (it passes 2^31 past about 400^2); only it and the
    # values are alive while the scatter touches the band's pages
    flat = np.repeat(np.arange(n), np.diff(A.indptr))
    flat -= A.indices
    kd = int(flat.max())
    lower = flat >= 0
    flat = flat[lower]
    flat += np.multiply(A.indices[lower], kd + 1, dtype=np.intp)
    data = -A.data[lower]
    del lower
    band = np.zeros((kd + 1, n), order="F")
    band.ravel(order="F")[flat] = data
    return band


class _StaticFactor:
    """The static system of one subsystem, condensed and factored: each
    solve builds one and releases it before the next subsystem's factor.

    The identity Dirichlet rows and columns are removed, leaving the free
    (interior and traction) dofs F and A_FF h_F = b_F - A_FD g, both read
    off the free block (``block``), field by field.  Only the matrices
    handed to the factor are permuted, into its dof order ``order`` with
    all fields of a node adjacent.  Which factor A_FF gets depends on its
    measured symmetry, not on the kind of its edges:

    - **Symmetric** (max|A_FF - A_FF^T| <= ``SYMMETRY_TOL`` ||A_FF||): the
      static equations are the stationarity conditions of the positive
      definite discrete plate energy, so -A_FF is symmetric positive definite
      on every plate of the derived tables with a displacement edge: the
      interior and traction rows are the Hessian of one energy (asymmetry 0 on
      clamped plates, 4e-17 with traction edges).  F is ordered line by line,
      each line along the grid's shorter side, or along the longer one when
      only that side's mirror maps the free dofs onto themselves, and split
      into classes by the mirror M that reverses every line
      (``_class_forms``).  When M maps the free dofs onto themselves and
      commutes with A_FF exactly, S M A_FF M S = A_FF bit for bit with the
      field signs S of ``mirror._MIRROR_PARITY`` (the isotropic energy does
      not see the mirror), F splits into the part even under S M and the
      part odd under it (Bossavit, Comput. Methods Appl. Mech. Engrg. 56,
      1986).  Each class sigma has a basis P_sigma on the half grid, its
      columns in line order: the nodes on one side of the mirror line and on
      it, with a node on the line keeping only the fields whose sign is
      sigma.  The classes do not couple,
      so A_FF^-1 = sum P_sigma A_sigma^-1 P_sigma^T with A_sigma = P_sigma^T
      A_FF P_sigma, and each -A_sigma's lower band is factored by LAPACK's
      banded Cholesky (pbtrf), which runs dense kernels at several times
      SuperLU's rate.  The half grid's lines are half as long, so the two
      class bands are half as wide as the whole one: half its storage and a
      quarter of its work.  The other mirror would halve each class's dofs but
      not its band, so it is not taken.  The 97 x 129 cantilever, clamped on
      its left edge, takes lines along j and splits at half-bandwidth 394,
      against 583 for the whole band.  Without the symmetry the whole of F
      is the one class.  Split or whole, band storage grows as n^3 and the
      work as n^4 on an n x n grid, against n^2 log n and n^3 for nested
      dissection (George & Liu, 1981); on the clamped 129^2 plate the split
      takes 1.0 s and 430 MiB peak RSS, the whole band 2.6 s and 710 MiB
      (both subsystems loaded, one core of a 2-vCPU Xeon VM).  The factors
      run on one BLAS thread (``_one_blas_thread``).
    - **Not symmetric**: only the literal coefficient tables of
      ``--paper-literal-operators`` (0.3-0.5% asymmetry on a clamped
      plate).  F is ordered by nested dissection of the node grid and
      SuperLU factors A_FF in that order with threshold pivoting that
      prefers the diagonal.

    Each solve adds ``REFINE`` = 1 step of iterative refinement against
    A_FF: the 129^2 cantilever's max|r|/max|b| read 8.6e-10 unrefined and
    2.0e-10 after one step when SuperLU factored it, and a second step
    never lowered the backward error (1e-16 to 1.5e-16 after one) on the
    static loads.  A symmetric A_FF that is not negative definite, like a
    singular one, raises ``SingularSystemError``.

    ``PIVOT_THRESH`` lets SuperLU keep a diagonal pivot down to that
    fraction of its column's largest entry; the literal tables of an N =
    0.2 plate still swap rows at 1e-3, so there the fill depends on the
    material.
    """

    REFINE = 1
    PIVOT_THRESH = 1.0e-3
    SYMMETRY_TOL = 1.0e-12

    def __init__(self, d: _Discretization):
        self.name = d.name
        self.free, self.dirich = d.free_dofs, d.dirich_dofs
        self.block = block = d.free_block
        K = block.A_FF
        self.lu = None
        self.mirror = "none"
        # the lines run along the shorter side, unless only the other
        # side's mirror maps the free dofs onto themselves
        axes = (1, 0) if d.ny <= d.nx else (0, 1)
        self.axis = next((a for a in axes if block.mirror(a)), axes[0])
        self.classes = []  # (name, P or None for the whole band, factor)
        # ||A_FF|| in the infinity norm, the largest |row| sum, for the
        # backward error; its temporary |A_FF| is freed before the factor.
        # Neither it nor the symmetry check depends on the dof order.
        self.norm = float(np.max(_abs_matvec(K, np.ones(K.shape[0]))))
        symmetric = abs(K - K.T).max() <= self.SYMMETRY_TOL * self.norm
        # the factor's dof order, node by node, as positions in free_dofs
        nodes = (_line_order(d.nx, d.ny, self.axis) if symmetric
                 else _nested_dissection(d.nx, d.ny))
        free = d.kind.ravel() != 1
        rank = np.cumsum(free) - 1  # a free node's place among the free
        self.order = (rank[nodes[free[nodes]]][:, None]
                      + d.free_nodes.size * np.arange(d.nf)).ravel()
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
            if symmetric:
                for name, P, A in self._class_forms(K):
                    band = _lower_band(A)
                    del A  # A_sigma is freed once its band is built
                    with _one_blas_thread():
                        self.classes.append((name, P, sla.cholesky_banded(
                            band, lower=True, overwrite_ab=True,
                            check_finite=False)))
            else:
                self.lu = spla.splu(K[self.order][:, self.order].tocsc(),
                                    permc_spec="NATURAL",
                                    diag_pivot_thresh=self.PIVOT_THRESH,
                                    options=dict(SymmetricMode=True))
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SingularSystemError(
                f"{d.name} static factorization failed: {exc}") from exc
        _malloc_trim(0)
        if not _log.isEnabledFor(logging.DEBUG):
            return
        if symmetric:
            _log.debug("%s static factor: %d free dofs, band Cholesky, "
                       "lines along %s, mirror %s, %s", d.name,
                       self.free.size, "ij"[self.axis], self.mirror,
                       "; ".join(
                           f"{name} class {cho.shape[1]} dofs, half-bandwidth "
                           f"{cho.shape[0] - 1}, band storage "
                           f"{cho.nbytes / 2**20:.1f} MiB"
                           for name, _, cho in self.classes))
        else:
            # lu.L and lu.U are copies of the factor: build them only here
            _log.debug("%s static factor: %d free dofs, SuperLU, L+U nnz %d",
                       d.name, self.free.size, self.lu.L.nnz + self.lu.U.nnz)

    def _class_forms(self, K):
        """Each class of A_FF = K under the mirror M that reverses every
        line, one at a time, as (name, P, P^T K P) with P's columns in line
        order; M's grid index goes to ``self.mirror``.  Without the exact
        symmetry the one class is ("all", None, K in line order)."""
        if not self.block.commutes(self.axis):
            yield "all", None, K[self.order][:, self.order]
            return
        self.mirror = "ij"[self.axis]
        for c in classes_of([self.block.mirror(self.axis)]):
            # the class's columns in line order
            line = np.full(self.order.size, -1)
            line[c.rows] = np.arange(c.rows.size)
            line = line[self.order][line[self.order] >= 0]
            c = replace(c, P=c.P[:, line], rows=c.rows[line],
                        weight=c.weight[line])
            del line
            yield c.name, c.P, c.form(K)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """A_FF^-1 b: the one factor's solve in its dof order, or the sum
        over the mirror classes of P A_sigma^-1 P^T b."""
        if self.mirror == "none":
            x = np.empty(b.size)
            x[self.order] = (
                self.lu.solve(b[self.order]) if self.lu is not None
                else sla.cho_solve_banded((self.classes[0][2], True),
                                          -b[self.order], check_finite=False))
            return x
        x = 0.0
        for _, P, cho in self.classes:
            x = x + P @ sla.cho_solve_banded((cho, True), P.T @ -b,
                                             check_finite=False)
        return x

    def solve(self, rhs: np.ndarray) -> tuple:
        """Full-grid h with A h = rhs, where rhs holds the Dirichlet data g
        on the Dirichlet dofs, and the normwise backward error ||r|| /
        (||A_FF|| ||x|| + ||b||), infinity norms, of the refined free-dof
        solution x."""
        g = rhs[self.dirich]
        b = rhs[self.free] - self.block.A_FD @ g
        scale = max(np.max(np.abs(b)), 1.0e-300)
        x = self._solve(b)
        resid = []
        for k in range(self.REFINE + 1):
            r = b - self.block.A_FF @ x
            resid.append(np.max(np.abs(r)))
            if k < self.REFINE:
                x += self._solve(r)
        backward_error = float(
            resid[-1] / (self.norm * np.max(np.abs(x)) + scale))
        _log.debug("%s static solve: %d free dofs, %d refinement step(s), "
                   "relative residual %.3e -> %.3e, backward error %.3e",
                   self.name, self.free.size, self.REFINE,
                   resid[0] / scale, resid[-1] / scale, backward_error)
        h = np.empty(rhs.size)
        h[self.free] = x
        h[self.dirich] = g
        return h, backward_error


def _static_rhs(d: _Discretization, extra_F=None):
    """The right-hand side b of A h = b: the load vector, less the force of
    the traction data, on the free dofs and g on the Dirichlet dofs.  An
    extra forcing is weighted by each node's dual-cell fraction, as the
    loads are."""
    rhs = np.zeros(d.ndof)
    presets, F = d.load_terms
    rhs[d.free_dofs] = _envelope_sum(presets, F, 0.0)
    if extra_F is not None:
        flat = np.asarray(extra_F, dtype=float).reshape(d.nf, -1)
        rhs[d.free_dofs] += (flat * d.weight.ravel())[:, d.free_nodes].ravel()
    rhs[d.dirich_dofs] = d.dirichlet_values()
    rhs[d.trac_dofs] -= d.traction_force()
    return rhs


def _solve_subsystem(d: _Discretization, extra_F=None):
    if not d.has_dirichlet:
        raise SingularSystemError(
            f"{d.name} system has traction data on every edge; the rigid "
            f"null space ({d.null_space}) makes the static problem singular"
        )
    rhs = _static_rhs(d, extra_F)
    if not np.any(rhs):
        # nothing loads this subsystem: h = +0, and nothing to factor
        return np.zeros(d.ndof), 0.0, 1.0e-300, 0.0
    h, backward_error = _StaticFactor(d).solve(rhs)
    _malloc_trim(0)  # hand the dropped factor's freed heap back to the OS
    if not np.all(np.isfinite(h)):
        raise SingularSystemError(f"{d.name} static solve produced non-finite values")
    resid = np.max(np.abs(d.A @ h - rhs))
    scale = max(np.max(np.abs(rhs)), 1.0e-300)
    return h, resid, scale, backward_error


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
