"""Finite-difference discretization, static solves and explicit dynamics.

The mid-plane rectangle [0, a] x [0, b] carries a uniform nx x ny node
grid.  Each node is interior, displacement (Dirichlet) or traction.  One
table (``EDGE_TABLE``) gives each edge its grid axis, node line and outward
normal.  The edges are tagged in the order left, right, bottom, top, and
displacement data wins a corner.  At a traction-traction corner the two
edge rows superpose: the node's normal is the average n = (n1 + n2) /
|n1 + n2| and each edge's data is weighted by 1 / |n1 + n2|.

Every row of A comes from one stencil-table builder
(``_Discretization._stencil_rows``).  A node class's table holds weights
over (row field, column field, stencil slot, node) and a node offset per
slot, and one ``np.nonzero`` pass emits the class's COO triplets.
Interior rows collocate the governing systems with a fixed 15-slot
second-order central table: the value, central d/dx and d/dy, the compact
[1, -2, 1] second differences and the 4-point cross difference.  Its
weights (num * c) / den do not depend on the node and are broadcast over
the interior nodes.  Displacement rows are the identity; their data is
re-imposed exactly every step.  Traction rows n . T(d/dx) H = F* take 7
slots per node: the value, three d/dx and three d/dy slots, one-sided
across the edge and central along it.  They are weighted by the
normal-contracted traction coefficients.  The formulation is ghost-free.
Within a row the entries run over column field, then slot, which fixes
the order in which the CSR conversion sums duplicates.

Every load is a spatial field times a time envelope (the presets'
``space(x, y)`` and ``envelope(t) -> (value, rate)``).  Each subsystem
builds, once and on first use, one term per load that acts on it: the
interior load vector F_k of the field and its in-plane gradients, and the
traction load part T_k at the traction nodes.  The load vector at time t
is then sum_k e_k(t) F_k, the traction load part sum_k e_k(t) T_k and its
rate sum_k e_k'(t) T_k; no field is sampled and no gradient taken per
step.

A static solve (``static_solve``) condenses each subsystem's system A h = b
onto its free (interior and traction) dofs: the identity Dirichlet rows
and columns are dropped and A_FD g moves to the right-hand side.  The free
dofs are ordered by geometric nested dissection of the node grid, all
fields of a node adjacent, and SuperLU factors A_FF in that order with
diagonal-preferring threshold pivoting; two steps of iterative refinement
against A_FF follow every solve.  The factor is built on the first static
solve and cached on the discretization, so later solves on one model only
run the triangular solves.  Factor fill, free-dof count and residuals
are logged at DEBUG level; the normwise backward error of each solve is
logged too and returned in ``static_solve``'s diagnostics.

Time integration is the explicit central-difference (leapfrog) scheme in
its single-state velocity form: with M hdd = L h - f,

    v+ = v + dt/2 * a(h);  h' = h + dt * v+;  v' = v+ + dt/2 * a(h'),

which is algebraically the classic two-level central-difference update and
shares its conserved shadow energy.  The kernel (``_Kernel``) advances
both subsystems at once on stacked interior vectors, flexural first:
positions u, velocities w and accelerations a on the interior dofs, with
one slice per subsystem.  The interior rows of the two subsystems are
stacked once per model (``_InteriorStack``) into the block diagonal B of
their interior blocks, which keeps every row's entries in their order in
A, and one stacked mass vector.  A step is four vector updates and one
matvec,

    w += dt/2 * a;  u += dt * w;  Lu = B u (+ lift);  a = (Lu - F(t)) / m;
    w += dt/2 * a,

and the end-of-step acceleration, with its half kick dt/2 * a, is the next
step's start ("first same as last").  The interior rows are split by column
into the interior block and Dirichlet and traction boundary blocks.  The
stack also holds, per subsystem (``_Part``), everything else the kernel
needs that does not depend on time: the Dirichlet data g and its lift A_ID
g, the load terms and, with traction edges, the traction closure
(``_TractionClosure``), the one place that knows the quasi-static traction
boundary.  Inside every acceleration the closure solves the traction rows
for the boundary values at the current u, on a factor of A_TT built at its
first solve, so static solves and the HPR functional never build it.  The
boundary velocities, from the time-differentiated rows, feed nothing back
into the interior update and are solved only when a ``DiscreteState`` is
built, at snapshots and at the end of a run.  Load envelope sums, traction
solves and energy and work dot products are formed per subsystem on its
slice, so the kernel's arithmetic is that of two separate subsystems.
``stable_dt`` bounds the largest frequency of both subsystems by one
Gershgorin row-sum pass over the same stack and keeps the bound there.

The two subsystems never couple, so the kernel steps only what moves.  A
subsystem whose fields and velocities start at zero on the whole grid, with
no load, no Dirichlet lift and no traction edge, stays exactly +0 for the
whole run; the matvec then runs on the rows of the other subsystem only
and the vector updates on its slice.  dt, the energies and the order of
every floating-point operation are those of stepping both.

Energy bookkeeping uses the discrete quadratic forms of the scheme itself:
kinetic = 0.5 v^T M v and strain = -0.5 u^T (L h - A_ID g) over the
interior dofs, -0.5 u^T A_II u with clamped edges (cell-area weighted), the
consistent quadrature of the plate stress energy integral.  The Dirichlet
lift A_ID g is a constant interior force, and its midpoint work is counted
with the load work.  With clamped edges the semi-discrete energy less that
work is exactly conserved, so the measured drift isolates the
time-integration error and scales as dt^2.
``simulate`` checks that the energy is finite and within budget every
``GUARD_EVERY`` steps, whatever the snapshot cadence, and a failed check
names the interior dof with the largest energy density.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .material import MaterialParams, TechnicalConstants, technical_constants
from .operators import (
    ExtensionalOperator,
    FlexuralOperator,
    TractionOperator,
    build_extensional,
    build_flexural,
    build_traction,
)
from .plate_fields import (
    EXTENSIONAL_FIELDS,
    FLEXURAL_FIELDS,
    InertiaSet,
    LoadSet,
    PlateKinematics,
    inertia_constants,
)

_log = logging.getLogger(__name__)

# glibc's malloc_trim, which hands freed heap pages back to the OS; a no-op
# where the C library has no such call.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    def _malloc_trim(pad: int) -> int:
        return 0


class ConfigError(ValueError):
    """Invalid discretization or boundary configuration."""


class SingularSystemError(RuntimeError):
    """Static system is singular (names the rigid null space)."""


class InstabilityError(RuntimeError):
    """Unbounded energy growth detected during a run."""


# Edge geometry: the grid axis an edge lies across, the index of its node
# line along that axis (-1 the last) and its outward unit normal.
EDGE_TABLE = {
    "left": (0, 0, (-1.0, 0.0)),
    "right": (0, -1, (1.0, 0.0)),
    "bottom": (1, 0, (0.0, -1.0)),
    "top": (1, -1, (0.0, 1.0)),
}
EDGES = tuple(EDGE_TABLE)


def edge_line(name: str) -> tuple:
    """Index of edge ``name``'s node line in an (nx, ny, ...) array."""
    axis, index, _ = EDGE_TABLE[name]
    return (index, slice(None)) if axis == 0 else (slice(None), index)


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------

def checked_number(where: str, value, *, integer: bool = False,
                   positive: bool = False):
    """``value`` as a finite float (an int with ``integer``, one > 0 with
    ``positive``); anything else, and a bool where an int is wanted, is a
    ConfigError naming ``where``."""
    if integer and isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if positive and not x > 0.0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    if integer:
        if not x.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(x)
    return x


def checked_pair(where: str, value) -> tuple[float, float]:
    try:
        x, y = value
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a pair of numbers, "
                          f"got {value!r}") from None
    return checked_number(where, x), checked_number(where, y)


class ConstantLoad:
    def __init__(self, amplitude: float):
        self.amplitude = checked_number("amplitude", amplitude)

    def space(self, x, y):
        return self.amplitude * np.ones_like(np.asarray(x, dtype=float))

    def envelope(self, t):
        return 1.0, 0.0


class GaussianPulseLoad:
    """Spatial Gaussian bump with a Gaussian time envelope."""

    def __init__(self, amplitude, center=(0.5, 0.5), width=0.1,
                 t0=0.0, tau=None):
        self.amplitude = checked_number("amplitude", amplitude)
        self.center = checked_pair("center", center)
        self.width = checked_number("width", width, positive=True)
        self.t0 = checked_number("t0", t0)
        self.tau = None if tau is None else checked_number("tau", tau,
                                                           positive=True)

    def space(self, x, y):
        r2 = (np.asarray(x) - self.center[0]) ** 2 + (np.asarray(y) - self.center[1]) ** 2
        return self.amplitude * np.exp(-0.5 * r2 / self.width**2)

    def envelope(self, t):
        if self.tau is None:
            return 1.0, 0.0
        e = math.exp(-0.5 * ((t - self.t0) / self.tau) ** 2)
        return e, e * (-(t - self.t0) / self.tau**2)


class SinusoidalLoad:
    def __init__(self, amplitude, kx=1, ky=1, omega=0.0, lx=1.0, ly=1.0):
        self.amplitude = checked_number("amplitude", amplitude)
        self.kx = checked_number("kx", kx, integer=True)
        self.ky = checked_number("ky", ky, integer=True)
        self.omega = checked_number("omega", omega)
        self.lx = checked_number("lx", lx, positive=True)
        self.ly = checked_number("ly", ly, positive=True)

    def space(self, x, y):
        return self.amplitude * np.sin(self.kx * np.pi * np.asarray(x) / self.lx) * np.sin(
            self.ky * np.pi * np.asarray(y) / self.ly
        )

    def envelope(self, t):
        return math.cos(self.omega * t), -self.omega * math.sin(self.omega * t)


@dataclass(frozen=True)
class LoadFunctions:
    """The four face loads (None = zero), each a preset: a spatial field
    ``space(x, y)`` times a time envelope ``envelope(t) -> (value, rate)``."""

    p: object | None = None
    sigma0: object | None = None
    v: object | None = None
    t: object | None = None

    def sample(self, X, Y, time: float) -> LoadSet:
        def ev(f):
            return (f.space(X, Y) * f.envelope(time)[0] if f is not None
                    else np.zeros_like(X))

        return LoadSet(**{name: ev(f) for name, f in vars(self).items()})


def _envelope_sum(presets, rows: np.ndarray, t: float, part: int = 0):
    """sum_k e_k(t) rows[k], with e_k the value (``part`` 0) or the rate
    (``part`` 1) of preset k's time envelope.  One preset's sum is the
    scaled row e rows[0] + 0.0, bit for bit the matmul's zero-started sum:
    the + 0.0 turns a -0 product into +0 as that sum does."""
    if len(presets) == 1:
        return presets[0].envelope(t)[part] * rows[0] + 0.0
    return np.array([f.envelope(t)[part] for f in presets]) @ rows


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeBC:
    """One edge of the plate: kinematic data on Gamma_u or resultant
    traction data on Gamma_sigma.

    ``flex_data(x, y) -> (6,...)`` / ``ext_data(x, y) -> (3,...)`` give the
    prescribed field values (clamped) or the prescribed boundary resultants
    (traction); None means zero data.
    """

    kind: str
    flex_data: object | None = None
    ext_data: object | None = None

    def __post_init__(self):
        if self.kind not in ("clamped", "traction"):
            raise ConfigError(f"unknown edge kind {self.kind!r}")


def _normalize_bc(bc) -> dict[str, EdgeBC]:
    if set(bc.keys()) != set(EDGES):
        raise ConfigError(
            f"bc must tag every edge exactly once; expected keys {EDGES}, "
            f"got {sorted(bc.keys())}"
        )
    out = {}
    for name, spec_ in bc.items():
        if isinstance(spec_, EdgeBC):
            out[name] = spec_
        elif spec_ in ("clamped", "traction"):
            out[name] = EdgeBC(kind=spec_)
        else:
            raise ConfigError(f"edge {name!r}: unknown bc {spec_!r}")
    return out


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    material: MaterialParams
    h: float
    a: float
    b: float
    nx: int
    ny: int
    bc: dict
    loads: LoadFunctions = field(default_factory=LoadFunctions)
    shear_correction: str = "standard"
    paper_literal: bool = False


@dataclass(frozen=True)
class DiscreteModel:
    config: ModelConfig
    tc: TechnicalConstants
    inertia: InertiaSet
    flex: FlexuralOperator
    ext: ExtensionalOperator
    traction: TractionOperator
    X: np.ndarray                  # (nx, ny) node coordinates
    Y: np.ndarray
    dx: float
    dy: float
    bc: dict
    flex_d: "_Discretization"
    ext_d: "_Discretization"

    @property
    def nx(self) -> int:
        return self.config.nx

    @property
    def ny(self) -> int:
        return self.config.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def interior_unknown_count(self) -> int:
        """Unknowns carried by interior balance rows (9 fields per node)."""
        return (self.nx - 2) * (self.ny - 2) * 9

    def sample_loads(self, t: float) -> LoadSet:
        return self.config.loads.sample(self.X, self.Y, t)

    @cached_property
    def interior_stack(self) -> "_InteriorStack":
        """What the explicit kernel needs that does not depend on time,
        built on first use: static solves never need it."""
        return _InteriorStack(self)


def assemble(config: ModelConfig) -> DiscreteModel:
    """Validate the configuration and build the discrete model."""
    from .material import validate_parameters

    report = validate_parameters(config.material)
    if not report.admissible:
        raise ConfigError(
            "inadmissible material: " + ", ".join(report.violations)
        )
    if config.nx < 5 or config.ny < 5:
        raise ConfigError(f"nx,ny >= 5 required, got {config.nx}x{config.ny}")
    for name, val in (("a", config.a), ("b", config.b), ("h", config.h)):
        if not val > 0.0:
            raise ConfigError(f"geometry {name} must be positive, got {val}")
    bc = _normalize_bc(config.bc)

    tc = technical_constants(config.material, config.h, config.shear_correction)
    inertia = inertia_constants(config.material, config.h)
    flex = build_flexural(tc, inertia, paper_literal=config.paper_literal)
    ext = build_extensional(tc, inertia, paper_literal=config.paper_literal)
    trac = build_traction(tc)

    x = np.linspace(0.0, config.a, config.nx)
    y = np.linspace(0.0, config.b, config.ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    dx = x[1] - x[0]
    dy = y[1] - y[0]

    flex_d = _Discretization(config, bc, flex, trac.flex, trac.flex_load_part,
                             X, Y, dx, dy, "flexural")
    ext_d = _Discretization(config, bc, ext, trac.ext, trac.ext_load_part,
                            X, Y, dx, dy, "extensional")

    return DiscreteModel(
        config=config, tc=tc, inertia=inertia, flex=flex, ext=ext,
        traction=trac, X=X, Y=Y, dx=dx, dy=dy, bc=bc,
        flex_d=flex_d, ext_d=ext_d,
    )


# ---------------------------------------------------------------------------
# per-subsystem discretization
# ---------------------------------------------------------------------------

# The interior stencil table: slot s weights the coefficient of monomial
# ``term`` (1, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2) by num / den[term] at
# the node offset (di, dj).  Slots run in term order, as a row's entries
# must for the duplicate sums of A to stay fixed.
_INTERIOR_SLOTS = np.array([
    # term, num, di, dj
    (0, 1.0, 0, 0),
    (1, 0.5, 1, 0), (1, -0.5, -1, 0),
    (2, 0.5, 0, 1), (2, -0.5, 0, -1),
    (3, 1.0, 1, 0), (3, -2.0, 0, 0), (3, 1.0, -1, 0),
    (4, 0.25, 1, 1), (4, 0.25, -1, -1), (4, -0.25, 1, -1), (4, -0.25, -1, 1),
    (5, 1.0, 0, 1), (5, -2.0, 0, 0), (5, 1.0, 0, -1),
]).T

# Second-order first-derivative stencils along one axis, as node offsets
# and weights times the spacing: forward at the first node, backward at
# the last and central elsewhere, where the third slot is empty.
_D1_OFFSETS = np.array([[0, 1, 2], [0, -1, -2], [-1, 1, 0]])
_D1_WEIGHTS = np.array([[-1.5, 2.0, -0.5], [1.5, -2.0, 0.5], [-0.5, 0.5, 0.0]])


def _d1_slots(i: np.ndarray, n: int, d: float):
    """(3, N) offsets and weights of d/dx at the node indices i of an
    n-node axis with spacing d."""
    side = np.where(i == 0, 0, np.where(i == n - 1, 1, 2))
    return _D1_OFFSETS[side].T, (_D1_WEIGHTS / d)[side].T


def _abs_matvec(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """|A| x, copying only A's data: ``abs(A)`` would sort a non-canonical
    A in place and change the order in which ``A @ x`` sums a row."""
    return sp.csr_matrix((np.abs(A.data), A.indices, A.indptr),
                         shape=A.shape) @ x


# Per subsystem: the ``EdgeBC`` attribute that holds its edge data, its
# field names and the rigid null space that makes its static problem
# singular without a displacement edge.
_SUBSYSTEMS = {
    "flexural": ("flex_data", FLEXURAL_FIELDS,
                 "uniform transverse translation W and the two rigid "
                 "tilt/microrotation pairs (Psi_a = theta, W = -theta x_a, "
                 "Omega_a'^0 = -theta)"),
    "extensional": ("ext_data", EXTENSIONAL_FIELDS,
                    "uniform in-plane translations U1, U2 (and Omega3_0 as "
                    "N -> 0)"),
}


class _Discretization:
    """Sparse rows of one subsystem plus the index bookkeeping."""

    def __init__(self, config, bc, op, tn, trac_load_part, X, Y, dx, dy,
                 name):
        self.name = name
        self.edge_key, self.fields, self.null_space = _SUBSYSTEMS[name]
        self.op = op
        self.tn = tn
        self.trac_load_part = trac_load_part
        self.nf = op.active_coeffs.shape[0]
        self.nx, self.ny = config.nx, config.ny
        self.dx, self.dy = dx, dy
        self.X, self.Y = X, Y
        self.bc = bc
        self.loads = config.loads
        self.ndof = self.nf * self.nx * self.ny

        self._classify_nodes()
        rows, cols, vals = map(np.concatenate, zip(
            self._stencil_rows(self.interior_nodes, *self._interior_table()),
            self._stencil_rows(self.dirich_nodes, *self._dirichlet_table()),
            self._stencil_rows(self.trac_nodes, *self._traction_table())))
        self.A = sp.coo_matrix((vals, (rows, cols)),
                               shape=(self.ndof, self.ndof)).tocsr()
        self.mass_interior = np.repeat(
            op.mass, self.interior_nodes.size
        ).astype(float)
        self.has_dirichlet = self.dirich_nodes.size > 0

    # -- node bookkeeping --------------------------------------------------

    def _classify_nodes(self):
        nx, ny = self.nx, self.ny
        kind = np.zeros((nx, ny), dtype=int)  # 0 interior, 1 dirichlet, 2 traction
        normal_raw = np.zeros((nx, ny, 2))    # accumulated edge normals
        for name, (_, _, n) in EDGE_TABLE.items():
            tag = 1 if self.bc[name].kind == "clamped" else 2
            line = edge_line(name)
            k, nr = kind[line], normal_raw[line]  # views of the edge
            # traction-traction corner: superpose the edge rows, which
            # averages the normals and weights each edge's data by
            # 1 / |n1 + n2|
            corner = (k == 2) & (tag == 2)
            nr[corner] += n
            new = (k != 1) & ~corner  # displacement data wins at corners
            k[new] = tag
            nr[new] = n
        norm = np.linalg.norm(normal_raw, axis=2)
        norm[norm == 0.0] = 1.0
        self.kind = kind
        self.normal = normal_raw / norm[:, :, None]
        # per-node weight applied to each contributing edge's prescribed
        # data so the combined row stays consistent with the averaged normal
        self.trac_weight = 1.0 / norm
        self.interior_nodes, _, self.interior_dofs = self._nodes_of(0)
        self.dirich_nodes, self._dir_ij, self.dirich_dofs = self._nodes_of(1)
        self.trac_nodes, self._trac_ij, self.trac_dofs = self._nodes_of(2)

    def locate(self, dof: int) -> tuple:
        """The field name and the node indices i, j of grid dof ``dof``."""
        f, node = divmod(int(dof), self.nx * self.ny)
        return (self.fields[f], *divmod(node, self.ny))

    def _nodes_of(self, tag):
        """Node indices i * ny + j, their (i, j) and their dofs (field by
        field) of the nodes of kind ``tag``."""
        ii, jj = np.nonzero(self.kind == tag)
        nodes = ii * self.ny + jj
        dofs = np.arange(self.nf)[:, None] * (self.nx * self.ny) + nodes
        return nodes, (ii, jj), dofs.ravel()

    # -- matrix assembly ----------------------------------------------------

    def _stencil_rows(self, node, W, di, dj):
        """COO triplets (rows, cols, vals) of the rows of the nodes
        ``node`` (i * ny + j): field r at node k takes W[r, c, s, k] times
        field c at node k offset by (di[s, k], dj[s, k]) in (i, j).  A last
        axis of length 1 in W, di and dj applies to every node.  Within a
        row the entries run over c, then s, the order in which the CSR
        conversion sums duplicates."""
        r, c, s, k = np.nonzero(W)
        if W.shape[-1] == node.size:
            node = node[k]
        else:  # node-independent weights and offsets: every node
            r, c, s, k = (a[:, None] for a in (r, c, s, k))
        nn = self.nx * self.ny
        out = np.broadcast_arrays(
            r * nn + node,
            c * nn + di[s, k] * self.ny + dj[s, k] + node,
            W[r, c, s, k])
        return [a.ravel() for a in out]

    def _interior_table(self):
        """Central rows of L: node-independent weights (num * c) / den."""
        dx, dy = self.dx, self.dy
        term, num, di, dj = _INTERIOR_SLOTS
        term, di, dj = (a.astype(int) for a in (term, di, dj))
        den = np.array([1.0, dx, dy, dx**2, dx * dy, dy**2])[term]
        W = (num * self.op.active_coeffs[:, :, term]) / den
        return W[..., None], di[:, None], dj[:, None]

    def _dirichlet_table(self):
        """Displacement rows: the identity."""
        zero = np.zeros((1, 1), dtype=int)
        return np.eye(self.nf)[:, :, None, None], zero, zero

    def _traction_table(self):
        """Traction rows n . T: 7 slots per node, the value and three d/dx
        and three d/dy slots, one-sided across the edge and central along
        it, weighted by the normal-contracted traction coefficients."""
        ti, tj = self._trac_ij
        if ti.size == 0:
            none = np.zeros((7, 0), dtype=int)
            return np.zeros((self.nf, self.nf, 7, 0)), none, none
        # the per-node contraction, made once per distinct normal
        normals, which = np.unique(self.normal[ti, tj], axis=0,
                                   return_inverse=True)
        coeffs = np.stack([np.einsum("rcab,a->rcb", self.tn, n)
                           for n in normals], axis=-1)[:, :, :, which.ravel()]
        ox, wx = _d1_slots(ti, self.nx, self.dx)
        oy, wy = _d1_slots(tj, self.ny, self.dy)
        W = np.concatenate([coeffs[:, :, :1], coeffs[:, :, 1:2] * wx,
                            coeffs[:, :, 2:3] * wy], axis=2)
        z = np.zeros_like(ox)
        return (W, np.concatenate([z[:1], ox, z]),
                np.concatenate([z[:1], z, oy]))

    @cached_property
    def static_factor(self) -> "_StaticFactor":
        """LU factor of the condensed static system, built on first use so
        repeat static solves never refactor and dynamic runs never pay."""
        return _StaticFactor(self)

    # -- load / data vectors -------------------------------------------------

    @cached_property
    def load_terms(self):
        """The loads acting on this subsystem as (presets, F, T): row k of F
        is the interior load vector of preset k's spatial field and its
        gradients, and row k of T minus its traction load part (per-node
        normals), so the load vector at t is sum_k e_k(t) F[k].  A preset
        that leaves both zero, one that loads only the other subsystem, is
        dropped.  Built on first use: each spatial field is evaluated once
        per model and subsystem."""
        zeros = LoadSet(*[np.zeros_like(self.X)] * 4)
        normal = (self.normal[:, :, 0], self.normal[:, :, 1])
        presets, F, T = [], [], []
        for name, f in vars(self.loads).items():
            if f is None:
                continue
            space = np.asarray(f.space(self.X, self.Y), dtype=float)
            gx, gy = np.gradient(space, self.dx, self.dy, edge_order=2)
            loads, grad1, grad2 = (replace(zeros, **{name: a})
                                   for a in (space, gx, gy))
            Fk = np.concatenate([np.ravel(r)[self.interior_nodes] for r in
                                 self.op.load_vector(loads, grad1, grad2)])
            Tk = -np.concatenate([np.ravel(r)[self.trac_nodes] for r in
                                  self.trac_load_part(loads, normal)])
            if np.any(Fk) or np.any(Tk):
                presets.append(f)
                F.append(Fk)
                T.append(Tk)
        n = len(presets)
        return (tuple(presets), np.reshape(F, (n, self.interior_dofs.size)),
                np.reshape(T, (n, self.trac_dofs.size)))

    def load_rhs(self, t):
        """Interior components of the load vector F at time t."""
        presets, F, _ = self.load_terms
        return _envelope_sum(presets, F, t)

    def dirichlet_values(self):
        """Prescribed field values on the displacement boundary dofs."""
        ii, jj = self._dir_ij
        data = np.zeros((self.nf, ii.size))
        for mask, vals in self._edge_data("clamped", ii, jj):
            data[:, mask] = vals
        return data.ravel()

    def traction_values(self):
        """Prescribed boundary resultants on the traction dofs; at a
        traction-traction corner each edge's data is weighted for the
        averaged normal."""
        ti, tj = self._trac_ij
        out = np.zeros((self.nf, ti.size))
        for mask, vals in self._edge_data("traction", ti, tj):
            out[:, mask] += self.trac_weight[ti[mask], tj[mask]] * vals
        return out.ravel()

    def _edge_data(self, kind, ii, jj):
        """(mask, values) over the nodes ii, jj of every ``kind`` edge with
        data for this subsystem."""
        x, y = self.X[ii, jj], self.Y[ii, jj]
        for name, (axis, index, _) in EDGE_TABLE.items():
            ebc = self.bc[name]
            fdata = getattr(ebc, self.edge_key)
            if ebc.kind != kind or fdata is None:
                continue
            mask = (ii, jj)[axis] == range((self.nx, self.ny)[axis])[index]
            if np.any(mask):
                yield mask, np.asarray(fdata(x[mask], y[mask]))


# ---------------------------------------------------------------------------
# static solve
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteState:
    """Grid state: 6 flexural + 3 extensional fields, their velocities, time."""

    flex: np.ndarray         # (6, nx, ny)
    ext: np.ndarray          # (3, nx, ny)
    flex_vel: np.ndarray
    ext_vel: np.ndarray
    time: float = 0.0
    stability_warning: bool = False

    @classmethod
    def zero(cls, model: DiscreteModel) -> "DiscreteState":
        shape = (model.nx, model.ny)
        return cls(
            flex=np.zeros((6, *shape)), ext=np.zeros((3, *shape)),
            flex_vel=np.zeros((6, *shape)), ext_vel=np.zeros((3, *shape)),
        )

    def kinematics(self) -> PlateKinematics:
        return PlateKinematics.from_arrays(flexural=self.flex, extensional=self.ext)

    def velocities(self) -> PlateKinematics:
        return PlateKinematics.from_arrays(flexural=self.flex_vel, extensional=self.ext_vel)


def stable_dt(model: DiscreteModel) -> float:
    """0.9 * 2/sqrt(G), below the central-difference limit 2/omega_max.

    G = max_i sum_j |B_ij| / sqrt(m_i m_j), B the stacked interior rows of
    both subsystems (``_InteriorStack``), is the infinity-norm of M^-1/2 B
    M^-1/2, which is similar to M^-1 B, so omega_max^2 <= G whether B is
    symmetric or not.  The quasi-static traction term A_IT A_TT^-1 A_TI is
    not in B; the tests pin the bound for traction plates.  The row that
    sets G is logged at DEBUG level; the result is kept on the stack.
    """
    stack = model.interior_stack
    if stack.dt is None:
        r = stack.mass ** -0.5
        rows = _abs_matvec(stack.B, r) * r
        i = int(np.argmax(rows))
        G = float(rows[i])
        stack.dt = 0.9 * 2.0 / math.sqrt(max(G, 1e-300))
        _log.debug("stable_dt: G=%.6e from the %s row of %s at node "
                   "(%d, %d), dt=%.6e", G, *stack.locate(i), stack.dt)
    return stack.dt


class _TractionClosure:
    """The quasi-static traction boundary Gamma_sigma of one subsystem.

    The traction rows A_TI u + A_TT h_T + ``lift`` = f* give the boundary
    values h_T, with ``lift`` the rows' Dirichlet block times g (None when
    g is zero) and f* the prescribed traction ``data`` plus the traction
    load part; h_T enters the interior rows through the column block A_IT.
    A_TT is factored once, on the first ``values`` or ``rates`` call, so a
    caller that only applies the interior rows (``HPRFunctional``) never
    factors it.
    """

    def __init__(self, d: _Discretization, A_IT: sp.csr_matrix, g):
        T = d.A[d.trac_dofs]
        self.name = d.name
        self.A_IT = A_IT
        self.A_TI = T[:, d.interior_dofs]
        self.A_TT = T[:, d.trac_dofs]
        self.lift = None if g is None else T[:, d.dirich_dofs] @ g
        self.data = d.traction_values()

    @cached_property
    def lu(self):
        try:
            return spla.splu(self.A_TT.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"{self.name} traction boundary block is singular: {exc}"
            ) from exc

    def values(self, u: np.ndarray, load: np.ndarray) -> np.ndarray:
        """h_T for interior values u and traction load part ``load``."""
        rest = self.A_TI @ u
        if self.lift is not None:
            rest += self.lift
        return self.lu.solve(self.data + load - rest)

    def rates(self, w: np.ndarray, load_rate: np.ndarray) -> np.ndarray:
        """The rate of h_T, from the time-differentiated traction rows."""
        return self.lu.solve(load_rate - self.A_TI @ w)


class _Part:
    """What drives one subsystem in the explicit kernel: its
    discretization ``d``, its slice ``s`` of the stacked vectors, its
    Dirichlet column block A_ID with the data ``g`` and the lift A_ID g
    (None when g is zero), its load terms (``presets``, ``F``, ``T``), its
    traction closure (None without traction dofs) and whether any of these
    can move it from rest (``driven``).  None of it depends on time; the
    loads enter through F and T weighted by their envelopes."""

    def __init__(self, d: _Discretization, s: slice, A_ID, A_IT):
        self.d, self.s, self.A_ID = d, s, A_ID
        self.presets, self.F, self.T = d.load_terms
        self.g = d.dirichlet_values()
        lifted = bool(np.any(self.g))
        self.lift = A_ID @ self.g if lifted else None
        self.closure = (_TractionClosure(d, A_IT, self.g if lifted else None)
                        if d.trac_dofs.size else None)
        # a load, a lift or a traction boundary moves a subsystem from rest
        self.driven = bool(self.presets or lifted or self.closure)

    def force(self, t: float) -> np.ndarray:
        """The interior force at time t that the strain form leaves out:
        the Dirichlet lift A_ID g minus the load vector."""
        f = -_envelope_sum(self.presets, self.F, t)
        if self.lift is not None:
            f += self.lift
        return f


class _InteriorStack:
    """The interior rows of both subsystems, stacked flexural first, with
    everything the explicit kernel needs that does not depend on time.

    ``B`` is the block diagonal of the two interior blocks A_II in CSR form,
    each row's entries in their order in A, so ``B @ u`` forms every row sum
    exactly as ``A_II @ u`` does.  ``mass`` stacks the interior masses and
    ``parts`` holds one ``_Part`` per subsystem; ``dt`` keeps the
    ``stable_dt`` bound once computed.  Built once per model, on first use
    (``DiscreteModel.interior_stack``); no per-subsystem A_II is kept
    beside it.
    """

    def __init__(self, model: DiscreteModel):
        ds = (model.flex_d, model.ext_d)
        # the columns are sliced first: their blocks are small
        boundary = [(d.A[:, d.dirich_dofs][d.interior_dofs],
                     d.A[:, d.trac_dofs][d.interior_dofs]) for d in ds]
        # B's rows are A's interior rows restricted to the interior columns,
        # their entries taken straight from A's arrays in their order there:
        # building each A_II first would double the memory the stack needs
        # while it is built.  An interior row's columns are interior,
        # Dirichlet or traction, which gives each row's count.
        counts = np.concatenate([
            np.diff(d.A.indptr)[d.interior_dofs] - np.diff(A_ID.indptr)
            - np.diff(A_IT.indptr)
            for d, (A_ID, A_IT) in zip(ds, boundary)])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        n = nnz = 0
        for d in ds:
            interior = np.zeros(d.ndof, dtype=bool)
            interior[d.interior_dofs] = True
            keep = (np.repeat(interior, np.diff(d.A.indptr))
                    & interior[d.A.indices])
            end = nnz + int(np.count_nonzero(keep))
            data[nnz:end] = d.A.data[keep]
            column = np.cumsum(interior, dtype=np.int32) + (n - 1)
            indices[nnz:end] = column[d.A.indices[keep]]
            n += d.interior_dofs.size
            nnz = end
        self.B = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        self.mass = np.concatenate([d.mass_interior for d in ds])
        ends = np.cumsum([0] + [d.interior_dofs.size for d in ds])
        self.parts = [_Part(d, slice(lo, hi), *blocks) for d, lo, hi, blocks
                      in zip(ds, ends[:-1], ends[1:], boundary)]
        self.loaded = [p for p in self.parts if p.presets]
        self.dt = None
        self._rows = {}

    def apply(self, hs) -> np.ndarray:
        """Stacked interior rows of L h for the full-grid flat vectors
        ``hs`` (flexural, extensional)."""
        Lh = self.B @ self.interior(hs)
        for p, h in zip(self.parts, hs):
            if p.d.dirich_dofs.size:
                Lh[p.s] += p.A_ID @ h[p.d.dirich_dofs]
            if p.closure is not None:
                Lh[p.s] += p.closure.A_IT @ h[p.d.trac_dofs]
        return Lh

    def rows(self, live: slice) -> sp.csr_matrix:
        """B's rows ``live`` over all its columns, built once per range.
        Their data and column indices are slices of B's arrays, which scipy
        keeps as views when they hold at least half of B, as the flexural
        rows do, and copies otherwise."""
        key = (live.start, live.stop)
        if key not in self._rows:
            ptr = self.B.indptr[live.start:live.stop + 1]
            span = slice(ptr[0], ptr[-1])
            self._rows[key] = sp.csr_matrix(
                (self.B.data[span], self.B.indices[span], ptr - ptr[0]),
                shape=(live.stop - live.start, self.B.shape[1]))
        return self._rows[key]

    def interior(self, hs) -> np.ndarray:
        """Stacked interior values of the full-grid flat vectors ``hs``."""
        return np.concatenate([h[p.d.interior_dofs]
                               for p, h in zip(self.parts, hs)])

    def locate(self, i: int) -> tuple:
        """The subsystem name, the field name and the node indices i, j of
        stacked interior dof i."""
        p = self.parts[int(i >= self.parts[1].s.start)]
        return (p.d.name, *p.d.locate(p.d.interior_dofs[i - p.s.start]))


class _Kernel:
    """Both subsystems' interior state in the explicit kernel.

    ``u``, ``w`` and ``a`` stack the positions, velocities and
    accelerations on the interior dofs of both subsystems, flexural first.
    ``Lu`` keeps the interior rows of L h of the last acceleration
    evaluated and ``hT`` each subsystem's traction boundary values.  What
    does not depend on time is read from the model's ``_InteriorStack``;
    load sums, traction solves and energy terms are formed per subsystem
    on its slice.

    Only what moves is stepped.  A part is at rest when its fields and
    velocities are zero on the whole grid at the start and nothing drives
    it (``_Part.driven``); B is block diagonal, so its u, w, a and Lu stay
    exactly +0 for the whole run.  The other parts are live.  A step's
    matvec runs on B's rows over the range of the stack the live parts
    span (``_InteriorStack.rows``), and its vector updates on the views
    ``_u``, ``_w``, ``_a`` and ``_Lu`` of that range; with every part live
    the range is the whole stack.  Energies, snapshots and ``hottest`` read
    the full vectors.
    """

    def __init__(self, model: DiscreteModel):
        self.stack = model.interior_stack
        self.matvecs = 0

    def start(self, state: DiscreteState) -> "_Kernel":
        """Take u and w from a grid state and a(t) from its fields with
        their boundary values as given; every later acceleration re-imposes
        g and re-solves the traction block.  An at-rest part's u and w are
        set to +0, as a step would make of a -0."""
        stack = self.stack
        hs = [np.asarray(h, dtype=float).reshape(-1)
              for h in (state.flex, state.ext)]
        vs = [np.asarray(v, dtype=float).reshape(-1)
              for v in (state.flex_vel, state.ext_vel)]
        self.u = stack.interior(hs)
        self.w = stack.interior(vs)
        self.hT = [h[p.d.trac_dofs] for p, h in zip(stack.parts, hs)]
        moves = [p.driven or bool(np.any(h) or np.any(v))
                 for p, h, v in zip(stack.parts, hs, vs)]
        live = [p for p, m in zip(stack.parts, moves) if m]
        rest = [p for p, m in zip(stack.parts, moves) if not m]
        for p in rest:
            self.u[p.s] = self.w[p.s] = 0.0
        s = slice(min((p.s.start for p in live), default=0),
                  max((p.s.stop for p in live), default=0))
        self.rows = stack.rows(s)
        self.matvecs += 1
        self.Lu = stack.apply(hs)
        self.a = np.zeros(self.u.size)
        self._u, self._w, self._a, self._Lu, self._m = (
            x[s] for x in (self.u, self.w, self.a, self.Lu, stack.mass))
        self._kick = np.empty(s.stop - s.start)
        self._du = np.empty(s.stop - s.start)
        self._acceleration_from_Lu(state.time)
        self.kick_dt = None
        _log.debug("kernel: stepping %s (%d of %d interior dofs)%s",
                   ", ".join(p.d.name for p in live) or "nothing",
                   s.stop - s.start, self.u.size,
                   f"; {', '.join(p.d.name for p in rest)} at rest"
                   if rest else "")
        return self

    def _acceleration(self, t: float) -> None:
        """M^-1 (L h - F) on the live range at time t, where h is u on the
        interior, g on Gamma_u and the traction solve on Gamma_sigma."""
        self._Lu[...] = self.rows @ self.u
        self.matvecs += 1
        for k, p in enumerate(self.stack.parts):
            if p.lift is not None:
                self.Lu[p.s] += p.lift
            if p.closure is not None:
                self.hT[k] = p.closure.values(
                    self.u[p.s], _envelope_sum(p.presets, p.T, t))
                self.Lu[p.s] += p.closure.A_IT @ self.hT[k]
        self._acceleration_from_Lu(t)

    def _acceleration_from_Lu(self, t: float) -> None:
        """M^-1 (L h - F) on the live range from the L h kept in ``Lu``."""
        np.copyto(self._a, self._Lu)
        for p in self.stack.loaded:
            self.a[p.s] -= _envelope_sum(p.presets, p.F, t)
        self._a /= self._m

    def advance(self, t0: float, dt: float) -> float:
        """One leapfrog step from t0; returns t0 + dt.  The kernel enters
        holding a(t0) and leaves holding a(t0 + dt), which the next step
        reuses as its starting acceleration, and with it the half kick
        dt/2 * a when dt is unchanged."""
        half = 0.5 * dt
        t1 = t0 + dt
        if self.kick_dt != dt:
            np.multiply(self._a, half, out=self._kick)
        self._w += self._kick
        np.multiply(self._w, dt, out=self._du)
        self._u += self._du
        self._acceleration(t1)
        np.multiply(self._a, half, out=self._kick)
        self.kick_dt = dt
        self._w += self._kick
        return t1

    def energies(self, dA: float):
        """Kinetic and interior strain energy, the strain from the L h of
        the last acceleration less the Dirichlet lift, which is a force
        (``_Part.force``): -0.5 u.A_II u with clamped edges."""
        ke = 0.0
        ue = 0.0
        for p in self.stack.parts:
            u, w = self.u[p.s], self.w[p.s]
            ke += 0.5 * float(w @ (self.stack.mass[p.s] * w)) * dA
            uLu = float(u @ self.Lu[p.s])
            if p.lift is not None:
                uLu -= float(u @ p.lift)
            ue += -0.5 * uLu * dA
            # the quasi-static traction boundary's own strain is excluded
        return ke, ue

    def hottest(self) -> str:
        """Where the energy density of ``energies`` is largest in absolute
        value (a NaN counts as largest): the subsystem, field and node."""
        density = self.w * (self.stack.mass * self.w) - self.u * self.Lu
        for p in self.stack.parts:
            if p.lift is not None:
                density[p.s] += self.u[p.s] * p.lift
        i = int(np.argmax(np.abs(density)))
        return "{} field {} at node ({}, {})".format(*self.stack.locate(i))

    def grid_state(self, t: float, warn: bool) -> DiscreteState:
        """The full-grid state at time t; the traction boundary velocities
        are solved from the time-differentiated constraint."""
        fields = []
        for p, hT in zip(self.stack.parts, self.hT):
            d = p.d
            h = np.zeros(d.ndof)
            v = np.zeros(d.ndof)
            h[d.interior_dofs] = self.u[p.s]
            v[d.interior_dofs] = self.w[p.s]
            h[d.dirich_dofs] = p.g
            if p.closure is not None:
                h[d.trac_dofs] = hT
                v[d.trac_dofs] = p.closure.rates(
                    self.w[p.s], _envelope_sum(p.presets, p.T, t, part=1))
            shape = (d.nf, d.nx, d.ny)
            fields += [h.reshape(shape), v.reshape(shape)]
        flex, flex_vel, ext, ext_vel = fields
        return DiscreteState(flex=flex, ext=ext, flex_vel=flex_vel,
                             ext_vel=ext_vel, time=t, stability_warning=warn)


def step(state: DiscreteState, model: DiscreteModel, dt: float) -> DiscreteState:
    """One explicit central-difference step of both subsystems.

    Displacement-boundary values are re-imposed exactly; traction rows are
    solved for the boundary block after each position update.  A dt above
    the stability bound only flags the returned state, it does not raise.
    """
    warn = state.stability_warning or dt > stable_dt(model) * (1.0 + 1e-12)
    kernel = _Kernel(model).start(state)
    return kernel.grid_state(kernel.advance(state.time, dt), warn)


@dataclass
class EnergyLog:
    """Per-sample energies: kinetic, strain (discrete operator form),
    accumulated external work and total."""

    t: list = field(default_factory=list)
    kinetic: list = field(default_factory=list)
    strain: list = field(default_factory=list)
    external_work: list = field(default_factory=list)
    total: list = field(default_factory=list)

    def append(self, t, ke, ue, w):
        self.t.append(t)
        self.kinetic.append(ke)
        self.strain.append(ue)
        self.external_work.append(w)
        self.total.append(ke + ue)

    def as_arrays(self) -> dict:
        return {k: np.asarray(getattr(self, k)) for k in
                ("t", "kinetic", "strain", "external_work", "total")}


@dataclass
class Trajectory:
    times: list
    states: list
    energy: EnergyLog
    dt: float
    n_steps: int


# Steps between energy checks in ``simulate``, whatever the snapshot
# cadence: a check costs two dot products per subsystem, about a tenth of
# one step's matvec, and an unstable run overflows within ~1000 steps.
GUARD_EVERY = 50


def simulate(model: DiscreteModel, t_final: float, dt: float | None = None,
             snapshot_every: int = 0, initial: DiscreteState | None = None,
             abort_on_instability: bool = True) -> Trajectory:
    """Run the explicit integrator to t_final with energy tracking.

    Every ``GUARD_EVERY`` steps, at each snapshot and at the end, aborts
    with a diagnostic when the total energy is not finite or has grown
    beyond ten times the initial energy plus the accumulated external work
    (of the loads and of the Dirichlet lift).
    """
    t_final = checked_number("t_final", t_final, positive=True)
    # the kernel builds the interior stack, which stable_dt then only reads
    kernel = _Kernel(model)
    bound = stable_dt(model)
    dt = bound if dt is None else checked_number("dt", dt, positive=True)
    n_steps = max(1, math.ceil(t_final / dt))
    dt = t_final / n_steps

    state = initial if initial is not None else DiscreteState.zero(model)
    warn = state.stability_warning or dt > bound * (1.0 + 1e-12)
    kernel.start(state)
    # subsystems on which a force does work: loads or a Dirichlet lift
    worked = [p for p in kernel.stack.parts
              if p.presets or p.lift is not None]
    dA = model.cell_area

    energy = EnergyLog()
    t = state.time
    ke, ue = kernel.energies(dA)
    w_ext = 0.0
    energy.append(t, ke, ue, w_ext)
    e0 = ke + ue
    states = [state]
    times = [t]
    checks = 0

    # one buffer per worked part: its velocity at a step's start, then the
    # step's midpoint velocity
    w_mid = [np.empty(p.s.stop - p.s.start) for p in worked]

    for k in range(1, n_steps + 1):
        for p, buf in zip(worked, w_mid):
            np.copyto(buf, kernel.w[p.s])
        t_mid = t + 0.5 * dt
        t = kernel.advance(t, dt)
        # midpoint power of the applied force, A_ID g - F in the convention
        # A_II u + A_ID g - F = M udd
        for p, buf in zip(worked, w_mid):
            buf += kernel.w[p.s]
            buf *= 0.5
            w_ext += dt * float(p.force(t_mid) @ buf) * dA

        record = bool(snapshot_every) and k % snapshot_every == 0
        if k == n_steps or record:
            ke, ue = kernel.energies(dA)
            energy.append(t, ke, ue, w_ext)
            states.append(kernel.grid_state(t, warn))
            times.append(t)
        elif abort_on_instability and k % GUARD_EVERY == 0:
            ke, ue = kernel.energies(dA)
        else:
            continue
        if abort_on_instability:
            checks += 1
            budget = abs(e0) + abs(w_ext) + 1e-300
            if not np.isfinite(ke + ue) or (ke + ue) > 10.0 * budget + 10.0 * abs(e0):
                raise InstabilityError(
                    f"energy grew to {ke + ue:.3e} at step {k} of {n_steps}, "
                    f"t={t:.3e} (initial {e0:.3e}, external work "
                    f"{w_ext:.3e}); dt={dt:.3e} vs stability bound "
                    f"{bound:.3e}; largest energy density in the "
                    f"{kernel.hottest()}")
    _log.debug("simulate: %d steps, %d matvecs, %d guard checks, "
               "%d snapshots, dt=%.6e, stability bound=%.6e", n_steps,
               kernel.matvecs, checks, len(states) - 1, dt, bound)
    return Trajectory(times=times, states=states, energy=energy, dt=dt,
                      n_steps=n_steps)
