"""Finite-difference discretization of the flexural and extensional systems.

The mid-plane rectangle [0, a] x [0, b] carries a uniform nx x ny node
grid.  Each node is interior, displacement (Dirichlet) or traction.  One
table (``EDGE_TABLE``) gives each edge its grid axis, node line and outward
normal.  The edges are tagged in the order left, right, bottom, top, and
displacement data wins a corner.

The rows of A are the Hessian of the staggered discrete energy

    E_h = sum_nodes a_n 1/2 V.Q_VV V
          + sum_x-edges a_x (1/2 X.Q_XX X + X.Q_XV Vbar)
          + sum_y-edges a_y (1/2 Y.Q_YY Y + Y.Q_YV Vbar)
          + sum_cells dx dy Xc.Q_XY Yc,

divided by -dx dy.  Q is the subsystem's energy density form
(``operators.build_traction``); X and Y are the differences along an edge
and Vbar the mean of its end values, Xc and Yc the mean differences of a
cell; a_n, a_x and a_y are dual-cell areas, halved on the boundary lines
(a corner node has a quarter cell).  A free node's mass and load vector
are weighted by its dual-cell fraction w = a_n / (dx dy): 1 inside, 1/2 on
an edge, 1/4 at a corner.  Prescribed traction data does work along its
edge by the trapezoid rule, and the load-coupled parts of the resultants
(P, read off with Q) enter the same way.  So A restricted to the free
(interior and traction) dofs is symmetric, and its static and explicit
problems are those of one energy (Mattsson & Nordstrom, J. Comput. Phys.
199, 2004).

Every row of A comes from one stencil-table builder
(``_Discretization._stencil_rows``).  A node class's table holds weights
over (row field, column field, stencil slot) and a node offset per slot,
the same at every node of the class; the builder sorts each row pattern
once and broadcasts it over the class's nodes into A's CSR arrays.  Interior
rows keep a fixed 15-slot second-order central table: the value, central
d/dx and d/dy, the compact [1, -2, 1] second differences and the 4-point
cross difference, with weights (num * c) / den that equal E_h's interior
Hessian row to roundoff.  Displacement rows are the identity; their data
is re-imposed exactly every step.  Each traction class (4 edges, 4
corners) takes 9 slots, the node and its 8 neighbours, read once per
class off E_h's Hessian on a 3 x 3 reference patch (``_energy_rows``).
Within a row the entries run over column field, then slot, which fixes
the order in which duplicate entries are summed into A.

Every load is a spatial field times a time envelope (the presets'
``space(x, y)`` and ``envelope(t) -> value``).  Each subsystem
builds, once and on first use, one load vector F_k per load that acts on
it, over its free dofs, from the field and its in-plane gradients.  The
load vector at time t is then sum_k e_k(t) F_k; no field is sampled and no
gradient taken per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..material import (MaterialParams, TechnicalConstants,
                        technical_constants, validate_parameters)
from ..operators import (build_extensional, build_flexural, build_traction,
                         traction_load_part)
from ..plate_fields import (EXTENSIONAL_FIELDS, FLEXURAL_FIELDS, InertiaSet,
                            LoadSet, inertia_constants)


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
    ``positive``); anything else, a bool among them, is a ConfigError
    naming ``where``."""
    if isinstance(value, bool):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
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
    """[x, y], two finite numbers"""
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
        return 1.0


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
            return 1.0
        return math.exp(-0.5 * ((t - self.t0) / self.tau) ** 2)


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
        return math.cos(self.omega * t)


@dataclass(frozen=True)
class LoadFunctions:
    """The four face loads (None = zero), each a preset: a spatial field
    ``space(x, y)`` times a time envelope ``envelope(t) -> value``."""

    p: object | None = None
    sigma0: object | None = None
    v: object | None = None
    t: object | None = None

    def sample(self, X, Y, time: float) -> LoadSet:
        def ev(f):
            return (f.space(X, Y) * f.envelope(time) if f is not None
                    else np.zeros_like(X))

        return LoadSet(**{name: ev(f) for name, f in vars(self).items()})


def _envelope_sum(presets, rows: np.ndarray, t: float):
    """sum_k e_k(t) rows[k], with e_k the value of preset k's time
    envelope.  One preset's sum is the scaled row e rows[0] + 0.0, bit for
    bit the matmul's zero-started sum: the + 0.0 turns a -0 product into +0
    as that sum does."""
    if len(presets) == 1:
        return presets[0].envelope(t) * rows[0] + 0.0
    return np.array([f.envelope(t) for f in presets]) @ rows


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

    def sample_loads(self, t: float) -> LoadSet:
        return self.config.loads.sample(self.X, self.Y, t)

    @cached_property
    def interior_stack(self) -> "_InteriorStack":
        """What the explicit kernel needs that does not depend on time,
        built on first use: static solves never need it."""
        from .explicit import _InteriorStack
        return _InteriorStack(self)

    @cached_property
    def coordinate_text(self) -> list[str]:
        """Each node's "x1,x2" as snapshots write it (``%.17g``), in the
        order of ``X.ravel()``: formatted once per model and reused by every
        snapshot written from it."""
        return ["%.17g,%.17g" % xy for xy in zip(self.X.ravel().tolist(),
                                                 self.Y.ravel().tolist())]


@np.errstate(over="ignore", invalid="ignore")
def assemble(config: ModelConfig) -> DiscreteModel:
    """Validate the configuration and build the discrete model.  Overflow
    is not warned of: a matrix with an entry that is not finite, from an
    input too large for double precision, raises ConfigError."""
    report = validate_parameters(config.material)
    if not report.admissible:
        raise ConfigError(
            "inadmissible material: " + ", ".join(report.violations)
        )
    if config.nx < 5 or config.ny < 5:
        raise ConfigError(f"nx,ny >= 5 required, got {config.nx}x{config.ny}")
    if 9 * config.nx * config.ny >= 2**31:  # the kernel's int32 columns
        raise ConfigError(f"9 nx ny < 2^31 required, got "
                          f"{config.nx:.6g}x{config.ny:.6g}")
    for name, val in (("a", config.a), ("b", config.b), ("h", config.h)):
        if not val > 0.0:
            raise ConfigError(f"geometry {name} must be positive, got {val}")
    bc = _normalize_bc(config.bc)

    tc = technical_constants(config.material, config.h, config.shear_correction)
    inertia = inertia_constants(config.material, config.h)
    flex = build_flexural(tc, inertia, paper_literal=config.paper_literal)
    ext = build_extensional(tc, inertia, paper_literal=config.paper_literal)
    forms = build_traction(tc)

    x = np.linspace(0.0, config.a, config.nx)
    y = np.linspace(0.0, config.b, config.ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    if not max(dx, dy) ** 2 < np.inf:  # the stencils divide by it
        raise ConfigError(f"geometry a = {config.a}, b = {config.b}: the "
                          f"square of the grid spacing overflows")

    flex_d = _Discretization(config, bc, flex, *forms["flex"],
                             X, Y, dx, dy, "flexural")
    ext_d = _Discretization(config, bc, ext, *forms["ext"],
                            X, Y, dx, dy, "extensional")
    for d in (flex_d, ext_d):
        if not np.isfinite(d.A.data).all():
            raise ConfigError(f"{d.name} matrix not finite: the moduli, h, a "
                              f"or b lie outside the range of double precision")

    return DiscreteModel(
        config=config, tc=tc, inertia=inertia,
        X=X, Y=Y, dx=dx, dy=dy, bc=bc,
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

# The 9 slots of a traction row: the node and its 8 neighbours, as (di, dj)
# offsets.
_PATCH_DI, _PATCH_DJ = np.array(np.divmod(np.arange(9), 3)) - 1


def _energy_rows(Q: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """The rows -K / (dx dy) of every node class, K the Hessian of E_h on a
    3 x 3 node patch: (3, 3, nf, nf, 9), the row of field r at patch node
    (i, j) weighting field c at node (i + di, j + dj) of slot s.  Patch
    node (i, j) stands for every grid node of its class: i is 0 on the first
    node line along x, 2 on the last and 1 between, and so is j along y."""
    nf = Q.shape[1]
    V = np.eye(9).reshape(3, 3, 9)  # node (i, j)'s value, over the 9 nodes
    X, Y = (V[1:] - V[:-1]) / dx, (V[:, 1:] - V[:, :-1]) / dy
    Xbar, Ybar = 0.5 * (V[1:] + V[:-1]), 0.5 * (V[:, 1:] + V[:, :-1])
    Xc, Yc = 0.5 * (X[:, 1:] + X[:, :-1]), 0.5 * (Y[1:] + Y[:-1])
    half = np.array([0.5, 1.0, 0.5])  # a node line's share of its dual cells
    ax, ay = np.broadcast_to(half, (2, 3)), np.broadcast_to(half[:, None], (3, 2))

    def hessian(w, A, M, B):
        """The Hessian of sum w (A h).M (B h) over samples, in units of
        dx dy: (9, nf, 9, nf)."""
        t = np.einsum("s,sp,sq,rc->prqc", np.ravel(w), A.reshape(-1, 9),
                      B.reshape(-1, 9), M)
        return t + t.transpose(2, 3, 0, 1)

    K = (hessian(0.5 * np.outer(half, half), V, Q[0, :, 0], V)
         + hessian(0.5 * ax, X, Q[1, :, 1], X) + hessian(ax, X, Q[1, :, 0], Xbar)
         + hessian(0.5 * ay, Y, Q[2, :, 2], Y) + hessian(ay, Y, Q[2, :, 0], Ybar)
         + hessian(np.ones((2, 2)), Xc, Q[1, :, 2], Yc))
    # -K with the column nodes padded by one, so every slot of every class
    # indexes it; a slot outside the patch reads 0
    padded = np.zeros((3, 3, nf, 5, 5, nf))
    padded[:, :, :, 1:4, 1:4] = -K.reshape(3, 3, nf, 3, 3, nf)
    i, j = np.arange(3)[:, None, None], np.arange(3)[None, :, None]
    rows = padded[i, j, :, i + 1 + _PATCH_DI, j + 1 + _PATCH_DJ]
    return np.moveaxis(rows, 2, -1)  # (3, 3, 9, nf, nf) -> (3, 3, nf, nf, 9)


def _abs_matvec(A, x: np.ndarray) -> np.ndarray:
    """|A| x of a CSR matrix A, copying only A's data: ``abs(A)`` would sort
    a non-canonical A in place and change the order in which ``A @ x`` sums
    a row."""
    import scipy.sparse as sp
    return sp.csr_matrix((np.abs(A.data), A.indices, A.indptr),
                         shape=A.shape) @ x


class _FreeBlock:
    """One subsystem's free block, read by every solver: A restricted to
    the free (interior and traction) dofs ``free_dofs``, field by field,
    each row's entries in their order in A (``A_FF``, so K = -A_FF is E_h's
    Hessian), its Dirichlet columns (``A_FD``) and the lumped free masses
    (``mass``).  The mirror map of an axis is built on each asking and not
    kept; its bitwise commutation with A_FF and the mass is checked once."""

    def __init__(self, d: "_Discretization"):
        import scipy.sparse as sp
        self.name, self.nx, self.ny = d.name, d.nx, d.ny
        self.free_dofs, weight = d.free_dofs, d.weight.ravel()[d.free_nodes]
        self.mass = (d.op.mass[:, None] * weight).ravel()
        A = d.A
        # the columns are sliced first: their blocks are small
        self.A_FD = A[:, d.dirich_dofs][d.free_dofs]
        # A_FF's rows are A's free rows less their Dirichlet columns; a
        # slice A[free][:, free] would hold a copy of the free rows
        free = np.zeros(d.ndof, dtype=bool)
        free[d.free_dofs] = True
        keep = np.repeat(free, np.diff(A.indptr)) & free[A.indices]
        counts = np.diff(A.indptr)[d.free_dofs] - np.diff(self.A_FD.indptr)
        column = np.cumsum(free, dtype=np.int32) - 1
        self.A_FF = sp.csr_matrix(
            (A.data[keep], column[A.indices[keep]],
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(counts.size, counts.size))
        self._commutes = {}  # axis -> bool

    def mirror(self, axis: int):
        """The mirror of grid axis ``axis`` on the free dofs, or None."""
        from .mirror import mirror_of
        return mirror_of(self, axis)

    def commutes(self, axis: int) -> bool:
        """Whether that mirror exists and commutes with A_FF and the mass."""
        if axis not in self._commutes:
            m = self.mirror(axis)
            self._commutes[axis] = m is not None and m.commutes(self.A_FF,
                                                                self.mass)
        return self._commutes[axis]


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

    def __init__(self, config, bc, op, Q, tn_loads, X, Y, dx, dy, name):
        self.name = name
        self.edge_key, self.fields, self.null_space = _SUBSYSTEMS[name]
        self.op = op
        self.Q = Q                 # the energy density form
        self.tn_loads = tn_loads   # load parts of the boundary resultants
        self.nf = op.active_coeffs.shape[0]
        self.nx, self.ny = config.nx, config.ny
        self.dx, self.dy = dx, dy
        self.X, self.Y = X, Y
        self.bc = bc
        self.loads = config.loads
        self.ndof = self.nf * self.nx * self.ny

        self._classify_nodes()
        import scipy.sparse as sp
        self.A = sp.csr_matrix(self._stencil_rows(),
                               shape=(self.ndof, self.ndof))
        self.has_dirichlet = self.dirich_nodes.size > 0

    @cached_property
    def free_block(self) -> _FreeBlock:
        """The free block, built on first use."""
        return _FreeBlock(self)

    # -- node bookkeeping --------------------------------------------------

    def _classify_nodes(self):
        nx, ny = self.nx, self.ny
        # each node line's share of its dual cells across it: 1/2 on the
        # first and the last line, so a node's dual-cell fraction
        # (``weight``) is 1 inside, 1/2 on an edge and 1/4 at a corner
        self.line_weight = [np.ones(n) for n in (nx, ny)]
        for w in self.line_weight:
            w[[0, -1]] = 0.5
        self.weight = np.outer(*self.line_weight)
        kind = np.zeros((nx, ny), dtype=int)  # 0 interior, 1 dirichlet, 2 traction
        for name in EDGES:
            k = kind[edge_line(name)]  # a view of the edge
            if self.bc[name].kind == "clamped":
                k[:] = 1
            else:
                k[k != 1] = 2  # displacement data wins a corner
        self.kind = kind
        self.interior_nodes, _, _ = self._nodes_of(kind == 0)
        self.dirich_nodes, self._dir_ij, self.dirich_dofs = \
            self._nodes_of(kind == 1)
        self.trac_nodes, self._trac_ij, self.trac_dofs = self._nodes_of(kind == 2)
        self.free_nodes, _, self.free_dofs = self._nodes_of(kind != 1)

    def locate(self, dof: int) -> tuple:
        """The field name and the node indices i, j of grid dof ``dof``."""
        f, node = divmod(int(dof), self.nx * self.ny)
        return (self.fields[f], *divmod(node, self.ny))

    def _nodes_of(self, mask):
        """Node indices i * ny + j, their (i, j) and their dofs (field by
        field) of the nodes in ``mask``."""
        ii, jj = np.nonzero(mask)
        nodes = ii * self.ny + jj
        dofs = np.arange(self.nf)[:, None] * (self.nx * self.ny) + nodes
        return nodes, (ii, jj), dofs.ravel()

    def _traction_edges(self):
        """(edge, mask, weight) of each traction edge: the mask of its nodes
        among the traction nodes and their boundary length per cell area,
        the trapezoid weight along the edge over the spacing across it."""
        ti, tj = self._trac_ij
        for name, (axis, index, _) in EDGE_TABLE.items():
            if self.bc[name].kind != "traction":
                continue
            mask = (ti, tj)[axis] == range((self.nx, self.ny)[axis])[index]
            along = (tj, ti)[axis][mask]
            yield name, mask, (self.line_weight[1 - axis][along]
                               / (self.dx, self.dy)[axis])

    # -- matrix assembly ----------------------------------------------------

    def _stencil_tables(self):
        """(nodes, W, di, dj) of every node class: field r at each of the
        nodes (i * ny + j) takes W[r, c, s] times field c at the node offset
        by (di[s], dj[s]) in (i, j), the same at every node of the class."""
        yield self._interior_table()
        zero = np.zeros(1, dtype=int)
        yield self.dirich_nodes, np.eye(self.nf)[:, :, None], zero, zero
        yield from self._traction_tables()

    def _stencil_rows(self):
        """(data, indices, indptr) of A in canonical CSR form.  A class's
        rows have one pattern: its entries of each row field sorted by
        column, stably, and the duplicates of a column summed in the order
        (c, s) lists them, which is what SciPy's COO to CSR conversion makes
        of the same triplets, bit for bit (a test checks this).  Each
        pattern is then broadcast over its class's nodes."""
        nn = self.nx * self.ny
        count = np.zeros((self.nf, nn), dtype=np.int64)
        classes = []
        for nodes, W, di, dj in self._stencil_tables():
            r, c, s = np.nonzero(W)
            w = W[r, c, s]
            offset = c * nn + di[s] * self.ny + dj[s]
            order = np.lexsort((offset, r))  # stable
            r, offset, w = r[order], offset[order], w[order]
            new = np.ones(r.size, dtype=bool)
            new[1:] = (r[1:] != r[:-1]) | (offset[1:] != offset[:-1])
            vals = w[new]
            # each duplicate added to its column's sum in turn
            np.add.at(vals, np.cumsum(new)[~new] - 1, w[~new])
            r, offset = r[new], offset[new]
            count[:, nodes] = np.bincount(r, minlength=self.nf)[:, None]
            classes.append((nodes[:, None], r, offset, vals,
                            np.arange(r.size) - np.searchsorted(r, r)))
        index = np.int32 if max(count.sum(), self.ndof) < 2**31 else np.int64
        indptr = np.zeros(self.ndof + 1, dtype=index)
        np.cumsum(count, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        for nodes, r, offset, vals, slot in classes:
            at = indptr[r * nn + nodes] + slot
            indices[at] = nodes + offset
            data[at] = vals
        return data, indices, indptr

    def _interior_table(self):
        """Central rows of L: node-independent weights (num * c) / den."""
        dx, dy = self.dx, self.dy
        term, num, di, dj = _INTERIOR_SLOTS
        term, di, dj = (a.astype(int) for a in (term, di, dj))
        den = np.array([1.0, dx, dy, dx**2, dx * dy, dy**2])[term]
        W = (num * self.op.active_coeffs[:, :, term]) / den
        return self.interior_nodes, W, di, dj

    def _traction_tables(self):
        """(nodes, W, di, dj) of each class of traction nodes present, an
        edge or a corner: the class's rows of E_h's Hessian."""
        ti, tj = self._trac_ij
        if ti.size == 0:
            return
        rows = _energy_rows(self.Q, self.dx, self.dy)
        # 0 on the first node line, 2 on the last, 1 between, along each axis
        ci, cj = ((k > 0).astype(int) + (k == n - 1)
                  for k, n in ((ti, self.nx), (tj, self.ny)))
        cls = 3 * ci + cj
        for c in np.unique(cls):
            yield (self.trac_nodes[cls == c], rows[c // 3, c % 3],
                   _PATCH_DI, _PATCH_DJ)

    # -- load / data vectors -------------------------------------------------

    @cached_property
    def load_terms(self):
        """The loads acting on this subsystem as (presets, F): row k of F is
        the load vector of preset k's spatial field and its gradients over
        the free dofs, so the load vector at t is sum_k e_k(t) F[k].  A
        traction node's entry is its dual-cell fraction of the node's load
        vector plus the trapezoid boundary work of the load part of its
        resultants.  A preset that leaves F zero, one that loads only the
        other subsystem, is dropped.  Built on first use: each spatial field
        is evaluated once per model and subsystem.  A load whose field or
        load vector overflows is a ConfigError naming it."""
        zeros = LoadSet(*[np.zeros_like(self.X)] * 4)
        ti, tj = self._trac_ij
        trac, weight = self.trac_nodes, self.weight[ti, tj]
        normal = np.zeros((2, ti.size))  # outward normals x length per area
        for name, mask, w in self._traction_edges():
            normal[:, mask] += np.multiply.outer(EDGE_TABLE[name][2], w)
        presets, F = [], []
        for name, f in vars(self.loads).items():
            if f is None:
                continue
            try:
                with np.errstate(over="raise", invalid="raise"):
                    space = np.asarray(f.space(self.X, self.Y), dtype=float)
                    gx, gy = np.gradient(space, self.dx, self.dy,
                                         edge_order=2)
                    loads, grad1, grad2 = (replace(zeros, **{name: a})
                                           for a in (space, gx, gy))
                    Fk = np.stack([np.ravel(r) for r in self.op.load_vector(
                        loads, grad1, grad2)])
                    if trac.size:
                        at = LoadSet(*(v[ti, tj] for v in vars(loads).values()))
                        Fk[:, trac] = weight * Fk[:, trac] + traction_load_part(
                            self.tn_loads, at, normal)
                    Fk = Fk[:, self.free_nodes].ravel()
                if not np.isfinite(Fk).all():
                    raise FloatingPointError("load vector not finite")
            except FloatingPointError as exc:
                keys = ", ".join(f"'loads.{name}.{k}'" for k in vars(f))
                raise ConfigError(
                    f"'loads.{name}' overflows on the grid ({exc}): one of "
                    f"{keys} lies outside the range of double "
                    f"precision") from None
            if np.any(Fk):
                presets.append(f)
                F.append(Fk)
        return (tuple(presets),
                np.reshape(F, (len(presets), self.free_dofs.size)))

    def load_rhs(self, t):
        """The load vector F over the free dofs at time t."""
        presets, F = self.load_terms
        return _envelope_sum(presets, F, t)

    def dirichlet_values(self):
        """Prescribed field values on the displacement boundary dofs."""
        ii, jj = self._dir_ij
        data = np.zeros((self.nf, ii.size))
        x, y = self.X[ii, jj], self.Y[ii, jj]
        for name, (axis, index, _) in EDGE_TABLE.items():
            fdata = getattr(self.bc[name], self.edge_key)
            if self.bc[name].kind != "clamped" or fdata is None:
                continue
            mask = (ii, jj)[axis] == range((self.nx, self.ny)[axis])[index]
            if np.any(mask):
                data[:, mask] = np.asarray(fdata(x[mask], y[mask]))
        return data.ravel()

    def traction_force(self):
        """The force of the prescribed boundary resultants on the traction
        dofs per cell area: each edge's data times its boundary length per
        cell area, so a traction-traction corner takes half of each of its
        two edges' data, one over dx and one over dy."""
        ti, tj = self._trac_ij
        out = np.zeros((self.nf, ti.size))
        for name, mask, w in self._traction_edges():
            fdata = getattr(self.bc[name], self.edge_key)
            if fdata is not None and np.any(mask):
                out[:, mask] += w * np.asarray(fdata(self.X[ti[mask], tj[mask]],
                                                     self.Y[ti[mask], tj[mask]]))
        return out.ravel()
