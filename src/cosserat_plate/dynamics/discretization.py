"""Finite-difference discretization of the flexural and extensional systems.

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
across the edge and central along it.  They are weighted by the traction
coefficients, which ``operators.build_traction`` reads off the stiffness
form, contracted with the node's normal; ``operators.traction_load_part``
gives their load part.  The formulation is ghost-free.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..material import (MaterialParams, TechnicalConstants,
                        technical_constants, validate_parameters)
from ..operators import (ExtensionalOperator, FlexuralOperator,
                         build_extensional, build_flexural, build_traction,
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
    trac = build_traction(tc)

    x = np.linspace(0.0, config.a, config.nx)
    y = np.linspace(0.0, config.b, config.ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    dx = x[1] - x[0]
    dy = y[1] - y[0]
    if not max(dx, dy) ** 2 < np.inf:  # the stencils divide by it
        raise ConfigError(f"geometry a = {config.a}, b = {config.b}: the "
                          f"square of the grid spacing overflows")

    flex_d = _Discretization(config, bc, flex, trac.flex, trac.flex_loads,
                             X, Y, dx, dy, "flexural")
    ext_d = _Discretization(config, bc, ext, trac.ext, trac.ext_loads,
                            X, Y, dx, dy, "extensional")
    for d in (flex_d, ext_d):
        if not np.isfinite(d.A.data).all():
            raise ConfigError(f"{d.name} matrix not finite: the moduli, h, a "
                              f"or b lie outside the range of double precision")

    return DiscreteModel(
        config=config, tc=tc, inertia=inertia, flex=flex, ext=ext,
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


def _abs_matvec(A, x: np.ndarray) -> np.ndarray:
    """|A| x of a CSR matrix A, copying only A's data: ``abs(A)`` would sort
    a non-canonical A in place and change the order in which ``A @ x`` sums
    a row."""
    import scipy.sparse as sp
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

    def __init__(self, config, bc, op, tn, tn_loads, X, Y, dx, dy, name):
        self.name = name
        self.edge_key, self.fields, self.null_space = _SUBSYSTEMS[name]
        self.op = op
        self.tn, self.tn_loads = tn, tn_loads  # traction row coefficients
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
        import scipy.sparse as sp
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
        from .static import _StaticFactor
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
                                  traction_load_part(self.tn_loads, loads,
                                                     normal)])
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


