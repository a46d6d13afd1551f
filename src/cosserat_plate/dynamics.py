"""Finite-difference discretization, static solves and explicit dynamics.

The mid-plane rectangle [0, a] x [0, b] carries a uniform nx x ny node
grid.  Interior nodes collocate the governing systems with second-order
central differences; boundary nodes carry either resultant displacement
rows (identity, data re-imposed exactly every step) or resultant traction
rows T(d/dx) H = F* discretized with one-sided second-order stencils in
the normal direction.  The formulation is ghost-free.

Time integration is the explicit central-difference (leapfrog) scheme in
its single-state velocity form: with M hdd = L h - f,

    v+ = v + dt/2 * a(h);  h' = h + dt * v+;  v' = v+ + dt/2 * a(h'),

which is algebraically the classic two-level central-difference update and
shares its conserved shadow energy.  The kernel (``_Subsystem`` and
``_leapfrog_step``) advances flat interior vectors only: positions u,
velocities w and accelerations a on the interior dofs of each subsystem.
The end-of-step acceleration a(h') is the next step's starting a(h)
("first same as last"), so each step costs one interior matvec and one
load evaluation per subsystem.  The interior rows are split by column
into an interior block and Dirichlet and traction boundary blocks; the
Dirichlet lift (boundary block times the time-independent data) is formed
once per run.  Traction boundary values are quasi-static: inside every
acceleration the boundary block is solved from the traction rows for the
current u (one sparse factorization, reused).  Traction boundary
velocities, from the time-differentiated constraint, feed nothing back
into the interior update and are solved only when a ``DiscreteState`` is
built, at snapshots and at the end of a run.

Energy bookkeeping uses the discrete quadratic forms of the scheme itself:
kinetic = 0.5 v^T M v and strain = -0.5 h^T L h (cell-area weighted), the
consistent quadrature of the plate stress energy integral.  With clamped
homogeneous edges the semi-discrete energy is exactly conserved, so the
measured drift isolates the time-integration error and scales as dt^2.
``simulate`` checks that the energy is finite and within budget every
``GUARD_EVERY`` steps, whatever the snapshot cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    InertiaSet,
    LoadSet,
    PlateKinematics,
    inertia_constants,
)


class ConfigError(ValueError):
    """Invalid discretization or boundary configuration."""


class SingularSystemError(RuntimeError):
    """Static system is singular (names the rigid null space)."""


class InstabilityError(RuntimeError):
    """Unbounded energy growth detected during a run."""


EDGES = ("left", "right", "bottom", "top")
_NORMALS = {
    "left": (-1.0, 0.0),
    "right": (1.0, 0.0),
    "bottom": (0.0, -1.0),
    "top": (0.0, 1.0),
}


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------

class ConstantLoad:
    def __init__(self, amplitude: float):
        self.amplitude = float(amplitude)

    def value(self, x, y, t):
        return self.amplitude * np.ones_like(np.asarray(x, dtype=float))

    def rate(self, x, y, t):
        return np.zeros_like(np.asarray(x, dtype=float))


class GaussianPulseLoad:
    """Spatial Gaussian bump with a Gaussian time envelope."""

    def __init__(self, amplitude, center=(0.5, 0.5), width=0.1,
                 t0=0.0, tau=None):
        self.amplitude = float(amplitude)
        self.center = (float(center[0]), float(center[1]))
        self.width = float(width)
        self.t0 = float(t0)
        self.tau = None if tau is None else float(tau)

    def _space(self, x, y):
        r2 = (np.asarray(x) - self.center[0]) ** 2 + (np.asarray(y) - self.center[1]) ** 2
        return self.amplitude * np.exp(-0.5 * r2 / self.width**2)

    def _time(self, t):
        if self.tau is None:
            return 1.0
        return math.exp(-0.5 * ((t - self.t0) / self.tau) ** 2)

    def value(self, x, y, t):
        return self._space(x, y) * self._time(t)

    def rate(self, x, y, t):
        if self.tau is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self._space(x, y) * self._time(t) * (-(t - self.t0) / self.tau**2)


class SinusoidalLoad:
    def __init__(self, amplitude, kx=1, ky=1, omega=0.0, lx=1.0, ly=1.0):
        self.amplitude = float(amplitude)
        self.kx, self.ky = int(kx), int(ky)
        self.omega = float(omega)
        self.lx, self.ly = float(lx), float(ly)

    def _space(self, x, y):
        return self.amplitude * np.sin(self.kx * np.pi * np.asarray(x) / self.lx) * np.sin(
            self.ky * np.pi * np.asarray(y) / self.ly
        )

    def value(self, x, y, t):
        return self._space(x, y) * math.cos(self.omega * t)

    def rate(self, x, y, t):
        return -self.omega * self._space(x, y) * math.sin(self.omega * t)


@dataclass(frozen=True)
class LoadFunctions:
    """The four face loads as time-dependent fields (None = zero)."""

    p: object | None = None
    sigma0: object | None = None
    v: object | None = None
    t: object | None = None

    @property
    def is_empty(self) -> bool:
        return self.p is None and self.sigma0 is None and self.v is None \
            and self.t is None

    def sample(self, X, Y, time: float) -> LoadSet:
        def ev(f):
            return f.value(X, Y, time) if f is not None else np.zeros_like(X)

        return LoadSet(p=ev(self.p), sigma0=ev(self.sigma0),
                       v=ev(self.v), t=ev(self.t))

    def sample_rate(self, X, Y, time: float) -> LoadSet:
        def ev(f):
            return f.rate(X, Y, time) if f is not None else np.zeros_like(X)

        return LoadSet(p=ev(self.p), sigma0=ev(self.sigma0),
                       v=ev(self.v), t=ev(self.t))


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeBC:
    """One edge of the plate: kinematic data on Gamma_u or resultant
    traction data on Gamma_sigma.

    ``flex_data(x, y) -> (6,...)`` / ``ext_data(x, y) -> (3,...)`` give the
    prescribed field values (clamped) or the prescribed boundary resultants
    (traction); None means homogeneous.
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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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

def _d1_stencil(i: int, n: int, d: float):
    """Second-order first-derivative stencil offsets/weights along one axis."""
    if i == 0:
        return ((0, -1.5 / d), (1, 2.0 / d), (2, -0.5 / d))
    if i == n - 1:
        return ((0, 1.5 / d), (-1, -2.0 / d), (-2, 0.5 / d))
    return ((-1, -0.5 / d), (1, 0.5 / d))


class _Discretization:
    """Sparse rows of one subsystem plus the index bookkeeping."""

    def __init__(self, config, bc, op, tn, trac_load_part, X, Y, dx, dy,
                 name):
        self.name = name
        self.op = op
        self.tn = tn
        self.trac_load_part = trac_load_part
        self.nf = op.active_coeffs.shape[0]
        self.nx, self.ny = config.nx, config.ny
        self.dx, self.dy = dx, dy
        self.X, self.Y = X, Y
        self.bc = bc
        self.ndof = self.nf * self.nx * self.ny

        self._classify_nodes()
        self._assemble_matrix()
        self._factorize_traction()
        self.mass_interior = np.repeat(
            op.mass, self.interior_nodes.size
        ).astype(float)
        self.has_dirichlet = self.dirich_nodes.size > 0

    # -- node bookkeeping --------------------------------------------------

    def _node_index(self, i, j):
        return i * self.ny + j

    def _gdof(self, f, node):
        return f * (self.nx * self.ny) + node

    def _classify_nodes(self):
        nx, ny = self.nx, self.ny
        kind = np.zeros((nx, ny), dtype=int)  # 0 interior, 1 dirichlet, 2 traction
        normal_raw = np.zeros((nx, ny, 2))    # accumulated edge normals
        edge_nodes = {
            "left": [(0, j) for j in range(ny)],
            "right": [(nx - 1, j) for j in range(ny)],
            "bottom": [(i, 0) for i in range(nx)],
            "top": [(i, ny - 1) for i in range(nx)],
        }
        for name in EDGES:
            tag = 1 if self.bc[name].kind == "clamped" else 2
            n = _NORMALS[name]
            for (i, j) in edge_nodes[name]:
                if kind[i, j] == 1:
                    continue  # displacement data wins at corners
                if kind[i, j] == 2 and tag == 2:
                    # traction-traction corner: superpose the edge rows,
                    # which averages the normals and halves the data weight
                    normal_raw[i, j] += np.asarray(n)
                    continue
                kind[i, j] = tag
                normal_raw[i, j] = n
        norm = np.linalg.norm(normal_raw, axis=2)
        norm[norm == 0.0] = 1.0
        self.kind = kind
        self.normal = normal_raw / norm[:, :, None]
        # per-node weight applied to each contributing edge's prescribed
        # data so the combined row stays consistent with the averaged normal
        self.trac_weight = 1.0 / norm
        ii, jj = np.nonzero(kind == 0)
        self.interior_nodes = self._node_index(ii, jj)
        self._int_ij = (ii, jj)
        ii, jj = np.nonzero(kind == 1)
        self.dirich_nodes = self._node_index(ii, jj)
        self._dir_ij = (ii, jj)
        ii, jj = np.nonzero(kind == 2)
        self.trac_nodes = self._node_index(ii, jj)
        self._trac_ij = (ii, jj)

        nn = self.nx * self.ny
        self.interior_dofs = (
            np.arange(self.nf)[:, None] * nn + self.interior_nodes[None, :]
        ).ravel()
        self.dirich_dofs = (
            np.arange(self.nf)[:, None] * nn + self.dirich_nodes[None, :]
        ).ravel()
        self.trac_dofs = (
            np.arange(self.nf)[:, None] * nn + self.trac_nodes[None, :]
        ).ravel()

    # -- matrix assembly ----------------------------------------------------

    def _assemble_matrix(self):
        nx, ny, nf = self.nx, self.ny, self.nf
        dx, dy = self.dx, self.dy
        rows, cols, vals = [], [], []

        ii, jj = self._int_ij
        node = self.interior_nodes
        C = self.op.active_coeffs

        def add(r, c, di, dj, w):
            rows.append(self._gdof(r, node))
            cols.append(self._gdof(c, self._node_index(ii + di, jj + dj)))
            vals.append(np.full(node.size, w))

        for r in range(nf):
            for c in range(nf):
                c0, c1, c2, c3, c4, c5 = C[r, c]
                if c0 != 0.0:
                    add(r, c, 0, 0, c0)
                if c1 != 0.0:
                    add(r, c, 1, 0, 0.5 * c1 / dx)
                    add(r, c, -1, 0, -0.5 * c1 / dx)
                if c2 != 0.0:
                    add(r, c, 0, 1, 0.5 * c2 / dy)
                    add(r, c, 0, -1, -0.5 * c2 / dy)
                if c3 != 0.0:
                    add(r, c, 1, 0, c3 / dx**2)
                    add(r, c, 0, 0, -2.0 * c3 / dx**2)
                    add(r, c, -1, 0, c3 / dx**2)
                if c4 != 0.0:
                    w = 0.25 * c4 / (dx * dy)
                    add(r, c, 1, 1, w)
                    add(r, c, -1, -1, w)
                    add(r, c, 1, -1, -w)
                    add(r, c, -1, 1, -w)
                if c5 != 0.0:
                    add(r, c, 0, 1, c5 / dy**2)
                    add(r, c, 0, 0, -2.0 * c5 / dy**2)
                    add(r, c, 0, -1, c5 / dy**2)

        # displacement rows: identity
        if self.dirich_nodes.size:
            for f in range(nf):
                rows.append(self._gdof(f, self.dirich_nodes))
                cols.append(self._gdof(f, self.dirich_nodes))
                vals.append(np.ones(self.dirich_nodes.size))

        # traction rows: n . T with one-sided normal stencils
        ti, tj = self._trac_ij
        for i, j in zip(ti, tj):
            nvec = self.normal[i, j]
            node_ij = self._node_index(i, j)
            coeffs = np.einsum("rcab,a->rcb", self.tn, nvec)
            sx = _d1_stencil(i, nx, dx)
            sy = _d1_stencil(j, ny, dy)
            for r in range(nf):
                for c in range(nf):
                    c0, c1, c2 = coeffs[r, c, 0], coeffs[r, c, 1], coeffs[r, c, 2]
                    if c0 != 0.0:
                        rows.append([self._gdof(r, node_ij)])
                        cols.append([self._gdof(c, node_ij)])
                        vals.append([c0])
                    if c1 != 0.0:
                        for di, w in sx:
                            rows.append([self._gdof(r, node_ij)])
                            cols.append([self._gdof(c, self._node_index(i + di, j))])
                            vals.append([c1 * w])
                    if c2 != 0.0:
                        for dj, w in sy:
                            rows.append([self._gdof(r, node_ij)])
                            cols.append([self._gdof(c, self._node_index(i, j + dj))])
                            vals.append([c2 * w])

        rows = np.concatenate([np.asarray(r, dtype=int) for r in rows])
        cols = np.concatenate([np.asarray(c, dtype=int) for c in cols])
        vals = np.concatenate([np.asarray(v, dtype=float) for v in vals])
        A = sp.coo_matrix((vals, (rows, cols)), shape=(self.ndof, self.ndof))
        self.A = A.tocsr()

    @cached_property
    def interior_blocks(self):
        """Interior rows of A split by column into the interior, Dirichlet
        and traction blocks (A_II, A_ID, A_IT), so the explicit kernel works
        on interior vectors and hoists the Dirichlet lift A_ID g.  Built on
        first use: static solves never need them."""
        A_int = self.A[self.interior_dofs]
        return (A_int[:, self.interior_dofs], A_int[:, self.dirich_dofs],
                A_int[:, self.trac_dofs])

    def _factorize_traction(self):
        if self.trac_dofs.size == 0:
            self.trac_lu = None
            return
        T = self.A[self.trac_dofs]
        self.A_TI = T[:, self.interior_dofs]
        self.A_TD = T[:, self.dirich_dofs]
        try:
            self.trac_lu = spla.splu(T[:, self.trac_dofs].tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"{self.name} traction boundary block is singular: {exc}"
            ) from exc

    # -- load / data vectors -------------------------------------------------

    def _loads_on_grid(self, config_loads, t):
        loads = config_loads.sample(self.X, self.Y, t)
        zero = np.zeros_like(self.X)

        def grad(name):
            # an absent load samples to zeros, whose gradient is zero
            if getattr(config_loads, name) is None:
                return zero, zero
            return np.gradient(np.asarray(getattr(loads, name), dtype=float),
                               self.dx, self.dy, edge_order=2)

        (g1p, g2p), (g1t, g2t), (g1s, g2s) = grad("p"), grad("t"), grad("sigma0")
        grad1 = LoadSet(p=g1p, sigma0=g1s, v=zero, t=g1t)
        grad2 = LoadSet(p=g2p, sigma0=g2s, v=zero, t=g2t)
        return loads, grad1, grad2

    def load_rhs(self, config_loads, t):
        """Interior components of the load vector F, flattened per field."""
        if config_loads.is_empty:
            return np.zeros(self.interior_dofs.size)
        F = self.op.load_vector(*self._loads_on_grid(config_loads, t))
        return np.concatenate(
            [np.asarray(f).ravel()[self.interior_nodes] for f in F])

    def dirichlet_values(self, edge_data_key="flex_data"):
        """Prescribed field values on the displacement boundary dofs."""
        if self.dirich_nodes.size == 0:
            return np.zeros(0)
        ii, jj = self._dir_ij
        x, y = self.X[ii, jj], self.Y[ii, jj]
        data = np.zeros((self.nf, ii.size))
        for name in EDGES:
            ebc = self.bc[name]
            if ebc.kind != "clamped":
                continue
            fdata = getattr(ebc, edge_data_key)
            if fdata is None:
                continue
            mask = _edge_mask(name, ii, jj, self.nx, self.ny)
            if np.any(mask):
                vals_edge = np.asarray(fdata(x[mask], y[mask]))
                data[:, mask] = vals_edge
        return data.ravel()

    def traction_rhs(self, config_loads, t, edge_data_key="flex_data"):
        """F* on the traction dofs: prescribed minus load part."""
        if self.trac_dofs.size == 0:
            return np.zeros(0)
        ti, tj = self._trac_ij
        x, y = self.X[ti, tj], self.Y[ti, tj]
        if config_loads.is_empty:
            out = np.zeros((self.nf, ti.size))
        else:
            out = -self._trac_load_part(config_loads.sample(x, y, t))
        for name in EDGES:
            ebc = self.bc[name]
            if ebc.kind != "traction":
                continue
            fdata = getattr(ebc, edge_data_key)
            if fdata is None:
                continue
            mask = _edge_mask(name, ti, tj, self.nx, self.ny)
            if np.any(mask):
                w = self.trac_weight[ti[mask], tj[mask]]
                out[:, mask] += w * np.asarray(fdata(x[mask], y[mask]))
        return out.ravel()

    def traction_rhs_rate(self, config_loads, t, edge_data_key="flex_data"):
        """d(F*)/dt (prescribed data static; only loads move)."""
        if self.trac_dofs.size == 0:
            return np.zeros(0)
        if config_loads.is_empty:
            return np.zeros(self.trac_dofs.size)
        ti, tj = self._trac_ij
        x, y = self.X[ti, tj], self.Y[ti, tj]
        return -self._trac_load_part(
            config_loads.sample_rate(x, y, t)).ravel()

    def _trac_load_part(self, loads) -> np.ndarray:
        """(nf, n_trac) load part of the traction rows at every traction
        node, each with its own (averaged) normal."""
        ti, tj = self._trac_ij
        n = (self.normal[ti, tj, 0], self.normal[ti, tj, 1])
        return np.array(self.trac_load_part(loads, n))

    def interior_apply(self, h: np.ndarray) -> np.ndarray:
        """Interior rows of L h for a full-grid vector h."""
        A_II, A_ID, A_IT = self.interior_blocks
        Lh = A_II @ h[self.interior_dofs]
        if self.dirich_dofs.size:
            Lh += A_ID @ h[self.dirich_dofs]
        if self.trac_dofs.size:
            Lh += A_IT @ h[self.trac_dofs]
        return Lh


def _edge_mask(name, ii, jj, nx, ny):
    if name == "left":
        return ii == 0
    if name == "right":
        return ii == nx - 1
    if name == "bottom":
        return jj == 0
    return jj == ny - 1


# ---------------------------------------------------------------------------
# static solve
# ---------------------------------------------------------------------------

def _static_rhs(d: _Discretization, config, data_key, extra_F=None):
    rhs = np.zeros(d.ndof)
    rhs[d.interior_dofs] = d.load_rhs(config.loads, 0.0)
    if extra_F is not None:
        flat = np.asarray(extra_F, dtype=float).reshape(d.nf, -1)
        rhs[d.interior_dofs] += flat[:, d.interior_nodes].ravel()
    rhs[d.dirich_dofs] = d.dirichlet_values(data_key)
    rhs[d.trac_dofs] = d.traction_rhs(config.loads, 0.0, data_key)
    return rhs


_FLEX_NULL = (
    "uniform transverse translation W and the two rigid tilt/microrotation "
    "pairs (Psi_a = theta, W = -theta x_a, Omega_a'^0 = -theta)"
)
_EXT_NULL = "uniform in-plane translations U1, U2 (and Omega3_0 as N -> 0)"


def _solve_subsystem(d: _Discretization, config, data_key, null_desc,
                     extra_F=None):
    if not d.has_dirichlet:
        raise SingularSystemError(
            f"{d.name} system has traction data on every edge; the rigid "
            f"null space ({null_desc}) makes the static problem singular"
        )
    rhs = _static_rhs(d, config, data_key, extra_F)
    try:
        h = spla.spsolve(d.A.tocsc(), rhs)
    except RuntimeError as exc:
        raise SingularSystemError(f"{d.name} static solve failed: {exc}") from exc
    if not np.all(np.isfinite(h)):
        raise SingularSystemError(f"{d.name} static solve produced non-finite values")
    resid = np.max(np.abs(d.A @ h - rhs))
    scale = max(np.max(np.abs(rhs)), 1.0e-300)
    return h, resid, scale


def static_solve(model: DiscreteModel, extra_flex_F=None, extra_ext_F=None):
    """Solve both static systems; returns (PlateKinematics, diagnostics).

    Requires at least one displacement-constrained edge; otherwise the
    rigid modes are reported by name.  ``extra_*_F`` adds a manufactured
    interior forcing (per-field grids) to the load vector.
    """
    cfg = model.config
    hf, rf, sf = _solve_subsystem(model.flex_d, cfg, "flex_data", _FLEX_NULL,
                                  extra_flex_F)
    he, re_, se = _solve_subsystem(model.ext_d, cfg, "ext_data", _EXT_NULL,
                                   extra_ext_F)
    shape = (model.nx, model.ny)
    flex_fields = hf.reshape(6, *shape)
    ext_fields = he.reshape(3, *shape)
    diag = {
        "flexural_residual": rf,
        "flexural_rhs_scale": sf,
        "extensional_residual": re_,
        "extensional_rhs_scale": se,
    }
    kin = PlateKinematics.from_arrays(flexural=flex_fields, extensional=ext_fields)
    return kin, diag


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


def stable_dt(model: DiscreteModel, iterations: int = 300, seed: int = 0) -> float:
    """0.9 times the central-difference stability bound 2/omega_max.

    omega_max^2 is estimated by power iteration on M^-1 K of the
    boundary-condition-reduced semi-discrete system (both subsystems).
    The result is cached on the model.
    """
    key = ("stable_dt", iterations, seed)
    if key not in model._cache:
        w2 = max(
            _power_iteration(model.flex_d, iterations, seed),
            _power_iteration(model.ext_d, iterations, seed + 1),
        )
        model._cache[key] = 0.9 * 2.0 / math.sqrt(max(w2, 1e-300))
    return model._cache[key]


def _power_iteration(d: _Discretization, iterations: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d.interior_dofs.size)
    v /= np.linalg.norm(v)
    lam = 0.0
    homogeneous = _Subsystem(d, LoadFunctions(), None)
    for _ in range(iterations):
        w = -homogeneous.acceleration(v, 0.0)
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return abs(lam)


class _Subsystem:
    """One subsystem's interior state in the explicit kernel.

    ``u``, ``w`` and ``a`` are the positions, velocities and accelerations
    on the interior dofs.  The Dirichlet data ``g``, its lifts into the
    interior and traction rows and, for a load-free run, the traction data
    F* do not depend on time and are formed once.  ``Lu`` and ``hT`` keep
    the interior rows of L h and the traction boundary values of the last
    acceleration evaluated.  ``key`` None means homogeneous boundary data.
    """

    def __init__(self, d: _Discretization, loads: LoadFunctions, key):
        self.d = d
        self.loads = loads
        self.key = key
        self.loaded = not loads.is_empty
        self.A_II, A_ID, self.A_IT = d.interior_blocks
        self.g = (d.dirichlet_values(key) if key is not None
                  else np.zeros(d.dirich_dofs.size))
        lifted = bool(np.any(self.g))
        self.lift = A_ID @ self.g if lifted else None
        if d.trac_lu is not None:
            self.trac_lift = d.A_TD @ self.g if lifted else None
            self.fstar = (d.traction_rhs(loads, 0.0, key) if key is not None
                          else np.zeros(d.trac_dofs.size))

    def start(self, h: np.ndarray, v: np.ndarray, t: float) -> None:
        """Take u and w from full-grid vectors and a(t) from h with its
        boundary values as given; every later acceleration re-imposes g
        and re-solves the traction block."""
        d = self.d
        self.u = h[d.interior_dofs]
        self.w = v[d.interior_dofs]
        self.hT = h[d.trac_dofs]
        self.a = self.acceleration_from(d.interior_apply(h), t)

    def acceleration(self, u: np.ndarray, t: float) -> np.ndarray:
        """M^-1 (L h - F) on the interior rows at time t, where h is u on
        the interior, g on Gamma_u and the traction solve on Gamma_sigma."""
        d = self.d
        Lu = self.A_II @ u
        if self.lift is not None:
            Lu += self.lift
        if d.trac_lu is not None:
            rest = d.A_TI @ u
            if self.trac_lift is not None:
                rest += self.trac_lift
            fstar = (d.traction_rhs(self.loads, t, self.key) if self.loaded
                     else self.fstar)
            self.hT = d.trac_lu.solve(fstar - rest)
            Lu += self.A_IT @ self.hT
        return self.acceleration_from(Lu, t)

    def acceleration_from(self, Lu: np.ndarray, t: float) -> np.ndarray:
        """M^-1 (L h - F) from the interior rows of L h, kept in ``Lu``."""
        self.Lu = Lu
        if self.loaded:
            return (Lu - self.d.load_rhs(self.loads, t)) / self.d.mass_interior
        return Lu / self.d.mass_interior

    def grid_vectors(self, t: float):
        """Full-grid positions and velocities; the traction boundary
        velocities are solved from the time-differentiated constraint."""
        d = self.d
        h = np.zeros(d.ndof)
        v = np.zeros(d.ndof)
        h[d.interior_dofs] = self.u
        v[d.interior_dofs] = self.w
        h[d.dirich_dofs] = self.g
        if d.trac_lu is not None:
            h[d.trac_dofs] = self.hT
            rate = d.traction_rhs_rate(self.loads, t, self.key)
            v[d.trac_dofs] = d.trac_lu.solve(rate - d.A_TI @ self.w)
        shape = (d.nf, d.nx, d.ny)
        return h.reshape(shape), v.reshape(shape)


def _subsystems(model: DiscreteModel, state: DiscreteState) -> list:
    """Both subsystems' kernel state, started from a grid state."""
    parts = []
    for d, key, h, v in (
        (model.flex_d, "flex_data", state.flex, state.flex_vel),
        (model.ext_d, "ext_data", state.ext, state.ext_vel),
    ):
        p = _Subsystem(d, model.config.loads, key)
        p.start(np.asarray(h, dtype=float).reshape(-1),
                np.asarray(v, dtype=float).reshape(-1), state.time)
        parts.append(p)
    return parts


def _leapfrog_step(parts: list, t0: float, dt: float) -> float:
    """Advance every subsystem one step from t0 and return t0 + dt.

    Each part enters holding a(t0) and leaves holding a(t0 + dt), which the
    next step reuses as its starting acceleration.
    """
    half = 0.5 * dt
    t1 = t0 + dt
    for p in parts:
        p.w += half * p.a
        p.u += dt * p.w
        p.a = p.acceleration(p.u, t1)
        p.w += half * p.a
    return t1


def _grid_state(parts: list, t: float, warn: bool) -> DiscreteState:
    (flex, flex_vel), (ext, ext_vel) = (p.grid_vectors(t) for p in parts)
    return DiscreteState(flex=flex, ext=ext, flex_vel=flex_vel,
                         ext_vel=ext_vel, time=t, stability_warning=warn)


def step(state: DiscreteState, model: DiscreteModel, dt: float) -> DiscreteState:
    """One explicit central-difference step of both subsystems.

    Displacement-boundary values are re-imposed exactly; traction rows are
    solved for the boundary block after each position update.  A dt above
    the stability bound only flags the returned state, it does not raise.
    """
    warn = state.stability_warning or dt > stable_dt(model) * (1.0 + 1e-12)
    parts = _subsystems(model, state)
    return _grid_state(parts, _leapfrog_step(parts, state.time, dt), warn)


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


def _energies(parts: list, dA: float):
    """Kinetic and interior strain energy of the kernel state, the strain
    from the L h of the last acceleration."""
    ke = 0.0
    ue = 0.0
    for p in parts:
        ke += 0.5 * float(p.w @ (p.d.mass_interior * p.w)) * dA
        ue += -0.5 * float(p.u @ p.Lu) * dA
        # boundary strain contribution is quasi-static and excluded; with
        # homogeneous clamped edges the interior form is exact
    return ke, ue


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
    beyond ten times the initial energy plus the accumulated external work.
    """
    if not t_final > 0.0:
        raise ConfigError(f"t_final must be positive, got {t_final}")
    bound = stable_dt(model)
    if dt is None:
        dt = bound
    n_steps = max(1, math.ceil(t_final / dt))
    dt = t_final / n_steps

    state = initial if initial is not None else DiscreteState.zero(model)
    warn = state.stability_warning or dt > bound * (1.0 + 1e-12)
    parts = _subsystems(model, state)
    loads = model.config.loads
    dA = model.cell_area

    energy = EnergyLog()
    t = state.time
    ke, ue = _energies(parts, dA)
    w_ext = 0.0
    energy.append(t, ke, ue, w_ext)
    e0 = ke + ue
    states = [state]
    times = [t]

    track_work = not loads.is_empty
    for k in range(1, n_steps + 1):
        if track_work:
            w_prev = [p.w.copy() for p in parts]
            t_mid = t + 0.5 * dt
        t = _leapfrog_step(parts, t, dt)
        if track_work:
            # midpoint external power; the applied force is -F in the
            # convention L h - F = M hdd
            for p, w0 in zip(parts, w_prev):
                f_mid = p.d.load_rhs(loads, t_mid)
                w_ext -= dt * float(f_mid @ (0.5 * (w0 + p.w))) * dA

        record = bool(snapshot_every) and k % snapshot_every == 0
        if k == n_steps or record:
            ke, ue = _energies(parts, dA)
            energy.append(t, ke, ue, w_ext)
            states.append(_grid_state(parts, t, warn))
            times.append(t)
        elif abort_on_instability and k % GUARD_EVERY == 0:
            ke, ue = _energies(parts, dA)
        else:
            continue
        if abort_on_instability:
            budget = abs(e0) + abs(w_ext) + 1e-300
            if not np.isfinite(ke + ue) or (ke + ue) > 10.0 * budget + 10.0 * abs(e0):
                raise InstabilityError(
                    f"energy grew to {ke + ue:.3e} at step {k} of {n_steps}, "
                    f"t={t:.3e} (initial {e0:.3e}, external work "
                    f"{w_ext:.3e}); dt={dt:.3e} vs stability bound {bound:.3e}"
                )
    return Trajectory(times=times, states=states, energy=energy, dt=dt,
                      n_steps=n_steps)
