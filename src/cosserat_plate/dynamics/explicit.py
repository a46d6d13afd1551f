"""Explicit dynamics on the discretization.

Time integration is the explicit central-difference (leapfrog) scheme in
its single-state velocity form: with M hdd = L h - f,

    v+ = v + dt/2 * a(h);  h' = h + dt * v+;  v' = v+ + dt/2 * a(h'),

which is algebraically the classic two-level central-difference update and
shares its conserved shadow energy.  The kernel (``_Kernel``) advances
both subsystems at once on stacked vectors over their free dofs, the
interior and traction dofs, flexural first: positions u, velocities w and
accelerations a, with one slice per subsystem.  The free rows of the two
subsystems are stacked once per model (``_InteriorStack``) into the block
diagonal B of their free blocks A_FF, which keeps every row's entries in
their order in A, and one stacked mass vector, each node's mass weighted by
its dual-cell fraction.  A step is four vector updates and one matvec,

    w += dt/2 * a;  u += dt * w;  Lu = B u (+ f_b);  a = (Lu - F(t)) / m;
    w += dt/2 * a,

and the end-of-step acceleration, with its half kick dt/2 * a, is the next
step's start ("first same as last").  At 17^2 a step's Python calls cost
as much as its arithmetic, so it makes the fewest calls that keep that
arithmetic: in-place ufuncs; Lu = B u by SciPy's CSR kernel, that of
``B @ u``, straight into the zero-filled ``Lu`` (``_csr_matvec_into``),
with its arguments bound once per run (``_csr_matvec_args``); the
boundary force f_b only where a part has one; one ``np.divide`` into ``a``
when nothing is loaded, else a subtraction of each loaded part's load
vector straight into ``a`` and an in-place divide.  The kernel takes only
the free u and w from a grid state and forms a(t0) by the routine every
step uses, so g holds from t0.

Per subsystem (``_Part``) the stack also holds the Dirichlet data g, the
constant boundary force f_b (the lift A_FD g of g plus the force of the
prescribed traction data) and the load terms.  Load envelope sums and
energy and work dot products are formed per subsystem on its slice, so the
kernel's arithmetic is that of two separate subsystems.  The stack and the
kernel are private to this module: ``DiscreteModel.interior_stack`` builds
the stack, and no other module reads it.
``stable_dt`` bounds the largest frequency of both subsystems by one
Gershgorin row-sum pass over the same stack and keeps the bound there.

The two subsystems never couple, so the kernel steps only what moves: a
subsystem at rest with nothing to drive it stays exactly +0 and is skipped
(``_Kernel``).  dt, the energies and the order of every floating-point
operation are those of stepping both.  Nor do the even and odd classes of
a mirror-symmetric plate's free block couple (``mirror``), under either
of the rectangle's two mirrors.  When the u and w of every live part, and
its loads and boundary force, lie exactly in one class of each mirror
that commutes with its free block, the kernel steps only the class of
all those mirrors, on its rows B_sigma = (B P)[rows] of the half grid
(one mirror) or the quarter grid (both), and expands the result through
P wherever full vectors are read.  Those rows sum in another order, so
such a run agrees with stepping the whole block to roundoff, not bit for
bit.  Any other run, on a plate without an exact mirror or with a state
or drive in both classes of each, steps the whole block with the bits of
stepping both.

Energy bookkeeping uses the discrete quadratic forms of the scheme itself:
kinetic = 0.5 v^T M v and strain = -0.5 u^T (L h - f_b) = -0.5 u^T A_FF u
over the free dofs (cell-area weighted), the discrete energy E_h whose
Hessian A_FF is.  The boundary force f_b is constant, and its midpoint work
is counted with the load work.  With constant forces the semi-discrete
energy less that work is exactly conserved on every kind of edge, so the
measured drift isolates the time-integration error and scales as dt^2.
``simulate`` checks that the energy is finite and within budget every
``GUARD_EVERY`` steps, whatever the snapshot cadence, and a failed check
names the free dof with the largest energy density.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from ..plate_fields import PlateKinematics
from .discretization import (ConfigError, DiscreteModel, InstabilityError,
                             _abs_matvec, _Discretization, _envelope_sum,
                             checked_number)
from .mirror import MirrorClass, class_of, mirror_of

_log = logging.getLogger(__name__)


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

    G = max_i sum_j |B_ij| / sqrt(m_i m_j), B the stacked free rows of both
    subsystems (``_InteriorStack``), is the infinity-norm of M^-1/2 B
    M^-1/2, which is similar to M^-1 B, so omega_max^2 <= G.  B holds every
    free row, the traction rows included, so the bound covers every kind of
    edge.  The row that sets G is logged at DEBUG level; the result is kept
    on the stack.
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


def _csr_matvec_args(A: sp.csr_matrix, x: np.ndarray,
                     out: np.ndarray) -> tuple:
    """SciPy's CSR kernel's arguments for ``out += A @ x``, bound once:
    reading ``A.shape`` goes through a SciPy property."""
    return A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out


def _csr_matvec_into(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = A @ x`` without a temporary: ``A @ x`` runs SciPy's CSR
    kernel on a zero-filled result, and so does this on ``out``, so every
    row sum is formed in the same order, bit for bit."""
    out.fill(0.0)
    csr_matvec(*_csr_matvec_args(A, x, out))


class _Part:
    """What drives one subsystem in the explicit kernel: its
    discretization ``d``, its slice ``s`` of the stacked vectors, its
    Dirichlet data ``g``, its constant boundary force ``boundary_force``
    on the free dofs, the lift A_FD g plus the force of the traction data
    (None when both are zero), its load terms (``presets``, ``F``) and
    whether any of these can move it from rest (``driven``).  None of it
    depends on time; the loads enter through F weighted by their
    envelopes."""

    def __init__(self, d: _Discretization, s: slice, A_FD):
        self.d, self.s = d, s
        self.presets, self.F = d.load_terms
        self.g = d.dirichlet_values()
        force = A_FD @ self.g if np.any(self.g) else None
        data = d.traction_force()
        if np.any(data):
            if force is None:
                force = np.zeros(d.free_dofs.size)
            force[np.searchsorted(d.free_dofs, d.trac_dofs)] += data
        self.boundary_force = force
        # a load or a boundary force moves a subsystem from rest
        self.driven = bool(self.presets) or force is not None

    def force(self, t: float) -> np.ndarray:
        """The force at time t that the strain form leaves out: the
        boundary force minus the load vector."""
        f = -_envelope_sum(self.presets, self.F, t)
        if self.boundary_force is not None:
            f += self.boundary_force
        return f


class _ClassPart:
    """A part stepped on one class c of its mirrors: the class's rows
    B_sigma = (B P)[rows] of the part's free block, and the masses, load
    vectors and boundary force of those rows.  On the class (B u)[rows] =
    B_sigma u[rows], and P gives the other rows."""

    def __init__(self, p: _Part, c: MirrorClass, block, mass):
        self.p, self.c = p, c
        self.B = c.rows_of(block)
        self.mass = mass[c.rows]
        self.F = p.F[:, c.rows]
        self.boundary_force = (None if p.boundary_force is None
                               else p.boundary_force[c.rows])


class _InteriorStack:
    """The free rows of both subsystems, stacked flexural first, with
    everything the explicit kernel needs that does not depend on time.

    ``B`` is the block diagonal of the two free blocks A_FF in CSR form,
    each row's entries in their order in A, so ``B @ u`` forms every row sum
    exactly as ``A_FF @ u`` does.  ``mass`` stacks the lumped free masses
    and ``parts`` holds one ``_Part`` per subsystem; ``dt`` keeps the
    ``stable_dt`` bound once computed, and ``mirror_class`` each mirror's
    commutation and the rows of each class once built.  Built once per
    model, on first use (``DiscreteModel.interior_stack``); no
    per-subsystem A_FF is kept beside it.
    """

    def __init__(self, model: DiscreteModel):
        ds = (model.flex_d, model.ext_d)
        # the columns are sliced first: their blocks are small
        A_FD = [d.A[:, d.dirich_dofs][d.free_dofs] for d in ds]
        # B's rows are A's free rows restricted to the free columns, their
        # entries taken straight from A's arrays in their order there:
        # building each A_FF first would double the memory the stack needs
        # while it is built.  A free row's columns are free or Dirichlet,
        # which gives each row's count.
        counts = np.concatenate([
            np.diff(d.A.indptr)[d.free_dofs] - np.diff(a.indptr)
            for d, a in zip(ds, A_FD)])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        n = nnz = 0
        for d in ds:
            free = np.zeros(d.ndof, dtype=bool)
            free[d.free_dofs] = True
            keep = np.repeat(free, np.diff(d.A.indptr)) & free[d.A.indices]
            end = nnz + int(np.count_nonzero(keep))
            data[nnz:end] = d.A.data[keep]
            column = np.cumsum(free, dtype=np.int32) + (n - 1)
            indices[nnz:end] = column[d.A.indices[keep]]
            n += d.free_dofs.size
            nnz = end
        self.B = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        self.mass = np.concatenate([d.mass_free for d in ds])
        ends = np.cumsum([0] + [d.free_dofs.size for d in ds])
        self.parts = [_Part(d, slice(lo, hi), a) for d, lo, hi, a
                      in zip(ds, ends[:-1], ends[1:], A_FD)]
        self.loaded = [p for p in self.parts if p.presets]
        self.dt = None
        self._rows = {}
        self._commutes = {}  # (part start, axis) -> bool
        self._classes = {}  # (part start, axes, sigmas) -> _ClassPart

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

    def mirror_class(self, p: _Part, u: np.ndarray,
                     w: np.ndarray) -> _ClassPart | None:
        """Part p on the class of every mirror under which its free u and
        w, its load vectors F and its boundary force all lie exactly in one
        class sigma (x[M k] == sigma s_k x[k]) and which commutes bit for
        bit with its free block and mass; None when no mirror does.  The
        O(n) test of the vectors comes first, and only when it passes the
        O(nnz) commutation check, made once per part and mirror.  The
        mirror maps are not kept: an asymmetric run would hold them for
        nothing."""
        vectors = [u, w, *p.F]
        if p.boundary_force is not None:
            vectors.append(p.boundary_force)
        mirrors, sigmas = [], []
        for axis in (0, 1):
            m = mirror_of(p.d, p.d.free_dofs, axis)
            sigma = m and next((sigma for sigma in (1.0, -1.0) if all(
                m.holds(x, sigma) for x in vectors)), None)
            if sigma is None:
                continue
            if (p.s.start, axis) not in self._commutes:
                self._commutes[p.s.start, axis] = m.commutes(
                    self.B[p.s][:, p.s], self.mass[p.s])
            if self._commutes[p.s.start, axis]:
                mirrors.append(m)
                sigmas.append(sigma)
        if not mirrors:
            return None
        key = (p.s.start, tuple(m.axis for m in mirrors), tuple(sigmas))
        if key not in self._classes:
            self._classes[key] = _ClassPart(
                p, class_of(mirrors, sigmas), self.B[p.s][:, p.s],
                self.mass[p.s])
        return self._classes[key]

    def free(self, hs) -> np.ndarray:
        """Stacked free values of the full-grid fields ``hs`` (flexural,
        extensional)."""
        return np.concatenate([np.asarray(h, dtype=float).reshape(-1)[
            p.d.free_dofs] for p, h in zip(self.parts, hs)])

    def locate(self, i: int) -> tuple:
        """The subsystem name, the field name and the node indices i, j of
        stacked free dof i."""
        p = self.parts[int(i >= self.parts[1].s.start)]
        return (p.d.name, *p.d.locate(p.d.free_dofs[i - p.s.start]))


class _Kernel:
    """Both subsystems' free state in the explicit kernel.

    ``u``, ``w`` and ``a`` stack the positions, velocities and
    accelerations on the free dofs of both subsystems, flexural first.
    ``Lu`` keeps the free rows of L h of the last acceleration evaluated.
    What does not depend on time is read from the model's
    ``_InteriorStack``; load sums and energy terms are formed per subsystem
    on its slice.

    Only what moves is stepped.  A part is at rest when its u and w are
    zero at the start and nothing drives it (``_Part.driven``): its
    boundary then holds g = 0 and no traction data acts on it.  B is block
    diagonal, so its u, w, a and Lu stay exactly +0 for the whole run.  The
    other parts are live.  A step's vector updates run on ``_u``, ``_w``,
    ``_a`` and ``_Lu``, and its matvecs are the products bound in
    ``_products`` at the start:

    - When every live part lies in one class of its mirrors
      (``_InteriorStack.mirror_class``), those are each live part's class
      values u[rows] and so on, concatenated, and each part's class rows
      B_sigma multiply its own values.  The class is closed under the step,
      so the state stays in it, and the full vectors are the class values
      expanded through P (``_expand``).
    - Otherwise they are the views of the full vectors over the range of
      the stack the live parts span, and B's rows over that range
      (``_InteriorStack.rows``) multiply the full u; with every part live
      the range is the whole stack.

    Energies, snapshots, the load work and ``hottest`` read the full
    vectors; ``a`` is full only on the second path.
    """

    def __init__(self, model: DiscreteModel):
        self.stack = model.interior_stack
        self.matvecs = 0

    def start(self, state: DiscreteState) -> "_Kernel":
        """Take u and w from a grid state's free dofs and a(t0) by
        ``_acceleration``, as every step takes a(t): g on Gamma_u holds
        from t0, whatever Dirichlet values the state holds.  A part whose u
        and w are zero and that nothing drives is at rest; its u and w are
        set to +0, as a step would make of a -0."""
        stack = self.stack
        self.u = stack.free((state.flex, state.ext))
        self.w = stack.free((state.flex_vel, state.ext_vel))
        moves = [p.driven or bool(np.any(self.u[p.s]) or np.any(self.w[p.s]))
                 for p in stack.parts]
        live = [p for p, m in zip(stack.parts, moves) if m]
        rest = [p for p, m in zip(stack.parts, moves) if not m]
        for p in rest:
            self.u[p.s] = self.w[p.s] = 0.0
        self.Lu = np.zeros(self.u.size)
        self.a = np.zeros(self.u.size)
        classes = [stack.mirror_class(p, self.u[p.s], self.w[p.s])
                   for p in live]
        if live and None not in classes:
            ends = np.cumsum([0] + [c.mass.size for c in classes])
            self._segments = [(c, slice(lo, hi)) for c, lo, hi
                              in zip(classes, ends[:-1], ends[1:])]
            self._u, self._w = (np.concatenate([x[c.p.s][c.c.rows]
                                                for c in classes])
                                for x in (self.u, self.w))
            self._a, self._Lu = np.zeros(ends[-1]), np.zeros(ends[-1])
            self._m = np.concatenate([c.mass for c in classes])
            # what the matvec leaves out: the boundary force, and the load
            # vector of a loaded part, whose acceleration is Lu - F
            self._products = [_csr_matvec_args(c.B, self._u[r], self._Lu[r])
                              for c, r in self._segments]
            self._bounded = [(self._Lu[r], c.boundary_force)
                             for c, r in self._segments
                             if c.boundary_force is not None]
            self._forced = ([(self._Lu[r], self._a[r], c.p.presets, c.F)
                             for c, r in self._segments]
                            if stack.loaded else None)
            stepped = [f"{c.p.d.name} {c.c.label}" for c in classes]
        else:
            self._segments = []
            s = slice(min((p.s.start for p in live), default=0),
                      max((p.s.stop for p in live), default=0))
            self._u, self._w, self._a, self._Lu, self._m = (
                x[s] for x in (self.u, self.w, self.a, self.Lu, stack.mass))
            self._products = [_csr_matvec_args(stack.rows(s), self.u,
                                               self._Lu)]
            self._bounded = [(self.Lu[p.s], p.boundary_force)
                             for p in stack.parts
                             if p.boundary_force is not None]
            self._forced = ([(self.Lu[p.s], self.a[p.s], p.presets, p.F)
                             for p in live] if stack.loaded else None)
            stepped = [p.d.name for p in live]
        self._kick = np.empty(self._u.size)
        self._du = np.empty(self._u.size)
        self._acceleration(state.time)
        self.kick_dt = None
        _log.debug("kernel: stepping %s (%d of %d free dofs)%s",
                   ", ".join(stepped) or "nothing", self._u.size,
                   self.u.size, f"; {', '.join(p.d.name for p in rest)} "
                   f"at rest" if rest else "")
        return self

    def _acceleration(self, t: float) -> None:
        """M^-1 (L h - F) on the stepped values at time t, where h is u on
        the free dofs and g on Gamma_u, and L h = B u + f_b."""
        for args in self._products:
            args[-1].fill(0.0)
            csr_matvec(*args)
        self.matvecs += 1
        for Lu, force in self._bounded:
            Lu += force
        if self._forced is None:
            np.divide(self._Lu, self._m, out=self._a)
            return
        for Lu, a, presets, F in self._forced:
            if presets:
                np.subtract(Lu, _envelope_sum(presets, F, t), out=a)
            else:
                np.copyto(a, Lu)
        self._a /= self._m

    def _expand(self) -> None:
        """On a class run, the full u, w and Lu of each live part from its
        class values, through P."""
        for c, r in self._segments:
            for full, values in ((self.u, self._u), (self.w, self._w),
                                 (self.Lu, self._Lu)):
                full[c.p.s] = c.c.P @ values[r]

    def velocity(self, p: _Part) -> np.ndarray:
        """Part p's free velocities, through P on a class run."""
        for c, r in self._segments:
            if c.p is p:
                return c.c.P @ self._w[r]
        return self.w[p.s]

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
        """Kinetic and strain energy, the strain from the L h of the last
        acceleration less the boundary force (``_Part.force``): -0.5 u.A_FF
        u."""
        self._expand()
        ke = 0.0
        ue = 0.0
        for p in self.stack.parts:
            u, w = self.u[p.s], self.w[p.s]
            ke += 0.5 * float(w @ (self.stack.mass[p.s] * w)) * dA
            uLu = float(u @ self.Lu[p.s])
            if p.boundary_force is not None:
                uLu -= float(u @ p.boundary_force)
            ue += -0.5 * uLu * dA
        return ke, ue

    def hottest(self) -> str:
        """Where the energy density of ``energies`` is largest in absolute
        value (a NaN counts as largest): the subsystem, field and node."""
        self._expand()
        density = self.w * (self.stack.mass * self.w) - self.u * self.Lu
        for p in self.stack.parts:
            if p.boundary_force is not None:
                density[p.s] += self.u[p.s] * p.boundary_force
        i = int(np.argmax(np.abs(density)))
        return "{} field {} at node ({}, {})".format(*self.stack.locate(i))

    def grid_state(self, t: float, warn: bool) -> DiscreteState:
        """The full-grid state at time t, with g on Gamma_u."""
        self._expand()
        fields = []
        for p in self.stack.parts:
            d = p.d
            h = np.zeros(d.ndof)
            v = np.zeros(d.ndof)
            h[d.free_dofs] = self.u[p.s]
            v[d.free_dofs] = self.w[p.s]
            h[d.dirich_dofs] = p.g
            shape = (d.nf, d.nx, d.ny)
            fields += [h.reshape(shape), v.reshape(shape)]
        flex, flex_vel, ext, ext_vel = fields
        return DiscreteState(flex=flex, ext=ext, flex_vel=flex_vel,
                             ext_vel=ext_vel, time=t, stability_warning=warn)


def step(state: DiscreteState, model: DiscreteModel, dt: float) -> DiscreteState:
    """One explicit central-difference step of both subsystems.

    Only the free dofs of ``state`` are read.  Both accelerations, at the
    start and after the position update, impose the displacement-boundary
    values g exactly, and the returned state holds them.  A dt above the
    stability bound only flags the returned state, it does not raise.
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
    (of the loads, the Dirichlet lift and the traction data).

    Only the free dofs of ``initial`` enter the run: the Dirichlet data g
    is imposed from the first acceleration, at t0, on.  The first snapshot
    is ``initial`` as given, its Dirichlet values included, and every later
    one holds g on Gamma_u.
    """
    t_final = checked_number("t_final", t_final, positive=True)
    every = checked_number("snapshot_every", snapshot_every, integer=True)
    if every < 0:
        raise ConfigError(f"snapshot_every must not be negative, got {every}")
    # the kernel builds the interior stack, which stable_dt then only reads
    kernel = _Kernel(model)
    bound = stable_dt(model)
    dt = bound if dt is None else checked_number("dt", dt, positive=True)
    if not math.isfinite(t_final / dt):
        raise ConfigError(f"t_final / dt = {t_final} / {dt} overflows")
    n_steps = max(1, math.ceil(t_final / dt))
    dt = t_final / n_steps

    state = initial if initial is not None else DiscreteState.zero(model)
    warn = state.stability_warning or dt > bound * (1.0 + 1e-12)
    kernel.start(state)
    # subsystems on which a force does work: loads or a boundary force
    worked = [p for p in kernel.stack.parts
              if p.presets or p.boundary_force is not None]
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
        if not worked:
            t = kernel.advance(t, dt)
        else:
            for p, buf in zip(worked, w_mid):
                np.copyto(buf, kernel.velocity(p))
            t_mid = t + 0.5 * dt
            t = kernel.advance(t, dt)
            # midpoint power of the applied force, f_b - F in the
            # convention A_FF u + f_b - F = M udd
            for p, buf in zip(worked, w_mid):
                buf += kernel.velocity(p)
                buf *= 0.5
                w_ext += dt * float(p.force(t_mid) @ buf) * dA

        record = bool(every) and k % every == 0
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
