"""Explicit dynamics on the discretization.

Time integration is the explicit central-difference (leapfrog) scheme with
M hdd = L h - f in its two-level (Stormer) form: with du = dt * w_{n+1/2}
the position increment and z = dt^2 * a(h, t),

    h_{n+1} = h_n + du;  du += z(h_{n+1}, t_{n+1}),

started from du = dt * w_0 + dt^2/2 * a(h_0, t_0) (Hairer, Lubich &
Wanner, Acta Numerica 12, 2003).  It is algebraically the velocity-form
leapfrog and shares its conserved shadow energy.  The kernel
(``_Kernel``) advances both subsystems at once on stacked vectors over
their free dofs, the interior and traction dofs, flexural first, with one
stacked mass vector, each node's mass weighted by its dual-cell fraction
(``_InteriorStack``).  The kernel steps one block B per live part: its
free block A_FF (``_FreeBlock``), which every solver reads, or the rows of
a mirror class of it.  Per run it scales each block's rows to C = dt^2
M^-1 B, which shares B's index arrays, and the boundary force and load
vectors alike.  A step is one vector update and one matvec per live part,

    u += du;  du += C u (+ dt^2 M^-1 (f_b - F(t))),

the matvec by SciPy's CSR kernel, that of ``C @ u``, which adds into
``du`` in place, with its arguments bound once per run
(``_csr_matvec_args``).  At 17^2 a step's Python calls cost as much as
its arithmetic, so a step makes no other call unless a part has a
boundary force or a load.  Velocities and L h are formed only where they
are read, at the energy checks, snapshots and the end, by one matvec of
each B: w_n = (du - dt^2/2 * a_n) / dt.  The kernel takes only the free u
and w from a grid state and forms a(t0) by that same routine, so g holds
from t0.

Per subsystem (``_Part``) the stack also holds the Dirichlet data g, the
constant boundary force f_b (the lift A_FD g of g plus the force of the
prescribed traction data) and the load terms.  Load envelope sums and
energy and work dot products are formed per subsystem on its slice, so the
kernel's arithmetic is that of two separate subsystems.  The stack and the
kernel are private to this module: ``DiscreteModel.interior_stack`` builds
the stack, and no other module reads it.
``stable_dt`` bounds the largest frequency of both subsystems by one
Gershgorin row-sum pass over their free blocks and keeps it on the stack.

The two subsystems never couple, so the kernel steps only what moves: a
subsystem at rest with nothing to drive it stays exactly +0 and is skipped
(``_Kernel``).  dt, the energies and the order of every floating-point
operation are those of stepping both.  Nor do the even and odd classes of
a mirror-symmetric plate's free block couple (``mirror``), under either
of the rectangle's two mirrors.  When the u and w of every live part, and
its loads and boundary force, lie exactly in one class of each mirror
that commutes with its free block, the kernel steps only the class of
all those mirrors, on its rows B_sigma = (A_FF P)[rows] of the half grid
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
is counted with the load work: per step dA (f_b - F(t_mid)) . (dt w_mid),
with dt w_mid = dt (w_n + w_{n+1}) / 2 = du + (z_{n+1} - z_n) / 4, by one
dot product per load vector.  With constant forces the semi-discrete
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
from .mirror import MirrorClass, class_of

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

    G = max_i sum_j |A_ij| / sqrt(m_i m_j) over the rows of both
    subsystems' free blocks A_FF (``_FreeBlock``) is the infinity-norm of
    M^-1/2 A M^-1/2, A their block diagonal, which is similar to M^-1 A, so
    omega_max^2 <= G.  A_FF holds every free row, the traction rows
    included, so the bound covers every kind of edge.  The row that sets G
    is logged at DEBUG level; the result is kept on the stack.
    """
    stack = model.interior_stack
    if stack.dt is None:
        r = stack.mass ** -0.5
        rows = np.concatenate([_abs_matvec(p.B, r[p.s]) * r[p.s]
                               for p in stack.parts])
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


def _csr_matvec_into(args: tuple) -> None:
    """``out[...] = A @ x`` for the bound ``args`` of A, x and out, without
    a temporary: ``A @ x`` runs SciPy's CSR kernel on a zero-filled result,
    and so does this on ``out``, so every row sum is formed in the same
    order, bit for bit."""
    args[-1].fill(0.0)
    csr_matvec(*args)


def _scaled(B: sp.csr_matrix, scale: np.ndarray) -> np.ndarray:
    """B's data with row i scaled by scale[i], in one array."""
    data = np.repeat(scale, np.diff(B.indptr))
    data *= B.data
    return data


class _Part:
    """What drives one subsystem in the explicit kernel: its
    discretization ``d``, its free block ``block`` and the block's rows
    ``B``, its slice ``s`` of the stacked vectors, its Dirichlet data
    ``g``, its constant boundary force ``boundary_force`` on the free dofs,
    the lift A_FD g plus the force of the traction data (None when both are
    zero), its load terms (``presets``, ``F``) and whether any of these can
    move it from rest (``driven``).  None of it depends on time; the loads
    enter through F weighted by their envelopes."""

    def __init__(self, d: _Discretization, s: slice):
        self.d, self.s, self.block = d, s, d.free_block
        self.B = self.block.A_FF
        self.presets, self.F = d.load_terms
        self.g = d.dirichlet_values()
        force = self.block.A_FD @ self.g if np.any(self.g) else None
        data = d.traction_force()
        if np.any(data):
            if force is None:
                force = np.zeros(d.free_dofs.size)
            force[np.searchsorted(d.free_dofs, d.trac_dofs)] += data
        self.boundary_force = force
        # a load or a boundary force moves a subsystem from rest
        self.driven = bool(self.presets) or force is not None


class _ClassPart:
    """A part stepped on one class c of its mirrors: the class's rows
    B_sigma = (A_FF P)[rows] of the part's free block, and the masses, load
    vectors and boundary force of those rows.  On the class (A_FF u)[rows]
    = B_sigma u[rows], and P gives the other rows."""

    def __init__(self, p: _Part, c: MirrorClass):
        self.p, self.c, self.presets = p, c, p.presets
        self.B = c.rows_of(p.B)
        self.mass = p.block.mass[c.rows]
        self.F = p.F[:, c.rows]
        self.boundary_force = (None if p.boundary_force is None
                               else p.boundary_force[c.rows])


class _InteriorStack:
    """Both subsystems' free dofs, stacked flexural first, with everything
    the explicit kernel needs that does not depend on time.

    ``parts`` holds one ``_Part`` per subsystem, whose rows are those of
    its free block, and ``mass`` stacks the lumped free masses; ``dt``
    keeps the ``stable_dt`` bound once computed, and ``mirror_class`` the
    rows of each class once built.  Built once per model, on first use
    (``DiscreteModel.interior_stack``); no matrix is kept beside the free
    blocks.
    """

    def __init__(self, model: DiscreteModel):
        ds = (model.flex_d, model.ext_d)
        ends = np.cumsum([0] + [d.free_dofs.size for d in ds])
        self.parts = [_Part(d, slice(lo, hi))
                      for d, lo, hi in zip(ds, ends[:-1], ends[1:])]
        self.mass = np.concatenate([p.block.mass for p in self.parts])
        self.dt = None
        self._classes = {}  # (part start, axes, sigmas) -> _ClassPart

    def mirror_class(self, p: _Part, u: np.ndarray,
                     w: np.ndarray) -> _ClassPart | None:
        """Part p on the class of every mirror under which its free u and
        w, its load vectors F and its boundary force all lie exactly in one
        class sigma (x[M k] == sigma s_k x[k]) and which commutes bit for
        bit with its free block and mass; None when no mirror does.  The
        O(n) test of the vectors comes first, and only when it passes the
        block's O(nnz) commutation check, which it makes once per mirror."""
        vectors = [u, w, *p.F]
        if p.boundary_force is not None:
            vectors.append(p.boundary_force)
        mirrors, sigmas = [], []
        for axis in (0, 1):
            m = p.block.mirror(axis)
            sigma = m and next((sigma for sigma in (1.0, -1.0) if all(
                m.holds(x, sigma) for x in vectors)), None)
            if sigma is not None and p.block.commutes(axis):
                mirrors.append(m)
                sigmas.append(sigma)
        if not mirrors:
            return None
        key = (p.s.start, tuple(m.axis for m in mirrors), tuple(sigmas))
        if key not in self._classes:
            self._classes[key] = _ClassPart(p, class_of(mirrors, sigmas))
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

    ``u`` and ``w`` stack the positions and velocities on the free dofs of
    both subsystems, flexural first, and ``Lu`` the free rows of L h; all
    three hold the kernel's time ``t`` only after an observation
    (``_observe``), which energies, ``hottest`` and ``grid_state`` make
    first.  Between observations the kernel steps u and the increment du.
    What does not depend on time is read from the model's
    ``_InteriorStack``; load sums and energy and work terms are formed per
    subsystem on its slice.

    Only what moves is stepped.  A part is at rest when its u and w are
    zero at the start and nothing drives it (``_Part.driven``): its
    boundary then holds g = 0 and no traction data acts on it.  The
    subsystems do not couple, so its u, w and Lu stay exactly +0 for the
    whole run.  The other parts are live.  The stepped values are ``_u``,
    ``_du``, ``_w``, ``_Lu`` and ``_a``, and each live part's block B
    multiplies its own range of them: a step's matvecs are the products of
    C bound in ``_steps`` at the start, and an observation's those of B in
    ``_products``.

    - When every live part lies in one class of its mirrors
      (``_InteriorStack.mirror_class``), the stepped values are each live
      part's class values u[rows] and so on, concatenated, and B is the
      part's class rows B_sigma.  The class is closed under the step, so
      the state stays in it, and an observation expands it to the full
      vectors through P (``_expand``).
    - Otherwise they are the views of the full vectors over the range of
      the stack the live parts span, and B is the part's free block A_FF;
      with every part live the range is the whole stack.

    When a force does work on a live part, the step also keeps z = dt^2 a
    as the change of du and sums the midpoint work into ``work``.
    """

    def __init__(self, model: DiscreteModel):
        self.stack = model.interior_stack
        self.dA = model.cell_area
        self.step_matvecs = self.check_matvecs = 0

    def start(self, state: DiscreteState, dt: float) -> "_Kernel":
        """Take u and w from a grid state's free dofs and a(t0) by the
        observation every check makes, and scale the stepped rows and
        forces by dt^2 M^-1: g on Gamma_u holds from t0, whatever Dirichlet
        values the state holds.  A part whose u and w are zero and that
        nothing drives is at rest; its u and w are set to +0, as a step
        would make of a -0."""
        stack = self.stack
        self.t, self.dt, self.work = state.time, dt, 0.0
        self.u = stack.free((state.flex, state.ext))
        self.w = stack.free((state.flex_vel, state.ext_vel))
        moves = [p.driven or bool(np.any(self.u[p.s]) or np.any(self.w[p.s]))
                 for p in stack.parts]
        live = [p for p, m in zip(stack.parts, moves) if m]
        rest = [p for p, m in zip(stack.parts, moves) if not m]
        for p in rest:
            self.u[p.s] = self.w[p.s] = 0.0
        self.Lu = np.zeros(self.u.size)
        classes = [stack.mirror_class(p, self.u[p.s], self.w[p.s])
                   for p in live]
        if live and None not in classes:
            ends = np.cumsum([0] + [c.mass.size for c in classes])
            ranges = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
            self._u, self._w = (np.concatenate([x[c.p.s][c.c.rows]
                                                for c in classes])
                                for x in (self.u, self.w))
            self._Lu = np.zeros(ends[-1])
            self._m = np.concatenate([c.mass for c in classes])
            parts = [(c, r, c.c.weight) for c, r in zip(classes, ranges)]
            self._expansions = [
                _csr_matvec_args(c.c.P, values[r], full[c.p.s])
                for c, r in zip(classes, ranges)
                for full, values in ((self.u, self._u), (self.w, self._w),
                                     (self.Lu, self._Lu))]
            stepped = [f"{c.p.d.name} {c.c.label}" for c in classes]
        else:
            lo = live[0].s.start if live else 0
            s = slice(lo, live[-1].s.stop if live else 0)
            self._u, self._w, self._Lu, self._m = (
                x[s] for x in (self.u, self.w, self.Lu, stack.mass))
            parts = [(p, slice(p.s.start - lo, p.s.stop - lo), None)
                     for p in live]
            self._expansions = []
            stepped = [p.d.name for p in live]
        n = self._u.size
        self._a, self._du = np.empty(n), np.empty(n)
        scale = dt * dt / self._m
        self._half = 0.5 * dt * dt
        # each part's rows B and C = dt^2 M^-1 B, which shares B's index
        # arrays
        self._products = [_csr_matvec_args(x.B, self._u[r], self._Lu[r])
                          for x, r, _ in parts]
        self._steps = [_csr_matvec_args(sp.csr_matrix(
            (_scaled(x.B, scale[r]), x.B.indices, x.B.indptr),
            shape=x.B.shape), self._u[r], self._du[r]) for x, r, _ in parts]
        # what the matvecs leave out: the boundary force and the loads
        self._bounded = [(self._Lu[r], self._du[r], x.boundary_force,
                          scale[r] * x.boundary_force)
                         for x, r, _ in parts if x.boundary_force is not None]
        self._loads = [(self._a[r], self._du[r], x.presets, x.F,
                        scale[r] * x.F) for x, r, _ in parts if x.presets]
        self._accelerate()
        np.multiply(self._w, dt, out=self._du)
        self._du += self._a * self._half
        # the forces that do work; on a class f . P x = (weight f[rows]) . x
        self._worked = [
            (r, x.presets, *(f if f is None or weight is None else weight * f
                             for f in (x.boundary_force, x.F)))
            for x, r, weight in parts
            if x.presets or x.boundary_force is not None]
        if self._worked:
            # the previous du, and z_n and z_{n+1}
            self._prev, self._z1 = np.empty(n), np.empty(n)
            self._z0 = self._a * (dt * dt)
        self._expand()
        self._fresh = True
        _log.debug("kernel: stepping %s (%d of %d free dofs)%s",
                   ", ".join(stepped) or "nothing", n,
                   self.u.size, f"; {', '.join(p.d.name for p in rest)} "
                   f"at rest" if rest else "")
        return self

    def _accelerate(self) -> None:
        """Lu = B u + f_b and a = M^-1 (Lu - F) on the stepped values at
        the kernel's time, where h is u on the free dofs and g on
        Gamma_u."""
        for args in self._products:
            _csr_matvec_into(args)
        self.check_matvecs += 1
        for Lu, _, force, _ in self._bounded:
            Lu += force
        np.copyto(self._a, self._Lu)
        for a, _, presets, F, _ in self._loads:
            a -= _envelope_sum(presets, F, self.t)
        self._a /= self._m

    def _observe(self) -> None:
        """Lu, a and w = (du - dt^2/2 a) / dt at the kernel's time, and
        the full vectors; once per time reached."""
        if self._fresh:
            return
        self._accelerate()
        np.multiply(self._a, self._half, out=self._w)
        np.subtract(self._du, self._w, out=self._w)
        self._w /= self.dt
        self._expand()
        self._fresh = True

    def _expand(self) -> None:
        """On a class run, the full u, w and Lu of each live part from its
        class values, through P."""
        for args in self._expansions:
            _csr_matvec_into(args)

    def advance(self, n: int) -> float:
        """n leapfrog steps from the kernel's time; returns the time
        reached, accumulated as t = t + dt per step."""
        t, dt, u, du = self.t, self.dt, self._u, self._du
        steps, bounded, loads = self._steps, self._bounded, self._loads
        worked = self._worked
        for _ in range(n):
            if worked:
                np.copyto(self._prev, du)
                t_mid = t + 0.5 * dt
            t = t + dt
            u += du
            for args in steps:
                csr_matvec(*args)
            for _, d, _, force in bounded:
                d += force
            for _, d, presets, _, F in loads:
                d -= _envelope_sum(presets, F, t)
            if worked:
                self._add_work(t_mid)
        self.step_matvecs += n
        self.t = t
        self._fresh = False
        return t

    def _add_work(self, t_mid: float) -> None:
        """The step's midpoint work dA (f_b - F(t_mid)) . (dt w_mid), with
        dt w_mid = du_n + (z_{n+1} - z_n) / 4 and z_{n+1} = du_{n+1} -
        du_n.  dt w_mid takes z_n's buffer, which z_{n+2} takes next."""
        z1, x = self._z1, self._z0
        np.subtract(self._du, self._prev, out=z1)
        np.subtract(z1, x, out=x)
        x *= 0.25
        x += self._prev
        for r, presets, fb, F in self._worked:
            xr = x[r]
            work = 0.0 if fb is None else float(fb @ xr)
            for f, Fx in zip(presets, F @ xr):
                work -= f.envelope(t_mid) * float(Fx)
            self.work += work * self.dA
        self._z0, self._z1 = z1, x

    def energies(self):
        """Kinetic and strain energy, the strain from L h less the boundary
        force: -0.5 u.A_FF u."""
        self._observe()
        ke = 0.0
        ue = 0.0
        for p in self.stack.parts:
            u, w = self.u[p.s], self.w[p.s]
            ke += 0.5 * float(w @ (self.stack.mass[p.s] * w)) * self.dA
            uLu = float(u @ self.Lu[p.s])
            if p.boundary_force is not None:
                uLu -= float(u @ p.boundary_force)
            ue += -0.5 * uLu * self.dA
        return ke, ue

    def hottest(self) -> str:
        """Where the energy density of ``energies`` is largest in absolute
        value (a NaN counts as largest): the subsystem, field and node."""
        self._observe()
        density = self.w * (self.stack.mass * self.w) - self.u * self.Lu
        for p in self.stack.parts:
            if p.boundary_force is not None:
                density[p.s] += self.u[p.s] * p.boundary_force
        i = int(np.argmax(np.abs(density)))
        return "{} field {} at node ({}, {})".format(*self.stack.locate(i))

    def grid_state(self, warn: bool) -> DiscreteState:
        """The full-grid state at the kernel's time, with g on Gamma_u."""
        self._observe()
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
                             ext_vel=ext_vel, time=self.t,
                             stability_warning=warn)


def step(state: DiscreteState, model: DiscreteModel, dt: float) -> DiscreteState:
    """One explicit central-difference step of both subsystems.

    Only the free dofs of ``state`` are read.  Both accelerations, at the
    start and after the position update, impose the displacement-boundary
    values g exactly, and the returned state holds them.  A dt above the
    stability bound only flags the returned state, it does not raise.
    """
    warn = state.stability_warning or dt > stable_dt(model) * (1.0 + 1e-12)
    kernel = _Kernel(model).start(state, dt)
    kernel.advance(1)
    return kernel.grid_state(warn)


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
# cadence: a check costs one matvec and two dot products per subsystem,
# about two steps, and an unstable run overflows within ~1000 steps.
GUARD_EVERY = 50


def simulate(model: DiscreteModel, t_final: float, dt: float | None = None,
             snapshot_every: int = 0, initial: DiscreteState | None = None,
             abort_on_instability: bool = True) -> Trajectory:
    """Run the explicit integrator to t_final with energy tracking.

    Every ``GUARD_EVERY`` steps, at each snapshot and at the end, aborts
    with a diagnostic when the total energy is not finite or has grown
    beyond ten times the initial energy plus the accumulated external work
    (of the loads, the Dirichlet lift and the traction data).  The kernel
    advances in one call from one such check to the next.

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
    kernel.start(state, dt)

    energy = EnergyLog()
    ke, ue = kernel.energies()
    energy.append(state.time, ke, ue, kernel.work)
    e0 = ke + ue
    states = [state]
    times = [state.time]
    checks = k = 0
    guard = GUARD_EVERY if abort_on_instability else n_steps
    while k < n_steps:
        last = k
        k = min(n_steps, (k // guard + 1) * guard,
                (k // every + 1) * every if every else n_steps)
        t = kernel.advance(k - last)
        ke, ue = kernel.energies()
        if k == n_steps or (every and k % every == 0):
            energy.append(t, ke, ue, kernel.work)
            states.append(kernel.grid_state(warn))
            times.append(t)
        if abort_on_instability:
            checks += 1
            w_ext = kernel.work
            budget = abs(e0) + abs(w_ext) + 1e-300
            if not np.isfinite(ke + ue) or (ke + ue) > 10.0 * budget + 10.0 * abs(e0):
                raise InstabilityError(
                    f"energy grew to {ke + ue:.3e} at step {k} of {n_steps}, "
                    f"t={t:.3e} (initial {e0:.3e}, external work "
                    f"{w_ext:.3e}); dt={dt:.3e} vs stability bound "
                    f"{bound:.3e}; largest energy density in the "
                    f"{kernel.hottest()}")
    _log.debug("simulate: %d steps, %d step matvecs, %d check matvecs, "
               "%d guard checks, %d snapshots, dt=%.6e, stability "
               "bound=%.6e", n_steps, kernel.step_matvecs,
               kernel.check_matvecs, checks, len(states) - 1, dt, bound)
    return Trajectory(times=times, states=states, energy=energy, dt=dt,
                      n_steps=n_steps)
