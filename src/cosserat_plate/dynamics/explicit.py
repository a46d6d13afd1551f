"""Explicit dynamics on the discretization.

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
step's start ("first same as last").  At 17^2 a step's Python calls cost
as much as its arithmetic, so it makes the fewest calls that keep that
arithmetic: in-place ufuncs; Lu = B u by SciPy's CSR kernel, that of
``B @ u``, straight into the zero-filled ``Lu`` (``_csr_matvec_into``); the
lift and traction terms only where a part has them; one ``np.divide`` into
``a`` when nothing is loaded, else a subtraction of each loaded part's
load vector straight into ``a`` and an in-place divide.  The kernel takes
only the interior u and w from a grid state and forms a(t0) by the routine
every step uses, so g and the traction solve hold from t0.

Per subsystem (``_Part``) the stack also holds the Dirichlet lift, the
load terms and, with traction edges, the quasi-static traction closure
(``_TractionClosure``), which solves the traction rows for the boundary
values inside every acceleration.  The boundary velocities feed nothing
back into the interior update and are solved only when a ``DiscreteState``
is built, at snapshots and at the end of a run.  Load envelope sums,
traction solves and energy and work dot products are formed per subsystem
on its slice, so the kernel's arithmetic is that of two separate
subsystems.  The stack and the kernel are private to this module:
``DiscreteModel.interior_stack`` builds the stack, and no other module
reads it.
``stable_dt`` bounds the largest frequency of both subsystems by one
Gershgorin row-sum pass over the same stack and keeps the bound there.

The two subsystems never couple, so the kernel steps only what moves: a
subsystem at rest with nothing to drive it stays exactly +0 and is skipped
(``_Kernel``).  dt, the energies and the order of every floating-point
operation are those of stepping both.

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

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from ..plate_fields import PlateKinematics
from .discretization import (ConfigError, DiscreteModel, InstabilityError,
                             SingularSystemError, _abs_matvec,
                             _Discretization, _envelope_sum, checked_number)

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


def _csr_matvec_into(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = A @ x`` without a temporary: ``A @ x`` runs SciPy's CSR
    kernel on a zero-filled result, and so does this on ``out``, so every
    row sum is formed in the same order, bit for bit."""
    out.fill(0.0)
    csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)


class _TractionClosure:
    """The quasi-static traction boundary Gamma_sigma of one subsystem.

    The traction rows A_TI u + A_TT h_T + ``lift`` = f* give the boundary
    values h_T, with ``lift`` the rows' Dirichlet block times g (None when
    g is zero) and f* the prescribed traction ``data`` plus the traction
    load part; h_T enters the interior rows through the column block A_IT.
    A_TT is factored once, on the first ``values`` or ``rates`` call, so a
    caller that only reads the stack's rows (``stable_dt``) never factors
    it.
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
    Dirichlet data ``g`` and the lift A_ID g (None when g is zero), its
    load terms (``presets``, ``F``, ``T``), its traction closure (None
    without traction dofs) and whether any of these can move it from rest
    (``driven``).  None of it depends on time; the loads enter through F
    and T weighted by their envelopes."""

    def __init__(self, d: _Discretization, s: slice, A_ID, A_IT):
        self.d, self.s = d, s
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
        """Stacked interior values of the full-grid fields ``hs``
        (flexural, extensional)."""
        return np.concatenate([np.asarray(h, dtype=float).reshape(-1)[
            p.d.interior_dofs] for p, h in zip(self.parts, hs)])

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
    evaluated and ``hT`` the traction boundary values it solved (None for a
    part without traction dofs).  What does not depend on time is read from
    the model's ``_InteriorStack``; load sums, traction solves and energy
    terms are formed per subsystem on its slice.

    Only what moves is stepped.  A part is at rest when its interior u and
    w are zero at the start and nothing drives it (``_Part.driven``): its
    boundary then holds g = 0 and, having no traction dofs, nothing else.
    B is block diagonal, so its u, w, a and Lu stay exactly +0 for the
    whole run.  The other parts are live.  A step's matvec runs on B's
    rows over the range of the stack the live parts span
    (``_InteriorStack.rows``), and its vector updates on the views ``_u``,
    ``_w``, ``_a`` and ``_Lu`` of that range; with every part live the
    range is the whole stack.  Energies, snapshots and ``hottest`` read the
    full vectors.
    """

    def __init__(self, model: DiscreteModel):
        self.stack = model.interior_stack
        self.matvecs = 0

    def start(self, state: DiscreteState) -> "_Kernel":
        """Take u and w from a grid state's interior and a(t0) by
        ``_acceleration``, as every step takes a(t): g on Gamma_u and the
        traction solve on Gamma_sigma hold from t0, whatever boundary
        values the state holds.  A part whose interior u and w are zero and
        that nothing drives is at rest; its u and w are set to +0, as a
        step would make of a -0."""
        stack = self.stack
        self.u = stack.interior((state.flex, state.ext))
        self.w = stack.interior((state.flex_vel, state.ext_vel))
        moves = [p.driven or bool(np.any(self.u[p.s]) or np.any(self.w[p.s]))
                 for p in stack.parts]
        live = [p for p, m in zip(stack.parts, moves) if m]
        rest = [p for p, m in zip(stack.parts, moves) if not m]
        for p in rest:
            self.u[p.s] = self.w[p.s] = 0.0
        s = slice(min((p.s.start for p in live), default=0),
                  max((p.s.stop for p in live), default=0))
        self.rows = stack.rows(s)
        self.Lu = np.zeros(self.u.size)
        self.a = np.zeros(self.u.size)
        self.hT = [None] * len(stack.parts)
        self._u, self._w, self._a, self._Lu, self._m = (
            x[s] for x in (self.u, self.w, self.a, self.Lu, stack.mass))
        # what the matvec leaves out: the lift and traction terms, and the
        # load vector of a loaded part, whose acceleration is Lu - F
        self._bounded = [(k, p) for k, p in enumerate(stack.parts)
                         if p.lift is not None or p.closure is not None]
        self._forced = ([(self.Lu[p.s], self.a[p.s], p) for p in live]
                        if stack.loaded else None)
        self._kick = np.empty(s.stop - s.start)
        self._du = np.empty(s.stop - s.start)
        self._acceleration(state.time)
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
        _csr_matvec_into(self.rows, self.u, self._Lu)
        self.matvecs += 1
        for k, p in self._bounded:
            if p.lift is not None:
                self.Lu[p.s] += p.lift
            if p.closure is not None:
                self.hT[k] = p.closure.values(
                    self.u[p.s], _envelope_sum(p.presets, p.T, t))
                self.Lu[p.s] += p.closure.A_IT @ self.hT[k]
        if self._forced is None:
            np.divide(self._Lu, self._m, out=self._a)
            return
        for Lu, a, p in self._forced:
            if p.presets:
                np.subtract(Lu, _envelope_sum(p.presets, p.F, t), out=a)
            else:
                np.copyto(a, Lu)
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

    Only the interior of ``state`` is read.  Both accelerations, at the
    start and after the position update, impose the displacement-boundary
    values g exactly and solve the traction rows for the boundary block,
    and the returned state holds them.  A dt above the stability bound
    only flags the returned state, it does not raise.
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

    Only the interior of ``initial`` enters the run: the Dirichlet data g
    is imposed and the traction rows are solved from the first
    acceleration, at t0, on.  The first snapshot is ``initial`` as given,
    its boundary values included, and every later one holds g on Gamma_u
    and the solved traction boundary.
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
        if not worked:
            t = kernel.advance(t, dt)
        else:
            for p, buf in zip(worked, w_mid):
                np.copyto(buf, kernel.w[p.s])
            t_mid = t + 0.5 * dt
            t = kernel.advance(t, dt)
            # midpoint power of the applied force, A_ID g - F in the
            # convention A_II u + A_ID g - F = M udd
            for p, buf in zip(worked, w_mid):
                buf += kernel.w[p.s]
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
