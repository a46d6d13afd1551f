"""Mixed variational (Hellinger-Prange-Reissner type) stationarity diagnostic.

The mixed functional over admissible states s = [U, E, S] (with E tied to U
by the strain-displacement relation) is

    Theta(s) = U_K^S - Int(S . E - K Udd . U - p W - v Omega3_0) da
               - Int_{Gamma_sigma} (prescribed resultants) . U ds,

whose stationary points are exactly the solutions of the governing systems
with their constitutive relations and boundary conditions.

Discretely, Theta is evaluated through an exact algebraic rearrangement of
the same quadratic functional ("completed square"):

    Theta = Pi(U) + Int 0.5 * (S - S*(U)) . K (S - S*(U)) da + const(loads)

where S*(U) is the constitutive stiffness image of U (including load
terms), K the compliance quadratic form, and Pi the displacement
functional whose discrete gradient is the collocated static system.  Both
forms are consistent quadratures of Theta; the rearranged one is exactly
stationary at the discrete static solution, so the diagnostic measures
equilibrium rather than discretization noise.  The bending-compliance
coupling to div Q* is closed with the static substitution div Q* = -p.
The boundary work is the solver's own traction force (``traction_force``)
dotted with the traction dofs; it enters Pi with a minus sign, as the work
of an applied force enters a potential.

Directional derivatives use a central difference, which is exact for a
quadratic functional.  The reported stationarity measure

    eta(s, d) = |dTheta[d]| / sqrt(d2Theta[d, d] * U_ref(s))

is dimensionless and invariant under rescaling of both the state and the
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DiscreteModel
from .plate_constitutive import (
    plate_energy_density,
    stress_from_kinematics,
)
from .plate_fields import (
    KINEMATIC_FIELDS,
    STRESS_FIELDS,
    PlateKinematics,
    PlateStress,
    kinetic_density,
)


@dataclass(frozen=True)
class HPRState:
    """A mixed state: kinematic fields, resultant fields, optional
    accelerations (all (nx, ny) grids)."""

    u: PlateKinematics
    s: PlateStress
    accel: PlateKinematics | None = None

    def __add__(self, other: "HPRState") -> "HPRState":
        u = PlateKinematics(**{
            n: np.asarray(getattr(self.u, n)) + np.asarray(getattr(other.u, n))
            for n in KINEMATIC_FIELDS
        })
        s = PlateStress(**{
            n: np.asarray(getattr(self.s, n)) + np.asarray(getattr(other.s, n))
            for n in STRESS_FIELDS
        })
        return HPRState(u=u, s=s, accel=self.accel)

    def scaled(self, c: float) -> "HPRState":
        u = PlateKinematics(**{
            n: c * np.asarray(getattr(self.u, n)) for n in KINEMATIC_FIELDS
        })
        s = PlateStress(**{
            n: c * np.asarray(getattr(self.s, n)) for n in STRESS_FIELDS
        })
        return HPRState(u=u, s=s, accel=None)

    def __sub__(self, other: "HPRState") -> "HPRState":
        return self + other.scaled(-1.0)


def consistent_stress(model: DiscreteModel, u: PlateKinematics,
                      t: float = 0.0) -> PlateStress:
    """S*(U): the stiffness image of the grid kinematics, with the same
    gradient stencils the functional uses internally."""
    d1, d2 = _grid_gradients(model, u)
    loads = model.sample_loads(t)
    return stress_from_kinematics(u, d1, d2, model.tc, loads)


def equilibrium_state(model: DiscreteModel, u: PlateKinematics) -> HPRState:
    """Bundle a static solution with its consistent resultants."""
    return HPRState(u=u, s=consistent_stress(model, u))


def _grid_gradients(model: DiscreteModel, u: PlateKinematics):
    """d/dx1 and d/dx2 of every kinematic field, a constant one included,
    by one ``np.gradient`` call over the stacked fields: its differences
    are elementwise, so each field's are those of a call on it alone."""
    f = np.stack([np.broadcast_to(np.asarray(getattr(u, n), dtype=float),
                                  (model.nx, model.ny))
                  for n in KINEMATIC_FIELDS])
    g1, g2 = np.gradient(f, model.dx, model.dy, axis=(1, 2), edge_order=2)
    return (PlateKinematics(**dict(zip(KINEMATIC_FIELDS, g1))),
            PlateKinematics(**dict(zip(KINEMATIC_FIELDS, g2))))


class HPRFunctional:
    """Evaluate Theta and its directional derivatives on a discrete model."""

    def __init__(self, model: DiscreteModel, t: float = 0.0):
        self.model = model
        self.t = t
        self.loads = model.sample_loads(t)
        self._f_flex = model.flex_d.load_rhs(t)
        self._f_ext = model.ext_d.load_rhs(t)
        self._trac_flex = model.flex_d.traction_force()
        self._trac_ext = model.ext_d.traction_force()
        zero = PlateKinematics(**{
            n: np.zeros((model.nx, model.ny)) for n in KINEMATIC_FIELDS
        })
        s_load = consistent_stress(model, zero, t)
        const_density = plate_energy_density(
            s_load, model.tc, self.loads, div_qs=-np.asarray(self.loads.p)
        )
        self._const = float(np.sum(const_density)) * model.cell_area

    # -- pieces -----------------------------------------------------------

    def _displacement_part(self, u: PlateKinematics) -> float:
        model = self.model
        total = 0.0
        for d, block, f in ((model.flex_d, u.flexural(), self._f_flex),
                            (model.ext_d, u.extensional(), self._f_ext)):
            h = np.ascontiguousarray(block, dtype=float).ravel()
            hF = h[d.free_dofs]
            Lh = (d.A @ h)[d.free_dofs]
            total += (-0.5 * float(hF @ Lh) + float(f @ hF))
        return total * model.cell_area

    def _stress_part(self, state: HPRState) -> float:
        ds = state.s.as_array() - consistent_stress(
            self.model, state.u, self.t
        ).as_array()
        phi0 = plate_energy_density(
            PlateStress.from_array(ds), self.model.tc, loads=None, div_qs=0.0
        )
        return float(np.sum(phi0)) * self.model.cell_area

    def _boundary_part(self, state: HPRState) -> float:
        """Minus the work of the prescribed traction data on Gamma_sigma:
        the solver's traction force on each subsystem's traction dofs
        dotted with their values, times the cell area."""
        model = self.model
        total = 0.0
        for d, block, f in ((model.flex_d, state.u.flexural(), self._trac_flex),
                            (model.ext_d, state.u.extensional(), self._trac_ext)):
            h = np.ascontiguousarray(block, dtype=float).ravel()
            total -= float(f @ h[d.trac_dofs])
        return total * model.cell_area

    def _kinetic_part(self, state: HPRState) -> float:
        if state.accel is None:
            return 0.0
        dens = kinetic_density(state.accel, state.u, self.model.inertia)
        return float(np.sum(dens)) * self.model.cell_area

    # -- public API ---------------------------------------------------------

    def value(self, state: HPRState) -> float:
        return (
            self._displacement_part(state.u)
            + self._stress_part(state)
            + self._boundary_part(state)
            + self._kinetic_part(state)
            + self._const
        )

    def directional_derivative(self, state: HPRState, d: HPRState) -> float:
        """Central difference; exact for this quadratic functional."""
        return 0.5 * (self.value(state + d) - self.value(state - d))

    def second_difference(self, state: HPRState, d: HPRState) -> float:
        return (
            self.value(state + d) + self.value(state - d)
            - 2.0 * self.value(state)
        )

    def reference_energy(self, state: HPRState) -> float:
        model = self.model
        phi0 = plate_energy_density(state.s, model.tc, loads=None, div_qs=0.0)
        u_ref = abs(float(np.sum(phi0))) * model.cell_area
        u_ref += abs(self._displacement_part(state.u))
        return u_ref

    def stationarity_measure(self, state: HPRState, d: HPRState, *,
                             base: tuple | None = None) -> float:
        """Dimensionless |dTheta[d]| / sqrt(d2Theta[d,d] * U_ref).

        Invariant under rescaling of both the state and the perturbation.
        The perturbation is first rescaled so its quadratic energy matches
        the state's reference energy, which keeps the central difference
        well conditioned when the two scales differ by many orders.
        ``base`` is (Theta(state), U_ref(state)) when already known.
        """
        floor = 1e-300
        # each of the five points is evaluated once; the differences are
        # those of second_difference and directional_derivative
        v0, u_ref = base or (self.value(state), self.reference_energy(state))
        vp, vm = self.value(state + d), self.value(state - d)
        curv = abs(vp + vm - 2.0 * v0)
        if curv > floor and u_ref > floor:
            d = d.scaled(float(np.sqrt(u_ref / curv)))
            vp, vm = self.value(state + d), self.value(state - d)
            curv = abs(vp + vm - 2.0 * v0)
        num = abs(0.5 * (vp - vm))
        return num / np.sqrt(max(curv, floor) * max(u_ref, floor))

    def stationarity_measures(self, state: HPRState, perturbations) -> list:
        """``stationarity_measure`` of one state along each of the
        perturbations, an iterable consumed one at a time, with Theta(state)
        and U_ref(state) evaluated once."""
        base = (self.value(state), self.reference_energy(state))
        return [self.stationarity_measure(state, d, base=base)
                for d in perturbations]


def random_admissible_perturbation(model: DiscreteModel, rng) -> HPRState:
    """Smooth random perturbation of all kinematic and resultant fields.

    Fields are random low-order polynomials modulated by a bump envelope
    vanishing (with its derivatives) at the boundary, so the perturbation
    is admissible and supported away from the constrained edges.
    """
    X, Y = model.X, model.Y
    a = float(model.X[-1, 0])
    b = float(model.Y[0, -1])
    xs, ys = X / a, Y / b
    env = (xs * (1.0 - xs) * ys * (1.0 - ys)) ** 2 * 256.0
    xp = [xs**i for i in range(3)]
    yp = [ys**j for j in range(3)]

    def rand_field():
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        f = np.zeros_like(X)
        for i in range(3):
            for j in range(3):
                f += c[i, j] * xp[i] * yp[j]
        return env * f

    u = PlateKinematics(**{n: rand_field() for n in KINEMATIC_FIELDS})
    s = PlateStress(**{n: rand_field() for n in STRESS_FIELDS})
    return HPRState(u=u, s=s)
