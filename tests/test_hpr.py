import numpy as np
import pytest

from cosserat_plate.dynamics import (
    ConstantLoad,
    EdgeBC,
    LoadFunctions,
    ModelConfig,
    assemble,
    static_solve,
)
from cosserat_plate.hpr import (
    HPRFunctional,
    HPRState,
    equilibrium_state,
    random_admissible_perturbation,
)
from cosserat_plate.material import material_from_technical
from cosserat_plate.plate_fields import (
    KINEMATIC_FIELDS,
    STRESS_FIELDS,
    PlateKinematics,
    PlateStress,
)

ALL_CLAMPED = {e: "clamped" for e in ("left", "right", "bottom", "top")}


def make_model(p_load=0.0, nx=13, ny=13):
    mat = material_from_technical(E=1.0, nu=0.3, N=0.35, l_t=0.05, l_b=0.06,
                                  Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))
    loads = LoadFunctions(p=ConstantLoad(p_load)) if p_load else LoadFunctions()
    cfg = ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=nx, ny=ny,
                      bc=dict(ALL_CLAMPED), loads=loads)
    return assemble(cfg)


def zero_state(model):
    z = {n: np.zeros((model.nx, model.ny)) for n in KINEMATIC_FIELDS}
    s = {n: np.zeros((model.nx, model.ny)) for n in STRESS_FIELDS}
    return HPRState(u=PlateKinematics(**z), s=PlateStress(**s))


def hpr_functional(model, state: HPRState, t: float = 0.0) -> float:
    """Value of Theta for a mixed state on a discrete model."""
    return HPRFunctional(model, t).value(state)


def test_zero_state_zero_loads_zero_value():
    model = make_model(0.0)
    assert hpr_functional(model, zero_state(model)) == 0.0


def test_stationary_at_static_solution():
    model = make_model(p_load=1.0)
    kin, _ = static_solve(model)
    eq = equilibrium_state(model, kin)
    F = HPRFunctional(model)
    rng = np.random.default_rng(4)
    for _ in range(5):
        d = random_admissible_perturbation(model, rng)
        assert F.stationarity_measure(eq, d) <= 1e-8


def test_random_state_not_stationary():
    model = make_model(p_load=1.0)
    rng = np.random.default_rng(5)
    bad = random_admissible_perturbation(model, rng)
    state = HPRState(u=bad.u, s=bad.s)
    F = HPRFunctional(model)
    vals = [F.stationarity_measure(state, random_admissible_perturbation(model, rng))
            for _ in range(5)]
    assert min(vals) > 1e-3


def test_derivative_detects_wrong_stress():
    """Perturbing only the resultant fields away from the constitutive
    image breaks stationarity through the compliance residual."""
    model = make_model(p_load=1.0)
    kin, _ = static_solve(model)
    eq = equilibrium_state(model, kin)
    F = HPRFunctional(model)
    rng = np.random.default_rng(6)
    d = random_admissible_perturbation(model, rng)
    # move the state's stress off the constitutive image
    off = HPRState(u=eq.u, s=PlateStress(**{
        n: np.asarray(getattr(eq.s, n)) + 0.1 * np.asarray(getattr(d.s, n))
        for n in STRESS_FIELDS
    }))
    assert F.stationarity_measure(off, d) > 1e3 * F.stationarity_measure(eq, d)


def test_value_quadratic_in_state():
    model = make_model(p_load=0.0)
    rng = np.random.default_rng(7)
    d = random_admissible_perturbation(model, rng)
    F = HPRFunctional(model)
    v1 = F.value(HPRState(u=d.u, s=d.s))
    v2 = F.value(HPRState(u=d.u, s=d.s).scaled(2.0))
    v_half = F.value(HPRState(u=d.u, s=d.s).scaled(0.5))
    # pure quadratic at zero loads: value scales with the square
    assert v2 == pytest.approx(4.0 * v1, rel=1e-10)
    assert v_half == pytest.approx(0.25 * v1, rel=1e-10)


def test_kinetic_bilinear_term_enters():
    model = make_model(p_load=0.0)
    rng = np.random.default_rng(8)
    d = random_admissible_perturbation(model, rng)
    st = HPRState(u=d.u, s=d.s)
    accel = PlateKinematics(**{
        n: np.ones((model.nx, model.ny)) for n in KINEMATIC_FIELDS
    })
    with_acc = HPRState(u=d.u, s=d.s, accel=accel)
    F = HPRFunctional(model)
    dens_expected = float(np.sum(
        np.asarray(
            __import__("cosserat_plate.plate_fields", fromlist=["kinetic_density"])
            .kinetic_density(accel, d.u, model.inertia)
        )
    )) * model.cell_area
    assert F.value(with_acc) - F.value(st) == pytest.approx(dens_expected,
                                                            rel=1e-7)


def test_boundary_part_is_the_per_edge_traction_work():
    """Minus the prescribed-traction work summed edge by edge: the data
    times the edge's traction-node values, by the trapezoid rule along that
    edge (the node spacing, halved at the edge's end nodes).  A corner that
    displacement data wins is no traction node and does no work; the
    traction-traction corner takes half of each edge's data."""
    def flex_data(x, y):
        return np.stack([np.sin(k + x) * (1.0 + y) for k in range(6)])

    def ext_data(x, y):
        return np.stack([np.cos(k + 2.0 * y) - x for k in range(3)])

    mat = material_from_technical(E=1.0, nu=0.3, N=0.35, l_t=0.05, l_b=0.06,
                                  Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))
    bc = {"left": "clamped", "bottom": "clamped",
          "right": EdgeBC("traction", flex_data=flex_data, ext_data=ext_data),
          "top": EdgeBC("traction", flex_data=flex_data)}
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=9,
                                 ny=13, bc=bc))
    assert model.dx != model.dy
    rng = np.random.default_rng(7)
    u = PlateKinematics(**{n: rng.standard_normal((model.nx, model.ny))
                           for n in KINEMATIC_FIELDS})
    X, Y = model.X, model.Y
    flex, ext = u.flexural(), u.extensional()
    wy, wx = np.ones(model.ny), np.ones(model.nx)
    wy[[0, -1]] = wx[[0, -1]] = 0.5
    right, top = (-1, slice(1, None)), (slice(1, None), -1)  # less clamped corners
    terms = [  # in the order of the bc: right (flexural, extensional), top
        float(np.sum(flex_data(X[right], Y[right]) * flex[(slice(None),) + right]
                     * wy[1:])) * model.dy,
        float(np.sum(ext_data(X[right], Y[right]) * ext[(slice(None),) + right]
                     * wy[1:])) * model.dy,
        float(np.sum(flex_data(X[top], Y[top]) * flex[(slice(None),) + top]
                     * wx[1:])) * model.dx,
    ]
    got = HPRFunctional(model)._boundary_part(
        HPRState(u=u, s=zero_state(model).s))
    assert got != 0.0
    assert got == pytest.approx(-sum(terms), rel=1e-14)


@pytest.mark.parametrize("n", [9, 17, 33])
def test_boundary_part_integrates_unit_data_over_the_edge_length(n):
    """Unit data on one field of a unit-length traction edge between two
    clamped edges, against a unit field, does the work of the edge's n - 2
    traction nodes at spacing 1/(n - 1), entered with a minus sign: the
    two corners belong to the clamped edges."""
    def flex_data(x, y):
        return np.stack([1.0 + 0 * x] + [0 * x] * 5)

    mat = material_from_technical(E=1.0, nu=0.3, N=0.35, l_t=0.05, l_b=0.06,
                                  Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))
    bc = dict(ALL_CLAMPED, right=EdgeBC("traction", flex_data=flex_data))
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=n,
                                 ny=n, bc=bc))
    u = PlateKinematics(**{name: np.ones((n, n)) for name in KINEMATIC_FIELDS})
    got = HPRFunctional(model)._boundary_part(
        HPRState(u=u, s=zero_state(model).s))
    assert got == pytest.approx(-(n - 2) / (n - 1), rel=1e-15)


@pytest.mark.parametrize("n", [17, 33])
def test_stationary_at_static_solution_with_traction_data(n):
    """Theta is stationary at the static solution of a plate whose traction
    edge carries flexural and extensional data, under p and t loads, along
    random perturbations of every free node (the traction edge included)
    that vanish on the clamped edges.  With the boundary work's sign
    opposite to the solver's traction force it read 1e-5 to 1.4e-4."""
    def flex_data(x, y):
        return np.stack([np.sin(k + 3.0 * y) * (0.2 + k) for k in range(6)])

    def ext_data(x, y):
        return np.stack([np.cos(k + 2.0 * y) + 0.5 * k for k in range(3)])

    mat = material_from_technical(E=1.0, nu=0.3, N=0.35, l_t=0.05, l_b=0.06,
                                  Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))
    bc = dict(ALL_CLAMPED, right=EdgeBC("traction", flex_data=flex_data,
                                        ext_data=ext_data))
    loads = LoadFunctions(p=ConstantLoad(0.7), t=ConstantLoad(-0.4))
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=n,
                                 ny=n, bc=bc, loads=loads))
    kin, _ = static_solve(model)
    eq = equilibrium_state(model, kin)
    F = HPRFunctional(model)
    rng = np.random.default_rng(n)
    free = np.ones((n, n))
    free[0] = free[:, 0] = free[:, -1] = 0.0  # zero on Gamma_u
    perturbations = [HPRState(
        u=PlateKinematics(**{name: rng.standard_normal((n, n)) * free
                             for name in KINEMATIC_FIELDS}),
        s=zero_state(model).s) for _ in range(3)]
    assert max(F.stationarity_measures(eq, perturbations)) <= 1e-12


def test_stationarity_evaluates_each_point_once(monkeypatch):
    """The measure needs Theta at five points, the state and the state
    plus and minus d before and after d is rescaled; it used to evaluate
    Theta eight times.  It equals the measure formed from
    ``second_difference`` and ``directional_derivative``."""
    model = make_model(p_load=1.0)
    kin, _ = static_solve(model)
    eq = equilibrium_state(model, kin)
    F = HPRFunctional(model)
    d = random_admissible_perturbation(model, np.random.default_rng(4))
    u_ref = F.reference_energy(eq)
    scaled = d.scaled(float(np.sqrt(u_ref / abs(F.second_difference(eq, d)))))
    want = abs(F.directional_derivative(eq, scaled)) / np.sqrt(
        abs(F.second_difference(eq, scaled)) * u_ref)
    calls = []
    value = HPRFunctional.value

    def counted(self, state):
        calls.append(state)
        return value(self, state)

    monkeypatch.setattr(HPRFunctional, "value", counted)
    assert F.stationarity_measure(eq, d) == want
    assert len(calls) == 5


def test_measures_share_the_state_value_and_reference_energy(monkeypatch):
    """``stationarity_measures`` evaluates Theta(state) and U_ref(state)
    once for all perturbations and returns, bit for bit, the measures of
    ``stationarity_measure`` along each."""
    model = make_model(p_load=1.0)
    kin, _ = static_solve(model)
    eq = equilibrium_state(model, kin)
    F = HPRFunctional(model)
    rng = np.random.default_rng(5)
    ds = [random_admissible_perturbation(model, rng) for _ in range(3)]
    want = [F.stationarity_measure(eq, d) for d in ds]
    calls = {"value": 0, "reference_energy": 0}
    for name in calls:
        method = getattr(HPRFunctional, name)

        def counted(self, state, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, state)

        monkeypatch.setattr(HPRFunctional, name, counted)
    assert F.stationarity_measures(eq, iter(ds)) == want
    assert calls == {"value": 1 + 4 * len(ds), "reference_energy": 1}


def test_value_factors_no_traction_block(monkeypatch):
    """Theta applies the interior rows only: on a cantilever it used to
    factor each subsystem's traction block A_TT through the kernel's
    traction closure, which it never solves."""
    from cosserat_plate import dynamics

    mat = material_from_technical(E=1.0, nu=0.3, N=0.35, l_t=0.05, l_b=0.06,
                                  Psi=0.9, rho=1.0, J=(0.2, 0.2, 0.2))
    bc = {"left": "clamped", "right": "traction", "bottom": "traction",
          "top": "traction"}
    model = assemble(ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=33,
                                 ny=33, bc=bc))
    calls = []
    splu = dynamics.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(dynamics.spla, "splu", counting_splu)
    state = random_admissible_perturbation(model, np.random.default_rng(2))
    assert np.isfinite(HPRFunctional(model).value(state))
    assert calls == []


def bits(a):
    """The float64 bit patterns of ``a``: equal only if bitwise equal,
    signed zeros included."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_grid_gradients_equal_per_field_gradients():
    """One ``np.gradient`` call over the stacked fields gives each field the
    differences of a call on it alone, a constant field included."""
    from cosserat_plate.hpr import _grid_gradients

    model = make_model(nx=13, ny=11)
    rng = np.random.default_rng(4)
    values = {n: rng.standard_normal((model.nx, model.ny))
              for n in KINEMATIC_FIELDS}
    values["omega3"] = -0.0
    values["u2"] = 2.5
    g1, g2 = _grid_gradients(model, PlateKinematics(**values))
    for n, f in values.items():
        f = np.broadcast_to(np.asarray(f, dtype=float), (model.nx, model.ny))
        gx, gy = np.gradient(f, model.dx, model.dy, edge_order=2)
        assert np.array_equal(bits(getattr(g1, n)), bits(gx)), n
        assert np.array_equal(bits(getattr(g2, n)), bits(gy)), n


def per_field_perturbation(model, rng):
    """``random_admissible_perturbation`` with the monomials recomputed for
    every coefficient of every field."""
    X, Y = model.X, model.Y
    xs, ys = X / float(X[-1, 0]), Y / float(Y[0, -1])
    env = (xs * (1.0 - xs) * ys * (1.0 - ys)) ** 2 * 256.0

    def rand_field():
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        f = np.zeros_like(X)
        for i in range(3):
            for j in range(3):
                f += c[i, j] * xs**i * ys**j
        return env * f

    return ({n: rand_field() for n in KINEMATIC_FIELDS},
            {n: rand_field() for n in STRESS_FIELDS})


@pytest.mark.parametrize("seed", [0, 1])
def test_perturbation_equals_per_field_monomials(seed):
    model = make_model(nx=13, ny=9)
    d = random_admissible_perturbation(model, np.random.default_rng(seed))
    u, s = per_field_perturbation(model, np.random.default_rng(seed))
    for fields, want in ((d.u, u), (d.s, s)):
        for n, f in want.items():
            assert np.array_equal(bits(getattr(fields, n)), bits(f)), n
