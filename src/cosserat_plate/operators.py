"""Governing differential operators of the flexural and extensional systems.

Both systems are carried in the convention

    L(d/dx) H - F = M * d^2 H / dt^2

with H the kinematic block, F the load vector and M the diagonal inertia.
Every operator entry is a polynomial of degree <= 2 in the formal symbols
(xi1, xi2) standing for (d/dx1, d/dx2); internally an entry is a 6-vector of
coefficients over the monomial basis [1, xi1, xi2, xi1^2, xi1*xi2, xi2^2].
That single representation drives the symbol evaluation, the plane-wave
(Hermitian) matrices, the finite-difference stencils and the exact
polynomial application used by the verification oracle.

Two coefficient tables are kept.  The shipped ("derived") table is the
exact composition of the balance laws with the constitutive stiffness form,
which makes the operator conservative: even-order couplings symmetric,
odd-order ones antisymmetric.  The "literal" table reproduces a published
variant of the same system, which carries an extra overall (1 - N^2) row
scaling and a handful of sign slips; it is retained behind a flag purely to
generate the coefficient diff report.

The coefficient assembly takes each table value as a number or as an array
over a leading material axis, so one call builds the tables of many
materials (``build_flexural_stack``, ``build_extensional_stack``) and
``build_flexural``/``build_extensional`` are the same code for one.  The
tables themselves are computed one material at a time from Python floats
and only then stacked: NumPy's array ``**`` can differ from Python's float
``**`` in the last bit, so computing them on arrays would move the bits of
every coefficient.  The placement of the values, and the few products and
sums of the extensional block, round the same on arrays as on floats.

The stiffness form ``stress_from_kinematics`` is read off in one place,
``build_traction``: one polarisation of the internal work over unit
columns gives each subsystem's stored energy density form Q, a quadratic
form in the fields and their gradients, and the load parts P of the
resultants.  The finite-difference rows are the Hessian of Q's discrete
sum; Q's d/dx_a rows are the boundary resultants, so the traction rows
n . (resultants) = prescribed are the boundary rows of that Hessian, and P
gives their load part (``traction_load_part``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import MaterialError, TechnicalConstants
from .plate_constitutive import (internal_work_density,
                                 strain_from_kinematics,
                                 stress_from_kinematics)
from .plate_fields import (EXTENSIONAL_FIELDS, FLEXURAL_FIELDS,
                           KINEMATIC_FIELDS, InertiaSet, LoadSet,
                           PlateKinematics, PlateStrain, PlateStress)
from .poly2d import Poly2D, apply_symbol_monomials

MONOMIALS = ("1", "xi1", "xi2", "xi1^2", "xi1*xi2", "xi2^2")


def monomial_basis(xi1, xi2) -> np.ndarray:
    """The MONOMIALS at (xi1, xi2), stacked on a new leading axis."""
    return np.stack(np.broadcast_arrays(1.0, xi1, xi2, xi1**2, xi1 * xi2, xi2**2))


def _symbol_value(coeffs: np.ndarray, xi1, xi2):
    """Evaluate entries of a coefficient tensor at a formal symbol point."""
    return coeffs @ monomial_basis(xi1, xi2)


def wave_matrices(coeffs: np.ndarray, xi) -> np.ndarray:
    """A(k) = -L(i k) at every row k of ``xi`` (n, 2): shape (n, m, m), or
    (..., n, m, m) for a stack of tables ``coeffs`` (..., m, m, 6), whose
    wavevectors are either shared, ``xi`` (n, 2), or each table's own,
    ``xi`` (..., n, 2).

    For a conservative table each A(k) is Hermitian.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    real = monomial_basis(xi[..., 0], xi[..., 1])
    # at (i k1, i k2) the first-degree monomials gain i, the second-degree -1
    basis = np.concatenate([real[:1], 1j * real[1:3], -real[3:]])
    return -np.einsum("...rcm,m...k->...krc", coeffs, basis)


def apply_to_polynomials(coeffs: np.ndarray, fields) -> list[Poly2D]:
    """L(d/dx) of the coefficient table ``coeffs`` (m, m, 6) applied exactly
    to one Poly2D per field."""
    n = coeffs.shape[0]
    return [
        sum(
            (apply_symbol_monomials(coeffs[r, c], fields[c]) for c in range(n)),
            Poly2D.zero(),
        )
        for r in range(n)
    ]


class _SymbolMethods:
    """Symbol evaluation shared by the flexural and extensional operators."""

    @property
    def active_coeffs(self) -> np.ndarray:
        return self.coeffs_literal if self.paper_literal else self.coeffs

    def symbol(self, xi1, xi2) -> np.ndarray:
        return _symbol_value(self.active_coeffs, xi1, xi2)


@dataclass(frozen=True)
class FlexuralOperator(_SymbolMethods):
    """6x6 operator on H = [Psi1, Psi2, W, Omega3, Omega1_0, Omega2_0]."""

    coeffs: np.ndarray                 # (6, 6, 6) derived entries
    coeffs_literal: np.ndarray         # (6, 6, 6) published-variant entries
    k: dict                            # literal coefficient table k1..k14
    K: dict                            # derived coefficient table
    mass: np.ndarray                   # (6,)
    tc: TechnicalConstants
    paper_literal: bool = False

    def load_vector(self, loads, grad1, grad2):
        """F from the load set and the in-plane gradients of (p, t).

        ``grad1``/``grad2`` are LoadSet-like containers holding d/dx1 and
        d/dx2 of each load field.
        """
        tc = self.tc
        c_p = tc.nu * tc.h**2 / (10.0 * (1.0 - tc.nu))
        c_t = 0.5 * tc.kappa2_sq * tc.h * (1.0 - tc.Psi)
        scale = (1.0 - tc.N**2) if self.paper_literal else 1.0
        zero = 0.0 * np.asarray(loads.p)
        return [
            -scale * c_p * np.asarray(grad1.p),
            -scale * c_p * np.asarray(grad2.p),
            -scale * np.asarray(loads.p),
            zero,
            -scale * c_t * np.asarray(grad1.t),
            (-1.0 if not self.paper_literal else +1.0) * scale * c_t * np.asarray(grad2.t),
        ]


@dataclass(frozen=True)
class ExtensionalOperator(_SymbolMethods):
    """3x3 operator on H~ = [U1, U2, Omega3_0]."""

    coeffs: np.ndarray                 # (3, 3, 6)
    coeffs_literal: np.ndarray
    kappa: dict                        # literal kappa1..kappa5 table
    mass: np.ndarray                   # (3,)
    tc: TechnicalConstants
    paper_literal: bool = False

    def load_vector(self, loads, grad1, grad2):
        tc = self.tc
        c_s = tc.h * tc.nu / (1.0 - tc.nu)
        return [
            -c_s * np.asarray(grad1.sigma0),
            -c_s * np.asarray(grad2.sigma0),
            -np.asarray(loads.v),
        ]


def traction_load_part(P: np.ndarray, loads, n) -> list:
    """n . (load part of the resultants), with P[r, a, l] the coefficient
    of load l (p, sigma0, v, t) in R_ar: row r sums n_a (P[r, a, l] load_l)
    over its nonzero coefficients only, from the first term; +0 without."""
    load = list(vars(loads).values())
    zero = np.zeros(np.broadcast_shapes(*map(np.shape, load + list(n))))
    terms = [[n[a] * (Pr[a, l] * load[l]) for a, l in zip(*np.nonzero(Pr))]
             for Pr in P]
    return [sum(t[1:], t[0]) if t else zero for t in terms]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def derived_flexural_table(tc: TechnicalConstants) -> dict:
    """Physical (unscaled) coefficient table of the flexural operator."""
    h = tc.h
    mu, alpha = tc.mu, tc.alpha
    gam, eps = tc.gamma, tc.epsilon
    cq = tc.kappa1_sq * h
    cr = tc.kappa2_sq * h
    cm = h**3 / 12.0
    return {
        "K1": tc.D,
        "K2": cm * (mu + alpha),
        "K3": cq * (mu + alpha),
        "K4": cq * (mu + alpha),
        "K5": h**3 * gam * eps / (3.0 * (gam + eps)),
        "K6": h**3 * alpha / 3.0,
        "K7": cr * gam * (2.0 - tc.Psi),
        "K8": 0.5 * cr * (gam + eps),
        "K9": 4.0 * cq * alpha,
        "K10": tc.D * tc.nu + cm * (mu - alpha),
        "K11": cq * (alpha - mu),
        "K12": h**3 * alpha / 6.0,
        "K13": 2.0 * cq * alpha,
        "K14": cr * gam * (1.0 - tc.Psi) + 0.5 * cr * (gam - eps),
    }


def literal_flexural_table(tc: TechnicalConstants) -> dict:
    """Published coefficient table k1..k14 (carries a (1-N^2) row scaling)."""
    D, nu, G, h = tc.D, tc.nu, tc.G, tc.h
    N2 = tc.N**2
    lt2, lb2, Psi = tc.l_t**2, tc.l_b**2, tc.Psi
    return {
        "k1": D * (1.0 - N2),
        "k2": D * (1.0 - nu) / 2.0,
        "k3": -5.0 * G * h / 6.0,
        "k4": 5.0 * G * h / 6.0,
        "k5": D * (1.0 - nu) * lt2 * (4.0 * lb2 - lt2) * (1.0 - N2) / (2.0 * lb2),
        "k6": 2.0 * N2 * D * (1.0 - nu),
        "k7": 5.0 * h * (1.0 - N2) * G * lt2 * (2.0 - Psi) / 3.0,
        "k8": 10.0 * h * (1.0 - N2) * G * lb2 / 3.0,
        "k9": 10.0 * h * G * N2 / 3.0,
        "k10": D * (1.0 + nu - 2.0 * N2) / 2.0,
        "k11": 5.0 * G * h * (2.0 * N2 - 1.0) / 6.0,
        "k12": D * N2 * (1.0 - nu),
        "k13": 5.0 * G * h * N2 / 3.0,
        "k14": 5.0 * h * (1.0 - N2) * G * (lt2 * (2.0 - Psi) - 2.0 * lb2) / 3.0,
    }


_SLOT = {"const": 0, "x1": 1, "x2": 2, "x11": 3, "x12": 4, "x22": 5}


def _set(C: np.ndarray, r: int, c: int, **terms) -> None:
    """Write entry (r, c) of every table in the stack C (..., m, m, 6): each
    keyword of ``_SLOT`` gives its monomial's coefficient, a number or an
    array over the stack's leading axes; the other monomials keep theirs."""
    for name, value in terms.items():
        C[..., r, c, _SLOT[name]] = value


def _flexural_coeffs_from(K1, K2, K3, K4, K5, K6, K7, K8, K9, K10, K11, K12, K13, K14,
                          literal_pattern: bool) -> np.ndarray:
    """Assemble the 6x6 entry tensor: (6, 6, 6) from numbers, (p, 6, 6, 6)
    from arrays of p values.

    ``literal_pattern`` reproduces the published sparsity/sign pattern
    (symmetric (2,4)/(4,2) pair, antisymmetric zero-order couplings,
    negated last diagonal); otherwise the conservative derived pattern is
    used.
    """
    C = np.zeros(np.shape(K1) + (6, 6, 6))
    _set(C, 0, 0, const=-K3, x11=K1, x22=K2)
    _set(C, 1, 1, const=-K3, x11=K2, x22=K1)
    _set(C, 0, 1, x12=K10)
    _set(C, 1, 0, x12=K10)
    _set(C, 0, 2, x1=K11)
    _set(C, 1, 2, x2=K11)
    _set(C, 2, 0, x1=-K11)
    _set(C, 2, 1, x2=-K11)
    _set(C, 2, 2, x11=K4, x22=K4)
    _set(C, 3, 3, const=-K6, x11=K5, x22=K5)
    _set(C, 4, 4, const=-K9, x11=K7, x22=K8)

    if literal_pattern:
        _set(C, 0, 3, x2=K12)
        _set(C, 1, 3, x1=K12)
        _set(C, 3, 0, x2=-K12)
        _set(C, 3, 1, x1=K12)
        _set(C, 0, 5, const=K13)
        _set(C, 1, 4, const=-K13)
        _set(C, 4, 1, const=K13)
        _set(C, 5, 0, const=K13)
        _set(C, 2, 4, x2=-K13)
        _set(C, 2, 5, x1=K13)
        _set(C, 4, 2, x2=K13)
        _set(C, 5, 2, x1=K13)
        _set(C, 4, 5, x12=K14)
        _set(C, 5, 4, x12=-K14)
        # the negation of the whole entry (const -K9, x11 K8, x22 K7), so
        # its zero monomials are -0
        C[..., 5, 5, :] = -0.0
        _set(C, 5, 5, const=K9, x11=-K8, x22=-K7)
    else:
        _set(C, 0, 3, x2=-K12)
        _set(C, 1, 3, x1=K12)
        _set(C, 3, 0, x2=K12)
        _set(C, 3, 1, x1=-K12)
        _set(C, 0, 5, const=-K13)
        _set(C, 1, 4, const=K13)
        _set(C, 4, 1, const=K13)
        _set(C, 5, 0, const=-K13)
        _set(C, 2, 4, x2=K13)
        _set(C, 2, 5, x1=-K13)
        _set(C, 4, 2, x2=-K13)
        _set(C, 5, 2, x1=K13)
        _set(C, 4, 5, x12=K14)
        _set(C, 5, 4, x12=K14)
        _set(C, 5, 5, const=-K9, x11=K8, x22=K7)
    return C


def _checked_mass(mass: np.ndarray, subsystem: str) -> np.ndarray:
    if not (np.all(np.isfinite(mass)) and np.all(mass > 0.0)):
        raise MaterialError(f"{subsystem} inertia must be positive and finite")
    return mass


def build_flexural(tc: TechnicalConstants, inertia: InertiaSet,
                   paper_literal: bool = False) -> FlexuralOperator:
    """Assemble the flexural operator for the given constants and inertia."""
    mass = _checked_mass(inertia.flexural_mass(), "flexural")
    K = derived_flexural_table(tc)
    k = literal_flexural_table(tc)
    coeffs = _flexural_coeffs_from(*K.values(), literal_pattern=False)
    lit = _flexural_coeffs_from(*k.values(), literal_pattern=True)
    return FlexuralOperator(
        coeffs=coeffs, coeffs_literal=lit, k=k, K=K,
        mass=mass, tc=tc, paper_literal=paper_literal,
    )


def build_flexural_stack(tcs, inertias) -> tuple[np.ndarray, np.ndarray]:
    """The derived coefficients (p, 6, 6, 6) and masses (p, 6) that
    ``build_flexural`` gives each of p >= 1 materials, in one assembly."""
    mass = _checked_mass(np.array([i.flexural_mass() for i in inertias]),
                         "flexural")
    table = np.array([list(derived_flexural_table(tc).values()) for tc in tcs])
    return _flexural_coeffs_from(*table.T, literal_pattern=False), mass


def derived_extensional_table(tc: TechnicalConstants) -> dict:
    h = tc.h
    mu, alpha = tc.mu, tc.alpha
    gam, eps = tc.gamma, tc.epsilon
    return {
        "C_E": tc.E * h / (1.0 - tc.nu**2),
        "C_G": h * (mu + alpha),
        "C_G2": h * (mu - alpha),
        "C_A": 2.0 * h * alpha,
        "C_M": 4.0 * h * gam * eps / (gam + eps),
    }


def literal_extensional_table(tc: TechnicalConstants) -> dict:
    """Published dimensionless kappa table (rows normalized by Gh/(1-N^2))."""
    N2 = tc.N**2
    nu = tc.nu
    return {
        "kappa1": 2.0 * (1.0 - N2) / (1.0 - nu),
        "kappa2": 2.0 * N2,
        "kappa3": (1.0 + nu - 2.0 * N2) / (1.0 - nu),
        "kappa4": N2,
        "kappa5": tc.l_t**2 * (4.0 * tc.l_b**2 - tc.l_t**2) * (1.0 - N2)
        / (2.0 * tc.l_b**2),
    }


def _extensional_coeffs_from(nu, C_E, C_G, C_G2, C_A, C_M) -> np.ndarray:
    """Assemble the derived 3x3 entry tensor: (3, 3, 6) from numbers,
    (p, 3, 3, 6) from arrays of p values."""
    C = np.zeros(np.shape(C_E) + (3, 3, 6))
    _set(C, 0, 0, x11=C_E, x22=C_G)
    _set(C, 1, 1, x11=C_G, x22=C_E)
    cross = nu * C_E + C_G2
    _set(C, 0, 1, x12=cross)
    _set(C, 1, 0, x12=cross)
    _set(C, 0, 2, x2=-C_A)
    _set(C, 1, 2, x1=C_A)
    _set(C, 2, 0, x2=C_A)
    _set(C, 2, 1, x1=-C_A)
    _set(C, 2, 2, const=-2.0 * C_A, x11=C_M, x22=C_M)
    return C


def build_extensional(tc: TechnicalConstants, inertia: InertiaSet,
                      paper_literal: bool = False) -> ExtensionalOperator:
    mass = _checked_mass(inertia.extensional_mass(), "extensional")
    C = _extensional_coeffs_from(tc.nu, *derived_extensional_table(tc).values())

    kap = literal_extensional_table(tc)
    L = np.zeros((3, 3, 6))
    _set(L, 0, 0, x11=kap["kappa1"], x22=kap["kappa2"])
    _set(L, 1, 1, x11=kap["kappa2"], x22=kap["kappa1"])
    _set(L, 0, 1, x12=kap["kappa3"])
    _set(L, 1, 0, x12=kap["kappa3"])
    _set(L, 0, 2, x2=2.0 * kap["kappa4"])
    _set(L, 1, 2, x1=2.0 * kap["kappa4"])
    _set(L, 2, 0, x2=-kap["kappa4"])
    _set(L, 2, 1, x1=kap["kappa4"])
    _set(L, 2, 2, const=-kap["kappa2"], x11=kap["kappa5"], x22=kap["kappa5"])
    return ExtensionalOperator(
        coeffs=C, coeffs_literal=tc.G * tc.h * L, kappa=kap,
        mass=mass, tc=tc, paper_literal=paper_literal,
    )


def build_extensional_stack(tcs, inertias) -> tuple[np.ndarray, np.ndarray]:
    """The derived coefficients (p, 3, 3, 6) and masses (p, 3) that
    ``build_extensional`` gives each of p >= 1 materials, in one assembly."""
    mass = _checked_mass(np.array([i.extensional_mass() for i in inertias]),
                         "extensional")
    table = np.array([(tc.nu, *derived_extensional_table(tc).values())
                      for tc in tcs])
    return _extensional_coeffs_from(*table.T), mass


def build_traction(tc: TechnicalConstants) -> dict:
    """Each subsystem's energy density form and boundary load parts,
    keyed "flex" and "ext" as (Q, P), from one polarisation of the internal
    work of the stiffness form's resultants over the plate strains.  The
    work is bilinear, so one call on unit columns gives every coefficient:
    one column per kinematic field and slot (value, d/dx1, d/dx2) and one
    per load (p, sigma0, v, t).

    W = 1/2 q^T Q q is the stored energy over q = (H, dH/dx1, dH/dx2):
    Q[k, r, l, c] couples field r's slot k to field c's slot l.  Its d/dx_a
    rows are the resultants R_ar that row r's traction n_a R_ar collects,
    and its Euler-Lagrange operator is the derived coefficient table.
    P[r, a, l] is the coefficient of load l in R_ar: the work of load l's
    resultants over the strain of d/dx_a of field r."""
    nk = len(KINEMATIC_FIELDS)
    unit = np.eye(3 * nk + 4)
    u, d1, d2 = (PlateKinematics(*unit[k * nk:(k + 1) * nk]) for k in range(3))
    s = stress_from_kinematics(u, d1, d2, tc, LoadSet(*unit[3 * nk:])).as_array()
    e = strain_from_kinematics(u, d1, d2).as_array()
    work = internal_work_density(PlateStress.from_array(s[:, :, None]),
                                 PlateStrain.from_array(e[:, None, :]))
    Q = 0.5 * (work + work.T)
    out = {}
    for name, fields in (("flex", FLEXURAL_FIELDS), ("ext", EXTENSIONAL_FIELDS)):
        nf = len(fields)
        idx = [k * nk + KINEMATIC_FIELDS.index(f) for k in range(3)
               for f in fields]
        P = work[3 * nk:, idx[nf:]].reshape(4, 2, nf)
        out[name] = (Q[np.ix_(idx, idx)].reshape(3, nf, 3, nf),
                     P.transpose(2, 1, 0))
    return out


# ---------------------------------------------------------------------------
# verification hooks
# ---------------------------------------------------------------------------

def operator_residual_oracle(coeffs: np.ndarray, tc: TechnicalConstants,
                             rng=None, degree: int = 3) -> float:
    """Max-norm residual between the assembled coefficient table ``coeffs``
    (6, 6, 6) or (3, 3, 6) and the exact composition of the balance laws
    with the constitutive stiffness form, evaluated on random polynomial
    fields via exact polynomial calculus.

    Returns the residual normalized by the largest row magnitude; the
    derived table should sit at rounding level, the literal table does not.
    """
    rng = np.random.default_rng(rng)
    nfield = coeffs.shape[0]
    polys = [Poly2D.random(rng, degree) for _ in range(nfield)]

    lhs = apply_to_polynomials(coeffs, polys)

    u = _poly_kinematics(**{"flexural" if nfield == 6 else "extensional": polys})
    s = stress_from_kinematics(u, _poly_grad(u, 1), _poly_grad(u, 2), tc,
                               loads=_poly_zero_loads())

    if nfield == 6:
        rhs = [
            s.M11.dx1() + s.M21.dx2() - s.Q1,
            s.M12.dx1() + s.M22.dx2() - s.Q2,
            s.Q1_s.dx1() + s.Q2_s.dx2(),
            s.S1_s.dx1() + s.S2_s.dx2() - (s.M12 - s.M21),
            s.R11.dx1() + s.R21.dx2() + (s.Q2 - s.Q2_s),
            s.R12.dx1() + s.R22.dx2() - (s.Q1 - s.Q1_s),
        ]
    else:
        rhs = [
            s.N11.dx1() + s.N21.dx2(),
            s.N12.dx1() + s.N22.dx2(),
            s.M1_s.dx1() + s.M2_s.dx2() - (s.N12 - s.N21),
        ]

    num = max((a - b).max_abs_coeff() for a, b in zip(lhs, rhs))
    den = max(max(a.max_abs_coeff() for a in rhs), 1e-300)
    return num / den


def _poly_kinematics(flexural=None, extensional=None):
    kw = {n: Poly2D.zero() for n in KINEMATIC_FIELDS}
    kw.update(zip(FLEXURAL_FIELDS, flexural or ()))
    kw.update(zip(EXTENSIONAL_FIELDS, extensional or ()))
    return PlateKinematics(**kw)


def _poly_grad(u, axis: int):
    return PlateKinematics(**{n: getattr(getattr(u, n), f"dx{axis}")()
                              for n in KINEMATIC_FIELDS})


def _poly_zero_loads():
    return LoadSet(*[Poly2D.zero()] * 4)


def coefficient_diff_table(tc: TechnicalConstants, inertia: InertiaSet):
    """Rows (entry, literal_value_expr, derived_value, abs_diff) comparing
    the published coefficient tables with the derived ones."""
    flex = build_flexural(tc, inertia)
    ext = build_extensional(tc, inertia)
    rows = []

    lit_expr = {
        "K1": "D*(1-N^2)", "K2": "D*(1-nu)/2", "K3": "-5*G*h/6",
        "K4": "5*G*h/6",
        "K5": "D*(1-nu)*lt^2*(4*lb^2-lt^2)*(1-N^2)/(2*lb^2)",
        "K6": "2*N^2*D*(1-nu)",
        "K7": "5*h*(1-N^2)*G*lt^2*(2-Psi)/3",
        "K8": "10*h*(1-N^2)*G*lb^2/3", "K9": "10*h*G*N^2/3",
        "K10": "D*(1+nu-2*N^2)/2", "K11": "5*G*h*(2*N^2-1)/6",
        "K12": "D*N^2*(1-nu)", "K13": "5*G*h*N^2/3",
        "K14": "5*h*(1-N^2)*G*(lt^2*(2-Psi)-2*lb^2)/3",
    }
    for (name, lit), der, expr in zip(flex.k.items(), flex.K.values(),
                                      lit_expr.values()):
        rows.append((name, expr, lit, der, abs(lit - der)))

    xi = (1.3, 0.7)
    for name, op, expr in (("L", flex, "printed pattern"),
                           ("Lt", ext, "printed pattern (xGh)")):
        Ld = op.symbol(*xi)
        Ll = _symbol_value(op.coeffs_literal, *xi)
        off = ~np.isclose(Ld, Ll, rtol=1e-12, atol=1e-300)
        for r, c in zip(*np.nonzero(off)):
            rows.append((f"{name}[{r+1},{c+1}]@xi={xi}", expr, Ll[r, c],
                         Ld[r, c], abs(Ll[r, c] - Ld[r, c])))

    kap = ext.kappa
    rows.append((
        "kappa3_identity", "printed: kappa3 = 1 - kappa1",
        1.0 - kap["kappa1"], kap["kappa3"],
        abs((1.0 - kap["kappa1"]) - kap["kappa3"]),
    ))
    return rows
