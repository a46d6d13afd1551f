"""Plane-wave dispersion analysis of the load-free governing systems.

For a wave H = v exp(i(k . x - w t)) the system L(d/dx) H = M d^2H/dt^2
becomes the generalized Hermitian-definite eigenproblem

    A(k) v = w^2 M v,      A(k) = -L(i k),

with M the diagonal inertia.  ``wave_eigensystem`` is the one solver of
it: it takes a stack of coefficient tables and their inertias (one
operator's, or many materials' from ``build_flexural_stack`` and
``build_extensional_stack``), with wavevectors shared by every table or
one set per table, and solves M^-1/2 A M^-1/2 for the whole stack in one
numpy call, returning M-normalised modes.  The dispersion curves, the
cutoffs, the parameter sweep and the verification suites all call it.  For
admissible materials A(k) is positive semidefinite, so all branches are
real; a non-Hermitian A(k) or a significantly negative eigenvalue signals a
broken (non-conservative) operator table and raises, naming the first
offending table and wavevector.  A scaled matrix with an entry that is not
finite, from an input too large (or an inertia too small) for double
precision, raises ``NonFiniteSymbolError`` the same way instead of
reaching LAPACK.

Phase rule: the first component of a mode within a relative 1e-8 of its
largest in magnitude is made real and positive, so that components equal
in exact arithmetic (Omega1_0 and Omega2_0 on the diagonals) cannot let
roundoff flip the sign.  Wavevectors must be finite; ``default_wavevectors``
needs 0 < k_min < k_max, n >= 1 and nonzero finite directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import wave_matrices
from .plate_fields import EXTENSIONAL_FIELDS, FLEXURAL_FIELDS

NEGATIVE_TOL = -1e-10
ZERO_MODE_TOL = 1e-9   # a zero mode's w^2 against A(0)'s largest term / M
PHASE_TIE = 1e-8


class NonConservativeSymbolError(RuntimeError):
    """The plane-wave matrix produced an eigenvalue below tolerance."""


class NonFiniteSymbolError(ValueError):
    """A plane-wave matrix, scaled by its inertia, is not finite."""


@dataclass(frozen=True)
class DispersionResult:
    xi: np.ndarray                    # (n, 2) wavevectors
    flexural: np.ndarray              # (n, 6) sorted angular frequencies
    extensional: np.ndarray           # (n, 3)
    flexural_modes: np.ndarray | None = None    # (n, 6, 6)
    extensional_modes: np.ndarray | None = None  # (n, 3, 3)


def wave_eigensystem(coeffs, mass, xi, with_modes: bool = False,
                     where=None):
    """Squared frequencies (..., n, m), ascending and unclipped, and the
    M-normalised, phase-fixed modes (..., n, m, m; one per column) or None,
    of the coefficient tables ``coeffs`` (..., m, m, 6) with their diagonal
    inertias ``mass`` (..., m) at the finite wavevectors ``xi`` [1/m]:
    (n, 2), shared by every table, or (..., n, 2), one set per table.

    A v = w^2 M v is solved through M^-1/2 A M^-1/2, with ``eigh`` when
    ``with_modes`` and ``eigvalsh`` otherwise (the two can differ in the
    last bits).  The errors it raises name the wavevector, "k=(k1, k2)",
    after ``where(i)`` when given, which names table i of the flattened
    stack.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi)):
        raise ValueError("wavevectors must be finite")
    A = wave_matrices(coeffs, xi)
    flat_xi = np.broadcast_to(xi, A.shape[:-2] + (2,)).reshape(-1, 2)

    def at(i):  # row i of the flattened (..., n) stack of matrices
        k = f"k=({flat_xi[i, 0]}, {flat_xi[i, 1]})"
        return k if where is None else f"{where(i // xi.shape[-2])}, {k}"

    mass = np.asarray(mass)[..., None, :]
    msqrt = 1.0 / np.sqrt(mass)
    B = msqrt[..., :, None] * A * msqrt[..., None, :]
    finite = np.all(np.isfinite(B), axis=(-2, -1)).ravel()
    if not np.all(finite):
        raise NonFiniteSymbolError(
            f"wave matrix not finite at {at(np.argmin(finite))}: an input"
            f" lies outside the range of double precision")
    scale = np.maximum(np.max(np.abs(A), axis=(-2, -1)), 1.0)
    asym = np.max(np.abs(A - np.conj(np.swapaxes(A, -2, -1))), axis=(-2, -1))
    skew = (asym > 1e-12 * scale).ravel()
    if np.any(skew):
        i = np.argmax(skew)
        raise NonConservativeSymbolError(
            f"wave matrix not Hermitian at {at(i)}:"
            f" asymmetry {asym.flat[i]:.3e} (operator table inconsistent)")
    if with_modes:
        w2, vecs = np.linalg.eigh(B)
        modes = _fix_phase(msqrt[..., :, None] * vecs)
    else:
        w2, modes = np.linalg.eigvalsh(B), None
    floor = NEGATIVE_TOL * np.maximum(scale / np.min(mass, axis=-1), 1.0)
    low = (w2[..., 0] < floor).ravel()
    if np.any(low):
        i = np.argmax(low)
        raise NonConservativeSymbolError(
            f"negative squared frequency {w2[..., 0].flat[i]:.3e} at {at(i)}")
    return w2, modes


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Make each column's pivot, its first component within PHASE_TIE of
    the largest in magnitude, real and positive."""
    mag = np.abs(vecs)
    near_max = mag >= (1.0 - PHASE_TIE) * np.max(mag, axis=-2, keepdims=True)
    lead = np.argmax(near_max, axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, lead, axis=-2)
    return vecs * (np.conj(pivot) / np.abs(pivot))


def dispersion_curves(flex, ext, xi, with_modes: bool = False) -> DispersionResult:
    """Frequencies of both subsystems along a list of wavevectors.

    ``xi`` is an (n, 2) array of finite real wavevectors [1/m]; branches
    come out sorted ascending per sample.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    w2f, mf = wave_eigensystem(flex.active_coeffs, flex.mass, xi, with_modes)
    w2e, me = wave_eigensystem(ext.active_coeffs, ext.mass, xi, with_modes)
    return DispersionResult(
        xi=xi, flexural=np.sqrt(np.clip(w2f, 0.0, None)),
        extensional=np.sqrt(np.clip(w2e, 0.0, None)),
        flexural_modes=mf, extensional_modes=me,
    )


@dataclass(frozen=True)
class CutoffReport:
    """Frequencies at zero wavevector with the zero modes identified."""

    frequencies: np.ndarray
    zero_mode_count: int
    zero_mode_fields: tuple[str, ...]


def cutoff_frequencies(op) -> CutoffReport:
    """Eigenvalues of the zero-wavevector symbol, with zero-mode bookkeeping.

    A branch counts as a zero mode when its squared frequency is negligible
    against the largest restoring term of A(0) (or when A(0) vanishes
    entirely).  Each zero mode is labelled by the dominant field of its
    eigenvector.
    """
    (w2,), (vecs,) = wave_eigensystem(op.active_coeffs, op.mass,
                                      [(0.0, 0.0)], with_modes=True)
    # A(0) = -L(0) holds only the constant-monomial coefficients
    scale = np.max(np.abs(op.active_coeffs[..., 0])) / np.min(op.mass)
    tol = ZERO_MODE_TOL * max(scale, 1e-300)
    names = FLEXURAL_FIELDS if len(w2) == 6 else EXTENSIONAL_FIELDS
    zero_fields = tuple(names[int(np.argmax(np.abs(vecs[:, j])))]
                        for j in np.flatnonzero(w2 <= tol))
    return CutoffReport(np.sqrt(np.clip(w2, 0.0, None)), len(zero_fields),
                        zero_fields)


def wavevector_magnitudes(k_min: float = 1e-2, k_max: float = 1e2,
                          n: int = 60) -> np.ndarray:
    """Sorted union of n//2 log-spaced and n - n//2 linearly spaced
    magnitudes on [k_min, k_max]; requires 0 < k_min < k_max, n >= 1."""
    if not (0.0 < k_min < k_max < np.inf and n >= 1):
        raise ValueError(f"need finite 0 < k_min < k_max and n >= 1, got "
                         f"k_min={k_min}, k_max={k_max}, n={n}")
    return np.unique(np.concatenate([
        np.geomspace(k_min, k_max, n // 2),
        np.linspace(k_min, k_max, n - n // 2),
    ]))


def default_wavevectors(directions=((1, 0), (0, 1), (1, 1)),
                        **sampling) -> np.ndarray:
    """Sample wavevectors along unit directions, log+linear spacing: the
    ``wavevector_magnitudes(**sampling)`` along each direction in turn."""
    mags = wavevector_magnitudes(**sampling)
    out = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
            raise ValueError(f"bad direction {d.tolist()}: need two finite "
                             "numbers, not both zero")
        d = d / np.linalg.norm(d)
        out.append(mags[:, None] * d[None, :])
    return np.vstack(out)
