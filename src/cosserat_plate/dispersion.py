"""Plane-wave dispersion analysis of the load-free governing systems.

For a wave H = v exp(i(k . x - w t)) the system L(d/dx) H = M d^2H/dt^2
becomes the generalized Hermitian-definite eigenproblem

    A(k) v = w^2 M v,      A(k) = -L(i k),

with M the diagonal inertia.  ``solve_wave_matrices`` solves it for a
whole stack of matrices A, each with its own M, as M^-1/2 A M^-1/2 in one
numpy call, and returns M-normalised modes.  Three callers build the
stack: ``wave_eigensystem`` from one operator at many wavevectors (the
dispersion curves and the cutoffs); ``stacked_frequencies`` from the
coefficient and mass stacks of many materials (``build_flexural_stack``,
``build_extensional_stack``) at one wavevector (the parameter sweep); and
the verification suite on dispersion positivity, from the same stacks at
each material's own wavevectors.  For admissible materials A(k) is
positive semidefinite, so all branches are real; a non-Hermitian A(k) or a
significantly negative eigenvalue signals a broken (non-conservative)
operator table and raises, naming the first offending wavevector or
material.  A scaled matrix with an entry that is not finite, from an input
too large (or an inertia too small) for double precision, raises
``NonFiniteSymbolError`` the same way instead of reaching LAPACK.

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

NEGATIVE_TOL = -1e-10
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


def wave_eigensystem(op, xi, with_modes: bool = False):
    """Squared frequencies (n, m), ascending and unclipped, and the
    M-normalised, phase-fixed modes (n, m, m; one per column) or None,
    at each row of the (n, 2) array ``xi`` of finite wavevectors [1/m].
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi)):
        raise ValueError("wavevectors must be finite")
    A = wave_matrices(op.active_coeffs, xi)
    return solve_wave_matrices(A, np.broadcast_to(op.mass, A.shape[:2]),
                               with_modes,
                               lambda i: f"k=({xi[i, 0]}, {xi[i, 1]})")


def solve_wave_matrices(A, mass, with_modes: bool, where):
    """``wave_eigensystem`` for a stack of plane-wave matrices A (n, m, m)
    with one diagonal inertia per row, ``mass`` (n, m): A v = w^2 M v
    through M^-1/2 A M^-1/2, with ``eigh`` when ``with_modes`` and
    ``eigvalsh`` otherwise (the two can differ in the last bits).
    ``where(i)`` names row i in the errors it raises.
    """
    msqrt = 1.0 / np.sqrt(mass)
    B = msqrt[:, :, None] * A * msqrt[:, None, :]
    finite = np.all(np.isfinite(B), axis=(1, 2))
    if not np.all(finite):
        raise NonFiniteSymbolError(
            f"wave matrix not finite at {where(np.argmin(finite))}: an input"
            f" lies outside the range of double precision")
    scale = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1.0)
    asym = np.max(np.abs(A - np.conj(np.swapaxes(A, 1, 2))), axis=(1, 2))
    if np.any(asym > 1e-12 * scale):
        i = np.argmax(asym > 1e-12 * scale)
        raise NonConservativeSymbolError(
            f"wave matrix not Hermitian at {where(i)}:"
            f" asymmetry {asym[i]:.3e} (operator table inconsistent)")
    if with_modes:
        w2, vecs = np.linalg.eigh(B)
        modes = _fix_phase(msqrt[:, :, None] * vecs)
    else:
        w2, modes = np.linalg.eigvalsh(B), None
    floor = NEGATIVE_TOL * np.maximum(scale / np.min(mass, axis=1), 1.0)
    if np.any(w2[:, 0] < floor):
        i = np.argmax(w2[:, 0] < floor)
        raise NonConservativeSymbolError(
            f"negative squared frequency {w2[i, 0]:.3e} at {where(i)}")
    return w2, modes


def stacked_frequencies(coeffs, mass, xi, with_modes: bool,
                        where) -> np.ndarray:
    """Angular frequencies (p, m) of the p operators of one subsystem whose
    coefficient tables and inertias are stacked in ``coeffs`` (p, m, m, 6)
    and ``mass`` (p, m), at the one wavevector ``xi``, in one eigensolve.

    ``with_modes`` solves as ``cutoff_frequencies`` does, otherwise as
    ``dispersion_curves`` does; errors name operator i by ``where(i)``.
    """
    xi = np.asarray(xi, dtype=float)
    w2, _ = solve_wave_matrices(
        wave_matrices(coeffs, [xi])[:, 0], mass, with_modes,
        lambda i: f"{where(i)}, k=({xi[0]}, {xi[1]})")
    return np.sqrt(np.clip(w2, 0.0, None))


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
    w2f, mf = wave_eigensystem(flex, xi, with_modes)
    w2e, me = wave_eigensystem(ext, xi, with_modes)
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


_FLEX_NAMES = ("psi1", "psi2", "w", "omega3", "omega1_0", "omega2_0")
_EXT_NAMES = ("u1", "u2", "omega3_0")


def cutoff_frequencies(op, rel_tol: float = 1e-9) -> CutoffReport:
    """Eigenvalues of the zero-wavevector symbol, with zero-mode bookkeeping.

    A branch counts as a zero mode when its squared frequency is negligible
    against the largest restoring term of A(0) (or when A(0) vanishes
    entirely).  Each zero mode is labelled by the dominant field of its
    eigenvector.
    """
    (w2,), (vecs,) = wave_eigensystem(op, [(0.0, 0.0)], with_modes=True)
    # A(0) = -L(0) holds only the constant-monomial coefficients
    scale = np.max(np.abs(op.active_coeffs[..., 0])) / np.min(op.mass)
    tol = rel_tol * max(scale, 1e-300)
    names = _FLEX_NAMES if len(w2) == 6 else _EXT_NAMES
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


def default_wavevectors(directions=None, k_min: float = 1e-2,
                        k_max: float = 1e2, n: int = 60) -> np.ndarray:
    """Sample wavevectors along unit directions, log+linear spacing: the
    ``wavevector_magnitudes`` along each direction in turn."""
    if directions is None:
        directions = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    mags = wavevector_magnitudes(k_min, k_max, n)
    out = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        if d.shape != (2,) or not np.all(np.isfinite(d)) or not np.any(d):
            raise ValueError(f"bad direction {d.tolist()}: need two finite "
                             "numbers, not both zero")
        d = d / np.linalg.norm(d)
        out.append(mags[:, None] * d[None, :])
    return np.vstack(out)
