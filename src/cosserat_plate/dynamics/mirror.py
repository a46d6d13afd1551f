"""The mirror symmetries of a plate's free block.

A rectangle has two commuting mirrors, i -> nx - 1 - i (axis 0, "i") and
j -> ny - 1 - j (axis 1, "j").  On a rectangle whose edge pattern is
symmetric under a mirror M the isotropic plate energy does not see it, so
the free block A_FF commutes with it bit for bit: S M A_FF M S = A_FF
with the field signs S of ``_MIRROR_PARITY``.  F then splits into the
part even under S M and the part odd under it, which do not couple; under
both mirrors it splits into four classes, one sign per mirror, each on a
quarter of the grid (Bossavit, Comput. Methods Appl. Mech. Engrg. 56,
1986; Fässler & Stiefel, Group Theoretical Methods and Their
Applications, 1992).

``mirror_of`` maps a subsystem's free dofs onto themselves under the
mirror of one axis, field by field, in the order of its free block
(``discretization._FreeBlock``), which is its only caller and makes the
only call of ``Mirror.commutes``, the bitwise check; ``class_of`` gives
the basis P of a class of one or both mirrors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Each field's sign under the mirror that reverses grid axis 0 (i -> nx -
# 1 - i) or 1 (j -> ny - 1 - j), in the subsystem's field order.  The
# mirror flips the component of a vector (U, Psi, W) along its axis, and
# the other two components of a pseudovector (the microrotations).
_MIRROR_PARITY = {
    0: {"flexural": (-1.0, 1.0, 1.0, -1.0, 1.0, -1.0),
        "extensional": (-1.0, 1.0, -1.0)},
    1: {"flexural": (1.0, -1.0, 1.0, -1.0, -1.0, 1.0),
        "extensional": (1.0, -1.0, -1.0)},
}


@dataclass(frozen=True)
class MirrorClass:
    """The class of the mirrors named ``axes`` ("i", "j" or "ij") with one
    sign sigma = +1 ("even") or -1 ("odd") per mirror: the basis P of the
    dofs on the near side of every mirror line or on it, whose positions
    in the dof set are ``rows``, with P[g k, r] = chi(g) s_g(k) for its
    dof r at k and each g of the group the mirrors generate, chi(g) the
    product of their sigmas and s_g(k) of the fields' signs; ``weight``
    is P's column count, 2^n for a dof off n of the mirror lines.  P's rows
    restricted to ``rows`` are the identity, so a vector x of the class is
    P x[rows]."""

    axes: str
    sigmas: tuple
    P: sp.csr_matrix
    rows: np.ndarray
    weight: np.ndarray

    @property
    def name(self) -> str:
        """"even" or "odd" per mirror, joined by "-"."""
        return "-".join("even" if s > 0 else "odd" for s in self.sigmas)

    @property
    def label(self) -> str:
        """E.g. "odd class of mirror j", "odd-odd class of mirrors i, j"."""
        return (f"{self.name} class of mirror"
                f"{'s' * (len(self.axes) > 1)} {', '.join(self.axes)}")

    def rows_of(self, A) -> sp.csr_matrix:
        """(A P)[rows]: on the class, (A x)[rows] = (A P)[rows] x[rows]."""
        return A[self.rows] @ self.P

    def form(self, A) -> sp.csr_matrix:
        """P^T A P, read off A P's class rows: under the exact group row g
        k of A P is chi(g) s_g(k) times row k, so P^T adds row k once per
        image."""
        B = self.rows_of(A)
        B.data *= np.repeat(self.weight, np.diff(B.indptr))
        return B


@dataclass(frozen=True)
class Mirror:
    """The mirror of one grid axis on a dof set: each dof's image's
    position in the set (``mate``), its field sign s (``sign``) and twice
    its node's distance past the mirror line (``side``: < 0 on the near
    side, 0 on the line)."""

    axis: int
    mate: np.ndarray
    sign: np.ndarray
    side: np.ndarray

    @property
    def name(self) -> str:
        return "ij"[self.axis]

    def holds(self, x: np.ndarray, sigma: float) -> bool:
        """Whether x lies exactly in class sigma: x[M k] == sigma s_k x[k]."""
        return np.array_equal(x[self.mate], sigma * self.sign * x)

    def commutes(self, A, mass: np.ndarray | None = None) -> bool:
        """Whether s_k A[M k, M l] s_l == A[k, l] bit for bit, compared in
        canonical CSR order, and, given a lumped mass, mass[M k] ==
        mass[k]."""
        if mass is not None and not np.array_equal(mass[self.mate], mass):
            return False
        A = A.sorted_indices()
        B = A[self.mate][:, self.mate]
        B.sort_indices()
        B.data *= np.repeat(self.sign, np.diff(B.indptr)) * \
            self.sign[B.indices]
        return bool(np.array_equal(A.indptr, B.indptr)
                    and np.array_equal(A.indices, B.indices)
                    and np.array_equal(A.data, B.data))


def class_of(mirrors: list, sigmas: tuple) -> MirrorClass:
    """The class of the commuting ``mirrors`` (of distinct axes, on one
    dof set) with sign sigmas[n] under mirrors[n]."""
    keep = np.ones(mirrors[0].mate.size, dtype=bool)
    for m, sigma in zip(mirrors, sigmas):
        keep &= (m.side < 0) | (m.side == 0) & (sigma * m.sign > 0)
    rows = np.flatnonzero(keep)
    # P's entries (row, column, value), from the identity on ``rows``; each
    # mirror adds the images of the entries whose column's dof is off its
    # line, which mirrors of other axes leave on the same side
    r, c, v = rows, np.arange(rows.size), np.ones(rows.size)
    weight = np.ones(rows.size)
    for m, sigma in zip(mirrors, sigmas):
        off = m.side[r] < 0
        r, c, v = (np.concatenate([r, m.mate[r[off]]]),
                   np.concatenate([c, c[off]]),
                   np.concatenate([v, sigma * m.sign[r[off]] * v[off]]))
        weight *= 1.0 + (m.side[rows] < 0)
    P = sp.csr_matrix((v, (r, c)), shape=(keep.size, rows.size))
    return MirrorClass("".join(m.name for m in mirrors), tuple(sigmas), P,
                       rows, weight)


def classes_of(mirrors: list):
    """Each class of ``mirrors`` in turn, one per sign choice, even first."""
    return (class_of(mirrors, sigmas) for sigmas
            in itertools.product((1.0, -1.0), repeat=len(mirrors)))


def mirror_of(block, axis: int) -> Mirror | None:
    """The mirror of grid axis ``axis`` on the free dofs of a subsystem's
    free block, in their order; None when a dof's image is not among them
    (a free node whose image is a Dirichlet node)."""
    nx, ny, dofs = block.nx, block.ny, block.free_dofs
    field, node = np.divmod(dofs, nx * ny)
    side = 2 * np.divmod(node, ny)[axis] - ((nx, ny)[axis] - 1)
    parity = np.asarray(_MIRROR_PARITY[axis][block.name])
    pos = np.full(parity.size * nx * ny, -1)
    pos[dofs] = np.arange(dofs.size)
    mate = pos[dofs - side * (1 if axis else ny)]
    if np.any(mate < 0):
        return None
    return Mirror(axis, mate, parity[field], side)
