"""The mirror symmetry of a plate's free block, in any dof order.

On a rectangle whose edge pattern is mirror-symmetric the isotropic plate
energy does not see the mirror M, so the free block A_FF commutes with it
bit for bit: S M A_FF M S = A_FF with the field signs S of
``_MIRROR_PARITY``.  F then splits into the part even under S M and the
part odd under it, which do not couple (Bossavit, Comput. Methods Appl.
Mech. Engrg. 56, 1986).  The mirror used is the one that reverses every
line of ``static._line_order``: j -> ny - 1 - j when ny <= nx, i -> nx -
1 - i otherwise.

``mirror_of`` maps a set of free dofs onto itself under that mirror, in
the order the caller keeps them: ``static`` keeps them line by line,
node-major, and the explicit kernel and ``lowest_flexural_mode`` field by
field.  ``Mirror.commutes`` is the bitwise check, and ``Mirror.classes``
gives the basis P of each class on the half grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Each field's sign under the mirror that reverses every line of
# ``_line_order``, by the grid axis it reverses (0: i -> nx - 1 - i,
# 1: j -> ny - 1 - j), in the subsystem's field order.  The mirror flips
# the component of a vector (U, Psi, W) normal to its line, and the other
# two components of a pseudovector (the microrotations).
_MIRROR_PARITY = {
    0: {"flexural": (-1.0, 1.0, 1.0, -1.0, 1.0, -1.0),
        "extensional": (-1.0, 1.0, -1.0)},
    1: {"flexural": (1.0, -1.0, 1.0, -1.0, -1.0, 1.0),
        "extensional": (1.0, -1.0, -1.0)},
}


@dataclass(frozen=True)
class MirrorClass:
    """Class sigma = +1 ("even") or -1 ("odd") of a mirror: the basis P
    of the half grid's dofs, whose positions in the dof set are ``rows``,
    with P[k, r] = 1 for its dof r at k and P[M k, r] = sigma s_k off the
    mirror line; ``weight`` is P's column count, 2 off the line and 1 on
    it.  P's rows restricted to ``rows`` are the identity, so a vector x
    of the class is P x[rows]."""

    name: str
    P: sp.csr_matrix
    rows: np.ndarray
    weight: np.ndarray

    def rows_of(self, A) -> sp.csr_matrix:
        """(A P)[rows]: on the class, (A x)[rows] = (A P)[rows] x[rows]."""
        return A[self.rows] @ self.P

    def form(self, A) -> sp.csr_matrix:
        """P^T A P, read off A P's half-grid rows: under the exact mirror
        row M k of A P is sigma s_k times row k, so P^T adds an off-line
        row twice."""
        B = self.rows_of(A)
        B.data *= np.repeat(self.weight, np.diff(B.indptr))
        return B


@dataclass(frozen=True)
class Mirror:
    """The line mirror on a dof set: each dof's image's position in the
    set (``mate``), its field sign s (``sign``) and twice its node's
    distance past the mirror line (``side``: < 0 on the half grid's side,
    0 on the line)."""

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

    def cls(self, sigma: float) -> MirrorClass:
        """Class sigma: +1 is "even", -1 "odd"."""
        rows = np.flatnonzero((self.side < 0) | (self.side == 0)
                              & (sigma * self.sign > 0))
        off = self.side[rows] < 0
        cols = np.arange(rows.size)
        P = sp.csr_matrix(
            (np.concatenate([np.ones(rows.size),
                             sigma * self.sign[rows[off]]]),
             (np.concatenate([rows, self.mate[rows[off]]]),
              np.concatenate([cols, cols[off]]))),
            shape=(self.mate.size, rows.size))
        return MirrorClass("even" if sigma > 0 else "odd", P, rows, 1.0 + off)

    def classes(self) -> list:
        """The even class and the odd class."""
        return [self.cls(1.0), self.cls(-1.0)]


def mirror_of(d, dofs: np.ndarray) -> Mirror | None:
    """The line mirror of discretization ``d`` on its dofs ``dofs``, in
    their order; None when a dof's image is not among them (a free node
    whose image is a Dirichlet node)."""
    axis = 1 if d.ny <= d.nx else 0  # the index along each line
    nn = d.nx * d.ny
    field, node = np.divmod(dofs, nn)
    side = 2 * np.divmod(node, d.ny)[axis] - ((d.nx, d.ny)[axis] - 1)
    pos = np.full(d.ndof, -1)
    pos[dofs] = np.arange(dofs.size)
    mate = pos[dofs - side * (1 if axis else d.ny)]
    if np.any(mate < 0):
        return None
    sign = np.asarray(_MIRROR_PARITY[axis][d.name])[field]
    return Mirror(axis, mate, sign, side)
