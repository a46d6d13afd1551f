"""Finite-difference discretization (``discretization``), static solves
(``static``) and explicit dynamics (``explicit``); the last two import only
the first, and this package re-exports their names.

The names of ``discretization`` load eagerly and without SciPy, which it
imports only where it builds the sparse rows.  ``static`` and ``explicit``
import SciPy at module level, so their names, the modules themselves and
``spla`` (``scipy.sparse.linalg``, through which the static factor of a
nonsymmetric system calls SuperLU) resolve on first access (PEP 562): a
command that never assembles a model, such as ``dispersion``, never loads
SciPy.  A resolved name is bound in this namespace, so it is the very
object its home module defines.
"""

from .. import _resolve_lazily
from .discretization import (EDGE_TABLE, EDGES, ConfigError, ConstantLoad,
                             DiscreteModel, EdgeBC, GaussianPulseLoad,
                             InstabilityError, LoadFunctions, ModelConfig,
                             SingularSystemError, SinusoidalLoad,
                             _envelope_sum, assemble, checked_number,
                             checked_pair, edge_line)

# lazy name -> (module, attribute); attribute None is the module itself
_LAZY = {
    "spla": ("scipy.sparse.linalg", None),
    "explicit": (".explicit", None),
    "static": (".static", None),
    **{name: (".explicit", name) for name in (
        "GUARD_EVERY", "DiscreteState", "EnergyLog", "Trajectory",
        "simulate", "stable_dt", "step")},
    **{name: (".static", name) for name in (
        "_line_order", "_nested_dissection", "_static_rhs", "_StaticFactor",
        "static_solve", "worst_static_row")},
}

__all__ = [name for name in (*globals(), *_LAZY) if not name.startswith("_")]
__getattr__, __dir__ = _resolve_lazily(globals(), _LAZY)
