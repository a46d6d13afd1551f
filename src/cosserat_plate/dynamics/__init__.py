"""Finite-difference discretization (``discretization``), static solves
(``static``) and explicit dynamics (``explicit``); the last two import only
the first, and this package re-exports their names."""

import scipy.sparse.linalg as spla

from .discretization import (EDGE_TABLE, EDGES, ConfigError, ConstantLoad,
                             DiscreteModel, EdgeBC, GaussianPulseLoad,
                             InstabilityError, LoadFunctions, ModelConfig,
                             SingularSystemError, SinusoidalLoad,
                             _envelope_sum, assemble, checked_number,
                             checked_pair, edge_line)
from .explicit import (GUARD_EVERY, DiscreteState, EnergyLog, Trajectory,
                       simulate, stable_dt, step)
from .static import (_nested_dissection, _static_rhs, _StaticFactor,
                     static_solve, worst_static_row)
