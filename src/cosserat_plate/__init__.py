"""Dynamics of thin Cosserat (micropolar) elastic plates.

Layers, bottom-up: raw moduli and derived constants (`material`), the 3D
constitutive ground truth (`cosserat3d`), plate field containers
(`plate_fields`), the plate constitutive algebra (`plate_constitutive`),
the flexural/extensional governing operators (`operators`), plane-wave
dispersion (`dispersion`), finite-difference statics and explicit dynamics
(`dynamics`), the mixed variational diagnostic (`hpr`) and the verification
suites (`verification`).

The names of the SciPy-free layers load eagerly.  Those of `dynamics` and
`hpr`, and the two modules themselves, resolve on first access (PEP 562):
their static and explicit solvers import SciPy, which alone takes about
half of a fresh `import cosserat_plate`, and plane-wave dispersion, the
material checks and the derived constants never need it.  A resolved name
is bound here, so it is the very object its home module defines.
"""

from .material import (
    MaterialParams,
    MaterialError,
    ReciprocalParams,
    TechnicalConstants,
    ValidationReport,
    material_from_technical,
    reciprocal_constants,
    technical_constants,
    validate_parameters,
)
from .cosserat3d import (
    Strain3D,
    Stress3D,
    energy_densities_3d,
    strain_from_stress_3d,
    stress_from_strain_3d,
)
from .plate_fields import (
    InertiaSet,
    LoadSet,
    PlateKinematics,
    PlateStrain,
    PlateStress,
    inertia_constants,
    kinetic_density,
    kinetic_energy_density,
    weighted_from_microrotation,
)
from .plate_constitutive import (
    internal_work_density,
    plate_energy_density,
    resultants_from_profiles,
    strain_from_kinematics,
    strain_from_stress,
    stress_from_kinematics,
    thickness_profiles,
)
from .operators import (
    ExtensionalOperator,
    FlexuralOperator,
    apply_to_polynomials,
    build_extensional,
    build_extensional_stack,
    build_flexural,
    build_flexural_stack,
    build_traction,
    coefficient_diff_table,
    operator_residual_oracle,
)
from .dispersion import (
    CutoffReport,
    DispersionResult,
    NonConservativeSymbolError,
    cutoff_frequencies,
    dispersion_curves,
)

# lazy name -> (module, attribute); attribute None is the module itself
_LAZY = {
    "dynamics": (".dynamics", None),
    "hpr": (".hpr", None),
    **{name: (".dynamics", name) for name in (
        "ConfigError", "ConstantLoad", "DiscreteModel", "DiscreteState",
        "EdgeBC", "EnergyLog", "GaussianPulseLoad", "InstabilityError",
        "LoadFunctions", "ModelConfig", "SingularSystemError",
        "SinusoidalLoad", "assemble", "simulate", "stable_dt",
        "static_solve", "step")},
    **{name: (".hpr", name) for name in (
        "HPRFunctional", "HPRState", "equilibrium_state",
        "random_admissible_perturbation")},
}


def _resolve_lazily(namespace: dict, table: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module whose
    globals are ``namespace`` and whose lazy names ``table`` maps to
    (module, attribute), attribute None meaning the module itself.  A
    resolved name is bound in ``namespace``."""
    import importlib

    def __getattr__(name):
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}") from None
        value = importlib.import_module(module, namespace["__name__"])
        if attr is not None:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__


__all__ = [name for name in (*globals(), *_LAZY) if not name.startswith("_")]
__getattr__, __dir__ = _resolve_lazily(globals(), _LAZY)

__version__ = "0.1.0"
