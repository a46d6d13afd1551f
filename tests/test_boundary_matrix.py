"""Every documented boundary pattern through the acceptance gates.

Verify's dynamic suite runs a clamped plate only; these cells run its
gates on other edge patterns, at its material and 17^2 grid.
"""

import logging

import pytest

from cosserat_plate import dynamics, verification
from cosserat_plate.dynamics import EDGES, ModelConfig, assemble
from test_dynamics import kernel_lines, verify_material

# the kernel line of each run: the cantilever's clamped edge breaks its
# i-mirror, the top traction edge the j-mirror, and the right+top traction
# plate has no mirror
CRITERION_08_PLATES = {
    "cantilever": (
        dict.fromkeys(EDGES, "traction") | {"left": "clamped"},
        "flexural even class of mirror j (816 of 2448 free dofs)"),
    "right-top-traction": (
        dict.fromkeys(EDGES, "clamped") | {"right": "traction",
                                          "top": "traction"},
        "flexural (1536 of 2304 free dofs)"),
    "top-traction": (
        dict.fromkeys(EDGES, "clamped") | {"top": "traction"},
        "flexural odd class of mirror i (720 of 2160 free dofs)"),
}


@pytest.mark.parametrize("plate", sorted(CRITERION_08_PLATES))
def test_criterion_08_gates(plate, caplog):
    """Criterion 08's gates from the plate's lowest flexural mode: energy
    drift below 1e-3 over 10,000 steps at ``stable_dt``, and at least
    x10 less at dt/4 (x16.0 measured on every plate)."""
    bc, stepped = CRITERION_08_PLATES[plate]
    model = assemble(ModelConfig(material=verify_material(), h=0.1, a=1.0,
                                 b=1.0, nx=17, ny=17, bc=bc))
    with caplog.at_level(logging.DEBUG, logger=dynamics.__name__):
        drift, quarter = verification.mode_energy_drifts(model, 10_000)
    assert kernel_lines(caplog) == [
        f"kernel: stepping {stepped}; extensional at rest"] * 2
    assert drift < 1e-3 and drift / quarter >= 10.0, (drift, quarter)
