"""Undamped free vibration with energy tracking.

Kicks the clamped plate with its fundamental-mode velocity profile,
integrates with the explicit central-difference scheme at the reported
stability bound, and shows that the total energy drift is at the dt^2
level of the integrator (quartering dt cuts it by ~16x).
"""

import numpy as np

from cosserat_plate import (
    DiscreteState,
    ModelConfig,
    assemble,
    material_from_technical,
    simulate,
    stable_dt,
)
from cosserat_plate.verification import lowest_flexural_mode

mat = material_from_technical(E=1.0, nu=0.3, N=0.4, l_t=0.05, l_b=0.06,
                              Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
cfg = ModelConfig(material=mat, h=0.1, a=1.0, b=1.0, nx=17, ny=17,
                  bc={e: "clamped" for e in ("left", "right", "bottom", "top")})
model = assemble(cfg)

omega0, mode = lowest_flexural_mode(model)
print(f"fundamental flexural frequency: {omega0:.4f} rad/s")

state = DiscreteState.zero(model)
fv = state.flex_vel.reshape(6, -1).copy().ravel()
fv[model.flex_d.free_dofs] = mode / np.max(np.abs(mode))
state = DiscreteState(flex=state.flex, ext=state.ext,
                      flex_vel=fv.reshape(6, model.nx, model.ny),
                      ext_vel=state.ext_vel)

dt = stable_dt(model)
t_final = 2000 * dt
for run_dt, label in ((dt, "stable dt"), (dt / 4, "dt/4")):
    traj = simulate(model, t_final=t_final, dt=run_dt, snapshot_every=40,
                    initial=state)
    e = traj.energy.as_arrays()
    drift = np.max(np.abs(e["total"] - e["total"][0])) / e["total"][0]
    print(f"{label:>9}: {traj.n_steps:6d} steps, relative energy drift "
          f"{drift:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    traj = simulate(model, t_final=t_final, dt=dt, snapshot_every=10,
                    initial=state)
    e = traj.energy.as_arrays()
    plt.figure(figsize=(6, 3.4))
    plt.plot(e["t"], e["kinetic"], label="kinetic")
    plt.plot(e["t"], e["strain"], label="strain")
    plt.plot(e["t"], e["total"], "k", label="total")
    plt.xlabel("t")
    plt.ylabel("energy")
    plt.legend()
    plt.tight_layout()
    plt.savefig("free_vibration_energy.png", dpi=150)
    print("saved free_vibration_energy.png")
except ImportError:
    pass
