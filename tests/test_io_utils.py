import numpy as np

from cosserat_plate import io_utils
from cosserat_plate.dynamics import DiscreteState, ModelConfig, assemble
from cosserat_plate.material import material_from_technical
from cosserat_plate.plate_fields import KINEMATIC_FIELDS


def per_value_snapshot(path, cfg_hash, model, state):
    """Oracle: the snapshot written one formatted value at a time."""
    kin = state.kinematics()
    fields = [np.broadcast_to(np.asarray(getattr(kin, n), dtype=float),
                              model.X.shape) for n in KINEMATIC_FIELDS]
    with open(path, "w") as f:
        f.write(f"# cosserat-plate v{io_utils.__version__} "
                f"config_sha256={cfg_hash}\n")
        f.write(",".join(["x1", "x2", *KINEMATIC_FIELDS]) + "\n")
        for i in range(model.nx):
            for j in range(model.ny):
                row = [model.X[i, j], model.Y[i, j]] + [g[i, j] for g in fields]
                f.write(",".join(f"{float(x):.17g}" for x in row) + "\n")


def test_snapshot_bytes_equal_per_value_writer(tmp_path):
    mat = material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                  Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
    model = assemble(ModelConfig(
        material=mat, h=0.1, a=1.0, b=0.7, nx=7, ny=9,
        bc={e: "clamped" for e in ("left", "right", "bottom", "top")}))
    rng = np.random.default_rng(5)
    # random bit patterns cover subnormals, huge exponents and nan payloads
    flex = rng.integers(0, 2**63, (6, 7, 9), dtype=np.uint64).view(np.float64)
    ext = rng.standard_normal((3, 7, 9))
    ext[0, :4, 0] = [np.nan, np.inf, -np.inf, -0.0]
    ext[1, :3, 0] = [5e-324, -2.5e-310, 1.7976931348623157e308]
    state = DiscreteState(flex=flex, ext=ext, flex_vel=np.zeros_like(flex),
                          ext_vel=np.zeros_like(ext))
    io_utils.write_snapshot(tmp_path / "new.csv", "cafe", model, state=state)
    per_value_snapshot(tmp_path / "old.csv", "cafe", model, state)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
