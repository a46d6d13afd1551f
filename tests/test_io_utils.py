import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cosserat_plate import io_utils
from cosserat_plate.dynamics import DiscreteState, ModelConfig, assemble
from cosserat_plate.material import material_from_technical
from cosserat_plate.plate_fields import KINEMATIC_FIELDS


def per_value_snapshot(path, cfg_hash, model, state):
    """Oracle: the snapshot written one formatted value at a time."""
    kin = state.kinematics()
    fields = [np.broadcast_to(np.asarray(getattr(kin, n), dtype=float),
                              model.X.shape).ravel() for n in KINEMATIC_FIELDS]
    with open(path, "w") as f:
        f.write(f"# cosserat-plate v{io_utils.__version__} "
                f"config_sha256={cfg_hash}\n")
        f.write(",".join(["x1", "x2", *KINEMATIC_FIELDS]) + "\n")
        for node, xy in enumerate(zip(model.X.ravel(), model.Y.ravel())):
            row = [*xy] + [g[node] for g in fields]
            f.write(",".join(f"{float(x):.17g}" for x in row) + "\n")


def assert_snapshot_matches_oracle(tmp_path, model, state):
    io_utils.write_snapshot(tmp_path / "new.csv", "cafe", model, state=state)
    per_value_snapshot(tmp_path / "old.csv", "cafe", model, state)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.fixture(scope="module")
def model_7x9():
    mat = material_from_technical(E=1.0, nu=0.3, N=0.3, l_t=0.05, l_b=0.06,
                                  Psi=0.8, rho=1.0, J=(0.1, 0.1, 0.1))
    return assemble(ModelConfig(
        material=mat, h=0.1, a=1.0, b=0.7, nx=7, ny=9,
        bc={e: "clamped" for e in ("left", "right", "bottom", "top")}))


def state_of(fields):
    """A state whose nine kinematic fields are ``fields`` (9, nx, ny)."""
    return DiscreteState(flex=fields[:6], ext=fields[6:],
                         flex_vel=np.zeros_like(fields[:6]),
                         ext_vel=np.zeros_like(fields[6:]))


def test_snapshot_bytes_equal_per_value_writer(tmp_path, model_7x9):
    rng = np.random.default_rng(5)
    # random bit patterns cover subnormals, huge exponents and nan payloads
    flex = rng.integers(0, 2**63, (6, 7, 9), dtype=np.uint64).view(np.float64)
    ext = rng.standard_normal((3, 7, 9))
    ext[0, :4, 0] = [np.nan, np.inf, -np.inf, -0.0]
    ext[1, :3, 0] = [5e-324, -2.5e-310, 1.7976931348623157e308]
    assert_snapshot_matches_oracle(tmp_path, model_7x9,
                                   state_of(np.concatenate([flex, ext])))


def _alternating(shape, values):
    return np.resize(np.array(values), shape[0] * shape[1]).reshape(shape)


# One field each: a field that holds one bit pattern on every node goes into
# the row template as a literal, and +0 and -0 must keep their spellings.
_COLUMNS = {
    "zero": lambda shape, rng: np.zeros(shape),
    "negative-zero": lambda shape, rng: np.full(shape, -0.0),
    "mixed-zero": lambda shape, rng: _alternating(shape, [0.0, -0.0, -0.0]),
    "constant": lambda shape, rng: np.full(shape, 0.1),
    "nan": lambda shape, rng: np.full(shape, np.nan),
    "inf": lambda shape, rng: np.full(shape, np.inf),
    "negative-inf": lambda shape, rng: np.full(shape, -np.inf),
    "mixed-nonfinite": lambda shape, rng: _alternating(
        shape, [np.nan, -np.inf, np.inf, 1e300]),
    "random": lambda shape, rng: rng.standard_normal(shape),
}


@pytest.mark.parametrize("layout", [
    list(_COLUMNS), list(_COLUMNS)[::-1], ["zero"] * 9,
    ["negative-zero"] * 9, ["random"] * 6 + ["zero"] * 3,
], ids=["every-kind", "every-kind-reversed", "all-zero",
        "all-negative-zero", "extension-at-rest"])
@pytest.mark.parametrize("grid", [(1, 1), (2, 3), (7, 9)])
def test_snapshot_constant_fields_bytes_equal_per_value_writer(
        tmp_path, model_7x9, layout, grid):
    rng = np.random.default_rng(11)
    model = model_7x9
    if grid != (7, 9):
        # assemble needs 5 x 5 nodes; the writer reads only X and Y
        model = dataclasses.replace(model_7x9,
                                    X=rng.standard_normal(grid),
                                    Y=rng.standard_normal(grid))
    fields = np.stack([_COLUMNS[kind](grid, rng) for kind in layout])
    assert_snapshot_matches_oracle(tmp_path, model, state_of(fields))


def test_snapshots_of_two_models_keep_their_own_coordinates(tmp_path,
                                                            model_7x9):
    """Each model formats its coordinate text once; written alternately,
    neither takes the other's."""
    rng = np.random.default_rng(2)
    other = dataclasses.replace(model_7x9, X=model_7x9.X + 0.25,
                                Y=-model_7x9.Y)
    for k in range(4):
        model = (model_7x9, other)[k % 2]
        fields = rng.standard_normal((9, 7, 9))
        fields[6:] = 0.0
        assert_snapshot_matches_oracle(tmp_path, model, state_of(fields))
    assert model_7x9.coordinate_text != other.coordinate_text


def json_dump_summary(path, cfg_hash, payload):
    """Oracle: the summary written by the json module's encoder."""
    payload = dict(payload, version=io_utils.__version__,
                   config_sha256=cfg_hash)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True,
                  default=io_utils._json_default)
        f.write("\n")


def assert_summary_matches_json(tmp_path, payload):
    io_utils.write_summary(tmp_path / "new.json", "cafe", payload)
    json_dump_summary(tmp_path / "old.json", "cafe", payload)
    assert (tmp_path / "new.json").read_bytes() == \
        (tmp_path / "old.json").read_bytes()


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


def test_summary_bytes_equal_json_dump(tmp_path):
    rng = np.random.default_rng(7)
    specials = np.array(SPECIAL)
    payload = {
        # strings a template writer could mistake for its own slots or
        # for non-finite numbers
        "config": {"name": "\u0001%r%s[]", "note": "nan inf NaN Infinity",
                   "n": 3, "grid": [1, 2.5, None, True]},
        "empty": np.zeros(0), "one": np.array([0.1]),
        "specials": specials, "matrix": rng.standard_normal((4, 3)),
        "stack": np.where(rng.random((3, 2, 4)) < 0.3,
                          specials[rng.integers(0, 6, (3, 2, 4))],
                          rng.standard_normal((3, 2, 4))),
        "empty_rows": np.zeros((2, 0)), "empty_stack": np.zeros((0, 3, 3)),
        "float32": np.float32(0.1), "float64": np.float64(-0.0),
        "float32s": np.array([0.1, np.nan, -np.inf], dtype=np.float32),
        "int": np.int64(-3), "ints": np.arange(6).reshape(2, 3),
        "scalar_array": np.array(2.5),
        "nested": {"modes": {"xi_mag": rng.random(5) * 10.0**rng.integers(
            -320, 300, 5)}, "": {}, "list": []},
        # more values than one formatted chunk holds, and a row that
        # alone exceeds a chunk
        "long": rng.standard_normal(io_utils._CHUNK_VALUES + 7),
        "modes": rng.standard_normal((300, 6, 6)),
        "wide": rng.standard_normal((2, io_utils._CHUNK_VALUES + 1)),
        "views": np.real(rng.standard_normal((5, 3, 3))
                         + 1j * rng.standard_normal((5, 3, 3))),
    }
    assert_summary_matches_json(tmp_path, payload)


_FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
_LEAVES = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                            min_side=0, max_side=4),
               elements=_FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2,
                                          min_side=0, max_side=3)),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**62, 2**62).map(np.int64),
    st.text(), st.none(), st.booleans(), st.integers(), st.lists(_FLOATS),
)
_PAYLOADS = st.dictionaries(st.text(max_size=4), st.recursive(
    _LEAVES, lambda tree: st.dictionaries(st.text(max_size=4), tree,
                                          max_size=3), max_leaves=8),
    max_size=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_summary_bytes_equal_json_dump_random(tmp_path, payload):
    assert_summary_matches_json(tmp_path, payload)


def row_per_value_dispersion(path, cfg_hash, results):
    """Oracle: the dispersion table built as one list per row."""
    rows = []
    for label, mags, flex, ext in results:
        for i, k in enumerate(mags):
            for b in range(flex.shape[1]):
                rows.append([label, k, b, flex[i, b], "flexural"])
            for b in range(ext.shape[1]):
                rows.append([label, k, b, ext[i, b], "extensional"])
    io_utils.write_csv(path, cfg_hash,
                       ["direction", "xi_mag", "branch", "omega", "subsystem"],
                       rows)


def test_dispersion_bytes_equal_per_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    n = io_utils._CHUNK_VALUES // 9 + 5  # more than one formatted chunk
    flex = rng.standard_normal((n, 6)) * 10.0**rng.integers(-300, 300, (n, 6))
    flex[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
    results = [("1:0", rng.random(n), flex, rng.random((n, 3))),
               ("1.5:-1", np.zeros(0), np.zeros((0, 6)), np.zeros((0, 3))),
               ("1%s:0", rng.random(2), rng.random((2, 6)), rng.random((2, 3))),
               # repeated magnitudes, each written once per branch
               ("0:1", np.array([1.0, 1.0, 0.0, -0.0, 0.0, np.nan, np.nan]),
                rng.random((7, 6)), np.zeros((7, 3)))]
    io_utils.write_dispersion(tmp_path / "new.csv", "cafe", results)
    row_per_value_dispersion(tmp_path / "old.csv", "cafe", results)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_sweep_bytes_equal_per_row_writer(tmp_path):
    """Repeated and signed-zero points, labels with %-slots, and more
    points than one formatted chunk holds."""
    rng = np.random.default_rng(4)
    distinct = [(0.1, 0.05, 0.06, 0.8), (0.0, -0.0, 1e-300, 1.0 / 3.0),
                (np.nan, 2.0, 0.5, 1e20)]
    points = [distinct[i] for i in rng.integers(0, 3, 400)]
    quantities = [("flexural_cutoff", rng.random((400, 6))),
                  ("a%s%%r", rng.standard_normal((400, 3))),
                  ("omega@k=1.5", np.full((400, 2), -0.0))]
    io_utils.write_sweep(tmp_path / "new.csv", "cafe", points, quantities)
    rows = [[*p, label, b, values[i, b]]
            for i, p in enumerate(points) for label, values in quantities
            for b in range(values.shape[1])]
    io_utils.write_csv(tmp_path / "old.csv", "cafe",
                       ["N", "l_t", "l_b", "Psi", "quantity", "branch",
                        "value"], rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
