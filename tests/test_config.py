"""The CLI's config schema (``cli.parse_config``): every key's default and
check in one table, applied before any output or numerics."""

import copy
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosserat_plate import cli
from cosserat_plate.cli import run

README = Path(__file__).parents[1] / "README.md"

# A valid config with every section, small enough that each command takes
# a few milliseconds.
BASE = {
    "material": {"lambda": 1.0, "mu": 1.0, "alpha": 1.0, "beta": 1.0,
                 "gamma": 1.0, "epsilon": 1.0, "rho": 1.0,
                 "J": [1.0, 1.0, 1.0]},
    "geometry": {"a": 1.0, "b": 1.0, "h": 0.1},
    "grid": {"nx": 7, "ny": 7},
    "bc": {"left": "clamped", "right": "clamped", "bottom": "clamped",
           "top": "clamped"},
    "loads": {
        "p": {"preset": "constant", "amplitude": 1.0},
        "sigma0": {"preset": "sinusoidal", "amplitude": 1, "kx": 1, "ky": 1,
                   "omega": 0.0, "lx": 1.0, "ly": 1.0},
        "t": {"preset": "gaussian-pulse", "amplitude": 1,
              "center": [0.5, 0.5], "width": 0.1, "t0": 0.02, "tau": 0.05},
    },
    "time": {"t_final": 0.05, "dt": None, "snapshot_every": 50},
    "initial": {"field": "w", "kind": "velocity", "amplitude": 1.0,
                "center": [0.5, 0.5], "width": 0.15},
    "mode": {"shear_correction": "standard"},
    "dispersion": {"directions": [[1, 0]], "k_min": 0.01, "k_max": 100,
                   "n": 4, "modes": False},
    "sweep": {"N": [0.2], "l_t": [0.05], "l_b": [0.05], "Psi": [1.0],
              "xi_mag": 1.0,
              "base": {"E": 1, "nu": 0.3, "rho": 1, "J": [1, 1, 1],
                       "h": 0.1}},
}
# The sections, or single keys, that each command reads
_PLANE_WAVE = {"material", "geometry.h", "mode"}
_MODEL = {"material", "geometry", "grid", "bc", "loads", "mode"}
READS = {"validate": {"material"}, "constants": _PLANE_WAVE,
         "static": _MODEL, "simulate": _MODEL | {"time", "initial"},
         "dispersion": _PLANE_WAVE | {"dispersion"}, "sweep": {"sweep"}}
FUZZ_VALUES = [None, "x", [], {}, -1, 0, True, 1e308, [1, 2, 3, 4], [[1]],
               "nan"]


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


# (leaf, command) for every leaf and every command that reads it
CASES = [(path, command) for path in _leaves(BASE) for command in READS
         if {path[0], f"{path[0]}.{path[1]}"} & READS[command]]


def _with(path, value, cfg=BASE):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return cfg


def _run(work: Path, cfg, command: str) -> int:
    path = work / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run([command, "--config", str(path), "--out", str(work / "out")])


def _fuzz(work: Path, cases, value) -> list:
    """The cases that do not end in exit 0, 1 or 2, each with what it did."""
    bad = []
    with warnings.catch_warnings():  # an accepted input may still warn
        warnings.simplefilter("ignore", RuntimeWarning)
        for path, command in cases:
            try:
                code = _run(work, _with(path, value), command)
            except Exception as exc:  # noqa: BLE001 - the fuzz looks for these
                code = repr(exc)
            if code not in (0, 1, 2):
                bad.append((path, command, code))
    return bad


def test_base_config_runs_every_command(tmp_path, capsys):
    for command in READS:
        assert _run(tmp_path, BASE, command) == 0, capsys.readouterr().err


@pytest.mark.parametrize("value", [1e308, 0])
def test_every_leaf_at_huge_or_zero_exits_cleanly(tmp_path, capsys, value):
    """Each leaf, set to 1e308 or 0, for each command that reads it: the
    two values that ended 23 runs in an exception (an OverflowError, a
    ZeroDivisionError, a NaN cast or numpy's array size limit)."""
    assert _fuzz(tmp_path, CASES, value) == []


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(FUZZ_VALUES))
def test_random_leaf_values_exit_cleanly(fuzz_dir, case, value):
    assert _fuzz(fuzz_dir, [case], value) == []


@pytest.mark.parametrize("command,path,value,named", [
    *[(c, ("material", "alpha"), 1e308, "alpha = 1e+308")
      for c in ("constants", "static", "simulate", "dispersion")],
    *[("simulate", ("material", k), 1e308, "matrix not finite")
      for k in ("lambda", "mu", "gamma", "epsilon")],
    *[("static", ("material", k), 1e308, "matrix not finite")
      for k in ("lambda", "mu", "gamma", "epsilon")],
    *[(c, ("geometry", "h"), 1e308, "'geometry.h'")
      for c in ("constants", "static", "simulate", "dispersion")],
    ("static", ("geometry", "a"), 1e308, "geometry a = 1e+308"),
    ("simulate", ("geometry", "b"), 1e308, "geometry a = 1.0, b = 1e+308"),
    *[(c, ("grid", k), 1e308, "9 nx ny < 2^31")
      for c in ("static", "simulate") for k in ("nx", "ny")],
    *[(c, ("loads", "t", k), 1e308, f"'loads.t.{k}'")
      for c in ("static", "simulate") for k in ("width", "tau")],
    ("simulate", ("initial", "width"), 1e308, "'initial.width'"),
    *[(c, ("loads", *leaf), 1e308, f"'loads.{leaf[0]}.{leaf[1]}'")
      for c in ("static", "simulate")
      for leaf in (("p", "amplitude"), ("sigma0", "amplitude"),
                   ("sigma0", "kx"), ("sigma0", "ky"), ("t", "amplitude"),
                   ("t", "center", 0), ("t", "center", 1))],
    *[("simulate", ("initial", *leaf), 1e308, f"'initial.{leaf[0]}'")
      for leaf in (("amplitude",), ("center", 0), ("center", 1))],
    *[("constants", ("material", k), 1e308, "derived constant E = inf")
      for k in ("lambda", "mu")],
    ("simulate", ("time", "t_final"), 1e308, "t_final / dt = 1e+308"),
    ("dispersion", ("dispersion", "directions", 0, 0), 1e308,
     "'dispersion.directions'"),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_overflowing_input_is_named(tmp_path, capsys, command, path, value,
                                    named):
    """Each ended in an exception, or for static in a solver failure
    (exit 1) blamed on the factorisation; the huge direction normalised to
    zero, silently.  A huge load value ended static and simulate in a
    solver failure, or for a center ran on a load or kick that underflowed
    to zero; constants printed inf and nan."""
    assert _run(tmp_path, _with(path, value), command) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


def test_zero_polar_ratio_is_a_skipped_sweep_point(tmp_path, capsys):
    """Psi = 0 ended the sweep in a ZeroDivisionError."""
    cfg = _with(("sweep", "Psi"), [0.0, 1.0])
    assert _run(tmp_path, cfg, "sweep") == 0
    out = capsys.readouterr().out
    assert "skip N=0.2 l_t=0.05 l_b=0.05 Psi=0.0: polar ratio" in out
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
    assert rows and {row.split(",")[3] for row in rows} == {"1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,path,where", [
    ("dispersion", ("material", "lambda"), "k=(0.01, 0.0)"),
    ("dispersion", ("material", "mu"), "k=(0.01, 0.0)"),
    ("dispersion", ("material", "epsilon"), "k=(100.0, 0.0)"),
    ("dispersion", ("dispersion", "k_max"), "k=(1e+308, 0.0)"),
    ("sweep", ("sweep", "xi_mag"),
     "N=0.2 l_t=0.05 l_b=0.05 Psi=1.0, k=(1e+308, 0.0)"),
    ("sweep", ("sweep", "base", "E"),
     "N=0.2 l_t=0.05 l_b=0.05 Psi=1.0, k=(0.0, 0.0)"),
], ids=["lambda", "mu", "epsilon", "k_max", "xi_mag", "base-E"])
def test_refused_plane_wave_input_warns_of_nothing(tmp_path, capsys, command,
                                                   path, where):
    """Each printed NumPy overflow warnings before its one-line error."""
    assert _run(tmp_path, _with(path, 1e308), command) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: wave matrix not finite at "
                            f"{where}: an input lies outside the range of "
                            f"double precision\n")


@pytest.mark.parametrize("command", ["static", "simulate", "dispersion",
                                     "sweep", "verify"])
def test_refused_config_creates_no_output_directory(tmp_path, command):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gird": {}}))
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["lambda", "mu", "epsilon"])
def test_missing_material_key_is_named(tmp_path, capsys, key):
    material = {k: v for k, v in BASE["material"].items() if k != key}
    assert _run(tmp_path, {"material": material}, "validate") == 2
    assert f"'material.{key}' is required" in capsys.readouterr().err


@pytest.mark.parametrize("load", [
    {"preset": "gaussian-pulse", "width": 0}, {"preset": "sinusoidal",
                                               "kx": 1.5},
    {"preset": "ramp"}, {"amplitdue": 1.0}, [1.0],
], ids=["width-zero", "kx-fraction", "preset-unknown", "key-typo", "list"])
def test_static_checks_loads_before_assembling(tmp_path, capsys,
                                               monkeypatch, load):
    def no_assemble(config):
        raise AssertionError("assembled before checking 'loads'")

    monkeypatch.setattr(cli, "assemble", no_assemble)
    assert _run(tmp_path, _with(("loads", "p"), load), "static") == 2
    assert "'loads.p" in capsys.readouterr().err


def test_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    """A KeyError is a fault of the program: it is raised, not reported as
    a configuration error (exit 2)."""
    def faulty(config):
        raise KeyError("x")

    monkeypatch.setattr(cli, "assemble", faulty)
    with pytest.raises(KeyError):
        _run(tmp_path, BASE, "static")


def test_command_checks_only_the_sections_it_reads(tmp_path, capsys):
    """Key names are checked in every section; values only where read."""
    cfg = _with(("dispersion", "n"), "x", _with(("grid", "nx"), "x"))
    assert _run(tmp_path, cfg, "validate") == 0
    assert _run(tmp_path, cfg, "sweep") == 0
    assert _run(tmp_path, _with(("geometry", "a"), "x"), "constants") == 0
    assert _run(tmp_path, _with(("grid", "nz"), 7), "validate") == 2
    assert "'nz'" in capsys.readouterr().err


def _schema_rows():
    """(key, default, accepted values) of every schema row, as the README
    table writes them."""
    for section, rows in cli._SCHEMA.items():
        for key, (default, check) in rows.items():
            if default is cli._REQUIRED:
                text = "required"
            else:
                if isinstance(default, cli._Api):
                    default = default.value(key)
                text = f"`{json.dumps(default)}`"
            yield f"{section}.{key}", text, check.__doc__


def test_readme_schema_table_matches_the_schema():
    table = re.findall(r"^\| `([^`]+)` \| (.+?) \| (.+?) \|$",
                       README.read_text(), flags=re.MULTILINE)
    assert table == list(_schema_rows())
