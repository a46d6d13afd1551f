import dataclasses
import itertools
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from cosserat_plate import cli, verification
from cosserat_plate.cli import run
from cosserat_plate.dispersion import cutoff_frequencies, dispersion_curves
from cosserat_plate.io_utils import config_hash, write_csv
from cosserat_plate.material import (
    MaterialError,
    material_from_technical,
    technical_constants,
)
from cosserat_plate.operators import (
    build_extensional,
    build_flexural,
    build_flexural_stack,
)
from cosserat_plate.plate_fields import inertia_constants
from conftest import run_fresh


@pytest.fixture
def material_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({
        "lambda": 1.0, "mu": 1.0, "alpha": 1.0, "beta": 1.0,
        "gamma": 1.0, "epsilon": 1.0, "rho": 1.0, "J": [1.0, 1.0, 1.0],
    }))
    return str(path)


@pytest.fixture
def config_file(tmp_path, material_file):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "material": material_file,
        "geometry": {"a": 1.0, "b": 1.0, "h": 1.0},
        "grid": {"nx": 7, "ny": 7},
        "bc": {e: "clamped" for e in ("left", "right", "bottom", "top")},
        "loads": {"p": {"preset": "constant", "amplitude": 1.0}},
        "time": {"t_final": 0.2, "snapshot_every": 100},
    }))
    return str(path)


def test_validate_admissible_exits_zero(config_file, capsys):
    assert run(["validate", "--config", config_file]) == 0
    assert "admissible" in capsys.readouterr().out


def test_validate_inadmissible_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "material": {"lambda": 1, "mu": 1, "alpha": 0, "beta": 1,
                     "gamma": 1, "epsilon": 1, "rho": 1, "J": [1, 1, 1]},
    }))
    assert run(["validate", "--config", str(cfg)]) == 2
    assert "alpha>0" in capsys.readouterr().out


def test_missing_config_is_config_error(tmp_path):
    assert run(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_constants_prints_examples(config_file, capsys):
    assert run(["constants", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "nu       = 0.25" in out
    assert "D        = 0.2222222222" in out


def test_static_outputs(config_file, tmp_path):
    out = tmp_path / "static"
    assert run(["static", "--config", config_file, "--out", str(out)]) == 0
    snap = (out / "static_snapshot.csv").read_text().splitlines()
    assert snap[0].startswith("# cosserat-plate v")
    assert snap[1] == "x1,x2,psi1,psi2,w,omega3,omega1_0,omega2_0,u1,u2,omega3_0"
    assert len(snap) == 2 + 7 * 7
    summary = json.loads((out / "static_summary.json").read_text())
    assert "config_sha256" in summary and "center_w" in summary


def test_static_summary_reports_backward_errors(config_file, tmp_path,
                                               capsys):
    """Both normwise backward errors sit beside the residuals; the printed
    gate is still the max relative residual."""
    out = tmp_path / "static"
    assert run(["static", "--config", config_file, "--out", str(out)]) == 0
    residuals = json.loads((out / "static_summary.json").read_text())[
        "residuals"]
    assert sorted(residuals) == [
        "extensional_backward_error", "extensional_residual",
        "extensional_rhs_scale", "flexural_backward_error",
        "flexural_residual", "flexural_rhs_scale"]
    for name in ("flexural", "extensional"):
        assert 0.0 <= residuals[f"{name}_backward_error"] < 1e-14
    resid = max(residuals[f"{n}_residual"] / residuals[f"{n}_rhs_scale"]
                for n in ("flexural", "extensional"))
    assert f"max relative residual {resid:.3e}" in capsys.readouterr().out


def test_pressure_only_static_factors_the_flexural_block_alone(
        config_file, tmp_path, static_factors):
    """Pressure loads the flexural subsystem alone, so the extensional
    right-hand side is zero: that block is not factored, and u1, u2 and
    omega3_0 are written as 0.  Factoring it gave -0 at every free node."""
    path = _edited_config(config_file, tmp_path,
                          lambda c: c.update(grid={"nx": 9, "ny": 9}))
    out = tmp_path / "static"
    assert run(["static", "--config", path, "--out", str(out)]) == 0
    assert len(static_factors) == 1
    rows = (out / "static_snapshot.csv").read_text().splitlines()[2:]
    assert len(rows) == 9 * 9
    assert not any(v == "-0" for row in rows for v in row.split(","))
    residuals = json.loads((out / "static_summary.json").read_text())[
        "residuals"]
    assert (residuals["extensional_residual"],
            residuals["extensional_rhs_scale"],
            residuals["extensional_backward_error"]) == (0.0, 1e-300, 0.0)


def test_alpha_close_to_mu_runs(tmp_path, capsys):
    """A material with alpha ~ mu (N = 0.7071067, where K11 and C_G2
    cancel to roundoff) passes validate, and constants, a clamped 9^2
    static solve and dispersion all run on it."""
    p = material_from_technical(E=1.0, nu=0.3, N=0.7071067, l_t=0.05,
                                l_b=0.06, Psi=0.8, rho=1.0, J=(0.1,) * 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"material": dataclasses.asdict(p),
                               "grid": {"nx": 9, "ny": 9},
                               "dispersion": {"n": 5}}))
    for command in ("validate", "constants", "static", "dispersion"):
        code = run([command, "--config", str(cfg),
                    "--out", str(tmp_path / command)])
        assert code == 0, (command, capsys.readouterr().err)


def test_static_deterministic(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["static", "--config", config_file, "--out", str(out1)]) == 0
    assert run(["static", "--config", config_file, "--out", str(out2)]) == 0
    for name in ("static_snapshot.csv", "static_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _edited_config(config_file, tmp_path, edit):
    cfg = json.loads(Path(config_file).read_text())
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "static"])
def test_grid_typo_is_config_error(config_file, tmp_path, capsys, command):
    """A misspelt section used to run a 33^2 default solve and exit 0."""
    path = _edited_config(config_file, tmp_path,
                          lambda c: c.update(gird=c.pop("grid")))
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "'gird'" in capsys.readouterr().err


@pytest.mark.parametrize("edit,key", [
    (lambda c: c["grid"].update(nz=7), "'nz'"),
    (lambda c: c["time"].update(snapshot_evry=5), "'snapshot_evry'"),
    (lambda c: c["loads"]["p"].update(amplitdue=2.0), "'amplitdue'"),
    (lambda c: c["loads"].update(q={"preset": "constant"}), "'q'"),
    (lambda c: c.update(material={"lambda": 1, "mu": 1, "alpha": 1,
                                  "beta": 1, "gamma": 1, "epsilon": 1,
                                  "rho": 1, "J": [1, 1, 1], "eps": 1}),
     "'eps'"),
    (lambda c: c.update(sweep={"base": {"E": 1.0, "nuu": 0.3}}), "'nuu'"),
], ids=["grid", "time", "load", "loads", "material", "sweep-base"])
def test_unknown_section_key_is_config_error(config_file, tmp_path, capsys,
                                             edit, key):
    path = _edited_config(config_file, tmp_path, edit)
    assert run(["static", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"dispersion": {"directions": [[0, 0]]}},
    {"dispersion": {"directions": [[1, float("nan")]]}},
    {"dispersion": {"directions": [[1, 0, 0]]}},
    {"dispersion": {"directions": [1, 0]}},
    {"dispersion": {"directions": []}},
    {"dispersion": {"directions": None}},
    {"dispersion": {"k_min": -1}},
    {"dispersion": {"k_min": 0}},
    {"dispersion": {"k_min": 10, "k_max": 1}},
    {"dispersion": {"k_max": float("inf")}},
    {"dispersion": {"n": 0}},
    {"dispersion": {"n": 12.7}},
    {"dispersion": {"n": True}},
    {"dispersion": {"modes": "false"}},
    {"dispersion": {"modes": 1}},
    {"sweep": {"xi_mag": float("nan")}},
    {"sweep": {"xi_mag": float("inf")}},
], ids=["zero-direction", "nan-direction", "three-components", "not-pairs",
        "no-directions", "null-directions", "negative-k_min", "zero-k_min", "k_min-above-k_max",
        "infinite-k_max", "n-zero", "n-fraction", "n-bool", "modes-text",
        "modes-int", "nan-xi_mag", "infinite-xi_mag"])
def test_bad_plane_wave_input_is_config_error(config_file, tmp_path, capsys,
                                              section):
    """A zero direction, a negative k_min or null directions used to end in
    a traceback; a fractional or boolean n was truncated, and "modes":
    "false" wrote the mode file."""
    command = next(iter(section))
    path = _edited_config(config_file, tmp_path, lambda c: c.update(section))
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


def _gaussian(**kw):
    return {"preset": "gaussian-pulse", "amplitude": 1.0, "width": 0.2, **kw}


def _sinusoidal(**kw):
    return {"preset": "sinusoidal", "amplitude": 1.0, **kw}


@pytest.mark.parametrize("command,edit,where", [
    ("static", lambda c: c["grid"].update(nx="abc"), "'grid.nx'"),
    ("static", lambda c: c["grid"].update(nx=7.5), "'grid.nx'"),
    ("static", lambda c: c["geometry"].update(h="thin"), "'geometry.h'"),
    ("static", lambda c: c["material"].update(mu="x"), "'material'"),
    ("static", lambda c: c["loads"]["p"].update(amplitude="x"), "amplitude"),
    ("static", lambda c: c["loads"].update(
        p=_gaussian(amplitude=float("nan"))), "amplitude"),
    ("static", lambda c: c["loads"].update(p=_gaussian(width=0)), "width"),
    ("static", lambda c: c["loads"].update(p=_gaussian(tau=0)), "tau"),
    ("static", lambda c: c["loads"].update(p=_gaussian(center="ab")),
     "center"),
    ("static", lambda c: c["loads"].update(p=_sinusoidal(kx=1.5)), "kx"),
    ("static", lambda c: c["loads"].update(p=_sinusoidal(ly=0)), "ly"),
    ("simulate", lambda c: c["time"].update(t_final="x"), "'time.t_final'"),
    ("simulate", lambda c: c["time"].update(dt="x"), "'time.dt'"),
    ("simulate", lambda c: c["time"].update(dt=-0.1), "'time.dt'"),
    ("simulate", lambda c: c["time"].update(snapshot_every=2.5),
     "'time.snapshot_every'"),
    ("simulate", lambda c: c["time"].update(snapshot_every=True),
     "'time.snapshot_every'"),
    ("simulate", lambda c: c.update(initial={"amplitude": "x"}),
     "'initial.amplitude'"),
    ("sweep", lambda c: c.update(sweep={"N": ["x"]}), "'sweep.N'"),
    ("sweep", lambda c: c.update(sweep={"base": {"E": "x"}}),
     "'sweep.base.E'"),
    ("sweep", lambda c: c.update(sweep={"base": {"J": [1, 1]}}),
     "'sweep.base.J'"),
    ("sweep", lambda c: c.update(sweep={"base": {"nu": -1}}),
     "'sweep.base.nu'"),
    ("sweep", lambda c: c.update(sweep={"base": {"nu": 0.5}}),
     "'sweep.base.nu'"),
    ("sweep", lambda c: c.update(sweep={"base": {"E": 0}}),
     "'sweep.base.E'"),
    ("sweep", lambda c: c.update(sweep={"base": {"h": -0.1}}),
     "'sweep.base.h'"),
    ("sweep", lambda c: c.update(sweep={"base": {"J": [0, 1, 1]}}),
     "'sweep.base.J'"),
    ("simulate", lambda c: c["time"].update(snapshot_every=-2),
     "snapshot_every"),
    ("simulate", lambda c: c["geometry"].update(a=True), "'geometry.a'"),
    ("simulate", lambda c: c["time"].update(t_final=True), "'time.t_final'"),
    ("simulate", lambda c: c["loads"]["p"].update(amplitude=True),
     "amplitude"),
    ("validate", lambda c: c["material"].update(rho=True), "rho"),
    ("validate", lambda c: c["material"].update(J=[1, 1, 1, 1]), "J"),
    ("simulate", lambda c: c["material"].update(J=[1, 1, 1, 1]), "J"),
    ("sweep", lambda c: c.update(sweep={"xi_mag": 1e308}),
     "N=0.1 l_t=0.05 l_b=0.05 Psi=1.0, k=(1e+308, 0.0)"),
    ("sweep", lambda c: c.update(sweep={"base": {"E": 1e308}}),
     "N=0.1 l_t=0.05 l_b=0.05 Psi=1.0, k=(0.0, 0.0)"),
    ("sweep", lambda c: c.update(sweep={"base": {"h": 1e308}}),
     "'sweep.base.h'"),
    ("sweep", lambda c: c.update(sweep={"l_t": [0.05, 1e308]}),
     "l_t=1e+308"),
    ("sweep", lambda c: c.update(sweep={"l_b": [1e308]}), "l_b=1e+308"),
    ("dispersion", lambda c: c.update(dispersion={"k_max": 1e160}), "k=("),
    ("dispersion", lambda c: c["material"].update(mu=1e308), "k=("),
], ids=["nx-text", "nx-fraction", "h-text", "material-text", "amplitude-text",
        "amplitude-nan", "width-zero", "tau-zero", "center-text",
        "kx-fraction", "ly-zero", "t_final-text", "dt-text", "dt-negative",
        "snapshot_every-fraction", "snapshot_every-bool", "initial-text", "sweep-N-text",
        "sweep-E-text", "sweep-J-short", "sweep-nu-minus-one",
        "sweep-nu-half", "sweep-E-zero", "sweep-h-negative", "sweep-J-zero",
        "snapshot_every-negative", "a-bool",
        "t_final-bool", "amplitude-bool", "validate-rho-bool",
        "validate-J-long", "simulate-J-long", "sweep-xi_mag-huge",
        "sweep-E-huge", "sweep-h-huge", "sweep-l_t-huge", "sweep-l_b-huge",
        "dispersion-k_max-huge", "dispersion-mu-huge"])
def test_malformed_number_is_config_error(config_file, tmp_path, capsys,
                                          command, edit, where):
    """Each used to end in a traceback, a misattributed solver failure, a
    silently truncated value or, for a sweep base constant that no point
    can be admissible with, in a sweep that skips every point.  A finite
    value too large for double precision names the key, the sweep point
    or the wavevector where it overflowed."""
    cfg = json.loads(Path(config_file).read_text())
    cfg["material"] = json.loads(Path(cfg["material"]).read_text())
    edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path),
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and where in err


@pytest.mark.parametrize("preset", [[], {}, 1, None])
def test_non_string_load_preset_is_config_error(config_file, tmp_path,
                                                capsys, preset):
    """"preset": [] used to end in an unhashable-type TypeError."""
    path = _edited_config(config_file, tmp_path,
                          lambda c: c["loads"]["p"].update(preset=preset))
    assert run(["static", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    assert "unknown load preset" in capsys.readouterr().err


@pytest.mark.parametrize("time", [
    {"t_final": 0}, {"t_final": -1.0}, {"t_final": "x"}, {"dt": -0.1},
    {"dt": 0}, {"snapshot_every": 2.5}, {"snapshot_every": -2},
    {"snapshot_every": True},
], ids=["t_final-zero", "t_final-negative", "t_final-text", "dt-negative",
        "dt-zero", "snapshot_every-fraction", "snapshot_every-negative",
        "snapshot_every-bool"])
def test_simulate_checks_time_before_assembling(config_file, tmp_path,
                                                capsys, monkeypatch, time):
    """A bad 'time' entry used to be refused only after the model was
    assembled, which takes about half a second at 129^2."""
    def no_assemble(config):
        raise AssertionError("assembled before checking 'time'")

    monkeypatch.setattr(cli, "assemble", no_assemble)
    path = _edited_config(config_file, tmp_path,
                          lambda c: c["time"].update(time))
    assert run(["simulate", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'time.{next(iter(time))}'" in err


@pytest.mark.parametrize("initial,message", [
    ({"field": "W"}, "unknown initial field"),
    ({"kind": "velocty"}, "unknown initial kind"),
    ({"amplitude": "x"}, "'initial.amplitude'"),
    ({"center": [0.5]}, "'initial.center'"),
    ({"center": [0.5, None]}, "'initial.center'"),
    ({"width": 0}, "'initial.width'"),
    ({"width": -0.1}, "'initial.width'"),
], ids=["field-unknown", "kind-typo", "amplitude-text", "center-short",
        "center-null", "width-zero", "width-negative"])
def test_simulate_checks_initial_before_assembling(config_file, tmp_path,
                                                   capsys, monkeypatch,
                                                   initial, message):
    """A bad 'initial' entry used to be refused only after the model was
    assembled, which takes about 0.15 s at 129^2."""
    def no_assemble(config):
        raise AssertionError("assembled before checking 'initial'")

    monkeypatch.setattr(cli, "assemble", no_assemble)
    path = _edited_config(config_file, tmp_path,
                          lambda c: c.update(initial=initial))
    assert run(["simulate", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("kind", ["velocty", "Displacement", 1])
def test_unknown_initial_kind_is_config_error(config_file, tmp_path, capsys,
                                              kind):
    """"kind": "velocty" used to start the plate displaced and exit 0."""
    path = _edited_config(config_file, tmp_path,
                          lambda c: c.update(initial={"kind": kind}))
    assert run(["simulate", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "initial kind" in err


@pytest.mark.parametrize("kind,moving", [("velocity", True),
                                         ("displacement", False)])
def test_initial_kind_sets_velocity_or_displacement(config_file, tmp_path,
                                                    kind, moving):
    path = _edited_config(config_file, tmp_path, lambda c: c.update(
        loads={}, initial={"kind": kind}))
    out = tmp_path / "o"
    assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "energy_log.csv").read_text().splitlines()
    header = lines[1].split(",")
    first = dict(zip(header, map(float, lines[2].split(","))))
    assert (first["kinetic"] > 0.0) == moving
    assert (first["strain"] > 0.0) != moving


def test_unknown_key_in_material_file_is_config_error(config_file, tmp_path,
                                                     capsys):
    """A misspelt "rho" used to leave the density at its default of 0."""
    mat = tmp_path / "typo.json"
    mat.write_text(json.dumps({"lambda": 1, "mu": 1, "alpha": 1, "beta": 1,
                               "gamma": 1, "epsilon": 1, "rh0": 1,
                               "J": [1, 1, 1]}))
    path = _edited_config(config_file, tmp_path,
                          lambda c: c.update(material=str(mat)))
    assert run(["validate", "--config", path]) == 2
    assert "'rh0'" in capsys.readouterr().err


def test_every_documented_key_is_accepted(tmp_path):
    """Every key of the README config schema, at a small grid."""
    cfg = {
        "material": {"lambda": 1.0, "mu": 1.0, "alpha": 1.0, "beta": 1.0,
                     "gamma": 1.0, "epsilon": 1.0, "rho": 1.0,
                     "J": [1.0, 1.0, 1.0]},
        "geometry": {"a": 1.0, "b": 1.0, "h": 0.1},
        "grid": {"nx": 7, "ny": 7},
        "bc": {"left": "clamped", "right": "traction",
               "bottom": "clamped", "top": "clamped"},
        "loads": {
            "p": {"preset": "constant", "amplitude": 1.0},
            "sigma0": {"preset": "sinusoidal", "amplitude": 1, "kx": 1,
                       "ky": 1, "omega": 0.0, "lx": 1.0, "ly": 1.0},
            "t": {"preset": "gaussian-pulse", "amplitude": 1,
                  "center": [0.5, 0.5], "width": 0.1, "t0": 0.2,
                  "tau": 0.05},
            "v": None,
        },
        "time": {"t_final": 1.0, "dt": None, "snapshot_every": 50},
        "initial": {"field": "w", "kind": "velocity", "amplitude": 1.0,
                    "center": [0.5, 0.5], "width": 0.15},
        "mode": {"shear_correction": "standard"},
        "dispersion": {"directions": [[1, 0]], "k_min": 0.01, "k_max": 100,
                       "n": 6, "modes": False},
        "sweep": {"N": [0.1], "l_t": [0.05], "l_b": [0.05], "Psi": [1.0],
                  "xi_mag": 1.0,
                  "base": {"E": 1, "nu": 0.3, "rho": 1, "J": [1, 1, 1],
                           "h": 0.1}},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(cfg))
    for command in ("validate", "static", "dispersion", "sweep"):
        assert run([command, "--config", str(path),
                    "--out", str(tmp_path / command)]) == 0, command


def test_simulate_deterministic(config_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate", "--config", config_file, "--out", str(out1)]) == 0
    assert run(["simulate", "--config", config_file, "--out", str(out2)]) == 0
    for name in ("energy_log.csv", "run_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    log = (out1 / "energy_log.csv").read_text().splitlines()
    assert log[1] == "t,kinetic,strain,external_work,total"


@pytest.mark.parametrize("command,names", [
    ("dispersion", ("dispersion.csv", "dispersion_summary.json",
                    "dispersion_modes.json")),
    ("sweep", ("sweep.csv",)),
])
def test_plane_wave_commands_deterministic(config_file, tmp_path, command,
                                           names):
    """Mode shapes on the diagonals, where two components tie in size."""
    path = _edited_config(config_file, tmp_path, lambda c: c.update(
        dispersion={"directions": [[1, 1], [1, -1], [1, 0]], "n": 12,
                    "modes": True}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run([command, "--config", path, "--out", str(out1)]) == 0
    assert run([command, "--config", path, "--out", str(out2)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dispersion_output(config_file, tmp_path):
    out = tmp_path / "disp"
    assert run(["dispersion", "--config", config_file, "--out", str(out)]) == 0
    lines = (out / "dispersion.csv").read_text().splitlines()
    assert lines[1] == "direction,xi_mag,branch,omega,subsystem"
    assert any(",flexural" in ln for ln in lines[2:])
    assert any(",extensional" in ln for ln in lines[2:])
    summary = json.loads((out / "dispersion_summary.json").read_text())
    assert len(summary["flexural_cutoffs"]) == 6


def test_sweep_output(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", config_file, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("N,l_t,l_b,Psi,quantity")
    assert len(lines) > 10


def test_plane_wave_and_material_commands_never_load_scipy(config_file,
                                                          tmp_path):
    """``validate``, ``constants``, ``dispersion`` (with mode shapes) and
    ``sweep`` need only numpy: in a fresh interpreter they run without
    importing any SciPy module, which alone takes about half of the CLI's
    start-up."""
    path = _edited_config(config_file, tmp_path, lambda c: c.update(
        dispersion={"n": 4, "modes": True},
        sweep={"N": [0.2, 0.5], "l_t": [0.05]}))
    run_fresh(f"""
import sys
from cosserat_plate.cli import run
for command in ("validate", "constants", "dispersion", "sweep"):
    assert run([command, "--config", {path!r},
                "--out", {str(tmp_path / "out")!r}]) == 0, command
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
""")
    assert (tmp_path / "out" / "dispersion_modes.json").is_file()
    assert (tmp_path / "out" / "sweep.csv").is_file()


def per_material_sweep(path, cfg_hash, sweep):
    """Oracle: sweep.csv built one material at a time from
    cutoff_frequencies and dispersion_curves."""
    base = sweep["base"]
    rows = []
    for point in itertools.product(sweep["N"], sweep["l_t"], sweep["l_b"],
                                   sweep["Psi"]):
        N, lt, lb, psi = point
        try:
            mat = material_from_technical(E=base["E"], nu=base["nu"], N=N,
                                          l_t=lt, l_b=lb, Psi=psi,
                                          rho=base["rho"], J=base["J"])
            tc = technical_constants(mat, base["h"])
        except MaterialError:
            continue
        inertia = inertia_constants(mat, base["h"])
        flex = build_flexural(tc, inertia)
        ext = build_extensional(tc, inertia)
        res = dispersion_curves(flex, ext, [[sweep["xi_mag"], 0.0]])
        rows += [[*point, "flexural_cutoff", b, w]
                 for b, w in enumerate(cutoff_frequencies(flex).frequencies)]
        rows += [[*point, "extensional_cutoff", b, w]
                 for b, w in enumerate(cutoff_frequencies(ext).frequencies)]
        rows += [[*point, f"flexural_omega@k={sweep['xi_mag']}", b, w]
                 for b, w in enumerate(res.flexural[0])]
    write_csv(path, cfg_hash,
              ["N", "l_t", "l_b", "Psi", "quantity", "branch", "value"], rows)


_SWEEP_BASE = {"E": 1.0, "nu": 0.3, "rho": 1.0, "J": [0.1, 0.2, 0.3], "h": 0.1}


@pytest.mark.parametrize("grid,skipped", [
    ({"N": [0.1, 1.5, 0.4], "l_t": [0.03, 0.07], "l_b": [0.05],
      "Psi": [0.6, 1.2]}, 4),
    ({"N": [0.3], "l_t": [0.05], "l_b": [0.06], "Psi": [0.8]}, 0),
    ({"N": [1.5, 2.0], "l_t": [0.05], "l_b": [0.05], "Psi": [1.0]}, 2),
], ids=["one-inadmissible", "one-material", "all-skipped"])
def test_sweep_bytes_equal_per_material_oracle(tmp_path, capsys, grid,
                                               skipped):
    sweep = dict(grid, xi_mag=1.7, base=_SWEEP_BASE)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": sweep}))
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("skip N=") == skipped
    cfg_hash = config_hash(json.loads(path.read_text()))
    per_material_sweep(tmp_path / "oracle.csv", cfg_hash, sweep)
    assert (out / "sweep.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("entry,message", [
    ((0, 5, 0), "not Hermitian"),           # breaks the symbol's symmetry
    ((2, 2), "negative squared frequency"),  # W stiffens the wrong way
])
def test_sweep_non_conservative_table_names_material(tmp_path, capsys,
                                                     monkeypatch, entry,
                                                     message):
    def broken_at_n03(tcs, inertias):
        coeffs, mass = build_flexural_stack(tcs, inertias)
        for k, tc in enumerate(tcs):
            if abs(tc.N - 0.3) <= 1e-9:
                coeffs[(k, *entry)] *= -1.0
        return coeffs, mass

    monkeypatch.setattr(cli, "build_flexural_stack", broken_at_n03)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {
        "N": [0.1, 0.3, 0.5], "l_t": [0.05], "l_b": [0.06], "Psi": [0.8],
        "xi_mag": 1.0, "base": _SWEEP_BASE}}))
    assert run(["sweep", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "solver failure" in err and message in err
    assert "N=0.3 l_t=0.05 l_b=0.06 Psi=0.8" in err


@pytest.mark.parametrize("grid", [
    {"N": [0.3]},
    {"N": [0.1, 0.2, 0.3, 0.5], "l_t": [0.03, 0.05], "Psi": [0.8, 1.2]},
], ids=["one-point", "sixteen-points"])
def test_sweep_builds_one_stack_per_subsystem(tmp_path, monkeypatch, grid):
    """The sweep assembles all of its materials at once, so a return to a
    build per material fails."""
    calls = []
    for name in ("build_flexural_stack", "build_extensional_stack"):
        def counting(tcs, inertias, build=getattr(cli, name), name=name):
            calls.append(name)
            return build(tcs, inertias)
        monkeypatch.setattr(cli, name, counting)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": dict(grid, base=_SWEEP_BASE)}))
    assert run(["sweep", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == ["build_extensional_stack", "build_flexural_stack"]


def test_paper_literal_flag_changes_solution(config_file, tmp_path):
    out1, out2 = tmp_path / "d", tmp_path / "lit"
    assert run(["static", "--config", config_file, "--out", str(out1)]) == 0
    assert run(["static", "--config", config_file, "--out", str(out2),
                "--paper-literal-operators"]) == 0
    a = (out1 / "static_snapshot.csv").read_bytes()
    b = (out2 / "static_snapshot.csv").read_bytes()
    assert a != b


def test_paper_literal_dispersion_fails_cleanly(config_file, tmp_path, capsys):
    """The literal table is non-conservative (non-Hermitian wave matrix), so
    dispersion in literal mode is a reported runtime failure, not a crash."""
    rc = run(["dispersion", "--config", config_file,
              "--out", str(tmp_path / "lit"), "--paper-literal-operators"])
    assert rc == 1
    assert "solver failure" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path, monkeypatch):
    from cosserat_plate.verification import SuiteResult

    calls = {}

    def fake_run_all(seed=0, out_dir=None, verbose=True):
        calls["seed"] = seed
        verification.write_diff_table(Path(out_dir) / "coefficient_diff.csv")
        return [SuiteResult("a", True, "ok")]

    monkeypatch.setattr(verification, "run_all", fake_run_all)
    out = tmp_path / "v"
    assert run(["verify", "--out", str(out), "--seed", "7"]) == 0
    assert calls["seed"] == 7
    assert (out / "coefficient_diff.csv").exists()

    def fake_fail(seed=0, out_dir=None, verbose=True):
        return [SuiteResult("a", False, "boom")]

    monkeypatch.setattr(verification, "run_all", fake_fail)
    assert run(["verify", "--out", str(out)]) == 1


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seed_is_a_usage_error(tmp_path, capsys, seed):
    """--seed -1 used to end in NumPy's traceback after the suites began."""
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--out", str(tmp_path / "v"), "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


def test_diff_table_csv(tmp_path):
    path = tmp_path / "diff.csv"
    verification.write_diff_table(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "entry,paper_value_expr,paper_value,oracle_value,abs_diff"
    assert any(ln.startswith("k1,") for ln in lines)


def test_config_hash_stable():
    h1 = config_hash({"b": 1, "a": 2})
    h2 = config_hash({"a": 2, "b": 1})
    assert h1 == h2 and len(h1) == 16


def test_static_failure_names_the_worst_row(config_file, tmp_path,
                                            monkeypatch, capsys):
    """Above the 1e-9 residual gate, ``static`` exits 1 naming the
    subsystem, field and node of the worst residual row.  The solve is
    made to answer a right-hand side with the flexural w row of node
    (3, 2) moved, so that row alone is left unsatisfied."""
    from cosserat_plate import dynamics

    solve = dynamics._StaticFactor.solve

    def off_in_one_row(self, rhs):
        if self.name == "flexural":
            rhs = rhs.copy()
            rhs[2 * 7 * 7 + 3 * 7 + 2] += 1e-6 * np.max(np.abs(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(dynamics._StaticFactor, "solve", off_in_one_row)
    out = tmp_path / "static"
    assert run(["static", "--config", config_file, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"solver failure: static relative residual 1\.0\d\de-06 exceeds "
        r"1e-9; worst in the flexural w row at node \(3, 2\)\n",
        captured.err), captured.err
    assert "max relative residual 1.0" in captured.out


def test_logs_what_each_command_wrote(config_file, tmp_path, caplog):
    """One DEBUG line per command, on the log and in no output file: the
    files and bytes written, the floats formatted and the fallbacks."""
    path = _edited_config(config_file, tmp_path, lambda c: c.update(
        grid={"nx": 9, "ny": 9}, time={"t_final": 0.2, "snapshot_every": 2}))
    out = tmp_path / "telemetry"
    with caplog.at_level(logging.DEBUG, logger=cli.__name__):
        assert run(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == cli.__name__]
    assert len(lines) == 1
    found = re.fullmatch(r"simulate: wrote (\d+) files, (\d+) bytes; "
                         r"formatted (\d+) floats, (\d+) by Python's "
                         r"formatter", lines[0])
    files, size, values, fallbacks = map(int, found.groups())
    written = sorted(out.iterdir())
    assert files == len(written) > 2
    assert size == sum(p.stat().st_size for p in written)
    # coordinates once, the energy log, and at least one field per snapshot
    assert values >= 2 * 81 + 5 * 2 + 81 * (len(written) - 2)
    assert fallbacks == 0
    assert not any(b"formatted" in p.read_bytes() for p in written)
