"""The verification runner: the classical plate shared by suites 6 and 9,
the memo's lifetime and ``verify_report.json``."""

import gc
import json
import re
import weakref

import numpy as np
import pytest

from cosserat_plate import __version__, verification
from cosserat_plate.dynamics import ConfigError
from cosserat_plate.plate_fields import PlateKinematics
from cosserat_plate.verification import SuiteResult


def test_classical_plate_is_factored_once(verify_run):
    """Suites 6 and 9 share one static solve; each used to factor its own
    copy of the plate.  Only its flexural block is factored: the plate is
    loaded by pressure alone, so the extensional right-hand side is zero
    and its solution is +0 without a factorization."""
    _, _, _, factors = verify_run
    assert factors == [("flexural", 65, 65)]


def _without_wall_time(line):
    return re.sub(r", \d+\.\ds$", "", line)


def test_shared_solution_prints_the_standalone_lines(verify_run):
    """The lines of suites 6 and 9 in ``run_all`` equal those of each suite
    run on its own, with its own static solve, up to suite 6's wall time."""
    results, printed, _, _ = verify_run
    assert printed == [r.line() for r in results]
    alone = []
    for suite in (verification.suite_classical_limit,
                  verification.suite_hpr_stationarity):
        verification._classical_solution.cache_clear()
        alone.append(suite().line())
    verification._classical_solution.cache_clear()
    assert [_without_wall_time(ln) for ln in (printed[5], printed[8])] == \
        [_without_wall_time(ln) for ln in alone]
    assert printed[5] != _without_wall_time(printed[5])  # the field is there


def test_memo_is_empty_after_run_all(verify_run):
    assert verification._classical_solution.cache_info().currsize == 0


def test_memo_is_empty_after_run_all_raises(monkeypatch):
    def tiny_solve(model):
        return PlateKinematics.from_arrays(np.zeros((6, 2, 2)),
                                           np.zeros((3, 2, 2))), {}

    def failing_suite(seed):
        verification._classical_solution()
        assert verification._classical_solution.cache_info().currsize == 1
        raise RuntimeError("suite failed")

    monkeypatch.setattr(verification, "static_solve", tiny_solve)
    monkeypatch.setattr(verification, "ALL_SUITES", (failing_suite,))
    with pytest.raises(RuntimeError, match="suite failed"):
        verification.run_all(verbose=False)
    assert verification._classical_solution.cache_info().currsize == 0


def test_memo_keeps_only_the_solution(monkeypatch):
    """The memo must not keep the model, and with it the static factor,
    alive; the shared arrays are read-only."""
    refs = []
    assemble = verification.assemble

    def recording_assemble(cfg):
        model = assemble(cfg)
        refs.append(weakref.ref(model.flex_d))
        return model

    monkeypatch.setattr(verification, "assemble", recording_assemble)
    verification._classical_solution.cache_clear()
    try:
        kin = verification._classical_solution()
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        with pytest.raises(ValueError, match="read-only"):
            kin.w[1, 1] = 0.0
    finally:
        verification._classical_solution.cache_clear()


def test_report_round_trips_every_printed_line(verify_run):
    results, printed, out, _ = verify_run
    report = json.loads((out / "verify_report.json").read_text())
    assert report["version"] == __version__ and report["seed"] == 0
    suites = report["suites"]
    assert [SuiteResult(s["name"], s["passed"], s["details"]).line()
            for s in suites] == printed
    assert [s["name"] for s in suites] == [r.name for r in results]
    assert all(isinstance(s["wall_s"], float) and s["wall_s"] > 0.0
               for s in suites)
    assert (out / "coefficient_diff.csv").exists()


def test_hpr_suite_evaluates_the_equilibrium_state_once(monkeypatch):
    """Suite 9 measures 20 perturbations of one equilibrium state, whose
    Theta and reference energy it used to recompute for each (125 and 25
    calls per run); the five non-equilibrium measures are unchanged."""
    from cosserat_plate.hpr import HPRFunctional

    calls = {"value": 0, "reference_energy": 0}
    for name in calls:
        method = getattr(HPRFunctional, name)

        def counted(self, state, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, state)

        monkeypatch.setattr(HPRFunctional, name, counted)
    verification._classical_solution.cache_clear()
    try:
        assert verification.suite_hpr_stationarity().passed
    finally:
        verification._classical_solution.cache_clear()
    assert calls == {"value": 106, "reference_energy": 6}


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_bad_seed_is_a_config_error(monkeypatch, seed):
    """run_all(seed=-1) used to end in NumPy's bare ValueError from the
    first suite that drew a random number."""
    def suite(seed):
        np.random.default_rng(seed)
        return SuiteResult("drawn", True, "ok")

    monkeypatch.setattr(verification, "ALL_SUITES", (suite,))
    with pytest.raises(ConfigError,
                       match="seed must be a non-negative integer"):
        verification.run_all(seed=seed, verbose=False)
