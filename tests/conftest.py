import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cosserat_plate import dynamics, verification
from cosserat_plate.material import MaterialParams

SRC = Path(verification.__file__).parents[1]


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports the package from
    this checkout; fail with its stderr if it raises."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def count_static_factors(mp, record=lambda d, factor: d.name) -> list:
    """Make every static factor built while ``mp`` is active, band Cholesky
    or SuperLU, append ``record(d, factor)`` of its discretization and of
    itself to the returned list, before it factors.  ``mp`` patches the
    name through which ``static_solve`` builds each subsystem's factor."""
    built = []

    class CountingFactor(dynamics._StaticFactor):
        def __init__(self, d):
            built.append(record(d, self))
            super().__init__(d)

    mp.setattr(dynamics.static, "_StaticFactor", CountingFactor)
    return built


@pytest.fixture
def static_factors(monkeypatch):
    """The subsystem names of the static factors a test builds, in order."""
    return count_static_factors(monkeypatch)


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One ``run_all(seed=0)`` per test session, which gives suite k its
    default seed k: its results, its printed lines, its output directory
    and the subsystem names of every static factor built for the 65^2
    classical plate."""
    out = tmp_path_factory.mktemp("verify")
    assemble = verification.assemble
    classical = verification._classical_material()

    def marking_assemble(cfg):
        model = assemble(cfg)
        if cfg.material == classical:
            model.flex_d.classical = model.ext_d.classical = True
        return model

    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "assemble", marking_assemble)
        built = count_static_factors(mp, lambda d, factor: (
            d.name, d.nx, d.ny, getattr(d, "classical", False)))
        with contextlib.redirect_stdout(printed):
            results = verification.run_all(seed=0, out_dir=out)
    factors = [f[:3] for f in built if f[3]]
    return results, printed.getvalue().splitlines(), out, factors


def admissible_materials(with_inertia: bool = True):
    """Hypothesis strategy for admissible Cosserat moduli with O(1) scales."""
    pos = st.floats(min_value=0.05, max_value=5.0,
                    allow_nan=False, allow_infinity=False)
    ratio = st.floats(min_value=-0.6, max_value=5.0,
                      allow_nan=False, allow_infinity=False)

    def build(mu, lam_r, alpha, gamma, beta_r, epsilon, rho, j1, j2, j3):
        return MaterialParams(
            lam=mu * lam_r, mu=mu, alpha=alpha, beta=gamma * beta_r,
            gamma=gamma, epsilon=epsilon,
            rho=rho if with_inertia else 1.0,
            J=(j1, j2, j3) if with_inertia else (1.0, 1.0, 1.0),
        )

    return st.builds(build, pos, ratio, pos, pos, ratio, pos, pos, pos, pos, pos)


def random_material(rng) -> MaterialParams:
    mu = rng.uniform(0.3, 3.0)
    gamma = rng.uniform(0.05, 2.0)
    return MaterialParams(
        lam=mu * rng.uniform(-0.6, 4.0),
        mu=mu,
        alpha=rng.uniform(0.05, 2.0),
        beta=gamma * rng.uniform(-0.6, 4.0),
        gamma=gamma,
        epsilon=rng.uniform(0.05, 2.0),
        rho=rng.uniform(0.3, 3.0),
        J=tuple(rng.uniform(0.1, 2.0, size=3)),
    )
