import contextlib
import io

import numpy as np
import pytest
from hypothesis import strategies as st

from cosserat_plate import dynamics, verification
from cosserat_plate.material import MaterialParams


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One ``run_all(seed=0)`` per test session, which gives suite k its
    default seed k: its results, its printed lines, its output directory
    and the subsystem names of every static factor built for the 65^2
    classical plate."""
    out = tmp_path_factory.mktemp("verify")
    factors = []
    assemble = verification.assemble
    classical = verification._classical_material()

    def marking_assemble(cfg):
        model = assemble(cfg)
        if cfg.material == classical:
            model.flex_d.classical = model.ext_d.classical = True
        return model

    class CountingFactor(dynamics._StaticFactor):
        def __init__(self, d):
            if getattr(d, "classical", False):
                factors.append((d.name, d.nx, d.ny))
            super().__init__(d)

    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "assemble", marking_assemble)
        # the name ``_Discretization.static_factor`` looks up
        mp.setattr(dynamics.static, "_StaticFactor", CountingFactor)
        with contextlib.redirect_stdout(printed):
            results = verification.run_all(seed=0, out_dir=out)
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
