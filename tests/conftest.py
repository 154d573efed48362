import numpy as np
import pytest

import epdsys.stepper
from epdsys.bench import RunConfig, grid_spec_for, manufactured_problem
from epdsys.grid import build_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ref_config():
    """The reference-experiment config at pure defaults (J=24)."""
    return RunConfig(J=24)


@pytest.fixture
def ref_grid24(ref_config):
    return build_grid(grid_spec_for(ref_config, 24))


@pytest.fixture
def ref_problem(ref_config):
    return manufactured_problem(ref_config)


@pytest.fixture
def operator_builds(monkeypatch):
    """The list of build_operator_set calls made by `prepare`, the one setup of every run."""
    calls = []
    real = epdsys.stepper.build_operator_set

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(epdsys.stepper, "build_operator_set", counting)
    return calls
