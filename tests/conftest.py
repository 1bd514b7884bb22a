import sys

import numpy as np
import pytest

from isrsprop import (
    AttenuationProfile,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    build_channel_grid,
    default_attenuation,
    default_raman,
)

TABLE1_DBM = -1.0  # per-channel launch power used in the reference scenarios


@pytest.fixture(scope="session")
def c_grid():
    return build_channel_grid("C")


@pytest.fixture(scope="session")
def cl_grid():
    return build_channel_grid("CL")


@pytest.fixture(scope="session")
def clu_grid():
    return build_channel_grid("CLU")


@pytest.fixture(scope="session")
def default_fiber_100():
    return FiberSpec(default_attenuation(), default_raman(0.4), 100.0)


@pytest.fixture(scope="session")
def default_fiber_50():
    return FiberSpec(default_attenuation(), default_raman(0.4), 50.0)


@pytest.fixture
def alpha_calls(monkeypatch):
    """A list that gains one entry, the calling module's name, per alpha(f_i) evaluation.

    ``attenuation_at`` is counted at every ``isrsprop`` module that binds it.
    """
    calls = []
    for name, module in list(sys.modules.items()):
        evaluate = getattr(module, "attenuation_at", None)
        if name.split(".")[0] == "isrsprop" and evaluate is not None:
            def counted(*args, evaluate=evaluate, name=name):
                calls.append(name)
                return evaluate(*args)

            monkeypatch.setattr(module, "attenuation_at", counted)
    return calls


@pytest.fixture
def clu_launch(clu_grid):
    return PowerSpectrum.flat_dbm(clu_grid, TABLE1_DBM)


@pytest.fixture
def c_launch(c_grid):
    return PowerSpectrum.flat_dbm(c_grid, TABLE1_DBM)


def constant_alpha_fiber(db_per_km=0.2, length=100.0, peak=0.4):
    return FiberSpec(
        AttenuationProfile.constant_db(db_per_km), default_raman(peak), length
    )


def raman_free_fiber(length=100.0, attenuation=None):
    return FiberSpec(
        attenuation if attenuation is not None else default_attenuation(),
        RamanGainModel.triangular(slope=0.0),
        length,
    )


def to_db(ratio):
    return 10.0 * np.log10(ratio)
