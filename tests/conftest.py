import random

import pytest

from tftps import groups
from tftps.groups import DESK_PARAMS, gen_group_params


@pytest.fixture(scope="session")
def desk_params():
    return DESK_PARAMS


@pytest.fixture(scope="session")
def params_256():
    return gen_group_params(256, random.Random(0x256))


@pytest.fixture(scope="session")
def params_1024():
    return gen_group_params(1024, random.Random(0x1024))


@pytest.fixture(scope="session")
def params_2048():
    return gen_group_params(2048, random.Random(0x2048))


@pytest.fixture()
def pow_calls(monkeypatch):
    """The argument tuples of every builtin ``pow`` call made inside groups."""
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groups, "pow", counted, raising=False)
    return calls
