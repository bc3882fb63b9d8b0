import random

import pytest

from fogca import curve
from fogca.crypto import ManualClock
from fogca.scenarios import Fleet


def ca_line(state) -> str:
    """The `CA` line that opens every registry file `state` writes."""
    return "CA " + curve.encode_point(state.params, state.public_key).hex()


@pytest.fixture(scope="session")
def toy():
    return curve.toy17()


@pytest.fixture(scope="session")
def prod():
    return curve.prod256()


class Rig(Fleet):
    """Authority plus registered children, no network; the clock moves
    5 ms before each registration."""

    def __init__(self, params, seed=0):
        super().__init__(params, random.Random(seed), ManualClock())

    def register(self, ident: bytes):
        self.clock.advance(5)
        return super().register(ident)


@pytest.fixture
def toy_rig(toy):
    return Rig(toy, seed=101)


@pytest.fixture
def prod_rig(prod):
    return Rig(prod, seed=202)
