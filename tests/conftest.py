import random

import pytest

from fogca import authority, curve
from fogca.crypto import ManualClock
from fogca.integrity import AffinityStore
from fogca.scenarios import provision


@pytest.fixture(scope="session")
def toy():
    return curve.toy17()


@pytest.fixture(scope="session")
def prod():
    return curve.prod256()


class Rig:
    """Authority plus helpers to mint registered children, no network."""

    def __init__(self, params, seed=0):
        self.master = random.Random(seed)
        self.clock = ManualClock()
        self.store = AffinityStore()
        self.authority, self.announcement = authority.setup(
            params, random.Random(self.master.getrandbits(64)),
            self.clock, self.store)
        self.params = params

    def provision(self, ident: bytes):
        child = provision(self.store, self.announcement, self.master,
                          self.clock, ident)
        return child, self.store.get(ident).profile

    def register(self, ident: bytes):
        """Full registration including the confirmation round."""
        child, profile = self.provision(ident)
        self.clock.advance(5)
        resp = self.authority.register_child(
            child.request_registration(), profile)
        child.confirm_auth_key(resp, self.authority.handle_auth_request)
        return child


@pytest.fixture
def toy_rig(toy):
    return Rig(toy, seed=101)


@pytest.fixture
def prod_rig(prod):
    return Rig(prod, seed=202)
