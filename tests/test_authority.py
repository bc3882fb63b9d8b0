import random

import pytest

from fogca import authority, curve, wire
from fogca.crypto import open_box, seal
from fogca.errors import (
    AuthFailure,
    BadProof,
    DeviceUntrusted,
    DuplicateRegistration,
    Expired,
    IntegrityMismatch,
    NoSession,
    ReplayDetected,
    Revoked,
    StaleTimestamp,
    TargetRevoked,
    UnknownDevice,
    UnknownId,
)
from fogca.integrity import TrustState, perturb_profile

from conftest import Rig, make_profile


class TestSetup:
    def test_public_key_matches_private(self, toy_rig):
        a = toy_rig.authority
        assert a.public_key == curve.scalar_mul(a.params, a.private_key,
                                                a.params.base_point)

    def test_different_seeds_different_keys(self, toy):
        a1, _ = authority.setup(toy, random.Random(1))
        a2, _ = authority.setup(toy, random.Random(2))
        assert a1.public_key != a2.public_key

    def test_announcement_roundtrips(self, toy_rig):
        ann = toy_rig.announcement
        assert wire.decode(wire.encode(ann)) == ann


class TestRegistration:
    def test_issued_key_is_private_scalar_times_identity_point(self, toy_rig):
        child, profile = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child.request_registration(), profile)
        plain = open_box(child.channel_key, resp.sealed_auth_key)
        issued = curve.decode_point(toy_rig.params, plain)
        base = curve.hash_to_point(toy_rig.params, b"cam-01")
        # the DLP oracle can recover the CA scalar on the toy curve
        shifted = curve.CurveParams(toy_rig.params.p, toy_rig.params.a,
                                    toy_rig.params.b, base,
                                    toy_rig.params.order_n, 1)
        assert curve.brute_force_dlp(shifted, issued) == \
            toy_rig.authority.private_key % toy_rig.params.order_n

    def test_unknown_device(self, toy_rig):
        with pytest.raises(UnknownDevice):
            toy_rig.authority.register_child(
                wire.RegistrationRequest(b"ghost"), make_profile(b"ghost"))

    def test_tampered_profile_quarantines(self, toy_rig):
        child, profile = toy_rig.provision(b"cam-01")
        bad = perturb_profile(profile, "firmware_digest")
        with pytest.raises(IntegrityMismatch) as err:
            toy_rig.authority.register_child(child.request_registration(), bad)
        assert err.value.countermeasure == "quarantined"
        assert toy_rig.store.get(b"cam-01").trust is TrustState.QUARANTINED
        # quarantined device cannot register even with a clean profile
        with pytest.raises(DeviceUntrusted):
            toy_rig.authority.register_child(child.request_registration(),
                                             profile)

    def test_duplicate_registration(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        with pytest.raises(DuplicateRegistration):
            toy_rig.authority.register_child(child.request_registration(),
                                             make_profile(b"cam-01"))

    def test_reissue_after_revoke(self, toy_rig):
        toy_rig.register(b"cam-01")
        toy_rig.authority.revoke(b"cam-01", "compromise")
        toy_rig.clock.advance(100)
        child2, profile = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child2.request_registration(), profile)
        child2.confirm_auth_key(resp, toy_rig.authority.handle_auth_request)
        assert not toy_rig.authority.is_revoked(b"cam-01")


class TestAuthRequest:
    def test_honest_handshake_shares_key(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(50)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        key = child.auth_finish(resp)
        assert toy_rig.authority.sessions[b"cam-01"][1] == key

    def test_replay_same_request(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(10)
        req = child.auth_init()
        toy_rig.authority.handle_auth_request(req)
        with pytest.raises(ReplayDetected):
            toy_rig.authority.handle_auth_request(req)

    def test_stale_timestamp(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(10)
        req = child.auth_init()
        toy_rig.clock.advance(toy_rig.authority.freshness_window_ms + 1)
        with pytest.raises(StaleTimestamp):
            toy_rig.authority.handle_auth_request(req)

    def test_future_timestamp(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        req = child.auth_init()
        skewed = wire.AuthRequest(req.child_id, req.blinded, req.x_proof,
                                  req.sent_at + 500)
        with pytest.raises(StaleTimestamp):
            toy_rig.authority.handle_auth_request(skewed)

    def test_forged_auth_key_rejected(self, prod_rig):
        prod_rig.register(b"cam-01")
        params = prod_rig.params
        forged = prod_rig.provision(b"cam-01x")[0]
        forged.ident = b"cam-01"
        wrong = curve.random_scalar(params, random.Random(99))
        forged.auth_key = curve.scalar_mul(
            params, wrong, curve.hash_to_point(params, b"cam-01"))
        prod_rig.clock.advance(10)
        with pytest.raises(BadProof):
            prod_rig.authority.handle_auth_request(forged.auth_init())

    def test_forged_request_cannot_preempt_honest_one(self, prod_rig):
        # a forgery at the victim's predictable T1 is refused without
        # claiming that (identity, T1) slot in the replay cache
        child = prod_rig.register(b"cam-01")
        params = prod_rig.params
        prod_rig.clock.advance(10)
        rng = random.Random(99)
        blinded, x_proof = (
            curve.scalar_mul(params, curve.random_scalar(params, rng),
                             params.base_point) for _ in range(2))
        forged = wire.AuthRequest(b"cam-01", blinded, x_proof,
                                  prod_rig.clock.now())
        with pytest.raises(BadProof):
            prod_rig.authority.handle_auth_request(forged)
        req = child.auth_init()
        assert req.sent_at == forged.sent_at
        key = child.auth_finish(prod_rig.authority.handle_auth_request(req))
        assert prod_rig.authority.sessions[b"cam-01"][1] == key

    def test_unregistered_device(self, toy_rig):
        with pytest.raises(UnknownDevice):
            toy_rig.authority.handle_auth_request(
                wire.AuthRequest(b"ghost", toy_rig.params.base_point,
                                 toy_rig.params.base_point, 0))

    def test_quarantined_device_cannot_authenticate(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.store.set_trust(b"cam-01", TrustState.QUARANTINED)
        toy_rig.clock.advance(5)
        with pytest.raises(DeviceUntrusted):
            toy_rig.authority.handle_auth_request(child.auth_init())


class TestRevocation:
    def test_revoked_refused(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.authority.revoke(b"cam-01", "policy")
        toy_rig.clock.advance(5)
        with pytest.raises(Revoked):
            toy_rig.authority.handle_auth_request(child.auth_init())
        assert toy_rig.authority.is_revoked(b"cam-01")

    def test_revoke_unknown(self, toy_rig):
        with pytest.raises(UnknownId):
            toy_rig.authority.revoke(b"never-seen", "policy")

    def test_revoke_bad_reason(self, toy_rig):
        toy_rig.register(b"cam-01")
        with pytest.raises(ValueError):
            toy_rig.authority.revoke(b"cam-01", "tuesday")

    def test_short_lived_key_expires(self, toy_rig):
        child, profile = toy_rig.provision(b"car-77")
        resp = toy_rig.authority.register_child(
            child.request_registration(), profile, lifetime_ms=10_000)
        child.confirm_auth_key(resp, toy_rig.authority.handle_auth_request)
        toy_rig.clock.advance(11_000)
        assert toy_rig.authority.purge_expired() == 1
        assert toy_rig.authority.purge_expired() == 0
        with pytest.raises(Expired):
            toy_rig.authority.handle_auth_request(child.auth_init())
        entry = toy_rig.authority.crl[-1]
        assert entry.child_id == b"car-77" and entry.reason == "expiry"

    def test_expired_without_purge_still_refused(self, toy_rig):
        child, profile = toy_rig.provision(b"car-77")
        resp = toy_rig.authority.register_child(
            child.request_registration(), profile, lifetime_ms=10_000)
        child.confirm_auth_key(resp, toy_rig.authority.handle_auth_request)
        toy_rig.clock.advance(11_000)
        with pytest.raises(Expired):
            toy_rig.authority.handle_auth_request(child.auth_init())

    def test_purge_nothing(self, toy_rig):
        toy_rig.register(b"cam-01")
        assert toy_rig.authority.purge_expired() == 0

    def test_revoke_drops_session(self, toy_rig):
        toy_rig.register(b"cam-01")
        assert b"cam-01" in toy_rig.authority.sessions
        toy_rig.authority.revoke(b"cam-01", "compromise")
        assert b"cam-01" not in toy_rig.authority.sessions


class TestPeerRelay:
    def test_honest_relay(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        b = toy_rig.register(b"lock-02")
        target, relay = toy_rig.authority.relay_peer_request(
            b"cam-01", a.peer_init(b"lock-02"))
        assert target == b"lock-02"
        initiator, _ = b.peer_respond(relay)
        assert initiator == b"cam-01"
        assert b.peer_sessions[b"cam-01"] == a.proposed[b"lock-02"]

    def test_no_session_for_sender(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        msg = a.peer_init(b"lock-02")
        with pytest.raises(NoSession):
            toy_rig.authority.relay_peer_request(b"stranger", msg)

    def test_no_session_for_target(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        with pytest.raises(NoSession):
            toy_rig.authority.relay_peer_request(b"cam-01",
                                                 a.peer_init(b"lock-02"))

    def test_stale_session_key_fails(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        toy_rig.register(b"lock-02")
        msg = a.peer_init(b"lock-02")
        # authority rotates the session (new handshake) before the relay
        toy_rig.clock.advance(10)
        resp = toy_rig.authority.handle_auth_request(a.auth_init())
        a.auth_finish(resp)
        with pytest.raises(AuthFailure):
            toy_rig.authority.relay_peer_request(b"cam-01", msg)

    def test_target_revoked(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        toy_rig.register(b"lock-02")
        msg = a.peer_init(b"lock-02")
        toy_rig.authority.revoke(b"lock-02", "compromise")
        with pytest.raises(TargetRevoked):
            toy_rig.authority.relay_peer_request(b"cam-01", msg)


class TestStateHygiene:
    def test_private_key_not_in_any_message(self, prod_rig):
        child = prod_rig.register(b"cam-01")
        prod_rig.clock.advance(10)
        req = child.auth_init()
        resp = prod_rig.authority.handle_auth_request(req)
        child.auth_finish(resp)
        peer = prod_rig.register(b"lock-02")
        init = child.peer_init(b"lock-02")
        _, relay = prod_rig.authority.relay_peer_request(b"cam-01", init)
        _, chal = peer.peer_respond(relay)
        _, proof = child.peer_accept(chal)
        params = prod_rig.params
        secret_blobs = [
            curve.encode_scalar(params, prod_rig.authority.private_key)]
        for _, key in prod_rig.authority.sessions.values():
            secret_blobs.append(key)
        wires = [wire.encode(prod_rig.announcement),
                 wire.encode(req, params), wire.encode(resp, params),
                 wire.encode(init, params), wire.encode(relay, params),
                 wire.encode(chal, params), wire.encode(proof, params)]
        for blob in wires:
            for secret in secret_blobs:
                assert secret not in blob

    def test_key_pair_invariant_after_operations(self, toy_rig):
        toy_rig.register(b"cam-01")
        toy_rig.authority.revoke(b"cam-01", "policy")
        toy_rig.authority.purge_expired()
        a = toy_rig.authority
        assert a.public_key == curve.scalar_mul(a.params, a.private_key,
                                                a.params.base_point)

    def test_persistence_roundtrip(self, toy_rig, tmp_path):
        toy_rig.register(b"cam-01")
        child2, profile2 = toy_rig.provision(b"car-77")
        toy_rig.authority.register_child(child2.request_registration(),
                                         profile2, lifetime_ms=5000)
        toy_rig.register(b"lock-02")
        toy_rig.authority.revoke(b"lock-02", "compromise")
        path = tmp_path / "registry.txt"
        toy_rig.authority.save_records(path)

        fresh, _ = authority.setup(toy_rig.params, random.Random(55))
        fresh.load_records_file(path)
        assert set(fresh.registry) == {b"cam-01", b"car-77"}
        assert fresh.registry[b"car-77"].lifetime_ms == 5000
        assert fresh.registry[b"cam-01"].auth_key == \
            toy_rig.authority.registry[b"cam-01"].auth_key
        assert fresh.is_revoked(b"lock-02")
        assert fresh.crl[-1].reason == "compromise"

    def test_sessions_agree_over_many_runs(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        for _ in range(1000):
            toy_rig.clock.advance(7)
            resp = toy_rig.authority.handle_auth_request(child.auth_init())
            key = child.auth_finish(resp)
            assert toy_rig.authority.sessions[b"cam-01"][1] == key

    def test_replay_cache_purge(self, toy):
        rig = Rig(toy, seed=77)
        child = rig.register(b"cam-01")
        for _ in range(5000):
            rig.clock.advance(7)
            rig.authority.handle_auth_request(child.auth_init())
            child._pending_auth = None
        assert len(rig.authority.replay_cache) <= 4096 + 1
