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


# wire bytes and session keys of a seeded prod256 register + confirm +
# handshake (Rig seed 2011, identity cam-9), frozen from the pure-Python
# curve code, so every scalar_mul backend must reproduce them exactly
PROD_REGISTRATION_RESPONSE = (
    "034a4ee55f113edd96c888891600000041efe0f27cd7217be6c661cf6ee6d9eaacbc"
    "c45993ee3d4274aa84955f7962aa7a4f628a6c058e5767a3fcfa37e8fc8834a2bfc1"
    "736873e9d4310b6052b76128a38789caaeedbb15dfb32a005dd5d85d7262")
PROD_AUTH_REQUEST = (
    "040563616d2d3941046870a254e65f56df67176134cc858f21f43d0f1acf88cab971"
    "9359cf0367a0780606223b24942d7bd99c41aa4adb0522c89d015f1e8be6d6c9a023"
    "078cd92b4b4104c8aa84c1b4b3086b0f437709397f055b736a52910a18668e780faf"
    "3069a6e9b6e1feba5640de58b931834efcf9ea8cf71accc381c087d75099dffdf089"
    "ffca43000000000000000f")
PROD_AUTH_RESPONSE = (
    "054104bf30ba9dee35830aedfda4de576b7163717414a7fa4560d4f6691dc28fb96c"
    "62f0ac7110b58f5e9213e23952ecc2107f98e94fa96a8bc764a2af5a81f673a5c741"
    "0436235735b875c4741a2e63949aeea6bdacd591ba853bf24cc9fb03208912d48768"
    "acb5177954e01c6c47e5c43e873d7060c7a24b6a84c5d92aea97f1c37e7a48000000"
    "000000000f")
PROD_CONFIRM_KEY = "3f8697646acaf101e59eac7c55260eaa25983625aca5d6d0e6e663a7579b1213"
PROD_SESSION_KEY = "175c800cdd41fb902da7212f8fff324da0421e2eaac76e0ee02046f2cb326b02"


class TestGoldenProd256:
    def test_seeded_transcript_is_pinned(self, prod):
        rig = Rig(prod, seed=2011)
        child, profile = rig.provision(b"cam-9")
        rig.clock.advance(5)
        reg = rig.authority.register_child(child.request_registration(),
                                           profile)
        confirm_key = child.confirm_auth_key(
            reg, rig.authority.handle_auth_request)
        assert rig.authority.sessions[b"cam-9"][1] == confirm_key
        rig.clock.advance(10)
        req = child.auth_init()
        resp = rig.authority.handle_auth_request(req)
        session_key = child.auth_finish(resp)
        assert rig.authority.sessions[b"cam-9"][1] == session_key
        assert wire.encode(reg).hex() == PROD_REGISTRATION_RESPONSE
        assert wire.encode(req, prod).hex() == PROD_AUTH_REQUEST
        assert wire.encode(resp, prod).hex() == PROD_AUTH_RESPONSE
        assert confirm_key.hex() == PROD_CONFIRM_KEY
        assert session_key.hex() == PROD_SESSION_KEY


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

    def test_replay_cache_expires_with_the_window(self, toy):
        # more than 4,096 verified (identity, T1) pairs inside one window
        # stay cached; each later verified request drops every pair whose
        # T1 has left the window, and only those, however few remain
        rig = Rig(toy, seed=78)
        children = [rig.register(f"cam-{i}".encode()) for i in range(3)]
        rig.clock.advance(10)
        start = rig.clock.now()
        accepted = []
        for _ in range(1400):
            rig.clock.advance(1)
            for child in children:
                req = child.auth_init()
                rig.authority.handle_auth_request(req)
                accepted.append(req)
        state = rig.authority
        assert len(state.replay_cache) > 4096
        for req in accepted:
            with pytest.raises(ReplayDetected):
                state.handle_auth_request(req)
        rig.clock.advance(1000)
        horizon = rig.clock.now() - state.freshness_window_ms
        assert start < horizon < accepted[-1].sent_at
        last = children[0].auth_init()
        state.handle_auth_request(last)
        kept = {(r.child_id, r.sent_at) for r in accepted
                if r.sent_at >= horizon}
        assert state.replay_cache == kept | {(last.child_id, last.sent_at)}
        rig.clock.advance(state.freshness_window_ms + 1)
        alone = children[1].auth_init()
        state.handle_auth_request(alone)
        assert state.replay_cache == {(alone.child_id, alone.sent_at)}
