import random

import pytest

from fogca import curve, wire
from fogca.crypto import ManualClock, seal
from fogca.errors import (
    AuthFailure,
    ConfirmationFailure,
    IdentityMismatch,
    KeyMismatch,
    NoCaSession,
    NonceMismatch,
    NoPendingChallenge,
    NotRegistered,
    StaleTimestamp,
    TimestampOutOfRange,
)

from fogca.scenarios import build_rig
from fogca.simnet import AdversaryPolicy, Replay, Rule

from conftest import Rig


class TestRegistrationConfirmation:
    def test_honest_accept_stores_key(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"])
        key = child.confirm_auth_key(resp,
                                     toy_rig.authority.handle_auth_request)
        assert child.auth_key is not None
        assert toy_rig.authority.sessions[b"cam-01"][1] == key

    @pytest.mark.parametrize("ident", [b"x" * 65, b"\xff\xfe"])
    def test_identity_the_wire_cannot_carry(self, toy_rig, ident):
        drawn = toy_rig.master.getstate()
        with pytest.raises(ValueError, match="1-64 bytes of UTF-8"):
            toy_rig.provision(ident)
        assert toy_rig.master.getstate() == drawn
        assert toy_rig.profiles == {} and toy_rig.store.records == {}

    def test_wrong_channel_key(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"])
        child.channel_key = bytes(32)  # device lost its pre-shared key
        with pytest.raises(AuthFailure):
            child.confirm_auth_key(resp,
                                   toy_rig.authority.handle_auth_request)
        assert child.auth_key is None

    def test_corrupt_authority_key_fails_confirmation(self, toy_rig):
        # an authority that issues A' under the wrong scalar passes the
        # channel check but cannot complete the confirmation handshake
        child = toy_rig.provision(b"cam-01")
        profile = toy_rig.profiles[b"cam-01"]
        toy_rig.authority.register_child(child.request_registration(), profile)
        params = toy_rig.params
        wrong = (toy_rig.authority.private_key + 1) % params.order_n or 1
        bogus = curve.scalar_mul(params, wrong,
                                 curve.hash_to_point(params, b"cam-01"))
        forged_resp = wire.RegistrationResponse(
            seal(child.channel_key, curve.encode_point(params, bogus),
                 random.Random(0)))
        with pytest.raises(ConfirmationFailure):
            child.confirm_auth_key(forged_resp,
                                   toy_rig.authority.handle_auth_request)
        assert child.auth_key is None and child.ca_session is None
        assert not child.confirming

    @pytest.mark.parametrize("now", [-1, 2**64])
    def test_clock_outside_u64_fails_confirmation(self, toy_rig, now):
        child = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"])
        child.clock = ManualClock(now)
        with pytest.raises(ConfirmationFailure) as info:
            child.confirm_auth_key(resp, toy_rig.authority.handle_auth_request)
        assert isinstance(info.value.__cause__, TimestampOutOfRange)
        assert child.auth_key is None and not child.confirming

    def test_failed_handshake_keeps_a_confirmed_key(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        key, session = child.auth_key, child.ca_session
        toy_rig.clock.advance(3)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        child.clock = ManualClock(10**6)  # the response arrives stale
        with pytest.raises(StaleTimestamp):
            child.auth_finish(resp)
        child.handshake_failed()
        assert (child.auth_key, child.ca_session) == (key, session)

    def test_garbage_key_payload(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        resp = wire.RegistrationResponse(
            seal(child.channel_key, b"not-a-point", random.Random(0)))
        with pytest.raises(AuthFailure):
            child.install_auth_key(resp)


class TestAuthInitiator:
    def test_requires_registration(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        with pytest.raises(NotRegistered):
            child.auth_init()

    def test_fresh_randomness_each_run(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(3)
        r1 = child.auth_init()
        toy_rig.clock.advance(3)
        r2 = child.auth_init()
        assert (r1.blinded, r1.x_proof) != (r2.blinded, r2.x_proof)

    def test_finish_without_init(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        resp = wire.AuthResponse(toy_rig.params.base_point,
                                 toy_rig.params.base_point, 0, 0)
        with pytest.raises(NoPendingChallenge):
            child.auth_finish(resp)

    def test_response_after_the_key_is_dropped(self, toy_rig):
        # each handshake finishes with the key that masked its request,
        # but puts no dropped key back and confirms no other key
        params = toy_rig.params
        child = toy_rig.provision(b"cam-01")
        child.install_auth_key(toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"]))
        answered = []
        for _ in range(2):
            toy_rig.clock.advance(5)
            resp = toy_rig.authority.handle_auth_request(child.auth_init())
            answered.append((resp, toy_rig.authority.sessions[b"cam-01"][1]))
        child.handshake_failed()
        assert child.auth_key is None and not child.confirming
        resp, session = answered[0]
        assert child.auth_finish(resp) == session
        assert child.auth_key is None and not child.confirming
        other = curve.scalar_mul(params, 2, toy_rig.authority.registry[
            b"cam-01"].ident_point)
        child.install_auth_key(wire.RegistrationResponse(seal(
            child.channel_key, curve.encode_point(params, other),
            random.Random(0))))
        resp, session = answered[1]
        assert child.auth_finish(resp) == session
        assert child.auth_key == other and child.confirming

    def test_refusal_drops_only_the_key_that_masked_it(self, toy_rig):
        params = toy_rig.params
        child = toy_rig.provision(b"cam-01")
        issued = child.install_auth_key(toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"]))
        toy_rig.clock.advance(5)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        other = curve.scalar_mul(params, 2, issued)
        child.install_auth_key(wire.RegistrationResponse(seal(
            child.channel_key, curve.encode_point(params, other),
            random.Random(0))))
        toy_rig.clock.advance(child.freshness_window_ms + 1)
        with pytest.raises(StaleTimestamp):  # masked with the issued key
            child.auth_finish(resp)
        assert child.auth_key == other and child.confirming
        req = child.auth_init()  # masked with the installed key
        with pytest.raises(KeyMismatch):
            child.auth_finish(wire.AuthResponse(
                params.base_point, params.base_point, req.sent_at,
                req.sent_at))
        assert child.auth_key is None and not child.confirming

    def test_tampered_key_check_rejected(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(5)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        forged = wire.AuthResponse(
            resp.blinded,
            curve.point_add(toy_rig.params, resp.key_check,
                            toy_rig.params.base_point),
            resp.sent_at, resp.request_sent_at)
        with pytest.raises(KeyMismatch):
            child.auth_finish(forged)

    def test_tampered_server_point_rejected(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(5)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        forged = wire.AuthResponse(
            curve.point_add(toy_rig.params, resp.blinded,
                            toy_rig.params.base_point),
            resp.key_check, resp.sent_at, resp.request_sent_at)
        with pytest.raises(KeyMismatch):
            child.auth_finish(forged)

    def test_stale_response_rejected(self, toy_rig):
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(5)
        resp = toy_rig.authority.handle_auth_request(child.auth_init())
        toy_rig.clock.advance(child.freshness_window_ms + 1)
        with pytest.raises(StaleTimestamp):
            child.auth_finish(resp)

    def test_replayed_old_response_rejected(self, toy_rig):
        # it echoes a T1 that no open handshake has, and changes nothing
        child = toy_rig.register(b"cam-01")
        toy_rig.clock.advance(5)
        old_resp = toy_rig.authority.handle_auth_request(child.auth_init())
        child.auth_finish(old_resp)
        toy_rig.clock.advance(child.freshness_window_ms + 50)
        child.auth_init()
        held = (child.auth_key, child.confirming, child.ca_session)
        with pytest.raises(NoPendingChallenge):
            child.auth_finish(old_resp)
        assert (child.auth_key, child.confirming, child.ca_session) == held


class TestPeerExchange:
    def run_flow(self, rig):
        a = rig.register(b"cam-01")
        b = rig.register(b"lock-02")
        init = a.peer_init(b"lock-02")
        target, relay = rig.authority.relay_peer_request(b"cam-01", init)
        initiator, chal = b.peer_respond(relay)
        peer_id, proof = a.peer_accept(chal)
        b.peer_verify(proof, initiator)
        return a, b, proof

    def test_honest_flow_equal_keys(self, toy_rig):
        a, b, _ = self.run_flow(toy_rig)
        assert a.peer_sessions[b"lock-02"] == b.peer_sessions[b"cam-01"]

    def test_requires_ca_session(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        with pytest.raises(NoCaSession):
            child.peer_init(b"lock-02")

    def test_latest_proposal_wins(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        a.peer_init(b"lock-02")
        first = a.proposed[b"lock-02"]
        a.peer_init(b"lock-02")
        assert a.proposed[b"lock-02"] != first

    def test_proof_replay_single_use(self, toy_rig):
        _, b, proof = self.run_flow(toy_rig)
        with pytest.raises(NoPendingChallenge):
            b.peer_verify(proof, b"cam-01")

    def test_wrong_nonce_rejected_and_consumed(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        b = toy_rig.register(b"lock-02")
        _, relay = toy_rig.authority.relay_peer_request(
            b"cam-01", a.peer_init(b"lock-02"))
        _, chal = b.peer_respond(relay)
        key = b.pending_challenges[b"cam-01"][1]
        bogus = wire.PeerProof(seal(key, b"\x00" * 16, random.Random(1)))
        with pytest.raises(NonceMismatch):
            b.peer_verify(bogus, b"cam-01")
        assert b"cam-01" not in b.peer_sessions
        # single-use: the genuine proof is now also refused
        _, proof = a.peer_accept(chal)
        with pytest.raises(NoPendingChallenge):
            b.peer_verify(proof, b"cam-01")

    def test_replayed_relay_cannot_roll_back_the_key(self, toy_rig):
        # A proposes k1, then k2, to B; both exchanges complete; then
        # the first relay reaches B again
        a = toy_rig.register(b"cam-01")
        b = toy_rig.register(b"lock-02")
        relays = []
        for _ in range(2):
            _, relay = toy_rig.authority.relay_peer_request(
                b"cam-01", a.peer_init(b"lock-02"))
            initiator, chal = b.peer_respond(relay)
            _, proof = a.peer_accept(chal)
            b.peer_verify(proof, initiator)
            relays.append(relay)
        k2 = a.peer_sessions[b"lock-02"]
        assert b.peer_sessions[b"cam-01"] == k2
        _, chal = b.peer_respond(relays[0])
        assert b.peer_sessions[b"cam-01"] == k2
        with pytest.raises(AuthFailure):
            a.peer_accept(chal)
        assert a.peer_sessions[b"lock-02"] == b.peer_sessions[b"cam-01"] == k2

    def test_used_proposal_is_retired(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        b = toy_rig.register(b"lock-02")
        _, relay = toy_rig.authority.relay_peer_request(
            b"cam-01", a.peer_init(b"lock-02"))
        _, chal = b.peer_respond(relay)
        a.peer_accept(chal)
        assert a.proposed == {}
        # a replayed challenge is refused, not answered again
        with pytest.raises(AuthFailure):
            a.peer_accept(chal)

    def test_replayed_relay_through_hosts(self, toy):
        rig = build_rig(7, toy, [b"cam-01", b"lock-02"])
        net = rig.net
        for host in rig.children.values():
            host.start_registration(net)
        net.run()
        cam, lock = rig.children[b"cam-01"], rig.children[b"lock-02"]
        assert cam.registered and lock.registered
        # replay the first relay on B's gateway link well after a second
        # exchange has completed
        net.attach_adversary(("gw", "lock-02"), AdversaryPolicy(
            frozenset({"replay"}),
            [Rule(lambda e, m: isinstance(m, wire.PeerRelay), Replay(500))]),
            toy)
        start = net.now
        cam.start_peer(net, b"lock-02")
        net.call_at(start + 100, lambda n: cam.start_peer(n, b"lock-02"))
        net.run()
        assert net.now >= start + 500
        assert lock.established == [b"cam-01", b"cam-01"]
        assert "AuthFailure" in cam.verdicts
        assert lock.state.peer_sessions[b"cam-01"] == \
            cam.state.peer_sessions[b"lock-02"]

    def test_challenge_from_unknown_key(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        a.peer_init(b"lock-02")
        rng = random.Random(2)
        rogue = rng.randbytes(32)
        chal = wire.PeerChallenge(seal(rogue, b"lock-02", rng),
                                  seal(rogue, b"n" * 16, rng))
        with pytest.raises(AuthFailure):
            a.peer_accept(chal)

    def test_identity_substitution_rejected(self, toy_rig):
        # challenge opens under the proposed key but names someone else
        a = toy_rig.register(b"cam-01")
        toy_rig.register(b"lock-02")
        a.peer_init(b"lock-02")
        key = a.proposed[b"lock-02"]
        rng = random.Random(3)
        chal = wire.PeerChallenge(seal(key, b"intruder", rng),
                                  seal(key, b"n" * 16, rng))
        with pytest.raises(IdentityMismatch):
            a.peer_accept(chal)

    def test_tampered_relay_rejected(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        b = toy_rig.register(b"lock-02")
        _, relay = toy_rig.authority.relay_peer_request(
            b"cam-01", a.peer_init(b"lock-02"))
        box = relay.key_box
        flipped = type(box)(box.nonce,
                            bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:],
                            box.tag)
        with pytest.raises(AuthFailure):
            b.peer_respond(wire.PeerRelay(relay.initiator_box, flipped))


class TestLightweightClient:
    """Operation-cost bound: no child operation multiplies more than
    three times and nothing pairs (there is no pairing to call)."""

    def test_auth_init_three_mults(self, prod_rig):
        child = prod_rig.register(b"cam-01")
        prod_rig.clock.advance(5)
        with curve.count_ops() as ops:
            child.auth_init()
        assert ops["scalar_mul"] == 3 and ops["pairing"] == 0

    def test_auth_finish_two_mults(self, prod_rig):
        child = prod_rig.register(b"cam-01")
        prod_rig.clock.advance(5)
        resp = prod_rig.authority.handle_auth_request(child.auth_init())
        with curve.count_ops() as ops:
            child.auth_finish(resp)
        assert ops["scalar_mul"] == 2 and ops["pairing"] == 0

    def test_registration_and_peer_ops_zero_mults(self, prod_rig):
        a = prod_rig.register(b"cam-01")
        b = prod_rig.register(b"lock-02")
        with curve.count_ops() as ops:
            req = a.request_registration()
            init = a.peer_init(b"lock-02")
        assert ops["scalar_mul"] == 0
        _, relay = prod_rig.authority.relay_peer_request(b"cam-01", init)
        with curve.count_ops() as ops:
            initiator, chal = b.peer_respond(relay)
            _, proof = a.peer_accept(chal)
            b.peer_verify(proof, initiator)
        assert ops["scalar_mul"] == 0 and ops["pairing"] == 0


class TestSessionAgreement:
    def test_thousand_seeded_peer_runs(self, toy):
        for seed in range(50):
            rig = Rig(toy, seed=seed)
            a = rig.register(b"cam-01")
            b = rig.register(b"lock-02")
            _, relay = rig.authority.relay_peer_request(
                b"cam-01", a.peer_init(b"lock-02"))
            initiator, chal = b.peer_respond(relay)
            _, proof = a.peer_accept(chal)
            b.peer_verify(proof, initiator)
            assert a.peer_sessions[b"lock-02"] == b.peer_sessions[b"cam-01"]
