import random

import pytest

from fogca import authority, curve, wire
from fogca.crypto import open_box
from fogca.errors import (
    AuthFailure,
    BadProof,
    DeviceUntrusted,
    DuplicateRegistration,
    Expired,
    IntegrityMismatch,
    MalformedRecord,
    NoSession,
    ReplayDetected,
    Revoked,
    StaleTimestamp,
    TargetRevoked,
    TimestampOutOfRange,
    UnknownDevice,
    UnknownId,
)
from fogca.integrity import TrustState, perturb_profile
from fogca.scenarios import device_profile

from conftest import Rig, ca_line


def register_short_lived(rig, ident: bytes, lifetime_ms: int):
    """Provision, register and confirm `ident` with a key that expires
    after `lifetime_ms`."""
    child = rig.provision(ident)
    child.confirm_auth_key(rig.authority.register_child(
        child.request_registration(), rig.profiles[ident], lifetime_ms),
        rig.authority.handle_auth_request)
    return child


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
        child = toy_rig.provision(b"cam-01")
        resp = toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"])
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
                wire.RegistrationRequest(b"ghost"), device_profile(b"ghost"))

    def test_tampered_profile_quarantines(self, toy_rig):
        child = toy_rig.provision(b"cam-01")
        profile = toy_rig.profiles[b"cam-01"]
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
                                             device_profile(b"cam-01"))
        # a duplicate with a perturbed report is refused before the
        # integrity check, so it cannot quarantine the live device
        record = toy_rig.store.get(b"cam-01")
        since = record.since_ms
        toy_rig.clock.advance(5)
        with pytest.raises(DuplicateRegistration):
            toy_rig.authority.register_child(
                child.request_registration(),
                perturb_profile(record.profile, "os_digest"))
        assert record.trust is TrustState.TRUSTED
        assert record.since_ms == since
        toy_rig.clock.advance(5)
        key = child.auth_finish(
            toy_rig.authority.handle_auth_request(child.auth_init()))
        assert toy_rig.authority.sessions[b"cam-01"][1] == key

    def test_reissue_after_revoke(self, toy_rig):
        toy_rig.register(b"cam-01")
        old = toy_rig.authority.registry[b"cam-01"]
        toy_rig.authority.revoke(b"cam-01", "compromise")
        toy_rig.clock.advance(100)
        toy_rig.register(b"cam-01")
        assert not toy_rig.authority.is_revoked(b"cam-01")
        record = toy_rig.authority.registry[b"cam-01"]
        assert record is not old
        assert record.ident_point == curve.hash_to_point(toy_rig.params,
                                                         b"cam-01")


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
    "000000000f000000000000000f")
PROD_CONFIRM_KEY = "3f8697646acaf101e59eac7c55260eaa25983625aca5d6d0e6e663a7579b1213"
PROD_SESSION_KEY = "175c800cdd41fb902da7212f8fff324da0421e2eaac76e0ee02046f2cb326b02"


class TestGoldenProd256:
    def test_seeded_transcript_is_pinned(self, prod):
        rig = Rig(prod, seed=2011)
        child, profile = rig.provision(b"cam-9"), rig.profiles[b"cam-9"]
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

    def test_negative_timestamp_refused(self, toy_rig):
        # fresh by the window's arithmetic, but outside the timestamp domain
        child = toy_rig.register(b"cam-01")
        req = child.auth_init()
        skewed = wire.AuthRequest(req.child_id, req.blinded, req.x_proof, -1)
        with pytest.raises(TimestampOutOfRange):
            toy_rig.authority.handle_auth_request(skewed)
        assert (b"cam-01", -1) not in toy_rig.authority.replay_cache

    def test_forged_auth_key_rejected(self, prod_rig):
        prod_rig.register(b"cam-01")
        params = prod_rig.params
        forged = prod_rig.provision(b"cam-01x")
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
        # an identity known only before a load is unknown after it
        toy_rig.register(b"cam-01")
        toy_rig.authority.load_records([ca_line(toy_rig.authority),
                                        "CRL 62 5 policy"])
        with pytest.raises(UnknownId):
            toy_rig.authority.revoke(b"cam-01", "policy")

    @pytest.mark.parametrize("first, second, refusal", [
        ("expiry", "policy", Revoked),
        ("policy", "expiry", Expired),
    ])
    def test_latest_revocation_decides(self, toy_rig, first, second,
                                       refusal):
        child = toy_rig.register(b"cam-01")
        a = toy_rig.authority
        first_at = toy_rig.clock.now()
        a.revoke(b"cam-01", first)
        toy_rig.clock.advance(5)
        second_at = toy_rig.clock.now()
        a.revoke(b"cam-01", second)
        lines = [ca_line(a),
                 f"CRL {b'cam-01'.hex()} {first_at} {first}",
                 f"CRL {b'cam-01'.hex()} {second_at} {second}"]
        assert a.dump_records() == [lines[0], lines[2]]
        # a file that lists both revocations is refused at the later one
        with pytest.raises(MalformedRecord, match="^line 3: "):
            a.load_records(lines)
        assert list(a.crl.values()) == [
            authority.CrlEntry(b"cam-01", second_at, second)]
        toy_rig.clock.advance(5)
        with pytest.raises(refusal):
            a.handle_auth_request(child.auth_init())

    def test_registered_and_revoked_line_refused(self, toy_rig):
        # no operation leaves an identity in both the registry and the
        # CRL, so a file listing it in both is refused at the later line
        toy_rig.register(b"cam-01")
        a = toy_rig.authority
        ca, registered = a.dump_records()
        a.revoke(b"cam-01", "policy")
        [_, revoked] = a.dump_records()
        for lines in ([ca, registered, revoked], [ca, revoked, registered]):
            with pytest.raises(MalformedRecord, match="^line 3: "):
                a.load_records(lines)
            assert list(a.registry) == [] and list(a.crl) == [b"cam-01"]

    @pytest.mark.parametrize("revoked", [False, True])
    def test_identity_on_two_lines_refused(self, toy_rig, revoked):
        # a dump lists an identity once; a second line for it is refused
        # rather than loaded over the first
        toy_rig.register(b"cam-01")
        a = toy_rig.authority
        if revoked:
            a.revoke(b"cam-01", "policy")
        held = a.dump_records()
        [ca, line] = held
        kind, cid, *fields = line.split()
        fields[-2] = "999"  # revoked_at | issued_at
        with pytest.raises(MalformedRecord, match="^line 3: .*earlier line"):
            a.load_records([ca, line, " ".join([kind, cid, *fields])])
        assert a.dump_records() == held

    def test_revoke_bad_reason(self, toy_rig):
        toy_rig.register(b"cam-01")
        with pytest.raises(ValueError):
            toy_rig.authority.revoke(b"cam-01", "tuesday")

    def test_short_lived_key_expires(self, toy_rig):
        child = register_short_lived(toy_rig, b"car-77", 10_000)
        toy_rig.clock.advance(11_000)
        assert toy_rig.authority.purge_expired() == 1
        assert toy_rig.authority.purge_expired() == 0
        with pytest.raises(Expired):
            toy_rig.authority.handle_auth_request(child.auth_init())
        assert toy_rig.authority.crl[b"car-77"].reason == "expiry"

    def test_expired_without_purge_still_refused(self, toy_rig):
        child = register_short_lived(toy_rig, b"car-77", 10_000)
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
        # the relayed key reaches B intact and waits there for A's proof
        assert b.pending_challenges[b"cam-01"][1] == a.proposed[b"lock-02"]
        assert b"cam-01" not in b.peer_sessions

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

    def test_expired_sender_cannot_relay(self, toy_rig):
        child = register_short_lived(toy_rig, b"car-77", 10_000)
        toy_rig.register(b"lock-02")
        toy_rig.clock.advance(11_000)  # past its lifetime, not yet purged
        with pytest.raises(Expired):
            toy_rig.authority.relay_peer_request(
                b"car-77", child.peer_init(b"lock-02"))

    def test_quarantined_sender_cannot_relay(self, toy_rig):
        a = toy_rig.register(b"cam-01")
        toy_rig.register(b"lock-02")
        toy_rig.store.set_trust(b"cam-01", TrustState.QUARANTINED)
        with pytest.raises(DeviceUntrusted):
            toy_rig.authority.relay_peer_request(b"cam-01",
                                                 a.peer_init(b"lock-02"))


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
            prod_rig.authority.private_key.to_bytes(params.scalar_width, "big")]
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
        cam = toy_rig.register(b"cam-01")
        register_short_lived(toy_rig, b"car-77", 5000)
        toy_rig.register(b"lock-02")
        toy_rig.authority.revoke(b"lock-02", "compromise")
        path = tmp_path / "registry.txt"
        toy_rig.authority.save_records(path)
        text = path.read_text()
        assert text.splitlines()[0] == ca_line(toy_rig.authority)
        assert [len(line.split()) for line in text.splitlines()
                if line.startswith("REG")] == [4, 4]
        assert toy_rig.store.get(b"cam-01").channel_key.hex() not in text

        # another authority refuses the file at its CA line
        other, _ = authority.setup(toy_rig.params, random.Random(55))
        assert other.public_key != toy_rig.authority.public_key
        with pytest.raises(MalformedRecord, match="^line 1: .*another"):
            other.load_records_file(path)
        assert other.registry == {} and other.crl == {}

        fresh = authority.AuthorityState(
            toy_rig.params, toy_rig.authority.private_key, random.Random(55),
            toy_rig.clock, toy_rig.store)
        fresh.load_records_file(path)
        assert set(fresh.registry) == {b"cam-01", b"car-77"}
        assert fresh.registry[b"car-77"].lifetime_ms == 5000
        assert fresh.is_revoked(b"lock-02")
        assert fresh.crl[b"lock-02"].reason == "compromise"
        # a device registered before the dump authenticates to the loader
        toy_rig.clock.advance(10)
        resp = fresh.handle_auth_request(cam.auth_init())
        assert cam.auth_finish(resp) == fresh.sessions[b"cam-01"][1]

    @pytest.mark.parametrize("preset", ["toy", "prod"])
    def test_dump_of_another_authority_refused(self, preset, request):
        # probe 4: a dump names the authority that wrote it, so a
        # registry from one authority does not load into another
        params = request.getfixturevalue(preset)
        writer, reader = Rig(params, seed=1), Rig(params, seed=99)
        assert writer.authority.public_key != reader.authority.public_key
        writer.register(b"cam-01")
        reader.register(b"lock-02")
        reader.register(b"door-04")
        reader.authority.revoke(b"door-04", "policy")
        held = (dict(reader.authority.registry), dict(reader.authority.crl))
        with pytest.raises(MalformedRecord, match="^line 1: .*another"):
            reader.authority.load_records(writer.authority.dump_records())
        assert (reader.authority.registry, reader.authority.crl) == held

    @pytest.mark.parametrize("preset", ["toy", "prod"])
    def test_restarted_authority_refuses_a_kept_request(self, preset,
                                                        request):
        # probe 8: a request kept from before a restart is still inside
        # the window, but the reloaded authority's replay cache is empty
        params = request.getfixturevalue(preset)
        rig = Rig(params, seed=3)
        cam = rig.register(b"cam-01")
        rig.clock.advance(10)
        kept = cam.auth_init()
        cam.auth_finish(rig.authority.handle_auth_request(kept))
        rig.clock.advance(100)
        restarted = authority.AuthorityState(
            params, rig.authority.private_key, random.Random(9), rig.clock,
            rig.store)
        restarted.load_records(rig.authority.dump_records())
        at_load = cam.auth_init()  # in flight at the restart
        for req in (kept, at_load):
            with pytest.raises(StaleTimestamp):
                restarted.handle_auth_request(req)
        assert restarted.sessions == {} and restarted.replay_cache == set()
        rig.clock.advance(1)
        resp = restarted.handle_auth_request(cam.auth_init())
        session = restarted.sessions[b"cam-01"]
        assert cam.auth_finish(resp) == session[1]
        with pytest.raises(StaleTimestamp):
            restarted.handle_auth_request(kept)
        assert restarted.sessions == {b"cam-01": session}

    def test_dump_holds_no_issued_key(self, prod_rig):
        # on prod256 a key's 65-byte encoding cannot turn up by chance
        children = [prod_rig.register(ident)
                    for ident in (b"cam-01", b"lock-02", b"car-77")]
        prod_rig.authority.revoke(b"lock-02", "compromise")
        dump = "\n".join(prod_rig.authority.dump_records())
        for child in children:
            issued = curve.scalar_mul(
                prod_rig.params, prod_rig.authority.private_key,
                curve.hash_to_point(prod_rig.params, child.ident))
            assert issued == child.auth_key
            encoded = curve.encode_point(prod_rig.params, issued)
            assert encoded.hex() not in dump

    def test_dump_records_is_pinned(self, toy_rig):
        # a register / revoke / reissue / purge history; a reissue drops
        # the identity's CRL line and a later revocation goes last
        a = toy_rig.authority
        for ident in (b"hub-05", b"cam-01", b"lock-02", b"door-04"):
            toy_rig.register(ident)
        toy_rig.clock.advance(5)
        register_short_lived(toy_rig, b"car-77", 50)
        a.revoke(b"lock-02", "policy")
        toy_rig.clock.advance(3)
        a.revoke(b"cam-01", "compromise")
        toy_rig.clock.advance(100)
        assert a.purge_expired() == 1
        toy_rig.register(b"lock-02")
        a.revoke(b"door-04", "policy")
        toy_rig.clock.advance(3)
        a.revoke(b"lock-02", "compromise")
        toy_rig.register(b"cam-01")
        assert a.dump_records() == [
            "CA 040d0a",
            "REG 6875622d3035 5 -",
            "REG 63616d2d3031 141 -",
            "CRL 6361722d3737 128 expiry",
            "CRL 646f6f722d3034 133 policy",
            "CRL 6c6f636b2d3032 136 compromise",
        ]

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
        sent = []
        for _ in range(5000):
            rig.clock.advance(7)
            req = child.auth_init()
            sent.append(req.sent_at)
            rig.authority.handle_auth_request(req)
        assert len(rig.authority.replay_cache) <= 4096 + 1
        # the child keeps, of its unanswered handshakes, only those whose
        # T1 lies within two freshness windows of its last auth_init
        horizon = sent[-1] - 2 * child.freshness_window_ms
        assert list(child._pending_auth) == [t for t in sent if t >= horizon]

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


def count_h1_calls(monkeypatch) -> list[bytes]:
    """Record the identity of every curve.hash_to_point call."""
    calls: list[bytes] = []
    real = curve.hash_to_point

    def counting(params, ident):
        calls.append(ident)
        return real(params, ident)

    monkeypatch.setattr(curve, "hash_to_point", counting)
    return calls


class TestIdentityPointCache:
    def test_handshakes_reuse_the_cached_points(self, toy_rig, monkeypatch):
        calls = count_h1_calls(monkeypatch)
        child = toy_rig.provision(b"cam-01")
        toy_rig.clock.advance(5)
        resp = toy_rig.authority.register_child(child.request_registration(),
                                                toy_rig.profiles[b"cam-01"])
        assert calls == [b"cam-01"]
        child.confirm_auth_key(resp, toy_rig.authority.handle_auth_request)
        assert calls == [b"cam-01", b"cam-01"]  # the child's first finish
        for _ in range(10):
            toy_rig.clock.advance(10)
            req = child.auth_init()
            resp = toy_rig.authority.handle_auth_request(req)
            assert len(calls) == 2
            assert (child.auth_finish(resp)
                    == toy_rig.authority.sessions[b"cam-01"][1])
        assert len(calls) == 2
        point = curve.hash_to_point(toy_rig.params, b"cam-01")
        assert toy_rig.authority.registry[b"cam-01"].ident_point == point
        assert child._ident_point == point

    def test_overlapping_handshakes_answered_out_of_order(self, toy_rig,
                                                           monkeypatch):
        child = toy_rig.provision(b"cam-01")
        toy_rig.clock.advance(5)
        child.install_auth_key(toy_rig.authority.register_child(
            child.request_registration(), toy_rig.profiles[b"cam-01"]))
        calls = count_h1_calls(monkeypatch)
        requests = []
        for _ in range(3):  # all in flight before the first answer
            toy_rig.clock.advance(10)
            requests.append(child.auth_init())
        for req in reversed(requests):  # each paired by its echoed T1
            resp = toy_rig.authority.handle_auth_request(req)
            assert (child.auth_finish(resp)
                    == toy_rig.authority.sessions[b"cam-01"][1])
        assert calls == [b"cam-01"]
        assert not child.confirming and child._pending_auth == {}

    @pytest.mark.parametrize("rig_name", ["toy_rig", "prod_rig"])
    def test_loaded_record_fills_its_point(self, rig_name, request,
                                           monkeypatch):
        rig = request.getfixturevalue(rig_name)
        child = rig.register(b"cam-01")
        restored = authority.AuthorityState(
            rig.params, rig.authority.private_key, random.Random(9),
            rig.clock, rig.store)
        restored.load_records(rig.authority.dump_records())
        record = restored.registry[b"cam-01"]
        assert record.ident_point == curve.hash_to_point(rig.params, b"cam-01")
        assert record == rig.authority.registry[b"cam-01"]
        calls = count_h1_calls(monkeypatch)
        for _ in range(2):  # no handshake hashes the identity
            rig.clock.advance(10)
            resp = restored.handle_auth_request(child.auth_init())
            assert child.auth_finish(resp) == restored.sessions[b"cam-01"][1]
        assert calls == []
