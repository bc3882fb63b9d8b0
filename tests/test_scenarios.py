import dataclasses
import gc
import hashlib
import random
import tracemalloc
import weakref

import pytest

from fogca import curve, hosts, integrity, scenarios, wire
from fogca.crypto import DEFAULT_FRESHNESS_WINDOW_MS, ManualClock, seal
from fogca.integrity import TrustState, perturb_profile
from fogca.errors import UnexpectedMessage, UnknownDevice
from fogca.simnet import (AdversaryPolicy, Delay, Drop, Duplicate, Inject,
                           Modify, Rule, SimClock)


class TestReplay:
    @pytest.mark.parametrize("seed", range(8))
    def test_fresh_window_replay_blocked(self, seed):
        report = scenarios.run_replay(seed, stale=False)
        assert report.blocked and report.completed
        assert "ReplayDetected" in report.observed

    @pytest.mark.parametrize("seed", range(8))
    def test_stale_replay_blocked(self, seed):
        report = scenarios.run_replay(seed, stale=True)
        assert report.blocked and report.completed
        assert "StaleTimestamp" in report.observed


class TestImpersonation:
    @pytest.mark.parametrize("seed", range(4))
    def test_forged_key_blocked(self, seed):
        report = scenarios.run_impersonate(seed)
        assert report.blocked and report.completed


class TestTamper:
    @pytest.mark.parametrize("seed", range(8))
    def test_modified_key_check_blocked(self, seed):
        report = scenarios.run_tamper(seed)
        assert report.blocked
        assert "KeyMismatch" in report.observed


class TestPassive:
    def test_completes_and_leaks_nothing(self):
        report = scenarios.run_passive(3)
        assert report.completed and report.leak_free
        assert report.transcript_jsonl

    def test_transcript_deterministic(self):
        a = scenarios.run_passive(9).transcript_jsonl
        b = scenarios.run_passive(9).transcript_jsonl
        assert a == b


class TestGalleryPinned:
    def test_toy17_reports_and_transcripts_pinned(self):
        # recorded once AuthResponse echoed its request's T1 (the 8 bytes
        # that each such transcript payload gained are the only change):
        # any change to event order, seeded bytes or transcript order
        # moves it
        digest = hashlib.sha256()
        for seed in range(50):
            for name in scenarios.SCENARIOS:
                for report in scenarios.run_scenario(name, seed,
                                                     curve.toy17()):
                    digest.update(repr(report).encode())
                    digest.update(report.transcript_jsonl.encode())
        assert digest.hexdigest() == (
            "eea80975626f9d50846fd9f8b8721cff52a3b99c68394c8062a4e173a834bb83")


class TestDeviceProfile:
    def test_rigs_share_one_profile_per_identity(self, monkeypatch):
        serialized = []
        real = integrity.serialize_profile
        monkeypatch.setattr(integrity, "serialize_profile",
                            lambda p: serialized.append(p) or real(p))
        ident = b"shared-profile"
        rigs = [scenarios.Fleet(curve.toy17(), random.Random(seed),
                                ManualClock()) for seed in range(3)]
        for rig in rigs:
            rig.register(ident)
        assert len({id(rig.profiles[ident]) for rig in rigs}) == 1
        assert len(serialized) == 1


class TestRunScenario:
    def test_replay_runs_both_variants(self):
        names = [r.name for r in scenarios.run_scenario("replay", 1)]
        assert names == ["replay-fresh", "replay-stale"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scenarios.run_scenario("quantum", 1)


class TestRigFreed:
    @pytest.mark.parametrize("name", scenarios.SCENARIOS)
    def test_network_freed_without_gc(self, monkeypatch, name):
        # no reference cycle outlives a scenario, so its rig is freed by
        # reference counting alone
        nets = []
        real = scenarios.build_rig

        def recording(*args):
            rig = real(*args)
            nets.append(weakref.ref(rig.net))
            return rig

        monkeypatch.setattr(scenarios, "build_rig", recording)
        gc.collect()
        gc.disable()
        try:
            scenarios.run_scenario(name, 4, curve.toy17())
            assert nets and [ref() for ref in nets] == [None] * len(nets)
        finally:
            gc.enable()


class TestHostActions:
    """A refusal raised while a child host starts an exchange is a
    verdict, as one raised while it handles a delivery is."""

    def test_peer_exchange_before_registration(self):
        rig = scenarios.build_rig(3, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        rig.net.call_at(1, lambda n: host.start_peer(n, b"lock-02"))
        rig.net.run()
        assert host.verdicts == ["NoCaSession"]
        assert rig.net.accounting["sent"] == 0

    @pytest.mark.parametrize("skew_ms", [-10_000, 2**64])
    def test_handshake_on_a_clock_outside_u64(self, skew_ms):
        rig = scenarios.build_rig(3, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.start_registration(rig.net)
        rig.net.run()
        sent = rig.net.accounting["sent"]
        host.state.clock = SimClock(rig.net, skew_ms=skew_ms)
        rig.net.call_at(rig.net.now + 1, host.start_auth)
        rig.net.run()
        assert host.verdicts == ["key-agreement", "TimestampOutOfRange"]
        assert rig.net.accounting["sent"] == sent
        assert len(host.transactions) == 2 and host.registered

    def test_bad_peer_identity_still_raises(self):
        rig = scenarios.build_rig(3, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.start_registration(rig.net)
        rig.net.run()
        with pytest.raises(ValueError):
            host.start_peer(rig.net, b"\xff\xfe")
        assert host.verdicts == ["key-agreement"]


class TestHostsOverNetwork:
    def test_full_protocol_stack_over_simnet(self):
        rig = scenarios.build_rig(5, curve.toy17(), [b"cam-01", b"lock-02"])
        for host in rig.children.values():
            host.start_registration(rig.net)
        rig.net.run()
        assert all(h.registered for h in rig.children.values())
        rig.children[b"cam-01"].start_peer(rig.net, b"lock-02")
        rig.net.run()
        assert b"cam-01" in rig.children[b"lock-02"].established
        a = rig.children[b"cam-01"].state
        b = rig.children[b"lock-02"].state
        assert a.peer_sessions[b"lock-02"] == b.peer_sessions[b"cam-01"]

    def test_handshake_after_registration_renews_the_session(self):
        # it runs on a state of its own, and its session is the device's
        rig = scenarios.build_rig(5, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.start_registration(rig.net)
        rig.net.run()
        confirmed = host.state.ca_session
        host.start_auth(rig.net)
        rig.net.run()
        assert host.verdicts == ["key-agreement"] * 2
        assert host.state.ca_session != confirmed
        assert host.state.ca_session == \
            rig.authority_host.state.sessions[b"cam-01"]

    def test_duplicated_peer_proof_hits_single_use(self):
        params = curve.toy17()
        rig = scenarios.build_rig(6, params, [b"cam-01", b"lock-02"])

        def is_proof(event, decoded):
            return isinstance(decoded, wire.PeerProof)

        policy = AdversaryPolicy(frozenset({"eavesdrop", "duplicate"}),
                                 [Rule(is_proof, Duplicate(delay_ms=40))])
        rig.net.attach_adversary(("cam-01", "gw"), policy, params)
        for host in rig.children.values():
            host.start_registration(rig.net)
        rig.net.run()
        rig.children[b"cam-01"].start_peer(rig.net, b"lock-02")
        rig.net.run()
        verdicts = rig.children[b"lock-02"].verdicts
        assert "peer-established" in verdicts
        assert "NoPendingChallenge" in verdicts

    @staticmethod
    def register_under(params, capability, rule):
        """Register cam-01 with an adversary on its inbound gateway link."""
        rig = scenarios.build_rig(3, params, [b"cam-01"])
        rig.net.attach_adversary(
            ("gw", "cam-01"),
            AdversaryPolicy(frozenset({"eavesdrop", capability}), [rule]),
            params)
        host = rig.children[b"cam-01"]
        host.start_registration(rig.net)
        rig.net.run()
        return rig, host

    @pytest.mark.parametrize("preset", ["toy17", "prod256"])
    def test_injected_message_during_confirmation_keeps_the_key(self, preset):
        # a forged PeerProof lands between the RegistrationResponse and
        # the confirming AuthResponse: it is refused, and the
        # provisional key survives to be confirmed
        params = curve.load_preset(preset)
        rng = random.Random(1)
        forged = wire.encode(
            wire.PeerProof(seal(rng.randbytes(32), rng.randbytes(16), rng)),
            params)
        rig, host = self.register_under(params, "inject", Rule(
            lambda e, m: isinstance(m, wire.RegistrationResponse),
            Inject(forged)))
        assert host.verdicts == ["NoPendingChallenge", "key-agreement"]
        assert host.registered and host.state.auth_key is not None
        assert host.state.ca_session[1] == \
            rig.authority_host.state.sessions[b"cam-01"][1]

    def test_unconfirmed_key_is_not_registered(self):
        rig, host = self.register_under(curve.toy17(), "drop", Rule(
            lambda e, m: isinstance(m, wire.AuthResponse), Drop()))
        assert host.state.confirming and host.state.auth_key is not None
        assert not host.registered

    @pytest.mark.parametrize("preset", ["toy17", "prod256"])
    def test_duplicated_auth_response_is_refused(self, preset):
        params = curve.load_preset(preset)
        rig, host = self.register_under(params, "duplicate", Rule(
            lambda e, m: isinstance(m, wire.AuthResponse), Duplicate(5)))
        assert host.verdicts == ["key-agreement", "NoPendingChallenge"]
        assert host.registered and host.state.auth_key is not None

    @pytest.mark.parametrize("preset", ["toy17", "prod256"])
    def test_failed_confirmation_drops_the_key_and_session(self, preset):
        # the RegistrationResponse delivered again opens a second
        # confirmation round, whose AuthResponse is tampered with
        params = curve.load_preset(preset)
        responses = []

        def second_auth_response(event, decoded):
            if isinstance(decoded, wire.AuthResponse):
                responses.append(decoded)
            return len(responses) == 2

        rig, host = self.register_under(params, "modify", Rule(
            second_auth_response,
            Modify(lambda raw, m: wire.encode(dataclasses.replace(
                m, key_check=curve.point_neg(params, m.key_check)),
                params))))
        assert host.registered and host.state.ca_session is not None
        [issued] = [e.payload for e in rig.net.transcript()
                    if isinstance(wire.decode(e.payload, params),
                                  wire.RegistrationResponse)]
        rig.net.send("gw", "cam-01", issued)
        rig.net.run()
        assert host.verdicts == ["key-agreement", "KeyMismatch"]
        assert not host.state.confirming and not host.registered
        assert host.state.auth_key is None and host.state.ca_session is None

    def test_late_response_to_an_evicted_handshake_keeps_the_key(self):
        # the response to the handshake after confirmation is held past
        # two windows, while the issued key is delivered again: its
        # round's auth_init evicts that handshake, whose response is then
        # refused without touching the key being confirmed
        params = curve.toy17()
        late = 2 * DEFAULT_FRESHNESS_WINDOW_MS + 20
        responses = []

        def second_auth_response(event, decoded):
            if isinstance(decoded, wire.AuthResponse):
                responses.append(decoded)
            return len(responses) == 2

        rig, host = self.register_under(params, "delay", Rule(
            second_auth_response, Delay(late)))
        [issued] = [e.payload for e in rig.net.transcript()
                    if isinstance(wire.decode(e.payload, params),
                                  wire.RegistrationResponse)]
        t0 = rig.net.now
        host.start_auth(rig.net)
        rig.net.send("gw", "cam-01", issued, at=t0 + late)
        rig.net.run()
        assert host.verdicts == ["key-agreement", "NoPendingChallenge",
                                 "key-agreement"]
        assert host.registered
        assert host.state.ca_session == \
            rig.authority_host.state.sessions[b"cam-01"]

    def test_integrity_mismatch_over_the_network(self):
        # a tampered report quarantines the device; an honest retry is
        # then refused before its report is checked
        rig = scenarios.build_rig(8, curve.toy17(), [b"cam-01"])
        host, custodian = rig.children[b"cam-01"], rig.authority_host
        honest = custodian.reported_profiles[b"cam-01"]
        for report in (perturb_profile(honest, "firmware_digest"), honest):
            custodian.reported_profiles[b"cam-01"] = report
            host.start_registration(rig.net)
            rig.net.run()
            assert not host.registered
            assert b"cam-01" not in custodian.state.registry
        assert list(custodian.refusals.items()) == [
            ("IntegrityMismatch", 1), ("DeviceUntrusted", 1)]
        trust = custodian.state.affinity.get(b"cam-01").trust
        assert trust is TrustState.QUARANTINED

    def test_authority_records_unexpected_message(self):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        stray = wire.RegistrationResponse(
            seal(bytes(32), b"not a request", random.Random(0)))
        rig.net.send("cam-01", "custodian", wire.encode(stray))
        rig.net.run()
        assert rig.authority_host.refusals == {"UnexpectedMessage": 1}
        with pytest.raises(UnexpectedMessage, match="^RegistrationResponse$"):
            hosts.answer(rig.authority_host.state, {}, "cam-01", stray)

    @staticmethod
    def stray_messages(params):
        """One message of each type that only the authority answers."""
        rng = random.Random(4)
        box = lambda payload: seal(rng.randbytes(32), payload, rng)  # noqa: E731
        point = params.base_point
        return [wire.RegistrationRequest(b"cam-01"),
                wire.AuthRequest(b"lock-02", point, point, 7),
                wire.PeerInit(box(b"cam-01"), box(b"k" * 32))]

    @pytest.mark.parametrize("index", range(3))
    def test_child_records_unexpected_message(self, index):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.start_registration(rig.net)
        rig.net.run()
        state = host.state
        held = (state.auth_key, state.ca_session, dict(state.peer_sessions),
                dict(state.pending_challenges), dict(state.proposed))
        stray = self.stray_messages(rig.announcement.params)[index]
        rig.net.send("gw", "cam-01", wire.encode(stray, state.params))
        rig.net.run()
        assert host.verdicts == ["key-agreement", "UnexpectedMessage"]
        assert held == (state.auth_key, state.ca_session,
                        state.peer_sessions, state.pending_challenges,
                        state.proposed)
        assert host.registered

    def test_authority_records_registration_without_report(self):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        rig.net.send("cam-01", "custodian",
                     wire.encode(wire.RegistrationRequest(b"ghost")))
        rig.net.run()
        assert rig.authority_host.refusals == {"UnknownDevice": 1}
        with pytest.raises(UnknownDevice,
                           match=r"^no device report for b'ghost'$"):
            hosts.answer(rig.authority_host.state,
                         rig.authority_host.reported_profiles, "cam-01",
                         wire.RegistrationRequest(b"ghost"))


class TestClockSkew:
    """An honest child whose clock is off by `skew_ms` registers at
    t = 5 s: 5 ms to the authority and 5 ms back, 2,000 ms window."""

    @staticmethod
    def register_skewed(skew_ms, start_ms=5000):
        rig = scenarios.build_rig(3, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.state.clock = SimClock(rig.net, skew_ms=skew_ms)
        rig.net.call_at(start_ms, host.start_registration)
        rig.net.run()
        return (list(rig.authority_host.refusals.elements()),
                host.verdicts, host)

    @pytest.mark.parametrize("skew_ms", range(-5, 6))
    def test_skew_within_the_one_way_delay_registers(self, skew_ms):
        authority_saw, child_saw, host = self.register_skewed(skew_ms)
        assert (authority_saw, child_saw) == ([], ["key-agreement"])
        assert host.registered

    @pytest.mark.parametrize("skew_ms", [-6, -10, -100])
    def test_slow_clock_refuses_the_authority_response(self, skew_ms):
        # T2 reads as sent from the child's future
        authority_saw, child_saw, host = self.register_skewed(skew_ms)
        assert (authority_saw, child_saw) == ([], ["StaleTimestamp"])
        assert host.state.auth_key is None and not host.registered

    @pytest.mark.parametrize("skew_ms", [6, 10, 100, 2500, -2500])
    def test_authority_refuses_the_request(self, skew_ms):
        # T1 from the authority's future, or (at -2,500 ms) older than
        # the window: the child never hears back and stays unconfirmed
        authority_saw, child_saw, host = self.register_skewed(skew_ms)
        assert (authority_saw, child_saw) == (["StaleTimestamp"], [])
        assert host.state.confirming and not host.registered

    @pytest.mark.parametrize("late_ms", [0, 1])
    def test_next_action_after_the_window_ends_the_round(self, late_ms):
        # the round starts when the key arrives, at 5,010 ms; once the
        # window has passed its T1 is stale, so no answer can confirm
        # the key and the host's next action drops it
        rig = scenarios.build_rig(3, curve.toy17(), [b"cam-01"])
        host = rig.children[b"cam-01"]
        host.state.clock = SimClock(rig.net, skew_ms=6)
        rig.net.call_at(5000, host.start_registration)
        rig.net.run()
        window = rig.authority_host.state.freshness_window_ms
        rig.net.call_at(5010 + window + late_ms, host.start_auth)
        rig.net.run()
        assert host.state.confirming == (late_ms == 0)
        assert (host.state.auth_key is None) == (late_ms == 1)
        assert not host.registered

    @pytest.mark.parametrize("skew_ms", [-50, 2**64])
    def test_clock_outside_u64_is_a_verdict(self, skew_ms):
        authority_saw, child_saw, host = self.register_skewed(skew_ms, 0)
        assert (authority_saw, child_saw) == ([], ["TimestampOutOfRange"])
        # the confirmation round never started: the issued key is dropped
        assert host.state.auth_key is None and not host.state.confirming


class TestRefusalFlood:
    """An authority host counts its refusals by kind, so what a flood of
    refused traffic leaves behind does not grow with the flood."""

    @staticmethod
    def junk(params, rng, at):
        return b"\xff" + rng.randbytes(15)  # no message type is 0xff

    @staticmethod
    def forged(params, rng, at):
        def point():
            scalar = curve.random_scalar(params, rng)
            return curve.scalar_mul(params, scalar, params.base_point)
        return wire.encode(wire.AuthRequest(b"cam-01", point(), point(), at),
                           params)

    @staticmethod
    def flood(rig, make, rng, count):
        """Send `count` payloads from the gateway, each at its own T1, 1,000
        to a freshness window (the replay cache keeps the verified T1s of
        one window); return the traced size once all have been served."""
        params, start = rig.announcement.params, rig.net.now + 1
        step = rig.authority_host.state.freshness_window_ms // 1_000
        for at in range(start, start + count * step, step):
            rig.net.send("gw", "custodian", make(params, rng, at), at=at)
        rig.net.run()
        rig.authority_host.decoded.clear()  # the memo is bounded apart
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    # in the 19-element toy group about one forged proof in 20 verifies
    @pytest.mark.parametrize("make, refused", [
        (junk, {"DecodeError": 3_000}),
        (forged, {"BadProof": 2_859}),
    ], ids=["undecodable", "forged"])
    def test_refusal_record_stays_one_count_per_kind(self, make, refused):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        rig.children[b"cam-01"].start_registration(rig.net)
        rig.net.run()
        assert rig.children[b"cam-01"].registered
        rng = random.Random(26)
        tracemalloc.start()
        try:
            first = self.flood(rig, make, rng, 1_000)
            second = self.flood(rig, make, rng, 2_000)
        finally:
            tracemalloc.stop()
            rig.net.handlers.clear()
        assert rig.authority_host.refusals == refused
        # the registration and its confirmation, then the floods
        assert rig.authority_host.tasks == 2 + 3_000
        # what grows is bounded by the window and the curve: the replay
        # cache and toy17's tables; an object kept per refusal would add
        # over 100 KB
        assert second - first < 8_192
