import hashlib
import random

import pytest

from fogca import curve, scenarios, wire
from fogca.crypto import seal
from fogca.simnet import AdversaryPolicy, Duplicate, Rule


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
        # recorded before the event loop forwarded plain hops itself and
        # toy17 sums and decodings were looked up: any change to event
        # order, seeded bytes or transcript order moves it
        digest = hashlib.sha256()
        for seed in range(50):
            for name in scenarios.SCENARIOS:
                for report in scenarios.run_scenario(name, seed,
                                                     curve.toy17()):
                    digest.update(repr(report).encode())
                    digest.update(report.transcript_jsonl.encode())
        assert digest.hexdigest() == (
            "44a35d67fdb4ebe2cd91e2d12662edb44e3540113cc6d779f6cb21e23b5e1645")


class TestRunScenario:
    def test_replay_runs_both_variants(self):
        names = [r.name for r in scenarios.run_scenario("replay", 1)]
        assert names == ["replay-fresh", "replay-stale"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scenarios.run_scenario("quantum", 1)


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
        verdicts = [v.kind for v in rig.children[b"lock-02"].verdicts]
        assert "peer-established" in verdicts
        assert "NoPendingChallenge" in verdicts

    def test_authority_records_unexpected_message(self):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        stray = wire.RegistrationResponse(
            seal(bytes(32), b"not a request", random.Random(0)))
        rig.net.send("cam-01", "custodian", wire.encode(stray))
        rig.net.run()
        [verdict] = rig.authority_host.verdicts
        assert (verdict.kind, verdict.detail) == ("UnexpectedMessage",
                                                  "RegistrationResponse")

    def test_authority_records_registration_without_report(self):
        rig = scenarios.build_rig(7, curve.toy17(), [b"cam-01"])
        rig.net.send("cam-01", "custodian",
                     wire.encode(wire.RegistrationRequest(b"ghost")))
        rig.net.run()
        [verdict] = rig.authority_host.verdicts
        assert (verdict.kind, verdict.detail) == (
            "UnknownDevice", "no device report for b'ghost'")
