import gc
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogca import authority, curve, hosts, wire
from fogca import experiments as ex
from fogca.crypto import seal
from fogca.errors import UnknownDevice, UnknownProfile
from fogca.scenarios import Fleet
from fogca.simnet import AdversaryPolicy, Drop, Network, Rule, SimClock

# small, fast workload for functional tests; the frozen default drives
# the acceptance suite
SMALL = ex.WorkloadSpec(node_count=6, registration_rate=1.0, auth_rate=0.4,
                        duration_s=20.0, server_capacity=500.0)


class TestSettings:
    def test_all_five_settings(self):
        assert set(ex.SETTING_FRACTIONS) == {
            "CloudOnly", "MainlyCloud", "FairlyShared", "MainlyFog",
            "FogOnly"}

    def test_fraction_must_match_name(self):
        # a setting is its name, so only the name can be wrong
        with pytest.raises(ValueError):
            ex.placement("HalfAndHalf")
        with pytest.raises(ValueError):
            ex.run_experiment("HalfAndHalf", SMALL, seed=1)

    def test_placement_lookup(self):
        assert ex.SETTING_FRACTIONS[ex.placement("MainlyFog")] == 0.9
        with pytest.raises(ValueError):
            ex.placement("nope")


class TestWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            ex.WorkloadSpec(node_count=-1)
        with pytest.raises(ValueError):
            ex.WorkloadSpec(auth_rate=0)

    @pytest.mark.parametrize("field, value", [
        ("retransmit_timeout_ms", -5), ("retransmit_timeout_ms", 0),
        ("max_retries", -1), ("freshness_window_ms", -1)])
    def test_timings_that_break_a_run_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ex.WorkloadSpec(**{field: value})

    def test_zero_retries_and_window_accepted(self):
        spec = ex.WorkloadSpec(max_retries=0, freshness_window_ms=0)
        assert (spec.max_retries, spec.freshness_window_ms) == (0, 0)


class TestLinkProfiles:
    def test_default_profile_frozen_numbers(self):
        profile = ex.calibrate_links("default")
        assert profile.thing_fog_ms == 5
        assert profile.fog_cloud_ms == 80
        # the calibrated asymmetry that drives the acceptance ratios
        assert profile.fog_cloud_ms / profile.thing_fog_ms == 16

    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile):
            ex.calibrate_links("marsnet")


class TestRunExperiment:
    def test_zero_nodes_empty_stats(self):
        stats = ex.run_experiment(ex.placement("FogOnly"),
                                  replace(SMALL, node_count=0), seed=1)
        assert stats.empty
        assert stats.registration.count == 0 and stats.auth.count == 0

    def test_single_node(self):
        stats = ex.run_experiment(ex.placement("FogOnly"),
                                  replace(SMALL, node_count=1), seed=1)
        assert stats.registration.count == 1
        assert stats.auth.count > 0
        assert stats.incomplete == 0

    def test_finished_run_is_freed_without_gc(self, monkeypatch):
        # a run left as cyclic garbage lives until a full collection, so
        # back-to-back runs would hold several networks at once
        built = []
        real = ex._build_network

        def keep_weakref(*args):
            net = real(*args)
            built.append(weakref.ref(net))
            return net

        monkeypatch.setattr(ex, "_build_network", keep_weakref)
        gc.disable()
        try:
            ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=3)
            assert built[0]() is None
        finally:
            gc.enable()

    def test_deterministic_per_seed(self):
        a = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=9)
        b = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=9)
        assert a == b

    def test_saturated_cloud_run_pinned(self):
        # any change to event order, routing or randomness moves these;
        # `auth` counts each device's confirmation round
        stats = ex.run_experiment(ex.placement("CloudOnly"),
                                  ex.DEFAULT_WORKLOAD, seed=1)
        assert stats == ex.DelayStats(
            registration=ex.TxnStats(count=40, mean_ms=24016.825, p50_ms=348.0,
                                     p95_ms=122228.39999999997,
                                     max_ms=148711.0),
            auth=ex.TxnStats(count=657, mean_ms=50328.412480974126,
                             p50_ms=14383.0, p95_ms=163454.19999999998,
                             max_ms=190182.0),
            retransmission_count=2383, cloud_tasks=3080, fog_tasks=0,
            cloud_utilization_pct=466.6666666666667, fog_utilization_pct=0.0,
            incomplete=0)

    def test_saturated_cloud_120_run_pinned(self):
        # the benchmark's placement-cloud120 experiment; 80 of its
        # confirmation rounds are among the incomplete transactions
        stats = ex.run_experiment(
            ex.placement("CloudOnly"),
            replace(ex.DEFAULT_WORKLOAD, node_count=120),
            seed=random.Random(2011).getrandbits(32))
        assert stats == ex.DelayStats(
            registration=ex.TxnStats(count=120, mean_ms=192318.58333333334,
                                     p50_ms=151276.5,
                                     p95_ms=514090.69999999995,
                                     max_ms=558827.0),
            auth=ex.TxnStats(count=1057, mean_ms=242889.0189214759,
                             p50_ms=235663.0, p95_ms=540237.2,
                             max_ms=567833.0),
            retransmission_count=11531, cloud_tasks=13586, fog_tasks=0,
            cloud_utilization_pct=2058.4848484848485, fog_utilization_pct=0.0,
            incomplete=878)

    def test_fairly_shared_run_pinned(self):
        # acceptance 8's run; its gw -> fog-ca link is 0 ms, so many
        # events tie on the same ms
        stats = ex.run_experiment(ex.placement("FairlyShared"),
                                  ex.DEFAULT_WORKLOAD, seed=4242)
        assert stats == ex.DelayStats(
            registration=ex.TxnStats(count=40, mean_ms=105.675, p50_ms=12.0,
                                     p95_ms=323.89999999999975, max_ms=452.0),
            auth=ex.TxnStats(count=657, mean_ms=146.96955859969557,
                             p50_ms=12.0, p95_ms=375.19999999999993,
                             max_ms=582.0),
            retransmission_count=0, cloud_tasks=321, fog_tasks=376,
            cloud_utilization_pct=48.63636363636363,
            fog_utilization_pct=1.2533333333333334, incomplete=0)

    def test_no_timeout_after_the_last_retry(self, monkeypatch):
        # a timeout past the final retry could only return at once, so
        # none is armed: each one that fires finds a retry left
        fired = []
        real = hosts.ChildHost._retransmit

        def watched(self, net, txn):
            fired.append((txn.completed_at is None, txn.retries))
            return real(self, net, txn)

        monkeypatch.setattr(hosts.ChildHost, "_retransmit", watched)
        workload = replace(SMALL, server_capacity=5.0, max_retries=2)
        stats = ex.run_experiment(ex.placement("CloudOnly"), workload, seed=5)
        assert stats.incomplete > 0
        assert all(retries < 2 for _, retries in fired)
        assert sum(pending for pending, _ in fired) == \
            stats.retransmission_count > 0

    def test_seed_changes_routing(self):
        a = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=1)
        b = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=2)
        assert (a.cloud_tasks, a.fog_tasks) != (b.cloud_tasks, b.fog_tasks)

    def test_no_retransmits_when_uncongested(self):
        # utilization < 1 and latency far below the timeout: none
        stats = ex.run_experiment(ex.placement("FogOnly"), SMALL, seed=4)
        assert stats.retransmission_count == 0
        assert stats.fog_utilization_pct < 100
        assert stats.auth.max_ms < SMALL.retransmit_timeout_ms

    def test_honest_runs_refuse_nothing_at_the_devices(self, built_devices):
        # every response a device receives completes the handshake it was
        # matched to: a refusal here means two requests shared a T1 or a
        # response was paired with the wrong handshake.  The 120-node runs
        # are the benchmark's experiment and two where a released
        # handshake lands in the ms of a scheduled one
        nodes_120 = replace(ex.DEFAULT_WORKLOAD, node_count=120)
        runs = [(setting, ex.DEFAULT_WORKLOAD, seed)
                for setting in ex.SETTING_FRACTIONS for seed in range(3)]
        runs += [("MainlyCloud", nodes_120, 23), ("MainlyCloud", nodes_120, 28),
                 ("CloudOnly", nodes_120, random.Random(2011).getrandbits(32))]
        for setting, workload, seed in runs:
            ex.run_experiment(setting, workload, seed)
        kinds = Counter(v.kind for dev in built_devices for v in dev.verdicts)
        assert set(kinds) == {"key-agreement"}, kinds

    @pytest.mark.parametrize("window_ms", [2_000, 5_000])
    @pytest.mark.parametrize("nodes", [40, 120])
    @pytest.mark.parametrize("setting", list(ex.SETTING_FRACTIONS))
    def test_honest_runs_refuse_nothing_at_short_windows(
            self, built_devices, setting, nodes, window_ms):
        # a request served stale gets no response, and one retransmitted
        # to the other server may be answered there: neither may pair a
        # response with another handshake
        workload = replace(ex.DEFAULT_WORKLOAD, node_count=nodes,
                           freshness_window_ms=window_ms)
        ex.run_experiment(setting, workload, seed=0)
        kinds = Counter(v.kind for dev in built_devices for v in dev.verdicts)
        assert set(kinds) == {"key-agreement"}, kinds

    @pytest.mark.parametrize("setting", list(ex.SETTING_FRACTIONS))
    def test_links_that_jitter_and_drop_refuse_nothing(
            self, monkeypatch, built_devices, setting):
        # responses overtake each other and some are lost; a lost
        # transaction may stay incomplete, but no response is mispaired
        real = ex._build_network

        def lossy(profile, node_ids, seed):
            net = real(profile, node_ids, seed)
            for node_id in node_ids:
                net.connect_duplex(node_id, "gw", profile.thing_fog_ms,
                                   jitter_ms=3, drop_probability=0.01)
            return net

        monkeypatch.setattr(ex, "_build_network", lossy)
        ex.run_experiment(setting, ex.DEFAULT_WORKLOAD, seed=0)
        kinds = Counter(v.kind for dev in built_devices for v in dev.verdicts)
        assert set(kinds) == {"key-agreement"}, kinds

    def test_stats_internally_consistent(self):
        stats = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=3)
        for txn in (stats.registration, stats.auth):
            assert txn.mean_ms <= txn.max_ms
            assert txn.p50_ms <= txn.p95_ms <= txn.max_ms
        assert stats.cloud_tasks >= 0 and stats.fog_tasks >= 0


DELAY = st.integers(0, 10**7)
# (n - 1) * 0.95 ends in exactly .5 when n - 1 is 10 past a multiple of
# 20, so those lengths take the interpolation's upper branch
HALF_WAY = st.integers(0, 149).map(lambda k: 20 * k + 11)
DELAY_LISTS = st.one_of(
    st.lists(DELAY, min_size=1, max_size=3000),
    HALF_WAY.flatmap(lambda n: st.lists(DELAY, min_size=n, max_size=n)),
    st.builds(lambda d, n: [d] * n, DELAY, st.integers(1, 3000)))


class TestTxnStats:
    @settings(max_examples=100, deadline=None)
    @given(DELAY_LISTS)
    @example([0])
    @example([7] * 3000)
    @example(list(range(2991, 0, -1)))
    def test_matches_numpy(self, delays):
        arr = np.asarray(delays, dtype=float)
        assert ex.TxnStats.from_delays(delays) == ex.TxnStats(
            len(delays), float(np.mean(arr)),
            float(np.percentile(arr, 50)), float(np.percentile(arr, 95)),
            float(arr.max()))


def _server_rig():
    """fog-ca and cloud-ca, one CA sharing one decode memo, and a device
    node `ghost` with no handler, 5 ms from each."""
    net = Network(1)
    net.add_node("fog-ca", role="authority")
    net.add_node("cloud-ca", role="authority")
    net.add_node("ghost", role="child")
    net.connect_duplex("ghost", "fog-ca", 5)
    net.connect_duplex("ghost", "cloud-ca", 5)
    state, _ = authority.setup(curve.toy17(), random.Random(2),
                               SimClock(net))
    decoded = {}
    fog = hosts.AuthorityHost("fog-ca", state, {}, 2, decoded)
    cloud = hosts.AuthorityHost("cloud-ca", state, {}, 2, decoded)
    fog.attach(net)
    cloud.attach(net)
    return net, state, fog, cloud


def _record_ghost(net):
    """Give `ghost` a handler that keeps what is delivered to it."""
    delivered = []
    net.set_handler("ghost", lambda n, e: delivered.append(e))
    return delivered


def _log_serving(monkeypatch, net, log):
    """Make the servers log ("served", child id, now) for each request
    they serve, then refuse it."""
    def fake_answer(state, profiles, src, msg):
        log.append(("served", msg.child_id, net.now))
        raise UnknownDevice("logged")

    monkeypatch.setattr(hosts, "answer", fake_answer)


def _built(monkeypatch, cls):
    """Every `cls` built while the test runs, in order."""
    built = []
    real = cls.__init__

    def spy(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.fixture
def built_hosts(monkeypatch):
    return _built(monkeypatch, hosts.AuthorityHost)


@pytest.fixture
def built_devices(monkeypatch):
    return _built(monkeypatch, hosts.ChildHost)


@pytest.fixture
def decode_calls(monkeypatch):
    """Every payload handed to wire.decode, in order."""
    calls = []
    real = wire.decode

    def counting(data, params=None):
        calls.append(data)
        return real(data, params)

    monkeypatch.setattr(wire, "decode", counting)
    return calls


class TestAuthorityHostQueue:
    def test_unprovisioned_registration_is_a_verdict(self):
        net, state, fog, _ = _server_rig()
        to_ghost = _record_ghost(net)
        net.send("ghost", "fog-ca",
                 wire.encode(wire.RegistrationRequest(b"ghost")))
        net.run()
        assert to_ghost == [] and net.accounting["delivered"] == 1
        assert fog.tasks == 1 and state.registry == {}
        assert fog.refusals == {"UnknownDevice": 1}

    def test_service_time_at_500_tasks_per_second(self, built_hosts):
        ex.run_experiment(ex.placement("FogOnly"), SMALL, seed=1)
        fog, cloud = built_hosts
        assert (fog.node_id, fog.service_ms) == ("fog-ca", 2)
        assert (cloud.node_id, cloud.service_ms) == ("cloud-ca", 91)

    def test_saturated_cloud_refusals_pinned(self, built_hosts):
        # the fogbench placement-cloud120 experiment: most of what the
        # saturated cloud instance serves is a retransmit it refuses
        seed = random.Random(2011).getrandbits(32)
        stats = ex.run_experiment(
            ex.placement("CloudOnly"),
            replace(ex.DEFAULT_WORKLOAD, node_count=120), seed)
        fog, cloud = built_hosts
        assert (stats.cloud_tasks, cloud.tasks, fog.tasks) == (13_586,
                                                               13_586, 0)
        assert cloud.refusals == {
            "ReplayDetected": 5_480, "StaleTimestamp": 6_360,
            "DuplicateRegistration": 569}

    def test_saturated_cloud_traced_peak(self):
        # the same experiment, run once so every cache is warm, then under
        # tracemalloc.  On CPython 3.11.7 its traced peak read 3.23 MB;
        # 4.15 MB when the cloud host kept a verdict per refusal
        seed = random.Random(2011).getrandbits(32)
        workload = replace(ex.DEFAULT_WORKLOAD, node_count=120)
        ex.run_experiment(ex.placement("CloudOnly"), workload, seed)
        gc.collect()
        tracemalloc.start()
        try:
            ex.run_experiment(ex.placement("CloudOnly"), workload, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_900_000

    def test_back_to_back_arrivals_complete_in_arrival_order(self, monkeypatch):
        net, _, fog, _ = _server_rig()
        served = []
        _log_serving(monkeypatch, net, served)
        for name in (b"a", b"b", b"c"):
            net.send("ghost", "fog-ca",
                     wire.encode(wire.RegistrationRequest(name)), at=0)
        net.run()
        assert fog.service_ms == 2
        assert served == [("served", b"a", 7), ("served", b"b", 9),
                          ("served", b"c", 11)]

    def test_completion_and_timer_at_the_same_ms(self, monkeypatch):
        # the order of a timer set on arrival: a timer scheduled before a
        # request arrives runs before its completion at the same ms, one
        # scheduled after the request arrived runs after it
        net, _, _, _ = _server_rig()
        order = []
        _log_serving(monkeypatch, net, order)

        def mark(name):
            return lambda n: order.append((name, n.now))

        net.call_at(7, mark("before-arrival"))
        for name in (b"a", b"b"):
            net.send("ghost", "fog-ca",
                     wire.encode(wire.RegistrationRequest(name)), at=0)
        net.call_at(6, lambda n: (n.call_at(7, mark("after-arrival-7")),
                                  n.call_at(9, mark("after-arrival-9"))))
        net.run()
        assert order == [("before-arrival", 7), ("served", b"a", 7),
                         ("after-arrival-7", 7), ("served", b"b", 9),
                         ("after-arrival-9", 9)]

    def test_retransmit_is_decoded_once_across_instances(self, decode_calls):
        net, _, fog, cloud = _server_rig()
        payload = wire.encode(wire.RegistrationRequest(b"ghost"))
        net.send("ghost", "fog-ca", payload, at=0)
        net.send("ghost", "cloud-ca", payload, at=10)
        net.send("ghost", "fog-ca", payload, at=20)
        net.run()
        assert (fog.tasks, cloud.tasks) == (2, 1)
        assert decode_calls == [payload]

    def test_malformed_payload_refused_each_time(self, decode_calls):
        net, state, fog, _ = _server_rig()
        to_ghost = _record_ghost(net)
        for at in (0, 10):
            net.send("ghost", "fog-ca", b"\xff\x00junk", at=at)
        net.run()
        assert to_ghost == [] and net.accounting["delivered"] == 2
        assert fog.tasks == 2 and fog.decoded == {}
        assert fog.refusals == {"DecodeError": 2}
        assert decode_calls == [b"\xff\x00junk"] * 2
        assert net.accounting["sent"] == 2 and state.registry == {}


def _device_rig():
    """One placement device (a `ChildHost` that retransmits) 5 ms from a
    `fog-ca` host that answers its handshakes at delivery but knows no
    device report, so it refuses every registration: each test delivers
    the registration response it needs.  The device's registration is
    sent at t = 0; the fleet that provisioned it is returned too."""
    net = Network(1)
    net.add_node("fog-ca", role="authority")
    net.add_node("thing-0000", role="child")
    net.connect_duplex("thing-0000", "fog-ca", 5)
    fleet = Fleet(curve.toy17(), random.Random(3), SimClock(net))
    hosts.AuthorityHost("fog-ca", fleet.authority, {}).attach(net)
    dev = hosts.ChildHost("thing-0000", fleet.provision(b"thing-0000"),
                          lambda: "fog-ca", SMALL.max_retries,
                          SMALL.retransmit_timeout_ms)
    dev.attach(net)
    dev.start_registration(net, "fog-ca")
    return net, fleet, dev


def _issue(net, fleet, at=0):
    """Send the device its registration response from `fog-ca` at `at`."""
    issued = fleet.authority.register_child(
        wire.RegistrationRequest(b"thing-0000"), fleet.profiles[b"thing-0000"])
    net.send("fog-ca", "thing-0000", wire.encode(issued), at=at)


def _forge_auth_response(net, fleet, request_sent_at, at):
    """Send the device, from `fog-ca` at `at`, an AuthResponse that
    echoes `request_sent_at` and whose key-confirmation point cannot
    verify."""
    point = fleet.params.base_point
    forged = wire.AuthResponse(point, point, at, request_sent_at)
    net.send("fog-ca", "thing-0000", wire.encode(forged, fleet.params), at=at)


def _strays(params):
    """Payloads that answer no registration: malformed bytes and each
    decodable message other than a RegistrationResponse."""
    rng = random.Random(5)
    box = lambda payload: seal(rng.randbytes(32), payload, rng)  # noqa: E731
    point = params.base_point
    return [b"\xff", wire.RegistrationRequest(b"thing-0000"),
            wire.AuthRequest(b"thing-0000", point, point, 1),
            wire.AuthResponse(point, point, 1, 1),
            wire.PeerInit(box(b"x"), box(b"k" * 32)),
            wire.PeerRelay(box(b"x"), box(b"k" * 32)),
            wire.PeerChallenge(box(b"x"), box(b"n" * 16)),
            wire.PeerProof(box(b"n" * 16))]


class TestDevice:
    def test_forged_registration_response_refused(self):
        # the seal does not open under the device's channel key
        net, fleet, dev = _device_rig()
        rng = random.Random(0)
        forged = wire.RegistrationResponse(seal(rng.randbytes(32), b"k", rng))
        net.send("fog-ca", "thing-0000", wire.encode(forged))
        net.run()
        [txn] = dev.transactions
        assert txn.completed_at is None and txn.retries == SMALL.max_retries
        assert dev.state.auth_key is None
        assert [v.kind for v in dev.verdicts] == ["AuthFailure"]

    def test_refused_response_keeps_its_transaction(self):
        # a forged response at t = 0 is refused; the genuine one at
        # t = 1 ms still completes the registration, and its key is
        # confirmed 10 ms later
        net, fleet, dev = _device_rig()
        rng = random.Random(0)
        forged = wire.RegistrationResponse(seal(rng.randbytes(32), b"k", rng))
        net.send("fog-ca", "thing-0000", wire.encode(forged))
        _issue(net, fleet, at=1)
        net.run()
        registration, confirmation = dev.transactions
        assert registration.completed_at == 6 and registration.retries == 0
        assert confirmation.completed_at == 16
        assert dev.registered and dev.state.auth_key is not None

    def test_refused_auth_response_spends_only_its_handshake(self):
        # the key is confirmed at 15 ms.  A forged response that echoes no
        # open T1 (delivered at 25 ms) spends nothing: the handshake sent
        # at 20 ms completes at 30.  One that echoes T1 = 40 spends that
        # handshake, whose genuine response then finds none open, and the
        # handshake sent at 60 ms still completes
        net, fleet, dev = _device_rig()
        _issue(net, fleet)
        for at in (20, 40, 60):
            net.call_at(at, lambda n: dev.start_auth(n, "fog-ca"))
        _forge_auth_response(net, fleet, request_sent_at=3, at=20)
        _forge_auth_response(net, fleet, request_sent_at=40, at=40)
        net.run()
        _, confirmation, kept, spent, answered = dev.transactions
        assert confirmation.completed_at == 15 and kept.completed_at == 30
        assert spent.completed_at is None
        assert answered.completed_at == 70 and answered.retries == 0
        assert [v.kind for v in dev.verdicts] == [
            "key-agreement", "NoPendingChallenge", "key-agreement",
            "KeyMismatch", "NoPendingChallenge", "key-agreement"]
        assert dev.registered

        # delivered at 11 ms, during the confirmation round: the round
        # still completes and the device keeps its key
        net, fleet, dev = _device_rig()
        _issue(net, fleet)
        _forge_auth_response(net, fleet, request_sent_at=3, at=6)
        net.run()
        assert [v.kind for v in dev.verdicts] == [
            "NoPendingChallenge", "key-agreement"]
        assert dev.registered

    def test_spent_handshake_is_not_sent_again(self):
        # a forged response that echoes the open T1 = 40 spends that
        # handshake: no retry sends it again, so the CA serves the
        # registration, the confirmation round and that handshake once
        net, fleet, dev = _device_rig()
        ca = net.handlers["fog-ca"].__self__
        _issue(net, fleet)
        net.call_at(40, lambda n: dev.start_auth(n, "fog-ca"))
        _forge_auth_response(net, fleet, request_sent_at=40, at=40)
        net.run()
        _, _, spent = dev.transactions
        assert spent.completed_at is None and spent.state is None
        assert spent.retries == 0 and ca.tasks == 3
        assert [v.kind for v in dev.verdicts] == [
            "key-agreement", "KeyMismatch", "NoPendingChallenge"]

    @pytest.mark.parametrize("index", range(8))
    def test_stray_message_consumes_no_transaction(self, index):
        net, fleet, dev = _device_rig()
        stray = _strays(fleet.params)[index]
        if not isinstance(stray, bytes):
            stray = wire.encode(stray, fleet.params)
        net.send("fog-ca", "thing-0000", stray)
        _issue(net, fleet, at=1)
        net.run()
        registration, confirmation = dev.transactions
        assert registration.completed_at == 6 and registration.retries == 0
        assert confirmation.completed_at == 16
        assert dev.registered and dev.state.auth_key is not None
        # the stray ran on the device's own state and was refused there
        assert len(dev.verdicts) == 2
        assert dev.verdicts[1].kind == "key-agreement"

    def test_auth_before_the_key_waits_for_it(self):
        net, fleet, dev = _device_rig()
        dev.start_auth(net, "fog-ca")
        assert len(dev.transactions) == 1 and dev.deferred_auths == 1
        _issue(net, fleet)
        net.run()
        registration, confirmation, handshake = dev.transactions
        assert registration.completed_at == 5 and registration.state is None
        assert confirmation.first_sent == 5
        assert handshake.reply is wire.AuthResponse
        assert handshake.first_sent == 6 and dev.deferred_auths == 0
        assert (confirmation.completed_at, handshake.completed_at) == (15, 16)

    def test_one_auth_request_per_ms(self):
        # the handshake that waited for the key is released at 11 ms,
        # where the device's own schedule starts one too: sent in one ms,
        # they would carry one T1, and the CA would refuse the second as
        # a replay that the device then matches to the wrong response
        net = Network(1)
        net.add_node("ca", role="authority")
        net.add_node("thing", role="child")
        net.connect_duplex("thing", "ca", 5)
        fleet = Fleet(curve.toy17(), random.Random(3), SimClock(net))
        ca = hosts.AuthorityHost("ca", fleet.authority, fleet.profiles)
        dev = hosts.ChildHost("thing", fleet.provision(b"thing"), lambda: "ca")
        ca.attach(net)
        dev.attach(net)
        dev.start_registration(net)
        dev.start_auth(net)
        net.call_at(11, dev.start_auth)
        net.run()
        sent = [wire.decode(t.payload, fleet.params).sent_at
                for t in dev.transactions if t.reply is wire.AuthResponse]
        assert sent == [10, 11, 12]
        assert all(t.completed_at is not None for t in dev.transactions)
        assert not ca.refusals
        assert [v.kind for v in dev.verdicts] == ["key-agreement"] * 3

    def test_lost_response_spends_only_its_handshake(self):
        # two handshakes are in flight and the first one's response is
        # lost: the second is still paired with its own response
        net = Network(1)
        net.add_node("ca", role="authority")
        net.add_node("thing", role="child")
        net.connect_duplex("thing", "ca", 5)
        fleet = Fleet(curve.toy17(), random.Random(3), SimClock(net))
        hosts.AuthorityHost("ca", fleet.authority, fleet.profiles).attach(net)
        dev = hosts.ChildHost("thing", fleet.register(b"thing"), lambda: "ca")
        dev.attach(net)
        drop_first = Rule(lambda event, msg: isinstance(msg, wire.AuthResponse),
                          Drop())
        net.attach_adversary(("ca", "thing"),
                             AdversaryPolicy({"drop"}, [drop_first]),
                             fleet.params)
        net.call_at(1, dev.start_auth)  # T1 = 0 was the in-process round
        net.call_at(2, dev.start_auth)
        net.run()
        lost, answered = dev.transactions
        assert lost.completed_at is None and answered.completed_at == 12
        assert [v.kind for v in dev.verdicts] == ["key-agreement"]


class TestSweep:
    def test_counts_must_ascend(self):
        with pytest.raises(ValueError):
            ex.sweep_nodes(ex.placement("FogOnly"), [10, 5], seed=1)

    def test_counts_may_be_a_generator(self):
        out = ex.sweep_nodes(ex.placement("FogOnly"), (n for n in (2, 3)),
                             seed=1, workload=SMALL)
        assert [s.registration.count for s in out] == [2, 3]

    def test_single_count(self):
        out = ex.sweep_nodes(ex.placement("FogOnly"), [3], seed=1,
                             workload=SMALL)
        assert len(out) == 1 and out[0].registration.count == 3

    def test_more_nodes_more_tasks(self):
        out = ex.sweep_nodes(ex.placement("FogOnly"), [2, 8], seed=1,
                             workload=SMALL)
        assert out[1].fog_tasks > out[0].fog_tasks


class TestCsv:
    def test_export_and_reparse(self, tmp_path):
        stats = ex.run_experiment(ex.placement("MainlyFog"), SMALL, seed=2)
        path = tmp_path / "out.csv"
        ex.export_csv([("MainlyFog", SMALL.node_count, stats)], path)
        rows = ex.read_csv(path)
        assert len(rows) == 2
        reg = next(r for r in rows if r["txn_type"] == "registration")
        assert reg["setting"] == "MainlyFog"
        assert int(reg["nodes"]) == SMALL.node_count
        assert float(reg["mean_ms"]) == round(stats.registration.mean_ms, 3)
        assert int(reg["cloud_tasks"]) == stats.cloud_tasks

    def test_export_deterministic_bytes(self, tmp_path):
        stats = ex.run_experiment(ex.placement("FogOnly"), SMALL, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.export_csv([("FogOnly", 6, stats)], p1)
        ex.export_csv([("FogOnly", 6, stats)], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPlacementMonotonicity:
    def test_mean_delay_monotone_in_fog_fraction(self):
        # averaged over 10 seeds at the frozen default workload
        workload = ex.DEFAULT_WORKLOAD
        averages = []
        for setting in ex.SETTING_FRACTIONS:
            total = 0.0
            for seed in range(10):
                stats = ex.run_experiment(setting, workload, seed=seed)
                n = stats.registration.count + stats.auth.count
                total += (stats.registration.mean_ms * stats.registration.count
                          + stats.auth.mean_ms * stats.auth.count) / n
            averages.append(total / 10)
        assert all(a >= b for a, b in zip(averages, averages[1:])), averages
