import gc
import random
import weakref
from dataclasses import replace

import pytest

from fogca import authority, curve, wire
from fogca import experiments as ex
from fogca.errors import UnknownDevice, UnknownProfile
from fogca.simnet import Network, SimClock

# small, fast workload for functional tests; the frozen default drives
# the acceptance suite
SMALL = ex.WorkloadSpec(node_count=6, registration_rate=1.0, auth_rate=0.4,
                        duration_s=20.0, server_capacity=500.0)


class TestSettings:
    def test_all_five_settings(self):
        names = {s.name for s in ex.ALL_SETTINGS}
        assert names == {"CloudOnly", "MainlyCloud", "FairlyShared",
                         "MainlyFog", "FogOnly"}

    def test_fraction_must_match_name(self):
        with pytest.raises(ValueError):
            ex.PlacementSetting("CloudOnly", 0.5)
        with pytest.raises(ValueError):
            ex.PlacementSetting("HalfAndHalf", 0.5)

    def test_placement_lookup(self):
        assert ex.placement("MainlyFog").fog_fraction == 0.9
        with pytest.raises(ValueError):
            ex.placement("nope")


class TestWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            ex.WorkloadSpec(node_count=-1)
        with pytest.raises(ValueError):
            ex.WorkloadSpec(auth_rate=0)


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
        # recorded from the simulator before routes were memoized; any
        # change to event order, routing or randomness moves these
        stats = ex.run_experiment(ex.placement("CloudOnly"),
                                  ex.DEFAULT_WORKLOAD, seed=1)
        assert stats == ex.DelayStats(
            registration=ex.TxnStats(count=40, mean_ms=19903.4, p50_ms=345.5,
                                     p95_ms=108764.49999999996,
                                     max_ms=134874.0),
            auth=ex.TxnStats(count=617, mean_ms=42526.267423014586,
                             p50_ms=8707.0, p95_ms=147645.79999999996,
                             max_ms=177898.0),
            retransmission_count=2133, cloud_tasks=2790, fog_tasks=0,
            cloud_utilization_pct=422.72727272727275, fog_utilization_pct=0.0,
            incomplete=0)

    def test_saturated_cloud_120_run_pinned(self):
        # the benchmark's placement-cloud120 experiment, recorded before
        # the CA backlog left the event heap and decodes were memoized
        stats = ex.run_experiment(
            ex.placement("CloudOnly"),
            replace(ex.DEFAULT_WORKLOAD, node_count=120),
            seed=random.Random(2011).getrandbits(32))
        assert stats == ex.DelayStats(
            registration=ex.TxnStats(count=120, mean_ms=186897.01666666666,
                                     p50_ms=138079.5,
                                     p95_ms=517837.89999999997,
                                     max_ms=562647.0),
            auth=ex.TxnStats(count=1085, mean_ms=247939.63133640552,
                             p50_ms=240815.0, p95_ms=552215.0,
                             max_ms=597504.0),
            retransmission_count=10767, cloud_tasks=12702, fog_tasks=0,
            cloud_utilization_pct=1924.5454545454545, fog_utilization_pct=0.0,
            incomplete=730)

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

    def test_stats_internally_consistent(self):
        stats = ex.run_experiment(ex.placement("FairlyShared"), SMALL, seed=3)
        for txn in (stats.registration, stats.auth):
            assert txn.mean_ms <= txn.max_ms
            assert txn.p50_ms <= txn.p95_ms <= txn.max_ms
        assert stats.cloud_tasks >= 0 and stats.fog_tasks >= 0


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
    fog = ex._QueuedServer("fog-ca", state, 500.0, {}, decoded)
    cloud = ex._QueuedServer("cloud-ca", state, 500.0, {}, decoded)
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

    monkeypatch.setattr(ex, "answer", fake_answer)


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


class TestQueuedServer:
    def test_unprovisioned_registration_refused_silently(self):
        net, state, fog, _ = _server_rig()
        to_ghost = _record_ghost(net)
        net.send("ghost", "fog-ca",
                 wire.encode(wire.RegistrationRequest(b"ghost")))
        net.run()
        assert to_ghost == [] and net.accounting["delivered"] == 1
        assert fog.tasks == 1 and state.registry == {}

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
        assert decode_calls == [b"\xff\x00junk"] * 2
        assert net.accounting["sent"] == 2 and state.registry == {}


class TestSweep:
    def test_counts_must_ascend(self):
        with pytest.raises(ValueError):
            ex.sweep_nodes(ex.placement("FogOnly"), [10, 5], seed=1)

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
        for setting in ex.ALL_SETTINGS:
            total = 0.0
            for seed in range(10):
                stats = ex.run_experiment(setting, workload, seed=seed)
                n = stats.registration.count + stats.auth.count
                total += (stats.registration.mean_ms * stats.registration.count
                          + stats.auth.mean_ms * stats.auth.count) / n
            averages.append(total / 10)
        assert all(a >= b for a, b in zip(averages, averages[1:])), averages
