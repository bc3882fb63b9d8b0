import random
from dataclasses import replace

import pytest

from fogca import authority, curve, wire
from fogca import experiments as ex
from fogca.errors import UnknownProfile
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


class TestQueuedServer:
    def test_unprovisioned_registration_refused_silently(self):
        net = Network(1)
        net.add_node("fog-ca", tier="community", role="authority")
        net.add_node("ghost", tier="thing", role="child")
        net.connect_duplex("ghost", "fog-ca", 5)
        state, _ = authority.setup(curve.toy17(), random.Random(2),
                                   SimClock(net))
        server = ex._QueuedServer("fog-ca", state, 500.0, profiles={})
        server.attach(net)
        net.send("ghost", "fog-ca",
                 wire.encode(wire.RegistrationRequest(b"ghost")))
        delivered = net.run()
        assert [e.dst for e in delivered] == ["fog-ca"]
        assert server.tasks == 1 and state.registry == {}


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
