"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (run with -s to see them on success);
a failed assertion marks the criterion red.
"""

import time

import pytest

from fogca import curve, experiments, integrity, scenarios
from fogca.errors import IntegrityMismatch, NoPendingChallenge
from fogca.integrity import TrustState, perturb_profile

from conftest import Rig

SETTING = experiments.placement


def _register_run(params, seed):
    """Fresh authority, one child registered and key-confirmed."""
    rig = Rig(params, seed=seed)
    child = rig.register(b"node-%d" % (seed % 97))
    return rig, child


def test_01_honest_end_to_end_both_presets(toy, prod):
    started = time.perf_counter()
    for params in (toy, prod):
        for seed in range(1000):
            rig, child = _register_run(params, seed)
            ident = child.ident
            assert child.ca_session is not None
            assert rig.authority.sessions[ident][1] == child.ca_session[1], \
                f"session key mismatch on {params.name} seed {seed}"
            assert rig.authority.sessions[ident][0] == child.ca_session[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 1 PASS: 2x1000 honest runs, keys agree on both "
          f"presets in 100% ({elapsed:.1f}s)")


def test_02_peer_exchange_and_replay_single_use(toy):
    replays_blocked = 0
    for seed in range(1000):
        rig = Rig(toy, seed=10_000 + seed)
        a = rig.register(b"cam-01")
        b = rig.register(b"lock-02")
        _, relay = rig.authority.relay_peer_request(
            b"cam-01", a.peer_init(b"lock-02"))
        initiator, chal = b.peer_respond(relay)
        _, proof = a.peer_accept(chal)
        b.peer_verify(proof, initiator)
        assert a.peer_sessions[b"lock-02"] == b.peer_sessions[b"cam-01"], \
            f"peer keys differ on seed {seed}"
        with pytest.raises(NoPendingChallenge):
            b.peer_verify(proof, initiator)
        replays_blocked += 1
    assert replays_blocked == 1000
    print("\nACCEPTANCE 2 PASS: 1000 peer exchanges agree; 1000/1000 proof "
          "replays refused (NoPendingChallenge)")


def test_03_attack_suite():
    replay_fresh = replay_stale = impersonate = tamper = passive = 0
    for seed in range(200):
        if scenarios.run_replay(seed, stale=False).blocked:
            replay_fresh += 1
        if scenarios.run_replay(seed, stale=True).blocked:
            replay_stale += 1
        if scenarios.run_tamper(seed).blocked:
            tamper += 1
        r = scenarios.run_impersonate(seed)
        if r.blocked and r.completed:
            impersonate += 1
        p = scenarios.run_passive(seed)
        if p.completed and p.leak_free:
            passive += 1
    assert replay_fresh == 200, f"fresh replay blocked {replay_fresh}/200"
    assert replay_stale == 200, f"stale replay blocked {replay_stale}/200"
    assert impersonate == 200, f"impersonation blocked {impersonate}/200"
    assert tamper == 200, f"tampering blocked {tamper}/200"
    assert passive == 200, f"passive leak-free completion {passive}/200"
    print("\nACCEPTANCE 3 PASS: 200/200 blocked for replay (fresh+stale), "
          "impersonation, tamper; 200/200 passive runs leak-free")


def test_04_ivv_mutation_suite(toy):
    mutations = matches = 0
    for index, fieldname in enumerate(integrity.PROFILE_FIELDS):
        rig = Rig(toy, seed=index)
        child, profile = rig.provision(b"cam-01"), rig.profiles[b"cam-01"]
        mutated = perturb_profile(profile, fieldname)
        with pytest.raises(IntegrityMismatch):
            rig.authority.register_child(child.request_registration(), mutated)
        assert rig.store.get(b"cam-01").trust is TrustState.QUARANTINED
        mutations += 1
    for seed in range(len(integrity.PROFILE_FIELDS)):
        rig = Rig(toy, seed=seed)
        child, profile = rig.provision(b"cam-01"), rig.profiles[b"cam-01"]
        verdict = integrity.verify_ivv(profile,
                                       scenarios.device_profile(b"cam-01"))
        assert verdict.match
        rig.authority.register_child(child.request_registration(), profile)
        matches += 1
    n = len(integrity.PROFILE_FIELDS)
    assert mutations == n and matches == n
    print(f"\nACCEPTANCE 4 PASS: {n}/{n} single-field mutations -> mismatch "
          f"+ quarantine; {n}/{n} unmodified profiles match")


def test_05_curve_oracle_equivalence(toy):
    acc = curve.INFINITY
    for s in range(toy.order_n):
        assert curve.scalar_mul(toy, s, toy.base_point) == acc
        acc = curve.point_add(toy, acc, toy.base_point)
    points = curve.enumerate_points(toy)
    assert (len(points) - (toy.p + 1)) ** 2 <= 4 * toy.p
    for s in range(toy.order_n):
        Q = curve.scalar_mul(toy, s, toy.base_point)
        assert curve.brute_force_dlp(toy, Q) == s
    print(f"\nACCEPTANCE 5 PASS: scalar_mul == naive addition for all "
          f"{toy.order_n} scalars; Hasse bound holds for {len(points)} "
          f"points; DLP oracle inverts all subgroup elements")


def test_06_placement_ratios():
    started = time.perf_counter()
    workload = experiments.DEFAULT_WORKLOAD
    seeds = range(10)

    def mean_over_seeds(setting, field):
        vals = []
        for seed in seeds:
            stats = experiments.run_experiment(SETTING(setting), workload,
                                               seed=seed)
            vals.append(getattr(stats, field).mean_ms)
        return sum(vals) / len(vals)

    cloud_auth = mean_over_seeds("CloudOnly", "auth")
    fog_auth = mean_over_seeds("FogOnly", "auth")
    auth_ratio = fog_auth / cloud_auth
    assert auth_ratio <= 0.05, f"auth ratio {auth_ratio:.4f} > 0.05"

    cloud_reg = mean_over_seeds("CloudOnly", "registration")
    mainly_reg = mean_over_seeds("MainlyCloud", "registration")
    reg_ratio = mainly_reg / cloud_reg
    assert reg_ratio <= 0.65, f"registration ratio {reg_ratio:.3f} > 0.65"

    counts = [10, 40, 80, 120]
    sums = [0.0] * len(counts)
    for seed in seeds:
        sweep = experiments.sweep_nodes(SETTING("CloudOnly"), counts,
                                        seed=seed)
        for i, stats in enumerate(sweep):
            sums[i] += stats.registration.mean_ms
    means = [s / len(list(seeds)) for s in sums]
    assert all(a < b for a, b in zip(means, means[1:])), \
        f"registration means not strictly increasing: {means}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"placement study took {elapsed:.0f}s (budget 300s)"
    print(f"\nACCEPTANCE 6 PASS: auth ratio {auth_ratio:.4f} <= 0.05, "
          f"registration ratio {reg_ratio:.3f} <= 0.65, CloudOnly "
          f"registration means strictly increasing "
          f"{[round(m) for m in means]} over {counts} ({elapsed:.0f}s)")


def test_07_lightweight_client_bound(prod):
    rig = Rig(prod, seed=7)
    a = rig.register(b"cam-01")
    b = rig.register(b"lock-02")
    rig.clock.advance(5)
    worst = 0
    with curve.count_ops() as ops:
        req = a.auth_init()
    worst = max(worst, ops["scalar_mul"])
    assert ops["pairing"] == 0
    resp = rig.authority.handle_auth_request(req)
    with curve.count_ops() as ops:
        a.auth_finish(resp)
    worst = max(worst, ops["scalar_mul"])
    with curve.count_ops() as ops:
        a.request_registration()
        init = a.peer_init(b"lock-02")
    worst = max(worst, ops["scalar_mul"])
    _, relay = rig.authority.relay_peer_request(b"cam-01", init)
    with curve.count_ops() as ops:
        initiator, chal = b.peer_respond(relay)
        _, proof = a.peer_accept(chal)
        b.peer_verify(proof, initiator)
        assert ops["pairing"] == 0
    worst = max(worst, ops["scalar_mul"])
    assert worst <= 3, f"a child operation used {worst} scalar mults"
    print(f"\nACCEPTANCE 7 PASS: max {worst} scalar multiplications per "
          f"child operation, zero pairings")


def test_08_determinism(tmp_path):
    transcripts = [scenarios.run_passive(4242).transcript_jsonl
                   for _ in range(2)]
    assert transcripts[0] == transcripts[1] and transcripts[0]
    replays = [scenarios.run_replay(4242).transcript_jsonl for _ in range(2)]
    assert replays[0] == replays[1]

    paths = []
    for i in range(2):
        stats = experiments.run_experiment(
            SETTING("FairlyShared"), experiments.DEFAULT_WORKLOAD, seed=4242)
        path = tmp_path / f"run{i}.csv"
        experiments.export_csv([("FairlyShared", 40, stats)], path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("\nACCEPTANCE 8 PASS: identical master seed reproduces "
          "byte-identical adversary transcripts and CSV output")
