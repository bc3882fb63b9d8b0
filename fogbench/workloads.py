"""The four seeded workloads of the fogca benchmark.

Each workload has a `setup` that builds its starting state from the seed
(timed, and repeated by the runner for `setup_s`) and a `run` that drives
the library's public entry points in a closed loop with one client until
its `Deadline`.  `run` times every operation, checks its outcome
against the expected one and records it in a `Recorder`.

Everything runs in the calling thread.  The seed feeds only this module's
random generators; the library receives the identities, seeds and call
sequence they produce.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter, defaultdict, deque
from dataclasses import asdict, replace

from fogca import authority, curve, experiments, scenarios
from fogca.child import ChildState
from fogca.crypto import ManualClock
from fogca.errors import FogcaError
from fogca.integrity import AffinityStore

# Operations are timed in this thread's CPU time.  The workloads are
# single-threaded and never block, so on an uncontended core CPU time is
# wall time; on a shared host it leaves out the time the host ran someone
# else (steal), which otherwise swings run-to-run figures by tens of
# percent.
cpu = time.thread_time
wall = time.perf_counter


class Deadline:
    """Ends a run after `seconds` of CPU time, so each run measures the
    same amount of work, or after 1.25 times that in wall time, so a run
    on a badly contended host still ends."""

    WALL_SLACK = 1.25

    def __init__(self, seconds: float):
        self.cpu_end = cpu() + seconds
        self.wall_end = wall() + seconds * self.WALL_SLACK

    def fits(self, cpu_s: float = 0.0, wall_s: float = 0.0) -> bool:
        """Whether work of this cost would still end inside the run."""
        return (cpu() + cpu_s < self.cpu_end
                and wall() + wall_s < self.wall_end)


class Recorder:
    """Latency samples by operation kind plus every output check.

    `attempted` counts checked operations; `failed` counts those whose
    outcome differed from the expected one.  `txns` counts completed
    transactions; `rates` holds the transactions per CPU second of each
    window of at least WINDOW_S CPU seconds of the run.  `work` holds
    every scalar-mult count seen per operation kind, so a count that
    varies shows as a set of more than one value.
    """

    WINDOW_S = 1.0

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.txns = 0
        self.rates: list[float] = []
        self.work: dict[str, set[int]] = defaultdict(set)
        self.checked: dict[str, object] = {}
        self.elapsed = 0.0
        self.start()

    def start(self) -> None:
        """Open the first rate window; call when the timed run begins."""
        self._window_start = cpu()
        self._window_txns = 0

    def op(self, kind: str, seconds: float, ok: bool, why: str = "",
           txns: int = 1) -> None:
        """One timed operation; when ok it completed `txns` transactions."""
        self.attempted += 1
        if ok:
            self.samples[kind].append(seconds)
            self.txns += txns
            self._window_txns += txns
        else:
            self.failed += 1
            self.failures[why or kind] += 1
        span = cpu() - self._window_start
        if span >= self.WINDOW_S:
            self.rates.append(self._window_txns / span)
            self.start()

    def check(self, ok: bool, why: str) -> None:
        """An output check that is not itself a timed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[why] += 1

    def absorb(self, other: "Recorder") -> None:
        """Take over the checks and work counts of operations that ran
        untimed (warm-up) or in another phase, but not their samples."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        for name, seen in other.work.items():
            self.work[name] |= seen


def _attempt(fn):
    """Run fn; return (CPU seconds, result, refusal or None)."""
    t0 = cpu()
    try:
        result = fn()
    except FogcaError as exc:
        return cpu() - t0, None, exc
    return cpu() - t0, result, None


def _fresh_preset(name: str) -> curve.CurveParams:
    """Load a preset as a cold process would: parse, validate and fill
    the fixed-base window table, bypassing the loader's memo."""
    getattr(curve.load_preset, "cache_clear", lambda: None)()
    return curve.load_preset(name)


class _Fleet:
    """An authority and its registered children, built only through the
    public API (the same steps as `fogca.cli`)."""

    def __init__(self, params, master: random.Random):
        self.master = master
        self.clock = ManualClock()
        self.store = AffinityStore()
        self.state, self.announcement = authority.setup(
            params, random.Random(master.getrandbits(64)), self.clock,
            self.store)
        self.children: dict[bytes, ChildState] = {}
        self.ops = None  # curve.count_ops counter while a run is active

    def provision(self, ident: bytes) -> ChildState:
        channel_key = random.Random(self.master.getrandbits(64)).randbytes(32)
        self.store.provision(scenarios.device_profile(ident), channel_key)
        child = ChildState(ident, self.announcement, channel_key,
                           random.Random(self.master.getrandbits(64)),
                           self.clock)
        self.children[ident] = child
        return child

    def register(self, child: ChildState, lifetime_ms: int | None = None):
        resp = self.state.register_child(
            child.request_registration(),
            scenarios.device_profile(child.ident), lifetime_ms)
        return child.confirm_auth_key(resp, self.state.handle_auth_request)

    def session_matches(self, child: ChildState) -> bool:
        held = self.state.sessions.get(child.ident)
        return (held is not None and child.ca_session is not None
                and held[1] == child.ca_session[1])

    # -- timed operations ------------------------------------------------------

    def timed_register(self, rec: Recorder, child: ChildState,
                       lifetime_ms: int | None = None) -> bool:
        c0 = self.ops["scalar_mul"]
        seconds, _, exc = _attempt(lambda: self.register(child, lifetime_ms))
        ok = exc is None and self.session_matches(child)
        rec.op("register", seconds, ok,
               f"register: {type(exc).__name__ if exc else 'session keys differ'}")
        if ok:
            rec.work["scalar_mul.register"].add(self.ops["scalar_mul"] - c0)
        return ok

    def timed_auth(self, rec: Recorder, child: ChildState) -> bool:
        ops = self.ops
        counts = []

        def handshake():
            c0 = ops["scalar_mul"]
            req = child.auth_init()
            c1 = ops["scalar_mul"]
            resp = self.state.handle_auth_request(req)
            c2 = ops["scalar_mul"]
            child.auth_finish(resp)
            counts.extend((c1 - c0, c2 - c1, ops["scalar_mul"] - c2))

        seconds, _, exc = _attempt(handshake)
        ok = exc is None and self.session_matches(child)
        rec.op("auth", seconds, ok,
               f"auth: {type(exc).__name__ if exc else 'session keys differ'}")
        if ok:
            rec.work["scalar_mul.auth"].add(sum(counts))
            rec.work["scalar_mul.child_op"].update((counts[0], counts[2]))
        return ok

    def timed_refused_auth(self, rec: Recorder, child: ChildState,
                           expected: str) -> None:
        seconds, _, exc = _attempt(
            lambda: self.state.handle_auth_request(child.auth_init()))
        got = type(exc).__name__ if exc is not None else "accepted"
        rec.op("refused", seconds, got == expected,
               f"refused: expected {expected}, got {got}")


def _check_work(rec: Recorder) -> None:
    """Every handshake, and every registration, takes the same number of
    scalar mults; and the paper's lightweight-client claim holds: no
    child operation needs more than three."""
    for name in ("scalar_mul.auth", "scalar_mul.register"):
        seen = rec.work.get(name)
        if seen:
            rec.check(len(seen) == 1, f"{name} varies: {sorted(seen)}")
    seen = rec.work.get("scalar_mul.child_op", set())
    rec.check(not seen or max(seen) <= 3,
              f"child operation used {max(seen, default=0)} scalar mults")


class ProtocolP256:
    """In-process protocol on prod256: handshakes, registrations of fresh
    devices and peer exchanges, one client, no simulator."""

    name = "protocol-p256"
    primary = "auth"
    setup_repeats = 5
    FLEET = 8
    PEERS_PER_CYCLE = 3

    def setup(self, seed: int):
        master = random.Random(seed)
        fleet = _Fleet(_fresh_preset("prod256"), master)
        for i in range(self.FLEET):
            fleet.clock.advance(7)
            fleet.register(fleet.provision(f"p256-{i:04d}".encode()))
        return fleet

    def run(self, fleet: _Fleet, rec: Recorder, deadline: Deadline) -> None:
        rng = random.Random(fleet.master.getrandbits(64))
        ids = list(fleet.children)
        fresh = 0
        with curve.count_ops() as ops:
            fleet.ops = ops
            while deadline.fits():
                fleet.clock.advance(rng.randint(1, 5))
                fleet.timed_auth(rec, fleet.children[rng.choice(ids)])
                fleet.clock.advance(rng.randint(1, 5))
                child = fleet.provision(f"p256-new-{fresh:05d}".encode())
                fresh += 1
                if fleet.timed_register(rec, child):
                    ids.append(child.ident)
                for _ in range(self.PEERS_PER_CYCLE):
                    a, b = rng.sample(ids, 2)
                    self._peer(fleet, rec, fleet.children[a],
                               fleet.children[b])
        _check_work(rec)

    @staticmethod
    def _peer(fleet: _Fleet, rec: Recorder, a: ChildState, b: ChildState):
        def exchange():
            target, relay = fleet.state.relay_peer_request(
                a.ident, a.peer_init(b.ident))
            initiator, challenge = fleet.children[target].peer_respond(relay)
            peer_id, proof = a.peer_accept(challenge)
            b.peer_verify(proof, initiator)
            return peer_id

        seconds, peer_id, exc = _attempt(exchange)
        ok = (exc is None and peer_id == b.ident
              and a.peer_sessions.get(b.ident) == b.peer_sessions.get(a.ident))
        rec.op("peer", seconds, ok,
               f"peer: {type(exc).__name__ if exc else 'peer keys differ'}")


class FleetStormToy17:
    """In-process protocol on toy17 with a fleet of thousands: a
    reconnect storm of three handshakes per virtual millisecond,
    interleaved with revocations, refused attempts, re-registrations and
    short-lived registrations that purge_expired retires."""

    name = "fleet-storm-toy17"
    primary = "auth"
    setup_repeats = 3
    FLEET = 4000
    REGISTER_PER_MS = 3
    SETUP_POLICY_REVOKED = 1200
    SETUP_COMPROMISED = 800

    def setup(self, seed: int):
        master = random.Random(seed)
        fleet = _Fleet(_fresh_preset("toy17"), master)
        ids = [f"storm-{i:05d}".encode() for i in range(self.FLEET)]
        for k, ident in enumerate(ids):
            if k % self.REGISTER_PER_MS == 0:
                fleet.clock.advance(1)
            fleet.register(fleet.provision(ident))
        master.shuffle(ids)
        cut = self.SETUP_POLICY_REVOKED + self.SETUP_COMPROMISED
        for ident in ids[:self.SETUP_POLICY_REVOKED]:
            fleet.state.revoke(ident, "policy")
        for ident in ids[self.SETUP_POLICY_REVOKED:cut]:
            fleet.state.revoke(ident, "compromise")
        return _Storm(fleet, ids[cut:], ids[:self.SETUP_POLICY_REVOKED],
                      ids[self.SETUP_POLICY_REVOKED:cut])

    def warm_up(self, storm: "_Storm", rec: Recorder) -> None:
        """Run the storm untimed until the set-up's replay-cache entries
        start to leave the freshness window; from then on the cache holds
        a steady ~6,000 entries, so the measured part has no ramp."""
        warm = Recorder()
        until = storm.fleet.state.freshness_window_ms
        with curve.count_ops() as ops:
            storm.fleet.ops = ops
            while storm.fleet.clock.now() < until:
                storm.cycle(warm)
        rec.absorb(warm)

    def run(self, storm: "_Storm", rec: Recorder, deadline: Deadline) -> None:
        with curve.count_ops() as ops:
            storm.fleet.ops = ops
            while deadline.fits():
                storm.cycle(rec)
        rec.checked["crl_entries_at_end"] = len(storm.fleet.state.crl)
        rec.checked["replay_cache_at_end"] = len(
            storm.fleet.state.replay_cache)
        _check_work(rec)


class _Storm:
    """The storm's device pools and its 10 ms cycle."""

    AUTHS_PER_MS = 3
    CYCLE_MS = 10
    PURGE_EVERY_CYCLES = 10
    SHORT_LIFETIME_MS = 250

    def __init__(self, fleet: _Fleet, active, policy_pool, compromised):
        self.fleet = fleet
        self.rng = random.Random(fleet.master.getrandbits(64))
        self.active = active
        self.policy_pool = policy_pool
        self.compromised = compromised
        self.short: deque = deque()     # (expires_at, id), registration order
        self.unpurged: deque = deque()  # short-lived, not yet purged
        self.retired: deque = deque()   # expired, refused attempt to make
        self.cycles = 0
        self.fresh = 0

    def cycle(self, rec: Recorder) -> None:
        """Three reconnects per virtual ms; each ms of the cycle then adds
        at most one bookkeeping operation.  Reconnects come first, so a
        device registered in this ms authenticates from the next one and
        no (identity, T1) pair repeats."""
        fleet, rng = self.fleet, self.rng
        for ms in range(self.CYCLE_MS):
            fleet.clock.advance(1)
            t = fleet.clock.now()
            for ident in _distinct(rng, self.active, self.AUTHS_PER_MS):
                fleet.timed_auth(rec, fleet.children[ident])
            while self.short and self.short[0][0] < t:
                self.retired.append(self.short.popleft()[1])
            if ms == 0 and self.cycles % self.PURGE_EVERY_CYCLES == 0:
                self._purge(rec, t)
            elif ms == 1:
                self._revoke(rec)
            elif ms == 3:
                pool = (self.policy_pool if self.cycles % 2 and self.policy_pool
                        else self.compromised)
                fleet.timed_refused_auth(
                    rec, fleet.children[rng.choice(pool)], "Revoked")
            elif ms == 5 and self.policy_pool:
                pool = self.policy_pool
                ident = pool.pop(rng.randrange(len(pool)))
                if fleet.timed_register(rec, fleet.children[ident]):
                    self.active.append(ident)
            elif ms == 7:
                child = fleet.provision(f"short-{self.fresh:06d}".encode())
                self.fresh += 1
                if fleet.timed_register(rec, child, self.SHORT_LIFETIME_MS):
                    expiry = t + self.SHORT_LIFETIME_MS
                    self.short.append((expiry, child.ident))
                    self.unpurged.append((expiry, child.ident))
            elif ms == 9 and self.retired:
                fleet.timed_refused_auth(
                    rec, fleet.children[self.retired.popleft()], "Expired")
        self.cycles += 1

    def _revoke(self, rec: Recorder) -> None:
        ident = self.active.pop(self.rng.randrange(len(self.active)))
        reason = "policy" if self.cycles % 2 else "compromise"
        entry = self.fleet.state.revoke(ident, reason)
        rec.check(entry.child_id == ident and entry.reason == reason,
                  "revoke returned a wrong CRL entry")
        (self.policy_pool if reason == "policy"
         else self.compromised).append(ident)

    def _purge(self, rec: Recorder, t: int) -> None:
        expected = 0
        while self.unpurged and self.unpurged[0][0] < t:
            self.unpurged.popleft()
            expected += 1
        purged = self.fleet.state.purge_expired()
        rec.check(purged == expected,
                  f"purge_expired retired {purged}, expected {expected}")


def _distinct(rng: random.Random, pool: list, k: int) -> list:
    """k distinct members of pool: one millisecond's (identity, T1)
    pairs must not repeat."""
    picked: list = []
    while len(picked) < k:
        item = pool[rng.randrange(len(pool))]
        if item not in picked:
            picked.append(item)
    return picked


class PlacementCloud120:
    """experiments.run_experiment on CloudOnly at 120 nodes, repeated on
    one seed so every DelayStats field can be compared across repeats."""

    name = "placement-cloud120"
    primary = "experiment"
    # one set-up takes about 1 ms: repeat it for about 2 s so setup_s is
    # not one instant's reading of the host's speed
    setup_repeats = 2001
    NODES = 120
    # traced run: one untraced experiment for the overhead figure, then
    # exactly two traced ones, so their message counts can be compared
    TRACE_PHASES = ({"min_runs": 1}, {"min_runs": 2, "max_runs": 2})

    def __init__(self, min_runs: int = 2, max_runs: int | None = None):
        self.min_runs = min_runs
        self.max_runs = max_runs

    def setup(self, seed: int):
        params = _fresh_preset("toy17")
        experiments.calibrate_links("default")
        return {
            "seed": random.Random(seed).getrandbits(32),
            "params": params,
            "setting": experiments.placement("CloudOnly"),
            "workload": replace(experiments.DEFAULT_WORKLOAD,
                                node_count=self.NODES),
        }

    def run(self, ctx, rec: Recorder, deadline: Deadline) -> None:
        first = None
        runs = 0
        cpu_start, wall_start = cpu(), wall()
        while True:
            t0 = cpu()
            stats = experiments.run_experiment(
                ctx["setting"], ctx["workload"], ctx["seed"], "default",
                ctx["params"])
            seconds = cpu() - t0
            runs += 1
            fields = asdict(stats)
            if first is None:
                first = fields
            issued = (stats.registration.count + stats.auth.count
                      + stats.incomplete)
            rec.op("experiment", seconds, fields == first,
                   "DelayStats differ between repeats of one seed",
                   txns=issued - stats.incomplete)
            rec.work["experiment.issued"].add(issued)
            rec.work["experiment.incomplete"].add(stats.incomplete)
            rec.work["experiment.ca_tasks"].add(stats.cloud_tasks
                                                + stats.fog_tasks)
            rec.work["experiment.retransmissions"].add(
                stats.retransmission_count)
            if self.max_runs is not None and runs >= self.max_runs:
                break
            if runs >= self.min_runs and not deadline.fits(
                    (cpu() - cpu_start) / runs, (wall() - wall_start) / runs):
                break
        rec.checked["delay_stats"] = first


class GalleryToy17:
    """scenarios.run_scenario for replay (fresh and stale) and tamper on
    toy17, one round per seed of a consecutive list."""

    name = "gallery-toy17"
    primary = "round"
    setup_repeats = 401  # about 4 ms each, so about 2 s in all
    SCENARIOS = ("replay", "tamper")
    EXPECTED = {"replay-fresh": "ReplayDetected",
                "replay-stale": "StaleTimestamp",
                "tamper": "KeyMismatch"}

    def setup(self, seed: int):
        params = _fresh_preset("toy17")
        base = random.Random(seed).getrandbits(31) + 1
        # warm-up round on a seed outside the measured list
        warm = Recorder()
        self._round(params, base - 1, warm)
        return {"params": params, "base": base, "warm": warm}

    def run(self, ctx, rec: Recorder, deadline: Deadline) -> None:
        rec.absorb(ctx["warm"])
        i = 0
        while deadline.fits():
            self._round(ctx["params"], ctx["base"] + i, rec)
            i += 1
        rec.checked["seeds"] = [ctx["base"], ctx["base"] + i - 1]

    def _round(self, params, seed: int, rec: Recorder) -> None:
        t0 = cpu()
        reports = []
        for name in self.SCENARIOS:
            reports.extend(scenarios.run_scenario(name, seed, params))
        seconds = cpu() - t0
        bad = [r.name for r in reports
               if not (r.blocked and self.EXPECTED.get(r.name) in r.observed)]
        ok = len(reports) == len(self.EXPECTED) and not bad
        rec.op("round", seconds, ok, "round: not blocked as expected: "
                                     f"{bad or [r.name for r in reports]}",
               txns=len(reports))


WORKLOADS = {w.name: w for w in (ProtocolP256, FleetStormToy17,
                                 PlacementCloud120, GalleryToy17)}


def source_digest(root) -> str:
    """sha256 over the package sources, so a result names the code it
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fogca").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]
