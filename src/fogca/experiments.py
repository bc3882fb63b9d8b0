"""Placement study: where the CA runs versus what authentication costs.

Five traffic splits route each transaction to a fog-hosted CA instance
or to the remote cloud instance.  Both instances are the same logical
CA (shared registry and session table); each is a FIFO queue with a
deterministic service time.  Devices run the real registration and
mutual-authentication exchanges over the simulated network, retransmit
when a response is late (the duplicate is refused by the replay cache
but still consumes server capacity, which is the congestion-inflation
effect), and every delay statistic comes out of completed transactions.

Transactions overlap freely: a device may have several handshakes in
flight, each tracked by its own handshake state and matched to its
response by per-(device, server) FIFO order, which the drop-free,
jitter-free default profile guarantees.

The protocol math runs on the toy curve by default: placement delays
come from links and queues, not from field sizes, and the cryptographic
correctness of the exchanges is covered by the protocol test suites.
"""

from __future__ import annotations

import configparser
import csv
import random
from collections import deque
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import authority, curve, wire
from .child import ChildState
from .errors import FogcaError, UnknownProfile
from .hosts import answer
from .integrity import AffinityStore
from .scenarios import provision
from .simnet import Network, SimClock

SETTING_FRACTIONS = {
    "CloudOnly": 0.0,
    "MainlyCloud": 0.1,
    "FairlyShared": 0.5,
    "MainlyFog": 0.9,
    "FogOnly": 1.0,
}


@dataclass(frozen=True)
class PlacementSetting:
    """Named fraction of transactions served by the fog CA."""
    name: str
    fog_fraction: float

    def __post_init__(self):
        expected = SETTING_FRACTIONS.get(self.name)
        if expected is None or abs(expected - self.fog_fraction) > 1e-9:
            raise ValueError(
                f"setting {self.name!r} must use fraction {expected}")


def placement(name: str) -> PlacementSetting:
    if name not in SETTING_FRACTIONS:
        raise ValueError(f"unknown setting {name!r}; "
                         f"pick from {sorted(SETTING_FRACTIONS)}")
    return PlacementSetting(name, SETTING_FRACTIONS[name])


ALL_SETTINGS = tuple(placement(n) for n in SETTING_FRACTIONS)


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
        if self.node_count < 0:
            raise ValueError("node_count must be >= 0")
        for name in ("registration_rate", "auth_rate", "duration_s",
                     "server_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_WORKLOAD = WorkloadSpec()


@dataclass(frozen=True)
class LinkProfile:
    name: str
    thing_fog_ms: int
    fog_cloud_ms: int
    jitter_ms: int
    drop_probability: float
    cloud_capacity_scale: float


def calibrate_links(profile_name: str) -> LinkProfile:
    """Load a frozen link/capacity profile from the packaged config."""
    cfg = configparser.ConfigParser()
    cfg.read_string(resources.files("fogca.data")
                    .joinpath("link_profiles.ini").read_text())
    if profile_name not in cfg:
        raise UnknownProfile(f"no link profile named {profile_name!r}")
    sec = cfg[profile_name]
    return LinkProfile(
        profile_name,
        thing_fog_ms=sec.getint("thing_fog_ms"),
        fog_cloud_ms=sec.getint("fog_cloud_ms"),
        jitter_ms=sec.getint("jitter_ms"),
        drop_probability=sec.getfloat("drop_probability"),
        cloud_capacity_scale=sec.getfloat("cloud_capacity_scale"))


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
        arr = np.asarray(delays, dtype=float)
        return cls(len(delays), float(arr.mean()),
                   float(np.percentile(arr, 50)),
                   float(np.percentile(arr, 95)), float(arr.max()))


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


class _QueuedServer:
    """FIFO single server: each arriving request waits for the queue,
    then takes one deterministic service slot before being answered.

    Waiting requests sit in a deque and only the head has a timer on the
    network, pushed under the insertion number its request took on
    arrival; completions strictly increase, so the network runs each
    one exactly where a timer set on arrival would have run.  `decoded`
    maps payload bytes to their message and is shared by the instances
    of one CA: a retransmit is decoded once, a malformed payload every
    time it is served."""

    def __init__(self, node_id: str, state: authority.AuthorityState,
                 capacity_tps: float, profiles,
                 decoded: dict[bytes, wire.ProtocolMessage]):
        self.node_id = node_id
        self.state = state
        self.service_ms = max(1, round(1000.0 / capacity_tps))
        self.profiles = profiles
        self.decoded = decoded
        self.busy_until = 0
        self.tasks = 0
        self.waiting: deque[tuple[int, int, str, bytes]] = deque()

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.on_delivery)

    def on_delivery(self, net: Network, event) -> None:
        self.tasks += 1
        done = self.busy_until = max(net.now, self.busy_until) + self.service_ms
        ticket = net.ticket()
        self.waiting.append((done, ticket, event.src, event.payload))
        if len(self.waiting) == 1:
            net.schedule(done, ticket, self.process)

    def process(self, net: Network) -> None:
        _, _, src, payload = self.waiting.popleft()
        if self.waiting:
            done, ticket, _, _ = self.waiting[0]
            net.schedule(done, ticket, self.process)
        try:
            msg = self.decoded.get(payload)
            if msg is None:
                msg = self.decoded[payload] = wire.decode(payload,
                                                          self.state.params)
            dest, reply = answer(self.state, self.profiles, src, msg)
        except FogcaError:
            return  # refusals (replayed retransmits, duplicates) are silent
        net.send(self.node_id, dest, reply)


@dataclass
class _Txn:
    kind: str              # "registration" | "auth"
    dest: str              # server node id
    payload: bytes
    first_sent: int = 0
    completed_at: int | None = None
    retries: int = 0
    handshake: ChildState | None = None


class _Device:
    """One thing node: issues its registration and auth transactions at
    scheduled times, retransmits the same bytes on timeout, and matches
    responses to transactions in per-server FIFO order."""

    def __init__(self, base: ChildState, workload: WorkloadSpec, pick_server):
        self.base = base
        self.node_id = base.ident.decode()
        self.workload = workload
        self.pick_server = pick_server
        # transactions sent per (server, kind), in send order; those
        # answered through another server are dropped on reaching the front
        self.outstanding: dict[tuple[str, str], deque[_Txn]] = {}
        self.deferred_auths = 0
        self.stats: list[_Txn] = []
        self.retransmissions = 0

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.on_delivery)

    # -- sending -------------------------------------------------------------

    def send_txn(self, net: Network, txn: _Txn) -> None:
        txn.first_sent = net.now
        self.stats.append(txn)
        self._expect(txn.dest, txn)
        net.send(self.node_id, txn.dest, txn.payload)
        self._arm_timeout(net, txn)

    def _arm_timeout(self, net: Network, txn: _Txn) -> None:
        at = net.now + self.workload.retransmit_timeout_ms
        net.call_at(at, lambda n, t=txn: self._maybe_retransmit(n, t))

    def _maybe_retransmit(self, net: Network, txn: _Txn) -> None:
        if txn.completed_at is not None:
            return
        if txn.retries >= self.workload.max_retries:
            return
        txn.retries += 1
        self.retransmissions += 1
        # identical bytes, but the retry re-picks its CA instance: the
        # shared registry/replay-cache makes either server answer it
        # correctly, and a fog retry rescues a cloud-queued transaction
        retry_dest = self.pick_server()
        if retry_dest != txn.dest:
            self._expect(retry_dest, txn)
        net.send(self.node_id, retry_dest, txn.payload)
        self._arm_timeout(net, txn)

    def start_registration(self, net: Network, dest: str) -> None:
        payload = wire.encode(self.base.request_registration())
        self.send_txn(net, _Txn("registration", dest, payload))

    def start_auth(self, net: Network, dest: str) -> None:
        base = self.base
        if base.auth_key is None:
            # not registered yet: hold the slot until registration lands
            self.deferred_auths += 1
            return
        handshake = base.handshake()
        payload = wire.encode(handshake.auth_init(), base.params)
        self.send_txn(net, _Txn("auth", dest, payload, handshake=handshake))

    # -- receiving -------------------------------------------------------------

    def on_delivery(self, net: Network, event) -> None:
        try:
            msg = wire.decode(event.payload, self.base.params)
        except FogcaError:
            return
        if isinstance(msg, wire.RegistrationResponse):
            txn = self._pop(event.src, "registration")
            if txn is None:
                return
            self.base.install_auth_key(msg)
            txn.completed_at = net.now
            self._release_deferred(net)
        elif isinstance(msg, wire.AuthResponse):
            txn = self._pop(event.src, "auth")
            if txn is None:
                return
            try:
                txn.handshake.auth_finish(msg)
            except FogcaError:
                return  # leaves the transaction incomplete
            txn.completed_at = net.now

    def _expect(self, server: str, txn: _Txn) -> None:
        self.outstanding.setdefault((server, txn.kind), deque()).append(txn)

    def _pop(self, server: str, kind: str) -> _Txn | None:
        """The oldest unanswered `kind` transaction sent to `server`."""
        queue = self.outstanding.get((server, kind))
        while queue:
            txn = queue.popleft()
            if txn.completed_at is None:
                return txn
        return None

    def _release_deferred(self, net: Network) -> None:
        held, self.deferred_auths = self.deferred_auths, 0
        # stagger by 1 ms so each handshake gets a distinct timestamp
        for k in range(held):
            dest = self.pick_server()
            net.call_at(net.now + 1 + k,
                        lambda n, s=dest: self.start_auth(n, s))


def _build_network(profile: LinkProfile, node_ids, seed: int) -> Network:
    net = Network(seed)
    net.add_node("cloud-ca", role="authority")
    net.add_node("fog-ca", role="authority")
    net.add_node("gw", role="proxy")
    net.connect_duplex("gw", "fog-ca", 0, profile.jitter_ms,
                       profile.drop_probability)
    net.connect_duplex("gw", "cloud-ca", profile.fog_cloud_ms,
                       profile.jitter_ms, profile.drop_probability)
    for node_id in node_ids:
        net.add_node(node_id, role="child")
        net.connect_duplex(node_id, "gw", profile.thing_fog_ms,
                           profile.jitter_ms, profile.drop_probability)
    return net


def run_experiment(setting: PlacementSetting, workload: WorkloadSpec,
                   seed: int, profile_name: str = "default",
                   params: curve.CurveParams | None = None) -> DelayStats:
    """One full placement run; deterministic in (setting, workload, seed)."""
    profile = calibrate_links(profile_name)
    params = params or curve.toy17()
    master = random.Random(seed)

    idents = [f"thing-{i:04d}".encode() for i in range(workload.node_count)]
    net = _build_network(profile, [i.decode() for i in idents],
                         master.getrandbits(32))
    clock = SimClock(net)
    store = AffinityStore()
    state, announcement = authority.setup(
        params, random.Random(master.getrandbits(64)), clock, store,
        freshness_window_ms=workload.freshness_window_ms)

    route_rng = random.Random(master.getrandbits(64))

    def pick_server() -> str:
        return ("fog-ca" if route_rng.random() < setting.fog_fraction
                else "cloud-ca")

    profiles = {}
    devices: list[_Device] = []
    for ident in idents:
        base = provision(store, announcement, master, clock, ident,
                         workload.freshness_window_ms)
        profiles[ident] = store.get(ident).profile
        dev = _Device(base, workload, pick_server)
        dev.attach(net)
        devices.append(dev)

    decoded = {}  # one logical CA: both instances share decoded requests
    fog = _QueuedServer("fog-ca", state, workload.server_capacity, profiles,
                        decoded)
    cloud = _QueuedServer(
        "cloud-ca", state,
        workload.server_capacity * profile.cloud_capacity_scale, profiles,
        decoded)
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
        reg_at = int(i * reg_window_ms / n)
        dest = pick_server()
        net.call_at(reg_at, lambda n_, d=dev, s=dest: d.start_registration(n_, s))
        phase = auth_period_ms * (i + 0.5) / n
        k = 0
        while True:
            at = int(reg_at + phase + k * auth_period_ms)
            if at >= duration_ms:
                break
            k += 1
            dest = pick_server()
            net.call_at(at, lambda n_, d=dev, s=dest: d.start_auth(n_, s))

    net.run()
    # the handlers close a cycle (net -> servers -> CA state -> clock ->
    # net); dropping them frees the run at return, not at a full gc pass
    net.handlers.clear()

    reg_delays, auth_delays, incomplete = [], [], 0
    retransmissions = 0
    for dev in devices:
        retransmissions += dev.retransmissions
        for txn in dev.stats:
            if txn.completed_at is None:
                incomplete += 1
                continue
            delay = txn.completed_at - txn.first_sent
            (reg_delays if txn.kind == "registration" else auth_delays).append(delay)

    span_s = workload.duration_s
    return DelayStats(
        registration=TxnStats.from_delays(reg_delays),
        auth=TxnStats.from_delays(auth_delays),
        retransmission_count=retransmissions,
        cloud_tasks=cloud.tasks,
        fog_tasks=fog.tasks,
        cloud_utilization_pct=100.0 * cloud.tasks / (
            workload.server_capacity * profile.cloud_capacity_scale * span_s),
        fog_utilization_pct=100.0 * fog.tasks / (
            workload.server_capacity * span_s),
        incomplete=incomplete)


def sweep_nodes(setting: PlacementSetting, counts, seed: int,
                workload: WorkloadSpec | None = None,
                profile_name: str = "default") -> list[DelayStats]:
    """One run per node count (ascending), per-run seeds derived from
    the master seed."""
    if list(counts) != sorted(counts):
        raise ValueError("counts must be ascending")
    workload = workload or DEFAULT_WORKLOAD
    master = random.Random(seed)
    out = []
    for count in counts:
        run_seed = master.getrandbits(32)
        out.append(run_experiment(setting, replace(workload, node_count=count),
                                  run_seed, profile_name))
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


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
