"""Seeded attack scenarios run against the simulated network.

Each scenario wires up an honest custodian and child (or two), attaches
an adversary with exactly the capabilities the attack needs, runs the
protocols, and reports whether the attack was blocked and with which
verdict.  Everything is driven by one integer seed, so a scenario
replays byte-for-byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import authority, curve, wire
from .child import ChildState
from .crypto import DEFAULT_FRESHNESS_WINDOW_MS
from .hosts import AuthorityHost, ChildHost
from .integrity import AffinityStore, DeviceProfile
from .simnet import (
    AdversaryPolicy,
    Duplicate,
    Modify,
    Network,
    Replay,
    Rule,
    SimClock,
)

SCENARIOS = ("passive", "replay", "impersonate", "tamper")

LINK_MS = 5


@dataclass
class ScenarioReport:
    name: str
    seed: int
    blocked: bool            # the attack did not go through
    completed: bool          # the honest protocol still finished
    observed: list[str] = field(default_factory=list)
    transcript_jsonl: str = ""
    leak_free: bool | None = None
    notes: str = ""


@lru_cache(maxsize=256)
def device_profile(ident: bytes) -> DeviceProfile:
    """The profile of device `ident`, built once while it is among the
    last 256 asked for: a profile is frozen and keeps its digest, so
    every rig that reuses an identity shares one and hashes it once."""
    return DeviceProfile.canonical(
        ident,
        hashlib.sha256(b"firmware:" + ident).digest(),
        hashlib.sha256(b"os:" + ident).digest(),
        [("sensor-driver", "2.4"), ("telemetry", "1.0")],
        ["slot0"], ["slot1", "slot2"], ["telnet"])


class Fleet:
    """An authority and its devices, every draw taken from `master`: the
    CA's generator, then per device its channel key and generator.
    `profiles` holds the report each device sends with its registration.
    Nothing here moves the clock."""

    def __init__(self, params: curve.CurveParams, master: random.Random,
                 clock, freshness_window_ms: int = DEFAULT_FRESHNESS_WINDOW_MS):
        self.params = params
        self.master = master
        self.clock = clock
        self.store = AffinityStore()
        self.authority, self.announcement = authority.setup(
            params, random.Random(master.getrandbits(64)), clock, self.store,
            freshness_window_ms)
        self.profiles: dict[bytes, DeviceProfile] = {}

    def provision(self, ident: bytes) -> ChildState:
        """Manufacturer step: draw the channel key, keep the device's
        profile as its baseline, then draw the device's generator."""
        wire.check_identity(ident)  # refused before it draws or records
        channel_key = random.Random(self.master.getrandbits(64)).randbytes(32)
        self.profiles[ident] = device_profile(ident)
        self.store.provision(self.profiles[ident], channel_key)
        return ChildState(ident, self.announcement, channel_key,
                          random.Random(self.master.getrandbits(64)),
                          self.clock, self.authority.freshness_window_ms)

    def register(self, ident: bytes) -> ChildState:
        """Provision `ident`, register it and confirm the issued key."""
        child = self.provision(ident)
        child.confirm_auth_key(self.authority.register_child(
            child.request_registration(), self.profiles[ident]),
            self.authority.handle_auth_request)
        return child


@dataclass
class _Rig:
    net: Network
    authority_host: AuthorityHost
    children: dict[bytes, ChildHost]
    announcement: wire.Announcement


def build_rig(seed: int, params: curve.CurveParams,
              child_ids: list[bytes]) -> _Rig:
    """Custodian behind a gateway proxy, child nodes on the insecure
    side of the gateway; everything seeded from one int.

    Child traffic (to the custodian or to a peer) crosses the child's
    own gateway link, which is where scenarios attach the adversary.
    Each scenario drops the handlers after its last run: they close a
    cycle (net -> hosts -> clock -> net) that only a gc pass would free.
    """
    master = random.Random(seed)
    net = Network(master.getrandbits(32))
    fleet = Fleet(params, master, SimClock(net))
    net.add_node("custodian", role="authority")
    net.add_node("gw", role="proxy")
    net.connect_duplex("gw", "custodian", base_latency_ms=0)
    host = AuthorityHost("custodian", fleet.authority, fleet.profiles)
    host.attach(net)
    children: dict[bytes, ChildHost] = {}
    for ident in child_ids:
        node_id = ident.decode()
        net.add_node(node_id, role="child")
        net.connect_duplex(node_id, "gw", base_latency_ms=LINK_MS)
        child_host = ChildHost(node_id, fleet.provision(ident),
                               lambda: "custodian")
        child_host.attach(net)
        children[ident] = child_host
    return _Rig(net, host, children, fleet.announcement)


def _verdicts(rig: _Rig) -> list[str]:
    out = list(rig.authority_host.refusals.elements())
    for child_host in rig.children.values():
        out.extend(child_host.verdicts)
    return out


def _is_auth_request(event, decoded) -> bool:
    return isinstance(decoded, wire.AuthRequest)


def _is_auth_response(event, decoded) -> bool:
    return isinstance(decoded, wire.AuthResponse)


def run_passive(seed: int, params: curve.CurveParams | None = None) -> ScenarioReport:
    """Eavesdrop-only adversary on every child link; the protocols must
    complete and nothing secret may appear in the captured bytes."""
    params = params or curve.prod256()
    rig = build_rig(seed, params, [b"cam-01", b"lock-02"])
    policy_caps = frozenset({"eavesdrop"})
    for ident in rig.children:
        node = ident.decode()
        rig.net.attach_adversary((node, "gw"),
                                 AdversaryPolicy(policy_caps), params)
        rig.net.attach_adversary(("gw", node),
                                 AdversaryPolicy(policy_caps), params)
    for child_host in rig.children.values():
        child_host.start_registration(rig.net)
    rig.net.run()
    cam = rig.children[b"cam-01"]
    cam.start_peer(rig.net, b"lock-02")
    rig.net.run()
    rig.net.handlers.clear()

    completed = (all(c.registered for c in rig.children.values())
                 and b"cam-01" in rig.children[b"lock-02"].established)
    # scan: no session key or issued auth key may appear on the wire
    secrets = []
    for ident, child_host in rig.children.items():
        if child_host.state.ca_session:
            secrets.append(child_host.state.ca_session[1])
        secrets.extend(child_host.state.peer_sessions.values())
        if child_host.state.auth_key is not None:
            secrets.append(curve.encode_point(params, child_host.state.auth_key))
    secrets.extend(key for _, key in rig.authority_host.state.sessions.values())
    captured = b"".join(e.payload for e in rig.net.transcript())
    leak_free = bool(captured) and not any(s in captured for s in secrets)
    return ScenarioReport(
        "passive", seed,
        blocked=leak_free, completed=completed, observed=_verdicts(rig),
        transcript_jsonl=rig.net.transcript_jsonl(), leak_free=leak_free,
        notes=f"captured {len(rig.net.transcript())} messages")


def run_replay(seed: int, params: curve.CurveParams | None = None,
               stale: bool = False) -> ScenarioReport:
    """Capture an authentication request and deliver it again: inside
    the freshness window the replay cache refuses it, after the window
    the timestamp check does."""
    params = params or curve.toy17()
    rig = build_rig(seed, params, [b"cam-01"])
    window = rig.authority_host.state.freshness_window_ms
    if stale:
        action = Replay(delay_ms=window + 1000)
        expect = "StaleTimestamp"
    else:
        action = Duplicate()
        expect = "ReplayDetected"
    policy = AdversaryPolicy(
        frozenset({"eavesdrop", "replay", "duplicate"}),
        [Rule(_is_auth_request, action)])
    rig.net.attach_adversary(("cam-01", "gw"), policy, params)
    rig.children[b"cam-01"].start_registration(rig.net)
    rig.net.run()
    rig.net.handlers.clear()
    observed = _verdicts(rig)
    return ScenarioReport(
        "replay-stale" if stale else "replay-fresh", seed,
        blocked=expect in observed,
        completed=rig.children[b"cam-01"].registered,
        observed=observed, transcript_jsonl=rig.net.transcript_jsonl(),
        notes=f"expected {expect}")


def run_impersonate(seed: int, params: curve.CurveParams | None = None) -> ScenarioReport:
    """Attacker claims a registered identity with a forged
    authentication key; the x-coordinate proof cannot verify."""
    params = params or curve.prod256()
    rig = build_rig(seed, params, [b"cam-01"])
    rig.children[b"cam-01"].start_registration(rig.net)
    rig.net.run()

    master = random.Random(seed ^ 0x5EED)
    net = rig.net
    net.add_node("mallory", role="child")
    net.connect_duplex("mallory", "gw", base_latency_ms=LINK_MS)
    # mallory's own device, with no authority behind it
    channel_key = random.Random(master.getrandbits(64)).randbytes(32)
    forged_state = ChildState(b"cam-01", rig.announcement, channel_key,
                              random.Random(master.getrandbits(64)),
                              SimClock(net))
    # forged key: some scalar times the identity point, but not the CA's
    wrong_scalar = curve.random_scalar(params, master)
    while wrong_scalar == rig.authority_host.state.private_key:
        wrong_scalar = curve.random_scalar(params, master)
    forged_state.auth_key = curve.scalar_mul(
        params, wrong_scalar, curve.hash_to_point(params, b"cam-01"))
    mallory = ChildHost("mallory", forged_state, lambda: "custodian")
    mallory.attach(net)
    mallory.start_auth(net)
    net.run()
    net.handlers.clear()
    observed = _verdicts(rig) + mallory.verdicts
    return ScenarioReport(
        "impersonate", seed,
        blocked="BadProof" in rig.authority_host.refusals,
        completed=rig.children[b"cam-01"].registered,
        observed=observed, transcript_jsonl=net.transcript_jsonl(),
        notes="forged auth key")


def run_tamper(seed: int, params: curve.CurveParams | None = None) -> ScenarioReport:
    """In-flight modification of the key-confirmation point; the child
    must refuse the session."""
    params = params or curve.toy17()

    def rewrite(payload: bytes, decoded) -> bytes:
        if not isinstance(decoded, wire.AuthResponse):
            return payload
        forged = replace(decoded, key_check=curve.point_add(
            params, decoded.key_check, params.base_point))
        return wire.encode(forged, params)

    rig = build_rig(seed, params, [b"cam-01"])
    policy = AdversaryPolicy(
        frozenset({"eavesdrop", "modify"}),
        [Rule(_is_auth_response, Modify(rewrite))])
    rig.net.attach_adversary(("gw", "cam-01"), policy, params)
    rig.children[b"cam-01"].start_registration(rig.net)
    rig.net.run()
    rig.net.handlers.clear()
    observed = _verdicts(rig)
    return ScenarioReport(
        "tamper", seed,
        blocked="KeyMismatch" in observed,
        completed=False,  # the confirmation round is the one tampered with
        observed=observed, transcript_jsonl=rig.net.transcript_jsonl(),
        notes="key-confirmation point replaced in flight")


def run_scenario(name: str, seed: int,
                 params: curve.CurveParams | None = None) -> list[ScenarioReport]:
    """Run one named scenario (replay runs both variants)."""
    if name == "passive":
        return [run_passive(seed, params)]
    if name == "replay":
        return [run_replay(seed, params, stale=False),
                run_replay(seed, params, stale=True)]
    if name == "impersonate":
        return [run_impersonate(seed, params)]
    if name == "tamper":
        return [run_tamper(seed, params)]
    raise ValueError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
