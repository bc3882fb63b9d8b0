"""Deterministic discrete-event message network with an attachable
man-in-the-middle adversary.

Time is virtual milliseconds.  Events are processed in (time, insertion
order), so a given seed and script always replays byte-for-byte.  Each
delivery goes to its destination's handler and is kept nowhere else.
Links are directed; a route is either a direct link or a chain through
nodes with the proxy role.  An adversary attached to a link sees every
traversal and may, within its granted capabilities, observe, drop,
delay, duplicate, replay, modify, or inject traffic. It holds no
keys, so sealed payloads stay opaque to it.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field

from . import wire
from .errors import DecodeError, NoRoute, UnknownLink, UnknownNode

ROLES = ("authority", "child", "proxy")

CAPABILITIES = ("eavesdrop", "replay", "inject", "modify", "delay", "drop",
                "duplicate")


@dataclass(frozen=True)
class SimEvent:
    """A payload in flight from src to dst, delivered at `at` ms."""
    at: int
    src: str
    dst: str
    payload: bytes


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    base_latency_ms: int = 0
    jitter_ms: int = 0
    drop_probability: float = 0.0

    def __post_init__(self):
        if self.base_latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")


# ---- adversary actions ------------------------------------------------------

@dataclass(frozen=True)
class Drop:
    kind = "drop"


@dataclass(frozen=True)
class Delay:
    ms: int
    kind = "delay"


@dataclass(frozen=True)
class Duplicate:
    delay_ms: int = 0
    kind = "duplicate"


@dataclass(frozen=True)
class Replay:
    delay_ms: int
    kind = "replay"


@dataclass(frozen=True)
class Modify:
    transform: object  # callable(bytes, decoded-or-None) -> bytes
    kind = "modify"


@dataclass(frozen=True)
class Inject:
    payload: bytes
    delay_ms: int = 0
    kind = "inject"


@dataclass
class Rule:
    """When `match(event, decoded)` is true, perform `action`."""
    match: object
    action: object
    once: bool = True
    _spent: bool = False


@dataclass
class AdversaryPolicy:
    """Capability-bounded script; construction rejects any rule whose
    action exceeds the granted capabilities."""
    capabilities: frozenset
    rules: list = field(default_factory=list)

    def __post_init__(self):
        self.capabilities = frozenset(self.capabilities)
        unknown = self.capabilities - set(CAPABILITIES)
        if unknown:
            raise ValueError(f"unknown capabilities {sorted(unknown)}")
        for rule in self.rules:
            if rule.action.kind not in self.capabilities:
                raise ValueError(
                    f"rule action {rule.action.kind!r} not within capabilities")


@dataclass
class TranscriptEntry:
    at: int
    src: str
    dst: str
    action: str
    payload: bytes

    def json_line(self) -> str:
        return json.dumps({"at": self.at, "src": self.src, "dst": self.dst,
                           "action": self.action, "payload": self.payload.hex()},
                          sort_keys=True)


class _Adversary:
    def __init__(self, policy: AdversaryPolicy, params=None):
        self.policy = policy
        self.params = params  # lets the adversary decode public structure
        self.transcript: list[TranscriptEntry] = []

    def decode(self, payload: bytes):
        try:
            return wire.decode(payload, self.params)
        except DecodeError:
            return None

    def consult(self, event: SimEvent):
        decoded = self.decode(event.payload)
        for rule in self.policy.rules:
            if rule._spent:
                continue
            if rule.match(event, decoded):
                if rule.once:
                    rule._spent = True
                return rule.action
        return None

    def record(self, event: SimEvent, action: str, payload: bytes | None = None):
        self.transcript.append(TranscriptEntry(
            event.at, event.src, event.dst, action,
            event.payload if payload is None else payload))


class Network:
    """Event loop, topology, adversaries, and delivery accounting."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.nodes: dict[str, str] = {}  # node id -> role
        self._adjacent: dict[str, dict[str, LinkSpec]] = {}  # src -> dst -> link
        self._routes: dict[tuple[str, str], tuple[LinkSpec, ...]] = {}
        self.adversaries: dict[tuple[str, str], _Adversary] = {}
        self.handlers: dict[str, object] = {}
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.accounting: dict[str, int] = {
            "sent": 0, "adversary_created": 0, "delivered": 0,
            "dropped_link": 0, "dropped_adversary": 0}

    # ---- topology ----------------------------------------------------------

    def add_node(self, node_id: str, role: str = "child") -> None:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        self.nodes[node_id] = role
        self._routes.clear()  # a re-added id may gain or lose the proxy role

    def connect(self, link: LinkSpec) -> None:
        """Add a directed link; reconnecting an existing pair replaces
        its spec."""
        for end in (link.src, link.dst):
            if end not in self.nodes:
                raise UnknownNode(end)
        self._adjacent.setdefault(link.src, {})[link.dst] = link
        self._routes.clear()

    def connect_duplex(self, a: str, b: str, base_latency_ms: int = 0,
                       jitter_ms: int = 0, drop_probability: float = 0.0) -> None:
        self.connect(LinkSpec(a, b, base_latency_ms, jitter_ms, drop_probability))
        self.connect(LinkSpec(b, a, base_latency_ms, jitter_ms, drop_probability))

    def route(self, src: str, dst: str) -> tuple[LinkSpec, ...]:
        """Direct link, or a breadth-first path whose intermediate hops
        are proxy nodes; neighbours are tried in ascending id order.
        Paths are memoized until the topology next changes."""
        path = self._routes.get((src, dst))
        if path is None:
            path = self._routes[(src, dst)] = self._search(src, dst)
        return path

    def _search(self, src: str, dst: str) -> tuple[LinkSpec, ...]:
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownNode(f"{src!r} or {dst!r}")
        if dst in self._adjacent.get(src, {}):
            return (self._adjacent[src][dst],)
        frontier = deque([(src, ())])
        seen = {src}
        while frontier:
            here, path = frontier.popleft()
            out = self._adjacent.get(here, {})
            for v in sorted(out):
                if v in seen:
                    continue
                if v == dst:
                    return path + (out[v],)
                if self.nodes[v] == "proxy":
                    seen.add(v)
                    frontier.append((v, path + (out[v],)))
        raise NoRoute(f"no path from {src!r} to {dst!r}")

    def set_handler(self, node_id: str, handler) -> None:
        """handler(network, event) runs at each delivery to node_id."""
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        self.handlers[node_id] = handler

    # ---- adversary ----------------------------------------------------------

    def attach_adversary(self, link: tuple[str, str], policy: AdversaryPolicy,
                         params=None) -> None:
        if link[1] not in self._adjacent.get(link[0], {}):
            raise UnknownLink(f"{link!r}")
        self.adversaries[link] = _Adversary(policy, params)

    def transcript(self) -> list[TranscriptEntry]:
        """All adversary observations and actions, in event order."""
        entries = [e for adv in self.adversaries.values() for e in adv.transcript]
        entries.sort(key=lambda e: e.at)
        return entries

    def transcript_jsonl(self) -> str:
        return "\n".join(e.json_line() for e in self.transcript())

    # ---- event loop -----------------------------------------------------------
    #
    # Heap entries are (at, insertion number, kind, data).  A timer's data
    # is its callback; a hop's is (src, dst, payload, path, index of the
    # next link), and the hop happens at the entry's time.  A SimEvent is
    # built only where one is read: at delivery and on a link with an
    # adversary.

    def _push(self, at: int, kind: str, data) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, data))

    def send(self, src: str, dst: str, payload: bytes,
             at: int | None = None) -> None:
        """Schedule a payload along the route."""
        when = self.now if at is None else at
        path = self.route(src, dst)
        self.accounting["sent"] += 1
        self._push(when, "hop", (src, dst, payload, path, 0))

    def ticket(self) -> int:
        """Take the next insertion number now, for a timer scheduled
        later: under it, the timer runs where a `call_at` made now would
        have run it among events of the same time."""
        self._seq += 1
        return self._seq

    def schedule(self, at: int, ticket: int, fn) -> None:
        """Run fn(network) at virtual time `at`, ordered by `ticket` among
        events of that time.  It must be scheduled before the loop passes
        (at, ticket)."""
        heapq.heappush(self._heap, (at, ticket, "timer", fn))

    def call_at(self, at: int, fn) -> None:
        """Run fn(network) at virtual time `at` (timers, retransmits)."""
        self.schedule(at, self.ticket(), fn)

    def run_until(self, t: int | None = None) -> None:
        """Process events up to and including time t (all events when t
        is None); each delivery runs its destination's handler, if any."""
        heap = self._heap
        while heap and (t is None or heap[0][0] <= t):
            at, _, kind, data = heapq.heappop(heap)
            self.now = max(self.now, at)
            if kind == "timer":
                data(self)
                continue
            src, dst, payload, path, idx = data
            if idx < len(path):
                self._traverse(at, src, dst, payload, path, idx)
                continue
            self.accounting["delivered"] += 1
            handler = self.handlers.get(dst)
            if handler is not None:
                handler(self, SimEvent(at, src, dst, payload))
        if t is not None and t > self.now:
            self.now = t

    def run(self) -> None:
        self.run_until(None)

    def _traverse(self, at: int, src: str, dst: str, payload: bytes, path,
                  idx: int) -> None:
        link = path[idx]
        adversary = (self.adversaries.get((link.src, link.dst))
                     if self.adversaries else None)
        if adversary is None:
            self._hop_forward(at, src, dst, payload, path, idx)
            return
        hop = SimEvent(at, src, dst, payload)
        action = adversary.consult(hop)
        if action is None:
            if "eavesdrop" in adversary.policy.capabilities:
                adversary.record(hop, "observe")
        elif isinstance(action, Drop):
            adversary.record(hop, "drop")
            self.accounting["dropped_adversary"] += 1
            return
        elif isinstance(action, Delay):
            adversary.record(hop, f"delay+{action.ms}")
            self._hop_forward(at, src, dst, payload, path, idx, extra=action.ms)
            return
        elif isinstance(action, (Duplicate, Replay)):
            label = ("duplicate" if isinstance(action, Duplicate)
                     else f"replay+{action.delay_ms}")
            adversary.record(hop, label)
            self._hop_forward(at, src, dst, payload, path, idx)
            self._push_copy(hop, payload, action.delay_ms, path, idx)
            return
        elif isinstance(action, Modify):
            new_payload = action.transform(payload, adversary.decode(payload))
            adversary.record(hop, "modify", new_payload)
            self._hop_forward(at, src, dst, new_payload, path, idx)
            return
        elif isinstance(action, Inject):
            adversary.record(hop, "inject", action.payload)
            self._hop_forward(at, src, dst, payload, path, idx)
            self._push_copy(hop, action.payload, action.delay_ms, path, idx)
            return
        else:
            raise TypeError(f"unknown adversary action {action!r}")
        self._hop_forward(at, src, dst, payload, path, idx)

    def _push_copy(self, hop: SimEvent, payload: bytes, delay_ms: int, path,
                   idx: int) -> None:
        """An adversary's copy of `hop`: a new message that crosses the
        same link again `delay_ms` later."""
        self.accounting["adversary_created"] += 1
        self._push(hop.at + delay_ms, "hop",
                   (hop.src, hop.dst, payload, path, idx))

    def _hop_forward(self, at: int, src: str, dst: str, payload: bytes, path,
                     idx: int, extra: int = 0) -> None:
        link = path[idx]
        if link.drop_probability and self.rng.random() < link.drop_probability:
            self.accounting["dropped_link"] += 1
            return
        latency = link.base_latency_ms + extra
        if link.jitter_ms:
            latency += self.rng.randint(0, link.jitter_ms)
        self._push(at + latency, "hop", (src, dst, payload, path, idx + 1))


class SimClock:
    """Node clock bound to simulated time, with optional fixed skew."""

    def __init__(self, network: Network, skew_ms: int = 0):
        self.network = network
        self.skew_ms = skew_ms

    def now(self) -> int:
        return self.network.now + self.skew_ms
