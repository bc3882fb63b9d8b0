"""Deterministic discrete-event message network with an attachable
man-in-the-middle adversary.

Time is virtual milliseconds and only moves forward: nothing can be
scheduled before now.  Events are processed in (time, insertion order),
so a given seed and script always replays byte-for-byte.  Each
delivery goes to its destination's handler and is kept nowhere else.
Links are directed; a route is either a direct link or a chain through
nodes with the proxy role.  The loop forwards a hop over a link without
an adversary itself; a `SimEvent`, a named tuple, is built only where
one is read.  An adversary attached to a link sees every traversal and
may, within its granted capabilities, observe, drop, delay, duplicate,
replay, modify, or inject traffic. It holds no keys, so sealed payloads
stay opaque to it.  It decodes a payload's public structure only while
one of its rules can still fire, once per traversal, and hands that
decoding to the rule's match and to a `Modify` transform.  The network
transcript holds every adversary's entries in the order they were made,
which is event order.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import wire
from .errors import DecodeError, NoRoute, UnknownLink, UnknownNode

ROLES = ("authority", "child", "proxy")

CAPABILITIES = ("eavesdrop", "replay", "inject", "modify", "delay", "drop",
                "duplicate")


class SimEvent(NamedTuple):
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
    """The first time `match(event, decoded)` is true, perform `action`."""
    match: object
    action: object
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
            if min(getattr(rule.action, "ms", 0),
                   getattr(rule.action, "delay_ms", 0)) < 0:
                raise ValueError("an adversary cannot act in the past")


@dataclass
class TranscriptEntry:
    at: int
    src: str
    dst: str
    action: str
    payload: bytes

    def json_line(self) -> str:
        """The entry as `json.dumps(..., sort_keys=True)` writes it, with
        the payload in hex; the strings go through json's own escaper."""
        return (f'{{"action": {encode_basestring_ascii(self.action)}, '
                f'"at": {self.at:d}, '
                f'"dst": {encode_basestring_ascii(self.dst)}, '
                f'"payload": "{self.payload.hex()}", '
                f'"src": {encode_basestring_ascii(self.src)}}}')


class _Adversary:
    def __init__(self, policy: AdversaryPolicy, params,
                 log: list[TranscriptEntry]):
        self.policy = policy
        self.params = params  # lets the adversary decode public structure
        self.transcript: list[TranscriptEntry] = []
        self.log = log  # the network's entries of every adversary, in order

    def decode(self, payload: bytes):
        try:
            return wire.decode(payload, self.params)
        except DecodeError:
            return None

    def consult(self, event: SimEvent):
        """(action, decoded payload) of the first unspent rule that
        matches, else (None, None).  The payload is decoded only while
        an unspent rule remains, and at most once."""
        live = [rule for rule in self.policy.rules if not rule._spent]
        if not live:
            return None, None
        decoded = self.decode(event.payload)
        for rule in live:
            if rule.match(event, decoded):
                rule._spent = True
                return rule.action, decoded
        return None, None

    def record(self, event: SimEvent, action: str, payload: bytes | None = None):
        entry = TranscriptEntry(event.at, event.src, event.dst, action,
                                event.payload if payload is None else payload)
        self.transcript.append(entry)
        self.log.append(entry)


class Network:
    """Event loop, topology, adversaries, and delivery accounting.

    The generator of link loss and jitter is seeded from `seed` at its
    first draw, so a network whose links never drop or jitter builds
    none."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng: random.Random | None = None
        self.nodes: dict[str, str] = {}  # node id -> role
        self._adjacent: dict[str, dict[str, LinkSpec]] = {}  # src -> dst -> link
        self._routes: dict[tuple[str, str], tuple[LinkSpec, ...]] = {}
        self.adversaries: dict[tuple[str, str], _Adversary] = {}
        self._log: list[TranscriptEntry] = []
        self.handlers: dict[str, object] = {}
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.accounting: dict[str, int] = {
            "sent": 0, "adversary_created": 0, "delivered": 0,
            "dropped_link": 0, "dropped_adversary": 0}

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

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
        self.adversaries[link] = _Adversary(policy, params, self._log)

    def transcript(self) -> list[TranscriptEntry]:
        """All adversary observations and actions, in event order: by
        time, and in the order they were made within one ms.  Time only
        moves forward, so that is the order they were recorded in."""
        return list(self._log)

    def transcript_jsonl(self) -> str:
        return "\n".join(e.json_line() for e in self.transcript())

    # ---- event loop -----------------------------------------------------------
    #
    # Heap entries are (at, insertion number, kind, data).  A timer's data
    # is its callback; a hop's is (src, dst, payload, path, index of the
    # next link), and the hop happens at the entry's time.  A SimEvent is
    # built only where one is read: at delivery and on a link with an
    # adversary.

    def send(self, src: str, dst: str, payload: bytes,
             at: int | None = None) -> None:
        """Schedule a payload along the route, now or at a later `at`."""
        if at is None:
            at = self.now
        elif at < self.now:
            self._refuse_past(at)
        path = self.route(src, dst)
        self.accounting["sent"] += 1
        self._seq += 1
        heappush(self._heap, (at, self._seq, "hop",
                              (src, dst, payload, path, 0)))

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
        if at < self.now:
            self._refuse_past(at)
        heappush(self._heap, (at, ticket, "timer", fn))

    def call_at(self, at: int, fn) -> None:
        """Run fn(network) at virtual time `at` (timers, retransmits)."""
        if at < self.now:
            self._refuse_past(at)
        self._seq += 1
        heappush(self._heap, (at, self._seq, "timer", fn))

    def run_until(self, t: int | None = None) -> None:
        """Process events up to and including time t (all events when t
        is None); each delivery runs its destination's handler, if any."""
        heap = self._heap
        adversaries = self.adversaries
        handlers = self.handlers
        accounting = self.accounting
        while heap and (t is None or heap[0][0] <= t):
            at, _, kind, data = heappop(heap)
            self.now = at
            if kind == "timer":
                data(self)
                continue
            src, dst, payload, path, idx = data
            if idx < len(path):
                if adversaries:
                    link = path[idx]
                    adversary = adversaries.get((link.src, link.dst))
                    if adversary is not None:
                        self._traverse(adversary, at, src, dst, payload,
                                       path, idx)
                        continue
                self._hop_forward(at, src, dst, payload, path, idx)
                continue
            accounting["delivered"] += 1
            handler = handlers.get(dst)
            if handler is not None:
                handler(self, SimEvent(at, src, dst, payload))
        if t is not None and t > self.now:
            self.now = t

    def run(self) -> None:
        self.run_until(None)

    def _refuse_past(self, at: int) -> None:
        raise ValueError(f"time {at} is before now ({self.now}): "
                         "simulated time only moves forward")

    def _traverse(self, adversary: _Adversary, at: int, src: str, dst: str,
                  payload: bytes, path, idx: int) -> None:
        """A hop over a link that `adversary` watches."""
        hop = SimEvent(at, src, dst, payload)
        action, decoded = adversary.consult(hop)
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
            new_payload = action.transform(payload, decoded)
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
        self._seq += 1
        heappush(self._heap, (hop.at + delay_ms, self._seq, "hop",
                              (hop.src, hop.dst, payload, path, idx)))

    def _hop_forward(self, at: int, src: str, dst: str, payload: bytes, path,
                     idx: int, extra: int = 0) -> None:
        link = path[idx]
        if link.drop_probability and self.rng.random() < link.drop_probability:
            self.accounting["dropped_link"] += 1
            return
        latency = link.base_latency_ms + extra
        if link.jitter_ms:
            latency += self.rng.randint(0, link.jitter_ms)
        self._seq += 1
        heappush(self._heap, (at + latency, self._seq, "hop",
                              (src, dst, payload, path, idx + 1)))


class SimClock:
    """Node clock bound to simulated time, with optional fixed skew."""

    def __init__(self, network: Network, skew_ms: int = 0):
        self.network = network
        self.skew_ms = skew_ms

    def now(self) -> int:
        return self.network.now + self.skew_ms
