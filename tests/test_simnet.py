import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogca import simnet, wire
from fogca.errors import NoRoute, UnknownLink, UnknownNode
from fogca.simnet import (
    AdversaryPolicy,
    Delay,
    Drop,
    Duplicate,
    Inject,
    LinkSpec,
    Modify,
    Network,
    Replay,
    Rule,
    SimClock,
    TranscriptEntry,
)


def triangle(seed=0, jitter=0, drop=0.0):
    net = Network(seed)
    net.add_node("a", role="child")
    net.add_node("p", role="proxy")
    net.add_node("b", role="authority")
    net.connect_duplex("a", "p", 5, jitter, drop)
    net.connect_duplex("p", "b", 80, jitter, drop)
    return net


def record_deliveries(net):
    """Give every node a handler that appends each delivery to the
    returned list, in delivery order."""
    delivered = []
    for node_id in net.nodes:
        net.set_handler(node_id, lambda n, e: delivered.append(e))
    return delivered


class TestTopology:
    def test_direct_link_latency(self):
        net = triangle()
        deliveries = record_deliveries(net)
        net.send("a", "p", b"hi", at=0)
        net.run()
        assert [(e.at, e.payload) for e in deliveries] == [(5, b"hi")]

    def test_multi_hop_latency_sums(self):
        net = triangle()
        deliveries = record_deliveries(net)
        net.send("a", "b", b"hi", at=0)
        net.run()
        assert [e.at for e in deliveries] == [85]

    def test_unknown_role_rejected(self):
        net = Network(0)
        with pytest.raises(ValueError):
            net.add_node("x", role="bogus")
        assert "x" not in net.nodes

    def test_route_needs_proxy(self):
        net = Network(0)
        net.add_node("a")
        net.add_node("b")
        net.add_node("relay", role="child")  # not a proxy: cannot transit
        net.connect_duplex("a", "relay", 1)
        net.connect_duplex("relay", "b", 1)
        with pytest.raises(NoRoute):
            net.send("a", "b", b"x")

    def test_unknown_node(self):
        net = Network(0)
        net.add_node("a")
        with pytest.raises(UnknownNode):
            net.connect(LinkSpec("a", "ghost", 1))
        with pytest.raises(UnknownNode):
            net.send("a", "ghost", b"x")

    def test_reconnect_replaces_spec(self):
        net = triangle()
        net.connect(LinkSpec("a", "p", 50))
        deliveries = record_deliveries(net)
        net.send("a", "p", b"hi", at=0)
        net.run()
        assert [e.at for e in deliveries] == [50]

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("a", "b", -1)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", 1, drop_probability=1.5)

    def test_drop_probability_one(self):
        net = triangle(drop=1.0)
        deliveries = record_deliveries(net)
        net.send("a", "p", b"hi")
        net.run()
        assert deliveries == []
        assert net.accounting["dropped_link"] == 1

    def test_fifo_order_without_jitter(self):
        net = triangle()
        deliveries = record_deliveries(net)
        for i in range(10):
            net.send("a", "b", bytes([i]), at=0)
        net.run()
        payloads = [e.payload for e in deliveries]
        assert payloads == [bytes([i]) for i in range(10)]

    def test_run_until_boundary(self):
        net = triangle()
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run_until(84)
        assert deliveries == []
        net.run_until(85)
        assert [e.at for e in deliveries] == [85]

    def test_call_at_timers(self):
        net = triangle()
        fired = []
        net.call_at(30, lambda n: fired.append(n.now))
        net.run_until(100)
        assert fired == [30]

    def test_handlers_fire_at_delivery(self):
        net = triangle()
        seen = []
        net.set_handler("b", lambda n, e: seen.append((n.now, e.payload)))
        net.send("a", "b", b"ping", at=0)
        net.run()
        assert seen == [(85, b"ping")]

    def test_sim_clock_skew(self):
        net = triangle()
        clock = SimClock(net, skew_ms=7)
        net.run_until(100)
        assert clock.now() == 107


def reference_route(nodes, links, src, dst):
    """The search `Network.route` ran before routes were memoized: every
    BFS step scans all links in sorted order.  `nodes` maps id -> role,
    `links` maps (src, dst) -> LinkSpec."""
    if src not in nodes or dst not in nodes:
        raise UnknownNode(f"{src!r} or {dst!r}")
    if (src, dst) in links:
        return [links[(src, dst)]]
    frontier = [(src, [])]
    seen = {src}
    while frontier:
        here, path = frontier.pop(0)
        for (u, v), link in sorted(links.items()):
            if u != here or v in seen:
                continue
            if v == dst:
                return path + [link]
            if nodes[v] == "proxy":
                seen.add(v)
                frontier.append((v, path + [link]))
    raise NoRoute(f"no path from {src!r} to {dst!r}")


def outcome(search, *args):
    try:
        return tuple(search(*args))
    except (NoRoute, UnknownNode) as exc:
        return type(exc)


@st.composite
def topologies(draw):
    """Roles by node id, then links in random connect order; re-used
    pairs get their spec replaced."""
    names = [f"n{i}" for i in range(draw(st.integers(2, 7)))]
    roles = st.sampled_from(("proxy", "proxy", "child", "authority"))
    nodes = {name: draw(roles) for name in names}
    ends = st.sampled_from(names)
    links = draw(st.lists(st.builds(LinkSpec, ends, ends, st.integers(0, 3)),
                          min_size=len(names), max_size=4 * len(names)))
    return nodes, links


class TestRouteMemo:
    def test_reconnect_replaces_cached_route(self):
        net = triangle()
        assert net.route("a", "b") == (LinkSpec("a", "p", 5),
                                       LinkSpec("p", "b", 80))
        net.connect(LinkSpec("a", "p", 50))
        assert net.route("a", "b") == (LinkSpec("a", "p", 50),
                                       LinkSpec("p", "b", 80))

    def test_readding_relay_changes_its_transit(self):
        net = Network(0)
        net.add_node("a")
        net.add_node("b")
        net.add_node("relay", role="child")
        net.connect_duplex("a", "relay", 1)
        net.connect_duplex("relay", "b", 1)
        with pytest.raises(NoRoute):
            net.route("a", "b")
        net.add_node("relay", role="proxy")
        assert [(link.src, link.dst) for link in net.route("a", "b")] == [
            ("a", "relay"), ("relay", "b")]
        net.add_node("relay", role="child")
        with pytest.raises(NoRoute):
            net.route("a", "b")

    @given(topologies(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_search(self, topology, data):
        nodes, specs = topology
        net, links = Network(0), {}
        for name, role in nodes.items():
            net.add_node(name, role=role)
        for link in specs:
            net.connect(link)
            links[(link.src, link.dst)] = link
        names = sorted(nodes) + ["ghost"]

        def check_every_pair():
            for src in names:
                for dst in names:
                    assert outcome(net.route, src, dst) == outcome(
                        reference_route, nodes, links, src, dst)

        check_every_pair()
        for _ in range(3):
            # change the topology under the filled memo, then compare again
            name = data.draw(st.sampled_from(sorted(nodes)))
            if data.draw(st.booleans()):
                nodes[name] = data.draw(st.sampled_from(simnet.ROLES))
                net.add_node(name, role=nodes[name])
            else:
                link = LinkSpec(name, data.draw(st.sampled_from(sorted(nodes))),
                                data.draw(st.integers(0, 3)))
                net.connect(link)
                links[(link.src, link.dst)] = link
            check_every_pair()


class TestDeterminism:
    def build_and_run(self, seed):
        net = triangle(seed=seed, jitter=3, drop=0.1)
        policy = AdversaryPolicy(frozenset({"eavesdrop"}))
        net.attach_adversary(("a", "p"), policy)
        delivered = record_deliveries(net)
        for i in range(30):
            net.send("a", "b", bytes([i]), at=i)
        net.run()
        deliveries = tuple((e.at, e.payload) for e in delivered)
        return (net.transcript_jsonl(), deliveries,
                tuple(sorted(net.accounting.items())))

    def build_and_run_actions(self, seed):
        """Same-ms ties on a zero-latency, jittered, lossy link where an
        adversary duplicates without delay, delays and modifies."""
        net = Network(seed)
        net.add_node("a", role="child")
        net.add_node("p", role="proxy")
        net.add_node("b", role="authority")
        net.connect_duplex("a", "p", 0, 2, 0.2)
        net.connect_duplex("p", "b", 1, 1, 0.0)
        net.attach_adversary(("a", "p"), AdversaryPolicy(
            frozenset({"eavesdrop", "duplicate", "delay", "modify"}),
            [Rule(lambda e, m: e.payload == b"\x03", Duplicate(0)),
             Rule(lambda e, m: e.payload == b"\x05", Delay(1)),
             Rule(lambda e, m: e.payload == b"\x07",
                  Modify(lambda raw, m: raw + b"!"))]))
        delivered = record_deliveries(net)
        for i in range(30):
            net.send("a", "b", bytes([i]), at=i // 3)
        net.run()
        return (net.transcript_jsonl(),
                tuple((e.at, e.src, e.dst, e.payload) for e in delivered),
                tuple(sorted(net.accounting.items())))

    def test_same_seed_identical(self):
        assert self.build_and_run(42) == self.build_and_run(42)

    def test_different_seed_differs(self):
        assert self.build_and_run(1) != self.build_and_run(2)

    # digests recorded from the event loop before it forwarded plain hops
    # itself: any change to event order, drops or draws moves them
    def test_eavesdropped_run_pinned(self):
        digest = hashlib.sha256(repr(self.build_and_run(42)).encode())
        assert digest.hexdigest() == (
            "c9cd6d59324c3ced6354156695c763668a862b69edd2387ea402a1596c1532ab")

    def test_adversary_actions_run_pinned(self):
        result = self.build_and_run_actions(7)
        assert result[2] == (("adversary_created", 1), ("delivered", 22),
                             ("dropped_adversary", 0), ("dropped_link", 9),
                             ("sent", 30))
        digest = hashlib.sha256(repr(result).encode())
        assert digest.hexdigest() == (
            "5a5456edbc8f6a1ae8603c8dcdecffc682b8ecd73680154de7d2984b266f91be")


class TestTranscriptLine:
    @given(at=st.integers(), src=st.text(), dst=st.text(),
           action=st.text(), payload=st.binary())
    @settings(max_examples=300, deadline=None)
    def test_json_line_is_json_dumps(self, at, src, dst, action, payload):
        entry = TranscriptEntry(at, src, dst, action, payload)
        assert entry.json_line() == json.dumps(
            {"at": at, "src": src, "dst": dst, "action": action,
             "payload": payload.hex()}, sort_keys=True)

    def test_escapes_quotes_controls_and_surrogates(self):
        text = 'a"b\\c\x00\n\x7f\u00e9\U0001f600\ud800'
        entry = TranscriptEntry(-3, text, text, text, b"\x00\xff")
        assert entry.json_line() == json.dumps(
            {"at": -3, "src": text, "dst": text, "action": text,
             "payload": "00ff"}, sort_keys=True)


class TestEventLoop:
    def test_lossless_jitter_free_network_builds_no_generator(
            self, monkeypatch):
        built = []

        class Counted(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(simnet.random, "Random", Counted)
        net = triangle(seed=5)
        net.attach_adversary(("a", "p"),
                             AdversaryPolicy(frozenset({"eavesdrop"})))
        deliveries = record_deliveries(net)
        for i in range(10):
            net.send("a", "b", bytes([i]), at=i)
        net.run()
        assert len(deliveries) == 10 and built == []
        # the first draw seeds the generator from the network's seed
        jittered = triangle(seed=5, jitter=2)
        jittered.send("a", "b", b"x")
        jittered.run()
        assert built == [(5,)]

    def test_plain_hops_skip_the_adversary_path(self, monkeypatch):
        watched = []
        real = Network._traverse

        def counted(self, adversary, at, src, dst, payload, path, idx):
            watched.append((at, path[idx].src, path[idx].dst))
            return real(self, adversary, at, src, dst, payload, path, idx)

        monkeypatch.setattr(Network, "_traverse", counted)
        net = triangle()
        net.attach_adversary(("p", "b"),
                             AdversaryPolicy(frozenset({"eavesdrop"})))
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.send("b", "a", b"y", at=0)
        net.run()
        assert watched == [(5, "p", "b")]
        assert [(e.at, e.payload) for e in deliveries] == [(85, b"x"),
                                                           (85, b"y")]

    def test_sim_event_is_an_immutable_value(self):
        a = simnet.SimEvent(15, "a", "b", b"x")
        assert a == simnet.SimEvent(15, "a", "b", b"x")
        assert hash(a) == hash(simnet.SimEvent(15, "a", "b", b"x"))
        assert a != simnet.SimEvent(16, "a", "b", b"x")
        with pytest.raises(AttributeError):
            a.at = 16
        assert (a.at, a.src, a.dst, a.payload) == (15, "a", "b", b"x")
        assert repr(a) == "SimEvent(at=15, src='a', dst='b', payload=b'x')"

    def test_clock_never_runs_back(self):
        net = triangle()
        refused = []

        def late(n):
            for schedule in (lambda: n.send("a", "p", b"late", at=10),
                             lambda: n.call_at(49, lambda _: None),
                             lambda: n.schedule(0, n.ticket(), lambda _: None)):
                with pytest.raises(ValueError):
                    schedule()
                refused.append(n.now)
            # now itself is not the past
            n.send("a", "p", b"now", at=50)

        seen = []
        net.call_at(50, late)
        net.set_handler("p", lambda n, e: seen.append((e.at, n.now)))
        net.run()
        assert refused == [50, 50, 50]
        assert seen == [(55, 55)] and net.now == 55
        assert net.accounting["sent"] == 1


class TestAdversary:
    def test_capability_enforced_at_construction(self):
        with pytest.raises(ValueError):
            AdversaryPolicy(frozenset({"eavesdrop"}),
                            [Rule(lambda e, m: True, Drop())])
        with pytest.raises(ValueError):
            AdversaryPolicy(frozenset({"omniscience"}))

    @pytest.mark.parametrize("action", [Delay(-1), Duplicate(-1), Replay(-5),
                                        Inject(b"x", delay_ms=-1)])
    def test_action_in_the_past_refused(self, action):
        with pytest.raises(ValueError):
            AdversaryPolicy(frozenset(simnet.CAPABILITIES),
                            [Rule(lambda e, m: True, action)])

    def test_attach_requires_link(self):
        net = triangle()
        with pytest.raises(UnknownLink):
            net.attach_adversary(("a", "b"), AdversaryPolicy(frozenset()))

    def test_transcript_in_event_order_across_adversaries(self):
        net = Network(0)
        for node in ("a", "b", "c"):
            net.add_node(node)
        net.add_node("p", role="proxy")
        for node in ("a", "b", "c"):
            net.connect_duplex(node, "p", 1)
        net.attach_adversary(("a", "p"),
                             AdversaryPolicy(frozenset({"eavesdrop"})))
        net.attach_adversary(("b", "p"),
                             AdversaryPolicy(frozenset({"eavesdrop"})))
        net.send("b", "c", b"from-b", at=0)
        net.send("a", "c", b"from-a", at=0)
        net.run()
        assert [e.payload for e in net.transcript()] == [b"from-b", b"from-a"]
        # each adversary still keeps its own entries
        assert [[e.payload for e in adv.transcript]
                for adv in net.adversaries.values()] == [[b"from-a"],
                                                         [b"from-b"]]

    def test_eavesdrop_records_but_delivers(self):
        net = triangle()
        net.attach_adversary(("a", "p"), AdversaryPolicy(frozenset({"eavesdrop"})))
        deliveries = record_deliveries(net)
        net.send("a", "b", b"secret", at=0)
        net.run()
        assert [e.at for e in deliveries] == [85]
        entries = net.transcript()
        assert len(entries) == 1 and entries[0].action == "observe"
        assert entries[0].payload == b"secret"

    def test_no_capabilities_records_nothing(self):
        net = triangle()
        net.attach_adversary(("a", "p"), AdversaryPolicy(frozenset()))
        net.send("a", "b", b"x", at=0)
        net.run()
        assert net.transcript() == []

    def test_drop_action(self):
        net = triangle()
        policy = AdversaryPolicy(frozenset({"drop"}),
                                 [Rule(lambda e, m: True, Drop())])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert deliveries == []
        assert net.accounting["dropped_adversary"] == 1

    def test_delay_action(self):
        net = triangle()
        policy = AdversaryPolicy(frozenset({"delay"}),
                                 [Rule(lambda e, m: True, Delay(100))])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert [e.at for e in deliveries] == [185]

    def test_duplicate_action(self):
        net = triangle()
        policy = AdversaryPolicy(frozenset({"duplicate"}),
                                 [Rule(lambda e, m: True, Duplicate())])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert len(deliveries) == 2
        assert {e.payload for e in deliveries} == {b"x"}

    def test_replay_action_redelivers_later(self):
        net = triangle()
        policy = AdversaryPolicy(frozenset({"replay"}),
                                 [Rule(lambda e, m: True, Replay(500))])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert [e.at for e in deliveries] == [85, 585]

    def test_modify_action(self):
        net = triangle()
        policy = AdversaryPolicy(
            frozenset({"modify"}),
            [Rule(lambda e, m: True, Modify(lambda raw, m: raw + b"!"))])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert [e.payload for e in deliveries] == [b"x!"]

    def test_delay_then_modify_across_two_hops(self):
        net = triangle()
        net.attach_adversary(("a", "p"), AdversaryPolicy(
            frozenset({"delay"}), [Rule(lambda e, m: True, Delay(10))]))
        seen = []
        net.attach_adversary(("p", "b"), AdversaryPolicy(
            frozenset({"modify"}),
            [Rule(lambda e, m: seen.append(e) is None,
                  Modify(lambda raw, m: raw + b"!"))]))
        delivered = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        # the second link sees the message as it arrives at the proxy
        assert seen == [simnet.SimEvent(15, "a", "b", b"x")]
        assert [(e.at, e.src, e.dst, e.payload) for e in delivered] == [
            (95, "a", "b", b"x!")]
        assert [(e.at, e.src, e.dst, e.action, e.payload)
                for e in net.transcript()] == [
            (0, "a", "b", "delay+10", b"x"), (15, "a", "b", "modify", b"x!")]

    def test_inject_action(self):
        net = triangle()
        policy = AdversaryPolicy(
            frozenset({"inject"}),
            [Rule(lambda e, m: True, Inject(b"forged", delay_ms=10))])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"x", at=0)
        net.run()
        assert [e.payload for e in deliveries] == [b"x", b"forged"]

    def test_rule_fires_once_by_default(self):
        net = triangle()
        policy = AdversaryPolicy(frozenset({"drop", "eavesdrop"}),
                                 [Rule(lambda e, m: True, Drop())])
        net.attach_adversary(("a", "p"), policy)
        deliveries = record_deliveries(net)
        net.send("a", "b", b"first", at=0)
        net.send("a", "b", b"second", at=1)
        net.run()
        assert [e.payload for e in deliveries] == [b"second"]

    def test_decodes_only_while_a_rule_can_fire(self, monkeypatch):
        decoded = []
        real = wire.decode

        def counted(payload, params=None):
            decoded.append(payload)
            return real(payload, params)

        monkeypatch.setattr(wire, "decode", counted)
        net = triangle()
        # an eavesdrop-only policy has no rule, so it never decodes
        net.attach_adversary(("a", "p"),
                             AdversaryPolicy(frozenset({"eavesdrop"})))
        matched, transformed = [], []

        def rewrite(raw, msg):
            transformed.append(msg)
            return raw + b"!"

        net.attach_adversary(("p", "b"), AdversaryPolicy(
            frozenset({"modify"}),
            [Rule(lambda e, m: matched.append(m) is None, Modify(rewrite))]))
        record_deliveries(net)
        payload = wire.encode(wire.RegistrationRequest(b"cam-01"))
        for at in range(3):
            net.send("a", "b", payload, at=at)
        net.run()
        # the rule fires on the first message; after that nothing decodes,
        # and Modify gets the decoding its rule matched on
        assert decoded == [payload]
        assert matched == [wire.RegistrationRequest(b"cam-01")]
        assert transformed[0] is matched[0] and len(transformed) == 1

    def test_conservation_accounting(self):
        net = triangle(seed=9, drop=0.2)
        policy = AdversaryPolicy(
            frozenset({"drop", "duplicate", "eavesdrop"}),
            [Rule(lambda e, m: e.payload == b"\x00", Drop()),
             Rule(lambda e, m: e.payload == b"\x01", Duplicate())])
        net.attach_adversary(("a", "p"), policy)
        for i in range(40):
            net.send("a", "b", bytes([i % 5]), at=i)
        net.run()
        acc = net.accounting
        assert acc["sent"] == 40
        assert (acc["delivered"] + acc["dropped_link"] +
                acc["dropped_adversary"]) == acc["sent"] + acc["adversary_created"]
