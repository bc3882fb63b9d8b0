import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogca import simnet
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

    def test_same_seed_identical(self):
        assert self.build_and_run(42) == self.build_and_run(42)

    def test_different_seed_differs(self):
        assert self.build_and_run(1) != self.build_and_run(2)


class TestAdversary:
    def test_capability_enforced_at_construction(self):
        with pytest.raises(ValueError):
            AdversaryPolicy(frozenset({"eavesdrop"}),
                            [Rule(lambda e, m: True, Drop())])
        with pytest.raises(ValueError):
            AdversaryPolicy(frozenset({"omniscience"}))

    def test_attach_requires_link(self):
        net = triangle()
        with pytest.raises(UnknownLink):
            net.attach_adversary(("a", "b"), AdversaryPolicy(frozenset()))

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
