"""Per-layer tracing for the benchmark's traced run.

`Tracer.install` replaces the public functions of each fogca layer with
wrappers that call straight through (arguments, results and exceptions
are untouched, so every output check still runs) and record a span per
call: name, start, end, parent span and transaction id.  Spans stay in
memory and `write_spans` saves them when the run ends.  `uninstall`
restores every original; untraced runs never call `install`.

Functions that other modules bind at import (`seal`, `open_box` and
`derive_session_key` in `authority` and `child`) are wrapped at each
import site.  Simulator callbacks that `experiments` registers through
`Network.set_handler` and `Network.call_at` get a span of their own, so
the event loop's self time excludes them.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict

from fogca import (authority, child, crypto, curve, experiments, hosts,
                   integrity, scenarios, simnet, wire)
from fogca.errors import FogcaError

# spans use the same clock as the untraced timings: this thread's CPU time
clock_ns = time.thread_time_ns

SPAN_CAP = 200_000

CHILD_OPS = ("child.auth_init", "child.auth_finish", "child.install_auth_key",
             "child.peer_init", "child.peer_respond", "child.peer_accept",
             "child.peer_verify")
AUTHORITY_REQUESTS = ("authority.register_child",
                      "authority.handle_auth_request",
                      "authority.relay_peer_request")
REFUSALS = ("ReplayDetected", "StaleTimestamp", "BadProof", "Revoked",
            "Expired", "DuplicateRegistration", "NoSession")


class Tracer:
    def __init__(self, recorder=None):
        self.recorder = recorder  # its `attempted` count is the txn id
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list[int]] = []  # open spans: [id, child ns]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._net_seen = weakref.WeakKeyDictionary()
        # Network.accounting deltas of each run_experiment call
        self.experiment_messages: list[dict[str, int]] = []
        self._messages_mark: dict[str, int] = {}

    # ---- wrapping ------------------------------------------------------------

    def traced(self, fn, name: str, after=None):
        """A call-through wrapper of fn that records one span per call.

        after(args, result, error) runs once the call has ended, whether
        it returned or raised."""
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        scalar = self.stats["curve.scalar_mul"]
        tracer = self
        child_op = name in CHILD_OPS

        def call(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            mults = scalar[0]
            result = error = None
            start = clock_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock_ns()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if len(spans) < SPAN_CAP:
                    rec = tracer.recorder
                    spans.append((sid, name, start, end, parent,
                                  rec.attempted if rec is not None else 0))
                else:
                    tracer.dropped_spans += 1
                if child_op:
                    tracer.maxima["child.scalar_mul"] = max(
                        tracer.maxima["child.scalar_mul"], scalar[0] - mults)
                if after is not None:
                    after(args, result, error)

        call.fogbench_traced = True
        return call

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self.traced(getattr(owner, attr), name, after))

    def _callback(self, fn):
        """Give a simulator callback registered by a fogca module its own
        span; hosts' handlers are traced through their class already."""
        if getattr(getattr(fn, "__func__", fn), "fogbench_traced", False):
            return fn
        module = getattr(fn, "__module__", "") or ""
        if not module.startswith("fogca."):
            return fn
        return self.traced(fn, module.split(".")[1] + ".callback")

    def install(self) -> "Tracer":
        w = self._wrap
        w(curve, "scalar_mul", "curve.scalar_mul", self._after_scalar_mul)
        w(curve, "hash_to_point", "curve.hash_to_point")
        w(curve, "point_add", "curve.point_add")
        w(curve, "point_sub", "curve.point_sub")
        for site in (crypto, authority, child):
            w(site, "seal", "crypto.seal")
            w(site, "open_box", "crypto.open_box", self._after_open_box)
            w(site, "derive_session_key", "crypto.derive_session_key")
        w(wire, "encode", "wire.encode", self._after_encode)
        w(wire, "decode", "wire.decode", self._after_decode)
        state = authority.AuthorityState
        for name in AUTHORITY_REQUESTS:
            w(state, name.split(".")[1], name, self._after_request)
        for method in ("revoke", "purge_expired"):
            w(state, method, f"authority.{method}", self._after_authority)
        for method in ("auth_init", "auth_finish", "install_auth_key",
                       "peer_init", "peer_respond", "peer_accept",
                       "peer_verify"):
            w(child.ChildState, method, f"child.{method}")
        w(integrity.AffinityStore, "verify", "integrity.verify")
        net = simnet.Network
        w(net, "send", "simnet.send")
        w(net, "route", "simnet.route")
        w(net, "run_until", "simnet.run_until", self._after_run)
        set_handler, call_at = net.set_handler, net.call_at
        self._patch(net, "set_handler", lambda n, node_id, handler:
                    set_handler(n, node_id, self._callback(handler)))
        self._patch(net, "call_at", lambda n, at, fn:
                    call_at(n, at, self._callback(fn)))
        w(hosts.AuthorityHost, "handle", "hosts.authority")
        w(hosts.ChildHost, "handle", "hosts.child")
        w(scenarios, "build_rig", "scenarios.build_rig")
        w(scenarios, "run_scenario", "scenarios.run_scenario",
          self._after_scenario)
        w(experiments, "run_experiment", "experiments.run_experiment",
          self._after_experiment)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- counts taken where the work happens -------------------------------

    def _after_scalar_mul(self, args, result, error):
        params, _, point = args[:3]
        if point == params.base_point:
            self.counters["curve.scalar_mul.fixed_base_calls"] += 1

    def _after_open_box(self, args, result, error):
        if error is None:
            self.counters["crypto.open_box.opened"] += 1

    def _after_encode(self, args, result, error):
        if error is None:
            self.counters["wire.bytes_encoded"] += len(result)

    def _after_decode(self, args, result, error):
        if error is not None:
            self.counters["wire.decode.failed"] += 1

    def _after_request(self, args, result, error):
        if isinstance(error, FogcaError):
            self.counters[f"authority.refused.{type(error).__name__}"] += 1
            self.counters["authority.refused"] += 1
        self._after_authority(args, result, error)

    def _after_authority(self, args, result, error):
        state = args[0]
        self.maxima["authority.replay_cache"] = max(
            self.maxima["authority.replay_cache"], len(state.replay_cache))
        self.maxima["authority.crl"] = max(self.maxima["authority.crl"],
                                           len(state.crl))

    def _after_run(self, args, result, error):
        net = args[0]
        now = dict(net.accounting)
        now["transcript"] = sum(len(a.transcript)
                                for a in net.adversaries.values())
        before = self._net_seen.get(net, {})
        for key, value in now.items():
            self.counters[f"simnet.{key}"] += value - before.get(key, 0)
        self._net_seen[net] = now

    def _after_scenario(self, args, result, error):
        for report in result or ():
            self.counters["scenarios.reports"] += 1
            self.counters["scenarios.blocked"] += bool(report.blocked)

    def _after_experiment(self, args, result, error):
        now = {k: v for k, v in self.counters.items()
               if k.startswith("simnet.")}
        self.experiment_messages.append(
            {k: v - self._messages_mark.get(k, 0) for k, v in now.items()})
        self._messages_mark = now
        if result is not None:
            self.counters["experiments.retransmissions"] += \
                result.retransmission_count
            self.counters["experiments.incomplete"] += result.incomplete
            self.counters["experiments.ca_tasks"] += (result.cloud_tasks
                                                      + result.fog_tasks)

    # ---- results -----------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def _ms(self, name: str, column: int = 1) -> float:
        return self.stats[name][column] / 1e6 if name in self.stats else 0.0

    def _layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items()
                   if name.startswith(prefix)) / 1e6

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, in BENCHMARK.json order; a layer that
        did no work on this workload reads 0."""
        c, calls, ms = self.counters, self._calls, self._ms
        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        put("curve.scalar_mul.calls", calls("curve.scalar_mul"), "count")
        put("curve.scalar_mul.busy_ms", ms("curve.scalar_mul"), "ms")
        put("curve.scalar_mul.fixed_base_calls",
            c["curve.scalar_mul.fixed_base_calls"], "count")
        put("curve.hash_to_point.calls", calls("curve.hash_to_point"), "count")
        put("curve.hash_to_point.busy_ms", ms("curve.hash_to_point"), "ms")
        put("curve.point_add.calls", calls("curve.point_add"), "count")
        put("curve.point_add.busy_ms", ms("curve.point_add"), "ms")
        put("curve.self_ms", self._layer_self_ms("curve"), "ms")

        put("crypto.seal.calls", calls("crypto.seal"), "count")
        put("crypto.seal.busy_ms", ms("crypto.seal"), "ms")
        opens = calls("crypto.open_box")
        put("crypto.open_box.calls", opens, "count")
        put("crypto.open_box.busy_ms", ms("crypto.open_box"), "ms")
        put("crypto.open_box.useful_ratio",
            c["crypto.open_box.opened"] / opens if opens else 0.0, "ratio")
        put("crypto.derive_session_key.calls",
            calls("crypto.derive_session_key"), "count")

        put("wire.encode.calls", calls("wire.encode"), "count")
        put("wire.encode.busy_ms", ms("wire.encode"), "ms")
        put("wire.decode.calls", calls("wire.decode"), "count")
        put("wire.decode.busy_ms", ms("wire.decode"), "ms")
        put("wire.decode.failed", c["wire.decode.failed"], "count")
        put("wire.bytes_encoded", c["wire.bytes_encoded"], "bytes")

        for op in ("register_child", "handle_auth_request"):
            name = f"authority.{op}"
            put(f"{name}.calls", calls(name), "count")
            put(f"{name}.busy_ms", ms(name), "ms")
            put(f"{name}.self_ms", ms(name, 2), "ms")
        put("authority.relay_peer_request.calls",
            calls("authority.relay_peer_request"), "count")
        put("authority.relay_peer_request.busy_ms",
            ms("authority.relay_peer_request"), "ms")
        put("authority.revoke.calls", calls("authority.revoke"), "count")
        put("authority.purge_expired.busy_ms", ms("authority.purge_expired"),
            "ms")
        for kind in REFUSALS:
            put(f"authority.refused.{kind}", c[f"authority.refused.{kind}"],
                "count")
        handled = sum(calls(n) for n in AUTHORITY_REQUESTS)
        put("authority.useful_ratio",
            (handled - c["authority.refused"]) / handled if handled else 0.0,
            "ratio")
        put("authority.replay_cache.max", self.maxima["authority.replay_cache"],
            "count")
        put("authority.crl.max", self.maxima["authority.crl"], "count")

        put("child.auth_init.busy_ms", ms("child.auth_init"), "ms")
        put("child.auth_finish.busy_ms", ms("child.auth_finish"), "ms")
        put("child.install_auth_key.busy_ms", ms("child.install_auth_key"),
            "ms")
        put("child.peer.busy_ms",
            sum(ms(n) for n in CHILD_OPS if n.startswith("child.peer_")), "ms")
        put("child.scalar_mul.max_per_op", self.maxima["child.scalar_mul"],
            "count")

        put("integrity.verify.calls", calls("integrity.verify"), "count")
        put("integrity.verify.busy_ms", ms("integrity.verify"), "ms")

        put("simnet.send.calls", calls("simnet.send"), "count")
        put("simnet.send.busy_ms", ms("simnet.send"), "ms")
        put("simnet.route.calls", calls("simnet.route"), "count")
        put("simnet.route.busy_ms", ms("simnet.route"), "ms")
        put("simnet.self_ms", self._layer_self_ms("simnet"), "ms")
        put("simnet.sent", c["simnet.sent"], "count")
        put("simnet.delivered", c["simnet.delivered"], "count")
        put("simnet.dropped",
            c["simnet.dropped_link"] + c["simnet.dropped_adversary"], "count")
        put("simnet.transcript_entries", c["simnet.transcript"], "count")

        put("hosts.handle.calls",
            calls("hosts.authority") + calls("hosts.child"), "count")
        put("hosts.authority.self_ms", ms("hosts.authority", 2), "ms")
        put("hosts.child.self_ms", ms("hosts.child", 2), "ms")

        put("scenarios.build_rig.calls", calls("scenarios.build_rig"), "count")
        put("scenarios.build_rig.busy_ms", ms("scenarios.build_rig"), "ms")
        reports = c["scenarios.reports"]
        put("scenarios.blocked_ratio",
            c["scenarios.blocked"] / reports if reports else 0.0, "ratio")

        put("experiments.self_ms", self._layer_self_ms("experiments"), "ms")
        put("experiments.retransmissions", c["experiments.retransmissions"],
            "count")
        put("experiments.incomplete", c["experiments.incomplete"], "count")
        put("experiments.ca_tasks", c["experiments.ca_tasks"], "count")
        return m

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one [id, name, start_ns, end_ns,
        parent_id, txn] array per span, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans),
                                 "dropped_spans": self.dropped_spans}) + "\n")
            for sid, name, start, end, parent, txn in self.spans:
                fh.write(json.dumps([sid, name, start - t0, end - t0, parent,
                                     txn]) + "\n")
