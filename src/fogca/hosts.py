"""Message-driven protocol drivers for simulated nodes.

A host owns a protocol state (authority or child) and reacts to each
delivered payload: decode, run the matching operation, send the reply.
`answer` is the one authority dispatcher and `respond` the one child
dispatcher; both take a decoded message, so bytes served again are
decoded once.  Refusals never cross the wire: a child host records
each as a verdict, in order, and an authority host counts them by kind,
so refused traffic costs it one count per kind, not an object per
request.  The attack scenarios assert on both.  Whether an issued key
awaits its confirmation is the child's own state,
`ChildState.confirming`.  `ChildHost` drives every device, and each
confirms its issued key with one handshake; `AuthorityHost` drives every
CA instance.  Both serve the attack gallery and the placement study
alike.

Child node ids equal their protocol identity (UTF-8), so the authority
can route peer relays.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from . import wire
from .authority import AuthorityState
from .child import ChildState
from .errors import (FogcaError, NoPendingChallenge, UnexpectedMessage,
                     UnknownDevice)
from .simnet import Network, SimEvent


@dataclass(slots=True)
class Verdict:
    kind: str      # e.g. "ReplayDetected", "key-agreement"
    detail: str = ""


def answer(state: AuthorityState, profiles, src: str,
           msg: wire.ProtocolMessage) -> tuple[str, bytes]:
    """Run the operation for a decoded request that node `src` sent to
    the authority and return (destination node, encoded reply); every
    refusal raises FogcaError.  `profiles` holds the device reports sent
    with registrations."""
    params = state.params
    if isinstance(msg, wire.RegistrationRequest):
        profile = profiles.get(msg.child_id)
        if profile is None:
            raise UnknownDevice(f"no device report for {msg.child_id!r}")
        return src, wire.encode(state.register_child(msg, profile), params)
    if isinstance(msg, wire.AuthRequest):
        return src, wire.encode(state.handle_auth_request(msg), params)
    if isinstance(msg, wire.PeerInit):
        target, relay = state.relay_peer_request(src.encode(), msg)
        return target.decode(), wire.encode(relay, params)
    raise UnexpectedMessage(type(msg).__name__)


def respond(state: ChildState, src: str,
            msg: wire.ProtocolMessage) -> tuple[str, bytes] | None:
    """Run the child operation for a decoded message from `src`: return
    (destination node, encoded reply) or None, or raise FogcaError."""
    if isinstance(msg, wire.RegistrationResponse):
        state.install_auth_key(msg)
    elif isinstance(msg, wire.AuthResponse):
        try:
            state.auth_finish(msg)
        except FogcaError:
            state.handshake_failed()
            raise
    elif isinstance(msg, wire.PeerRelay):
        initiator, challenge = state.peer_respond(msg)
        return initiator.decode(), wire.encode(challenge, state.params)
    elif isinstance(msg, wire.PeerChallenge):
        peer_id, proof = state.peer_accept(msg)
        return peer_id.decode(), wire.encode(proof, state.params)
    elif isinstance(msg, wire.PeerProof):
        state.peer_verify(msg, src.encode())
    else:
        raise UnexpectedMessage(type(msg).__name__)
    return None


class AuthorityHost:
    """Drives an AuthorityState on one network node as a FIFO single
    server: a request waits for those before it, then `service_ms`, and
    one that no service time delays is answered at its delivery.  Only
    the head of `waiting` has a timer, under the insertion number its
    request took on arrival, so each runs where a timer set on arrival
    would have.  `decoded` (payload -> message) may be shared by the
    hosts of one CA: a request served again is decoded once.  Refusals
    are counted by kind in `refusals`, in the order each kind first came."""

    def __init__(self, node_id: str, state: AuthorityState, reported_profiles,
                 service_ms: int = 0,
                 decoded: dict[bytes, wire.ProtocolMessage] | None = None):
        self.node_id = node_id
        self.state = state
        # device reports arrive out of band with the registration request
        self.reported_profiles = reported_profiles
        self.service_ms = service_ms
        self.decoded = {} if decoded is None else decoded
        self.busy_until = 0
        self.tasks = 0
        self.waiting: deque[tuple[int, int, str, bytes]] = deque()
        self.refusals: Counter[str] = Counter()

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.handle)

    def handle(self, net: Network, event: SimEvent) -> None:
        self.tasks += 1
        if not self.service_ms:
            self._serve(net, event.src, event.payload)
            return
        done = self.busy_until = max(net.now, self.busy_until) + self.service_ms
        ticket = net.ticket()
        self.waiting.append((done, ticket, event.src, event.payload))
        if len(self.waiting) == 1:
            net.schedule(done, ticket, self._process)

    def _process(self, net: Network) -> None:
        _, _, src, payload = self.waiting.popleft()
        if self.waiting:
            done, ticket, _, _ = self.waiting[0]
            net.schedule(done, ticket, self._process)
        self._serve(net, src, payload)

    def _serve(self, net: Network, src: str, payload: bytes) -> None:
        try:
            msg = self.decoded.get(payload)
            if msg is None:
                msg = self.decoded[payload] = wire.decode(payload,
                                                          self.state.params)
            net.send(self.node_id, *answer(self.state, self.reported_profiles,
                                           src, msg))
        except FogcaError as exc:
            self.refusals[type(exc).__name__] += 1


@dataclass(slots=True)
class Transaction:
    """A registration or handshake that a ChildHost sent; `state`, the
    state that its reply runs on, is dropped once a reply completes or
    spends it, and a transaction without one is not sent again."""
    reply: type            # RegistrationResponse | AuthResponse
    payload: bytes         # what a retry sends again
    state: ChildState | None
    first_sent: int
    completed_at: int | None = None
    retries: int = 0


class ChildHost:
    """Drives any device.  Each registration or handshake sent is a
    Transaction, sent again, to a server `pick_server` picks afresh,
    every `retransmit_timeout_ms` while retries remain.  An open
    handshake waits under its T1, which its AuthResponse echoes; a
    response that echoes no open T1 is refused and touches no state.
    A refused response spends its handshake, which is not sent again,
    but leaves the registration waiting; any other message runs on the
    device's own state.  A handshake on the device's own state confirms
    an installed key, which the first action or delivery after the
    freshness window drops if that round is still open.  Other
    handshakes run on states of their own, so that several can be in
    flight; one started without a key waits for it, and one started in
    the ms of the last AuthRequest, whose T1 it would repeat, runs 1 ms
    later."""

    def __init__(self, node_id: str, state: ChildState, pick_server,
                 max_retries: int = 0, retransmit_timeout_ms: int = 0):
        self.node_id = node_id
        self.state = state
        self.pick_server = pick_server
        self.max_retries = max_retries
        self.retransmit_timeout_ms = retransmit_timeout_ms
        self.transactions: list[Transaction] = []
        self.handshakes: dict[int, Transaction] = {}  # open, by T1
        self.registering: Transaction | None = None  # the open registration
        self.deferred_auths = 0
        self.confirm_by: int | None = None  # the confirmation round's end
        self.auth_sent_at: int | None = None  # the ms of the last AuthRequest
        self.established: list[bytes] = []
        self.verdicts: list[Verdict] = []

    @property
    def registered(self) -> bool:
        """A key is held and no confirmation of it is pending."""
        return self.state.auth_key is not None and not self.state.confirming

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.handle)

    # -- actions ---------------------------------------------------------------

    def start_registration(self, net: Network, server: str | None = None) -> None:
        self._settle(net)
        self._send(net, server, self.state.request_registration(), self.state)

    def start_auth(self, net: Network, server: str | None = None) -> None:
        self._settle(net)
        if self.state.auth_key is None:
            self.deferred_auths += 1
            return
        if net.now == self.auth_sent_at:  # one T1 twice is a replay
            net.call_at(net.now + 1, lambda n: self.start_auth(n, server))
            return
        handshake = self.state.handshake()
        try:
            self._send(net, server, handshake.auth_init(), handshake)
        except FogcaError as exc:
            self.verdicts.append(Verdict(type(exc).__name__, str(exc)))

    def start_peer(self, net: Network, peer_id: bytes) -> None:
        self._settle(net)
        try:
            net.send(self.node_id, self.pick_server(), wire.encode(
                self.state.peer_init(peer_id), self.state.params))
        except FogcaError as exc:
            self.verdicts.append(Verdict(type(exc).__name__, str(exc)))

    def _send(self, net: Network, server: str | None,
              request: wire.RegistrationRequest | wire.AuthRequest,
              state: ChildState) -> None:
        payload = wire.encode(request, self.state.params)
        if isinstance(request, wire.AuthRequest):
            txn = self.handshakes[request.sent_at] = Transaction(
                wire.AuthResponse, payload, state, net.now)
            self.auth_sent_at = net.now
        else:
            txn = self.registering = Transaction(
                wire.RegistrationResponse, payload, state, net.now)
        self.transactions.append(txn)
        net.send(self.node_id, server or self.pick_server(), payload)
        self._arm_timeout(net, txn)

    def _arm_timeout(self, net: Network, txn: Transaction) -> None:
        if txn.retries < self.max_retries:
            net.call_at(net.now + self.retransmit_timeout_ms,
                        lambda n, t=txn: self._retransmit(n, t))

    def _retransmit(self, net: Network, txn: Transaction) -> None:
        if txn.state is None:  # answered, or a handshake already spent
            return
        txn.retries += 1
        # the shared registry and replay cache let either server answer
        net.send(self.node_id, self.pick_server(), txn.payload)
        self._arm_timeout(net, txn)

    def _settle(self, net: Network) -> None:
        """Drop a key whose confirmation round outlived its T1."""
        if self.confirm_by is not None and net.now > self.confirm_by:
            self.confirm_by = None
            self.state.handshake_failed()

    # -- reactions ----------------------------------------------------------------

    def handle(self, net: Network, event: SimEvent) -> None:
        self._settle(net)
        try:
            msg = wire.decode(event.payload, self.state.params)
            txn, state = None, self.state
            if isinstance(msg, wire.AuthResponse):
                txn = self.handshakes.pop(msg.request_sent_at, None)
                if txn is None:
                    raise NoPendingChallenge(
                        f"no handshake sent at T1={msg.request_sent_at}")
                # a handshake state answers once, whatever the verdict
                state, txn.state = txn.state, None
            elif isinstance(msg, wire.RegistrationResponse):
                txn = self.registering
            reply = respond(state, event.src, msg)
            if txn is not None:
                txn.completed_at, txn.state = net.now, None
            if reply is not None:
                net.send(self.node_id, *reply)
            elif isinstance(msg, wire.RegistrationResponse):
                self.registering = None
                self._key_installed(net)
            elif isinstance(msg, wire.AuthResponse):
                self.state.ca_session = state.ca_session
                self.verdicts.append(Verdict("key-agreement", "OK"))
            else:  # a PeerProof, the last message respond accepts silently
                self.established.append(event.src.encode())
                self.verdicts.append(Verdict("peer-established", event.src))
        except FogcaError as exc:
            self.verdicts.append(Verdict(type(exc).__name__, str(exc)))

    def _key_installed(self, net: Network) -> None:
        """Confirm the key, then send the handshakes that waited for it,
        1 ms apart (distinct timestamps)."""
        try:
            self._send(net, None, self.state.auth_init(), self.state)
        except FogcaError:
            self.state.handshake_failed()  # as confirm_auth_key does
            raise
        self.confirm_by = net.now + self.state.freshness_window_ms
        held, self.deferred_auths = self.deferred_auths, 0
        for k in range(held):
            server = self.pick_server()
            net.call_at(net.now + 1 + k,
                        lambda n, s=server: self.start_auth(n, s))
