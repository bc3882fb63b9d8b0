"""Message-driven protocol drivers for simulated nodes.

A host owns a protocol state (authority or child) and reacts to each
delivered payload: decode, run the matching operation, send the reply.
`answer` is the one authority dispatcher and `respond` the one child
dispatcher; both take a decoded message, so bytes served again are
decoded once.  Refusals never cross the wire; they are recorded as
verdicts on the refusing side, which is what the attack scenarios
assert on.  Whether an issued key awaits its confirmation is the
child's own state, `ChildState.confirming`.

Child node ids equal their protocol identity (UTF-8), so the authority
can route peer relays.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .authority import AuthorityState
from .child import ChildState
from .errors import FogcaError, UnexpectedMessage, UnknownDevice
from .simnet import Network, SimEvent


@dataclass
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
    """Drives an AuthorityState on one network node."""

    def __init__(self, node_id: str, state: AuthorityState, reported_profiles):
        self.node_id = node_id
        self.state = state
        # device reports arrive out of band with the registration request
        self.reported_profiles = reported_profiles
        self.verdicts: list[Verdict] = []

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.handle)

    def handle(self, net: Network, event: SimEvent) -> None:
        try:
            msg = wire.decode(event.payload, self.state.params)
            net.send(self.node_id, *answer(self.state, self.reported_profiles,
                                           event.src, msg))
        except FogcaError as exc:
            self.verdicts.append(Verdict(type(exc).__name__, str(exc)))


class ChildHost:
    """Drives a ChildState: completes registration (with the embedded
    key-confirmation round) and both peer roles without orchestration."""

    def __init__(self, node_id: str, state: ChildState, authority_node: str):
        self.node_id = node_id
        self.state = state
        self.authority_node = authority_node
        self.established: list[bytes] = []
        self.verdicts: list[Verdict] = []

    @property
    def registered(self) -> bool:
        """A key is held and no confirmation of it is pending."""
        return self.state.auth_key is not None and not self.state.confirming

    def attach(self, net: Network) -> None:
        net.set_handler(self.node_id, self.handle)

    # -- actions ---------------------------------------------------------------

    def start_registration(self, net: Network) -> None:
        net.send(self.node_id, self.authority_node,
                 wire.encode(self.state.request_registration()))

    def start_auth(self, net: Network) -> None:
        net.send(self.node_id, self.authority_node,
                 wire.encode(self.state.auth_init(), self.state.params))

    def start_peer(self, net: Network, peer_id: bytes) -> None:
        net.send(self.node_id, self.authority_node,
                 wire.encode(self.state.peer_init(peer_id), self.state.params))

    # -- reactions ----------------------------------------------------------------

    def handle(self, net: Network, event: SimEvent) -> None:
        try:
            msg = wire.decode(event.payload, self.state.params)
            reply = respond(self.state, event.src, msg)
            if reply is not None:
                net.send(self.node_id, *reply)
            elif isinstance(msg, wire.RegistrationResponse):
                try:
                    self.start_auth(net)  # the key-confirmation round
                except FogcaError:
                    self.state.handshake_failed()  # as confirm_auth_key does
                    raise
            elif isinstance(msg, wire.AuthResponse):
                self.verdicts.append(Verdict("key-agreement", "OK"))
            else:  # a PeerProof, the last message respond accepts silently
                self.established.append(event.src.encode())
                self.verdicts.append(Verdict("peer-established", event.src))
        except FogcaError as exc:
            self.verdicts.append(Verdict(type(exc).__name__, str(exc)))
