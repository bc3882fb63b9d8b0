"""The client side: a resource-limited device.

A child holds only the public announcement, a pre-shared registration
channel key, and (after registration) its identity-based authentication
key.  No operation here needs more than three scalar multiplications
and nothing resembles a pairing; the peer-exchange role is purely
symmetric.
"""

from __future__ import annotations

from . import curve
from .crypto import (
    DEFAULT_FRESHNESS_WINDOW_MS,
    ManualClock,
    check_freshness,
    derive_session_key,
    new_nonce,
    new_symmetric_key,
    open_box,
    seal,
    timestamp_bytes,
)
from .errors import (
    AuthFailure,
    ConfirmationFailure,
    FogcaError,
    IdentityMismatch,
    KeyMismatch,
    NoCaSession,
    NonceMismatch,
    NoPendingChallenge,
    NotRegistered,
    StaleTimestamp,
)
from .wire import (
    Announcement,
    AuthRequest,
    AuthResponse,
    PeerChallenge,
    PeerInit,
    PeerProof,
    PeerRelay,
    RegistrationRequest,
    RegistrationResponse,
    check_identity,
)


class ChildState:
    """Per-device protocol state; one instance per simulated device."""

    def __init__(self, ident: bytes, announcement: Announcement,
                 channel_key: bytes, rng, clock=None,
                 freshness_window_ms: int = DEFAULT_FRESHNESS_WINDOW_MS):
        check_identity(ident)
        self.ident = ident
        self.announcement = announcement
        self.params = announcement.params
        self.channel_key = channel_key
        self.rng = rng
        self.clock = clock if clock is not None else ManualClock()
        self.freshness_window_ms = freshness_window_ms
        self.auth_key: curve.CurvePoint | None = None
        self.confirming = False  # auth_key not yet proven by a handshake
        self._ident_point: curve.CurvePoint | None = None  # H1(ident), once
        self.ca_session: tuple[int, bytes] | None = None
        self.peer_sessions: dict[bytes, bytes] = {}
        self.proposed: dict[bytes, bytes] = {}
        # initiator -> (challenge nonce, relayed key): the key joins
        # peer_sessions only once the initiator echoes the nonce
        self.pending_challenges: dict[bytes, tuple[bytes, bytes]] = {}
        # open handshakes by T1: (random point, the key that masked it)
        self._pending_auth: dict[int, tuple[curve.CurvePoint,
                                            curve.CurvePoint]] = {}

    # ---- registration ------------------------------------------------------

    def request_registration(self) -> RegistrationRequest:
        return RegistrationRequest(self.ident)

    def install_auth_key(self, resp: RegistrationResponse) -> curve.CurvePoint:
        """Open the sealed authentication key from the registration
        channel.  The key is held provisionally until confirmed."""
        plain = open_box(self.channel_key, resp.sealed_auth_key)
        try:
            point = curve.decode_point(self.params, plain)
        except FogcaError as exc:
            raise AuthFailure(f"malformed auth key payload: {exc}") from exc
        if point.is_infinity:
            raise AuthFailure("auth key is the point at infinity")
        self.auth_key = point
        self.confirming = True
        return point

    def confirm_auth_key(self, resp: RegistrationResponse,
                         roundtrip) -> bytes:
        """Accept the issued key: the seal must authenticate under the
        channel key AND an immediate key-confirmation handshake must
        complete (`roundtrip` delivers an AuthRequest and returns the
        authority's AuthResponse).  Returns the confirmed session key."""
        self.install_auth_key(resp)
        try:
            return self.auth_finish(roundtrip(self.auth_init()))
        except FogcaError as exc:
            self.handshake_failed()
            raise ConfirmationFailure(f"confirmation round failed: {exc}") from exc

    def handshake_failed(self) -> None:
        """Drop a key still awaiting confirmation, and its CA session."""
        if self.confirming:
            self.auth_key = self.ca_session = None
            self.confirming = False

    # ---- mutual authentication (initiator) ----------------------------------

    def _identity_point(self) -> curve.CurvePoint:
        if self._ident_point is None:
            self._ident_point = curve.hash_to_point(self.params, self.ident)
        return self._ident_point

    def auth_init(self) -> AuthRequest:
        """Start a handshake: draw a random point, mask it with the
        authentication key, and prove knowledge of its x-coordinate.
        Several may be open at once, each under its T1; one whose T1 is
        more than two freshness windows old is forgotten, since no
        response to it could still be fresh."""
        if self.auth_key is None:
            raise NotRegistered("no authentication key installed")
        params = self.params
        r = curve.random_scalar(params, self.rng)
        random_point = curve.scalar_mul(params, r, params.base_point)
        sent_at = self.clock.now()
        t1 = curve.hash_to_scalar(params, curve.H2_TAG,
                                  [timestamp_bytes(sent_at)])
        blinded = curve.point_add(
            params, random_point,
            curve.scalar_mul(params, t1, self.auth_key))
        x_proof = curve.scalar_mul(params, random_point.x, params.base_point)
        pending = self._pending_auth
        horizon = sent_at - 2 * self.freshness_window_ms
        # no clock runs back, so the oldest T1 is the first key
        while pending and (oldest := next(iter(pending))) < horizon:
            del pending[oldest]
        pending[sent_at] = (random_point, self.auth_key)
        return AuthRequest(self.ident, blinded, x_proof, sent_at)

    def auth_finish(self, resp: AuthResponse) -> bytes:
        """Check the authority's response to the handshake whose T1 it
        echoes, with the key that masked that request, and derive the
        session key; accepted only if the key-confirmation point
        verifies.  A response that echoes no open T1 raises
        NoPendingChallenge and changes nothing.  Otherwise the handshake
        is spent whatever the outcome, and, while the key that masked it
        is still installed, decides that key: a success confirms it and
        a refusal drops it through `handshake_failed`."""
        pending = self._pending_auth.pop(resp.request_sent_at, None)
        if pending is None:
            raise NoPendingChallenge(
                f"no handshake open at T1={resp.request_sent_at}")
        random_point, auth_key = pending
        decides = auth_key == self.auth_key
        params = self.params
        now = self.clock.now()
        try:
            if not check_freshness(resp.sent_at, now,
                                   self.freshness_window_ms):
                raise StaleTimestamp(f"T2={resp.sent_at} vs now={now}")
            t2 = curve.hash_to_scalar(params, curve.H2_TAG,
                                      [timestamp_bytes(resp.sent_at)])
            server_point = curve.point_sub(
                params, resp.blinded,
                curve.scalar_mul(params, t2, auth_key))
            if server_point.is_infinity:
                raise KeyMismatch("recovered server point is infinity")
            w = params.field_width
            k_scalar, key = derive_session_key(
                params,
                self._identity_point().x.to_bytes(w, "big"),
                random_point.x.to_bytes(w, "big"),
                server_point.x.to_bytes(w, "big"))
            check = curve.scalar_mul(params, k_scalar + server_point.x,
                                     params.base_point)
            if check != resp.key_check:
                raise KeyMismatch("key-confirmation point does not verify")
        except FogcaError:
            if decides:
                self.handshake_failed()
            raise
        self.ca_session = (k_scalar, key)
        if decides:
            self.confirming = False
        return key

    # ---- peer key agreement (both roles) -------------------------------------

    def _ca_key(self) -> bytes:
        if self.ca_session is None:
            raise NoCaSession("no live session with the authority")
        return self.ca_session[1]

    def peer_init(self, peer_id: bytes) -> PeerInit:
        """Propose a fresh key for a peer; latest proposal per peer wins."""
        ca_key = self._ca_key()
        check_identity(peer_id)
        proposed_key = new_symmetric_key(self.rng)
        msg = PeerInit(
            peer_box=seal(ca_key, peer_id, self.rng),
            key_box=seal(ca_key, proposed_key, self.rng))
        self.proposed[peer_id] = proposed_key
        return msg

    def peer_respond(self, relay: PeerRelay) -> tuple[bytes, PeerChallenge]:
        """Answer a relayed proposal with a nonce challenge sealed under
        the proposed key, which stays pending until `peer_verify`."""
        ca_key = self._ca_key()
        initiator = open_box(ca_key, relay.initiator_box)
        peer_key = open_box(ca_key, relay.key_box)
        if len(peer_key) != 32:
            raise AuthFailure("relayed key has wrong length")
        challenge_nonce = new_nonce(self.rng)
        msg = PeerChallenge(
            identity_box=seal(peer_key, self.ident, self.rng),
            nonce_box=seal(peer_key, challenge_nonce, self.rng))
        self.pending_challenges[initiator] = (challenge_nonce, peer_key)
        return initiator, msg

    def peer_accept(self, chal: PeerChallenge) -> tuple[bytes, PeerProof]:
        """Open a challenge with one of our proposed keys and echo the
        nonce back; refuses a challenge whose inner identity is not the
        peer the key was proposed for.  A proposal answers one challenge:
        it is retired once used."""
        for peer_id, key in self.proposed.items():
            try:
                claimed = open_box(key, chal.identity_box)
            except AuthFailure:
                continue
            if claimed != peer_id:
                raise IdentityMismatch(
                    f"challenge names {claimed!r}, key was proposed for {peer_id!r}")
            nonce = open_box(key, chal.nonce_box)
            del self.proposed[peer_id]
            self.peer_sessions[peer_id] = key
            return peer_id, PeerProof(seal(key, nonce, self.rng))
        raise AuthFailure("no proposed key opens this challenge")

    def peer_verify(self, proof: PeerProof, from_id: bytes) -> None:
        """Final check on the initiator's echo: only a matching nonce
        makes the pending key the peer session key.  The stored
        challenge is single-use and is consumed whatever the outcome."""
        pending = self.pending_challenges.pop(from_id, None)
        if pending is None:
            raise NoPendingChallenge(f"no challenge outstanding for {from_id!r}")
        expected, key = pending
        nonce = open_box(key, proof.nonce_box)
        if nonce != expected:
            raise NonceMismatch("echoed nonce differs from stored nonce")
        self.peer_sessions[from_id] = key
