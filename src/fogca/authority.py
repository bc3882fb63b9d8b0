"""The certificate authority / custodian side of the protocol suite.

One AuthorityState is one logical CA, regardless of where its service
runs (cloud or fog): operations are serialized per instance.  It issues
identity-based authentication keys, answers mutual-authentication
requests, relays peer key proposals between children it shares sessions
with, and maintains the revocation list and short-lived registrations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import curve
from .crypto import (
    DEFAULT_FRESHNESS_WINDOW_MS,
    ManualClock,
    check_freshness,
    derive_session_key,
    open_box,
    seal,
    timestamp_bytes,
)
from .errors import (
    AuthFailure,
    BadProof,
    DeviceUntrusted,
    DuplicateRegistration,
    Expired,
    IntegrityMismatch,
    NoSession,
    ReplayDetected,
    Revoked,
    StaleTimestamp,
    TargetRevoked,
    UnknownDevice,
    UnknownId,
)
from .integrity import (
    AffinityStore,
    DeviceProfile,
    TrustState,
    parse_records,
    write_records,
)
from .wire import (
    MAX_IDENTITY_LEN,
    Announcement,
    AuthRequest,
    AuthResponse,
    PeerInit,
    PeerRelay,
    RegistrationRequest,
    RegistrationResponse,
)

REVOKE_REASONS = ("compromise", "expiry", "policy")


@dataclass
class RegistrationRecord:
    """Issue metadata; the issued key s*H1(child_id) is sealed, not kept.
    `ident_point` is H1(child_id), which handshakes use; it is not
    persisted, so `load_records` computes it as `register_child` does."""
    child_id: bytes
    issued_at: int
    lifetime_ms: int | None  # None = no scheduled expiry
    ident_point: curve.CurvePoint = field(compare=False, repr=False)

    def expired(self, now_ms: int) -> bool:
        return (self.lifetime_ms is not None
                and now_ms > self.issued_at + self.lifetime_ms)


@dataclass(frozen=True)
class CrlEntry:
    child_id: bytes
    revoked_at: int
    reason: str


class AuthorityState:
    """CA keypair, registry, replay cache, sessions, CRL.

    Construct through `setup`, which draws the keypair and produces the
    broadcast announcement.
    """

    def __init__(self, params: curve.CurveParams, private_key: int, rng,
                 clock=None, affinity: AffinityStore | None = None,
                 freshness_window_ms: int = DEFAULT_FRESHNESS_WINDOW_MS):
        self.params = params
        self.private_key = private_key
        self.public_key = curve.scalar_mul(params, private_key, params.base_point)
        self.rng = rng
        self.clock = clock if clock is not None else ManualClock()
        self.affinity = affinity if affinity is not None else AffinityStore()
        self.freshness_window_ms = freshness_window_ms
        self.registry: dict[bytes, RegistrationRecord] = {}
        self.replay_cache: set[tuple[bytes, int]] = set()
        self._replay_order: deque[tuple[bytes, int]] = deque()
        self.sessions: dict[bytes, tuple[int, bytes]] = {}
        self.crl: dict[bytes, CrlEntry] = {}  # latest revocation per id

    # ---- announcement -----------------------------------------------------

    def announcement(self) -> Announcement:
        return Announcement(self.params, self.public_key)

    # ---- revocation helpers ----------------------------------------------

    def is_revoked(self, child_id: bytes) -> bool:
        return child_id in self.crl

    def _refuse_if_unusable(self, child_id: bytes, now_ms: int) -> RegistrationRecord:
        """Common gate for authentication and relay requests: revocation,
        registration, trust, and short-key expiry."""
        revoked = self.crl.get(child_id)
        if revoked is not None:
            if revoked.reason == "expiry":
                raise Expired(f"{child_id!r} registration expired")
            raise Revoked(f"{child_id!r} is on the revocation list")
        record = self.registry.get(child_id)
        if record is None:
            raise UnknownDevice(f"{child_id!r} is not registered")
        affinity = self.affinity.records.get(child_id)
        if affinity is not None and affinity.trust in (
                TrustState.QUARANTINED, TrustState.BLACKLISTED):
            raise DeviceUntrusted(f"{child_id!r} is {affinity.trust.value}")
        if record.expired(now_ms):
            raise Expired(f"{child_id!r} registration expired")
        return record

    # ---- registration (issue the ID-based authentication key) -------------

    def register_child(self, req: RegistrationRequest, profile: DeviceProfile,
                       lifetime_ms: int | None = None) -> RegistrationResponse:
        """Verify device integrity against the affinity baseline, then
        issue the authentication key sealed under the pre-shared
        registration channel key.  A duplicate of a live registration is
        refused before the integrity check, so it cannot move the
        device's trust."""
        now = self.clock.now()
        record = self.affinity.get(req.child_id)  # UnknownDevice if absent
        if record.trust in (TrustState.QUARANTINED, TrustState.BLACKLISTED):
            raise DeviceUntrusted(f"{req.child_id!r} is {record.trust.value}")
        if req.child_id in self.registry and req.child_id not in self.crl:
            raise DuplicateRegistration(f"{req.child_id!r} already registered")
        verdict = self.affinity.verify(req.child_id, profile, now)
        if not verdict.match:
            raise IntegrityMismatch(verdict.diff,
                                    countermeasure=record.trust.value)
        ident_point = curve.hash_to_point(self.params, req.child_id)
        auth_key = curve.scalar_mul(self.params, self.private_key, ident_point)
        box = seal(record.channel_key,
                   curve.encode_point(self.params, auth_key), self.rng)
        self.registry[req.child_id] = RegistrationRecord(
            req.child_id, now, lifetime_ms, ident_point)
        self.crl.pop(req.child_id, None)
        self.sessions.pop(req.child_id, None)
        return RegistrationResponse(box)

    # ---- mutual authentication (responder) --------------------------------

    def handle_auth_request(self, req: AuthRequest) -> AuthResponse:
        """Verify the client's proof and answer with the masked server
        point plus the key-confirmation point.

        The (identity, timestamp) pair is cached only once the proof
        verifies, so an identical request inside the freshness window is
        refused as a replay, while a forged request at a victim's
        timestamp cannot pre-empt the victim's own request.
        """
        now = self.clock.now()
        record = self._refuse_if_unusable(req.child_id, now)
        if not check_freshness(req.sent_at, now, self.freshness_window_ms):
            raise StaleTimestamp(f"T1={req.sent_at} vs now={now}")
        cache_key = (req.child_id, req.sent_at)
        if cache_key in self.replay_cache:
            raise ReplayDetected(f"duplicate (id, T1) {cache_key!r}")

        params = self.params
        ident_point = record.ident_point
        t1 = curve.hash_to_scalar(params, curve.H2_TAG,
                                  [timestamp_bytes(req.sent_at)])
        # recover the client's random point: M_C - t1 * (private * Q_id)
        mask = curve.scalar_mul(params, t1 * self.private_key, ident_point)
        recovered = curve.point_sub(params, req.blinded, mask)
        if recovered.is_infinity:
            raise BadProof("recovered point is infinity")
        x_c = recovered.x
        if req.x_proof != curve.scalar_mul(params, x_c, params.base_point):
            raise BadProof("x-coordinate proof failed")
        self._remember_request(cache_key, now)

        t2_ms = now
        server_scalar = curve.random_scalar(params, self.rng)
        server_point = curve.scalar_mul(params, server_scalar, params.base_point)
        t2 = curve.hash_to_scalar(params, curve.H2_TAG,
                                  [timestamp_bytes(t2_ms)])
        blinded = curve.point_add(
            params, server_point,
            curve.scalar_mul(params, t2 * self.private_key, ident_point))
        w = params.field_width
        k_scalar, key = derive_session_key(
            params,
            ident_point.x.to_bytes(w, "big"),
            x_c.to_bytes(w, "big"),
            server_point.x.to_bytes(w, "big"))
        key_check = curve.scalar_mul(params, k_scalar + server_point.x,
                                     params.base_point)
        self.sessions[req.child_id] = (k_scalar, key)
        return AuthResponse(blinded, key_check, t2_ms, req.sent_at)

    def _remember_request(self, cache_key: tuple[bytes, int],
                          now_ms: int) -> None:
        """Cache a verified (identity, T1) pair after expiring, from the
        front of the insertion-ordered queue, every entry whose T1 has
        left the freshness window.  The freshness check refuses such a
        T1 before the cache is consulted, so expiry never changes a
        verdict."""
        horizon = now_ms - self.freshness_window_ms
        order = self._replay_order
        while order and order[0][1] < horizon:
            self.replay_cache.discard(order.popleft())
        self.replay_cache.add(cache_key)
        order.append(cache_key)

    # ---- peer key relay ----------------------------------------------------

    def relay_peer_request(self, from_id: bytes,
                           msg: PeerInit) -> tuple[bytes, PeerRelay]:
        """Open the initiator's proposal, re-seal it for the target, and
        return (target_id, relay).  No copy of the proposed key is kept."""
        sender = self.sessions.get(from_id)
        if sender is None:
            raise NoSession(f"no session with {from_id!r}")
        self._refuse_if_unusable(from_id, self.clock.now())
        target = open_box(sender[1], msg.peer_box)
        proposed = open_box(sender[1], msg.key_box)
        if not 1 <= len(target) <= MAX_IDENTITY_LEN:
            raise AuthFailure("bad target identity length")
        if len(proposed) != 32:
            raise AuthFailure("bad proposed key length")
        if self.is_revoked(target):
            raise TargetRevoked(f"{target!r} is revoked")
        receiver = self.sessions.get(target)
        if receiver is None:
            raise NoSession(f"no session with {target!r}")
        relay = PeerRelay(
            initiator_box=seal(receiver[1], from_id, self.rng),
            key_box=seal(receiver[1], proposed, self.rng))
        return target, relay

    # ---- revocation and short-lived keys -----------------------------------

    def revoke(self, child_id: bytes, reason: str) -> CrlEntry:
        if reason not in REVOKE_REASONS:
            raise ValueError(f"reason must be one of {REVOKE_REASONS}")
        if child_id not in self.registry and child_id not in self.crl:
            raise UnknownId(f"{child_id!r} is neither registered nor revoked")
        entry = self.crl[child_id] = CrlEntry(child_id, self.clock.now(),
                                              reason)
        self.registry.pop(child_id, None)
        self.sessions.pop(child_id, None)
        return entry

    def purge_expired(self) -> int:
        """Drop expired short-lived registrations, adding CRL entries."""
        now = self.clock.now()
        gone = [cid for cid, rec in self.registry.items() if rec.expired(now)]
        for cid in gone:
            self.registry.pop(cid)
            self.sessions.pop(cid, None)
            self.crl[cid] = CrlEntry(cid, now, "expiry")
        return len(gone)

    # ---- persistence: line-oriented, hex fields ----------------------------

    def dump_records(self) -> list[str]:
        """A `CA` line naming this authority's public key, then one line
        per registration and per revocation."""
        own_key = curve.encode_point(self.params, self.public_key)
        lines = ["CA " + own_key.hex()]
        for rec in self.registry.values():
            lines.append(" ".join([
                "REG", rec.child_id.hex(), str(rec.issued_at),
                "-" if rec.lifetime_ms is None else str(rec.lifetime_ms)]))
        for entry in self.crl.values():
            lines.append(" ".join([
                "CRL", entry.child_id.hex(), str(entry.revoked_at),
                entry.reason]))
        return lines

    def load_records(self, lines) -> None:
        """Restore registry and CRL from `dump_records` output.  A bad
        line, an identity on a second line, or a first record line that
        is not a `CA` line naming this authority raises MalformedRecord
        and leaves the state as it was."""
        registry: dict[bytes, RegistrationRecord] = {}
        crl: dict[bytes, CrlEntry] = {}
        own_key = curve.encode_point(self.params, self.public_key)
        named = False  # the CA line has been read

        def new_identity(cid: str) -> bytes:
            child_id = bytes.fromhex(cid)
            if child_id in registry or child_id in crl:
                raise ValueError(f"{cid} is on an earlier line")
            return child_id

        def parse(fields):
            nonlocal named
            kind, rest = fields[0], fields[1:]
            if kind == "CA":
                [key_hex] = rest
                if named:
                    raise ValueError("a second CA line")
                if bytes.fromhex(key_hex) != own_key:
                    raise ValueError("written by another authority")
                named = True
            elif not named:
                raise ValueError("the first record line is not a CA line")
            elif kind == "REG":
                cid, issued, lifetime = rest
                child_id = new_identity(cid)
                registry[child_id] = RegistrationRecord(
                    child_id, int(issued),
                    None if lifetime == "-" else int(lifetime),
                    curve.hash_to_point(self.params, child_id))
            elif kind == "CRL":
                cid, at, reason = rest
                if reason not in REVOKE_REASONS:
                    raise ValueError(f"unknown revocation reason {reason!r}")
                child_id = new_identity(cid)
                crl[child_id] = CrlEntry(child_id, int(at), reason)
            else:
                raise ValueError(f"unknown record type {kind!r}")

        parse_records(lines, parse)
        self.registry, self.crl = registry, crl

    def save_records(self, path) -> None:
        write_records(path, self.dump_records())

    def load_records_file(self, path) -> None:
        with open(path) as fh:
            self.load_records(fh)


def setup(params: curve.CurveParams, rng, clock=None,
          affinity: AffinityStore | None = None,
          freshness_window_ms: int = DEFAULT_FRESHNESS_WINDOW_MS,
          ) -> tuple[AuthorityState, Announcement]:
    """System setup: draw the CA keypair and build the announcement
    every client receives.  The private key never leaves the state."""
    private = curve.random_scalar(params, rng)
    state = AuthorityState(params, private, rng, clock, affinity,
                           freshness_window_ms)
    return state, state.announcement()
