"""Canonical byte encodings for every protocol message.

One tag byte selects the variant; integers are big-endian; identities
are length-prefixed UTF-8 of 1-64 bytes; points use the curve module's
fixed-width encoding, so decoding a point-bearing message requires the
curve parameters (the announcement itself is self-describing).  A sealed
box is its 12-byte cipher nonce, a 4-byte big-endian ciphertext length,
the ciphertext and the 16-byte tag.

encode/decode form an identity on every variant, and decode never
raises anything but DecodeError on malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import curve
from .crypto import BOX_NONCE_LEN, TAG_LEN, SealedBox, timestamp_bytes
from .errors import DecodeError

TAG_ANNOUNCEMENT = 0x01
TAG_REG_REQUEST = 0x02
TAG_REG_RESPONSE = 0x03
TAG_AUTH_REQUEST = 0x04
TAG_AUTH_RESPONSE = 0x05
TAG_PEER_INIT = 0x06
TAG_PEER_RELAY = 0x07
TAG_PEER_CHALLENGE = 0x08
TAG_PEER_PROOF = 0x09

MAX_IDENTITY_LEN = 64


@dataclass(frozen=True)
class Announcement:
    """Public system parameters: curve and authority public key."""
    params: curve.CurveParams
    public_key: curve.CurvePoint


@dataclass(frozen=True)
class RegistrationRequest:
    child_id: bytes


@dataclass(frozen=True)
class RegistrationResponse:
    """Authentication key, sealed under the registration channel key."""
    sealed_auth_key: SealedBox


@dataclass(frozen=True)
class AuthRequest:
    """Client half of mutual authentication."""
    child_id: bytes
    blinded: curve.CurvePoint      # random point masked by the auth key
    x_proof: curve.CurvePoint      # x-coordinate of the random point, times P
    sent_at: int


@dataclass(frozen=True)
class AuthResponse:
    """Server half: masked server point plus key-confirmation point, and
    the T1 of the request it answers."""
    blinded: curve.CurvePoint
    key_check: curve.CurvePoint
    sent_at: int
    request_sent_at: int


@dataclass(frozen=True)
class PeerInit:
    """Initiator -> authority: target id and proposed key."""
    peer_box: SealedBox
    key_box: SealedBox


@dataclass(frozen=True)
class PeerRelay:
    """Authority -> responder: initiator id and proposed key, re-sealed."""
    initiator_box: SealedBox
    key_box: SealedBox


@dataclass(frozen=True)
class PeerChallenge:
    """Responder -> initiator under the proposed key: own id and nonce."""
    identity_box: SealedBox
    nonce_box: SealedBox


@dataclass(frozen=True)
class PeerProof:
    """Initiator -> responder: the challenge nonce, sealed back."""
    nonce_box: SealedBox


ProtocolMessage = (Announcement | RegistrationRequest | RegistrationResponse
                   | AuthRequest | AuthResponse | PeerInit | PeerRelay
                   | PeerChallenge | PeerProof)


def _enc_varint(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    return len(raw).to_bytes(2, "big") + raw


def check_identity(ident: bytes) -> None:
    """Raise ValueError unless the wire can carry `ident`: 1 to
    MAX_IDENTITY_LEN bytes of UTF-8."""
    message = f"identity must be 1-{MAX_IDENTITY_LEN} bytes of UTF-8"
    if not 1 <= len(ident) <= MAX_IDENTITY_LEN:
        raise ValueError(message)
    try:
        ident.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(message) from None


def _enc_identity(ident: bytes) -> bytes:
    check_identity(ident)
    return bytes([len(ident)]) + ident


def _enc_point(params: curve.CurveParams, pt: curve.CurvePoint) -> bytes:
    raw = curve.encode_point(params, pt)
    # infinity is 1 byte, finite points 1+2w: prefix the length so the
    # stream stays self-delimiting either way
    return bytes([len(raw)]) + raw


def _enc_box(box: SealedBox) -> bytes:
    return (box.nonce + len(box.ciphertext).to_bytes(4, "big")
            + box.ciphertext + box.tag)


# Decoding helpers: each reads one field of `data` at `pos` and returns
# the field and the position after it, or raises DecodeError.

def _take(data: bytes, pos: int, k: int) -> tuple[bytes, int]:
    end = pos + k
    if end > len(data):
        raise DecodeError("truncated message")
    return data[pos:end], end


def _dec_varint(data: bytes, pos: int) -> tuple[int, int]:
    raw, pos = _take(data, pos, 2)
    raw, pos = _take(data, pos, int.from_bytes(raw, "big"))
    return int.from_bytes(raw, "big"), pos


def _dec_identity(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = _take(data, pos, 1)
    if not 1 <= n[0] <= MAX_IDENTITY_LEN:
        raise DecodeError("bad identity length")
    ident, pos = _take(data, pos, n[0])
    try:
        ident.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("identity is not UTF-8") from exc
    return ident, pos


def _dec_point(params: curve.CurveParams, data: bytes,
               pos: int) -> tuple[curve.CurvePoint, int]:
    n, pos = _take(data, pos, 1)
    raw, pos = _take(data, pos, n[0])
    return curve.decode_point(params, raw), pos


def _dec_u64(data: bytes, pos: int) -> tuple[int, int]:
    raw, pos = _take(data, pos, 8)
    return int.from_bytes(raw, "big"), pos


def _dec_box(data: bytes, pos: int) -> tuple[SealedBox, int]:
    nonce, pos = _take(data, pos, BOX_NONCE_LEN)
    clen, pos = _take(data, pos, 4)
    ciphertext, pos = _take(data, pos, int.from_bytes(clen, "big"))
    tag, pos = _take(data, pos, TAG_LEN)
    return SealedBox(nonce, ciphertext, tag), pos


def _done(data: bytes, pos: int, msg: ProtocolMessage) -> ProtocolMessage:
    if pos != len(data):
        raise DecodeError("trailing bytes after message")
    return msg


def encode(msg: ProtocolMessage, params: curve.CurveParams | None = None) -> bytes:
    """Serialize a protocol message; point-bearing variants need params.
    A timestamp outside 0..2^64-1 raises TimestampOutOfRange."""
    if isinstance(msg, Announcement):
        cp = msg.params
        return b"".join([
            bytes([TAG_ANNOUNCEMENT]), _enc_varint(cp.p), _enc_varint(cp.a),
            _enc_varint(cp.b), _enc_varint(cp.order_n),
            _enc_varint(cp.cofactor), _enc_point(cp, cp.base_point),
            _enc_point(cp, msg.public_key)])
    if isinstance(msg, RegistrationRequest):
        return bytes([TAG_REG_REQUEST]) + _enc_identity(msg.child_id)
    if isinstance(msg, RegistrationResponse):
        return bytes([TAG_REG_RESPONSE]) + _enc_box(msg.sealed_auth_key)
    if isinstance(msg, AuthRequest):
        if params is None:
            raise ValueError("curve params required to encode AuthRequest")
        return (bytes([TAG_AUTH_REQUEST]) + _enc_identity(msg.child_id)
                + _enc_point(params, msg.blinded)
                + _enc_point(params, msg.x_proof)
                + timestamp_bytes(msg.sent_at))
    if isinstance(msg, AuthResponse):
        if params is None:
            raise ValueError("curve params required to encode AuthResponse")
        return (bytes([TAG_AUTH_RESPONSE]) + _enc_point(params, msg.blinded)
                + _enc_point(params, msg.key_check)
                + timestamp_bytes(msg.sent_at)
                + timestamp_bytes(msg.request_sent_at))
    if isinstance(msg, PeerInit):
        return (bytes([TAG_PEER_INIT]) + _enc_box(msg.peer_box)
                + _enc_box(msg.key_box))
    if isinstance(msg, PeerRelay):
        return (bytes([TAG_PEER_RELAY]) + _enc_box(msg.initiator_box)
                + _enc_box(msg.key_box))
    if isinstance(msg, PeerChallenge):
        return (bytes([TAG_PEER_CHALLENGE]) + _enc_box(msg.identity_box)
                + _enc_box(msg.nonce_box))
    if isinstance(msg, PeerProof):
        return bytes([TAG_PEER_PROOF]) + _enc_box(msg.nonce_box)
    raise TypeError(f"not a protocol message: {msg!r}")


def decode(data: bytes, params: curve.CurveParams | None = None) -> ProtocolMessage:
    """Parse bytes into a message or raise DecodeError.  Never raises
    anything else, no matter the input."""
    try:
        return _decode(data, params)
    except DecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 - fuzz guarantee
        raise DecodeError(f"malformed message: {exc}") from exc


def _decode(data: bytes, params: curve.CurveParams | None) -> ProtocolMessage:
    if not data:
        raise DecodeError("empty message")
    tag = data[0]
    if tag == TAG_ANNOUNCEMENT:
        p, pos = _dec_varint(data, 1)
        a, pos = _dec_varint(data, pos)
        b, pos = _dec_varint(data, pos)
        n, pos = _dec_varint(data, pos)
        cofactor, pos = _dec_varint(data, pos)
        if p < 2 or n < 2:
            raise DecodeError("bad announced field/order")
        # unvalidated shell: enough to parse fixed-width points, then
        # make_params re-checks everything including n * base == O
        shell = curve.CurveParams(p, a % p, b % p, curve.INFINITY, n, cofactor)
        base, pos = _dec_point(shell, data, pos)
        pub, pos = _dec_point(shell, data, pos)
        if base.is_infinity:
            raise DecodeError("announced base point is infinity")
        try:
            cp = curve.make_params(p, a, b, base.x, base.y, n, cofactor)
        except ValueError as exc:
            raise DecodeError(f"invalid announced curve: {exc}") from exc
        return _done(data, pos, Announcement(cp, pub))
    if tag == TAG_REG_REQUEST:
        ident, pos = _dec_identity(data, 1)
        return _done(data, pos, RegistrationRequest(ident))
    if tag == TAG_REG_RESPONSE:
        box, pos = _dec_box(data, 1)
        return _done(data, pos, RegistrationResponse(box))
    if tag == TAG_AUTH_REQUEST:
        if params is None:
            raise DecodeError("curve params required to decode AuthRequest")
        ident, pos = _dec_identity(data, 1)
        blinded, pos = _dec_point(params, data, pos)
        x_proof, pos = _dec_point(params, data, pos)
        sent_at, pos = _dec_u64(data, pos)
        return _done(data, pos, AuthRequest(ident, blinded, x_proof, sent_at))
    if tag == TAG_AUTH_RESPONSE:
        if params is None:
            raise DecodeError("curve params required to decode AuthResponse")
        blinded, pos = _dec_point(params, data, 1)
        key_check, pos = _dec_point(params, data, pos)
        sent_at, pos = _dec_u64(data, pos)
        request_sent_at, pos = _dec_u64(data, pos)
        return _done(data, pos, AuthResponse(blinded, key_check, sent_at,
                                             request_sent_at))
    two_boxes = _TWO_BOX_MESSAGES.get(tag)
    if two_boxes is not None:
        first, pos = _dec_box(data, 1)
        second, pos = _dec_box(data, pos)
        return _done(data, pos, two_boxes(first, second))
    if tag == TAG_PEER_PROOF:
        box, pos = _dec_box(data, 1)
        return _done(data, pos, PeerProof(box))
    raise DecodeError(f"unknown message tag {tag:#04x}")


_TWO_BOX_MESSAGES = {TAG_PEER_INIT: PeerInit, TAG_PEER_RELAY: PeerRelay,
                     TAG_PEER_CHALLENGE: PeerChallenge}
