"""Symmetric primitives for the protocol suite.

Session keys are 32 raw bytes, nonces 16 bytes, timestamps integer
milliseconds of simulated time.  Sealing is AES-256-GCM from the
`cryptography` package: a 12-byte cipher nonce and a 16-byte tag; the
wire module owns the byte layout a SealedBox travels in.

All randomness is drawn from an injected `random.Random` so every
simulation and attack script replays deterministically from its seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .curve import H3_TAG, CurveParams, hash_to_scalar
from .errors import AuthFailure, TimestampOutOfRange, WidthMismatch

KEY_LEN = 32
NONCE_LEN = 16
BOX_NONCE_LEN = 12
TAG_LEN = 16

_KDF_TAG = b"fogca.kdf.sessionkey"


def new_symmetric_key(rng) -> bytes:
    return rng.randbytes(KEY_LEN)


def new_nonce(rng) -> bytes:
    return rng.randbytes(NONCE_LEN)


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise ValueError(f"symmetric key must be {KEY_LEN} bytes")


@dataclass(frozen=True)
class SealedBox:
    """Authenticated ciphertext: cipher nonce, ciphertext, tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes


def seal(key: bytes, plaintext: bytes, rng) -> SealedBox:
    """Encrypt-and-authenticate under a fresh random cipher nonce."""
    _check_key(key)
    nonce = rng.randbytes(BOX_NONCE_LEN)
    blob = AESGCM(key).encrypt(nonce, plaintext, None)
    return SealedBox(nonce, blob[:-TAG_LEN], blob[-TAG_LEN:])


def open_box(key: bytes, box: SealedBox) -> bytes:
    """Decrypt; raises AuthFailure on a wrong key or any modification."""
    _check_key(key)
    try:
        return AESGCM(key).decrypt(box.nonce, box.ciphertext + box.tag, None)
    except InvalidTag as exc:
        raise AuthFailure("sealed box failed authentication") from exc


def derive_session_key(params: CurveParams, x_q: bytes, x_c: bytes,
                       x_s: bytes) -> tuple[int, bytes]:
    """Derive the shared session secret from three x-coordinates.

    Returns (k_scalar, key): the scalar feeds the key-confirmation point
    on the wire, the 32-byte key feeds seal/open.  Both are pure
    functions of the inputs.
    """
    w = params.field_width
    for part in (x_q, x_c, x_s):
        if len(part) != w:
            raise WidthMismatch(f"expected {w}-byte coordinate, got {len(part)}")
    k_scalar = hash_to_scalar(params, H3_TAG, [x_q, x_c, x_s])
    key = hashlib.sha256(
        _KDF_TAG + k_scalar.to_bytes(params.scalar_width, "big")).digest()
    return k_scalar, key


DEFAULT_FRESHNESS_WINDOW_MS = 2000


def check_freshness(sent_ms: int, now_ms: int, window_ms: int) -> bool:
    """Accept iff the message is not from the future and not older than
    the window."""
    return 0 <= now_ms - sent_ms <= window_ms


def timestamp_bytes(ms: int) -> bytes:
    """The 8-byte big-endian form in which a timestamp is hashed and sent;
    refuses a value outside 0..2^64-1."""
    if not 0 <= ms < 1 << 64:
        raise TimestampOutOfRange(f"timestamp {ms} ms is outside 0..2^64-1")
    return ms.to_bytes(8, "big")


class ManualClock:
    """Millisecond clock advanced explicitly; used outside the simulator."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    def now(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock cannot go backwards")
        self._now += ms
