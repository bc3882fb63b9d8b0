import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogca import curve, wire
from fogca.crypto import BOX_NONCE_LEN, TAG_LEN, seal
from fogca.errors import DecodeError, TimestampOutOfRange


def sample_messages(params):
    rng = random.Random(23)
    key = rng.randbytes(32)
    point = curve.scalar_mul(params, 5, params.base_point)
    other = curve.scalar_mul(params, 9, params.base_point)
    box = lambda payload: seal(key, payload, rng)  # noqa: E731
    return [
        wire.Announcement(params, point),
        wire.RegistrationRequest(b"cam-01"),
        wire.RegistrationResponse(box(b"sealed-auth-key")),
        wire.AuthRequest(b"cam-01", point, other, 123456),
        wire.AuthResponse(point, other, 999, 123456),
        wire.PeerInit(box(b"peer"), box(b"k" * 32)),
        wire.PeerRelay(box(b"cam-01"), box(b"k" * 32)),
        wire.PeerChallenge(box(b"lock-02"), box(b"n" * 16)),
        wire.PeerProof(box(b"n" * 16)),
    ]


def timestamp_fields(params):
    """(message, field name) for each timestamp that the wire carries."""
    request, response = sample_messages(params)[3:5]
    return [(request, "sent_at"), (response, "sent_at"),
            (response, "request_sent_at")]


BOX_MESSAGES = (wire.RegistrationResponse, wire.PeerInit, wire.PeerRelay,
                wire.PeerChallenge, wire.PeerProof)
OLD_HASH_IDS = (b"h1/sha256/try-increment", b"h2/sha256", b"h3/sha256")


class TestRoundTrip:
    @pytest.mark.parametrize("preset", ["toy17", "prod256"])
    def test_every_variant(self, preset):
        params = curve.load_preset(preset)
        for msg in sample_messages(params):
            blob = wire.encode(msg, params)
            assert wire.decode(blob, params) == msg

    def test_encoding_deterministic(self, toy):
        for msg in sample_messages(toy):
            assert wire.encode(msg, toy) == wire.encode(msg, toy)

    def test_announcement_is_self_describing(self, prod):
        ann = wire.Announcement(prod, curve.scalar_mul(prod, 7, prod.base_point))
        decoded = wire.decode(wire.encode(ann))  # no params argument
        assert decoded == ann
        assert decoded.params.order_n == prod.order_n

    def test_announcement_ends_after_public_key(self, prod):
        pub = curve.scalar_mul(prod, 7, prod.base_point)
        raw = curve.encode_point(prod, pub)
        blob = wire.encode(wire.Announcement(prod, pub))
        assert blob.endswith(bytes([len(raw)]) + raw)

    def test_infinity_point_encodes(self, toy):
        msg = wire.AuthResponse(curve.INFINITY, toy.base_point, 1, 0)
        assert wire.decode(wire.encode(msg, toy), toy) == msg


class TestErrors:
    def test_unknown_tag(self, toy):
        with pytest.raises(DecodeError):
            wire.decode(b"\xee\x01\x02", toy)

    def test_empty(self):
        with pytest.raises(DecodeError):
            wire.decode(b"")

    def test_truncated_auth_request(self, toy):
        for msg in sample_messages(toy)[3:5]:  # AuthRequest, AuthResponse
            blob = wire.encode(msg, toy)
            for cut in (1, len(blob) // 2, len(blob) - 8, len(blob) - 1):
                with pytest.raises(DecodeError):
                    wire.decode(blob[:cut], toy)

    def test_trailing_bytes_rejected(self, toy):
        blob = wire.encode(wire.RegistrationRequest(b"cam-01"))
        with pytest.raises(DecodeError):
            wire.decode(blob + b"\x00", toy)

    def test_point_messages_need_params(self, toy):
        blob = wire.encode(sample_messages(toy)[3], toy)
        with pytest.raises(DecodeError):
            wire.decode(blob, None)

    @pytest.mark.parametrize("sent_at", [-1, 2**64])
    def test_timestamp_outside_u64_refused(self, toy, sent_at):
        for msg, name in timestamp_fields(toy):
            with pytest.raises(TimestampOutOfRange):
                wire.encode(dataclasses.replace(msg, **{name: sent_at}), toy)

    def test_largest_timestamp_roundtrips(self, toy):
        for msg, name in timestamp_fields(toy):
            msg = dataclasses.replace(msg, **{name: 2**64 - 1})
            assert wire.decode(wire.encode(msg, toy), toy) == msg

    def test_identity_length_bounds(self):
        with pytest.raises(ValueError):
            wire.encode(wire.RegistrationRequest(b""))
        with pytest.raises(ValueError):
            wire.encode(wire.RegistrationRequest(b"x" * 65))

    def test_non_canonical_point_rejected(self, toy):
        msg = wire.AuthRequest(b"cam-01", toy.base_point, toy.base_point, 5)
        blob = bytearray(wire.encode(msg, toy))
        # first point starts after tag + id length byte + id; its x is at +2
        idx = 1 + 1 + 6 + 1 + 1
        blob[idx] = toy.p  # x = p: non-canonical
        with pytest.raises(DecodeError):
            wire.decode(bytes(blob), toy)

    def test_bad_announced_curve(self, toy):
        ann = wire.Announcement(toy, toy.base_point)
        blob = bytearray(wire.encode(ann))
        blob[3] = 15  # p := 15, composite
        with pytest.raises(DecodeError):
            wire.decode(bytes(blob))


    def test_announcement_with_old_hash_ids_refused(self, prod):
        ann = wire.Announcement(prod, curve.scalar_mul(prod, 7, prod.base_point))
        old = wire.encode(ann) + b"".join(bytes([len(hid)]) + hid
                                          for hid in OLD_HASH_IDS)
        with pytest.raises(DecodeError):
            wire.decode(old)


class TestExactLength:
    """Every field's length is known from the bytes before it, so a
    message decodes only at exactly its own length."""

    @pytest.mark.parametrize("preset", ["toy17", "prod256"])
    def test_prefixes_and_extensions_refused(self, preset):
        params = curve.load_preset(preset)
        for msg in sample_messages(params):
            blob = wire.encode(msg, params)
            for cut in range(len(blob)):
                with pytest.raises(DecodeError):
                    wire.decode(blob[:cut], params)
            for extra in range(256):
                with pytest.raises(DecodeError):
                    wire.decode(blob + bytes([extra]), params)


class TestSealedBox:
    def test_wire_form_roundtrip(self):
        rng = random.Random(6)
        box = seal(rng.randbytes(32), b"payload", rng)
        blob = wire.encode(wire.PeerProof(box))
        # tag byte, then nonce || 4-byte BE length || ciphertext || tag
        assert blob == (bytes([wire.TAG_PEER_PROOF]) + box.nonce
                        + len(box.ciphertext).to_bytes(4, "big")
                        + box.ciphertext + box.tag)
        assert len(blob) == 1 + BOX_NONCE_LEN + 4 + len(b"payload") + TAG_LEN
        assert wire.decode(blob) == wire.PeerProof(box)

    def test_wire_form_truncation(self, toy):
        boxed = [m for m in sample_messages(toy) if isinstance(m, BOX_MESSAGES)]
        assert len(boxed) == len(BOX_MESSAGES)
        for msg in boxed:
            blob = wire.encode(msg, toy)
            for cut in range(len(blob)):
                with pytest.raises(DecodeError):
                    wire.decode(blob[:cut], toy)


class TestMutation:
    def test_flips_never_produce_equal_message(self, toy):
        rng = random.Random(31)
        for original in sample_messages(toy)[3:5]:  # AuthRequest, AuthResponse
            blob = wire.encode(original, toy)
            for _ in range(400):
                i = rng.randrange(len(blob))
                mutated = bytearray(blob)
                mutated[i] ^= 1 << rng.randrange(8)
                try:
                    decoded = wire.decode(bytes(mutated), toy)
                except DecodeError:
                    continue
                assert decoded != original

    @given(st.binary(max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_decode_never_panics(self, blob):
        toy = curve.toy17()
        try:
            wire.decode(blob, toy)
        except DecodeError:
            pass

    @given(st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_decode_never_panics_without_params(self, blob):
        try:
            wire.decode(blob, None)
        except DecodeError:
            pass
