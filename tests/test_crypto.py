import random

import pytest

from fogca import crypto
from fogca.errors import AuthFailure, TimestampOutOfRange, WidthMismatch

TOY_DERIVE_123 = (4, "613b5ae2930fe8d594ffbc3bf5ae4255fb5aeb3d6e38907fa8e8dbeb6db9d6d9")
TOY_DERIVE_213 = (16, "4701ff5fc6f502054aa80dd4657e31124da6cfe1f886bf608aeb8c5933e94cdf")


class TestSealOpen:
    def test_roundtrip_many(self):
        rng = random.Random(1)
        for _ in range(10_000):
            key = rng.randbytes(32)
            msg = rng.randbytes(rng.randint(0, 64))
            assert crypto.open_box(key, crypto.seal(key, msg, rng)) == msg

    def test_bit_flip_detected(self):
        rng = random.Random(2)
        key = rng.randbytes(32)
        box = crypto.seal(key, b"attack at dawn", rng)
        flipped = bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:]
        with pytest.raises(AuthFailure):
            crypto.open_box(key, crypto.SealedBox(box.nonce, flipped, box.tag))

    def test_wrong_key_detected(self):
        rng = random.Random(3)
        k1, k2 = rng.randbytes(32), rng.randbytes(32)
        box = crypto.seal(k1, b"for k1 only", rng)
        with pytest.raises(AuthFailure):
            crypto.open_box(k2, box)

    def test_tag_flip_detected(self):
        rng = random.Random(4)
        key = rng.randbytes(32)
        box = crypto.seal(key, b"x", rng)
        bad = crypto.SealedBox(box.nonce, box.ciphertext,
                               bytes([box.tag[0] ^ 0x80]) + box.tag[1:])
        with pytest.raises(AuthFailure):
            crypto.open_box(key, bad)

    def test_same_plaintext_seals_differently(self):
        rng = random.Random(5)
        key = rng.randbytes(32)
        a = crypto.seal(key, b"same", rng)
        b = crypto.seal(key, b"same", rng)
        assert a.nonce != b.nonce and a.ciphertext != b.ciphertext

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            crypto.seal(b"short", b"m", random.Random(0))


class TestDeriveSessionKey:
    def test_deterministic(self, toy):
        a = crypto.derive_session_key(toy, b"\x01", b"\x02", b"\x03")
        b = crypto.derive_session_key(toy, b"\x01", b"\x02", b"\x03")
        assert a == b
        assert a == (TOY_DERIVE_123[0], bytes.fromhex(TOY_DERIVE_123[1]))

    def test_argument_order_matters(self, toy):
        swapped = crypto.derive_session_key(toy, b"\x02", b"\x01", b"\x03")
        assert swapped == (TOY_DERIVE_213[0], bytes.fromhex(TOY_DERIVE_213[1]))
        assert swapped != crypto.derive_session_key(toy, b"\x01", b"\x02", b"\x03")

    def test_width_checked(self, toy, prod):
        with pytest.raises(WidthMismatch):
            crypto.derive_session_key(toy, b"\x01\x02", b"\x02", b"\x03")
        with pytest.raises(WidthMismatch):
            crypto.derive_session_key(prod, b"\x01" * 32, b"\x02" * 31,
                                      b"\x03" * 32)

    def test_scalar_in_range_and_key_len(self, prod):
        rng = random.Random(8)
        for _ in range(200):
            k_scalar, key = crypto.derive_session_key(
                prod, rng.randbytes(32), rng.randbytes(32), rng.randbytes(32))
            assert 1 <= k_scalar < prod.order_n
            assert len(key) == 32


class TestFreshness:
    def test_exact_now(self):
        assert crypto.check_freshness(1000, 1000, 2000)

    def test_window_edge(self):
        assert crypto.check_freshness(0, 2000, 2000)
        assert not crypto.check_freshness(0, 2001, 2000)

    def test_future_rejected(self):
        assert not crypto.check_freshness(1001, 1000, 2000)

    def test_replayed_old_timestamp_rejected(self):
        # an old transcript's timestamp far in the past never verifies
        assert not crypto.check_freshness(5_000, 60_000, 2000)


class TestTimestampBytes:
    @pytest.mark.parametrize("ms", [0, 1, 2**64 - 1])
    def test_unsigned_64_bit_values_encoded(self, ms):
        assert crypto.timestamp_bytes(ms) == ms.to_bytes(8, "big")

    @pytest.mark.parametrize("ms", [-1, -50, 2**64, 2**70])
    def test_out_of_range_refused(self, ms):
        with pytest.raises(TimestampOutOfRange):
            crypto.timestamp_bytes(ms)


class TestManualClock:
    def test_advances(self):
        clock = crypto.ManualClock(10)
        clock.advance(5)
        assert clock.now() == 15
        with pytest.raises(ValueError):
            clock.advance(-1)
