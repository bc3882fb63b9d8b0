import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogca import curve
from fogca.errors import (
    DecodeError,
    MismatchedCurve,
    NotInSubgroup,
    OracleRefused,
)

# frozen golden vectors (computed once from the committed presets)
TOY_H1_A = "040603"
TOY_H1_B = "040901"
PROD_H1_A = ("04423005aec2c5e7ffa3a67234f68686eb38ec56800c7c03a7adda82bd33807050"
             "4ec9d808bad4302a5ec1c7973793d7b46fdb7548be7d78eb40375f3f4d6ae54e")
TOY_POINTS = [(0, 6), (0, 11), (3, 1), (3, 16), (5, 1), (5, 16), (6, 3),
              (6, 14), (7, 6), (7, 11), (9, 1), (9, 16), (10, 6), (10, 11),
              (13, 7), (13, 10), (16, 4), (16, 13)]


def all_toy_points(toy):
    return sorted(curve.enumerate_points(toy),
                  key=lambda q: (q.x is None, q.x, q.y))


class TestGroupLaw:
    def test_identity_and_inverse(self, toy):
        P = toy.base_point
        assert curve.point_add(toy, P, curve.INFINITY) == P
        assert curve.point_add(toy, curve.INFINITY, P) == P
        assert curve.point_add(toy, P, curve.point_neg(toy, P)).is_infinity

    def test_doubling_example(self, toy):
        # on E_17(2,2) with P=(5,1): 2P = (6,3)
        assert curve.point_add(toy, toy.base_point, toy.base_point) == \
            curve.CurvePoint(6, 3)

    def test_commutativity_and_associativity_exhaustive(self, toy):
        pts = all_toy_points(toy)
        for a in pts:
            for b in pts:
                assert curve.point_add(toy, a, b) == curve.point_add(toy, b, a)
        rng = random.Random(7)
        for _ in range(500):
            a, b, c = rng.choices(pts, k=3)
            left = curve.point_add(toy, curve.point_add(toy, a, b), c)
            right = curve.point_add(toy, a, curve.point_add(toy, b, c))
            assert left == right

    def test_closure_exhaustive(self, toy):
        pts = set(curve.enumerate_points(toy))
        for a in pts:
            for b in pts:
                assert curve.point_add(toy, a, b) in pts

    def test_group_laws_randomized_prod(self, prod):
        rng = random.Random(11)
        P = prod.base_point
        pts = [curve.scalar_mul(prod, rng.randrange(1, prod.order_n), P)
               for _ in range(8)]
        for a in pts:
            for b in pts:
                assert curve.point_add(prod, a, b) == curve.point_add(prod, b, a)
        for _ in range(20):
            a, b, c = rng.choices(pts, k=3)
            assert curve.point_add(prod, curve.point_add(prod, a, b), c) == \
                curve.point_add(prod, a, curve.point_add(prod, b, c))

    def test_mismatched_curve(self, toy, prod):
        with pytest.raises(MismatchedCurve):
            curve.point_add(toy, toy.base_point, prod.base_point)
        with pytest.raises(MismatchedCurve):
            curve.scalar_mul(prod, 2, curve.CurvePoint(5, 1))


class TestScalarMul:
    def test_zero_and_one(self, toy, prod):
        for params in (toy, prod):
            P = params.base_point
            assert curve.scalar_mul(params, 0, P).is_infinity
            assert curve.scalar_mul(params, 1, P) == P

    def test_matches_naive_repeated_addition(self, toy):
        acc = curve.INFINITY
        for s in range(toy.order_n):
            assert curve.scalar_mul(toy, s, toy.base_point) == acc
            acc = curve.point_add(toy, acc, toy.base_point)

    def test_order_annihilates(self, toy, prod):
        for params in (toy, prod):
            assert curve.scalar_mul(params, params.order_n,
                                    params.base_point).is_infinity

    def test_distributes_over_scalar_addition(self, prod):
        rng = random.Random(3)
        P = prod.base_point
        for _ in range(10):
            s1 = rng.randrange(prod.order_n)
            s2 = rng.randrange(prod.order_n)
            assert curve.scalar_mul(prod, s1 + s2, P) == curve.point_add(
                prod, curve.scalar_mul(prod, s1, P),
                curve.scalar_mul(prod, s2, P))

    def test_reduces_mod_order(self, toy, prod):
        rng = random.Random(5)
        for params in (toy, prod):
            for _ in range(10):
                s = rng.randrange(params.order_n * 3)
                assert curve.scalar_mul(params, s, params.base_point) == \
                    curve.scalar_mul(params, s % params.order_n,
                                     params.base_point)

    def test_non_base_points(self, toy):
        # windowed path must agree on arbitrary points too
        for pt in all_toy_points(toy):
            if pt.is_infinity:
                continue
            acc = curve.INFINITY
            for s in range(toy.order_n):
                assert curve.scalar_mul(toy, s, pt) == acc
                acc = curve.point_add(toy, acc, pt)

    def test_op_counter(self, toy, prod):
        with curve.count_ops() as ops:
            curve.scalar_mul(toy, 5, toy.base_point)
            curve.scalar_mul(toy, 6, toy.base_point)
            # prod256 fixed-base calls run in OpenSSL and still count
            for s in (5, 0, prod.order_n):
                curve.scalar_mul(prod, s, prod.base_point)
        assert ops == {"scalar_mul": 5, "pairing": 0}


# NIST P-256 domain for make_params, which reduces a = -3 mod p
P256_N = 0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551
P256_DOMAIN = dict(
    p=0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff,
    a=-3,
    b=0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b,
    n=P256_N)


class TestP256FixedBase:
    """Multiples of the P-256 base point come from OpenSSL; the Jacobian
    window code stays the oracle, reached through 2G, which is not the
    base point: s * G == (s / 2 mod n) * 2G."""

    @given(st.one_of(
        st.integers(min_value=0, max_value=2 * P256_N),
        # t1 * private_key: a product of two scalars
        st.tuples(st.integers(1, P256_N - 1), st.integers(1, P256_N - 1))
        .map(lambda ab: ab[0] * ab[1]),
        # k_scalar + x: a scalar plus a field element
        st.tuples(st.integers(1, P256_N - 1), st.integers(0, 2 ** 256 - 1))
        .map(sum)))
    @example(0)
    @example(1)
    @example(P256_N - 1)
    @example(P256_N)
    @example(P256_N + 1)
    @example(2 * P256_N - 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_jacobian_oracle(self, prod, s):
        G = prod.base_point
        two_g = curve.point_add(prod, G, G)
        half = s * pow(2, -1, prod.order_n)
        assert curve.scalar_mul(prod, s, G) == \
            curve.scalar_mul(prod, half, two_g)

    def test_domain_not_name_selects_openssl(self, prod, monkeypatch):
        G = prod.base_point
        expected = curve.scalar_mul(prod, 12345, G)
        calls = []
        real = curve._p256_base_mul

        def counted(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(curve, "_p256_base_mul", counted)
        fresh = curve.make_params(gx=G.x, gy=G.y, **P256_DOMAIN)
        assert fresh.name == ""
        calls.clear()
        assert curve.scalar_mul(fresh, 12345, G) == expected
        assert calls == [12345]

    def test_other_base_or_curve_stays_pure_python(self, prod, monkeypatch):
        G = prod.base_point
        two_g = curve.point_add(prod, G, G)
        rng = random.Random(23)
        scalars = [1, 2, P256_N - 1] + [rng.randrange(P256_N) for _ in range(5)]
        expected = [curve.scalar_mul(prod, 2 * s, G) for s in scalars]

        def refuse(s):
            raise AssertionError("OpenSSL path taken off P-256")

        monkeypatch.setattr(curve, "_p256_base_mul", refuse)
        shifted = curve.make_params(gx=two_g.x, gy=two_g.y, **P256_DOMAIN)
        assert [curve.scalar_mul(shifted, s, two_g) for s in scalars] == \
            expected
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        acc = curve.INFINITY
        for s in range(toy.order_n + 1):
            assert curve.scalar_mul(toy, s, toy.base_point) == acc
            acc = curve.point_add(toy, acc, toy.base_point)


class TestOracles:
    def test_dlp_trivial(self, toy):
        assert curve.brute_force_dlp(toy, curve.INFINITY) == 0
        assert curve.brute_force_dlp(toy, toy.base_point) == 1

    def test_dlp_roundtrip_all_scalars(self, toy):
        for s in range(toy.order_n):
            Q = curve.scalar_mul(toy, s, toy.base_point)
            assert curve.brute_force_dlp(toy, Q) == s

    def test_dlp_refused_on_prod(self, prod):
        with pytest.raises(OracleRefused):
            curve.brute_force_dlp(prod, prod.base_point)

    def test_dlp_no_solution(self):
        # E_11(1,1) has 14 points; (0,1) generates the order-7 subgroup
        # and (1,5) has order 14, so it is not a multiple of the base
        params = curve.make_params(11, 1, 1, 0, 1, 7, cofactor=2)
        outside = curve.CurvePoint(1, 5)
        assert curve.is_on_curve(params, outside)
        with pytest.raises(NotInSubgroup):
            curve.brute_force_dlp(params, outside)

    def test_enumeration_matches_frozen_set(self, toy):
        pts = curve.enumerate_points(toy)
        assert len(pts) == 19
        assert {(q.x, q.y) for q in pts if not q.is_infinity} == set(TOY_POINTS)
        assert curve.INFINITY in pts

    def test_hasse_bound(self, toy):
        count = len(curve.enumerate_points(toy))
        assert (count - (toy.p + 1)) ** 2 <= 4 * toy.p

    def test_enumeration_refused_on_prod(self, prod):
        with pytest.raises(OracleRefused):
            curve.enumerate_points(prod)


class TestHashing:
    def test_hash_to_point_deterministic(self, toy, prod):
        for params in (toy, prod):
            a = curve.hash_to_point(params, b"device-7")
            b = curve.hash_to_point(params, b"device-7")
            assert a == b

    def test_hash_to_point_golden(self, toy, prod):
        assert curve.encode_point(toy, curve.hash_to_point(toy, b"A")).hex() == TOY_H1_A
        assert curve.encode_point(toy, curve.hash_to_point(toy, b"B")).hex() == TOY_H1_B
        assert curve.encode_point(prod, curve.hash_to_point(prod, b"A")).hex() == PROD_H1_A

    def test_hash_to_point_on_curve(self, prod):
        rng = random.Random(13)
        for _ in range(100):
            ident = rng.randbytes(rng.randint(1, 24))
            pt = curve.hash_to_point(prod, ident)
            assert curve.is_on_curve(prod, pt) and not pt.is_infinity

    def test_hash_to_point_rejects_empty(self, toy):
        with pytest.raises(ValueError):
            curve.hash_to_point(toy, b"")

    def test_hash_to_scalar_range(self, toy, prod):
        rng = random.Random(17)
        for params in (toy, prod):
            for _ in range(5000):
                s = curve.hash_to_scalar(params, curve.H2_TAG,
                                         [rng.randbytes(8)])
                assert 1 <= s < params.order_n

    def test_hash_to_scalar_domain_separation(self, toy, prod):
        assert curve.hash_to_scalar(toy, curve.H2_TAG, [b"x"]) == 18
        assert curve.hash_to_scalar(toy, curve.H3_TAG, [b"x"]) == 3
        h2 = curve.hash_to_scalar(prod, curve.H2_TAG, [b"x"])
        h3 = curve.hash_to_scalar(prod, curve.H3_TAG, [b"x"])
        assert h2 != h3
        assert h2 == 0x512639b3d0d9ffff516c30365dd04fdd2f20c066491b60b6b4824a92c1abd792

    def test_part_boundaries_matter(self, prod):
        a = curve.hash_to_scalar(prod, curve.H3_TAG, [b"ab", b"c"])
        b = curve.hash_to_scalar(prod, curve.H3_TAG, [b"a", b"bc"])
        assert a != b


class TestEncoding:
    def test_roundtrip(self, toy, prod):
        rng = random.Random(19)
        for params in (toy, prod):
            for _ in range(20):
                pt = curve.scalar_mul(params, rng.randrange(1, params.order_n),
                                      params.base_point)
                assert curve.decode_point(params, curve.encode_point(params, pt)) == pt
            assert curve.decode_point(params,
                                      curve.encode_point(params, curve.INFINITY)).is_infinity

    def test_rejects_non_canonical(self, toy):
        # x = p is a non-canonical encoding of x = 0 and must be refused
        w = toy.field_width
        bad = b"\x04" + toy.p.to_bytes(w, "big") + (6).to_bytes(w, "big")
        with pytest.raises(DecodeError):
            curve.decode_point(toy, bad)

    def test_rejects_off_curve(self, toy):
        bad = b"\x04" + bytes([1]) + bytes([1])
        with pytest.raises(DecodeError):
            curve.decode_point(toy, bad)

    def test_rejects_bad_width_and_tag(self, prod):
        with pytest.raises(DecodeError):
            curve.decode_point(prod, b"\x04\x01\x02")
        with pytest.raises(DecodeError):
            curve.decode_point(prod, b"\x02" + bytes(64))

    def test_scalar_roundtrip_and_bounds(self, prod):
        raw = curve.encode_scalar(prod, 12345)
        assert len(raw) == prod.scalar_width
        assert curve.decode_scalar(prod, raw) == 12345
        with pytest.raises(DecodeError):
            curve.decode_scalar(prod, prod.order_n.to_bytes(32, "big"))
        with pytest.raises(ValueError):
            curve.encode_scalar(prod, prod.order_n)


class TestParams:
    def test_presets_valid(self, toy, prod):
        assert toy.p == 17 and toy.order_n == 19 and toy.cofactor == 1
        assert prod.p.bit_length() == 256 and prod.order_n.bit_length() == 256

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):  # composite modulus
            curve.make_params(15, 2, 2, 5, 1, 19)
        with pytest.raises(ValueError):  # singular curve 4a^3+27b^2 = 0
            curve.make_params(17, 0, 0, 5, 1, 19)
        with pytest.raises(ValueError):  # base point off curve
            curve.make_params(17, 2, 2, 5, 2, 19)
        with pytest.raises(ValueError):  # wrong subgroup order
            curve.make_params(17, 2, 2, 5, 1, 23)
        with pytest.raises(ValueError):  # true order is 7, not the claimed 5
            curve.make_params(11, 1, 1, 0, 1, 5)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            curve.load_preset("nope")


class TestSqrtMod:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_mod_consistency(self, value):
        for p in (17, 19, 10007, 65537):  # mix of 1-mod-4 and 3-mod-4
            root = curve.sqrt_mod(value, p)
            if root is not None:
                assert root * root % p == value % p
            else:
                assert pow(value % p, (p - 1) // 2, p) == p - 1
