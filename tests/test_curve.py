import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

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
# H1 points of five identities per preset, recorded before the
# one-exponentiation square root
H1_GOLDEN = {
    "toy17": [
        (b"cam-01", "040706"),
        (b"device-7", "040901"),
        (b"p256-0000", "040603"),
        (b"child-a", "040006"),
        (b"\x00\xffx", "040603"),
    ],
    "prod256": [
        (b"cam-01",
         ("040443763b0139751fa307be788a4fd40017fc11004e2049bdd781e8351b00406b"
          "7d3df9680702c65322dfe2ee0d4fa15b788aeb0a98ec8735641fb6b069f0b089")),
        (b"device-7",
         ("0448fdd82cc412bd209776197b761d3a2b29f69fd1aec3d346ad961a0634204650"
          "3979025aa93227d0ad1537ed6dde907b9444d8807088ad1ae30b76aaae43415e")),
        (b"p256-0000",
         ("045697ed90ec1220bc43ab7ea8726b58d2c57f07db23a0840776b9fc98cdb2ddbc"
          "45c412f7a469c759a9094b1b3a0eb0a4b5e5f48442c5ed1f1795b99259138c58")),
        (b"child-a",
         ("04f97884dd8ade147c5b0d0684afd323195609e0e6a4cff574d86a15ea3969f4bf"
          "439f94007febeeb72359e73b0aa7438b51fa439d7c2277efeff8c504f49a317a")),
        (b"\x00\xffx",
         ("0485fc5b05015727caae9c9d980c80f7e9bc54c277357bd2d7fb5ef5aca67cd719"
          "0616fef7584c8f76567291ae41d56c6a04b05ab323fb716f6fe3a84c92b4b971")),
    ],
}
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
        # the table must agree on arbitrary points too
        for pt in all_toy_points(toy):
            if pt.is_infinity:
                continue
            acc = curve.INFINITY
            for s in range(toy.order_n):
                assert curve.scalar_mul(toy, s, pt) == acc
                acc = curve.point_add(toy, acc, pt)

    def test_op_counter(self, toy, prod):
        with curve.count_ops() as ops:
            # toy17 calls look up each point's row of multiples; a call
            # counts whether it builds the row or finds it
            curve.scalar_mul(toy, 5, toy.base_point)
            curve.scalar_mul(toy, 6, toy.base_point)
            curve.scalar_mul(toy, 2, curve.CurvePoint(3, 1))
            curve.scalar_mul(toy, 2, curve.CurvePoint(3, 1))
            # prod256 fixed-base calls run in OpenSSL and still count
            for s in (5, 0, prod.order_n):
                curve.scalar_mul(prod, s, prod.base_point)
        assert ops == {"scalar_mul": 7, "pairing": 0}


# NIST P-256 domain for make_params, which reduces a = -3 mod p
P256_N = 0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551
P256_DOMAIN = dict(
    p=0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff,
    a=-3,
    b=0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b,
    n=P256_N)


def affine_mul(params, k, pt):
    """k * pt for any k >= 0, unreduced, by affine double-and-add over
    `point_add`: the oracle on curves too large to tabulate."""
    acc = curve.INFINITY
    while k:
        if k & 1:
            acc = curve.point_add(params, acc, pt)
        pt = curve.point_add(params, pt, pt)
        k >>= 1
    return acc


class TestP256FixedBase:
    """Multiples of the P-256 base point come from OpenSSL; the affine
    double-and-add over `point_add` is the oracle."""

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
    def test_matches_affine_oracle(self, prod, s):
        assert curve.scalar_mul(prod, s, prod.base_point) == \
            affine_mul(prod, s, prod.base_point)

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


    def test_ec_module_loads_with_the_first_p256_domain(self):
        # a process that only uses toy17 should not pay for the import
        code = ("import sys\n"
                "from fogca import cli, curve\n"
                "ec = 'cryptography.hazmat.primitives.asymmetric.ec'\n"
                "toy = curve.toy17()\n"
                "curve.scalar_mul(toy, 3, toy.base_point)\n"
                "print(ec in sys.modules)\n"
                "prod = curve.prod256()\n"
                "curve.scalar_mul(prod, 3, prod.base_point)\n"
                "print(ec in sys.modules)\n")
        src = Path(curve.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.split() == ["False", "True"]


def repeated_addition(params, k, pt):
    """k * pt as k affine additions: the oracle."""
    acc = curve.INFINITY
    for _ in range(k):
        acc = curve.point_add(params, acc, pt)
    return acc


class TestSmallCurveTable:
    """On a curve with p < 2^8, `scalar_mul` looks each answer up in the
    point's row of multiples, built on the point's first use."""

    @pytest.mark.parametrize("domain", [
        dict(p=17, a=2, b=2, gx=5, gy=1, n=19),
        # E_11(1,1): 14 points, cofactor 2; (1, 5) has order 14, outside
        # the order-7 subgroup
        dict(p=11, a=1, b=1, gx=0, gy=1, n=7, cofactor=2)])
    def test_every_point_and_scalar_matches_affine_law(self, domain):
        params = curve.make_params(**domain)
        n = params.order_n
        points = curve.enumerate_points(params)
        assert curve.INFINITY in points
        if params.cofactor == 2:
            assert curve.CurvePoint(1, 5) in points
        for pt in points:
            for s in range(-1, 2 * n + 2):
                assert curve.scalar_mul(params, s, pt) == \
                    repeated_addition(params, s % n, pt), (pt, s)
        assert len(params._tiny.rows) == len(points)

    def test_off_curve_point_refused_every_time(self):
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        rows = dict(toy._tiny.rows)
        off = curve.CurvePoint(1, 1)
        assert not curve.is_on_curve(toy, off)
        for s in (0, 1, 5, 5):
            with pytest.raises(MismatchedCurve):
                curve.scalar_mul(toy, s, off)
        assert toy._tiny.rows == rows

    def test_rows_never_outnumber_the_points(self):
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        points = curve.enumerate_points(toy)
        rng = random.Random(31)
        for _ in range(500):
            pt = curve.CurvePoint(*rng.choice(TOY_POINTS))
            curve.scalar_mul(toy, rng.randrange(-50, 50), pt)
            assert len(toy._tiny.rows) <= len(points)
        assert set(toy._tiny.rows) <= points

    def test_row_is_built_once_per_point(self, monkeypatch):
        built = []
        real = curve._multiples

        def counted(params, pt):
            built.append(pt)
            return real(params, pt)

        monkeypatch.setattr(curve, "_multiples", counted)
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        assert built == [toy.base_point]
        for s in range(1, 6):
            # equal points built anew share the row
            curve.scalar_mul(toy, s, curve.CurvePoint(3, 1))
            curve.scalar_mul(toy, s, toy.base_point)
        assert built == [toy.base_point, curve.CurvePoint(3, 1)]
        # another params object keeps rows of its own
        other = curve.make_params(17, 2, 2, 5, 1, 19)
        curve.scalar_mul(other, 2, curve.CurvePoint(3, 1))
        assert built[2:] == [other.base_point, curve.CurvePoint(3, 1)]

    def test_only_larger_curves_reach_the_jacobian_loop(self, toy, prod,
                                                        monkeypatch):
        calls = []
        real = curve._jacobian_mul

        def counted(params, s, pt):
            calls.append(params)
            return real(params, s, pt)

        monkeypatch.setattr(curve, "_jacobian_mul", counted)
        for s in range(1, 4):
            curve.scalar_mul(toy, s, toy.base_point)
            curve.scalar_mul(toy, s, curve.CurvePoint(3, 1))
        # P-256 multiples of the base point come from OpenSSL
        curve.scalar_mul(prod, 5, prod.base_point)
        assert calls == []
        two_g = curve.point_add(prod, prod.base_point, prod.base_point)
        curve.scalar_mul(prod, 5, two_g)
        assert calls == [prod]


def textbook_add(params, p1, p2):
    """The affine chord-tangent law written out once more: the oracle
    for `point_add`'s table."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = params.p
    if p1.x == p2.x and (p1.y + p2.y) % p == 0:
        return curve.INFINITY
    if p1 == p2:
        lam = (3 * p1.x ** 2 + params.a) * pow(2 * p1.y, -1, p) % p
    else:
        lam = (p2.y - p1.y) * pow(p2.x - p1.x, -1, p) % p
    x3 = (lam * lam - p1.x - p2.x) % p
    return curve.CurvePoint(x3, (lam * (p1.x - x3) - p1.y) % p)


TINY_DOMAINS = [
    dict(p=17, a=2, b=2, gx=5, gy=1, n=19),
    # E_11(1,1), cofactor 2: half its points lie outside the subgroup
    dict(p=11, a=1, b=1, gx=0, gy=1, n=7, cofactor=2),
    # E_59(-3,24), cyclic of order 66, cofactor 6: a = p - 3 as on P-256,
    # so `_jacobian_mul` takes the a = -3 doubling; points of order 2 and
    # 3 give it O entries in its table of P, 3P, 5P, 7P
    dict(p=59, a=-3, b=24, gx=2, gy=12, n=11, cofactor=6)]


class TestTinyCurveTables:
    """On a curve with p < 2^8, `point_add` and `decode_point` compute
    each answer once, after every check, and look it up afterwards."""

    @pytest.mark.parametrize("domain", TINY_DOMAINS)
    def test_every_sum_matches_affine_law(self, domain):
        params = curve.make_params(**domain)
        points = all_toy_points(params)
        for _ in range(2):  # computed, then looked up
            for a in points:
                for b in points:
                    assert curve.point_add(params, a, b) == \
                        textbook_add(params, a, b), (a, b)
        assert len(params._tiny.sums) == len(points) ** 2

    @pytest.mark.parametrize("domain", TINY_DOMAINS)
    def test_every_encoding_decodes_to_its_point_or_raises(self, domain):
        params = curve.make_params(**domain)
        points = curve.enumerate_points(params)
        decodings = params._tiny.decodings
        valid = {}
        # every 0x04 || x || y of the curve's width, each read twice
        for x in range(256):
            for y in range(256):
                data = bytes([4, x, y])
                for _ in range(2):
                    try:
                        valid[data] = curve.decode_point(params, data)
                    except DecodeError:
                        assert data not in decodings
        assert set(valid.values()) == points - {curve.INFINITY}
        assert all(curve.encode_point(params, pt) == data
                   for data, pt in valid.items())
        assert curve.decode_point(params, b"\x00") == curve.INFINITY
        assert len(decodings) == len(points)

    def test_malformed_encodings_raise_every_time(self):
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        decodings = dict(toy._tiny.decodings)
        bad = [b"", b"\x04", b"\x00\x00", b"\x04\x05\x01\x00",
               b"\x02\x05\x01", b"\x04\x05",
               b"\x04\x11\x06",  # x = p: non-canonical
               b"\x04\x05\x12",  # y = p + 1: non-canonical
               b"\x04\x01\x01"]  # off the curve
        for data in bad * 3:
            with pytest.raises(DecodeError):
                curve.decode_point(toy, data)
        assert toy._tiny.decodings == decodings

    def test_off_curve_operand_refused_every_time(self):
        toy = curve.make_params(17, 2, 2, 5, 1, 19)
        G, off = toy.base_point, curve.CurvePoint(1, 1)
        sums = dict(toy._tiny.sums)
        for _ in range(3):
            for pair in ((off, G), (G, off), (off, off),
                         (off, curve.INFINITY), (curve.INFINITY, off)):
                with pytest.raises(MismatchedCurve):
                    curve.point_add(toy, *pair)
        assert toy._tiny.sums == sums

    def test_larger_curves_keep_no_tables(self, prod):
        G = prod.base_point
        curve.point_add(prod, G, G)
        curve.decode_point(prod, curve.encode_point(prod, G))
        curve.hash_to_point(prod, b"cam-01")
        assert not hasattr(prod, "_tiny")

    @pytest.mark.parametrize("domain", TINY_DOMAINS)
    def test_every_root_matches_sqrt_mod(self, domain):
        params = curve.make_params(**domain)
        for _ in range(2):  # computed, then looked up
            for c in range(params.p):
                assert curve._field_sqrt(params, c) == \
                    curve.sqrt_mod(c, params.p), c
        assert len(params._tiny.roots) == params.p

    @pytest.mark.parametrize("domain", TINY_DOMAINS)
    def test_hash_to_point_matches_untabled_reference(self, domain):
        params = curve.make_params(**domain)
        rng = random.Random(29)
        for _ in range(200):
            ident = rng.randbytes(rng.randint(1, 12))
            assert curve.hash_to_point(params, ident) == \
                untabled_hash_to_point(params, ident), ident
        assert set(params._tiny.roots) <= set(range(params.p))


def untabled_hash_to_point(params, ident):
    """hash_to_point's try-and-increment with every root from sqrt_mod
    and the cofactor applied by repeated addition."""
    for counter in range(1000):
        digest = hashlib.sha256(
            curve.H1_TAG + ident + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % params.p
        y = curve.sqrt_mod(x ** 3 + params.a * x + params.b, params.p)
        if y is None:
            continue
        pt = repeated_addition(params, params.cofactor,
                               curve.CurvePoint(x, min(y, params.p - y)))
        if not pt.is_infinity:
            return pt
    raise AssertionError("no point")


class TestPointType:
    def test_points_are_immutable_values(self):
        a, b = curve.CurvePoint(5, 1), curve.CurvePoint(5, 1)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != curve.CurvePoint(5, 16)
        assert curve.CurvePoint(None, None) == curve.INFINITY
        assert len({a, b, curve.INFINITY, curve.CurvePoint(None, None)}) == 2
        with pytest.raises(AttributeError):
            a.x = 6
        assert (a.x, a.y) == (5, 1)

    def test_repr_unchanged(self):
        assert repr(curve.CurvePoint(5, 16)) == "CurvePoint(0x5, 0x10)"
        assert repr(curve.INFINITY) == "CurvePoint(O)"
        assert curve.INFINITY.is_infinity
        assert not curve.CurvePoint(5, 1).is_infinity


class TestJacobianMul:
    """`_jacobian_mul`, called directly with unreduced scalars, against
    the affine law."""

    @pytest.mark.parametrize("domain", TINY_DOMAINS)
    def test_every_point_matches_affine_law(self, domain):
        params = curve.make_params(**domain)
        points = all_toy_points(params)
        if params.cofactor == 2:
            # (2, 0) has order 2: doubling it gives O
            assert [pt for pt in points if pt.y == 0] == \
                [curve.CurvePoint(2, 0)]
        if params.cofactor == 6:
            # the a = -3 doubling, and table entries 3P = O
            assert params.a == params.p - 3
            assert sum(repeated_addition(params, 3, pt).is_infinity
                       for pt in points) == 3
        for pt in points:
            acc = curve.INFINITY
            for s in range(2 * len(points) + 2):
                assert curve._jacobian_mul(params, s, pt) == acc, (pt, s)
                acc = curve.point_add(params, acc, pt)

    def test_p256_edge_scalars_match_affine_oracle(self, prod):
        # s * (k * G) == (s * k) * G: the right side also from OpenSSL's
        # fixed base; 15 to 257 and 2^252 +- 1 sit at window boundaries
        G = prod.base_point
        for seed in (30, 31, 32, 33):
            rng = random.Random(seed)
            scalars = [0, 1, P256_N - 1, P256_N, P256_N + 1, 2 * P256_N - 1,
                       rng.randrange(P256_N), 15, 16, 17, 255, 256, 257,
                       2 ** 252 - 1, 2 ** 252 + 1]
            for k in (rng.randrange(2, P256_N), rng.randrange(2, P256_N)):
                pt = curve.scalar_mul(prod, k, G)
                for s in scalars:
                    expected = affine_mul(prod, s, pt)
                    assert curve._jacobian_mul(prod, s, pt) == expected, s
                    assert curve.scalar_mul(prod, s, pt) == expected, s
                    assert curve.scalar_mul(prod, s * k, G) == expected, s

    @given(s=st.integers(0, 2 * P256_N - 1), k=st.integers(2, P256_N - 1),
           odd_y=st.booleans())
    # n - 2 = (n - 1) - 1 with n - 1 = 0 (mod 16): the last digit, -1,
    # adds -P to R = (n - 1)P = -P, the mixed addition's R = Q branch
    @example(s=P256_N - 2, k=2, odd_y=False)
    @example(s=P256_N - 2, k=3, odd_y=True)
    # n = (n - 1) + 1: the last digit adds P to R = -P, the R = -Q branch
    @example(s=P256_N, k=2, odd_y=True)
    @example(s=P256_N, k=3, odd_y=False)
    # 16(n - 2) + 1: the R = Q branch four digits from the end, and the
    # doubled R feeds four more doublings and the addition of P
    @example(s=16 * (P256_N - 2) + 1, k=5, odd_y=False)
    # 16n + 3: the R = -Q branch four digits from the end, so R is O when
    # the last digit adds 3P
    @example(s=16 * P256_N + 3, k=5, odd_y=True)
    @settings(max_examples=40, deadline=None)
    def test_matches_affine_oracle_on_each_y_parity(self, prod, s, k, odd_y):
        pt = curve.scalar_mul(prod, k, prod.base_point)
        if pt.y % 2 != odd_y:
            pt = curve.point_neg(prod, pt)
        assert curve._jacobian_mul(prod, s, pt) == affine_mul(prod, s, pt)


def scalars_of_width(windows, rng, n):
    """Scalars of 4 * `windows` - 3 to 4 * `windows` bits (from 0 for
    the first width), whose signed digits (`curve._naf4`) number one more
    where the recoding carries: both ends of the range, the multiples of
    n nearest them, and 32 drawn at random."""
    lo, hi = (0 if windows == 1 else 16 ** (windows - 1)), 16 ** windows
    first_multiple = -(-lo // n) * n
    last_multiple = (hi - 1) // n * n
    edges = [lo, lo + 1, hi - 2, hi - 1, first_multiple, last_multiple]
    return [s for s in edges if lo <= s < hi] + \
        [rng.randrange(lo, hi) for _ in range(32)]


class TestWindowWidth:
    """`_jacobian_mul` on scalars of up to 4, 8, 12 and 16 bits, whose
    signed digits carry into one digit more at the top of each range, so
    that partial sums of O and of -P meet the doublings between nonzero
    digits."""

    @pytest.mark.parametrize("windows", [1, 2, 3, 4])
    def test_every_width_matches_affine_oracle_on_toy(self, toy, windows):
        # toy17 has prime order n, so s * P == (s mod n) * P
        n = toy.order_n
        scalars = scalars_of_width(windows, random.Random(40 + windows), n)
        for pt in all_toy_points(toy):
            multiples = [curve.INFINITY]
            for _ in range(n - 1):
                multiples.append(curve.point_add(toy, multiples[-1], pt))
            for s in scalars:
                assert curve._jacobian_mul(toy, s, pt) == \
                    multiples[s % n], (pt, s)

    @pytest.mark.parametrize("windows", [1, 2, 3, 4])
    def test_every_width_matches_openssl_on_p256(self, prod, windows):
        # s * (k * G) == (s * k) * G, the right side from OpenSSL's fixed
        # base
        G = prod.base_point
        rng = random.Random(29 + windows)
        scalars = scalars_of_width(windows, rng, P256_N)[:8]
        for k in (rng.randrange(2, P256_N), rng.randrange(2, P256_N)):
            pt = curve.scalar_mul(prod, k, G)
            for s in scalars:
                expected = curve.scalar_mul(prod, s * k, G)
                assert curve._jacobian_mul(prod, s, pt) == expected, s
                assert curve.scalar_mul(prod, s, pt) == expected, s


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

    @pytest.mark.parametrize("preset", sorted(H1_GOLDEN))
    def test_hash_to_point_golden_identities(self, preset):
        params = curve.load_preset(preset)
        for ident, expected in H1_GOLDEN[preset]:
            pt = curve.hash_to_point(params, ident)
            assert curve.encode_point(params, pt).hex() == expected

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


# primes = 3 (mod 4), which take the one-exponentiation root, and
# primes = 1 (mod 4), which take Tonelli-Shanks
SQRT_PRIMES = (7, 11, 19, 23, 10007, curve.prod256().p,
               13, 17, 10009, 65537)


class TestSqrtMod:
    @given(st.sampled_from(SQRT_PRIMES), st.integers(0, 1 << 256))
    @settings(max_examples=300, deadline=None)
    @example(7, 0)
    @example(curve.prod256().p, curve.prod256().p - 1)
    def test_sqrt_mod_consistency(self, p, value):
        c = value % p
        root = curve.sqrt_mod(value, p)
        if c and pow(c, (p - 1) // 2, p) == p - 1:
            assert root is None
        else:
            assert root is not None and root * root % p == c
            if p % 4 == 3:
                assert root == pow(c, (p + 1) // 4, p)
