"""Short-Weierstrass elliptic-curve arithmetic over a prime field.

The readable affine chord-tangent law (`point_add`) is the oracle that
tests exercise directly.  `scalar_mul` takes one of three paths: on a
curve with p < 2^8, small enough to tabulate, it looks the answer up in
a row of the point's multiples, built once per point with the affine
law; on a domain that is exactly NIST P-256 (decided once per
`CurveParams`), multiples of the base point come from OpenSSL;
everything else runs a Jacobian double-and-add over the scalar's signed
4-bit digits (width-4 NAF), adding from an affine table of P, 3P, 5P
and 7P built per call.  On such a tiny curve `point_add`,
`decode_point` and the square roots of `hash_to_point` also compute
each answer once, after the full check, and look it up afterwards.
Tests check all three paths against the affine law.
Field inverses are Python's modular inverse `pow(x, -1, p)`, and a
square root modulo p = 3 (mod 4) is one exponentiation plus a check.

Scalars are plain ints reduced modulo the subgroup order.  Points are
named tuples, so they are immutable and compare and hash by value; the
point at infinity is the module constant INFINITY.

Also here: the three hash families used by the protocols (hash to a
curve point, hash to a nonzero scalar under a domain tag), brute-force
oracles for small curves, the fixed byte encoding for points, and the
two presets, `PRESETS`: toy17 and prod256 (P-256), whose domain
`scalar_mul`'s P-256 test compares against.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

from .errors import (
    DecodeError,
    HashToPointFailure,
    MismatchedCurve,
    NotInSubgroup,
    OracleRefused,
)

# domain tags: together they fix the three hash functions the protocols use
H1_TAG = b"fogca.h1.point"
H2_TAG = b"fogca.h2.timestamp"
H3_TAG = b"fogca.h3.sessionkey"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def sqrt_mod(c: int, p: int) -> int | None:
    """Square root of c modulo prime p, or None if c is a non-residue.

    For p = 3 (mod 4) one exponentiation, r = c^((p+1)/4), whose square
    is c exactly when c is a residue; Tonelli-Shanks otherwise (the toy
    curve has p = 1 mod 4, so the general case is required).
    """
    c %= p
    if c == 0:
        return 0
    if p % 4 == 3:
        r = pow(c, (p + 1) // 4, p)
        return r if r * r % p == c else None
    if pow(c, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, cc, t, r = s, pow(z, q, p), pow(c, q, p), pow(c, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(cc, 1 << (m - i - 1), p)
        m, cc = i, b * b % p
        t, r = t * cc % p, r * b % p
    return r


class CurvePoint(NamedTuple):
    """Affine point; (None, None) is the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(O)"
        return f"CurvePoint({self.x:#x}, {self.y:#x})"


INFINITY = CurvePoint(None, None)


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters of y^2 = x^3 + ax + b over F_p.

    `base_point` generates the cyclic subgroup of prime order `order_n`.
    Construct through `make_params`, which checks the invariants.
    """

    p: int
    a: int
    b: int
    base_point: CurvePoint
    order_n: int
    cofactor: int
    name: str = field(default="", compare=False)

    @property
    def field_width(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def scalar_width(self) -> int:
        return (self.order_n.bit_length() + 7) // 8

    def __repr__(self) -> str:
        return f"CurveParams({self.name or hex(self.p)})"


def make_params(p: int, a: int, b: int, gx: int, gy: int, n: int,
                cofactor: int = 1, name: str = "") -> CurveParams:
    """Validate and build curve parameters.

    Checks: p > 3 and prime, nonzero discriminant, base point on the
    curve, n prime, and n * base = O.
    """
    if p <= 3 or not is_probable_prime(p):
        raise ValueError(f"p={p} is not an odd prime > 3")
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise ValueError("zero discriminant")
    if not (0 <= gx < p and 0 <= gy < p):
        raise ValueError("base point coordinates out of range")
    if (gy * gy - (gx * gx * gx + a * gx + b)) % p != 0:
        raise ValueError("base point not on curve")
    if not is_probable_prime(n):
        raise ValueError(f"subgroup order n={n} is not prime")
    if cofactor < 1:
        raise ValueError("cofactor must be positive")
    params = CurveParams(p, a, b, CurvePoint(gx, gy), n, cofactor, name)
    # scalar_mul reduces mod n, so check n*P = O as (n-1)*P + P
    almost = scalar_mul(params, n - 1, params.base_point)
    if not point_add(params, almost, params.base_point).is_infinity:
        raise ValueError("n * base_point != O: wrong subgroup order")
    return params


def is_on_curve(params: CurveParams, pt: CurvePoint) -> bool:
    if pt.is_infinity:
        return True
    x, y, p = pt.x, pt.y, params.p
    if not (0 <= x < p and 0 <= y < p):
        return False
    return (y * y - (x * x * x + params.a * x + params.b)) % p == 0


def _require_on_curve(params: CurveParams, *pts: CurvePoint) -> None:
    for pt in pts:
        if not is_on_curve(params, pt):
            raise MismatchedCurve(f"{pt!r} is not on {params!r}")


def point_neg(params: CurveParams, pt: CurvePoint) -> CurvePoint:
    _require_on_curve(params, pt)
    if pt.is_infinity:
        return INFINITY
    return CurvePoint(pt.x, (-pt.y) % params.p)


# below this p a curve has fewer than 290 points (Hasse), few enough
# to keep its answers in `_TinyTables`
_TABLE_MAX_P = 1 << 8


class _TinyTables:
    """Answers already computed on one curve with p < 2^8.  An entry is
    made only after its inputs passed every check, and points compare by
    value, so a lookup skips no check that would fail: invalid input
    never enters and raises on every call.  At most #E rows of #E
    multiples, #E^2 sums, #E decodings and p square roots, #E < 290."""

    __slots__ = ("rows", "sums", "decodings", "roots")

    def __init__(self):
        self.rows: dict[CurvePoint, list[CurvePoint]] = {}
        self.sums: dict[tuple[CurvePoint, CurvePoint], CurvePoint] = {}
        self.decodings: dict[bytes, CurvePoint] = {}
        self.roots: dict[int, int | None] = {}  # c in [0, p) -> sqrt_mod(c, p)


def _tiny(params: CurveParams) -> _TinyTables:
    tables = getattr(params, "_tiny", None)
    if tables is None:
        tables = _TinyTables()
        object.__setattr__(params, "_tiny", tables)
    return tables


def point_add(params: CurveParams, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent group addition in affine coordinates; on a curve
    with p < 2^8 each sum is computed once and then looked up."""
    if params.p < _TABLE_MAX_P:
        sums = _tiny(params).sums
        total = sums.get((p1, p2))
        if total is None:
            total = sums[(p1, p2)] = _affine_add(params, p1, p2)
        return total
    return _affine_add(params, p1, p2)


def _affine_add(params: CurveParams, p1: CurvePoint,
                p2: CurvePoint) -> CurvePoint:
    _require_on_curve(params, p1, p2)
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = params.p
    if p1.x == p2.x:
        if (p1.y + p2.y) % p == 0:
            return INFINITY
        # tangent line at a doubled point
        lam = (3 * p1.x * p1.x + params.a) * pow(2 * p1.y, -1, p) % p
    else:
        lam = (p2.y - p1.y) * pow(p2.x - p1.x, -1, p) % p
    x3 = (lam * lam - p1.x - p2.x) % p
    y3 = (lam * (p1.x - x3) - p1.y) % p
    return CurvePoint(x3, y3)


def point_sub(params: CurveParams, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    return point_add(params, p1, point_neg(params, p2))


# ---- scalar multiplication -----------------------------------------------

_mult_watchers: list[dict] = []


@contextmanager
def count_ops():
    """Count scalar multiplications (and pairings, which do not exist
    here and therefore stay zero) performed inside the block."""
    counter = {"scalar_mul": 0, "pairing": 0}
    _mult_watchers.append(counter)
    try:
        yield counter
    finally:
        _mult_watchers.remove(counter)


def _naf4(s: int) -> list[int]:
    """The width-4 non-adjacent form of s >= 0, most significant digit
    first: s = sum(d * 2^i), every digit 0 or odd in [-7, 7], any two
    nonzero digits at least four places apart, and the first digit
    positive."""
    digits = []
    while s:
        if s & 1:
            d = s & 15
            if d > 8:
                d -= 16
            # s - d = 0 (mod 16): the next three digits are zeros
            digits += (d, 0, 0, 0)
            s = (s - d) >> 4
        else:
            digits.append(0)
            s >>= 1
    while not digits[-1]:
        digits.pop()
    digits.reverse()
    return digits


def _jacobian_mul(params: CurveParams, s: int, pt: CurvePoint) -> CurvePoint:
    """s * pt for any s >= 0 and any pt, O included: double-and-add in
    Jacobian coordinates over the signed digits of `_naf4`, with pt's
    affine table of P, 3P, 5P and 7P built per call by the affine law.

    Each doubling is EFD's dbl-2001-b, whose alpha = 3X^2 + aZ^4 takes
    the cheaper form 3(X - Z^2)(X + Z^2) when a = -3, as on P-256.  Each
    nonzero digit is a mixed addition of a table entry (Z2 = 1), EFD's
    madd-2007-bl; a negative digit negates the entry's y.  Where that
    formula fails, R = Q doubles Q by the affine law and R = -Q gives O;
    on a point of small order a table entry may itself be O."""
    if pt.is_infinity or not s:
        return INFINITY
    p, a = params.p, params.a
    minus3 = a == p - 3
    two = _affine_add(params, pt, pt)
    odd = [pt]
    for _ in range(3):
        odd.append(_affine_add(params, odd[-1], two))
    table = {}  # nonzero digit -> its multiple of pt; O entries left out
    for d, q in zip((1, 3, 5, 7), odd):
        if not q.is_infinity:
            table[d] = q
            table[-d] = CurvePoint(q.x, -q.y % p)
    digits = _naf4(s)
    top = table.get(digits[0])
    X, Y, Z = (1, 1, 0) if top is None else (top.x, top.y, 1)  # Z = 0 is O
    for d in digits[1:]:
        # dbl-2001-b; Z3 = 2YZ, which is 0 when R is O or has order 2
        delta = Z * Z % p
        gamma = Y * Y % p
        beta = X * gamma % p
        if minus3:
            alpha = 3 * (X - delta) * (X + delta) % p
        else:
            alpha = (3 * X * X + a * delta * delta) % p
        Z = 2 * Y * Z % p
        X = (alpha * alpha - 8 * beta) % p
        Y = (alpha * (4 * beta - X) - 8 * gamma * gamma) % p
        q = table.get(d)
        if q is None:  # digit 0, or an O entry
            continue
        if not Z:
            X, Y, Z = q.x, q.y, 1
            continue
        # madd-2007-bl; Z3 = (Z1 + H)^2 - Z1Z1 - HH taken as 2 Z1 H
        ZZ = Z * Z % p
        H = (q.x * ZZ - X) % p
        r = 2 * (q.y * Z * ZZ - Y) % p
        if not H:
            if r:  # R = -Q
                Z = 0
            else:  # R = Q
                twice = _affine_add(params, q, q)
                X, Y, Z = (1, 1, 0) if twice.is_infinity else \
                    (twice.x, twice.y, 1)
            continue
        HH = H * H % p
        I = 4 * HH
        J = H * I % p
        V = X * I % p
        Z = 2 * Z * H % p
        X = (r * r - J - 2 * V) % p
        Y = (r * (V - X) - 2 * Y * J) % p
    if not Z:
        return INFINITY
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return CurvePoint(X * zi2 % p, Y * zi2 % p * zi % p)


def _multiples(params: CurveParams, pt: CurvePoint) -> list[CurvePoint]:
    """[O, P, 2P, ..., (n - 1)P] by the affine law, n the subgroup order."""
    row = [INFINITY]
    for _ in range(params.order_n - 1):
        row.append(point_add(params, row[-1], pt))
    return row


# cryptography's EC module, imported with the first P-256 domain so that
# processes that never use one do not load it
_ec = None


def _is_p256(params: CurveParams) -> bool:
    """Whether the whole domain is prod256's (P-256), decided once per
    params; the first true answer imports the EC module."""
    answer = getattr(params, "_p256", None)
    if answer is None:
        global _ec
        G = params.base_point
        answer = dict(p=params.p, a=params.a, b=params.b, gx=G.x, gy=G.y,
                      n=params.order_n,
                      cofactor=params.cofactor) == PRESETS["prod256"]
        if answer:
            _ec = import_module("cryptography.hazmat.primitives.asymmetric.ec")
        object.__setattr__(params, "_p256", answer)
    return answer


def _p256_base_mul(s: int) -> CurvePoint:
    """s * G on P-256 through OpenSSL, for 0 <= s < n."""
    if not s:
        return INFINITY
    key = _ec.derive_private_key(s, _ec.SECP256R1())
    pub = key.public_key().public_numbers()
    return CurvePoint(pub.x, pub.y)


def scalar_mul(params: CurveParams, s: int, pt: CurvePoint) -> CurvePoint:
    """s * pt; s is reduced mod the subgroup order, so (s mod n) * P ==
    s * P.  On a curve with p < 2^8 the answer is looked up in pt's row
    of multiples, built and on-curve checked on pt's first use; a P-256
    domain's base-point multiples come from OpenSSL; everything else is
    `_jacobian_mul`.  All but OpenSSL is pure Python and not
    constant-time; `_jacobian_mul`'s signed recoding of s is
    data-dependent too."""
    if params.p < _TABLE_MAX_P:
        rows = _tiny(params).rows
        row = rows.get(pt)
        if row is None:
            # a row exists only for a point that passed this check
            _require_on_curve(params, pt)
            row = rows[pt] = _multiples(params, pt)
        for counter in _mult_watchers:
            counter["scalar_mul"] += 1
        return row[s % params.order_n]
    _require_on_curve(params, pt)
    for counter in _mult_watchers:
        counter["scalar_mul"] += 1
    s %= params.order_n
    if pt == params.base_point and _is_p256(params):
        return _p256_base_mul(s)
    return _jacobian_mul(params, s, pt)


# ---- hashing -------------------------------------------------------------

def hash_to_point(params: CurveParams, ident: bytes) -> CurvePoint:
    """Map an identity to a point of the order-n subgroup.

    Try-and-increment: digest(id || counter) gives a candidate x; solve
    y^2 = x^3 + ax + b and take the smaller root; multiply by the
    cofactor.  Deterministic for a given identity and curve.
    """
    if not ident:
        raise ValueError("identity must be non-empty")
    for counter in range(1000):
        digest = hashlib.sha256(
            H1_TAG + ident + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % params.p
        y = _field_sqrt(params, (x * x * x + params.a * x + params.b) % params.p)
        if y is None:
            continue
        y = min(y, params.p - y)
        pt = CurvePoint(x, y)
        if params.cofactor != 1:
            pt = scalar_mul(params, params.cofactor, pt)
            if pt.is_infinity:
                continue
        return pt
    raise HashToPointFailure(f"no curve point found for {ident!r}")


def _field_sqrt(params: CurveParams, c: int) -> int | None:
    """sqrt_mod(c, p) for c in [0, p); on a curve with p < 2^8 each root
    is computed once and then looked up."""
    if params.p >= _TABLE_MAX_P:
        return sqrt_mod(c, params.p)
    roots = _tiny(params).roots
    if c not in roots:
        roots[c] = sqrt_mod(c, params.p)
    return roots[c]


def hash_to_scalar(params: CurveParams, domain_tag: bytes, parts: list[bytes]) -> int:
    """Map bytes to a scalar in [1, n-1] under a domain-separation tag."""
    joined = [domain_tag]
    for part in parts:
        joined += (len(part).to_bytes(4, "big"), part)
    digest = hashlib.sha256(b"".join(joined)).digest()
    return int.from_bytes(digest, "big") % (params.order_n - 1) + 1


# ---- oracles (small curves only) ------------------------------------------

def brute_force_dlp(params: CurveParams, Q: CurvePoint) -> int:
    """Exhaustively find x with x * base = Q.  Test oracle only."""
    if params.order_n > 1 << 20:
        raise OracleRefused("group too large for exhaustive search")
    _require_on_curve(params, Q)
    R = INFINITY
    for x in range(params.order_n):
        if R == Q:
            return x
        R = point_add(params, R, params.base_point)
    raise NotInSubgroup(f"{Q!r} is not a multiple of the base point")


def enumerate_points(params: CurveParams) -> set[CurvePoint]:
    """All solutions of the curve equation plus O.  Test oracle only."""
    if params.p > 1 << 16:
        raise OracleRefused("field too large for enumeration")
    points = {INFINITY}
    for x in range(params.p):
        rhs = (x * x * x + params.a * x + params.b) % params.p
        y = sqrt_mod(rhs, params.p)
        if y is None:
            continue
        points.add(CurvePoint(x, y))
        points.add(CurvePoint(x, (-y) % params.p))
    # Hasse: |#E - (p+1)| <= 2*sqrt(p)
    if (len(points) - (params.p + 1)) ** 2 > 4 * params.p:
        raise AssertionError("point count violates the Hasse bound")
    return points


# ---- encodings -------------------------------------------------------------

def encode_point(params: CurveParams, pt: CurvePoint) -> bytes:
    """Uncompressed 0x04 || x || y (fixed width); O encodes as 0x00."""
    if pt.is_infinity:
        return b"\x00"
    w = params.field_width
    return b"\x04" + pt.x.to_bytes(w, "big") + pt.y.to_bytes(w, "big")


def decode_point(params: CurveParams, data: bytes) -> CurvePoint:
    """The point `encode_point` wrote as `data`, or DecodeError; on a
    curve with p < 2^8 each valid encoding is checked once and then
    looked up."""
    if params.p < _TABLE_MAX_P:
        decodings = _tiny(params).decodings
        pt = decodings.get(data)
        if pt is None:
            pt = decodings[data] = _decode_point(params, data)
        return pt
    return _decode_point(params, data)


def _decode_point(params: CurveParams, data: bytes) -> CurvePoint:
    if data == b"\x00":
        return INFINITY
    w = params.field_width
    if len(data) != 1 + 2 * w or data[0] != 0x04:
        raise DecodeError(f"bad point encoding ({len(data)} bytes)")
    x = int.from_bytes(data[1:1 + w], "big")
    y = int.from_bytes(data[1 + w:], "big")
    if x >= params.p or y >= params.p:
        raise DecodeError("non-canonical coordinate (>= p)")
    pt = CurvePoint(x, y)
    if not is_on_curve(params, pt):
        raise DecodeError("point not on curve")
    return pt


def random_scalar(params: CurveParams, rng) -> int:
    """Uniform nonzero scalar from a seedable RNG."""
    return rng.randrange(1, params.order_n)


# ---- presets ---------------------------------------------------------------

# `make_params` arguments per preset.  toy17 is for oracle-checked tests
# (every point can be enumerated); prod256 is SEC 2 secp256r1 (NIST
# P-256), ~128-bit symmetric-equivalent strength.
PRESETS = {
    "toy17": dict(p=17, a=2, b=2, gx=5, gy=1, n=19, cofactor=1),
    "prod256": dict(
        p=0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff,
        a=0xffffffff00000001000000000000000000000000fffffffffffffffffffffffc,
        b=0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b,
        gx=0x6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296,
        gy=0x4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5,
        n=0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551,
        cofactor=1),
}


@lru_cache(maxsize=None)
def load_preset(name: str) -> CurveParams:
    """Build a named preset from `PRESETS`, through every check of
    `make_params`."""
    if name not in PRESETS:
        raise KeyError(f"unknown curve preset {name!r}")
    return make_params(**PRESETS[name], name=name)


def toy17() -> CurveParams:
    return load_preset("toy17")


def prod256() -> CurveParams:
    return load_preset("prod256")
