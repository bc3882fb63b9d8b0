"""Short-Weierstrass elliptic-curve arithmetic over a prime field.

The group law is implemented twice: a readable affine chord-tangent form
(`point_add`) that tests exercise directly, and an internal Jacobian
double-and-add used by `scalar_mul` for speed.  The two are proven
equivalent exhaustively on the toy curve.  On a curve whose domain is
exactly NIST P-256, multiples of the base point come from OpenSSL
instead; tests check that path against the Jacobian code.

Scalars are plain ints reduced modulo the subgroup order.  Points are
immutable; the point at infinity is the module constant INFINITY.

Also here: the three hash families used by the protocols (hash to a
curve point, hash to a nonzero scalar under a domain tag), brute-force
oracles for small curves, and the fixed byte encodings for points and
scalars.
"""

from __future__ import annotations

import configparser
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import (
    DecodeError,
    HashToPointFailure,
    MismatchedCurve,
    NotInSubgroup,
    OracleRefused,
)

H1_TAG = b"fogca.h1.point"
H2_TAG = b"fogca.h2.timestamp"
H3_TAG = b"fogca.h3.sessionkey"

# hash identifiers broadcast in the announcement
H1_ID = "h1/sha256/try-increment"
H2_ID = "h2/sha256"
H3_ID = "h3/sha256"

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

    Fast path for p = 3 (mod 4); Tonelli-Shanks otherwise (the toy curve
    has p = 1 mod 4, so the general case is required).
    """
    c %= p
    if c == 0:
        return 0
    if pow(c, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(c, (p + 1) // 4, p)
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


@dataclass(frozen=True)
class CurvePoint:
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


def point_add(params: CurveParams, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent group addition in affine coordinates."""
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
        lam = (3 * p1.x * p1.x + params.a) * pow(2 * p1.y, p - 2, p) % p
    else:
        lam = (p2.y - p1.y) * pow(p2.x - p1.x, p - 2, p) % p
    x3 = (lam * lam - p1.x - p2.x) % p
    y3 = (lam * (p1.x - x3) - p1.y) % p
    return CurvePoint(x3, y3)


def point_sub(params: CurveParams, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    return point_add(params, p1, point_neg(params, p2))


# ---- scalar multiplication (Jacobian, 4-bit window) -----------------------

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


def _jac_double(P, p, a):
    X1, Y1, Z1 = P
    if not Y1:
        return (0, 0, 0)
    XX = X1 * X1 % p
    YY = Y1 * Y1 % p
    YYYY = YY * YY % p
    ZZ = Z1 * Z1 % p
    S = 2 * ((X1 + YY) ** 2 - XX - YYYY) % p
    M = (3 * XX + a * ZZ % p * ZZ) % p
    T = (M * M - 2 * S) % p
    return (T, (M * (S - T) - 8 * YYYY) % p, ((Y1 + Z1) ** 2 - YY - ZZ) % p)


def _jac_add(P1, P2, p, a):
    X1, Y1, Z1 = P1
    X2, Y2, Z2 = P2
    if not Z1:
        return P2
    if not Z2:
        return P1
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * Z2 % p * Z2Z2 % p
    S2 = Y2 * Z1 % p * Z1Z1 % p
    if U1 == U2:
        if S1 != S2:
            return (0, 0, 0)
        return _jac_double(P1, p, a)
    H = (U2 - U1) % p
    I = (2 * H) ** 2 % p
    J = H * I % p
    r = 2 * (S2 - S1) % p
    V = U1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * S1 % p * J) % p
    Z3 = ((Z1 + Z2) ** 2 - Z1Z1 - Z2Z2) % p * H % p
    return (X3, Y3, Z3)


def _window_table(params: CurveParams, pt: CurvePoint):
    """[O, P, 2P, ..., 15P] in Jacobian coordinates."""
    base = (pt.x, pt.y, 1)
    table = [(0, 0, 0), base]
    for _ in range(14):
        table.append(_jac_add(table[-1], base, params.p, params.a))
    return table


# SEC 2 secp256r1 (NIST P-256): p, a, b, Gx, Gy, n, cofactor
_P256_DOMAIN = (
    0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff,
    0xffffffff00000001000000000000000000000000fffffffffffffffffffffffc,
    0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b,
    0x6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296,
    0x4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5,
    0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551,
    1,
)
_P256_CURVE = ec.SECP256R1()
# cached in place of a base-point window table: OpenSSL computes the
# multiples of this domain's base point
_OPENSSL_P256 = object()


def _p256_base_mul(s: int) -> CurvePoint:
    """s * G on P-256 through OpenSSL, for 1 <= s < n."""
    pub = ec.derive_private_key(s, _P256_CURVE).public_key().public_numbers()
    return CurvePoint(pub.x, pub.y)


def _base_table(params: CurveParams):
    """_OPENSSL_P256 when the whole domain is P-256, else the window
    table of the base point."""
    G = params.base_point
    if (params.p, params.a, params.b, G.x, G.y, params.order_n,
            params.cofactor) == _P256_DOMAIN:
        return _OPENSSL_P256
    return _window_table(params, G)


def scalar_mul(params: CurveParams, s: int, pt: CurvePoint) -> CurvePoint:
    """s * pt by windowed double-and-add; s is reduced mod the subgroup
    order, so (s mod n) * P == s * P.  Multiples of the base point of a
    P-256 domain come from OpenSSL; all other work is pure Python and
    not constant-time."""
    _require_on_curve(params, pt)
    for counter in _mult_watchers:
        counter["scalar_mul"] += 1
    s %= params.order_n
    if s == 0 or pt.is_infinity:
        return INFINITY
    p, a = params.p, params.a
    if pt == params.base_point:
        table = getattr(params, "_base_table", None)
        if table is None:
            table = _base_table(params)
            object.__setattr__(params, "_base_table", table)
        if table is _OPENSSL_P256:
            return _p256_base_mul(s)
    else:
        table = _window_table(params, pt)
    R = (0, 0, 0)
    nbits = (s.bit_length() + 3) & ~3
    for shift in range(nbits - 4, -4, -4):
        if R[2]:
            R = _jac_double(R, p, a)
            R = _jac_double(R, p, a)
            R = _jac_double(R, p, a)
            R = _jac_double(R, p, a)
        nib = (s >> shift) & 15
        if nib:
            R = _jac_add(R, table[nib], p, a)
    if not R[2]:
        return INFINITY
    zi = pow(R[2], p - 2, p)
    zi2 = zi * zi % p
    return CurvePoint(R[0] * zi2 % p, R[1] * zi2 % p * zi % p)


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
        rhs = (x * x * x + params.a * x + params.b) % params.p
        y = sqrt_mod(rhs, params.p)
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


def hash_to_scalar(params: CurveParams, domain_tag: bytes, parts: list[bytes]) -> int:
    """Map bytes to a scalar in [1, n-1] under a domain-separation tag."""
    h = hashlib.sha256(domain_tag)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % (params.order_n - 1) + 1


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


def encode_scalar(params: CurveParams, s: int) -> bytes:
    if not 0 <= s < params.order_n:
        raise ValueError("scalar out of range")
    return s.to_bytes(params.scalar_width, "big")


def decode_scalar(params: CurveParams, data: bytes) -> int:
    if len(data) != params.scalar_width:
        raise DecodeError("bad scalar width")
    s = int.from_bytes(data, "big")
    if s >= params.order_n:
        raise DecodeError("non-canonical scalar (>= n)")
    return s


def random_scalar(params: CurveParams, rng) -> int:
    """Uniform nonzero scalar from a seedable RNG."""
    return rng.randrange(1, params.order_n)


# ---- presets ---------------------------------------------------------------

@lru_cache(maxsize=None)
def load_preset(name: str) -> CurveParams:
    """Load a named curve preset from the packaged config file."""
    cfg = configparser.ConfigParser()
    cfg.read_string(resources.files("fogca.data").joinpath("curves.ini").read_text())
    if name not in cfg:
        raise KeyError(f"unknown curve preset {name!r}")
    sec = cfg[name]
    return make_params(
        p=int(sec["p"], 16), a=int(sec["a"], 16), b=int(sec["b"], 16),
        gx=int(sec["gx"], 16), gy=int(sec["gy"], 16), n=int(sec["n"], 16),
        cofactor=int(sec["cofactor"], 16), name=name)


def toy17() -> CurveParams:
    return load_preset("toy17")


def prod256() -> CurveParams:
    return load_preset("prod256")
