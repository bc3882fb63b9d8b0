"""Exception types shared across the package.

Every refusal a protocol party can issue is a distinct class so tests and
scenario harnesses can assert on the exact verdict.  All of them derive
directly from FogcaError, the one base that callers catch.
"""


class FogcaError(Exception):
    """Base class for every error raised by this package."""


# ---- curve / encoding ----------------------------------------------------

class MismatchedCurve(FogcaError):
    """A point does not lie on the curve it was used with."""


class HashToPointFailure(FogcaError):
    """Try-and-increment exhausted its counter budget (pathological curve)."""


class OracleRefused(FogcaError):
    """A brute-force oracle was asked to run on a group that is too large."""


class NotInSubgroup(FogcaError):
    """Exhaustive discrete-log search found no solution."""


class DecodeError(FogcaError):
    """Wire bytes could not be decoded (bad tag, truncation, bad point)."""


class WidthMismatch(FogcaError):
    """A field-element encoding has the wrong byte width."""


# ---- symmetric crypto ----------------------------------------------------

class AuthFailure(FogcaError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""


# ---- protocol refusals ---------------------------------------------------

class UnknownDevice(FogcaError):
    """No affinity record exists for this identity."""


class IntegrityMismatch(FogcaError):
    """Reported device profile does not match the affinity baseline."""

    def __init__(self, diff=(), countermeasure=None):
        super().__init__(f"integrity mismatch in {', '.join(diff) or 'profile'}")
        self.diff = tuple(diff)
        self.countermeasure = countermeasure


class DeviceUntrusted(FogcaError):
    """Device is quarantined or blacklisted and may not run protocols."""


class DuplicateRegistration(FogcaError):
    """Identity already holds a live registration."""


class NotRegistered(FogcaError):
    """Child has no authentication key installed."""


class StaleTimestamp(FogcaError):
    """Message timestamp is outside the freshness window."""


class TimestampOutOfRange(FogcaError):
    """A clock reading is not an unsigned 64-bit millisecond count, the
    only timestamps the protocol hashes and the wire carries."""


class ReplayDetected(FogcaError):
    """Identical (identity, timestamp) pair was already accepted."""


class BadProof(FogcaError):
    """The x-coordinate check failed: wrong or forged authentication key."""


class Revoked(FogcaError):
    """Identity is on the revocation list."""


class Expired(FogcaError):
    """Short-lived registration has passed its lifetime."""


class KeyMismatch(FogcaError):
    """Session-key confirmation value does not verify."""


class ConfirmationFailure(FogcaError):
    """The key-confirmation round after registration failed."""


class NoSession(FogcaError):
    """No live session key exists for the requested identity."""


class NoCaSession(FogcaError):
    """Child holds no session key with the authority."""


class TargetRevoked(FogcaError):
    """Peer-exchange target identity is revoked."""


class IdentityMismatch(FogcaError):
    """Decrypted peer identity differs from the intended peer."""


class NonceMismatch(FogcaError):
    """Returned challenge nonce does not match the stored one."""


class NoPendingChallenge(FogcaError):
    """No outstanding challenge exists for this peer (single-use)."""


class UnexpectedMessage(FogcaError):
    """A decoded message of a type this party does not answer."""


class UnknownId(FogcaError):
    """Operation names an identity that is neither registered nor revoked."""


class NonCanonicalProfile(FogcaError):
    """Device profile lists are not sorted and duplicate-free."""


class UntrustedProvenance(FogcaError):
    """Profile update did not arrive over the trusted parent channel."""


# ---- persistence ---------------------------------------------------------

class MalformedRecord(FogcaError):
    """A line of a registry or affinity file cannot be parsed."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


# ---- simulation ----------------------------------------------------------

class UnknownNode(FogcaError):
    """Topology operation references a node that does not exist."""


class UnknownLink(FogcaError):
    """Adversary attachment references a link that does not exist."""


class NoRoute(FogcaError):
    """No path (direct or via proxy nodes) exists between endpoints."""


class UnknownProfile(FogcaError):
    """Named link profile is not a key of `experiments.LINK_PROFILES`."""
