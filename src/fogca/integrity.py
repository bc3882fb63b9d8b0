"""Device integrity verification and the countermeasure state machine.

A device profile is a canonical snapshot of what the manufacturer knows
about a device (the parent-child affinity).  The integrity verification
value is a digest over the profile's deterministic serialization; the
custodian compares the value computed from a device's report against
the value computed from the affinity baseline and quarantines, resets,
or blacklists on mismatch.
"""

from __future__ import annotations

import enum
import hashlib
import os
import tempfile
from dataclasses import dataclass, replace

from .crypto import KEY_LEN
from .errors import (
    FogcaError,
    MalformedRecord,
    NonCanonicalProfile,
    UnknownDevice,
    UntrustedProvenance,
)

DIGEST_LEN = 32

PROFILE_FIELDS = ("device_id", "firmware_digest", "os_digest",
                  "software_list", "used_slots", "unused_slots",
                  "blacklist_services")


class TrustState(enum.Enum):
    UNTRUSTED = "untrusted"
    TRUSTED = "trusted"
    QUARANTINED = "quarantined"
    RESET_PENDING = "reset_pending"
    BLACKLISTED = "blacklisted"


@dataclass(frozen=True)
class DeviceProfile:
    """Canonical device description: all lists sorted and duplicate-free.

    `compute_ivv` keeps the profile's digest as its `_ivv` attribute, so
    it is computed at most once.  That attribute is not a field, so
    equality, repr and the file form ignore it; it adds no more than the
    digest's bytes to a profile."""

    device_id: bytes
    firmware_digest: bytes
    os_digest: bytes
    software_list: tuple[tuple[str, str], ...] = ()
    used_slots: tuple[str, ...] = ()
    unused_slots: tuple[str, ...] = ()
    blacklist_services: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.device_id:
            raise NonCanonicalProfile("empty device id")
        for name in ("firmware_digest", "os_digest"):
            if len(getattr(self, name)) != DIGEST_LEN:
                raise NonCanonicalProfile(f"{name} must be {DIGEST_LEN} bytes")
        for name in ("software_list", "used_slots", "unused_slots",
                     "blacklist_services"):
            items = getattr(self, name)
            if list(items) != sorted(set(items)):
                raise NonCanonicalProfile(f"{name} is not sorted/unique")

    @classmethod
    def canonical(cls, device_id, firmware_digest, os_digest,
                  software_list=(), used_slots=(), unused_slots=(),
                  blacklist_services=()) -> "DeviceProfile":
        """Build a profile, sorting and de-duplicating the list fields."""
        return cls(
            device_id, firmware_digest, os_digest,
            tuple(sorted(set(tuple(x) for x in software_list))),
            tuple(sorted(set(used_slots))),
            tuple(sorted(set(unused_slots))),
            tuple(sorted(set(blacklist_services))),
        )


def _lp(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


def serialize_profile(profile: DeviceProfile) -> bytes:
    """Deterministic, parseable serialization (fixed field order,
    length-prefixed entries); the digest input and the store file form."""
    out = [_lp(profile.device_id), _lp(profile.firmware_digest),
           _lp(profile.os_digest)]
    for name, version in profile.software_list:
        out.append(b"\x01" + _lp(name.encode()) + _lp(version.encode()))
    out.append(b"\x00")
    for fieldname in ("used_slots", "unused_slots", "blacklist_services"):
        for item in getattr(profile, fieldname):
            out.append(b"\x01" + _lp(item.encode()))
        out.append(b"\x00")
    return b"".join(out)


def parse_profile(data: bytes) -> DeviceProfile:
    pos = 0

    def take(k):
        nonlocal pos
        if pos + k > len(data):
            raise ValueError("truncated profile blob")
        out = data[pos:pos + k]
        pos += k
        return out

    def lp():
        return take(int.from_bytes(take(4), "big"))

    device_id, fw, osd = lp(), lp(), lp()
    software = []
    while take(1) == b"\x01":
        name = lp().decode()
        software.append((name, lp().decode()))
    lists = []
    for _ in range(3):
        items = []
        while take(1) == b"\x01":
            items.append(lp().decode())
        lists.append(tuple(items))
    if pos != len(data):
        raise ValueError("trailing bytes in profile blob")
    return DeviceProfile(device_id, fw, osd, tuple(software), *lists)


def compute_ivv(profile: DeviceProfile) -> bytes:
    """Integrity verification value: digest over the canonical form,
    computed at a profile's first call and stored with it."""
    ivv = getattr(profile, "_ivv", None)
    if ivv is None:
        ivv = hashlib.sha256(b"fogca.ivv" + serialize_profile(profile)).digest()
        object.__setattr__(profile, "_ivv", ivv)
    return ivv


@dataclass(frozen=True)
class IvvVerdict:
    match: bool
    diff: tuple[str, ...] = ()  # names of fields that differ


def verify_ivv(baseline: DeviceProfile, reported: DeviceProfile) -> IvvVerdict:
    """Compare digests; on mismatch, name every differing field."""
    if compute_ivv(baseline) == compute_ivv(reported):
        return IvvVerdict(match=True)
    diff = tuple(name for name in PROFILE_FIELDS
                 if getattr(baseline, name) != getattr(reported, name))
    return IvvVerdict(match=False, diff=diff)


def apply_countermeasure(trust: TrustState, verdict: IvvVerdict,
                         policy: str = "quarantine") -> TrustState:
    """The trust state that follows a verification verdict.

    Mismatch quarantines (default) or schedules a reset; a mismatch
    after a reset blacklists.
    """
    if policy not in ("quarantine", "reset"):
        raise ValueError(f"unknown countermeasure policy {policy!r}")
    if trust is TrustState.BLACKLISTED:
        return TrustState.BLACKLISTED
    if verdict.match:
        if trust in (TrustState.UNTRUSTED, TrustState.TRUSTED,
                     TrustState.RESET_PENDING):
            return TrustState.TRUSTED
        return trust  # quarantine is sticky until operator action
    if trust is TrustState.RESET_PENDING:
        return TrustState.BLACKLISTED
    if policy == "reset":
        return TrustState.RESET_PENDING
    return TrustState.QUARANTINED


@dataclass
class AffinityRecord:
    profile: DeviceProfile
    channel_key: bytes
    trust: TrustState = TrustState.UNTRUSTED
    since_ms: int = 0


def _check_channel_key(channel_key: bytes) -> None:
    if len(channel_key) != KEY_LEN:
        raise ValueError(f"channel key must be {KEY_LEN} bytes, "
                         f"not {len(channel_key)}")


class AffinityStore:
    """Manufacturer-provided baselines plus per-device trust state, one
    store per authority."""

    def __init__(self):
        self.records: dict[bytes, AffinityRecord] = {}

    def provision(self, profile: DeviceProfile, channel_key: bytes) -> None:
        _check_channel_key(channel_key)
        self.records[profile.device_id] = AffinityRecord(profile, channel_key)

    def get(self, device_id: bytes) -> AffinityRecord:
        rec = self.records.get(device_id)
        if rec is None:
            raise UnknownDevice(f"no affinity record for {device_id!r}")
        return rec

    def verify(self, device_id: bytes, reported: DeviceProfile,
               now_ms: int = 0) -> IvvVerdict:
        """Verify a report against the baseline and apply the resulting
        trust transition (including countermeasures on mismatch)."""
        rec = self.get(device_id)
        verdict = verify_ivv(rec.profile, reported)
        new_trust = apply_countermeasure(rec.trust, verdict)
        if new_trust is not rec.trust:
            rec.trust = new_trust
            rec.since_ms = now_ms
        return verdict

    def update_profile(self, device_id: bytes, new_profile: DeviceProfile,
                       provenance: str, now_ms: int = 0) -> None:
        """Replace the baseline; only the parent channel may do this."""
        if provenance != "parent":
            raise UntrustedProvenance(f"update from {provenance!r} refused")
        rec = self.get(device_id)
        if new_profile.device_id != device_id:
            raise ValueError("profile id does not match record id")
        rec.profile = new_profile
        rec.since_ms = now_ms

    def set_trust(self, device_id: bytes, trust: TrustState,
                  now_ms: int = 0) -> None:
        """Operator override (e.g. releasing a reset device)."""
        rec = self.get(device_id)
        rec.trust = trust
        rec.since_ms = now_ms

    # -- persistence: one device per line, hex fields ----------------------

    def dump_lines(self) -> list[str]:
        lines = []
        for rec in self.records.values():
            lines.append(" ".join([
                serialize_profile(rec.profile).hex(),
                rec.channel_key.hex(),
                rec.trust.value,
                str(rec.since_ms),
            ]))
        return lines

    @classmethod
    def from_lines(cls, lines) -> "AffinityStore":
        store = cls()

        def parse(fields):
            blob, key, trust, since = fields
            profile = parse_profile(bytes.fromhex(blob))
            channel_key = bytes.fromhex(key)
            _check_channel_key(channel_key)
            if profile.device_id in store.records:
                raise ValueError(f"{profile.device_id!r} is listed twice")
            store.records[profile.device_id] = AffinityRecord(
                profile, channel_key, TrustState(trust), int(since))

        parse_records(lines, parse)
        return store

    def save(self, path) -> None:
        write_records(path, self.dump_lines())

    @classmethod
    def load(cls, path) -> "AffinityStore":
        with open(path) as fh:
            return cls.from_lines(fh)


def parse_records(lines, parse) -> None:
    """Call `parse` on the fields of each record line, skipping blank
    lines and `#` comments; any failure raises MalformedRecord with the
    line number."""
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            parse(fields)
        except (ValueError, FogcaError) as exc:
            raise MalformedRecord(lineno, f"{type(exc).__name__}: {exc}") from exc


def write_records(path, lines) -> None:
    """Replace the file at `path` with one record per line, atomically:
    the lines go to a temporary file in the same directory, which is
    then renamed over `path`, so a crash leaves the old or the new file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".fogca-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def perturb_profile(profile: DeviceProfile, fieldname: str) -> DeviceProfile:
    """Return a copy with one field changed; used by mutation tests and
    the attack demos."""
    if fieldname == "device_id":
        return replace(profile, device_id=profile.device_id + b"*")
    if fieldname in ("firmware_digest", "os_digest"):
        old = getattr(profile, fieldname)
        return replace(profile, **{fieldname: bytes([old[0] ^ 1]) + old[1:]})
    if fieldname == "software_list":
        items = list(profile.software_list)
        if items:
            name, version = items[0]
            items[0] = (name, version + ".1")
        else:
            items = [("implant", "1.0")]
        return replace(profile, software_list=tuple(sorted(items)))
    if fieldname in ("used_slots", "unused_slots", "blacklist_services"):
        items = set(getattr(profile, fieldname))
        items.add("rogue-entry")
        return replace(profile, **{fieldname: tuple(sorted(items))})
    raise ValueError(f"unknown profile field {fieldname!r}")
