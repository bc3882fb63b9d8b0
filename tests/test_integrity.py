import hashlib
import itertools
import random
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogca import authority, curve, integrity
from fogca.errors import (
    MalformedRecord,
    NonCanonicalProfile,
    UnknownDevice,
    UntrustedProvenance,
)
from fogca.integrity import (
    AffinityStore,
    DeviceProfile,
    TrustState,
    apply_countermeasure,
    compute_ivv,
    perturb_profile,
    serialize_profile,
    verify_ivv,
)

IVV_GOLDEN = "8819ae255296e501cdc75dc96f5eb412af73051b99dbbdd01a684fdf3032d3c1"


def profile(ident=b"dev"):
    return DeviceProfile.canonical(
        ident, hashlib.sha256(b"f").digest(), hashlib.sha256(b"o").digest(),
        [("app", "1.0")], ["s0"], ["s1"], ["svc"])


class TestProfile:
    def test_canonical_sorts_and_dedupes(self):
        p = DeviceProfile.canonical(
            b"dev", bytes(32), bytes(32),
            [("b", "2"), ("a", "1"), ("a", "1")],
            ["z", "a", "z"], [], [])
        assert p.software_list == (("a", "1"), ("b", "2"))
        assert p.used_slots == ("a", "z")

    def test_rejects_unsorted(self):
        with pytest.raises(NonCanonicalProfile):
            DeviceProfile(b"dev", bytes(32), bytes(32),
                          used_slots=("b", "a"))

    def test_rejects_duplicates(self):
        with pytest.raises(NonCanonicalProfile):
            DeviceProfile(b"dev", bytes(32), bytes(32),
                          used_slots=("a", "a"))

    def test_rejects_bad_digest_width(self):
        with pytest.raises(NonCanonicalProfile):
            DeviceProfile(b"dev", b"short", bytes(32))

    def test_serialization_roundtrip(self):
        p = profile()
        assert integrity.parse_profile(integrity.serialize_profile(p)) == p


class TestIvv:
    def test_golden(self):
        assert compute_ivv(profile()).hex() == IVV_GOLDEN

    def test_equal_profiles_equal_ivv(self):
        assert compute_ivv(profile()) == compute_ivv(profile())

    def test_version_bump_changes_ivv(self):
        bumped = perturb_profile(profile(), "software_list")
        assert compute_ivv(bumped) != compute_ivv(profile())

    def test_reordered_input_same_ivv(self):
        a = DeviceProfile.canonical(b"dev", bytes(32), bytes(32),
                                    [("x", "1"), ("a", "2")], ["b", "a"], [], [])
        b = DeviceProfile.canonical(b"dev", bytes(32), bytes(32),
                                    [("a", "2"), ("x", "1")], ["a", "b"], [], [])
        assert compute_ivv(a) == compute_ivv(b)

    def test_verify_match(self):
        assert verify_ivv(profile(), profile()).match

    def test_verify_names_differing_field(self):
        verdict = verify_ivv(profile(), perturb_profile(profile(),
                                                        "firmware_digest"))
        assert not verdict.match
        assert verdict.diff == ("firmware_digest",)

    def test_every_single_field_mutation_flips_verdict(self):
        base = profile()
        for name in integrity.PROFILE_FIELDS:
            verdict = verify_ivv(base, perturb_profile(base, name))
            assert not verdict.match and name in verdict.diff

    def test_collision_free_at_test_scale(self):
        seen = set()
        for fields in itertools.product(range(3), repeat=3):
            p = DeviceProfile.canonical(
                b"dev", bytes(32), bytes(32),
                [("app", str(fields[0]))], [f"s{fields[1]}"],
                [f"u{fields[2]}"], [])
            seen.add(compute_ivv(p))
        assert len(seen) == 27


class TestStoredIvv:
    """A profile's digest is computed at its first `compute_ivv` and
    kept; a changed copy is a new profile with a digest of its own."""

    @staticmethod
    def fresh(p):
        return hashlib.sha256(b"fogca.ivv" + serialize_profile(p)).digest()

    def test_stored_value_is_the_digest(self):
        p = profile()
        assert compute_ivv(p) == compute_ivv(p) == self.fresh(p)
        assert compute_ivv(p).hex() == IVV_GOLDEN

    @pytest.mark.parametrize("fieldname", integrity.PROFILE_FIELDS)
    def test_changed_copies_digest_afresh(self, fieldname):
        p = profile()
        compute_ivv(p)
        bumped = perturb_profile(p, fieldname)
        assert compute_ivv(bumped) == self.fresh(bumped) != compute_ivv(p)
        renamed = replace(p, device_id=b"other")
        assert compute_ivv(renamed) == self.fresh(renamed)
        parsed = integrity.parse_profile(serialize_profile(bumped))
        assert compute_ivv(parsed) == compute_ivv(bumped)

    def test_not_a_field(self):
        p = profile()
        compute_ivv(p)
        assert p == profile() and repr(p) == repr(profile())
        assert "_ivv" not in {f.name for f in fields(DeviceProfile)}

    def test_registration_with_the_baseline_as_report_digests_once(
            self, toy_rig, monkeypatch):
        serialized = []
        real = integrity.serialize_profile
        monkeypatch.setattr(integrity, "serialize_profile",
                            lambda p: serialized.append(p) or real(p))
        ident = b"digest-once"
        toy_rig.register(ident)
        assert toy_rig.profiles[ident] is toy_rig.store.get(ident).profile
        assert len(serialized) <= 1


class TestCountermeasures:
    def test_mismatch_quarantines_by_default(self):
        bad = integrity.IvvVerdict(False, ("os_digest",))
        assert apply_countermeasure(TrustState.TRUSTED, bad) is \
            TrustState.QUARANTINED

    def test_reset_policy(self):
        bad = integrity.IvvVerdict(False, ())
        assert apply_countermeasure(TrustState.TRUSTED, bad, "reset") is \
            TrustState.RESET_PENDING

    def test_second_mismatch_after_reset_blacklists(self):
        bad = integrity.IvvVerdict(False, ())
        for policy in ("quarantine", "reset"):
            assert apply_countermeasure(TrustState.RESET_PENDING, bad,
                                        policy) is \
                TrustState.BLACKLISTED

    def test_match_keeps_or_grants_trust(self):
        good = integrity.IvvVerdict(True)
        assert apply_countermeasure(TrustState.TRUSTED, good) is \
            TrustState.TRUSTED
        assert apply_countermeasure(TrustState.UNTRUSTED, good) is \
            TrustState.TRUSTED
        assert apply_countermeasure(TrustState.RESET_PENDING, good) is \
            TrustState.TRUSTED

    def test_quarantine_is_sticky(self):
        good = integrity.IvvVerdict(True)
        assert apply_countermeasure(TrustState.QUARANTINED, good) is \
            TrustState.QUARANTINED

    def test_blacklist_is_terminal(self):
        for verdict in (integrity.IvvVerdict(True), integrity.IvvVerdict(False)):
            assert apply_countermeasure(TrustState.BLACKLISTED, verdict) is \
                TrustState.BLACKLISTED

    def test_full_transition_enumeration(self):
        # every (state, verdict, policy) lands in a defined state
        for state in TrustState:
            for match in (True, False):
                for policy in ("quarantine", "reset"):
                    new = apply_countermeasure(
                        state, integrity.IvvVerdict(match), policy)
                    assert isinstance(new, TrustState)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            apply_countermeasure(TrustState.TRUSTED,
                                 integrity.IvvVerdict(False), "nuke")


class TestAffinityStore:
    def test_verify_updates_trust(self):
        store = AffinityStore()
        store.provision(profile(), b"\x01" * 32)
        verdict = store.verify(b"dev", perturb_profile(profile(), "os_digest"),
                               now_ms=44)
        assert not verdict.match and verdict.diff == ("os_digest",)
        record = store.get(b"dev")
        assert record.trust is TrustState.QUARANTINED
        assert record.since_ms == 44

    @pytest.mark.parametrize("length", [0, 16, 31, 33])
    def test_provision_refuses_a_channel_key_of_the_wrong_length(self,
                                                                 length):
        store = AffinityStore()
        with pytest.raises(ValueError, match="32 bytes"):
            store.provision(profile(), b"\x01" * length)
        assert store.records == {}

    def test_unknown_device(self):
        store = AffinityStore()
        with pytest.raises(UnknownDevice):
            store.verify(b"ghost", profile())

    def test_update_profile_parent_only(self):
        store = AffinityStore()
        store.provision(profile(), b"\x01" * 32)
        new = perturb_profile(profile(), "software_list")
        with pytest.raises(UntrustedProvenance):
            store.update_profile(b"dev", new, provenance="child")
        store.update_profile(b"dev", new, provenance="parent")
        assert store.verify(b"dev", new).match

    def test_update_then_stale_report_mismatches(self):
        store = AffinityStore()
        store.provision(profile(), b"\x01" * 32)
        new = perturb_profile(profile(), "software_list")
        store.update_profile(b"dev", new, provenance="parent")
        verdict = store.verify(b"dev", profile())  # device not updated yet
        assert not verdict.match and "software_list" in verdict.diff

    def test_persistence_roundtrip(self, tmp_path):
        store = AffinityStore()
        store.provision(profile(b"a"), b"\x01" * 32)
        store.provision(profile(b"b"), b"\x02" * 32)
        store.set_trust(b"b", TrustState.QUARANTINED, now_ms=9)
        path = tmp_path / "affinity.txt"
        store.save(path)
        loaded = AffinityStore.load(path)
        assert loaded.get(b"a").profile == profile(b"a")
        assert loaded.get(b"b").trust is TrustState.QUARANTINED
        assert loaded.get(b"b").since_ms == 9
        assert loaded.get(b"a").channel_key == b"\x01" * 32


def _affinity_line(blob: bytes, trust: str = "trusted") -> str:
    return f"{blob.hex()} {'01' * 32} {trust} 0"


_lp = integrity._lp
# a profile blob whose used_slots are out of order
UNSORTED = (_lp(b"dev") + _lp(bytes(32)) + _lp(bytes(32)) + b"\x00"
            + b"\x01" + _lp(b"s1") + b"\x01" + _lp(b"s0") + b"\x00"
            + b"\x00\x00")

# lines made of plausible and random tokens, so the loaders see both
# near-valid records and noise
TOKENS = st.one_of(
    st.sampled_from(["REG", "CRL", "-", "#", "00", "04", "compromise",
                     "expiry", "trusted", "quarantined",
                     serialize_profile(profile()).hex()]),
    st.binary(max_size=40).map(bytes.hex),
    st.integers(-2**70, 2**70).map(str),
    st.text(max_size=6))
LINES = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=5)


# random contents for the two persistence formats; identities are never
# empty (DeviceProfile and hash_to_point refuse b"")
IDENTS = st.binary(min_size=1, max_size=12)
TIMES = st.integers(-2**64, 2**64)
NAMES = st.text(max_size=8)
DIGESTS = st.binary(min_size=32, max_size=32)
PROFILES = st.builds(
    DeviceProfile.canonical, IDENTS, DIGESTS, DIGESTS,
    st.lists(st.tuples(NAMES, NAMES), max_size=3),
    st.lists(NAMES, max_size=3), st.lists(NAMES, max_size=3),
    st.lists(NAMES, max_size=3))
AFFINITY = st.lists(
    st.tuples(PROFILES, DIGESTS, st.sampled_from(TrustState), TIMES),
    max_size=4, unique_by=lambda rec: rec[0].device_id)
REGISTRY = st.lists(
    st.tuples(IDENTS,
              st.sampled_from(sorted(curve.enumerate_points(curve.toy17()),
                                     key=lambda q: (q.x is None, q.x, q.y))),
              TIMES, st.none() | TIMES),
    max_size=4, unique_by=lambda rec: rec[0])
CRL = st.lists(
    st.tuples(IDENTS, TIMES, st.sampled_from(authority.REVOKE_REASONS)),
    max_size=4)


class TestPersistence:
    @settings(max_examples=200, deadline=None)
    @given(records=REGISTRY, crl=CRL)
    @example(records=[(b"\x00", curve.INFINITY, 0, 0)],
             crl=[(b"\x00", 0, "expiry")])
    def test_registry_and_crl_roundtrip(self, records, crl):
        state, _ = authority.setup(curve.toy17(), random.Random(3))
        state.registry = {
            rec[0]: authority.RegistrationRecord(
                *rec, curve.hash_to_point(state.params, rec[0]))
            for rec in records}
        state.crl = {entry[0]: authority.CrlEntry(*entry) for entry in crl}
        loaded, _ = authority.setup(curve.toy17(), random.Random(4))
        if state.registry.keys() & state.crl.keys():
            # no operation leaves an identity both registered and revoked
            with pytest.raises(MalformedRecord):
                loaded.load_records(state.dump_records())
            assert not loaded.registry and not loaded.crl
            return
        loaded.load_records(state.dump_records())
        assert list(loaded.registry.items()) == list(state.registry.items())
        assert list(loaded.crl.items()) == list(state.crl.items())
        for child_id in [*state.registry, *state.crl]:
            loaded.revoke(child_id, "policy")

    @settings(max_examples=200, deadline=None)
    @given(records=AFFINITY)
    def test_affinity_roundtrip(self, records):
        store = AffinityStore()
        for prof, channel_key, trust, since in records:
            store.provision(prof, channel_key)
            store.set_trust(prof.device_id, trust, since)
        loaded = AffinityStore.from_lines(store.dump_lines())
        assert list(loaded.records.items()) == list(store.records.items())

    @settings(max_examples=300, deadline=None)
    @given(lines=LINES)
    def test_affinity_loader_raises_only_malformed_record(self, lines):
        try:
            AffinityStore.from_lines(lines)
        except MalformedRecord as exc:
            assert 1 <= exc.lineno <= len(lines)

    @settings(max_examples=300, deadline=None)
    @given(lines=LINES)
    def test_registry_loader_raises_only_malformed_record(self, lines):
        state, _ = authority.setup(curve.toy17(), random.Random(3))
        try:
            state.load_records(lines)
        except MalformedRecord as exc:
            assert 1 <= exc.lineno <= len(lines)

    @pytest.mark.parametrize("bad", [
        "zz " + "01" * 32 + " trusted 0",                      # hex
        serialize_profile(profile()).hex() + " 01 trusted",     # field count
        _affinity_line(serialize_profile(profile()), "fine"),   # trust state
        _affinity_line(serialize_profile(profile()))[:-1] + "x",  # int
        _affinity_line(serialize_profile(profile())[:-3]),      # truncated
        _affinity_line(UNSORTED),                               # canonical
    ])
    def test_affinity_bad_line_names_its_number(self, bad):
        good = _affinity_line(serialize_profile(profile(b"ok")))
        with pytest.raises(MalformedRecord, match="^line 3: "):
            AffinityStore.from_lines([good, "# comment", bad])

    @pytest.mark.parametrize("bad", [
        "REG zz 00 0 -",            # hex
        "REG 61 00 0",              # field count
        "REV 61 0 policy",          # record type
        "CRL 61 soon policy",       # int
        "CRL 61 0 boredom",         # revocation reason
        "REG 61 0401 0 -",          # point encoding
    ])
    def test_registry_bad_line_leaves_state(self, bad):
        state, _ = authority.setup(curve.toy17(), random.Random(3))
        state.load_records(["CRL 62 5 policy"])
        with pytest.raises(MalformedRecord, match="^line 2: "):
            state.load_records(["REG 61 00 0 -", bad])
        assert state.registry == {} and state.is_revoked(b"b")

    def test_device_on_two_lines_refused(self):
        line = _affinity_line(serialize_profile(profile(b"ok")))
        with pytest.raises(MalformedRecord, match="^line 2: .*listed twice"):
            AffinityStore.from_lines([line, _affinity_line(
                serialize_profile(profile(b"ok")), "quarantined")])

    def test_short_channel_key_line_names_its_number(self):
        good = _affinity_line(serialize_profile(profile(b"ok")))
        short = f"{serialize_profile(profile()).hex()} {'01' * 16} trusted 0"
        with pytest.raises(MalformedRecord, match="^line 2: .*32 bytes"):
            AffinityStore.from_lines([good, short])

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        store = AffinityStore()
        store.provision(profile(b"a"), b"\x01" * 32)
        path = tmp_path / "affinity.txt"
        store.save(path)
        before = path.read_bytes()
        store.provision(profile(b"b"), b"\x02" * 32)

        def crash(fd):
            raise OSError("disk full")

        monkeypatch.setattr(integrity.os, "fsync", crash)
        with pytest.raises(OSError):
            store.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["affinity.txt"]
