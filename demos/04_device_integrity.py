"""Device integrity lifecycle: baseline, tamper, quarantine, recovery.

The manufacturer's knowledge of a device (its profile) is the baseline;
the integrity verification value is a digest over it.  A device whose
report disagrees is refused registration and quarantined; a legitimate
firmware rollout updates the baseline over the parent channel.
"""

import random

from fogca import authority, curve
from fogca.child import ChildState
from fogca.crypto import ManualClock
from fogca.errors import DeviceUntrusted, IntegrityMismatch
from fogca.integrity import (
    AffinityStore,
    TrustState,
    compute_ivv,
    perturb_profile,
    verify_ivv,
)
from fogca.scenarios import device_profile

params = curve.toy17()
rng = random.Random(1)
clock = ManualClock()
store = AffinityStore()
ca, announcement = authority.setup(params, rng, clock, store)

ident = b"cam-01"
baseline = device_profile(ident)
channel_key = rng.randbytes(32)
store.provision(baseline, channel_key)
print("baseline IVV:", compute_ivv(baseline).hex())

# 1. honest report matches
print("honest report:", verify_ivv(baseline, device_profile(ident)))

# 2. tampered firmware is named, refused, and quarantined
tampered = perturb_profile(baseline, "firmware_digest")
device = ChildState(ident, announcement, channel_key, random.Random(2), clock)
try:
    ca.register_child(device.request_registration(), tampered)
except IntegrityMismatch as exc:
    print("registration refused:", exc)
print("trust state:", store.get(ident).trust.value)

# 3. quarantine sticks even for a clean retry
try:
    ca.register_child(device.request_registration(), device_profile(ident))
except DeviceUntrusted as exc:
    print("clean retry still refused:", exc)

# 4. operator releases the device; a parent-channel rollout (a software
#    version bump here) moves the baseline forward
store.set_trust(ident, TrustState.UNTRUSTED)
rollout = perturb_profile(baseline, "software_list")
store.update_profile(ident, rollout, provenance="parent")
print("updated IVV:", compute_ivv(rollout).hex())
resp = ca.register_child(device.request_registration(), rollout)
device.confirm_auth_key(resp, ca.handle_auth_request)
print("re-registered after update:", device.auth_key is not None)
