"""Two devices agree on a private key via the custodian they both trust.

The camera proposes a key for the door lock; the custodian re-seals the
proposal for the lock; the lock challenges the camera with a nonce under
the proposed key; the echoed nonce proves both ends hold the same key.
"""

import random

from fogca import curve
from fogca.crypto import ManualClock
from fogca.errors import NoPendingChallenge
from fogca.scenarios import Fleet

fleet = Fleet(curve.toy17(), random.Random(5), ManualClock())
ca = fleet.authority
camera = fleet.register(b"cam-01")
lock = fleet.register(b"lock-02")

# camera -> custodian: proposal sealed under the camera's session key
proposal = camera.peer_init(b"lock-02")
print("camera proposed key:", camera.proposed[b"lock-02"].hex())

# custodian -> lock: same proposal, re-sealed for the lock
target, relay = ca.relay_peer_request(b"cam-01", proposal)
print("custodian relays to:", target.decode())

# lock -> camera: nonce challenge under the proposed key
initiator, challenge = lock.peer_respond(relay)
print("lock challenges:", initiator.decode())

# camera -> lock: the echoed nonce
peer, proof = camera.peer_accept(challenge)
lock.peer_verify(proof, initiator)
print("established:", camera.peer_sessions[b"lock-02"].hex())
assert camera.peer_sessions[b"lock-02"] == lock.peer_sessions[b"cam-01"]

# the challenge is single use: replaying the proof gets refused
try:
    lock.peer_verify(proof, initiator)
except NoPendingChallenge as exc:
    print("proof replay refused:", exc)
