"""Stand-ins for the SIM credential functions and the ciphering keystream.

None of this is real cryptography and none of it needs to be: the model
only cares who holds a secret, not how hard it is to break. A challenge
response is a 64-bit truncation of a keyed hash, and frame protection is
an XOR keystream derived from a per-session seed. The property that
matters is reproduced faithfully: a party without the subscriber key (a
rogue cell, a passive sniffer) can neither answer a challenge nor read a
protected body. Since such a party never opens the body, a simulation
run never calls `keystream_mask`: it airs protected frames with zero
filler in its place (`codec.keyless_frame`). The mask serves
`codec.encode` and `codec.decode` with keys.
"""

from __future__ import annotations

import hashlib

MAC_LEN = 8
AUTN_LEN = 16
KEYSTREAM_SEED_LEN = 16


def stub_mac(key: bytes, rand: bytes) -> bytes:
    """64-bit keyed response to an authentication challenge."""
    return hashlib.sha256(key + rand).digest()[:MAC_LEN]


def derive_autn(key: bytes, rand: bytes) -> bytes:
    """Network authentication token for a challenge; lets the holder of
    the key confirm the challenger also holds it."""
    return hashlib.sha256(key + rand + b"autn").digest()[:AUTN_LEN]


def derive_keystream_seed(key: bytes, key_id: int) -> bytes:
    """Per-session masking seed bound to a security context id."""
    material = key + key_id.to_bytes(4, "big") + b"ks"
    return hashlib.sha256(material).digest()[:KEYSTREAM_SEED_LEN]


def keystream_mask(seed: bytes, data: bytes) -> bytes:
    """XOR `data` with the keystream expanded from `seed`: 32-byte blocks
    sha256(seed + counter), counter big-endian from 0. Involution:
    applying it twice returns the input."""
    n = len(data)
    stream = b"".join(hashlib.sha256(seed + counter.to_bytes(8, "big")).digest() for counter in range((n + 31) // 32))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")
