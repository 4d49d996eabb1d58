import hashlib

from hypothesis import given, strategies as st

from ltesim.crypto_stub import derive_keystream_seed, keystream_mask, stub_mac
from ltesim.prng import child_rng, child_seed


def test_child_seed_frozen_values():
    # Any change here silently invalidates recorded captures.
    assert child_seed(42, "ue/walker") == 11613038407700605610
    assert child_seed(42, "rogue") == 1371857967274467185


def test_child_streams_are_independent_of_construction_order():
    a = child_rng(7, "cell/10")
    b = child_rng(7, "cell/11")
    b2 = child_rng(7, "cell/11")
    assert a.random() != b.random()
    assert b2.random() == child_rng(7, "cell/11").random()


def test_distinct_paths_distinct_seeds():
    paths = [f"cell/{i}" for i in range(200)] + [f"ue/{i}" for i in range(200)]
    seeds = {child_seed(1, p) for p in paths}
    assert len(seeds) == len(paths)


@given(st.binary(min_size=1, max_size=64), st.binary(min_size=0, max_size=200))
def test_keystream_mask_is_an_involution(seed, data):
    assert keystream_mask(seed, keystream_mask(seed, data)) == data


def per_byte_mask(seed, data):
    """The per-byte loop keystream_mask replaced, kept as its reference."""
    out = bytearray(len(data))
    block = b""
    counter = 0
    for i in range(len(data)):
        j = i % 32
        if j == 0:
            block = hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
            counter += 1
        out[i] = data[i] ^ block[j]
    return bytes(out)


def test_keystream_mask_matches_the_per_byte_loop():
    seed = derive_keystream_seed(b"k" * 16, 7)
    for n in [*range(131), 4096]:
        for data in (bytes((i * 37 + n) % 256 for i in range(n)), bytes(n)):  # zeros: the bare keystream
            assert keystream_mask(seed, data) == per_byte_mask(seed, data), n


def test_keystream_depends_on_seed():
    a = derive_keystream_seed(b"k" * 16, 1)
    b = derive_keystream_seed(b"k" * 16, 2)
    assert a != b
    assert keystream_mask(a, b"hello") != keystream_mask(b, b"hello")


def test_stub_mac_is_keyed():
    rand = bytes(16)
    assert stub_mac(b"a" * 16, rand) != stub_mac(b"b" * 16, rand)
    assert len(stub_mac(b"a" * 16, rand)) == 8
