"""Codec micro-table: seeded frames of every wire type through
`codec.encode` / `codec.decode`, and `keystream_mask` on 1 KiB.

Each figure is the median over BATCHES timed batches of microseconds
per call, so one slow batch does not move it.
"""

from __future__ import annotations

import random
import statistics
import time

MESSAGES_PER_TYPE = 32
REPEATS_PER_BATCH = 5
BATCHES = 9
MASK_BUFFERS_PER_BATCH = 4
KEY_IDS = (1, 2, 3, 4)


def _makers(codec, identity):
    """One seeded constructor per wire type, keyed by its NAME."""
    Plmn, parse_imsi = identity.Plmn, identity.parse_imsi

    def imsi(r):
        return parse_imsi("".join(r.choice("0123456789") for _ in range(15)), r.choice((2, 3)))

    def either_identity(cls, r):
        return cls(imsi=imsi(r)) if r.random() < 0.5 else cls(tmsi=r.randrange(1 << 32))

    def connection_request(r):
        if r.random() < 0.5:
            return codec.RrcConnectionRequest(tmsi=r.randrange(1 << 32))
        return codec.RrcConnectionRequest(random_id=r.randrange(1 << 40))

    def identity_response(r):
        if r.random() < 0.5:
            return codec.IdentityResponse(imsi=imsi(r))
        return codec.IdentityResponse(imei="".join(r.choice("0123456789") for _ in range(15)))

    def reconfiguration(r):
        if r.random() < 0.5:
            return codec.RrcConnectionReconfiguration()
        return codec.RrcConnectionReconfiguration(
            codec.MobilityControlInfo(r.randrange(1 << 28), r.randint(1, 0xFFF3))
        )

    makers = {
        "mib": lambda r: codec.Mib(r.choice(codec.MIB_BANDWIDTHS), r.randrange(1024)),
        "sib1": lambda r: codec.Sib1(
            Plmn("310", r.choice(("26", "026", "260"))),
            r.randrange(1 << 16),
            r.randrange(1 << 28),
            r.randint(-128, 127),
            tuple((r.randrange(1 << 16), r.randrange(8)) for _ in range(r.randrange(4))),
        ),
        "rach_preamble": lambda r: codec.RachPreamble(r.randrange(64)),
        "mac_rar": lambda r: codec.MacRar(r.randint(1, 0xFFF3), r.randrange(2048), r.randrange(1 << 20)),
        "rrc_connection_request": connection_request,
        "rrc_connection_setup": lambda r: codec.RrcConnectionSetup(),
        "attach_request": lambda r: either_identity(codec.AttachRequest, r),
        "identity_request": lambda r: codec.IdentityRequest(r.choice(list(codec.IdentityKind))),
        "identity_response": identity_response,
        "authentication_request": lambda r: codec.AuthenticationRequest(r.randbytes(16), r.randbytes(16)),
        "authentication_response": lambda r: codec.AuthenticationResponse(r.randbytes(8)),
        "security_mode_command": lambda r: codec.SecurityModeCommand(r.randrange(1, 1 << 32)),
        "security_mode_complete": lambda r: codec.SecurityModeComplete(),
        "attach_accept": lambda r: codec.AttachAccept(r.randrange(1 << 32), r.randrange(1 << 16)),
        "attach_reject": lambda r: codec.AttachReject(r.choice(list(codec.EmmCause))),
        "tau_request": lambda r: codec.TauRequest(r.randrange(1 << 32), r.randrange(1 << 16)),
        "tau_reject": lambda r: codec.TauReject(r.choice(list(codec.EmmCause))),
        "paging": lambda r: either_identity(codec.Paging, r),
        "measurement_report": lambda r: codec.MeasurementReport(
            tuple((r.randrange(1 << 28), r.randint(-128, 127)) for _ in range(r.randrange(6)))
        ),
        "rrc_connection_reconfiguration": reconfiguration,
        "rrc_connection_reconfiguration_complete": lambda r: codec.RrcConnectionReconfigurationComplete(),
        # Application bursts in the workloads are a few hundred bytes.
        "user_data": lambda r: codec.UserData(r.randrange(1, 1500)),
    }
    missing = {cls.NAME for cls in codec.MESSAGE_CLASSES} - set(makers)
    if missing:
        raise RuntimeError(f"micro-table has no maker for wire types {sorted(missing)}")
    return makers


def _frames(codec, rng, make, protected):
    frames = []
    for _ in range(MESSAGES_PER_TYPE):
        header = codec.FrameHeader(
            rng.randrange(1 << 48),
            rng.randrange(1 << 28),
            rng.randint(1, 0xFFF3),
            rng.choice(list(codec.Direction)),
            key_id=rng.choice(KEY_IDS) if protected else None,
        )
        frames.append((header, make(rng)))
    return frames


def _median_us(fn, items):
    """Median over BATCHES of microseconds per fn(item) call."""
    calls = len(items) * REPEATS_PER_BATCH
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(REPEATS_PER_BATCH):
            for item in items:
                fn(item)
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def codec_table(ltesim, seed: int) -> tuple[dict[str, float], int]:
    """Per-type encode/decode microseconds (cleartext), the same pooled
    over every type protected, and the number of frames that did not
    round-trip."""
    codec = ltesim.codec
    keys = {kid: ltesim.crypto_stub.derive_keystream_seed(b"perfbench", kid) for kid in KEY_IDS}
    rng = random.Random(seed)
    makers = _makers(codec, ltesim.identity)
    table: dict[str, float] = {}
    mismatches = 0
    pooled: list = []

    def encode(frame):
        return codec.encode(frame[0], frame[1], keys)

    def decode(data):
        return codec.decode(data, keys)

    for name in sorted(makers):
        frames = _frames(codec, rng, makers[name], protected=False)
        pooled += _frames(codec, rng, makers[name], protected=True)
        wire = [encode(f) for f in frames]
        mismatches += sum(decode(d) != f for d, f in zip(wire, frames))
        table[f"codec.encode_us.{name}"] = _median_us(encode, frames)
        table[f"codec.decode_us.{name}"] = _median_us(decode, wire)
    wire = [encode(f) for f in pooled]
    mismatches += sum(decode(d) != f for d, f in zip(wire, pooled))
    table["codec.encode_us.protected"] = _median_us(encode, pooled)
    table["codec.decode_us.protected"] = _median_us(decode, wire)
    return table, mismatches


def keystream_us_per_kib(ltesim, seed: int) -> tuple[float, bool]:
    """Microseconds to mask a 1 KiB buffer, and whether masking twice
    gave the buffer back."""
    rng = random.Random(seed)
    mask_seed, buf = rng.randbytes(16), rng.randbytes(1024)
    mask = ltesim.crypto_stub.keystream_mask
    involution = mask(mask_seed, mask(mask_seed, buf)) == buf
    return _median_us(lambda b: mask(mask_seed, b), [buf] * MASK_BUFFERS_PER_BATCH), involution
