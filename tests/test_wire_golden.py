"""Frozen frames, one or more per wire type, with their capture JSON.

`tests/data/wire_types.golden` holds one JSON line per entry: a label,
the message name, the whole frame as hex, and the capture-JSON body
(`sort_keys`). Round-trip tests pass for any field order that encode
and decode agree on; these bytes do not. Every wire type appears, both
arms of each identity union, the mobility struct present and absent,
and one protected frame.

Regenerate (only when the wire format changes on purpose) with

    PYTHONPATH=src python tests/test_wire_golden.py --write
"""

import json
import pathlib
import random
import sys

import pytest

from ltesim import codec
from ltesim.crypto_stub import derive_keystream_seed
from ltesim.identity import Plmn, parse_imsi

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "wire_types.golden"
SEED = 20160517
KEY_ID = 7
KEYS = {KEY_ID: derive_keystream_seed(b"golden-key-bytes", KEY_ID)}


def _digits(r, n=15):
    return "".join(r.choice("0123456789") for _ in range(n))


def _imsi(r, mnc_len):
    return parse_imsi(_digits(r), mnc_len)


def _cases():
    """(label, message maker, protected) in file order."""
    c = codec
    return [
        ("mib", lambda r: c.Mib(r.choice(c.MIB_BANDWIDTHS), r.randrange(1024)), False),
        (
            "sib1",
            lambda r: c.Sib1(
                Plmn("310", "026"),
                r.randrange(1 << 16),
                r.randrange(1 << 28),
                r.randint(-128, 127),
                tuple((r.randrange(1 << 32), r.randrange(8)) for _ in range(3)),
            ),
            False,
        ),
        (
            "sib1/mnc2/empty",
            lambda r: c.Sib1(Plmn("262", "01"), r.randrange(1 << 16), r.randrange(1 << 28), -110),
            False,
        ),
        ("rach_preamble", lambda r: c.RachPreamble(r.randrange(64)), False),
        ("mac_rar", lambda r: c.MacRar(r.randint(1, 0xFFF3), r.randrange(2048), r.randrange(1 << 20)), False),
        ("rrc_connection_request/tmsi", lambda r: c.RrcConnectionRequest(tmsi=r.randrange(1 << 32)), False),
        ("rrc_connection_request/random", lambda r: c.RrcConnectionRequest(random_id=r.randrange(1 << 40)), False),
        ("rrc_connection_setup", lambda r: c.RrcConnectionSetup(), False),
        ("attach_request/imsi", lambda r: c.AttachRequest(imsi=_imsi(r, 3)), False),
        ("attach_request/tmsi", lambda r: c.AttachRequest(tmsi=r.randrange(1 << 32)), False),
        ("identity_request/imsi", lambda r: c.IdentityRequest(c.IdentityKind.IMSI), False),
        ("identity_request/imei", lambda r: c.IdentityRequest(c.IdentityKind.IMEI), False),
        ("identity_response/imsi", lambda r: c.IdentityResponse(imsi=_imsi(r, 2)), False),
        ("identity_response/imei", lambda r: c.IdentityResponse(imei=_digits(r)), False),
        ("authentication_request", lambda r: c.AuthenticationRequest(r.randbytes(16), r.randbytes(16)), False),
        ("authentication_response", lambda r: c.AuthenticationResponse(r.randbytes(8)), False),
        ("security_mode_command", lambda r: c.SecurityModeCommand(r.randrange(1 << 32)), False),
        ("security_mode_complete", lambda r: c.SecurityModeComplete(), False),
        ("attach_accept", lambda r: c.AttachAccept(r.randrange(1 << 32), r.randrange(1 << 16)), False),
        ("attach_reject", lambda r: c.AttachReject(c.EmmCause.PLMN_NOT_ALLOWED), False),
        ("tau_request", lambda r: c.TauRequest(r.randrange(1 << 32), r.randrange(1 << 16)), False),
        ("tau_reject", lambda r: c.TauReject(c.EmmCause.CONGESTION_BENIGN), False),
        ("paging/imsi", lambda r: c.Paging(imsi=_imsi(r, 3)), False),
        ("paging/tmsi", lambda r: c.Paging(tmsi=r.randrange(1 << 32)), False),
        (
            "measurement_report",
            lambda r: c.MeasurementReport(tuple((r.randrange(1 << 28), r.randint(-128, 127)) for _ in range(3))),
            False,
        ),
        ("rrc_connection_reconfiguration/absent", lambda r: c.RrcConnectionReconfiguration(), False),
        (
            "rrc_connection_reconfiguration/present",
            lambda r: c.RrcConnectionReconfiguration(c.MobilityControlInfo(r.randrange(1 << 28), r.randint(1, 0xFFF3))),
            False,
        ),
        ("rrc_connection_reconfiguration_complete", lambda r: c.RrcConnectionReconfigurationComplete(), False),
        ("user_data", lambda r: c.UserData(r.randrange(1, 40)), False),
        ("attach_accept/protected", lambda r: c.AttachAccept(r.randrange(1 << 32), r.randrange(1 << 16)), True),
    ]


def build_entries() -> list[dict]:
    """The golden entries, built from seeded messages by the codec under test."""
    r = random.Random(SEED)
    entries = []
    for label, make, protected in _cases():
        header = codec.FrameHeader(
            r.randrange(1 << 40),
            r.randrange(1 << 28),
            r.randint(1, 0xFFF3),
            r.choice(list(codec.Direction)),
            key_id=KEY_ID if protected else None,
        )
        msg = make(r)
        frame = codec.encode(header, msg, KEYS)
        entries.append({"label": label, "type": msg.NAME, "hex": frame.hex(), "body": codec.message_to_json(msg)})
    return entries


def _dump(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True)


def _golden() -> list[dict]:
    # Missing only while --write runs; the coverage test then fails.
    if not GOLDEN.exists():
        return []
    return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line]


def test_golden_covers_every_wire_type():
    assert {e["type"] for e in _golden()} == {cls.NAME for cls in codec.MESSAGE_CLASSES}


def test_seeded_messages_encode_to_golden():
    assert [_dump(e) for e in build_entries()] == [_dump(e) for e in _golden()]


@pytest.mark.parametrize("entry", _golden(), ids=lambda e: e["label"])
def test_golden_frame_decodes_and_reencodes(entry):
    frame = bytes.fromhex(entry["hex"])
    header, msg = codec.decode(frame, KEYS)
    assert msg.NAME == entry["type"]
    assert _dump(codec.message_to_json(msg)) == _dump(entry["body"])
    rebuilt = codec.message_from_json(entry["type"], json.loads(json.dumps(entry["body"])))
    assert codec.encode(header, rebuilt, KEYS) == frame


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text("".join(_dump(e) + "\n" for e in build_entries()))
