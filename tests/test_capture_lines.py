"""Capture lines written from the template, and broadcast bodies done once.

The engine writes each frame line from one f-string per protection kind
and takes a broadcast's body bytes and JSON text from a per-run memo.
`reference_line` is the dict the engine used to build and dump for every
frame; each line the template writes must equal it exactly.
"""

import json
import types

import pytest

from ltesim import codec
from ltesim.codec import Direction, FrameHeader, Mib, Sib1, UserData
from ltesim.engine import Engine, _dump, run
from ltesim.scenario import load_scenario, parse_scenario

from tests.conftest import SCENARIO_DIR
from tests.scenario_builders import benign_day_scenario, crowd_scenario, walk_scenario
from tests.test_wire_golden import KEYS, _golden


def reference_line(data: bytes, header: FrameHeader, msg, rx: float) -> str:
    """The capture line as a dict of the frame's fields, through `_dump`."""
    line = {
        "t": header.timestamp_ms,
        "cell": header.cell_id,
        "rnti": header.rnti,
        "dir": "ul" if header.direction == Direction.UPLINK else "dl",
        "prot": "protected" if header.protected else "clear",
        "len": len(data) - codec.HEADER_LEN,
        "rx": round(rx, 1),
    }
    if header.protected:
        line["type"] = "opaque"
        line["key_id"] = header.key_id
    else:
        line["type"] = msg.NAME
        line["body"] = codec.message_to_json(msg)
    return _dump(line)


def templated_line(data: bytes, header: FrameHeader, msg, rx: float) -> str:
    """The line Engine._tap writes for one frame, with no sniffer attached."""
    tap = types.SimpleNamespace(sniffer=None, capture=[])
    Engine._tap(tap, data, header, msg, rx)
    (line,) = tap.capture
    return line


def oracle_runs():
    yield from (path.stem for path in sorted(SCENARIO_DIR.glob("*.json")))
    yield from (f"walk/encrypt={e}/refresh={r}" for e in (False, True) for r in (False, True))
    yield from ("crowd-50", "benign-day")


def scenario_named(name):
    if name == "crowd-50":
        return parse_scenario(crowd_scenario(50))
    if name == "benign-day":
        return parse_scenario(benign_day_scenario())
    if name.startswith("walk/"):
        encrypt, refresh = (part.endswith("True") for part in name.split("/")[1:])
        return parse_scenario(walk_scenario(1, encrypt=encrypt, refresh=refresh))
    return load_scenario(SCENARIO_DIR / f"{name}.json")


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_every_frame_line_equals_the_dict_oracle(monkeypatch, name):
    tap = Engine._tap
    checked, wrong = [0], []

    def tap_and_check(engine, data, header, msg, rx, body=None):
        tap(engine, data, header, msg, rx, body)
        # A remembered broadcast body must be the bytes a fresh encode gives.
        if data != codec.encode(header, msg, engine.core.keys):
            wrong.append(f"frame bytes: {data.hex()}")
        want = reference_line(data, header, msg, rx)
        if engine.capture[-1] != want:
            wrong.append(f"{engine.capture[-1]} != {want}")
        checked[0] += 1

    monkeypatch.setattr(Engine, "_tap", tap_and_check)
    result = run(scenario_named(name))
    assert not wrong, "\n".join(wrong[:5])
    assert 0 < checked[0] == sum(not line.startswith('{"meta"') for line in result.capture_lines)


@pytest.mark.parametrize("entry", _golden(), ids=lambda e: e["label"])
def test_golden_frame_lines_equal_the_dict_oracle(entry):
    frame = bytes.fromhex(entry["hex"])
    header, msg = codec.decode(frame, KEYS)
    for rx in (-87.25, 3.0, -140.04):
        assert templated_line(frame, header, msg, rx) == reference_line(frame, header, msg, rx)


@pytest.mark.parametrize(
    "rx",
    [
        -0.04,  # rounds to -0.0
        -0.0,
        0.04,
        0.05,  # just above half in binary: rounds up
        0.25,  # exactly half: rounds to even, down
        0.35,  # just below half in binary: rounds down
        -87.25,
        -87.35,
        -99.95,  # rounds away to -100.0
        12.349999999,
        1e-9,
        -1e7,
        123456789.123,
        23,  # an integer stays an integer
        0,
        -110,
    ],
)
def test_rx_is_written_as_json_writes_it(rx):
    for header, msg in [
        (FrameHeader(1000, 20, 0, Direction.DOWNLINK), Mib(25, 100)),
        (FrameHeader(1000, 20, 500, Direction.UPLINK, key_id=1), UserData(8)),
    ]:
        frame = codec.encode(header, msg, {1: b"\x01" * 16})
        line = templated_line(frame, header, msg, rx)
        assert line == reference_line(frame, header, msg, rx)
        assert json.loads(line)["rx"] == round(rx, 1)


def test_each_broadcast_body_is_encoded_and_decoded_once(monkeypatch):
    calls = {"pack": 0, "decode_body": 0}
    pack, decode_body = codec._Codec.pack, codec.decode_body

    def counted_pack(self, rec):
        calls["pack"] += type(rec) in (Mib, Sib1)
        return pack(self, rec)

    def counted_decode_body(data):
        msg = decode_body(data)
        calls["decode_body"] += type(msg) in (Mib, Sib1)
        return msg

    monkeypatch.setattr(codec._Codec, "pack", counted_pack)
    monkeypatch.setattr(codec, "decode_body", counted_decode_body)
    result = run(parse_scenario(walk_scenario(1)))
    lines = [json.loads(line) for line in result.capture_lines]
    broadcasts = [(o["type"], _dump(o["body"])) for o in lines if o.get("type") in ("mib", "sib1")]
    # Each of thousands of broadcasts used to be encoded and decoded.
    assert len(broadcasts) > 5 * len(set(broadcasts))
    assert 0 < calls["pack"] <= len(set(broadcasts)), calls
    assert 0 < calls["decode_body"] <= len(set(broadcasts)), calls
