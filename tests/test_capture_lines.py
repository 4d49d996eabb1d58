"""Capture lines written from templates, and broadcast bodies done once.

The engine writes each frame line from one f-string per protection kind,
and a repeating frame's line and bytes from a per-run template of all
but its `t`, built over a per-run memo of each broadcast body's bytes
and JSON text. `reference_line` is the dict the engine used to build and
dump for every frame; each line the engine writes must equal it exactly.
"""

import json
import struct

import pytest

from ltesim import codec
from ltesim.codec import Direction, FrameHeader, Mib, RachPreamble, Sib1, UserData
from ltesim.core import DEFAULT_MIB_BANDWIDTH_RB, cell_sib1
from ltesim.engine import Engine, _dump, _line, run
from ltesim.scenario import load_scenario, parse_scenario
from ltesim.sniffer import Sniffer

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


def aired(header: FrameHeader, msg, keys) -> bytes:
    """The bytes a frame goes on the air as: encoded whole in the clear, and
    protected under a key_id that names a live context in `keys`, as the
    keyless sniffer reads it, its masked body zero filler."""
    if not header.protected:
        return codec.encode(header, msg)
    assert header.key_id in keys, header
    return codec.keyless_frame(header, len(codec.encode_body(msg)))


def templated_line(data: bytes, header: FrameHeader, msg, rx: float) -> str:
    """The line the engine writes for one frame encoded whole: `_line`'s
    text on either side of its `t`."""
    prefix, suffix = _line(header, msg, len(data) - codec.HEADER_LEN, rx)
    return f"{prefix}{header.timestamp_ms}{suffix}"


class Unspied(Sniffer):
    """A sniffer the spies below do not see: it keeps the original methods."""

    observe, hear, note_triggered_page = Sniffer.observe, Sniffer.hear, Sniffer.note_triggered_page


class SnifferSpy:
    """Show `seen(sniffer, data, header)` each frame a Sniffer gets, either
    way it comes: handed to `observe`, which still returns what it read,
    or heard, rebuilt as its `t` packed before the bytes after `t` that
    the observe which returned that read was shown, with that observe's
    header at the new `t`. The hear that an observe makes is part of that
    observe. Counts both ways."""

    def __init__(self, monkeypatch, seen):
        observe, hear = Sniffer.observe, Sniffer.hear
        self.observed = self.heard = 0
        reads = {}  # id(what an observe returned) -> (it, the bytes after t, the header's other fields)
        reading = []

        def spy_observe(sniffer, data, header=None):
            self.observed += 1
            seen(sniffer, data, header)
            reading.append(sniffer)
            try:
                heard = observe(sniffer, data, header)
            finally:
                reading.pop()
            if heard is not None:
                read = header or codec.decode_header(data)
                fields = read.cell_id, read.rnti, read.direction, read.key_id
                reads[id(heard)] = heard, data[8:], fields
            return heard

        def spy_hear(sniffer, t, heard):
            if not reading:
                self.heard += 1
                _, rest, fields = reads[id(heard)]
                seen(sniffer, struct.pack(">Q", t) + rest, FrameHeader(t, *fields))
            hear(sniffer, t, heard)

        monkeypatch.setattr(Sniffer, "observe", spy_observe)
        monkeypatch.setattr(Sniffer, "hear", spy_hear)


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


def broadcast_due(engine, message, cell, t):
    """What a broadcast from this cell at t must be, given the type it has:
    the Mib of t's frame number, or the Sib1 of the cell's own config."""
    if type(message) is Mib:
        return Mib(DEFAULT_MIB_BANDWIDTH_RB, t // 10 % 1024)
    return cell_sib1(engine.core.cells[cell] if cell in engine.core.cells else engine.rogue.config)


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_every_frame_line_equals_the_dict_oracle(monkeypatch, name):
    """Every frame passes through Engine._write, the one line writer, each
    with the template `_template` made for the frame it was shown first:
    the sniffer must be shown it once, the bytes it goes on the air as
    (`aired`) and their header, read or heard, and the line must be the
    dict oracle's over those bytes. A broadcast, written from its cell's
    slots, must be the one due at its `t` (`broadcast_due`). Each distinct
    frame is read once, every repeat heard."""
    write, template = Engine._write, Engine._template
    checked, wrong, fed = [0], [], []
    made = {}  # id(template) -> (it, the key it was made from), held so that no id is reused

    def made_and_kept(engine, key, t):
        out = template(engine, key, t)
        made[id(out)] = out, key
        return out

    def write_and_check(engine, template, t, key=None):
        template = write(engine, template, t, key)
        message, cell, rnti, direction, key_id, rx = made[id(template)][1]
        if rnti == 0 and type(message) in (Mib, Sib1) and message != broadcast_due(engine, message, cell, t):
            wrong.append(f"{message} at {t} from cell {cell}")
        header = FrameHeader(t, cell, rnti, direction, key_id)
        data = aired(header, message, engine.core.keys)
        if engine.sniffer is not None and fed != [(data, header)]:
            wrong.append(f"frame: {[(d.hex(), h) for d, h in fed]} != {data.hex(), header}")
        fed.clear()
        want = reference_line(data, header, message, rx)
        if engine.capture[-1] != want:
            wrong.append(f"{engine.capture[-1]} != {want}")
        checked[0] += 1
        return template

    spy = SnifferSpy(monkeypatch, lambda sniffer, data, header: fed.append((data, header)))
    monkeypatch.setattr(Engine, "_template", made_and_kept)
    monkeypatch.setattr(Engine, "_write", write_and_check)
    result = run(scenario_named(name))
    assert not wrong, "\n".join(wrong[:5])
    assert 0 < checked[0] == sum(not line.startswith('{"meta"') for line in result.capture_lines)
    assert len({key for _, key in made.values()}) == len(made)  # each distinct frame templated once
    if result.report is None:  # no sniffer in this run
        assert spy.observed == spy.heard == 0
    else:
        assert spy.observed == len(made) and spy.heard == checked[0] - len(made) > 0


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_a_cell_templates_each_mib_once_and_its_sib1_once(monkeypatch, name):
    """A broadcasting cell's Mib is templated once per frame number it
    sends and its Sib1 once, however often each recurs, and only then
    looked up by key (`_air`): a repeat is written from the cell's slots,
    which are gone once the run ends."""
    air, template, firsts = Engine._air, Engine._template, {"_air": [], "_template": []}

    def broadcast_key(key):  # (type, cell, frame number) of a Mib or Sib1 to rnti 0
        msg, cell, rnti = key[:3]
        return (type(msg), cell, getattr(msg, "sfn", None)) if rnti == 0 and type(msg) in (Mib, Sib1) else None

    def counted_air(engine, frame, direction, t, rx):
        if (key := broadcast_key((frame.message, frame.cell_id, frame.rnti))) is not None:
            firsts["_air"].append(key)
        return air(engine, frame, direction, t, rx)

    def counted_template(engine, key, t):
        if broadcast_key(key) is not None:
            firsts["_template"].append(broadcast_key(key))
        return template(engine, key, t)

    monkeypatch.setattr(Engine, "_air", counted_air)
    monkeypatch.setattr(Engine, "_template", counted_template)
    engine = Engine(scenario_named(name))
    result = engine.run()
    sent = [json.loads(line) for line in result.capture_lines if '"rnti":0,' in line]
    sent = [(obj["type"], obj["cell"], obj["body"].get("sfn")) for obj in sent if obj["type"] in ("mib", "sib1")]
    for calls in firsts.values():
        assert len(calls) == len(set(calls)) == len(set(sent)) < len(sent)
    assert engine._slots == {} and engine._templates == {}


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
    calls = {"pack": 0, "decode_body": 0, "pack_preamble": 0}
    pack, decode_body = codec._Codec.pack, codec.decode_body

    def counted_pack(self, rec):
        calls["pack"] += type(rec) in (Mib, Sib1)
        calls["pack_preamble"] += type(rec) is RachPreamble
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
    # Access preambles are cleartext to rnti 0 too: one encode per distinct body.
    preambles = [_dump(o["body"]) for o in lines if o.get("type") == "rach_preamble"]
    assert len(preambles) > len(set(preambles))
    assert 0 < calls["pack_preamble"] <= len(set(preambles)), calls
