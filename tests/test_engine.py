"""Whole-system runs: determinism, capture replay, truth scoring."""

import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ltesim import codec, crypto_stub
from ltesim import engine as engine_module
from ltesim.attacker import RogueCell
from ltesim.codec import (
    CaptureInvalid,
    Direction,
    FrameHeader,
    InvariantViolation,
    MeasurementReport,
    Mib,
    RachPreamble,
    Sib1,
)
from ltesim.core import NetworkCore, SessionState
from ltesim.engine import Engine, diff_tracking, parse_capture_line, reconstruct_frame, replay_capture, run
from ltesim.identity import Plmn
from ltesim.scenario import load_scenario, parse_scenario
from ltesim.sniffer import Sniffer
from ltesim.ue import AirplaneToggle, AppTraffic, Emission, EraseTmsi, PowerOn, Tick, Ue, UePhase

from tests.conftest import REPO_ROOT, SCENARIO_DIR
from tests.scenario_builders import benign_day_scenario, crowd_scenario, lte_cell, subscriber, walk_scenario
from tests.test_capture_lines import SnifferSpy, Unspied, aired, oracle_runs, reference_line, scenario_named
from tests.test_codec import JSON_VALUES, _positions
from tests.test_core import full_scan_deadline
from tests.test_scenario import HOSTILE


def small_scenario(seed=7, **extra):
    obj = {
        "name": "small",
        "seed": seed,
        "duration_ms": 9000,
        "cells": [lte_cell(10, 0.0)],
        "ues": [subscriber("anna", 1, 20.0, app_traffic=[{"t_ms": 2000, "bytes": 40}])],
        # by 7500 the device has idled out, so the page finds it asleep
        "page_calls": [{"t_ms": 7500, "msisdn": "15550000001"}],
    }
    obj.update(extra)
    return parse_scenario(obj)


def capture_objs(result):
    return [json.loads(line) for line in result.capture_lines]


def test_single_device_day():
    result = run(small_scenario())
    anna = result.ues["anna"]
    gt = result.ground_truth
    # attached, idled, woke for traffic and again for the page
    assert gt["final_phase"]["anna"] in ("registered", "camped_idle")
    assert gt["idle_transitions"]["anna"] >= 1
    assert gt["imsi_cleartext_uplinks"]["anna"] == 1
    assert anna.tmsi is not None
    assert result.report is not None
    assert result.report.pages_seen == 1


def test_capture_lines_are_compact_sorted_json():
    result = run(small_scenario())
    for line in result.capture_lines[:50]:
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line
        if obj.get("meta"):
            continue
        assert obj["dir"] in ("ul", "dl")
        assert obj["prot"] in ("clear", "protected")
        assert isinstance(obj["rx"], float) or isinstance(obj["rx"], int)


def test_protected_lines_hide_the_body():
    result = run(small_scenario())
    protected = [o for o in capture_objs(result) if o.get("prot") == "protected"]
    assert protected, "a full attach must produce protected frames"
    for obj in protected:
        assert obj["type"] == "opaque"
        assert "body" not in obj
        assert obj["key_id"] >= 1


def test_same_seed_same_capture():
    a = run(small_scenario())
    b = run(small_scenario())
    assert hashlib.sha256(a.capture_text().encode()).hexdigest() == hashlib.sha256(
        b.capture_text().encode()
    ).hexdigest()


def test_seed_override_changes_the_run():
    base = run(small_scenario())
    other = run(small_scenario(), seed=999)
    assert other.seed == 999
    assert base.capture_text() != other.capture_text()


def test_reconstruct_cleartext_frame_is_exact():
    result = run(small_scenario())
    for obj in capture_objs(result):
        if obj.get("meta") or obj["prot"] != "clear":
            continue
        _, frame = reconstruct_frame(obj)
        header, msg = codec.decode(frame)
        assert header.timestamp_ms == obj["t"]
        assert header.cell_id == obj["cell"]
        assert header.rnti == obj["rnti"]
        assert type(msg).NAME == obj["type"]
        assert len(frame) - codec.HEADER_LEN == obj["len"]


def test_reconstruct_protected_frame_keeps_shape():
    result = run(small_scenario())
    obj = next(o for o in capture_objs(result) if o.get("prot") == "protected")
    _, frame = reconstruct_frame(obj)
    header, msg = codec.decode(frame)
    assert isinstance(msg, codec.Opaque)
    assert header.key_id == obj["key_id"]
    assert len(frame) - codec.HEADER_LEN == obj["len"]


def test_replay_reproduces_the_live_report():
    result = run(small_scenario())
    replayed = replay_capture(result.capture_lines)
    assert replayed.as_json() == result.report.as_json()


def test_replay_binds_the_dialed_number():
    result = run(small_scenario())
    replayed = replay_capture(result.capture_lines)
    bound = [s.bound_msisdn for s in replayed.sessions if s.bound_msisdn]
    assert bound == ["15550000001"]


def test_shipped_scenarios_run_clean():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        result = run(load_scenario(path))
        assert result.capture_lines, path.name


SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


@functools.lru_cache(maxsize=None)
def shipped_capture(stem):
    return tuple(run(load_scenario(SCENARIO_DIR / f"{stem}.json")).capture_lines)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIPPED), st.data())
def test_edited_capture_replays_or_is_refused(stem, data):
    lines = list(shipped_capture(stem))
    if data.draw(st.booleans(), label="truncate"):
        text = "".join(line + "\n" for line in lines).encode()
        lines = text[: data.draw(st.integers(0, len(text)), label="cut")].splitlines()
    else:
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        obj = json.loads(lines[k])
        path, key = data.draw(st.sampled_from(list(_positions(obj))), label="field")
        holder = obj
        for step in path:
            holder = holder[step]
        holder[key] = data.draw(st.sampled_from(HOSTILE) | JSON_VALUES, label="value")
        lines[k] = json.dumps(obj)
    try:
        report = replay_capture(lines)
    except CaptureInvalid:
        return
    assert report.total_frames <= len(lines)


# -- the frame template ------------------------------------------------------------


def test_a_remembered_frame_still_refuses_a_timestamp_past_64_bits():
    engine = Engine(small_scenario())
    mib = Emission(10, 0, Mib(50, 3))
    engine._air(mib, Direction.DOWNLINK, 30, -60.0)
    engine._air(mib, Direction.DOWNLINK, (1 << 64) - 1, -60.0)
    assert json.loads(engine.capture[-1])["t"] == (1 << 64) - 1
    with pytest.raises(InvariantViolation):
        engine._air(mib, Direction.DOWNLINK, 1 << 64, -60.0)
    assert len(engine.capture) == 2


def test_a_template_serves_only_its_own_cell_direction_and_rx(monkeypatch):
    """One Sib1 body from two cells and one preamble from two positions:
    each (cell, direction, rx) gets its own header bytes and line text,
    and the sniffer reads it once and then hears it, whichever of them was
    remembered first."""
    engine = Engine(small_scenario())
    sib1 = Sib1(Plmn("310", "260"), 100, 10, -110)
    fed = []
    spy = SnifferSpy(monkeypatch, lambda sniffer, data, header: fed.append((data, header)))
    frames = [(cell, 0, sib1, Direction.DOWNLINK, rx) for cell in (10, 11) for rx in (-60.0, -71.3)]
    frames += [(10, 0, RachPreamble(7), way, rx) for way in Direction for rx in (-80.04, -95.5)]
    for t, (cell, rnti, msg, way, rx) in enumerate(frames * 2):
        engine._air(Emission(cell, rnti, msg), way, t, rx)
        header = FrameHeader(t, cell, rnti, way)
        data = codec.encode(header, msg)
        assert fed[-1] == (data, header)
        assert engine.capture[-1] == reference_line(data, header, msg, rx)
    assert len(engine._templates) == len(frames) == spy.observed == spy.heard


def test_a_protected_template_serves_only_its_own_key_rnti_cell_direction_and_rx(monkeypatch):
    """One report body under two key_ids and in the clear, from two rntis
    and two cells, both ways, at two rx: each gets its own header bytes
    and line text, a protected one its cleartext key_id and zero filler,
    and the sniffer reads it once and then hears it, whichever of them
    was remembered first."""
    engine = Engine(small_scenario())
    engine.core.keys.update({1: b"\x01" * 16, 2: b"\x02" * 16})
    report = MeasurementReport(((10, -60), (11, -75)))
    fed = []
    spy = SnifferSpy(monkeypatch, lambda sniffer, data, header: fed.append((data, header)))
    frames = [
        (cell, rnti, way, key_id, rx)
        for cell in (10, 11)
        for rnti in (700, 701)
        for way in Direction
        for key_id in (1, 2, None)
        for rx in (-60.0, -71.3)
    ]
    for t, (cell, rnti, way, key_id, rx) in enumerate(frames * 2):
        engine._air(Emission(cell, rnti, report, key_id), way, t, rx)
        header = FrameHeader(t, cell, rnti, way, key_id)
        data = aired(header, report, engine.core.keys)
        assert fed[-1] == (data, header)
        assert engine.capture[-1] == reference_line(data, header, report, rx)
    assert len(engine._templates) == len(frames) == spy.observed == spy.heard


def test_a_protected_frame_under_a_dead_key_raises(monkeypatch):
    """A protected frame must name a live security context, as a keyed
    encode requires, though a run never masks: one that does not is a
    broken invariant, shown to nobody and written nowhere."""
    engine = Engine(small_scenario())
    engine.core.keys.update({1: b"\x01" * 16})
    spy = SnifferSpy(monkeypatch, lambda sniffer, data, header: None)
    with pytest.raises(InvariantViolation, match="key_id 2"):
        engine._air(Emission(10, 700, MeasurementReport(((10, -60),)), 2), Direction.UPLINK, 5, -60.0)
    assert engine.capture == [] and spy.observed == 0


def test_a_frame_of_its_own_the_sniffer_cannot_read_raises():
    """The engine only airs frames it encoded, which the codec reads back,
    so a sniffer that read nothing from one is a broken invariant."""
    engine = Engine(small_scenario())
    engine.sniffer = types.SimpleNamespace(observe=lambda data, header: None)
    with pytest.raises(InvariantViolation):
        engine._air(Emission(10, 0, Mib(50, 3)), Direction.DOWNLINK, 5, -60.0)
    assert engine.capture == []


def test_the_frame_number_wraps_onto_its_slot():
    """A cell's Mib at t carries frame number t // 10 % 1024, and a frame
    number sent again 10.24 s later is written from the same slot."""
    engine = Engine(small_scenario())
    (sib1,) = engine.core.broadcast_tick(40)
    for t in (40, 10280, 10240):
        engine._broadcast(sib1, t, [])
    mibs = [obj for obj in map(json.loads, engine.capture) if obj["type"] == "mib"]
    assert [(obj["t"], obj["body"]["sfn"]) for obj in mibs] == [(40, 4), (10280, 4), (10240, 0)]
    assert len(engine._templates) == 3  # the Mibs of frame numbers 4 and 0, and the Sib1


def test_run_leaves_no_template_behind():
    engine = Engine(small_scenario())
    result = engine.run()
    objs = capture_objs(result)
    assert any(obj.get("rnti") == 0 and obj["type"] == "sib1" for obj in objs)
    assert any(obj.get("dir") == "ul" and obj["prot"] == "protected" for obj in objs)
    assert engine._templates == {} and engine._repeating_bodies == {}
    assert engine._uplink_rx == []


# -- replay against the memo-free reference ---------------------------------------


def repeating(obj):
    """A capture line's (type, body) when it is a cleartext rnti-0 frame."""
    if obj.get("rnti") == 0 and obj.get("prot") == "clear":
        return obj["type"], json.dumps(obj["body"], sort_keys=True)
    return None


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_replay_feeds_the_sniffer_the_memo_free_frames(monkeypatch, name):
    """Read or heard, the sniffer is shown each frame's memo-free bytes and
    their header; it reads each line less its rx and t once and hears
    every later one."""
    lines = run(scenario_named(name)).capture_lines
    fed, encodes = [], [0]
    encode = codec.encode

    def counted(*args):
        encodes[0] += 1
        return encode(*args)

    spy = SnifferSpy(monkeypatch, lambda sniffer, data, header: fed.append((data, header)))
    monkeypatch.setattr(codec, "encode", counted)
    replay_capture(lines)
    monkeypatch.undo()
    frames = [obj for obj in map(json.loads, lines) if "meta" not in obj]
    assert fed == [reconstruct_frame(obj)[::-1] for obj in frames]
    # Encoded: the first sight of each cleartext line less its rx and t.
    clear_less_rx_t = {timeless(obj) for obj in frames if obj["prot"] == "clear"}
    assert len(frames) > 2 * len(clear_less_rx_t)  # broadcasts dominate every run
    assert encodes[0] == len(clear_less_rx_t)
    # Read: the first sight of each line less its rx and t; heard: the rest.
    assert spy.observed == len({timeless(obj) for obj in frames}) and spy.heard > 0


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_live_and_replay_feed_the_sniffer_identical_frames(monkeypatch, name):
    """Read or heard, the live sniffer is shown for each frame line the
    bytes and header replay rebuilds from that line, a protected frame's
    zero filler included."""
    engine = Engine(scenario_named(name))
    engine.sniffer = engine.sniffer or Sniffer()  # frames go on the air either way
    fed = []
    SnifferSpy(monkeypatch, lambda sniffer, data, header: fed.append((data, typed(header))))
    lines = engine.run().capture_lines
    monkeypatch.undo()
    rebuilt = [reconstruct_frame(obj) for obj in map(json.loads, lines) if "meta" not in obj]
    assert fed == [(data, typed(header)) for header, data in rebuilt]
    assert any(header.protected for header, _ in rebuilt)


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_no_run_masks(monkeypatch, name):
    """The keyless sniffer never opens a protected body, so no run masks one."""

    def refuse(seed, data):
        raise AssertionError("a run masked a frame body")

    monkeypatch.setattr(crypto_stub, "keystream_mask", refuse)
    monkeypatch.setattr(codec, "keystream_mask", refuse)
    lines = run(scenario_named(name)).capture_lines
    assert any('"prot":"protected"' in line for line in lines)


def typed(header):
    """A header's fields with their types: True and 1 must not pass for equal."""
    fields = ("timestamp_ms", "cell_id", "rnti", "direction", "key_id")
    return [(type(v), v) for v in (getattr(header, name) for name in fields)]


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_the_sniffer_is_handed_the_header_its_bytes_carry(monkeypatch, name):
    """Live and in replay, every frame reaches the sniffer with its
    producer's header, which must be the one codec.decode_header reads
    from the frame's bytes; a sniffer fed the bytes alone, and the same
    page triggers, must give the identical report."""
    note = Sniffer.note_triggered_page
    shadows, wrong = {}, []  # each spied sniffer -> its bytes-only twin

    def seen(sniffer, data, header):
        if header is None or typed(header) != typed(codec.decode_header(data)):
            wrong.append((data.hex(), header))
        shadows.setdefault(sniffer, Unspied()).observe(data)

    def spy_note(sniffer, t_ms, msisdn):
        note(shadows.setdefault(sniffer, Unspied()), t_ms, msisdn)
        note(sniffer, t_ms, msisdn)

    spy = SnifferSpy(monkeypatch, seen)
    monkeypatch.setattr(Sniffer, "note_triggered_page", spy_note)
    result = run(scenario_named(name))
    replayed = replay_capture(result.capture_lines)
    monkeypatch.undo()
    assert wrong == []
    assert spy.observed > 0 and spy.heard > 0  # both ways in were checked
    reports = [r for r in (result.report, replayed) if r is not None]
    assert [twin.report().as_json() for twin in shadows.values()] == [r.as_json() for r in reports]
    assert replayed.total_frames > 0 and replayed.undecodable == 0


def _twins(value):
    """The same number as another JSON type, or another number of the same."""
    if type(value) is int:
        return [float(value), str(value), value + 1, value - 1, bool(value), not value]
    return []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIPPED), st.data())
def test_edited_repeat_replays_as_without_the_memo(stem, data):
    lines = list(shipped_capture(stem))
    seen, repeats = set(), []
    for k, obj in enumerate(map(json.loads, lines)):
        key = repeating(obj)
        if key is not None:
            if key in seen:
                repeats.append(k)
            seen.add(key)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        k = data.draw(st.sampled_from(repeats), label="repeat")
        obj = json.loads(lines[k])
        path, key = data.draw(st.sampled_from(list(_positions(obj))), label="field")
        holder = obj
        for step in path:
            holder = holder[step]
        values = HOSTILE + _twins(holder[key])
        holder[key] = data.draw(st.sampled_from(values) | JSON_VALUES, label="value")
        lines[k] = json.dumps(obj)
    assert outcome(replay_capture, lines) == outcome(reference_replay, lines)


MIB_LINE = {
    "body": {"bandwidth_rb": 50, "sfn": 4},
    "cell": 10,
    "dir": "dl",
    "len": 4,
    "prot": "clear",
    "rnti": 0,
    "rx": 23.0,
    "t": 40,
    "type": "mib",
}


def mib_twin(t=80, body=None, **changes):
    return json.dumps(dict(MIB_LINE, t=t, body=dict(MIB_LINE["body"], **(body or {})), **changes))


@pytest.mark.parametrize(
    "twin",
    [
        mib_twin(body={"sfn": 4.0}),
        mib_twin(body={"sfn": True}),
        mib_twin(body={"sfn": "4"}),
        mib_twin(len=5),
        mib_twin(len=3),
        mib_twin(len=4.0),
        mib_twin(t=2**64),
        mib_twin(rx=float("nan")),
    ],
    ids=["sfn-float", "sfn-bool", "sfn-string", "len-over", "len-under", "len-float", "t-too-big", "rx-nan"],
)
def test_a_bad_twin_of_a_remembered_mib_is_refused_at_its_line(twin):
    lines = [json.dumps(MIB_LINE), mib_twin(t=60), twin]
    assert replay_capture(lines[:2]).total_frames == 2
    with pytest.raises(CaptureInvalid, match="^line 3: "):
        replay_capture(lines)
    assert outcome(replay_capture, lines) == outcome(reference_replay, lines)


@pytest.mark.parametrize("changes", [{"len": 5}, {"t": 2**64}, {"cell": 1 << 28}])
def test_a_refused_first_sight_is_not_remembered(changes):
    bad = json.loads(mib_twin(**{"t": 40, **changes}))
    with pytest.raises(CaptureInvalid, match="^line 2: "):
        replay_capture([json.dumps(MIB_LINE), json.dumps(bad)])


@pytest.mark.parametrize("name", [[], ["mib"], {}, {"mib": 1}, 1, 1.5, True, None])
def test_a_broadcast_whose_type_is_not_a_string_is_refused(name):
    lines = [json.dumps(MIB_LINE), mib_twin(type=name)]
    with pytest.raises(CaptureInvalid, match="^line 2: "):
        replay_capture(lines)


def test_the_deepest_body_json_reads_is_refused():
    refused = set()
    for depth in range(900, 1100, 7):
        body = "[" * depth + "]" * depth
        line = json.dumps(MIB_LINE).replace('{"bandwidth_rb": 50, "sfn": 4}', body)
        with pytest.raises(CaptureInvalid) as info:
            replay_capture([json.dumps(MIB_LINE), line])
        refused.add("mib:" in str(info.value))
    assert refused == {True, False}  # some bodies were read, then refused by the codec


# -- the replay line memo ------------------------------------------------------


def reference_replay(lines):
    """replay_capture with nothing remembered: every line parsed and rebuilt."""
    sniffer = Sniffer()
    for number, line in enumerate(lines, 1):
        obj = parse_capture_line(number, line)
        if obj is None:
            continue
        try:
            if obj.get("meta") == "page_trigger":
                t, msisdn = obj["t"], obj["msisdn"]
                if type(t) is not int or type(msisdn) is not str:
                    raise CaptureInvalid(f"t, msisdn: expected integer, string, got {t!r}, {msisdn!r}")
                sniffer.note_triggered_page(t, msisdn)
                continue
            header, frame = reconstruct_frame(obj)
        except KeyError as exc:
            raise CaptureInvalid(f"line {number}: missing key {exc}") from None
        except (ValueError, codec.CodecError) as exc:
            raise CaptureInvalid(f"line {number}: {exc}") from None
        sniffer.observe(frame, header)
    return sniffer.report()


def outcome(replay, lines):
    try:
        return replay(lines).as_json()
    except CaptureInvalid as exc:
        return f"CaptureInvalid: {exc}"


def as_bytes(lines, ending=b"\n"):
    """The lines as `ltesim replay` reads them from a file."""
    return [line.encode() + ending for line in lines]


def timeless(obj):
    """A capture line's object but for its rx and t, as JSON text."""
    return json.dumps(dict(obj, rx=None, t=None))


@pytest.fixture
def rebuilt(monkeypatch):
    """The object of each line replay_capture hands to reconstruct_frame."""
    objs, rebuild = [], engine_module.reconstruct_frame

    def spy(obj):
        objs.append(obj)
        return rebuild(obj)

    monkeypatch.setattr(engine_module, "reconstruct_frame", spy)
    return objs


@pytest.mark.parametrize("name", list(oracle_runs()))
def test_replay_remembers_repeating_lines_and_reports_as_the_reference(rebuilt, name):
    lines = run(scenario_named(name)).capture_lines
    want = reference_replay(lines).as_json()
    # Rebuilt: the first sight of each frame line less its rx and t, the
    # protected ones too.
    frames = [obj for obj in map(json.loads, lines) if "meta" not in obj]
    rebuilds = len({timeless(obj) for obj in frames})
    assert rebuilds < len(frames)
    for form in (lines, as_bytes(lines), as_bytes(lines, b"\r\n")):
        rebuilt.clear()
        assert replay_capture(form).as_json() == want
        assert len(rebuilt) == rebuilds


COMPACT_MIB = json.dumps(MIB_LINE, sort_keys=True, separators=(",", ":"))


def retext(old, new):
    assert old in COMPACT_MIB
    return COMPACT_MIB.replace(old, new)


# Text edits of a remembered line: those the memo may serve (a new t or a
# plain rx) and those it must leave to the full path, which accepts some
# and refuses others.
TEXT_TWINS = {
    "same": COMPACT_MIB,
    "later": retext('"t":40', '"t":80'),
    "t-zero": retext('"t":40', '"t":0'),
    "t-19-digits": retext('"t":40', '"t":9999999999999999999'),
    "t-2**64-1": retext('"t":40', f'"t":{2**64 - 1}'),
    "t-2**64": retext('"t":40', f'"t":{2**64}'),
    "t-5000-digits": retext('"t":40', '"t":' + "9" * 5000),
    "t-negative": retext('"t":40', '"t":-40'),
    "t-float": retext('"t":40', '"t":40.0'),
    "t-leading-zero": retext('"t":40', '"t":040'),
    "rx-minus-zero": retext('"rx":23.0', '"rx":-0.0'),
    "rx-negative": retext('"rx":23.0', '"rx":-63.2'),
    "rx-two-decimals": retext('"rx":23.0', '"rx":23.05'),
    "rx-integer": retext('"rx":23.0', '"rx":23'),
    "rx-exponent": retext('"rx":23.0', '"rx":1e1'),
    "rx-huge-exponent": retext('"rx":23.0', '"rx":1e400'),
    "rx-400-digits": retext('"rx":23.0', '"rx":' + "9" * 400 + ".0"),
    "rx-17-digits": retext('"rx":23.0', '"rx":' + "9" * 17 + ".0"),
    "rx-nan": retext('"rx":23.0', '"rx":NaN'),
    "rx-infinity": retext('"rx":23.0', '"rx":-Infinity'),
    "rx-string": retext('"rx":23.0', '"rx":"23.0"'),
    "rx-unicode-digit": retext('"rx":23.0', '"rx":2\u0663.0'),
    "spaces": retext('"rx":23.0,"t":40', '"rx": 23.0, "t": 80'),
    "space-in-body": retext('"sfn":4', '"sfn": 4'),
    "leading-blank": " " + retext('"t":40', '"t":80'),
    "trailing-blanks": retext('"t":40', '"t":80') + " \t",
    "trailing-nbsp": retext('"t":40', '"t":80') + "\u00a0",
    "reordered": retext(',"rx":23.0,"t":40,"type":"mib"}', ',"type":"mib","rx":23.0,"t":80}'),
    "duplicate-t": retext('"t":40', '"t":40,"t":80'),
    "duplicate-rx": retext('"rx":23.0', '"rx":NaN,"rx":23.0'),
    "duplicate-type": retext('"type":"mib"', '"type":"sib1","type":"mib"'),
    "duplicate-len": retext('"len":4', '"len":4,"len":5'),
    "escaped-t": retext('"t":40', '"\\u0074":80'),
    "escaped-type": retext('"type":"mib"', '"type":"\\u006dib"'),
    "escaped-rx": retext('"rx":23.0', '"r\\u0078":23.0'),
    "nested-tail": COMPACT_MIB[:-1] + ',"z":{"rx":1.0,"t":5,"type":"mib"}}',
    "other-body": retext('"sfn":4', '"sfn":5'),
    "other-type": retext('"type":"mib"', '"type":"sib1"'),
    "other-cell": retext('"cell":10', '"cell":11'),
    "other-len": retext('"len":4', '"len":5'),
    "protected": retext('"prot":"clear"', '"prot":"protected"'),
    "device-rnti": retext('"rnti":0', '"rnti":700'),
    "page-trigger": retext('{"body"', '{"meta":"page_trigger","msisdn":"1","body"'),
    "truncated": COMPACT_MIB[:-1],
}


# A protected uplink as the engine writes it, and text edits of it: the
# memo serves a protected line by its text as it serves a cleartext one.
COMPACT_OPAQUE = (
    '{"cell":10,"dir":"ul","key_id":3,"len":12,"prot":"protected","rnti":700,"rx":-63.2,"t":40,"type":"opaque"}'
)


def opaque_retext(old, new):
    assert old in COMPACT_OPAQUE
    return COMPACT_OPAQUE.replace(old, new)


PROTECTED_TWINS = {
    "opaque-same": COMPACT_OPAQUE,
    "opaque-later": opaque_retext('"t":40', '"t":80'),
    "opaque-rx-positive": opaque_retext('"rx":-63.2', '"rx":3.0'),
    "opaque-t-2**64-1": opaque_retext('"t":40', f'"t":{2**64 - 1}'),
    "opaque-t-2**64": opaque_retext('"t":40', f'"t":{2**64}'),
    "opaque-t-20-digits": opaque_retext('"t":40', '"t":99999999999999999999'),
    "opaque-other-key-id": opaque_retext('"key_id":3', '"key_id":4'),
    "opaque-key-id-zero": opaque_retext('"key_id":3', '"key_id":0'),
    "opaque-key-id-float": opaque_retext('"key_id":3', '"key_id":3.0'),
    "opaque-key-id-negative": opaque_retext('"key_id":3', '"key_id":-3'),
    "opaque-key-id-2**32": opaque_retext('"key_id":3', f'"key_id":{2**32}'),
    "opaque-key-id-null": opaque_retext('"key_id":3', '"key_id":null'),
    "opaque-other-len": opaque_retext('"len":12', '"len":13'),
    "opaque-len-under": opaque_retext('"len":12', '"len":3'),
    "opaque-len-float": opaque_retext('"len":12', '"len":12.0'),
    "opaque-len-over": opaque_retext('"len":12', f'"len":{(1 << 17) + 1}'),
    "opaque-other-rnti": opaque_retext('"rnti":700', '"rnti":701'),
    "opaque-rnti-zero": opaque_retext('"rnti":700', '"rnti":0'),
    "opaque-rnti-reserved": opaque_retext('"rnti":700', '"rnti":65535'),
    "opaque-other-dir": opaque_retext('"dir":"ul"', '"dir":"dl"'),
    "opaque-other-cell": opaque_retext('"cell":10', '"cell":11'),
    "opaque-clear": opaque_retext('"prot":"protected"', '"prot":"clear"'),
    "opaque-other-type": opaque_retext('"type":"opaque"', '"type":"mib"'),
    "opaque-rx-nan": opaque_retext('"rx":-63.2', '"rx":NaN'),
    "opaque-duplicate-key-id": opaque_retext('"key_id":3', '"key_id":3,"key_id":4'),
}
TWIN_BASES = dict.fromkeys(TEXT_TWINS, COMPACT_MIB) | dict.fromkeys(PROTECTED_TWINS, COMPACT_OPAQUE)


@pytest.mark.parametrize("form", ["str", "lf", "crlf"])
@pytest.mark.parametrize("twin", list(TEXT_TWINS) + list(PROTECTED_TWINS))
def test_a_text_twin_of_a_remembered_line_replays_as_the_reference(twin, form):
    """The twin follows the remembered line, then follows itself."""
    base, twin = TWIN_BASES[twin], (TEXT_TWINS | PROTECTED_TWINS)[twin]
    for lines in ([base, twin], [twin, twin], [twin, base, twin]):
        if form != "str":
            lines = as_bytes(lines, b"\n" if form == "lf" else b"\r\n")
        assert outcome(replay_capture, lines) == outcome(reference_replay, lines)


NUMBER_TEXTS = (
    st.from_regex(r"-?[0-9]{1,21}(\.[0-9]{0,2})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)
    | st.sampled_from(["NaN", "-Infinity", "1e400", "-0.0", "00.0", "1.", ".5", "\u0663.0", " 1.0", "1.0 "])
    | st.text(max_size=3)
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIPPED), st.data())
def test_retexted_rx_and_t_replay_as_the_reference(stem, data):
    """A broadcast line seen before, its rx and t texts rewritten."""
    lines = list(shipped_capture(stem))
    seen, repeats = set(), []
    for k, obj in enumerate(map(json.loads, lines)):
        if repeating(obj):
            if timeless(obj) in seen:
                repeats.append(k)
            seen.add(timeless(obj))
    k = data.draw(st.sampled_from(repeats), label="line")
    head, _, rest = lines[k].rpartition(',"rx":')
    end = rest.partition(',"t":')[2].partition(",")[2]
    rx, t = data.draw(NUMBER_TEXTS, label="rx"), data.draw(NUMBER_TEXTS, label="t")
    lines[k] = f'{head},"rx":{rx},"t":{t},{end}'
    lines = lines[: k + 20]
    for form in (lines, as_bytes(lines)):
        assert outcome(replay_capture, form) == outcome(reference_replay, form)


def test_a_retimed_twin_skips_the_rebuild(rebuilt):
    lines = [COMPACT_MIB, TEXT_TWINS["later"], TEXT_TWINS["rx-negative"], TEXT_TWINS["t-2**64"]]
    with pytest.raises(CaptureInvalid, match=r"^line 4: timestamp out of range: 18446744073709551616$"):
        replay_capture(lines)
    assert [obj["t"] for obj in rebuilt] == [40, 2**64]


def test_a_retimed_protected_twin_skips_the_rebuild(rebuilt):
    lines = [COMPACT_OPAQUE, PROTECTED_TWINS["opaque-later"], PROTECTED_TWINS["opaque-rx-positive"]]
    lines += [PROTECTED_TWINS["opaque-other-key-id"], PROTECTED_TWINS["opaque-t-2**64"]]
    with pytest.raises(CaptureInvalid, match=r"^line 5: timestamp out of range: 18446744073709551616$"):
        replay_capture(lines)
    assert [(obj["t"], obj["key_id"]) for obj in rebuilt] == [(40, 3), (40, 4), (2**64, 3)]


# -- truth scoring ------------------------------------------------------------------


def score(gt_traj, session_trajs):
    gt = {"trajectories": {"u": gt_traj}}
    report = {
        "sessions": [
            {"session_id": i + 1, "trajectory": traj} for i, traj in enumerate(session_trajs)
        ]
    }
    return diff_tracking(gt, report)


def test_perfect_tracking_scores_one():
    out = score([[10, 500], [11, 900]], [[[10, 500], [11, 900]]])
    assert out["per_ue"]["u"]["continuity"] == 1.0
    assert out["per_ue"]["u"]["session_id"] == 1
    assert out["per_ue"]["u"]["ground_truth_hops"] == 2
    assert out["mean_continuity"] == 1.0


def test_fragments_score_their_best_run():
    out = score(
        [[10, 500], [11, 900], [12, 700]],
        [[[10, 500]], [[11, 900], [12, 700]]],
    )
    assert out["per_ue"]["u"]["continuity"] == pytest.approx(2 / 3)
    assert out["per_ue"]["u"]["session_id"] == 2


def test_wrong_or_noncontiguous_sessions_score_zero():
    out = score(
        [[10, 500], [11, 900]],
        [[[10, 500], [12, 700]], [[10, 500], [11, 901]]],
    )
    assert out["per_ue"]["u"]["continuity"] == 0.0
    assert out["per_ue"]["u"]["session_id"] is None


def test_mean_over_devices():
    gt = {"trajectories": {"a": [[10, 1]], "b": [[10, 2]]}}
    report = {"sessions": [{"session_id": 1, "trajectory": [[10, 1]]}]}
    out = diff_tracking(gt, report)
    assert out["mean_continuity"] == 0.5


def test_ground_truth_collapses_same_cell_rekeys():
    # in-place id changes must not create extra hops in the truth
    result = run(small_scenario())
    traj = result.ground_truth["trajectories"]["anna"]
    cells = [hop[0] for hop in traj]
    assert cells == sorted(set(cells), key=cells.index)  # no repeats in a row


# -- the schedule against full scans ----------------------------------------------


class ScheduleOracle:
    """Checks every processed tick of one engine against the full scans
    the lazy wake and deadline heaps replaced: the devices stepped with
    Tick must be exactly those whose next_wake_ms() is due by a scan of
    every device just before the first of them steps, in device order,
    next_deadline_ms() must equal a scan of every session, and after
    each processed tick, which ticks the core exactly once, so must the
    engine's stored deadline, though it reads the core's only when it
    can have moved."""

    def __init__(self, monkeypatch, engine):
        self.devices = list(engine.ues.values())
        self.wake, step = Ue.next_wake_ms, Ue.step
        tick, deadline, process = NetworkCore.tick, NetworkCore.next_deadline_ms, Engine._process
        self.due, self.ticked, self.now = None, [], None
        self.ticks = self.past_due = 0

        def checked_step(ue, event, now_ms):
            if type(event) is Tick:
                if self.due is None:
                    self.due = self.scan(now_ms)
                self.ticked.append(ue)
            return step(ue, event, now_ms)

        def checked_tick(core, now_ms):  # stage 6: no device steps after stage 3
            due = self.scan(now_ms) if self.due is None else self.due
            assert [u.profile.name for u in self.ticked] == [u.profile.name for u in due], now_ms
            self.due, self.ticked, self.now = None, [], now_ms
            self.ticks += 1
            return tick(core, now_ms)

        def checked_deadline(core):
            got = deadline(core)
            assert got == full_scan_deadline(core), self.now
            return got

        def checked_process(engine, t):
            ticks = self.ticks
            process(engine, t)
            assert self.ticks == ticks + 1, t
            stored = engine._core_deadline
            assert stored == full_scan_deadline(engine.core), t
            self.past_due += stored is not None and stored <= t

        monkeypatch.setattr(Ue, "step", checked_step)
        monkeypatch.setattr(NetworkCore, "tick", checked_tick)
        monkeypatch.setattr(NetworkCore, "next_deadline_ms", checked_deadline)
        monkeypatch.setattr(Engine, "_process", checked_process)

    def scan(self, now_ms):
        return [ue for ue in self.devices if (w := self.wake(ue)) is not None and w <= now_ms]


def catcher_short_window_scenario():
    """The catcher with a window that holds no multiple of its broadcast
    period: it never broadcasts, and must never be asked to."""
    doc = json.loads((SCENARIO_DIR / "imsi_catcher.json").read_text())
    doc["rogue"].update(broadcast_period_ms=100, active_ms=[105, 150])
    return parse_scenario(doc)


SCHEDULE_CASES = [
    *[(path.stem, lambda path=path: load_scenario(path)) for path in sorted(SCENARIO_DIR.glob("*.json"))],
    ("catcher-short-window", catcher_short_window_scenario),
    ("walk", lambda: parse_scenario(walk_scenario(0))),
    ("walk-encrypt", lambda: parse_scenario(walk_scenario(0, encrypt=True))),
    ("walk-refresh", lambda: parse_scenario(walk_scenario(0, refresh=True))),
    ("crowd-30", lambda: parse_scenario(crowd_scenario(30))),
]


@pytest.mark.parametrize("make", [make for _, make in SCHEDULE_CASES], ids=[name for name, _ in SCHEDULE_CASES])
def test_schedule_matches_full_scans(monkeypatch, make):
    engine = Engine(make())
    oracle = ScheduleOracle(monkeypatch, engine)
    engine.run()
    assert oracle.ticks > 0


@pytest.mark.parametrize("make", [make for _, make in SCHEDULE_CASES], ids=[name for name, _ in SCHEDULE_CASES])
def test_nothing_is_asked_for_off_its_instant(monkeypatch, make):
    """A broadcaster is asked for frames only at an instant it broadcasts,
    and every broadcast frame is a Mib and a Sib1 for one of the Sib1s it
    named there; outside `_end_quiet` a device's wake is read no more
    often than devices step: once after each stepped device's steps in a
    tick."""
    counts = dict.fromkeys(("broadcast_tick", "empty", "named", "next_wake_ms", "step"), 0)
    ending_quiet = [False]

    for owner in (NetworkCore, RogueCell):

        def counted_broadcast(cell, now_ms, broadcast_tick=owner.broadcast_tick):
            out = broadcast_tick(cell, now_ms)
            counts["broadcast_tick"] += 1
            counts["empty"] += not out
            counts["named"] += len(out)
            return out

        monkeypatch.setattr(owner, "broadcast_tick", counted_broadcast)
    wake, step, end_quiet = Ue.next_wake_ms, Ue.step, Engine._end_quiet

    def counted_wake(ue):
        counts["next_wake_ms"] += not ending_quiet[0]
        return wake(ue)

    def counted_step(ue, event, now_ms):
        counts["step"] += 1
        return step(ue, event, now_ms)

    def flagged_end_quiet(engine, t):
        ending_quiet[0] = True
        try:
            end_quiet(engine, t)
        finally:
            ending_quiet[0] = False

    monkeypatch.setattr(Ue, "next_wake_ms", counted_wake)
    monkeypatch.setattr(Ue, "step", counted_step)
    monkeypatch.setattr(Engine, "_end_quiet", flagged_end_quiet)
    lines = run(make()).capture_lines
    assert counts["broadcast_tick"] > 0 and counts["empty"] == 0, counts
    broadcasts = sum('"rnti":0,' in line and ('"type":"mib"' in line or '"type":"sib1"' in line) for line in lines)
    assert broadcasts == 2 * counts["named"], counts
    assert 0 < counts["next_wake_ms"] <= counts["step"], counts


def logged_run(monkeypatch, scenario, recheck_always):
    """Capture, ground truth and a per-device log of (t, phase, serving
    cell) after every step, with a repeat of the last entry's state left
    out: a skipped camped recheck is a step that changes neither.
    `recheck_always` turns quiet off, so every camped device rechecks on
    each instant of its 200 ms grid."""
    logs, step = {}, Ue.step

    def logged_step(ue, event, now_ms):
        out = step(ue, event, now_ms)
        log = logs.setdefault(ue.profile.name, [])
        if not log or log[-1][1:] != (ue.phase, ue.serving_cell):
            log.append((now_ms, ue.phase, ue.serving_cell))
        return out

    with monkeypatch.context() as m:
        m.setattr(Ue, "step", logged_step)
        if recheck_always:
            m.setattr(Ue, "_quiet_horizon", lambda ue, now_ms: now_ms)
        result = run(scenario)
    return result.capture_lines, result.ground_truth, logs


def past_due_neighbour_scenario():
    """Two devices on one cell that broadcasts once a second. "far" idles
    out of the rogue's range, so it goes quiet for good. "near" leaves its
    camped cell for the catcher at 8,007 ms and is turned away: searching,
    with its last recheck instant already past, it is past due, so it
    re-attaches at the first instant processed after its 1,000 ms backoff.
    That is one of far's 200 ms rechecks, at 9,207 ms, which far must not
    skip while near is past due: the next broadcast comes at 10,000 ms."""
    rogue = lte_cell(999, 5000, tac=101, earfcn=3350, tx_power_dbm=46.0, broadcast_period_ms=1000)
    rogue.update(mode="imsi_catcher", priority_earfcns=[[3350, 7]], active_ms=[8000, 100_000])
    return parse_scenario(
        {
            "name": "past-due-neighbour",
            "seed": 5,
            "duration_ms": 20000,
            "cells": [lte_cell(10, 0, tac=100, broadcast_period_ms=1000)],
            "rogue": rogue,
            "ues": [subscriber("far", 1, -3000.0), subscriber("near", 2, 4500.0, power_on_ms=70)],
        }
    )


QUIET_CASES = [
    *SCHEDULE_CASES,
    ("benign-day", lambda: parse_scenario(benign_day_scenario())),
    ("crowd-50", lambda: parse_scenario(crowd_scenario(50))),
    ("past-due-neighbour", past_due_neighbour_scenario),
]


@pytest.mark.parametrize("make", [make for _, make in QUIET_CASES], ids=[name for name, _ in QUIET_CASES])
def test_skipped_rechecks_change_nothing(monkeypatch, make):
    always = logged_run(monkeypatch, make(), recheck_always=True)
    shipped = logged_run(monkeypatch, make(), recheck_always=False)
    assert shipped[0] == always[0]
    assert shipped[1] == always[1]
    assert shipped[2] == always[2]


def abandoned_handover_scenario():
    """A device ordered to hand over at 3,885 ms switches to airplane mode
    one tick later, after its access burst at the target: the core's
    session arrives there under the access id (9078) and never completes."""
    mia = subscriber("mia", 1, 50.0, moves=[{"t_ms": 3000, "position": [50.0, 0]}, {"t_ms": 4500, "position": [550.0, 0]}])
    return parse_scenario(
        {
            "name": "abandoned-handover",
            "seed": 3,
            "duration_ms": 12000,
            "cells": [lte_cell(10, 0), lte_cell(11, 600)],
            "ues": [mia],
            "airplane_toggles": [{"t_ms": 3886, "ue": "mia"}],
        }
    )


def test_an_abandoned_handover_lapses_and_its_session_idles(monkeypatch):
    engine = Engine(abandoned_handover_scenario())
    oracle = ScheduleOracle(monkeypatch, engine)
    tick, left = NetworkCore.tick, []

    def watched_tick(core, now_ms):
        held = (11, 9078) in core.active
        tick(core, now_ms)
        if held and (11, 9078) not in core.active:
            left.append(now_ms)

    monkeypatch.setattr(NetworkCore, "tick", watched_tick)
    engine.run()
    assert oracle.past_due == 0  # no deadline at or before the tick just processed
    # the handover lapses at 4,886 ms; the session idles at its own timeout
    assert left == [5085]


def test_every_reserved_radio_id_has_an_owner():
    """At the end of a run each id a core allocator holds belongs to an
    active session, a subscriber's parked id or an open handover, and the
    TMSI index returns each subscriber that holds a TMSI."""
    for name, make in [*SCHEDULE_CASES, ("abandoned-handover", abandoned_handover_scenario)]:
        engine = Engine(make())
        engine.run()
        core = engine.core
        owned = {cell_id: set() for cell_id in core.allocators}
        for cell_id, rnti in core.active:
            owned[cell_id].add(rnti)
        for sub in core.hss.values():
            if sub.parked is not None:
                owned[sub.parked[0]].add(sub.parked[1])
        assert core.by_tmsi == {sub.tmsi: sub for sub in core.hss.values() if sub.tmsi is not None}, name
        for rec in core.active.values():
            if rec.handover is not None:
                owned[rec.handover.target_cell_id].add(rec.handover.final_rnti)
        for cell_id, allocator in core.allocators.items():
            assert allocator.in_use == owned[cell_id], (name, cell_id)


HSS_CASES = [
    *SCHEDULE_CASES,
    ("abandoned-handover", abandoned_handover_scenario),
    ("benign-day", lambda: parse_scenario(benign_day_scenario())),
]


@pytest.mark.parametrize("make", [make for _, make in HSS_CASES], ids=[name for name, _ in HSS_CASES])
def test_the_core_holds_every_device_it_hears(make):
    """What the core relies on to ask no identity and send no reject: at the
    end of a run it has dropped nothing, every session it keeps has
    registered, and each device holding a TMSI finds it bound to its own
    subscriber."""
    engine = Engine(make())
    engine.run()
    core = engine.core
    assert core.drops == {}
    assert all(rec.state is SessionState.REGISTERED for rec in core.active.values())
    for ue in engine.ues.values():
        if ue.tmsi is not None:
            assert core.by_tmsi.get(ue.tmsi) is core.hss[str(ue.profile.imsi)], ue.profile.name


def test_idle_devices_are_not_polled(monkeypatch):
    engine = Engine(parse_scenario(crowd_scenario(100)))
    calls = {"next_wake_ms": 0, "ticks": 0}
    wake, tick = Ue.next_wake_ms, NetworkCore.tick

    def counted_wake(ue):
        calls["next_wake_ms"] += 1
        return wake(ue)

    def counted_tick(core, now_ms):
        calls["ticks"] += 1
        return tick(core, now_ms)

    monkeypatch.setattr(Ue, "next_wake_ms", counted_wake)
    monkeypatch.setattr(NetworkCore, "tick", counted_tick)
    engine.run()
    assert calls["next_wake_ms"] < 0.1 * calls["ticks"] * len(engine.ues), calls


def test_quiet_devices_need_a_third_of_the_ticks(monkeypatch):
    engine = Engine(parse_scenario(crowd_scenario(100)))
    calls, tick = [0], NetworkCore.tick

    def counted_tick(core, now_ms):
        calls[0] += 1
        return tick(core, now_ms)

    monkeypatch.setattr(NetworkCore, "tick", counted_tick)
    engine.run()
    # With every camped device rechecked each 200 ms this crowd processes
    # 20,775 ticks, most of them for those rechecks alone.
    assert calls[0] <= 20_775 // 3, calls


def test_broadcasts_step_only_the_devices_they_change(monkeypatch):
    engine = Engine(parse_scenario(crowd_scenario(100)))
    calls = {"step": 0, "rx_power": 0}
    step, rx_power = Ue.step, engine_module.rx_power

    def counted_step(ue, event, now_ms):
        calls["step"] += 1
        return step(ue, event, now_ms)

    def counted_rx_power(*args):
        calls["rx_power"] += 1
        return rx_power(*args)

    monkeypatch.setattr(Ue, "step", counted_step)
    monkeypatch.setattr(engine_module, "rx_power", counted_rx_power)
    engine.run()
    # Offering every Mib and Sib1 to every powered device in range steps
    # devices 150,500 times on this crowd; rx is computed only for a
    # device the Sib1 would change, about once per link.
    assert calls["step"] < 0.3 * 150_500, calls
    assert calls["rx_power"] <= len(engine.sc.cells) * len(engine.ues), calls


def test_sib1s_ask_a_third_of_the_membership_questions(monkeypatch):
    calls, already_has = [0], Ue.already_has

    def counted(ue, msg):
        calls[0] += 1
        return already_has(ue, msg)

    monkeypatch.setattr(Ue, "already_has", counted)
    run(parse_scenario(crowd_scenario(100)))
    # Asking every powered device about every Sib1 makes 59,702 calls here.
    assert calls[0] <= 59_702 // 3, calls


@pytest.mark.parametrize(
    "make",
    [make for _, make in QUIET_CASES] + [abandoned_handover_scenario],
    ids=[name for name, _ in QUIET_CASES] + ["abandoned-handover"],
)
def test_sib1_subscribers_match_full_scans(monkeypatch, make):
    """Before each Sib1 goes on the air, every Sib1's subscriber set holds
    exactly the powered devices that `Ue.already_has` says it would change."""
    engine = Engine(make())
    broadcast, checked = Engine._broadcast, []

    def checked_broadcast(self, sib1, t, ul_batch):
        assert type(sib1.message) is codec.Sib1 and sib1.rnti == 0
        for _, msg, subs in self._slots.values():
            scan = {
                i
                for i, ue in enumerate(self._devices)
                if ue.phase is not UePhase.POWERED_OFF and not ue.already_has(msg)
            }
            assert subs == scan, (t, msg.cell_id)
        checked.append(t)
        return broadcast(self, sib1, t, ul_batch)

    monkeypatch.setattr(Engine, "_broadcast", checked_broadcast)
    result = engine.run()
    # Every Sib1 frame went through the one broadcast routine.
    assert len(checked) == sum('"type":"sib1"' in line for line in result.capture_lines) > 0


FRAME_CASES = [*SCHEDULE_CASES, ("benign-day", lambda: parse_scenario(benign_day_scenario()))]
DIRECTIVES = (PowerOn, AirplaneToggle, EraseTmsi, AppTraffic, Tick)


@pytest.mark.parametrize("make", [make for _, make in FRAME_CASES], ids=[name for name, _ in FRAME_CASES])
def test_parties_hear_the_emission_they_were_sent(monkeypatch, make):
    """A frame has one shape between parties: each frame a device is
    stepped with is an object that a cell's owner returned from
    broadcast_tick, page or handle_uplink, and each frame an owner
    receives is an object that a device's step returned."""
    downlinks, uplinks = {}, {}  # id -> the object, held so that no id is reused
    wrong, heard = [], [0, 0]

    def sent(method, into):
        def spy(*args):
            out = method(*args)
            into.update((id(frame), frame) for frame in out)
            return out

        return spy

    def check(frame, into, side):
        heard[side] += 1
        if into.get(id(frame)) is not frame:
            wrong.append(frame)

    step = Ue.step

    def checked_step(ue, event, now_ms):
        if type(event) not in DIRECTIVES:
            check(event, downlinks, 0)
        return step(ue, event, now_ms)

    for owner in (NetworkCore, RogueCell):
        handle_uplink = owner.handle_uplink

        def checked_uplink(cell, frame, *rest, handle_uplink=handle_uplink):
            check(frame, uplinks, 1)
            return handle_uplink(cell, frame, *rest)

        monkeypatch.setattr(owner, "handle_uplink", sent(checked_uplink, downlinks))
        monkeypatch.setattr(owner, "broadcast_tick", sent(owner.broadcast_tick, downlinks))
    monkeypatch.setattr(NetworkCore, "page", sent(NetworkCore.page, downlinks))
    monkeypatch.setattr(Ue, "step", sent(checked_step, uplinks))
    Engine(make()).run()
    assert wrong == [] and min(heard) > 0, (wrong[:3], heard)


# sha256 over the captures of walk_scenario(1) under each
# (encrypt_handover_trigger, rnti_refresh_on_idle) setting, then of
# crowd_scenario(50). No shipped scenario turns either defence on, so the
# combined digest never runs them.
DEFENCE_CAPTURES_SHA256 = "5f34d209183f0d92c40168b9ba938efbd1247760438263aa73a9ee8e0e16035f"


def test_defence_variant_captures_are_pinned():
    h = hashlib.sha256()
    for encrypt in (False, True):
        for refresh in (False, True):
            scenario = parse_scenario(walk_scenario(1, encrypt=encrypt, refresh=refresh))
            h.update(run(scenario).capture_text().encode())
    h.update(run(parse_scenario(crowd_scenario(50))).capture_text().encode())
    assert h.hexdigest() == DEFENCE_CAPTURES_SHA256


# sha256 over each run's tracking report then ground truth, as sorted-key
# JSON, for every shipped scenario (by name), walk_scenario(1) under the
# four defence settings, crowd_scenario(50) and benign_day_scenario().
REPORTS_AND_TRUTH_SHA256 = "6d80272798ea5cfcbcbf4cd1c77b5f3c3e8ca2668f3c63faa37e67a813601492"


def test_reports_and_ground_truth_are_pinned():
    scenarios = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.json"))]
    scenarios += [
        parse_scenario(walk_scenario(1, encrypt=encrypt, refresh=refresh))
        for encrypt in (False, True)
        for refresh in (False, True)
    ]
    scenarios += [parse_scenario(crowd_scenario(50)), parse_scenario(benign_day_scenario())]
    h = hashlib.sha256()
    for scenario in scenarios:
        result = run(scenario)
        h.update(json.dumps(result.report.as_json() if result.report else None, sort_keys=True).encode())
        h.update(json.dumps(result.ground_truth, sort_keys=True).encode())
    assert h.hexdigest() == REPORTS_AND_TRUTH_SHA256


HASH_SEED_DIGEST = """
import hashlib, pathlib, sys
from ltesim.engine import run
from ltesim.scenario import load_scenario
h = hashlib.sha256()
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    h.update(run(load_scenario(path)).capture_text().encode())
print(h.hexdigest())
"""


def test_a_held_result_does_not_keep_its_engine_alive():
    engine = Engine(load_scenario(SCENARIO_DIR / "imsi_catcher.json"))
    result = engine.run()
    ref = weakref.ref(engine)
    del engine
    gc.collect()
    assert ref() is None
    assert result.ues["fresh"].phase is not UePhase.POWERED_OFF


def test_captures_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_DIGEST, str(SCENARIO_DIR)],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1", "12345")
    ]
    digests = [proc.communicate(timeout=60)[0].strip() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert len(set(digests)) == 1 and len(digests[0]) == 64, digests


SWEEP_CASES = [
    *SCHEDULE_CASES,
    ("abandoned-handover", abandoned_handover_scenario),
    ("benign-day", lambda: parse_scenario(benign_day_scenario())),
    ("crowd-100", lambda: parse_scenario(crowd_scenario(100))),
]


@pytest.mark.parametrize("make", [make for _, make in SWEEP_CASES], ids=[name for name, _ in SWEEP_CASES])
def test_the_full_sweep_holds_after_every_tick(monkeypatch, make):
    """The core checks its radio ids as it writes them and the engine sweeps
    once per run; the sweep itself still holds after every processed tick."""
    tick, process, swept, processed = NetworkCore.tick, Engine._process, [], []

    def swept_tick(core, now_ms):
        tick(core, now_ms)
        core.check_invariants()
        swept.append(now_ms)

    def counted_process(engine, t):
        processed.append(t)
        process(engine, t)

    monkeypatch.setattr(NetworkCore, "tick", swept_tick)
    monkeypatch.setattr(Engine, "_process", counted_process)
    Engine(make()).run()
    assert swept == processed and len(swept) > 1


def test_the_engine_sweeps_once_after_the_last_tick(monkeypatch):
    sweep, tick, log = NetworkCore.check_invariants, NetworkCore.tick, []

    def logged_sweep(core):
        log.append("sweep")
        sweep(core)

    def logged_tick(core, now_ms):
        log.append("tick")
        tick(core, now_ms)

    monkeypatch.setattr(NetworkCore, "check_invariants", logged_sweep)
    monkeypatch.setattr(NetworkCore, "tick", logged_tick)
    run(load_scenario(SCENARIO_DIR / "handover_tracking.json"))
    assert log.count("sweep") == 1 and log[-1] == "sweep" and log.count("tick") > 1
