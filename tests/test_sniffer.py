"""Passive observer: linking rules, paging correlation, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from ltesim import codec
from ltesim.codec import (
    Direction,
    FrameHeader,
    MacRar,
    Mib,
    MobilityControlInfo,
    Paging,
    RrcConnectionReconfiguration,
    Sib1,
    UserData,
)
from ltesim.crypto_stub import derive_keystream_seed
from ltesim.engine import run
from ltesim.identity import Plmn, parse_imsi
from ltesim.scenario import parse_scenario
from ltesim.sniffer import HANDOVER_WATCH_MS, PAGE_CORRELATE_MS, Sniffer

from tests.scenario_builders import lte_cell, subscriber

KEYS = {1: derive_keystream_seed(b"\x42" * 16, 1)}


def frame(t, cell, rnti, msg, direction=Direction.UPLINK, key_id=None):
    header = FrameHeader(t, cell, rnti, direction, key_id=key_id)
    return codec.encode(header, msg, KEYS if key_id is not None else None)


def dl(t, cell, rnti, msg, key_id=None):
    return frame(t, cell, rnti, msg, Direction.DOWNLINK, key_id)


def feed(sniffer, *frames):
    for f in frames:
        sniffer.observe(f)


def sole_session(sniffer):
    sessions = sniffer.report().sessions
    assert len(sessions) == 1
    return sessions[0]


def test_frames_group_by_cell_and_rnti():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(8)),
        frame(200, 10, 500, UserData(8)),
        frame(200, 10, 501, UserData(8)),
    )
    report = s.report()
    assert len(report.sessions) == 2
    assert report.total_frames == 3
    first = report.sessions[0]
    assert first.trajectory == [(10, 500)]
    assert first.frames == 2
    assert first.first_seen_ms == 100 and first.last_seen_ms == 200


def test_byte_accounting_by_direction():
    s = Sniffer()
    up = frame(100, 10, 500, UserData(8))
    down = dl(150, 10, 500, UserData(8))
    feed(s, up, down)
    session = sole_session(s)
    assert session.ul_bytes == len(up) - codec.HEADER_LEN
    assert session.dl_bytes == len(down) - codec.HEADER_LEN


def test_broadcast_frames_are_not_sessions():
    s = Sniffer()
    feed(s, dl(100, 10, 0, Paging(tmsi=0x1234)))
    report = s.report()
    assert report.sessions == []
    assert report.pages_seen == 1
    assert report.total_frames == 1


def test_undecodable_input_counted_and_skipped():
    s = Sniffer()
    s.observe(b"\x00" * 4)
    good = frame(100, 10, 500, UserData(1))
    s.observe(good[:-1] + b"\xff\xff")  # trailing garbage
    feed(s, good)
    report = s.report()
    assert report.undecodable == 2
    assert report.total_frames == 1


def test_opaque_frames_still_count():
    s = Sniffer()
    feed(s, frame(100, 10, 500, UserData(8), key_id=1))
    session = sole_session(s)
    assert session.frames == 1
    assert session.ul_bytes > 0


def test_single_pending_handover_links_across_cells():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(1)),
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(240, 11, 700, MacRar(700)),
        dl(280, 11, 700, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
    )
    session = sole_session(s)
    assert session.trajectory == [(10, 500), (11, 900)]


def test_protected_trigger_breaks_the_chain():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(1)),
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900)), key_id=1),
        dl(240, 11, 700, MacRar(700)),
    )
    report = s.report()
    assert len(report.sessions) == 2
    assert [sess.trajectory for sess in report.sessions] == [[(10, 500)], [(11, 700)]]


def test_stale_watch_expires():
    s = Sniffer()
    feed(
        s,
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(200 + HANDOVER_WATCH_MS + 1, 11, 700, MacRar(700)),
    )
    assert len(s.report().sessions) == 2


def test_ambiguous_arrivals_resolved_by_the_named_id():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(1)),
        frame(100, 10, 501, UserData(1)),
        # two devices leave for cell 11 in the same window
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(200, 10, 501, RrcConnectionReconfiguration(MobilityControlInfo(11, 901))),
        dl(240, 11, 700, MacRar(700)),
        dl(240, 11, 701, MacRar(701)),
        # the re-keys reveal which arrival was which
        dl(280, 11, 700, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(280, 11, 701, RrcConnectionReconfiguration(MobilityControlInfo(11, 901))),
    )
    # the temp hop is renamed by the in-place re-key, so only the final
    # ids survive in the trajectories
    trajectories = sorted(sess.trajectory for sess in s.report().sessions)
    assert trajectories == [
        [(10, 500), (11, 900)],
        [(10, 501), (11, 901)],
    ]


def test_first_frame_under_the_named_id_links_too():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(1)),
        frame(100, 10, 501, UserData(1)),
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(200, 10, 501, RrcConnectionReconfiguration(MobilityControlInfo(11, 901))),
        frame(300, 11, 900, UserData(1)),
    )
    trajectories = sorted(sess.trajectory for sess in s.report().sessions)
    assert [(10, 500), (11, 900)] in trajectories


def test_inplace_rekey_to_a_known_id_merges_histories():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(4)),  # the device before it idled
        dl(8000, 10, 600, MacRar(600)),  # it wakes under a throwaway id
        frame(8001, 10, 600, UserData(4)),
        # network hands back the parked id: provably the same device
        dl(8002, 10, 600, RrcConnectionReconfiguration(MobilityControlInfo(10, 500))),
    )
    session = sole_session(s)
    assert session.trajectory == [(10, 500)]
    assert session.frames == 4
    assert session.first_seen_ms == 100 and session.last_seen_ms == 8002


def test_inplace_rekey_to_a_fresh_id_renames_the_hop():
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 600, UserData(4)),
        dl(150, 10, 600, RrcConnectionReconfiguration(MobilityControlInfo(10, 4321))),
        frame(200, 10, 4321, UserData(4)),
    )
    session = sole_session(s)
    assert session.trajectory == [(10, 4321)]
    assert session.frames == 3


def test_page_then_single_arrival_binds_identity():
    s = Sniffer()
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 700, MacRar(700)),
    )
    session = sole_session(s)
    assert session.bound_identity == "tmsi:aabb0011"
    assert session.bound_msisdn is None


def test_triggered_page_carries_the_dialed_number():
    s = Sniffer()
    s.note_triggered_page(990, "15550000001")
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 700, MacRar(700)),
    )
    session = sole_session(s)
    assert session.bound_msisdn == "15550000001"


def test_two_arrivals_make_the_page_guesswork():
    s = Sniffer()
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 700, MacRar(700)),
        dl(1060, 10, 701, MacRar(701)),
    )
    assert all(sess.bound_identity is None for sess in s.report().sessions)


def test_second_arrival_after_the_window_keeps_the_bind():
    s = Sniffer()
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 700, MacRar(700)),
        dl(1000 + PAGE_CORRELATE_MS + 1, 10, 701, MacRar(701)),
    )
    bound = [sess.bound_identity for sess in s.report().sessions]
    assert bound == ["tmsi:aabb0011", None]


def wake_to_a_parked_id_after_a_page(*later):
    """A page, one arrival that is bound to it, then the in-place re-key
    that merges the arrival into the device's history from before idle."""
    s = Sniffer()
    s.note_triggered_page(990, "15550000001")
    feed(
        s,
        frame(100, 10, 500, UserData(4)),
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 700, MacRar(700)),
        dl(1042, 10, 700, RrcConnectionReconfiguration(MobilityControlInfo(10, 500))),
        *later,
    )
    return s


def test_a_page_bind_moves_with_a_merge():
    session = sole_session(wake_to_a_parked_id_after_a_page())
    assert session.trajectory == [(10, 500)]
    assert (session.bound_identity, session.bound_msisdn) == ("tmsi:aabb0011", "15550000001")


def test_a_page_bind_revoked_after_a_merge_leaves_the_keeper_unbound():
    s = wake_to_a_parked_id_after_a_page(dl(1100, 10, 701, MacRar(701)))
    assert [(sess.bound_identity, sess.bound_msisdn) for sess in s.report().sessions] == [(None, None)] * 2


@pytest.mark.parametrize("refresh", [False, True])
def test_a_second_arrival_unbinds_a_woken_device(refresh):
    """Two idle devices on one cell: a is paged at 12,000 ms and b sends
    data at 12,100 ms, inside the page's window. Without refresh, a's wake
    merges into its pre-idle session; with it, a returns under a new id."""
    scenario = parse_scenario(
        {
            "name": "page-then-data",
            "seed": 1,
            "duration_ms": 14000,
            "cells": [lte_cell(10, 0, rnti_refresh_on_idle=refresh)],
            "ues": [
                subscriber("a", 1, 50.0),
                subscriber("b", 2, 80.0, app_traffic=[{"t_ms": 12100, "bytes": 40}]),
            ],
            "page_calls": [{"t_ms": 12000, "msisdn": "15550000001"}],
            "sniffer": True,
        }
    )
    sessions = run(scenario).report.sessions
    assert len(sessions) == (4 if refresh else 2)
    assert all(sess.bound_identity is None and sess.bound_msisdn is None for sess in sessions)


def test_a_handover_that_names_its_own_source_links_nothing():
    """Two handovers are watched for one device. The first links it to
    cell 11; an in-place re-key there then names the second watch's id,
    whose source is the device itself, so the watch closes unmerged."""
    s = Sniffer()
    feed(
        s,
        frame(100, 10, 500, UserData(1)),
        dl(200, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 900))),
        dl(210, 10, 500, RrcConnectionReconfiguration(MobilityControlInfo(11, 901))),
        frame(300, 11, 900, UserData(1)),
        dl(320, 11, 900, RrcConnectionReconfiguration(MobilityControlInfo(11, 901))),
        dl(400, 11, 702, MacRar(702)),  # no watch left for it to close
    )
    sessions = s.report().sessions
    assert [(sess.trajectory, sess.frames) for sess in sessions] == [([(10, 500), (11, 901)], 5), ([(11, 702)], 1)]


def test_a_bind_merged_into_a_bound_keeper_leaves_it_its_own_number():
    """A device bound by one page idles; a second page's arrival is bound,
    then re-keys in place to the device's parked id. The keeper keeps its
    own identity and number, and a second arrival in the second page's
    window changes neither."""
    s = Sniffer()
    s.note_triggered_page(990, "15550000001")
    s.note_triggered_page(2990, "15550000002")
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1040, 10, 500, MacRar(500)),
        dl(3000, 10, 0, Paging(tmsi=0xAABB0022)),
        dl(3040, 10, 700, MacRar(700)),
        dl(3042, 10, 700, RrcConnectionReconfiguration(MobilityControlInfo(10, 500))),
        dl(3100, 10, 701, MacRar(701)),
    )
    assert [(sess.trajectory, sess.bound_identity, sess.bound_msisdn) for sess in s.report().sessions] == [
        ([(10, 500)], "tmsi:aabb0011", "15550000001"),
        ([(10, 701)], None, None),
    ]


def test_an_arrival_after_a_second_in_the_window_binds_nothing():
    """Two pages on one cell make the first arrival guesswork; once the
    first page's window closes, the second page is the only candidate,
    but it has seen two arrivals, so the later one is not bound either."""
    s = Sniffer()
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1300, 10, 0, Paging(tmsi=0xAABB0022)),
        dl(1350, 10, 700, MacRar(700)),
        dl(1000 + PAGE_CORRELATE_MS + 100, 10, 701, MacRar(701)),
    )
    sessions = s.report().sessions
    assert len(sessions) == 2
    assert all(sess.bound_identity is None for sess in sessions)


def test_late_arrival_is_not_correlated():
    s = Sniffer()
    feed(
        s,
        dl(1000, 10, 0, Paging(tmsi=0xAABB0011)),
        dl(1000 + PAGE_CORRELATE_MS + 1, 10, 700, MacRar(700)),
    )
    assert sole_session(s).bound_identity is None


def test_page_by_permanent_identity_formats_accordingly():
    s = Sniffer()
    from ltesim.identity import parse_imsi

    feed(
        s,
        dl(1000, 10, 0, Paging(imsi=parse_imsi("310260000000001"))),
        dl(1040, 10, 700, MacRar(700)),
    )
    assert sole_session(s).bound_identity == "imsi:310260000000001"


def test_report_json_shape():
    s = Sniffer()
    feed(s, frame(100, 10, 500, UserData(1)))
    data = s.report().as_json()
    assert set(data) == {"sessions", "total_frames", "undecodable", "pages_seen"}
    sess = data["sessions"][0]
    assert sess["trajectory"] == [[10, 500]]
    assert sess["session_id"] == 1


# -- the broadcast memo ------------------------------------------------------------


class FullDecodeSniffer(Sniffer):
    """The observer with every frame decoded in full: nothing remembered."""

    def _decode(self, data, header=None):
        return codec.decode(data)


# (rnti, direction, message, key_id): broadcasts to repeat, a device to
# page, and a protected broadcast whose body region a cleartext copy reuses.
POOL = [
    (0, Direction.DOWNLINK, Mib(25, 0), None),
    (0, Direction.DOWNLINK, Mib(25, 1), None),
    (0, Direction.DOWNLINK, Sib1(Plmn("310", "260"), 300, 10, -110, ((1850, 3),)), None),
    (0, Direction.DOWNLINK, Paging(tmsi=0xAABB0011), None),
    (0, Direction.DOWNLINK, Paging(imsi=parse_imsi("310260000000001")), None),
    (0, Direction.DOWNLINK, Paging(tmsi=0x00C0FFEE), 1),
    (700, Direction.DOWNLINK, MacRar(700), None),
    (701, Direction.DOWNLINK, MacRar(701), None),
    (700, Direction.UPLINK, UserData(4), None),
]
# Each frame is seen as sent, then, unless its edit is None, again with
# one edit: a body byte flipped (the type byte, the next, the last), a
# header field rewritten at (offset, width) to a value that moves the
# frame in or out of the broadcast class or that the codec refuses, or
# the frame cut inside its header.
EDITS = [
    None,
    ("body", codec.HEADER_LEN, 0x01),
    ("body", codec.HEADER_LEN + 1, 0xFF),
    ("body", -1, 0x80),
    ("header", 8, 4, 1 << 28),
    ("header", 12, 2, 0),
    ("header", 12, 2, 700),
    ("header", 12, 2, 0xFFFF),
    ("header", 14, 1, 1),
    ("header", 14, 1, 2),
    ("header", 15, 1, 0),
    ("header", 15, 1, 1),
    ("header", 15, 1, 2),
    ("truncate",),
]


def edited(data, edit):
    if edit is None:
        return data
    if edit[0] == "truncate":
        return data[: codec.HEADER_LEN - 1]
    out = bytearray(data)
    if edit[0] == "body":
        out[edit[1]] ^= edit[2]
    else:
        _, at, width, value = edit
        out[at : at + width] = value.to_bytes(width, "big")
    return bytes(out)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 300), st.sampled_from(POOL), st.sampled_from((10, 11)), st.sampled_from(EDITS)),
        min_size=10,
        max_size=60,
    )
)
def test_remembered_broadcasts_report_as_full_decoding_does(stream):
    """`handed` gets each copy with the header its bytes carry, as a
    frame's producer hands it over, or the bytes alone when they carry
    no valid header. `reheard` hears each copy whose bytes after `t` it
    has read before, from what it read then, and reads the others."""
    memo, full, handed, reheard = Sniffer(), FullDecodeSniffer(), Sniffer(), Sniffer()
    read = {}  # bytes after t -> what `reheard` read from them
    t = 1000
    for dt, (rnti, direction, msg, key_id), cell, edit in stream:
        t += dt
        data = frame(t, cell, rnti, msg, direction, key_id)
        for copy in (data, edited(data, edit)) if edit else (data,):
            memo.observe(copy)
            full.observe(copy)
            handed.observe(copy, header_or_none(copy))
            if copy[8:] in read:
                reheard.hear(t, read[copy[8:]])
            elif (heard := reheard.observe(copy, header_or_none(copy))) is not None:
                read[copy[8:]] = heard
    want = full.report()
    for got in (memo.report(), handed.report(), reheard.report()):
        assert (got.undecodable, got.total_frames, got.pages_seen) == (
            want.undecodable,
            want.total_frames,
            want.pages_seen,
        )
        assert got.as_json() == want.as_json()


def header_or_none(data):
    try:
        return codec.decode_header(data)
    except codec.CodecError:
        return None


def test_a_protected_body_is_never_decoded(monkeypatch):
    """A keyless observer reads a protected frame's header and length
    only; one cut inside its header or key_id still counts as undecodable."""

    def refuse(*args, **kwargs):
        raise AssertionError("a protected body reached the decoder")

    report, page = frame(100, 10, 500, UserData(8), key_id=1), dl(120, 10, 0, Paging(tmsi=7), key_id=1)
    monkeypatch.setattr(codec, "decode", refuse)
    monkeypatch.setattr(codec, "decode_body", refuse)
    s = Sniffer()
    heard = s.observe(report)
    assert heard == (10, 500, Direction.UPLINK, len(report) - codec.HEADER_LEN, None)
    assert s.observe(page, codec.decode_header(page))[-1] is None
    assert s.observe(report[: codec.HEADER_LEN + 3]) is None  # cut inside its key_id
    assert s.observe(report[: codec.HEADER_LEN - 1]) is None
    s.hear(130, heard)
    assert (s.total_frames, s.undecodable, s.pages_seen) == (3, 2, 0)
    assert sole_session(s).ul_bytes == 2 * (len(report) - codec.HEADER_LEN)


def test_a_refused_broadcast_body_counts_every_time_it_is_seen():
    good = dl(100, 10, 0, Mib(25, 7))
    bad_body = good[:17] + b"\x18" + good[18:]  # 24 resource blocks is no Mib bandwidth
    bad_header = good[:14] + b"\x02" + good[15:]  # no such direction
    s = Sniffer()
    feed(s, bad_body, bad_body)
    assert (s.undecodable, s.total_frames) == (2, 0)
    feed(s, good, bad_header, good, bad_body)
    assert (s.undecodable, s.total_frames) == (4, 2)
