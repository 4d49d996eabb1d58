"""Passive observer: linking rules, paging correlation, accounting."""

import pytest

from ltesim import codec
from ltesim.codec import (
    Direction,
    FrameHeader,
    MacRar,
    MobilityControlInfo,
    Paging,
    RrcConnectionReconfiguration,
    UserData,
)
from ltesim.crypto_stub import derive_keystream_seed
from ltesim.engine import run
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
