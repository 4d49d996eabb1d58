"""Rogue cell behavior and the capture-scanning helper."""

import random

import pytest

from ltesim.attacker import (
    ATTACH_DOS_MODE,
    CATCHER_MODE,
    DOWNGRADE_MODE,
    TAU_DOS_MODE,
    NoBroadcastFound,
    RogueCell,
    RogueCellConfig,
    scan_broadcast,
)
from ltesim.codec import (
    AttachReject,
    AttachRequest,
    AuthenticationResponse,
    Direction,
    EmmCause,
    FrameHeader,
    IdentityRequest,
    IdentityResponse,
    MacRar,
    MeasurementReport,
    Mib,
    RachPreamble,
    RrcConnectionRequest,
    RrcConnectionSetup,
    Sib1,
    TauReject,
    TauRequest,
)
from ltesim.identity import CellIdentity, Plmn, parse_imsi
from ltesim.radio import RadioCell

PLMN = Plmn("310", "260")
IMSI = parse_imsi("310260000000001")


def rogue(mode=CATCHER_MODE, **overrides):
    radio = RadioCell(CellIdentity(999, 101, PLMN, 3350), (5.0, 0.0), 46.0, is_rogue=True)
    cfg = RogueCellConfig(radio, mode, **overrides)
    return RogueCell(cfg, random.Random(3))


def ul(cell, rnti, msg, t=100):
    return cell.handle_uplink(FrameHeader(t, cell.cell_id, rnti, Direction.UPLINK), msg, t)


def open_session(cell, tmsi=None, t=100):
    out = ul(cell, 0, RachPreamble(9), t)
    rnti = out[0].message.temp_rnti
    req = RrcConnectionRequest(tmsi=tmsi) if tmsi is not None else RrcConnectionRequest(random_id=7)
    out = ul(cell, rnti, req, t)
    assert isinstance(out[0].message, RrcConnectionSetup)
    return rnti


@pytest.mark.parametrize("mode", [ATTACH_DOS_MODE, TAU_DOS_MODE, DOWNGRADE_MODE])
def test_reject_modes_ignore_a_measurement_report(mode):
    cell = rogue(mode)
    rnti = open_session(cell)
    assert ul(cell, rnti, MeasurementReport(((999, -60),))) == []
    assert rnti in cell.sessions and cell.rejects_sent == {}


def test_unknown_mode_refused():
    with pytest.raises(ValueError):
        rogue(mode="jammer")


def test_broadcast_mimics_an_operator_cell():
    cell = rogue(priority_earfcns=((3350, 7),))
    out = cell.broadcast_tick(40)
    assert [type(d.message) for d in out] == [Mib, Sib1]
    sib = out[1].message
    assert sib.cell_id == 999 and sib.tac == 101 and sib.plmn == PLMN
    assert sib.priority_earfcns == ((3350, 7),)
    assert cell.broadcast_tick(0) == []
    assert cell.broadcast_tick(41) == []


def test_active_window_gates_everything():
    cell = rogue(active_ms=(1000, 2000))
    assert cell.broadcast_tick(960) == []
    assert cell.broadcast_tick(1000) != []
    assert cell.broadcast_tick(2000) == []  # half-open on the right
    assert ul(cell, 0, RachPreamble(1), t=500) == []
    assert cell.next_broadcast_ms(0) == 1000
    assert cell.next_broadcast_ms(1000) == 1040
    assert cell.next_broadcast_ms(1999) is None


def test_catcher_harvests_cleartext_imsi():
    cell = rogue()
    rnti = open_session(cell)
    out = ul(cell, rnti, AttachRequest(imsi=IMSI), t=150)
    assert isinstance(out[0].message, AttachReject)
    assert out[0].message.emm_cause is EmmCause.CONGESTION_BENIGN
    assert [(e.t_ms, e.imsi) for e in cell.catcher_log] == [(150, str(IMSI))]
    assert cell.rejects_sent == {"congestion_benign": 1}


def test_catcher_pulls_identity_behind_a_tmsi():
    cell = rogue()
    rnti = open_session(cell, tmsi=0xAABBCCDD)
    out = ul(cell, rnti, AttachRequest(tmsi=0xAABBCCDD))
    assert isinstance(out[0].message, IdentityRequest)
    out = ul(cell, rnti, IdentityResponse(imsi=IMSI), t=180)
    assert isinstance(out[0].message, AttachReject)
    entry = cell.catcher_log[0]
    assert entry.imsi == str(IMSI) and entry.tmsi == 0xAABBCCDD


def test_catcher_logs_each_subscriber_once():
    cell = rogue()
    for t in (100, 300):
        rnti = open_session(cell, t=t)
        ul(cell, rnti, AttachRequest(imsi=IMSI), t=t)
    assert len(cell.catcher_log) == 1
    assert cell.rejects_sent["congestion_benign"] == 2


def test_catcher_handles_tau_too():
    cell = rogue()
    rnti = open_session(cell, tmsi=0x11112222)
    out = ul(cell, rnti, TauRequest(0x11112222, 101))
    assert isinstance(out[0].message, IdentityRequest)


def test_attach_dos_sends_the_configured_cause():
    cell = rogue(mode=ATTACH_DOS_MODE, reject_cause=EmmCause.PLMN_NOT_ALLOWED)
    rnti = open_session(cell)
    out = ul(cell, rnti, AttachRequest(imsi=IMSI))
    assert isinstance(out[0].message, AttachReject)
    assert out[0].message.emm_cause is EmmCause.PLMN_NOT_ALLOWED
    rnti = open_session(cell)
    out = ul(cell, rnti, TauRequest(0x1, 101))
    assert isinstance(out[0].message, TauReject)
    assert cell.rejects_sent["plmn_not_allowed"] == 2


def test_tau_dos_bounces_plain_attaches_benignly():
    cell = rogue(mode=TAU_DOS_MODE, reject_cause=EmmCause.EPS_SERVICES_NOT_ALLOWED)
    rnti = open_session(cell)
    out = ul(cell, rnti, TauRequest(0x1, 101))
    assert out[0].message.emm_cause is EmmCause.EPS_SERVICES_NOT_ALLOWED
    rnti = open_session(cell)
    out = ul(cell, rnti, AttachRequest(imsi=IMSI))
    assert isinstance(out[0].message, AttachReject)
    assert out[0].message.emm_cause is EmmCause.CONGESTION_BENIGN


def test_downgrade_always_speaks_eps_services_not_allowed():
    cell = rogue(mode=DOWNGRADE_MODE, reject_cause=EmmCause.PLMN_NOT_ALLOWED)
    rnti = open_session(cell)
    out = ul(cell, rnti, AttachRequest(imsi=IMSI))
    assert out[0].message.emm_cause is EmmCause.EPS_SERVICES_NOT_ALLOWED


def test_reject_releases_the_radio_id():
    cell = rogue(mode=ATTACH_DOS_MODE)
    rnti = open_session(cell)
    ul(cell, rnti, AttachRequest(imsi=IMSI))
    assert rnti not in cell.allocator.in_use
    assert rnti not in cell.sessions


def test_unsolicited_messages_ignored():
    cell = rogue()
    assert ul(cell, 4242, AttachRequest(imsi=IMSI)) == []
    rnti = open_session(cell)
    assert ul(cell, rnti, AuthenticationResponse(b"\x00" * 8)) == []


def test_nothing_is_ever_protected():
    cell = rogue(mode=ATTACH_DOS_MODE)
    frames = cell.broadcast_tick(40)
    rnti = open_session(cell)
    frames += ul(cell, rnti, AttachRequest(imsi=IMSI))
    assert all(d.key_id is None for d in frames)


# -- scan_broadcast --------------------------------------------------------------


def sib1_line(cell_id, rx, tac=100, priority=None, mcc="310", mnc="260"):
    body = {
        "plmn": {"mcc": mcc, "mnc": mnc},
        "tac": tac,
        "cell_id": cell_id,
        "min_rx_level_dbm": -110,
        "priority_earfcns": priority or [],
    }
    return {"type": "sib1", "dir": "dl", "rx": rx, "body": body}


def test_scan_ranks_by_strength():
    ranked, draft = scan_broadcast(
        [
            sib1_line(10, -70.0),
            sib1_line(11, -50.0),
            sib1_line(10, -60.0),  # later, stronger sighting of 10
        ]
    )
    assert [c.cell_id for c in ranked] == [11, 10]
    assert ranked[1].best_rx_dbm == -60.0
    assert ranked[1].sightings == 2
    assert draft.mimics == 11


def test_scan_draft_fields():
    ranked, draft = scan_broadcast([sib1_line(10, -50.0, tac=300, priority=[[1850, 4], [3350, 6]])])
    assert draft.plmn == PLMN
    assert draft.tac == 301  # next area over, forces a tracking update
    assert draft.cell_id == 11  # unused
    assert draft.earfcn == 3350  # the operator's own steering target
    assert draft.priority_earfcns == ((3350, 7),)
    json = draft.as_json()
    assert json["mimics_cell"] == 10
    assert json["plmn"] == {"mcc": "310", "mnc": "260"}


def test_scan_without_priorities_defaults_channel_zero():
    _, draft = scan_broadcast([sib1_line(10, -50.0)])
    assert draft.earfcn == 0
    assert draft.priority_earfcns == ((0, 7),)


def test_scan_ignores_everything_else():
    lines = [
        {"type": "mib", "rx": -50.0, "body": {}},
        {"type": "sib1", "body": {}},  # no rx measurement
        {"type": "opaque", "rx": -50.0},
    ]
    with pytest.raises(NoBroadcastFound):
        scan_broadcast(lines)


def test_scan_ignores_an_uplink_sib1():
    uplink = dict(sib1_line(11, -40.0), dir="ul")
    ranked, draft = scan_broadcast([sib1_line(10, -70.0), uplink])
    assert [c.cell_id for c in ranked] == [10]
    assert draft.mimics == 10
    with pytest.raises(NoBroadcastFound):
        scan_broadcast([uplink])
