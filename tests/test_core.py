"""Network core driven directly, with the test playing the device side."""

import ast
import copy
import pathlib
import random

import pytest

from ltesim.codec import (
    AttachAccept,
    AttachRequest,
    AuthenticationRequest,
    AuthenticationResponse,
    IdentityResponse,
    MacRar,
    MeasurementReport,
    Mib,
    Paging,
    RachPreamble,
    RrcConnectionReconfiguration,
    RrcConnectionReconfigurationComplete,
    RrcConnectionRequest,
    RrcConnectionSetup,
    SecurityModeCommand,
    SecurityModeComplete,
    Sib1,
    TauRequest,
    UserData,
)
from ltesim.core import (
    HO_PENDING_MS,
    CellConfig,
    InvariantViolation,
    NetworkCore,
    SessionRecord,
    SessionState,
    UnknownSubscriber,
)
from ltesim import core as core_module
from ltesim.crypto_stub import stub_mac
from ltesim.identity import RNTI_MAX, RNTI_MIN, CellIdentity, Plmn, parse_imsi
from ltesim.prng import child_rng
from ltesim.radio import RadioCell
from ltesim.ue import IDLE_AFTER_MS, Emission, UeProfile

PLMN = Plmn("310", "260")
IMSI = parse_imsi("310260000000001")
KEY = b"\x42" * 16
IMEI = "990000000000001"


def cell(cell_id, tac=100, x=0.0, **overrides):
    radio = RadioCell(CellIdentity(cell_id, tac, PLMN, 1850), (x, 0.0), 43.0)
    return CellConfig(radio, **overrides)


def build(cells=None, subscribers=None, seed=9):
    cells = cells if cells is not None else [cell(10, rnti_preset=(500, 501, 502))]
    subs = subscribers if subscribers is not None else [UeProfile(IMSI, KEY, "15550000001", IMEI)]
    return NetworkCore(cells, subs, lambda path: child_rng(seed, path))


def build_bound(tmsi=0xCAFE0001):
    """A core whose one subscriber holds a TMSI from an earlier session."""
    return build(subscribers=[UeProfile(IMSI, KEY, "15550000001", IMEI, initial_tmsi=tmsi)])


def ul(core, cell_id, rnti, msg, t=0):
    return core.handle_uplink(Emission(cell_id, rnti, msg), t)


def run_ladder(core, cell_id=10, t=0, identity=None, imsi=IMSI):
    """Attach from scratch; returns (rnti, key_id, tmsi)."""
    out = ul(core, cell_id, 0, RachPreamble(7), t)
    rnti = out[0].message.temp_rnti
    ul(core, cell_id, rnti, RrcConnectionRequest(random_id=12345), t)
    out = ul(core, cell_id, rnti, identity or AttachRequest(imsi=imsi), t)
    assert isinstance(out[0].message, AuthenticationRequest)
    res = stub_mac(KEY, out[0].message.rand)
    out = ul(core, cell_id, rnti, AuthenticationResponse(res), t)
    assert isinstance(out[0].message, SecurityModeCommand)
    key_id = out[0].message.key_id
    out = ul(core, cell_id, rnti, SecurityModeComplete(), t)
    accept = out[0]
    assert isinstance(accept.message, AttachAccept)
    assert accept.key_id == key_id  # accept rides the fresh context
    return rnti, key_id, accept.message.tmsi


# -- broadcast -----------------------------------------------------------------


def test_broadcast_skips_time_zero():
    core = build()
    assert core.broadcast_tick(0) == []


def test_broadcast_period_and_contents():
    """A due cell names its Sib1, the same object each time; the engine
    sends the Mib of the frame number (`mib`) before it."""
    core = build([cell(10, priority_earfcns=((3350, 7),))])
    assert core.broadcast_tick(39) == []
    out = core.broadcast_tick(40)
    assert [(type(d.message), d.rnti) for d in out] == [(Sib1, 0)]
    sib = out[0].message
    assert sib.cell_id == 10 and sib.tac == 100 and sib.plmn == PLMN
    assert sib.priority_earfcns == ((3350, 7),)
    assert core.broadcast_tick(80)[0] is out[0]
    assert core_module.mib(4) == Mib(50, 4) and core_module.mib(4) is core_module.mib(4)


def test_cells_with_their_own_periods_broadcast_in_cell_order():
    core = build([cell(10, broadcast_period_ms=80), cell(11, tac=101, broadcast_period_ms=40), cell(12)])
    assert [d.cell_id for d in core.broadcast_tick(40)] == [11, 12]
    assert [d.cell_id for d in core.broadcast_tick(80)] == [10, 11, 12]
    assert core.broadcast_tick(0) == [] and core.broadcast_tick(60) == []
    assert [core.next_broadcast_ms(t) for t in (0, 40, 79)] == [40, 80, 80]
    assert build([]).next_broadcast_ms(0) is None


def test_next_broadcast():
    core = build()
    assert core.next_broadcast_ms(0) == 40
    assert core.next_broadcast_ms(40) == 80
    assert core.next_broadcast_ms(41) == 80


# -- attach ladder --------------------------------------------------------------


def test_rach_consumes_preset_in_order():
    core = build()
    out = ul(core, 10, 0, RachPreamble(1))
    assert out[0].message.temp_rnti == 500
    assert out[0].rnti == 500
    out = ul(core, 10, 0, RachPreamble(2))
    assert out[0].message.temp_rnti == 501


def test_ladder_registers_and_binds_tmsi():
    core = build()
    rnti, key_id, tmsi = run_ladder(core)
    rec = core.active[(10, rnti)]
    assert rec.state is SessionState.REGISTERED
    sub = core.hss[str(IMSI)]
    assert rec.subscriber is sub
    assert sub.tmsi == tmsi
    assert core.by_tmsi[tmsi] is sub
    assert sub.tac == 100
    assert core.keys[key_id]  # keystream seed on file for the tap-side codec


# The HSS is built from the run's own devices: an uplink naming someone it
# does not hold, or a response computed from another key, means it no
# longer holds them.


def test_an_attach_naming_an_imsi_the_hss_lacks_raises():
    core = build()
    out = ul(core, 10, 0, RachPreamble(1))
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(random_id=1))
    with pytest.raises(InvariantViolation, match="IMSI 310260999999999"):
        ul(core, 10, rnti, AttachRequest(imsi=parse_imsi("310260999999999")))


def test_known_tmsi_skips_identity_request():
    core = build_bound()
    out = ul(core, 10, 0, RachPreamble(1))
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(tmsi=0xCAFE0001))
    out = ul(core, 10, rnti, AttachRequest(tmsi=0xCAFE0001))
    assert isinstance(out[0].message, AuthenticationRequest)


def test_an_attach_naming_an_unbound_tmsi_raises():
    core = build()
    out = ul(core, 10, 0, RachPreamble(1))
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(tmsi=0xDEAD0001))
    with pytest.raises(InvariantViolation, match=f"TMSI {0xDEAD0001}"):
        ul(core, 10, rnti, AttachRequest(tmsi=0xDEAD0001))


def _tau_session(core, tmsi):
    out = ul(core, 10, 0, RachPreamble(1))
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(tmsi=tmsi))
    return rnti


def test_tau_with_known_tmsi_authenticates():
    core = build_bound()
    rnti = _tau_session(core, 0xCAFE0001)
    out = ul(core, 10, rnti, TauRequest(0xCAFE0001, 100))
    assert isinstance(out[0].message, AuthenticationRequest)
    assert core.active[(10, rnti)].subscriber.profile.imsi == IMSI


def test_a_tau_naming_an_unbound_tmsi_raises():
    core = build()
    rnti = _tau_session(core, 0xDEAD0001)
    with pytest.raises(InvariantViolation, match=f"TMSI {0xDEAD0001}"):
        ul(core, 10, rnti, TauRequest(0xDEAD0001, 100))


def test_second_tau_is_dropped_out_of_order():
    core = build_bound()
    rnti = _tau_session(core, 0xCAFE0001)
    ul(core, 10, rnti, TauRequest(0xCAFE0001, 100))
    assert ul(core, 10, rnti, TauRequest(0xCAFE0001, 100)) == []
    assert core.drops["tau_out_of_order"] == 1


def test_a_bad_auth_response_raises():
    core = build()
    out = ul(core, 10, 0, RachPreamble(1))
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(random_id=1))
    ul(core, 10, rnti, AttachRequest(imsi=IMSI))
    with pytest.raises(InvariantViolation, match="authentication failed"):
        ul(core, 10, rnti, AuthenticationResponse(b"\x00" * 8))


def _after_rar(core):
    """A session that has just had its MAC RAR: its rnti."""
    return ul(core, 10, 0, RachPreamble(1))[0].message.temp_rnti


def _fill(core, cell_id):
    core.allocators[cell_id]._in_use = set(range(RNTI_MIN, RNTI_MAX + 1))


def _dropped_uplinks():
    """(reason, core, cell, rnti, uplink) for each step handle_uplink drops."""
    core = build()
    yield "no_session", core, 10, 999, SecurityModeComplete()
    core = build()
    yield "foreign_cell", core, 99, 0, RachPreamble(1)
    core = build()
    yield "smc_out_of_order", core, 10, _after_rar(core), SecurityModeComplete()
    core = build()
    yield "auth_out_of_order", core, 10, _after_rar(core), AuthenticationResponse(b"\x00" * 8)
    core = build()
    yield "unexpected_IdentityResponse", core, 10, _after_rar(core), IdentityResponse(imsi=IMSI)  # the core never asks
    core = build()
    yield "connection_request_out_of_order", core, 10, run_ladder(core)[0], RrcConnectionRequest(random_id=1)
    core = build()
    yield "attach_out_of_order", core, 10, run_ladder(core)[0], AttachRequest(imsi=IMSI)
    core = build()
    _fill(core, 10)
    yield "cell_full", core, 10, 0, RachPreamble(1)
    core = two_cell_core()
    rnti = run_ladder(core)[0]
    _fill(core, 11)
    yield "handover_target_full", core, 10, rnti, MeasurementReport(((10, -70), (11, -60)))


def test_out_of_order_steps_are_dropped():
    """Each is answered with nothing, counted once under its reason, and
    leaves every session and every cell's radio ids as they were."""
    for reason, core, cell_id, rnti, msg in _dropped_uplinks():
        sessions, ids = copy.deepcopy(core.active), {c: a.in_use for c, a in core.allocators.items()}
        drops = dict(core.drops)
        assert ul(core, cell_id, rnti, msg) == [], reason
        assert core.drops == {**drops, reason: drops.get(reason, 0) + 1}, reason
        assert core.active == sessions, reason
        assert {c: a.in_use for c, a in core.allocators.items()} == ids, reason


def test_uplink_of_no_ladder_step_is_dropped_by_type():
    core = build()
    rnti, _, _ = run_ladder(core)
    assert ul(core, 10, rnti, Mib(50, 0)) == []
    assert core.drops == {"unexpected_Mib": 1}


def test_tmsi_is_stable_across_sessions():
    core = build()
    _, _, first = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    out = ul(core, 10, 0, RachPreamble(1), t=6000)
    rnti = out[0].message.temp_rnti
    ul(core, 10, rnti, RrcConnectionRequest(tmsi=first), t=6000)
    # wake re-keys back to the parked id; continue there
    out = ul(core, 10, 500, AttachRequest(tmsi=first), t=6000)
    res = stub_mac(KEY, out[0].message.rand)
    out = ul(core, 10, 500, AuthenticationResponse(res), t=6000)
    out = ul(core, 10, 500, SecurityModeComplete(), t=6000)
    assert out[0].message.tmsi == first


# -- idle and wake ------------------------------------------------------------------


def test_idle_is_strictly_after_the_deadline():
    core = build()
    rnti, _, _ = run_ladder(core)
    core.tick(IDLE_AFTER_MS)  # == is not enough
    assert (10, rnti) in core.active
    core.tick(IDLE_AFTER_MS + 1)
    assert (10, rnti) not in core.active
    assert core.idle_transitions == 1
    sub = core.hss[str(IMSI)]
    assert sub.parked == (10, rnti)
    assert rnti in core.allocators[10].in_use  # parked, not reissued
    # no keys are parked: the woken session starts without any
    temp = ul(core, 10, 0, RachPreamble(1), t=6000)[0].message.temp_rnti
    ul(core, 10, temp, RrcConnectionRequest(tmsi=sub.tmsi), t=6000)
    woken = core.active[(10, rnti)]
    assert woken.subscriber is sub and woken.key_id is None


def test_wake_same_cell_rekeys_to_parked_id():
    core = build()
    rnti, _, tmsi = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    out = ul(core, 10, 0, RachPreamble(1), t=6000)
    temp = out[0].message.temp_rnti
    assert temp != rnti
    out = ul(core, 10, temp, RrcConnectionRequest(tmsi=tmsi), t=6000)
    assert [type(d.message) for d in out] == [RrcConnectionReconfiguration, RrcConnectionSetup]
    reconf, setup = out
    assert reconf.rnti == temp and reconf.key_id is None  # device has no keys yet
    assert reconf.message.mobility.target_cell_id == 10
    assert reconf.message.mobility.new_rnti == rnti
    assert setup.rnti == rnti
    assert (10, temp) not in core.active and (10, rnti) in core.active
    assert temp not in core.allocators[10].in_use


def test_wake_with_refresh_retires_parked_id():
    core = build([cell(10, rnti_refresh_on_idle=True, rnti_preset=(500, 501))])
    rnti, _, tmsi = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    out = ul(core, 10, 0, RachPreamble(1), t=6000)
    temp = out[0].message.temp_rnti
    out = ul(core, 10, temp, RrcConnectionRequest(tmsi=tmsi), t=6000)
    assert [type(d.message) for d in out] == [RrcConnectionSetup]
    assert out[0].rnti == temp
    assert rnti not in core.allocators[10].in_use  # released for good


def test_fresh_imsi_attach_clears_stale_idle_entry():
    core = build()
    rnti, _, tmsi = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    run_ladder(core, t=7000)  # same subscriber, never mentions the tmsi
    assert core.hss[str(IMSI)].parked is None
    assert core.by_tmsi[tmsi] is core.hss[str(IMSI)]  # the tmsi stays bound
    assert rnti not in core.allocators[10].in_use


def test_a_replaced_idle_record_frees_its_parked_id():
    core = build()
    first, _, tmsi = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    # the same subscriber attaches again by TMSI, never waking the idle record
    second, _, _ = run_ladder(core, t=6000, identity=AttachRequest(tmsi=tmsi))
    core.tick(6000 + IDLE_AFTER_MS + 1)
    assert core.by_tmsi[tmsi].parked == (10, second)
    assert core.allocators[10].in_use == {second}  # first is no longer parked


def test_next_deadline_follows_activity():
    core = build()
    rnti, _, _ = run_ladder(core)
    assert core.next_deadline_ms() == IDLE_AFTER_MS + 1
    ul(core, 10, rnti, UserData(32), t=2000)
    assert core.next_deadline_ms() == 2000 + IDLE_AFTER_MS + 1


def test_measurement_report_does_not_defer_idle():
    core = build([cell(10), cell(11)])
    rnti, _, _ = run_ladder(core)
    ul(core, 10, rnti, MeasurementReport(((10, -40),)), t=4000)
    assert core.next_deadline_ms() == IDLE_AFTER_MS + 1


def full_scan_deadline(core):
    """The scan over every session that next_deadline_ms replaced, kept as
    its reference: an open handover's lapse, else a registered session's
    idle timeout."""
    return min(
        (
            rec.handover.lapse_ms if rec.handover is not None else rec.last_activity_ms + IDLE_AFTER_MS + 1
            for rec in core.active.values()
            if rec.state is SessionState.REGISTERED and rec.last_activity_ms is not None
        ),
        default=None,
    )


def test_deadline_heap_matches_the_full_scan():
    IMSI_B = parse_imsi("310260000000002")
    core = build(subscribers=[UeProfile(IMSI, KEY, "15550000001", IMEI), UeProfile(IMSI_B, KEY, "15550000002", IMEI)])
    assert core.next_deadline_ms() is full_scan_deadline(core) is None
    a, _, _ = run_ladder(core)
    b, _, _ = run_ladder(core, t=300, identity=AttachRequest(imsi=IMSI_B))
    for t, rnti in ((1000, a), (1000, a), (2500, b), (2600, a)):
        ul(core, 10, rnti, UserData(8), t=t)
        assert core.next_deadline_ms() == full_scan_deadline(core)
    for t in (7000, 7500, 7600, 7601, 9000):
        core.tick(t)
        assert core.next_deadline_ms() == full_scan_deadline(core)
    assert not core.active and core.next_deadline_ms() is None


# -- handover ----------------------------------------------------------------------


def two_cell_core(**target_overrides):
    cells = [cell(10, rnti_preset=(500,)), cell(11, rnti_preset=(900, 901), **target_overrides)]
    return NetworkCore(cells, [UeProfile(IMSI, KEY, "15550000001", IMEI)], lambda p: child_rng(9, p))


def test_handover_triggered_by_better_neighbor():
    core = two_cell_core()
    rnti, key_id, _ = run_ladder(core)
    out = ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    assert len(out) == 1
    trigger = out[0]
    assert trigger.key_id is None  # cleartext unless the cell opts in
    assert trigger.message.mobility.target_cell_id == 11
    assert trigger.message.mobility.new_rnti == 900  # pre-allocated at target
    assert 900 in core.allocators[11].in_use


def test_handover_respects_hysteresis():
    core = two_cell_core()
    rnti, _, _ = run_ladder(core)
    assert ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -68))), t=1000) == []


def test_handover_ignores_foreign_cells():
    core = two_cell_core()
    rnti, _, _ = run_ladder(core)
    assert ul(core, 10, rnti, MeasurementReport(((10, -70), (999, -10))), t=1000) == []


def test_handover_completion_rekeys_and_rehomes():
    core = two_cell_core()
    rnti, key_id, _ = run_ladder(core)
    ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    out = ul(core, 11, 0, RachPreamble(3), t=1001)
    temp = out[0].message.temp_rnti
    assert temp == 901  # 900 went to the pre-allocation
    assert (10, rnti) not in core.active  # travelled
    assert rnti not in core.allocators[10].in_use
    out = ul(core, 11, temp, RrcConnectionReconfigurationComplete(), t=1002)
    assert out[0].message.mobility.new_rnti == 900
    assert out[0].rnti == temp
    assert (11, 900) in core.active
    assert temp not in core.allocators[11].in_use
    assert core.handovers_completed == 1
    rec = core.active[(11, 900)]
    assert rec.state is SessionState.REGISTERED and rec.key_id == key_id


def test_encrypted_trigger_follows_the_serving_cell():
    cells = [cell(10, rnti_preset=(500,), encrypt_handover_trigger=True), cell(11, rnti_preset=(900, 901))]
    core = NetworkCore(cells, [UeProfile(IMSI, KEY, "15550000001", IMEI)], lambda p: child_rng(9, p))
    rnti, key_id, _ = run_ladder(core)
    out = ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    assert out[0].key_id == key_id
    # the re-key after arrival follows the target cell, still cleartext here
    out = ul(core, 11, 0, RachPreamble(3), t=1001)
    out = ul(core, 11, out[0].message.temp_rnti, RrcConnectionReconfigurationComplete(), t=1002)
    assert out[0].key_id is None


def test_stale_handover_preparation_expires():
    core = two_cell_core()
    rnti, _, _ = run_ladder(core)
    ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    assert 900 in core.allocators[11].in_use
    core.tick(1000 + HO_PENDING_MS + 1)
    assert 900 not in core.allocators[11].in_use
    rec = core.active[(10, rnti)]
    assert rec.handover is None  # free to try again


def test_idle_waits_for_an_open_handover_to_lapse():
    core = two_cell_core()
    rnti, _, _ = run_ladder(core)  # idle due at IDLE_AFTER_MS + 1
    ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=4900)
    lapse = 4900 + HO_PENDING_MS + 1
    for t in (4900, IDLE_AFTER_MS + 1, 5500):
        core.tick(t)
        # held while the handover is open; the lapse is the deadline
        assert (10, rnti) in core.active
        assert core.next_deadline_ms() == full_scan_deadline(core) == lapse
    core.tick(lapse)  # the handover lapses and the session idles on the same tick
    assert (10, rnti) not in core.active
    assert core.idle_transitions == 1
    assert core.next_deadline_ms() is full_scan_deadline(core) is None


def test_a_handover_that_arrives_but_never_completes_lapses():
    core = two_cell_core()
    rnti, _, tmsi = run_ladder(core)
    ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    temp = ul(core, 11, 0, RachPreamble(3), t=1001)[0].message.temp_rnti
    assert (11, temp) in core.active and 900 in core.allocators[11].in_use
    assert core.next_deadline_ms() == full_scan_deadline(core) == 1000 + HO_PENDING_MS + 1
    core.tick(1000 + HO_PENDING_MS + 1)
    rec = core.active[(11, temp)]
    assert rec.handover is None
    assert 900 not in core.allocators[11].in_use  # the prepared id is free again
    assert core.next_deadline_ms() == full_scan_deadline(core) == IDLE_AFTER_MS + 1
    # a completion after the lapse changes nothing
    assert ul(core, 11, temp, RrcConnectionReconfigurationComplete(), t=2500) == []
    core.tick(IDLE_AFTER_MS + 1)
    assert not core.active and core.by_tmsi[tmsi].parked == (rec.cell_id, rec.rnti) == (11, temp)
    assert core.allocators[11].in_use == {temp} and not core.allocators[10].in_use
    assert core.next_deadline_ms() is None


def test_no_second_trigger_while_one_is_pending():
    core = two_cell_core()
    rnti, _, _ = run_ladder(core)
    assert ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    assert ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1200) == []


# -- paging ------------------------------------------------------------------------


def test_page_prefers_tmsi_and_stays_in_last_tac():
    cells = [cell(10, tac=100, rnti_preset=(500,)), cell(20, tac=200)]
    core = NetworkCore(cells, [UeProfile(IMSI, KEY, "15550000001", IMEI)], lambda p: child_rng(9, p))
    _, _, tmsi = run_ladder(core)
    out = core.page("15550000001", 8000)
    assert [d.cell_id for d in out] == [10]
    assert out[0].rnti == 0
    assert out[0].message == Paging(tmsi=tmsi)


def test_page_without_history_goes_wide_by_imsi():
    cells = [cell(10), cell(20, tac=200)]
    core = NetworkCore(cells, [UeProfile(IMSI, KEY, "15550000001", IMEI)], lambda p: child_rng(9, p))
    out = core.page("15550000001", 0)
    assert sorted(d.cell_id for d in out) == [10, 20]
    assert all(d.message.imsi == IMSI for d in out)


def test_page_unknown_msisdn_raises():
    core = build()
    with pytest.raises(UnknownSubscriber):
        core.page("19990000000", 0)


# -- invariants ----------------------------------------------------------------------


def test_duplicate_cell_ids_refused():
    with pytest.raises(InvariantViolation):
        NetworkCore([cell(10), cell(10)], [], lambda p: child_rng(9, p))


def test_a_drawn_tmsi_is_never_one_already_bound():
    first_draw = child_rng(9, "core/tmsi").getrandbits(32)
    other = UeProfile(parse_imsi("310260000000002"), KEY, "15550000002", IMEI, initial_tmsi=first_draw)
    core = build(subscribers=[UeProfile(IMSI, KEY, "15550000001", IMEI), other])
    _, _, tmsi = run_ladder(core)
    assert tmsi != first_draw
    assert core.by_tmsi[first_draw] is core.hss[str(other.imsi)]
    assert core.by_tmsi[tmsi] is core.hss[str(IMSI)]


def test_tmsis_over_many_attaches_are_unique_and_drawn_from_the_seed():
    imsis = [parse_imsi(f"3102600000{i:05d}") for i in range(1, 81)]

    def draws(seed):
        subs = [UeProfile(imsi, KEY, f"1555{i:07d}", IMEI) for i, imsi in enumerate(imsis)]
        core = build([cell(10)], subs, seed=seed)
        return [run_ladder(core, imsi=imsi)[2] for imsi in imsis]

    tmsis = draws(9)
    assert len(set(tmsis)) == len(imsis) and all(0 <= v < 1 << 32 for v in tmsis)
    assert draws(9) == tmsis != draws(10)
    # Nothing bound collides, so each TMSI is the core/tmsi stream's next draw.
    stream = child_rng(9, "core/tmsi")
    assert tmsis == [stream.getrandbits(32) for _ in imsis]


def test_invariants_hold_through_a_ladder():
    core = build()
    run_ladder(core)
    core.check_invariants()


def test_invariants_catch_index_corruption():
    core = build()
    rnti, _, _ = run_ladder(core)
    core.active[(10, rnti)].rnti = rnti + 1
    with pytest.raises(InvariantViolation):
        core.check_invariants()


def test_invariants_catch_unreserved_rnti():
    core = build()
    rnti, _, _ = run_ladder(core)
    core.allocators[10].release(rnti)
    with pytest.raises(InvariantViolation):
        core.check_invariants()


# -- write-time checks and the full sweep ---------------------------------------


def test_releasing_a_live_id_raises_and_frees_nothing():
    core = build()
    rnti, _, _ = run_ladder(core)
    before = core.allocators[10].in_use
    with pytest.raises(InvariantViolation):
        core._release(10, rnti)
    assert core.allocators[10].in_use == before == {rnti}
    core.check_invariants()


def test_activating_an_unreserved_id_raises_and_adds_nothing():
    core = build()
    rnti, _, _ = run_ladder(core)
    before = dict(core.active)
    with pytest.raises(InvariantViolation):
        core._activate(SessionRecord(10, 600, SessionState.RACH_DONE))
    assert core.active == before
    core.check_invariants()


def test_activating_over_a_live_session_raises_and_keeps_it():
    core = build()
    rnti, _, _ = run_ladder(core)
    holder = core.active[(10, rnti)]
    with pytest.raises(InvariantViolation):
        core._activate(SessionRecord(10, rnti, SessionState.RACH_DONE))
    assert core.active == {(10, rnti): holder}


def test_the_sweep_passes_with_parked_and_prepared_ids():
    core = two_cell_core()
    rnti, _, tmsi = run_ladder(core)
    ul(core, 10, rnti, MeasurementReport(((10, -70), (11, -60))), t=1000)
    core.check_invariants()  # 900 is prepared at cell 11 for the open handover
    core.tick(1000 + HO_PENDING_MS + 1)
    core.tick(IDLE_AFTER_MS + 1)
    assert core.by_tmsi[tmsi].parked == (10, rnti) and not core.active
    core.check_invariants()  # the parked id stays reserved


def test_the_sweep_catches_a_reserved_id_without_an_owner():
    core = build()
    run_ladder(core)
    core.allocators[10].allocate()
    with pytest.raises(InvariantViolation):
        core.check_invariants()


def test_the_sweep_catches_a_parked_id_that_is_not_reserved():
    core = build()
    rnti, _, _ = run_ladder(core)
    core.tick(IDLE_AFTER_MS + 1)
    core.allocators[10].release(rnti)
    with pytest.raises(InvariantViolation):
        core.check_invariants()


def _writers(tree, is_write):
    """Names of the functions in tree holding a node for which is_write holds."""
    return sorted(
        {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn) if is_write(node)}
    )


def _targets(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    flat = []
    while targets:
        target, *targets = targets
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        else:
            flat.append(target)
    return flat


def _is_active(node):
    return isinstance(node, ast.Attribute) and node.attr == "active"


def test_only_the_funnels_write_the_session_index_and_release_ids():
    """The write-time checks are exhaustive only if every write they guard
    goes through them: a session is put under a key only in _activate, an
    id is released only in _release, and a session's key fields change
    only in _rekey, which then activates it."""
    tree = ast.parse(pathlib.Path(core_module.__file__).read_text())
    assert _writers(
        tree, lambda n: any(isinstance(t, ast.Subscript) and _is_active(t.value) for t in _targets(n))
    ) == ["_activate"]
    assert _writers(
        tree, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "release"
    ) == ["_release"]
    assert _writers(
        tree, lambda n: any(isinstance(t, ast.Attribute) and t.attr in ("cell_id", "rnti") for t in _targets(n))
    ) == ["_rekey"]
    # No other way in: the index is read, popped or deleted from, never filled.
    methods = {
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and _is_active(n.func.value)
    }
    assert methods <= {"get", "pop", "items", "values"}


def test_the_core_sends_no_reject_and_asks_for_no_identity():
    """Every reject and identity request in a run comes from the rogue: the
    core's HSS holds every device, so it constructs neither."""
    tree = ast.parse(pathlib.Path(core_module.__file__).read_text())
    built = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not built & {"AttachReject", "TauReject", "IdentityRequest"}
