"""Device state machine driven directly, with the test playing network."""

import ast
import copy
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ltesim import ue as ue_module
from ltesim.codec import (
    AttachAccept,
    AttachReject,
    AttachRequest,
    AuthenticationRequest,
    AuthenticationResponse,
    EmmCause,
    IdentityKind,
    IdentityRequest,
    IdentityResponse,
    MacRar,
    MeasurementReport,
    Mib,
    MobilityControlInfo,
    Paging,
    RachPreamble,
    RrcConnectionReconfiguration,
    RrcConnectionReconfigurationComplete,
    RrcConnectionRequest,
    RrcConnectionSetup,
    SecurityModeCommand,
    SecurityModeComplete,
    Sib1,
    TauReject,
    TauRequest,
    UserData,
)
from ltesim.attacker import RogueCell, RogueCellConfig
from ltesim.crypto_stub import derive_autn, stub_mac
from ltesim.engine import Sight, run
from ltesim.identity import CellIdentity, Plmn, parse_imsi
from ltesim.radio import DEFAULT_RX_FLOOR_DBM, PathLossModel, RadioCell, Rat
from ltesim.scenario import UeSpec, WaypointSpec, load_scenario, parse_scenario
from ltesim.ue import (
    ATTACH_BACKOFF_MS,
    CELL_BAR_MS,
    IDLE_AFTER_MS,
    MEAS_PERIOD_MS,
    RNTI_PHASES,
    T3245_MAX_MS,
    T3245_MIN_MS,
    AirplaneToggle,
    AppTraffic,
    Emission,
    EraseTmsi,
    IllegalTransition,
    PowerOn,
    RatAllowed,
    Tick,
    Ue,
    UePhase,
    UeProfile,
    select_cell,
)

from tests.conftest import SCENARIO_DIR
from tests.scenario_builders import benign_day_scenario, crowd_scenario, walk_scenario
from tests.test_engine import QUIET_CASES

PLMN = Plmn("310", "260")
KEY = b"\x10" * 16


def profile(**overrides):
    kw = dict(
        imsi=parse_imsi("310260000000001"),
        key=KEY,
        msisdn="15550000001",
        imei="990000000000001",
    )
    kw.update(overrides)
    return UeProfile(**kw)


def radio(cell_id, earfcn=1850, rat=Rat.LTE, tac=100):
    return RadioCell(CellIdentity(cell_id, tac, PLMN, earfcn), (0.0, 0.0), 43.0, rat=rat)


def sib(cell_id, tac=100, min_rx=-110, priority=(), plmn=PLMN):
    return Sib1(plmn, tac, cell_id, min_rx, tuple(priority))


class Driver:
    """Hand-cranked world around one device."""

    def __init__(self, ue, cell_id=10, tac=100):
        self.ue = ue
        self.cell_id = cell_id
        self.tac = tac
        self.now = 0

    def dl(self, msg, rnti=None, protected=False, cell_id=None):
        frame = Emission(
            self.cell_id if cell_id is None else cell_id,
            self.ue.rnti if rnti is None else rnti,
            msg,
            key_id=self.ue.key_id if protected else None,
        )
        return self.ue.step(frame, self.now)

    def broadcast(self, cell_id=None, tac=None, priority=()):
        cid = self.cell_id if cell_id is None else cell_id
        out = self.dl(Mib(50, 0), rnti=0, cell_id=cid)
        out += self.dl(sib(cid, tac=self.tac if tac is None else tac, priority=priority), rnti=0, cell_id=cid)
        return out

    def run_ladder(self, temp_rnti=500, key_id=1, tmsi=0x1111AAAA):
        """Answer the device's uplinks until it is registered."""
        out = self.dl(MacRar(temp_rnti), rnti=temp_rnti)
        assert isinstance(out[0].message, RrcConnectionRequest)
        out = self.dl(RrcConnectionSetup())
        req = out[0].message
        assert isinstance(req, (AttachRequest, TauRequest))
        rand = bytes(16)
        out = self.dl(AuthenticationRequest(rand, derive_autn(KEY, rand)))
        assert isinstance(out[0].message, AuthenticationResponse)
        assert out[0].message.res == stub_mac(KEY, rand)
        out = self.dl(SecurityModeCommand(key_id))
        assert isinstance(out[0].message, SecurityModeComplete)
        self.dl(AttachAccept(tmsi, self.tac), protected=True)
        assert self.ue.phase is UePhase.REGISTERED
        return req


def fresh(visible=None, rng_seed=5, **profile_overrides):
    cells = visible if visible is not None else [(radio(10), -40.0)]
    ue = Ue(profile(**profile_overrides), random.Random(rng_seed), lambda now_ms: cells)
    return ue, Driver(ue)


# -- selection ----------------------------------------------------------------


class TestSelectCell:
    SIBS = {1: sib(1), 2: sib(2), 3: sib(3)}

    def test_strongest_wins(self):
        visible = [(radio(1), -70.0), (radio(2), -50.0)]
        assert select_cell(visible, self.SIBS, {}, [], {}, RatAllowed.LTE_AND_GSM, 0) == 2

    def test_id_breaks_ties(self):
        visible = [(radio(3), -50.0), (radio(1), -50.0)]
        assert select_cell(visible, self.SIBS, {}, [], {}, RatAllowed.LTE_AND_GSM, 0) == 1

    def test_channel_priority_beats_power(self):
        visible = [(radio(1, earfcn=1850), -40.0), (radio(2, earfcn=3350), -80.0)]
        priority = {3350: 7, 1850: 4}
        assert select_cell(visible, self.SIBS, priority, [], {}, RatAllowed.LTE_AND_GSM, 0) == 2

    def test_needs_sib1(self):
        visible = [(radio(9), -40.0)]
        assert select_cell(visible, self.SIBS, {}, [], {}, RatAllowed.LTE_AND_GSM, 0) is None

    def test_min_rx_gate(self):
        sibs = {1: sib(1, min_rx=-60)}
        visible = [(radio(1), -70.0)]
        assert select_cell(visible, sibs, {}, [], {}, RatAllowed.LTE_AND_GSM, 0) is None

    def test_forbidden_plmn_excluded_until_deadline(self):
        visible = [(radio(1), -40.0)]
        forbidden = [(PLMN, 1000)]
        assert select_cell(visible, self.SIBS, {}, forbidden, {}, RatAllowed.LTE_AND_GSM, 500) is None
        assert select_cell(visible, self.SIBS, {}, forbidden, {}, RatAllowed.LTE_AND_GSM, 1000) == 1

    def test_barred_cell_excluded(self):
        visible = [(radio(1), -40.0), (radio(2), -60.0)]
        assert select_cell(visible, self.SIBS, {}, [], {1: 99999}, RatAllowed.LTE_AND_GSM, 0) == 2

    def test_gsm_only_selects_nothing(self):
        visible = [(radio(1), -40.0)]
        assert select_cell(visible, self.SIBS, {}, [], {}, RatAllowed.GSM_ONLY, 0) is None

    def test_gsm_cells_never_eligible(self):
        visible = [(radio(900, rat=Rat.GSM), -30.0)]
        sibs = {900: sib(900)}
        assert select_cell(visible, sibs, {}, [], {}, RatAllowed.LTE_AND_GSM, 0) is None


# -- attach ladder --------------------------------------------------------------


def test_power_on_then_broadcast_starts_rach():
    ue, drv = fresh()
    assert ue.step(PowerOn(), 0) == []
    assert ue.phase is UePhase.SEARCHING
    out = drv.broadcast()
    assert len(out) == 1 and isinstance(out[0].message, RachPreamble)
    assert ue.phase is UePhase.RACH_IN_PROGRESS
    assert out[0].rnti == 0 and out[0].key_id is None


def test_full_ladder_reaches_registered():
    ue, drv = fresh()
    ue.step(PowerOn(), 0)
    drv.broadcast()
    req = drv.run_ladder()
    assert isinstance(req, AttachRequest) and req.imsi == ue.profile.imsi
    assert ue.tmsi == 0x1111AAAA
    assert ue.registered_tac == 100
    assert ue.key_id == 1
    assert ue.stats.imsi_cleartext_uplinks == 1
    assert ue.stats.attach_attempts == [(0, "310/260", "attach")]


def test_tmsi_spares_the_imsi_on_later_attach():
    ue, drv = fresh(initial_tmsi=0x2222BBBB)
    ue.step(PowerOn(), 0)
    drv.broadcast()
    out = drv.dl(MacRar(600), rnti=600)
    assert out[0].message.tmsi == 0x2222BBBB
    out = drv.dl(RrcConnectionSetup())
    assert isinstance(out[0].message, AttachRequest)
    assert out[0].message.tmsi == 0x2222BBBB and out[0].message.imsi is None
    assert ue.stats.imsi_cleartext_uplinks == 0


def test_identity_request_pulls_the_imsi():
    ue, drv = fresh(initial_tmsi=0x2222BBBB)
    ue.step(PowerOn(), 0)
    drv.broadcast()
    drv.dl(MacRar(600), rnti=600)
    drv.dl(RrcConnectionSetup())
    out = drv.dl(IdentityRequest(IdentityKind.IMSI))
    assert isinstance(out[0].message, IdentityResponse)
    assert out[0].message.imsi == ue.profile.imsi
    assert ue.stats.imsi_cleartext_uplinks == 1
    out = drv.dl(IdentityRequest(IdentityKind.IMEI))
    assert out[0].message.imei == ue.profile.imei


def test_wrong_autn_is_ignored():
    ue, drv = fresh()
    ue.step(PowerOn(), 0)
    drv.broadcast()
    drv.dl(MacRar(600), rnti=600)
    drv.dl(RrcConnectionSetup())
    out = drv.dl(AuthenticationRequest(bytes(16), bytes(16)))
    assert out == []
    assert ue.phase is UePhase.CONNECTING


def test_frames_from_other_cells_are_ignored():
    ue, drv = fresh()
    ue.step(PowerOn(), 0)
    drv.broadcast()
    out = drv.dl(MacRar(600), rnti=600, cell_id=77)
    assert out == [] and ue.phase is UePhase.RACH_IN_PROGRESS


# -- idle and wake ----------------------------------------------------------------


def registered_ue(**overrides):
    ue, drv = fresh(**overrides)
    ue.step(PowerOn(), 0)
    drv.broadcast()
    drv.run_ladder()
    return ue, drv


def test_idle_after_quiet_period():
    ue, drv = registered_ue()
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.CAMPED_IDLE
    assert ue.rnti is None and ue.key_id is None
    assert ue.tmsi is not None  # temporary identity survives idle
    assert ue.stats.idle_transitions == 1


def test_traffic_defers_idle():
    ue, drv = registered_ue()
    drv.now = 3000
    ue.step(AppTraffic(64), drv.now)
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.REGISTERED
    drv.now = 3000 + IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.CAMPED_IDLE


def test_app_traffic_while_idle_wakes_and_flushes():
    ue, drv = registered_ue()
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    drv.now += 100
    out = ue.step(AppTraffic(200), drv.now)
    assert isinstance(out[0].message, RachPreamble)
    out = drv.dl(MacRar(700), rnti=700)
    assert out[0].message.tmsi == ue.tmsi  # wake identifies by tmsi
    drv.dl(RrcConnectionSetup())
    rand = bytes(16)
    drv.dl(AuthenticationRequest(rand, derive_autn(KEY, rand)))
    drv.dl(SecurityModeCommand(2))
    out = drv.dl(AttachAccept(ue.tmsi, drv.tac), protected=True)
    flushed = [e.message for e in out if isinstance(e.message, UserData)]
    assert flushed and flushed[0].byte_count == 200


def test_paging_by_tmsi_wakes_idle_device():
    ue, drv = registered_ue()
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    drv.now += 50
    out = drv.dl(Paging(tmsi=ue.tmsi), rnti=0)
    assert out and isinstance(out[0].message, RachPreamble)


def test_paging_for_someone_else_is_ignored():
    ue, drv = registered_ue()
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    out = drv.dl(Paging(tmsi=(ue.tmsi or 0) ^ 1), rnti=0)
    assert out == [] and ue.phase is UePhase.CAMPED_IDLE


def test_a_wake_where_the_cell_sib1_was_never_heard_selects_afresh():
    ue, drv = registered_ue()
    drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(11, 4321)))  # cell 11 never broadcast
    drv.cell_id = 11
    drv.dl(MacRar(777), rnti=777)
    assert ue.phase is UePhase.REGISTERED and 11 not in ue.sib1s
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.CAMPED_IDLE and ue.serving_cell == 11
    drv.now += 100
    out = ue.step(AppTraffic(200), drv.now)
    # Selection sees only cell 10, whose Sib1 the device holds.
    assert [(e.cell_id, type(e.message)) for e in out] == [(10, RachPreamble)]
    assert ue.phase is UePhase.RACH_IN_PROGRESS and ue.serving_cell == 10


def test_a_wake_where_the_cell_sib1_names_another_area_sends_a_tau():
    ue, drv = registered_ue()
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    drv.now += 50
    assert drv.broadcast(tac=200) == []  # camped: a new Sib1 is only stored
    out = drv.dl(Paging(tmsi=ue.tmsi), rnti=0)
    assert [(e.cell_id, type(e.message)) for e in out] == [(10, RachPreamble)]
    drv.dl(MacRar(700), rnti=700)
    out = drv.dl(RrcConnectionSetup())
    assert [e.message for e in out] == [TauRequest(ue.tmsi, 200)]
    assert ue.stats.attach_attempts[-1] == (drv.now, str(PLMN), "tau")


def test_measurement_reports_flow_while_registered():
    ue, drv = registered_ue()
    drv.now = MEAS_PERIOD_MS
    out = ue.step(Tick(drv.now), drv.now)
    reports = [e for e in out if isinstance(e.message, MeasurementReport)]
    assert len(reports) == 1
    assert reports[0].key_id == ue.key_id  # protected
    assert reports[0].message.neighbors == ((10, -40),)


def test_next_wake_tracks_earliest_timer():
    ue, drv = registered_ue()
    assert ue.next_wake_ms() == MEAS_PERIOD_MS
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.next_wake_ms() == drv.now + 200  # camped recheck


def reference_wake(ue):
    """next_wake_ms as a list of every timer that counts, and its min: the
    formula the running minimum replaced."""
    candidates = []
    if ue._next_meas_ms is not None:
        candidates.append(ue._next_meas_ms)
    if ue._camped_recheck_ms is not None and ue.phase in (UePhase.CAMPED_IDLE, UePhase.SEARCHING):
        candidates.append(ue._camped_recheck_ms)
    if ue._proc_deadline_ms is not None:
        candidates.append(ue._proc_deadline_ms)
    if ue._backoff_until_ms is not None:
        candidates.append(ue._backoff_until_ms)
    if ue.phase is UePhase.REGISTERED and ue._last_activity_ms is not None:
        candidates.append(ue._last_activity_ms + IDLE_AFTER_MS)
    for _, deadline in ue.forbidden_plmns:
        candidates.append(deadline)
    return min(candidates) if candidates else None


@pytest.mark.parametrize("make", [make for _, make in QUIET_CASES], ids=[name for name, _ in QUIET_CASES])
def test_next_wake_matches_the_list_formula_after_every_step(monkeypatch, make):
    step, end_quiet, checked = Ue.step, Ue.end_quiet, []

    def check(ue, now_ms):
        assert ue.next_wake_ms() == reference_wake(ue), (ue.profile.name, now_ms, ue.phase)
        checked.append(ue.phase)

    def checked_step(ue, event, now_ms):
        out = step(ue, event, now_ms)
        check(ue, now_ms)
        return out

    def checked_end_quiet(ue, now_ms):
        end_quiet(ue, now_ms)
        check(ue, now_ms)

    monkeypatch.setattr(Ue, "step", checked_step)
    monkeypatch.setattr(Ue, "end_quiet", checked_end_quiet)
    run(make())
    assert {UePhase.SEARCHING, UePhase.REGISTERED} <= set(checked)


TIMER = st.none() | st.integers(0, 12_000)  # a narrow range, so timers often tie
WAKE_TIMERS = ("_next_meas_ms", "_camped_recheck_ms", "_proc_deadline_ms", "_backoff_until_ms", "_last_activity_ms")


@settings(max_examples=400, deadline=None)
@given(
    phase=st.sampled_from(UePhase),
    timers=st.fixed_dictionaries({name: TIMER for name in WAKE_TIMERS}),
    forbidden=st.lists(st.integers(0, 12_000), max_size=3),
)
def test_next_wake_matches_the_list_formula(phase, timers, forbidden):
    ue, _ = fresh()
    ue.phase = phase
    for name, value in timers.items():
        setattr(ue, name, value)
    ue.forbidden_plmns = [(PLMN, deadline) for deadline in forbidden]
    assert ue.next_wake_ms() == reference_wake(ue)


# -- rejects ------------------------------------------------------------------------


def attach_to_reject_point(ue, drv):
    ue.step(PowerOn(), 0)
    drv.broadcast()
    drv.dl(MacRar(600), rnti=600)
    drv.dl(RrcConnectionSetup())


def test_benign_congestion_bars_cell_and_backs_off():
    ue, drv = fresh()
    attach_to_reject_point(ue, drv)
    drv.now = 10
    ue.step(Emission(10, 600, AttachReject(EmmCause.CONGESTION_BENIGN)), 10)
    assert ue.phase is UePhase.SEARCHING
    assert ue.barred_cells[10] == 10 + CELL_BAR_MS
    assert ue.forbidden_plmns == []
    assert ue.next_wake_ms() == 10 + ATTACH_BACKOFF_MS


def test_plmn_not_allowed_starts_long_block():
    ue, drv = fresh()
    attach_to_reject_point(ue, drv)
    drv.now = 10
    drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
    assert ue.phase is UePhase.BLOCKED
    assert len(ue.forbidden_plmns) == 1
    plmn, deadline = ue.forbidden_plmns[0]
    assert plmn == PLMN
    assert 10 + T3245_MIN_MS <= deadline <= 10 + T3245_MAX_MS
    # No further attach attempts while the operator stays forbidden.
    before = list(ue.stats.attach_attempts)
    drv.now = 5000
    drv.broadcast()
    ue.step(Tick(drv.now), drv.now)
    assert ue.stats.attach_attempts == before


def test_a_block_ends_on_the_tick_its_forbidden_entry_expires():
    visible = [(radio(10), -40.0)]
    ue, drv = fresh(visible=visible)
    attach_to_reject_point(ue, drv)
    drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
    ((_, deadline),) = ue.forbidden_plmns
    ue.step(Tick(deadline - 1), deadline - 1)
    assert ue.phase is UePhase.BLOCKED
    visible.clear()  # the cell is out of sight when the entry expires
    assert ue.step(Tick(deadline), deadline) == []
    assert ue.phase is UePhase.SEARCHING and ue.forbidden_plmns == []
    visible.append((radio(10), -40.0))
    drv.now = deadline + 1
    out = drv.broadcast()
    assert [type(e.message) for e in out] == [RachPreamble]


def test_airplane_toggle_clears_the_block():
    ue, drv = fresh()
    attach_to_reject_point(ue, drv)
    drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
    assert ue.phase is UePhase.BLOCKED
    drv.now = 1000
    ue.step(AirplaneToggle(), drv.now)
    assert ue.forbidden_plmns == [] and ue.phase is UePhase.SEARCHING
    out = drv.broadcast()
    assert out and isinstance(out[0].message, RachPreamble)


def test_eps_services_not_allowed_downgrades():
    gsm = (radio(900, rat=Rat.GSM), -45.0)
    ue, drv = fresh(visible=[(radio(10), -40.0), gsm])
    attach_to_reject_point(ue, drv)
    drv.dl(AttachReject(EmmCause.EPS_SERVICES_NOT_ALLOWED))
    assert ue.phase is UePhase.GSM_ONLY
    assert ue.rat_allowed is RatAllowed.GSM_ONLY
    assert ue.gsm_attached and ue.serving_cell == 900
    before = list(ue.stats.attach_attempts)
    drv.now = 500
    drv.broadcast()
    ue.step(Tick(drv.now), drv.now)
    assert ue.stats.attach_attempts == before


def test_downgrade_without_gsm_coverage_keeps_searching():
    ue, drv = fresh()  # only the LTE cell is visible
    attach_to_reject_point(ue, drv)
    drv.dl(AttachReject(EmmCause.EPS_SERVICES_NOT_ALLOWED))
    assert ue.phase is UePhase.SEARCHING
    assert ue.rat_allowed is RatAllowed.GSM_ONLY
    assert not ue.gsm_attached
    before = list(ue.stats.attach_attempts)
    for t in (200, 400, 600):
        drv.now = t
        drv.broadcast()
        ue.step(Tick(t), t)
    assert ue.stats.attach_attempts == before  # the LTE cell stays off limits
    assert ue.next_wake_ms() is not None  # still polling for 2G coverage


def test_hardened_device_ignores_cleartext_reject():
    ue, drv = fresh(hardened=True)
    attach_to_reject_point(ue, drv)
    drv.now = 10
    drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
    assert ue.stats.rejects_ignored == 1
    assert ue.forbidden_plmns == []
    assert ue.phase is UePhase.SEARCHING
    assert ue.barred_cells[10] == 10 + CELL_BAR_MS


def test_t3245_draws_cover_the_full_window():
    rng = random.Random(123)
    draws = [rng.randint(T3245_MIN_MS, T3245_MAX_MS) for _ in range(1000)]
    mid = (T3245_MIN_MS + T3245_MAX_MS) / 2
    assert all(T3245_MIN_MS <= d <= T3245_MAX_MS for d in draws)
    assert any(d < mid for d in draws) and any(d >= mid for d in draws)


# -- handover --------------------------------------------------------------------


def test_handover_order_moves_the_device():
    ue, drv = registered_ue()
    drv.broadcast(cell_id=11)  # target system information already heard
    out = drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(11, 4321)), protected=False)
    assert ue.phase is UePhase.RACH_IN_PROGRESS
    assert ue.serving_cell == 11
    assert ue.key_id is not None  # context survives the move
    assert isinstance(out[0].message, RachPreamble)
    drv.cell_id = 11
    out = drv.dl(MacRar(777), rnti=777)
    assert isinstance(out[0].message, RrcConnectionReconfigurationComplete)
    assert out[0].key_id == ue.key_id  # protected under the old context
    assert ue.phase is UePhase.REGISTERED
    # network then swaps the temporary id for the assigned one, in place
    drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(11, 4321)))
    assert ue.rnti == 4321
    assert ue.stats.handovers_completed == 1


def test_in_place_rekey_is_acknowledged():
    ue, drv = registered_ue()
    out = drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(10, 999)))
    assert ue.rnti == 999
    assert isinstance(out[0].message, RrcConnectionReconfigurationComplete)
    assert out[0].rnti == 999


def test_handover_rnti_history_records_the_trail():
    ue, drv = registered_ue()
    drv.broadcast(cell_id=11)
    drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(11, 4321)))
    drv.cell_id = 11
    drv.dl(MacRar(777), rnti=777)
    drv.dl(RrcConnectionReconfiguration(MobilityControlInfo(11, 4321)))
    cells_and_ids = [(c, r) for _, c, r in ue.stats.rnti_history]
    assert cells_and_ids == [(10, 500), (11, 777), (11, 4321)]


# -- which phases act on which serving-cell downlink ------------------------------

P = UePhase
PRE_ACCEPT = {P.RACH_IN_PROGRESS, P.CONNECTING, P.AUTHENTICATING, P.SECURED}
# Each serving-cell downlink and the phases that act on it, as the transition
# table in the module docstring of ltesim.ue lists them.
SERVING_DOWNLINKS = {
    "mac_rar": (MacRar(600), {P.RACH_IN_PROGRESS}),
    "setup": (RrcConnectionSetup(), {P.CONNECTING}),
    "identity_request": (IdentityRequest(IdentityKind.IMSI), {P.CONNECTING, P.AUTHENTICATING}),
    "auth_request": (AuthenticationRequest(bytes(16), derive_autn(KEY, bytes(16))), {P.CONNECTING}),
    "security_mode_command": (SecurityModeCommand(2), {P.AUTHENTICATING}),
    "attach_accept": (AttachAccept(0x2222BBBB, 100), {P.SECURED}),
    "attach_reject": (AttachReject(EmmCause.PLMN_NOT_ALLOWED), PRE_ACCEPT),
    "tau_reject": (TauReject(EmmCause.PLMN_NOT_ALLOWED), PRE_ACCEPT),
    "rekey_in_place": (
        RrcConnectionReconfiguration(MobilityControlInfo(10, 999)),
        {P.CONNECTING, P.AUTHENTICATING, P.SECURED, P.REGISTERED},
    ),
    "handover_order": (RrcConnectionReconfiguration(MobilityControlInfo(11, 999)), {P.REGISTERED}),
    "user_data": (UserData(10), set()),  # no phase acts on a downlink UserData
}


@pytest.mark.parametrize("phase", list(UePhase), ids=lambda phase: phase.value)
@pytest.mark.parametrize("name", list(SERVING_DOWNLINKS))
def test_serving_downlink_acts_only_in_its_phases(name, phase):
    msg, accepting = SERVING_DOWNLINKS[name]
    ue, drv = fresh()
    ue.sib1s[10] = sib(10)
    ue.phase, ue.serving_cell = phase, 10
    if phase in RNTI_PHASES - {P.RACH_IN_PROGRESS}:
        ue.rnti = 500
    before = (ue.phase, ue.rnti, ue.serving_cell, ue.next_wake_ms())
    out = drv.dl(msg, rnti=500)
    after = (ue.phase, ue.rnti, ue.serving_cell, ue.next_wake_ms())
    if phase in accepting:
        assert out or after != before
    else:
        assert out == [] and after == before


# -- broadcasts that change nothing ---------------------------------------------


def state_of(ue):
    """Everything a step could change, as a comparable deep copy."""
    state = copy.deepcopy({k: v for k, v in vars(ue).items() if k != "rng"})
    state["rng"] = ue.rng.getstate()
    return state


def ue_in(phase):
    """A device in `phase`, serving cell 10, holding both cells' Sib1s."""
    ue, drv = fresh()
    for cell_id, priority in ((11, ((1850, 3),)), (10, ((1850, 5), (1900, 1)))):
        drv.dl(sib(cell_id, priority=priority), rnti=0, cell_id=cell_id)
    ue.phase, ue.serving_cell, ue.rnti = phase, 10, 500 if phase in RNTI_PHASES - {P.RACH_IN_PROGRESS} else None
    return ue, drv


@pytest.mark.parametrize("phase", list(UePhase), ids=lambda phase: phase.value)
def test_mib_changes_no_device(phase):
    ue, drv = ue_in(phase)
    for cell_id in (10, 11):  # serving and foreign
        before = state_of(ue)
        assert drv.dl(Mib(50, 7), rnti=0, cell_id=cell_id) == []
        assert state_of(ue) == before


@pytest.mark.parametrize("phase", list(UePhase), ids=lambda phase: phase.value)
def test_a_sib1_already_held_changes_nothing(phase):
    ue, drv = ue_in(phase)
    offers = [sib(10, priority=((1850, 5), (1900, 1))), sib(10, tac=101), sib(11, priority=((1850, 3),)), sib(12)]
    held = [ue.already_has(msg) for msg in offers]
    if phase in (P.SEARCHING, P.BLOCKED):
        assert held == [False] * 4
        # A selecting device acts on any Sib1: this one finds its cell.
        assert [type(e.message) for e in drv.dl(offers[0], rnti=0)] == [RachPreamble]
        return
    assert held == [True, False, False, False]
    before = state_of(ue)
    assert drv.dl(offers[0], rnti=0) == []
    assert state_of(ue) == before


def test_a_sib1_is_news_again_once_another_cell_moves_a_shared_priority():
    ue, drv = ue_in(P.CAMPED_IDLE)
    own = sib(10, priority=((1850, 5), (1900, 1)))
    assert ue.already_has(own) and ue.earfcn_priority == {1850: 5, 1900: 1}
    drv.dl(sib(11, priority=((1850, 3),)), rnti=0, cell_id=11)
    assert not ue.already_has(own) and ue.earfcn_priority[1850] == 3
    drv.dl(own, rnti=0, cell_id=10)
    assert ue.already_has(own) and ue.earfcn_priority[1850] == 5


def test_unknown_event_is_an_illegal_transition():
    ue, _ = fresh()
    with pytest.raises(IllegalTransition):
        ue.step(object(), 0)


# -- misc ------------------------------------------------------------------------


def test_erase_tmsi():
    ue, _ = registered_ue()
    ue.erase_tmsi()
    assert ue.tmsi is None and ue.registered_tac is None


def test_erase_event_forces_full_attach_on_reselect():
    cells = [(radio(10), -40.0)]
    ue = Ue(profile(), random.Random(5), lambda now_ms: cells)
    drv = Driver(ue)
    ue.step(PowerOn(), 0)
    drv.broadcast()
    drv.run_ladder()
    ue.step(EraseTmsi(), 1000)
    drv.now = IDLE_AFTER_MS
    ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.CAMPED_IDLE
    # a stronger cell appears; with no context left this is a fresh attach
    cells.append((radio(11), -20.0))
    drv.now += 40
    drv.broadcast(cell_id=11)
    drv.now += 200
    out = ue.step(Tick(drv.now), drv.now)
    assert isinstance(out[0].message, RachPreamble)
    assert ue.serving_cell == 11
    drv.cell_id = 11
    drv.dl(MacRar(888), rnti=888)
    out = drv.dl(RrcConnectionSetup())
    req = out[0].message
    assert isinstance(req, AttachRequest)
    assert req.imsi == ue.profile.imsi and req.tmsi is None


def test_powered_off_ignores_traffic_and_toggle():
    ue, drv = fresh()
    assert ue.step(AppTraffic(10), 0) == []
    assert ue.step(AirplaneToggle(), 0) == []
    assert ue.phase is UePhase.POWERED_OFF


def test_stalled_procedure_times_out_and_reselects():
    ue, drv = fresh()
    ue.step(PowerOn(), 0)
    drv.broadcast()
    assert ue.phase is UePhase.RACH_IN_PROGRESS
    drv.now = 1000  # guard expiry; nothing ever answered
    out = ue.step(Tick(drv.now), drv.now)
    assert ue.phase is UePhase.RACH_IN_PROGRESS  # re-selected and retried
    assert isinstance(out[0].message, RachPreamble)


# -- camped rechecks skipped while their answer cannot change -----------------------
#
# Each case runs the same device twice, as shipped and with quiet turned off
# (`_quiet_horizon` answering "now"), so that the second rechecks on every
# instant of its 200 ms grid. Both must reselect on the same instant; the
# first must get there with fewer Ticks. Every device registers at 30 ms
# past a round second, so its grid (30 ms + k * 200 ms) never meets a
# round horizon by luck.

def hearing(cells):
    """A maker of devices that hear `cells` and nothing else, ever."""
    return lambda: Ue(profile(), random.Random(5), lambda now_ms: cells, lambda now_ms: None)


def run_alone(ue, script, start, until):
    """Step one device as the engine does when it is alone on the air: each
    scripted (t, event) at its instant, then a Tick if its wake is due.
    Returns (t, phase, serving cell) at every change, and the Tick count."""
    script = sorted(script, key=lambda item: item[0])
    log, ticks, t = [], 0, start

    def note():
        if not log or log[-1][1:] != (ue.phase, ue.serving_cell):
            log.append((t, ue.phase, ue.serving_cell))

    while True:
        wake = ue.next_wake_ms()
        assert wake is None or wake > t, "past due"
        t = min(x for x in (wake, script[0][0] if script else None, until + 1) if x is not None)
        if t > until:
            return log, ticks
        while script and script[0][0] == t:
            ue.step(script.pop(0)[1], t)
            note()
        wake = ue.next_wake_ms()
        if wake is not None and wake <= t:
            ue.step(Tick(t), t)
            ticks += 1
            note()


def twins(make, setup):
    """The same device after the same setup, as shipped and rechecking on
    every grid instant."""
    pair = []
    for always in (False, True):
        ue = make()
        if always:
            ue._quiet_horizon = lambda now_ms: now_ms
        drv = Driver(ue)
        drv.now = 30
        setup(ue, drv)
        pair.append(ue)
    return pair


def assert_same_reselection(make, setup, until, expect, script=()):
    shipped, always = twins(make, setup)
    (log, ticks), (want, want_ticks) = (run_alone(ue, list(script), 30, until) for ue in (shipped, always))
    assert log == want
    assert expect in log
    assert ticks < want_ticks


def register_on_10(*sibs):
    def setup(ue, drv):
        ue.step(PowerOn(), drv.now)
        drv.broadcast()
        drv.run_ladder()
        for msg in sibs:  # held, but a registered device does not reselect
            drv.dl(msg, rnti=0, cell_id=msg.cell_id)

    return setup


def test_quiet_ends_when_a_barred_cell_is_free_again():
    cells = [(radio(10), -40.0), (radio(11), -20.0)]

    def setup(ue, drv):
        ue.step(PowerOn(), drv.now)
        drv.broadcast(cell_id=11)  # the stronger cell first: it turns us away
        drv.cell_id = 11
        drv.dl(MacRar(600), rnti=600)
        drv.dl(RrcConnectionSetup())
        drv.dl(AttachReject(EmmCause.CONGESTION_BENIGN))
        assert ue.barred_cells == {11: 30 + CELL_BAR_MS}
        drv.now += ATTACH_BACKOFF_MS
        ue.step(Tick(drv.now), drv.now)
        drv.cell_id = 10
        drv.broadcast()
        drv.run_ladder()

    # The first grid instant at or after the bar's end, 300,030 ms.
    expect = (30 + CELL_BAR_MS, UePhase.CAMPED_IDLE, 11)
    assert_same_reselection(hearing(cells), setup, 301_000, expect)


def test_quiet_ends_when_a_forbidden_operator_is_allowed_again(monkeypatch):
    # A short T3245 keeps the twin's rechecks few: the entry lapses at 7,153 ms.
    monkeypatch.setattr("ltesim.ue.T3245_MIN_MS", 7_123)
    monkeypatch.setattr("ltesim.ue.T3245_MAX_MS", 7_123)
    other = Plmn("310", "410")
    rival = RadioCell(CellIdentity(11, 100, other, 1850), (0.0, 0.0), 43.0)
    cells = [(radio(10), -40.0), (rival, -20.0)]

    def setup(ue, drv):
        ue.step(PowerOn(), drv.now)
        drv.dl(sib(11, plmn=other), rnti=0, cell_id=11)
        drv.cell_id = 11
        drv.dl(MacRar(600), rnti=600)
        drv.dl(RrcConnectionSetup())
        drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
        assert ue.forbidden_plmns == [(other, 30 + 7_123)]
        drv.cell_id = 10
        drv.broadcast()
        drv.run_ladder()

    # The lapse at 7,153 ms is a Tick off the grid: it ends the quiet, and the
    # recheck waits for the next grid instant, 7,230.
    expect = (7_230, UePhase.CAMPED_IDLE, 11)
    assert_same_reselection(hearing(cells), setup, 9_000, expect)


def two_cell_sight(spec, rogue=None):
    radios = [RadioCell(CellIdentity(cid, 100, PLMN, 1850), (x, 0.0), 43.0) for cid, x in ((10, 0.0), (11, 800.0))]
    if rogue is not None:
        radios.append(rogue.config.radio)
    return Sight(spec, radios, rogue, DEFAULT_RX_FLOOR_DBM, PathLossModel())


def walker_spec(x, moves=()):
    moves = tuple(WaypointSpec(t, (to, 0.0)) for t, to in moves)
    p = profile()
    return UeSpec(p.imsi, p.key, p.msisdn, p.imei, name="w", position=(x, 0.0), moves=moves)


def test_quiet_ends_when_the_device_starts_to_walk():
    # Stands at x=100 until 8,000 ms, then walks to x=700 by 12,000 ms: it
    # passes the midpoint between the cells at 10,000 ms.
    spec = walker_spec(100.0, [(8_000, 100.0), (12_000, 700.0)])

    def make():
        sight = two_cell_sight(spec)
        return Ue(spec, random.Random(5), sight, sight.steady_until)

    expect = (10_030, UePhase.CAMPED_IDLE, 11)
    assert_same_reselection(make, register_on_10(sib(11)), 14_000, expect)


def rogue_cell(tac, window):
    radio = RadioCell(CellIdentity(999, tac, PLMN, 3350), (50.0, 0.0), 46.0, is_rogue=True)
    config = RogueCellConfig(radio, mode="imsi_catcher", priority_earfcns=((3350, 7),), active_ms=window)
    return RogueCell(config, random.Random(1))


def test_quiet_ends_when_the_rogue_comes_on_air():
    # The device holds the rogue's Sib1 (tac 101, top priority) but hears the
    # rogue only from 9,000 ms: it leaves for it on the next grid instant.
    spec = walker_spec(100.0)

    def make():
        sight = two_cell_sight(spec, rogue_cell(101, (9_000, 15_000)))
        return Ue(spec, random.Random(5), sight, sight.steady_until)

    rogue_sib = sib(999, tac=101, priority=((3350, 7),))
    expect = (9_030, UePhase.RACH_IN_PROGRESS, 999)
    assert_same_reselection(make, register_on_10(sib(11), rogue_sib), 12_000, expect)


def test_quiet_ends_when_the_rogue_goes_off_air():
    # A rogue in the device's own tracking area takes it over silently at
    # its first recheck; when the rogue goes off air at 9,000 ms the device
    # returns to the operator's cell on the next grid instant.
    spec = walker_spec(100.0)

    def make():
        sight = two_cell_sight(spec, rogue_cell(100, (2_000, 9_000)))
        return Ue(spec, random.Random(5), sight, sight.steady_until)

    rogue_sib = sib(999, priority=((3350, 7),))
    expect = (9_030, UePhase.CAMPED_IDLE, 10)
    assert_same_reselection(make, register_on_10(sib(11), rogue_sib), 12_000, expect)


def test_quiet_ends_with_any_step():
    # A quiet device hears at 7,777 ms that cell 11's channel now has the top
    # priority: that step puts it back on its grid, so it rechecks at 7,830.
    cells = [(radio(10), -40.0), (radio(11, earfcn=3350), -60.0)]
    news = Emission(11, 0, sib(11, priority=((3350, 7),)))
    expect = (7_830, UePhase.CAMPED_IDLE, 11)
    assert_same_reselection(hearing(cells), register_on_10(sib(11)), 9_000, expect, script=[(7_777, news)])


# -- one writer for the phase ---------------------------------------------------------


def test_only_enter_writes_the_phase():
    source = pathlib.Path(ue_module.__file__).read_text()
    assert source.count("self.phase =") == 1
    writers = [
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Attribute) and leaf.attr == "phase"
    ]
    assert writers == ["_enter"]


OWNERSHIP_CASES = [
    *[(path.stem, lambda path=path: load_scenario(path)) for path in sorted(SCENARIO_DIR.glob("*.json"))],
    ("benign-day", lambda: parse_scenario(benign_day_scenario())),
    *[
        (f"walk-encrypt={e}-refresh={r}", lambda e=e, r=r: parse_scenario(walk_scenario(1, encrypt=e, refresh=r)))
        for e in (False, True)
        for r in (False, True)
    ],
    ("crowd-50", lambda: parse_scenario(crowd_scenario(50))),
]


@pytest.mark.parametrize("make", [make for _, make in OWNERSHIP_CASES], ids=[name for name, _ in OWNERSHIP_CASES])
def test_each_phase_holds_exactly_what_it_owns(monkeypatch, make):
    """After every step of a whole run: the procedure guard is set exactly in
    the pre-accept phases, the measurement timer exactly in Registered, and
    outside RNTI_PHASES no radio id, security context, purpose or activity
    clock is held."""
    step, seen = Ue.step, set()

    def checked_step(ue, event, now_ms):
        out = step(ue, event, now_ms)
        where = (ue.profile.name, now_ms, ue.phase)
        assert (ue._proc_deadline_ms is not None) == (ue.phase in PRE_ACCEPT), where
        assert (ue._next_meas_ms is not None) == (ue.phase is P.REGISTERED), where
        if ue.phase not in RNTI_PHASES:
            assert (ue.rnti, ue.key_id, ue._purpose, ue._last_activity_ms) == (None,) * 4, where
        seen.add(ue.phase)
        return out

    monkeypatch.setattr(Ue, "step", checked_step)
    run(make())
    assert PRE_ACCEPT | {P.SEARCHING, P.REGISTERED} <= seen  # every run climbs the whole ladder


# -- a measurement report re-sent while the cells heard stand still --------------------


def reports_over(spec, rogue, until_ms):
    """A device registered on cell 10 at 0 ms, ticked on its measurement
    timer up to until_ms: each report it sends, the list of cells it heard
    then, and the report a twin sends that is handed a new copy of that
    list at every call, so it builds every report afresh."""
    sight = two_cell_sight(spec, rogue)
    devices = [Ue(spec, random.Random(5), sight, sight.steady_until)]
    devices.append(Ue(spec, random.Random(5), lambda now_ms: list(sight(now_ms)), sight.steady_until))
    for ue in devices:
        register_on_10()(ue, Driver(ue))
    sent = []
    for now in range(MEAS_PERIOD_MS, until_ms + 1, MEAS_PERIOD_MS):
        (report,), (fresh,) = ([e.message for e in ue.step(Tick(now), now)] for ue in devices)
        sent.append((report, sight(now), fresh))
    assert all(ue.phase is UePhase.REGISTERED for ue in devices)
    return sent


def test_a_device_that_stands_still_resends_the_same_report():
    sent = reports_over(walker_spec(100.0), None, 4_000)
    assert all(report is sent[0][0] and report == fresh for report, _, fresh in sent)
    assert sent[0][0].neighbors[0][0] == 10


@pytest.mark.parametrize(
    "spec, rogue",
    [
        (walker_spec(100.0, [(1_000, 100.0), (3_000, 700.0)]), None),  # walks toward cell 11
        (walker_spec(100.0), rogue_cell(100, (1_900, 3_100))),  # the rogue comes on air, then leaves
    ],
    ids=["moves", "rogue-on-air"],
)
def test_a_device_whose_heard_cells_change_builds_its_report_afresh(spec, rogue):
    sent = reports_over(spec, rogue, 4_800)
    assert len({report for report, _, _ in sent}) >= 2
    for (before, heard_before, _), (report, heard, fresh) in zip(sent, sent[1:]):
        assert report == fresh
        assert (report is before) == (heard is heard_before)
