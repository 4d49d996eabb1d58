"""Device-side control-plane state machine.

One class drives a phone's whole life: scan, camp, random-access,
connect, authenticate, register, report measurements, follow handover
orders, fall idle, wake on paging. The transition table below is the
contract; everything in it is deterministic given the event stream and
the device's seeded RNG.

Phase transitions. A row on a serving-cell downlink is an entry of
`_ON_SERVING_RX`: only the phases on its left act on the message.

    PoweredOff   --PowerOn-->                    Searching
    Searching    --eligible cell selected-->     RachInProgress (preamble sent)
    RachInProgress --MacRar-->                   Connecting (adopt temp rnti,
                                                 send RrcConnectionRequest);
                                                 for a handover arrival instead:
                                                 Registered (send reconfiguration
                                                 complete)
    Connecting   --RrcConnectionSetup-->         Connecting (send AttachRequest,
                                                 or TauRequest when registered
                                                 area differs)
    Connecting, Authenticating --IdentityRequest--> same (IMSI or IMEI, clear)
    Connecting   --AuthenticationRequest-->      Authenticating (verify autn,
                                                 send response)
    Authenticating --SecurityModeCommand-->      Secured (send complete clear,
                                                 then activate protection)
    Secured      --AttachAccept-->               Registered (store tmsi, tac)
    RachInProgress..Secured --AttachReject/TauReject--> by cause:
        congestion_benign: bar the cell, back off 1000 ms, Searching
        plmn_not_allowed: forbid the plmn for a T3245 draw of 24..48 h,
                          Blocked if every visible cell is now forbidden
                          else Searching
        eps_services_not_allowed: GsmOnly (LTE abandoned until toggle)
    Registered   --reconfiguration w/ mobility-->RachInProgress at target
    Connecting..Registered --reconfiguration to self--> same (adopt new rnti)
    Registered   --5000 ms without user data-->  CampedIdle (drop rnti and
                                                 security context, keep tmsi)
    CampedIdle   --recheck every 200 ms-->       CampedIdle on the best cell
                                                 (RachInProgress for a new
                                                 tracking area or no context)
    CampedIdle   --paging/app traffic-->         RachInProgress (wake)
    any armed    --AirplaneToggle-->             Searching (forbidden cleared,
                                                 LTE re-allowed, session dropped)

A camped recheck that keeps the serving cell leaves the device quiet:
its later rechecks are skipped, because their answer cannot change, up
to the first instant on its 200 ms grid at or after its quiet horizon.
That horizon is the earlier of a live barred cell's expiry and the
instant what the device hears may change (`steady_until`: its position,
or the rogue cell going on or off air). Every other input of a recheck
changes only in a step; a forbidden operator's expiry is a Tick of its
own. So any step ends the quiet and puts the next recheck back on the
grid, at the first grid instant at or after the step, and the device
goes on exactly as one that rechecked every 200 ms.

A hardened device (`reject_requires_integrity`) refuses to act on the
cause byte of any reject that arrives without integrity protection: the
connection still drops, but it bars the cell, backs off, and retries
instead of blocking itself or downgrading. In this model every reject is
unprotected, which is precisely the weakness the toggle addresses.

A Registered device re-sends its last MeasurementReport object while its
visibility hands back the same list of cells heard, as `Sight` does while
neither the device nor the rogue moves; the engine then writes it from a
template.

The RNTI appears in every frame header this device sends or is addressed
by; phases RachInProgress..Registered are the span where one may be
held. A security context exists only in Secured/Registered, or in
transit during a handover RACH.

`Ue._enter` alone writes the phase, and sets or drops what it owns: a
fresh procedure guard in each of RachInProgress..Secured, a measurement
timer (and no camped recheck) in Registered, and outside
RachInProgress..Registered no radio id, security context, purpose or
activity clock. Two timers outlive theirs: a congestion backoff, cleared
only by a Tick in Searching or Blocked, and a camped recheck, which
stays set into Searching.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Optional

from . import codec
from .codec import (
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
    Message,
    Paging,
    RachPreamble,
    RrcConnectionReconfiguration,
    RrcConnectionReconfigurationComplete,
    RrcConnectionRequest,
    RrcConnectionSetup,
    SecurityModeCommand,
    Sib1,
    TauReject,
    TauRequest,
    UserData,
)
from .crypto_stub import derive_autn, stub_mac
from .identity import Imsi, Plmn
from .radio import RadioCell, Rat
from .record import Field, Record

T3245_MIN_MS = 86_400_000
T3245_MAX_MS = 172_800_000
MEAS_PERIOD_MS = 200
ATTACH_BACKOFF_MS = 1_000
IDLE_AFTER_MS = 5_000
CAMPED_RECHECK_MS = 200
PROC_GUARD_MS = 1_000
CELL_BAR_MS = 300_000


class IllegalTransition(RuntimeError):
    """Raised when the state machine is driven somewhere it cannot go."""


class UePhase(enum.Enum):
    POWERED_OFF = "powered_off"
    SEARCHING = "searching"
    CAMPED_IDLE = "camped_idle"
    RACH_IN_PROGRESS = "rach_in_progress"
    CONNECTING = "connecting"
    AUTHENTICATING = "authenticating"
    SECURED = "secured"
    REGISTERED = "registered"
    BLOCKED = "blocked"
    GSM_ONLY = "gsm_only"


class RatAllowed(enum.Enum):
    LTE_AND_GSM = "lte_and_gsm"
    GSM_ONLY = "gsm_only"


# The phases that own a procedure guard, and the radio-id-holding span;
# see module docstring.
_PRE_ACCEPT = {UePhase.RACH_IN_PROGRESS, UePhase.CONNECTING, UePhase.AUTHENTICATING, UePhase.SECURED}
RNTI_PHASES = _PRE_ACCEPT | {UePhase.REGISTERED}
_RNTI_HELD = RNTI_PHASES - {UePhase.RACH_IN_PROGRESS}  # an rnti always held
# Where next_wake_ms counts a recheck and an idle timeout; tuples, since a set hashes a member in Python.
_RECHECK_PHASES, _IDLE_TIMER_PHASES = (UePhase.SEARCHING, UePhase.CAMPED_IDLE), (UePhase.REGISTERED,)


class PowerOn(Record):
    pass


class AirplaneToggle(Record):
    pass


class EraseTmsi(Record):
    pass


class Tick(Record):
    now_ms: int


class AppTraffic(Record):
    byte_count: int


class UeProfile(Record):
    """SIM and hardware identity of one device; the core's HSS keeps it
    as the subscriber's record."""

    imsi: Imsi
    key: bytes
    msisdn: str
    imei: str
    initial_tmsi: Optional[int] = None
    hardened: bool = False


class Emission(Record, frozen=False):
    """One frame a party wants on the air, with the addressing it chose
    at the moment of creation: a device's uplink, or a core or rogue
    downlink, where rnti 0 marks a broadcast. The receiving party gets
    this same object, a device by `Ue.step` and a cell's owner by
    `handle_uplink`; the wire header (`codec.FrameHeader`) is built
    only for the codec and the observer."""

    cell_id: int
    rnti: int
    message: Message
    key_id: Optional[int] = None


class UeStats(Record, frozen=False):
    """Ground-truth counters the harness reads off the device."""

    attach_attempts: list[tuple[int, str, str]] = Field(factory=list)
    imsi_cleartext_uplinks: int = 0
    handovers_completed: int = 0
    idle_transitions: int = 0
    rejects_ignored: int = 0
    rnti_history: list[tuple[int, int, int]] = Field(factory=list)


def select_cell(
    visible: list[tuple[RadioCell, float]],
    sib1s: dict[int, Sib1],
    earfcn_priority: dict[int, int],
    forbidden_plmns: list[tuple[Plmn, int]],
    barred_cells: dict[int, int],
    rat_allowed: RatAllowed,
    now_ms: int,
) -> Optional[int]:
    """Pick the cell a device would camp on, or None.

    Eligibility: LTE cell with a received Sib1, rx above the cell's own
    advertised minimum, operator not under a live forbidden entry, cell
    not temporarily barred. Among eligible cells the advertised channel
    priority (0 for an unadvertised channel) wins first, then rx power,
    then the lower cell id.
    """
    if rat_allowed is RatAllowed.GSM_ONLY:
        return None
    live_forbidden = {str(p) for p, deadline in forbidden_plmns if deadline > now_ms}
    best: Optional[tuple[int, float, int]] = None
    for cell, rx in visible:
        if cell.rat is not Rat.LTE:
            continue
        sib = sib1s.get(cell.cell_id)
        if sib is None:
            continue
        if rx < sib.min_rx_level_dbm:
            continue
        if str(sib.plmn) in live_forbidden:
            continue
        if barred_cells.get(cell.cell_id, 0) > now_ms:
            continue
        key = (-earfcn_priority.get(cell.identity.earfcn, 0), -rx, cell.cell_id)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2]


def _may_change_now(now_ms: int) -> Optional[int]:
    return now_ms


def _on_grid(anchor_ms: int, at_ms: int) -> int:
    """The first camped recheck instant at or after at_ms on the grid
    through anchor_ms."""
    return anchor_ms - (anchor_ms - at_ms) // CAMPED_RECHECK_MS * CAMPED_RECHECK_MS


class Ue:
    """One device. Feed it events via step(): PowerOn, AirplaneToggle,
    EraseTmsi, AppTraffic, a Tick when its wake is due, or a downlink
    `Emission` as its sender made it. Collect its uplinks.

    `visibility(now_ms)` lists the cells heard then with their rx; a list
    it hands back again must be unchanged, since the device re-sends the
    report it built from it. `steady_until(now_ms)` is the first instant
    after which that list may differ from the one at now_ms, None for
    never; by default it may change at any time, so no camped recheck is
    skipped."""

    def __init__(
        self,
        profile: UeProfile,
        rng: random.Random,
        visibility: Callable[[int], list[tuple[RadioCell, float]]],
        steady_until: Callable[[int], Optional[int]] = _may_change_now,
    ):
        self.profile = profile
        self.rng = rng
        self._visible = visibility
        self._steady_until = steady_until

        self.rat_allowed = RatAllowed.LTE_AND_GSM
        self.tmsi: Optional[int] = profile.initial_tmsi
        self.registered_tac: Optional[int] = None
        self.serving_cell: Optional[int] = None
        self.forbidden_plmns: list[tuple[Plmn, int]] = []
        self.barred_cells: dict[int, int] = {}
        self.gsm_attached = False

        self.sib1s: dict[int, Sib1] = {}
        self.earfcn_priority: dict[int, int] = {}
        self.stats = UeStats()

        self._pending_app: list[int] = []
        self._paged = False
        self._camped_recheck_ms: Optional[int] = None
        # The last no-op camped recheck while quiet (see module docstring).
        self._quiet_since_ms: Optional[int] = None
        self._backoff_until_ms: Optional[int] = None
        # The cells heard at the last measurement report, and that report.
        self._last_report: tuple[Optional[list], Optional[MeasurementReport]] = None, None
        # The phase and what it owns: rnti, key_id (the security context,
        # while one is live), _purpose, _proc_deadline_ms, _next_meas_ms
        # and _last_activity_ms.
        self._enter(UePhase.POWERED_OFF, 0)

    # -- event entry point ------------------------------------------------

    def step(self, event: object, now_ms: int) -> list[Emission]:
        handler = _ON_EVENT.get(type(event))
        if handler is None:
            raise IllegalTransition(f"unknown event: {event!r}")
        if self._quiet_since_ms is not None:
            self.end_quiet(now_ms)
        out: list[Emission] = []
        handler(self, event, now_ms, out)
        self._check_local_invariants()
        return out

    def already_has(self, msg: Message) -> bool:
        """True when receiving this broadcast would change nothing: a Sib1
        equal to the one held for its cell, whose channel priorities all
        still stand, reaching a device that is not selecting a cell. The
        engine's per-Sib1 subscriber sets hold the powered devices for
        which this is False; it is their membership rule and, asked of
        every device, their test oracle."""
        return (
            type(msg) is Sib1
            and self.phase not in (UePhase.SEARCHING, UePhase.BLOCKED)
            and self.sib1s.get(msg.cell_id) == msg
            and all(self.earfcn_priority.get(earfcn) == priority for earfcn, priority in msg.priority_earfcns)
        )

    @property
    def quiet(self) -> bool:
        """True while camped rechecks are being skipped."""
        return self._quiet_since_ms is not None

    def end_quiet(self, now_ms: int) -> None:
        """Move the next camped recheck back to the first instant at or
        after now_ms on the grid of the last one."""
        self._camped_recheck_ms = _on_grid(self._quiet_since_ms, now_ms)
        self._quiet_since_ms = None

    def erase_tmsi(self) -> None:
        """Directive: lose the temporary identity, as after SIM state loss."""
        self.tmsi = None
        self.registered_tac = None

    def next_wake_ms(self) -> Optional[int]:
        """Earliest future instant this device wants a Tick, None for none: a
        running minimum over the timers set, each counted in its phases."""
        wake, phase = self._next_meas_ms, self.phase
        at = self._camped_recheck_ms
        if at is not None and phase in _RECHECK_PHASES and (wake is None or at < wake):
            wake = at
        at = self._proc_deadline_ms
        if at is not None and (wake is None or at < wake):
            wake = at
        at = self._backoff_until_ms
        if at is not None and (wake is None or at < wake):
            wake = at
        if self._last_activity_ms is not None and phase in _IDLE_TIMER_PHASES:
            at = self._last_activity_ms + IDLE_AFTER_MS
            if wake is None or at < wake:
                wake = at
        for _, at in self.forbidden_plmns:
            if wake is None or at < wake:
                wake = at
        return wake

    # -- events: each takes (event, now_ms, out); see _ON_EVENT --------------

    def _power_on(self, event: PowerOn, now_ms: int, out: list[Emission]) -> None:
        if self.phase is UePhase.POWERED_OFF:
            self._restart(now_ms)

    def _airplane_toggle(self, event: AirplaneToggle, now_ms: int, out: list[Emission]) -> None:
        if self.phase is not UePhase.POWERED_OFF:
            self._restart(now_ms)

    def _tick(self, event: Tick, now_ms: int, out: list[Emission]) -> None:
        self._expire_forbidden(now_ms)
        if self.phase in (UePhase.SEARCHING, UePhase.BLOCKED):
            if self._backoff_until_ms is None or now_ms >= self._backoff_until_ms:
                self._backoff_until_ms = None
                self._attempt_selection(now_ms, out)
                if self.rat_allowed is RatAllowed.GSM_ONLY and not self.gsm_attached:
                    # 2G cells do not broadcast here; keep polling.
                    self._camped_recheck_ms = now_ms + CAMPED_RECHECK_MS
        elif self.phase is UePhase.CAMPED_IDLE:
            if self._paged or self._pending_app:
                self._start_wake(now_ms, out)
            elif self._camped_recheck_ms is not None and now_ms >= self._camped_recheck_ms:
                self._camped_recheck_ms = now_ms + CAMPED_RECHECK_MS
                self._camped_reselect(now_ms, out)
        elif self.phase is UePhase.REGISTERED:
            if self._last_activity_ms is not None and now_ms - self._last_activity_ms >= IDLE_AFTER_MS:
                self._go_idle(now_ms)
            elif now_ms >= self._next_meas_ms:
                self._next_meas_ms = now_ms + MEAS_PERIOD_MS
                self._emit_measurement_report(now_ms, out)
        elif self.phase in _PRE_ACCEPT:
            if now_ms >= self._proc_deadline_ms:
                # Procedure stalled; drop it and look again.
                self._drop_session(now_ms)
                self._attempt_selection(now_ms, out)

    def _rx(self, frame: Emission, now_ms: int, out: list[Emission]) -> None:
        msg = frame.message
        kind = type(msg)
        if kind is Sib1:
            self.sib1s[msg.cell_id] = msg
            for earfcn, priority in msg.priority_earfcns:
                self.earfcn_priority[earfcn] = priority
            if self.phase in (UePhase.SEARCHING, UePhase.BLOCKED):
                if self._backoff_until_ms is None or now_ms >= self._backoff_until_ms:
                    self._attempt_selection(now_ms, out)
        elif kind is Paging:
            mine = (msg.tmsi is not None and msg.tmsi == self.tmsi) or (
                msg.imsi is not None and msg.imsi == self.profile.imsi
            )
            if mine and self.phase is UePhase.CAMPED_IDLE:
                self._paged = True
                self._start_wake(now_ms, out)
        elif frame.cell_id == self.serving_cell:
            entry = _ON_SERVING_RX.get(kind)
            if entry is not None and self.phase in entry[1]:
                entry[0](self, frame, msg, now_ms, out)

    def _app_traffic(self, event: AppTraffic, now_ms: int, out: list[Emission]) -> None:
        if self.phase is UePhase.REGISTERED:
            self._last_activity_ms = now_ms
            out.append(self._emission(UserData(event.byte_count)))
        elif self.phase is not UePhase.POWERED_OFF:
            self._pending_app.append(event.byte_count)
            if self.phase is UePhase.CAMPED_IDLE:
                self._start_wake(now_ms, out)

    # -- selection and camping ----------------------------------------------

    def _select(self, visible: list[tuple[RadioCell, float]], now_ms: int) -> Optional[int]:
        return select_cell(
            visible,
            self.sib1s,
            self.earfcn_priority,
            self.forbidden_plmns,
            self.barred_cells,
            self.rat_allowed,
            now_ms,
        )

    def _attempt_selection(self, now_ms: int, out: list[Emission]) -> None:
        if self.rat_allowed is RatAllowed.GSM_ONLY:
            # Still hunting for a 2G cell; camped only once one is found.
            self._try_gsm_attach(now_ms)
            return
        visible = self._visible(now_ms)
        choice = self._select(visible, now_ms)
        if choice is not None:
            self._start_rach(choice, "attach", now_ms, out)
            return
        self._enter(UePhase.BLOCKED if self._all_visible_forbidden(visible, now_ms) else UePhase.SEARCHING, now_ms)

    def _all_visible_forbidden(self, visible: list[tuple[RadioCell, float]], now_ms: int) -> bool:
        live = {str(p) for p, deadline in self.forbidden_plmns if deadline > now_ms}
        known = [c for c, _ in visible if c.rat is Rat.LTE and c.cell_id in self.sib1s]
        if not known:
            return False
        return all(str(self.sib1s[c.cell_id].plmn) in live for c in known)

    def _camped_reselect(self, now_ms: int, out: list[Emission]) -> None:
        choice = self._select(self._visible(now_ms), now_ms)
        if choice is None or choice == self.serving_cell:
            self._go_quiet(now_ms)
            return
        self.serving_cell = choice
        sib = self.sib1s[choice]
        if self.tmsi is None or self.registered_tac is None:
            # No registration context to carry over: start from scratch.
            self._start_rach(choice, "attach", now_ms, out)
        elif sib.tac != self.registered_tac:
            # New tracking area: the network must be told where we are.
            self._start_rach(choice, "tau", now_ms, out)

    def _go_quiet(self, now_ms: int) -> None:
        """After a no-op recheck at now_ms: skip to the first grid instant
        at or after the quiet horizon, or for good if there is none."""
        if self._backoff_until_ms is not None:
            # Left over from Searching, so already past: the device is past
            # due, and the engine would end its quiet at once.
            return
        horizon = self._quiet_horizon(now_ms)
        if horizon is None:
            self._camped_recheck_ms = None
        elif horizon > self._camped_recheck_ms:
            self._camped_recheck_ms = _on_grid(now_ms, horizon)
        else:
            return  # the next recheck comes first anyway
        self._quiet_since_ms = now_ms

    def _quiet_horizon(self, now_ms: int) -> Optional[int]:
        """No later than the first instant after now_ms at which a camped
        recheck may choose otherwise though the device is not stepped, None
        for never. A forbidden operator's expiry needs no place here: the
        device has a Tick then, and that step ends the quiet."""
        ends = [until for until in self.barred_cells.values() if until > now_ms]
        heard = self._steady_until(now_ms)
        if heard is not None:
            ends.append(heard)
        return min(ends, default=None)

    def _try_gsm_attach(self, now_ms: int) -> None:
        for cell, _rx in self._visible(now_ms):
            if cell.rat is Rat.GSM:
                self.serving_cell = cell.cell_id
                self.gsm_attached = True
                self._enter(UePhase.GSM_ONLY, now_ms)
                return

    def _start_rach(self, cell_id: int, purpose: str, now_ms: int, out: list[Emission]) -> None:
        self.serving_cell = cell_id
        self._enter(UePhase.RACH_IN_PROGRESS, now_ms)
        self._purpose = purpose
        self.rnti = None
        out.append(self._emission(RachPreamble(self.rng.randrange(64)), force_clear=True))

    def _start_wake(self, now_ms: int, out: list[Emission]) -> None:
        if self.serving_cell is None or self.serving_cell not in self.sib1s:
            self._enter(UePhase.SEARCHING, now_ms)
            self._attempt_selection(now_ms, out)
            return
        sib = self.sib1s[self.serving_cell]
        purpose = "attach"
        if self.tmsi is not None and self.registered_tac is not None and sib.tac != self.registered_tac:
            purpose = "tau"
        self._start_rach(self.serving_cell, purpose, now_ms, out)

    # -- serving-cell downlinks: each takes (frame, msg, now_ms, out) and
    # runs only in the phases _ON_SERVING_RX names for its message type ----

    def _on_mac_rar(self, frame: Emission, msg: MacRar, now_ms: int, out: list[Emission]) -> None:
        self.rnti = msg.temp_rnti
        self.stats.rnti_history.append((now_ms, self.serving_cell, msg.temp_rnti))
        if self._purpose == "handover":
            self._enter(UePhase.REGISTERED, now_ms)
            out.append(self._emission(RrcConnectionReconfigurationComplete()))
            return
        self._enter(UePhase.CONNECTING, now_ms)
        if self.tmsi is not None:
            ident = RrcConnectionRequest(tmsi=self.tmsi)
        else:
            ident = RrcConnectionRequest(random_id=self.rng.getrandbits(40))
        out.append(self._emission(ident))

    def _on_setup(self, frame: Emission, msg: RrcConnectionSetup, now_ms: int, out: list[Emission]) -> None:
        self._proc_deadline_ms = now_ms + PROC_GUARD_MS
        plmn = str(self._serving_plmn() or "?")
        if self._purpose == "tau" and self.tmsi is not None:
            sib = self.sib1s[self.serving_cell]
            self.stats.attach_attempts.append((now_ms, plmn, "tau"))
            out.append(self._emission(TauRequest(self.tmsi, sib.tac)))
            return
        self.stats.attach_attempts.append((now_ms, plmn, "attach"))
        if self.tmsi is not None:
            out.append(self._emission(AttachRequest(tmsi=self.tmsi)))
        else:
            self.stats.imsi_cleartext_uplinks += 1
            out.append(self._emission(AttachRequest(imsi=self.profile.imsi)))

    def _on_identity_request(self, frame: Emission, msg: IdentityRequest, now_ms: int, out: list[Emission]) -> None:
        if msg.requested is IdentityKind.IMSI:
            self.stats.imsi_cleartext_uplinks += 1
            out.append(self._emission(IdentityResponse(imsi=self.profile.imsi)))
        else:
            out.append(self._emission(IdentityResponse(imei=self.profile.imei)))

    def _on_auth_request(
        self, frame: Emission, msg: AuthenticationRequest, now_ms: int, out: list[Emission]
    ) -> None:
        if derive_autn(self.profile.key, msg.rand) != msg.autn:
            # Challenger does not hold our key; a real network always does.
            return
        self._enter(UePhase.AUTHENTICATING, now_ms)
        out.append(self._emission(AuthenticationResponse(stub_mac(self.profile.key, msg.rand))))

    def _on_security_mode_command(
        self, frame: Emission, msg: SecurityModeCommand, now_ms: int, out: list[Emission]
    ) -> None:
        self.key_id = msg.key_id
        # The completion itself crosses before protection switches on.
        out.append(self._emission(codec.SecurityModeComplete(), force_clear=True))
        self._enter(UePhase.SECURED, now_ms)

    def _on_attach_accept(self, frame: Emission, msg: AttachAccept, now_ms: int, out: list[Emission]) -> None:
        self.tmsi = msg.tmsi
        self.registered_tac = msg.tac
        self._enter(UePhase.REGISTERED, now_ms)
        self._purpose = None
        self._paged = False
        self._last_activity_ms = now_ms
        for byte_count in self._pending_app:
            out.append(self._emission(UserData(byte_count)))
        self._pending_app.clear()

    def _on_reject(self, frame: Emission, msg: AttachReject | TauReject, now_ms: int, out: list[Emission]) -> None:
        cause = msg.emm_cause
        if self.profile.hardened and frame.key_id is None:
            # Unauthenticated cause byte: refuse to honor it, back off as
            # from congestion.
            self.stats.rejects_ignored += 1
            cause = EmmCause.CONGESTION_BENIGN
        plmn = self._serving_plmn()
        self._drop_session(now_ms)
        if cause is EmmCause.CONGESTION_BENIGN:
            self.barred_cells[frame.cell_id] = now_ms + CELL_BAR_MS
            self._backoff_until_ms = now_ms + ATTACH_BACKOFF_MS
        elif cause is EmmCause.PLMN_NOT_ALLOWED:
            if plmn is not None:
                deadline = now_ms + self.rng.randint(T3245_MIN_MS, T3245_MAX_MS)
                self.forbidden_plmns.append((plmn, deadline))
            self._attempt_selection(now_ms, out)
        elif cause is EmmCause.EPS_SERVICES_NOT_ALLOWED:
            self.rat_allowed = RatAllowed.GSM_ONLY
            self._camped_recheck_ms = now_ms + CAMPED_RECHECK_MS
            self._try_gsm_attach(now_ms)

    def _on_reconfiguration(
        self, frame: Emission, msg: RrcConnectionReconfiguration, now_ms: int, out: list[Emission]
    ) -> None:
        mob = msg.mobility
        if mob is None:
            return
        if mob.target_cell_id == self.serving_cell:
            # In-place radio id change; also reached mid-ladder when the
            # network re-issues a parked radio id on wake from idle.
            self.rnti = mob.new_rnti
            self.stats.rnti_history.append((now_ms, self.serving_cell, mob.new_rnti))
            if self._purpose == "handover":
                self.stats.handovers_completed += 1
                self._purpose = None
            out.append(self._emission(RrcConnectionReconfigurationComplete()))
        elif self.phase is UePhase.REGISTERED:
            # Handover order: leave now, arrive via RACH.
            self._start_rach(mob.target_cell_id, "handover", now_ms, out)

    # -- periodic work -------------------------------------------------------

    def _emit_measurement_report(self, now_ms: int, out: list[Emission]) -> None:
        visible = self._visible(now_ms)
        if self._last_report[0] is not visible:  # held, so its id is not reused
            entries = tuple((c.cell_id, max(-128, min(127, round(rx)))) for c, rx in visible if c.rat is Rat.LTE)
            self._last_report = visible, MeasurementReport(entries)
        out.append(self._emission(self._last_report[1]))

    def _go_idle(self, now_ms: int) -> None:
        self.stats.idle_transitions += 1
        self._camped_recheck_ms = now_ms + CAMPED_RECHECK_MS
        self._enter(UePhase.CAMPED_IDLE, now_ms)

    # -- helpers ---------------------------------------------------------------

    def _emission(self, msg: Message, force_clear: bool = False) -> Emission:
        return Emission(
            cell_id=self.serving_cell,
            rnti=self.rnti or 0,
            message=msg,
            key_id=None if force_clear else self.key_id,
        )

    def _enter(self, phase: UePhase, now_ms: int) -> None:
        """Move to `phase`, setting or dropping what it owns (see module
        docstring). It leaves `_backoff_until_ms` and `_camped_recheck_ms`
        be, though both outlive the phase that set them."""
        self.phase = phase
        self._proc_deadline_ms = now_ms + PROC_GUARD_MS if phase in _PRE_ACCEPT else None
        self._next_meas_ms = None
        if phase is UePhase.REGISTERED:
            self._next_meas_ms = now_ms + MEAS_PERIOD_MS
            self._camped_recheck_ms = None
        elif phase not in RNTI_PHASES:
            self.rnti = self.key_id = self._purpose = self._last_activity_ms = None

    def _restart(self, now_ms: int) -> None:
        """Search afresh, as after power-on or airplane mode: every operator
        and LTE allowed again, no session, no Sib1 held."""
        self.forbidden_plmns.clear()
        self.rat_allowed = RatAllowed.LTE_AND_GSM
        self.gsm_attached = False
        self.sib1s.clear()
        self.earfcn_priority.clear()
        self._drop_session(now_ms)

    def _drop_session(self, now_ms: int) -> None:
        self.serving_cell = None
        self._enter(UePhase.SEARCHING, now_ms)

    def _expire_forbidden(self, now_ms: int) -> None:
        # Only a congestion reject sets a backoff, and the device stays
        # Searching until a Tick at or after it: a Blocked device's Tick
        # always selects afresh, which sets the phase.
        if self.forbidden_plmns:
            self.forbidden_plmns = [(p, d) for p, d in self.forbidden_plmns if d > now_ms]

    def _serving_plmn(self) -> Optional[Plmn]:
        sib = self.sib1s.get(self.serving_cell)
        return sib.plmn if sib else None

    def _check_local_invariants(self) -> None:
        if self.rnti is not None and self.phase not in RNTI_PHASES:
            raise IllegalTransition(f"rnti held in phase {self.phase}")
        if self.phase in _RNTI_HELD and self.rnti is None:
            raise IllegalTransition(f"no rnti in phase {self.phase}")
        if self.key_id is not None and self.phase not in (
            UePhase.SECURED,
            UePhase.REGISTERED,
            UePhase.RACH_IN_PROGRESS,
        ):
            raise IllegalTransition(f"security context live in phase {self.phase}")
        if self.key_id is not None and self.phase is UePhase.RACH_IN_PROGRESS and self._purpose != "handover":
            raise IllegalTransition("security context live in a non-handover RACH")


_ON_EVENT = {
    PowerOn: Ue._power_on,
    AirplaneToggle: Ue._airplane_toggle,
    Tick: Ue._tick,
    Emission: Ue._rx,
    AppTraffic: Ue._app_traffic,
    EraseTmsi: lambda ue, event, now_ms, out: ue.erase_tmsi(),
}

# Serving-cell downlink type -> (handler, the phases that act on it).
_ON_SERVING_RX = {
    MacRar: (Ue._on_mac_rar, {UePhase.RACH_IN_PROGRESS}),
    RrcConnectionSetup: (Ue._on_setup, {UePhase.CONNECTING}),
    IdentityRequest: (Ue._on_identity_request, {UePhase.CONNECTING, UePhase.AUTHENTICATING}),
    AuthenticationRequest: (Ue._on_auth_request, {UePhase.CONNECTING}),
    SecurityModeCommand: (Ue._on_security_mode_command, {UePhase.AUTHENTICATING}),
    AttachAccept: (Ue._on_attach_accept, {UePhase.SECURED}),
    AttachReject: (Ue._on_reject, _PRE_ACCEPT),
    TauReject: (Ue._on_reject, _PRE_ACCEPT),
    RrcConnectionReconfiguration: (Ue._on_reconfiguration, _RNTI_HELD),
}
