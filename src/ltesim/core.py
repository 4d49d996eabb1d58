"""Operator-side control plane: cells, MME behavior, HSS, paging.

One NetworkCore owns a set of cells and the subscriber state behind
them. It answers random access, runs the attach and tracking-area
ladders, triggers handovers off measurement reports, idles quiet
sessions, and pages by temporary identity whenever one exists.

Malformed or out-of-order traffic: anything that does not fit the
expected step of a session's ladder is dropped and counted (`drops`).
The HSS is built from the run's own devices, so this core never asks
for an identity and never rejects: an attach or TAU naming an IMSI or
TMSI it does not hold, or an authentication response that does not
match, raises `InvariantViolation`. Every reject in a run comes from
the rogue.

Radio-id lifecycle: the MAC RAR assigns a temporary id which is simply
promoted to the connected id. A handover pre-allocates the final id at
the target when the trigger is sent, so the arriving device briefly
holds a RAR temp id and is then re-keyed to the prepared value by the
target's reconfiguration. The handover stays open on the session from
the trigger until completion, or until it lapses HO_PENDING_MS + 1 after
the trigger whether or not the device arrived; a lapse releases the
prepared id. A session idles at its idle timeout or when its handover
ends, whichever is later. An idle session parks its id on its subscriber
(still reserved, never reissued to others) until the subscriber wakes,
attaches afresh or idles again from a newer session; on wake the network
either re-keys the new connection back to the parked value (default) or,
with `rnti_refresh_on_idle`, retires it so the device returns under a
fresh one. The parked value is excluded from draws by staying reserved, so a
refreshed id never equals the prior one.

Only two writes can break "each active session sits under its own key,
with its id reserved": `_activate` puts a session under a key and
`_release` frees an id. Each raises `InvariantViolation` before breaking it.

Each HSS entry is one `Subscriber` record, which a session points at
once it names one. An IMSI, an MSISDN and a TMSI each name exactly one
subscriber: the scenario parser refuses shared identities, and a drawn
TMSI is never one already bound.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import random
from collections import deque
from typing import Callable, Optional, Sequence

from .codec import (
    AttachAccept,
    AttachRequest,
    AuthenticationRequest,
    AuthenticationResponse,
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
    TauRequest,
    UserData,
)
from .crypto_stub import derive_autn, derive_keystream_seed, stub_mac
from .identity import CellFull, RntiAllocator
from .radio import RadioCell
from .record import Record
from .ue import IDLE_AFTER_MS, Emission, UeProfile

HO_PENDING_MS = 1_000
DEFAULT_BROADCAST_PERIOD_MS = 40
DEFAULT_MIB_BANDWIDTH_RB = 50


class UnknownSubscriber(KeyError):
    """Paging or lookup for someone the HSS never heard of."""


class InvariantViolation(RuntimeError):
    """Core state broke one of its own rules."""


class Transmitter(Record):
    """A cell on the air, operator or rogue: its radio face and what its
    Mib and Sib1 carry. Broadcasts are unauthenticated, so both kinds of
    cell are this same transmitter."""

    radio: RadioCell
    broadcast_period_ms: int = DEFAULT_BROADCAST_PERIOD_MS
    min_rx_level_dbm: int = -110
    priority_earfcns: tuple[tuple[int, int], ...] = ()

    @property
    def cell_id(self) -> int:
        return self.radio.cell_id


class CellConfig(Transmitter):
    """One operator cell: a transmitter plus scheduling and mitigation
    knobs. `rnti_preset` pins upcoming radio-id draws for replaying
    known captures."""

    encrypt_handover_trigger: bool = False
    rnti_refresh_on_idle: bool = False
    handover_hysteresis_db: float = 3.0
    rnti_preset: tuple[int, ...] = ()


class OpenHandover(Record):
    """A handover from its trigger until completion or lapse."""

    target_cell_id: int
    final_rnti: int  # prepared at the target
    lapse_ms: int


class SessionState(enum.Enum):
    RACH_DONE = "rach_done"
    ATTACHING = "attaching"
    AUTHENTICATED = "authenticated"
    REGISTERED = "registered"


class Subscriber(Record, frozen=False):
    """One HSS entry and what the network keeps of it between sessions."""

    profile: UeProfile
    tmsi: Optional[int] = None
    tac: Optional[int] = None  # where it last registered
    parked: Optional[tuple[int, int]] = None  # (cell id, rnti) held across idle


class SessionRecord(Record, frozen=False):
    cell_id: int
    rnti: int
    state: SessionState
    subscriber: Optional[Subscriber] = None
    key_id: Optional[int] = None
    expected_res: Optional[bytes] = None
    last_activity_ms: Optional[int] = None
    handover: Optional[OpenHandover] = None


def cell_sib1(cfg: Transmitter) -> Sib1:
    """The Sib1 a cell broadcasts, built once from its config."""
    ident = cfg.radio.identity
    return Sib1(ident.plmn, ident.tac, cfg.cell_id, cfg.min_rx_level_dbm, cfg.priority_earfcns)


@functools.cache
def mib(sfn: int) -> Mib:
    """The Mib of frame number sfn, one of 1,024, built when first sent.
    Every cell advertises DEFAULT_MIB_BANDWIDTH_RB; only sfn changes."""
    return Mib(DEFAULT_MIB_BANDWIDTH_RB, sfn)


class NetworkCore:
    """MME, HSS, and every cell of one operator network."""

    def __init__(
        self,
        cells: list[CellConfig],
        subscribers: Sequence[UeProfile],
        rng_for: Callable[[str], random.Random],
    ):
        self.cells: dict[int, CellConfig] = {}
        for cfg in cells:
            if cfg.cell_id in self.cells:
                raise InvariantViolation(f"duplicate cell id {cfg.cell_id}")
            self.cells[cfg.cell_id] = cfg
        self.allocators: dict[int, RntiAllocator] = {
            cid: RntiAllocator(rng_for(f"cell/{cid}/rnti"), cfg.rnti_preset)
            for cid, cfg in self.cells.items()
        }
        # (broadcast period, Sib1 Emission) per cell, the Emission built once.
        self._sib1s = [(cfg.broadcast_period_ms, Emission(cid, 0, cell_sib1(cfg))) for cid, cfg in self.cells.items()]
        # One record per subscriber, by IMSI digits, MSISDN and bound TMSI.
        self.hss = {str(p.imsi): Subscriber(p, p.initial_tmsi) for p in subscribers}
        self.by_msisdn = {sub.profile.msisdn: sub for sub in self.hss.values()}
        self.by_tmsi = {sub.tmsi: sub for sub in self.hss.values() if sub.tmsi is not None}
        self._tmsi_rng = rng_for("core/tmsi")
        self._auth_rng = rng_for("core/auth")
        self.keys: dict[int, bytes] = {}
        self._next_key_id = 1

        self.active: dict[tuple[int, int], SessionRecord] = {}
        # Sessions whose device has yet to arrive, per target, in trigger order.
        self._ho_pending: dict[int, deque[SessionRecord]] = {}
        # Idle timeouts and handover lapses as (due, push order, session)
        # entries, lazily invalidated: see _owed.
        self._deadlines: list[tuple[int, int, SessionRecord]] = []
        self._pushes = itertools.count()

        self.drops: dict[str, int] = {}
        self.handovers_completed = 0
        self.idle_transitions = 0

    # -- broadcast ------------------------------------------------------------

    def broadcast_tick(self, now_ms: int) -> list[Emission]:
        """The Sib1 Emission of every cell whose period divides now, in cell
        order, none at 0. Each such cell broadcasts the Mib of now's frame
        number (`mib`), then that Sib1, and the engine writes both from the
        cell's slots."""
        if now_ms == 0:
            return []
        return [sib1 for period, sib1 in self._sib1s if now_ms % period == 0]

    def next_broadcast_ms(self, now_ms: int) -> Optional[int]:
        return min(((now_ms // period + 1) * period for period, _ in self._sib1s), default=None)

    # -- uplink dispatch --------------------------------------------------------

    def handle_uplink(self, frame: Emission, now_ms: int) -> list[Emission]:
        cfg = self.cells.get(frame.cell_id)
        if cfg is None:
            self._drop("foreign_cell")
            return []
        msg = frame.message
        kind = type(msg)
        if kind is RachPreamble:
            return self._on_rach(cfg, now_ms)
        rec = self.active.get((frame.cell_id, frame.rnti))
        if rec is None:
            self._drop("no_session")
            return []
        handler = _ON_UPLINK.get(kind)
        if handler is None:
            self._drop("unexpected_" + kind.__name__)
            return []
        return handler(self, cfg, rec, msg, now_ms)

    # -- ladder steps: each takes (cfg, rec, msg, now_ms); see _ON_UPLINK -------

    def _on_rach(self, cfg: CellConfig, now_ms: int) -> list[Emission]:
        pending = self._ho_pending.get(cfg.cell_id)
        try:
            temp = self.allocators[cfg.cell_id].allocate()
        except CellFull:
            self._drop("cell_full")
            return []
        if pending:
            # The travelling session arrives: re-home it under the RAR id.
            self._rekey(pending.popleft(), cfg.cell_id, temp)
        else:
            self._activate(SessionRecord(cfg.cell_id, temp, SessionState.RACH_DONE))
        return [Emission(cfg.cell_id, temp, MacRar(temp_rnti=temp))]

    def _on_connection_request(
        self, cfg: CellConfig, rec: SessionRecord, msg: RrcConnectionRequest, now_ms: int
    ) -> list[Emission]:
        if rec.state is not SessionState.RACH_DONE:
            self._drop("connection_request_out_of_order")
            return []
        out: list[Emission] = []
        sub = self.by_tmsi.get(msg.tmsi)
        if sub is not None and sub.parked is not None:
            rec.subscriber = sub
            (cell_id, prior), sub.parked = sub.parked, None
            if cell_id == cfg.cell_id and not cfg.rnti_refresh_on_idle:
                # Reissue the parked id: re-key before the ladder continues.
                reissue = RrcConnectionReconfiguration(MobilityControlInfo(cfg.cell_id, prior))
                out.append(Emission(cfg.cell_id, rec.rnti, reissue))
                self._rekey(rec, cfg.cell_id, prior)
            else:
                self._release(cell_id, prior)
        out.append(Emission(cfg.cell_id, rec.rnti, RrcConnectionSetup()))
        return out

    def _on_attach_request(
        self, cfg: CellConfig, rec: SessionRecord, msg: AttachRequest, now_ms: int
    ) -> list[Emission]:
        if rec.state is not SessionState.RACH_DONE:
            self._drop("attach_out_of_order")
            return []
        rec.state = SessionState.ATTACHING
        if msg.imsi is None:
            rec.subscriber = self._held(self.by_tmsi, msg.tmsi, "TMSI")
        else:
            rec.subscriber = self._held(self.hss, str(msg.imsi), "IMSI")
            self._park(rec.subscriber, None)  # a fresh attach retires any parked id
        return self._start_auth(cfg, rec)

    def _on_tau_request(
        self, cfg: CellConfig, rec: SessionRecord, msg: TauRequest, now_ms: int
    ) -> list[Emission]:
        if rec.state is not SessionState.RACH_DONE:
            self._drop("tau_out_of_order")
            return []
        rec.state = SessionState.ATTACHING
        rec.subscriber = self._held(self.by_tmsi, msg.tmsi, "TMSI")
        return self._start_auth(cfg, rec)

    def _start_auth(self, cfg: CellConfig, rec: SessionRecord) -> list[Emission]:
        key = rec.subscriber.profile.key
        rand = self._auth_rng.randbytes(16)
        rec.expected_res = stub_mac(key, rand)
        return [Emission(cfg.cell_id, rec.rnti, AuthenticationRequest(rand, derive_autn(key, rand)))]

    def _on_auth_response(
        self, cfg: CellConfig, rec: SessionRecord, msg: AuthenticationResponse, now_ms: int
    ) -> list[Emission]:
        if rec.state is not SessionState.ATTACHING or rec.expected_res is None:
            self._drop("auth_out_of_order")
            return []
        if msg.res != rec.expected_res:
            raise InvariantViolation(f"authentication failed at cell {rec.cell_id}, rnti {rec.rnti}")
        rec.expected_res = None
        rec.state = SessionState.AUTHENTICATED
        key_id = self._next_key_id
        self._next_key_id += 1
        rec.key_id = key_id
        self.keys[key_id] = derive_keystream_seed(rec.subscriber.profile.key, key_id)
        return [Emission(cfg.cell_id, rec.rnti, SecurityModeCommand(key_id))]

    def _on_security_complete(
        self, cfg: CellConfig, rec: SessionRecord, msg: SecurityModeComplete, now_ms: int
    ) -> list[Emission]:
        if rec.state is not SessionState.AUTHENTICATED:
            self._drop("smc_out_of_order")
            return []
        sub = rec.subscriber
        while sub.tmsi is None or self.by_tmsi.get(sub.tmsi, sub) is not sub:
            sub.tmsi = self._tmsi_rng.getrandbits(32)  # none yet, or one another subscriber holds
        self.by_tmsi[sub.tmsi] = sub
        rec.state = SessionState.REGISTERED
        rec.last_activity_ms = now_ms
        self._owe(now_ms + IDLE_AFTER_MS + 1, rec)
        sub.tac = cfg.radio.identity.tac
        return [Emission(cfg.cell_id, rec.rnti, AttachAccept(sub.tmsi, sub.tac), key_id=rec.key_id)]

    # -- mobility ---------------------------------------------------------------

    def maybe_trigger_handover(
        self, cfg: CellConfig, rec: SessionRecord, report: MeasurementReport, now_ms: int
    ) -> list[Emission]:
        """Order a handover when a neighbor we own beats the serving cell
        by the hysteresis margin."""
        if rec.state is not SessionState.REGISTERED or rec.handover is not None:
            return []
        serving_rsrp = -128
        best: Optional[tuple[int, int]] = None
        for cell_id, rsrp in report.neighbors:
            if cell_id == rec.cell_id:
                serving_rsrp = rsrp
            elif cell_id in self.cells:
                if best is None or rsrp > best[1] or (rsrp == best[1] and cell_id < best[0]):
                    best = (cell_id, rsrp)
        if best is None or best[1] < serving_rsrp + cfg.handover_hysteresis_db:
            return []
        target_id = best[0]
        try:
            final = self.allocators[target_id].allocate()
        except CellFull:
            self._drop("handover_target_full")
            return []
        rec.handover = OpenHandover(target_id, final, now_ms + HO_PENDING_MS + 1)
        self._ho_pending.setdefault(target_id, deque()).append(rec)
        self._owe(rec.handover.lapse_ms, rec)
        trigger = RrcConnectionReconfiguration(MobilityControlInfo(target_id, final))
        key_id = rec.key_id if cfg.encrypt_handover_trigger else None
        return [Emission(cfg.cell_id, rec.rnti, trigger, key_id=key_id)]

    def _on_reconfiguration_complete(
        self, cfg: CellConfig, rec: SessionRecord, msg: RrcConnectionReconfigurationComplete, now_ms: int
    ) -> list[Emission]:
        ho = rec.handover
        if ho is None or ho.target_cell_id != rec.cell_id:  # none open, or not arrived
            return []
        final = ho.final_rnti
        rec.handover = None
        self._owe(rec.last_activity_ms + IDLE_AFTER_MS + 1, rec)
        rekey = RrcConnectionReconfiguration(MobilityControlInfo(cfg.cell_id, final))
        out = [Emission(cfg.cell_id, rec.rnti, rekey, key_id=rec.key_id if cfg.encrypt_handover_trigger else None)]
        self._rekey(rec, cfg.cell_id, final)
        self.handovers_completed += 1
        return out

    def _on_user_data(self, cfg: CellConfig, rec: SessionRecord, msg: UserData, now_ms: int) -> list[Emission]:
        if rec.state is SessionState.REGISTERED:
            rec.last_activity_ms = now_ms
            self._owe(now_ms + IDLE_AFTER_MS + 1, rec)
        return []

    # -- time -------------------------------------------------------------------

    def tick(self, now_ms: int) -> None:
        """Act on every deadline due by now: idle a quiet session, or lapse
        an open handover and owe the session's idle timeout again.

        The idle comparison is strict: downlink delivery lags emission by
        one tick, so the device's activity clock runs one tick behind
        ours after an accept. Strict-greater lands both sides in idle on
        the same tick.
        """
        heap = self._deadlines
        while heap and heap[0][0] <= now_ms:
            due, _, rec = heapq.heappop(heap)
            if not self._owed(due, rec):
                continue
            ho = rec.handover
            if ho is not None:
                rec.handover = None
                pending = self._ho_pending[ho.target_cell_id]
                if pending and pending[0] is rec:  # lapses come in trigger order
                    pending.popleft()
                self._release(ho.target_cell_id, ho.final_rnti)
                self._owe(rec.last_activity_ms + IDLE_AFTER_MS + 1, rec)
                continue
            del self.active[(rec.cell_id, rec.rnti)]
            self.idle_transitions += 1
            self._park(rec.subscriber, (rec.cell_id, rec.rnti))

    def next_deadline_ms(self) -> Optional[int]:
        """The earliest idle timeout or handover lapse still owed, even one
        already past. Stale heap entries are dropped on the way to it."""
        heap = self._deadlines
        while heap and not self._owed(heap[0][0], heap[0][2]):
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _owe(self, due_ms: int, rec: SessionRecord) -> None:
        heapq.heappush(self._deadlines, (due_ms, next(self._pushes), rec))

    def _owed(self, due_ms: int, rec: SessionRecord) -> bool:
        """Whether a heap entry still stands: its session is active and
        either lapses its open handover at due_ms, or has none open, is
        registered and was last active IDLE_AFTER_MS + 1 before due_ms."""
        if self.active.get((rec.cell_id, rec.rnti)) is not rec:
            return False
        if rec.handover is not None:
            return rec.handover.lapse_ms == due_ms
        return rec.state is SessionState.REGISTERED and rec.last_activity_ms + IDLE_AFTER_MS + 1 == due_ms

    # -- paging -------------------------------------------------------------------

    def page(self, msisdn: str, now_ms: int) -> list[Emission]:
        """Page a subscriber across their last known tracking area, by
        temporary identity whenever one exists."""
        sub = self.by_msisdn.get(msisdn)
        if sub is None:
            raise UnknownSubscriber(msisdn)
        identity = Paging(imsi=sub.profile.imsi) if sub.tmsi is None else Paging(tmsi=sub.tmsi)
        cells = [cfg for cfg in self.cells.values() if sub.tac is None or cfg.radio.identity.tac == sub.tac]
        return [Emission(cfg.cell_id, 0, identity) for cfg in cells or self.cells.values()]

    # -- bookkeeping ----------------------------------------------------------------

    @staticmethod
    def _held(index: dict, key: int | str, kind: str) -> Subscriber:
        """The subscriber an uplink names, which the HSS holds: it is built
        from the run's own devices."""
        sub = index.get(key)
        if sub is None:
            raise InvariantViolation(f"the HSS holds no subscriber with {kind} {key}")
        return sub

    def _park(self, sub: Subscriber, parked: Optional[tuple[int, int]]) -> None:
        """Replace the subscriber's parked id, releasing the one it held."""
        if sub.parked is not None:
            self._release(*sub.parked)
        sub.parked = parked

    def _rekey(self, rec: SessionRecord, cell_id: int, rnti: int) -> None:
        """Move a session to a new (cell, rnti) key, releasing its old id."""
        self.active.pop((rec.cell_id, rec.rnti), None)
        self._release(rec.cell_id, rec.rnti)
        rec.cell_id, rec.rnti = cell_id, rnti
        self._activate(rec)

    def _activate(self, rec: SessionRecord) -> None:
        """Put a session under its own (cell, rnti) key: its id must be
        reserved at its cell, and no other session may hold that key."""
        key = (rec.cell_id, rec.rnti)
        if rec.rnti not in self.allocators[rec.cell_id].in_use or key in self.active:
            raise InvariantViolation(f"rnti {rec.rnti} at cell {rec.cell_id} is not reserved or already active")
        self.active[key] = rec

    def _release(self, cell_id: int, rnti: int) -> None:
        """Free a cell's radio id, which no active session may still hold."""
        if (cell_id, rnti) in self.active:
            raise InvariantViolation(f"released rnti {rnti} is still active at cell {cell_id}")
        self.allocators[cell_id].release(rnti)

    def _drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def check_invariants(self) -> None:
        """The full sweep: each active session sits under its own (cell,
        rnti) key with its id reserved there, and each cell reserves exactly
        the ids its active sessions, parked subscribers and open handovers
        own. The engine runs it once, after the last tick."""
        reserved = {cell_id: allocator.in_use for cell_id, allocator in self.allocators.items()}
        owned: dict[int, set[int]] = {cell_id: set() for cell_id in reserved}
        for (cell_id, rnti), rec in self.active.items():
            if rec.cell_id != cell_id or rec.rnti != rnti:
                raise InvariantViolation(f"session index mismatch at {(cell_id, rnti)}")
            if rnti not in reserved[cell_id]:
                raise InvariantViolation(f"active rnti {rnti} not reserved at cell {cell_id}")
            owned[cell_id].add(rnti)
            if rec.handover is not None:
                owned[rec.handover.target_cell_id].add(rec.handover.final_rnti)
        for sub in self.hss.values():
            if sub.parked is not None:
                owned[sub.parked[0]].add(sub.parked[1])
        for cell_id, ids in owned.items():
            if ids != reserved[cell_id]:
                raise InvariantViolation(f"reserved and owned rntis differ at cell {cell_id}: {sorted(ids ^ reserved[cell_id])}")


# Uplink type -> ladder step, for frames on a session's (cell, rnti); a
# preamble opens a session and is answered before any lookup.
_ON_UPLINK = {
    RrcConnectionRequest: NetworkCore._on_connection_request,
    AttachRequest: NetworkCore._on_attach_request,
    TauRequest: NetworkCore._on_tau_request,
    AuthenticationResponse: NetworkCore._on_auth_response,
    SecurityModeComplete: NetworkCore._on_security_complete,
    MeasurementReport: NetworkCore.maybe_trigger_handover,
    RrcConnectionReconfigurationComplete: NetworkCore._on_reconfiguration_complete,
    UserData: NetworkCore._on_user_data,
}
