"""Rogue base station and its reconnaissance helper.

The rogue answers the same random-access and connection steps a real
cell does, but it holds no subscriber keys, so nothing it sends is ever
integrity protected. Everything it achieves, it achieves with cleartext
frames that devices accept before authentication:

    imsi_catcher       harvest permanent identities, then wave the
                       device away with a cause it will retry after
    attach_reject_dos  answer every registration with a chosen cause
    tau_reject_dos     answer area updates with a chosen cause and
                       bounce plain attaches benignly
    downgrade          push devices off LTE with
                       eps_services_not_allowed

`scan_broadcast` does the attacker's homework: given a capture, rank
the overheard cells by signal strength and draft a spoof configuration
that copies the strongest operator's identity, advertises a
neighboring tracking area, and promotes its own channel so victims
reselect onto it.
"""

from __future__ import annotations

import random
import sys
from typing import Optional

from .codec import (
    AttachReject,
    AttachRequest,
    CaptureInvalid,
    CodecError,
    EmmCause,
    IdentityKind,
    IdentityRequest,
    IdentityResponse,
    MacRar,
    Message,
    RachPreamble,
    RrcConnectionRequest,
    RrcConnectionSetup,
    TauReject,
    TauRequest,
    message_from_json,
)
from .core import Transmitter, cell_sib1
from .identity import CellFull, Imsi, Plmn, RntiAllocator
from .record import Record
from .ue import Emission

CATCHER_MODE = "imsi_catcher"
ATTACH_DOS_MODE = "attach_reject_dos"
TAU_DOS_MODE = "tau_reject_dos"
DOWNGRADE_MODE = "downgrade"
MODES = (CATCHER_MODE, ATTACH_DOS_MODE, TAU_DOS_MODE, DOWNGRADE_MODE)

# Reject mode -> registration type -> (reject sent, its cause); a None cause
# is the configured `reject_cause`.
_REJECTS = {
    ATTACH_DOS_MODE: {AttachRequest: (AttachReject, None), TauRequest: (TauReject, None)},
    TAU_DOS_MODE: {TauRequest: (TauReject, None), AttachRequest: (AttachReject, EmmCause.CONGESTION_BENIGN)},
    DOWNGRADE_MODE: {
        AttachRequest: (AttachReject, EmmCause.EPS_SERVICES_NOT_ALLOWED),
        TauRequest: (TauReject, EmmCause.EPS_SERVICES_NOT_ALLOWED),
    },
}


class NoBroadcastFound(ValueError):
    """The capture held nothing worth impersonating."""


class RogueCellConfig(Transmitter):
    """The rogue: a transmitter plus its attack mode, and the window in
    which it is on the air (always, when None)."""

    mode: str
    reject_cause: EmmCause = EmmCause.PLMN_NOT_ALLOWED
    active_ms: Optional[tuple[int, int]] = None


class CatchEntry(Record):
    t_ms: int
    imsi: str
    tmsi: Optional[int]


class RogueCell:
    """One hostile cell. Same surface as an operator cell, no keys."""

    def __init__(self, config: RogueCellConfig, rng: random.Random):
        if config.mode not in MODES:
            raise ValueError(f"unknown rogue mode: {config.mode!r}")
        self.config = config
        self._sib1s = (Emission(config.cell_id, 0, cell_sib1(config)),)  # built once
        self.allocator = RntiAllocator(rng)
        self.sessions: dict[int, Optional[int]] = {}  # rnti -> TMSI heard, if any
        self.catcher_log: list[CatchEntry] = []
        self._caught: set[str] = set()
        self.rejects_sent: dict[str, int] = {}

    @property
    def cell_id(self) -> int:
        return self.config.cell_id

    def active(self, now_ms: int) -> bool:
        window = self.config.active_ms
        if window is None:
            return True
        return window[0] <= now_ms < window[1]

    def next_edge_ms(self, now_ms: int) -> Optional[int]:
        """The first instant after now_ms at which `active` changes, None
        for never."""
        window = self.config.active_ms or ()
        return next((edge for edge in window if edge > now_ms), None)

    def broadcast_tick(self, now_ms: int) -> tuple[Emission, ...]:
        """Its Sib1 Emission when on air and due, as `NetworkCore.broadcast_tick` names a cell's."""
        cfg = self.config
        if not self.active(now_ms) or now_ms == 0 or now_ms % cfg.broadcast_period_ms != 0:
            return ()
        return self._sib1s

    def next_broadcast_ms(self, now_ms: int) -> Optional[int]:
        period, window = self.config.broadcast_period_ms, self.config.active_ms
        start = now_ms + 1 if window is None else max(now_ms + 1, window[0])
        due = -(-start // period) * period  # the first multiple at or after start
        return due if window is None or due < window[1] else None

    def handle_uplink(self, frame: Emission, now_ms: int) -> list[Emission]:
        if not self.active(now_ms):
            return []
        msg, rnti = frame.message, frame.rnti
        kind = type(msg)
        if kind is RachPreamble:
            try:
                temp = self.allocator.allocate()
            except CellFull:
                return []
            self.sessions[temp] = None
            return [Emission(self.cell_id, temp, MacRar(temp_rnti=temp))]
        if rnti not in self.sessions:
            return []
        if kind is RrcConnectionRequest:
            self.sessions[rnti] = msg.tmsi
            return [Emission(self.cell_id, rnti, RrcConnectionSetup())]
        if self.config.mode == CATCHER_MODE:
            return self._catcher(rnti, msg, now_ms)
        reject = _REJECTS[self.config.mode].get(kind)
        if reject is None:
            return []
        reject_type, cause = reject
        return self._finish(rnti, reject_type(self.config.reject_cause if cause is None else cause))

    def _catcher(self, rnti: int, msg: Message, now_ms: int) -> list[Emission]:
        if isinstance(msg, AttachRequest):
            if msg.imsi is not None:
                self._log(now_ms, msg.imsi, self.sessions[rnti])
                return self._finish(rnti, AttachReject(EmmCause.CONGESTION_BENIGN))
            self.sessions[rnti] = msg.tmsi
            return [Emission(self.cell_id, rnti, IdentityRequest(IdentityKind.IMSI))]
        if isinstance(msg, TauRequest):
            self.sessions[rnti] = msg.tmsi
            return [Emission(self.cell_id, rnti, IdentityRequest(IdentityKind.IMSI))]
        if isinstance(msg, IdentityResponse) and msg.imsi is not None:
            self._log(now_ms, msg.imsi, self.sessions[rnti])
            return self._finish(rnti, AttachReject(EmmCause.CONGESTION_BENIGN))
        return []

    def _log(self, now_ms: int, imsi: Imsi, tmsi: Optional[int]) -> None:
        text = str(imsi)
        if text in self._caught:
            return
        self._caught.add(text)
        self.catcher_log.append(CatchEntry(now_ms, text, tmsi))

    def _finish(self, rnti: int, reject: Message) -> list[Emission]:
        cause = reject.emm_cause.name.lower()
        self.rejects_sent[cause] = self.rejects_sent.get(cause, 0) + 1
        self.sessions.pop(rnti, None)
        self.allocator.release(rnti)
        return [Emission(self.cell_id, rnti, reject)]


# -- reconnaissance ---------------------------------------------------------


class OverheardCell(Record, frozen=False):
    cell_id: int
    plmn: Plmn
    tac: int
    earfcn: Optional[int]
    best_rx_dbm: float
    sightings: int = 1


class SpoofDraft(Record, frozen=False):
    """Suggested rogue configuration derived from a capture."""

    plmn: Plmn
    tac: int
    cell_id: int
    earfcn: int
    priority_earfcns: tuple[tuple[int, int], ...]
    mimics: int

    def as_json(self) -> dict:
        return {
            "plmn": {"mcc": self.plmn.mcc, "mnc": self.plmn.mnc},
            "tac": self.tac,
            "cell_id": self.cell_id,
            "earfcn": self.earfcn,
            "priority_earfcns": [list(pair) for pair in self.priority_earfcns],
            "mimics_cell": self.mimics,
        }


SPOOF_PRIORITY = 7


def scan_broadcast(records: list[dict]) -> tuple[list[OverheardCell], SpoofDraft]:
    """Rank overheard system information by signal strength and draft a
    spoof of the strongest cell.

    `records` are decoded capture lines in file order; only downlink
    `sib1` entries carrying an rx measurement count, and a malformed one
    raises CaptureInvalid naming its position as the line. The draft
    copies the victim's operator identity, claims the next tracking area
    over (forcing an area update out of anyone who camps), takes an
    unused cell id, and advertises its own channel at top reselection
    priority.
    """
    heard: dict[int, OverheardCell] = {}
    for number, rec in enumerate(records, 1):
        if rec.get("type") != "sib1" or rec.get("dir") != "dl" or rec.get("rx") is None:
            continue
        rx = rec["rx"]
        if type(rx) not in (int, float) or not abs(rx) <= sys.float_info.max:
            raise CaptureInvalid(f"line {number}: rx: expected a finite number, got {rx!r}")
        try:
            sib1 = message_from_json("sib1", rec.get("body"))
        except CodecError as exc:
            raise CaptureInvalid(f"line {number}: {exc}") from None
        seen = heard.get(sib1.cell_id)
        if seen is None:
            # Squat the channel the operator itself steers devices to.
            pairs = sib1.priority_earfcns
            earfcn = max(pairs, key=lambda p: p[1])[0] if pairs else None
            heard[sib1.cell_id] = OverheardCell(sib1.cell_id, sib1.plmn, sib1.tac, earfcn, float(rx))
        else:
            seen.best_rx_dbm = max(seen.best_rx_dbm, float(rx))
            seen.sightings += 1
    if not heard:
        raise NoBroadcastFound("no system information with signal measurements in capture")
    ranked = sorted(heard.values(), key=lambda c: (-c.best_rx_dbm, c.cell_id))
    victim = ranked[0]
    spoof_earfcn = victim.earfcn if victim.earfcn is not None else 0
    draft = SpoofDraft(
        plmn=victim.plmn,
        tac=victim.tac + 1,
        cell_id=max(heard) + 1,
        earfcn=spoof_earfcn,
        priority_earfcns=((spoof_earfcn, SPOOF_PRIORITY),),
        mimics=victim.cell_id,
    )
    return ranked, draft
