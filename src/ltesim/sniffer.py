"""Passive over-the-air observer: tracks devices by radio id alone.

The sniffer holds no keys. Frame headers are always readable; bodies
only when unprotected. From that it maintains per-(cell, rnti) sessions
and links them across moves using exactly the cleartext the network
leaks:

  * an unprotected mobility reconfiguration naming another cell starts
    a pending-handover watch on the target;
  * the next RAR at the target continues the source session under the
    assigned temporary id (unambiguous only when a single handover is
    pending there; with several, the watch falls back to matching the
    id the trigger named, caught either at the in-place re-key to that
    id or at the first frame seen under it);
  * an unprotected reconfiguration naming the serving cell itself is an
    in-place id change: the session follows the new id, and if the new
    id already has a tracked history the two provably belong to one
    device and are merged (this is what parked-id reuse after idle
    hands the observer);
  * a paging message followed by exactly one RAR at that cell inside
    the correlation window binds the paged identity to the responding
    session; a `note_triggered_page` call stamps the phone number the
    attacker dialed onto the page it caused.

Protected reconfigurations are opaque, so an encrypted trigger breaks
the chain at the cell boundary and a refreshed id breaks it across
idle, which is exactly what the two mitigations are for.

Byte accounting is body bytes (frame length minus the fixed header) per
direction, excluding broadcast frames. Undecodable input is counted and
otherwise ignored.

Each distinct frame is read once: `observe` reads it, with the header
its producer (the engine, a replay) validated or else one read here,
hears it and returns what it read, which its producer hands to `hear`
with each later copy's `t`: no bytes, header or decode. A protected
body is never decoded. A cleartext rnti-0 body (a Mib, Sib1,
Paging or access preamble) recurs across cells, so each distinct one is
decoded once and remembered; a frame the codec refuses is never
remembered, and counts as undecodable every time it is seen.
"""

from __future__ import annotations

from typing import Optional

from . import codec
from .codec import Direction, FrameHeader, MacRar, Paging, RrcConnectionReconfiguration
from .record import Record

HANDOVER_WATCH_MS = 1_000
PAGE_CORRELATE_MS = 500
PAGE_TRIGGER_SLOP_MS = 50


class TrackedSession(Record, frozen=False):
    """One device as far as radio ids can prove it."""

    session_id: int
    first_seen_ms: int
    last_seen_ms: int
    trajectory: list[tuple[int, int]]
    bound_identity: Optional[str] = None
    bound_msisdn: Optional[str] = None
    ul_bytes: int = 0
    dl_bytes: int = 0
    frames: int = 0

    @property
    def cell_id(self) -> int:
        return self.trajectory[-1][0]

    @property
    def rnti(self) -> int:
        return self.trajectory[-1][1]

    def as_json(self) -> dict:
        return {
            "session_id": self.session_id,
            "first_seen_ms": self.first_seen_ms,
            "last_seen_ms": self.last_seen_ms,
            "trajectory": [list(hop) for hop in self.trajectory],
            "bound_identity": self.bound_identity,
            "bound_msisdn": self.bound_msisdn,
            "ul_bytes": self.ul_bytes,
            "dl_bytes": self.dl_bytes,
            "frames": self.frames,
        }


class _PendingHandover(Record, frozen=False):
    source: TrackedSession
    target_cell: int
    expected_rnti: int
    seen_ms: int


class _PageSighting(Record, frozen=False):
    t_ms: int
    cell_id: int
    identity: str
    msisdn: Optional[str] = None
    consumed: bool = False
    arrivals: int = 0  # RARs at the cell inside the window so far
    # Set while a bind is still provisional: a second arrival inside the
    # window revokes it.
    bound: Optional[TrackedSession] = None
    prior_identity: Optional[str] = None
    prior_msisdn: Optional[str] = None


class TrackingReport(Record, frozen=False):
    sessions: list[TrackedSession]
    total_frames: int
    undecodable: int
    pages_seen: int

    def as_json(self) -> dict:
        return {
            "sessions": [s.as_json() for s in self.sessions],
            "total_frames": self.total_frames,
            "undecodable": self.undecodable,
            "pages_seen": self.pages_seen,
        }


class Sniffer:
    def __init__(self) -> None:
        self._live: dict[tuple[int, int], TrackedSession] = {}
        self._all: list[TrackedSession] = []
        self._dropped: set[int] = set()
        self._pending: list[_PendingHandover] = []
        self._pages: list[_PageSighting] = []
        self._triggered: list[tuple[int, str]] = []
        self._next_id = 1
        self.total_frames = 0
        self.undecodable = 0
        self.pages_seen = 0
        self._broadcasts: dict[bytes, codec.Message] = {}  # repeating body -> message

    # -- input ----------------------------------------------------------------

    def note_triggered_page(self, t_ms: int, msisdn: str) -> None:
        """Attacker-side knowledge: a call to msisdn was placed at t."""
        self._triggered.append((t_ms, msisdn))

    def observe(self, data: bytes, header: Optional[FrameHeader] = None) -> Optional[tuple]:
        """Read one frame off the air, with the header its producer validated
        if given, and hear it. Returns what was read, all `hear` needs:
        (cell_id, rnti, direction, body length, message, None if protected),
        or None for a frame the codec refuses, counted as undecodable."""
        try:
            header, msg = self._decode(data, header)
        except codec.CodecError:
            self.undecodable += 1
            return None
        heard = (header.cell_id, header.rnti, header.direction, len(data) - codec.HEADER_LEN, msg)
        self.hear(header.timestamp_ms, heard)
        return heard

    def hear(self, now: int, heard: tuple) -> None:
        """A frame at `now` whose bytes after `t` are those `observe` read `heard` from."""
        cell_id, rnti, direction, body_len, msg = heard
        self.total_frames += 1
        if self._pending or self._pages or self._triggered:
            self._expire(now)

        if rnti == 0:
            if type(msg) is Paging:
                self._on_paging(cell_id, msg, now)
            return

        if type(msg) is MacRar and direction == Direction.DOWNLINK:
            session = self._on_rar(cell_id, rnti, now)
        else:
            session = self._session_at(cell_id, rnti, now)

        session.last_seen_ms = now
        session.frames += 1
        if direction == Direction.UPLINK:
            session.ul_bytes += body_len
        else:
            session.dl_bytes += body_len

        if type(msg) is RrcConnectionReconfiguration and msg.mobility is not None:
            self._on_mobility(session, cell_id, msg.mobility.target_cell_id, msg.mobility.new_rnti, now)

    def _decode(self, data: bytes, header: Optional[FrameHeader]):
        """The header and the cleartext message, None for a protected body,
        with each distinct repeating body decoded once and a given header,
        which equals codec.decode_header(data), not read."""
        if header is None:
            header = codec.decode_header(data)
        if header.protected:
            return header, None
        if not header.repeats:
            return codec.decode(data, header=header)
        body = data[codec.HEADER_LEN :]
        msg = self._broadcasts.get(body)
        if msg is None:
            msg = self._broadcasts[body] = codec.decode(data, header=header)[1]
        return header, msg

    # -- session plumbing ---------------------------------------------------------

    def _new_session(self, cell_id: int, rnti: int, now: int) -> TrackedSession:
        session = TrackedSession(self._next_id, now, now, [(cell_id, rnti)])
        self._next_id += 1
        self._live[(cell_id, rnti)] = session
        self._all.append(session)
        return session

    def _session_at(self, cell_id: int, rnti: int, now: int) -> TrackedSession:
        session = self._live.get((cell_id, rnti))
        if session is None:
            session = self._new_session(cell_id, rnti, now)
            linked = self._link_expected(session, cell_id, rnti)
            if linked is not None:
                session = linked
        return session

    def _on_rar(self, cell_id: int, temp: int, now: int) -> TrackedSession:
        self._count_arrival(cell_id, now)
        waiting = [p for p in self._pending if p.target_cell == cell_id]
        if len(waiting) == 1:
            # Unambiguous: this arrival is the handover we watched leave.
            pending = waiting[0]
            self._pending.remove(pending)
            session = pending.source
            self._unlink(session)
            self._unlink(self._live.get((cell_id, temp)))
            session.trajectory.append((cell_id, temp))
            self._live[(cell_id, temp)] = session
        else:
            session = self._new_session(cell_id, temp, now)
        self._correlate_page(session, cell_id, now)
        return session

    def _on_mobility(self, session: TrackedSession, cell_id: int, target: int, new_rnti: int, now: int) -> None:
        if target != cell_id:
            self._pending.append(_PendingHandover(session, target, new_rnti, now))
            return
        # In-place id change on the same cell.
        self._unlink(session)
        existing = self._live.get((target, new_rnti))
        if existing is not None and existing is not session:
            # The reissued id already has a history: same device, merge.
            self._absorb(existing, session)
            self._live[(existing.cell_id, existing.rnti)] = existing
            return
        session.trajectory[-1] = (target, new_rnti)
        self._live[(target, new_rnti)] = session
        self._link_expected(session, target, new_rnti)

    def _link_expected(self, fragment: TrackedSession, cell_id: int, rnti: int) -> Optional[TrackedSession]:
        """Fold `fragment` into the handover source whose trigger named
        this exact id, if exactly one did. Returns the merged session."""
        matches = [p for p in self._pending if p.target_cell == cell_id and p.expected_rnti == rnti]
        if len(matches) != 1:
            return None
        pending = matches[0]
        self._pending.remove(pending)
        source = pending.source
        if source is fragment:
            return None
        self._unlink(source)
        self._unlink(fragment)
        source.trajectory.extend(fragment.trajectory)
        self._absorb(source, fragment)
        self._live[(cell_id, rnti)] = source
        return source

    def _absorb(self, keeper: TrackedSession, fragment: TrackedSession) -> None:
        # A provisional page bind follows the identity to the keeper, or
        # ends here if the keeper keeps its own. A keeper it follows has no
        # number to keep either: a number only ever comes with an identity.
        for page in self._pages:
            if page.bound is fragment:
                page.bound = keeper if keeper.bound_identity is None else None
        keeper.ul_bytes += fragment.ul_bytes
        keeper.dl_bytes += fragment.dl_bytes
        keeper.frames += fragment.frames
        keeper.last_seen_ms = max(keeper.last_seen_ms, fragment.last_seen_ms)
        keeper.first_seen_ms = min(keeper.first_seen_ms, fragment.first_seen_ms)
        if keeper.bound_identity is None:
            keeper.bound_identity = fragment.bound_identity
        if keeper.bound_msisdn is None:
            keeper.bound_msisdn = fragment.bound_msisdn
        self._dropped.add(fragment.session_id)

    def _unlink(self, session: Optional[TrackedSession]) -> None:
        if session is None:
            return
        key = (session.cell_id, session.rnti)
        if self._live.get(key) is session:
            del self._live[key]

    # -- paging ---------------------------------------------------------------------

    def _on_paging(self, cell_id: int, msg: Paging, now: int) -> None:
        self.pages_seen += 1
        if msg.tmsi is not None:
            identity = f"tmsi:{msg.tmsi:08x}"
        else:
            identity = f"imsi:{msg.imsi}"
        msisdn = None
        for t, number in self._triggered:
            if 0 <= now - t <= PAGE_TRIGGER_SLOP_MS:
                msisdn = number
                break
        self._pages.append(_PageSighting(now, cell_id, identity, msisdn))

    def _correlate_page(self, session: TrackedSession, cell_id: int, now: int) -> None:
        candidates = [
            p
            for p in self._pages
            if p.cell_id == cell_id and not p.consumed and 0 < now - p.t_ms <= PAGE_CORRELATE_MS
        ]
        if len(candidates) != 1:
            return
        page = candidates[0]
        # A second arrival in the window makes the match guesswork; see
        # _count_arrival for the case where it shows up later.
        if page.arrivals != 1:
            return
        page.consumed = True
        page.bound = session
        page.prior_identity = session.bound_identity
        page.prior_msisdn = session.bound_msisdn
        session.bound_identity = page.identity
        if page.msisdn is not None:
            session.bound_msisdn = page.msisdn

    def _count_arrival(self, cell_id: int, now: int) -> None:
        """Count a RAR on each page sighting whose window it falls in, and
        unwind a provisional bind once its window holds two arrivals."""
        for page in self._pages:
            if page.cell_id != cell_id or not 0 < now - page.t_ms <= PAGE_CORRELATE_MS:
                continue
            page.arrivals += 1
            if page.bound is not None and page.arrivals > 1:
                page.bound.bound_identity = page.prior_identity
                page.bound.bound_msisdn = page.prior_msisdn
                page.bound = None

    # -- housekeeping ------------------------------------------------------------------

    def _expire(self, now: int) -> None:
        self._pending = [p for p in self._pending if now - p.seen_ms <= HANDOVER_WATCH_MS]
        self._pages = [p for p in self._pages if now - p.t_ms <= PAGE_CORRELATE_MS]
        self._triggered = [t for t in self._triggered if now - t[0] <= PAGE_TRIGGER_SLOP_MS]

    # -- output ----------------------------------------------------------------------

    def report(self) -> TrackingReport:
        sessions = [s for s in self._all if s.session_id not in self._dropped]
        return TrackingReport(
            sessions=sessions,
            total_frames=self.total_frames,
            undecodable=self.undecodable,
            pages_seen=self.pages_seen,
        )
