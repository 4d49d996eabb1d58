"""Run loop: devices, network, rogue, and observer over simulated time.

Time is integer milliseconds. The loop is event-driven: one agenda maps
every instant that something cares about (broadcast schedules, queued
deliveries, device timers, network deadlines, scenario directives) to
the scenario directives due then, and a heap of its keys gives the next
instant, so quiet stretches cost nothing. An instant, once scheduled,
is processed even if the timer that asked for it has moved: a device
whose timer is past due is stepped on every processed tick. A
broadcaster is asked for its frames and its next broadcast instant only
at the instant it last gave, from `next_broadcast_ms(0)` on. The core's
deadlines (idle timeouts, handover lapses) move only when it handles an
uplink or acts on a due one in `tick`, so its next deadline is read
again only after an instant that did either; `tick` itself runs at
every processed instant.

A device timer is a device's `next_wake_ms`. A camped device rechecks
its cell on a 200 ms grid, but a quiet one (see `ue.py`) asks for no
Tick on the grid instants whose recheck cannot change its choice, so
those instants are never processed unless something else schedules
them. That is exact only while no device is past due, since a device
past due is stepped on every processed instant: whenever a tick ends
with one, every quiet device is put back on its grid after the tick
(`_end_quiet`), and its grid instants are processed again.

A tick polls only the devices stepped so far in it (stages 1 to 3) and
those whose stored wake is due, off a lazily invalidated heap of (wake,
device index) entries. A wake changes only when its device steps or
`_end_quiet` moves it, and both store it and update the heap: no other
device can be due, and only a stepped device's wake is read again. A
device still past due after its Tick goes back on the heap, to be
stepped again on the next processed tick.

Within one tick the stages are fixed, and that order is part of the
determinism contract:

    1. broadcasts born this tick (operator cells, then rogue): each due
       cell's Mib, then its Sib1, written from the cell's slots
    2. downlinks queued by the previous tick reach their devices
    3. scheduled device events (power, traffic, toggles) in device
       order, then due timers
    4. paging directives enter the network
    5. this tick's uplinks reach the cells; responses queue for t+1
    6. network timers (idle transitions, stale handover preparations)

The core checks its radio-id invariants as it writes them (see `core.py`),
so a break raises in the stage that made it; its full sweep,
`check_invariants`, runs once, after the last tick.

Uplinks arrive the tick they are sent and go to the cell's owner, the
operator core or the rogue. Every downlink answer lands one tick later,
which is always the next tick processed, and is stamped with its
delivery time. An addressed downlink goes to the device whose uplink
caused it. A broadcast goes to the powered devices in range that it can
change: a page to all of them, a Mib to none, and a Sib1 to its
subscribers. For each Sib1 broadcast so far, one per cell, the engine
keeps the set of devices that Sib1 would change (powered and not
`Ue.already_has` it), filled by one scan of every device at the cell's
first broadcast and held in the cell's slots; only subscribers get the
range check. Every device step, whatever its event, goes through one
funnel (`_step`), which moves the stepped device into or out of each
set after a step that changed its phase or delivered a Sib1, the only
steps that can change the answer.
A skipped delivery changes no device, so it cannot move a wake, and a
device already due is on the wake heap: the poll set stays exact. No
device is stepped after stage 3, so the same pass that fires due timers
also schedules each device's next one.
Every frame, either way, goes on the air through one line writer
(`_write`), which shows it to the sniffer and writes its capture line.
A receiving party gets the `Emission` its sender made; the wire header
(`FrameHeader`) is built only where a frame is packed, for the codec
and the sniffer. A frame differs from the last one with the same
message, cell, rnti, direction, key_id and rx only in `t`, so each is
written from a template of the rest (`_template`): the capture line's
text before and after `t`, and what the sniffer read. The first one is
packed from a header, which validates it, and the sniffer reads its
bytes with that header (a frame it cannot read is an
InvariantViolation); every later one checks only its `t`, and the
sniffer hears it from what it read, with no bytes, header or decode.
A frame finds its template by that key (`_air`), but a broadcaster
names only each due cell's Sib1 Emission, and the engine writes the
cell's Mib for the frame number, then that Sib1, from the cell's slots
(`_broadcast`): 1,024 Mib templates and one Sib1 template, each filled
through `_air` on first sight. So a repeat broadcast builds no Emission
or key: one range check of `t`, one `Sniffer.hear` and one f-string.
Frames recur as broadcasts and access preambles (cleartext to rnti 0),
and as the protected measurement reports of a device that stands still.
A run never masks: the keyless sniffer is the only party that reads
frame bytes, so a protected frame goes on the air as it reads it, the
header, the key_id and zero filler as long as the body
(`codec.keyless_frame`), the very bytes replay rebuilds from its line.
A device's uplink rx is computed again only when it has moved since its
last uplink. Each distinct body cleartext to rnti 0 is encoded and
serialised to capture JSON once per run, whatever cell sends it; every
other frame once per template.

The capture is JSON lines. Frame lines carry the header fields, a
decoded body for cleartext frames or `"type": "opaque"` plus key_id for
protected ones, the body length, and the receive level at the sniffer's
position (rounded to 0.1 dB). Paging directives leave a
`{"meta": "page_trigger"}` line so a replay knows what the attacker
knew. `replay_capture` reconstructs the frame stream from such a file
and must land on the identical tracking report. As in the run, the
sniffer reads each distinct frame once, with the header it was packed
from, validated once. A frame line is remembered by its text less its
`rx` and `t`, with what the sniffer read from it: a later line that
differs from one seen valid only there, each a plain decimal (`-63.2`,
`40`), is the same frame at its own `t`, and the sniffer hears it with
no parse, bytes or decode. Other lines (added whitespace, reordered or
repeated keys, escapes, exponents, page triggers) take the full path.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from typing import Iterable, Optional, Sequence

from . import codec
from .attacker import RogueCell
from .codec import HEADER_LEN, CaptureInvalid, Direction, FrameHeader, InvariantViolation, Sib1
from .core import NetworkCore, mib
from .identity import format_tmsi
from .prng import child_rng
from .radio import PathLossModel, RadioCell, Rat, rx_power, visible_cells
from .record import Record
from .scenario import Scenario, UeSpec
from .sniffer import Sniffer, TrackingReport
from .ue import (
    AirplaneToggle,
    AppTraffic,
    Emission,
    EraseTmsi,
    PowerOn,
    Tick,
    Ue,
    UePhase,
)

UE_TX_POWER_DBM = 23.0


class RunResult(Record, frozen=False):
    scenario: Scenario
    seed: int
    duration_ms: int
    capture_lines: list[str]
    report: Optional[TrackingReport]
    ground_truth: dict
    ues: dict[str, Ue]
    core: NetworkCore
    rogue: Optional[RogueCell]

    def capture_text(self) -> str:
        return "".join(line + "\n" for line in self.capture_lines)


_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _line(header: FrameHeader, msg, n: int, rx: float, body: Optional[str] = None) -> tuple[str, str]:
    """A frame's capture line with n body bytes, the keys in sorted order as
    `_dump` writes them, split around the text of its `t`. `body` is the
    cleartext body's JSON text when the caller already has it."""
    way = "ul" if header.direction == Direction.UPLINK else "dl"
    rx_text = repr(round(rx, 1))  # what json writes for the float
    if header.protected:
        return (
            f'{{"cell":{header.cell_id},"dir":"{way}","key_id":{header.key_id},"len":{n},"prot":"protected",'
            f'"rnti":{header.rnti},"rx":{rx_text},"t":'
        ), ',"type":"opaque"}'
    if body is None:
        body = _dump(codec.message_to_json(msg))
    return (
        f'{{"body":{body},"cell":{header.cell_id},"dir":"{way}","len":{n},"prot":"clear",'
        f'"rnti":{header.rnti},"rx":{rx_text},"t":'
    ), f',"type":"{msg.NAME}"}}'


class Engine:
    def __init__(self, scenario: Scenario, seed: Optional[int] = None):
        self.sc = scenario
        self.seed = scenario.seed if seed is None else seed
        rng_for = lambda path: child_rng(self.seed, path)

        lte_cells = [cfg for cfg in scenario.cells if cfg.radio.rat is Rat.LTE]
        self.core = NetworkCore(lte_cells, scenario.ues, rng_for)
        self._radios: dict[int, RadioCell] = {cfg.cell_id: cfg.radio for cfg in scenario.cells}
        # Who answers what: broadcasters in stage order, uplinks by cell id.
        self._broadcasters: list[NetworkCore | RogueCell] = [self.core]
        self._owners: dict[int, NetworkCore | RogueCell] = dict.fromkeys(self.core.cells, self.core)
        self.rogue: Optional[RogueCell] = None
        if scenario.rogue is not None:
            self.rogue = RogueCell(scenario.rogue, rng_for("rogue"))
            self._radios[self.rogue.cell_id] = scenario.rogue.radio
            self._broadcasters.append(self.rogue)
            self._owners[self.rogue.cell_id] = self.rogue

        self.ues: dict[str, Ue] = {}
        radios = list(self._radios.values())
        for spec in scenario.ues:
            sight = Sight(spec, radios, self.rogue, scenario.rx_floor_dbm, scenario.path_loss)
            self.ues[spec.name] = Ue(spec, rng_for(f"ue/{spec.name}"), sight, sight.steady_until)

        self.sniffer = Sniffer() if scenario.sniffer_enabled else None
        self.capture: list[str] = []

        self._devices = list(self.ues.values())
        index = {name: i for i, name in enumerate(self.ues)}
        directives = []
        for i, spec in enumerate(scenario.ues):
            directives.append((spec.power_on_ms, i, PowerOn()))
            directives += [(item.t_ms, i, AppTraffic(item.byte_count)) for item in spec.app_traffic]
        directives += [(d.t_ms, index[d.ue], AirplaneToggle()) for d in scenario.toggles]
        directives += [(d.t_ms, index[d.ue], EraseTmsi()) for d in scenario.erasures]
        self._page_calls: dict[int, list[str]] = {}
        for call in scenario.page_calls:
            self._page_calls.setdefault(call.t_ms, []).append(call.msisdn)
        # The agenda: every scheduled instant, with the (device index,
        # event) directives due then, in device order. Its keys are
        # exactly the instants on the heap.
        self._agenda: dict[int, Sequence[tuple[int, object]]] = {t_ms: [] for t_ms in (0, *self._page_calls)}
        for t_ms, i, event in sorted(directives, key=lambda d: d[:2]):
            self._agenda.setdefault(t_ms, []).append((i, event))
        for t_ms in [t_ms for t_ms in self._agenda if not 0 <= t_ms <= scenario.duration_ms]:
            del self._agenda[t_ms]  # outside the run: never due
        self._heap = sorted(self._agenda)
        self._broadcast_at = [cell.next_broadcast_ms(0) for cell in self._broadcasters]  # see _process
        for t_ms in self._broadcast_at:
            self._at(t_ms, 0)
        self._downlinks: list[tuple[Emission, Optional[int]]] = []
        # The core's next deadline as last read, and whether it has handled
        # an uplink since (see _process).
        self._core_deadline: Optional[int] = None
        self._core_heard = False
        # Each device's wake as last read (a device starts off, with no
        # timer); a heap entry counts only while it equals the stored wake.
        self._wakes: list[Optional[int]] = [None] * len(self._devices)
        self._wake_heap: list[tuple[int, int]] = []
        # Devices that went quiet in a Tick and may still be (Ue.quiet).
        self._quiet: set[int] = set()
        # The sniffer's rx per cell id: a cell stands still.
        self._sniffer_rx = {cid: self._rx_at_sniffer(r.position, r.tx_power_dbm) for cid, r in self._radios.items()}
        # Each device's last uplink (position, rx at the sniffer): one entry
        # per device, however far it moves.
        self._uplink_rx: list[Optional[tuple]] = [None] * len(self._devices)
        # Repeating body bytes and capture JSON text per message value, and
        # frame templates per (message, cell, rnti, direction, key_id, rx)
        # (see _template).
        self._repeating_bodies: dict[object, tuple[bytes, str]] = {}
        self._templates: dict[tuple, tuple[str, str, Optional[tuple]]] = {}
        # Per cell id broadcast so far, its slots: its Mib's templates by
        # frame number, then its Sib1's; that Sib1; and the devices it can
        # change (see _step).
        self._slots: dict[int, tuple[list[Optional[tuple]], Sib1, set[int]]] = {}

    # -- wiring -----------------------------------------------------------------

    def _at(self, t_ms: Optional[int], now: int) -> None:
        """Schedule t_ms if it lies after now and within the run."""
        if t_ms is not None and now < t_ms <= self.sc.duration_ms and t_ms not in self._agenda:
            self._agenda[t_ms] = ()
            heapq.heappush(self._heap, t_ms)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        while self._heap:
            self._process(heapq.heappop(self._heap))
        self.core.check_invariants()
        result = self._result()
        # An engine runs once, but its caller may hold it on (perfbench holds
        # a unit's engines until all have run): let the memos and the
        # sniffer, which the result does not need, go now.
        self._repeating_bodies, self._templates, self._slots, self._uplink_rx = {}, {}, {}, []
        self.sniffer = None
        return result

    def _process(self, t: int) -> None:
        ul_batch: list[tuple[int, list[Emission]]] = []
        downlinks, self._downlinks = self._downlinks, []

        for k, at in enumerate(self._broadcast_at):
            if at == t:
                cell = self._broadcasters[k]
                for sib1 in cell.broadcast_tick(t):
                    self._broadcast(sib1, t, ul_batch)
                self._broadcast_at[k] = at = cell.next_broadcast_ms(t)
                self._at(at, t)
        for dl, causal in downlinks:
            self._air_downlink(dl, t, causal, ul_batch)

        devices = self._devices
        for i, event in self._agenda.pop(t):
            self._step(i, event, t, ul_batch)
        # Poll the devices stepped so far (read afresh) and those whose
        # stored wake is due, if there are any.
        heap, wakes = self._wake_heap, self._wakes
        if ul_batch or heap and heap[0][0] <= t:
            stepped = {i for i, _ in ul_batch}
            due, tick = set(stepped), Tick(t)
            while heap and heap[0][0] <= t:
                wake, i = heapq.heappop(heap)
                if wakes[i] == wake:
                    due.add(i)
            for i in sorted(due) if len(due) > 1 else due:
                ue = devices[i]
                wake = ue.next_wake_ms() if i in stepped else wakes[i]
                if wake is not None and wake <= t:
                    self._step(i, tick, t, ul_batch)
                    wake = ue.next_wake_ms()
                    if ue.quiet:
                        self._quiet.add(i)
                if wake is not None and (wake <= t or wake != wakes[i]):
                    heapq.heappush(heap, (wake, i))  # past due: popped again next tick
                    self._at(wake, t)  # an unchanged future wake is scheduled already
                wakes[i] = wake
            if self._quiet and heap and heap[0][0] <= t:
                self._end_quiet(t)

        for msisdn in self._page_calls.pop(t, ()):
            if self.sniffer is not None:
                self.sniffer.note_triggered_page(t, msisdn)
            self.capture.append(_dump({"meta": "page_trigger", "t": t, "msisdn": msisdn}))
            self._downlinks += [(dl, None) for dl in self.core.page(msisdn, t)]

        for i, emissions in ul_batch:
            for emission in emissions:
                self._air_uplink(i, emission, t)

        self.core.tick(t)

        if self._downlinks:
            self._at(t + 1, t)
        deadline = self._core_deadline  # moved only if heard from or due (see the module docstring)
        if self._core_heard or deadline is not None and deadline <= t:
            self._core_heard = False
            self._core_deadline = deadline = self.core.next_deadline_ms()
            self._at(deadline, t)

    def _end_quiet(self, t: int) -> None:
        """A device is past due, so it is stepped at every instant processed
        from now on: no device may skip one. Put each quiet device back on
        its recheck grid after t, as if it had rechecked all along."""
        devices, wakes = self._devices, self._wakes
        for i in self._quiet:
            ue = devices[i]
            if ue.quiet:
                ue.end_quiet(t + 1)
                wakes[i] = wake = ue.next_wake_ms()
                heapq.heappush(self._wake_heap, (wake, i))
                self._at(wake, t)
        self._quiet.clear()

    # -- the air -----------------------------------------------------------------

    def _air(self, frame: Emission, direction: Direction, t: int, rx: float) -> tuple:
        """Put one frame on the air, tapped at the sniffer's receive level
        rx, from its template (see _write); return the template."""
        # rx by value: one sender's rx is never both -0.0 and 0.0, the only
        # equal floats with different texts.
        key = (frame.message, frame.cell_id, frame.rnti, direction, frame.key_id, rx)
        return self._write(self._templates.get(key), t, key)

    def _write(self, template: Optional[tuple], t: int, key: Optional[tuple] = None) -> tuple:
        """The one line writer: show a frame at t to the sniffer and log its
        capture line, from its template, or for None a new one made from
        key (`_template`); return the template."""
        if template is None:
            template = self._template(key, t)
        elif not 0 <= t < 1 << 64:  # the one field a template leaves open
            raise InvariantViolation(f"timestamp out of range: {t}")
        elif self.sniffer is not None:
            self.sniffer.hear(t, template[2])
        self.capture.append(f"{template[0]}{t}{template[1]}")
        return template

    def _template(self, key: tuple, t: int) -> tuple[str, str, Optional[tuple]]:
        """Show the first frame with this (message, cell, rnti, direction,
        key_id, rx), at t, to the sniffer, and remember what it shares with
        the next one, all but its `t`: its capture line before and after
        `t`, and what the sniffer read.
        Packing the header validates t, the cell id, rnti and key_id. A
        repeating body is encoded and serialised to JSON once per run,
        whatever cell sends it; any other cleartext frame is encoded whole.
        A protected frame goes on the air as the keyless sniffer reads it
        (`codec.keyless_frame`), as replay rebuilds it: its body is encoded
        for its length only, and its key_id must name a live context."""
        msg, rx = key[0], key[5]
        header = FrameHeader(t, *key[1:5])
        known = self._repeating_bodies.get(msg) if header.repeats else None
        if known is not None:
            data = codec.pack_header(header) + known[0]
        elif header.protected:
            data = codec.keyless_frame(header, len(codec.encode_body(msg)))
            if header.key_id not in self.core.keys:
                raise InvariantViolation(f"no keystream seed for key_id {header.key_id}")
        else:
            data = codec.encode(header, msg)
            if header.repeats:
                known = self._repeating_bodies[msg] = (data[HEADER_LEN:], _dump(codec.message_to_json(msg)))
        heard = self.sniffer.observe(data, header) if self.sniffer is not None else None
        if heard is None and self.sniffer is not None:
            raise InvariantViolation(f"the sniffer could not read the engine's own frame: {header}")
        line = _line(header, msg, len(data) - HEADER_LEN, rx, known[1] if known else None)
        template = self._templates[key] = (*line, heard)
        return template

    def _broadcast(self, sib1: Emission, t: int, ul_batch: list) -> None:
        """One cell's broadcast at t, written from its slots, each filled
        through `_air` on first sight: the Mib of t's frame number, then
        the Sib1 `sib1`, which reaches the cell's subscribers in range."""
        cid = sib1.cell_id
        slots = self._slots.get(cid)
        if slots is None:  # the cell's first broadcast: scan every device once
            msg = sib1.message
            subs = {
                i for i, ue in enumerate(self._devices) if ue.phase is not UePhase.POWERED_OFF and not ue.already_has(msg)
            }
            slots = self._slots[cid] = [None] * 1025, msg, subs
        templates, _, subs = slots
        # 1,024 radio frames of 10 ms: the Mib of t's frame number, then the
        # Sib1, whose slot follows the Mibs'.
        for i in (t // 10 % 1024, 1024):
            if templates[i] is None:
                frame = sib1 if i == 1024 else Emission(cid, 0, mib(i))
                templates[i] = self._air(frame, Direction.DOWNLINK, t, self._sniffer_rx[cid])
            else:
                self._write(templates[i], t)
        if subs:
            self._reach(sib1, sorted(subs), t, ul_batch)  # a snapshot: a step moves its own device

    def _air_downlink(self, dl: Emission, t: int, causal: Optional[int], ul_batch: list) -> None:
        """An addressed downlink to its causing device, a page to all powered ones."""
        self._air(dl, Direction.DOWNLINK, t, self._sniffer_rx[dl.cell_id])
        if dl.rnti == 0:
            devices = self._devices
            self._reach(dl, [i for i, ue in enumerate(devices) if ue.phase is not UePhase.POWERED_OFF], t, ul_batch)
        elif causal is not None:
            self._step(causal, dl, t, ul_batch)

    def _reach(self, dl: Emission, targets: list[int], t: int, ul_batch: list) -> None:
        """Step each target device, in order, that hears dl's cell at t."""
        radio, devices = self._radios[dl.cell_id], self._devices
        for i in targets:
            if rx_power(radio, devices[i].profile.position_at(t), self.sc.path_loss) >= self.sc.rx_floor_dbm:
                self._step(i, dl, t, ul_batch)

    def _step(self, i: int, event: object, t: int, ul_batch: list) -> None:
        """Step device i, the only way the engine does, and keep its place
        in each Sib1's subscriber set."""
        ue = self._devices[i]
        phase = ue.phase
        ul_batch.append((i, ue.step(event, t)))
        # Membership (powered, and not `Ue.already_has`) reads the phase,
        # `sib1s` and `earfcn_priority`. Only a Sib1 delivery, PowerOn and
        # AirplaneToggle write the last two, and those two end in
        # SEARCHING, where a device is always a member: so only a step
        # that moved the phase or delivered a Sib1 can change the answer.
        if ue.phase is not phase or type(event) is Emission and type(event.message) is Sib1:
            powered = ue.phase is not UePhase.POWERED_OFF
            for _, sib1, subs in self._slots.values():
                if powered and not ue.already_has(sib1):
                    subs.add(i)
                else:
                    subs.discard(i)

    def _air_uplink(self, i: int, emission: Emission, t: int) -> None:
        position, last = self._devices[i].profile.position_at(t), self._uplink_rx[i]
        if last is None or last[0] != position:
            last = self._uplink_rx[i] = position, self._rx_at_sniffer(position, UE_TX_POWER_DBM)
        self._air(emission, Direction.UPLINK, t, last[1])
        owner = self._owners.get(emission.cell_id)
        if owner is self.core:
            self._core_heard = True
        if owner is not None:
            self._downlinks += [(dl, i) for dl in owner.handle_uplink(emission, t)]

    def _rx_at_sniffer(self, tx_pos: tuple[float, float], tx_power: float) -> float:
        dx = tx_pos[0] - self.sc.sniffer_position[0]
        dy = tx_pos[1] - self.sc.sniffer_position[1]
        return tx_power - self.sc.path_loss.loss_db((dx * dx + dy * dy) ** 0.5)

    # -- results ------------------------------------------------------------------

    def _result(self) -> RunResult:
        return RunResult(
            scenario=self.sc,
            seed=self.seed,
            duration_ms=self.sc.duration_ms,
            capture_lines=self.capture,
            report=self.sniffer.report() if self.sniffer is not None else None,
            ground_truth=self._ground_truth(),
            ues=self.ues,
            core=self.core,
            rogue=self.rogue,
        )

    def _ground_truth(self) -> dict:
        trajectories = {}
        for name, ue in self.ues.items():
            traj: list[list[int]] = []
            for _, cell, rnti in ue.stats.rnti_history:
                if traj and traj[-1][0] == cell:
                    traj[-1] = [cell, rnti]
                else:
                    traj.append([cell, rnti])
            trajectories[name] = traj
        gt = {
            "seed": self.seed,
            "duration_ms": self.sc.duration_ms,
            "trajectories": trajectories,
            "final_phase": {n: u.phase.value for n, u in self.ues.items()},
            "tmsi": {
                n: (format_tmsi(u.tmsi) if u.tmsi is not None else None) for n, u in self.ues.items()
            },
            "imsi_cleartext_uplinks": {n: u.stats.imsi_cleartext_uplinks for n, u in self.ues.items()},
            "attach_attempts": {
                n: [[t, plmn, kind] for t, plmn, kind in u.stats.attach_attempts]
                for n, u in self.ues.items()
            },
            "handovers_completed": {n: u.stats.handovers_completed for n, u in self.ues.items()},
            "idle_transitions": {n: u.stats.idle_transitions for n, u in self.ues.items()},
            "rejects_ignored": {n: u.stats.rejects_ignored for n, u in self.ues.items()},
            "gsm_attached": {n: u.gsm_attached for n, u in self.ues.items()},
        }
        if self.rogue is not None:
            gt["catcher_log"] = [
                [e.t_ms, e.imsi, format_tmsi(e.tmsi) if e.tmsi is not None else None]
                for e in self.rogue.catcher_log
            ]
            gt["rogue_rejects"] = dict(sorted(self.rogue.rejects_sent.items()))
        return gt


class Sight:
    """What one device hears: the cells on air above the rx floor at its
    position, strongest first, kept until the position or the rogue's
    state moves. It holds only the device's spec, the radios, the rogue,
    the rx floor and the path-loss model, so devices kept after a run do
    not keep their engine alive."""

    def __init__(
        self,
        spec: UeSpec,
        radios: list[RadioCell],
        rogue: Optional[RogueCell],
        rx_floor_dbm: float,
        path_loss: PathLossModel,
    ):
        self.spec, self.radios, self.rogue = spec, radios, rogue
        self.rx_floor_dbm, self.path_loss = rx_floor_dbm, path_loss
        self._key: Optional[tuple] = None  # (position, rogue on air) of _heard
        self._heard: list[tuple[RadioCell, float]] = []  # callers only read it

    def __call__(self, now_ms: int) -> list[tuple[RadioCell, float]]:
        on_air = self.rogue is not None and self.rogue.active(now_ms)
        key = (self.spec.position_at(now_ms), on_air)
        if key != self._key:
            self._key = key
            radios = [r for r in self.radios if on_air or not r.is_rogue]
            self._heard = visible_cells(radios, key[0], self.rx_floor_dbm, self.path_loss)
        return self._heard

    def steady_until(self, now_ms: int) -> Optional[int]:
        """The first instant after which the cells heard may differ from
        those at now_ms, None for never: the device's next move, or the
        rogue going on or off air."""
        ends = [self.spec.still_until(now_ms)]
        if self.rogue is not None:
            ends.append(self.rogue.next_edge_ms(now_ms))
        return min((end for end in ends if end is not None), default=None)


def run(scenario: Scenario, seed: Optional[int] = None) -> RunResult:
    return Engine(scenario, seed).run()


# -- capture replay --------------------------------------------------------------


# Far above any real body (UserData counts in u16); bounds hostile filler.
MAX_OPAQUE_LEN = 1 << 17


def reconstruct_frame(obj: dict) -> tuple[FrameHeader, bytes]:
    """The validated header and on-air bytes a capture line describes.
    Cleartext bodies re-encode exactly; a protected frame is rebuilt as
    the live run aired it (`codec.keyless_frame`): its key_id, then zero
    filler as long as its body."""
    t, cell, rnti, way, prot, rx = obj["t"], obj["cell"], obj["rnti"], obj["dir"], obj["prot"], obj["rx"]
    if type(t) is not int or type(cell) is not int or type(rnti) is not int:
        raise CaptureInvalid(f"t, cell, rnti: expected integers, got {t!r}, {cell!r}, {rnti!r}")
    if way not in ("dl", "ul") or prot not in ("clear", "protected"):
        raise CaptureInvalid(f"dir, prot: expected dl|ul, clear|protected, got {way!r}, {prot!r}")
    if type(rx) is not float and type(rx) is not int or not -math.inf < rx < math.inf:
        raise CaptureInvalid(f"rx: expected a finite number, got {rx!r}")
    direction = Direction.UPLINK if way == "ul" else Direction.DOWNLINK
    length = obj["len"]
    if prot == "protected":
        key_id = obj["key_id"]
        if type(key_id) is not int or type(length) is not int or not 4 <= length <= MAX_OPAQUE_LEN:
            raise CaptureInvalid(f"key_id, len: got {key_id!r}, {length!r}; want integers, len 4..{MAX_OPAQUE_LEN}")
        header = FrameHeader(t, cell, rnti, direction, key_id=key_id)
        return header, codec.keyless_frame(header, length - 4)
    header = FrameHeader(t, cell, rnti, direction)
    data = codec.encode(header, codec.message_from_json(obj["type"], obj["body"]))
    if type(length) is not int or length != len(data) - HEADER_LEN:
        raise CaptureInvalid(f"len: got {length!r}, but the body encodes to {len(data) - HEADER_LEN} bytes")
    return header, data


def parse_capture_line(number: int, line: str | bytes) -> Optional[dict]:
    """The object on one capture line, None for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise CaptureInvalid(f"line {number}: {exc}") from None
    if not isinstance(obj, dict):
        raise CaptureInvalid(f"line {number}: expected a JSON object, got {obj!r}")
    return obj


# A line as `_dump` writes it ends, after its last `,"rx":`, in its rx and
# t numbers and `"type":"NAME"}`: the top-level object's last three members,
# so lines that differ only in those numbers' texts differ only in rx and t.
# Digits are ASCII and few, so every such t is below 2**64 and every rx is
# finite; a longer number takes the full path.
_TAIL = r'-?(?:0|[1-9]\d{0,15})\.\d,"t":(0|[1-9]\d{0,18}),("type":"\w+"}\s*)'
_CUTS = {str: (',"rx":', re.compile(_TAIL, re.ASCII)), bytes: (b',"rx":', re.compile(_TAIL.encode()))}


def replay_capture(lines: Iterable[str | bytes]) -> TrackingReport:
    """Feed a capture file back through a fresh observer. A line that does
    not describe a frame or a page trigger raises CaptureInvalid."""
    sniffer = Sniffer()
    seen: dict[tuple, tuple] = {}  # line less rx and t -> what the sniffer read from it
    for number, line in enumerate(lines, 1):
        cuts = _CUTS.get(type(line))
        # After the last `,"rx":`, or at 5 if none: no remembered line cuts there.
        tail = cuts and cuts[1].fullmatch(line, line.rfind(cuts[0]) + 6)
        if tail:
            heard = seen.get(key := (line[: tail.start()], tail[2]))
            if heard is not None:
                sniffer.hear(int(tail[1]), heard)
                continue
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
        heard = sniffer.observe(frame, header)
        if tail and heard is not None:
            seen[key] = heard
    return sniffer.report()


# -- report vs truth --------------------------------------------------------------


def _is_contiguous_sublist(needle: list, haystack: list) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def _hops(value, what: str) -> list[tuple]:
    if not isinstance(value, list) or not all(type(hop) is list and [*map(type, hop)] == [int, int] for hop in value):
        raise CaptureInvalid(f"{what}: expected a list of [cell, rnti] hops, got {value!r}")
    return [tuple(hop) for hop in value]


def diff_tracking(ground_truth: dict, report: dict) -> dict:
    """Score each device's true walk against the observer's sessions.

    A session counts toward a device only if its trajectory appears as a
    contiguous run inside the true one; continuity is the best such
    coverage fraction. 1.0 means one session followed the device through
    every cell it visited. Inputs of the wrong shape raise CaptureInvalid."""
    truth = ground_truth.get("trajectories") if isinstance(ground_truth, dict) else None
    if not isinstance(truth, dict):
        raise CaptureInvalid("ground truth: expected an object with a trajectories object")
    sessions = report.get("sessions", []) if isinstance(report, dict) else None
    if type(sessions) is not list or not all(type(s) is dict and type(s.get("session_id")) is int for s in sessions):
        raise CaptureInvalid("report: expected an object whose sessions each carry an integer session_id")
    followed = [
        (s["session_id"], _hops(s.get("trajectory"), f"report: sessions[{i}].trajectory"))
        for i, s in enumerate(sessions)
    ]
    per_ue = {}
    scores = []
    for name in sorted(truth):
        gt_traj = _hops(truth[name], f"ground truth: trajectories.{name}")
        best = 0.0
        best_id = None
        for session_id, st in followed:
            if gt_traj and _is_contiguous_sublist(st, gt_traj):
                frac = len(st) / len(gt_traj)
                if frac > best:
                    best, best_id = frac, session_id
        per_ue[name] = {
            "continuity": best,
            "session_id": best_id,
            "ground_truth_hops": len(gt_traj),
        }
        scores.append(best)
    return {
        "per_ue": per_ue,
        "mean_continuity": sum(scores) / len(scores) if scores else 0.0,
    }
