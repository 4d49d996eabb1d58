"""Scenario files: the single JSON input that fixes a whole run.

Everything a run needs is in here: world geometry, operator cells with
their mitigation knobs, devices with their traffic and movement, the
optional rogue cell, paging directives, and the master seed. Two runs
of the same scenario are byte-identical, so scenarios double as
regression fixtures.

Parsing yields the objects the run itself uses: a `core.CellConfig` for
every LTE and GSM cell, an `attacker.RogueCellConfig` for the rogue, and
for each device a `UeSpec`, which is its `ue.UeProfile` plus placement
and schedule.

Validation is strict and failure names the offending field by path
(`cells[1].tac`), because a silently-defaulted typo in an experiment
config costs an afternoon. For the same reason an object that carries a
key its kind does not know (`cells[0].rnti_refresh_on_idl`) is refused
at that key's path, never ignored.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import operator
import re
from typing import Any, Optional

from .attacker import MODES, RogueCellConfig
from .codec import EmmCause
from .core import CellConfig
from .identity import (
    CellIdentity,
    Imsi,
    Plmn,
    format_tmsi,
    parse_imsi,
    validate_imei,
    validate_msisdn,
)
from .radio import DEFAULT_RX_FLOOR_DBM, PathLossModel, Rat, RadioCell
from .record import Record
from .ue import UeProfile

MAX_CELL_ID = (1 << 28) - 1
MAX_SEED = 2**63 - 1
# Every scenario number (metres, dBm, dB, loss exponent) lies within this.
MAX_MAGNITUDE = 1e7
# A Sib1 counts its channel priorities in one byte.
MAX_PRIORITY_PAIRS = 255
# An initial TMSI given as text: ASCII hex digits only (int(text, 16)
# alone would take Unicode digits, spaces, "_" and a sign).
_TMSI_HEX = re.compile(r"(?:0[xX])?[0-9a-fA-F]{1,8}")
_WAYPOINT_T = operator.attrgetter("t_ms")  # the key moves are sorted by

# The keys each kind of object may carry.
_TRANSMITTER_KEYS = {
    "cell_id", "tac", "plmn", "earfcn", "position", "tx_power_dbm",
    "broadcast_period_ms", "min_rx_level_dbm", "priority_earfcns",
}
_CELL_KEYS = _TRANSMITTER_KEYS | {
    "rat", "rnti_preset", "encrypt_handover_trigger", "rnti_refresh_on_idle", "handover_hysteresis_db",
}
_ROGUE_KEYS = _TRANSMITTER_KEYS | {"mode", "reject_cause", "active_ms"}
_UE_KEYS = {
    "name", "imsi", "mnc_len", "msisdn", "imei", "key", "position", "initial_tmsi", "hardened",
    "power_on_ms", "app_traffic", "moves",
}
_SCENARIO_KEYS = {
    "name", "seed", "duration_ms", "cells", "ues", "rogue", "page_calls", "airplane_toggles",
    "tmsi_erasures", "path_loss", "rx_floor_dbm", "sniffer", "sniffer_position",
}


class ScenarioInvalid(ValueError):
    """Scenario rejected; message carries the field path."""


def _fail(path: str, why: str) -> None:
    raise ScenarioInvalid(f"{path}: {why}")


def _require(obj: dict, path: str, key: str) -> Any:
    if key not in obj:
        _fail(f"{path}.{key}", "missing")
    return obj[key]


def _as_int(value: Any, path: str, lo: int, hi: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected integer, got {value!r}")
    if not lo <= value <= hi:
        _fail(path, f"{value} outside [{lo}, {hi}]")
    return value


def _as_number(value: Any, path: str) -> float:
    # Not bool, not NaN; bounded, so distances, losses and rx levels stay finite.
    if type(value) not in (int, float) or not abs(value) <= MAX_MAGNITUDE:
        _fail(path, f"expected a number of magnitude at most {MAX_MAGNITUDE:g}, got {value!r}")
    return float(value)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected boolean, got {value!r}")
    return value


def _as_text(value: Any, path: str, parse=str) -> Any:
    """A string, passed through `parse`; its ValueError names the path."""
    if not isinstance(value, str):
        _fail(path, f"expected string, got {value!r}")
    try:
        return parse(value)
    except ValueError as exc:
        _fail(path, str(exc))


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected list, got {value!r}")
    return value


def _as_object(value: Any, path: str, keys: set[str]) -> dict:
    """An object carrying none but the given keys."""
    if not isinstance(value, dict):
        _fail(path, f"expected object, got {value!r}")
    for key in value:
        if key not in keys:
            _fail(f"{path}.{key}", "unknown key")
    return value


def _as_position(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, f"expected [x, y], got {value!r}")
    return (_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _as_plmn(value: Any, path: str) -> Plmn:
    # Digit strings, not ints: "01" and "1" are different mnc values.
    value = _as_object(value, path, {"mcc", "mnc"})
    mcc = _require(value, path, "mcc")
    mnc = _require(value, path, "mnc")
    if not isinstance(mcc, str) or not isinstance(mnc, str):
        _fail(path, f"mcc/mnc must be digit strings, got {mcc!r}/{mnc!r}")
    try:
        return Plmn(mcc, mnc)
    except ValueError as exc:
        _fail(path, str(exc))


def _as_priority_pairs(value: Any, path: str) -> tuple[tuple[int, int], ...]:
    items = _as_list(value, path)
    if len(items) > MAX_PRIORITY_PAIRS:
        _fail(path, f"{len(items)} pairs, but a Sib1 carries at most {MAX_PRIORITY_PAIRS}")
    pairs, priorities = [], {}
    for i, item in enumerate(items):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            _fail(f"{path}[{i}]", f"expected [earfcn, priority], got {item!r}")
        earfcn = _as_int(item[0], f"{path}[{i}][0]", 0, 0xFFFF)
        priority = _as_int(item[1], f"{path}[{i}][1]", 0, 7)
        # A device keeps one priority per channel: a second one would win silently.
        if priorities.setdefault(earfcn, priority) != priority:
            _fail(f"{path}[{i}]", f"earfcn {earfcn} already has priority {priorities[earfcn]}")
        pairs.append((earfcn, priority))
    return tuple(pairs)


class AppTrafficSpec(Record):
    t_ms: int
    byte_count: int


class WaypointSpec(Record):
    t_ms: int
    position: tuple[float, float]


class UeSpec(UeProfile):
    """A device as declared: its SIM profile plus where it stands, when it
    powers on, and what it sends. The engine runs it as the profile."""

    name: str
    position: tuple[float, float]
    power_on_ms: int = 0
    app_traffic: tuple[AppTrafficSpec, ...] = ()
    moves: tuple[WaypointSpec, ...] = ()

    def position_at(self, t_ms: int) -> tuple[float, float]:
        """Piecewise-linear walk through the declared waypoints, for t_ms >= 0."""
        moves = self.moves
        k = bisect.bisect_right(moves, t_ms, key=_WAYPOINT_T)  # waypoints passed: moves are non-decreasing
        if k == len(moves):
            return moves[-1].position if moves else self.position
        pos, prev_t = (moves[k - 1].position, moves[k - 1].t_ms) if k else (self.position, 0)
        wp = moves[k]
        f = (t_ms - prev_t) / (wp.t_ms - prev_t)  # prev_t <= t_ms < wp.t_ms
        return (
            pos[0] + (wp.position[0] - pos[0]) * f,
            pos[1] + (wp.position[1] - pos[1]) * f,
        )

    def still_until(self, t_ms: int) -> Optional[int]:
        """The first instant after which `position_at` may differ from its
        value at t_ms: t_ms itself while the device moves, the start of its
        next move while it stands, None once it never moves again."""
        moves = self.moves
        k = bisect.bisect_right(moves, t_ms, key=_WAYPOINT_T)
        pos, since = moves[k - 1].position if k else self.position, t_ms
        for wp in moves[k:]:  # the waypoints still ahead
            if wp.position != pos:
                return since
            since = wp.t_ms
        return None


class PageCallSpec(Record):
    t_ms: int
    msisdn: str


class UeDirective(Record):
    """An airplane toggle or a TMSI erasure for one named device."""

    t_ms: int
    ue: str


class Scenario(Record):
    """`cells` holds LTE and GSM cells alike; `radio.rat` tells them apart."""

    name: str
    seed: int
    duration_ms: int
    cells: tuple[CellConfig, ...]
    ues: tuple[UeSpec, ...]
    rogue: Optional[RogueCellConfig] = None
    page_calls: tuple[PageCallSpec, ...] = ()
    toggles: tuple[UeDirective, ...] = ()
    erasures: tuple[UeDirective, ...] = ()
    path_loss: PathLossModel = PathLossModel()
    rx_floor_dbm: float = DEFAULT_RX_FLOOR_DBM
    sniffer_enabled: bool = True
    sniffer_position: tuple[float, float] = (0.0, 0.0)


def default_ue_key(imsi: Imsi) -> bytes:
    """Subscriber key when the scenario does not pin one. A function of
    the permanent identity only, so captures replay across seeds."""
    return hashlib.sha256(b"sim-subscriber-key:" + str(imsi).encode()).digest()[:16]


def default_imei(imsi: Imsi) -> str:
    return ("99" + str(imsi))[:15]


def _parse_transmitter(obj: dict, path: str, rat: Rat = Rat.LTE, is_rogue: bool = False) -> dict:
    """What an operator cell and the rogue declare alike: the radio face
    and the broadcast knobs, as keyword arguments for either config."""
    identity = CellIdentity(
        _as_int(_require(obj, path, "cell_id"), f"{path}.cell_id", 0, MAX_CELL_ID),
        _as_int(_require(obj, path, "tac"), f"{path}.tac", 0, 0xFFFF),
        _as_plmn(_require(obj, path, "plmn"), f"{path}.plmn"),
        _as_int(_require(obj, path, "earfcn"), f"{path}.earfcn", 0, 0xFFFF),
    )
    return dict(
        radio=RadioCell(
            identity,
            _as_position(_require(obj, path, "position"), f"{path}.position"),
            _as_number(_require(obj, path, "tx_power_dbm"), f"{path}.tx_power_dbm"),
            rat,
            is_rogue,
        ),
        broadcast_period_ms=_as_int(obj.get("broadcast_period_ms", 40), f"{path}.broadcast_period_ms", 1, 10_000),
        min_rx_level_dbm=_as_int(obj.get("min_rx_level_dbm", -110), f"{path}.min_rx_level_dbm", -128, 127),
        priority_earfcns=_as_priority_pairs(obj.get("priority_earfcns", []), f"{path}.priority_earfcns"),
    )


def _parse_cell(obj: Any, path: str) -> CellConfig:
    obj = _as_object(obj, path, _CELL_KEYS)
    rat_text = obj.get("rat", "lte")
    if rat_text not in ("lte", "gsm"):
        _fail(f"{path}.rat", f"expected 'lte' or 'gsm', got {rat_text!r}")
    preset = _as_list(obj.get("rnti_preset", []), f"{path}.rnti_preset")
    return CellConfig(
        **_parse_transmitter(obj, path, Rat(rat_text)),
        encrypt_handover_trigger=_as_bool(obj.get("encrypt_handover_trigger", False), f"{path}.encrypt_handover_trigger"),
        rnti_refresh_on_idle=_as_bool(obj.get("rnti_refresh_on_idle", False), f"{path}.rnti_refresh_on_idle"),
        handover_hysteresis_db=_as_number(obj.get("handover_hysteresis_db", 3.0), f"{path}.handover_hysteresis_db"),
        rnti_preset=tuple(
            _as_int(v, f"{path}.rnti_preset[{i}]", 1, 0xFFF3) for i, v in enumerate(preset)
        ),
    )


def _parse_tmsi(value: Any, path: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, str):
        if not _TMSI_HEX.fullmatch(value):
            _fail(path, f"expected 1 to 8 ASCII hex digits, optionally after 0x, or an integer, got {value!r:.40}")
        value = int(value, 16)
    return _as_int(value, path, 0, 0xFFFFFFFF)


def _parse_ue(obj: Any, path: str, index: int) -> UeSpec:
    obj = _as_object(obj, path, _UE_KEYS)
    name = obj.get("name", f"ue{index}")
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "expected non-empty string")
    mnc_len = _as_int(obj.get("mnc_len", 3), f"{path}.mnc_len", 2, 3)
    imsi = _as_text(_require(obj, path, "imsi"), f"{path}.imsi", lambda text: parse_imsi(text, mnc_len))
    msisdn = _as_text(_require(obj, path, "msisdn"), f"{path}.msisdn", validate_msisdn)
    imei = _as_text(obj.get("imei", default_imei(imsi)), f"{path}.imei", validate_imei)
    key_hex = obj.get("key")
    if key_hex is None:
        key = default_ue_key(imsi)
    elif type(key_hex) is str and re.fullmatch("[0-9a-fA-F]{32}", key_hex):  # 16 bytes, as default_ue_key
        key = bytes.fromhex(key_hex)
    else:
        _fail(f"{path}.key", f"expected 32 hex digits, got {key_hex!r:.40}")

    traffic = []
    for i, item in enumerate(_as_list(obj.get("app_traffic", []), f"{path}.app_traffic")):
        tpath = f"{path}.app_traffic[{i}]"
        item = _as_object(item, tpath, {"t_ms", "bytes"})
        traffic.append(
            AppTrafficSpec(
                _as_int(_require(item, tpath, "t_ms"), f"{tpath}.t_ms", 0, 2**48),
                _as_int(_require(item, tpath, "bytes"), f"{tpath}.bytes", 0, 0xFFFF),
            )
        )
    if traffic != sorted(traffic, key=lambda a: a.t_ms):
        _fail(f"{path}.app_traffic", "times must be non-decreasing")

    moves = []
    for i, item in enumerate(_as_list(obj.get("moves", []), f"{path}.moves")):
        mpath = f"{path}.moves[{i}]"
        item = _as_object(item, mpath, {"t_ms", "position"})
        moves.append(
            WaypointSpec(
                _as_int(_require(item, mpath, "t_ms"), f"{mpath}.t_ms", 0, 2**48),
                _as_position(_require(item, mpath, "position"), f"{mpath}.position"),
            )
        )
    if [m.t_ms for m in moves] != sorted(m.t_ms for m in moves):
        _fail(f"{path}.moves", "times must be non-decreasing")

    return UeSpec(
        name=name,
        imsi=imsi,
        key=key,
        msisdn=msisdn,
        imei=imei,
        position=_as_position(_require(obj, path, "position"), f"{path}.position"),
        initial_tmsi=_parse_tmsi(obj.get("initial_tmsi"), f"{path}.initial_tmsi"),
        hardened=_as_bool(obj.get("hardened", False), f"{path}.hardened"),
        power_on_ms=_as_int(obj.get("power_on_ms", 0), f"{path}.power_on_ms", 0, 2**48),
        app_traffic=tuple(traffic),
        moves=tuple(moves),
    )


def _parse_rogue(obj: Any, path: str) -> RogueCellConfig:
    obj = _as_object(obj, path, _ROGUE_KEYS)
    mode = _require(obj, path, "mode")
    if mode not in MODES:
        _fail(f"{path}.mode", f"expected one of {MODES}, got {mode!r}")
    cause_name = obj.get("reject_cause", "plmn_not_allowed")
    try:
        cause = EmmCause[cause_name.upper()]
    except (KeyError, AttributeError):
        _fail(f"{path}.reject_cause", f"unknown cause {cause_name!r}")
    window = obj.get("active_ms")
    active: Optional[tuple[int, int]] = None
    if window is not None:
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            _fail(f"{path}.active_ms", f"expected [start, end], got {window!r}")
        start = _as_int(window[0], f"{path}.active_ms[0]", 0, 2**48)
        end = _as_int(window[1], f"{path}.active_ms[1]", 0, 2**48)
        if end <= start:
            _fail(f"{path}.active_ms", "end must exceed start")
        active = (start, end)
    return RogueCellConfig(
        **_parse_transmitter(obj, path, is_rogue=True), mode=mode, reject_cause=cause, active_ms=active
    )


def _parse_directives(obj: dict, key: str, who_key: str, known: set, duration: int, make) -> tuple:
    """Timed actions that name a device (by `who_key`) in `known`."""
    out = []
    for i, item in enumerate(_as_list(obj.get(key, []), key)):
        path = f"{key}[{i}]"
        item = _as_object(item, path, {"t_ms", who_key})
        who = _as_text(_require(item, path, who_key), f"{path}.{who_key}")
        if who not in known:
            _fail(f"{path}.{who_key}", f"{who!r} does not match any device")
        out.append(make(_as_int(_require(item, path, "t_ms"), f"{path}.t_ms", 0, duration), who))
    return tuple(out)


def _reject_duplicates(what: str, keyed: list[tuple[str, Any]]) -> None:
    """Fail at the path of the first (path, key) whose key came before."""
    seen = set()
    for path, key in keyed:
        if key in seen:
            _fail(path, f"duplicate {what} {key!r}")
        seen.add(key)


def parse_scenario(obj: Any) -> Scenario:
    obj = _as_object(obj, "scenario", _SCENARIO_KEYS)
    name = _as_text(obj.get("name", "scenario"), "name")
    seed = _as_int(obj.get("seed", 0), "seed", 0, MAX_SEED)
    duration = _as_int(_require(obj, "scenario", "duration_ms"), "duration_ms", 1, 2**48)

    cells = tuple(_parse_cell(c, f"cells[{i}]") for i, c in enumerate(_as_list(obj.get("cells", []), "cells")))
    ues = tuple(_parse_ue(u, f"ues[{i}]", i) for i, u in enumerate(_as_list(obj.get("ues", []), "ues")))
    rogue = _parse_rogue(obj["rogue"], "rogue") if obj.get("rogue") is not None else None
    if not cells and rogue is None:
        _fail("cells", "scenario has nothing on the air")

    cell_ids = [(f"cells[{i}].cell_id", cell.cell_id) for i, cell in enumerate(cells)]
    cell_ids += [("rogue.cell_id", rogue.cell_id)] if rogue is not None else []
    _reject_duplicates("cell id", cell_ids)
    _reject_duplicates("name", [(f"ues[{i}].name", ue.name) for i, ue in enumerate(ues)])
    _reject_duplicates("imsi", [(f"ues[{i}].imsi", str(ue.imsi)) for i, ue in enumerate(ues)])
    _reject_duplicates("msisdn", [(f"ues[{i}].msisdn", ue.msisdn) for i, ue in enumerate(ues)])
    bound = [(i, ue.initial_tmsi) for i, ue in enumerate(ues) if ue.initial_tmsi is not None]
    _reject_duplicates("initial tmsi", [(f"ues[{i}].initial_tmsi", format_tmsi(tmsi)) for i, tmsi in bound])
    names, msisdns = {ue.name for ue in ues}, {ue.msisdn for ue in ues}

    raw_pl = _as_object(obj.get("path_loss", {}), "path_loss", {"exponent", "offset_db", "min_distance_m"})
    path_loss = PathLossModel(
        exponent=_as_number(raw_pl.get("exponent", 3.5), "path_loss.exponent"),
        offset_db=_as_number(raw_pl.get("offset_db", 20.0), "path_loss.offset_db"),
        min_distance_m=_as_number(raw_pl.get("min_distance_m", 1.0), "path_loss.min_distance_m"),
    )
    if path_loss.exponent < 0:  # received power would grow with distance
        _fail("path_loss.exponent", f"must not be negative, got {path_loss.exponent}")
    if path_loss.min_distance_m <= 0:
        _fail("path_loss.min_distance_m", f"must be positive, got {path_loss.min_distance_m}")

    return Scenario(
        name=name,
        seed=seed,
        duration_ms=duration,
        cells=cells,
        ues=ues,
        rogue=rogue,
        page_calls=_parse_directives(obj, "page_calls", "msisdn", msisdns, duration, PageCallSpec),
        toggles=_parse_directives(obj, "airplane_toggles", "ue", names, duration, UeDirective),
        erasures=_parse_directives(obj, "tmsi_erasures", "ue", names, duration, UeDirective),
        path_loss=path_loss,
        rx_floor_dbm=_as_number(obj.get("rx_floor_dbm", DEFAULT_RX_FLOOR_DBM), "rx_floor_dbm"),
        sniffer_enabled=_as_bool(obj.get("sniffer", True), "sniffer"),
        sniffer_position=_as_position(obj.get("sniffer_position", [0.0, 0.0]), "sniffer_position"),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioInvalid(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise ScenarioInvalid(f"not valid JSON: {exc}") from exc
    return parse_scenario(obj)
