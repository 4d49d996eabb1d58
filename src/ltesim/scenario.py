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

The format is declared once, as one table per kind of object that gives
each key's kind, domain and record field (`SCHEMA`). A key the file
leaves out is not passed on, so it takes the record's own default.

Validation is strict and failure names the offending field by path
(`cells[1].tac`), because a silently-defaulted typo in an experiment
config costs an afternoon. For the same reason an object that carries a
key its kind does not know (`cells[0].rnti_refresh_on_idl`) is refused
at that key's path, never ignored, and so is a key repeated in one object.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import operator
import re
from itertools import pairwise
from typing import Any, Callable, Optional

from .attacker import MODES, RogueCellConfig
from .codec import EmmCause
from .core import CellConfig
from .identity import (
    RNTI_MAX,
    RNTI_MIN,
    CellIdentity,
    Imsi,
    Plmn,
    format_tmsi,
    parse_imsi,
    validate_imei,
    validate_msisdn,
)
from .radio import DEFAULT_RX_FLOOR_DBM, PathLossModel, Rat, RadioCell
from .record import MISSING, Record
from .ue import UeProfile

MAX_CELL_ID = (1 << 28) - 1
MAX_SEED = 2**63 - 1
MAX_TIME_MS = 2**48
# Every scenario number (metres, dBm, dB, loss exponent) lies within this.
MAX_MAGNITUDE = 1e7
# A Sib1 counts its channel priorities in one byte.
MAX_PRIORITY_PAIRS = 255
_WAYPOINT_T = operator.attrgetter("t_ms")  # the key moves are sorted by


class ScenarioInvalid(ValueError):
    """Scenario rejected; message carries the field path."""


def _fail(path: str, why: str) -> None:
    raise ScenarioInvalid(f"{path}: {why}")


# A kind reads one JSON value: called as kind(value, path, scope), it checks
# the value and returns what the run uses of it, or fails at `path`.
# `scope` holds the scenario's top-level fields read so far.


def _any(value: Any, path: str, scope: dict) -> Any:
    return value


def _number(value: Any, path: str, scope: dict) -> float:
    # Not bool, not NaN; bounded, so distances, losses and rx levels stay finite.
    if type(value) not in (int, float) or not abs(value) <= MAX_MAGNITUDE:
        _fail(path, f"expected a number of magnitude at most {MAX_MAGNITUDE:g}, got {value!r}")
    return float(value)


def _bool(value: Any, path: str, scope: dict) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected boolean, got {value!r}")
    return value


class Int:
    """An integer in [lo, hi]; `hi` may name the top-level field that bounds
    it. `text`, when given, reads a string form first."""

    def __init__(self, lo: int, hi: int | str, text: Optional[Callable] = None):
        self.lo, self.hi, self.text = lo, hi, text

    def __call__(self, value, path, scope):
        if self.text is not None and isinstance(value, str):
            value = self.text(value, path, scope)
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(path, f"expected integer, got {value!r}")
        hi = scope[self.hi] if isinstance(self.hi, str) else self.hi
        if not self.lo <= value <= hi:
            _fail(path, f"{value} outside [{self.lo}, {hi}]")
        return value


class Text:
    """A string, fully matching `pattern` when one is given, or else `why`;
    passed through `convert`, whose ValueError names the path."""

    def __init__(self, convert: Callable = str, why: str = "expected string, got {!r}", pattern: str = ""):
        self.convert, self.why, self.pattern = convert, why, pattern and re.compile(pattern, re.DOTALL)

    def __call__(self, value, path, scope):
        if not isinstance(value, str) or self.pattern and not self.pattern.fullmatch(value):
            _fail(path, self.why.format(value))
        try:
            return self.convert(value)
        except ValueError as exc:
            _fail(path, str(exc))


def _one_of(choices: dict, why: str) -> Text:
    """Exactly one of the names in `choices`, read as the value it maps to."""
    return Text(choices.__getitem__, why, "|".join(map(re.escape, choices)))


class Pair:
    def __init__(self, first: Callable, second: Callable, shape: str):
        self.first, self.second, self.shape = first, second, shape  # `shape` names the items in a failure

    def __call__(self, value, path, scope):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            _fail(path, f"expected {self.shape}, got {value!r}")
        return (self.first(value[0], f"{path}[0]", scope), self.second(value[1], f"{path}[1]", scope))


class List:
    def __init__(self, item: Callable):
        self.item = item

    def __call__(self, value, path, scope):
        if not isinstance(value, list):
            _fail(path, f"expected list, got {value!r}")
        return tuple([self.item(v, f"{path}[{i}]", scope) for i, v in enumerate(value)])


class Key(Record):
    """One key of an object: the kind of its value and the field it fills,
    the key's own name unless given. A nullable key given null reads as
    left out; `check` is called as a kind is, on what the key read."""

    kind: Callable
    field: str = ""
    required: bool = False
    nullable: bool = False
    check: Optional[Callable] = None


class Obj:
    """An object with none but the keys in `table`, which `build` makes a
    record of from {field: value} for the keys present. The top-level
    object has the empty path and is the scope of all below it."""

    def __init__(self, table: dict[str, Key], build: Callable[[dict, str], Any]):
        self.table, self.build = table, build
        self._entries = [(key, e.field or key, e.kind, e.required, e.nullable, e.check) for key, e in table.items()]

    def __call__(self, value, path, scope):
        where = path or "scenario"
        if not isinstance(value, dict):
            _fail(where, f"expected object, got {value!r}")
        if not value.keys() <= self.table.keys():
            _fail(f"{where}.{next(key for key in value if key not in self.table)}", "unknown key")
        fields = {}
        scope = fields if scope is None else scope
        prefix = f"{path}." if path else ""
        for key, field, kind, required, nullable, check in self._entries:
            got = value.get(key, MISSING)
            if got is MISSING:
                if required:
                    _fail(f"{where}.{key}", "missing")
            elif got is not None or not nullable:
                fields[field] = got = kind(got, prefix + key, scope)
                if check is not None:
                    check(got, prefix + key, scope)
        return self.build(fields, where)


def _record(cls: type) -> Callable[[dict, str], Any]:
    return lambda fields, path: cls(**fields)


def _transmitter(cls: type, is_rogue: bool = False) -> Callable[[dict, str], Any]:
    """A build of an operator cell or the rogue. The fields of its radio
    face, and of the identity that face claims, make records of their own."""

    def build(fields: dict, path: str) -> Any:
        identity = CellIdentity(**{name: fields.pop(name) for name in CellIdentity._fields})
        radio = {name: fields.pop(name) for name in RadioCell._fields if name in fields}
        return cls(radio=RadioCell(identity, **radio, is_rogue=is_rogue), **fields)

    return build


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

    duration_ms: int
    name: str = "scenario"
    seed: int = 0
    cells: tuple[CellConfig, ...] = ()
    ues: tuple[UeSpec, ...] = ()
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
    return str(imsi)[::-1]  # the IMSI's digits reversed: one IMEI per IMSI


def _rule(holds: Callable[[Any], bool], why: str) -> Callable[[Any, str, dict], None]:
    """A check that fails with `why`, formatted with the value, where `holds` does not."""

    def check(value: Any, path: str, scope: dict) -> None:
        if not holds(value):
            _fail(path, why.format(value))

    return check


def _plmn(fields: dict, path: str) -> Plmn:
    # Digit strings, not ints: "01" and "1" are different mnc values.
    if not all(isinstance(digits, str) for digits in fields.values()):
        _fail(path, "mcc/mnc must be digit strings, got {mcc!r}/{mnc!r}".format(**fields))
    try:
        return Plmn(**fields)
    except ValueError as exc:
        _fail(path, str(exc))


def _one_priority_per_channel(pairs: tuple, path: str, scope: dict) -> None:
    if len(pairs) > MAX_PRIORITY_PAIRS:
        _fail(path, f"{len(pairs)} pairs, but a Sib1 carries at most {MAX_PRIORITY_PAIRS}")
    priorities = {}
    for i, (earfcn, priority) in enumerate(pairs):
        # A device keeps one priority per channel: a second one would win silently.
        if priorities.setdefault(earfcn, priority) != priority:
            _fail(f"{path}[{i}]", f"earfcn {earfcn} already has priority {priorities[earfcn]}")


def _naming_devices(field: str, by: str) -> Callable[[tuple, str, dict], None]:
    """A check that each directive's `field` names a device by its `by`."""

    def check(directives: tuple, path: str, scope: dict) -> None:
        known = {getattr(ue, by) for ue in scope.get("ues", ())}
        for i, directive in enumerate(directives):
            if getattr(directive, field) not in known:
                _fail(f"{path}[{i}].{field}", f"{getattr(directive, field)!r} does not match any device")

    return check


def _device(fields: dict, path: str) -> UeSpec:
    """`mnc_len` splits the IMSI; an imei or key left out derives from the
    IMSI, and a name left out from the device's place (`ues[3]` is ue3)."""
    split = {"mnc_len": fields.pop("mnc_len")} if "mnc_len" in fields else {}
    try:
        imsi = parse_imsi(fields["imsi"], **split)
    except ValueError as exc:
        _fail(f"{path}.imsi", str(exc))
    fields["imsi"] = imsi
    fields.setdefault("imei", default_imei(imsi))
    if "key" not in fields:
        fields["key"] = default_ue_key(imsi)
    fields.setdefault("name", "ue" + path[path.index("[") + 1 : -1])
    return UeSpec(**fields)


def _reject_duplicates(what: str, keyed: list[tuple[str, Any]]) -> None:
    """Fail at the path of the first (path, key) whose key came before."""
    seen = set()
    for path, key in keyed:
        if key in seen:
            _fail(path, f"duplicate {what} {key!r}")
        seen.add(key)


def _scenario(fields: dict, path: str) -> Scenario:
    sc = Scenario(**fields)
    if not sc.cells and sc.rogue is None:
        _fail("cells", "scenario has nothing on the air")
    cell_ids = [(f"cells[{i}].cell_id", cell.cell_id) for i, cell in enumerate(sc.cells)]
    cell_ids += [("rogue.cell_id", sc.rogue.cell_id)] if sc.rogue is not None else []
    _reject_duplicates("cell id", cell_ids)
    ues = list(enumerate(sc.ues))
    _reject_duplicates("name", [(f"ues[{i}].name", ue.name) for i, ue in ues])
    _reject_duplicates("imsi", [(f"ues[{i}].imsi", str(ue.imsi)) for i, ue in ues])
    _reject_duplicates("msisdn", [(f"ues[{i}].msisdn", ue.msisdn) for i, ue in ues])
    _reject_duplicates("imei", [(f"ues[{i}].imei", ue.imei) for i, ue in ues])
    bound = [(i, ue.initial_tmsi) for i, ue in ues if ue.initial_tmsi is not None]
    _reject_duplicates("initial tmsi", [(f"ues[{i}].initial_tmsi", format_tmsi(tmsi)) for i, tmsi in bound])
    return sc


# The schema: one table per kind of object.
_TIME = Int(0, MAX_TIME_MS)
_CHANNEL = Int(0, 0xFFFF)
_POSITION = Pair(_number, _number, "[x, y]")
_IN_TIME_ORDER = _rule(lambda items: all(a.t_ms <= b.t_ms for a, b in pairwise(items)), "times must be non-decreasing")
_TRANSMITTER = {
    "cell_id": Key(Int(0, MAX_CELL_ID), required=True),
    "tac": Key(Int(0, 0xFFFF), required=True),
    "plmn": Key(Obj({"mcc": Key(_any, required=True), "mnc": Key(_any, required=True)}, _plmn), required=True),
    "earfcn": Key(_CHANNEL, required=True),
    "position": Key(_POSITION, required=True),
    "tx_power_dbm": Key(_number, required=True),
    "broadcast_period_ms": Key(Int(1, 10_000)),
    "min_rx_level_dbm": Key(Int(-128, 127)),
    "priority_earfcns": Key(List(Pair(_CHANNEL, Int(0, 7), "[earfcn, priority]")), check=_one_priority_per_channel),
}
_CELL = {"rat": Key(_one_of({rat.value: rat for rat in Rat}, "expected 'lte' or 'gsm', got {!r}"))} | _TRANSMITTER | {
    "encrypt_handover_trigger": Key(_bool),
    "rnti_refresh_on_idle": Key(_bool),
    "handover_hysteresis_db": Key(_number),
    "rnti_preset": Key(List(Int(RNTI_MIN, RNTI_MAX))),
}
_ROGUE = {
    "mode": Key(_one_of({mode: mode for mode in MODES}, f"expected one of {MODES}, got {{!r}}"), required=True),
    "reject_cause": Key(_one_of({cause.name.lower(): cause for cause in EmmCause}, "unknown cause {!r}")),
    "active_ms": Key(Pair(_TIME, _TIME, "[start, end]"), nullable=True,
                     check=_rule(lambda window: window[0] < window[1], "end must exceed start")),
} | _TRANSMITTER
_UE = {
    "name": Key(Text(why="expected non-empty string", pattern=".+")),
    "mnc_len": Key(Int(2, 3)),
    "imsi": Key(Text(), required=True),
    "msisdn": Key(Text(validate_msisdn), required=True),
    "imei": Key(Text(validate_imei)),
    "key": Key(Text(bytes.fromhex, "expected 32 hex digits, got {!r:.40}", "[0-9a-fA-F]{32}"), nullable=True),
    "app_traffic": Key(List(Obj({
        "t_ms": Key(_TIME, required=True),
        "bytes": Key(_CHANNEL, "byte_count", required=True),
    }, _record(AppTrafficSpec))), check=_IN_TIME_ORDER),
    "moves": Key(List(Obj({
        "t_ms": Key(_TIME, required=True),
        "position": Key(_POSITION, required=True),
    }, _record(WaypointSpec))), check=_IN_TIME_ORDER),
    "position": Key(_POSITION, required=True),
    # ASCII hex digits only: int(text, 16) alone would take Unicode digits, spaces, "_" and a sign.
    "initial_tmsi": Key(Int(0, 0xFFFFFFFF, Text(
        lambda text: int(text, 16),
        "expected 1 to 8 ASCII hex digits, optionally after 0x, or an integer, got {!r:.40}",
        "(?:0[xX])?[0-9a-fA-F]{1,8}",
    )), nullable=True),
    "hardened": Key(_bool),
    "power_on_ms": Key(_TIME),
}
_DIRECTIVE_T = Key(Int(0, "duration_ms"), required=True)
_UE_DIRECTIVES = List(Obj({"ue": Key(Text(), required=True), "t_ms": _DIRECTIVE_T}, _record(UeDirective)))
_SCENARIO = {
    "name": Key(Text()),
    "seed": Key(Int(0, MAX_SEED)),
    "duration_ms": Key(Int(1, MAX_TIME_MS), required=True),
    "cells": Key(List(Obj(_CELL, _transmitter(CellConfig)))),
    "ues": Key(List(Obj(_UE, _device))),
    "rogue": Key(Obj(_ROGUE, _transmitter(RogueCellConfig, is_rogue=True)), nullable=True),
    "path_loss": Key(Obj({
        # A negative exponent: received power would grow with distance.
        "exponent": Key(_number, check=_rule(lambda v: v >= 0, "must not be negative, got {}")),
        "offset_db": Key(_number),
        "min_distance_m": Key(_number, check=_rule(lambda v: v > 0, "must be positive, got {}")),
    }, _record(PathLossModel))),
    "page_calls": Key(List(Obj({"msisdn": Key(Text(), required=True), "t_ms": _DIRECTIVE_T}, _record(PageCallSpec))),
                      check=_naming_devices("msisdn", "msisdn")),
    "airplane_toggles": Key(_UE_DIRECTIVES, "toggles", check=_naming_devices("ue", "name")),
    "tmsi_erasures": Key(_UE_DIRECTIVES, "erasures", check=_naming_devices("ue", "name")),
    "rx_floor_dbm": Key(_number),
    "sniffer": Key(_bool, "sniffer_enabled"),
    "sniffer_position": Key(_POSITION),
}
SCHEMA = Obj(_SCENARIO, _scenario)

# The keys each kind of object may carry.
_TRANSMITTER_KEYS, _CELL_KEYS, _ROGUE_KEYS, _UE_KEYS, _SCENARIO_KEYS = (
    set(table) for table in (_TRANSMITTER, _CELL, _ROGUE, _UE, _SCENARIO)
)


def parse_scenario(obj: Any) -> Scenario:
    return SCHEMA(obj, "", None)


def _without_repeats(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, refused if it names one key twice: the last would win silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioInvalid(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_without_repeats)
    except OSError as exc:
        raise ScenarioInvalid(f"cannot read {path}: {exc.strerror}") from None
    except ScenarioInvalid:
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise ScenarioInvalid(f"not valid JSON: {exc}") from exc
    return parse_scenario(obj)
