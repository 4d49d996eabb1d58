"""Scenario dicts built in code, for tests that sweep parameters, and a
Hypothesis strategy for valid ones."""

from hypothesis import strategies as st

from ltesim import scenario as schema
from ltesim.identity import validate_imei, validate_msisdn

PLMN = {"mcc": "310", "mnc": "260"}


def lte_cell(cell_id, x, tac=300, **overrides):
    cell = {
        "cell_id": cell_id,
        "tac": tac,
        "plmn": dict(PLMN),
        "earfcn": 1850,
        "position": [x, 0],
        "tx_power_dbm": 43.0,
    }
    cell.update(overrides)
    return cell


def subscriber(name, index, x, **overrides):
    ue = {
        "name": name,
        "imsi": f"31026000000{index:04d}",
        "msisdn": f"1555000{index:04d}",
        "power_on_ms": 50,
        "position": [x, 0],
    }
    ue.update(overrides)
    return ue


def walk_scenario(seed, legs=11, encrypt=False, refresh=False):
    """One device pacing a three-cell corridor: traffic bursts while it
    moves, a six-second pause at each end so it falls idle. Every leg
    crosses two cell borders."""
    # Slow system-information cadence: reselection and handover run off the
    # measurement clock, so this only trims frame volume, not behavior.
    cells = [
        lte_cell(
            20 + i,
            x,
            encrypt_handover_trigger=encrypt,
            rnti_refresh_on_idle=refresh,
            broadcast_period_ms=200,
        )
        for i, x in enumerate((0, 600, 1200))
    ]
    left, right = [50.0, 0.0], [1150.0, 0.0]
    moves, traffic = [], []
    for k in range(legs):
        t0 = k * 16000
        dest = right if k % 2 == 0 else left
        moves.append({"t_ms": t0 + 10000, "position": dest})
        moves.append({"t_ms": t0 + 16000, "position": dest})
        for j in range(0, 10001, 2000):
            if t0 + j > 0:
                traffic.append({"t_ms": t0 + j, "bytes": 120})
    walker = subscriber("walker", 1, left[0], moves=moves, app_traffic=traffic)
    return {
        "name": f"walk-{seed}",
        "seed": seed,
        "duration_ms": legs * 16000,
        "cells": cells,
        "ues": [walker],
        "sniffer": True,
    }


def benign_day_scenario(seed=29):
    """Ten devices on two cells over ten minutes: staggered power-ons,
    sporadic traffic, incoming calls, two mid-day airplane toggles. No
    attacker anywhere; this is the leakage baseline."""
    cells = [
        lte_cell(10, 0, tac=100, broadcast_period_ms=200),
        lte_cell(11, 800, tac=100, broadcast_period_ms=200),
    ]
    ues = []
    for i in range(1, 11):
        traffic = [
            {"t_ms": base + i * 1700, "bytes": 200}
            for base in (45_000, 210_000, 400_000)
        ]
        ues.append(
            subscriber(
                f"d{i:02d}",
                i,
                40 + (i - 1) * 80,
                power_on_ms=50 + (i - 1) * 430,
                app_traffic=traffic,
            )
        )
    return {
        "name": "benign-day",
        "seed": seed,
        "duration_ms": 600_000,
        "cells": cells,
        "ues": ues,
        "page_calls": [
            {"t_ms": 150_000, "msisdn": "15550000002"},
            {"t_ms": 330_000, "msisdn": "15550000005"},
            {"t_ms": 520_000, "msisdn": "15550000009"},
        ],
        "airplane_toggles": [
            {"t_ms": 250_000, "ue": "d03"},
            {"t_ms": 320_000, "ue": "d07"},
        ],
        "sniffer": True,
    }


def crowd_scenario(n, seed=1):
    """N mostly idle devices on two cells: device i stands at
    x = 40 + (i mod 20)*40, powers on at 50 + 7i ms and sends one
    200-byte burst at 20,000 + 13i ms."""
    ues = [
        subscriber(
            f"c{i:04d}",
            i,
            40 + (i % 20) * 40,
            power_on_ms=50 + 7 * i,
            app_traffic=[{"t_ms": 20_000 + 13 * i, "bytes": 200}],
        )
        for i in range(n)
    ]
    return {
        "name": f"crowd-{n}",
        "seed": seed,
        "duration_ms": 60_000,
        "cells": [
            lte_cell(10, 0, tac=100, broadcast_period_ms=200),
            lte_cell(11, 800, tac=100, broadcast_period_ms=200),
        ],
        "ues": ues,
        "sniffer": True,
    }


# Valid scenario dicts for Hypothesis, derived from the parser's schema:
# each value is drawn from its key's declared kind and domain, and an
# optional key is as often left out as given. The rules that span keys
# (unique ids, ordered times, directives that name a device, something on
# the air, the IMSI and plmn digits) are then applied to the drawn dict.

NUMBERS = st.one_of(
    st.integers(-2000, 2000),
    st.floats(-schema.MAX_MAGNITUDE, schema.MAX_MAGNITUDE, allow_nan=False),
)
# Strings for a text kind that declares no pattern, by what it converts with.
TEXTS = {
    str: st.text(max_size=8),
    validate_msisdn: st.from_regex(r"[0-9]{10,15}", fullmatch=True),
    validate_imei: st.from_regex(r"[0-9]{15}", fullmatch=True),
}


def _draw_value(draw, kind, scope):
    if kind is schema._number:
        return draw(NUMBERS)
    if kind is schema._bool:
        return draw(st.booleans())
    if kind is schema._any:
        return None  # set by a rule
    if isinstance(kind, schema.Int):
        value = draw(st.integers(kind.lo, scope[kind.hi] if isinstance(kind.hi, str) else kind.hi))
        return f"{value:#x}" if kind.text is not None and draw(st.booleans()) else value
    if isinstance(kind, schema.Text):
        return draw(st.from_regex(kind.pattern, fullmatch=True) if kind.pattern else TEXTS[kind.convert])
    if isinstance(kind, schema.Pair):
        return [_draw_value(draw, kind.first, scope), _draw_value(draw, kind.second, scope)]
    if isinstance(kind, schema.List):
        return [_draw_value(draw, kind.item, scope) for _ in range(draw(st.integers(0, 3)))]
    return _draw_object(draw, kind, scope)


def _draw_object(draw, obj, scope=None):
    """Keys in table order, so that the top-level scope holds `duration_ms`
    before a directive's time is drawn."""
    doc = {}
    for key, entry in obj.table.items():
        if entry.required or draw(st.booleans()):
            null = entry.nullable and draw(st.integers(0, 3)) == 0
            doc[key] = None if null else _draw_value(draw, entry.kind, doc if scope is None else scope)
    return doc


@st.composite
def valid_scenarios(draw):
    """A scenario dict that `parse_scenario` accepts."""
    doc = _draw_object(draw, schema.SCHEMA)
    cells, rogue = doc.get("cells", []), doc.get("rogue")
    if not cells and rogue is None:
        doc["cells"] = cells = [_draw_object(draw, schema.SCHEMA.table["cells"].kind.item, doc)]
    for i, transmitter in enumerate(cells + [rogue] * (rogue is not None)):
        transmitter["cell_id"] = i
        transmitter["plmn"] = {"mcc": "310", "mnc": draw(st.sampled_from(["26", "260"]))}
        if "priority_earfcns" in transmitter:
            first = {}
            pairs = transmitter["priority_earfcns"]
            transmitter["priority_earfcns"] = [[earfcn, first.setdefault(earfcn, p)] for earfcn, p in pairs]
    if rogue is not None and rogue.get("active_ms") is not None:
        start, end = sorted(rogue["active_ms"])
        rogue["active_ms"] = [start, end] if start < end else [start - 1, end] if start else [start, end + 1]
    ues = doc.get("ues", [])
    for i, ue in enumerate(ues):
        ue["imsi"], ue["msisdn"] = f"310260{i:09d}", f"1555{i:07d}"
        if "imei" in ue:
            ue["imei"] = f"35{i:013d}"  # never another device's: a default one here ends in 062013
        if "name" in ue:
            ue["name"] += f"#{i}"  # never another device's name, nor a default ue{i}
        if ue.get("initial_tmsi") is not None:
            ue["initial_tmsi"] = f"{i:#x}" if isinstance(ue["initial_tmsi"], str) else i
        for timed in ("app_traffic", "moves"):
            if timed in ue:
                ue[timed].sort(key=lambda item: item["t_ms"])
    names = [ue.get("name", f"ue{i}") for i, ue in enumerate(ues)]
    for key, who, known in (
        ("page_calls", "msisdn", [ue["msisdn"] for ue in ues]),
        ("airplane_toggles", "ue", names),
        ("tmsi_erasures", "ue", names),
    ):
        if not known:
            doc.pop(key, None)
        for directive in doc.get(key, []):
            directive[who] = draw(st.sampled_from(known))
    loss = doc.get("path_loss", {})
    if "exponent" in loss:
        loss["exponent"] = abs(loss["exponent"])
    if "min_distance_m" in loss:
        loss["min_distance_m"] = abs(loss["min_distance_m"]) or 1.0
    return doc
