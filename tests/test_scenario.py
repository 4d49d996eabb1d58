"""Scenario file parsing: field paths in errors, defaults, movement."""

import inspect
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ltesim.attacker import RogueCellConfig
from ltesim.codec import EmmCause
from ltesim.core import CellConfig
from ltesim.engine import Engine
from ltesim.identity import Plmn, parse_imsi, validate_imei
from ltesim.radio import Rat
from ltesim.record import MISSING, Record
from ltesim.scenario import (
    _CELL_KEYS,
    _ROGUE_KEYS,
    _SCENARIO_KEYS,
    _UE_KEYS,
    SCHEMA,
    List,
    Obj,
    Scenario,
    ScenarioInvalid,
    default_imei,
    default_ue_key,
    load_scenario,
    parse_scenario,
)
from ltesim.ue import UeProfile

from tests.conftest import REPO_ROOT, SCENARIO_DIR
from tests.scenario_builders import valid_scenarios

PLMN_JSON = {"mcc": "310", "mnc": "260"}


def minimal(**overrides):
    obj = {
        "name": "t",
        "seed": 1,
        "duration_ms": 1000,
        "cells": [
            {
                "cell_id": 10,
                "tac": 100,
                "plmn": dict(PLMN_JSON),
                "earfcn": 1850,
                "position": [0, 0],
                "tx_power_dbm": 43.0,
            }
        ],
        "ues": [
            {
                "name": "a",
                "imsi": "310260000000001",
                "msisdn": "15550000001",
                "position": [5, 0],
            }
        ],
    }
    obj.update(overrides)
    return obj


def fails_at(obj, fragment):
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario(obj)
    assert fragment in str(err.value), str(err.value)


def test_minimal_scenario_parses():
    sc = parse_scenario(minimal())
    assert sc.name == "t" and sc.seed == 1 and sc.duration_ms == 1000
    cell = sc.cells[0]
    assert cell.radio.identity.plmn == Plmn("310", "260")
    assert cell.radio.rat is Rat.LTE
    assert cell.broadcast_period_ms == 40
    assert not cell.encrypt_handover_trigger and not cell.rnti_refresh_on_idle
    ue = sc.ues[0]
    assert str(ue.imsi) == "310260000000001"
    assert ue.key == default_ue_key(ue.imsi)
    assert ue.imei == default_imei(ue.imsi)
    assert ue.msisdn == "15550000001"
    assert sc.sniffer_enabled and sc.rogue is None


def test_error_paths_name_the_field():
    fails_at(minimal(duration_ms=None), "duration_ms")
    fails_at(minimal(seed=-1), "seed")
    obj = minimal()
    del obj["cells"][0]["tac"]
    fails_at(obj, "cells[0].tac")
    obj = minimal()
    obj["ues"][0]["imsi"] = "1234"
    fails_at(obj, "ues[0].imsi")
    obj = minimal()
    obj["ues"][0]["app_traffic"] = [{"t_ms": 100}]
    fails_at(obj, "ues[0].app_traffic[0].bytes")


def with_key(key):
    obj = minimal()
    obj["ues"][0]["key"] = key
    return obj


def test_a_key_is_32_hex_digits():
    key = "00112233445566778899aabbccddEEFF"
    assert parse_scenario(with_key(key)).ues[0].key == bytes.fromhex(key)


BAD_KEYS = {
    "spaced": " 00 11\n22 ",
    "one-byte": "00",
    "empty": "",
    "10000-digits": "0" * 10_000,
    "30-digits": "0" * 30,
    "34-digits": "0" * 34,
    "not-hex": "0" * 31 + "g",
    "leading-space": " " + "0" * 32,
    "trailing-newline": "0" * 32 + "\n",
    "inner-space": "0" * 16 + " " + "0" * 16,
    "arabic-indic-digits": "\u0660" * 32,
    "0x-prefix": "0x" + "0" * 30,
    "integer": 7,
    "list": ["00"] * 16,
}


@pytest.mark.parametrize("key", list(BAD_KEYS))
def test_a_key_of_another_shape_is_refused(key):
    fails_at(with_key(BAD_KEYS[key]), "ues[0].key: expected 32 hex digits")


def test_plmn_must_be_digit_strings():
    obj = minimal()
    obj["cells"][0]["plmn"] = {"mcc": 310, "mnc": 260}
    fails_at(obj, "digit strings")
    obj = minimal()
    obj["cells"][0]["plmn"] = {"mcc": "310", "mnc": "2"}
    fails_at(obj, "cells[0].plmn")


def test_duplicates_rejected():
    obj = minimal()
    obj["cells"].append(dict(obj["cells"][0]))
    fails_at(obj, "duplicate cell id")

    obj = minimal()
    twin = dict(obj["ues"][0])
    obj["ues"].append(twin)
    fails_at(obj, "duplicate name")

    obj = minimal()
    twin = dict(obj["ues"][0], name="b")
    obj["ues"].append(twin)
    fails_at(obj, "duplicate imsi")

    obj = minimal()
    obj["ues"].append(dict(obj["ues"][0], name="b", imsi="310260000000002"))
    fails_at(obj, "ues[1].msisdn: duplicate msisdn '15550000001'")

    obj = minimal()
    obj["ues"][0]["initial_tmsi"] = "0x00B0B001"
    obj["ues"].append(dict(obj["ues"][0], name="b", imsi="310260000000002", msisdn="15550000002"))
    obj["ues"][1]["initial_tmsi"] = 0x00B0B001
    fails_at(obj, "ues[1].initial_tmsi: duplicate initial tmsi '0x00b0b001'")


def test_two_devices_with_one_imei_are_refused():
    obj = minimal()
    obj["ues"].append(dict(obj["ues"][0], name="b", imsi="310260000000002", msisdn="15550000002"))
    obj["ues"][0]["imei"] = obj["ues"][1]["imei"] = "350000000000001"
    fails_at(obj, "ues[1].imei: duplicate imei '350000000000001'")
    del obj["ues"][1]["imei"]  # derived, and given to the first device
    obj["ues"][0]["imei"] = default_imei(parse_imsi("310260000000002"))
    fails_at(obj, "ues[1].imei: duplicate imei")


def test_imsis_that_differ_in_any_one_digit_derive_distinct_imeis():
    base = "310260000000001"
    imsis = {base[:i] + d + base[i + 1 :] for i in range(len(base)) for d in "0123456789"}
    imeis = {default_imei(parse_imsi(imsi)) for imsi in imsis}
    assert len(imsis) == len(imeis) == 1 + 15 * 9
    assert all(validate_imei(imei) == imei for imei in imeis)


def test_the_shipped_devices_each_derive_their_own_imei():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        ues = load_scenario(path).ues
        assert len({ue.imei for ue in ues}) == len(ues), path.name


def test_rogue_must_not_reuse_a_cell_id():
    obj = minimal(
        rogue={
            "cell_id": 10,
            "tac": 101,
            "plmn": dict(PLMN_JSON),
            "earfcn": 3350,
            "position": [5, 0],
            "tx_power_dbm": 46.0,
            "mode": "imsi_catcher",
        }
    )
    fails_at(obj, "rogue.cell_id")


def test_rogue_parsing():
    obj = minimal(
        rogue={
            "cell_id": 999,
            "tac": 101,
            "plmn": dict(PLMN_JSON),
            "earfcn": 3350,
            "position": [5, 0],
            "tx_power_dbm": 46.0,
            "mode": "attach_reject_dos",
            "reject_cause": "eps_services_not_allowed",
            "active_ms": [1000, 2000],
        }
    )
    sc = parse_scenario(obj)
    assert sc.rogue.mode == "attach_reject_dos"
    assert sc.rogue.reject_cause is EmmCause.EPS_SERVICES_NOT_ALLOWED
    assert sc.rogue.active_ms == (1000, 2000)
    assert sc.rogue.radio.is_rogue

    obj["rogue"]["mode"] = "jammer"
    fails_at(obj, "rogue.mode")
    obj["rogue"]["mode"] = "downgrade"
    obj["rogue"]["active_ms"] = [2000, 2000]
    fails_at(obj, "active_ms")


def test_page_calls_must_name_a_device():
    obj = minimal(page_calls=[{"t_ms": 100, "msisdn": "19990000000"}])
    fails_at(obj, "page_calls[0].msisdn")


def test_toggles_must_name_a_device():
    obj = minimal(airplane_toggles=[{"t_ms": 100, "ue": "nobody"}])
    fails_at(obj, "airplane_toggles[0].ue")


def test_tmsi_erasures_parse_and_validate():
    obj = minimal(tmsi_erasures=[{"t_ms": 100, "ue": "a"}])
    sc = parse_scenario(obj)
    assert sc.erasures[0].t_ms == 100 and sc.erasures[0].ue == "a"
    obj = minimal(tmsi_erasures=[{"t_ms": 100, "ue": "nobody"}])
    fails_at(obj, "tmsi_erasures[0].ue")


def test_a_rogue_alone_is_enough_air():
    obj = minimal(cells=[])
    fails_at(obj, "nothing on the air")
    obj = minimal(
        cells=[],
        rogue={
            "cell_id": 999,
            "tac": 101,
            "plmn": dict(PLMN_JSON),
            "earfcn": 3350,
            "position": [5, 0],
            "tx_power_dbm": 46.0,
            "mode": "imsi_catcher",
        },
    )
    assert parse_scenario(obj).cells == ()


def test_initial_tmsi_accepts_hex_and_int():
    obj = minimal()
    obj["ues"][0]["initial_tmsi"] = "0xAABBCCDD"
    assert parse_scenario(obj).ues[0].initial_tmsi == 0xAABBCCDD
    obj["ues"][0]["initial_tmsi"] = 1234
    assert parse_scenario(obj).ues[0].initial_tmsi == 1234
    obj["ues"][0]["initial_tmsi"] = [1]
    fails_at(obj, "initial_tmsi")


@pytest.mark.parametrize(
    "text, value",
    [("0x00B0B001", 0x00B0B001), ("0XabcDEF01", 0xABCDEF01), ("12", 0x12), ("0", 0), ("FFFFFFFF", 0xFFFFFFFF)],
)
def test_initial_tmsi_takes_ascii_hex(text, value):
    obj = minimal()
    obj["ues"][0]["initial_tmsi"] = text
    assert parse_scenario(obj).ues[0].initial_tmsi == value


@pytest.mark.parametrize(
    "text",
    [
        "\u0661\u0662",  # Arabic-Indic digits
        "\uff11\uff12",  # fullwidth digits
        " 12 ",
        "12\n",
        "1_2",
        "+12",
        "-0",
        "-1",
        "",
        "0x",
        "0x123456789",  # nine digits
        "000000012",
    ],
    ids=repr,
)
def test_initial_tmsi_refuses_anything_but_ascii_hex(text):
    obj = minimal()
    obj["ues"][0]["initial_tmsi"] = text
    fails_at(obj, "ues[0].initial_tmsi: expected 1 to 8 ASCII hex digits")


def test_walk_interpolates_between_waypoints():
    obj = minimal()
    obj["ues"][0]["moves"] = [
        {"t_ms": 1000, "position": [100, 0]},
        {"t_ms": 2000, "position": [100, 50]},
    ]
    ue = parse_scenario(obj).ues[0]
    assert ue.position_at(0) == (5.0, 0.0)
    assert ue.position_at(500) == (52.5, 0.0)
    assert ue.position_at(1000) == (100.0, 0.0)
    assert ue.position_at(1500) == (100.0, 25.0)
    assert ue.position_at(5000) == (100.0, 50.0)


def scanned_position_at(spec, t_ms):
    """`UeSpec.position_at` as a scan of every waypoint from the first. Its
    `span <= 0` branch is never taken for t_ms >= 0: a waypoint not yet
    passed has t_ms < wp.t_ms, and prev_t, 0 or a passed waypoint's time,
    is at most t_ms, so span > 0."""
    pos = spec.position
    prev_t = 0
    for wp in spec.moves:
        if t_ms >= wp.t_ms:
            pos = wp.position
            prev_t = wp.t_ms
            continue
        span = wp.t_ms - prev_t
        if span <= 0:
            return wp.position
        f = (t_ms - prev_t) / span
        return (
            pos[0] + (wp.position[0] - pos[0]) * f,
            pos[1] + (wp.position[1] - pos[1]) * f,
        )
    return pos


def scanned_still_until(spec, t_ms):
    """`UeSpec.still_until` as a scan of every waypoint from the first."""
    pos, since = spec.position, t_ms
    for wp in spec.moves:
        if t_ms >= wp.t_ms:
            pos = wp.position
        elif wp.position != pos:
            return since
        else:
            since = wp.t_ms
    return None


# Few distinct times and places, so that waypoints often share a time or
# stand where the last one did.
WAYPOINTS = st.lists(
    st.tuples(
        st.integers(0, 60),
        st.sampled_from([(0.0, 0.0), (100.0, 0.0), (100.0, 50.0), (-3.5, 7.25)]),
    ),
    max_size=12,
)


@given(WAYPOINTS, st.lists(st.integers(0, 70), min_size=1, max_size=20))
def test_the_current_leg_is_found_as_a_full_scan_finds_it(waypoints, times):
    obj = minimal()
    obj["ues"][0]["position"] = [1.5, -2.0]
    obj["ues"][0]["moves"] = [{"t_ms": t, "position": list(pos)} for t, pos in sorted(waypoints, key=lambda w: w[0])]
    spec = parse_scenario(obj).ues[0]
    for t in times + [wp.t_ms for wp in spec.moves]:
        assert spec.position_at(t) == scanned_position_at(spec, t), t  # exact, not approximate
        assert spec.still_until(t) == scanned_still_until(spec, t), t


def test_waypoints_must_be_ordered():
    obj = minimal()
    obj["ues"][0]["moves"] = [
        {"t_ms": 2000, "position": [1, 0]},
        {"t_ms": 1000, "position": [2, 0]},
    ]
    fails_at(obj, "moves")


def test_load_scenario_reads_a_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal()))
    assert load_scenario(path).name == "t"


def test_shipped_scenarios_parse():
    from tests.conftest import SCENARIO_DIR

    for path in sorted(SCENARIO_DIR.glob("*.json")):
        sc = load_scenario(path)
        assert sc.duration_ms > 0, path.name


@pytest.mark.parametrize("mcc", ["\u0663\u0661\u0660", "\u00b3\u00b9\u2070"])
def test_non_ascii_digits_are_scenario_errors(mcc):
    bad_cell = dict(minimal()["cells"][0], plmn={"mcc": mcc, "mnc": "260"})
    fails_at(minimal(cells=[bad_cell]), "cells[0].plmn")
    bad_ue = dict(minimal()["ues"][0], imsi=mcc + "260000000001")
    fails_at(minimal(ues=[bad_ue]), "ues[0].imsi")


@pytest.mark.parametrize(
    "field, value",
    [
        ("tx_power_dbm", float("nan")),
        ("tx_power_dbm", float("inf")),
        ("tx_power_dbm", -float("inf")),
        ("tx_power_dbm", 10**400),
        ("position", [float("nan"), 0]),
        ("handover_hysteresis_db", float("nan")),
    ],
)
def test_cell_numbers_must_be_finite(field, value):
    bad_cell = dict(minimal()["cells"][0], **{field: value})
    fails_at(minimal(cells=[bad_cell]), f"cells[0].{field}")


def test_scenario_numbers_must_be_finite():
    fails_at(minimal(rx_floor_dbm=float("nan")), "rx_floor_dbm")
    fails_at(minimal(sniffer_position=[0, float("inf")]), "sniffer_position[1]")
    fails_at(minimal(path_loss={"exponent": float("nan")}), "path_loss.exponent")


@pytest.mark.parametrize("value", [1e7 + 1, -1e200, 10**8])
def test_scenario_numbers_are_bounded(value):
    fails_at(minimal(sniffer_position=[value, 0]), "sniffer_position[0]")
    bad_cell = dict(minimal()["cells"][0], tx_power_dbm=value)
    fails_at(minimal(cells=[bad_cell]), "cells[0].tx_power_dbm")


def test_scenario_numbers_at_the_bound_run_to_strict_json():
    sc = parse_scenario(minimal(sniffer_position=[1e7, -1e7]))
    for line in Engine(sc).run().capture_lines:
        json.loads(line, parse_constant=_refuse_constant)


@pytest.mark.parametrize("distance", [0, -1, 0.0])
def test_min_distance_must_be_positive(distance):
    fails_at(minimal(path_loss={"min_distance_m": distance}), "path_loss.min_distance_m")


def test_path_loss_exponent_must_not_be_negative():
    """A negative exponent would make received power grow with distance."""
    for exponent in (-3, -0.5, -1e-9):
        fails_at(minimal(path_loss={"exponent": exponent}), "path_loss.exponent")
    assert parse_scenario(minimal(path_loss={"exponent": 0})).path_loss.exponent == 0  # flat, but valid


@pytest.mark.parametrize(
    "where, key",
    [
        (None, "cells"),
        (None, "ues"),
        (None, "page_calls"),
        (None, "airplane_toggles"),
        (None, "tmsi_erasures"),
        ("cells", "rnti_preset"),
        ("cells", "priority_earfcns"),
        ("ues", "app_traffic"),
        ("ues", "moves"),
    ],
)
@pytest.mark.parametrize("value", [5, "x", {}, None])
def test_list_fields_must_be_lists(where, key, value):
    obj = minimal()
    if where is None:
        obj[key] = value
        fails_at(obj, key)
    else:
        obj[where][0][key] = value
        fails_at(obj, f"{where}[0].{key}")


@pytest.mark.parametrize("value", [[], {}, 5, None])
def test_directives_name_devices_by_string(value):
    fails_at(minimal(airplane_toggles=[{"t_ms": 100, "ue": value}]), "airplane_toggles[0].ue")
    fails_at(minimal(tmsi_erasures=[{"t_ms": 100, "ue": value}]), "tmsi_erasures[0].ue")
    fails_at(minimal(page_calls=[{"t_ms": 100, "msisdn": value}]), "page_calls[0].msisdn")


ROGUE_JSON = {
    "cell_id": 999,
    "tac": 101,
    "plmn": dict(PLMN_JSON),
    "earfcn": 3350,
    "position": [5, 0],
    "tx_power_dbm": 46.0,
    "mode": "imsi_catcher",
}


def every_object_kind():
    """A scenario that holds at least one object of every kind."""
    obj = minimal(
        rogue=dict(ROGUE_JSON, plmn=dict(PLMN_JSON)),
        path_loss={"exponent": 3.5},
        page_calls=[{"t_ms": 100, "msisdn": "15550000001"}],
        airplane_toggles=[{"t_ms": 200, "ue": "a"}],
        tmsi_erasures=[{"t_ms": 300, "ue": "a"}],
    )
    obj["ues"][0]["app_traffic"] = [{"t_ms": 400, "bytes": 10}]
    obj["ues"][0]["moves"] = [{"t_ms": 500, "position": [6, 0]}]
    return obj


@pytest.mark.parametrize(
    "where, key",
    [
        ((), "sniffr"),
        (("cells", 0), "rnti_refresh_on_idl"),
        (("cells", 0), "encrypt_handover_triger"),
        (("cells", 0, "plmn"), "mnc_len"),
        (("ues", 0), "hardend"),
        (("ues", 0, "app_traffic", 0), "byte_count"),
        (("ues", 0, "moves", 0), "x"),
        (("rogue",), "rat"),
        (("rogue", "plmn"), "tac"),
        (("path_loss",), "exponet"),
        (("page_calls", 0), "ue"),
        (("airplane_toggles", 0), "msisdn"),
        (("tmsi_erasures", 0), "at_ms"),
    ],
)
def test_unknown_keys_are_refused_at_their_path(where, key):
    obj = every_object_kind()
    parse_scenario(obj)
    target = obj
    for step in where:
        target = target[step]
    target[key] = True
    path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in where)
    fails_at(obj, f"{path.lstrip('.') or 'scenario'}.{key}: unknown key")


@pytest.mark.parametrize("path, pick", [("cells[0]", lambda obj: obj["cells"][0]), ("rogue", lambda obj: obj["rogue"])])
def test_priority_pairs_fit_one_sib1(path, pick):
    obj = every_object_kind()
    pick(obj)["priority_earfcns"] = [[1850, 7]] * 255
    assert Engine(parse_scenario(obj)).run().capture_lines  # the most a Sib1 carries, on the air
    pick(obj)["priority_earfcns"].append([1850, 7])
    fails_at(obj, f"{path}.priority_earfcns: 256 pairs")


@pytest.mark.parametrize("path, pick", [("cells[0]", lambda obj: obj["cells"][0]), ("rogue", lambda obj: obj["rogue"])])
def test_a_channel_takes_one_priority(path, pick):
    obj = every_object_kind()
    pick(obj)["priority_earfcns"] = [[3350, 7], [1850, 5], [1850, 5]]
    parse_scenario(obj)  # a repeat of the same pair says nothing new
    pick(obj)["priority_earfcns"].append([1850, 6])
    fails_at(obj, f"{path}.priority_earfcns[3]: earfcn 1850 already has priority 5")


def test_toggles_and_erasures_parse_alike():
    sc = parse_scenario(
        minimal(airplane_toggles=[{"t_ms": 300, "ue": "a"}], tmsi_erasures=[{"t_ms": 100, "ue": "a"}])
    )
    assert (sc.toggles[0].t_ms, sc.toggles[0].ue) == (300, "a")
    assert type(sc.toggles[0]) is type(sc.erasures[0])


def test_parsed_scenario_holds_the_run_configs():
    obj = minimal(
        rogue={
            "cell_id": 999,
            "tac": 101,
            "plmn": dict(PLMN_JSON),
            "earfcn": 3350,
            "position": [5, 0],
            "tx_power_dbm": 46.0,
            "mode": "imsi_catcher",
        }
    )
    obj["cells"].append(dict(obj["cells"][0], cell_id=11, rat="gsm"))
    sc = parse_scenario(obj)
    assert all(isinstance(cell, CellConfig) for cell in sc.cells)
    assert [cell.radio.rat for cell in sc.cells] == [Rat.LTE, Rat.GSM]
    assert isinstance(sc.rogue, RogueCellConfig)
    assert isinstance(sc.ues[0], UeProfile)


# Each shipped scenario, with one edit at a time, must either be refused
# with ScenarioInvalid or run cleanly; a clean run's capture must be strict
# JSON (no NaN, no Infinity). An edit replaces any value below the top
# level with a hostile one, adds an optional key the file leaves out with
# a hostile value, or deletes a key.
HOSTILE = [float("nan"), float("inf"), 0, -1, 5, "x", [], {}, None, True, 2**70, "¹", 1e200, -1e200]
MUTATION_RUN_MS = 3000
DELETED = object()


def _value_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _value_paths(child, path + (key,))


def _refuse_constant(name):
    raise ValueError(f"capture line holds {name}, which is not JSON")


def _hostile_for(original):
    if isinstance(original, str) and original:
        return HOSTILE + [original[:-1] + "¹"]  # a superscript digit
    return HOSTILE


def _objects_with_keys(doc):
    """(path, the keys the parser allows there) for each object of the
    scenario whose keys are checked against one of its key tables."""
    yield (), _SCENARIO_KEYS
    for kind, keys in (("cells", _CELL_KEYS), ("ues", _UE_KEYS)):
        yield from (((kind, i), keys) for i in range(len(doc.get(kind, []))))
    if "rogue" in doc:
        yield ("rogue",), _ROGUE_KEYS


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _hostile_edits(doc):
    """(path, value) for each edit; DELETED as the value drops the key."""
    for path, original in _value_paths(doc):
        for value in _hostile_for(original):
            yield path, value
    for path, keys in _objects_with_keys(doc):
        for key in sorted(keys - _at(doc, path).keys()):
            yield from ((path + (key,), value) for value in HOSTILE)
    for path, _ in _value_paths(doc):
        if isinstance(_at(doc, path[:-1]), dict):
            yield path, DELETED


def test_hostile_values_in_shipped_scenarios_are_refused_or_run():
    from tests.conftest import SCENARIO_DIR

    escapes = []
    for scenario_path in sorted(SCENARIO_DIR.glob("*.json")):
        text = scenario_path.read_text()
        for path, value in _hostile_edits(json.loads(text)):
            doc = json.loads(text)
            parent = _at(doc, path[:-1])
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            try:
                sc = parse_scenario(doc)
                kw = {name: getattr(sc, name) for name in inspect.signature(Scenario).parameters}
                result = Engine(Scenario(**kw | {"duration_ms": min(sc.duration_ms, MUTATION_RUN_MS)})).run()
                for line in result.capture_lines:
                    json.loads(line, parse_constant=_refuse_constant)
            except ScenarioInvalid:
                pass
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                edit = "deleted" if value is DELETED else f"= {value!r}"
                escapes.append(f"{scenario_path.name} {path} {edit}: {exc!r}")
    assert not escapes, "\n".join(escapes[:20])


@pytest.mark.parametrize("cause", ["eps_\u017fervices_not_allowed", "conge\u017ftion_benign", "Plmn_Not_Allowed"])
def test_a_reject_cause_is_exactly_one_of_the_lowercase_names(cause):
    """A long s (U+017F) upper-cases to S, so a case-folded lookup took these."""
    fails_at(minimal(rogue=dict(ROGUE_JSON, reject_cause=cause)), f"rogue.reject_cause: unknown cause {cause!r}")


def test_a_key_repeated_in_one_object_is_refused(tmp_path):
    text = (SCENARIO_DIR / "attach_single.json").read_text()
    path = tmp_path / "repeated.json"
    path.write_text(text.replace('"tac": 100,', '"tac": 100, "tac": 7,', 1))
    with pytest.raises(ScenarioInvalid, match="repeated key 'tac'"):
        load_scenario(path)


def _schema_objects(obj=SCHEMA, at=()):
    """(where, table) for each kind of object the schema declares: `where`
    is the path to one such object in `every_object_kind()`, which holds
    one of each."""
    yield at, obj.table
    for key, entry in obj.table.items():
        if isinstance(entry.kind, Obj):
            yield from _schema_objects(entry.kind, at + (key,))
        elif isinstance(entry.kind, List) and isinstance(entry.kind.item, Obj):
            yield from _schema_objects(entry.kind.item, at + (key, 0))


def test_hostile_values_at_every_declared_key_are_refused_or_run():
    """The shipped-scenario walk above edits only the keys those files
    hold; this one sets each key the schema declares, at every depth, in
    a scenario that holds an object of every kind."""
    escapes = []
    for where, table in _schema_objects():
        for key in table:
            original = _at(every_object_kind(), where).get(key)
            for value in _hostile_for(original):
                doc = every_object_kind()
                _at(doc, where)[key] = value
                try:
                    for line in Engine(parse_scenario(doc)).run().capture_lines:
                        json.loads(line, parse_constant=_refuse_constant)
                except ScenarioInvalid:
                    pass
                except Exception as exc:  # noqa: BLE001 - any escape is the finding
                    escapes.append(f"{where + (key,)} = {value!r}: {exc!r}")
    assert not escapes, "\n".join(escapes[:20])


def _holder(record, field):
    """The record that holds `field`: `record` or one nested in it, or None."""
    if field in type(record)._fields:
        return record
    for name in type(record)._fields:
        nested = getattr(record, name)
        if isinstance(nested, Record) and (found := _holder(nested, field)) is not None:
            return found
    return None


def _assert_keys_land(obj, doc, record, path, scope):
    """Each key `doc` gives lands on its record field; each it leaves out
    leaves that field at the record's declared default."""
    for key, entry in obj.table.items():
        field = entry.field or key
        given = key in doc and not (doc[key] is None and entry.nullable)
        if key == "mnc_len":  # spent on splitting the IMSI, whose own default is 3
            assert len(record.imsi.mnc) == (doc[key] if given else 3)
            continue
        holder = _holder(record, field)
        got = getattr(holder, field)
        if not given:
            default = type(holder)._fields[field].default
            derived = {"name": path.replace("ues[", "ue").rstrip("]"), "imei": default_imei, "key": default_ue_key}
            expected = default if default is not MISSING else derived[field]
            assert got == (expected(record.imsi) if callable(expected) else expected), (path, key)
        elif isinstance(entry.kind, Obj):
            _assert_keys_land(entry.kind, doc[key], got, f"{path}.{key}", scope)
        elif isinstance(entry.kind, List) and isinstance(entry.kind.item, Obj):
            assert len(got) == len(doc[key])
            for i, (item, built) in enumerate(zip(doc[key], got)):
                _assert_keys_land(entry.kind.item, item, built, f"{path}.{key}[{i}]".lstrip("."), scope)
        elif key == "imsi":
            assert str(got) == doc[key]
        else:
            assert got == entry.kind(doc[key], key, scope), (path, key)


@settings(max_examples=120, deadline=None)
@given(valid_scenarios())
def test_schema_derived_scenarios_parse_with_every_key_on_its_field(doc):
    sc = parse_scenario(doc)
    _assert_keys_land(SCHEMA, doc, sc, "", {"duration_ms": sc.duration_ms})


def _readme_keys():
    section = (REPO_ROOT / "README.md").read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)


def test_the_readme_key_table_lists_exactly_the_declared_keys():
    declared = ("".join("[]" if isinstance(step, int) else f".{step}" for step in where + (key,)).lstrip(".")
                for where, table in _schema_objects() for key in table)
    assert sorted(_readme_keys()) == sorted(declared)
