"""Scenario file parsing: field paths in errors, defaults, movement."""

import json

import pytest

from ltesim.codec import EmmCause
from ltesim.identity import Plmn
from ltesim.radio import Rat
from ltesim.scenario import (
    ScenarioInvalid,
    default_imei,
    default_ue_key,
    load_scenario,
    parse_scenario,
)

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
    assert cell.plmn == Plmn("310", "260")
    assert cell.rat is Rat.LTE
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
    assert sc.rogue.radio().is_rogue

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
