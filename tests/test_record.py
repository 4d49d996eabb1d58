"""The record base: what every simulator record shares. A subclass of
a record that has fields inherits them, ahead of its own, and takes its
own by keyword only."""

import copy
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from ltesim.attacker import RogueCellConfig
from ltesim.codec import Mib
from ltesim.core import CellConfig, SessionRecord, SessionState, Subscriber, Transmitter
from ltesim.identity import CellIdentity, Plmn, parse_imsi
from ltesim.radio import RadioCell
from ltesim.record import Field, Record
from ltesim.scenario import Scenario, UeSpec, load_scenario
from ltesim.sniffer import TrackedSession
from ltesim.ue import Emission, UeProfile, UeStats

from tests.conftest import REPO_ROOT, SCENARIO_DIR


def test_importing_ltesim_leaves_dataclasses_unloaded():
    # Every set-up imports ltesim afresh, and dataclasses (with inspect)
    # would cost that import several milliseconds.
    code = "import sys, ltesim; sys.exit('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


PROFILE = UeProfile(parse_imsi("310260123456789"), b"k" * 16, "15551230001", "356938035643809")
HOLDERS = [
    Emission(10, 0, Mib(50, 7)),
    UeStats(),
    Subscriber(PROFILE, 0x1234),
    SessionRecord(10, 600, SessionState.RACH_DONE),
    TrackedSession(1, 0, 5, [(10, 600)]),
]


@pytest.mark.parametrize("rec", HOLDERS, ids=lambda rec: type(rec).__name__)
def test_mutable_holders_compare_by_field_and_stay_unhashable(rec):
    twin = copy.deepcopy(rec)
    assert twin is not rec and twin == rec and pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(TypeError):
        hash(rec)
    with pytest.raises(AttributeError):
        rec.extra = 0
    name = next(iter(inspect.signature(type(rec)).parameters))
    setattr(twin, name, object())
    assert twin != rec and not twin == rec


def test_a_factory_default_is_fresh_per_record():
    a, b = UeStats(), UeStats()
    a.attach_attempts.append((0, "310/26", "imsi"))
    assert b.attach_attempts == [] and a != b
    assert UeStats(rnti_history=[(0, 10, 600)]).rnti_history == [(0, 10, 600)]


class Pair(Record):
    first: int
    second: str = Field("x", note="metadata for a class's own tooling")

    def __post_init__(self):
        if self.first < 0:
            raise ValueError("first must not be negative")


def test_init_takes_positional_keyword_and_default_arguments():
    assert Pair(1) == Pair(1, "x") == Pair(second="x", first=1)
    assert Pair._fields["second"].meta == {"note": "metadata for a class's own tooling"}
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, "x", 2)
    with pytest.raises(ValueError):
        Pair(-1)


class Triple(Pair):
    third: object


class Counted:
    """A field value that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        Counted.calls += 1
        return 7


def test_a_subclass_puts_inherited_fields_first_and_takes_its_own_by_keyword():
    assert str(inspect.signature(Triple)) == "(first, second='x', *, third)"
    rec = Triple(1, third=2.0)
    assert (rec.first, rec.second, rec.third) == (1, "x", 2.0)
    assert list(Triple._fields) == ["first", "second", "third"] and list(Pair._fields) == ["first", "second"]
    with pytest.raises(TypeError):
        Triple(1, "x", 2.0)
    with pytest.raises(TypeError):
        Triple(1)
    with pytest.raises(ValueError):  # the base's __post_init__ still runs
        Triple(-1, third=2.0)


def test_a_subclass_equals_only_its_own_type():
    assert Triple(1, third=2.0) == Triple(1, "x", third=2.0) != Triple(1, third=3.0)
    assert Triple(1, "y", third=2.0) != Triple(1, third=2.0)
    base, sub = Pair(1), Triple(1, third=2.0)
    assert base != sub and sub != base and not base == sub and not sub == base


def test_a_subclass_is_frozen_and_hashes_once():
    rec = Triple(1, third=Counted())
    before = Counted.calls
    assert hash(rec) == hash(rec) == hash(Triple(1, third=Counted()))
    assert Counted.calls == before + 2  # once for rec, once for the fresh twin
    for name in ("first", "third"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0


def test_a_subclass_repr_names_the_inherited_fields():
    assert repr(Triple(1, third=2.0)) == "Triple(first=1, second='x', third=2.0)"


def test_a_subclass_survives_deepcopy_and_pickle():
    rec = Triple(1, third=(2.0, [3]))
    for again in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert again == rec and again is not rec and type(again) is Triple
        assert again.third[1] is not rec.third[1]


RADIO = RadioCell(CellIdentity(10, 100, Plmn("310", "26"), 1850), (0.0, 0.0), 43.0)

# The transmitter family and the device spec take their own fields by keyword.
SIGNATURES = {
    Transmitter: "(radio, broadcast_period_ms=40, min_rx_level_dbm=-110, priority_earfcns=())",
    CellConfig: (
        "(radio, broadcast_period_ms=40, min_rx_level_dbm=-110, priority_earfcns=(), *,"
        " encrypt_handover_trigger=False, rnti_refresh_on_idle=False, handover_hysteresis_db=3.0, rnti_preset=())"
    ),
    RogueCellConfig: (
        "(radio, broadcast_period_ms=40, min_rx_level_dbm=-110, priority_earfcns=(), *,"
        " mode, reject_cause=<EmmCause.PLMN_NOT_ALLOWED: 11>, active_ms=None)"
    ),
    UeProfile: "(imsi, key, msisdn, imei, initial_tmsi=None, hardened=False)",
    UeSpec: (
        "(imsi, key, msisdn, imei, initial_tmsi=None, hardened=False, *,"
        " name, position, power_on_ms=0, app_traffic=(), moves=())"
    ),
    Scenario: (
        "(name, seed, duration_ms, cells, ues, rogue=None, page_calls=(), toggles=(), erasures=(),"
        " path_loss=PathLossModel(exponent=3.5, offset_db=20.0, min_distance_m=1.0), rx_floor_dbm=-110.0,"
        " sniffer_enabled=True, sniffer_position=(0.0, 0.0))"
    ),
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_config_record_signatures(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]


@pytest.mark.parametrize(
    "rec",
    [
        CellConfig(RADIO, rnti_preset=(600,)),
        RogueCellConfig(RADIO, mode="imsi_catcher", active_ms=(5000, 12000)),
        UeSpec(PROFILE.imsi, PROFILE.key, PROFILE.msisdn, PROFILE.imei, name="ue", position=(1.0, 2.0)),
    ],
    ids=lambda rec: type(rec).__name__,
)
def test_config_records_survive_deepcopy_and_pickle(rec):
    for again in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert again == rec and again is not rec


def test_a_parsed_scenario_and_its_cell_configs_hash():
    # Every record a config holds is frozen, the radio face included.
    scenario = load_scenario(SCENARIO_DIR / "imsi_catcher.json")
    for rec in (scenario.cells[0], scenario.rogue, scenario):
        assert hash(rec) == hash(copy.deepcopy(rec))
    with pytest.raises(AttributeError):
        scenario.cells[0].radio.tx_power_dbm = 0.0
