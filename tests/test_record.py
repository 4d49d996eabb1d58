"""The record base: what every simulator record shares, and which classes
may still be dataclasses."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import ltesim
from ltesim.codec import Mib
from ltesim.core import SessionRecord, SessionState, Subscriber
from ltesim.identity import CellIdentity, Plmn, parse_imsi
from ltesim.radio import RadioCell
from ltesim.record import Field, Record
from ltesim.sniffer import TrackedSession
from ltesim.ue import Emission, UeProfile, UeStats

# Records built once per scenario, where a dataclass costs nothing per
# frame: the scenario's keyword-only records (tests call
# `dataclasses.replace` on a Scenario and `vars` on a UeProfile) and the
# transmitter configs, which use inheritance and KW_ONLY.
ONCE_PER_SCENARIO = {
    "ltesim.attacker.RogueCellConfig",
    "ltesim.core.CellConfig",
    "ltesim.core.Transmitter",
    "ltesim.scenario.Scenario",
    "ltesim.scenario.UeSpec",
    "ltesim.ue.UeProfile",
}


def test_only_once_per_scenario_records_are_dataclasses():
    # Each dataclass costs its import about a millisecond of generated code,
    # and every set-up imports ltesim afresh, so anything else is a Record.
    found = set()
    for info in pkgutil.iter_modules(ltesim.__path__, "ltesim."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name and dataclasses.is_dataclass(obj):
                found.add(f"{info.name}.{obj.__qualname__}")
    assert found == ONCE_PER_SCENARIO


PROFILE = UeProfile(parse_imsi("310260123456789"), b"k" * 16, "15551230001", "356938035643809")
HOLDERS = [
    Emission(10, 0, Mib(50, 7)),
    UeStats(),
    Subscriber(PROFILE, 0x1234),
    SessionRecord(10, 600, SessionState.RACH_DONE),
    RadioCell(CellIdentity(10, 100, Plmn("310", "26"), 1850), (0.0, 0.0), 43.0),
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
