"""Scenario generators and the unit of work each workload repeats.

These are the benchmark's own copies of the corridor walk, the crowd and
the benign day; the test suite has similar builders, but a workload must
not change because a test was edited. Every generator is a pure function
of its arguments, so the same seed always gives the same inputs.

A workload's unit is a list of `Job`s: scenario dicts with the engine
seed to run them under. Each job belongs to the workload's "small" or
"large" size class; `cost_growth` compares the two (see README.md).
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

PLMN = {"mcc": "310", "mnc": "260"}

# Size axis of each workload: large instances are GROWTH times the small.
GROWTH = 4
WALK_LEGS = (3, 12)
CROWD_SIZES = (25, 100)
CROWD_DURATION_MS = 60_000
ATTACK_SEEDS_PER_UNIT = 2
WALK_VARIANTS = (
    ("clear", {}),
    ("encrypt", {"encrypt": True}),
    ("refresh", {"refresh": True}),
)


@dataclass(frozen=True)
class Job:
    label: str
    doc: dict
    seed: int
    size: str  # "small" or "large"


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


def crowd_scenario(n, seed=1):
    """N mostly idle devices on two cells: device i stands at
    x = 40 + (i mod 20)*40, powers on at 50 + 7i ms and sends one
    200-byte burst at 20,000 + 13i ms."""
    cells = [
        lte_cell(10, 0, tac=100, broadcast_period_ms=200),
        lte_cell(11, 800, tac=100, broadcast_period_ms=200),
    ]
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
        "duration_ms": CROWD_DURATION_MS,
        "cells": cells,
        "ues": ues,
        "sniffer": True,
    }


def benign_day_scenario(seed=29):
    """Ten devices on two cells over ten minutes: staggered power-ons,
    sporadic traffic, incoming calls, two mid-day airplane toggles."""
    cells = [
        lte_cell(10, 0, tac=100, broadcast_period_ms=200),
        lte_cell(11, 800, tac=100, broadcast_period_ms=200),
    ]
    ues = []
    for i in range(1, 11):
        traffic = [{"t_ms": base + i * 1700, "bytes": 200} for base in (45_000, 210_000, 400_000)]
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


def shipped_scenarios(root: pathlib.Path) -> list[tuple[str, dict]]:
    """The scenario files in `root/scenarios`, sorted by file name."""
    paths = sorted((root / "scenarios").glob("*.json"))
    return [(p.stem, json.loads(p.read_text())) for p in paths]


def unit_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def walk_jobs(seed: int) -> list[Job]:
    (s,) = unit_seeds(seed, 1)
    jobs = []
    for size, legs in zip(("small", "large"), WALK_LEGS):
        for label, kwargs in WALK_VARIANTS:
            jobs.append(Job(f"walk-{label}-{legs}legs", walk_scenario(s, legs=legs, **kwargs), s, size))
    return jobs


def crowd_jobs(seed: int) -> list[Job]:
    (s,) = unit_seeds(seed, 1)
    return [
        Job(f"crowd-{n}", crowd_scenario(n, seed=s), s, size)
        for size, n in zip(("small", "large"), CROWD_SIZES)
    ]


def attack_jobs(seed: int, root: pathlib.Path) -> list[Job]:
    jobs = []
    for s in unit_seeds(seed, ATTACK_SEEDS_PER_UNIT):
        for stem, doc in shipped_scenarios(root):
            jobs.append(Job(f"{stem}-{s}", doc, s, "small"))
            longer = dict(doc, duration_ms=doc["duration_ms"] * GROWTH)
            jobs.append(Job(f"{stem}-{s}-x{GROWTH}", longer, s, "large"))
    return jobs


def replay_sources(seed: int, root: pathlib.Path) -> list[Job]:
    """Live runs whose captures the replay workload feeds back: the
    large walk variants and each shipped scenario once. The sniffer is
    switched on everywhere so each replay has a live report to match;
    it only listens, so the capture is the same either way."""
    (s,) = unit_seeds(seed, 1)
    jobs = [j for j in walk_jobs(seed) if j.size == "large"]
    jobs += [Job(f"{stem}-{s}", dict(doc, sniffer=True), s, "large") for stem, doc in shipped_scenarios(root)]
    return jobs
