"""Scenario dicts built in code, for tests that sweep parameters."""

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
