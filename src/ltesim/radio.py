"""Flat-plane radio geometry.

Power decays with log-distance; nothing else about the PHY layer is
modeled. The propagation constants are scenario knobs so topologies can
be shaped, but the default loss exponent 3.5 with a 20 dB fixed offset
gives plausible urban numbers: a 43 dBm cell is heard at 23 dBm from a
meter away and at -12 dBm from ten meters.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Optional

from .identity import CellIdentity
from .record import Record

Position = tuple[float, float]

DEFAULT_RX_FLOOR_DBM = -110.0


class Rat(enum.Enum):
    LTE = "lte"
    GSM = "gsm"


class PathLossModel(Record):
    exponent: float = 3.5
    offset_db: float = 20.0
    min_distance_m: float = 1.0

    def loss_db(self, distance_m: float) -> float:
        d = max(distance_m, self.min_distance_m)
        return 10.0 * self.exponent * math.log10(d) + self.offset_db


class RadioCell(Record):
    """A transmitter with an identity claim. `is_rogue` is ground-truth
    bookkeeping only; nothing over the air reveals it."""

    identity: CellIdentity
    position: Position
    tx_power_dbm: float
    rat: Rat = Rat.LTE
    is_rogue: bool = False

    @property
    def cell_id(self) -> int:
        return self.identity.cell_id


def distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def rx_power(cell: RadioCell, at: Position, model: Optional[PathLossModel] = None) -> float:
    """Received power in dBm at a point."""
    m = model or PathLossModel()
    return cell.tx_power_dbm - m.loss_db(distance(cell.position, at))


def visible_cells(
    cells: Iterable[RadioCell],
    at: Position,
    floor_dbm: float = DEFAULT_RX_FLOOR_DBM,
    model: Optional[PathLossModel] = None,
) -> list[tuple[RadioCell, float]]:
    """Cells heard above the noise floor, strongest first; equal power
    ties break toward the lower cell id so scans are reproducible."""
    m = model or PathLossModel()
    heard = []
    for cell in cells:
        rx = rx_power(cell, at, m)
        if rx >= floor_dbm:
            heard.append((cell, rx))
    heard.sort(key=lambda pair: (-pair[1], pair[0].cell_id))
    return heard
