"""Subscriber and radio identifiers and their allocators.

The identifier catalogue mirrors what a real network juggles: the
permanent subscriber identity (IMSI) burned into the SIM, the temporary
identity (TMSI) meant to stand in for it over the air, the phone number
(MSISDN), the hardware serial (IMEI), and the per-cell radio id (RNTI)
that addresses every frame. Which of these crosses the air in the clear,
and when, is the whole privacy story, so parsing and formatting are kept
strict and allocation is deterministic under a seeded RNG.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Optional

from .record import Record

IMSI_LEN = 15
RNTI_MIN = 0x0001
RNTI_MAX = 0xFFF3


class WrongLength(ValueError):
    """Identifier text has the wrong number of digits."""


class NonDigit(ValueError):
    """Identifier text contains a non-digit character."""


class CellFull(RuntimeError):
    """No free value left in the allocator's space."""


def _is_digits(text: str) -> bool:
    """ASCII digits only: str.isdigit alone also accepts other scripts'
    digits and superscripts, which the wire cannot carry."""
    return text.isascii() and text.isdigit()


class Imsi(Record):
    """Permanent subscriber identity: mcc (3 digits), mnc (2 or 3), msin."""

    mcc: str
    mnc: str
    msin: str

    def __post_init__(self) -> None:
        digits = self.mcc + self.mnc + self.msin
        if not _is_digits(digits):
            raise NonDigit(f"imsi contains non-digits: {digits!r}")
        if len(self.mcc) != 3 or len(self.mnc) not in (2, 3):
            raise WrongLength(f"bad mcc/mnc split: {self.mcc!r}/{self.mnc!r}")
        if len(digits) != IMSI_LEN:
            raise WrongLength(f"imsi must be {IMSI_LEN} digits, got {len(digits)}")

    def __str__(self) -> str:
        return self.mcc + self.mnc + self.msin

    @property
    def plmn(self) -> "Plmn":
        return Plmn(self.mcc, self.mnc)


def parse_imsi(text: str, mnc_len: int = 3) -> Imsi:
    """Split a 15-digit IMSI string into mcc/mnc/msin.

    The MNC length is not self-describing, so the caller supplies it
    (network configuration knows; a passive observer guesses).
    """
    if mnc_len not in (2, 3):
        raise WrongLength(f"mnc_len must be 2 or 3, got {mnc_len}")
    if len(text) != IMSI_LEN:
        raise WrongLength(f"imsi must be {IMSI_LEN} digits, got {len(text)}")
    if not _is_digits(text):
        raise NonDigit(f"imsi contains non-digits: {text!r}")
    return Imsi(text[:3], text[3 : 3 + mnc_len], text[3 + mnc_len :])


class Plmn(Record):
    """Operator identity broadcast by every cell."""

    mcc: str
    mnc: str

    def __post_init__(self) -> None:
        if not _is_digits(self.mcc + self.mnc):
            raise NonDigit(f"plmn contains non-digits: {self.mcc!r}/{self.mnc!r}")
        if len(self.mcc) != 3 or len(self.mnc) not in (2, 3):
            raise WrongLength(f"bad plmn: {self.mcc!r}/{self.mnc!r}")

    def __str__(self) -> str:
        return f"{self.mcc}/{self.mnc}"


class CellIdentity(Record):
    """What a cell claims to be: 28-bit cell id, tracking area, operator,
    and the frequency channel it transmits on."""

    cell_id: int
    tac: int
    plmn: Plmn
    earfcn: int

    def __post_init__(self) -> None:
        if not 0 <= self.cell_id < (1 << 28):
            raise ValueError(f"cell_id out of range: {self.cell_id}")
        if not 0 <= self.tac < (1 << 16):
            raise ValueError(f"tac out of range: {self.tac}")
        if self.earfcn < 0:
            raise ValueError(f"earfcn must be unsigned: {self.earfcn}")


def validate_msisdn(text: str) -> str:
    if not _is_digits(text):
        raise NonDigit(f"msisdn contains non-digits: {text!r}")
    if not 10 <= len(text) <= 15:
        raise WrongLength(f"msisdn must be 10..15 digits, got {len(text)}")
    return text


def validate_imei(text: str) -> str:
    if not _is_digits(text):
        raise NonDigit(f"imei contains non-digits: {text!r}")
    if len(text) != 15:
        raise WrongLength(f"imei must be 15 digits, got {len(text)}")
    return text


def format_tmsi(value: int) -> str:
    return f"0x{value:08x}"


def is_device_rnti(value: int) -> bool:
    """True for values a connected device may hold. 0x0000 is the
    broadcast sentinel; 0xFFF4..0xFFFF are reserved."""
    return RNTI_MIN <= value <= RNTI_MAX


class RntiAllocator:
    """Per-cell RNTI pool.

    Draws uniformly from the device range, never returning a value that
    is currently in use. A scenario may pin a queue of preset values
    (consumed before any PRNG draw) to reproduce captures with known
    radio ids; presets are scenario data, so determinism holds either
    way.
    """

    def __init__(self, rng: random.Random, preset: Optional[Iterable[int]] = None):
        self._rng = rng
        self._in_use: set[int] = set()
        self._preset: deque[int] = deque(preset or ())
        for v in self._preset:
            if not is_device_rnti(v):
                raise ValueError(f"preset rnti out of device range: {v}")

    @property
    def in_use(self) -> frozenset[int]:
        return frozenset(self._in_use)

    def allocate(self) -> int:
        span = RNTI_MAX - RNTI_MIN + 1
        if len(self._in_use) >= span:
            raise CellFull("rnti space exhausted")
        while self._preset:
            v = self._preset.popleft()
            if v not in self._in_use:
                self._in_use.add(v)
                return v
        if span - len(self._in_use) <= 64:
            # Near exhaustion random rejection may spin; scan the exact free set.
            free = [v for v in range(RNTI_MIN, RNTI_MAX + 1) if v not in self._in_use]
            v = self._rng.choice(free)
            self._in_use.add(v)
            return v
        while True:
            v = self._rng.randint(RNTI_MIN, RNTI_MAX)
            if v not in self._in_use:
                self._in_use.add(v)
                return v

    def release(self, value: int) -> None:
        self._in_use.discard(value)
