"""Deterministic message-level simulator of an LTE-style control plane,
its known identity/availability attacks, and a passive observer that
tries to follow devices across cells by their radio identifiers."""

from .attacker import RogueCell, RogueCellConfig, scan_broadcast
from .codec import CaptureInvalid
from .core import CellConfig, NetworkCore
from .engine import Engine, RunResult, diff_tracking, replay_capture, run
from .scenario import Scenario, ScenarioInvalid, load_scenario, parse_scenario
from .sniffer import Sniffer, TrackingReport
from .ue import Ue, UePhase, UeProfile

__all__ = [
    "CaptureInvalid",
    "CellConfig",
    "Engine",
    "NetworkCore",
    "RogueCell",
    "RogueCellConfig",
    "RunResult",
    "Scenario",
    "ScenarioInvalid",
    "Sniffer",
    "TrackingReport",
    "Ue",
    "UePhase",
    "UeProfile",
    "diff_tracking",
    "load_scenario",
    "parse_scenario",
    "replay_capture",
    "run",
    "scan_broadcast",
]

__version__ = "0.1.0"
