"""Command line front end.

    ltesim run scenario.json [--seed N] [--capture PATH] [--report PATH]
                             [--ground-truth PATH] [--quiet]
    ltesim scan capture.jsonl
    ltesim replay capture.jsonl [--report PATH]
    ltesim diff ground_truth.json report.json

Exit codes: 0 success, 1 scan found no broadcast to impersonate, 2 an
input file (scenario, capture, ground truth or report) that is missing,
unreadable or malformed, a `--seed` outside a scenario seed's 0..2**63-1,
or `run --report` on a scenario whose sniffer is off, 3 a run tripped an
internal consistency check, 4 an output path (`--capture`, `--report`,
`--ground-truth`) that cannot be written.
Output files are opened before a run or replay starts, so an unwritable
path fails at once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .attacker import NoBroadcastFound, scan_broadcast
from .codec import CaptureInvalid
from .codec import InvariantViolation as CodecInvariantViolation
from .core import InvariantViolation as CoreInvariantViolation
from .engine import diff_tracking, parse_capture_line, replay_capture, run
from .scenario import MAX_SEED, ScenarioInvalid, load_scenario
from .ue import IllegalTransition

# The wire layer, the session table and each device police their own
# invariants; any one tripping mid-run is the same outcome for the operator.
INVARIANT_ERRORS = (CodecInvariantViolation, CoreInvariantViolation, IllegalTransition)


class OutputUnwritable(Exception):
    """An output path that cannot be opened for writing."""


def _create(path: Optional[str]):
    """An output file, opened before any work starts so that an unwritable
    path fails at once, but not emptied until `_write` replaces its
    contents: a failed run leaves an old file as it was, and `replay
    x --report x` still reads x first. A do-nothing context when the flag
    is absent."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror}") from None


def _write(fh, text: str) -> None:
    fh.write(text)
    fh.truncate()


def _write_json(fh, obj: dict) -> None:
    _write(fh, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) <= MAX_SEED):
        raise argparse.ArgumentTypeError(f"expected an integer in 0..{MAX_SEED}, got {text!r}")
    return int(text)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioInvalid as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.report and not scenario.sniffer_enabled:
        print(f'scenario error: {args.scenario}: "sniffer" is off, so --report has nothing to write', file=sys.stderr)
        return 2
    with _create(args.capture) as capture, _create(args.report) as report, _create(args.ground_truth) as truth:
        try:
            result = run(scenario, seed=args.seed)
        except INVARIANT_ERRORS as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return 3
        if capture:
            _write(capture, result.capture_text())
        if report:
            _write_json(report, result.report.as_json())
        if truth:
            _write_json(truth, result.ground_truth)

    if not args.quiet:
        print(f"{scenario.name}: seed {result.seed}, {result.duration_ms} ms")
        print("capture:", result.capture_text().count("\n"), "lines")
        if result.report is not None:
            rep = result.report
            print(
                f"observer: {len(rep.sessions)} sessions, "
                f"{rep.total_frames} frames, {rep.undecodable} undecodable"
            )
        core = result.core
        drops = ", ".join(f"{reason}: {n}" for reason, n in sorted(core.drops.items()))
        print(f"  core: drops {{{drops}}}, handovers {core.handovers_completed}, idles {core.idle_transitions}")
        for name, ue in result.ues.items():
            stats = ue.stats
            print(
                f"  {name}: {ue.phase.value}, attach attempts {len(stats.attach_attempts)}, "
                f"handovers {stats.handovers_completed}, idles {stats.idle_transitions}"
            )
        if result.rogue is not None:
            caught = len(result.rogue.catcher_log)
            rejects = sum(result.rogue.rejects_sent.values())
            print(f"  rogue: {caught} identities caught, {rejects} rejects sent")
    return 0


def _open(path: str):
    """An input file, opened as bytes; one that cannot be opened is unusable input."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CaptureInvalid(f"cannot read {path}: {exc.strerror}") from None


def _read_capture(path: str) -> list[dict]:
    # Read as bytes, so a line of bad UTF-8 is reported with its number like
    # any other unreadable line; a blank line reads as {}, so record n is line n.
    with _open(path) as fh:
        return [parse_capture_line(n, line) or {} for n, line in enumerate(fh, 1)]


def _read_json(path: str):
    with _open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CaptureInvalid(f"{path}: {exc}") from None


def _cmd_scan(args: argparse.Namespace) -> int:
    records = _read_capture(args.capture)
    try:
        ranked, draft = scan_broadcast(records)
    except NoBroadcastFound as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return 1
    for cell in ranked:
        print(
            f"cell {cell.cell_id}: plmn {cell.plmn}, tac {cell.tac}, "
            f"best rx {cell.best_rx_dbm:.1f} dBm, {cell.sightings} sightings"
        )
    print(json.dumps(draft.as_json(), indent=2, sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with _open(args.capture) as fh, _create(args.report) as out:  # bytes, as in _read_capture
        obj = replay_capture(fh).as_json()
        if out:
            _write_json(out, obj)
        else:
            print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    truth, report = _read_json(args.ground_truth), _read_json(args.report)
    print(json.dumps(diff_tracking(truth, report), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltesim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    p_run.add_argument("--capture", help="write the air capture (json lines)")
    p_run.add_argument("--report", help="write the observer's tracking report")
    p_run.add_argument("--ground-truth", help="write the simulator's ground truth")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="rank broadcasts in a capture and draft a spoof")
    p_scan.add_argument("capture")
    p_scan.set_defaults(func=_cmd_scan)

    p_replay = sub.add_parser("replay", help="rebuild the tracking report from a capture")
    p_replay.add_argument("capture")
    p_replay.add_argument("--report", help="write the report instead of printing it")
    p_replay.set_defaults(func=_cmd_replay)

    p_diff = sub.add_parser("diff", help="score a tracking report against ground truth")
    p_diff.add_argument("ground_truth")
    p_diff.add_argument("report")
    p_diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CaptureInvalid as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return 2
    except OutputUnwritable as exc:
        print(exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
