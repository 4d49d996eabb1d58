"""End-to-end guarantees, one test per shipped claim.

Everything here drives complete runs (or seeded sweeps) through the public
surface: scenario files, the engine, the offline replay path. The conftest
summary prints one PASS/FAIL line per test so a broken guarantee is readable
straight off the terminal.
"""

import hashlib
import json
import random
import time
from collections import defaultdict

import pytest

from tests.conftest import SCENARIO_DIR
from tests.scenario_builders import benign_day_scenario, walk_scenario
from tests.test_core import build as build_core, run_ladder as drive_core_ladder
from tests.test_ue import attach_to_reject_point, fresh

from ltesim import codec
from ltesim.codec import (
    AttachAccept,
    AttachReject,
    AttachRequest,
    AuthenticationRequest,
    AuthenticationResponse,
    Direction,
    EmmCause,
    FrameHeader,
    IdentityKind,
    IdentityRequest,
    IdentityResponse,
    MacRar,
    MeasurementReport,
    Mib,
    MobilityControlInfo,
    Paging,
    RachPreamble,
    RrcConnectionReconfiguration,
    RrcConnectionReconfigurationComplete,
    RrcConnectionRequest,
    RrcConnectionSetup,
    SecurityModeCommand,
    SecurityModeComplete,
    Sib1,
    TauReject,
    TauRequest,
    UserData,
)
from ltesim.core import InvariantViolation
from ltesim.crypto_stub import derive_keystream_seed
from ltesim.engine import diff_tracking, replay_capture, run
from ltesim.identity import Plmn, parse_imsi
from ltesim.scenario import load_scenario, parse_scenario
from ltesim.ue import T3245_MAX_MS, T3245_MIN_MS, UePhase

DATA = SCENARIO_DIR.parent / "tests" / "data"

SETTLED = (UePhase.REGISTERED, UePhase.CAMPED_IDLE)


def run_file(name, mutate=None):
    doc = json.loads((SCENARIO_DIR / name).read_text())
    if mutate:
        mutate(doc)
    return run(parse_scenario(doc))


def records(result):
    return [json.loads(line) for line in result.capture_lines]


def cleartext_imsi_uplinks(recs):
    """Times of uplink frames that carry the permanent identity in the open."""
    hits = defaultdict(list)
    for rec in recs:
        if rec.get("dir") != "ul" or rec.get("prot") != "clear":
            continue
        ident = rec.get("body", {}).get("identity")
        if isinstance(ident, dict) and ident.get("kind") == "imsi":
            hits[ident["value"]].append(rec["t"])
    return hits


# -- 1: wire format ------------------------------------------------------------

def _imsi(r):
    return parse_imsi("".join(r.choice("0123456789") for _ in range(15)), r.choice((2, 3)))


def _digits(r, n):
    return "".join(r.choice("0123456789") for _ in range(n))


# One constructor per message type, several with both identity variants.
_MAKERS = (
    lambda r: Mib(r.choice(codec.MIB_BANDWIDTHS), r.randrange(1024)),
    lambda r: Sib1(
        Plmn("310", r.choice(("26", "026", "260"))),
        r.randrange(1 << 16),
        r.randrange(1 << 28),
        r.randint(-128, 127),
        tuple((r.randrange(1 << 16), r.randrange(8)) for _ in range(r.randrange(4))),
    ),
    lambda r: RachPreamble(r.randrange(64)),
    lambda r: MacRar(r.randint(1, 0xFFF3), r.randrange(2048), r.randrange(1 << 20)),
    lambda r: RrcConnectionRequest(tmsi=r.randrange(1 << 32)),
    lambda r: RrcConnectionRequest(random_id=r.randrange(1 << 40)),
    lambda r: RrcConnectionSetup(),
    lambda r: AttachRequest(imsi=_imsi(r)),
    lambda r: AttachRequest(tmsi=r.randrange(1 << 32)),
    lambda r: IdentityRequest(r.choice(list(IdentityKind))),
    lambda r: IdentityResponse(imsi=_imsi(r)),
    lambda r: IdentityResponse(imei=_digits(r, 15)),
    lambda r: AuthenticationRequest(r.randbytes(16), r.randbytes(16)),
    lambda r: AuthenticationResponse(r.randbytes(8)),
    lambda r: SecurityModeCommand(r.randrange(1, 1 << 32)),
    lambda r: SecurityModeComplete(),
    lambda r: AttachAccept(r.randrange(1 << 32), r.randrange(1 << 16)),
    lambda r: AttachReject(r.choice(list(EmmCause))),
    lambda r: TauRequest(r.randrange(1 << 32), r.randrange(1 << 16)),
    lambda r: TauReject(r.choice(list(EmmCause))),
    lambda r: Paging(imsi=_imsi(r)),
    lambda r: Paging(tmsi=r.randrange(1 << 32)),
    lambda r: MeasurementReport(
        tuple((r.randrange(1 << 28), r.randint(-128, 127)) for _ in range(r.randrange(6)))
    ),
    lambda r: RrcConnectionReconfiguration(),
    lambda r: RrcConnectionReconfiguration(
        MobilityControlInfo(r.randrange(1 << 28), r.randint(1, 0xFFF3))
    ),
    lambda r: RrcConnectionReconfigurationComplete(),
    lambda r: UserData(r.randrange(1 << 16)),
)


def test_c01_codec_round_trip_throughput():
    rng = random.Random(0xC0DEC)
    keys = {kid: derive_keystream_seed(b"throughput-check", kid) for kid in (1, 2, 3, 4)}
    started = time.monotonic()
    for i in range(10_000):
        msg = rng.choice(_MAKERS)(rng)
        key_id = rng.choice((1, 2, 3, 4)) if i % 8 == 0 else None
        header = FrameHeader(
            rng.randrange(1 << 48),
            rng.randrange(1 << 28),
            rng.randrange(0xFFF4),
            rng.choice(list(Direction)),
            key_id=key_id,
        )
        got_header, got_msg = codec.decode(codec.encode(header, msg, keys), keys)
        assert got_header == header
        assert got_msg == msg
    assert time.monotonic() - started < 5.0


# -- 2: attach ladder ----------------------------------------------------------

def test_c02_attach_ladder_transcript():
    result = run_file("attach_single.json")
    lines = [l for l in result.capture_lines if json.loads(l)["type"] not in ("mib", "sib1")]
    golden = (DATA / "attach_ladder.golden").read_text().splitlines()
    assert lines == golden

    session = [json.loads(l) for l in lines]
    names = [r["type"] for r in session]
    attach_at = names.index("attach_request")
    assert all(r["prot"] == "clear" for r in session[: attach_at + 1])
    secured_at = names.index("security_mode_complete")
    tail = session[secured_at + 1 :]
    assert tail, "session must continue past the security handshake"
    assert all(r["prot"] == "protected" for r in tail)


# -- 3: identity harvest -------------------------------------------------------

def test_c03_imsi_catcher_collects_all():
    started = time.monotonic()
    result = run_file("imsi_catcher.json")
    wall = time.monotonic() - started

    expected = {str(spec.imsi) for spec in result.scenario.ues}
    assert len(expected) == 3
    log = result.rogue.catcher_log
    assert len(log) == 3
    assert {entry.imsi for entry in log} == expected

    legit = result.scenario.cells[0].cell_id
    for ue in result.ues.values():
        caught_at = next(e.t_ms for e in log if e.imsi == str(ue.profile.imsi))
        assert ue.phase in SETTLED and ue.serving_cell == legit
        assert ue.tmsi is not None
        back = min(t for t, cell, _ in ue.stats.rnti_history if cell == legit and t >= caught_at)
        assert back - caught_at <= 5_000
    assert wall < 10.0


# -- 4: blocking reject --------------------------------------------------------

def test_c04_reject_block_and_reset():
    # Each drive pulls its long-timer deadline through the real reject path.
    deadlines = []
    for seed in range(1_000):
        ue, drv = fresh(rng_seed=seed)
        attach_to_reject_point(ue, drv)
        drv.dl(AttachReject(EmmCause.PLMN_NOT_ALLOWED))
        assert ue.phase is UePhase.BLOCKED
        _, deadline = ue.forbidden_plmns[0]  # reject landed at t=0
        deadlines.append(deadline)
    assert all(T3245_MIN_MS <= d <= T3245_MAX_MS for d in deadlines)
    midpoint = (T3245_MIN_MS + T3245_MAX_MS) // 2
    assert any(d < midpoint for d in deadlines)
    assert any(d >= midpoint for d in deadlines)

    result = run_file("reject_dos.json")
    victim = result.ues["victim"]
    toggle_at = result.scenario.toggles[0].t_ms
    attempts = [t for t, _, _ in victim.stats.attach_attempts]
    blocked_at = max(t for t in attempts if t < toggle_at)
    assert not [t for t in attempts if blocked_at < t < toggle_at]
    revived = [t for t in attempts if t >= toggle_at]
    assert revived and revived[0] - toggle_at <= 5_000
    assert victim.phase in SETTLED and victim.serving_cell == 10
    assert victim.tmsi is not None

    hardened = result.ues["hardened"]
    assert hardened.stats.rejects_ignored >= 1
    assert hardened.phase in SETTLED and hardened.serving_cell == 10


# -- 5: downgrade --------------------------------------------------------------

def test_c05_downgrade_to_gsm():
    with_gsm = run_file("downgrade.json")
    victim = with_gsm.ues["victim"]
    assert victim.phase is UePhase.GSM_ONLY
    assert victim.gsm_attached and victim.serving_cell == 900

    def strip_gsm(doc):
        doc["cells"] = [c for c in doc["cells"] if c.get("rat", "lte") != "gsm"]

    stranded = run_file("downgrade.json", mutate=strip_gsm).ues["victim"]
    assert stranded.phase is UePhase.SEARCHING
    assert not stranded.gsm_attached
    # Both ladder starts predate the reject; nothing after it.
    attempts = [t for t, _, _ in stranded.stats.attach_attempts]
    assert len(attempts) == 2
    assert max(attempts) < 6_000


# -- 6: pinned handover trail ----------------------------------------------------

def test_c06_handover_trajectory_pinned():
    result = run_file("handover_tracking.json")
    trail = [
        r
        for r in records(result)
        if r["type"] == "rrc_connection_reconfiguration"
        or (r["type"] == "mac_rar" and r["cell"] == 50)
    ]
    assert [r["type"] for r in trail] == [
        "rrc_connection_reconfiguration",
        "mac_rar",
        "rrc_connection_reconfiguration",
    ]
    trigger, rar, rekey = trail
    assert trigger["prot"] == "clear"
    assert (trigger["cell"], trigger["rnti"]) == (60, 99)
    assert trigger["body"]["mobility"] == {"new_rnti": 0x2A60, "target_cell_id": 50}
    assert rar["body"]["temp_rnti"] == 112
    assert (rekey["cell"], rekey["rnti"]) == (50, 112)
    assert rekey["body"]["mobility"]["new_rnti"] == 10848

    assert result.ground_truth["trajectories"]["walker"] == [[60, 99], [50, 10848]]
    sessions = result.report.as_json()["sessions"]
    assert [s["trajectory"] for s in sessions] == [[[60, 99], [50, 10848]]]


# -- 7: continuity and its mitigations -------------------------------------------

def test_c07_tracking_continuity_and_mitigations():
    clear_scores = []
    for seed in range(10):
        clear = run(parse_scenario(walk_scenario(seed)))
        truth = clear.ground_truth
        assert truth["handovers_completed"]["walker"] >= 20
        clear_scores.append(diff_tracking(truth, clear.report.as_json())["mean_continuity"])

        encrypted = run(parse_scenario(walk_scenario(seed, encrypt=True)))
        report = encrypted.report.as_json()
        # No observed chain leaves its first cell.
        assert max(len(s["trajectory"]) for s in report["sessions"]) == 1
        hops = len(encrypted.ground_truth["trajectories"]["walker"])
        score = diff_tracking(encrypted.ground_truth, report)["mean_continuity"]
        assert score == pytest.approx(1 / hops)

        refreshed = run(parse_scenario(walk_scenario(seed, refresh=True)))
        assert refreshed.ground_truth["idle_transitions"]["walker"] >= 5
        assert len(refreshed.report.as_json()["sessions"]) >= 6
    assert sum(clear_scores) / len(clear_scores) == 1.0


# -- 8: benign hygiene -----------------------------------------------------------

def test_c08_benign_run_identity_hygiene():
    result = run(parse_scenario(benign_day_scenario()))
    recs = records(result)
    leak_times = cleartext_imsi_uplinks(recs)

    restarts = defaultdict(list)
    for toggle in result.scenario.toggles:
        restarts[toggle.ue].append(toggle.t_ms)
    for spec in result.scenario.ues:
        bounds = [0] + sorted(restarts[spec.name]) + [result.scenario.duration_ms + 1]
        times = leak_times.get(str(spec.imsi), [])
        for lo, hi in zip(bounds, bounds[1:]):
            assert sum(1 for t in times if lo <= t < hi) <= 1

    pages = [r for r in recs if r.get("type") == "paging"]
    assert pages
    assert all(r["body"]["identity"]["kind"] == "tmsi" for r in pages)


# -- 9: determinism --------------------------------------------------------------

def test_c09_replay_and_determinism():
    first = run_file("handover_tracking.json")
    second = run_file("handover_tracking.json")
    assert len(first.capture_lines) > 100
    digest = hashlib.sha256(first.capture_text().encode()).hexdigest()
    assert hashlib.sha256(second.capture_text().encode()).hexdigest() == digest

    replayed = replay_capture(first.capture_lines)
    assert replayed.as_json() == first.report.as_json()


# -- 10: radio id uniqueness ------------------------------------------------------

def test_c10_rnti_unique_per_tick():
    # The detector is live, not vacuous: a planted duplicate trips it.
    core = build_core()
    rnti, _, _ = drive_core_ladder(core)
    core.active[(10, rnti)].rnti = rnti + 1
    with pytest.raises(InvariantViolation):
        core.check_invariants()

    # Every shipped scenario completes under the core's write-time checks
    # (NetworkCore._activate and _release, which guard every write that could
    # break uniqueness) and the engine's one full sweep after the last tick.
    # Either raises out of run() on the first violation, so finishing is the
    # proof. tests/test_engine.py::test_the_full_sweep_holds_after_every_tick
    # still sweeps after every tick.
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        run(load_scenario(str(path)))
    run(parse_scenario(benign_day_scenario()))
