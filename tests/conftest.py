import pathlib

from hypothesis import settings

# The same examples on every run: each @given test draws from a seed fixed
# by its own code, and keeps its own max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

# One line per end-to-end criterion in the terminal summary, so a failed
# run says which guarantees broke without digging through the traceback.
ACCEPTANCE_LABELS = {
    "test_c01_codec_round_trip_throughput": "codec round-trips 10k frames in bound time",
    "test_c02_attach_ladder_transcript": "attach ladder matches the frozen transcript",
    "test_c03_imsi_catcher_collects_all": "rogue cell collects every identity, devices recover",
    "test_c04_reject_block_and_reset": "reject block halts attach until airplane reset",
    "test_c05_downgrade_to_gsm": "downgrade strands the device on the legacy network",
    "test_c06_handover_trajectory_pinned": "handover walk reproduces the pinned id trail",
    "test_c07_tracking_continuity_and_mitigations": "tracking continuity drops under each defense",
    "test_c08_benign_run_identity_hygiene": "benign run keeps the permanent identity off the air",
    "test_c09_replay_and_determinism": "capture replay and reseeding are deterministic",
    "test_c10_rnti_unique_per_tick": "radio ids stay unique per cell, checked at every write",
}


def pytest_terminal_summary(terminalreporter):
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = rep.location[2].split("[")[0]
            if name in ACCEPTANCE_LABELS:
                ok = seen.get(name, True) and outcome == "passed"
                seen[name] = ok
    if not seen:
        return
    terminalreporter.section("acceptance")
    for name, label in ACCEPTANCE_LABELS.items():
        if name not in seen:
            continue
        verdict = "PASS" if seen[name] else "FAIL"
        terminalreporter.write_line(f"{verdict}  {label}")
