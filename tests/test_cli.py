"""Command line front end, driven through main()."""

import json

import pytest

from ltesim import cli
from ltesim.cli import main
from ltesim.engine import CHUNK_LINES, replay_capture, run
from ltesim.scenario import load_scenario

from tests.conftest import SCENARIO_DIR

ATTACH = str(SCENARIO_DIR / "attach_single.json")
CATCHER = str(SCENARIO_DIR / "imsi_catcher.json")
NO_SNIFFER = str(SCENARIO_DIR / "downgrade.json")


def test_run_writes_all_outputs(tmp_path, capsys):
    capture = tmp_path / "air.jsonl"
    report = tmp_path / "report.json"
    truth = tmp_path / "truth.json"
    rc = main(
        [
            "run",
            ATTACH,
            "--capture",
            str(capture),
            "--report",
            str(report),
            "--ground-truth",
            str(truth),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "capture:" in out and "anna" in out
    assert capture.read_text().strip()
    assert "sessions" in json.loads(report.read_text())
    assert "trajectories" in json.loads(truth.read_text())


def test_run_counts_the_capture_lines_it_writes(capsys):
    assert main(["run", CATCHER]) == 0
    lines = run(load_scenario(CATCHER)).capture_lines
    assert f"capture: {len(lines)} lines\n" in capsys.readouterr().out
    assert len(lines) > CHUNK_LINES  # so the run holds more than one chunk


def test_run_quiet_says_nothing(capsys):
    assert main(["run", ATTACH, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_seed_override(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", ATTACH, "--capture", str(a), "--seed", "1"])
    main(["run", ATTACH, "--capture", str(b), "--seed", "2"])
    assert a.read_text() != b.read_text()


@pytest.mark.parametrize("seed", ["-7", "99999999999999999999999", "9223372036854775808", "x", "\u0667"])
def test_run_refuses_a_seed_out_of_range(seed, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", ATTACH, "--seed", seed])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_run_takes_the_largest_seed(tmp_path):
    truth = tmp_path / "truth.json"
    assert main(["run", ATTACH, "--quiet", "--seed", "9223372036854775807", "--ground-truth", str(truth)]) == 0
    assert json.loads(truth.read_text())["seed"] == 2**63 - 1


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", str(bad)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_run_reports_invariant_violation(monkeypatch, capsys):
    from ltesim import cli
    from ltesim.core import InvariantViolation

    def tripped(scenario, seed=None):
        raise InvariantViolation("two sessions share a radio id")

    monkeypatch.setattr(cli, "run", tripped)
    assert cli.main(["run", ATTACH]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_run_reports_a_device_invariant_violation(monkeypatch, capsys):
    from ltesim import cli
    from ltesim.ue import IllegalTransition, Ue

    def tripped(self):
        raise IllegalTransition("rnti held in phase searching")

    monkeypatch.setattr(Ue, "_check_local_invariants", tripped)
    assert cli.main(["run", ATTACH]) == 3
    assert "invariant violation: rnti held" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda doc: doc["cells"][0].update(encrypt_handover_triger=True), "cells[0].encrypt_handover_triger"),
        (lambda doc: doc["cells"][0].update(priority_earfcns=[[1850, 7]] * 300), "cells[0].priority_earfcns"),
        (
            lambda doc: doc["cells"][0].update(priority_earfcns=[[1850, 5], [1850, 6]]),
            "cells[0].priority_earfcns[1]: earfcn 1850 already has priority 5",
        ),
    ],
)
def test_run_refuses_a_scenario_it_would_misread(tmp_path, capsys, edit, path):
    doc = json.loads(open(ATTACH).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad)]) == 2
    assert f"scenario error: {path}" in capsys.readouterr().err


def test_run_refuses_a_key_repeated_in_one_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(open(ATTACH).read().replace('"tac": 100,', '"tac": 100, "tac": 7,', 1))
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("scenario error: repeated key 'tac'")


@pytest.mark.parametrize("tmsi", ["\u0661\u0662", " 12 ", "1_2", "+12", "-0"], ids=repr)
def test_run_refuses_an_initial_tmsi_that_is_not_ascii_hex(tmp_path, capsys, tmsi):
    doc = json.loads(open(ATTACH).read())
    doc["ues"][0]["initial_tmsi"] = tmsi
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("scenario error: ues[0].initial_tmsi: expected 1 to 8 ASCII hex digits")


@pytest.mark.parametrize("key", [" 00 11\n22 ", "00", "0" * 10_000], ids=["spaced", "one-byte", "10000-digits"])
def test_run_refuses_a_key_that_is_not_32_hex_digits(tmp_path, capsys, key):
    doc = json.loads(open(ATTACH).read())
    doc["ues"][0]["key"] = key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ues[0].key: expected 32 hex digits, got ")
    assert len(err) < 120  # a long key is cut short, not echoed whole


def test_run_summary_counts_the_rogue(capsys):
    result = run(load_scenario(CATCHER))
    caught, rejects = len(result.rogue.catcher_log), sum(result.rogue.rejects_sent.values())
    assert caught > 0 and rejects > 0
    assert main(["run", CATCHER]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"  rogue: {caught} identities caught, {rejects} rejects sent"


def test_run_summary_counts_the_core_before_the_devices(monkeypatch, capsys):
    """The core's drops by reason, sorted, its handovers and its idles, on
    the line before the first device's."""
    result = run(load_scenario(CATCHER))
    handovers, idles = result.core.handovers_completed, result.core.idle_transitions
    assert result.core.drops == {} and idles > 0
    first = f"  {next(iter(result.ues))}: "

    def dropping(scenario, seed=None):
        out = run(scenario, seed)
        out.core.drops.update({"no_session": 2, "cell_full": 1})
        return out

    for drops in ("{}", "{cell_full: 1, no_session: 2}"):
        assert main(["run", CATCHER]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(first))
        assert lines[at - 1] == f"  core: drops {drops}, handovers {handovers}, idles {idles}"
        monkeypatch.setattr(cli, "run", dropping)


def test_scan_pipeline(tmp_path, capsys):
    capture = tmp_path / "air.jsonl"
    main(["run", ATTACH, "--capture", str(capture), "--quiet"])
    assert main(["scan", str(capture)]) == 0
    out = capsys.readouterr().out
    assert "cell 10" in out
    draft = json.loads(out[out.index("{") :])
    assert draft["mimics_cell"] == 10
    assert draft["tac"] == 101


def test_scan_fails_on_empty_capture(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["scan", str(empty)]) == 1
    assert "scan failed" in capsys.readouterr().err


def test_replay_then_diff(tmp_path, capsys):
    capture = tmp_path / "air.jsonl"
    live_report = tmp_path / "live.json"
    truth = tmp_path / "truth.json"
    replayed = tmp_path / "replayed.json"
    main(
        [
            "run",
            CATCHER,
            "--capture",
            str(capture),
            "--report",
            str(live_report),
            "--ground-truth",
            str(truth),
            "--quiet",
        ]
    )
    assert main(["replay", str(capture), "--report", str(replayed)]) == 0
    assert json.loads(replayed.read_text()) == json.loads(live_report.read_text())
    capsys.readouterr()
    assert main(["diff", str(truth), str(replayed)]) == 0
    scored = json.loads(capsys.readouterr().out)
    assert set(scored) == {"mean_continuity", "per_ue"}


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_replay_prints_the_report_replay_capture_gives(tmp_path, capsys, path, ending):
    lines = run(load_scenario(path)).capture_lines
    capture = tmp_path / "air.jsonl"
    capture.write_bytes("".join(line + ending for line in lines).encode())
    assert main(["replay", str(capture)]) == 0
    assert capsys.readouterr().out == json.dumps(replay_capture(lines).as_json(), indent=2, sort_keys=True) + "\n"


def _catcher_capture(tmp_path):
    capture = tmp_path / "air.jsonl"
    main(["run", CATCHER, "--capture", str(capture), "--quiet"])
    return capture.read_text().splitlines()


def _edit(line, **changes):
    obj = json.loads(line)
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None})


@pytest.mark.parametrize(
    "bad_line",
    [
        lambda line: line[:20],  # truncated
        lambda line: _edit(line, dir=None),  # missing key
        lambda line: "[1, 2]",  # not an object
        lambda line: _edit(line, type="nope"),  # unknown message type
        lambda line: _edit(line, t=2**80),  # timestamp beyond the header
        lambda line: _edit(line, t="5"),  # string where an integer belongs
        lambda line: _edit(line, dir="sideways"),
        lambda line: _edit(line, body=[]),
        lambda line: _edit(line, prot="protected", key_id=1, len=10**12),  # filler too long
    ],
)
def test_replay_reports_a_malformed_line(tmp_path, capsys, bad_line):
    lines = _catcher_capture(tmp_path)
    frame = next(i for i, line in enumerate(lines) if '"meta"' not in line)
    # The first frame is a broadcast; replay remembers its body, so the
    # same edit must also be refused on a later line that repeats it.
    first = _broadcast(lines[frame])
    assert first
    repeat = next(i for i in range(frame + 1, len(lines)) if _broadcast(lines[i]) == first)
    for target in (frame, repeat):
        edited = list(lines)
        edited[target] = bad_line(lines[target])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(edited) + "\n")
        assert main(["replay", str(bad)]) == 2
        assert f"line {target + 1}:" in capsys.readouterr().err


def _broadcast(line):
    obj = json.loads(line)
    return obj.get("rnti") == 0 and obj.get("prot") == "clear" and (obj["type"], obj["body"])


@pytest.mark.parametrize(
    "kind, changes",
    [
        ("attach_request", {"len": 999, "rx": "x"}),  # both wrong: len is checked too
        ("attach_request", {"len": 999}),  # not the re-encoded body length
        ("attach_request", {"len": "13"}),
        ("attach_request", {"rx": "x"}),
        ("attach_request", {"rx": float("-inf")}),
        ("opaque", {"rx": float("nan")}),
        ("opaque", {"rx": True}),
        ("opaque", {"rx": None}),  # missing
    ],
)
def test_replay_checks_len_and_rx(tmp_path, capsys, kind, changes):
    lines = _catcher_capture(tmp_path)
    target = next(i for i, line in enumerate(lines) if f'"type":"{kind}"' in line)
    lines[target] = _edit(lines[target], **changes)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(bad)]) == 2
    assert f"line {target + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "scan", "replay", "diff"])
@pytest.mark.parametrize("missing", ["nothere.json", "."])  # absent; a directory
def test_unreadable_input_is_named(tmp_path, capsys, command, missing):
    path = str(tmp_path / missing)
    args = [command, path] if command != "diff" else [command, path, path]
    assert main(args) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["run", ATTACH, "--capture"],
        ["run", ATTACH, "--report"],
        ["run", ATTACH, "--ground-truth"],
        ["replay", ATTACH, "--report"],  # refused before the capture is read
    ],
    ids=["run-capture", "run-report", "run-ground-truth", "replay-report"],
)
def test_unwritable_output_fails_before_any_work(monkeypatch, tmp_path, capsys, args):
    from ltesim import cli

    def never(*_args, **_kwargs):
        raise AssertionError("the run or replay started")

    monkeypatch.setattr(cli, "run", never)
    monkeypatch.setattr(cli, "replay_capture", never)
    path = str(tmp_path / "no" / "such" / "dir" / "out.json")
    assert cli.main([*args, path]) == 4
    assert f"cannot write {path}: " in capsys.readouterr().err


def test_report_without_a_sniffer_is_refused_before_any_output(monkeypatch, tmp_path, capsys):
    from ltesim import cli

    def never(*_args, **_kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", never)
    capture, report = tmp_path / "air.jsonl", tmp_path / "report.json"
    assert cli.main(["run", NO_SNIFFER, "--capture", str(capture), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("scenario error: ")
    assert not capture.exists() and not report.exists()


def test_outputs_are_replaced_only_once_written(monkeypatch, tmp_path):
    from ltesim import cli
    from ltesim.core import InvariantViolation

    truth = tmp_path / "truth.json"
    truth.write_text("x" * 100_000)  # longer than what replaces it
    assert main(["run", ATTACH, "--ground-truth", str(truth), "--quiet"]) == 0
    assert "trajectories" in json.loads(truth.read_text())
    capture = tmp_path / "air.jsonl"
    assert main(["run", CATCHER, "--capture", str(capture), "--report", str(truth), "--quiet"]) == 0
    live = json.loads(truth.read_text())
    assert main(["replay", str(capture), "--report", str(capture)]) == 0  # read before it is replaced
    assert json.loads(capture.read_text()) == live

    def tripped(scenario, seed=None):
        raise InvariantViolation("two sessions share a radio id")

    monkeypatch.setattr(cli, "run", tripped)
    assert main(["run", ATTACH, "--report", str(truth)]) == 3
    assert json.loads(truth.read_text()) == live  # a failed run leaves it as it was


def test_diff_names_an_unreadable_report(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text('{"trajectories": {}}')
    assert main(["diff", str(truth), str(tmp_path / "nothere.json")]) == 2
    assert "nothere.json" in capsys.readouterr().err


def test_replay_reports_bad_utf8_and_page_triggers(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n" + b'{"meta": "page_trigger", "t": 5, "msisdn": "\xff"}\n')
    assert main(["replay", str(bad)]) == 2
    assert "line 2:" in capsys.readouterr().err
    bad.write_text('{"meta": "page_trigger", "t": 5, "msisdn": 15550000001}\n')
    assert main(["replay", str(bad)]) == 2
    assert "line 1: t, msisdn" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        {"rx": float("nan")},
        {"rx": "strong"},
        {"body": {"plmn": {"mcc": "310", "mnc": "260"}}},  # fields missing
        {"body": None},
    ],
)
def test_scan_reports_a_malformed_broadcast(tmp_path, capsys, edit):
    lines = _catcher_capture(tmp_path)
    sib1 = next(i for i, line in enumerate(lines) if '"sib1"' in line)
    lines[sib1] = json.dumps(dict(json.loads(lines[sib1]), **edit))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n\n" + "\n".join(lines) + "\n")  # blank lines still count
    assert main(["scan", str(bad)]) == 2
    assert f"line {sib1 + 3}:" in capsys.readouterr().err


def test_scan_reports_an_unreadable_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "mib"}\n{"type": "sib1", "rx"\n')
    assert main(["scan", str(bad)]) == 2
    assert "line 2:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "truth, report",
    [
        ('{"trajectories": ', '{"sessions": []}'),  # truncated
        ('{"trajectories": {"a": 5}}', '{"sessions": []}'),
        ('{"trajectories": {"a": [[10, 1]]}}', '[1]'),
        ('{"trajectories": {"a": [[10, 1]]}}', '{"sessions": [{"trajectory": [[10, 1]]}]}'),
        ('{"trajectories": {"a": [[10, 1]]}}', '{"sessions": [{"session_id": 1, "trajectory": 7}]}'),
        ("[]", '{"sessions": []}'),
        ('{"trajectories": {"a": [[1]]}}', '{"sessions": []}'),  # a hop of one number
        ('{"trajectories": {"a": [[{"x": 1}, 2]]}}', '{"sessions": []}'),  # a hop that is not two ints
        ('{"trajectories": {"a": [[true, 1]]}}', '{"sessions": []}'),  # a bool is not a cell id
        ('{"trajectories": {"a": [[10, 1]]}}', '{"sessions": [{"session_id": 1, "trajectory": [[10, 1, 2]]}]}'),
        ('{"trajectories": {"a": [[10, 1]]}}', '{"sessions": [{"session_id": [1], "trajectory": [[10, 1]]}]}'),
        ('{"trajectories": {"a": [[10, 1]]}}', '{"sessions": [{"session_id": true, "trajectory": [[10, 1]]}]}'),
    ],
)
def test_diff_reports_a_malformed_file(tmp_path, capsys, truth, report):
    (tmp_path / "truth.json").write_text(truth)
    (tmp_path / "report.json").write_text(report)
    assert main(["diff", str(tmp_path / "truth.json"), str(tmp_path / "report.json")]) == 2
    assert "unusable input" in capsys.readouterr().err


def test_too_deeply_nested_json_is_unusable_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["replay", str(deep)]) == 2
    assert main(["diff", str(deep), str(deep)]) == 2
    assert main(["run", str(deep)]) == 2
    assert "Traceback" not in capsys.readouterr().err
