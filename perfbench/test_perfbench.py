"""The benchmark's own checks: deterministic inputs, tracing that leaves
captures untouched, and a result line that names every declared metric.

The workloads are shrunk here (fewer devices, shorter walks) so the
checks stay quick; the code paths are the ones a full run takes.
"""

import io
import json
import pathlib
import random
import signal
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import run, spans, workloads
from perfbench.clock import Clock

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ltesim  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Tiny workloads, one repetition, and the already-loaded ltesim
    (a fresh import would hand other test modules a second copy)."""
    monkeypatch.setattr(workloads, "WALK_LEGS", (1, 4))
    monkeypatch.setattr(workloads, "CROWD_SIZES", (2, 8))
    monkeypatch.setattr(workloads, "ATTACK_SEEDS_PER_UNIT", 1)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "import_ltesim", lambda: ltesim)


def declared(key):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[key]]


@pytest.mark.parametrize(
    "make",
    [
        workloads.walk_jobs,
        workloads.crowd_jobs,
        lambda seed: workloads.attack_jobs(seed, ROOT),
        lambda seed: workloads.replay_sources(seed, ROOT),
    ],
)
def test_generators_are_deterministic_per_seed(make):
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert [j.seed for j in first] != [j.seed for j in other]
    assert {j.size for j in first} <= {"small", "large"}
    for job in first:
        ltesim.parse_scenario(job.doc)


def test_traced_captures_equal_untraced():
    docs = [
        (workloads.walk_scenario(3, legs=2), 3),
        (workloads.crowd_scenario(6, seed=3), 3),
    ]
    docs += [(doc, 3) for _, doc in workloads.shipped_scenarios(ROOT)]
    plain = [ltesim.run(ltesim.parse_scenario(doc), seed).capture_text() for doc, seed in docs]
    tracer = spans.Tracer()
    with spans.install(tracer, ltesim):
        traced = [ltesim.run(ltesim.parse_scenario(doc), seed).capture_text() for doc, seed in docs]
    assert traced == plain
    assert tracer.get("engine.run").calls == len(docs)
    for name in ("attacker.handle_uplink", "identity.rnti_in_use", "radio.rx_power", "sniffer.observe"):
        assert tracer.get(name).calls > 0, name
    # The wrappers came off again.
    assert ltesim.codec.encode.__module__ == "ltesim.codec"
    assert isinstance(ltesim.identity.RntiAllocator(random.Random(0)).in_use, frozenset)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    out, inn = tracer.get("outer"), tracer.get("inner")
    assert inn.calls == 2
    assert out.self_s == pytest.approx(out.total_s - inn.total_s)


def test_clock_puts_the_alarm_back():
    before = signal.getsignal(signal.SIGALRM)
    result, seconds = Clock().time(lambda: sum(range(300_000)))
    assert result == sum(range(300_000)) and seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_measured(small, workload):
    _, metrics, tally, _, _ = run.measure(workload, 5, 0)
    assert list(metrics) == declared("end_to_end")
    assert all(v > 0 for v in metrics.values()), metrics
    _, traced, tally_traced, _, _ = run.measure_traced(workload, 5, 0)
    assert sorted(traced) == sorted(declared("per_layer"))
    for t in (tally, tally_traced):
        assert t.attempted > 0 and t.failed == 0 and not t.problems, (t.reasons, t.problems)


def test_result_line(small):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "walk", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared("end_to_end")
    assert f"combined digest {run.COMBINED_DIGEST}" in out.getvalue()


def test_exits_nonzero_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "walk", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
