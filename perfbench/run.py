"""Host-time benchmark for ltesim.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0

Runs one workload (walk, crowd, replay, attacks) from the checkout this
file sits in, checks its outputs, prints a readable table, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics from untraced runs;
`--trace 1` reports the per-layer metrics from a traced run. README.md
in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import micro, spans, workloads  # noqa: E402
from perfbench.clock import Clock, host_time  # noqa: E402

# ROADMAP output pin: sha256 over the capture text of every shipped
# scenario (sorted by name) and then the benign day, first 16 hex digits.
COMBINED_DIGEST = "94696493eba4a1ae"
SETUP_REPS = 9
MIN_REPS = 3
WORKLOADS = ("walk", "crowd", "replay", "attacks")


class ProgramMissing(RuntimeError):
    pass


def import_ltesim():
    """Import ltesim afresh from this checkout's `src/`, dropping any
    copy already loaded, and return the package."""
    src = ROOT / "src"
    if not (src / "ltesim" / "__init__.py").is_file():
        raise ProgramMissing(f"no ltesim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ltesim" or m.startswith("ltesim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ltesim = importlib.import_module("ltesim")
    if pathlib.Path(ltesim.__file__).resolve().parent != (src / "ltesim").resolve():
        raise ProgramMissing(f"ltesim imported from {ltesim.__file__}, not from {src}")
    return ltesim


def attempt(fn):
    """fn(), or None after printing the traceback if it raised: a run
    that raises is counted as failed, and the benchmark carries on."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def frame_count(lines) -> int:
    return sum(1 for line in lines if not line.startswith('{"meta"'))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def first_quartile(values) -> float:
    """Typical time of repeated work on a shared machine: interference
    only ever slows a repetition down, so the faster repetitions repeat
    best from run to run."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def growth(small_s: float, large_s: float, size_ratio: float) -> float:
    return math.log(large_s / small_s) / math.log(size_ratio)


@dataclass
class Tally:
    """Scenario runs (or replays) attempted and failed, with the first
    few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # whole-run checks that failed

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(why)


# -- one repetition of a workload's unit -----------------------------------------


@dataclass
class Rep:
    """One repetition of a unit, timed by a clock.py timer."""

    seconds: float = 0.0
    small_s: float = 0.0
    large_s: float = 0.0
    outputs: list = field(default_factory=list)  # capture text / report json per job, None if it raised
    results: list = field(default_factory=list)  # RunResult / TrackingReport per job, or None

    def add(self, size: str, seconds: float, result, output) -> None:
        self.seconds += seconds
        if size == "small":
            self.small_s += seconds
        else:
            self.large_s += seconds
        self.results.append(result)
        self.outputs.append(output)


class LiveUnit:
    """walk, crowd, attacks: parse and construct Engines (set-up), then
    time Engine.run on each."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.labels = [j.label for j in jobs]
        self.size_ratio = workloads.GROWTH
        self.sim_s = sum(j.doc["duration_ms"] for j in jobs) / 1000.0
        self.frames = 0

    def setup(self, ltesim, tracer=None):
        engines = []
        for job in self.jobs:
            if tracer is None:
                sc = ltesim.scenario.parse_scenario(job.doc)
            else:
                with tracer.span("scenario.parse_scenario"):
                    sc = ltesim.scenario.parse_scenario(job.doc)
            engines.append(ltesim.engine.Engine(sc, job.seed))
        return engines

    def rep(self, ltesim, state, timer) -> Rep:
        rep = Rep()
        for job, engine in zip(self.jobs, state):
            result, seconds = timer(lambda: attempt(engine.run))
            rep.add(job.size, seconds, result, result and result.capture_text())
        return rep

    def reports(self, rep: Rep) -> list:
        return [r.report for r in rep.results if r is not None and r.report is not None]

    def drops(self, rep: Rep) -> int:
        return sum(sum(r.core.drops.values()) for r in rep.results if r is not None)

    def check_first(self, ltesim, rep: Rep) -> dict[str, str]:
        """Replay each capture of the first repetition; it must land on
        the live tracking report. Returns label -> why for the runs that
        did not."""
        self.frames = 0
        bad = {}
        for job, result in zip(self.jobs, rep.results):
            if result is None:
                continue
            self.frames += frame_count(result.capture_lines)
            if result.report is None:
                continue
            replayed = attempt(lambda: ltesim.engine.replay_capture(result.capture_lines))
            if replayed is None:
                bad[job.label] = "replay raised"
            elif replayed.as_json() != result.report.as_json():
                bad[job.label] = "replay report differs from the live report"
        return bad


class ReplayUnit:
    """replay: captures of walk and attacks made before timing starts;
    set-up loads their lines, the timed part is replay_capture over each
    whole capture and over its first quarter."""

    def __init__(self, sources, ltesim):
        self.captures = []
        self.live_reports = []
        for job in sources:
            result = ltesim.engine.Engine(ltesim.scenario.parse_scenario(job.doc), job.seed).run()
            self.captures.append((job.label, result.capture_text(), job.doc["duration_ms"]))
            self.live_reports.append(result.report.as_json())
        self.labels, self.sizes = [], []
        self.sim_s = 0.0
        self.frames = 0
        full_lines = quarter_lines = 0
        for label, text, duration_ms in self.captures:
            lines = text.splitlines()
            quarter = lines[: len(lines) // 4]
            self.labels += [f"{label}-quarter", label]
            self.sizes += ["small", "large"]
            self.sim_s += (json.loads(quarter[-1])["t"] + duration_ms) / 1000.0
            self.frames += frame_count(quarter) + frame_count(lines)
            full_lines += len(lines)
            quarter_lines += len(quarter)
        self.size_ratio = full_lines / quarter_lines

    def setup(self, ltesim, tracer=None):
        state = []
        for _, text, _ in self.captures:
            lines = text.splitlines()
            state.append(lines[: len(lines) // 4])
            state.append(lines)
        return state

    def rep(self, ltesim, state, timer) -> Rep:
        rep = Rep()
        for size, lines in zip(self.sizes, state):
            report, seconds = timer(lambda: attempt(lambda: ltesim.engine.replay_capture(lines)))
            rep.add(size, seconds, report, report and json.dumps(report.as_json(), sort_keys=True))
        return rep

    def reports(self, rep: Rep) -> list:
        return [r for r in rep.results if r is not None]

    def drops(self, rep: Rep) -> int:
        return 0

    def check_first(self, ltesim, rep: Rep) -> dict[str, str]:
        wholes = rep.results[1::2]
        return {
            label: "replay report differs from the live report"
            for (label, _, _), live, report in zip(self.captures, self.live_reports, wholes)
            if report is not None and report.as_json() != live
        }


def make_unit(name: str, seed: int, ltesim):
    if name == "walk":
        return LiveUnit(workloads.walk_jobs(seed))
    if name == "crowd":
        return LiveUnit(workloads.crowd_jobs(seed))
    if name == "attacks":
        return LiveUnit(workloads.attack_jobs(seed, ROOT))
    return ReplayUnit(workloads.replay_sources(seed, ROOT), ltesim)


def check_rep(unit, rep: Rep, first: Rep, tally: Tally, bad: dict[str, str]) -> None:
    """Every job ran, passed the first repetition's checks (`bad` holds
    the failures) and gave the first repetition's output."""
    for label, out, ref in zip(unit.labels, rep.outputs, first.outputs):
        if out is None:
            tally.fail(f"{label}: raised")
        elif label in bad:
            tally.fail(f"{label}: {bad[label]}")
        elif out != ref:
            tally.fail(f"{label}: output differs between repetitions of one seed")
        else:
            tally.ok()


def combined_digest(ltesim) -> str:
    docs = [doc for _, doc in workloads.shipped_scenarios(ROOT)]
    docs.append(workloads.benign_day_scenario())
    texts = (ltesim.engine.run(ltesim.scenario.parse_scenario(doc)).capture_text() for doc in docs)
    return digest(texts)


# -- trace 0: end-to-end ----------------------------------------------------------


def measure(workload: str, seed: int, seconds: float):
    # Inputs (for replay, the captures) are made before set-up is timed.
    unit = make_unit(workload, seed, import_ltesim())
    clock = Clock()
    setup_samples = []
    for _ in range(SETUP_REPS):
        gc.collect()
        (ltesim, state), setup_s = clock.time(lambda: (lt := import_ltesim(), unit.setup(lt)))
        setup_samples.append(setup_s)

    tally = Tally()
    first = unit.rep(ltesim, state, clock.time)
    reps = [first]
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()  # free the last repetition now, so peak RSS does not hang on GC timing
        rep = unit.rep(ltesim, unit.setup(ltesim), clock.time)
        check_rep(unit, rep, first, tally, {})
        rep.outputs = rep.results = None
        reps.append(rep)
    rss = peak_rss_mb()
    check_rep(unit, first, first, tally, unit.check_first(ltesim, first))

    wall = first_quartile([r.seconds for r in reps])
    metrics = {
        "setup_s": first_quartile(setup_samples),
        "wall_s": wall,
        "frames_per_s": unit.frames / wall,
        "sim_s_per_wall_s": unit.sim_s / wall,
        "peak_rss_mb": rss,
        "cost_growth": growth(
            first_quartile([r.small_s for r in reps]), first_quartile([r.large_s for r in reps]), unit.size_ratio
        ),
    }
    notes = [f"repetitions {len(reps)}, machine speed {clock.speed():.3f} of nominal"]
    return ltesim, metrics, tally, notes, digest(o or "" for o in first.outputs)


# -- trace 1: per-layer ---------------------------------------------------------------


def layer_metrics(tracer: spans.Tracer, rep: Rep, unit) -> dict[str, float]:
    g = tracer.get

    def per_call_us(name):
        st = g(name)
        return st.total_s / st.calls * 1e6 if st.calls else 0.0

    ticks = g("core.tick").calls
    polls = g("ue.next_wake_ms").calls
    return {
        "engine.ticks": ticks,
        "engine.self_s": g("engine.run").self_s,
        "engine.self_us_per_tick": g("engine.run").self_s / ticks * 1e6 if ticks else 0.0,
        "engine.wake_poll_hit_ratio": tracer.counts.get("ue.step.tick", 0) / polls if polls else 0.0,
        "engine.reconstruct_frame.us_per_call": per_call_us("engine.reconstruct_frame"),
        "engine.replay_capture.self_s": g("engine.replay_capture").self_s,
        "ue.step.calls": g("ue.step").calls,
        "ue.step.self_s": g("ue.step").self_s,
        "ue.next_wake_ms.calls": polls,
        "ue.next_wake_ms.self_s": g("ue.next_wake_ms").self_s,
        "core.handle_uplink.calls": g("core.handle_uplink").calls,
        "core.handle_uplink.self_s": g("core.handle_uplink").self_s,
        "core.tick.self_s": g("core.tick").self_s,
        "core.check_invariants.self_s": g("core.check_invariants").self_s,
        "core.next_deadline_ms.self_s": g("core.next_deadline_ms").self_s,
        "core.broadcast_tick.self_s": g("core.broadcast_tick").self_s,
        "core.page.calls": g("core.page").calls,
        "core.drops": unit.drops(rep),
        "identity.rnti_in_use.calls": g("identity.rnti_in_use").calls,
        "identity.rnti_in_use.self_s": g("identity.rnti_in_use").self_s,
        "radio.visible_cells.calls": g("radio.visible_cells").calls,
        "radio.visible_cells.us_per_call": per_call_us("radio.visible_cells"),
        "radio.rx_power.calls": g("radio.rx_power").calls,
        "radio.rx_power.self_s": g("radio.rx_power").self_s,
        "codec.encode.calls": g("codec.encode").calls,
        "codec.encode.us_per_call": per_call_us("codec.encode"),
        "codec.decode.calls": g("codec.decode").calls,
        "codec.decode.us_per_call": per_call_us("codec.decode"),
        "codec.message_to_json.us_per_call": per_call_us("codec.message_to_json"),
        "codec.message_from_json.us_per_call": per_call_us("codec.message_from_json"),
        "crypto_stub.keystream_mask.calls": g("crypto_stub.keystream_mask").calls,
        "sniffer.observe.calls": g("sniffer.observe").calls,
        "sniffer.observe.us_per_call": per_call_us("sniffer.observe"),
        "sniffer.report_s": g("sniffer.report").total_s,
        "sniffer.undecodable": sum(r.undecodable for r in unit.reports(rep)),
        "attacker.handle_uplink.calls": g("attacker.handle_uplink").calls,
        "attacker.handle_uplink.self_s": g("attacker.handle_uplink").self_s,
        "attacker.broadcast_tick.self_s": g("attacker.broadcast_tick").self_s,
        "scenario.parse_s": g("scenario.parse_scenario").total_s,
        "prng.child_rng.calls": g("prng.child_rng").calls,
        "prng.child_rng.self_s": g("prng.child_rng").self_s,
    }


COUNT_SUFFIXES = (".calls", ".ticks", ".drops", ".undecodable")


def measure_traced(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced repetitions of the unit. Traced
    outputs must equal untraced ones and counts must repeat exactly;
    times are medians over the traced repetitions."""
    ltesim = import_ltesim()
    unit = make_unit(workload, seed, ltesim)
    tally = Tally()
    tracer = spans.Tracer()
    first = unit.rep(ltesim, unit.setup(ltesim), host_time)
    plain_s = [first.seconds]
    rows: list[dict[str, float]] = []
    traced_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        if rows:
            rep = unit.rep(ltesim, unit.setup(ltesim), host_time)
            check_rep(unit, rep, first, tally, {})
            plain_s.append(rep.seconds)
        tracer.reset()
        with spans.install(tracer, ltesim):
            rep = unit.rep(ltesim, unit.setup(ltesim, tracer), host_time)
        check_rep(unit, rep, first, tally, {})
        rows.append(layer_metrics(tracer, rep, unit))
        traced_s.append(rep.seconds)
    check_rep(unit, first, first, tally, unit.check_first(ltesim, first))

    counts = [k for k in rows[0] if k.endswith(COUNT_SUFFIXES)]
    if any(row[k] != rows[0][k] for row in rows for k in counts):
        tally.problems.append("traced counts differ between repetitions of one seed")
    metrics = {k: rows[0][k] if k in counts else statistics.median(row[k] for row in rows) for k in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)

    table, mismatches = micro.codec_table(ltesim, seed)
    metrics.update(table)
    if mismatches:
        tally.problems.append(f"{mismatches} codec micro-table frames did not round-trip")
    us_per_kib, involution = micro.keystream_us_per_kib(ltesim, seed)
    metrics["crypto_stub.keystream_mask.us_per_kib"] = us_per_kib
    if not involution:
        tally.problems.append("keystream_mask applied twice did not give the input back")
    notes = [f"repetitions {len(rows)} traced, {len(plain_s)} untraced (host time, unscaled)"]
    return ltesim, metrics, tally, notes, digest(o or "" for o in first.outputs)


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run_fn = measure_traced if args.trace else measure
        ltesim, metrics, tally, notes, workload_digest = run_fn(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    combined = combined_digest(ltesim)
    if combined != COMBINED_DIGEST:
        tally.problems.append(f"combined digest {combined}, expected {COMBINED_DIGEST}")
    units = declared_units(args.trace)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    print(f"workload digest {workload_digest}")
    print(f"combined digest {combined}")
    print(f"runs_failed_ratio {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    for why in tally.reasons + tally.problems:
        print(f"  FAILED {why}")
    for name, unit in units.items():
        print(f"{name:50s} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
