"""Outside-in span recording: wrap the public names ltesim looks up.

Nothing inside `src/` changes. `install` replaces module functions and
class methods with wrappers that time each call, and puts the originals
back on exit. Spans nest on one stack (the program is single-threaded),
so a span's self time is its duration minus the durations of the spans
it directly encloses. Each span is folded into per-name totals as it
closes, which keeps a crowd run's millions of spans in constant memory.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._children: list[float] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _close(self, name: str, elapsed: float, children: float) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - children
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name: str, fn):
        stack = self._children
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                close(name, elapsed, stack.pop())

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._close(name, elapsed, self._children.pop())


def _targets(ltesim):
    """(owner, attribute, span name) for every wrapped public name."""
    codec, engine = ltesim.codec, ltesim.engine
    core, ue, attacker, sniffer = ltesim.core.NetworkCore, ltesim.ue.Ue, ltesim.attacker.RogueCell, ltesim.sniffer.Sniffer
    return [
        (codec, "encode", "codec.encode"),
        (codec, "decode", "codec.decode"),
        (codec, "message_to_json", "codec.message_to_json"),
        (codec, "message_from_json", "codec.message_from_json"),
        (codec, "keystream_mask", "crypto_stub.keystream_mask"),
        (engine, "visible_cells", "radio.visible_cells"),
        (engine, "rx_power", "radio.rx_power"),
        (engine, "reconstruct_frame", "engine.reconstruct_frame"),
        (engine, "replay_capture", "engine.replay_capture"),
        (engine, "child_rng", "prng.child_rng"),
        (engine.Engine, "run", "engine.run"),
        (ue, "step", "ue.step"),
        (ue, "next_wake_ms", "ue.next_wake_ms"),
        (core, "handle_uplink", "core.handle_uplink"),
        (core, "tick", "core.tick"),
        (core, "check_invariants", "core.check_invariants"),
        (core, "next_deadline_ms", "core.next_deadline_ms"),
        (core, "broadcast_tick", "core.broadcast_tick"),
        (core, "page", "core.page"),
        (attacker, "handle_uplink", "attacker.handle_uplink"),
        (attacker, "broadcast_tick", "attacker.broadcast_tick"),
        (sniffer, "observe", "sniffer.observe"),
        (sniffer, "report", "sniffer.report"),
    ]


@contextlib.contextmanager
def install(tracer: Tracer, ltesim):
    """Wrap ltesim's public names for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets(ltesim):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            fn = _counting_ticks(tracer, original, ltesim.ue.Tick) if name == "ue.step" else original
            setattr(owner, attr, tracer.wrap(name, fn))
        allocator = ltesim.identity.RntiAllocator
        prop = allocator.__dict__["in_use"]
        saved.append((allocator, "in_use", prop))
        allocator.in_use = property(tracer.wrap("identity.rnti_in_use", prop.fget))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counting_ticks(tracer: Tracer, step, tick_type):
    """Count `Ue.step(Tick)` calls: the polls that found a due timer."""

    def step_counted(self, event, now_ms):
        if type(event) is tick_type:
            tracer.count("ue.step.tick")
        return step(self, event, now_ms)

    return step_counted
