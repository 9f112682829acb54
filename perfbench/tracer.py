"""Out-of-tree layer tracing for the benchmark's traced runs.

:class:`Tracer` wraps the public functions that form each layer
boundary of the simulator (the table in ``perfbench/README.md``) and
keeps one span stack: every wrapped call pushes a frame, and on return
its duration is charged to its own *inclusive* total while the part not
covered by child spans becomes its *self* time.  Each span name belongs
to one layer, so layer self times add up, together with the root span's
own ``other`` time, to the traced run phase.

Nothing under ``src/`` is changed: wrappers are installed by assigning
class and module attributes, and :meth:`Tracer.uninstall` puts every
original object back.  Wrappers only observe — they never change an
argument, a return value or the order of any call — so a traced run
produces the same artifact bytes as an untraced one (the benchmark
checks this on every traced run).

Raw spans ``(name, start, end, parent)`` are kept in memory in compact
arrays, up to :data:`SPAN_RECORD_LIMIT`, and written out with
:meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept for :meth:`Tracer.dump`; aggregates are always complete.
SPAN_RECORD_LIMIT = 1_000_000

#: Layers in report order.  ``other`` is root-span self time (benchmark
#: glue and unwrapped code between layer boundaries); ``trace`` is the
#: tracer's own bookkeeping that had to run inside the timed region.
LAYERS = ("sim", "net", "mobility", "phy", "core", "fleet", "campaign",
          "other", "trace")


def _layer_of_module(module: str) -> str:
    """The layer a scheduled callback's own code belongs to."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """Span stack + per-span aggregates + counters for one traced run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.layers: List[str] = []
        self.count: List[int] = []
        self.inclusive: List[float] = []
        self.self_time: List[float] = []
        self.counters: Dict[str, float] = {}
        # Frames are [span id, start, child time, raw index].
        self._stack: List[list] = []
        self._raw_name = array("i")
        self._raw_parent = array("i")
        self._raw_start = array("d")
        self._raw_end = array("d")
        self.dropped = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------- spans
    def span_id(self, name: str, layer: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer {layer!r}")
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.count.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return sid

    def _push(self, sid: int) -> list:
        stack = self._stack
        index = len(self._raw_start)
        if index < SPAN_RECORD_LIMIT:
            self._raw_name.append(sid)
            self._raw_parent.append(stack[-1][3] if stack else -1)
            self._raw_start.append(0.0)
            self._raw_end.append(0.0)
        else:
            index = -1
            self.dropped += 1
        frame = [sid, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = self.clock()
        if index >= 0:
            self._raw_start[index] = frame[1]
        return frame

    def _pop(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        sid, start, child, index = frame
        duration = end - start
        if index >= 0:
            self._raw_end[index] = end
        self.count[sid] += 1
        self.inclusive[sid] += duration
        self.self_time[sid] += duration - child
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self._push(self.span_id(name, layer))
        try:
            yield
        finally:
            self._pop(frame)

    def traced(self, fn: Callable, name: str, layer: str,
               on_return: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_return(result, args)`` counts."""
        sid = self.span_id(name, layer)
        push, pop = self._push, self._pop

        def wrapper(*args, **kwargs):
            frame = push(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ----------------------------------------------------------- patching
    def patch(self, owner, attr: str, make_wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original, had_own))

    def patch_span(self, owner, attr: str, name: str, layer: str,
                   on_return: Optional[Callable] = None) -> None:
        self.patch(owner, attr,
                   lambda fn: self.traced(fn, name, layer, on_return))

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` for every installed wrapper."""
        return [(owner, attr, original)
                for owner, attr, original, _ in self._patches]

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap every layer boundary listed in ``perfbench/README.md``."""
        from repro.campaign import runner as campaign_runner
        from repro.campaign import store as campaign_store
        from repro.core.silent_tracker import SilentTracker
        from repro.fleet import metrics as fleet_metrics
        from repro.fleet import runner as fleet_runner
        from repro.net import base_station, deployment, mobile
        from repro.net.link_engine import LinkEngine
        from repro.phy import channel
        from repro.sim import engine
        from repro.sim.rng import RngRegistry

        incr = self.incr

        def count(name, amount=lambda result, args: 1):
            return lambda result, args: incr(name, amount(result, args))

        def file_bytes(name):
            def on_return(path, args):
                incr(name + ".files")
                incr(name, path.stat().st_size)
            return on_return

        # sim: the engine loop, and every scheduled callback, charged to
        # the layer of the module that defines it.
        self.patch_span(engine.Simulator, "run_until", "sim.run_until", "sim")

        def traced_callback(callback, on_return=None):
            layer = _layer_of_module(getattr(callback, "__module__", "") or "")
            return self.traced(callback, f"cb.{layer}", layer, on_return)

        def wrap_schedule(original):
            def schedule(sim, when, callback, *args, **kwargs):
                return original(sim, when,
                                traced_callback(callback, count("sim.events")),
                                *args, **kwargs)
            return schedule

        self.patch(engine.Simulator, "schedule", wrap_schedule)
        self.patch(engine.Simulator, "schedule_at", wrap_schedule)

        # A periodic task's event is the engine's own ``_fire``; the work
        # it drives (a protocol watchdog, say) belongs to its own layer.
        def wrap_periodic_init(original):
            def init(task, sim, period, callback, *args, **kwargs):
                original(task, sim, period, traced_callback(callback),
                         *args, **kwargs)
            return init

        self.patch(engine.PeriodicTask, "__init__", wrap_periodic_init)

        # net: burst-schedule start (cell index build) and the SSB tick.
        self.patch_span(deployment.Deployment, "start", "net.start", "net")
        self.patch(deployment.Deployment, "_deliver_tick", self._wrap_tick)
        self.patch(
            deployment.Deployment, "_excluded",
            lambda fn: _counting(fn, lambda hit: incr("net.pruned", bool(hit))),
        )

        # mobility
        self.patch_span(deployment, "sample_poses", "mobility.sample_poses",
                        "mobility", count("mobility.poses",
                                          lambda result, args: len(result)))
        self.patch_span(mobile.Mobile, "pose_at", "mobility.pose_at",
                        "mobility", count("mobility.poses"))

        # phy: link engine, gains, channel, link state and RNG streams.
        self.patch_span(
            LinkEngine, "measure_burst_multi", "phy.link", "phy",
            count("phy.link.rows",
                  lambda result, args: sum(len(r) for _, r in args[1])),
        )
        self.patch_span(LinkEngine, "measure_burst", "phy.link", "phy",
                        count("phy.link.rows"))
        self.patch_span(base_station.BaseStation, "tx_gains_grid_dbi",
                        "phy.gains", "phy")
        self.patch_span(base_station.BaseStation, "tx_gains_dbi",
                        "phy.gains", "phy")
        self.patch(mobile.Mobile, "rx_gain_fn", self._wrap_rx_gain_fn)
        self.patch_span(channel.Channel, "burst_rss_rows_dbm", "phy.channel", "phy")
        self.patch_span(channel.Channel, "burst_rss_dbm", "phy.channel", "phy")
        self.patch_span(channel.LinkState, "__init__", "phy.link_state", "phy",
                        count("phy.links_created"))
        self.patch(RngRegistry, "stream", self._wrap_stream)

        # core: the Silent Tracker listener API, handovers, FSM edges.
        for attr in ("choose_rx_beam", "on_measurement", "start"):
            self.patch_span(SilentTracker, attr, f"core.{attr}", "core")
        self.patch(SilentTracker, "_complete_handover",
                   lambda fn: _counting(fn, lambda _: incr("core.handovers")))
        for attr in ("_on_serving_transition", "_on_neighbor_transition"):
            self.patch(SilentTracker, attr, lambda fn: _counting(
                fn, lambda _: incr("core.fsm_transitions")))

        # fleet: synthesis, build, aggregation, accumulators.
        self.patch_span(fleet_runner, "synthesize_users", "fleet.synth_users",
                        "fleet", count("fleet.synth.users",
                                       lambda result, args: len(result)))
        self.patch_span(fleet_runner, "build_fleet", "fleet.build", "fleet",
                        count("fleet.build.users",
                              lambda run, args: len(run.users)))
        self.patch_span(fleet_runner, "user_result", "fleet.user_result", "fleet")
        self.patch_span(fleet_runner, "aggregate_users", "fleet.aggregate_users",
                        "fleet")
        self.patch_span(fleet_metrics.FleetAccumulator, "add_user",
                        "fleet.accumulate", "fleet")

        # campaign: pooled cells and the cell store.
        self.patch(campaign_runner, "execute_pooled", self._wrap_execute_pooled)
        self.patch_span(campaign_store.ArtifactStore, "write_cell",
                        "campaign.store.write", "campaign",
                        file_bytes("campaign.payload_bytes"))

    # --------------------------------------------------- special wrappers
    def _wrap_tick(self, original):
        """``net.tick`` span plus offered/admitted/declined/busy counts.

        The counts are per-mobile counter deltas across the tick; summing
        them is O(users), so it runs in a ``trace.accounting`` span that
        is charged to the tracer, not to the tick's parent.
        """
        tick_sid = self.span_id("net.tick", "net")
        accounting_sid = self.span_id("trace.accounting", "trace")
        push, pop, incr = self._push, self._pop, self.incr

        def totals(mobiles):
            listening = measured = declined = busy = 0
            for m in mobiles:
                if m.listener is not None:
                    listening += 1
                measured += m.bursts_measured
                declined += m.bursts_declined
                busy += m.bursts_skipped_busy
            return listening, measured, declined, busy

        def deliver_tick(deployment, stations):
            frame = push(accounting_sid)
            mobiles = deployment.mobiles
            listening, measured, declined, busy = totals(mobiles)
            incr("net.offered", listening * len(stations))
            pop(frame)
            frame = push(tick_sid)
            try:
                return original(deployment, stations)
            finally:
                pop(frame)
                frame = push(accounting_sid)
                _, measured_after, declined_after, busy_after = totals(mobiles)
                incr("net.admitted", measured_after - measured)
                incr("net.declined", declined_after - declined)
                incr("net.skipped_busy", busy_after - busy)
                pop(frame)

        return deliver_tick

    def _wrap_rx_gain_fn(self, original):
        """Span the closure factory *and* every gain evaluation it returns."""
        traced_factory = self.traced(original, "phy.gains", "phy")
        traced = self.traced

        def rx_gain_fn(mobile, time_s, pose=None):
            return traced(traced_factory(mobile, time_s, pose), "phy.gains", "phy")

        return rx_gain_fn

    def _wrap_stream(self, original):
        """``phy.rng`` span; counts calls and streams actually created."""
        sid = self.span_id("phy.rng", "phy")
        push, pop, incr = self._push, self._pop, self.incr

        def stream(registry, name):
            # Read-only peek at the registry's cache: a miss is a creation.
            created = name not in registry._streams
            frame = push(sid)
            try:
                return original(registry, name)
            finally:
                pop(frame)
                incr("phy.rng.calls")
                incr("phy.rng.streams", created)

        return stream

    def _wrap_execute_pooled(self, original):
        """Span every pooled task; traced runs are serial and in-process."""

        def execute_pooled(task_fn, tasks, workers, record_outcome, **kwargs):
            if workers > 1 and len(tasks) > 1:
                raise RuntimeError("traced runs must use workers=1")
            return original(
                self.traced(task_fn, "campaign.task", "campaign"),
                tasks, workers, record_outcome, **kwargs,
            )

        return execute_pooled

    # ------------------------------------------------------------ results
    def snapshot(self) -> Tuple[List[int], List[float], List[float], Dict[str, float]]:
        return (list(self.count), list(self.inclusive), list(self.self_time),
                dict(self.counters))

    def delta(self, since) -> "SpanTotals":
        """Per-span totals accumulated after the ``since`` snapshot."""
        count0, incl0, self0, counters0 = since
        pad = len(self.names) - len(count0)
        count0 = count0 + [0] * pad
        incl0 = incl0 + [0.0] * pad
        self0 = self0 + [0.0] * pad
        spans = {
            name: (self.layers[i], self.count[i] - count0[i],
                   self.inclusive[i] - incl0[i], self.self_time[i] - self0[i])
            for i, name in enumerate(self.names)
        }
        counters = {name: value - counters0.get(name, 0)
                    for name, value in self.counters.items()}
        return SpanTotals(spans, counters)

    def dump(self, path: Path) -> Path:
        """Write the recorded raw spans (numpy ``.npz``) and return the path."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name=np.frombuffer(self._raw_name, dtype=np.int32),
            parent=np.frombuffer(self._raw_parent, dtype=np.int32),
            start=np.frombuffer(self._raw_start, dtype=np.float64),
            end=np.frombuffer(self._raw_end, dtype=np.float64),
            dropped=np.array(self.dropped),
        )
        return path


def _counting(fn: Callable, on_result: Callable) -> Callable:
    """``fn`` unchanged except that ``on_result(result)`` sees each return."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result)
        return result

    return wrapper


class SpanTotals:
    """Per-span ``(layer, count, inclusive_s, self_s)`` plus counters."""

    def __init__(self, spans: Dict[str, Tuple[str, int, float, float]],
                 counters: Dict[str, float]) -> None:
        self.spans = spans
        self.counters = counters

    def count(self, *names: str) -> int:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def inclusive(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n][3] for n in names if n in self.spans)

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, _, _, self_s in self.spans.values():
            totals[layer] += self_s
        return totals

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)
