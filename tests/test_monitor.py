"""Tests for the live run monitor (``repro.obs.monitor``).

Heartbeat throttling and stall thresholds run against injected fake
clocks (no sleeps); the byte-identity section pins the monitor's core
contract — artifacts are unchanged with monitoring on or off — both
in-process (sharded, multi-worker) and through a fresh-process CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import env_override
from repro.fleet import FleetSpec, UserProfile
from repro.fleet.progress import FleetProgress, ShardProgressAggregator
from repro.fleet.runner import run_fleet_sharded
from repro.obs.monitor import HeartbeatEmitter, MonitorConfig, StallDetector
from repro.util.switches import SwitchError, switch_float

SRC = str(Path(__file__).resolve().parent.parent / "src")


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestMonitorConfig:
    def test_defaults_from_switch_table(self):
        config = MonitorConfig.from_switches()
        assert config.heartbeat_s == 5.0
        assert config.stall_s == 30.0

    def test_switch_overrides(self):
        with env_override("REPRO_HEARTBEAT_S", "0.5"):
            with env_override("REPRO_STALL_S", "7"):
                config = MonitorConfig.from_switches()
        assert config.heartbeat_s == 0.5
        assert config.stall_s == 7.0

    def test_switch_float_rejects_garbage(self):
        with env_override("REPRO_STALL_S", "soon"):
            with pytest.raises(SwitchError, match="must be a number"):
                switch_float("REPRO_STALL_S")

    def test_switch_float_rejects_nonpositive(self):
        with env_override("REPRO_HEARTBEAT_S", "0"):
            with pytest.raises(SwitchError, match="must be > 0"):
                switch_float("REPRO_HEARTBEAT_S")


class TestHeartbeatEmitter:
    def _emitter(self, clock, interval_s=5.0, posted=None):
        posted = posted if posted is not None else []
        emitter = HeartbeatEmitter(
            posted.append, shard_index=3, interval_s=interval_s,
            clock=clock, sampler=lambda: {"rss_kb": 2048, "cpu_s": 1.5},
        )
        return emitter, posted

    def test_throttled_to_interval(self):
        clock = FakeClock()
        emitter, posted = self._emitter(clock)
        assert not emitter.maybe_beat("build")
        clock.advance(4.9)
        assert not emitter.maybe_beat("build")
        clock.advance(0.2)
        assert emitter.maybe_beat("build")
        assert not emitter.maybe_beat("build")  # throttle re-armed
        assert len(posted) == 1

    def test_beat_payload(self):
        clock = FakeClock()
        emitter, posted = self._emitter(clock)
        emitter.events_fn = lambda: 1234
        clock.advance(6.0)
        assert emitter.maybe_beat("run", sim_now_s=2.5, duration_s=10.0)
        kind, shard_index, beat = posted[0]
        assert (kind, shard_index) == ("hb", 3)
        assert beat == {
            "phase": "run", "sim_now_s": 2.5, "duration_s": 10.0,
            "events": 1234, "rss_kb": 2048, "cpu_s": 1.5,
        }

    def test_events_cumulative_across_beats(self):
        clock = FakeClock()
        emitter, posted = self._emitter(clock)
        counter = iter([100, 350])
        emitter.events_fn = lambda: next(counter)
        for _ in range(2):
            clock.advance(5.0)
            assert emitter.maybe_beat("run")
        assert [event[2]["events"] for event in posted] == [100, 350]

    def test_no_events_key_when_unbound(self):
        clock = FakeClock()
        emitter, posted = self._emitter(clock)
        clock.advance(5.0)
        emitter.maybe_beat("build")
        assert "events" not in posted[0][2]


class TestStallDetector:
    def test_threshold_crossing(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        stall.watch(3)
        clock.advance(29.0)
        assert stall.newly_stalled() == []
        clock.advance(2.0)
        assert stall.newly_stalled() == [(3, 31.0)]

    def test_fires_once_per_episode(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        stall.watch(0)
        clock.advance(31.0)
        assert stall.newly_stalled() == [(0, 31.0)]
        clock.advance(100.0)
        assert stall.newly_stalled() == []  # same silence episode

    def test_activity_rearms(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        stall.watch(0)
        clock.advance(31.0)
        assert stall.newly_stalled() == [(0, 31.0)]
        stall.note(0)  # shard revived
        clock.advance(29.0)
        assert stall.newly_stalled() == []
        clock.advance(2.0)
        assert stall.newly_stalled() == [(0, 31.0)]

    def test_note_before_threshold_resets_clock(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        stall.watch(0)
        clock.advance(29.0)
        stall.note(0)
        clock.advance(29.0)
        assert stall.newly_stalled() == []

    def test_unwatch_and_multiple_keys_sorted(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        for key in (2, 0, 1):
            stall.watch(key)
        stall.unwatch(1)
        clock.advance(31.0)
        assert stall.newly_stalled() == [(0, 31.0), (2, 31.0)]


class RecordingProgress(FleetProgress):
    def __init__(self):
        self.heartbeats = []
        self.stalls = []

    def on_heartbeat(self, shard_index, beat):
        self.heartbeats.append((shard_index, dict(beat)))

    def on_stall(self, shard_index, silent_s):
        self.stalls.append(shard_index)


def _beat(events, phase="run"):
    return {"phase": phase, "sim_now_s": 1.0, "duration_s": 2.0,
            "events": events, "rss_kb": 1024, "cpu_s": 0.1}


class TestAggregatorMerge:
    def test_heartbeats_forwarded_per_shard(self):
        inner = RecordingProgress()
        aggregator = ShardProgressAggregator(inner, n_users=4,
                                             duration_s=2.0)
        aggregator.handle(("hb", 1, _beat(10)))
        aggregator.handle(("hb", 0, _beat(20)))
        assert inner.heartbeats == [(1, _beat(10)), (0, _beat(20))]

    def test_merge_is_interleaving_insensitive(self):
        # Cumulative payloads: any cross-shard interleaving leaves each
        # shard's own beat sequence intact, so the driver-side fold
        # (rates from successive per-shard beats) sees identical input.
        events = [("hb", 0, _beat(10)), ("hb", 0, _beat(30)),
                  ("hb", 1, _beat(5)), ("hb", 1, _beat(50))]
        interleavings = (
            events,
            [events[0], events[2], events[1], events[3]],
            [events[2], events[3], events[0], events[1]],
        )
        folded = []
        for order in interleavings:
            inner = RecordingProgress()
            aggregator = ShardProgressAggregator(inner, 4, 2.0)
            for event in order:
                aggregator.handle(event)
            per_shard = {}
            for shard_index, beat in inner.heartbeats:
                per_shard.setdefault(shard_index, []).append(
                    beat["events"])
            folded.append(per_shard)
        assert folded[0] == folded[1] == folded[2] == \
            {0: [10, 30], 1: [5, 50]}

    def test_events_note_liveness_and_tick_surfaces_stalls(self):
        clock = FakeClock()
        stall = StallDetector(30.0, clock=clock)
        inner = RecordingProgress()
        aggregator = ShardProgressAggregator(inner, 4, 2.0, stall=stall)
        stall.watch(0)
        stall.watch(1)
        clock.advance(20.0)
        aggregator.handle(("run", 0, 1.0, 2.0))  # shard 0 shows life
        clock.advance(15.0)
        aggregator.tick()
        assert inner.stalls == [1]  # shard 0 revived at t=20, shard 1 silent
        aggregator.shard_finished(0)  # finished shards leave the watch
        aggregator.shard_finished(1)
        clock.advance(100.0)
        aggregator.tick()
        assert inner.stalls == [1]


def _fleet_spec(n_users=6, seed=11, duration_s=0.6):
    return FleetSpec(
        "monitor-equiv",
        n_users=n_users,
        profiles=(
            UserProfile("walkers", weight=0.7, scenario="walk"),
            UserProfile("spinners", weight=0.3, scenario="rotation"),
        ),
        seed=seed,
        duration_s=duration_s,
    )


def _sharded_bytes(tmp_path, label, monitor, workers=1):
    out = tmp_path / label
    run_fleet_sharded(
        _fleet_spec(), n_shards=3, out_dir=out, workers=workers,
        monitor=monitor, progress=RecordingProgress() if monitor else None,
    )
    return (out / "fleet.json").read_bytes()


class TestByteIdentity:
    def test_sharded_artifact_identical_monitor_on_off(self, tmp_path):
        with env_override("REPRO_HEARTBEAT_S", "0.001"):
            monitored = _sharded_bytes(tmp_path, "on", monitor=True)
        plain = _sharded_bytes(tmp_path, "off", monitor=False)
        assert monitored == plain

    def test_multiworker_monitored_identical(self, tmp_path):
        with env_override("REPRO_HEARTBEAT_S", "0.001"):
            monitored = _sharded_bytes(
                tmp_path, "on2", monitor=True, workers=2)
        plain = _sharded_bytes(tmp_path, "off2", monitor=False)
        assert monitored == plain

    def test_fresh_process_cli_monitor_identical(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        flags = ["--users", "6", "--duration", "0.6", "--seed", "11",
                 "--shards", "3", "--workers", "2", "--no-ledger"]
        outputs = {}
        for label, extra in (("on", ["--monitor"]), ("off", ["--quiet"])):
            out = tmp_path / f"cli-{label}"
            run_env = dict(env)
            if extra == ["--monitor"]:
                run_env["REPRO_HEARTBEAT_S"] = "0.001"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "fleet", "run",
                 *flags, *extra, "--out", str(out)],
                env=run_env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[label] = (out / "fleet.json").read_bytes()
        assert outputs["on"] == outputs["off"]
        json.loads(outputs["on"])  # artifact is well-formed JSON
