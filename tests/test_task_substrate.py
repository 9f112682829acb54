"""Fault injection for the task substrate shared by campaigns and fleets.

Campaign cells and sharded-fleet shards run through one store, one
driver loop and one worker pool (``repro.campaign.store`` /
``repro.campaign.runner``).  Each test here breaks a run in one way and
checks the recovery contract:

* the run ends in ``CampaignError`` / ``FleetError`` naming the failed
  tasks (or, for a driver killed mid-write, simply dies);
* every task that completed has its artifact on disk;
* with the fault removed, a resume re-runs exactly the missing tasks;
* the resumed ``cells/*.json`` / ``shards/*.json`` / ``fleet.json``
  bytes equal a clean run's.

Every run happens in a fresh interpreter under a timeout, so a
regression that hangs the worker pool fails the test instead of
stalling the suite.  Pooled runs use the default (fork) context.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Seconds one driver run may take before the test counts it as hung.
RUN_TIMEOUT_S = 120

# One driver run, configured by a JSON argument:
#   kind        "campaign" (4 search cells) or "fleet" (8 users, 4 shards)
#   out         output directory (resumed when it already holds a run)
#   marker      fault marker file: while it exists, the target task
#               (seed 101 cells / shard index 1) calls os._exit when the
#               file reads "exit", and raises when it reads "raise"
#   workers     pool size
#   kill_write  SIGKILL the driver between the temp write and the
#               os.replace of its N-th task artifact
# Prints one JSON line: the error type and failed IDs, or the counts.
DRIVER = r"""
import json
import os
import signal
import sys

from repro.campaign.runner import CampaignError, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.fleet import FleetSpec, UserProfile, run_fleet_sharded
from repro.fleet import runner as fleet_runner
from repro.registry import EXPERIMENTS, register_experiment

config = json.loads(sys.argv[1])


def fault(is_target):
    marker = config["marker"]
    if is_target and marker and os.path.exists(marker):
        with open(marker) as fh:
            mode = fh.read()
        if mode == "exit":
            os._exit(3)
        raise RuntimeError("injected task fault")


search = EXPERIMENTS.get("search")


@register_experiment(
    "fault-search",
    decode=search.decode,
    headline=search.headline,
    axis="codebook",
    protocol_axis="codebook",
    protocol_names=search.protocol_names,
    default_protocols=("narrow",),
    duration_param="deadline_s",
)
def run_fault_search(cell):
    fault(cell.seed == 101)
    return search.run(cell)


real_run_shard = fleet_runner.run_shard


def run_shard(shard, **kwargs):
    fault(shard.shard_index == 1)
    return real_run_shard(shard, **kwargs)


fleet_runner.run_shard = run_shard

if config["kill_write"]:
    real_replace = os.replace
    writes = []

    def replace(src, dst):
        if os.path.basename(os.path.dirname(str(dst))) in ("cells", "shards"):
            writes.append(dst)
            if len(writes) == config["kill_write"]:
                os.kill(os.getpid(), signal.SIGKILL)
        real_replace(src, dst)

    os.replace = replace

try:
    if config["kind"] == "campaign":
        spec = CampaignSpec(
            name="faults", experiment="fault-search", scenarios=("walk",),
            protocols=("narrow", "omni"), seeds=2, base_seed=100,
            params={"deadline_s": 1.0},
        )
        result = run_campaign(spec, out_dir=config["out"], workers=config["workers"])
    else:
        spec = FleetSpec(
            "faults", n_users=8, profiles=(UserProfile("walkers"),), seed=5,
            duration_s=1.0,
        )
        result = run_fleet_sharded(
            spec, 4, out_dir=config["out"], workers=config["workers"]
        )
except CampaignError as error:  # FleetError subclasses it
    print(json.dumps({"error": type(error).__name__,
                      "failures": sorted(error.failures)}))
else:
    print(json.dumps({"error": None, "executed": result.executed,
                      "skipped": result.skipped}))
"""

TASK_DIR = {"campaign": "cells", "fleet": "shards"}
ERROR = {"campaign": "CampaignError", "fleet": "FleetError"}


def drive(kind, out, marker=None, workers=2, kill_write=None):
    """Run the driver once in a fresh interpreter; its process result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    config = {"kind": kind, "out": str(out), "workers": workers,
              "marker": str(marker) if marker else None,
              "kill_write": kill_write}
    return subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(config, sort_keys=True)],
        env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def report(process) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def artifacts(out, kind) -> dict:
    """Task artifact bytes by ID (plus the merged ``fleet.json``)."""
    out = Path(out)
    found = {p.stem: p.read_bytes() for p in (out / TASK_DIR[kind]).glob("*.json")}
    if (out / "fleet.json").exists():
        found["fleet.json"] = (out / "fleet.json").read_bytes()
    return found


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Fault-free serial runs, the byte reference for every resume."""
    runs = {}
    for kind in TASK_DIR:
        out = tmp_path_factory.mktemp(f"clean-{kind}") / "run"
        assert report(drive(kind, out, workers=1))["error"] is None
        runs[kind] = artifacts(out, kind)
    return runs


def task_ids(clean, kind) -> set:
    return set(clean[kind]) - {"fleet.json"}


def resume_and_compare(clean, kind, out, missing):
    """Resume with the fault gone: exactly ``missing`` re-run, clean bytes."""
    resumed = report(drive(kind, out))
    assert resumed == {
        "error": None,
        "executed": len(missing),
        "skipped": len(task_ids(clean, kind)) - len(missing),
    }
    assert artifacts(out, kind) == clean[kind]


@pytest.mark.parametrize("kind", ["campaign", "fleet"])
@pytest.mark.parametrize("mode", ["exit", "raise"])
def test_task_fault_is_recorded_and_resumable(tmp_path, clean, kind, mode):
    """A worker that dies (``os._exit``) or a task that raises ends the
    pooled run in a recorded failure, never a hang."""
    marker = tmp_path / "fault"
    marker.write_text(mode)
    out = tmp_path / "run"
    outcome = report(drive(kind, out, marker=marker))
    assert outcome["error"] == ERROR[kind]
    failed = set(outcome["failures"])
    everything = task_ids(clean, kind)
    on_disk = artifacts(out, kind)
    assert "fleet.json" not in on_disk
    # The target task always fails; a raise fails it alone, a dead
    # worker may take the tasks still in flight down with it.
    targets = {
        task_id for task_id, data in clean[kind].items()
        if task_id != "fleet.json" and (
            json.loads(data)["cell"]["seed"] == 101 if kind == "campaign"
            else json.loads(data)["shard"]["shard_index"] == 1
        )
    }
    assert targets <= failed
    if mode == "raise":
        assert failed == targets
    assert set(on_disk) == everything - failed
    for task_id, data in on_disk.items():
        assert data == clean[kind][task_id]
    marker.unlink()
    resume_and_compare(clean, kind, out, failed)


@pytest.mark.parametrize("kind", ["campaign", "fleet"])
def test_kill_between_temp_write_and_replace(tmp_path, clean, kind):
    """SIGKILL mid-write leaves a stale ``.json.tmp`` and no artifact;
    a torn artifact is treated as missing; resume repairs both."""
    out = tmp_path / "run"
    killed = drive(kind, out, workers=1, kill_write=3)
    assert killed.returncode == -9, killed.stderr
    task_dir = out / TASK_DIR[kind]
    assert len(list(task_dir.glob("*.json.tmp"))) == 1
    complete = sorted(task_dir.glob("*.json"))
    assert len(complete) == 2
    assert not (out / "fleet.json").exists()
    torn, kept = complete
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    missing = task_ids(clean, kind) - {kept.stem}
    resume_and_compare(clean, kind, out, missing)
