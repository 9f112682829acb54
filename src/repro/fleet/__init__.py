"""Population-scale multi-UE simulation (``repro.fleet``).

The paper's results are single-UE trials; this package opens the
population axis: sample N users from weighted profiles, run them on one
street grid with cross-user batched burst delivery, and report
fleet-level CDFs (beam-search latency, handover and ping-pong rates,
outage fraction).

Entry points::

    from repro.fleet import FleetSpec, UserProfile, run_fleet_trial

    spec = FleetSpec("demo", n_users=32,
                     profiles=(UserProfile("walkers"),), seed=7)
    result = run_fleet_trial(spec)
    print(result.aggregates["summary"]["search_latency_s"])

or, from the command line: ``repro fleet run --users 32 --out fleet.json``
then ``repro fleet summarize --artifact fleet.json``.  The ``fleet``
campaign experiment kind (registered on import of
:mod:`repro.fleet.experiment`) drives the same runs from campaign grids
and :func:`repro.api.run_trial`.
"""

from repro.fleet.metrics import (
    FleetAccumulator,
    FleetUserResult,
    aggregate_users,
    user_result,
)
from repro.fleet.progress import ConsoleFleetProgress, FleetProgress
from repro.fleet.runner import (
    FleetError,
    FleetRun,
    FleetTrialResult,
    ShardedFleetResult,
    build_fleet,
    load_fleet_artifact,
    load_sharded_fleet,
    run_built_fleet,
    run_fleet_sharded,
    run_fleet_trial,
    run_shard,
    write_fleet_artifact,
)
from repro.fleet.spec import (
    FleetShard,
    FleetSpec,
    UserProfile,
    UserSpec,
    load_spec,
    partition_fleet,
    synthesize_users,
)

__all__ = [
    "ConsoleFleetProgress",
    "FleetAccumulator",
    "FleetError",
    "FleetProgress",
    "FleetRun",
    "FleetShard",
    "FleetSpec",
    "FleetTrialResult",
    "FleetUserResult",
    "ShardedFleetResult",
    "UserProfile",
    "UserSpec",
    "aggregate_users",
    "build_fleet",
    "load_fleet_artifact",
    "load_sharded_fleet",
    "load_spec",
    "partition_fleet",
    "run_built_fleet",
    "run_fleet_sharded",
    "run_fleet_trial",
    "run_shard",
    "synthesize_users",
    "user_result",
    "write_fleet_artifact",
]
