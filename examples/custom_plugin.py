"""Extending the simulator: a custom protocol + scenario, registered.

Demonstrates the plugin registries (:mod:`repro.registry`): a
"sticky" protocol that camps on its serving cell forever and a "jog"
mobility scenario, both registered with the same decorators the
built-ins use.  Once registered they work everywhere a built-in arm
does — the typed Session API, a campaign grid (with construction-time
validation), a multi-user fleet, and ``repro list``:

    PYTHONPATH=src python examples/custom_plugin.py

CI runs this script as its registry smoke test: if the plugin seam
breaks, this fails before anything subtler does.
"""

import tempfile
from pathlib import Path

from repro import register_protocol, register_scenario
from repro.api import Session, TrialSpec
from repro.campaign import (
    CampaignSpec,
    arm_headlines,
    run_campaign,
    summarize_campaign,
)
from repro.fleet import FleetSpec, UserProfile, run_fleet_trial
from repro.geometry.vectors import Vec3
from repro.mobility.walk import HumanWalk
from repro.net.handover import HandoverLog


# ----------------------------------------------------------- custom protocol
class StickyCamper:
    """Never hands over: measure the serving cell, ignore every neighbor.

    The minimum a protocol arm needs: ``start()``/``stop()``, a
    ``handover_log``, and the BurstListener pair
    (``choose_rx_beam`` / ``on_measurement``).  The optional
    ``candidate_cells`` lets a multi-user tick skip asking this mobile
    about cells it would decline anyway.
    """

    def __init__(self, deployment, mobile, serving_cell):
        self.mobile = mobile
        self.serving_cell = serving_cell
        self.handover_log = HandoverLog()
        self.measurements = 0
        station = deployment.station(serving_cell)
        now = deployment.sim.now
        station.attach(
            mobile.mobile_id,
            station.best_tx_beam_towards(
                station.pose.bearing_to(mobile.pose_at(now).position)
            ),
        )
        mobile.connection.establish(
            serving_cell, mobile.best_rx_beam_towards(station, now), now
        )
        mobile.attach_listener(self)

    def start(self):
        pass

    def stop(self):
        pass

    def choose_rx_beam(self, cell_id, now_s):
        if cell_id != self.serving_cell:
            return None  # sticky: neighbors don't exist
        return self.mobile.connection.rx_beam

    def candidate_cells(self, now_s):
        # Superset of the cells choose_rx_beam can accept right now.
        return (self.serving_cell,)

    def on_measurement(self, measurement):
        self.measurements += 1


# override=True keeps re-imports (e.g. from the test suite) idempotent.
@register_protocol("sticky", override=True)
def build_sticky(deployment, mobile, serving_cell, config=None):
    """Sticky camper: serves as the do-nothing lower bound."""
    return StickyCamper(deployment, mobile, serving_cell)


# ----------------------------------------------------------- custom scenario
@register_scenario(
    "jog",
    duration_s=5.0,
    default_start_x=9.0,
    description="jogger passing the cell edge at 2.8 m/s",
    override=True,
)
def build_jog(rng, start_x):
    return HumanWalk(Vec3(start_x, 0.0), Vec3(2.8, 0.0), rng=rng)


def main() -> None:
    # 1. The plugin arms show up next to the built-ins.
    from repro.registry import PROTOCOLS, SCENARIOS

    print("registered protocols:", ", ".join(PROTOCOLS.names()))
    print("registered scenarios:", ", ".join(SCENARIOS.names()))

    # 2. Drive the plugin pair through the typed Session API.
    with Session(TrialSpec(scenario="jog", protocol="sticky", seed=11)) as s:
        protocol = s.attach_protocol()
        s.run()
    print(
        f"session: {s.elapsed_s:.1f} s simulated, "
        f"{protocol.measurements} serving-cell measurements, "
        f"{len(protocol.handover_log.records)} handovers (sticky => 0)"
    )

    # 3. The same arms in a campaign grid, validated at spec construction
    #    and head-to-head against a built-in arm over paired seeds.
    spec = CampaignSpec(
        name="plugin-demo",
        experiment="comparison",
        scenarios=("jog",),
        protocols=("sticky", "silent-tracker"),
        seeds=2,
        base_seed=900,
    )
    with tempfile.TemporaryDirectory(prefix="repro-plugin-") as tmp:
        result = run_campaign(spec, out_dir=Path(tmp) / "demo")
        headers, rows = summarize_campaign(spec, result.results_in_order())
        print(f"campaign: {len(result.payloads)}/{spec.n_cells} cells ok")
        for row in rows:
            print("  ", dict(zip(headers, row)))

    # Every arm, plugin or built-in, is summarized by its experiment
    # kind's one headline definition.
    sticky = arm_headlines(spec, result.results_in_order(), "protocol")[
        "sticky"
    ]
    assert sticky["trials"] == spec.seeds and sticky["completed_any"] == 0, (
        "sticky camper must never hand over"
    )

    # 4. Several users on a corridor whose SSB ticks carry several
    #    cells each: every tick reads each listener's candidate_cells()
    #    once and asks it only about those cells.
    fleet = run_fleet_trial(
        FleetSpec(
            name="plugin-fleet",
            n_users=6,
            seed=5,
            duration_s=1.0,
            topology="corridor",
            n_cells=16,
            profiles=(
                UserProfile("sticky", scenario="jog", protocol="sticky"),
                UserProfile("tracker", scenario="jog", protocol="silent-tracker"),
            ),
        )
    )
    sticky_users = [u for u in fleet.users if u.protocol == "sticky"]
    print(
        f"fleet: {len(fleet.users)} users, {len(sticky_users)} sticky, "
        f"{sum(u.bursts_measured for u in fleet.users)} bursts measured"
    )
    assert sticky_users and all(
        u.handovers_completed == 0 for u in sticky_users
    ), "sticky camper must never hand over"
    print("plugin smoke OK")


if __name__ == "__main__":
    main()
