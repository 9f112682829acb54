#!/usr/bin/env python
"""Vehicular drive-by: Silent Tracker vs reactive hard handover, head to head.

The mobile passes the cells at 20 mph.  Silent Tracker pre-tracks the
next cell's beam and switches make-before-break; the reactive baseline
waits for its serving link to die, then pays the full blind directional
search and context-free re-entry.  This example runs both on identical
seeds and prints the service-interruption gap.

Run:  python examples/vehicular_handover.py
"""

from repro.experiments.scenarios import build_cell_edge_deployment
from repro.net.handover import HandoverOutcome
from repro.registry import make_protocol


def run_protocol(name: str, seed: int) -> dict:
    deployment, mobile = build_cell_edge_deployment(
        seed, mobile_codebook="narrow", scenario="vehicular"
    )
    protocol = make_protocol(name, deployment, mobile, "cellA")
    protocol.start()
    deployment.run(6.0)
    protocol.stop()
    completed = [
        r for r in protocol.handover_log.records if r.complete_s is not None
    ]
    return {
        "final_cell": mobile.connection.serving_cell,
        "handovers": completed,
        "rlf_events": deployment.metrics.counter("connection.rlf"),
        "context_losses": deployment.metrics.counter("connection.context_lost"),
    }


def describe(name: str, outcome: dict) -> None:
    print(f"--- {name} ---")
    print(f"  final serving cell: {outcome['final_cell']}")
    print(f"  radio link failures: {outcome['rlf_events']}, "
          f"context losses: {outcome['context_losses']}")
    if not outcome["handovers"]:
        print("  no handover completed")
        return
    for record in outcome["handovers"]:
        kind = record.outcome.value
        print(
            f"  {record.source_cell} -> {record.target_cell}: {kind}, "
            f"interruption {record.interruption_s * 1000:.0f} ms, "
            f"{record.rach_attempts} RACH attempt(s)"
        )


def main() -> None:
    seed = 11
    print("Vehicular drive-by at 20 mph (8.94 m/s), identical seeds\n")
    tracker_outcome = run_protocol("silent-tracker", seed)
    reactive_outcome = run_protocol("reactive", seed)
    describe("Silent Tracker", tracker_outcome)
    print()
    describe("Reactive hard handover", reactive_outcome)

    def first_interruption(outcome):
        records = outcome["handovers"]
        return records[0].interruption_s if records else None

    tracker_gap = first_interruption(tracker_outcome)
    reactive_gap = first_interruption(reactive_outcome)
    print()
    if tracker_gap is not None and reactive_gap is not None:
        print(
            f"interruption gap: {reactive_gap * 1000:.0f} ms (reactive) vs "
            f"{tracker_gap * 1000:.0f} ms (Silent Tracker) — "
            f"{reactive_gap / max(tracker_gap, 1e-3):.1f}x"
        )
    soft = [
        r
        for r in tracker_outcome["handovers"]
        if r.outcome is HandoverOutcome.SOFT
    ]
    if soft:
        print("Silent Tracker preserved the network context (soft handover).")


if __name__ == "__main__":
    main()
