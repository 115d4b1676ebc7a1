#!/usr/bin/env python
"""Periodic checkpointing with an optimal interval, under real failures.

Ties the stack together the way an HPC operator would: measure the cost of
one Snapify checkpoint, plug it with the card MTBF into Young's formula,
and run a long offload job under injected coprocessor failures. The job
loses at most one interval of work per failure and finishes with the
correct checksum.

Run:  python examples/resilient_run.py
"""

from repro.apps import expected_checksum
from repro.metrics import fmt_time
from repro.sched import FaultInjector, ResilientRunner, young_interval
from repro.snapify import checkpoint_offload_app, snapify_t
from repro.testbed import XeonPhiServer, offload_app


def measure_checkpoint_cost() -> float:
    """One throwaway run to measure the checkpoint cost for this app."""
    server = XeonPhiServer()
    app = offload_app(server, "KM", iterations=10_000)

    def probe(sim):
        yield from app.launch()
        yield sim.timeout(0.5)
        snap = snapify_t(snapshot_path="/probe", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        return snap.op.result.elapsed

    return server.run(probe(server.sim))


def main() -> None:
    cost = measure_checkpoint_cost()
    mtbf = 6.0  # seconds — absurdly flaky cards, scaled to the demo's length
    interval = young_interval(mtbf, cost)
    print(f"measured checkpoint cost: {fmt_time(cost)}; card MTBF {mtbf:.0f} s "
          f"-> Young interval {fmt_time(interval)}")

    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    app = offload_app(server, "KM", iterations=2500)  # ~11 s of work
    runner = ResilientRunner(server, app, interval=interval)

    def scenario(sim):
        # Card failures roughly every MTBF, alternating cards so one is
        # always healthy.
        injector.schedule_card_failure(server.node.phis[0], at=5.0)
        store = yield from runner.run()
        return store

    store = server.run(scenario(server.sim))
    print(f"job finished at t={server.now:.1f}s with "
          f"{runner.checkpoints_taken} checkpoints and {runner.restarts} restart(s)")
    for ev in runner.events:
        print(f"    {ev}")
    assert store["checksum"] == expected_checksum(app.iterations)
    print("checksum correct despite the card failure ✓")


if __name__ == "__main__":
    main()
