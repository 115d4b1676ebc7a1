#!/usr/bin/env python
"""Proactive migration away from a failing coprocessor.

§1: "by using fault prediction methods, it is possible to avoid imminent
coprocessor failures by proactively migrating processes to other healthy
coprocessors." Two jobs run on mic0; a correctable-error storm (degradation
telemetry) precedes the card's death, the predictor evacuates both jobs to
mic1 via Snapify migration, and they finish correctly. Nothing registers the
jobs with the predictor: it finds them from their live offload handles.

Run:  python examples/proactive_migration.py
"""

from repro.sched import FaultInjector, ProactiveMigrator
from repro.testbed import XeonPhiServer, offload_app


def main() -> None:
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    migrator = ProactiveMigrator(server, injector)

    jobs = [
        offload_app(server, "KM", iterations=2500, device=0, name="kmeans"),
        offload_app(server, "MC", iterations=400, device=0, name="montecarlo"),
    ]

    def scenario(sim):
        for job in jobs:
            yield from job.launch()
        print(f"[{sim.now:6.2f}s] kmeans + montecarlo running on mic0")

        yield sim.timeout(0.5)
        t_fail = sim.now + 6.0
        print(f"[{sim.now:6.2f}s] telemetry: correctable-error storm on mic0 "
              f"(card will die at t={t_fail:.1f}s)")
        injector.schedule_card_failure(server.node.phis[0], at=t_fail,
                                       warning_lead=5.8)

        for job in jobs:
            yield job.host_proc.main_thread.done
        print(f"[{sim.now:6.2f}s] both jobs finished")
        for name, src, dst, when in migrator.migrations_done:
            print(f"    migrated {name}: mic{src} -> mic{dst} at t={when:.2f}s")

    server.run(scenario(server.sim))
    for job in jobs:
        assert job.verify(), f"{job.name} lost work!"
        assert job.coiproc.offload_proc.os is server.phi_os(1)
    assert server.node.phis[0].failed
    print("mic0 is dead, both jobs completed correctly on mic1 ✓")


if __name__ == "__main__":
    main()
