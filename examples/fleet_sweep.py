#!/usr/bin/env python
"""Fleet control plane: mixed load + health sweeps across a rack of cards.

Boots a `rack8` fleet (four dual-Phi servers, 8 cards), then drives it the
way a cluster operator would:

1. a health sweep probes every card through the same admission machinery
   as real work;
2. `fleet_sweep` pushes a mixed checkpoint / swap / migrate load — four
   keyed operations per card — through an admission-controlled
   `FleetManager` (global in-flight cap + per-card cap, priorities
   maintenance > swap > background);
3. a card is killed and the load repeated: the dead card's operations
   fail *keyed*, everyone else's complete, and the closing health sweep
   flags the failure.

Run:  python examples/fleet_sweep.py
"""

from repro.sched.faults import FaultInjector
from repro.snapify.fleet import FleetManager, fleet_sweep
from repro.testbed import XeonPhiFleet


def main() -> None:
    fleet = XeonPhiFleet("rack8")
    topo = fleet.topology
    print(f"booted fleet '{topo.name}': {topo.n_nodes} nodes x "
          f"{topo.phis_per_node} Phis = {topo.cards} cards ({topo.description})")

    manager = FleetManager(fleet, max_in_flight=8, per_card_limit=2)
    injector = FaultInjector(fleet.sim)

    def drive(sim):
        print(f"\n[{sim.now:7.3f}s] probing every card...")
        print((yield from manager.health_sweep()).summary())

        print(f"\n[{sim.now:7.3f}s] mixed sweep: 4 ops/card "
              f"(caps: {manager.max_in_flight} in flight, "
              f"{manager.per_card_limit}/card)")
        result = yield from fleet_sweep(fleet, manager)
        result.raise_on_error()
        print(result.summary())
        for card, tickets in sorted(result.by_card().items()):
            kinds = ",".join(sorted({t.kind for t in tickets}))
            print(f"  {card}: {len(tickets)} ops ok ({kinds})")
        print(f"  high-water marks: {manager.hwm_in_flight} in flight "
              f"(cap {manager.max_in_flight}), "
              f"{max(manager.hwm_per_card.values())} per card "
              f"(cap {manager.per_card_limit})")

        dead = fleet.cards()[0]
        print(f"\n[{sim.now:7.3f}s] killing card {dead.key}; sweeping again...")
        injector.fail_now(fleet.phi(dead))
        result = yield from fleet_sweep(fleet, manager)
        print(result.summary())
        own = [t for t in result.failures.values() if t.card.key == dead.key]
        assert len(own) == 4, "expected all of the dead card's ops to fail"
        # Collateral is confined to the dead card's node (its sibling's
        # migration targets the dead card); the other three nodes complete.
        assert all(t.card.node == dead.node for t in result.failures.values())

        after = yield from manager.health_sweep()
        print(f"\n{after.summary()}")
        assert [h.card for h in after.failed] == [dead.key]
        assert manager.quiescent(), "fleet left queued or in-flight work"
        print("\npartial failure stayed keyed and confined to the dead "
              "card's node; admission caps held throughout ✓")

    fleet.run(drive(fleet.sim))


if __name__ == "__main__":
    main()
