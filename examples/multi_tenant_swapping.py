#!/usr/bin/env python
"""Multi-tenant card sharing via process swapping.

The Xeon Phi's 8 GB (with pinned COI buffers the OS cannot page) caps how
many offload jobs fit on a card — §1's motivation for process swapping. A
COSMIC-style scheduler keeps a big tenant and a burst of small tenants on
one card by swapping the big one out to host storage under pressure and
back in when the burst drains. Both tenants finish with correct results.

Run:  python examples/multi_tenant_swapping.py
"""

from repro.hw import GB
from repro.metrics import fmt_bytes
from repro.sched import SwapScheduler
from repro.testbed import XeonPhiServer, offload_app


def main() -> None:
    server = XeonPhiServer()
    phi = server.node.phis[0]
    sched = SwapScheduler(server, device=0)

    # Tenant A: a big sample-sort job (~2 GB of card state).
    big = offload_app(server, "SS", iterations=120, name="sample-sort")

    # Tenant B: a burst job that "needs" most of the card.
    burst = offload_app(server, "FT", iterations=40, name="fft-burst")

    def scenario(sim):
        yield from big.launch()
        yield sim.timeout(1.5)  # let sample-sort make some progress first
        sched.register(big.host_proc, footprint=2 * GB)
        print(f"[{sim.now:6.2f}s] sample-sort resident; card free memory: "
              f"{fmt_bytes(phi.memory.available)}")

        print(f"[{sim.now:6.2f}s] fft-burst arrives claiming 7 GB -> make room")
        victims = yield from sched.make_room(incoming=7 * GB)
        print(f"[{sim.now:6.2f}s] swapped out: "
              f"{[v.host_proc.name for v in victims]}; card free memory: "
              f"{fmt_bytes(phi.memory.available)}")

        yield from burst.launch()
        frozen_iter = big.host_proc.store["iter"]
        yield burst.host_proc.main_thread.done
        assert big.host_proc.store["iter"] == frozen_iter, "victim ran while swapped!"
        print(f"[{sim.now:6.2f}s] fft-burst finished "
              f"(correct: {burst.verify()}); sample-sort was frozen at "
              f"iteration {frozen_iter}")

        returned = yield from sched.job_finished(burst.host_proc)
        print(f"[{sim.now:6.2f}s] swapped back in: "
              f"{[j.host_proc.name for j in returned]}")

        yield big.host_proc.main_thread.done
        print(f"[{sim.now:6.2f}s] sample-sort finished (correct: {big.verify()})")
        print("swap operations: " + ", ".join(
            f"{r.kind} done at {r.finished:.2f}s" for r in sched.operations))

    server.run(scenario(server.sim))
    assert big.verify() and burst.verify()
    print("both tenants produced correct checksums ✓")


if __name__ == "__main__":
    main()
