#!/usr/bin/env python
"""Quickstart: checkpoint and restart an offload application.

Boots a simulated Xeon Phi server (host + 2 coprocessors, COI daemons,
Snapify-IO daemons), runs an offload benchmark, takes a Snapify checkpoint
mid-run, kills *both* processes, and restarts the whole application from
the snapshot directory — finishing with the same checksum a failure-free
run produces.

Run:  python examples/quickstart.py [--trace-json PATH]

With ``--trace-json PATH`` the run executes with tracing enabled and the
full record stream (spans, metrics, protocol markers) is exported as Chrome
trace-event JSON — CI uploads this as its workflow artifact.
"""

import sys

from repro.apps import expected_checksum
from repro.metrics import fmt_bytes, fmt_time
from repro.sim import Simulator
from repro.snapify import checkpoint_offload_app, restart_offload_app, snapify_t
from repro.testbed import XeonPhiServer, offload_app


def main() -> None:
    trace_json = None
    if "--trace-json" in sys.argv:
        trace_json = sys.argv[sys.argv.index("--trace-json") + 1]
    server = XeonPhiServer(sim=Simulator(trace=trace_json is not None))
    print(f"booted {server.node.name}: host + {len(server.node.phis)} Xeon Phi cards")

    # A conjugate-gradient style offload benchmark, shortened for the demo.
    app = offload_app(server, "CG", iterations=200)

    def scenario(sim):
        yield from app.launch()
        print(f"[{sim.now:7.3f}s] launched {app.name}: host process "
              f"pid={app.host_proc.pid}, offload process on mic0")

        yield sim.timeout(1.0)
        print(f"[{sim.now:7.3f}s] {app.host_proc.store['iter']} iterations done; "
              "taking a checkpoint...")

        snap = snapify_t(snapshot_path="/snapshots/demo", coiproc=app.coiproc)
        yield from checkpoint_offload_app(snap)
        ckpt = snap.op.result
        print(f"[{sim.now:7.3f}s] checkpoint complete in "
              f"{fmt_time(ckpt.elapsed)}:")
        for part, size in (("host_snapshot", ckpt.host_snapshot_bytes),
                           ("offload_snapshot", ckpt.image_bytes),
                           ("local_store", ckpt.localstore_bytes)):
            print(f"            {part:18s} {fmt_bytes(size)}")

        yield sim.timeout(0.5)
        print(f"[{sim.now:7.3f}s] simulating a crash: killing the application")
        app.host_proc.terminate(code=1)
        yield sim.timeout(0.1)

        print(f"[{sim.now:7.3f}s] restarting from /snapshots/demo ...")
        result = yield from restart_offload_app(
            server.host_os, "/snapshots/demo", server.engine(0)
        )
        restart = result.result
        print(f"[{sim.now:7.3f}s] restart done in "
              f"{fmt_time(restart.host_restart_s + restart.elapsed)} "
              f"(host {fmt_time(restart.host_restart_s)}, "
              f"offload {fmt_time(restart.elapsed)})")

        yield result.host_proc.main_thread.done
        checksum = result.host_proc.store["checksum"]
        print(f"[{sim.now:7.3f}s] application finished; checksum={checksum}")
        assert checksum == expected_checksum(app.iterations), "WRONG RESULT"
        print("checksum matches the failure-free run — snapshot was consistent ✓")

    server.run(scenario(server.sim))

    if trace_json is not None:
        from repro.obs import validate_trace_events, write_chrome_trace

        doc = write_chrome_trace(server.sim.trace, trace_json)
        n = validate_trace_events(doc)
        print(f"wrote {trace_json}: {n} trace events — load it at ui.perfetto.dev")


if __name__ == "__main__":
    main()
