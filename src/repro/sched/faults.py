"""Fault injection for the resiliency scenarios.

A coprocessor failure kills every process on the card and takes the device
out of service. Failures can be announced ahead of time through degradation
telemetry — the hook the failure predictor (and hence proactive migration,
one of the paper's §1 motivations) consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..hw.node import PhiDevice
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class FaultInjector:
    """Schedules and executes coprocessor failures."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.failed: List[PhiDevice] = []
        #: Audit log of every fault actually executed ("card_failure:0",
        #: "link_flap:1", ...). The ``retry_accounting`` oracle checks the
        #: retry/fallback counters against this: a run with no injected
        #: faults must not have retried anything.
        self.injected: List[str] = []
        #: Subscribers to degradation telemetry: fn(device, time_to_failure).
        #: Dispatch order is subscription order over a snapshot taken when
        #: the warning fires — subscribers added or removed *during* dispatch
        #: take effect only for the next warning. This keeps telemetry
        #: ordering identical across perturbed schedules (the seeded kernel
        #: may reorder the threads that subscribe at equal times, but each
        #: warning still walks one frozen, append-ordered list).
        self.telemetry: List[Callable[[PhiDevice, float], None]] = []

    # -- telemetry subscription --------------------------------------------
    def subscribe(self, fn: Callable[[PhiDevice, float], None]) -> Callable:
        """Register a degradation-telemetry subscriber; returns ``fn``."""
        self.telemetry.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[PhiDevice, float], None]) -> None:
        """Remove a subscriber; a no-op if it was never registered."""
        try:
            self.telemetry.remove(fn)
        except ValueError:
            pass

    def schedule_card_failure(
        self,
        phi: PhiDevice,
        at: float,
        warning_lead: Optional[float] = None,
        repair_after: Optional[float] = None,
    ) -> Event:
        """Fail ``phi`` at absolute simulated time ``at``.

        With ``warning_lead``, degradation telemetry fires that many seconds
        earlier (correctable-error storms precede most real card failures).
        With ``repair_after``, the card is reset/replaced that many seconds
        after the failure: its service daemons (COI, Snapify-IO) are
        re-booted and the card rejoins the healthy pool.
        Returns the event that triggers at the moment of failure.
        """
        if at < self.sim.now:
            raise ValueError("cannot schedule a failure in the past")
        failed_ev = Event(self.sim, name=f"fault:{phi!r}")
        if warning_lead is not None and warning_lead > 0:
            warn_at = max(self.sim.now, at - warning_lead)
            self.sim.schedule(warn_at - self.sim.now, self._warn, phi, at - warn_at)
        self.sim.schedule(at - self.sim.now, self._fail, phi, failed_ev)
        if repair_after is not None:
            if repair_after <= 0:
                raise ValueError("repair_after must be positive")
            self.sim.schedule(at + repair_after - self.sim.now, self._repair, phi)
        return failed_ev

    def _warn(self, phi: PhiDevice, time_to_failure: float) -> None:
        # Snapshot before dispatch: a subscriber that subscribes (or
        # unsubscribes) others mid-warning must not change THIS warning's
        # fan-out, or telemetry ordering would depend on list mutation
        # timing and break seeded-schedule replay.
        snapshot = tuple(self.telemetry)
        for subscriber in snapshot:
            subscriber(phi, time_to_failure)

    def fail_now(self, phi: PhiDevice) -> Event:
        """Fail ``phi`` immediately (synchronously, at the current time).

        Unlike :meth:`schedule_card_failure`, the kill happens before this
        call returns — the hook the fuzzer uses to inject a failure at an
        exact protocol phase boundary rather than at a wall-clock offset.
        """
        ev = Event(self.sim, name=f"fault:{phi!r}")
        self._fail(phi, ev)
        return ev

    def _fail(self, phi: PhiDevice, ev: Event) -> None:
        if phi in self.failed:
            return
        self.failed.append(phi)
        self.injected.append(f"card_failure:{phi.index}")
        phi.failed = True  # type: ignore[attr-defined]
        if phi.os is not None:
            for proc in list(phi.os.processes.values()):
                proc.terminate(code=139)
        ev.succeed(phi)

    def _repair(self, phi: PhiDevice) -> None:
        """The card was reset/replaced: re-boot its service daemons."""
        if phi not in self.failed:
            return
        self.failed.remove(phi)
        phi.failed = False  # type: ignore[attr-defined]

        def reboot(sim):
            from ..coi.daemon import COIDaemon
            from ..snapify_io.daemon import SnapifyIODaemon

            yield from COIDaemon.boot(phi)
            yield from SnapifyIODaemon.boot(phi.os)

        self.sim.spawn(reboot(self.sim), name=f"repair:{phi!r}", daemon=True)

    def is_failed(self, phi: PhiDevice) -> bool:
        return phi in self.failed

    # -- transient transfer-path faults ------------------------------------
    def schedule_link_flap(
        self, phi: PhiDevice, at: float, up_after: Optional[float] = None
    ) -> None:
        """Down ``phi``'s PCIe link at time ``at``; restore after
        ``up_after`` seconds (``None`` = the link stays down).

        A flap resets every SCIF endpoint crossing the link — in-flight
        RDMA transfers see :class:`ConnectionReset`, exactly the failure the
        resume protocol recovers from."""
        if at < self.sim.now:
            raise ValueError("cannot schedule a flap in the past")
        self.sim.schedule(at - self.sim.now, self.flap_link_now, phi, up_after)

    def flap_link_now(self, phi: PhiDevice, up_after: Optional[float] = None) -> None:
        """Down the link immediately (synchronous, fuzzer hook)."""
        self.injected.append(f"link_flap:{phi.index}")
        phi.link_down = True
        from ..scif.endpoint import ScifNetwork

        net = ScifNetwork.of(phi.node)
        for ep in list(net.endpoints):
            if ep.closed:
                continue
            if ep.os.hw is phi or (ep.peer is not None and ep.peer.os.hw is phi):
                ep.close()
        if up_after is not None:
            if up_after <= 0:
                raise ValueError("up_after must be positive")
            self.sim.schedule(up_after, self._unflap, phi)

    def _unflap(self, phi: PhiDevice) -> None:
        phi.link_down = False

    def schedule_io_daemon_crash(
        self, os, at: float, restart_after: Optional[float] = None
    ) -> None:
        """Crash the Snapify-IO daemon on ``os`` at time ``at``; optionally
        re-boot it ``restart_after`` seconds later."""
        if at < self.sim.now:
            raise ValueError("cannot schedule a crash in the past")
        self.sim.schedule(at - self.sim.now, self.crash_io_daemon_now, os, restart_after)

    def crash_io_daemon_now(self, os, restart_after: Optional[float] = None) -> None:
        """Kill the daemon process immediately (synchronous, fuzzer hook).

        Terminating the process closes its listeners, local sockets, and
        SCIF endpoints (they ride ``open_fds``), so clients see connection
        resets rather than silent hangs."""
        daemon = getattr(os, "snapify_io_daemon", None)
        if daemon is None or daemon.proc is None:
            return
        self.injected.append(f"io_daemon_crash:{os.name}")
        os.snapify_io_daemon = None
        daemon.proc.terminate(code=137)
        if restart_after is not None:
            if restart_after <= 0:
                raise ValueError("restart_after must be positive")

            def reboot(sim):
                from ..snapify_io.daemon import SnapifyIODaemon

                yield sim.sleep(restart_after)
                yield from SnapifyIODaemon.boot(os)

            self.sim.spawn(reboot(self.sim), name=f"io-daemon-restart:{os.name}",
                           daemon=True)

    def schedule_nfs_outage(
        self, node, at: float, restore_after: Optional[float] = None
    ) -> None:
        """Stop the host's NFS export at time ``at`` (clients see 'server
        not responding'); optionally restore it ``restore_after`` seconds
        later."""
        if at < self.sim.now:
            raise ValueError("cannot schedule an outage in the past")

        def stop() -> None:
            self.injected.append("nfs_outage")
            node.os.fs.exported = False

        def restore() -> None:
            node.os.fs.exported = True

        self.sim.schedule(at - self.sim.now, stop)
        if restore_after is not None:
            if restore_after <= 0:
                raise ValueError("restore_after must be positive")
            self.sim.schedule(at + restore_after - self.sim.now, restore)
