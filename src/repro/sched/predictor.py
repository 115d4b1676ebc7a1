"""Failure prediction driving proactive migration.

§1: "by using fault prediction methods, it is possible to avoid imminent
coprocessor failures by proactively migrating processes to other healthy
coprocessors." The predictor subscribes to the fault injector's degradation
telemetry and, on a warning, migrates every offload process off the sick
card via the snapify CLI path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..coi.engine import COIEngine
from ..hw.node import PhiDevice
from ..osim.process import SimProcess
from ..snapify.cli import MIGRATE, snapify_command
from .faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer


class ProactiveMigrator:
    """Watches telemetry; evacuates processes from failing cards.

    A warning's victims are read from the live processes, not registered:
    every live host process whose ``runtime["coi_handle"]`` offload process
    runs on the sick card (the convention :class:`~repro.apps.offload.
    OffloadApplication` and the snapify CLI maintain)."""

    def __init__(self, server: "XeonPhiServer", injector: FaultInjector):
        self.server = server
        self.sim = server.sim
        self.migrations_done: List[tuple] = []
        injector.subscribe(self._on_warning)

    def _pick_target(self, sick: PhiDevice) -> Optional[int]:
        """Healthiest other card: most free memory, not failed."""
        best, best_free = None, -1
        for phi in self.server.node.phis:
            if phi is sick or phi.failed:
                continue
            if phi.memory.available > best_free:
                best, best_free = phi.index, phi.memory.available
        return best

    def _on_warning(self, phi: PhiDevice, time_to_failure: float) -> None:
        victims = []
        for proc in self.server.host_os.processes.values():
            handle = proc.runtime.get("coi_handle")
            if (proc.alive and handle is not None and not handle.dead
                    and handle.offload_proc.os is phi.os):
                victims.append(proc)
        if not victims:
            return
        target = self._pick_target(phi)
        if target is None:
            return  # nowhere to go; the jobs will die with the card
        for host_proc in victims:
            self.sim.spawn(
                self._migrate(host_proc, phi.index, target),
                name=f"evacuate:{host_proc.name}",
                daemon=True,
            )

    def _migrate(self, host_proc: SimProcess, src: int, dst: int):
        engine = COIEngine(self.server.node, dst)
        done = snapify_command(
            host_proc, MIGRATE, engine=engine,
            snapshot_path=f"/tmp/evacuate_{host_proc.pid}",
        )
        yield done
        self.migrations_done.append((host_proc.name, src, dst, self.sim.now))
