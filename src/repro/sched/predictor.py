"""Failure prediction driving proactive migration.

§1: "by using fault prediction methods, it is possible to avoid imminent
coprocessor failures by proactively migrating processes to other healthy
coprocessors." The predictor subscribes to the fault injector's degradation
telemetry and, on a warning, migrates every offload process off the sick
card via the snapify CLI path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

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

    def _on_warning(self, phi: PhiDevice, time_to_failure: float) -> None:
        victims = [p for p in self.server.host_os.processes.values()
                   if p.alive and (h := p.runtime.get("coi_handle")) is not None
                   and not h.dead and h.offload_proc.os is phi.os]
        healthy = [card for card in self.server.node.phis
                   if card is not phi and not card.failed]
        if not victims or not healthy:
            return  # nothing to move, or nowhere to go: the jobs die with the card
        # The healthiest other card: the one with the most free memory.
        target = max(healthy, key=lambda card: card.memory.available).index
        for host_proc in victims:
            self.sim.spawn(
                self._migrate(host_proc, phi.index, target),
                name=f"evacuate:{host_proc.name}",
                daemon=True,
            )

    def _migrate(self, host_proc: SimProcess, src: int, dst: int):
        yield snapify_command(
            host_proc, MIGRATE, engine=COIEngine(self.server.node, dst),
            snapshot_path=f"/tmp/evacuate_{host_proc.pid}",
        )
        self.migrations_done.append((host_proc.name, src, dst, self.sim.now))
