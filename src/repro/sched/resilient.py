"""A resilient runner: periodic checkpoints + automatic restart.

The downstream consumer the paper's conclusion imagines: wrap an offload
application in periodic Snapify checkpoints so injected coprocessor
failures cost only the work since the last snapshot. On a failure the
runner terminates the orphaned host process, picks a healthy card, and
restarts the whole application from the latest snapshot directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..apps.offload import OffloadApplication
from ..snapify.api import snapify_t
from ..snapify.usecases import checkpoint_offload_app, restart_offload_app

if TYPE_CHECKING:  # pragma: no cover
    from ..testbed import XeonPhiServer

#: Host directory the runner's checkpoints go under (``ckpt<n>`` each).
SNAPSHOT_ROOT = "/resilient"


class ResilientRunner:
    """Runs one offload application to completion despite card failures."""

    def __init__(
        self,
        server: "XeonPhiServer",
        app: OffloadApplication,
        interval: float,
        restart_from_scratch: bool = False,
        detection_latency: float = 0.05,
        max_recover_attempts: int = 3,
    ):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if detection_latency < 0:
            raise ValueError("detection latency must be non-negative")
        if max_recover_attempts < 1:
            raise ValueError("need at least one recovery attempt")
        self.server = server
        self.sim = server.sim
        self.app = app
        self.interval = interval
        #: Policy for a failure before the first checkpoint: relaunch the
        #: job from iteration zero (True) or raise (False).
        self.restart_from_scratch = restart_from_scratch
        #: Sim-seconds between a failure and the runner acting on it; also
        #: the back-off between recovery retries.
        self.detection_latency = detection_latency
        #: How many restart attempts one recovery makes before giving up
        #: (a second card can die mid-restart; each retry re-picks a
        #: healthy card, so a repaired card rescues a later attempt).
        self.max_recover_attempts = max_recover_attempts
        self.checkpoints_taken = 0
        self.restarts = 0
        self.latest_snapshot: Optional[str] = None
        self.events: List[tuple] = []

    # -- helpers ----------------------------------------------------------------
    def _healthy_engine(self):
        for phi in self.server.node.phis:
            if not phi.failed:
                return self.server.engine(phi.index)
        raise RuntimeError("no healthy coprocessor left")

    def _offload_alive(self) -> bool:
        handle = self.app.host_proc.runtime.get("coi_handle")
        return handle is not None and not handle.dead and handle.offload_proc.alive

    # -- main loop -----------------------------------------------------------------
    def run(self):
        """Sub-generator: drive the app to completion; returns its store."""
        if self.app.host_proc is None:
            yield from self.app.launch()
        while True:
            # Wait one interval (or until the app finishes first). The app
            # main thread may die mid-wait if its card fails under it —
            # that failure is recovered from, not propagated.
            done = self.app.host_proc.main_thread.done
            timer = self.sim.timeout(self.interval, "tick")
            try:
                yield self.sim.any_of([done, timer])
            except Exception:
                yield from self._recover()
                continue
            if done.triggered:
                break

            if not self._offload_alive() or not self.app.host_proc.alive:
                yield from self._recover()
                continue

            path = f"{SNAPSHOT_ROOT}/ckpt{self.checkpoints_taken}"
            snap = snapify_t(snapshot_path=path,
                             coiproc=self.app.host_proc.runtime["coi_handle"])
            try:
                yield from checkpoint_offload_app(snap)
            except Exception:
                # The card died mid-checkpoint: recover from the previous one.
                yield from self._recover()
                continue
            self.checkpoints_taken += 1
            self.latest_snapshot = path
            self.events.append(("checkpoint", path, self.sim.now))

        return self.app.host_proc.store

    def _recover(self):
        if self.latest_snapshot is None and not self.restart_from_scratch:
            raise RuntimeError("failure before the first checkpoint: work lost")
        self.restarts += 1
        self.events.append(("failure", self.sim.now))
        attempts = 0
        while True:
            attempts += 1
            proc = self.app.host_proc
            if proc is not None and proc.alive:
                proc.terminate(code=1)
            yield self.sim.sleep(self.detection_latency)
            try:
                if self.latest_snapshot is None:
                    # No checkpoint yet: rerun the whole job on a healthy card.
                    self.app.host_proc = None
                    self.app.device = self._healthy_engine().device_id
                    yield from self.app.launch()
                    self.events.append(("relaunch", self.sim.now))
                    return
                result = yield from restart_offload_app(
                    self.server.host_os, self.latest_snapshot, self._healthy_engine()
                )
            except Exception:
                # A second card died mid-restart (or no card was healthy
                # yet). Retry on whatever card is healthy after another
                # detection delay, up to the attempt budget.
                if attempts >= self.max_recover_attempts:
                    raise
                self.events.append(("recover_retry", self.sim.now))
                continue
            self.app.host_proc = result.host_proc
            self.events.append(("restart", self.latest_snapshot, self.sim.now))
            return
