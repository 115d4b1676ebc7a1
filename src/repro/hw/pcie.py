"""PCIe link model.

A link direction is a FIFO bandwidth resource: a transfer of ``nbytes``
occupies the direction for ``latency + nbytes / bandwidth`` seconds, and
concurrent transfers queue. Control messages and RDMA share the same wire,
so a bulk RDMA delays small messages behind it — exactly the contention that
makes "drain before snapshot" measurable in the pause phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.registry import MetricsRegistry
from ..sim.sync import Mutex
from .params import PCIeParams

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class BandwidthLink:
    """A FIFO, serially-occupied bandwidth resource."""

    def __init__(self, sim: "Simulator", bandwidth: float, name: str = "link"):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.name = name
        self._mutex = Mutex(sim, name=f"link:{name}")
        self.bytes_transferred = 0
        self.transfer_count = 0
        #: total time the wire spent occupied (for utilization gauges).
        self.busy_time = 0.0
        reg = MetricsRegistry.of(sim)
        reg.gauge(f"link.{name}.bytes", lambda: self.bytes_transferred)
        reg.gauge(f"link.{name}.transfers", lambda: self.transfer_count)
        reg.gauge(f"link.{name}.utilization", self.utilization)

    def occupy(self, nbytes: int, extra_latency: float = 0.0):
        """Sub-generator: hold the link for the duration of the transfer.

        A free link is taken without a resume, so an uncontended hop costs
        the one heap entry of its sleep. A transfer that finds the link held
        parks on the mutex's FIFO acquire event, which names the holder in
        ``wait_for_graph()``.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        mutex = self._mutex
        if not mutex.try_acquire():
            yield mutex.acquire()
        try:
            duration = extra_latency + nbytes / self.bandwidth
            yield self.sim.sleep(duration)
            self.bytes_transferred += nbytes
            self.transfer_count += 1
            self.busy_time += duration
        finally:
            self._mutex.release()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the wire was occupied."""
        now = self.sim.now
        return self.busy_time / now if now > 0 else 0.0

    @property
    def busy(self) -> bool:
        return self._mutex.locked


class PCIeLink:
    """Full-duplex PCIe connection between the host and one Phi card: one
    :class:`BandwidthLink` per direction. Transfers occupy them through the
    SCIF route model (:func:`repro.scif.endpoint.bulk_transfer`)."""

    def __init__(self, sim: "Simulator", params: PCIeParams, name: str = "pcie"):
        self.params = params
        self.h2d = BandwidthLink(sim, params.dma_bw_h2d, name=f"{name}.h2d")
        self.d2h = BandwidthLink(sim, params.dma_bw_d2h, name=f"{name}.d2h")
