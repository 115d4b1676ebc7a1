"""RDMA window registration.

``scif_register()`` pins a memory range and returns an *offset* — the
address used by the RDMA verbs. Offsets are allocated from one counter per
simulator that never resets, so re-registering the same buffer after a
process is restored yields a *different* offset, on any card. That detail
forces Snapify's (old, new) address lookup table (§4.3), and our tests
exercise it. The counter is shared by every OS of the simulator because the
table chains old offsets to new ones across restores: a process that moves
mic1 -> mic2 -> mic0 must never be handed an offset it held on an earlier
card, or the chain closes into a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw.node import ServerNode
from .endpoint import ScifEndpoint, ScifError

if TYPE_CHECKING:  # pragma: no cover
    from ..osim.process import OSInstance

_PAGE = 4096


class RdmaRegistry:
    """Per-simulator allocator of RDMA window offsets."""

    def __init__(self):
        #: First page of the next window.
        self._next = 0x1_0000

    @staticmethod
    def of(os: "OSInstance") -> "RdmaRegistry":
        """The registry shared by every OS of ``os``'s simulator."""
        sim = os.sim
        reg = getattr(sim, "rdma_registry", None)
        if reg is None:
            reg = RdmaRegistry()
            sim.rdma_registry = reg  # type: ignore[attr-defined]
        return reg

    def allocate_offset(self, nbytes: int) -> int:
        pages = max(1, (nbytes + _PAGE - 1) // _PAGE)
        base = self._next
        # Skip past the window plus one guard page so offsets never collide.
        self._next = base + pages + 1
        return base * _PAGE


def _pcie_params(os: "OSInstance"):
    hw = getattr(os, "hw", None)
    if isinstance(hw, ServerNode):
        return hw.params.pcie
    if hw is not None:
        return hw.node.params.pcie
    raise ScifError(f"{os.name}: OS not attached to hardware")


def scif_register(ep: ScifEndpoint, nbytes: int):
    """Sub-generator: register ``nbytes`` on ``ep``; returns the offset.

    Charges the page-pinning cost locally (no PCIe traffic), and accounts
    the pinned range against the OS's physical memory under the
    ``rdma_staging`` category so leaked registrations are visible to the
    memory-accounting and ``staging_buffers_released`` oracles. The bytes
    are released by ``scif_unregister`` or by ``ScifEndpoint.close()``.
    """
    if ep.closed:
        raise ScifError(f"ep{ep.eid}: register on closed endpoint")
    if nbytes <= 0:
        raise ScifError("cannot register an empty window")
    params = _pcie_params(ep.os)
    cost = params.register_latency_fixed + params.register_latency_per_mb * (
        nbytes / (1024 * 1024)
    )
    yield ep.sim.sleep(cost)
    if ep.closed:
        # Closed while pinning: close() already released this endpoint's
        # windows, so a window added now would never be freed.
        raise ScifError(f"ep{ep.eid}: endpoint closed during register")
    ep.os.memory.allocate(nbytes, "rdma_staging")
    offset = RdmaRegistry.of(ep.os).allocate_offset(nbytes)
    ep.windows[offset] = nbytes
    return offset


def scif_unregister(ep: ScifEndpoint, offset: int) -> None:
    if offset not in ep.windows:
        raise ScifError(f"ep{ep.eid}: unregister of unknown offset {offset:#x}")
    ep.os.memory.free(ep.windows[offset], "rdma_staging")
    del ep.windows[offset]


def check_remote_window(ep: ScifEndpoint, remote_offset: int, nbytes: int) -> None:
    """Validate that the peer registered ``remote_offset`` for >= nbytes."""
    peer = ep.peer
    if peer is None or peer.closed:
        raise ScifError(f"ep{ep.eid}: no live peer for RDMA")
    size = peer.windows.get(remote_offset)
    if size is None:
        raise ScifError(
            f"ep{ep.eid}: RDMA to unregistered remote offset {remote_offset:#x} "
            "(stale address after restore?)"
        )
    if nbytes > size:
        raise ScifError(
            f"ep{ep.eid}: RDMA of {nbytes} bytes overruns window of {size} bytes"
        )


def check_local_window(ep: ScifEndpoint, local_offset: int, nbytes: int) -> None:
    size = ep.windows.get(local_offset)
    if size is None:
        raise ScifError(f"ep{ep.eid}: local offset {local_offset:#x} not registered")
    if nbytes > size:
        raise ScifError(
            f"ep{ep.eid}: RDMA of {nbytes} bytes overruns local window of {size} bytes"
        )
