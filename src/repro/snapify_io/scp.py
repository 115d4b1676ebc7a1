"""scp between the card and the host: the slowest Table 3 baseline.

scp over the PCIe virtual ethernet is a single ssh stream whose throughput
is bounded by one slow in-order Phi core doing encryption and MAC — tens of
MB/s against multi-GB/s RDMA, hence the paper's 22-30x gap at 1 GB.

The stream is routed through the PCIe link model in DMA-sized chunks: the
cipher paces the transfer (the link is idle between packets of a ~48 MB/s
stream), but every byte still crosses the wire, so scp traffic contends
with concurrent RDMA for link occupancy and shows up in the link byte
counters — the paper's Table-3-under-load comparison depends on that.
"""

from __future__ import annotations

from ..hw.params import ScpParams
from ..osim.process import OSInstance
from ..osim.sockets import SocketError
from ..scif.endpoint import _segments

_CHUNK = 4 * 1024 * 1024


def scp_copy(
    src_os: OSInstance,
    dst_os: OSInstance,
    src_path: str,
    dst_path: str,
    params: ScpParams,
):
    """Sub-generator: copy ``src_path`` on ``src_os`` to ``dst_path`` on
    ``dst_os``. Charges connection setup, the encrypted stream (routed over
    the PCIe link(s) between the two nodes), and the destination write
    (page cache / RAM-FS)."""
    for os_ in (src_os, dst_os):
        if getattr(getattr(os_, "hw", None), "link_down", False):
            raise SocketError(f"scp: network unreachable ({os_.name}: link down)")
    f = src_os.fs.stat(src_path)
    sim = src_os.sim
    segments = _segments(src_os, dst_os)
    yield sim.sleep(params.connection_setup + params.per_file_overhead)
    remaining = f.size
    while remaining > 0:
        chunk = min(remaining, _CHUNK)
        t0 = sim.now
        for link, direction in segments:
            yield from link.message(direction, chunk)
        # The cipher core is the bottleneck: pad each chunk up to the
        # single-stream ssh rate. Under link contention the wire time can
        # exceed the cipher pace — then the link is what we wait for.
        pace = chunk / params.bandwidth - (sim.now - t0)
        if pace > 0:
            yield sim.sleep(pace)
        remaining -= chunk
    yield from dst_os.fs.write(dst_path, f.size, payload=f.payload)
