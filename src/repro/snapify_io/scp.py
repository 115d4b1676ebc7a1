"""scp between the card and the host: the slowest Table 3 baseline.

scp over the PCIe virtual ethernet is a single ssh stream whose throughput
is bounded by one slow in-order Phi core doing encryption and MAC — tens of
MB/s against multi-GB/s RDMA, hence the paper's 22-30x gap at 1 GB.

The stream crosses the shared SCIF route in DMA-sized chunks: the cipher
paces the transfer (the link is idle between packets of a ~48 MB/s
stream), but every byte still crosses the wire, so scp traffic contends
with concurrent RDMA for link occupancy and shows up in the link byte
counters — the paper's Table-3-under-load comparison depends on that.
"""

from __future__ import annotations

from ..hw.params import ScpParams
from ..osim.process import OSInstance
from ..osim.sockets import SocketError
from ..scif.endpoint import ScifNetwork, bulk_transfer

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
        if os_.kind == os_.PHI and os_.hw.link_down:
            raise SocketError(f"scp: network unreachable ({os_.name}: link down)")
    f = src_os.fs.stat(src_path)
    sim = src_os.sim
    node = src_os.hw if src_os.kind == src_os.HOST else src_os.hw.node
    hops = ScifNetwork.of(node).route(src_os, dst_os)
    yield sim.sleep(params.connection_setup + params.per_file_overhead)
    remaining = f.size
    while remaining > 0:
        chunk = min(remaining, _CHUNK)
        # The cipher core is the bottleneck: each chunk is paced to the
        # single-stream ssh rate over an otherwise idle link.
        yield from bulk_transfer(sim, hops, chunk, node.params.pcie.message_latency,
                                 chunk / params.bandwidth)
        remaining -= chunk
    yield from dst_os.fs.write(dst_path, f.size, payload=f.payload)
