"""Snapify-IO: RDMA-based remote file access, plus the NFS/scp baselines."""

from .daemon import (
    ABORT_MARKER,
    COMMITTED,
    EOF_MARKER,
    SOCKET_ADDR,
    SnapifyIODaemon,
    SnapifyIOError,
    resume_digest,
)
from .library import SnapifyIOFile, snapifyio_open
from .memtier import (
    TIER_CATEGORY,
    ChainEntry,
    MemoryTier,
    TierCopy,
    TierError,
    TierLink,
    chain_path,
)
from .nfs import NFSKernelBufferedFD, NFSMount, NFSUserBufferedFD
from .resilience import (
    ChannelUnavailable,
    RetryPolicy,
    TransferFailed,
    TransferManager,
    TransferOutcome,
)
from .scp import scp_copy

__all__ = [
    "ABORT_MARKER",
    "COMMITTED",
    "ChainEntry",
    "ChannelUnavailable",
    "EOF_MARKER",
    "MemoryTier",
    "NFSKernelBufferedFD",
    "NFSMount",
    "NFSUserBufferedFD",
    "RetryPolicy",
    "SOCKET_ADDR",
    "SnapifyIODaemon",
    "SnapifyIOError",
    "SnapifyIOFile",
    "TIER_CATEGORY",
    "TierCopy",
    "TierError",
    "TierLink",
    "TransferFailed",
    "TransferManager",
    "TransferOutcome",
    "chain_path",
    "resume_digest",
    "scp_copy",
    "snapifyio_open",
]
