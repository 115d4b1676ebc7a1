"""BLCR: application-transparent single-process checkpoint/restart."""

from .checkpoint import (
    BLCRError,
    cr_checkpoint,
    cr_checkpoint_incremental,
    cr_request_checkpoint,
    cr_request_checkpoint_incremental,
)
from .context import (
    BASE_SMALL_RECORDS,
    BULK_CHUNK,
    RECORDS_PER_THREAD,
    SMALL_RECORD,
    ProcessContext,
    RegionImage,
)
from .dirty import PAGE_SIZE, DirtyBitmap, RegionTracker
from .incremental import (
    ChainError,
    DeltaImage,
    RegionDelta,
    capture_incremental,
    reassemble,
    state_fingerprint,
)
from .plugins import (
    CheckpointPlugin,
    PluginError,
    PluginImage,
    PluginRegistry,
    RamFSFilePlugin,
    RdmaMigrateError,
    RdmaWindowPlugin,
    SignalPlugin,
    SocketPlugin,
    SocketRestoreError,
    register_standard_plugins,
    replay_rdma_windows,
)
from .restart import cr_restart, cr_restore_context

__all__ = [
    "BASE_SMALL_RECORDS",
    "BLCRError",
    "BULK_CHUNK",
    "ChainError",
    "CheckpointPlugin",
    "DeltaImage",
    "DirtyBitmap",
    "PAGE_SIZE",
    "PluginError",
    "PluginImage",
    "PluginRegistry",
    "ProcessContext",
    "RECORDS_PER_THREAD",
    "RamFSFilePlugin",
    "RdmaMigrateError",
    "RdmaWindowPlugin",
    "RegionDelta",
    "RegionTracker",
    "RegionImage",
    "SMALL_RECORD",
    "SignalPlugin",
    "SocketPlugin",
    "SocketRestoreError",
    "capture_incremental",
    "register_standard_plugins",
    "replay_rdma_windows",
    "cr_checkpoint",
    "cr_checkpoint_incremental",
    "cr_request_checkpoint",
    "cr_request_checkpoint_incremental",
    "cr_restart",
    "cr_restore_context",
    "reassemble",
    "state_fingerprint",
]
