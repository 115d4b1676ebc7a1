"""Snapify: consistent snapshots of offload applications (the paper's core).

The API (:mod:`repro.snapify.api`) implements Table 1; the daemon service
and monitor thread live in :mod:`repro.snapify.monitor`; the card agent in
:mod:`repro.snapify.agent`; and the §5 use cases (checkpoint/restart,
swapping, migration) in :mod:`repro.snapify.usecases`.
"""

from . import constants
from .api import (
    snapify_capture,
    snapify_pause,
    snapify_restore,
    snapify_resume,
    snapify_t,
    snapify_wait,
)
from .cli import MIGRATE, SWAP_IN, SWAP_OUT, install_cli_handler, snapify_command
from .fleet import (
    BACKGROUND,
    MAINTENANCE,
    SWAP,
    CardHealth,
    CardRef,
    FleetManager,
    FleetResult,
    FleetTicket,
    HealthReport,
    fleet_sweep,
)
from .monitor import SnapifyError, SnapifyService, handle_service
from .ops import (
    OperationManager,
    OperationResult,
    SnapifyOperation,
    capture_sequence,
    snapshot_application,
)
from .usecases import (
    RestartResult,
    checkpoint_offload_app,
    host_context_path,
    restart_offload_app,
    snapify_migration,
    snapify_swapin,
    snapify_swapout,
    transfer_snapshot,
)

__all__ = [
    "BACKGROUND",
    "CardHealth",
    "CardRef",
    "FleetManager",
    "FleetResult",
    "FleetTicket",
    "HealthReport",
    "MAINTENANCE",
    "MIGRATE",
    "OperationManager",
    "OperationResult",
    "RestartResult",
    "SWAP",
    "SWAP_IN",
    "SWAP_OUT",
    "fleet_sweep",
    "SnapifyError",
    "SnapifyOperation",
    "SnapifyService",
    "capture_sequence",
    "checkpoint_offload_app",
    "snapshot_application",
    "constants",
    "handle_service",
    "host_context_path",
    "install_cli_handler",
    "restart_offload_app",
    "snapify_capture",
    "snapify_command",
    "snapify_migration",
    "snapify_pause",
    "snapify_restore",
    "snapify_resume",
    "snapify_swapin",
    "snapify_swapout",
    "snapify_t",
    "snapify_wait",
    "transfer_snapshot",
]
