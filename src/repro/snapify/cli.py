"""The ``snapify`` command-line utility (§5, "Command-line tools").

The real utility takes the host process PID and a command (swap-out,
swap-in, migrate), signals the host process, and passes the command through
a pipe; a Snapify-installed signal handler in the host process then invokes
the §5 functions. We model the utility as :func:`snapify_command`: an
external actor (a job scheduler, a test) that drives a running offload
application without its cooperation — the "application-transparent" path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..coi.engine import COIEngine
from ..osim import signals as sig
from ..osim.process import SimProcess
from ..sim.events import Event
from .api import snapify_t
from .monitor import SnapifyError
from .usecases import snapify_migration, snapify_swapin, snapify_swapout

if TYPE_CHECKING:  # pragma: no cover
    pass

SWAP_OUT = "swap-out"
SWAP_IN = "swap-in"
MIGRATE = "migrate"


def install_cli_handler(host_proc: SimProcess) -> None:
    """Install Snapify's host-process signal handler.

    The handler reads the pending command from the utility's pipe (modeled
    as ``runtime['snapify_cli_cmd']``) and runs the matching §5 function.
    The current COIProcess handle is found at ``runtime['coi_handle']`` —
    the convention our offload-application framework maintains.
    """

    def handler(proc: SimProcess, signum: int):
        cmd = proc.runtime.pop("snapify_cli_cmd", None)
        if cmd is None:
            return
        kind, engine, path, done = cmd
        # The application gate (if the program installed one) keeps app
        # threads out of COI operations while the handle is being replaced.
        # Swap-out holds it until the matching swap-in: a swapped-out
        # process is *supposed* to make no progress.
        gate = proc.runtime.get("app_gate")
        try:
            if kind == SWAP_OUT:
                if gate is not None:
                    yield gate.acquire(owner="snapify-cli")
                coiproc = proc.runtime["coi_handle"]
                snap = yield from snapify_swapout(path, coiproc)
                proc.runtime["swapped_out"] = snap
                done.succeed(snap)
            elif kind == SWAP_IN:
                snap = proc.runtime.pop("swapped_out", None)
                if snap is None:
                    raise SnapifyError("swap-in: nothing swapped out")
                new = yield from snapify_swapin(snap, engine, proc)
                proc.runtime["coi_handle"] = new
                if gate is not None:
                    gate.release()
                done.succeed(new)
            elif kind == MIGRATE:
                if gate is not None:
                    yield gate.acquire(owner="snapify-cli")
                try:
                    coiproc = proc.runtime["coi_handle"]
                    new, _ = yield from snapify_migration(coiproc, engine, path)
                    proc.runtime["coi_handle"] = new
                finally:
                    if gate is not None:
                        gate.release()
                done.succeed(new)
            else:
                raise SnapifyError(f"snapify cli: unknown command {kind!r}")
        except SnapifyError as exc:
            if not done.triggered:
                done.fail(exc)

    host_proc.install_signal_handler(sig.SIGUSR1, handler)


def snapify_command(
    host_proc: SimProcess,
    command: str,
    engine: Optional[COIEngine] = None,
    snapshot_path: str = "/tmp/snapify_cli",
) -> Event:
    """Issue a command to a running host process, like the real utility:
    signal it and pass the command through a pipe. Returns an event that
    succeeds with the result (a snapify_t for swap-out, a new handle for
    swap-in/migrate)."""
    if command in (SWAP_IN, MIGRATE) and engine is None:
        raise SnapifyError(f"{command} needs a target device (engine)")
    done = Event(host_proc.sim, name=f"snapify-cli:{command}")
    host_proc.runtime["snapify_cli_cmd"] = (command, engine, snapshot_path, done)
    host_proc.deliver_signal(sig.SIGUSR1)
    return done
