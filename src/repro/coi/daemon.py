"""The COI daemon (one per coprocessor).

The daemon launches offload processes on request from host applications,
monitors both ends (terminating orphaned offload processes and cleaning up
their local-store files), and — in the Snapify-extended stack — coordinates
the pause/capture/resume/restore protocol, dispatching snapify service
requests to handlers registered in :attr:`COIDaemon.extensions`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..hw.node import PhiDevice
from ..osim.process import OSInstance, SimProcess
from ..scif.endpoint import ConnectionReset, ScifEndpoint, ScifNetwork
from ..scif.ports import COI_DAEMON_PORT
from ..sim.errors import Interrupted
from . import messages as m
from .buffer import localstore_dir
from .process import card_main_factory
from .services import COIError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import OffloadBinary


@dataclass
class DaemonEntry:
    """Daemon-side bookkeeping for one offload process."""

    host_proc: SimProcess
    offload_proc: SimProcess
    port: int
    binary: "OffloadBinary"
    expected_exit: bool = False
    state: str = "running"  # running | terminated | crashed
    #: Daemon-side endpoint of the snapify control pipe (opened at pause).
    pipe: Optional[Any] = None


class COIDaemon:
    """One ``coi_daemon`` process on one Phi."""

    #: name -> handler(daemon, ep, msg) sub-generator; Snapify installs here.
    extensions: Dict[str, Callable] = {}

    def __init__(self, phi: PhiDevice):
        if phi.os is None:
            raise COIError(f"{phi!r}: boot the card OS before starting the daemon")
        self.phi = phi
        self.phi_os: OSInstance = phi.os
        self.sim = phi.sim
        self.entries: Dict[int, DaemonEntry] = {}
        self._ports = itertools.count(2000 + 10_000 * phi.scif_node_id)
        self.proc: Optional[SimProcess] = None
        #: Extension attachment point (Snapify's monitor-thread state).
        self.runtime: Dict[str, Any] = {}

    # -- boot -------------------------------------------------------------------
    @staticmethod
    def boot(phi: PhiDevice):
        """Sub-generator: start the daemon process on the card; returns it."""
        daemon = COIDaemon(phi)
        proc = yield from phi.os.spawn_process(
            f"coi_daemon.mic{phi.index}", image_size=8 * 1024 * 1024,
            main_factory=daemon._main_factory(), start=True,
        )
        daemon.proc = proc
        proc.main_thread.daemon = True  # service loop: never exits
        phi.coi_daemon = daemon  # type: ignore[attr-defined]
        return daemon

    @staticmethod
    def of(phi: PhiDevice) -> "COIDaemon":
        daemon = getattr(phi, "coi_daemon", None)
        if daemon is None:
            raise COIError(f"{phi!r}: COI daemon not booted")
        return daemon

    def _main_factory(self):
        def main(proc: SimProcess):
            net = ScifNetwork.of(self.phi.node)
            listener = net.listen(self.phi_os, COI_DAEMON_PORT)
            proc.runtime["listener"] = listener
            proc.open_fds.append(listener)  # released if the daemon dies
            while True:
                ep = yield listener.accept()
                # Owning the endpoint means a card failure (killing this
                # daemon) resets the host's connection instead of hanging it.
                proc.open_fds.append(ep)
                proc.spawn_thread(self._conn_handler(ep), name="daemon-conn", daemon=True)

        return main

    # -- per-connection service loop ------------------------------------------------
    def _conn_handler(self, ep: ScifEndpoint):
        while True:
            try:
                msg = yield ep.recv()
            except (ConnectionReset, Interrupted):
                # Host process went away; its exit watcher cleans up the
                # offload process, and the daemon forgets the endpoint.
                self.proc.close_fd(ep)
                return
            if not isinstance(msg, dict):
                raise COIError(f"daemon: bad message {msg!r}")
            mtype = msg.get("type")
            if mtype == m.LAUNCH:
                yield from self._handle_launch(ep, msg)
            elif mtype == m.SHUTDOWN_PROC:
                yield from self._handle_shutdown(ep, msg)
            elif mtype in self.extensions:
                yield from self.extensions[mtype](self, ep, msg)
            else:
                raise COIError(f"daemon: unknown request {mtype!r}")

    def _handle_launch(self, ep: ScifEndpoint, msg: Dict[str, Any]):
        binary: "OffloadBinary" = msg["binary"]
        host_proc: SimProcess = msg["host_proc"]
        port = next(self._ports)
        offload = yield from self.phi_os.spawn_process(
            f"{msg['name']}.offload", image_size=0,
            main_factory=card_main_factory(binary), start=False,
        )
        offload.store["_listen_port"] = port
        offload.store["_snapify_enabled"] = msg.get("snapify_enabled", True)
        listening = self.sim.event(f"listening:{offload.name}")
        offload.runtime["listening"] = listening
        entry = DaemonEntry(host_proc=host_proc, offload_proc=offload,
                            port=port, binary=binary)
        self.entries[offload.pid] = entry
        self._watch(entry)
        offload.start()
        yield listening  # card runtime is accepting connections
        yield from ep.send({"type": m.LAUNCH_OK, "pid": offload.pid, "port": port,
                            "offload_proc": offload})

    def _handle_shutdown(self, ep: ScifEndpoint, msg: Dict[str, Any]):
        entry = self.entries.get(msg["pid"])
        if entry is None:
            yield from ep.send({"type": m.REPLY, "ok": False})
            return
        self.terminate_offload(entry, expected=True)
        yield from ep.send({"type": m.REPLY, "ok": True})

    # -- monitoring --------------------------------------------------------------------
    def _watch(self, entry: DaemonEntry) -> None:
        def on_host_exit(proc: SimProcess) -> None:
            if proc is entry.host_proc and entry.offload_proc.alive:
                # Orphaned offload process: terminate and clean up (§2).
                self.terminate_offload(entry, expected=True)

        def on_offload_exit(proc: SimProcess) -> None:
            if proc is not entry.offload_proc:
                return
            if entry.state == "running":
                # Without Snapify's bookkeeping the daemon "will assume that
                # the offload process has crashed" (§3).
                entry.state = "terminated" if entry.expected_exit else "crashed"
            self._cleanup_localstore(entry)

        entry.host_proc.os.exit_watchers.append(on_host_exit)
        self.phi_os.exit_watchers.append(on_offload_exit)

    def terminate_offload(self, entry: DaemonEntry, expected: bool) -> None:
        entry.expected_exit = expected
        if entry.offload_proc.alive:
            entry.state = "terminated" if expected else "crashed"
            entry.offload_proc.terminate()

    def _cleanup_localstore(self, entry: DaemonEntry) -> None:
        prefix = localstore_dir(entry.offload_proc.pid)
        for path in self.phi_os.fs.listdir(prefix):
            self.phi_os.fs.unlink(path)

    def entry_for(self, offload_proc: SimProcess) -> DaemonEntry:
        entry = self.entries.get(offload_proc.pid)
        if entry is None:
            raise COIError(f"daemon has no entry for pid {offload_proc.pid}")
        return entry
