"""Checkpoint-content plugins: the DMTCP hook model over BLCR serialization.

BLCR's monolithic capture knows memory regions, the store, and thread
counts — and nothing else, so sockets, RAM-FS file offsets, signal
dispositions, and SCIF RDMA windows silently vanish across a
checkpoint/restart. This module refactors the seam the way DMTCP did
(Arya et al., PAPERS.md): each resource type is a :class:`CheckpointPlugin`
registered per OS (or per process) with three hooks:

* ``pre_pause(proc)`` — a drain hook the Snapify agent runs at the DRAINED
  boundary, after the COI runtime quiesced, so the plugin's resource is
  quiet before capture (e.g. socket receive queues are empty).
* ``pre_checkpoint(proc) -> PluginImage`` — freeze the resource into an
  image that rides inside the :class:`~repro.blcr.context.ProcessContext`.
  Each image declares how many metadata records and bulk bytes it adds to
  the serialized stream, so its cost flows through the existing
  ``write_plan()`` accounting unchanged.
* ``post_restart(proc, image, os)`` — a sub-generator that rebuilds the
  resource on the restore target, or raises a typed :class:`PluginError`
  when it cannot (the fail-loud alternative to silent corruption).

As in DMTCP, the core image stays in the core: memory regions and the
store are copied by :meth:`ProcessContext.capture` itself, and a registry
holds only the plugins for extra resources. The default registry is empty
and adds nothing to the stream. Plugins are opt-in per OS::

    registry = PluginRegistry.of(phi_os)
    registry.register(SocketPlugin())
    registry.register(SignalPlugin())
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..osim.fd import RegularFileFD
from ..osim.sockets import SocketError, UnixSocket
from ..sim.errors import SimError

if TYPE_CHECKING:  # pragma: no cover
    from ..osim.process import OSInstance, SimProcess


class PluginError(SimError):
    """A checkpoint plugin could not capture or restore its resource."""


class SocketRestoreError(PluginError):
    """Socket endpoints could not be re-bound/reconnected on the target."""


class RdmaMigrateError(PluginError):
    """Live RDMA windows cannot be transplanted to the restore target."""


#: runtime[] key: RDMA window specs awaiting :func:`replay_rdma_windows`.
RDMA_PENDING_KEY = "rdma_restore_pending"


@dataclass
class PluginImage:
    """One plugin's serialized resource, carried inside a context image.

    ``records`` small metadata records and ``bulk_bytes`` bulk payload are
    added to the owning context's write plan — the plugin's serialization
    cost is charged through exactly the same accounting as regions.
    """

    plugin: str
    records: int = 1
    bulk_bytes: int = 0
    payload: Any = None


class CheckpointPlugin:
    """Base class: one resource type's checkpoint/restore hooks."""

    #: Registry key; also recorded in every image this plugin produces.
    name = "plugin"

    def pre_pause(self, proc: "SimProcess"):
        """Sub-generator drain hook, run at the DRAINED boundary. Default:
        nothing to drain."""
        return None
        yield  # pragma: no cover - generator form

    def pre_checkpoint(self, proc: "SimProcess") -> Optional[PluginImage]:
        """Freeze this plugin's resource; ``None`` = nothing to capture."""
        return None

    def post_restart(self, proc: "SimProcess", image: PluginImage, os: "OSInstance"):
        """Sub-generator: rebuild the resource on ``os``; raise a typed
        :class:`PluginError` when the target cannot host it."""
        return None
        yield  # pragma: no cover - generator form

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class PluginRegistry:
    """Ordered set of checkpoint plugins, in registration order.

    One registry per OS (``PluginRegistry.of(os)``). The default registry
    is empty.
    """

    def __init__(self):
        self._plugins: List[CheckpointPlugin] = []

    @staticmethod
    def of(os: "OSInstance") -> "PluginRegistry":
        reg = getattr(os, "checkpoint_plugins", None)
        if reg is None:
            reg = PluginRegistry()
            os.checkpoint_plugins = reg  # type: ignore[attr-defined]
        return reg

    def register(self, plugin: CheckpointPlugin) -> CheckpointPlugin:
        """Add (or replace, by name) a plugin; returns it. Idempotent."""
        for i, existing in enumerate(self._plugins):
            if existing.name == plugin.name:
                self._plugins[i] = plugin
                return plugin
        self._plugins.append(plugin)
        return plugin

    def get(self, name: str) -> CheckpointPlugin:
        for plugin in self._plugins:
            if plugin.name == name:
                return plugin
        raise PluginError(
            f"context carries a {name!r} plugin image but the target OS has "
            "no such plugin registered"
        )

    def __iter__(self):
        return iter(self._plugins)

    def __len__(self) -> int:
        return len(self._plugins)

    def drain_plugins(self) -> List[CheckpointPlugin]:
        """Plugins that actually override the ``pre_pause`` drain hook."""
        return [
            p for p in self._plugins
            if type(p).pre_pause is not CheckpointPlugin.pre_pause
        ]

    def capture(self, proc: "SimProcess") -> List[PluginImage]:
        """Run every plugin's ``pre_checkpoint``; drop empty images."""
        images: List[PluginImage] = []
        for plugin in self._plugins:
            image = plugin.pre_checkpoint(proc)
            if image is not None:
                images.append(image)
        return images


# ---------------------------------------------------------------------------
# Shipped plugins
# ---------------------------------------------------------------------------


class SocketPlugin(CheckpointPlugin):
    """UNIX sockets: re-bind listener names and reconnect client sockets.

    Captures three socket classes from the process's fd table:

    * intra-process pairs (both halves owned by the process) — recreated as
      a fresh pair on the target;
    * namespace-connected clients (``socket.address`` set by
      :meth:`~repro.osim.sockets.SocketNamespace.connect`) — reconnected
      through the target OS's namespace, which fails loudly with
      :class:`SocketRestoreError` when no listener holds the name there
      (the cross-node-migrate case);
    * listeners the process owns — re-bound on the target namespace
      (a bind collision is also a :class:`SocketRestoreError`).

    Sockets whose peer lives in another process and that carry no namespace
    address cannot be reconstructed at all: restore refuses loudly instead
    of silently dropping them. Restored descriptors land in
    ``proc.runtime["restored_sockets"]`` keyed by their original fd name.
    """

    name = "sockets"

    def pre_pause(self, proc: "SimProcess"):
        """Drain hook: wait until every open socket's receive queue is empty
        (a datagram in flight at capture time would be lost)."""
        sim = proc.sim
        while any(
            isinstance(fd, UnixSocket) and not fd.closed and fd._rx.qsize > 0
            for fd in proc.open_fds
        ):
            yield sim.sleep(100e-6)

    def pre_checkpoint(self, proc: "SimProcess") -> Optional[PluginImage]:
        open_socks = [
            fd for fd in proc.open_fds if isinstance(fd, UnixSocket) and not fd.closed
        ]
        owned = {id(fd) for fd in open_socks}
        pairs, clients, orphans = [], [], []
        seen: set = set()
        for fd in open_socks:
            if id(fd) in seen:
                continue
            if fd.peer is not None and id(fd.peer) in owned:
                seen.add(id(fd))
                seen.add(id(fd.peer))
                pairs.append({
                    "base": fd.name.rsplit(".", 1)[0],
                    "a": fd.name, "b": fd.peer.name,
                    "bandwidth": fd.bandwidth,
                })
            elif fd.address is not None:
                seen.add(id(fd))
                clients.append({
                    "name": fd.name, "address": fd.address,
                    "bandwidth": fd.bandwidth,
                })
            else:
                seen.add(id(fd))
                orphans.append(fd.name)
        listeners = [lst.address for lst in proc.listeners]
        if not (pairs or clients or orphans or listeners):
            return None
        return PluginImage(
            self.name,
            records=1 + len(pairs) + len(clients) + len(listeners),
            payload={"pairs": pairs, "clients": clients,
                     "listeners": listeners, "orphans": orphans},
        )

    def post_restart(self, proc: "SimProcess", image: PluginImage, os: "OSInstance"):
        payload = image.payload
        if payload["orphans"]:
            raise SocketRestoreError(
                f"{proc.name}: socket(s) {payload['orphans']} are connected to "
                "another process and carry no namespace address; they cannot "
                "be reconnected on the restore target"
            )
        restored: Dict[str, Any] = proc.runtime.setdefault("restored_sockets", {})
        for address in payload["listeners"]:
            try:
                listener = os.sockets.listen(address, owner=proc)
            except SocketError as exc:
                raise SocketRestoreError(
                    f"{proc.name}: cannot re-bind listener {address!r} on "
                    f"{os.name}: {exc}"
                ) from exc
            restored[f"listen:{address}"] = listener
        for pair in payload["pairs"]:
            a, b = UnixSocket.pair(proc.sim, pair["bandwidth"], name=pair["base"])
            proc.register_fd(a)
            proc.register_fd(b)
            restored[pair["a"]] = a
            restored[pair["b"]] = b
        for client in payload["clients"]:
            try:
                sock = yield from os.sockets.connect(
                    client["address"], bandwidth=client["bandwidth"]
                )
            except SocketError as exc:
                raise SocketRestoreError(
                    f"{proc.name}: cannot reconnect {client['name']} to "
                    f"{client['address']!r} on {os.name} (no listener on the "
                    f"restore target): {exc}"
                ) from exc
            proc.register_fd(sock)
            restored[client["name"]] = sock


class RamFSFilePlugin(CheckpointPlugin):
    """Open RAM-FS files: offsets and dirty content survive restore.

    Captures every open :class:`~repro.osim.fd.RegularFileFD` on the
    process's own file system — path, mode, read cursor, and the record
    stream (the file *content* rides in the image's bulk bytes, so a
    restore on another card recreates the file there). The restored process
    finds reopened descriptors, cursors intact, in
    ``proc.runtime["restored_files"]`` keyed by path — a reader parked
    mid-file resumes at the same record.
    """

    name = "ramfs_files"

    def pre_checkpoint(self, proc: "SimProcess") -> Optional[PluginImage]:
        files = []
        for fd in proc.open_fds:
            if not isinstance(fd, RegularFileFD) or fd.closed or fd.fs is not proc.os.fs:
                continue
            size = fd.fs.stat(fd.path).size if fd.fs.exists(fd.path) else 0
            files.append({
                "path": fd.path, "mode": fd.mode, "sync": fd.sync,
                "cursor": fd._read_cursor, "size": size,
                "records": copy.deepcopy(fd._records),
            })
        if not files:
            return None
        return PluginImage(
            self.name,
            records=1 + len(files),
            bulk_bytes=sum(f["size"] for f in files),
            payload={"files": files},
        )

    def post_restart(self, proc: "SimProcess", image: PluginImage, os: "OSInstance"):
        restored: Dict[str, Any] = proc.runtime.setdefault("restored_files", {})
        for spec in image.payload["files"]:
            path = spec["path"]
            if spec["mode"] == "w":
                # Reopening for write truncates (POSIX O_TRUNC), so open
                # first, then replay the dirty content the image carried
                # (charging the target file system's write cost).
                fd = RegularFileFD(proc.sim, os.fs, path, "w", sync=spec["sync"])
                if spec["size"]:
                    yield from os.fs.write(path, spec["size"],
                                           payload=copy.deepcopy(spec["records"]))
                fd._records = copy.deepcopy(spec["records"])
            else:
                if not os.fs.exists(path):
                    # The content travelled inside the image: recreate the
                    # file on the target RAM-FS before reopening it.
                    os.fs.create(path)
                    if spec["size"]:
                        yield from os.fs.write(
                            path, spec["size"],
                            payload=copy.deepcopy(spec["records"]),
                        )
                fd = RegularFileFD(proc.sim, os.fs, path, "r", sync=spec["sync"])
                fd._records = copy.deepcopy(spec["records"])
                fd._read_cursor = spec["cursor"]
            proc.register_fd(fd)
            restored[path] = fd


class SignalPlugin(CheckpointPlugin):
    """Signal state: pending/blocked sets and handlers survive restore.

    Without this plugin a pending (blocked) SIGSNAPIFY simply vanishes at
    restore; with it, the restored process carries the same handler table,
    blocked mask, and pending queue — unblocking after restore delivers the
    queued signals exactly as the original process would have.
    Handlers are carried by reference, like ``main_factory``.
    """

    name = "signals"

    def pre_checkpoint(self, proc: "SimProcess") -> Optional[PluginImage]:
        if not (proc.pending_signals or proc.blocked_signals or proc.signal_handlers):
            return None
        return PluginImage(
            self.name, records=1,
            payload={
                "pending": list(proc.pending_signals),
                "blocked": sorted(proc.blocked_signals),
                "handlers": dict(proc.signal_handlers),
            },
        )

    def post_restart(self, proc: "SimProcess", image: PluginImage, os: "OSInstance"):
        payload = image.payload
        proc.signal_handlers.update(payload["handlers"])
        proc.blocked_signals.update(payload["blocked"])
        proc.pending_signals.extend(payload["pending"])
        return None
        yield  # pragma: no cover - generator form


class RdmaWindowPlugin(CheckpointPlugin):
    """SCIF RDMA windows: re-register on restore or refuse migration.

    Captures the windows of every *raw* SCIF endpoint in the process's fd
    table (COI's dma endpoint is excluded: :meth:`CardRuntime.restore`
    already re-registers COI buffer windows itself). A window is pinned
    against a live endpoint that dies with the original process, so restore
    cannot transplant it directly:

    * restore on the **same OS** stashes the window specs in
      ``proc.runtime["rdma_restore_pending"]``; the restored program calls
      :func:`replay_rdma_windows` with a fresh endpoint to re-register them
      (new offsets, recorded in ``proc.runtime["rdma_address_map"]``) —
      never allocating ``rdma_staging`` without a live endpoint;
    * restore on a **different OS** raises :class:`RdmaMigrateError` —
      a typed refusal instead of silently corrupting staging accounting.
    """

    name = "rdma_windows"

    def pre_checkpoint(self, proc: "SimProcess") -> Optional[PluginImage]:
        coi = proc.runtime.get("coi")
        coi_eps = {id(ep) for ep in coi.eps.values()} if coi is not None else set()
        windows = []
        for fd in proc.open_fds:
            wins = getattr(fd, "windows", None)
            if not wins or getattr(fd, "closed", True) or id(fd) in coi_eps:
                continue
            for offset, nbytes in sorted(wins.items()):
                windows.append({"offset": offset, "nbytes": nbytes})
        if not windows:
            return None
        return PluginImage(
            self.name,
            records=1 + len(windows),
            payload={"os": proc.os.name, "windows": windows},
        )

    def post_restart(self, proc: "SimProcess", image: PluginImage, os: "OSInstance"):
        payload = image.payload
        if os.name != payload["os"]:
            raise RdmaMigrateError(
                f"{proc.name}: {len(payload['windows'])} RDMA window(s) were "
                f"registered on {payload['os']} and cannot migrate to "
                f"{os.name}; unregister them (or close the endpoint) before "
                "capture, then re-register after restore"
            )
        proc.runtime[RDMA_PENDING_KEY] = [dict(w) for w in payload["windows"]]
        return None
        yield  # pragma: no cover - generator form


def replay_rdma_windows(proc: "SimProcess", ep):
    """Sub-generator: re-register a restored process's pending RDMA windows
    on a caller-provided live endpoint.

    Consumes ``proc.runtime["rdma_restore_pending"]``, registers each window
    on ``ep`` (charging the usual pinning cost; offsets WILL differ), and
    records the (old -> new) offsets in ``proc.runtime["rdma_address_map"]``
    — the per-process analogue of COI's §4.3 address table. Returns the map.
    """
    from ..scif.registry import scif_register

    pending = proc.runtime.pop(RDMA_PENDING_KEY, None) or []
    table: Dict[int, int] = proc.runtime.setdefault("rdma_address_map", {})
    for spec in pending:
        new_offset = yield from scif_register(ep, spec["nbytes"])
        table[spec["offset"]] = new_offset
    return table


#: The four shipped resource plugins — the set scenario/fuzz code
#: registers on card OSes in one call.
def register_standard_plugins(os: "OSInstance") -> PluginRegistry:
    """Register every shipped extra plugin on ``os``'s registry."""
    registry = PluginRegistry.of(os)
    registry.register(SocketPlugin())
    registry.register(RamFSFilePlugin())
    registry.register(SignalPlugin())
    registry.register(RdmaWindowPlugin())
    return registry


__all__ = [
    "CheckpointPlugin",
    "PluginError",
    "PluginImage",
    "PluginRegistry",
    "RamFSFilePlugin",
    "RdmaMigrateError",
    "RdmaWindowPlugin",
    "SignalPlugin",
    "SocketPlugin",
    "SocketRestoreError",
    "register_standard_plugins",
    "replay_rdma_windows",
]
