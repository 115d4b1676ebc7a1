"""The Snapify-IO client library.

``snapifyio_open(os, node, path, mode)`` is the library's single API call:
it connects to the local Snapify-IO daemon over a UNIX socket and returns a
standard :class:`~repro.osim.fd.FileDescriptor` representing a file on a
remote SCIF node — which can be handed directly to BLCR, exactly as in the
paper ("the file descriptor created by Snapify-IO can be directly passed to
BLCR for saving and retrieving snapshots").

Resilience (see ``docs/architecture.md``, "Transfer resilience"): the open
validates the target node *before* touching the daemon so a bad or failed
node fails fast instead of hanging in the handshake; ``resume=True`` runs
the offset/checksum handshake and re-streams only the bytes past the last
durable boundary; closing an unfinished write-mode descriptor sends an
ABORT marker so the remote never commits the truncated stream.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from ..obs.registry import MetricsRegistry
from ..osim.fd import FDError, FileDescriptor
from ..osim.process import OSInstance, SimProcess
from ..osim.sockets import SocketError, UnixSocket
from ..scif.endpoint import ScifNetwork
from ..scif.ports import SNAPIFY_IO_PORT
from .daemon import (
    ABORT_MARKER,
    COMMITTED,
    EOF_MARKER,
    SOCKET_ADDR,
    SnapifyIODaemon,
    SnapifyIOError,
    resume_digest,
)

if TYPE_CHECKING:  # pragma: no cover
    pass


class SnapifyIOFile(FileDescriptor):
    """Descriptor over a remote file, streamed through the daemons.

    Write mode: chunks larger than the daemon's staging buffer are split.
    Call :meth:`finish` (sub-generator) to flush and confirm durability
    before relying on the remote file. Read mode: records arrive in order,
    one per ``read`` call.
    """

    def __init__(self, os: OSInstance, sock: UnixSocket, mode: str, buffer_size: int,
                 path: str = ""):
        super().__init__(os.sim, name=f"snapify-io:{mode}")
        self.os = os
        self.sock = sock
        self.mode = mode
        self.path = path
        self.buffer_size = buffer_size
        #: Read mode's record queue; a write-mode descriptor never needs one.
        self._records: Optional[Deque[Any]] = deque() if mode == "r" else None
        self._eof = False
        self.finished = False
        #: Bytes of the stream already durable remotely (resume handshake):
        #: the writer replays them, the descriptor skips them silently.
        self._skip = 0

    # -- write path ----------------------------------------------------------
    def write(self, nbytes: int, record: Any = None):
        self._check_open()
        if self.mode != "w":
            raise FDError(f"{self.name}: write on read-mode descriptor")
        remaining = nbytes
        if self._skip:
            skipped = min(self._skip, remaining)
            self._skip -= skipped
            remaining -= skipped
            if remaining == 0:
                # Chunk entirely inside the durable prefix: re-deliver only
                # its record (zero wire bytes). An empty record-less
                # datagram is never sent — the daemon would read it as EOF.
                if record is not None:
                    yield from self.sock.write(0, record=record)
                self.bytes_written += nbytes
                return
        first = True
        while remaining > 0 or first:
            chunk = min(remaining, self.buffer_size) if remaining else 0
            yield from self.sock.write(chunk, record=record if first else None)
            remaining -= chunk
            first = False
        self.bytes_written += nbytes

    def finish(self):
        """Sub-generator: flush, wait for remote commit, and close."""
        self._check_open()
        if self.mode != "w":
            raise FDError(f"{self.name}: finish on read-mode descriptor")
        yield from self.sock.write(1, record=EOF_MARKER)
        reply = yield from self.sock.read()
        if reply is not COMMITTED:
            raise SnapifyIOError(f"expected commit confirmation, got {reply!r}")
        self.finished = True
        self.close()

    # -- read path -------------------------------------------------------------
    def read(self, nbytes: int):
        self._check_open()
        if self.mode != "r":
            raise FDError(f"{self.name}: read on write-mode descriptor")
        while not self._records and not self._eof:
            n, batch = yield from self.sock.read_datagram()
            if n == 0 and batch is None:
                self._eof = True
                break
            self.bytes_read += n
            if isinstance(batch, list):
                self._records.extend(batch)
        if self._records:
            return self._records.popleft()
        return None

    def close(self) -> None:
        if self.closed:
            return
        aborting = self.mode == "w" and not self.finished
        if aborting:
            # The stream is being abandoned (explicit close, or process exit
            # closing registered FDs). Silently dropping it used to leave
            # the daemons believing the stream simply ended; now we record
            # the abort and best-effort notify the daemon so the remote
            # never commits the truncated stream.
            self.sim.trace.emit("io.abort", path=self.path, mode=self.mode,
                                bytes=self.bytes_written)
            MetricsRegistry.of(self.sim).counter("snapifyio.aborts").inc()
        super().close()
        if aborting and not self.sock.closed:
            # The abort marker is sent from a detached thread (close() must
            # stay synchronous — it runs from process teardown); the socket
            # is closed behind it.
            self.sim.spawn(self._send_abort(), name="snapifyio-abort",
                           daemon=True)
        else:
            self.sock.close()

    def _send_abort(self):
        try:
            yield from self.sock.write(1, record=ABORT_MARKER)
        except (SocketError, FDError):
            pass  # daemon already gone; its socket EOF handling aborts too
        finally:
            self.sock.close()


def snapifyio_open(
    os: OSInstance,
    node: int,
    path: str,
    mode: str,
    proc: Optional[SimProcess] = None,
    span: int = 0,
    resume: bool = False,
):
    """Sub-generator: open ``path`` on SCIF node ``node``; returns the FD.

    ``mode`` is ``"r"`` or ``"w"`` (never both, as in the paper). ``node``
    uses SCIF numbering: 0 is the host, 1.. are coprocessors. ``span`` is
    the caller's span id; the daemons parent their transfer spans on it so
    the double-daemon pipeline joins the caller's causal tree.

    ``resume=True`` (write mode only) asks the remote daemon for the last
    durable byte offset of ``path`` plus a checksum token; the descriptor
    then skips the durable prefix as the caller re-streams the file. A
    checksum mismatch aborts loudly — resuming onto a corrupt base would
    commit garbage.
    """
    if mode not in ("r", "w"):
        raise SnapifyIOError(f"mode must be 'r' or 'w', got {mode!r}")
    if resume and mode != "w":
        raise SnapifyIOError("resume is only meaningful in write mode")
    daemon = SnapifyIODaemon.of(os)
    # Fail fast on an unreachable target instead of hanging in the daemon
    # handshake: bad node id, dead card, or no peer daemon listening. The
    # explicit bounds check matters: a negative id would otherwise wrap
    # through Python list indexing and target the wrong card.
    if node != 0:
        if not 1 <= node <= len(daemon.node.phis):
            raise SnapifyIOError(
                f"{os.name}: no SCIF node {node} "
                f"(valid: 0..{len(daemon.node.phis)})"
            )
        if daemon.node.phis[node - 1].failed:
            raise SnapifyIOError(f"{os.name}: SCIF node {node} has failed")
    net = ScifNetwork.of(daemon.node)
    if not net.has_listener(node, SNAPIFY_IO_PORT):
        raise SnapifyIOError(
            f"{os.name}: no Snapify-IO daemon listening on SCIF node {node}"
        )
    yield os.sim.sleep(daemon.params.connect_latency)
    sock = yield from os.sockets.connect(SOCKET_ADDR)
    yield from sock.write(64, record={"node": node, "path": path, "mode": mode,
                                      "span": span, "resume": resume})
    fd = SnapifyIOFile(os, sock, mode, daemon.params.buffer_size, path=path)
    if resume:
        info = yield from sock.read()
        if not (isinstance(info, dict) and info.get("type") == "resume"):
            fd.close()
            raise SnapifyIOError(f"bad resume handshake: {info!r}")
        offset = info.get("offset", 0)
        if info.get("digest") != resume_digest(path, offset):
            fd.close()
            raise SnapifyIOError(
                f"{path}: resume checksum mismatch at offset {offset} — "
                "refusing to resume onto a corrupt base"
            )
        fd._skip = offset
    if proc is not None:
        proc.register_fd(fd)
    return fd
