"""The Snapify-IO daemon (§6).

One daemon runs on every SCIF node (the host and each coprocessor). Each
daemon has:

* a *local server thread* accepting UNIX-socket connections from processes
  using the Snapify-IO library; each connection gets a *local handler*;
* a *remote server thread* accepting SCIF connections from peer daemons;
  each connection gets a *remote handler*.

Data moves through one registered RDMA staging buffer per connection
(4 MB by default — the paper's balance between card-memory footprint and
transfer latency). In write mode the local handler copies socket data into
the buffer and the remote handler pulls it with ``scif_vreadfrom`` and
appends it to the target file (host-side file writes land in the page cache
and are flushed asynchronously — why card-to-host writes outrun reads). In
read mode the flow reverses.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..hw.node import ServerNode
from ..hw.params import SnapifyIOParams
from ..obs.registry import MetricsRegistry
from ..osim.process import OSInstance, SimProcess
from ..osim.sockets import SocketError, UnixSocket
from ..scif.endpoint import ConnectionReset, ScifEndpoint, ScifError, ScifNetwork
from ..scif.ports import SNAPIFY_IO_PORT
from ..scif.registry import scif_register
from ..scif.rdma import scif_vreadfrom, scif_vwriteto
from ..sim.channel import ChannelClosed
from ..sim.errors import Interrupted, SimError


class SnapifyIOError(SimError):
    """Snapify-IO protocol failure."""


def resume_digest(path: str, offset: int) -> int:
    """Checksum token of a durable file prefix, for the resume handshake.

    Stands in for a content checksum: both daemons derive it from what they
    believe the durable prefix is; a mismatch means the writer and the
    remote ledger disagree and the transfer must abort loudly rather than
    resume onto a corrupt base.
    """
    return zlib.crc32(f"{path}:{offset}".encode())


#: UNIX socket address the library connects to on every node.
SOCKET_ADDR = "/var/run/snapify-io.sock"


class _Sentinel:
    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.tag}>"


#: Client -> daemon: orderly end-of-stream (written by ``finish()``).
EOF_MARKER = _Sentinel("snapify-io-eof")
#: Client -> daemon: the stream is abandoned — never commit it.
ABORT_MARKER = _Sentinel("snapify-io-abort")
#: Daemon -> client: the remote file is fully committed.
COMMITTED = _Sentinel("snapify-io-committed")


class RecordBurst:
    """Client -> daemon: a run of small records in one datagram.

    ``sends`` holds each record's ``(nbytes, send time)``, the instant the
    record would have reached the daemon as a datagram of its own;
    ``records`` are the run's payload records, in order. The client only
    sends runs that :func:`staging_flushes` stages without a flush, so the
    daemon can replay the copies from the send times alone.
    """

    __slots__ = ("sends", "records")

    def __init__(self, sends: List[Tuple[int, float]], records: List[Any]):
        self.sends = sends
        self.records = records


def staging_flushes(filled: int, nbytes: int, buffer_size: int) -> Tuple[bool, bool]:
    """The local write loop's flush rule for one ``nbytes`` datagram.

    With ``filled`` bytes staged, returns whether the staging buffer is
    flushed before the datagram is copied in, and whether after. Shared by
    the daemon and the client, which batches only records that flush
    neither way.
    """
    if filled + nbytes > buffer_size:
        return True, nbytes >= buffer_size
    return False, filled + nbytes >= buffer_size


class SnapifyIODaemon:
    """One per SCIF node."""

    def __init__(self, os: OSInstance, params: SnapifyIOParams):
        self.os = os
        self.sim = os.sim
        self.params = params
        self.proc: Optional[SimProcess] = None
        node = os.hw if isinstance(os.hw, ServerNode) else os.hw.node
        self.node: ServerNode = node
        self.net = ScifNetwork.of(node)
        self.connections_served = 0
        #: path -> bytes durably applied of the stream in flight (or left
        #: behind by an interrupted one); the base a resume starts from.
        self._partials: Dict[str, int] = {}
        #: path -> total bytes at commit time. A path appears here only
        #: after an orderly EOF whose byte count matched the writer's
        #: declaration — the `no_truncated_commits` oracle audits it.
        self.commits: Dict[str, int] = {}
        reg = MetricsRegistry.of(self.sim)
        self.m_conns = reg.counter(f"snapifyio.{os.name}.connections")
        self.m_bytes = reg.counter(f"snapifyio.{os.name}.bytes_staged")

    # -- boot ------------------------------------------------------------------
    @staticmethod
    def boot(os: OSInstance):
        """Sub-generator: start the daemon on ``os``; returns the daemon."""
        node = os.hw if isinstance(os.hw, ServerNode) else os.hw.node
        daemon = SnapifyIODaemon(os, node.params.snapify_io)
        proc = yield from os.spawn_process(
            "snapify-io-daemon", image_size=4 * 1024 * 1024,
            main_factory=daemon._main_factory(), start=True,
        )
        daemon.proc = proc
        if proc.main_thread is not None:
            proc.main_thread.daemon = True  # service threads only
        os.snapify_io_daemon = daemon  # type: ignore[attr-defined]
        return daemon

    @staticmethod
    def of(os: OSInstance) -> "SnapifyIODaemon":
        daemon = getattr(os, "snapify_io_daemon", None)
        if daemon is None:
            raise SnapifyIOError(f"{os.name}: Snapify-IO daemon not running")
        return daemon

    @staticmethod
    def boot_all(node: ServerNode):
        """Sub-generator: boot daemons on the host and every card of a node."""
        daemons = []
        d = yield from SnapifyIODaemon.boot(node.os)
        daemons.append(d)
        for phi in node.phis:
            d = yield from SnapifyIODaemon.boot(phi.os)
            daemons.append(d)
        return daemons

    def _main_factory(self):
        def main(proc: SimProcess):
            local_listener = self.os.sockets.listen(SOCKET_ADDR)
            remote_listener = self.net.listen(self.os, SNAPIFY_IO_PORT)
            proc.open_fds.append(local_listener)   # released if we die
            proc.open_fds.append(remote_listener)
            proc.spawn_thread(self._local_server(local_listener), name="local-srv", daemon=True)
            proc.spawn_thread(self._remote_server(remote_listener), name="remote-srv", daemon=True)
            return
            yield  # pragma: no cover

        return main

    # -- server threads -----------------------------------------------------------
    def _local_server(self, listener):
        while True:
            sock = yield listener.accept()
            self.proc.open_fds.append(sock)
            self.proc.spawn_thread(self._local_handler(sock), name="local-hdl", daemon=True)

    def _remote_server(self, listener):
        while True:
            ep = yield listener.accept()
            self.proc.open_fds.append(ep)
            self.proc.spawn_thread(self._remote_handler(ep), name="remote-hdl", daemon=True)

    # -- local handler: user process <-> this daemon <-> remote daemon ---------------
    def _local_handler(self, sock: UnixSocket):
        self.connections_served += 1
        self.m_conns.inc()
        header = yield from sock.read()
        if not isinstance(header, dict) or "path" not in header:
            raise SnapifyIOError(f"bad open header: {header!r}")
        node_id, path, mode = header["node"], header["path"], header["mode"]
        resume = bool(header.get("resume"))
        sp = self.sim.trace.span("snapifyio.local", parent=header.get("span", 0),
                                 node=node_id, path=path, mode=mode,
                                 proc=self.proc.name)
        try:
            ep = yield from self.net.connect(self.os, node_id, SNAPIFY_IO_PORT,
                                             proc=self.proc)
        except (ScifError, ChannelClosed) as exc:
            # Peer daemon gone or link down between the client's fail-fast
            # probe and our connect (a torn-down listener surfaces as
            # ChannelClosed, not ScifError): close the socket so the client
            # sees the failure instead of hanging on the handshake.
            self.sim.trace.emit("io.connect_failed", node=node_id, path=path,
                                error=str(exc))
            self.proc.close_fd(sock)
            sp.finish()
            return
        try:
            yield from ep.send({"path": path, "mode": mode,
                                "span": header.get("span", 0),
                                "resume": resume})
            # Register the staging buffer for RDMA and tell the peer.
            offset = yield from scif_register(ep, self.params.buffer_size)
            yield from ep.send({"offset": offset})
            base = 0
            if mode == "w" and resume:
                # Relay the remote's resume handshake to the client, which
                # verifies the digest and skips the durable prefix.
                info = yield ep.recv()
                base = info.get("offset", 0)
                yield from sock.write(1, record=info)
            if mode == "w":
                yield from self._local_write_loop(sock, ep, base=base)
            else:
                yield from self._local_read_loop(sock, ep)
        except (ConnectionReset, SocketError, ChannelClosed):
            # Peer daemon or client vanished mid-stream; the teardown below
            # resets the connection and frees the staging buffer — the
            # client or TransferManager decides what's next.
            pass
        finally:
            self.proc.close_fd(ep)
            self.proc.close_fd(sock)
            sp.finish()

    def _local_write_loop(self, sock: UnixSocket, ep: ScifEndpoint, base: int = 0):
        """Socket -> staging buffer -> (remote pulls via RDMA) -> remote file."""
        filled = 0
        total = base
        records: List[Any] = []

        def flush():
            nonlocal filled, records
            if filled == 0:
                return
            yield from ep.send({"type": "chunk", "n": filled, "records": records})
            ack = yield ep.recv()  # remote finished the RDMA pull
            if not (isinstance(ack, dict) and ack.get("type") == "ack"):
                raise SnapifyIOError(f"bad chunk ack: {ack!r}")
            filled, records = 0, []

        sim = self.sim
        bw = self.os.sockets.default_bandwidth
        buffer_size = self.params.buffer_size
        while True:
            idle = sim.now
            nbytes, record = yield from sock.read_datagram()
            if record.__class__ is RecordBurst:
                # The client sends only runs in which no record flushes,
                # which holds exactly when the whole run staged at once
                # would not flush.
                if any(staging_flushes(filled, nbytes, buffer_size)):
                    raise SnapifyIOError("record burst crosses a staging flush")
                # Replay the copies the records would have cost one
                # datagram at a time: each starts once it has arrived and
                # the previous copy is done, on the same float clock.
                done = idle
                for n, sent in record.sends:
                    start = max(done, sent)
                    done = start + n / bw
                self.m_bytes.inc(nbytes)
                filled += nbytes
                total += nbytes
                records.extend(record.records)
                if start == sim.now:
                    yield sim.sleep(n / bw)  # idle when the last record came
                else:
                    yield sim.at(done)
                continue
            if record is ABORT_MARKER or (nbytes == 0 and record is None):
                # Abandoned stream: the client aborted explicitly, or died
                # holding the descriptor (raw socket EOF). Flush what was
                # staged — the partial stays resumable — but tell the remote
                # to *never* commit it. The old code treated raw EOF as an
                # orderly end-of-stream and committed truncated files.
                yield from flush()
                yield from ep.send({"type": "abort"})
                return
            if record is not EOF_MARKER:
                before, after = staging_flushes(filled, nbytes, buffer_size)
                if before:
                    yield from flush()
                # Copy from the socket into the staging buffer.
                yield sim.sleep(nbytes / bw)
                self.m_bytes.inc(nbytes)
                filled += nbytes
                total += nbytes
                if record is not None:
                    records.append(record)
                if after:
                    yield from flush()
                continue
            yield from flush()
            # Declare the byte total so the remote can refuse a short stream.
            yield from ep.send({"type": "eof", "total": total})
            done = yield ep.recv()  # remote committed the file
            ok = not isinstance(done, dict) or done.get("ok", True)
            if not sock.closed:
                if ok:
                    # Orderly finish(): confirm durability to the user.
                    yield from sock.write(1, record=COMMITTED)
                else:
                    yield from sock.write(
                        1, record={"error": done.get("reason", "commit refused")}
                    )
            return

    def _local_read_loop(self, sock: UnixSocket, ep: ScifEndpoint):
        """Remote file -> (remote pushes via RDMA) -> staging buffer -> socket."""
        while True:
            try:
                msg = yield ep.recv()
            except ConnectionReset:
                return
            if msg["type"] == "eof":
                sock.close()  # EOF to the user
                return
            if msg["type"] != "chunk":
                raise SnapifyIOError(f"bad read message: {msg!r}")
            try:
                # Copy staging buffer -> socket; the record batch rides along.
                yield from sock.write(msg["n"], record=msg["records"])
                self.m_bytes.inc(msg["n"])
            except Exception:
                return  # user closed early
            # Only now is the staging buffer reusable: read mode cannot
            # overlap the socket drain with the next RDMA fill.
            yield from ep.send({"type": "ack"})

    # -- remote handler: peer daemon <-> this node's file system ----------------------
    def _remote_handler(self, ep: ScifEndpoint):
        try:
            header = yield ep.recv()
            offset_msg = yield ep.recv()
        except (ConnectionReset, Interrupted):
            self.proc.close_fd(ep)  # half-open connection: don't leak it
            return
        path, mode = header["path"], header["mode"]
        peer_offset = offset_msg["offset"]
        sp = self.sim.trace.span("snapifyio.remote", parent=header.get("span", 0),
                                 path=path, mode=mode, proc=self.proc.name)
        try:
            if mode == "w":
                yield from self._remote_write(ep, path, peer_offset,
                                              resume=bool(header.get("resume")))
            else:
                yield from self._remote_read(ep, path, peer_offset)
        finally:
            # The remote end always tears its endpoint down; before this,
            # a reset connection leaked the endpoint (and any windows).
            self.proc.close_fd(ep)
            sp.finish()

    def _remote_write(self, ep: ScifEndpoint, path: str, peer_offset: int,
                      resume: bool = False):
        if resume:
            base = 0
            if self.os.fs.exists(path):
                # Resume from the last durably-applied boundary. The ledger
                # survives handler death; if the daemon itself was restarted
                # the file size is the durable truth.
                base = self._partials.get(path, self.os.fs.stat(path).size)
            self.commits.pop(path, None)
            self._partials[path] = base
            yield from ep.send({"type": "resume", "offset": base,
                                "digest": resume_digest(path, base)})
        else:
            self.os.fs.create(path)  # O_TRUNC: a fresh stream voids any commit
            self.commits.pop(path, None)
            self._partials[path] = 0
        records: List[Any] = []
        while True:
            try:
                msg = yield ep.recv()
            except (ConnectionReset, Interrupted):
                return  # writer vanished; keep the partial for a future resume
            if msg["type"] == "abort":
                return  # stream abandoned: keep the partial, never commit
            if msg["type"] == "eof":
                applied = self._partials.get(path, 0)
                total = msg.get("total", applied)
                if applied != total:
                    # Never commit a truncated (or overlong) stream.
                    yield from ep.send({
                        "type": "done", "ok": False,
                        "reason": f"short stream: applied {applied} of {total} bytes",
                    })
                    return
                if records:
                    self.os.fs.stat(path).payload = list(records)
                self.commits[path] = applied
                yield from ep.send({"type": "done", "ok": True})
                return
            # Pull the staged chunk out of the peer's registered buffer.
            try:
                yield from scif_vreadfrom(ep, peer_offset, msg["n"])
            except ScifError:
                return  # peer reset mid-pull; partial stays resumable
            records.extend(msg["records"])
            if self.params.async_flush:
                # Ack as soon as the staging buffer is free: the file write
                # below overlaps the peer's next fill — the asynchronous
                # flush that makes card->host writes outrun reads (§7).
                yield from ep.send({"type": "ack"})
                yield from self.os.fs.write(path, msg["n"])
            else:
                # Ablation: write before releasing the buffer.
                yield from self.os.fs.write(path, msg["n"])
                yield from ep.send({"type": "ack"})
            self._partials[path] = self._partials.get(path, 0) + msg["n"]

    def _remote_read(self, ep: ScifEndpoint, path: str, peer_offset: int):
        if not self.os.fs.exists(path):
            yield from ep.send({"type": "eof"})
            return
        f = self.os.fs.stat(path)
        records = list(f.payload) if isinstance(f.payload, list) else (
            [f.payload] if f.payload is not None else []
        )
        remaining = f.size
        first = True
        while remaining > 0:
            chunk = min(remaining, self.params.buffer_size)
            # Read from the local file (page-cache aware), then push into the
            # peer's staging buffer.
            yield from self.os.fs.read(path, chunk)
            yield from scif_vwriteto(ep, peer_offset, chunk)
            # The record stream rides with the first chunk; the client FD
            # hands records out one per read, preserving order.
            chunk_records = records if first else []
            first = False
            try:
                yield from ep.send({"type": "chunk", "n": chunk, "records": chunk_records})
                yield ep.recv()  # ack
            except ConnectionReset:
                return
            remaining -= chunk
        try:
            yield from ep.send({"type": "eof"})
        except ConnectionReset:
            pass
