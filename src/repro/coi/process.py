"""The two halves of an offload process.

* :class:`CardRuntime` — runs *inside* the offload process on the Phi: it
  accepts the six SCIF channels from the host, runs the cmd/control server
  threads and the pipeline server, owns the COI buffers (local store files),
  and carries the quiesce hooks Snapify's pause/resume protocol drives.

* :class:`COIProcess` — the host-side handle (``COIProcess*`` in the paper's
  API): run-function, buffer create/read/write, destroy; plus the drain
  locks of cases 1, 2 and 4 and the (old, new) RDMA address table used
  after restores.

Both halves keep their durable state in the owning SimProcess's ``store``
(sequence numbers, issued buffers, in-flight function bookkeeping), which is
exactly the state a BLCR snapshot carries across restarts.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..obs.registry import MetricsRegistry
from ..osim.process import OSInstance, SimProcess
from ..scif.endpoint import ConnectionReset, ScifEndpoint, ScifNetwork
from ..scif.rdma import scif_vreadfrom, scif_vwriteto
from ..scif.registry import scif_register
from ..sim.errors import Interrupted
from ..sim.events import Event
from ..sim.sync import Mutex
from . import messages as m
from .buffer import COIBuffer, localstore_path
from .pipeline import CardContext, OffloadBinary, PipelineError
from .services import ClientChannel, COIError, ServerLoop

if TYPE_CHECKING:  # pragma: no cover
    from ..osim.fs import File
    from .engine import COIEngine


# ---------------------------------------------------------------------------
# Card side
# ---------------------------------------------------------------------------


def card_main_factory(binary: OffloadBinary):
    """Build the offload process's main program for ``binary``.

    The same factory serves fresh launches and BLCR restarts: the restored
    path is taken when the store carries ``_blcr_restored``.
    """

    def main(proc: SimProcess):
        runtime = CardRuntime(proc, binary)
        if proc.store.get("_blcr_restored"):
            yield from runtime.restore()
        else:
            yield from runtime.fresh_start()

    return main


class CardRuntime:
    """Offload-process-side COI runtime."""

    def __init__(self, proc: SimProcess, binary: OffloadBinary):
        self.proc = proc
        self.sim = proc.sim
        self.binary = binary
        proc.runtime["coi"] = self
        self.phi_os: OSInstance = proc.os
        self.eps: Dict[str, ScifEndpoint] = {}
        self.event_client: Optional[ClientChannel] = None
        self.log_client: Optional[ClientChannel] = None
        #: Case-4 offload-side lock around the result send.
        self.pipeline_result_mutex = Mutex(self.sim, name=f"{proc.name}.result-send")
        self.paused = False
        self._buffers: Dict[int, Dict[str, Any]] = {}
        self.functions_executed = 0
        #: Asynchronous notification queue: the pipeline server enqueues log
        #: and event records; a dedicated client thread pushes them out.
        #: (Real COI's event/log clients are their own threads — and this
        #: decoupling is what keeps the pause protocol deadlock-free: the
        #: server's completion path never blocks on a quiesced channel.)
        self._notify_queue: Optional[Any] = None
        self._pipeline_busy = False

    @property
    def snapify_enabled(self) -> bool:
        return self.proc.store.get("_snapify_enabled", True)

    # -- startup paths -------------------------------------------------------
    def fresh_start(self):
        from ..snapify.agent import install_signal_handler  # Snapify-modified COI

        store = self.proc.store
        store.setdefault("buffers", {})
        store.setdefault("pipeline", {"inflight": None, "pending_result": None})
        store["_coi_binary"] = self.binary
        install_signal_handler(self.proc)
        # Dynamic load of the offload library shipped by the host.
        yield self.sim.sleep(self._phi_params().dyld_latency)
        self.proc.map_region("image", self.binary.image_size, kind="text")
        yield from self._accept_channels(store["_listen_port"])
        self._start_servers()

    def restore(self):
        """Restored path: local store files were already copied back to the
        card by the COI daemon; reattach buffers, reconnect channels,
        re-register RDMA windows, and finish any in-flight function."""
        from ..snapify.agent import attach_restored_agent, install_signal_handler

        store = self.proc.store
        self._enter_paused()  # blocked until snapify_resume, per §4.3
        install_signal_handler(self.proc)
        # The agent must greet the daemon before we block in accept: the
        # daemon only hands the reconnect port to the host after the hello.
        attach_restored_agent(self.proc)
        try:
            for buf_id, info in store["buffers"].items():
                if not self.phi_os.fs.exists(info["path"]):
                    raise COIError(f"restore: local store file missing: {info['path']}")
                self._buffers[buf_id] = dict(info)
        except BaseException as exc:
            # Dying before _accept_channels fires the listening rendezvous
            # would leave the daemon waiting on it forever: fail the event
            # so the restore turns into a clean operation failure.
            listening = self.proc.runtime.get("listening")
            if listening is not None and not listening.triggered:
                listening.fail(COIError(f"restore aborted before listen: {exc}"))
            raise
        yield from self._accept_channels(store["_listen_port"])
        self.finish_enter_paused()
        # Re-register every buffer: offsets WILL differ from the originals.
        for buf_id, entry in self._buffers.items():
            offset = yield from scif_register(self.eps["dma"], entry["size"])
            entry["offset"] = offset
        self._start_servers()
        self.proc.spawn_thread(self._resume_inflight(), name="resume-inflight", daemon=True)

    def _phi_params(self):
        return self.proc.os.hw.node.params.phi  # type: ignore[attr-defined]

    def _accept_channels(self, port: int):
        net = ScifNetwork.of(self.proc.os.hw.node)  # type: ignore[attr-defined]
        listener = net.listen(self.proc.os, port)
        listening = self.proc.runtime.get("listening")
        if listening is not None and not listening.triggered:
            listening.succeed(None)
        try:
            for _ in m.CHANNELS:
                ep = yield listener.accept()
                name = yield ep.recv()
                self.eps[name] = ep
                self.proc.open_fds.append(ep)  # reset peers when we die
        finally:
            listener.close()
        self.event_client = ClientChannel(self.sim, self.eps["event"], f"{self.proc.name}.event")
        self.log_client = ClientChannel(self.sim, self.eps["log"], f"{self.proc.name}.log")

    def _start_servers(self):
        from ..sim.channel import Channel

        self.cmd_server = ServerLoop(self.proc, self.eps["cmd"], self._handle_cmd,
                                     name=f"{self.proc.name}.cmd")
        self.control_server = ServerLoop(self.proc, self.eps["control"], self._handle_control,
                                         name=f"{self.proc.name}.control")
        self._notify_queue = Channel(self.sim, name=f"{self.proc.name}.notify-q")
        self.proc.spawn_thread(self._notifier_thread(), name="notify-client", daemon=True)
        self.proc.spawn_thread(self._pipeline_server(), name="pipeline-server", daemon=True)

    def _notifier_thread(self):
        """The card-side event/log client thread: drains the notification
        queue into the (pausable) event and log channels."""
        while True:
            try:
                kind, msg = yield self._notify_queue.recv()
            except Exception:
                return
            client = self.event_client if kind == "event" else self.log_client
            yield from client.notify(msg)

    # -- quiesce hooks (driven by the Snapify card agent) ----------------------
    def quiesce(self):
        """Sub-generator: offload-side half of the drain protocol.

        Case 3: shut down the event and log channels (offload is the client).
        Case 4: take the result-send lock — but only once the pipeline
        server is between requests. Taking it mid-request would wedge the
        server's completion path while a host caller still holds the
        request-send lock: a cross-process deadlock against the host-side
        half of the pause (found by the concurrency stress tests).
        """
        reg = MetricsRegistry.of(self.sim)
        yield from self.event_client.snapify_shutdown()
        yield from self.log_client.snapify_shutdown()
        reg.counter("snapify.drain.case3").inc(2)  # event + log channels
        # The cmd/control servers must be between requests too: a pause
        # landing mid-BUFFER_CREATE would save the local store before the
        # new buffer commits while the (later) context capture records it —
        # a torn snapshot that cannot be restored.
        while (
            self._pipeline_busy
            or ("pipeline" in self.eps and self.eps["pipeline"].pending)
            or self.cmd_server.busy
            or self.control_server.busy
        ):
            yield self.sim.sleep(100e-6)
        yield self.pipeline_result_mutex.acquire(owner="snapify")
        reg.counter("snapify.drain.case4").inc()
        self.paused = True

    def _enter_paused(self) -> None:
        """Restored processes start paused without any channel handshake."""
        assert self.event_client is None  # before channels exist
        self.paused = True
        self._paused_before_channels = True

    def finish_enter_paused(self) -> None:
        """After channels exist, take the locks that quiesce() would hold."""
        if getattr(self, "_paused_before_channels", False):
            self.event_client.shut_down = True
            assert self.event_client.mutex.try_acquire("snapify")
            self.log_client.shut_down = True
            assert self.log_client.mutex.try_acquire("snapify")
            assert self.pipeline_result_mutex.try_acquire("snapify")
            self._paused_before_channels = False

    def release(self) -> None:
        """Offload-side half of snapify_resume: drop every quiesce lock."""
        if not self.paused:
            raise COIError(f"{self.proc.name}: release() while not paused")
        self.event_client.snapify_release()
        self.log_client.snapify_release()
        self.pipeline_result_mutex.release()
        self.paused = False

    def channels_empty(self) -> bool:
        """Drain invariant: no message in flight on any channel."""
        return all(ep.pending == 0 for ep in self.eps.values())

    # -- local store / buffers ---------------------------------------------------
    def buffer_file(self, buf_id: int) -> "File":
        entry = self._buffers.get(buf_id)
        if entry is None:
            raise COIError(f"{self.proc.name}: unknown buffer {buf_id}")
        return self.phi_os.fs.stat(entry["path"])

    def local_store_bytes(self) -> int:
        return sum(e["size"] for e in self._buffers.values())

    def local_store_files(self) -> List[str]:
        return [e["path"] for e in self._buffers.values()]

    def _handle_cmd(self, msg: Any):
        mtype = msg.get("type")
        if mtype == m.BUFFER_CREATE:
            buf_id, size = msg["buf_id"], msg["size"]
            path = localstore_path(self.proc.pid, buf_id)
            # Local store allocation: RAM-FS pages on the card.
            yield from self.phi_os.fs.write(path, size)
            offset = yield from scif_register(self.eps["dma"], size)
            entry = {"id": buf_id, "size": size, "path": path, "offset": offset}
            self._buffers[buf_id] = entry
            self.proc.store["buffers"][buf_id] = {
                "id": buf_id, "size": size, "path": path,
            }
            return {"type": m.REPLY, "offset": offset, "path": path}
        if mtype == m.BUFFER_DESTROY:
            entry = self._buffers.pop(msg["buf_id"], None)
            if entry is None:
                return {"type": m.REPLY, "ok": False}
            self.proc.store["buffers"].pop(msg["buf_id"], None)
            self.phi_os.fs.unlink(entry["path"])
            return {"type": m.REPLY, "ok": True}
        if mtype == m.BUFFER_REREGISTER:
            offsets = {bid: e["offset"] for bid, e in self._buffers.items()}
            return {"type": m.REPLY, "offsets": offsets}
        raise COIError(f"{self.proc.name}: unknown cmd {mtype!r}")

    def _handle_control(self, msg: Any):
        if msg.get("type") == "coi.terminate":
            return {"type": m.REPLY, "ok": True}
        raise COIError(f"{self.proc.name}: unknown control message {msg!r}")
        yield  # pragma: no cover - generator form

    # -- pipeline (run-function server) ---------------------------------------------
    def _pipeline_server(self):
        while True:
            try:
                msg = yield self.eps["pipeline"].recv()
            except (ConnectionReset, Interrupted):
                return  # host went away; the daemon will reap us
            if not (isinstance(msg, dict) and msg.get("type") == m.RUN_FUNCTION):
                raise COIError(f"pipeline: unexpected message {msg!r}")
            self._pipeline_busy = True
            try:
                yield from self._execute(msg)
            finally:
                self._pipeline_busy = False

    def _execute(self, msg: Dict[str, Any]):
        fn = self.binary.function(msg["fn"])
        duration = fn.duration_for(msg["args"])
        pl = self.proc.store["pipeline"]
        pl["inflight"] = {
            "seq": msg["seq"], "fn": msg["fn"], "args": msg["args"],
            "started_at": self.sim.now, "duration": duration,
            "async": msg.get("async", False),
        }
        yield self.sim.sleep(duration)
        yield from self._complete(msg["fn"], msg["args"], msg["seq"], msg.get("async", False))

    def _complete(self, fn_name: str, args: Any, seq: int, is_async: bool):
        fn = self.binary.function(fn_name)
        result = fn.apply(CardContext(self), args)
        self.functions_executed += 1
        pl = self.proc.store["pipeline"]
        pl["inflight"] = None
        pl["pending_result"] = {"seq": seq, "value": result, "async": is_async}
        # Non-blocking: the notifier client thread delivers these; the
        # completion path must never block on a (possibly quiesced)
        # event/log channel.
        yield self._notify_queue.send(
            ("log", {"type": m.LOG_RECORD, "fn": fn_name, "seq": seq}))
        if is_async:
            yield self._notify_queue.send(
                ("event", {"type": m.EVENT_FUNCTION_DONE, "seq": seq}))
        # Case-4 send site: blocking (rendezvous) send under the result lock.
        reply = {"type": m.FUNCTION_RESULT, "seq": seq, "value": result}
        if self.snapify_enabled:
            yield self.sim.sleep(SNAPIFY_LOCK_OVERHEAD)
            yield self.pipeline_result_mutex.acquire(owner="result-send")
            try:
                yield from self.eps["pipeline"].send_sync(reply, nbytes=256)
            finally:
                self.pipeline_result_mutex.release()
        else:
            yield from self.eps["pipeline"].send(reply, nbytes=256)
        pl["pending_result"] = None

    def _resume_inflight(self):
        """After a restore: finish the function that was executing (or push
        out a computed-but-unsent result). Exactly-once effect semantics."""
        pl = self.proc.store["pipeline"]
        inflight = pl.get("inflight")
        pending = pl.get("pending_result")
        if inflight is not None:
            captured_at = self.proc.store.get("_blcr_captured_at", inflight["started_at"])
            elapsed = max(0.0, captured_at - inflight["started_at"])
            remaining = max(0.0, inflight["duration"] - elapsed)
            yield self.sim.sleep(remaining)
            yield from self._complete(
                inflight["fn"], inflight["args"], inflight["seq"], inflight["async"]
            )
        elif pending is not None:
            yield self.pipeline_result_mutex.acquire(owner="resend")
            try:
                yield from self.eps["pipeline"].send_sync(
                    {"type": m.FUNCTION_RESULT, "seq": pending["seq"],
                     "value": pending["value"]}, nbytes=256
                )
            finally:
                self.pipeline_result_mutex.release()
            pl["pending_result"] = None


# ---------------------------------------------------------------------------
# Host side
# ---------------------------------------------------------------------------


#: CPU cost of one Snapify-added lock site on the hot path (lock, fence,
#: active-request bookkeeping in the modified COI runtime). Calibrated so
#: the Fig. 9 per-call overhead lands at the paper's ~1.5% mean / <5% max.
SNAPIFY_LOCK_OVERHEAD = 11e-6


class COIProcess:
    """Host-side handle to one offload process (``COIProcess*``).

    ``snapify_enabled`` selects the Snapify-modified COI runtime (drain
    locks on the hot paths, blocking pipeline sends). Disabling it gives
    the stock-MPSS baseline of Fig. 9 — faster per call, but unsnapshotable.
    """

    def __init__(
        self,
        host_proc: SimProcess,
        engine: "COIEngine",
        binary: OffloadBinary,
        offload_proc: SimProcess,
        daemon_ep: ScifEndpoint,
        eps: Dict[str, ScifEndpoint],
        snapify_enabled: bool = True,
    ):
        self.snapify_enabled = snapify_enabled
        self.host_proc = host_proc
        self.sim = host_proc.sim
        self.engine = engine
        self.binary = binary
        self.offload_proc = offload_proc
        self.daemon_ep = daemon_ep
        self.eps = eps
        self.dead = False

        # Drain locks: case 1 (lifecycle), case 2 (RDMA), case 4 (host send).
        self.lifecycle_mutex = Mutex(self.sim, name=f"{host_proc.name}.coi.lifecycle")
        self.dma_mutex = Mutex(self.sim, name=f"{host_proc.name}.coi.dma")
        self.pipeline_send_mutex = Mutex(self.sim, name=f"{host_proc.name}.coi.pipe-send")
        self.paused = False

        self.cmd_client = ClientChannel(self.sim, eps["cmd"], f"{host_proc.name}.cmd")
        self.control_client = ClientChannel(self.sim, eps["control"], f"{host_proc.name}.control")

        #: (old -> new) RDMA address table maintained across restores (§4.3).
        self.rdma_address_map: Dict[int, int] = {}
        self.buffers: Dict[int, COIBuffer] = {}
        self._buf_ids = itertools.count(1)
        self.logs: List[Any] = []
        self.events_seen: List[Any] = []

        # Process-level waiter registry survives handle replacement on swap.
        host_proc.runtime.setdefault("coi_waiters", {})

        self._event_server = ServerLoop(host_proc, eps["event"], self._handle_event,
                                        name=f"{host_proc.name}.event-srv")
        self._log_server = ServerLoop(host_proc, eps["log"], self._handle_log,
                                      name=f"{host_proc.name}.log-srv")
        self._pipeline_recv = host_proc.spawn_thread(
            self._pipeline_recv_loop(), name="pipeline-recv", daemon=True
        )
        self._pipeline_rebound: Optional[Event] = None

    # -- event/log servers -------------------------------------------------------
    def _handle_event(self, msg: Any):
        self.events_seen.append(msg)
        return None
        yield  # pragma: no cover

    def _handle_log(self, msg: Any):
        self.logs.append(msg)
        return None
        yield  # pragma: no cover

    # -- pipeline ----------------------------------------------------------------
    def _pipeline_recv_loop(self):
        while True:
            try:
                msg = yield self.eps["pipeline"].recv()
            except (ConnectionReset, Interrupted):
                return  # handle is dead; a restored handle runs its own loop
            if isinstance(msg, dict) and msg.get("type") == m.FUNCTION_RESULT:
                # Record delivery in the store FIRST (no yield in between):
                # a host snapshot therefore never shows a consumed result
                # that the store does not know about.
                self.host_proc.store.setdefault("coi_results", {})[msg["seq"]] = msg["value"]
                waiter = self.host_proc.runtime["coi_waiters"].pop(msg["seq"], None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(msg["value"])

    def next_seq(self) -> int:
        seq = self.host_proc.store.get("coi_next_seq", 0)
        self.host_proc.store["coi_next_seq"] = seq + 1
        return seq

    def wait_result(self, seq: int) -> Event:
        """Event for an outstanding run-function result (used after restores).

        Results already delivered (recorded in the host store by the recv
        loop, possibly before this handle existed) resolve immediately.
        """
        recorded = self.host_proc.store.get("coi_results", {})
        if seq in recorded:
            ev = Event(self.sim, name=f"coi.result:{seq}")
            ev.succeed(recorded[seq])
            return ev
        waiters = self.host_proc.runtime["coi_waiters"]
        ev = waiters.get(seq)
        if ev is None:
            ev = Event(self.sim, name=f"coi.result:{seq}")
            waiters[seq] = ev
        return ev

    def run_function(self, fn_name: str, args: Any = None, is_async: bool = False,
                     args_bytes: int = 256, key: Any = None):
        """Sub-generator: execute an offload region; returns its result.

        This is the Fig. 4 flow: a request send under the case-4 lock
        (blocking/rendezvous when Snapify support is on), then wait for the
        result message. With ``key``, the call is *exactly-once across
        snapshots*: the (key -> seq) binding is recorded in the host store
        under the send lock, so a snapshot either shows no trace of the
        call or a fully issued one — never a half-sent request.
        """
        self._check_alive()
        if fn_name not in self.binary.functions:
            raise PipelineError(f"no offload function {fn_name!r}")
        seq = self.next_seq()
        ev = self.wait_result(seq)
        if self.snapify_enabled:
            yield self.sim.sleep(2 * SNAPIFY_LOCK_OVERHEAD)
        yield self.pipeline_send_mutex.acquire(owner="run")
        try:
            if key is not None:
                self.host_proc.store.setdefault("coi_calls", {})[key] = seq
            request = {"type": m.RUN_FUNCTION, "seq": seq, "fn": fn_name,
                       "args": args, "async": is_async}
            if self.snapify_enabled:
                yield from self.eps["pipeline"].send_sync(request, nbytes=args_bytes)
            else:
                yield from self.eps["pipeline"].send(request, nbytes=args_bytes)
        finally:
            self.pipeline_send_mutex.release()
        if is_async:
            return seq  # caller collects with wait_result(seq)
        result = yield ev
        return result

    def start_function(self, fn_name: str, args: Any = None, key: Any = None):
        """Sub-generator: asynchronous run; returns the seq to wait on."""
        seq = yield from self.run_function(fn_name, args, is_async=True, key=key)
        return seq

    def run_function_keyed(self, key: Any, fn_name: str, args: Any = None):
        """Sub-generator: exactly-once run-function for resumable programs.

        If a snapshot/restart interrupted an earlier attempt, the recorded
        (key, seq) binding is honored: a delivered result is returned from
        the store, an in-flight one is awaited — the function is never
        executed twice for the same key.
        """
        calls = self.host_proc.store.setdefault("coi_calls", {})
        if key in calls:
            seq = calls[key]
            result = yield self.wait_result(seq)
            return result
        result = yield from self.run_function(fn_name, args, key=key)
        return result

    # -- buffers -------------------------------------------------------------------
    def buffer_create(self, size: int):
        """Sub-generator: create a COI buffer backed by card local store."""
        self._check_alive()
        buf_id = next(self._buf_ids)
        while buf_id in self.buffers:  # ids a restored handle inherited
            buf_id = next(self._buf_ids)
        reply = yield from self.cmd_client.rpc(
            {"type": m.BUFFER_CREATE, "buf_id": buf_id, "size": size}
        )
        buf = COIBuffer(buf_id=buf_id, size=size,
                        rdma_offset=reply["offset"], localstore_path=reply["path"])
        self.buffers[buf_id] = buf
        self.host_proc.store.setdefault("coi_buffers", {})[buf_id] = size
        return buf

    def buffer_destroy(self, buf: COIBuffer):
        self._check_alive()
        yield from self.cmd_client.rpc({"type": m.BUFFER_DESTROY, "buf_id": buf.buf_id})
        self.buffers.pop(buf.buf_id, None)
        self.host_proc.store.get("coi_buffers", {}).pop(buf.buf_id, None)

    def translate_offset(self, offset: int) -> int:
        """Resolve an RDMA offset through the (old, new) address table."""
        seen = set()
        while offset in self.rdma_address_map:
            if offset in seen:  # pragma: no cover - defensive
                raise COIError("cycle in RDMA address table")
            seen.add(offset)
            offset = self.rdma_address_map[offset]
        return offset

    def buffer_write(self, buf: COIBuffer, payload: Any = None, nbytes: Optional[int] = None):
        """Sub-generator: host -> card RDMA into the buffer (case-2 site)."""
        self._check_alive()
        if self.snapify_enabled:
            yield self.sim.sleep(SNAPIFY_LOCK_OVERHEAD)
        yield self.dma_mutex.acquire(owner="write")
        try:
            offset = self.translate_offset(buf.rdma_offset)
            yield from scif_vwriteto(self.eps["dma"], offset, nbytes or buf.size)
            if payload is not None:
                if not self.offload_proc.alive:
                    raise COIError("offload process died during buffer write")
                # RDMA is one-sided: the data lands in the card pages
                # without card CPU involvement.
                runtime: CardRuntime = self.offload_proc.runtime["coi"]
                runtime.buffer_file(buf.buf_id).payload = payload
        finally:
            self.dma_mutex.release()

    def buffer_read(self, buf: COIBuffer, nbytes: Optional[int] = None):
        """Sub-generator: card -> host RDMA out of the buffer; returns payload."""
        self._check_alive()
        if self.snapify_enabled:
            yield self.sim.sleep(SNAPIFY_LOCK_OVERHEAD)
        yield self.dma_mutex.acquire(owner="read")
        try:
            offset = self.translate_offset(buf.rdma_offset)
            yield from scif_vreadfrom(self.eps["dma"], offset, nbytes or buf.size)
            if not self.offload_proc.alive:
                raise COIError("offload process died during buffer read")
            runtime: CardRuntime = self.offload_proc.runtime["coi"]
            return runtime.buffer_file(buf.buf_id).payload
        finally:
            self.dma_mutex.release()

    # -- drain hooks (host side of snapify_pause / snapify_resume) -------------------
    def quiesce(self):
        """Sub-generator: host-side half of the drain protocol.

        Case 1: lifecycle lock. Case 2: DMA lock. Case 3: shut down the cmd
        channel. Case 4: the request-send lock.
        """
        reg = MetricsRegistry.of(self.sim)
        yield self.lifecycle_mutex.acquire(owner="snapify")
        reg.counter("snapify.drain.case1").inc()
        yield self.dma_mutex.acquire(owner="snapify")
        reg.counter("snapify.drain.case2").inc()
        yield from self.cmd_client.snapify_shutdown()
        reg.counter("snapify.drain.case3").inc()
        yield self.pipeline_send_mutex.acquire(owner="snapify")
        reg.counter("snapify.drain.case4").inc()
        self.paused = True

    def release(self) -> None:
        """Host-side half of snapify_resume."""
        if not self.paused:
            raise COIError(f"{self.host_proc.name}: release() while not paused")
        self.pipeline_send_mutex.release()
        self.cmd_client.snapify_release()
        self.dma_mutex.release()
        self.lifecycle_mutex.release()
        self.paused = False

    def channels_empty(self) -> bool:
        card: CardRuntime = self.offload_proc.runtime["coi"]
        return (
            all(ep.pending == 0 for ep in self.eps.values()) and card.channels_empty()
        )

    # -- lifecycle ---------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.dead:
            raise COIError("operation on a dead COIProcess handle")
        if not self.offload_proc.alive:
            raise COIError(
                f"offload process pid {self.offload_proc.pid} is gone "
                "(crashed or card failure)"
            )

    def destroy(self):
        """Sub-generator: orderly teardown (case-1 critical region)."""
        self._check_alive()
        yield self.lifecycle_mutex.acquire(owner="destroy")
        try:
            yield from self.control_client.rpc({"type": "coi.terminate"})
            yield from self.daemon_ep.send({"type": m.SHUTDOWN_PROC,
                                            "pid": self.offload_proc.pid})
            ack = yield self.daemon_ep.recv()
            if not (isinstance(ack, dict) and ack.get("ok")):
                raise COIError(f"daemon refused shutdown: {ack!r}")
        finally:
            self.lifecycle_mutex.release()
        self.mark_dead()

    def mark_dead(self) -> None:
        self.dead = True
        for ep in self.eps.values():
            ep.close()
        if not self.daemon_ep.closed:
            self.daemon_ep.close()
