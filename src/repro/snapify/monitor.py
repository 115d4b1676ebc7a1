"""Daemon-side Snapify service: request handling and the monitor thread.

The COI daemon is the pause coordinator ("there is one daemon per
coprocessor, and each daemon listens to the same fixed SCIF port number").
It keeps a list of active Snapify requests; a dedicated *monitor thread* —
created when the first request arrives and exiting when the list drains —
polls the pipes to the offload processes and relays their status updates
back to the requesting host processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..blcr import DeltaImage, cr_restart, cr_restore_context, reassemble
from ..coi.buffer import localstore_path as buffer_localstore_path
from ..coi.daemon import COIDaemon, DaemonEntry
from ..coi.services import COIError
from ..obs.registry import MetricsRegistry
from ..osim.pipes import DuplexPipe
from ..osim.process import SimProcess
from ..osim import signals as sig
from ..scif.endpoint import ScifEndpoint
from ..sim.errors import SimError
from ..sim.events import Event
from ..snapify_io.library import snapifyio_open
from . import constants as c

if TYPE_CHECKING:  # pragma: no cover
    pass


class SnapifyError(SimError):
    """Snapify protocol failure, tagged with the operation it belongs to.

    ``op_id``/``phase`` locate the failure on the operation state machine
    (:mod:`repro.snapify.ops`); fuzz repro artifacts and wait-for graphs
    render them so a failed seed names the operation that wedged.
    """

    def __init__(self, message: str, *, op_id: Any = None, phase: Any = None):
        if op_id is not None:
            message = f"{message} [op {op_id} @ {phase or '?'}]"
        super().__init__(message)
        self.op_id = op_id
        self.phase = phase


@dataclass
class ActiveRequest:
    """One entry of the daemon's active-request list."""

    entry: DaemonEntry
    host_ep: ScifEndpoint
    op: str
    #: correlation id of the host-side operation; the agent echoes it in
    #: every status, so concurrent operations on one endpoint demultiplex.
    op_id: int
    #: capture-only: terminate the offload process once the context is saved.
    terminate_after: bool = False
    #: span id of the host-side API span that issued the request (0 = untraced).
    span_id: int = 0


class SnapifyService:
    """Per-daemon Snapify state (attached to ``daemon.runtime``)."""

    def __init__(self, daemon: COIDaemon):
        self.daemon = daemon
        self.sim = daemon.sim
        #: (offload pid, op id) -> request. Keying by operation, not just
        #: pid, is what lets several operations share one daemon (and even
        #: one offload process) without completion stealing.
        self.active: Dict[Any, ActiveRequest] = {}
        self.monitor_running = False
        self.monitor_spawn_count = 0
        #: Pending while the monitor sleeps through idle ticks; ``kick``
        #: triggers it. ``None`` whenever the monitor is awake.
        self.wake: Optional[Event] = None
        reg = MetricsRegistry.of(self.sim)
        self.m_spawns = reg.counter("snapify.monitor.spawns")
        self.m_relays = reg.counter("snapify.monitor.relays")
        reg.gauge("snapify.monitor.active_requests", lambda: len(self.active))
        # An offload process exiting on this card may turn a request into
        # a ``crashed`` relay.
        daemon.phi_os.exit_watchers.append(lambda _proc: self.kick())

    @staticmethod
    def of(daemon: COIDaemon) -> "SnapifyService":
        svc = daemon.runtime.get("snapify")
        if svc is None:
            svc = SnapifyService(daemon)
            daemon.runtime["snapify"] = svc
        return svc

    # -- monitor thread --------------------------------------------------------
    def ensure_monitor(self) -> None:
        """Per the paper: "Whenever a request is received and no monitor
        thread exists, the daemon creates a new monitor thread." """
        if self.monitor_running:
            self.kick()  # a new or re-pointed request for the sleeping monitor
            return
        self.monitor_running = True
        self.monitor_spawn_count += 1
        self.m_spawns.inc()
        self.sim.trace.emit("monitor.spawn", daemon=self.daemon.proc.name,
                            active=len(self.active))
        self.daemon.proc.spawn_thread(self._monitor(), name="snapify-monitor", daemon=True)

    def kick(self) -> None:
        """Wake the monitor if it sleeps: something may be there to relay."""
        wake, self.wake = self.wake, None
        if wake is not None:
            wake.succeed()

    def _monitor(self):
        """Poll the active pipes every ``MONITOR_POLL_INTERVAL``, sleeping
        through the ticks that would find nothing.

        A tick that relays nothing parks on :attr:`wake` instead of
        scheduling the next one. Only a pipe message, an offload exit or a
        new request can give a later tick work, and each of those kicks the
        monitor, which then resumes at the first tick of the polling grid
        strictly after the kick. That is the tick at which a loop that never
        slept would first have found the work, so every relay keeps its
        simulated time and order.
        """
        sim = self.sim
        interval = c.MONITOR_POLL_INTERVAL
        while self.active:
            relayed = False
            by_pid: Dict[int, list] = {}
            for key, req in list(self.active.items()):
                by_pid.setdefault(key[0], []).append((key, req))
            for pid, reqs in by_pid.items():
                # Every request for one pid shares the entry's single pipe;
                # at most one message is drained per pid per tick and routed
                # to the operation whose id it carries.
                pipe = reqs[0][1].entry.pipe
                if pipe is None:
                    continue
                ok, msg = pipe.try_recv() if pipe.pending else (False, None)
                if ok:
                    key, req = self._match(reqs, msg)
                    yield from self._relay(key, req, msg)
                    relayed = True
                    continue
                # Unexpected death of the offload process while operations
                # are in flight: tell every host instead of letting it hang.
                if reqs[0][1].entry.state == "crashed":
                    for key, req in reqs:
                        if key not in self.active:
                            continue
                        yield from self._relay(
                            key, req,
                            {"t": c.SNAPIFY_FAILED,
                             "reason": f"offload pid {pid} died during {req.op}",
                             "op_id": key[1]},
                        )
                        relayed = True
            if relayed:
                yield sim.sleep(interval)
                continue
            last = sim.now
            self.wake = sim.event("snapify-monitor-wake")
            yield self.wake
            # Rebuild the grid with the same float additions the polling
            # loop's sleeps make. A kick landing exactly on a tick came
            # after that tick had polled and found nothing.
            t = last + interval
            while t <= sim.now:
                t += interval
            yield sim.at(t)
        self.monitor_running = False
        sim.trace.emit("monitor.exit", daemon=self.daemon.proc.name)

    @staticmethod
    def _match(reqs, msg):
        """The (key, request) a pipe message belongs to, by the op id the
        agent echoed. A message naming no live request is a protocol error."""
        target = msg.get("op_id")
        for key, req in reqs:
            if key[1] == target:
                return key, req
        raise SnapifyError(f"pipe status {msg.get('t')!r} names no active "
                           f"request of pid {reqs[0][0][0]}",
                           op_id=target, phase="relay")

    def _relay(self, key, req: ActiveRequest, msg: Dict[str, Any]):
        """Forward a pipe status message to the requesting host process."""
        status = msg["t"]
        self.m_relays.inc()
        self.sim.trace.emit("monitor.relay", pid=key[0], status=status,
                            span=req.span_id)
        yield from req.host_ep.send(msg)
        if status == c.CAPTURE_COMPLETE and req.terminate_after:
            # Snapify marks the exit as expected so the daemon does not
            # misclassify the swap-out as a crash (the §3 hazard).
            self.daemon.terminate_offload(req.entry, expected=True)
        if status in (c.CAPTURE_COMPLETE, c.RESUME_ACK, c.SNAPIFY_FAILED):
            self.active.pop(key, None)


def handle_service(daemon: COIDaemon, ep: ScifEndpoint, msg: Dict[str, Any]):
    """Dispatch one SERVICE request (registered as a COI daemon extension)."""
    svc = SnapifyService.of(daemon)
    op = msg["op"]
    if op == c.OP_PAUSE_INIT:
        yield from _handle_pause_init(daemon, svc, ep, msg)
    elif op == c.OP_PAUSE_GO:
        yield from _handle_simple_forward(daemon, svc, ep, msg, "pause")
    elif op == c.OP_CAPTURE:
        yield from _handle_capture(daemon, svc, ep, msg)
    elif op == c.OP_RESUME:
        yield from _handle_simple_forward(daemon, svc, ep, msg, "resume")
    elif op == c.OP_RESTORE:
        yield from _handle_restore(daemon, svc, ep, msg)
    else:  # pragma: no cover - protocol error
        raise SnapifyError(f"unknown snapify op {op!r}")


def _entry(daemon: COIDaemon, pid: int) -> DaemonEntry:
    entry = daemon.entries.get(pid)
    if entry is None:
        raise SnapifyError(f"no offload process with pid {pid}")
    return entry


def _handle_pause_init(daemon: COIDaemon, svc: SnapifyService, ep, msg):
    """Steps 1-3 of Fig. 3: create the pipe, signal the offload process,
    wait for its acknowledgement, and relay it to the host."""
    entry = _entry(daemon, msg["pid"])
    sp = daemon.sim.trace.span("daemon.pause_init", parent=msg.get("span", 0),
                               pid=msg["pid"], proc=daemon.proc.name)
    pipe = DuplexPipe(daemon.sim, name=("snapify-pipe:{}", msg["pid"]),
                      on_a_message=svc.kick)
    entry.pipe = pipe.a
    entry.offload_proc.runtime["snapify_pipe_pending"] = pipe.b
    agent_thread = entry.offload_proc.deliver_signal(sig.SIGSNAPIFY)
    if agent_thread is not None:
        # The handler tail-calls into the agent service loop, which waits on
        # the pipe forever between operations — like the restored-agent
        # thread, it must not count against quiescence.
        agent_thread.daemon = True
    ack = yield pipe.a.recv()
    op_id = msg["op_id"]
    if ack.get("t") != c.PAUSE_ACK:
        raise SnapifyError(f"bad pause ack {ack!r}", op_id=op_id, phase="pause")
    svc.active[(msg["pid"], op_id)] = ActiveRequest(
        entry=entry, host_ep=ep, op="pause", span_id=msg.get("span", 0),
        op_id=op_id)
    svc.ensure_monitor()
    yield from ep.send({"t": c.PAUSE_ACK, "op_id": op_id})
    sp.finish()


def _handle_simple_forward(daemon, svc: SnapifyService, ep, msg, pipe_op: str):
    """Forward pause-go / resume to the offload agent over the pipe; the
    monitor thread relays the completion status back to the host."""
    entry = _entry(daemon, msg["pid"])
    key = (msg["pid"], msg["op_id"])
    if entry.pipe is None:
        raise SnapifyError(f"{pipe_op}: no pipe to pid {msg['pid']} (pause first)",
                           op_id=key[1], phase=pipe_op)
    req = svc.active.get(key)
    if req is None:
        req = ActiveRequest(entry=entry, host_ep=ep, op=pipe_op, op_id=key[1])
        svc.active[key] = req
    req.op, req.host_ep = pipe_op, ep
    req.span_id = msg.get("span", 0)
    svc.ensure_monitor()
    yield from entry.pipe.send({"op": pipe_op, "path": msg.get("path"),
                                "localstore_node": msg.get("localstore_node", 0),
                                "span": msg.get("span", 0),
                                "op_id": key[1]})


def _handle_capture(daemon, svc: SnapifyService, ep, msg):
    entry = _entry(daemon, msg["pid"])
    key = (msg["pid"], msg["op_id"])
    if entry.pipe is None:
        raise SnapifyError("capture before pause", op_id=key[1], phase="capture")
    req = svc.active.get(key) or ActiveRequest(entry=entry, host_ep=ep,
                                               op="capture", op_id=key[1])
    req.op, req.host_ep = "capture", ep
    req.terminate_after = bool(msg.get("terminate"))
    req.span_id = msg.get("span", 0)
    svc.active[key] = req
    svc.ensure_monitor()
    fwd = {"op": "capture", "path": msg["path"],
           "span": msg.get("span", 0),
           "op_id": key[1]}
    if msg.get("incremental"):
        # Present only when set: the default pipe message stays identical.
        fwd["incremental"] = True
    yield from entry.pipe.send(fwd)


def _handle_restore(daemon: COIDaemon, svc: SnapifyService, ep, msg):
    """§4.3: copy libs + local store back to the card on the fly, restart
    the offload process from its context via BLCR/Snapify-IO, and hand the
    reconnect port back to the host."""
    path = msg["path"]
    phi_os = daemon.phi_os
    sp = daemon.sim.trace.span("daemon.restore", parent=msg.get("span", 0),
                               path=path, proc=daemon.proc.name)

    # 1. Runtime libraries stream host -> card (charged, then dropped: they
    #    are dynamically mapped, not duplicated in the RAM-FS model).
    sub = daemon.sim.trace.span("daemon.restore.libs_in", parent=sp)
    libs_fd = yield from snapifyio_open(phi_os, 0, c.libs_path(path), "r",
                                        span=sub.span_id)
    yield from _drain_read(libs_fd)
    libs_fd.close()
    sub.finish()

    # 2. Local store files are recreated on the card RAM-FS. For migration
    #    the pause already staged them on THIS card (the paper's direct
    #    device-to-device path), so they only need a local copy; otherwise
    #    they stream in from the SCIF node that holds them (usually 0).
    #    Files land in a snapshot-keyed staging directory, NOT at their
    #    original /tmp/coi_procs/<pid> paths: a live process on this card
    #    may legitimately own that pid, and its exit cleanup would unlink
    #    the restored bytes out from under us (pids are only unique per
    #    card). They move to the restored process's own pid directory once
    #    that pid exists (step 3).
    ls_node = msg.get("localstore_node", 0)
    my_node = daemon.phi.scif_node_id
    staging = c.localstore_path(path)
    stage_dir = f"{staging}.restore"
    sub = daemon.sim.trace.span("daemon.restore.localstore_in", parent=sp,
                                node=ls_node)
    local = ls_node == my_node and phi_os.fs.exists(staging)
    if local:
        f = phi_os.fs.stat(staging)
        records = list(f.payload) if isinstance(f.payload, list) else []
    else:
        ls_fd = yield from snapifyio_open(phi_os, ls_node, staging, "r",
                                          span=sub.span_id)
        records = yield from _drain_read(ls_fd)
        ls_fd.close()
    meta = records[-1] if records else {"buffers": {}}
    for buf_id, info in meta["buffers"].items():
        staged = f"{stage_dir}/buf_{buf_id}"
        phi_os.fs.create(staged)
        yield from phi_os.fs.write(staged, info["size"],
                                   payload=info["payload"])
    if local:
        phi_os.fs.unlink(staging)  # release the staging copy
    sub.finish()

    # 3. Restart the process image. Incremental snapshots live in the
    #    memory tier (local or partner copy; NFS chain file once demoted):
    #    reassemble base + deltas and restore the context in place. Classic
    #    snapshots restart straight off the host file system, untouched.
    from ..snapify_io.memtier import MemoryTier

    sub = daemon.sim.trace.span("daemon.restore.cr_restart", parent=sp)
    port = next(daemon._ports)
    tier = MemoryTier.peek(daemon.sim)
    chain = tier.lookup(path) if tier is not None else None
    if chain is not None:
        images, _sources = yield from tier.fetch(path, phi_os)
        if images is None:
            # Every memory copy is gone but the chain was demoted: stream
            # the chain file back from the host through Snapify-IO.
            chain_fd = yield from snapifyio_open(phi_os, 0, c.chain_path(path),
                                                 "r", span=sub.span_id)
            records = yield from _drain_read(chain_fd)
            chain_fd.close()
            images = [r for r in records if isinstance(r, DeltaImage)]
        ctx = reassemble(images)
        proc = yield from cr_restore_context(phi_os, ctx, start=False)
    else:
        ctx_fd = yield from snapifyio_open(phi_os, 0, c.context_path(path), "r",
                                           span=sub.span_id)
        proc = yield from cr_restart(phi_os, ctx_fd, start=False)
        ctx_fd.close()
    sub.finish()
    proc.store["_listen_port"] = port

    # The restored process's pid now exists: claim the staged local store
    # under it (metadata-only renames, instantaneous) and point the
    # process's buffer table at the new paths.
    buffers = proc.store.get("buffers", {})
    for buf_id, info in sorted(meta["buffers"].items()):
        dst = buffer_localstore_path(proc.pid, buf_id)
        phi_os.fs.rename(f"{stage_dir}/buf_{buf_id}", dst)
        if buf_id in buffers:
            buffers[buf_id]["path"] = dst

    pipe = DuplexPipe(daemon.sim, name=("snapify-pipe:{}", proc.pid),
                      on_a_message=svc.kick)
    proc.runtime["snapify_pipe_pending"] = pipe.b
    listening = daemon.sim.event(f"listening:{proc.name}")
    proc.runtime["listening"] = listening

    binary = proc.store.get("_coi_binary")
    host_proc: SimProcess = msg["host_proc"]
    entry = DaemonEntry(host_proc=host_proc, offload_proc=proc, port=port, binary=binary)
    entry.pipe = pipe.a
    daemon.entries[proc.pid] = entry
    daemon._watch(entry)

    proc.start()
    try:
        yield listening
        ack = yield pipe.a.recv()  # restored agent announces itself
    except COIError as exc:
        # The restored process died before reconnecting (e.g. a torn
        # snapshot whose local store cannot back the buffer table it
        # captured). Reap it and report a clean failure to the host
        # instead of waiting on the rendezvous forever.
        if proc.alive:
            proc.terminate(code=1)
        sp.finish(error=str(exc))
        yield from ep.send({"t": c.SNAPIFY_FAILED, "op_id": msg["op_id"],
                            "reason": f"restore: {exc}"})
        return
    op_id = msg["op_id"]
    if ack.get("t") != c.PAUSE_ACK:
        raise SnapifyError(f"restored agent bad hello: {ack!r}",
                           op_id=op_id, phase="restore")
    svc.active[(proc.pid, op_id)] = ActiveRequest(
        entry=entry, host_ep=ep, op="restore", span_id=msg.get("span", 0),
        op_id=op_id)
    svc.ensure_monitor()
    yield from ep.send({"t": "restore-complete", "port": port, "pid": proc.pid,
                        "offload_proc": proc, "op_id": op_id})
    sp.finish(pid=proc.pid)


def _drain_read(fd):
    """Sub-generator: read a Snapify-IO stream to EOF; returns its records."""
    records = []
    while True:
        rec = yield from fd.read(4 * 1024 * 1024)
        if rec is None:
            break
        records.append(rec)
    return records


# Register with the COI daemon's extension dispatch.
COIDaemon.extensions[c.SERVICE] = handle_service
