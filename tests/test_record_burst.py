"""Record bursts: BLCR's small records cross Snapify-IO as one datagram.

``SnapifyIOFile.write_records`` sends a run of small records that the
daemon stages without a flush as one ``RecordBurst``, and the daemon
replays each record's copy from its send time. Every simulated number must
match the per-record path bit for bit; only the host's work shrinks.
"""

import dataclasses

import pytest

from repro.blcr import cr_checkpoint, cr_restart
from repro.blcr.checkpoint import page_walk_cost, sleep_through
from repro.blcr.context import RECORD_CPU_COST, SMALL_RECORD
from repro.hw import MB, HardwareParams, ServerNode
from repro.obs.registry import MetricsRegistry
from repro.osim import boot_node
from repro.osim.fd import FileDescriptor
from repro.osim.sockets import SocketError
from repro.scif import ScifNetwork
from repro.sim import Simulator
from repro.snapify_io import SnapifyIODaemon, snapifyio_open


class PerRecord(FileDescriptor):
    """Pass-through descriptor on the base paths: ``write_records`` one
    record at a time, and never ``exhausted``, so every read and sleep is
    its own wait. The reference every burst and single wake must match."""

    def __init__(self, inner):
        super().__init__(inner.sim, name="per-record")
        self.inner = inner

    def write(self, nbytes, record=None):
        yield from self.inner.write(nbytes, record)

    def read(self, nbytes):
        return (yield from self.inner.read(nbytes))


def _env(buffer_size=None):
    params = HardwareParams(phis_per_node=1)
    if buffer_size is not None:
        io = dataclasses.replace(params.snapify_io, buffer_size=buffer_size)
        params = dataclasses.replace(params, snapify_io=io)
    sim = Simulator()
    node = ServerNode(sim, params)
    host, (phi,) = boot_node(node)
    ScifNetwork.of(node)
    _run(sim, SnapifyIODaemon.boot_all(node))
    return sim, host, phi


def _run(sim, gen):
    t = sim.spawn(gen)
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    return t.done.value


def _idle(proc):
    yield proc.sim.sleep(10.0)


def _prologue(n, every=None):
    """``n`` metadata records; every ``every``-th carries a payload."""
    return [(SMALL_RECORD, f"r{i}" if every and i % every == 0 else None) for i in range(n)]


def _checkpoint(per_record, buffer_size=None, regions=(5 * MB + 300, 3000)):
    """Checkpoint a card process to the host; what the run left behind."""
    sim, host, phi = _env(buffer_size)

    def work():
        proc = yield from phi.spawn_process("app", image_size=MB, main_factory=_idle)
        for i, size in enumerate(regions):
            proc.map_region(f"r{i}", size, data={"i": i})
        fd = yield from snapifyio_open(phi, 0, "/ckpt", "w")
        yield from cr_checkpoint(proc, PerRecord(fd) if per_record else fd)
        written = sim.now
        yield from fd.finish()
        return written, sim.now

    written, finished = _run(sim, work())
    sim.run()
    staged = MetricsRegistry.of(sim).counter(f"snapifyio.{phi.name}.bytes_staged")
    payload = host.fs.stat("/ckpt").payload
    return {
        "written": written,
        "finished": finished,
        "commits": dict(SnapifyIODaemon.of(host).commits),
        "bytes_staged": staged.value,
        "payload": [(type(r).__name__, r.name, r.n_small_records) for r in payload],
        "size": host.fs.stat("/ckpt").size,
        "entries": next(sim._seq),
    }


def test_checkpoint_burst_matches_per_record_path_bit_for_bit():
    burst, reference = _checkpoint(False), _checkpoint(True)
    entries = burst.pop("entries"), reference.pop("entries")
    assert burst == reference
    assert burst["commits"] == {"/ckpt": burst["size"]}
    # Same numbers from far fewer heap entries.
    assert entries[0] < entries[1] - 200


def _prologue_instants(per_record, plan, record_cost, per_byte):
    """When the writer returns from ``plan``, and when its daemon goes idle."""
    sim, host, phi = _env()
    fd = _run(sim, snapifyio_open(phi, 0, "/p", "w"))
    sim.run()
    writer = PerRecord(fd) if per_record else fd

    def work():
        yield from writer.write_records(plan, record_cost, per_byte)
        return sim.now

    written = _run(sim, work())
    sim.run()
    return written, sim.now


@pytest.mark.parametrize(
    "record_cost, per_byte", [(RECORD_CPU_COST, 0.0), (3.3e-6, 1.7e-9), (0.0, 0.0)]
)
def test_uneven_records_keep_both_clocks_exact(record_cost, per_byte):
    """Record sizes that vary round the float sums differently at every
    step, so only the per-record recurrence lands on the same instants.
    With no CPU cost the daemon is still copying when the next record
    arrives, and its replay must wait for its own previous copy."""
    plan = [(1 + (i * 37) % SMALL_RECORD, None) for i in range(200)]
    burst = _prologue_instants(False, plan, record_cost, per_byte)
    assert burst == _prologue_instants(True, plan, record_cost, per_byte)


@pytest.mark.parametrize("buffer_size", [768, 1000, 1024, 4096])
def test_records_across_staging_flushes_stay_exact(buffer_size):
    """With a staging buffer of a few records, bursts stop at each flush
    (before the copy, after it, or exactly full) and the daemon's flush
    sequence is unchanged."""
    regions = (5000, 700)
    burst = _checkpoint(False, buffer_size, regions)
    reference = _checkpoint(True, buffer_size, regions)
    burst.pop("entries"), reference.pop("entries")
    assert burst == reference


def _resumed(per_record):
    """Abort after 60 records, resume, then stream all 150 records. A
    16-record staging buffer puts flushes in both streams."""
    sim, host, phi = _env(buffer_size=16 * SMALL_RECORD)
    plan = _prologue(150, every=10)
    per_byte = page_walk_cost(phi)

    def work():
        fd = yield from snapifyio_open(phi, 0, "/rs", "w")
        for nbytes, record in plan[:60]:
            yield from fd.write(nbytes, record)
        yield sim.timeout(0.01)  # the daemon stages them
        fd.close()  # abort: what was staged stays durable
        yield sim.timeout(0.05)
        fd = yield from snapifyio_open(phi, 0, "/rs", "w", resume=True)
        skip = fd._skip
        writer = PerRecord(fd) if per_record else fd
        yield from writer.write_records(plan, RECORD_CPU_COST, per_byte)
        yield from fd.finish()
        return skip, sim.now

    skip, finished = _run(sim, work())
    f = host.fs.stat("/rs")
    return skip, finished, f.size, f.payload, dict(SnapifyIODaemon.of(host).commits)


def test_resumed_stream_redelivers_its_durable_records():
    burst, reference = _resumed(False), _resumed(True)
    assert burst == reference
    skip, _, size, payload, commits = burst
    assert 0 < skip <= 60 * SMALL_RECORD
    assert payload == [f"r{i}" for i in range(0, 150, 10)]
    assert size == 150 * SMALL_RECORD and commits == {"/rs": size}


@pytest.mark.parametrize("nbytes", [6 * MB, 15_360])
def test_closed_writer_leaves_every_written_byte_durable(nbytes):
    """The writer's close ends the daemon's stream after the datagrams
    already queued, as a UNIX socket delivers queued data before EOF, so
    the durable partial holds every byte written (not the 4 MiB flushed
    before the close, or nothing)."""
    sim, host, phi = _env()

    def work():
        fd = yield from snapifyio_open(phi, 0, "/partial", "w")
        yield from fd.write(nbytes, "rec")
        fd.close()
        yield sim.timeout(1.0)

    _run(sim, work())
    assert host.fs.stat("/partial").size == nbytes
    assert "/partial" not in SnapifyIODaemon.of(host).commits


def test_writer_killed_mid_burst_leaves_no_commit():
    sim, host, phi = _env()

    def writer(fd):
        yield from fd.write_records(_prologue(75), RECORD_CPU_COST, page_walk_cost(phi))
        yield from fd.finish()

    def work():
        proc = yield from phi.spawn_process("app", image_size=MB, main_factory=_idle)
        fd = yield from snapifyio_open(phi, 0, "/killed", "w", proc=proc)
        thread = proc.spawn_thread(writer(fd), name="blcr-checkpoint")
        yield sim.sleep(100e-6)
        assert thread.blocked_on.name == "at"  # inside the burst's one wait
        proc.terminate(code=9)
        yield sim.timeout(0.05)

    _run(sim, work())
    sim.run()
    assert "/killed" not in SnapifyIODaemon.of(host).commits
    assert host.fs.stat("/killed").size == 0


def test_daemon_dying_mid_burst_raises_socket_error():
    sim, host, phi = _env()

    def work():
        fd = yield from snapifyio_open(phi, 0, "/orphan", "w")
        plan = _prologue(75)
        writer = sim.spawn(fd.write_records(plan, RECORD_CPU_COST, page_walk_cost(phi)))
        yield sim.sleep(100e-6)
        SnapifyIODaemon.of(phi).proc.terminate(code=9)
        with pytest.raises(SocketError, match="EPIPE"):
            yield writer.done

    _run(sim, work())


def test_prologue_costs_at_most_six_heap_entries():
    """Spawning the writer plus its one wait and send, and the daemon's
    wake and copy: a 75-record prologue takes one datagram, not 75."""
    sim, host, phi = _env()
    fd = _run(sim, snapifyio_open(phi, 0, "/pin", "w"))
    sim.run()  # the daemon parks in its read loop
    before = next(sim._seq)
    sim.spawn(fd.write_records(_prologue(75), RECORD_CPU_COST, page_walk_cost(phi)))
    sim.run()
    assert next(sim._seq) - before - 1 <= 6
    assert fd.bytes_written == 75 * SMALL_RECORD


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200])
def test_sleep_through_lands_where_the_sleeps_land(n):
    costs = [1e-7 * (1 + (i * 37) % 256) for i in range(n)]

    def walk(sim, once):
        yield sim.sleep(0.1)
        if once:
            yield from sleep_through(sim, costs)
        else:
            for cost in costs:
                yield sim.sleep(cost)

    ends = []
    for once in (True, False):
        sim = Simulator()
        _run(sim, walk(sim, once))
        ends.append(sim.now)
    assert ends[0] == ends[1]


def _restart(per_record):
    """Restart a checkpointed card process; when it is rebuilt."""
    sim, host, phi = _env()

    def work():
        proc = yield from phi.spawn_process("app", image_size=MB, main_factory=_idle)
        for i, size in enumerate((9 * MB + 300, 3000)):
            proc.map_region(f"r{i}", size, data={"i": i})
        fd = yield from snapifyio_open(phi, 0, "/ckpt", "w")
        yield from cr_checkpoint(proc, fd)
        yield from fd.finish()
        proc.terminate()
        rfd = yield from snapifyio_open(phi, 0, "/ckpt", "r")
        restored = yield from cr_restart(phi, PerRecord(rfd) if per_record else rfd, start=False)
        rfd.close()
        return sim.now, restored.region("r0").data

    rebuilt = _run(sim, work())
    return rebuilt, next(sim._seq)


def test_restart_after_the_drain_wakes_once_at_the_same_instant():
    """Once the header read has drained the stream, the remaining header
    reads and the page walk are pure sleeps: one wake each, same instant."""
    (rebuilt, entries), (reference, ref_entries) = _restart(False), _restart(True)
    assert rebuilt == reference == (reference[0], {"i": 0})
    # 53 header reads after the one that found the context become one wait.
    assert entries < ref_entries - 50
