"""Idle simulator primitives cost nothing: lazy queues and their semantics.

``Channel``, ``Mutex`` and ``Semaphore`` allocate their
queues only when something is queued or parks. These tests pin the
semantics of the lazy paths (FIFO after a queue empties and refills,
abandoned waiters skipped, close on a never-used channel, wakeups on
primitives nothing ever waited on) and bound the idle footprint.

The hot paths built on them allocate one object per job: SCIF endpoints on
one node pair share a route, a parked SCIF or socket read is the channel's
own receive event (so an abandoned reader takes no message), and a thread
holds no bound method of itself.
"""

import gc
import tracemalloc
import types

import pytest

from repro.hw import HardwareParams, ServerNode
from repro.osim import boot_node
from repro.osim.sockets import UnixSocket
from repro.scif.endpoint import ConnectionReset, ScifEndpoint, ScifNetwork, _SyncEnvelope
from repro.sim import Channel, ChannelClosed, Event, Interrupted, Simulator
from repro.sim.errors import SimError
from repro.sim.sync import Mutex, Semaphore


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


def test_fresh_channel_reports_empty():
    sim = Simulator()
    ch = Channel(sim)
    assert ch.qsize == 0
    assert ch.empty
    assert ch.in_flight == 0
    assert ch.try_recv() == (False, None)


def test_fifo_handoff_after_receiver_queue_empties_and_refills():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def receiver(sim, tag):
        got.append((tag, (yield ch.recv())))

    def driver(sim):
        for round_ in range(2):
            for tag in "abc":
                sim.spawn(receiver(sim, f"{tag}{round_}"))
            yield sim.timeout(1)  # all three parked
            for i in range(3):
                ch.send(f"m{round_}{i}")
            yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert got == [
        ("a0", "m00"),
        ("b0", "m01"),
        ("c0", "m02"),
        ("a1", "m10"),
        ("b1", "m11"),
        ("c1", "m12"),
    ]


def test_fifo_items_after_message_queue_empties_and_refills():
    sim = Simulator()
    ch = Channel(sim)
    out = []
    for batch in (["a", "b", "c"], ["d", "e"]):
        for item in batch:
            ch.send(item)
        assert ch.qsize == len(batch)
        while True:
            ok, item = ch.try_recv()
            if not ok:
                break
            out.append(item)
        assert ch.empty and ch.qsize == 0
    assert out == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("parked_before", [0, 1])
def test_interrupted_receiver_is_skipped_on_handoff(parked_before):
    """Whether the abandoned receiver is the first ever to park (the queue
    is created around it) or joins an existing queue, a send skips it."""
    sim = Simulator()
    ch = Channel(sim)
    got = {}

    def receiver(sim, tag):
        try:
            got[tag] = yield ch.recv()
        except Interrupted:
            got[tag] = "interrupted"

    def driver(sim):
        if parked_before:
            sim.spawn(receiver(sim, "early"))
            yield sim.timeout(1)
            ch.send("first")
            yield sim.timeout(1)
        victim = sim.spawn(receiver(sim, "victim"))
        yield sim.timeout(1)
        victim.interrupt("cancel")
        yield sim.timeout(1)
        sim.spawn(receiver(sim, "live"))
        yield sim.timeout(1)
        ch.send("payload")
        yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert got["victim"] == "interrupted"
    assert got["live"] == "payload"
    assert ch.received_count == ch.sent_count == 1 + parked_before


def _scif_pair(sim=None):
    """A connected (client on the host, server on mic0) endpoint pair."""
    sim = sim or Simulator()
    node = ServerNode(sim, HardwareParams())
    host, phis = boot_node(node)
    net = ScifNetwork.of(node)
    listener = net.listen(phis[0], port=100)
    ends = {}

    def server(sim):
        ends["server"] = yield listener.accept()

    def client(sim):
        ends["client"] = yield from net.connect(host, dst_node_id=1, dst_port=100)

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run()
    return sim, net, ends["client"], ends["server"]


def _abandon(thread, how):
    thread.kill() if how == "kill" else thread.interrupt("cancel")


def _reader(got, tag, recv):
    try:
        got[tag] = yield from recv()
    except Interrupted:
        got[tag] = "interrupted"


@pytest.mark.parametrize("how", ["kill", "interrupt"])
@pytest.mark.parametrize("sync", [False, True], ids=["send", "send_sync"])
def test_abandoned_scif_reader_takes_no_message(how, sync):
    """A reader killed or interrupted while parked in ``ep.recv()`` leaves
    the message queued for the next reader; a ``send_sync`` stays parked
    until that live reader takes it."""
    sim, _net, cli, srv = _scif_pair(Simulator(strict=True))
    got, acked = {}, []

    def recv():
        return (yield srv.recv())

    def sender(sim):
        if sync:
            yield from cli.send_sync("m1")
        else:
            yield from cli.send("m1")
        acked.append(sim.now)

    def driver(sim):
        victim = sim.spawn(_reader(got, "victim", recv))
        yield sim.timeout(1)
        _abandon(victim, how)
        sim.spawn(sender(sim))
        yield sim.timeout(1)
        assert srv.pending == 1 and "live" not in got
        assert len(acked) == (0 if sync else 1)  # a sync send waits for a reader
        sim.spawn(_reader(got, "live", recv))
        yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert got["live"] == "m1"
    assert got.get("victim") == ("interrupted" if how == "interrupt" else None)
    assert srv.pending == 0 and len(acked) == 1
    if sync:
        assert acked[0] > 2.0  # released by the live reader's take


@pytest.mark.parametrize("how", ["kill", "interrupt"])
@pytest.mark.parametrize("datagram", [False, True], ids=["read", "read_datagram"])
def test_abandoned_socket_reader_takes_no_datagram(how, datagram):
    sim = Simulator(strict=True)
    a, b = UnixSocket.pair(sim, 1e9, name="p")
    got = {}
    recv = b.read_datagram if datagram else b.read

    def driver(sim):
        victim = sim.spawn(_reader(got, "victim", recv))
        yield sim.timeout(1)
        _abandon(victim, how)
        yield from a.write(4096, record="dg1")
        yield sim.timeout(1)
        assert b._rx.qsize == 1 and b.bytes_read == 0
        sim.spawn(_reader(got, "live", recv))
        yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert got["live"] == ((4096, "dg1") if datagram else "dg1")
    assert b.bytes_read == 4096 and b._rx.qsize == 0


def test_bounded_channel_admits_blocked_senders_in_fifo_order():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    accepted = []
    received = []

    def sender(sim, item):
        yield ch.send(item)
        accepted.append(item)

    def driver(sim):
        for item in ("x", "s1", "s2", "s3"):
            sim.spawn(sender(sim, item))
        yield sim.timeout(1)
        assert accepted == ["x"]
        assert ch.qsize == 1 and ch.in_flight == 4
        for _ in range(4):
            received.append((yield ch.recv()))
            yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert received == ["x", "s1", "s2", "s3"]
    assert accepted == ["x", "s1", "s2", "s3"]
    assert ch.in_flight == 0


def test_close_never_used_channel():
    sim = Simulator()
    ch = Channel(sim)
    ch.close()
    assert ch.closed and ch.qsize == 0 and ch.in_flight == 0 and ch.empty
    assert isinstance(ch.recv().exception, ChannelClosed)
    assert isinstance(ch.send("late").exception, ChannelClosed)
    ch.close()  # idempotent


def test_close_fails_parked_receivers_and_blocked_senders_with_close_error():
    sim = Simulator()
    rx = Channel(sim)
    tx = Channel(sim, capacity=1)
    err = SimError("torn down")
    outcomes = {}

    def waiter(sim, tag, ev):
        try:
            yield ev
            outcomes[tag] = "ok"
        except SimError as exc:
            outcomes[tag] = exc

    def driver(sim):
        sim.spawn(waiter(sim, "r1", rx.recv()))
        sim.spawn(waiter(sim, "r2", rx.recv()))
        tx.send("fills")
        sim.spawn(waiter(sim, "s1", tx.send("blocked")))
        yield sim.timeout(1)
        rx.close(err)
        tx.close(err)
        yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert outcomes == {"r1": err, "r2": err, "s1": err}
    assert tx.qsize == 0 and tx.in_flight == 0
    assert rx.recv().exception is err


def test_fail_queued_sync_acks_on_never_used_channel():
    sim = Simulator()
    ScifEndpoint._fail_queued_sync_acks(Channel(sim), "reset")
    closed = Channel(sim)
    closed.close()
    ScifEndpoint._fail_queued_sync_acks(closed, "reset")


def test_fail_queued_sync_acks_fails_only_pending_acks():
    sim = Simulator()
    ch = Channel(sim)
    pending, done = sim.event("ack-1"), sim.event("ack-2")
    done.succeed(None)
    ch.send(_SyncEnvelope("m1", pending))
    ch.send(_SyncEnvelope("m2", done))
    ch.send("plain")
    ScifEndpoint._fail_queued_sync_acks(ch, "reset")
    assert isinstance(pending.exception, ConnectionReset)
    assert done.ok


# ---------------------------------------------------------------------------
# Mutex, Semaphore
# ---------------------------------------------------------------------------


def test_release_post_and_notify_when_nothing_ever_waited():
    sim = Simulator()
    mutex = Mutex(sim)
    assert mutex.queue_length == 0
    assert mutex.try_acquire()
    mutex.release()
    assert not mutex.locked and mutex.owner is None
    assert mutex.acquire(owner="me").ok
    mutex.release()
    assert not mutex.locked

    sem = Semaphore(sim, value=0)
    sem.post(2)
    assert sem.value == 2


def test_mutex_handoff_is_fifo_after_waiter_queue_drains():
    sim = Simulator()
    mutex = Mutex(sim)
    order = []

    def worker(sim, tag):
        yield mutex.acquire(owner=tag)
        order.append(tag)
        yield sim.timeout(1)
        mutex.release()

    def driver(sim):
        for batch in ("abc", "de"):
            for tag in batch:
                sim.spawn(worker(sim, tag))
            yield sim.timeout(10)
            assert mutex.queue_length == 0 and not mutex.locked

    sim.spawn(driver(sim))
    sim.run()
    assert order == list("abcde")


def test_semaphore_and_condition_wake_fifo_from_lazy_queue():
    sim = Simulator()
    sem = Semaphore(sim)
    order = []

    def sem_waiter(sim, tag):
        yield sem.wait()
        order.append(tag)

    def driver(sim):
        sim.spawn(sem_waiter(sim, "s1"))
        sim.spawn(sem_waiter(sim, "s2"))
        yield sim.timeout(1)
        sem.post(2)
        yield sim.timeout(1)

    sim.spawn(driver(sim))
    sim.run()
    assert order == ["s1", "s2"]


@pytest.mark.parametrize("cls", [Mutex, Semaphore])
def test_sync_primitives_reject_ad_hoc_attributes(cls):
    sim = Simulator()
    obj = cls(sim)
    with pytest.raises(AttributeError):
        obj.extra = 1


# ---------------------------------------------------------------------------
# Idle footprint
# ---------------------------------------------------------------------------

N_IDLE = 10_000


def _bytes_per_idle(factory):
    """Traced bytes per live instance, over ``N_IDLE`` instances."""
    keep = [None] * N_IDLE  # preallocated: the list is not charged
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(N_IDLE):
            keep[i] = factory()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(obj is not None for obj in keep)
    return (after - before) / N_IDLE


@pytest.mark.parametrize(
    "kind,bound",
    [("Channel", 400), ("Mutex", 300), ("Semaphore", 300)],
)
def test_idle_footprint_bound(kind, bound):
    sim = Simulator()
    factories = {
        "Channel": lambda: Channel(sim, name="chan"),
        "Mutex": lambda: Mutex(sim, name="mutex"),
        "Semaphore": lambda: Semaphore(sim, name="sem"),
    }
    per_obj = _bytes_per_idle(factories[kind])
    assert per_obj <= bound, f"idle {kind} costs {per_obj:.0f} B (bound {bound})"


# ---------------------------------------------------------------------------
# Hot-path objects: one per route, per parked receive, per thread
# ---------------------------------------------------------------------------


def test_connections_on_one_node_pair_share_one_route():
    sim, net, cli1, srv1 = _scif_pair()
    listener = net.listen(srv1.os, port=101)
    ends = []

    def server(sim):
        ends.append((yield listener.accept()))

    def client(sim):
        ends.append((yield from net.connect(cli1.os, dst_node_id=1, dst_port=101)))

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run()
    srv2, cli2 = ends
    assert cli2._out is cli1._out and cli2._in is cli1._in
    assert srv2._out is srv1._out is cli1._in
    assert len(cli1._out) == 1


def _live(cls):
    return sum(1 for o in gc.get_objects() if isinstance(o, cls))


def _parked_receive_allocations(park):
    """(Events, functions) that ``park()`` leaves alive."""
    gc.collect()
    before = _live(Event), _live(types.FunctionType)
    ev = park()
    after = _live(Event), _live(types.FunctionType)
    assert isinstance(ev, Event) and not ev.triggered
    return after[0] - before[0], after[1] - before[1]


def test_parked_scif_recv_allocates_one_event_and_no_function():
    _sim, _net, _cli, srv = _scif_pair()
    assert _parked_receive_allocations(srv.recv) == (1, 0)


def test_parked_socket_read_allocates_one_event_and_no_function():
    sim = Simulator()
    _a, b = UnixSocket.pair(sim, 1e9, name="p")
    readers = []

    def park():
        readers.append(b.read())  # keep the generator (and its event) alive
        return next(readers[-1])

    assert _parked_receive_allocations(park) == (1, 0)


def test_thread_holds_no_bound_method():
    sim = Simulator()

    def worker(sim):
        yield sim.event("never")

    t = sim.spawn(worker(sim))
    sim.run(check_deadlock=False)
    assert t.alive and t.blocked_on is not None
    assert not any(isinstance(r, types.MethodType) for r in gc.get_referents(t))
