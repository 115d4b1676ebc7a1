"""Unit tests for COI's generic client/server channel machinery."""

import pytest

from repro.coi import COIError, ClientChannel, ServerLoop
from repro.coi import messages as m
from repro.hw import MB, HardwareParams, ServerNode
from repro.osim import boot_node
from repro.scif import ScifNetwork
from repro.sim import Simulator


def make_pair():
    """A connected (client ClientChannel, server SimProcess+ServerLoop)."""
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host, phis = boot_node(node)
    net = ScifNetwork.of(node)
    listener = net.listen(phis[0], port=500)
    state = {"handled": []}

    def setup(sim):
        proc = yield from phis[0].spawn_process("srv", image_size=1 * MB)
        client_ep = yield from net.connect(host, 1, 500)
        server_ep = yield listener.accept()

        def handler(msg):
            state["handled"].append(msg)
            if msg.get("want_reply"):
                return {"type": m.REPLY, "echo": msg["x"]}
            return None
            yield  # pragma: no cover

        loop = ServerLoop(proc, server_ep, handler, name="test-srv")
        state["loop"] = loop
        state["client"] = ClientChannel(sim, client_ep, "test-client")
        state["proc"] = proc

    t = sim.spawn(setup(sim))
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    return sim, state


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    return t.done.value


def test_rpc_roundtrip():
    sim, state = make_pair()

    def driver(sim):
        reply = yield from state["client"].rpc({"x": 42, "want_reply": True})
        return reply

    assert run(sim, driver(sim))["echo"] == 42
    assert state["loop"].messages_handled == 1


def test_notify_one_way():
    sim, state = make_pair()

    def driver(sim):
        yield from state["client"].notify({"x": 1})
        yield from state["client"].notify({"x": 2})
        yield sim.timeout(0.01)

    run(sim, driver(sim))
    assert [msg["x"] for msg in state["handled"]] == [1, 2]


def test_client_mutex_serializes_rpcs():
    sim, state = make_pair()
    order = []

    def caller(sim, tag):
        reply = yield from state["client"].rpc({"x": tag, "want_reply": True})
        order.append(reply["echo"])

    def driver(sim):
        for tag in range(4):
            sim.spawn(caller(sim, tag))
        yield sim.timeout(0.05)

    run(sim, driver(sim))
    assert order == [0, 1, 2, 3]  # FIFO through the client lock


def test_snapify_shutdown_quiesces_and_release_reopens():
    sim, state = make_pair()
    timeline = {}

    def late_rpc(sim):
        reply = yield from state["client"].rpc({"x": 9, "want_reply": True})
        timeline["rpc_done"] = sim.now

    def driver(sim):
        yield from state["client"].snapify_shutdown()
        assert state["loop"].shutdowns_seen == 1
        sim.spawn(late_rpc(sim))
        yield sim.timeout(0.5)
        timeline["released_at"] = sim.now
        state["client"].snapify_release()
        yield sim.timeout(0.05)

    run(sim, driver(sim))
    assert timeline["rpc_done"] >= timeline["released_at"]


def test_rpc_during_shutdown_window_blocks_not_errors():
    """The shut_down flag only rejects traffic that somehow *bypasses* the
    lock; normal callers just queue on the mutex."""
    sim, state = make_pair()

    def driver(sim):
        yield from state["client"].snapify_shutdown()
        # Direct misuse: bypass the mutex and check the flag trips.
        state["client"].mutex.release()  # simulate a buggy path
        with pytest.raises(COIError, match="quiesced"):
            yield from state["client"].rpc({"x": 1, "want_reply": True})
        # Restore the lock state so release() is balanced.
        assert state["client"].mutex.try_acquire("fix")
        state["client"].snapify_release()
        return "ok"

    assert run(sim, driver(sim)) == "ok"


def test_release_without_shutdown_rejected():
    sim, state = make_pair()
    with pytest.raises(COIError):
        state["client"].snapify_release()


def test_server_loop_ends_when_its_peer_resets():
    """Closing the client endpoint ends the server loop's thread: a restored
    peer gets fresh loops, so nothing is left parked on the dead channel."""
    sim, state = make_pair()

    def driver(sim):
        state["client"].ep.close()
        yield sim.timeout(0.01)
        return state["loop"].thread

    thread = run(sim, driver(sim))
    assert not thread.alive
    assert thread.done.ok
