"""Unit tests for UNIX-domain sockets: pairs, the per-OS namespace,
listener ownership, and the failure surface (bind collisions, EOF, EPIPE,
connection refused) the socket checkpoint plugin leans on."""

import pytest

from repro.hw import MB, HardwareParams, ServerNode
from repro.osim import boot_node
from repro.osim.sockets import SocketError, SocketNamespace, UnixSocket
from repro.sim import Simulator

BW = 400 * MB


def make_env():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host_os, phi_oses = boot_node(node)
    return sim, host_os, phi_oses[0]


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def test_pair_preserves_datagram_order():
    sim = Simulator()
    a, b = UnixSocket.pair(sim, BW, name="p")

    def driver():
        for i in range(5):
            yield from a.write(4096, record=f"dg{i}")
        got = []
        for _ in range(5):
            got.append((yield from b.read()))
        return got

    assert run(sim, driver()) == [f"dg{i}" for i in range(5)]
    assert a.bytes_written == 5 * 4096
    assert b.bytes_read == 5 * 4096


def test_read_returns_none_on_peer_close():
    sim = Simulator()
    a, b = UnixSocket.pair(sim, BW, name="p")

    def reader():
        yield from a.write(1024, record="last")
        assert b._rx.qsize == 1
        # As on a real UNIX socket, the peer's close ends the stream after
        # the datagrams already queued: the reader gets them, then EOF.
        a.close()
        last = yield from b.read()
        eof = yield from b.read()
        nbytes, rec = yield from b.read_datagram()
        return last, eof, (nbytes, rec)

    last, eof, dg = run(sim, reader())
    assert last == "last" and b.bytes_read == 1024
    assert eof is None
    assert dg == (0, None)


def test_write_to_closed_peer_raises_epipe():
    sim = Simulator()
    a, b = UnixSocket.pair(sim, BW, name="p")
    b.close()

    def driver():
        yield from a.write(1024, record="x")

    t = sim.spawn(driver())
    sim.run()
    assert not t.done.ok
    assert isinstance(t.done.exception, SocketError)
    assert "EPIPE" in str(t.done.exception)


def test_bind_collision_raises():
    sim = Simulator()
    ns = SocketNamespace(sim, default_bandwidth=BW)
    ns.listen("@svc")
    with pytest.raises(SocketError, match="already in use"):
        ns.listen("@svc")


def test_connect_refused_without_listener():
    sim = Simulator()
    ns = SocketNamespace(sim, default_bandwidth=BW)
    gen = ns.connect("@nobody")
    with pytest.raises(SocketError, match="connection refused"):
        next(gen)


def test_connect_sets_address_and_backlog_queues_until_accept():
    sim = Simulator()
    ns = SocketNamespace(sim, default_bandwidth=BW)
    listener = ns.listen("@svc")

    def driver():
        client = yield from ns.connect("@svc")
        # Datagrams sent before accept queue on the server half.
        yield from client.write(2048, record="early")
        server = yield listener.accept()
        rec = yield from server.read()
        return client, server, rec

    client, server, rec = run(sim, driver())
    assert client.address == "@svc"
    assert server.address == "@svc"
    assert rec == "early"


def test_listener_close_frees_address():
    sim = Simulator()
    ns = SocketNamespace(sim, default_bandwidth=BW)
    listener = ns.listen("@svc")
    assert ns.bound["@svc"] is listener
    listener.close()
    assert "@svc" not in ns.bound
    ns.listen("@svc")  # the name is reusable after close


def test_process_exit_releases_owned_listeners():
    sim, host, phi = make_env()

    def driver():
        proc = yield from phi.spawn_process("svc", image_size=1 * MB,
                                            start=False)
        listener = phi.sockets.listen("@owned", owner=proc)
        assert proc.listeners == [listener]
        assert phi.sockets.bound["@owned"].owner is proc
        proc.terminate(code=0)
        assert proc.listeners == []
        assert "@owned" not in phi.sockets.bound
        gen = phi.sockets.connect("@owned")
        with pytest.raises(SocketError, match="connection refused"):
            next(gen)

    run(sim, driver())
