"""Edge cases of the Snapify-IO daemons: concurrency, aborts, phi-to-phi."""


from repro.hw import GB, MB
from repro.sched.faults import FaultInjector
from repro.sim.errors import SimError
from repro.snapify_io import SnapifyIODaemon, snapifyio_open
from repro.testbed import XeonPhiServer


def test_concurrent_transfers_share_the_wire():
    """Two simultaneous card->host writes each get their own connection and
    staging buffer; both complete, and the shared PCIe direction makes the
    pair slower than one alone."""
    server = XeonPhiServer()
    phi = server.phi_os(0)
    times = {}

    def one_transfer(sim, tag):
        fd = yield from snapifyio_open(phi, 0, f"/out/{tag}", "w")
        yield from fd.write(256 * MB)
        yield from fd.finish()
        times[tag] = sim.now

    def solo(sim):
        t0 = sim.now
        yield from one_transfer(sim, "solo")
        return sim.now - t0

    t_solo = server.run(solo(server.sim))

    server2 = XeonPhiServer()
    phi2 = server2.phi_os(0)
    times2 = {}

    def one2(sim, tag):
        fd = yield from snapifyio_open(phi2, 0, f"/out/{tag}", "w")
        yield from fd.write(256 * MB)
        yield from fd.finish()
        times2[tag] = sim.now

    def pair(sim):
        t0 = sim.now
        a = sim.spawn(one2(sim, "a"))
        b = sim.spawn(one2(sim, "b"))
        yield sim.all_of([a.done, b.done])
        return sim.now - t0

    t_pair = server2.run(pair(server2.sim))
    assert t_pair > t_solo
    assert server2.host_os.fs.stat("/out/a").size == 256 * MB
    assert server2.host_os.fs.stat("/out/b").size == 256 * MB
    daemon = SnapifyIODaemon.of(phi2)
    assert daemon.connections_served == 2


def test_reader_abort_mid_stream_is_clean():
    """Closing the read descriptor halfway through must not wedge or kill
    the daemons; later transfers still work."""
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        yield from server.host_os.fs.write("/big", 512 * MB)
        fd = yield from snapifyio_open(phi, 0, "/big", "r")
        yield from fd.read(4 * MB)  # one chunk only
        fd.close()                  # abort
        yield sim.timeout(0.05)
        # The service must still be healthy.
        fd2 = yield from snapifyio_open(phi, 0, "/after", "w")
        yield from fd2.write(16 * MB)
        yield from fd2.finish()
        return server.host_os.fs.stat("/after").size

    assert server.run(driver(server.sim)) == 16 * MB
    assert not server.sim.failed_threads()


def test_writer_process_death_leaves_partial_file():
    """A card process dying mid-write (e.g. OOM-killed) resets its socket;
    the host file keeps whatever was flushed — standard crash semantics."""
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        def victim_main(proc):
            fd = yield from snapifyio_open(phi, 0, "/partial", "w", proc=proc)
            yield from fd.write(1 * GB)  # will be interrupted
            yield from fd.finish()

        proc = yield from phi.spawn_process("victim", image_size=1 * MB,
                                            main_factory=victim_main)
        yield sim.timeout(0.3)  # mid-transfer
        proc.terminate(code=137)
        yield sim.timeout(0.1)
        exists = server.host_os.fs.exists("/partial")
        size = server.host_os.fs.stat("/partial").size if exists else 0
        # Service still alive afterwards.
        fd = yield from snapifyio_open(phi, 0, "/later", "w")
        yield from fd.write(1 * MB)
        yield from fd.finish()
        return size

    size = server.run(driver(server.sim))
    assert 0 < size < 1 * GB
    assert server.host_os.fs.stat("/later").size == 1 * MB


def test_phi_to_phi_transfer():
    """Snapify-IO between two coprocessors (the migration local-store path
    the paper mentions): node ids are SCIF ids, so mic0 can address mic1."""
    server = XeonPhiServer()
    mic0, mic1 = server.phi_os(0), server.phi_os(1)

    def driver(sim):
        fd = yield from snapifyio_open(mic0, node=2, path="/tmp/from_mic0", mode="w")
        yield from fd.write(64 * MB, record="hello-mic1")
        yield from fd.finish()
        f = mic1.fs.stat("/tmp/from_mic0")
        return f.size, f.payload

    size, payload = server.run(driver(server.sim))
    assert size == 64 * MB
    assert payload == ["hello-mic1"]
    # The bytes landed in mic1's RAM-FS (charged to its card memory).
    assert server.node.phis[1].memory.by_category["ramfs"] >= 64 * MB


def test_zero_byte_file_roundtrip():
    server = XeonPhiServer()
    phi = server.phi_os(0)

    def driver(sim):
        fd = yield from snapifyio_open(phi, 0, "/empty", "w")
        yield from fd.finish()  # no writes at all
        rfd = yield from snapifyio_open(phi, 0, "/empty", "r")
        rec = yield from rfd.read(1 * MB)
        rfd.close()
        return server.host_os.fs.stat("/empty").size, rec

    size, rec = server.run(driver(server.sim))
    assert size == 0
    assert rec is None


def test_daemons_forget_finished_connections():
    """A long-lived daemon holds its two listeners plus its live
    connections, not every descriptor it ever served."""
    server = XeonPhiServer()
    phi = server.phi_os(0)
    local = SnapifyIODaemon.of(phi)
    remote = SnapifyIODaemon.of(server.host_os)
    during = []

    def driver(sim):
        for i in range(20):
            mode = "w" if i % 2 == 0 else "r"
            fd = yield from snapifyio_open(phi, 0, f"/many/{i // 2}", mode)
            if mode == "w":
                yield from fd.write(1 * MB, record=i)
                during.append(len(local.proc.open_fds))
                yield from fd.finish()
            else:
                assert (yield from fd.read(1 * MB)) == i - 1
                fd.close()
        yield sim.timeout(0.1)  # let the handlers finish their teardown

    server.run(driver(server.sim))
    assert local.connections_served == 20
    # Mid-transfer: listeners + the client's socket + the SCIF endpoint.
    assert during == [4] * 10
    for daemon in (local, remote):
        kinds = sorted(type(fd).__name__ for fd in daemon.proc.open_fds)
        assert kinds == ["Listener", "ScifListener"]


def test_killed_daemon_still_resets_its_peer_mid_transfer():
    server = XeonPhiServer()
    injector = FaultInjector(server.sim)
    server.fault_injector = injector
    phi = server.phi_os(0)
    local = SnapifyIODaemon.of(phi)
    outcome = {}

    def writer(sim):
        try:
            fd = yield from snapifyio_open(phi, 0, "/kill/x", "w")
            yield from fd.write(1 * GB)
            yield from fd.finish()
            outcome["result"] = "committed"
        except SimError as exc:
            outcome["result"] = exc

    def driver(sim):
        w = sim.spawn(writer(sim))
        yield sim.timeout(0.05)  # mid-transfer
        assert len(local.proc.open_fds) == 4
        injector.crash_io_daemon_now(server.host_os)
        yield w.done

    server.run(driver(server.sim))
    assert isinstance(outcome["result"], SimError)
    # The card-side handler saw the reset and dropped both descriptors.
    kinds = sorted(type(fd).__name__ for fd in local.proc.open_fds)
    assert kinds == ["Listener", "ScifListener"]
