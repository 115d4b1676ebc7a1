"""Tests for simulated file systems and file descriptors."""

import pytest

from repro.hw import GB, MB, HardwareParams, MemoryExhausted, ServerNode
from repro.osim import FSError, RegularFileFD, boot_node
from repro.osim.fd import FDError
from repro.sim import Simulator


def make_env():
    sim = Simulator()
    node = ServerNode(sim, HardwareParams())
    host_os, phi_oses = boot_node(node)
    return sim, node, host_os, phi_oses[0]


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def test_host_fs_write_read_roundtrip():
    sim, node, host, phi = make_env()

    def worker(sim):
        yield from host.fs.write("/snap/ctx", 100 * MB, payload={"x": 1})
        data = yield from host.fs.read("/snap/ctx")
        return data

    assert run(sim, worker(sim)) == {"x": 1}


def test_host_fs_write_is_page_cached():
    sim, node, host, phi = make_env()
    times = {}

    def worker(sim):
        yield from host.fs.write("/f", 300 * MB)
        times["write"] = sim.now  # async: page cache speed

    run(sim, worker(sim))
    assert times["write"] < 0.3


def test_fs_requires_absolute_paths():
    sim, node, host, phi = make_env()
    with pytest.raises(FSError):
        host.fs.exists("relative/path")


def test_fs_stat_and_unlink():
    sim, node, host, phi = make_env()

    def worker(sim):
        yield from host.fs.write("/a/b", 10)

    run(sim, worker(sim))
    assert host.fs.stat("/a/b").size == 10
    host.fs.unlink("/a/b")
    assert not host.fs.exists("/a/b")
    with pytest.raises(FSError):
        host.fs.unlink("/a/b")


def test_fs_listdir():
    sim, node, host, phi = make_env()

    def worker(sim):
        yield from host.fs.write("/snap/1/ctx", 1)
        yield from host.fs.write("/snap/1/libs", 1)
        yield from host.fs.write("/other", 1)

    run(sim, worker(sim))
    assert host.fs.listdir("/snap/1") == ["/snap/1/ctx", "/snap/1/libs"]


def test_fs_create_truncates():
    sim, node, host, phi = make_env()

    def worker(sim):
        yield from host.fs.write("/f", 100)
        host.fs.create("/f")

    run(sim, worker(sim))
    assert host.fs.stat("/f").size == 0


def test_ramfs_charges_card_memory():
    sim, node, host, phi = make_env()

    def worker(sim):
        yield from phi.fs.write("/tmp/localstore", 512 * MB)

    run(sim, worker(sim))
    assert phi.memory.by_category["ramfs"] == 512 * MB
    phi.fs.unlink("/tmp/localstore")
    assert phi.memory.by_category["ramfs"] == 0


def test_ramfs_write_to_a_file_unlinked_mid_write_returns_its_bytes():
    """A write still copying when its file is unlinked (a failed migration
    dropping its staged local store) lands in no file, so its charge goes
    back to the card: the pool keeps matching the files that exist."""
    sim, node, host, phi = make_env()
    copy_time = 64 * MB / phi.memory.params.memcpy_bw

    def writer(sim):
        yield from phi.fs.write("/tmp/localstore", 64 * MB)

    def unlinker(sim):
        yield sim.sleep(copy_time / 2)
        assert phi.memory.by_category["ramfs"] == 64 * MB
        phi.fs.unlink("/tmp/localstore")

    t = sim.spawn(unlinker(sim))
    run(sim, writer(sim))
    assert t.done.ok, t.done.exception
    assert not phi.fs.exists("/tmp/localstore")
    assert phi.fs.total_bytes() == phi.memory.by_category["ramfs"] == 0


def test_ramfs_oom_on_oversized_file():
    """A snapshot bigger than free card memory cannot be stored locally."""
    sim, node, host, phi = make_env()

    def worker(sim):
        # Fill most of the 8 GB card, then try to write a 4 GB local file.
        phi.memory.allocate(5 * GB, "process")
        yield from phi.fs.write("/tmp/snapshot", 4 * GB)

    t = sim.spawn(worker(sim))
    sim.run()
    assert isinstance(t.done.exception, MemoryExhausted)


def test_ramfs_slower_than_memcpy():
    sim, node, host, phi = make_env()
    times = {}

    def worker(sim):
        t0 = sim.now
        yield from phi.fs.write("/f", GB)
        times["ramfs"] = sim.now - t0

    run(sim, worker(sim))
    expected_memcpy = GB / phi.memory.params.memcpy_bw
    assert times["ramfs"] == pytest.approx(expected_memcpy * 1.3)


# --------------------------------------------------------------------------
# RegularFileFD
# --------------------------------------------------------------------------


def test_fd_record_stream_roundtrip():
    sim, node, host, phi = make_env()

    def writer(sim):
        fd = RegularFileFD(sim, host.fs, "/ctx", "w")
        yield from fd.write(100, record="header")
        yield from fd.write(50 * MB, record={"region": "heap"})
        yield from fd.write(10, record=None)  # data with no record
        fd.close()

    def reader(sim):
        fd = RegularFileFD(sim, host.fs, "/ctx", "r")
        r1 = yield from fd.read(100)
        r2 = yield from fd.read(50 * MB)
        r3 = yield from fd.read(10)
        fd.close()
        return (r1, r2, r3)

    run(sim, writer(sim))
    assert run(sim, reader(sim)) == ("header", {"region": "heap"}, None)


def test_fd_mode_enforcement():
    sim, node, host, phi = make_env()

    def worker(sim):
        wfd = RegularFileFD(sim, host.fs, "/f", "w")
        yield from wfd.write(1, record="x")
        wfd.close()
        rfd = RegularFileFD(sim, host.fs, "/f", "r")
        with pytest.raises(FDError):
            yield from rfd.write(1)
        with pytest.raises(FDError):
            yield from wfd.write(1)  # closed
        return "ok"

    assert run(sim, worker(sim)) == "ok"


def test_fd_open_missing_file_for_read_fails():
    sim, node, host, phi = make_env()
    with pytest.raises(FSError):
        RegularFileFD(sim, host.fs, "/missing", "r")


def test_fd_write_mode_truncates_existing():
    sim, node, host, phi = make_env()

    def worker(sim):
        fd1 = RegularFileFD(sim, host.fs, "/f", "w")
        yield from fd1.write(100, record="old")
        fd1.close()
        fd2 = RegularFileFD(sim, host.fs, "/f", "w")
        yield from fd2.write(5, record="new")
        fd2.close()
        fd3 = RegularFileFD(sim, host.fs, "/f", "r")
        rec = yield from fd3.read(5)
        return rec, host.fs.stat("/f").size

    rec, size = run(sim, worker(sim))
    assert rec == "new"
    assert size == 5


def test_fd_byte_counters():
    sim, node, host, phi = make_env()

    def worker(sim):
        fd = RegularFileFD(sim, host.fs, "/f", "w")
        yield from fd.write(30, record="a")
        yield from fd.write(70, record="b")
        fd.close()
        return fd.bytes_written

    assert run(sim, worker(sim)) == 100
