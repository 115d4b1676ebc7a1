"""Integration tests for the COI layer."""

import pytest

from repro.coi import (
    COIDaemon,
    COIEngine,
    COIError,
    OffloadBinary,
    OffloadFunction,
)
from repro.hw import MB, HardwareParams, ServerNode
from repro.osim import boot_node
from repro.sim import Simulator


def saxpy_effect(ctx, args):
    """y <- a*x + y over buffer payloads (small lists stand in for arrays)."""
    a = args["a"]
    x = ctx.buffer_payload(args["x"])
    y = ctx.buffer_payload(args["y"])
    out = [a * xi + yi for xi, yi in zip(x, y)]
    ctx.set_buffer_payload(args["y"], out)
    return sum(out)


def counter_effect(ctx, args):
    ctx.store["count"] = ctx.store.get("count", 0) + 1
    return ctx.store["count"]


def make_binary(image_size=8 * MB, duration=0.05):
    return OffloadBinary(
        name="testapp_mic.so",
        image_size=image_size,
        functions={
            "saxpy": OffloadFunction("saxpy", duration=duration, effect=saxpy_effect),
            "noop": OffloadFunction("noop", duration=0.01),
            "counter": OffloadFunction("counter", duration=0.02, effect=counter_effect),
        },
    )


def make_env(phis=2):
    sim = Simulator()
    node = ServerNode(sim, HardwareParams(phis_per_node=phis))
    host_os, phi_oses = boot_node(node)
    return sim, node, host_os, phi_oses


def boot_and_launch(sim, node, host_os, binary=None, phi_index=0):
    """Spawn daemon(s), host process, and create the offload process."""
    binary = binary or make_binary()
    result = {}

    def setup(sim):
        for phi in node.phis:
            yield from COIDaemon.boot(phi)
        host_proc = yield from host_os.spawn_process("app", image_size=4 * MB)
        engine = COIEngine(node, phi_index)
        coiproc = yield from engine.process_create(host_proc, binary)
        result["host_proc"] = host_proc
        result["coiproc"] = coiproc
        result["engine"] = engine

    t = sim.spawn(setup(sim))
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    return result


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    return t.done.value


def test_process_create_launches_offload():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]
    assert coiproc.offload_proc.alive
    assert coiproc.offload_proc.os is phis[0]
    # The card binary image is mapped on the card.
    assert coiproc.offload_proc.region("image").size == 8 * MB
    daemon = COIDaemon.of(node.phis[0])
    entry = daemon.entry_for(coiproc.offload_proc)
    assert entry.state == "running"


def test_buffer_create_allocates_local_store():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        buf = yield from coiproc.buffer_create(256 * MB)
        return buf

    buf = run(sim, work(sim))
    assert buf.size == 256 * MB
    # Local store lives in card RAM-FS memory, not process regions.
    assert phis[0].memory.by_category["ramfs"] >= 256 * MB
    card = coiproc.offload_proc.runtime["coi"]
    assert card.local_store_bytes() == 256 * MB
    assert coiproc.offload_proc.store["buffers"][buf.buf_id]["size"] == 256 * MB


def test_buffer_write_read_roundtrip():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        buf = yield from coiproc.buffer_create(16 * MB)
        yield from coiproc.buffer_write(buf, payload=[1, 2, 3])
        data = yield from coiproc.buffer_read(buf)
        return data

    assert run(sim, work(sim)) == [1, 2, 3]


def test_buffer_destroy_frees_card_memory():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        buf = yield from coiproc.buffer_create(100 * MB)
        before = phis[0].memory.by_category["ramfs"]
        yield from coiproc.buffer_destroy(buf)
        after = phis[0].memory.by_category["ramfs"]
        return before, after

    before, after = run(sim, work(sim))
    assert before - after == 100 * MB


def test_run_function_executes_effect():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        x = yield from coiproc.buffer_create(8 * MB)
        y = yield from coiproc.buffer_create(8 * MB)
        yield from coiproc.buffer_write(x, payload=[1.0, 2.0])
        yield from coiproc.buffer_write(y, payload=[10.0, 20.0])
        result = yield from coiproc.run_function(
            "saxpy", {"a": 2.0, "x": x.buf_id, "y": y.buf_id}
        )
        out = yield from coiproc.buffer_read(y)
        return result, out

    result, out = run(sim, work(sim))
    assert out == [12.0, 24.0]
    assert result == 36.0


def test_run_function_unknown_name_rejected():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        with pytest.raises(Exception):
            yield from coiproc.run_function("nope")
        return "ok"

    assert run(sim, work(sim)) == "ok"


def test_async_run_function_and_event_channel():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        seq = yield from coiproc.start_function("noop")
        result = yield coiproc.wait_result(seq)
        return result

    run(sim, work(sim))
    # Async completion also rides the event channel.
    assert any(
        e.get("type") == "coi.event.function_done" for e in coiproc.events_seen
    )


def test_log_channel_carries_function_logs():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        for _ in range(3):
            yield from coiproc.run_function("noop")

    run(sim, work(sim))
    assert len(coiproc.logs) == 3


def test_sequential_functions_preserve_store_state():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        results = []
        for _ in range(4):
            r = yield from coiproc.run_function("counter")
            results.append(r)
        return results

    assert run(sim, work(sim)) == [1, 2, 3, 4]


def test_quiesce_empties_all_channels_and_blocks_new_traffic():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]
    card = coiproc.offload_proc.runtime["coi"]
    state = {}

    def work(sim):
        buf = yield from coiproc.buffer_create(4 * MB)
        # Start a long offload function, then quiesce mid-execution.
        seq = yield from coiproc.start_function("saxpy", {"a": 1.0, "x": buf.buf_id, "y": buf.buf_id})
        yield sim.timeout(0.01)  # function started (duration 0.05)
        yield from coiproc.quiesce()
        yield from card.quiesce()
        state["empty"] = coiproc.channels_empty()
        state["paused_at"] = sim.now
        # New traffic must block: try an RPC from another thread.
        def blocked_rpc(sim):
            yield from coiproc.cmd_client.rpc({"type": "coi.buffer.reregister"})
            state["rpc_done_at"] = sim.now

        sim.spawn(blocked_rpc(sim))
        yield sim.timeout(1.0)  # hold the pause for a full second
        card.release()
        coiproc.release()
        result = yield coiproc.wait_result(seq)
        state["result"] = result
        yield sim.timeout(0.5)

    def setup_payload(sim):
        yield sim.timeout(0)

    run(sim, setup_payload(sim))

    def full(sim):
        buf = yield from coiproc.buffer_create(4 * MB)
        yield from coiproc.buffer_write(buf, payload=[0.0])
        seq = yield from coiproc.start_function(
            "saxpy", {"a": 1.0, "x": buf.buf_id, "y": buf.buf_id}
        )
        yield sim.timeout(0.01)
        yield from coiproc.quiesce()
        yield from card.quiesce()
        state["empty"] = coiproc.channels_empty()
        t_pause = sim.now

        def blocked_rpc(sim):
            yield from coiproc.cmd_client.rpc({"type": "coi.buffer.reregister"})
            state["rpc_done_at"] = sim.now

        sim.spawn(blocked_rpc(sim))
        yield sim.timeout(1.0)
        card.release()
        coiproc.release()
        result = yield coiproc.wait_result(seq)
        state["result"] = result
        state["t_pause"] = t_pause
        yield sim.timeout(0.1)

    run(sim, full(sim))
    assert state["empty"] is True
    # The blocked RPC only completed after release (>= 1 s pause window).
    assert state["rpc_done_at"] >= state["t_pause"] + 1.0
    # The in-flight function's result arrived after resume.
    assert state["result"] == 0.0


def test_host_exit_terminates_offload_and_cleans_localstore():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc, host_proc = env["coiproc"], env["host_proc"]

    def work(sim):
        yield from coiproc.buffer_create(64 * MB)
        host_proc.terminate()
        yield sim.timeout(0.01)

    run(sim, work(sim))
    assert not coiproc.offload_proc.alive
    assert phis[0].memory.by_category.get("ramfs", 0) == 0
    daemon = COIDaemon.of(node.phis[0])
    entry = daemon.entries[coiproc.offload_proc.pid]
    assert entry.state == "terminated"


def test_daemon_forgets_connections_of_exited_hosts():
    """Each host process's daemon connection is closed and dropped from the
    daemon's descriptors when the host goes away; only the listener stays."""
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    daemon = COIDaemon.of(node.phis[0])

    def work(sim):
        env["host_proc"].terminate()
        for i in range(3):
            host_proc = yield from host_os.spawn_process(f"app{i}", image_size=4 * MB)
            yield from env["engine"].process_create(host_proc, make_binary())
            host_proc.terminate()
        yield sim.timeout(0.01)

    run(sim, work(sim))
    assert len(daemon.entries) == 4
    assert daemon.proc.open_fds == [daemon.proc.runtime["listener"]]


def test_unexpected_offload_death_marked_crashed():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        yield sim.timeout(0.01)
        coiproc.offload_proc.terminate(code=139)  # simulated crash
        yield sim.timeout(0.01)

    run(sim, work(sim))
    daemon = COIDaemon.of(node.phis[0])
    entry = daemon.entries[coiproc.offload_proc.pid]
    assert entry.state == "crashed"


def test_destroy_tears_down_cleanly():
    sim, node, host_os, phis = make_env()
    env = boot_and_launch(sim, node, host_os)
    coiproc = env["coiproc"]

    def work(sim):
        yield from coiproc.buffer_create(32 * MB)
        yield from coiproc.destroy()
        with pytest.raises(COIError):
            yield from coiproc.run_function("noop")
        return "ok"

    assert run(sim, work(sim)) == "ok"
    assert not coiproc.offload_proc.alive
    assert phis[0].memory.by_category.get("ramfs", 0) == 0


def test_two_offload_processes_on_two_cards():
    sim, node, host_os, phis = make_env(phis=2)
    binary = make_binary()
    result = {}

    def setup(sim):
        for phi in node.phis:
            yield from COIDaemon.boot(phi)
        host_proc = yield from host_os.spawn_process("app", image_size=4 * MB)
        p0 = yield from COIEngine(node, 0).process_create(host_proc, binary)
        p1 = yield from COIEngine(node, 1).process_create(host_proc, binary)
        r0 = yield from p0.run_function("counter")
        r1 = yield from p1.run_function("counter")
        result["r"] = (r0, r1)
        result["os"] = (p0.offload_proc.os, p1.offload_proc.os)

    t = sim.spawn(setup(sim))
    sim.run_until(t.done)
    assert t.done.ok, t.done.exception
    # Independent stores: each card's counter starts at 1.
    assert result["r"] == (1, 1)
    assert result["os"][0] is not result["os"][1]
