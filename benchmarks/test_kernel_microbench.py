"""Microbenchmarks for the simulation-kernel hot path.

Unlike the figure/table benchmarks (whose *result* is a simulated latency),
these measure the wall-clock cost of the kernel itself: event dispatch,
channel ping-pong (the innermost operation of every offload call), timer
storms, and a full Fig-10-style snapshot cycle through all the layers.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_microbench.py --benchmark-only

The enforced regression gate lives in ``benchmarks/perfgate.py`` (same
workloads, normalized scores, checked-in baseline); these tests exist for
local profiling and for the CI smoke job. Alongside the timings, each
workload asserts its scheduler digest is reproducible — speed must never
come at the cost of determinism.
"""

from repro.sim import Channel, Simulator

from benchmarks.perfgate import (
    wl_event_dispatch,
    wl_ping_pong,
    wl_ping_pong_bounded,
    wl_snapshot_cycle,
    wl_timer_storm,
)

# Smaller sizes than perfgate: pytest-benchmark runs several rounds and the
# smoke job must stay fast.
N_DISPATCH = 10_000
N_PING_PONG = 5_000
N_TIMER_THREADS = 500


def _bench(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=3, iterations=1, warmup_rounds=1)


def test_event_dispatch(benchmark):
    assert _bench(benchmark, wl_event_dispatch, N_DISPATCH) == N_DISPATCH


def test_channel_ping_pong(benchmark):
    assert _bench(benchmark, wl_ping_pong, N_PING_PONG) == N_PING_PONG


def test_channel_ping_pong_bounded(benchmark):
    assert _bench(benchmark, wl_ping_pong_bounded, N_PING_PONG) == N_PING_PONG


def test_timer_storm(benchmark):
    assert _bench(benchmark, wl_timer_storm, N_TIMER_THREADS) == N_TIMER_THREADS * 20


def test_snapshot_cycle(benchmark):
    events = _bench(benchmark, wl_snapshot_cycle)
    assert events > 1_000  # a full cycle schedules thousands of kernel events


def test_ping_pong_schedule_is_deterministic():
    """The optimized send/recv fast paths must not perturb scheduling: the
    same workload draws the same number of heap entries every run."""

    def digest():
        sim = Simulator()
        a = Channel(sim, "a")
        b = Channel(sim, "b")

        def ping(s):
            for i in range(200):
                yield a.send(i)
                yield b.recv()

        def pong(s):
            for _ in range(200):
                v = yield a.recv()
                yield b.send(v)

        threads = [sim.spawn(ping(sim)), sim.spawn(pong(sim))]
        sim.run()
        return (sim.now, next(sim._seq), [t.done.ok for t in threads])

    assert digest() == digest()
