"""A finished unit dies in one cyclic-GC pass.

When a run ends, everything it built (simulator, testbed, parked daemon
threads and their generators) is cyclic garbage. It must all go in the first
full collection. If a pass has to finalize objects that then keep part of
the graph alive, a second pass is needed, and every finished batch of a
long run survives into the oldest generation first — host time and peak RSS
that no layer profile attributes.

The known resurrector is a handled exception that outlives its handler: its
``__traceback__`` references a frame object of the parked generator, and
finalizing the generator turns that frame into a new tracked object outside
the garbage set. ``Thread._step`` drops the traceback of every exception a
thread handles.
"""

import gc
import weakref

import pytest

from repro.check.fuzz import default_faults
from repro.check.scenarios import run_scenario, scenario_names
from repro.sim import Simulator
from repro.sim.errors import Interrupted


@pytest.fixture
def gc_paused():
    """Collect only when the test says so; restore the GC state afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _simulators():
    return sum(1 for o in gc.get_objects() if isinstance(o, Simulator))


def test_interrupted_thread_parked_forever_is_freed_in_one_pass(gc_paused):
    def build():
        sim = Simulator()
        gate = sim.event("never")

        def worker(sim):
            try:
                yield sim.sleep(10)
            except Interrupted as exc:
                caught = exc  # the handler keeps its interrupt
            yield gate  # parks forever
            return caught

        t = sim.spawn(worker(sim), daemon=True)
        sim.schedule(1.0, t.interrupt, "sig")
        sim.run()
        assert t.alive and t.blocked_on is gate
        return weakref.ref(sim)

    ref = build()
    gc.collect()
    assert ref() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("name", scenario_names())
def test_finished_scenario_is_freed_in_one_pass(gc_paused, name):
    before = _simulators()
    result = run_scenario(name, 0, default_faults(name, 0))
    assert result.ok, result.summary()
    del result
    gc.collect()
    assert _simulators() == before
    assert gc.collect() == 0
