"""Golden-trace determinism test for a full snapshot (migrate) cycle.

The kernel optimizations are only admissible if they do not perturb event
ordering: seed + workload must produce the *same* interleaving. This test
replays a full Fig-10-style migrate cycle (launch → pause → capture →
restore on the second card → resume → run to completion) and compares a
digest of the run against ``tests/golden/snapshot_cycle_trace.json``, which
was captured with the pre-optimization kernel:

* every trace record (time, category, fields), repr-exact,
* the final simulated time, repr-exact,
* the total number of heap entries drawn from the tie-break counter — any
  change in what gets scheduled (or how often) shifts this,
* the full thread table (tid, name, completion).

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_trace_determinism.py --regen

Review such a change first with ``--diff``, which prints every record,
``final_time``, ``scheduled_events`` and thread-table entry that departs
from the golden file (exit status 1 when anything does).
"""

import difflib
import json
from dataclasses import replace
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "snapshot_cycle_trace.json"


def snapshot_cycle_digest():
    """Run the migrate cycle and return a canonical, JSON-stable digest."""
    from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
    from repro.sim import Simulator
    from repro.snapify import MIGRATE, snapify_command
    from repro.testbed import XeonPhiServer

    sim = Simulator(trace=True)
    # sim.threads keeps live threads only; the table records every spawn.
    spawned = []
    spawn = sim.spawn

    def recording_spawn(gen, name="", daemon=False):
        t = spawn(gen, name, daemon)
        spawned.append(t)
        return t

    sim.spawn = recording_spawn
    server = XeonPhiServer(sim=sim)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=30)
    app = OffloadApplication(server, profile)

    def driver(s):
        yield from app.launch()
        yield s.timeout(0.3)
        done = snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
        yield done
        yield app.host_proc.main_thread.done

    server.run(driver(sim))
    assert app.verify(), "migrate cycle corrupted the application state"
    return {
        "records": [
            [repr(rec.time), rec.category, sorted((k, repr(v)) for k, v in rec.fields.items())]
            for rec in sim.trace.records
        ],
        "final_time": repr(sim.now),
        "scheduled_events": next(sim._seq),
        "threads": [[t.tid, t.name, t.done.triggered] for t in spawned],
    }


def _canonical(digest):
    return json.loads(json.dumps(digest))


def diff_against_golden(digest, golden):
    """One line per departure of ``digest`` from ``golden``: removed (-) and
    added (+) records and threads by index, then changed scalars."""
    digest = _canonical(digest)
    lines = []
    for key in ("records", "threads"):
        old = [json.dumps(x) for x in golden[key]]
        new = [json.dumps(x) for x in digest[key]]
        matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag != "equal":
                lines += [f"- {key}[{i}] {old[i]}" for i in range(i1, i2)]
                lines += [f"+ {key}[{j}] {new[j]}" for j in range(j1, j2)]
    for key in ("final_time", "scheduled_events"):
        if digest[key] != golden[key]:
            lines.append(f"{key}: {golden[key]} -> {digest[key]}")
    return lines


def test_snapshot_cycle_trace_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _canonical(snapshot_cycle_digest()) == golden


def test_snapshot_cycle_digest_is_stable_across_runs():
    assert snapshot_cycle_digest() == snapshot_cycle_digest()


def test_diff_names_each_departure_from_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert diff_against_golden(golden, golden) == []
    changed = json.loads(GOLDEN_PATH.read_text())
    changed["records"][5][2].append(["extra", "0"])
    changed["scheduled_events"] += 1
    lines = diff_against_golden(changed, golden)
    assert [line[:13] for line in lines[:2]] == ["- records[5] ", "+ records[5] "]
    assert lines[2:] == [f"scheduled_events: {golden['scheduled_events']} -> "
                         f"{golden['scheduled_events'] + 1}"]


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if "--regen" in sys.argv:
        digest = snapshot_cycle_digest()
        GOLDEN_PATH.write_text(json.dumps(digest, indent=1) + "\n")
        print(f"regenerated {GOLDEN_PATH} ({digest['scheduled_events']} scheduled events)")
    elif "--diff" in sys.argv:
        lines = diff_against_golden(snapshot_cycle_digest(),
                                    json.loads(GOLDEN_PATH.read_text()))
        print("\n".join(lines) if lines else f"no differences from {GOLDEN_PATH.name}")
        sys.exit(1 if lines else 0)
    else:
        print(__doc__)
