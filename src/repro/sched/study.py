"""Useful-work throughput study: checkpoint/restart vs. replication vs. hybrid.

Checkpoint/restart and replication spend resources in opposite places:
C/R pays a periodic pause plus, on failure, a detection + restore
round-trip and the re-execution of everything since the last snapshot;
replication pays for R cards up front and rides out a failure with zero
interruption; the hybrid adds a re-seed (a MAINTENANCE-lane clone of a
healthy replica) so a degraded team regains redundancy instead of running
exposed. :func:`resilience_study` runs the *same* NAS-MZ-shaped job under
all three modes — clean and with an injected card failure — on one
``rack8`` fleet each, and reports useful-work throughput normalized by
cards occupied, the currency the operator actually budgets in.

Every run is a deterministic simulation: same seed, same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Study modes, in the order the table reports them.
MODES = ("checkpoint_restart", "replication", "hybrid")

#: Sim-seconds between C/R babysitter ticks (checkpoint + failure poll).
CR_INTERVAL = 0.1

#: Where in a mode's clean runtime the study injects its card failure.
#: The fraction (rather than an absolute time) keeps the fault mid-run
#: for every mode even though their clean runtimes differ by an order of
#: magnitude — and lands it after the C/R arm's first checkpoint, so its
#: recovery restores from a real snapshot instead of relaunching.
FAULT_FRACTION = 0.6


@dataclass
class ModeResult:
    """One row of the study: a mode's clean + faulted pair, reduced."""

    mode: str
    iterations: int       #: useful (logical) iterations the faulted run completed
    cards: int            #: cards occupied for the duration of the run
    clean_elapsed: float  #: fault-free wall-clock, simulated seconds
    elapsed: float        #: faulted wall-clock, simulated seconds
    restarts: int         #: logical-rank restarts the faulted run needed
    drops: int            #: replicas dropped by the heartbeat (faulted run)
    reseeds: int          #: re-seed clones driven through the fleet (faulted run)
    verified: bool        #: every team finished with the expected checksum

    @property
    def slowdown(self) -> float:
        """Faulted elapsed over clean elapsed (1.0 = failure was free)."""
        return self.elapsed / self.clean_elapsed if self.clean_elapsed else 0.0

    @property
    def it_per_card_s(self) -> float:
        """Useful iterations per card-second: throughput per resource."""
        denom = self.cards * self.elapsed
        return self.iterations / denom if denom else 0.0


def _replica_down(fleet, rep) -> bool:
    """The heartbeat's health probe, inlined for the C/R babysitter."""
    proc = rep.host_proc
    if proc is None:
        return False
    done = proc.main_thread.done
    if done.triggered:
        return not (done.ok and proc.store.get("finished"))
    phi = fleet.phi(rep.card)
    if getattr(phi, "failed", False) or getattr(phi, "link_down", False):
        return True
    if not proc.alive:
        return True
    handle = proc.runtime.get("coi_handle")
    if handle is not None and (handle.dead or not handle.offload_proc.alive):
        return True
    return False


def _spare_card(fleet, node: int, avoid: List[Any]) -> Optional[Any]:
    """A healthy card on ``node`` not in ``avoid`` (restart target)."""
    from ..snapify.fleet import CardRef

    for d in range(fleet.topology.phis_per_node):
        card = CardRef(node=node, device=d)
        phi = fleet.phi(card)
        if getattr(phi, "failed", False) or getattr(phi, "link_down", False):
            continue
        if any(card.key == a.key for a in avoid):
            continue
        return card
    return None


def _babysit_cr(job, fleet, state):
    """The C/R control loop: one tick per :data:`CR_INTERVAL`.

    Each tick checkpoints every healthy logical rank; a rank found dead is
    restarted from its latest snapshot on a healthy card of the same node
    and re-adopted into the (single-replica) team, so the surviving peer's
    halo exchange picks it up through the team log backfill.
    """
    from ..mpi.replication import TeamReplica
    from ..snapify.api import snapify_t
    from ..snapify.usecases import checkpoint_offload_app, restart_offload_app

    sim = job.sim
    latest: Dict[int, str] = {}
    epoch: Dict[int, int] = {t: 0 for t in range(job.n_teams)}
    while not state["stop"]:
        yield sim.sleep(CR_INTERVAL)
        if state["stop"]:
            break
        for team in range(job.n_teams):
            live = job.comm.live[team]
            rid = live[-1] if live else None
            if rid is None:
                continue
            rep = job.replicas[(team, rid)]
            proc = rep.host_proc
            if proc is None:
                continue
            if proc.main_thread.done.triggered and proc.store.get("finished"):
                continue
            if _replica_down(fleet, rep):
                job.comm.drop_replica(team, rid, reason="cr-failure")
                if proc.alive:
                    proc.terminate(code=1)
                spare = _spare_card(fleet, rep.card.node, avoid=[rep.card])
                if spare is None:
                    raise RuntimeError(f"no healthy card to restart team {team}")
                state["restarts"] += 1
                path = latest.get(team)
                new_rid = job.next_rid(team)
                if path is None:
                    # Failure before the first checkpoint: all work since
                    # launch is lost — rerun the rank from iteration zero.
                    state["recoveries"].append(("relaunch", team))
                    new_rep = TeamReplica(job, team, new_rid, spare)
                    job.replicas[(team, new_rid)] = new_rep
                    job.placement[(team, new_rid)] = spare
                    job.comm.join_replica(team, new_rid, spare.node)
                    yield from new_rep.launch()
                    continue
                state["recoveries"].append(("restore", team))
                result = yield from restart_offload_app(
                    rep.server.host_os, path, fleet.engine(spare)
                )
                # Same no-yield window as the restart: stamp identity and
                # rejoin membership before the restored main is scheduled.
                job.adopt_replica(team, new_rid, spare, result.host_proc)
                continue
            handle = proc.runtime.get("coi_handle")
            if handle is None:
                continue  # still launching: nothing to checkpoint yet
            path = f"/study/{job.name}/t{team}_ck{epoch[team]}"
            snap = snapify_t(snapshot_path=path, coiproc=handle)
            try:
                yield from checkpoint_offload_app(snap)
            except Exception:
                # Card died mid-checkpoint: the next tick's probe restarts
                # from the previous snapshot.
                continue
            epoch[team] += 1
            latest[team] = path


def run_mode(mode: str, *, faulted: bool, seed: int = 0,
             iterations: int = 6, n_teams: int = 2,
             fault_at: float = 0.3) -> Dict[str, Any]:
    """One simulated run of ``mode``; returns its raw measurements.

    ``faulted`` injects one card failure ``fault_at`` seconds after
    launch, against the first replica of team 0 (C/R and replication) or
    — for the hybrid — the same card with the re-seed path armed to
    restore team strength. :func:`resilience_study` derives ``fault_at``
    from the mode's own clean runtime (:data:`FAULT_FRACTION`).
    """
    from ..apps.workloads import NAS_MZ_BENCHMARKS
    from ..mpi.replication import (
        HeartbeatDetector,
        ReplicatedJob,
        ReplicationError,
    )
    from ..sim.kernel import Simulator
    from ..snapify.fleet import FleetManager
    from ..testbed import XeonPhiFleet
    from .faults import FaultInjector

    if mode not in MODES:
        raise ValueError(f"unknown study mode {mode!r}")
    n_replicas = 1 if mode == "checkpoint_restart" else 2
    sim = Simulator(schedule_seed=seed)
    fleet = XeonPhiFleet("rack8", sim=sim)
    injector = FaultInjector(sim)
    job = ReplicatedJob(fleet, NAS_MZ_BENCHMARKS["SP-MZ"], n_teams=n_teams,
                        n_replicas=n_replicas, iterations=iterations)
    reseed = mode == "hybrid"
    manager = FleetManager(fleet) if reseed else None
    detector = None
    state = {"stop": False, "restarts": 0, "recoveries": []}

    def driver():
        nonlocal detector
        yield from job.launch()
        t0 = sim.now
        if mode == "checkpoint_restart":
            sim.spawn(_babysit_cr(job, fleet, state), name="study-cr")
        else:
            detector = HeartbeatDetector(job, interval=0.05, misses=2,
                                         reseed=reseed, manager=manager)
            detector.start()
        if faulted:
            phi = fleet.phi(job.placement[(0, 0)])
            injector.schedule_card_failure(phi, at=sim.now + fault_at)
        # Under C/R a team is legitimately empty between a failure and the
        # babysitter's restart tick: give the restart a bounded grace
        # window instead of treating the gap as a team wipe.
        for _ in range(50):
            try:
                yield from job.join()
                break
            except ReplicationError:
                if mode != "checkpoint_restart":
                    raise
                yield sim.sleep(CR_INTERVAL)
        else:
            raise RuntimeError("C/R restart never revived the failed team")
        elapsed = sim.now - t0
        state["stop"] = True
        if detector is not None:
            detector.stop()
            if manager is not None and detector.reseed_tickets:
                yield from manager.collect(detector.reseed_tickets)
        return elapsed

    elapsed = fleet.run(driver())
    return {
        "mode": mode,
        "elapsed": elapsed,
        "iterations": job.useful_iterations(),
        "executed": job.executed_iterations(),
        "cards": n_teams * n_replicas,
        "restarts": state["restarts"],
        "recoveries": state["recoveries"],
        "drops": len(detector.drops) if detector is not None else 0,
        "reseeds": len(detector.reseeds) if detector is not None else 0,
        "verified": job.verify(),
        "ledger_balanced": job.comm.ledger_balanced(),
        "duplicate_deliveries": sum(
            1 for n in job.comm.delivered_counts.values() if n != 1
        ),
        # Kernel events scheduled. Under a schedule seed the tie-break
        # sequence yields (perturbation, counter) pairs; the counter is
        # the event count either way.
        "events": (lambda s: s[-1] if isinstance(s, tuple) else s)(
            next(sim._seq)
        ),
    }


def resilience_study(seed: int = 0, iterations: int = 6) -> List[ModeResult]:
    """Clean + faulted runs of every mode, reduced to one row each."""
    rows: List[ModeResult] = []
    for mode in MODES:
        clean = run_mode(mode, faulted=False, seed=seed, iterations=iterations)
        fault = run_mode(mode, faulted=True, seed=seed, iterations=iterations,
                         fault_at=FAULT_FRACTION * clean["elapsed"])
        rows.append(ModeResult(
            mode=mode,
            iterations=fault["iterations"],
            cards=fault["cards"],
            clean_elapsed=clean["elapsed"],
            elapsed=fault["elapsed"],
            restarts=fault["restarts"],
            drops=fault["drops"],
            reseeds=fault["reseeds"],
            verified=fault["verified"] and clean["verified"],
        ))
    return rows


def markdown_table(rows: List[ModeResult]) -> str:
    """The study as a GitHub-flavored markdown table."""
    lines = [
        "### Resilience study: useful-work throughput under one card failure",
        "",
        "| mode | iterations | elapsed (s) | slowdown | restarts | drops "
        "| reseeds | cards | it/card-s |",
        "| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for r in rows:
        lines.append(
            f"| {r.mode} | {r.iterations} | {r.elapsed:.3f} | "
            f"{r.slowdown:.2f}x | {r.restarts} | {r.drops} | {r.reseeds} | "
            f"{r.cards} | {r.it_per_card_s:.2f} |"
        )
    lines.append("")
    return "\n".join(lines)
