"""The four end-to-end workloads.

Each workload turns the seed into a *cycle*: a fixed list of independent
units, every unit booting its own testbed, so a unit replays with identical
simulated results. The harness runs the whole cycle once and then replays
it until the measuring time is up (:func:`benchmarks.e2e.harness.run`).

A workload drives the library only through its public entry points
(``repro.testbed``, the ``repro.snapify`` use cases and ``FleetManager``
submitters, ``MemoryTier``, ``repro.mpi``, ``repro.check``) and reports every
operation to the recorder ``rec`` it is given, so the harness sees each op's
host and simulated start and end. Oracle passes and checksum checks run
between blocks under ``rec.checking()``, outside the timed window.

Sizes are constructor arguments; the defaults are the benchmark's sizes and
the tests pass smaller ones.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.apps import OPENMP_NAMES, expected_checksum
from repro.calibration import paper_testbed
from repro.check import oracles
from repro.check.fuzz import default_faults
from repro.check.scenarios import run_scenario, scenario_names
from repro.coi import OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.mpi import mpi_checkpoint, mpi_restart
from repro.snapify import (
    MIGRATE,
    SWAP_IN,
    SWAP_OUT,
    FleetManager,
    OperationManager,
    OperationResult,
    capture_sequence,
    checkpoint_offload_app,
    restart_offload_app,
    snapify_command,
    snapify_restore,
    snapify_resume,
    snapify_t,
)
from repro.snapify_io.memtier import MemoryTier
from repro.testbed import (
    FLEET_TOPOLOGIES,
    XeonPhiCluster,
    XeonPhiFleet,
    XeonPhiServer,
    mz_job,
    offload_app,
    offload_process,
)

MPI_BENCHES = ("LU-MZ", "SP-MZ", "BT-MZ")
MPI_RANKS = (1, 2, 4)


def _timed(rec, kind, label, sim, gen):
    """Sub-generator: ``rec.timed`` plus the bytes shipped by the Snapify
    operations the op opened (a use case opens one or two per call)."""
    mgr = OperationManager.of(sim)
    first = 1 + max(mgr.operations, default=0)
    value = yield from rec.timed(kind, label, sim, gen)
    rec.ops[-1].nbytes = sum(op.result.shipped_bytes or 0
                          for op_id, op in mgr.operations.items()
                          if op_id >= first and op.result is not None)
    return value


def _cli(proc, command, engine, path):
    """Sub-generator: one transparent ``snapify`` command on a running app."""
    done = snapify_command(proc, command, engine=engine, snapshot_path=path)
    return (yield done)


def _check_servers(rec, servers, op) -> None:
    for server in servers:
        for v in oracles.check_all(server):
            rec.fail("OracleViolation", str(v), op=op)


# ---------------------------------------------------------------------------
# paper_suite: the paper's own Fig 10/11 traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    kind: str  # "omp" | "mpi"
    bench: str
    ranks: int
    snap_at: float


class PaperSuite:
    """Closed loop, one op in flight. A unit is one round: every OpenMP
    profile on a fresh ``XeonPhiServer`` through checkpoint, restart,
    migrate mic0->mic1, swap-out and swap-in, then every NAS-MZ benchmark
    at every rank count through ``mpi_checkpoint`` and ``mpi_restart`` on a
    fresh ``XeonPhiCluster``. The seed sets each block's snapshot instant
    (0.5-1.5 s after the app's first iteration) and the block order."""

    name = "paper_suite"

    def __init__(self, profiles: Sequence[str] = tuple(OPENMP_NAMES),
                 mpi: Sequence[Tuple[str, int]] = tuple(
                     (b, n) for b in MPI_BENCHES for n in MPI_RANKS),
                 rounds: int = 2):
        self.profiles = list(profiles)
        self.mpi = list(mpi)
        self.rounds = rounds

    def units(self, seed: int) -> List[List[_Block]]:
        rng = random.Random(seed)
        cycle = []
        for _ in range(self.rounds):
            blocks = [("omp", p, 1) for p in self.profiles]
            blocks += [("mpi", b, n) for b, n in self.mpi]
            rng.shuffle(blocks)
            cycle.append([_Block(*b, rng.uniform(0.5, 1.5)) for b in blocks])
        return cycle

    def run_unit(self, unit: List[_Block], rec) -> None:
        for block in unit:
            rec.guard(self._omp if block.kind == "omp" else self._mpi, block, rec)

    def _omp(self, block: _Block, rec) -> None:
        server = XeonPhiServer()
        sim = server.sim
        app = offload_app(server, block.bench, iterations=10_000)
        path = f"/bench/{block.bench}"
        label = block.bench

        def driver(sim):
            yield from app.launch()
            rec.ready()
            # A snapshot taken before the first iteration cannot be
            # restarted (the restored program skips the set-up that records
            # its buffer ids), so the instant counts from that iteration.
            while app.host_proc.store.get("iter", 0) < 1:
                yield sim.timeout(0.01)
            yield sim.timeout(block.snap_at)
            snap = snapify_t(snapshot_path=path, coiproc=app.coiproc)
            yield from _timed(rec, "checkpoint", label, sim, checkpoint_offload_app(snap))
            yield sim.timeout(0.1)
            app.host_proc.terminate(code=1)
            yield sim.timeout(0.05)
            server.host_os.fs.drop_caches()  # the node rebooted
            restarted = yield from _timed(
                rec, "restart", label, sim,
                restart_offload_app(server.host_os, path, server.engine(0)))
            proc = restarted.host_proc
            yield sim.timeout(0.1)
            yield from _timed(rec, "migrate", label, sim,
                              _cli(proc, MIGRATE, server.engine(1), path + ".mig"))
            yield sim.timeout(0.1)
            yield from _timed(rec, "swap_out", label, sim,
                              _cli(proc, SWAP_OUT, None, path + ".swap"))
            yield from _timed(rec, "swap_in", label, sim,
                              _cli(proc, SWAP_IN, server.engine(1), path + ".swap"))
            yield sim.timeout(0.1)
            return proc

        proc = server.run(driver(sim))
        with rec.checking():
            last = rec.ops[-1]
            store = proc.store
            if store.get("checksum") != expected_checksum(store.get("iter", 0)):
                rec.fail("ChecksumMismatch",
                         f"{label}: checksum after {store.get('iter')} iterations",
                         op=last)
            _check_servers(rec, [server], last)

    def _mpi(self, block: _Block, rec) -> None:
        cluster = XeonPhiCluster(n_nodes=4)
        sim = cluster.sim
        job = mz_job(cluster, block.bench, n_ranks=block.ranks, iterations=4000)
        path = f"/bench/{block.bench}"
        label = f"{block.bench}x{block.ranks}"
        results: List[OperationResult] = []

        def driver(sim):
            yield from job.launch()
            rec.ready()
            yield sim.timeout(block.snap_at)
            ck = yield from _timed(rec, "mpi_checkpoint", label, sim,
                                   mpi_checkpoint(job, path))
            results.extend(ck["operations"])
            yield sim.timeout(0.2)
            for rank in job.ranks:  # cluster-wide failure
                rank.host_proc.terminate(code=1)
            yield sim.timeout(0.05)
            for server in cluster.servers[:block.ranks]:
                server.host_os.fs.drop_caches()
            rs = yield from _timed(rec, "mpi_restart", label, sim, mpi_restart(job, path))
            results.extend(rs["operations"])
            yield sim.timeout(0.1)

        cluster.run(driver(sim))
        with rec.checking():
            last = rec.ops[-1]
            for r in results:
                if not r.ok:
                    rec.fail("OperationFailed", f"{label}: {r.kind} {r.error}", op=last)
            for rank in job.ranks:
                store = rank.host_proc.store
                if store.get("checksum") != expected_checksum(store.get("iter", 0)):
                    rec.fail("ChecksumMismatch", f"{label} rank {rank.rank}", op=last)
            _check_servers(rec, cluster.servers, last)


# ---------------------------------------------------------------------------
# fleet_hall128: the control plane at scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FleetOp:
    card: int
    kind: str  # "checkpoint" | "swap" | "migrate"
    buffer_bytes: int


class FleetHall:
    """Burst load. A unit is one batch on a fresh fleet: one offload process
    per op, then every op submitted at once through one admission-capped
    ``FleetManager`` and collected before the next batch. A batch is 50%
    checkpoints, 25% swap cycles and 25% migrations with buffers spread
    log-uniformly over 1-16 MB; the seed shuffles which op gets which kind
    and buffer. Ops are spread round-robin over the cards."""

    name = "fleet_hall128"

    def __init__(self, topology: str = "hall128", batch: int = 512, batches: int = 2):
        self.topology = topology
        self.batch = batch
        self.batches = batches

    def units(self, seed: int) -> List[List[_FleetOp]]:
        # Exact kind shares and stratified buffer sizes keep every seed's
        # batch statistically alike; the seed decides which op gets what.
        rng = random.Random(seed)
        n_cards = FLEET_TOPOLOGIES[self.topology].cards
        b = self.batch
        cycle = []
        for _ in range(self.batches):
            kinds = ["checkpoint"] * (b // 2) + ["swap"] * (b // 4)
            kinds += ["migrate"] * (b - len(kinds))
            # 1-16 MB log-uniform, in 4 KiB pages: 2**8 .. 2**12 pages.
            pages = [int(2 ** (8 + 4 * (i + rng.random()) / b)) for i in range(b)]
            rng.shuffle(kinds)
            rng.shuffle(pages)
            cycle.append([_FleetOp(i % n_cards, kind, n * 4096)
                          for i, (kind, n) in enumerate(zip(kinds, pages))])
        return cycle

    def run_unit(self, unit: List[_FleetOp], rec) -> None:
        rec.guard(self._batch, unit, rec)

    def _batch(self, unit: List[_FleetOp], rec) -> None:
        fleet = XeonPhiFleet(self.topology)
        sim = fleet.sim
        cards = fleet.cards()
        manager = FleetManager(fleet, max_in_flight=16, per_card_limit=2)
        binary = OffloadBinary(
            name="fleet.so", image_size=8 * MB,
            functions={"step": OffloadFunction("step", duration=0.05)},
        )

        def spawn(sim):
            procs = []
            for i, op in enumerate(unit):
                card = cards[op.card]
                coiproc, _ = yield from offload_process(
                    fleet.server(card.node), f"fl{i}", binary, device=card.device,
                    buffers=[(op.buffer_bytes, i + 1)],
                )
                procs.append(coiproc)
            return procs

        def finished(ticket, entry):
            rec.end(entry, sim_end=ticket.finished)
            entry.wait = ticket.queue_wait
            result = ticket.result
            if not ticket.ok:
                rec.fail("TicketFailed", ticket.error or "", op=entry)
            elif not result.ok:
                rec.fail("OperationFailed", result.error or "", op=entry)
            else:
                entry.nbytes = result.shipped_bytes or 0

        procs = fleet.run(spawn(sim))
        rec.ready()
        tickets = []
        submitted = time.perf_counter()
        for i, (op, coiproc) in enumerate(zip(unit, procs)):
            card = cards[op.card]
            server = fleet.server(card.node)
            key = f"{card.key}/op{i}"
            path = f"/fleet/{i}"
            if op.kind == "checkpoint":
                ticket = manager.submit_checkpoint(
                    key, snapify_t(snapshot_path=path, coiproc=coiproc), card=card)
            elif op.kind == "swap":
                ticket = manager.submit_swap_cycle(
                    key, coiproc, server.engine(card.device), path, card=card)
            else:
                target = (card.device + 1) % len(server.node.phis)
                ticket = manager.submit_migrate(
                    key, coiproc, server.engine(target), path, card=card)
            tickets.append(ticket)
            entry = rec.begin(op.kind, key, sim, host_start=submitted)
            ticket.done.add_callback(lambda _ev, t=ticket, e=entry: finished(t, e))

        fleet.run(manager.collect(tickets))
        sim.run()  # settle: monitors drain and exit
        with rec.checking():
            last = rec.ops[-1]
            if manager.hwm_in_flight > manager.max_in_flight:
                rec.fail("AdmissionCap", f"in-flight hwm {manager.hwm_in_flight}", op=last)
            for key, held in manager.hwm_per_card.items():
                if held > manager.per_card_limit:
                    rec.fail("AdmissionCap", f"{key} hwm {held}", op=last)
            _check_servers(rec, fleet.servers, last)


# ---------------------------------------------------------------------------
# incremental_tier: delta capture, partner replication, tier and NFS restores
# ---------------------------------------------------------------------------


def _accumulate(ctx, args):
    ctx.store["acc"] = ctx.store.get("acc", 0) + (ctx.buffer_payload(args["buf"]) or 0)
    return ctx.store["acc"]


@dataclass(frozen=True)
class _Cycle:
    dirty: Tuple[Tuple[float, float], ...]  # (fraction, offset position) per epoch
    target: int  # restore card
    via_nfs: bool


class IncrementalTier:
    """Closed loop, one client. A unit is two cycles on a fresh three-card
    server with one offload process: each cycle runs 8 incremental
    captures, dirtying a seeded fraction (log-uniform 1-20%) of every region
    at seeded offsets before each, then restores the chain. The first
    cycle restores from the memory tier onto mic1; the second demotes the
    chain to NFS with ``release=True`` and restores it onto mic0. (A
    process that has lived on all three cards cannot be restored again:
    the RDMA address table reports a cycle.)"""

    name = "incremental_tier"

    def __init__(self, buffer_mb: int = 256, units: int = 6):
        self.buffer_mb = buffer_mb
        self.n_units = units

    def units(self, seed: int) -> List[Tuple[_Cycle, _Cycle]]:
        rng = random.Random(seed)

        def cycle(target, via_nfs):
            dirty = tuple(
                (math.exp(rng.uniform(math.log(0.01), math.log(0.20))), rng.random())
                for _ in range(8)
            )
            return _Cycle(dirty, target, via_nfs)

        return [(cycle(1, False), cycle(0, True)) for _ in range(self.n_units)]

    def run_unit(self, unit: Tuple[_Cycle, _Cycle], rec) -> None:
        rec.guard(self._pair, unit, rec)

    def _pair(self, unit: Tuple[_Cycle, _Cycle], rec) -> None:
        server = XeonPhiServer(params=paper_testbed(phis_per_node=3))
        sim = server.sim
        tier = MemoryTier.of(sim)
        tier.register_server(server)
        binary = OffloadBinary(
            name="inc.so", image_size=8 * MB,
            functions={"step": OffloadFunction("step", duration=0.01, effect=_accumulate)},
        )
        restored = []  # (restore op, acc restored, acc expected)

        def restore(snap, engine, host_proc):
            new = yield from snapify_restore(snap, engine, host_proc)
            yield from snapify_resume(snap)
            return new

        def driver(sim):
            coiproc, (buf,) = yield from offload_process(
                server, "inc", binary, buffers=[(self.buffer_mb * MB, 1)])
            rec.ready()
            host_proc = coiproc.host_proc
            acc = 0
            for c, cycle in enumerate(unit):
                path = f"/bench/inc{c}"
                snap = snapify_t(snapshot_path=path, coiproc=coiproc, incremental=True)
                last = len(cycle.dirty) - 1
                for e, (frac, pos) in enumerate(cycle.dirty):
                    seq = yield from coiproc.start_function("step", {"buf": buf.buf_id})
                    yield coiproc.wait_result(seq)
                    acc += 1
                    for region in coiproc.offload_proc.regions.values():
                        span = max(1, int(region.size * frac))
                        region.write(int(pos * max(0, region.size - span)), span)
                    result = yield from _timed(
                        rec, "capture", f"c{c}.e{e}", sim,
                        capture_sequence(snap, terminate=(e == last)))
                    if not result.ok:
                        rec.fail("OperationFailed", f"c{c}.e{e}: {result.error}",
                                 op=rec.ops[-1])
                if cycle.via_nfs:
                    yield from _timed(rec, "demote", f"c{c}", sim,
                                      tier.demote(path, server.host_os, release=True))
                coiproc = yield from _timed(
                    rec, "restore", f"c{c}->mic{cycle.target}", sim,
                    restore(snap, server.engine(cycle.target), host_proc))
                restored.append((rec.ops[-1], coiproc.offload_proc.store.get("acc"), acc))

        server.run(driver(sim))
        sim.run()  # settle: monitors drain and exit
        with rec.checking():
            for op, got, acc in restored:
                if got != acc:
                    rec.fail("ChecksumMismatch", f"{op.label}: acc {got} != {acc}", op=op)
            _check_servers(rec, [server], rec.ops[-1])


# ---------------------------------------------------------------------------
# fault_sweep: the fuzzer's oracle-checked scenario runs
# ---------------------------------------------------------------------------


class FaultSweep:
    """Closed loop, one scenario at a time. A unit is one schedule seed run
    through every scenario under ``default_faults``; the cycle covers the
    schedule seeds ``range(25*S, 25*S+25)`` for workload seed S. A run counts
    as failed exactly when the fuzzer calls it failed: clean typed errors
    under an injected fault are successes."""

    name = "fault_sweep"

    def __init__(self, scenarios: Optional[Sequence[str]] = None,
                 schedule_seeds: Optional[Sequence[int]] = None):
        self.scenarios = list(scenarios) if scenarios is not None else scenario_names()
        self.schedule_seeds = schedule_seeds

    def units(self, seed: int) -> List[int]:
        if self.schedule_seeds is not None:
            return list(self.schedule_seeds)
        return list(range(25 * seed, 25 * seed + 25))

    def run_unit(self, schedule_seed: int, rec) -> None:
        for name in self.scenarios:
            op = rec.begin("scenario", name)
            result = run_scenario(name, seed=schedule_seed,
                                  faults=default_faults(name, schedule_seed))
            rec.end(op, sim_end=result.final_time)
            if not result.ok:
                detail = "; ".join([result.error or ""] + [str(v) for v in result.violations])
                rec.fail(result.error_type or "OracleViolation", detail.strip("; "),
                         op=op, schedule_seed=schedule_seed, outcome=result.outcome)


WORKLOADS = {w.name: w for w in (PaperSuite, FleetHall, IncrementalTier, FaultSweep)}
