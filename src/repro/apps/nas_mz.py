"""NAS multi-zone MPI benchmarks (LU-MZ, SP-MZ, BT-MZ), class C.

Each MPI rank offloads its zone's computation to its own Xeon Phi (on the
§7 cluster, rank r runs on node r). Ranks exchange zone-boundary data in a
ring each iteration, then run the offload region. All progress is
store-resident and all offload calls are keyed, so the coordinated
checkpoint of :mod:`repro.mpi.cr` can capture/restart the whole job.

Every rank is a TeaMPI-style team of ``n_replicas`` replicas on disjoint
cards (:mod:`repro.mpi.replication`); the paper's MPI job is the team of
one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..coi.engine import COIEngine
from ..coi.pipeline import CardContext, OffloadBinary, OffloadFunction
from ..mpi.replication import (
    ReplicationError,
    RKey,
    TeamComm,
    plan_replica_placement,
)
from ..osim.process import SimProcess
from ..sim.events import Event
from .offload import expected_checksum, _iterate_effect
from .workloads import MZProfile, mz_rank_footprint

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Simulator
    from ..snapify.fleet import CardRef
    from ..testbed import XeonPhiFleet


def build_mz_binary(profile: MZProfile, offload_heap: int) -> OffloadBinary:
    def init_effect(ctx: CardContext, args):
        if not ctx.has_region("zone_heap"):
            ctx.map_region("zone_heap", offload_heap)
        return "ready"

    return OffloadBinary(
        name=f"{profile.name}_mic.so",
        image_size=6 * 1024 * 1024,
        functions={
            "init": OffloadFunction("init", duration=20e-3, effect=init_effect),
            "iterate": OffloadFunction(
                "iterate", duration=profile.call_duration, effect=_iterate_effect
            ),
        },
    )


class MZJob:
    """One NAS-MZ run: ``n_ranks`` MPI ranks, each a team of ``n_replicas``.

    Replicas are placed by :func:`~repro.mpi.replication.plan_replica_placement`
    and talk through one :class:`~repro.mpi.replication.TeamComm`.
    """

    #: Simulator attribute listing every job (oracle discovery).
    _ATTR = "mz_jobs"

    def __init__(self, fleet: "XeonPhiFleet", profile: MZProfile, n_ranks: int,
                 *, n_replicas: int = 1, iterations: Optional[int] = None):
        self.fleet = fleet
        self.sim = fleet.sim
        self.profile = profile
        self.name = f"{profile.name}x{n_replicas}"
        self.n_ranks = n_ranks
        self.n_replicas = n_replicas
        self.iterations = iterations if iterations is not None else profile.iterations
        self.host_heap, offload_heap, self.local_store = mz_rank_footprint(
            profile, n_ranks
        )
        self.binary = build_mz_binary(profile, offload_heap)
        self.placement = plan_replica_placement(fleet.cards(), n_ranks, n_replicas)
        self.comm = TeamComm(fleet, n_ranks)
        self.replicas: Dict[RKey, MZRank] = {
            key: MZRank(self, key[0], key[1], card)
            for key, card in self.placement.items()
        }
        # Coordinated-checkpoint state (see repro.mpi.cr).
        self.park_requested = False
        self.parked: int = 0
        self.all_parked: Optional[Event] = None
        self.release_event: Optional[Event] = None
        jobs = getattr(self.sim, self._ATTR, None)
        if jobs is None:
            jobs = []
            setattr(self.sim, self._ATTR, jobs)
        jobs.append(self)

    @classmethod
    def all_of(cls, sim: "Simulator") -> List["MZJob"]:
        return list(getattr(sim, cls._ATTR, ()))

    @property
    def ranks(self) -> List["MZRank"]:
        """Every replica, rank-major (one per MPI rank when unreplicated)."""
        return list(self.replicas.values())

    # -- lifecycle --------------------------------------------------------------
    def launch(self):
        """Sub-generator: start every replica and register team membership."""
        for key, rank in self.replicas.items():
            self.comm.register(key[0], key[1], rank.card.node)
            yield from rank.launch()

    def join(self):
        """Sub-generator: wait until every team has one finished replica.

        Individual replica deaths are absorbed (their team carries on); a
        team losing *every* replica raises
        :class:`~repro.mpi.replication.ReplicationError`.
        """
        while True:
            pending: List[Event] = []
            for t in range(self.n_ranks):
                team_done = False
                candidates: List[Event] = []
                for (tt, _rid), rank in self.replicas.items():
                    if tt != t or rank.host_proc is None:
                        continue
                    done = rank.host_proc.main_thread.done
                    if done.triggered:
                        if done.ok and rank.host_proc.store.get("finished"):
                            team_done = True
                    else:
                        candidates.append(done)
                if team_done:
                    continue
                if not candidates:
                    raise ReplicationError(f"team {t} lost every replica")
                pending.extend(candidates)
            if not pending:
                return
            try:
                yield self.sim.any_of(pending)
            except Exception:
                pass  # a replica died; re-evaluate team membership

    def abort(self) -> None:
        """Terminate every still-running replica (team-wipe cleanup)."""
        for rank in self.ranks:
            proc = rank.host_proc
            if proc is not None and proc.alive:
                proc.terminate(code=1)

    # -- re-seed integration -----------------------------------------------------
    def next_rid(self, team: int) -> int:
        return 1 + max(rid for (t, rid) in self.replicas if t == team)

    def adopt_replica(self, team: int, rid: int, card: "CardRef",
                      host_proc: SimProcess) -> "MZRank":
        """Integrate a restored clone as a new replica of ``team``.

        Must run in the same no-yield window as the restart that produced
        ``host_proc`` (before its main thread is scheduled): the runtime
        stamp below is what the restored program reads as its identity.
        """
        rank = MZRank(self, team, rid, card)
        rank.host_proc = host_proc
        host_proc.runtime["replica_team"] = team
        host_proc.runtime["replica_rid"] = rid
        self.replicas[(team, rid)] = rank
        self.placement[(team, rid)] = card
        self.comm.join_replica(team, rid, card.node)
        return rank

    # -- results ----------------------------------------------------------------
    def verify(self) -> bool:
        """Every team finished, and every finished replica checksums clean."""
        want = expected_checksum(self.iterations)
        team_ok = {t: False for t in range(self.n_ranks)}
        for (t, _rid), rank in self.replicas.items():
            proc = rank.host_proc
            if proc is None or not proc.store.get("finished"):
                continue
            if proc.store.get("checksum") != want:
                return False
            team_ok[t] = True
        return all(team_ok.values())

    def useful_iterations(self) -> int:
        """Logical progress: the best replica's iteration count per team."""
        best = {t: 0 for t in range(self.n_ranks)}
        for (t, _rid), rank in self.replicas.items():
            if rank.host_proc is not None:
                best[t] = max(best[t], rank.host_proc.store.get("iter", 0))
        return sum(best.values())

    def executed_iterations(self) -> int:
        """Total iterations burned across every replica (redundancy cost)."""
        return sum(
            rank.host_proc.store.get("iter", 0)
            for rank in self.ranks
            if rank.host_proc is not None
        )


class MZRank:
    """Replica ``rid`` of MPI rank ``rank``: a host process on its card's
    node with an offload process on that card."""

    def __init__(self, job: MZJob, rank: int, rid: int, card: "CardRef"):
        self.job = job
        self.rank = rank
        self.rid = rid
        self.card = card
        self.server = job.fleet.server(card.node)
        self.host_proc: Optional[SimProcess] = None

    def launch(self):
        self.host_proc = yield from self.server.host_os.spawn_process(
            f"{self.job.name}.t{self.rank}.r{self.rid}",
            image_size=16 * 1024 * 1024,
            main_factory=self._program,
        )
        return self.host_proc

    def _program(self, proc: SimProcess):
        job, profile, comm = self.job, self.job.profile, self.job.comm
        store = proc.store
        # A re-seeded clone runs this very program (bound to its source
        # replica), so identity comes from the process runtime the
        # integrator stamped, not from ``self``.
        team = proc.runtime.get("replica_team", self.rank)
        rid = proc.runtime.get("replica_rid", self.rid)
        if store.get("_blcr_restored"):
            coiproc = proc.runtime.pop("coi_restored_handle")
            proc.runtime["coi_handle"] = coiproc
        else:
            store["iter"] = 0
            store["checksum"] = 0
            proc.map_region("heap", job.host_heap)
            engine = COIEngine(self.server.node, self.card.device)
            coiproc = yield from engine.process_create(proc, job.binary)
            proc.runtime["coi_handle"] = coiproc
            buf = yield from coiproc.buffer_create(job.local_store)
            store["buf_id"] = buf.buf_id
            yield from coiproc.run_function_keyed("init", "init")

        nxt = (team + 1) % job.n_ranks
        prv = (team - 1) % job.n_ranks
        buf_id = store["buf_id"]
        while store["iter"] < job.iterations:
            i = store["iter"]
            # Coordinated-checkpoint park point (iteration boundary: all
            # channels provably empty here).
            if job.park_requested:
                yield from self._park()
            coiproc = proc.runtime["coi_handle"]

            # Ring halo exchange between ranks. Every replica of a rank
            # sends the same logical message; receivers keep the first
            # arrival, and a re-seeded clone's re-sends are suppressed the
            # same way.
            if job.n_ranks > 1:
                yield from comm.team_send(team, rid, nxt, ("halo", i),
                                          profile.exchange_bytes, payload=i)
                yield from comm.team_recv(team, rid, prv, ("halo", i))
            buf = coiproc.buffers[buf_id]
            yield from coiproc.buffer_write(buf, payload=i, nbytes=min(
                profile.exchange_bytes, buf.size))
            result = yield from coiproc.run_function_keyed(
                ("it", i), "iterate", {"i": i, "buf": buf_id}
            )
            store["checksum"] = result
            store["iter"] = i + 1
        store["finished"] = True

    def _park(self):
        job = self.job
        job.parked += 1
        if job.parked == len(job.replicas) and job.all_parked is not None:
            job.all_parked.succeed(None)
        release = job.release_event
        if release is not None:
            yield release
