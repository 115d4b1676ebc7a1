"""TeaMPI-style replication: each logical rank runs a *team* of replicas.

Checkpoint/restart pays a detection + restore round-trip on every failure;
replication hides failures entirely by running R copies of every logical
rank on disjoint cards and letting the survivors carry on. The pieces:

* :func:`plan_replica_placement` — anti-affinity placement in the style of
  :meth:`repro.snapify.fleet.FleetManager.partner_for`: every replica of a
  team on a distinct card, preferring distinct nodes.
* :class:`TeamComm` — a replica-aware communicator layered over
  :class:`~repro.mpi.runtime.MPIComm`. Every send fans out to every live
  replica of the destination team; receivers deduplicate by
  ``(src_team, tag, sequence)`` and deliver the first arrival. A per-team
  message log lets a re-seeded replica backfill messages it missed.
* :class:`ReplicatedJob` / :class:`TeamReplica` — the NAS-MZ-shaped
  workload run as teams on a :class:`~repro.testbed.XeonPhiFleet`, with
  the BLCR-restore branch the re-seed path relies on.
* :class:`HeartbeatDetector` — a sim-clock heartbeat that drops dead
  replicas from their team (emitting ``replica.*`` metrics and trace
  records) and, when enabled, re-seeds a lost replica from a healthy one
  through the fleet's MAINTENANCE lane
  (:meth:`repro.snapify.fleet.FleetManager.submit_reseed`).

Nothing here touches the default simulation path: building none of these
objects leaves traces, metrics, and schedules byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..coi.engine import COIEngine
from ..obs.registry import MetricsRegistry
from ..osim.process import SimProcess
from ..sim.errors import SimError
from ..sim.events import Event
from .runtime import MPIComm, MPIError

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.workloads import MZProfile
    from ..sim.core import Simulator
    from ..snapify.fleet import CardRef, FleetManager, FleetTicket
    from ..testbed import XeonPhiFleet


class ReplicationError(SimError):
    """A replication team lost every replica (or could not be placed)."""


#: Replica key: (team, replica id).
RKey = Tuple[int, int]


def plan_replica_placement(
    cards: List["CardRef"],
    n_teams: int,
    n_replicas: int,
    *,
    partner_for: Optional[Callable[[Any], Optional[str]]] = None,
) -> Dict[RKey, "CardRef"]:
    """Anti-affinity placement: every replica of a team on its own card.

    Replicas of one team land on distinct nodes when the fleet allows it
    (falling back to distinct cards on a shared node), so a single card —
    or node — failure never takes a whole team down. ``partner_for`` may
    inject the fleet's own partner policy
    (:meth:`~repro.snapify.fleet.FleetManager.partner_for`): when it names
    an unused card, that card is preferred for the next replica.
    """
    if n_teams * n_replicas > len(cards):
        raise ReplicationError(
            f"{n_teams} teams x {n_replicas} replicas > {len(cards)} cards"
        )
    by_key = {c.key: c for c in cards}
    placement: Dict[RKey, "CardRef"] = {}
    used: List["CardRef"] = []
    cursor = 0

    def scan(team_cards: List["CardRef"], node_disjoint: bool):
        for i in range(len(cards)):
            c = cards[(cursor + i) % len(cards)]
            if c in used:
                continue
            if node_disjoint and any(c.node == tc.node for tc in team_cards):
                continue
            return c
        return None

    for t in range(n_teams):
        team_cards: List["CardRef"] = []
        for r in range(n_replicas):
            pick = None
            if r > 0 and partner_for is not None:
                hint = by_key.get(partner_for(team_cards[-1]) or "")
                if hint is not None and hint not in used and all(
                    hint.node != tc.node for tc in team_cards
                ):
                    pick = hint
            if pick is None:
                pick = scan(team_cards, node_disjoint=True)
            if pick is None:
                pick = scan(team_cards, node_disjoint=False)
            if pick is None:
                raise ReplicationError("not enough cards for placement")
            used.append(pick)
            team_cards.append(pick)
            cursor = (cards.index(pick) + 1) % len(cards)
            placement[(t, r)] = pick
    return placement


class TeamComm:
    """Replica-aware communicator: per-team fan-out, first-arrival dedup.

    Physical copies ride the node fabric through a plain
    :class:`~repro.mpi.runtime.MPIComm` (one rank per node), so every copy
    pays real transfer time and the substrate's conservation counters see
    it. Each copy carries a unique transport tag; the replica-level
    deduplication key is ``(src_team, tag, sequence)`` where the sequence
    number counts repeated uses of a tag — deterministic replicas agree on
    it without coordination.
    """

    #: Simulator attribute holding every team communicator (oracles).
    _ATTR = "mpi_team_comms"

    def __init__(self, fleet: "XeonPhiFleet", n_teams: int):
        self.sim = fleet.sim
        self.n_teams = n_teams
        self.transport = MPIComm(fleet, len(fleet.cluster.nodes))
        #: team -> replica ids, in join order (never iterate a set here:
        #: membership order feeds the deterministic schedule).
        self.live: Dict[int, List[int]] = {t: [] for t in range(n_teams)}
        self.dropped: Dict[int, List[int]] = {t: [] for t in range(n_teams)}
        self.node_of: Dict[RKey, int] = {}
        self._mailbox: Dict[RKey, Dict[Any, Any]] = {}
        self._seen: Dict[RKey, set] = {}
        #: (replica key, dedup key) -> waiting event
        self._waiters: Dict[Tuple[RKey, Any], Event] = {}
        self._send_seq: Dict[Any, int] = {}
        self._recv_seq: Dict[Any, int] = {}
        #: dst team -> {dedup key: payload}; replayed into re-seeded joiners.
        self._log: Dict[int, Dict[Any, Any]] = {t: {} for t in range(n_teams)}
        # Copy ledger. Every physical copy (and every backfill replay) ends
        # in exactly one bucket, so at any instant:
        #   copies_sent + backfilled == delivered + suppressed + dropped_dead
        self.copies_sent = 0
        self.delivered = 0
        self.suppressed = 0
        self.dropped_dead = 0
        self.backfilled = 0
        #: (replica key, dedup key) -> times delivered; the
        #: no_duplicate_delivery oracle asserts every value is exactly 1.
        self.delivered_counts: Dict[Tuple[RKey, Any], int] = {}
        comms = getattr(self.sim, self._ATTR, None)
        if comms is None:
            comms = []
            setattr(self.sim, self._ATTR, comms)
        comms.append(self)

    @classmethod
    def all_of(cls, sim: "Simulator") -> List["TeamComm"]:
        return list(getattr(sim, cls._ATTR, ()))

    # -- membership -------------------------------------------------------------
    def register(self, team: int, rid: int, node: int) -> None:
        """Add a replica to its team's live set (initial launch)."""
        key = (team, rid)
        if rid not in self.live[team]:
            self.live[team].append(rid)
        self.node_of[key] = node
        self._mailbox.setdefault(key, {})
        self._seen.setdefault(key, set())

    def drop_replica(self, team: int, rid: int, *, reason: str = "") -> None:
        """Remove a replica from its team; its pending recvs are forgotten."""
        if rid in self.live[team]:
            self.live[team].remove(rid)
        if rid not in self.dropped[team]:
            self.dropped[team].append(rid)
        key = (team, rid)
        for wk in [wk for wk in self._waiters if wk[0] == key]:
            del self._waiters[wk]
        self.sim.trace.emit("replica.drop", team=team, rid=rid, reason=reason)

    def join_replica(self, team: int, rid: int, node: int, *,
                     backfill: bool = True) -> None:
        """Admit a (re-seeded) replica with a fresh mailbox; optionally
        replay the team's message log so it can re-receive what it missed."""
        key = (team, rid)
        if rid in self.dropped[team]:
            self.dropped[team].remove(rid)
        if rid not in self.live[team]:
            self.live[team].append(rid)
        self.node_of[key] = node
        self._mailbox[key] = {}
        self._seen[key] = set()
        self.sim.trace.emit("replica.join", team=team, rid=rid, node=node)
        if backfill:
            for dkey, payload in self._log[team].items():
                self.backfilled += 1
                self._arrive(team, rid, dkey, payload)

    # -- messaging --------------------------------------------------------------
    def team_send(self, src_team: int, src_rid: int, dst_team: int, tag: Any,
                  nbytes: int, payload: Any = None):
        """Sub-generator: fan one logical message out to every live replica
        of ``dst_team``; receivers keep the first copy per dedup key."""
        skey = (src_team, src_rid, dst_team, tag)
        seq = self._send_seq.get(skey, 0)
        self._send_seq[skey] = seq + 1
        dkey = (src_team, tag, seq)
        self._log[dst_team].setdefault(dkey, payload)
        src_node = self.node_of[(src_team, src_rid)]
        for rid in list(self.live[dst_team]):
            if rid not in self.live[dst_team]:
                # Dropped while we were transferring an earlier copy.
                continue
            dst_node = self.node_of[(dst_team, rid)]
            ckey = ("tc", src_team, src_rid, dst_team, rid, tag, seq)
            yield from self.transport.send(src_node, dst_node, ckey, nbytes,
                                           payload)
            # Eager transport: the copy is already queued (or handed to a
            # waiter we never register), so this recv resolves immediately.
            ev = self.transport.recv(dst_node, src_node, ckey)
            self.copies_sent += 1
            self._arrive(dst_team, rid, dkey, ev.value)

    def _arrive(self, dst_team: int, rid: int, dkey: Any, payload: Any) -> None:
        key = (dst_team, rid)
        if rid not in self.live[dst_team]:
            self.dropped_dead += 1
            return
        seen = self._seen[key]
        if dkey in seen:
            self.suppressed += 1
            return
        seen.add(dkey)
        self.delivered += 1
        self.delivered_counts[(key, dkey)] = (
            self.delivered_counts.get((key, dkey), 0) + 1
        )
        waiter = self._waiters.pop((key, dkey), None)
        if waiter is not None and not waiter.triggered and not waiter.abandoned:
            waiter.succeed(payload)
        else:
            self._mailbox[key][dkey] = payload

    def team_recv(self, dst_team: int, dst_rid: int, src_team: int, tag: Any):
        """Sub-generator: the next ``(src_team, tag)`` message for a replica."""
        key = (dst_team, dst_rid)
        rkey = (key, src_team, tag)
        seq = self._recv_seq.get(rkey, 0)
        self._recv_seq[rkey] = seq + 1
        dkey = (src_team, tag, seq)
        box = self._mailbox[key]
        if dkey in box:
            return box.pop(dkey)
        old = self._waiters.get((key, dkey))
        if old is not None and not old.triggered and not old.abandoned:
            raise MPIError(f"double team recv on {key}/{dkey}")
        ev = Event(self.sim, name=f"team.recv:{key}:{dkey}")
        self._waiters[(key, dkey)] = ev
        value = yield ev
        return value

    # -- introspection ----------------------------------------------------------
    def pending_copies(self) -> int:
        """Delivered-but-unconsumed copies across every replica mailbox."""
        return sum(len(box) for box in self._mailbox.values())

    def ledger_balanced(self) -> bool:
        """The copy-conservation identity (see the ledger comment above)."""
        return (self.copies_sent + self.backfilled
                == self.delivered + self.suppressed + self.dropped_dead)


class TeamReplica:
    """One replica: a host process + offload process pinned to one card."""

    def __init__(self, job: "ReplicatedJob", team: int, rid: int,
                 card: "CardRef"):
        self.job = job
        self.team = team
        self.rid = rid
        self.card = card
        self.sim = job.sim
        self.server = job.fleet.server(card.node)
        self.host_heap = job.host_heap
        self.local_store = job.local_store
        self.binary = job.binary
        self.host_proc: Optional[SimProcess] = None

    @property
    def key(self) -> RKey:
        return (self.team, self.rid)

    def launch(self):
        self.host_proc = yield from self.server.host_os.spawn_process(
            f"{self.job.name}.t{self.team}.r{self.rid}",
            image_size=16 * 1024 * 1024,
            main_factory=self._main_factory(),
        )
        return self.host_proc

    def _main_factory(self):
        replica = self

        def main(proc: SimProcess):
            yield from replica._program(proc)

        return main

    def _program(self, proc: SimProcess):
        job, profile, comm = self.job, self.job.profile, self.job.comm
        store = proc.store
        # A re-seeded clone runs this very closure (captured from its
        # source replica), so identity comes from the process runtime the
        # integrator stamped, not from ``self``.
        team = proc.runtime.get("replica_team", self.team)
        rid = proc.runtime.get("replica_rid", self.rid)
        if store.get("_blcr_restored"):
            coiproc = proc.runtime.pop("coi_restored_handle")
            proc.runtime["coi_handle"] = coiproc
        else:
            store["iter"] = 0
            store["checksum"] = 0
            proc.map_region("heap", self.host_heap)
            engine = COIEngine(self.server.node, self.card.device)
            coiproc = yield from engine.process_create(proc, self.binary)
            proc.runtime["coi_handle"] = coiproc
            buf = yield from coiproc.buffer_create(self.local_store)
            store["buf_id"] = buf.buf_id
            yield from coiproc.run_function_keyed("init", "init")

        nxt = (team + 1) % job.n_teams
        prv = (team - 1) % job.n_teams
        buf_id = store["buf_id"]
        while store["iter"] < job.iterations:
            i = store["iter"]
            # Ring halo exchange between teams. Both replicas send the same
            # logical message; receivers keep the first arrival, and a
            # restarted replica's re-sends are suppressed the same way.
            if job.n_teams > 1:
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


class ReplicatedJob:
    """An NAS-MZ-shaped job run as ``n_teams`` teams of ``n_replicas``."""

    #: Simulator attribute listing every replicated job (oracle discovery).
    _ATTR = "replicated_jobs"

    def __init__(self, fleet: "XeonPhiFleet", profile: "MZProfile",
                 n_teams: int, n_replicas: int = 2,
                 iterations: Optional[int] = None,
                 partner_for: Optional[Callable[[Any], Optional[str]]] = None):
        from ..apps.nas_mz import build_mz_binary
        from ..apps.workloads import mz_rank_footprint

        self.fleet = fleet
        self.sim = fleet.sim
        self.profile = profile
        self.name = f"{profile.name}x{n_replicas}"
        self.n_teams = n_teams
        self.n_replicas = n_replicas
        self.iterations = (iterations if iterations is not None
                           else profile.iterations)
        host_heap, offload_heap, local_store = mz_rank_footprint(
            profile, n_teams
        )
        self.host_heap = host_heap
        self.local_store = local_store
        self.binary = build_mz_binary(profile, offload_heap)
        self.placement = plan_replica_placement(
            fleet.cards(), n_teams, n_replicas, partner_for=partner_for
        )
        self.comm = TeamComm(fleet, n_teams)
        self.replicas: Dict[RKey, TeamReplica] = {
            key: TeamReplica(self, key[0], key[1], card)
            for key, card in self.placement.items()
        }
        jobs = getattr(self.sim, self._ATTR, None)
        if jobs is None:
            jobs = []
            setattr(self.sim, self._ATTR, jobs)
        jobs.append(self)

    @classmethod
    def all_of(cls, sim: "Simulator") -> List["ReplicatedJob"]:
        return list(getattr(sim, cls._ATTR, ()))

    # -- lifecycle --------------------------------------------------------------
    def launch(self):
        """Sub-generator: start every replica and register team membership."""
        for key, rep in self.replicas.items():
            self.comm.register(key[0], key[1], rep.card.node)
            yield from rep.launch()

    def join(self):
        """Sub-generator: wait until every team has one finished replica.

        Individual replica deaths are absorbed (their team carries on); a
        team losing *every* replica raises :class:`ReplicationError`.
        """
        while True:
            pending: List[Event] = []
            for t in range(self.n_teams):
                team_done = False
                candidates: List[Event] = []
                for (tt, _rid), rep in self.replicas.items():
                    if tt != t or rep.host_proc is None:
                        continue
                    done = rep.host_proc.main_thread.done
                    if done.triggered:
                        if done.ok and rep.host_proc.store.get("finished"):
                            team_done = True
                    else:
                        candidates.append(done)
                if team_done:
                    continue
                if not candidates:
                    raise ReplicationError(
                        f"team {t} lost every replica"
                    )
                pending.extend(candidates)
            if not pending:
                return
            try:
                yield self.sim.any_of(pending)
            except Exception:
                pass  # a replica died; re-evaluate team membership

    def abort(self) -> None:
        """Terminate every still-running replica (team-wipe cleanup)."""
        for rep in self.replicas.values():
            proc = rep.host_proc
            if proc is not None and proc.alive:
                proc.terminate(code=1)

    # -- re-seed integration -----------------------------------------------------
    def next_rid(self, team: int) -> int:
        return 1 + max(rid for (t, rid) in self.replicas if t == team)

    def adopt_replica(self, team: int, rid: int, card: "CardRef",
                      host_proc: SimProcess) -> TeamReplica:
        """Integrate a restored clone as a new replica of ``team``.

        Must run in the same no-yield window as the restart that produced
        ``host_proc`` (before its main thread is scheduled): the runtime
        stamp below is what the restored program reads as its identity.
        """
        rep = TeamReplica(self, team, rid, card)
        rep.host_proc = host_proc
        host_proc.runtime["replica_team"] = team
        host_proc.runtime["replica_rid"] = rid
        self.replicas[(team, rid)] = rep
        self.placement[(team, rid)] = card
        self.comm.join_replica(team, rid, card.node)
        return rep

    # -- results ----------------------------------------------------------------
    def verify(self) -> bool:
        """Every team finished, and every finished replica checksums clean."""
        from ..apps.offload import expected_checksum

        want = expected_checksum(self.iterations)
        team_ok = {t: False for t in range(self.n_teams)}
        for (t, _rid), rep in self.replicas.items():
            proc = rep.host_proc
            if proc is None or not proc.store.get("finished"):
                continue
            if proc.store.get("checksum") != want:
                return False
            team_ok[t] = True
        return all(team_ok.values())

    def useful_iterations(self) -> int:
        """Logical progress: the best replica's iteration count per team."""
        best = {t: 0 for t in range(self.n_teams)}
        for (t, _rid), rep in self.replicas.items():
            if rep.host_proc is not None:
                best[t] = max(best[t], rep.host_proc.store.get("iter", 0))
        return sum(best.values())

    def executed_iterations(self) -> int:
        """Total iterations burned across every replica (redundancy cost)."""
        return sum(
            rep.host_proc.store.get("iter", 0)
            for rep in self.replicas.values()
            if rep.host_proc is not None
        )


class HeartbeatDetector:
    """Sim-clock heartbeat over a replicated job's teams.

    Every ``interval`` sim-seconds each live replica is probed (host
    process, offload handle, card, link). ``misses`` consecutive failed
    probes drop the replica from its team — fencing a zombie that is
    technically still running — without interrupting the survivors. With
    ``reseed`` enabled, a degraded team is restored to full strength by
    cloning a healthy replica through the fleet's MAINTENANCE lane.
    """

    def __init__(self, job: ReplicatedJob, *, interval: float = 0.05,
                 misses: int = 2, reseed: bool = False,
                 manager: Optional["FleetManager"] = None,
                 snapshot_root: str = "/replication"):
        if reseed and manager is None:
            raise ValueError("re-seeding needs a FleetManager")
        self.job = job
        self.sim = job.sim
        self.interval = interval
        self.misses = misses
        self.reseed = reseed
        self.manager = manager
        self.snapshot_root = snapshot_root
        self._miss: Dict[RKey, int] = {}
        self._stopped = False
        self._thread = None
        #: Teams with a re-seed ticket in flight (one at a time per team).
        self._reseeding: Dict[int, "FleetTicket"] = {}
        self.reseed_tickets: List["FleetTicket"] = []
        #: (what, team, rid, sim-time) tuples, in detection order.
        self.events: List[tuple] = []
        registry = MetricsRegistry.of(self.sim)
        self.m_beats = registry.counter("replica.heartbeats")
        self.m_misses = registry.counter("replica.misses")
        self.m_drops = registry.counter("replica.drops")
        self.m_reseeds = registry.counter("replica.reseeds")
        registry.gauge("replica.live", self._live_total)
        for t in range(job.n_teams):
            registry.gauge(f"replica.team.{t}.live",
                           lambda t=t: len(self.job.comm.live[t]))

    def _live_total(self) -> int:
        return sum(len(rids) for rids in self.job.comm.live.values())

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        self._thread = self.sim.spawn(self._run(), name="heartbeat")

    def stop(self) -> None:
        self._stopped = True

    @property
    def drops(self) -> List[tuple]:
        return [e for e in self.events if e[0] == "drop"]

    @property
    def reseeds(self) -> List[tuple]:
        return [e for e in self.events if e[0] == "reseed"]

    # -- probe loop -------------------------------------------------------------
    def _run(self):
        while not self._stopped and not self._all_terminal():
            yield self.sim.sleep(self.interval)
            if self._stopped:
                break
            self.m_beats.inc()
            for team in range(self.job.n_teams):
                for rid in list(self.job.comm.live[team]):
                    self._probe(team, rid)
            self._collect_reseeds()

    def _all_terminal(self) -> bool:
        procs = [rep.host_proc for rep in self.job.replicas.values()]
        if any(p is None for p in procs):
            return False
        if self._reseeding:
            return False
        return all(p.main_thread.done.triggered for p in procs)

    def _healthy(self, rep: TeamReplica) -> bool:
        proc = rep.host_proc
        if proc is None:
            return True  # not launched yet: nothing to probe
        done = proc.main_thread.done
        if done.triggered:
            return bool(done.ok and proc.store.get("finished"))
        phi = self.job.fleet.phi(rep.card)
        if getattr(phi, "failed", False) or getattr(phi, "link_down", False):
            return False
        if not proc.alive:
            return False
        handle = proc.runtime.get("coi_handle")
        if handle is not None and (handle.dead or not handle.offload_proc.alive):
            return False
        return True

    def _probe(self, team: int, rid: int) -> None:
        key = (team, rid)
        rep = self.job.replicas.get(key)
        if rep is None:
            return
        if self._healthy(rep):
            self._miss.pop(key, None)
            return
        count = self._miss.get(key, 0) + 1
        self._miss[key] = count
        self.m_misses.inc()
        self.sim.trace.emit("replica.miss", team=team, rid=rid, count=count)
        self.events.append(("miss", team, rid, self.sim.now))
        if count < self.misses:
            return
        self._miss.pop(key, None)
        self.job.comm.drop_replica(team, rid, reason="heartbeat")
        proc = rep.host_proc
        if proc is not None and proc.alive:
            # Fence: a zombie behind a flapped link must not resurface and
            # double-deliver after the team moved on without it.
            proc.terminate(code=1)
        self.m_drops.inc()
        self.events.append(("drop", team, rid, self.sim.now))
        if self.reseed:
            self._submit_reseed(team)

    # -- re-seed path -----------------------------------------------------------
    def _submit_reseed(self, team: int) -> None:
        from ..snapify.fleet import CardRef

        if team in self._reseeding:
            return
        if len(self.job.comm.live[team]) >= self.job.n_replicas:
            return
        source = None
        for rid in self.job.comm.live[team]:
            rep = self.job.replicas[(team, rid)]
            if rep.host_proc is not None and rep.host_proc.alive:
                source = rep
                break
        if source is None:
            return
        # The clone restores against the source's node-local host context,
        # so the target card must share the source's node (card-disjoint
        # from every live replica, as the membership oracle demands).
        fleet = self.job.fleet
        team_cards = [self.job.replicas[(team, rid)].card
                      for rid in self.job.comm.live[team]]
        target = None
        for d in range(fleet.topology.phis_per_node):
            card = CardRef(node=source.card.node, device=d)
            phi = fleet.phi(card)
            if getattr(phi, "failed", False) or getattr(phi, "link_down", False):
                continue
            if any(card.key == tc.key for tc in team_cards):
                continue
            target = card
            break
        if target is None:
            self.sim.trace.emit("replica.reseed_skipped", team=team,
                                reason="no spare card on source node")
            return
        new_rid = self.job.next_rid(team)
        path = f"{self.snapshot_root}/t{team}_r{new_rid}"
        job = self.job

        def integrate(result):
            job.adopt_replica(team, new_rid, target, result.host_proc)
            self.m_reseeds.inc()
            self.events.append(("reseed", team, new_rid, self.sim.now))
            self.sim.trace.emit("replica.reseed", team=team, rid=new_rid,
                                card=target.key, source=source.rid)

        ticket = self.manager.submit_reseed(
            f"reseed:t{team}.r{new_rid}",
            coiproc=source.host_proc.runtime["coi_handle"],
            host_os=source.server.host_os,
            engine_to=fleet.engine(target),
            snapshot_path=path,
            card=target,
            integrate=integrate,
        )
        self._reseeding[team] = ticket
        self.reseed_tickets.append(ticket)

    def _collect_reseeds(self) -> None:
        finished = [t for t, ticket in self._reseeding.items()
                    if ticket.done.triggered]
        for t in finished:
            del self._reseeding[t]
