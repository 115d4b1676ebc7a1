"""TeaMPI-style replication: each logical rank runs a *team* of replicas.

Checkpoint/restart pays a detection + restore round-trip on every failure;
replication hides failures entirely by running R copies of every logical
rank on disjoint cards and letting the survivors carry on. The pieces:

* :func:`plan_replica_placement` — anti-affinity placement: every replica
  of a team on a distinct card, preferring distinct nodes.
* :class:`TeamComm` — a replica-aware communicator layered over
  :class:`~repro.mpi.runtime.MPIComm`. Every send fans out to every live
  replica of the destination team; receivers deduplicate by
  ``(src_team, tag, sequence)`` and deliver the first arrival. A per-team
  message log lets a re-seeded replica backfill messages it missed.
* :class:`HeartbeatDetector` — a sim-clock heartbeat that drops dead
  replicas from their team (emitting ``replica.*`` metrics and trace
  records) and, given a fleet manager, re-seeds a lost replica from a
  healthy one through the fleet's MAINTENANCE lane
  (:meth:`repro.snapify.fleet.FleetManager.submit_reseed`).

The replicated workload is :class:`repro.apps.nas_mz.MZJob`: every NAS-MZ
rank is a team of ``n_replicas``, and the paper's plain MPI job (Fig. 11)
is the team of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..obs.registry import MetricsRegistry
from ..sim.errors import SimError
from ..sim.events import Event
from .runtime import MPIComm, MPIError

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.nas_mz import MZJob, MZRank
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
) -> Dict[RKey, "CardRef"]:
    """Anti-affinity placement: every replica of a team on its own card.

    Replicas of one team land on distinct nodes when the fleet allows it
    (falling back to distinct cards on a shared node), so a single card —
    or node — failure never takes a whole team down.
    """
    if n_teams * n_replicas > len(cards):
        raise ReplicationError(
            f"{n_teams} teams x {n_replicas} replicas > {len(cards)} cards"
        )
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
        #: First sequence number of a tag; :meth:`rollback` raises it.
        self._seq_base = 0
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

    def join_replica(self, team: int, rid: int, node: int) -> None:
        """Admit a (re-seeded) replica with a fresh mailbox and replay the
        team's message log so it can re-receive what it missed."""
        key = (team, rid)
        if rid in self.dropped[team]:
            self.dropped[team].remove(rid)
        if rid not in self.live[team]:
            self.live[team].append(rid)
        self.node_of[key] = node
        self._mailbox[key] = {}
        self._seen[key] = set()
        self.sim.trace.emit("replica.join", team=team, rid=rid, node=node)
        for dkey, payload in self._log[team].items():
            self.backfilled += 1
            self._arrive(team, rid, dkey, payload)

    # -- messaging --------------------------------------------------------------
    def team_send(self, src_team: int, src_rid: int, dst_team: int, tag: Any,
                  nbytes: int, payload: Any = None):
        """Sub-generator: fan one logical message out to every live replica
        of ``dst_team``; receivers keep the first copy per dedup key."""
        skey = (src_team, src_rid, dst_team, tag)
        seq = self._send_seq.get(skey, self._seq_base)
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
        seq = self._recv_seq.get(rkey, self._seq_base)
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

    def rollback(self) -> None:
        """Forget what a job's dead incarnation left in flight.

        A coordinated restart (:func:`repro.mpi.cr.mpi_restart`) resumes
        every replica from a checkpoint taken with every channel empty, so
        the copies, waiters and per-tag counts of the killed processes must
        not pair with the messages the restored ones re-send. Sequence
        numbers restart above every one issued so far: a re-sent halo is a
        new message to its receiver, not a duplicate of one it saw before.
        """
        self._seq_base = max([self._seq_base, *self._send_seq.values(),
                              *self._recv_seq.values()])
        self._send_seq.clear()
        self._recv_seq.clear()
        self._waiters.clear()
        for box in self._mailbox.values():
            box.clear()
        for log in self._log.values():
            log.clear()

    # -- introspection ----------------------------------------------------------
    def pending_messages(self) -> int:
        """Copies delivered to a live replica but not yet received (drain
        probe for coordinated checkpoints)."""
        return sum(len(self._mailbox[(team, rid)])
                   for team, rids in self.live.items() for rid in rids)

    def ledger_balanced(self) -> bool:
        """The copy-conservation identity (see the ledger comment above)."""
        return (self.copies_sent + self.backfilled
                == self.delivered + self.suppressed + self.dropped_dead)


#: Sim-seconds between two heartbeat probes of every live replica.
HEARTBEAT_INTERVAL = 0.05
#: Directory the re-seed snapshots of a cloned replica are written under.
RESEED_ROOT = "/replication"


class HeartbeatDetector:
    """Sim-clock heartbeat over a replicated job's teams.

    Every :data:`HEARTBEAT_INTERVAL` sim-seconds each live replica is
    probed (host process, offload handle, card, link). ``misses``
    consecutive failed probes drop the replica from its team — fencing a
    zombie that is technically still running — without interrupting the
    survivors. Given a fleet ``manager``, a degraded team is restored to
    full strength by cloning a healthy replica through the fleet's
    MAINTENANCE lane.
    """

    def __init__(self, job: "MZJob", *, misses: int = 2,
                 manager: Optional["FleetManager"] = None):
        self.job = job
        self.sim = job.sim
        self.misses = misses
        self.manager = manager
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
        for t in range(job.n_ranks):
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
            yield self.sim.sleep(HEARTBEAT_INTERVAL)
            if self._stopped:
                break
            self.m_beats.inc()
            for team in range(self.job.n_ranks):
                for rid in list(self.job.comm.live[team]):
                    self._probe(team, rid)
            self._collect_reseeds()

    def _all_terminal(self) -> bool:
        procs = [rank.host_proc for rank in self.job.ranks]
        if any(p is None for p in procs):
            return False
        if self._reseeding:
            return False
        return all(p.main_thread.done.triggered for p in procs)

    def _healthy(self, rep: "MZRank") -> bool:
        proc = rep.host_proc
        if proc is None:
            return True  # not launched yet: nothing to probe
        done = proc.main_thread.done
        if done.triggered:
            return bool(done.ok and proc.store.get("finished"))
        phi = self.job.fleet.phi(rep.card)
        if phi.failed or phi.link_down:
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
        if self.manager is not None:
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
            if phi.failed or phi.link_down:
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
        path = f"{RESEED_ROOT}/t{team}_r{new_rid}"
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
