"""The distributed in-memory snapshot tier.

Incremental captures do not touch NFS on the critical path: each
:class:`~repro.blcr.incremental.DeltaImage` is stored as a *local* copy in
the capturing card's memory plus a *partner* copy replicated to another
card of the same node (round-robin over its healthy cards), streamed over
the two-hop SCIF route as ``scif_writeto`` moves it. NFS only
sees the chain when a BACKGROUND-priority fleet ticket demotes it
(:meth:`MemoryTier.demote`) — the Kohl-style partner scheme that makes
frequent checkpoints affordable.

The tier is a per-simulator singleton (``MemoryTier.of(sim)``) and fully
opt-in: nothing builds one unless an incremental capture runs, and every
consumer peeks (``MemoryTier.peek``) so default runs schedule zero extra
events — the golden trace stays byte-identical.

Accounting rules (audited by the ``partner_copy_consistent`` oracle):

* every *intact* copy's bytes are charged to its home card's memory pool
  under the ``"snap_tier"`` category and freed when the copy is torn,
  released, or dropped;
* a partner copy interrupted mid-replication is marked ``torn`` and never
  counted as a surviving replica — the tier re-homes to the next candidate
  instead of committing the torn image;
* a link is ``replicated`` only once an intact partner copy committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..blcr.context import BULK_CHUNK
from ..blcr.incremental import DeltaImage
from ..hw.memory import MemoryExhausted
from ..obs.registry import MetricsRegistry
from ..scif.endpoint import ScifNetwork
from ..scif.rdma import dma
from ..sim.errors import SimError

#: Memory-pool category for tier-resident snapshot bytes.
TIER_CATEGORY = "snap_tier"
#: Demotion attempts before a background demote gives up.
DEMOTE_ATTEMPTS = 3
#: Simulated seconds before demotion retry ``n`` is ``n`` times this.
DEMOTE_BACKOFF = 0.5


class TierError(SimError):
    """Memory-tier placement/lookup failure."""


@dataclass
class TierCopy:
    """One resident copy of one chain link."""

    home: str  #: fleet card key ("n0.mic1")
    nbytes: int
    role: str  #: "local" | "partner"
    torn: bool = False  #: replication was interrupted; image is unusable
    lost: bool = False  #: home card failed with the copy on it
    released: bool = False  #: freed after demotion

    @property
    def intact(self) -> bool:
        return not (self.torn or self.lost or self.released)


@dataclass
class TierLink:
    """One chain link (a base or delta image) and its copies."""

    image: DeltaImage
    copies: List[TierCopy] = field(default_factory=list)
    #: The local copy is durable in card memory (the capture commit point).
    committed: bool = False
    #: An intact partner copy finished streaming.
    replicated: bool = False

    def intact_copies(self) -> List[TierCopy]:
        return [c for c in self.copies if c.intact]


@dataclass
class ChainEntry:
    """The ledger record of one snapshot path's incremental chain."""

    snapshot_id: str
    links: List[TierLink] = field(default_factory=list)
    demoted: bool = False

    @property
    def images(self) -> List[DeltaImage]:
        return [link.image for link in self.links]


class MemoryTier:
    """Per-simulator in-memory snapshot tier + placement ledger."""

    _ATTR = "snapify_memtier"

    def __init__(self, sim: Any):
        self.sim = sim
        #: snapshot path -> chain ledger entry.
        self.chains: Dict[str, ChainEntry] = {}
        #: fleet card key -> PhiDevice, in registration order (the
        #: round-robin partner rotation walks this order).
        self._cards: Dict[str, Any] = {}
        self._order: List[str] = []
        self._cursor = 0
        #: (source, destination key) -> bytes streamed, torn streams included.
        self.streamed: Dict[Tuple[str, str], int] = {}
        reg = MetricsRegistry.of(sim)
        self._registry = reg
        self.m_stores = reg.counter("memtier.stores")
        self.m_delta_bytes = reg.counter("memtier.delta_bytes")
        self.m_logical_bytes = reg.counter("memtier.logical_bytes")
        self.m_torn = reg.counter("memtier.replication_torn")
        self.m_demotions = reg.counter("memtier.demotions")
        self.m_demotion_failures = reg.counter("memtier.demotion_failures")
        self.m_hits = {
            src: reg.counter(f"memtier.hits.{src}") for src in ("local", "partner", "nfs")
        }
        reg.gauge("memtier.chains", lambda: len(self.chains))
        reg.gauge("memtier.resident_bytes", self.resident_bytes)

    @classmethod
    def of(cls, sim: Any) -> "MemoryTier":
        tier = getattr(sim, cls._ATTR, None)
        if tier is None:
            tier = cls(sim)
            setattr(sim, cls._ATTR, tier)
        return tier

    @classmethod
    def peek(cls, sim: Any) -> Optional["MemoryTier"]:
        """The simulator's tier if one exists — restore paths and oracles
        must not create one."""
        return getattr(sim, cls._ATTR, None)

    # -- fleet registration --------------------------------------------------
    def register_card(self, key: str, phi: Any) -> None:
        if key not in self._cards:
            self._order.append(key)
        self._cards[key] = phi

    def register_server(self, server: Any) -> None:
        """Register every card of one :class:`~repro.testbed.XeonPhiServer`."""
        for phi in server.node.phis:
            self.register_card(phi.key, phi)

    def key_for_phi(self, phi: Any) -> str:
        """The fleet key of ``phi``, self-registering it if unknown."""
        for key, known in self._cards.items():
            if known is phi:
                return key
        self.register_card(phi.key, phi)
        return phi.key

    def _healthy(self, key: str) -> bool:
        phi = self._cards.get(key)
        if phi is None:
            return False
        return not phi.failed and not phi.link_down and phi.os is not None

    def partner_candidates(self, home: str) -> List[str]:
        """Healthy partner keys on ``home``'s node, in round-robin rotation
        order: a SCIF route joins only the cards of one node."""
        n = len(self._order)
        if n == 0:
            return []
        start = self._cursor % n
        rotation = self._order[start:] + self._order[:start]
        node = self._cards[home].node
        return [k for k in rotation if k != home and self._healthy(k)
                and self._cards[k].node is node]

    def choose_partner(self, home: str) -> Optional[str]:
        """Next round-robin partner for ``home`` (advances the cursor)."""
        candidates = self.partner_candidates(home)
        if not candidates:
            return None
        self._cursor += 1
        return candidates[0]

    # -- accounting helpers ----------------------------------------------------
    def _mem_of(self, key: str):
        phi = self._cards.get(key)
        return getattr(phi, "memory", None) if phi is not None else None

    def _charge(self, key: str, nbytes: int) -> None:
        mem = self._mem_of(key)
        if mem is not None:
            mem.allocate(nbytes, TIER_CATEGORY)

    def _uncharge(self, key: str, nbytes: int) -> None:
        mem = self._mem_of(key)
        if mem is not None and mem.by_category.get(TIER_CATEGORY, 0) >= nbytes:
            mem.free(nbytes, TIER_CATEGORY)

    def _drop_copy(self, copy: TierCopy, *, reason: str) -> None:
        """Retire a copy: free its pool bytes and mark why it went away."""
        if not copy.intact:
            return
        self._uncharge(copy.home, copy.nbytes)
        if reason == "torn":
            copy.torn = True
        elif reason == "lost":
            copy.lost = True
        else:
            copy.released = True

    def resident_bytes(self) -> int:
        return sum(
            c.nbytes
            for entry in self.chains.values()
            for link in entry.links
            for c in link.copies
            if c.intact
        )

    def _stream(self, src: str, dst: str, nbytes: int):
        """Sub-generator: move ``nbytes`` between two cards of one node in
        chunks, each a DMA over their SCIF route as ``scif_writeto`` moves
        it; raises :class:`TierError` the moment either end dies mid-copy."""
        a, b = self._cards[src], self._cards[dst]
        if a.node is not b.node:
            raise TierError(f"no SCIF route from {src} to {dst}: different nodes")
        net = ScifNetwork.of(a.node)
        remaining = nbytes
        while remaining > 0:
            if not self._healthy(dst):
                raise TierError(f"partner {dst} died mid-replication")
            if not self._healthy(src):
                raise TierError(f"source {src} died mid-replication")
            chunk = min(remaining, BULK_CHUNK)
            yield from dma(self.sim, net.route(a.os, b.os), chunk)
            self.streamed[src, dst] = self.streamed.get((src, dst), 0) + chunk
            remaining -= chunk

    # -- capture path ----------------------------------------------------------
    def store(self, os_instance: Any, path: str, image: DeltaImage, *, span: int = 0):
        """Sub-generator: place one captured image — local copy first (the
        commit point), then a partner replica, re-homing through the
        rotation when a partner dies mid-copy. Returns the placement dict
        the agent folds into its CAPTURE_COMPLETE reply.
        """
        phi = getattr(os_instance, "hw", None)
        if phi is None:
            raise TierError("memory tier store needs a card OS (no host captures)")
        home = self.key_for_phi(phi)
        entry = self.chains.get(path)
        if entry is None:
            entry = self.chains[path] = ChainEntry(snapshot_id=path)
        if len(entry.links) != image.epoch:
            raise TierError(
                f"{path}: storing epoch {image.epoch} but ledger holds "
                f"{len(entry.links)} link(s)"
            )

        link = TierLink(image=image)
        entry.links.append(link)
        nbytes = image.delta_bytes

        # Local copy: synchronous, charged to this card's memory. This is
        # the capture commit point — MemoryExhausted here fails the capture
        # cleanly before anything was promised.
        try:
            self._charge(home, nbytes)
        except MemoryExhausted:
            entry.links.pop()
            raise
        local = TierCopy(home=home, nbytes=nbytes, role="local")
        link.copies.append(local)
        link.committed = True
        self.m_stores.inc()
        self.m_delta_bytes.inc(nbytes)
        self.m_logical_bytes.inc(image.logical_bytes)
        self.sim.trace.emit("memtier.store", path=path, epoch=image.epoch,
                            home=home, bytes=nbytes, span=span)

        # Partner replica: walk the rotation until one copy lands whole.
        partner_key = None
        attempts = max(1, len(self._order))
        for _ in range(attempts):
            candidate = self.choose_partner(home)
            if candidate is None:
                break
            copy = TierCopy(home=candidate, nbytes=nbytes, role="partner")
            try:
                self._charge(candidate, nbytes)
            except MemoryExhausted:
                continue  # partner full: try the next card in rotation
            link.copies.append(copy)
            try:
                yield from self._stream(home, candidate, nbytes)
            except TierError:
                # Torn replica: never counted as surviving; re-home.
                self._drop_copy(copy, reason="torn")
                self.m_torn.inc()
                self.sim.trace.emit("memtier.torn", path=path, epoch=image.epoch,
                                    partner=candidate)
                continue
            link.replicated = True
            partner_key = candidate
            self.sim.trace.emit("memtier.replicated", path=path,
                                epoch=image.epoch, partner=candidate)
            break

        return {"partner": partner_key, "home": home,
                "delta_bytes": nbytes, "logical_bytes": image.logical_bytes}

    # -- restore path ----------------------------------------------------------
    def lookup(self, path: str) -> Optional[ChainEntry]:
        return self.chains.get(path)

    def _refresh_losses(self, entry: ChainEntry) -> None:
        """Copies homed on failed cards are gone — record the loss."""
        for link in entry.links:
            for copy in link.copies:
                if copy.intact and not self._healthy(copy.home):
                    phi = self._cards.get(copy.home)
                    if phi is None or phi.failed or phi.os is None:
                        self._drop_copy(copy, reason="lost")

    def fetch(self, path: str, dest_os: Any):
        """Sub-generator: bring every chain link to ``dest_os``'s card.

        Returns ``(images, sources)`` where each source is ``"local"`` or
        ``"partner"``; returns ``(None, None)`` when at least one link has
        no intact memory copy and the chain was demoted (the caller falls
        back to the NFS chain file). Raises :class:`TierError` when a link
        is gone and there is no NFS fallback.
        """
        entry = self.chains.get(path)
        if entry is None:
            raise TierError(f"{path}: not in the memory tier")
        dest_key = self.key_for_phi(dest_os.hw)
        self._refresh_losses(entry)
        images: List[DeltaImage] = []
        sources: List[str] = []
        for link in entry.links:
            local = next((c for c in link.intact_copies() if c.home == dest_key), None)
            if local is not None:
                images.append(link.image)
                sources.append("local")
                self.m_hits["local"].inc()
                continue
            remote = next(
                (c for c in link.intact_copies() if self._healthy(c.home)), None
            )
            if remote is not None:
                yield from self._stream(remote.home, dest_key,
                                        link.image.delta_bytes)
                images.append(link.image)
                sources.append("partner")
                self.m_hits["partner"].inc()
                continue
            if entry.demoted:
                self.m_hits["nfs"].inc()
                return None, None
            raise TierError(
                f"{path}: epoch {link.image.epoch} has no surviving copy "
                "and the chain was never demoted"
            )
        self.sim.trace.emit("memtier.fetch", path=path, links=len(images),
                            sources=",".join(sources))
        return images, sources

    # -- demotion (the background NFS tier) ------------------------------------
    def demote(self, path: str, host_os: Any, *, release: bool = False):
        """Sub-generator: write the whole chain to the host NFS export.

        Runs off the capture critical path (a BACKGROUND fleet ticket).
        Respects NFS outages: a downed export raises :class:`TierError`
        and the chain simply stays memory-resident — demotion is insurance,
        never a dependency. With ``release`` the memory copies are freed
        once the chain file is durable.
        """
        entry = self.chains.get(path)
        if entry is None:
            raise TierError(f"{path}: nothing to demote")
        if not getattr(host_os.fs, "exported", True):
            self.m_demotion_failures.inc()
            raise TierError(f"{path}: NFS export down, demotion deferred")
        total = sum(link.image.delta_bytes for link in entry.links)
        chain_file = chain_path(path)
        if not host_os.fs.exists(chain_file):
            host_os.fs.create(chain_file)
        yield from host_os.fs.write(chain_file, total, payload=list(entry.images))
        entry.demoted = True
        self.m_demotions.inc()
        self.sim.trace.emit("memtier.demote", path=path, bytes=total,
                            links=len(entry.links))
        if release:
            for link in entry.links:
                for copy in link.copies:
                    self._drop_copy(copy, reason="released")
        return total

    def demote_with_retry(self, path: str, host_os: Any):
        """Sub-generator: :meth:`demote`, tried :data:`DEMOTE_ATTEMPTS`
        times over transient NFS outages with a linear backoff between
        attempts. The last failure re-raises — the fleet ticket fails, the
        chain stays safely memory-resident."""
        for attempt in range(1, DEMOTE_ATTEMPTS + 1):
            try:
                return (yield from self.demote(path, host_os))
            except TierError:
                if attempt == DEMOTE_ATTEMPTS:
                    raise
            yield self.sim.sleep(DEMOTE_BACKOFF * attempt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MemoryTier chains={len(self.chains)} "
                f"resident={self.resident_bytes()}B cards={len(self._order)}>")


def chain_path(snapshot_path: str) -> str:
    """Host file the demoted chain lands in (next to context/localstore)."""
    return f"{snapshot_path}/chain"
