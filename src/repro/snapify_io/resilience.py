"""Transfer resilience: retry/backoff, resumable streams, fallback chain.

The paper's Snapify-IO pipeline (§6) is the fast path for moving snapshots
off the card, but a reproduction aiming past the artifact needs the
property real checkpointing systems have: a transport failure mid-capture
degrades the transfer, it does not lose the snapshot. This module adds

* :class:`RetryPolicy` — deterministic exponential backoff whose jitter is
  drawn from a per-simulator RNG seeded by ``Simulator.schedule_seed``, so
  every fuzz run stays a pure function of ``(scenario, seed, faults)``;
* :class:`TransferManager` — drives one snapshot file through the
  degradation chain **Snapify-IO → NFS → scp**, retrying each channel
  under the policy (Snapify-IO re-attempts resume from the last durable
  staging-buffer boundary), reporting which channel ultimately carried the
  file and how many attempts it took;
* :class:`TransferFailed` — raised when every channel is exhausted,
  carrying the whole cause chain for the operation's ``FAILED`` record.

Golden-trace rule: with the default policy and no faults, ``send_file``
performs exactly one Snapify-IO stream — the retry loop only diverges on an
exception, and no timer or span is created before one occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..hw.node import ServerNode
from ..obs.registry import MetricsRegistry
from ..osim.fd import FDError
from ..osim.process import OSInstance
from ..osim.sockets import SocketError
from ..scif.endpoint import ScifError, ScifNetwork
from ..sim.channel import ChannelClosed
from .daemon import SnapifyIOError
from .library import snapifyio_open
from .nfs import NFSMount
from .scp import scp_copy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = [
    "ChannelUnavailable",
    "RetryPolicy",
    "TransferFailed",
    "TransferManager",
    "TransferOutcome",
]

#: Errors a retry can plausibly cure (or a fallback channel can route
#: around). ``ChannelClosed`` is what a parked local-socket read surfaces
#: when the daemon side tears the connection down mid-stream. Anything
#: else — missing source file, programming errors — is permanent and
#: propagates immediately.
TRANSIENT_ERRORS = (SnapifyIOError, ScifError, SocketError, FDError, ChannelClosed)


class ChannelUnavailable(SnapifyIOError):
    """The channel cannot serve this transfer at all (wrong topology, no
    daemon); skip straight to the next channel instead of burning retries."""


class TransferFailed(SnapifyIOError):
    """Every channel of the fallback chain was exhausted."""

    def __init__(self, path: str, attempts: int, causes: List[Tuple[str, str, Exception]]):
        chain = "; ".join(f"{ch} #{att}: {exc}" for ch, att, exc in causes)
        super().__init__(
            f"transfer of {path} failed after {attempts} attempt(s) "
            f"across {len({c[0] for c in causes})} channel(s): {chain}"
        )
        self.path = path
        self.attempts = attempts
        #: (channel, attempt-label, exception) per failed attempt, in order.
        self.causes = causes


def _retry_rng(sim: "Simulator"):
    """Per-simulator jitter source, lazily seeded from the schedule seed."""
    rng = getattr(sim, "_retry_rng", None)
    if rng is None:
        import random

        seed = getattr(sim, "schedule_seed", None)
        rng = sim._retry_rng = random.Random(0x534E4150 ^ (seed or 0))
    return rng


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, on the sim clock."""

    attempts: int = 3
    base_delay: float = 5e-3
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.25

    def delay(self, sim: "Simulator", attempt: int) -> float:
        """Backoff delay before re-attempt number ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if not self.jitter:
            return raw
        swing = self.jitter * (2.0 * _retry_rng(sim).random() - 1.0)
        return max(0.0, raw * (1.0 + swing))

    def backoff(self, sim: "Simulator", attempt: int):
        """Sub-generator: sleep the (jittered) backoff for ``attempt``."""
        yield sim.sleep(self.delay(sim, attempt))


@dataclass(frozen=True)
class TransferOutcome:
    """What ``TransferManager.send_file`` reports on success."""

    channel: str
    attempts: int
    nbytes: int


class TransferManager:
    """Degrades a snapshot transfer Snapify-IO → NFS → scp per attempt.

    One manager is cheap and stateless across transfers; the interesting
    state (retry counters, fallback records) lives in the metrics registry
    and the trace, and per-operation progress in the operation itself via
    the ``RETRYING`` edge.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None):
        self.policy = policy or RetryPolicy()

    # -- plumbing ---------------------------------------------------------------
    @staticmethod
    def _node_of(os: OSInstance) -> ServerNode:
        hw = os.hw
        return hw if isinstance(hw, ServerNode) else hw.node

    # -- the chain ---------------------------------------------------------------
    def send_file(self, src_os: OSInstance, dst_node: int, src_path: str,
                  dst_path: str, op):
        """Sub-generator: move ``src_path`` on ``src_os`` to ``dst_path`` on
        SCIF node ``dst_node``, degrading through the fallback chain.

        Returns a :class:`TransferOutcome`; raises :class:`TransferFailed`
        (never silently) once every channel is exhausted. ``op`` — the
        :class:`~repro.snapify.ops.SnapifyOperation` in state
        ``TRANSFERRING`` — gets a ``RETRYING`` round-trip per failed
        attempt and its provenance ``channel``/``attempts`` filled in.
        """
        sim = src_os.sim
        node = self._node_of(src_os)
        dst_os = ScifNetwork.of(node).os_for_scif_node(dst_node)
        f = src_os.fs.stat(src_path)  # missing source = permanent, no retry
        policy = self.policy
        reg = MetricsRegistry.of(sim)
        causes: List[Tuple[str, str, Exception]] = []
        attempts = 0
        for ch_index, (channel, attempt_fn) in enumerate(self._CHAIN):
            if ch_index > 0:
                reg.counter("snapifyio.fallbacks").inc()
                sim.trace.emit("io.fallback", path=dst_path, channel=channel,
                               after=attempts)
            for attempt in range(1, policy.attempts + 1):
                attempts += 1
                try:
                    nbytes = yield from attempt_fn(
                        self, src_os, dst_os, dst_node, src_path, dst_path, f,
                        attempt > 1,
                    )
                except ChannelUnavailable as exc:
                    causes.append((channel, "n/a", exc))
                    break  # no point retrying an inapplicable channel
                except TRANSIENT_ERRORS as exc:
                    causes.append((channel, str(attempt), exc))
                    if attempt >= policy.attempts:
                        break  # fall through to the next channel
                    reg.counter("snapifyio.retries").inc()
                    sim.trace.emit("io.retry", path=dst_path, channel=channel,
                                   attempt=attempt, error=str(exc))
                    self._mark_retrying(op, channel, attempt, exc)
                    yield from policy.backoff(sim, attempt)
                    self._mark_transferring(op)
                else:
                    op.prov.channel = channel
                    op.prov.attempts = attempts
                    # Per-channel delivery series (counters only: plain adds,
                    # nothing on the hot path when nobody snapshots them).
                    reg.counter(f"snapifyio.channel.{channel}.files").inc()
                    reg.counter(f"snapifyio.channel.{channel}.bytes").inc(nbytes)
                    return TransferOutcome(channel=channel, attempts=attempts,
                                           nbytes=nbytes)
        op.prov.attempts = attempts
        raise TransferFailed(dst_path, attempts, causes)

    # -- per-channel attempts ---------------------------------------------------
    # Every channel attempt takes the same arguments, so the chain below is
    # plain data: ``send_file`` walks it in order.
    def _via_snapifyio(self, src_os, dst_os, dst_node, src_path, dst_path, f,
                       resume):
        if getattr(src_os, "snapify_io_daemon", None) is None:
            raise ChannelUnavailable(f"{src_os.name}: Snapify-IO daemon not running")
        fd = yield from snapifyio_open(src_os, dst_node, dst_path, "w",
                                       resume=resume)
        try:
            # A list payload streams element-per-record so the committed
            # file's payload round-trips exactly; scalar payloads ride as a
            # single record.
            payload = f.payload
            if isinstance(payload, list) and payload:
                yield from fd.write(f.size, record=payload[0])
                for rec in payload[1:]:
                    yield from fd.write(0, record=rec)
            else:
                yield from fd.write(f.size, record=payload)
            yield from fd.finish()
        except BaseException:
            fd.close()  # sends the abort marker if the stream is unfinished
            raise
        self._verify(dst_os, dst_path, f.size)
        return f.size

    def _via_nfs(self, src_os, dst_os, dst_node, src_path, dst_path, f, resume):
        node = self._node_of(src_os)
        if src_os.hw is node or dst_os.hw is not node:
            raise ChannelUnavailable(
                "nfs fallback serves card-to-host transfers only"
            )
        self._void_stale_state(dst_os, dst_path)
        dst_os.fs.create(dst_path)  # truncate any partial left by Snapify-IO
        mount = NFSMount(src_os, dst_os.fs, node.params.nfs)
        yield from mount.write(dst_path, f.size, payload=f.payload)
        self._verify(dst_os, dst_path, f.size)
        return f.size

    def _via_scp(self, src_os, dst_os, dst_node, src_path, dst_path, f, resume):
        node = self._node_of(src_os)
        self._void_stale_state(dst_os, dst_path)
        dst_os.fs.create(dst_path)  # truncate any partial left by Snapify-IO
        yield from scp_copy(src_os, dst_os, src_path, dst_path, node.params.scp)
        self._verify(dst_os, dst_path, f.size)
        return f.size

    #: The degradation chain, fastest channel first.
    _CHAIN = (("snapifyio", _via_snapifyio), ("nfs", _via_nfs), ("scp", _via_scp))

    @staticmethod
    def _void_stale_state(dst_os, dst_path) -> None:
        """Truncating the destination voids any Snapify-IO commit/partial
        bookkeeping for it (the commit ledger must never outlive the bytes)."""
        daemon = getattr(dst_os, "snapify_io_daemon", None)
        if daemon is not None:
            daemon.commits.pop(dst_path, None)
            daemon._partials.pop(dst_path, None)

    @staticmethod
    def _verify(dst_os, dst_path, expected: int) -> None:
        if not dst_os.fs.exists(dst_path):
            raise SnapifyIOError(f"{dst_path}: transfer reported ok but file missing")
        size = dst_os.fs.stat(dst_path).size
        if size != expected:
            raise SnapifyIOError(
                f"{dst_path}: transferred size {size} != source size {expected}"
            )

    # -- operation wiring (lazy imports: snapify.* imports this package) --------
    @staticmethod
    def _mark_retrying(op, channel, attempt, exc):
        from ..snapify.ops import RETRYING, TRANSFERRING

        if op.state == TRANSFERRING:
            op.transition(RETRYING, channel=channel, attempt=attempt,
                          error=str(exc))

    @staticmethod
    def _mark_transferring(op):
        from ..snapify.ops import RETRYING, TRANSFERRING

        if op.state == RETRYING:
            op.transition(TRANSFERRING)
