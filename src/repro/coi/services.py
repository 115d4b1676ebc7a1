"""Generic COI client-server channel machinery (drain case 3).

COI internally runs several client/server thread pairs — commands
(host -> offload), events and logs (offload -> host). Each server thread
handles its channel *sequentially*; each client site is guarded by a mutex.
Snapify's pause exploits exactly this structure: grab the client mutex (so
no new request can start), then push a SHUTDOWN marker through the channel
and wait for the ack — once the ack is back, every earlier message has been
fully processed and the channel is provably empty.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..scif.endpoint import ConnectionReset, ScifEndpoint
from ..sim.errors import Interrupted, SimError
from ..sim.events import NameParts, extend, spell, split
from ..sim.sync import Mutex
from . import messages as m

if TYPE_CHECKING:  # pragma: no cover
    from ..osim.process import SimProcess
    from ..sim.kernel import Simulator


class COIError(SimError):
    """COI-level failure."""


class ClientChannel:
    """Client side of a COI service channel.

    All traffic goes through :meth:`rpc` (request/reply) or :meth:`notify`
    (one-way), both serialized by ``mutex``. ``snapify_shutdown`` implements
    the pause-side quiesce; ``snapify_release`` undoes it at resume.
    ``name`` is the name or ``(fmt, arg)``, spelled when read.
    """

    def __init__(self, sim: "Simulator", ep: ScifEndpoint, name: NameParts):
        self.sim = sim
        self.ep = ep
        self._name, self._arg = split(name)
        self.mutex = Mutex(sim, name=extend(name, pre="coi.client:"))
        self.shut_down = False

    @property
    def name(self) -> str:
        return spell(self._name, self._arg)

    def rpc(self, msg: Any, nbytes: int = 64):
        """Sub-generator: send a request and wait for its reply."""
        yield self.mutex.acquire(owner="rpc")
        try:
            if self.shut_down:
                raise COIError(f"{self.name}: channel is quiesced by snapify")
            yield from self.ep.send(msg, nbytes)
            reply = yield self.ep.recv()
            return reply
        finally:
            self.mutex.release()

    def notify(self, msg: Any, nbytes: int = 64):
        """Sub-generator: one-way message (events, logs)."""
        yield self.mutex.acquire(owner="notify")
        try:
            if self.shut_down:
                raise COIError(f"{self.name}: channel is quiesced by snapify")
            yield from self.ep.send(msg, nbytes)
        finally:
            self.mutex.release()

    # -- snapify hooks ------------------------------------------------------
    def snapify_shutdown(self):
        """Sub-generator: acquire the client lock (kept!), send SHUTDOWN and
        wait for the ack. On return the channel is empty in both directions
        and no thread can inject new traffic until :meth:`snapify_release`."""
        yield self.mutex.acquire(owner="snapify")
        self.shut_down = True
        yield from self.ep.send({"type": m.SHUTDOWN, "channel": self.name})
        ack = yield self.ep.recv()
        if not (isinstance(ack, dict) and ack.get("type") == m.SHUTDOWN_ACK):
            raise COIError(f"{self.name}: bad shutdown ack {ack!r}")

    def snapify_release(self) -> None:
        """Release the lock taken by :meth:`snapify_shutdown` (resume path)."""
        if not self.shut_down:
            raise COIError(f"{self.name}: release without shutdown")
        self.shut_down = False
        self.mutex.release()


class ServerLoop:
    """Sequential server thread over one COI channel.

    ``handler(msg)`` is a sub-generator returning an optional reply. The
    loop acknowledges SHUTDOWN markers and ends when its peer resets (a
    restored process gets fresh loops on fresh endpoints) or its process is
    terminated. ``name`` is the name or ``(fmt, arg)``, spelled when read.
    """

    def __init__(
        self,
        proc: "SimProcess",
        ep: ScifEndpoint,
        handler: Callable[[Any], Any],
        name: NameParts,
    ):
        self.proc = proc
        self.ep = ep
        self.handler = handler
        self._name, self._arg = split(name)
        self.shutdowns_seen = 0
        self.messages_handled = 0
        #: True while a request handler is executing. The card-side quiesce
        #: waits this out: a snapshot taken mid-BUFFER_CREATE would save a
        #: local store that disagrees with the captured context.
        self.busy = False
        self.thread = proc.spawn_thread(self._loop(), name=extend(name, pre="srv:"), daemon=True)

    @property
    def name(self) -> str:
        return spell(self._name, self._arg)

    def _loop(self):
        while True:
            try:
                msg = yield self.ep.recv()
            except (ConnectionReset, Interrupted):
                return  # peer vanished; a restored peer runs its own loop
            if isinstance(msg, dict) and msg.get("type") == m.SHUTDOWN:
                self.shutdowns_seen += 1
                yield from self.ep.send({"type": m.SHUTDOWN_ACK, "channel": self.name})
                continue
            self.messages_handled += 1
            self.busy = True
            try:
                reply = yield from self.handler(msg)
            finally:
                self.busy = False
            if reply is not None:
                yield from self.ep.send(reply)
