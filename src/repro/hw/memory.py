"""Physical memory accounting.

The Xeon Phi's limited (8/16 GB) GDDR5 is central to the paper: the RAM-based
file system competes with live processes for the same pool, which is why
local snapshots are infeasible for large apps (Table 4's ``Local`` column
fails at 4 GB) and why Snapify-IO must stream snapshots off the card with a
small bounded buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..obs.registry import MetricsRegistry
from ..sim.errors import SimError
from .params import MemoryParams

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator


class MemoryExhausted(SimError):
    """An allocation exceeded the pool's physical capacity."""

    def __init__(self, pool: str, requested: int, available: int):
        super().__init__(
            f"{pool}: requested {requested} bytes, only {available} available"
        )
        self.pool = pool
        self.requested = requested
        self.available = available


class PhysicalMemory:
    """A fixed-capacity memory pool with per-category accounting.

    Categories ("process", "ramfs", "buffer", ...) let tests assert *where*
    the memory went — e.g. that a locally-stored snapshot shows up as ramfs
    pressure.
    """

    def __init__(self, sim: "Simulator", params: MemoryParams, name: str = "mem"):
        self.sim = sim
        self.params = params
        self.name = name
        self.capacity = params.capacity
        self.used = 0
        self.peak = 0
        self.by_category: Dict[str, int] = {}
        reg = MetricsRegistry.of(sim)
        reg.gauge(f"mem.{name}.used", lambda: self.used)
        reg.gauge(f"mem.{name}.peak", lambda: self.peak)
        reg.gauge(f"mem.{name}.occupancy",
                  lambda: self.used / self.capacity if self.capacity else 0.0)

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def allocate(self, nbytes: int, category: str = "process") -> None:
        if nbytes < 0:
            raise ValueError("negative allocation")
        if nbytes > self.available:
            raise MemoryExhausted(self.name, nbytes, self.available)
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.by_category[category] = self.by_category.get(category, 0) + nbytes

    def free(self, nbytes: int, category: str = "process") -> None:
        if nbytes < 0:
            raise ValueError("negative free")
        held = self.by_category.get(category, 0)
        if nbytes > held:
            raise ValueError(
                f"{self.name}: freeing {nbytes} from category {category!r} "
                f"which holds only {held}"
            )
        self.used -= nbytes
        self.by_category[category] = held - nbytes

    def can_allocate(self, nbytes: int) -> bool:
        return nbytes <= self.available

    def memcpy_time(self, nbytes: int) -> float:
        """Time for a single-stream copy of ``nbytes`` within this pool."""
        return nbytes / self.params.memcpy_bw

    def memcpy(self, nbytes: int):
        """Sub-generator that charges the copy time to the caller."""
        yield self.sim.sleep(self.memcpy_time(nbytes))
