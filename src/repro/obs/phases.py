"""Span trees and phase-breakdown reports.

The paper's evaluation (§7, Figures 9-11) decomposes checkpoint and restart
latency into pause / capture / transfer / resume components. This module
rebuilds that decomposition from the span records a traced run emits:
:func:`build_span_tree` turns the flat ``span.begin``/``span.end`` record
stream back into causal trees, and :class:`PhaseBreakdown` renders one
operation's tree as the Figure 9/10-style component table.

Accounting rule: an operation's *components* are the direct children of its
root span. Children may overlap (e.g. the host BLCR snapshot runs in
parallel with the offload capture), so the accounted total is the **union**
of the child intervals plus the unattributed remainder — which by
construction sums to the end-to-end latency exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics import ResultTable
    from ..sim.trace import Tracer


def _tables():
    """Deferred: :mod:`repro.metrics` imports :mod:`repro.hw`, whose package
    init reaches back into :mod:`repro.obs` for the metrics registry — a
    top-level import here closes that cycle when ``repro.metrics`` is the
    first module loaded."""
    from ..metrics import ResultTable, fmt_time

    return ResultTable, fmt_time


class SpanNode:
    """One reconstructed span with its children."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "fields", "children")

    def __init__(self, span_id: int, parent_id: int, name: str, start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.fields: Dict[str, Any] = {}
        self.children: List["SpanNode"] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["SpanNode"]:
        """Descendants (including self) whose name matches."""
        return [n for n in self.walk() if n.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanNode {self.span_id} {self.name!r} "
                f"[{self.start:g}, {self.end if self.end is not None else '...'}] "
                f"children={len(self.children)}>")


def build_span_tree(tracer: "Tracer") -> Tuple[List[SpanNode], Dict[int, SpanNode]]:
    """Rebuild (roots, by_id) from a tracer's span records.

    Spans whose parent id never appeared (0, or a parent emitted while
    tracing was off) become roots. Unfinished spans keep ``end=None``.
    """
    by_id: Dict[int, SpanNode] = {}
    roots: List[SpanNode] = []
    for rec in tracer.find("span.begin"):
        f = rec.fields
        node = SpanNode(f["span"], f.get("parent", 0), f["name"], rec.time)
        node.fields.update({k: v for k, v in f.items()
                            if k not in ("span", "parent", "name")})
        by_id[node.span_id] = node
    for rec in tracer.find("span.end"):
        node = by_id.get(rec.fields["span"])
        if node is None:
            continue  # end without a recorded begin (tracing toggled mid-span)
        node.end = rec.time
        node.fields.update({k: v for k, v in rec.fields.items()
                            if k not in ("span", "name")})
    for node in by_id.values():
        parent = by_id.get(node.parent_id)
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return roots, by_id


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class PhaseBreakdown:
    """Per-component latency decomposition of one operation's span tree."""

    def __init__(self, root: SpanNode):
        if root.end is None:
            raise ValueError(f"root span {root.name!r} never finished")
        self.root = root
        self.total = root.duration
        #: (name, start, duration) per direct child, in start order.
        self.components: List[Tuple[str, float, float]] = [
            (c.name, c.start, c.duration) for c in root.children if c.end is not None
        ]
        closed = [(c.start, c.end) for c in root.children if c.end is not None]
        self.covered = _interval_union(closed)
        #: Root time not inside any child span (handshakes, queueing, gaps).
        self.unattributed = max(0.0, self.total - self.covered)

    @classmethod
    def from_trace(cls, tracer: "Tracer", root_name: str,
                   occurrence: int = 0) -> "PhaseBreakdown":
        """Breakdown of the ``occurrence``-th finished root span named
        ``root_name`` (roots only — nested spans of the same name don't
        match)."""
        roots, _ = build_span_tree(tracer)
        matches = [r for r in roots if r.name == root_name and r.end is not None]
        if not matches:
            names = sorted({r.name for r in roots})
            raise ValueError(
                f"no finished root span named {root_name!r} in trace "
                f"(roots present: {names})"
            )
        if occurrence >= len(matches):
            raise ValueError(
                f"only {len(matches)} root span(s) named {root_name!r}, "
                f"occurrence {occurrence} requested"
            )
        return cls(matches[occurrence])

    @property
    def accounted(self) -> float:
        """Covered child time + unattributed gap — equals ``total`` exactly."""
        return self.covered + self.unattributed

    def table(self) -> "ResultTable":
        """Render as the paper's Figure 9/10-style component table."""
        ResultTable, fmt_time = _tables()
        t = ResultTable(
            f"Phase breakdown: {self.root.name} "
            f"(end-to-end {fmt_time(self.total)})",
            ["phase", "start", "duration", "% of total"],
        )
        t0 = self.root.start
        for name, start, duration in self.components:
            pct = 100.0 * duration / self.total if self.total else 0.0
            t.add_row(name, f"+{fmt_time(start - t0)}", fmt_time(duration), f"{pct:5.1f}%")
        if self.unattributed > 1e-12:
            pct = 100.0 * self.unattributed / self.total if self.total else 0.0
            t.add_row("(unattributed)", "", fmt_time(self.unattributed), f"{pct:5.1f}%")
        t.add_row("end-to-end", "", fmt_time(self.total), "100.0%")
        wall = sum(d for _, _, d in self.components)
        if wall > self.covered + 1e-12:
            t.add_note(
                f"components overlap: {fmt_time(wall)} of wall time covers "
                f"{fmt_time(self.covered)} of the interval (overlap counted once)"
            )
        return t

    def render(self) -> str:
        return self.table().render()


def operation_table(sim: Any) -> "ResultTable":
    """Every Snapify operation ``sim`` issued, as one per-phase table.

    Reads the :class:`~repro.snapify.ops.OperationManager` directly: each
    row is one operation's ``history`` (time in each state), its final
    ``pid`` and ``card`` and its ``state``, so concurrent operations stay
    apart by correlation id and a restore row names the restored process.
    """
    from ..snapify.ops import OperationManager

    ResultTable, fmt_time = _tables()
    mgr = OperationManager.peek(sim)
    ops = list(mgr.operations.values()) if mgr is not None else []
    phase_cols = ["pausing", "drained", "capturing", "capturing_delta",
                  "replicating", "transferring", "retrying"]
    t = ResultTable(
        "Operations (state-machine phase breakdown)",
        ["op", "kind", "pid", "card", *phase_cols, "total", "state"],
    )
    for op in ops:
        phases = op.phases()
        t.add_row(
            str(op.op_id), op.kind, str(op.pid), op.card or "-",
            *(fmt_time(phases[p]) if p in phases else "-" for p in phase_cols),
            fmt_time(op.result.elapsed) if op.is_terminal else "...",
            op.state if op.is_terminal else "(in flight)",
        )
        if op.error:
            t.add_note(f"op {op.op_id} failed: {op.error}")
    if not ops:
        t.add_note("no Snapify operation ran")
    return t
