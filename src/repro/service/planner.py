"""The plan function: (n, m, machine) → optimal tree + FPFS schedule.

One plan query is exactly the decision the paper's smart NI makes per
multicast: resolve the optimal fan-out cap k (Theorem 3), build the
k-binomial tree (Fig. 11), and derive the per-node FPFS forwarding
schedule with its cost breakdown — ``T1`` steps for the first packet,
``(m-1)·k_T`` pipeline steps for the rest (Theorem 2), and the
``c·t_sq`` NI buffer residence bound (§3.3.2).

The schedule is O(n) for the paper's one-port model: Theorem 1 holds
per node, so one level-order pass over the memoized tree gives every
node's packet-0 step and pipeline period
(:func:`~repro.core.pipeline.fpfs_one_port`), and ``m`` only scales the
period.  A multi-port request (``params.ports > 1``) has no proven
closed form and walks the exact O(n·m)
:func:`~repro.core.pipeline.fpfs_schedule`; the request's own ``ports``
picks the path.

Everything here is pure and memoized: requests are keyed on
``(n, m, MachineParams)``, node identity never matters (``range(n)``
stands in for any chain, as in :func:`repro.core.cache`), and the
schedule memo registers itself in the :mod:`repro.core.cache` registry
so the service's cache hit rate is observable via
:func:`~repro.core.cache.cache_stats` (the ``plan_schedule`` entry).
The analytic half of a plan — the Theorem-3 fan-out search and ``T1``
— comes from the memoized :func:`~repro.core.optimal.optimal_k` and
:func:`~repro.core.cache.cached_steps_needed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from ..core.cache import cached_build_kbinomial_tree, cached_steps_needed, register_cache
from ..durable.errors import ValidationError
from ..core.optimal import optimal_k
from ..core.pipeline import fpfs_one_port, fpfs_schedule
from ..params import PAPER_MACHINE, MachineParams

__all__ = ["NodePlan", "PlanRequest", "PlanResult", "plan"]


@dataclass(frozen=True)
class PlanRequest:
    """One plan query: multicast set size, packet count, machine view.

    ``n`` counts the source plus all destinations (the paper's
    convention), so the smallest plannable multicast is ``n = 2``.
    Frozen and hashable — the batcher single-flights on request
    equality.

    ``exclude`` names chain positions (``1..n-1``) known to be dead, so
    re-planning after a failure is one call: the planner optimizes over
    the ``n - f`` survivors and maps the schedule back onto the
    surviving original positions.  The source (position 0) cannot be
    excluded — with a dead source there is nothing to plan.
    """

    n: int
    m: int
    params: MachineParams = PAPER_MACHINE
    exclude: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValidationError(f"n must be an integer, got {self.n!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValidationError(f"m must be an integer, got {self.m!r}")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2 (source plus one destination), got {self.n}")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if not isinstance(self.params, MachineParams):
            raise ValidationError(f"params must be MachineParams, got {type(self.params).__name__}")
        for node in self.exclude:
            if isinstance(node, bool) or not isinstance(node, int):
                raise ValidationError(f"exclude entries must be integers, got {node!r}")
        exclude = tuple(sorted(set(self.exclude)))
        for node in exclude:
            if node == 0:
                raise ValidationError("cannot exclude the source (position 0)")
            if not (1 <= node <= self.n - 1):
                raise ValidationError(f"exclude position {node} outside [1, {self.n - 1}]")
        if self.n - len(exclude) < 2:
            raise ValidationError(
                f"excluding {len(exclude)} of {self.n} nodes leaves no destinations"
            )
        object.__setattr__(self, "exclude", exclude)


@dataclass(frozen=True)
class NodePlan:
    """One node's row of the FPFS forwarding schedule.

    Nodes are chain positions ``0..n-1`` (0 = source); map them onto
    real hosts with any contention-free ordering — the schedule is
    position-invariant.
    """

    #: Chain position of this node.
    node: int
    #: Chain position of the parent (``None`` at the source).
    parent: Optional[int]
    #: Children in FPFS forwarding (send) order.
    children: Tuple[int, ...]
    #: Step at which packet 0 is sent to each child (parallel to
    #: :attr:`children`); later packets follow the pipeline.
    child_first_send: Tuple[int, ...]
    #: Step at which this node receives packet 0 (0 at the source).
    first_recv: int
    #: Step at which this node receives packet ``m - 1``.
    last_recv: int

    def to_dict(self) -> dict:
        """JSON-serializable wire form."""
        return {
            "node": self.node,
            "parent": self.parent,
            "children": list(self.children),
            "child_first_send": list(self.child_first_send),
            "first_recv": self.first_recv,
            "last_recv": self.last_recv,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NodePlan":
        """Parse the wire form back into a :class:`NodePlan`."""
        return cls(
            node=payload["node"],
            parent=payload["parent"],
            children=tuple(payload["children"]),
            child_first_send=tuple(payload["child_first_send"]),
            first_recv=payload["first_recv"],
            last_recv=payload["last_recv"],
        )


@dataclass(frozen=True)
class PlanResult:
    """The planner's answer: tree choice, schedule, and cost breakdown."""

    #: Echo of the request's (n, m).
    n: int
    m: int
    #: Theorem 3's optimal fan-out cap.
    k: int
    #: The constructed tree's root fan-out ``k_T`` (≤ k; the pipeline
    #: interval of Theorem 1).
    root_fanout: int
    #: ``T1(n, k)``: steps for the first packet to reach everyone.
    t1: int
    #: Exact pipeline steps for the remaining packets
    #: (``total_steps - t1``): equals Theorem 2's ``(m - 1) · k_T`` on
    #: full k-binomial trees and never exceeds ``(m - 1) · k``.
    pipeline_steps: int
    #: Exact total steps of the FPFS schedule
    #: (``t1 + pipeline_steps``).
    total_steps: int
    #: End-to-end model latency ``t_s + total_steps·t_step + t_r`` (µs).
    latency_us: float
    #: Worst per-node FPFS buffer residence bound ``c·t_sq`` (µs),
    #: with ``c`` the tree's maximum fan-out (§3.3.2's T_p).
    buffer_bound_us: float
    #: Per-node forwarding schedule, in chain order.
    schedule: Tuple[NodePlan, ...]
    #: Chain positions excluded from the plan (sorted; empty when the
    #: request named none) — schedule rows skip them, and ``t1``/steps
    #: are for the surviving ``n - len(excluded)`` nodes.
    excluded: Tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`)."""
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "root_fanout": self.root_fanout,
            "t1": self.t1,
            "pipeline_steps": self.pipeline_steps,
            "total_steps": self.total_steps,
            "latency_us": self.latency_us,
            "buffer_bound_us": self.buffer_bound_us,
            "schedule": [row.to_dict() for row in self.schedule],
            "excluded": list(self.excluded),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanResult":
        """Parse the wire form back into a :class:`PlanResult`."""
        return cls(
            n=payload["n"],
            m=payload["m"],
            k=payload["k"],
            root_fanout=payload["root_fanout"],
            t1=payload["t1"],
            pipeline_steps=payload["pipeline_steps"],
            total_steps=payload["total_steps"],
            latency_us=payload["latency_us"],
            buffer_bound_us=payload["buffer_bound_us"],
            schedule=tuple(NodePlan.from_dict(row) for row in payload["schedule"]),
            excluded=tuple(payload.get("excluded", ())),
        )


@lru_cache(maxsize=4096)
def _schedule_rows(n: int, k: int, m: int, ports: int) -> Tuple[NodePlan, ...]:
    """Memoized per-node schedule of the canonical k-binomial tree.

    One-port: the closed form, O(n) whatever ``m`` is — node ``v``
    receives its last packet at ``first(v) + (m-1)·P(v)``.  Multi-port:
    the exact :func:`~repro.core.pipeline.fpfs_schedule` run, O(n·m)
    events.  Both read the shared memoized tree.
    """
    tree = cached_build_kbinomial_tree(range(n), k)
    if ports == 1:
        first, period = fpfs_one_port(tree)
        last = {node: first[node] + (m - 1) * period[node] for node in range(n)}
    else:
        recv = fpfs_schedule(tree, m, ports=ports)
        first = {node: recv[(node, 0)] for node in range(n)}
        last = {node: recv[(node, m - 1)] for node in range(n)}
    rows = []
    for node in range(n):
        children = tree.children(node)
        rows.append(
            NodePlan(
                node=node,
                parent=None if node == tree.root else tree.parent(node),
                children=children,
                child_first_send=tuple(first[child] for child in children),
                first_recv=first[node],
                last_recv=last[node],
            )
        )
    return tuple(rows)


register_cache("plan_schedule", _schedule_rows)


def plan(request: PlanRequest) -> PlanResult:
    """Resolve one :class:`PlanRequest` into a :class:`PlanResult`.

    Pure and deterministic — safe to call from any thread (the memo
    caches it leans on are the thread-safe :mod:`repro.core.cache`
    tables) and from the batcher's executor workers.
    """
    n, m, params = request.n, request.m, request.params
    excluded = request.exclude
    n_eff = n - len(excluded)
    k = optimal_k(n_eff, m)
    rows = _schedule_rows(n_eff, k, m, params.ports)
    if excluded:
        # The memoized schedule is over canonical positions 0..n_eff-1;
        # map those onto the surviving original positions, so callers
        # can keep addressing their pre-failure chain.
        dead = set(excluded)
        survivors = [i for i in range(n) if i not in dead]
        rows = tuple(
            NodePlan(
                node=survivors[row.node],
                parent=None if row.parent is None else survivors[row.parent],
                children=tuple(survivors[c] for c in row.children),
                child_first_send=row.child_first_send,
                first_recv=row.first_recv,
                last_recv=row.last_recv,
            )
            for row in rows
        )
    root_fanout = len(rows[0].children)
    max_fanout = max(len(row.children) for row in rows)
    t1 = cached_steps_needed(n_eff, k)
    total_steps = max(row.last_recv for row in rows)
    return PlanResult(
        n=n,
        m=m,
        k=k,
        root_fanout=root_fanout,
        t1=t1,
        pipeline_steps=total_steps - t1,
        total_steps=total_steps,
        latency_us=params.t_s + total_steps * params.t_step + params.t_r,
        buffer_bound_us=max_fanout * params.t_sq,
        schedule=rows,
        excluded=excluded,
    )
