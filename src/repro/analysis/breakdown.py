"""Latency breakdown: where a multicast's microseconds go.

:func:`run_breakdown` re-runs one multicast with a fresh
:class:`~repro.obs.Tracer` and decomposes the aggregate work into the
§2.5 cost components:

* host start-up (``t_s``, once per multicast at the source);
* NI injection overhead (``t_ns`` per send);
* network occupancy (header routing + wire time per send, from the
  actual route lengths);
* channel blocking (time spent waiting on busy channels — the price of
  contention, zero for a depth contention-free tree on an idle fabric);
* NI receive overhead (``t_nr`` per receive);
* host receive (``t_r``, once per destination, paid after the NI).

The *aggregate* components sum over all packet transmissions (they
explain total work, not the critical path); ``critical_path_estimate``
scales them onto the measured latency for a per-component share.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict

from ..core.trees import MulticastTree
from ..mcast.simulator import MulticastResult, MulticastSimulator
from ..obs.tracer import Tracer, Track

__all__ = ["LatencyBreakdown", "run_breakdown"]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Aggregate component times (µs) for one simulated multicast."""

    result: MulticastResult
    host_startup: float
    injection: float
    network: float
    blocking: float
    receive: float
    host_receive: float
    sends: int

    @property
    def total_work(self) -> float:
        """Sum of all aggregate components."""
        return (
            self.host_startup
            + self.injection
            + self.network
            + self.blocking
            + self.receive
            + self.host_receive
        )

    def shares(self) -> Dict[str, float]:
        """Each component's fraction of the total work."""
        total = self.total_work
        return {
            "host_startup": self.host_startup / total,
            "injection": self.injection / total,
            "network": self.network / total,
            "blocking": self.blocking / total,
            "receive": self.receive / total,
            "host_receive": self.host_receive / total,
        }


def run_breakdown(
    simulator: MulticastSimulator, tree: MulticastTree, num_packets: int
) -> LatencyBreakdown:
    """Simulate ``tree`` with tracing and decompose the work.

    Runs a copy of ``simulator`` — every setting kept, its tracer
    swapped for a fresh :class:`~repro.obs.Tracer` — so the caller's
    simulator is left untouched and the breakdown's ``result`` is the
    run a plain ``simulator.run`` would give.
    """
    traced = copy.copy(simulator)
    traced.tracer = tracer = Tracer()
    result = traced.run(tree, num_packets)
    params = simulator.params

    host_of = {ni.obs_track: ni.host for ni in traced.last_registry}
    node_of = {str(h): h for h in simulator.topology.hosts}
    sends = receives = 0
    network = 0.0
    for event in tracer.events:
        if event.cat != "ni":
            continue
        if event.name == "send":
            sends += 1
            src = host_of[Track(event.pid, event.tid)]
            hops = len(simulator.router.route(src, node_of[event.args["dst"]]))
            network += hops * params.t_switch + params.wire_time
        elif event.name == "recv":
            receives += 1

    return LatencyBreakdown(
        result=result,
        host_startup=params.t_s,
        injection=sends * params.t_ns,
        network=network,
        blocking=result.blocked_time,
        receive=receives * params.t_nr,
        host_receive=params.t_r,
        sends=sends,
    )
