"""Event-stream conservation invariants of full simulation runs.

These tests reconstruct the packet flow from the NI events on the
:class:`repro.obs.Tracer` and check global properties no single module
can see: every send pairs with a receive, forwarding respects tree
edges, and nothing is duplicated or invented.  Every NI discipline runs
on the same engines, so every one must pass them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import build_kbinomial_tree
from repro.mcast import MulticastSimulator, ReliableMulticastSimulator, chain_for
from repro.nic import FCFSInterface, FPFSInterface
from repro.obs import Tracer

from ..nic.helpers import ni_events

SIMULATORS = {
    "fpfs": lambda topo, router, tracer: MulticastSimulator(
        topo, router, ni_class=FPFSInterface, tracer=tracer
    ),
    "fcfs": lambda topo, router, tracer: MulticastSimulator(
        topo, router, ni_class=FCFSInterface, tracer=tracer
    ),
    "reliable": lambda topo, router, tracer: ReliableMulticastSimulator(
        topo, router, loss_rate=0.0, tracer=tracer
    ),
}


@pytest.fixture(scope="module", params=sorted(SIMULATORS))
def traced_run(request, paper_topology, paper_router, paper_ordering):
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:25]), paper_ordering)
    tree = build_kbinomial_tree(chain, 3)
    tracer = Tracer()
    sim = SIMULATORS[request.param](paper_topology, paper_router, tracer)
    m = 5
    result = sim.run(tree, m)
    return tree, m, result, sim, tracer


def sends(run):
    """``(src, dst, pkt, end)`` per send span; ``dst`` as the span names it."""
    _, _, _, sim, tracer = run
    return [
        (src, e.args["dst"], e.args["pkt"], e.ts + e.dur)
        for src, e in ni_events(sim, tracer, "send")
    ]


def test_sends_equal_receives(traced_run):
    tree, m, result, sim, tracer = traced_run
    assert len(ni_events(sim, tracer, "send")) == len(ni_events(sim, tracer, "recv"))


def test_total_volume_is_edges_times_packets(traced_run):
    tree, m, result, sim, tracer = traced_run
    n_edges = sum(1 for _ in tree.edges())
    assert len(sends(traced_run)) == n_edges * m


def test_each_edge_carries_each_packet_exactly_once(traced_run):
    tree, m, result, sim, tracer = traced_run
    counter = Counter((src, dst, pkt) for src, dst, pkt, _ in sends(traced_run))
    expected = {(u, str(v), p) for u, v in tree.edges() for p in range(m)}
    assert set(counter) == expected
    assert all(count == 1 for count in counter.values())


def test_sends_follow_tree_edges_only(traced_run):
    tree, m, result, sim, tracer = traced_run
    edges = {(u, str(v)) for u, v in tree.edges()}
    for src, dst, _, _ in sends(traced_run):
        assert (src, dst) in edges


def test_forward_happens_after_receive(traced_run):
    tree, m, result, sim, tracer = traced_run
    recv_time = {(h, e.args["pkt"]): e.ts for h, e in ni_events(sim, tracer, "deliver")}
    for src, _, pkt, end in sends(traced_run):
        if src == tree.root:
            continue
        assert end >= recv_time[(src, pkt)]


def test_receive_times_match_result(traced_run):
    tree, m, result, sim, tracer = traced_run
    delivered = ni_events(sim, tracer, "deliver")
    for dest, completion in result.destination_completion.items():
        last = max(e.ts for h, e in delivered if h == dest)
        assert completion == pytest.approx(last)


def test_every_ni_class_emits_the_same_vocabulary(traced_run):
    # Send spans name the message, packet and destination; each
    # recorded delivery has exactly one deliver instant.
    tree, m, result, sim, tracer = traced_run
    for _, event in ni_events(sim, tracer, "send"):
        assert {"msg", "pkt", "dst"} <= set(event.args)
    delivered = Counter(
        (h, e.args["msg"], e.args["pkt"]) for h, e in ni_events(sim, tracer, "deliver")
    )
    recorded = Counter(
        (ni.host, msg, pkt) for ni in sim.last_registry for msg, pkt in ni.received_at
    )
    assert recorded and delivered == recorded
