"""Reliable multicast over lossy channels (extension, [12])."""

from __future__ import annotations

import pytest

from repro.core import build_kbinomial_tree
from repro.mcast import ReliableMulticastSimulator, chain_for
from repro.nic import BernoulliLoss, Message, Nack, packetize
from repro.obs import Tracer

from ..nic.helpers import ni_events


@pytest.fixture(scope="module")
def scenario(paper_topology, paper_router, paper_ordering):
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:17]), paper_ordering)
    tree = build_kbinomial_tree(chain, 2)
    return paper_topology, paper_router, tree


def data_packet():
    return packetize(Message(("host", 0), (("host", 1),), 1))[0]


class TestLossyChannelPool:
    """The lossy channels' seeded per-packet draw (:class:`BernoulliLoss`)."""

    def test_loss_rate_validation(self, scenario):
        topology, router, _ = scenario
        with pytest.raises(ValueError):
            ReliableMulticastSimulator(topology, router, loss_rate=1.0)
        with pytest.raises(ValueError):
            ReliableMulticastSimulator(topology, router, loss_rate=-0.1)

    def test_zero_rate_never_drops(self):
        loss = BernoulliLoss(0.0)
        packet = data_packet()
        assert not any(loss.drops(packet) for _ in range(500))

    def test_nacks_never_dropped(self):
        loss = BernoulliLoss(0.9, seed=1)
        nack = Nack(1, (0,), ("host", 0))
        assert not any(loss.drops(nack) for _ in range(200))
        assert loss.dropped == 0

    def test_drop_counting_and_determinism(self):
        a = BernoulliLoss(0.3, seed=7)
        b = BernoulliLoss(0.3, seed=7)
        packet = data_packet()
        draws_a = [a.drops(packet) for _ in range(300)]
        draws_b = [b.drops(packet) for _ in range(300)]
        assert draws_a == draws_b
        assert a.dropped == sum(draws_a)
        assert 40 < a.dropped < 140  # ~90 expected


class TestReliableSimulator:
    def test_loss_rate_validation(self, scenario):
        topology, router, _ = scenario
        with pytest.raises(ValueError):
            ReliableMulticastSimulator(topology, router, loss_rate=1.5)

    def test_zero_loss_matches_plain_fpfs_shape(self, scenario):
        topology, router, tree = scenario
        from repro.mcast import MulticastSimulator

        reliable = ReliableMulticastSimulator(topology, router, loss_rate=0.0)
        plain = MulticastSimulator(topology, router)
        r = reliable.run(tree, 8)
        p = plain.run(tree, 8)
        assert reliable.last_dropped == 0
        assert r.latency == pytest.approx(p.latency)

    @pytest.mark.parametrize("rate", [0.02, 0.08, 0.2])
    def test_all_packets_delivered_despite_loss(self, scenario, rate):
        topology, router, tree = scenario
        sim = ReliableMulticastSimulator(topology, router, loss_rate=rate, loss_seed=5)
        result = sim.run(tree, 8)  # _collect raises if anything is missing
        assert sim.last_dropped > 0
        assert len(result.destination_completion) == 16

    def test_latency_degrades_gracefully_with_loss(self, scenario):
        topology, router, tree = scenario
        latencies = []
        for rate in (0.0, 0.05, 0.2):
            sim = ReliableMulticastSimulator(topology, router, loss_rate=rate, loss_seed=5)
            latencies.append(sim.run(tree, 8).latency)
        assert latencies == sorted(latencies)
        # Even 20% loss stays within ~4x of lossless.
        assert latencies[-1] < 4 * latencies[0]

    def test_deterministic_per_seed(self, scenario):
        topology, router, tree = scenario
        runs = [
            ReliableMulticastSimulator(topology, router, loss_rate=0.1, loss_seed=9)
            .run(tree, 8)
            .latency
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_recovery_is_parent_local(self, scenario):
        # Retransmissions come from tree parents, not the source host:
        # the trace shows 'retransmit' events at intermediate NIs.
        topology, router, tree = scenario
        tracer = Tracer()
        sim = ReliableMulticastSimulator(
            topology, router, loss_rate=0.15, loss_seed=11, tracer=tracer
        )
        sim.run(tree, 8)
        retransmitters = {h for h, _ in ni_events(sim, tracer, "retransmit")}
        interior = {n for n in tree.nodes() if tree.fanout(n) and n != tree.root}
        assert retransmitters & interior, "expected some parent-local recovery"

    def test_tail_loss_recovered_by_timer(self, scenario):
        # Force a loss pattern, run enough packets that some final
        # packets drop; completion still achieved (timer-driven NACKs).
        topology, router, tree = scenario
        sim = ReliableMulticastSimulator(topology, router, loss_rate=0.25, loss_seed=13)
        result = sim.run(tree, 4)
        assert result.completion_time > 0
