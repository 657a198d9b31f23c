"""Latency breakdown decomposition."""

from __future__ import annotations

import pytest

from repro.analysis import run_breakdown
from repro.core import build_binomial_tree, build_kbinomial_tree
from repro.mcast import MulticastSimulator, chain_for


@pytest.fixture(scope="module")
def setup(paper_topology, paper_router, paper_ordering):
    sim = MulticastSimulator(paper_topology, paper_router)
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:17]), paper_ordering)
    return sim, chain


def test_components_nonnegative_and_consistent(setup):
    base, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    for channel_model in ("path", "worm"):
        sim = MulticastSimulator(base.topology, base.router, channel_model=channel_model)
        b = run_breakdown(sim, tree, 4)
        # The breakdown's run is the caller's configuration, not a default one.
        direct = sim.run(tree, 4)
        assert b.result.latency == direct.latency
        assert b.blocking == direct.blocked_time
        assert b.sends == sum(1 for _ in tree.edges()) * 4
        assert b.host_startup == sim.params.t_s
        assert b.host_receive == sim.params.t_r
        assert b.injection == pytest.approx(b.sends * sim.params.t_ns)
        assert b.receive == pytest.approx(b.sends * sim.params.t_nr)
        assert b.network > 0 and b.blocking >= 0
        assert b.total_work > 0


def test_shares_sum_to_one(setup):
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    shares = run_breakdown(sim, tree, 8).shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert all(0 <= v <= 1 for v in shares.values())


def test_injection_dominates_network_under_paper_params(setup):
    # t_ns = 3.0 µs vs per-hop 0.2 + wire 0.4: NI overhead is the
    # dominant per-send cost — the premise of the step model.
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    b = run_breakdown(sim, tree, 8)
    assert b.injection > b.network


def test_blocking_stays_marginal_on_cco_chains(setup):
    # The CCO ordering keeps both trees' channel blocking a small
    # fraction of their total network occupancy.  (The k-binomial's
    # deeper pipeline keeps more packets in flight, so it blocks
    # slightly *more* in aggregate than the source-serialized binomial
    # — while still finishing far sooner.)
    sim, chain = setup
    m = 16
    kb = run_breakdown(sim, build_kbinomial_tree(chain, 2), m)
    bb = run_breakdown(sim, build_binomial_tree(chain), m)
    # Same number of sends (same edges x packets).
    assert kb.sends == bb.sends
    assert kb.blocking < 0.2 * kb.network
    assert bb.blocking < 0.2 * bb.network
    # The latency ordering is unaffected by the blocking difference.
    assert kb.result.latency < bb.result.latency


def test_caller_simulator_unchanged(setup):
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    run_breakdown(sim, tree, 2)
    assert sim.tracer is None
    assert sim.last_registry is None
