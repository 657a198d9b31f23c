"""Property-based tests (hypothesis) on the core theory.

These lock the paper's structural invariants over randomized inputs:
coverage monotonicity, construction correctness for arbitrary (n, k),
FPFS schedule conservation, and consistency between the analytic model
and the exact scheduler.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MulticastTree,
    build_binomial_tree,
    build_kbinomial_tree,
    check_chain_locality,
    check_covers,
    check_fanout_cap,
    coverage,
    fpfs_one_port,
    fpfs_schedule,
    fpfs_total_steps,
    min_k_binomial,
    optimal_k,
    packet_completion_steps,
    predicted_steps,
    steps_needed,
)

ns = st.integers(min_value=2, max_value=128)
ks = st.integers(min_value=1, max_value=8)
ms = st.integers(min_value=1, max_value=12)


@given(s=st.integers(min_value=0, max_value=20), k=ks)
def test_coverage_positive_and_binomial_capped(s, k):
    n = coverage(s, k)
    assert 1 <= n <= 2**s


@given(s=st.integers(min_value=1, max_value=20), k=ks)
def test_coverage_strictly_increasing_in_s(s, k):
    assert coverage(s, k) > coverage(s - 1, k)


@given(s=st.integers(min_value=0, max_value=18), k=st.integers(min_value=1, max_value=7))
def test_coverage_nondecreasing_in_k(s, k):
    assert coverage(s, k + 1) >= coverage(s, k)


@given(n=ns, k=ks)
def test_steps_needed_is_minimal(n, k):
    t1 = steps_needed(n, k)
    assert coverage(t1, k) >= n
    if t1 > 0:
        assert coverage(t1 - 1, k) < n


@given(n=ns)
def test_binomial_k_coverage_identity(n):
    # For k >= ceil(log2 n) the tree is binomial: T1 == ceil(log2 n).
    k = min_k_binomial(n)
    assert steps_needed(n, k) == math.ceil(math.log2(n))


@settings(max_examples=60)
@given(n=ns, k=ks)
def test_construction_invariants(n, k):
    chain = list(range(n))
    tree = build_kbinomial_tree(chain, k)
    check_covers(tree, chain)
    check_fanout_cap(tree, k)
    check_chain_locality(tree, chain)
    # First packet within the T1 budget.
    assert max(tree.first_packet_steps().values()) <= steps_needed(n, k)


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=48), k=st.integers(min_value=1, max_value=6), m=ms)
def test_schedule_conservation(n, k, m):
    """Every node receives every packet exactly once, in order."""
    tree = build_kbinomial_tree(list(range(n)), k)
    schedule = fpfs_schedule(tree, m)
    assert len(schedule) == n * m
    for node in tree.destinations():
        arrivals = [schedule[(node, p)] for p in range(m)]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == m
        # A node never receives before its parent (plus one step to forward).
        parent = tree.parent(node)
        for p in range(m):
            assert schedule[(node, p)] > schedule[(parent, p)]


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=48), k=st.integers(min_value=1, max_value=6), m=ms)
def test_exact_steps_never_exceed_theorem3_objective(n, k, m):
    tree = build_kbinomial_tree(list(range(n)), k)
    assert fpfs_total_steps(tree, m) <= predicted_steps(n, k, m)


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=48), m=ms)
def test_optimal_k_beats_binomial_and_linear(n, m):
    """The Theorem 3 tree is at least as fast as both baselines."""
    chain = list(range(n))
    opt_steps = fpfs_total_steps(build_kbinomial_tree(chain, optimal_k(n, m)), m)
    bin_steps = fpfs_total_steps(build_binomial_tree(chain), m)
    lin_steps = fpfs_total_steps(
        build_kbinomial_tree(chain, 1), m
    )
    assert opt_steps <= bin_steps
    assert opt_steps <= lin_steps


@settings(max_examples=30)
@given(n=st.integers(min_value=3, max_value=48), m=st.integers(min_value=2, max_value=12))
def test_completion_lag_bounded_by_max_fanout(n, m):
    """Packet completions are spaced by at most the max fan-out."""
    for k in (1, 2, 3):
        tree = build_kbinomial_tree(list(range(n)), k)
        completions = packet_completion_steps(tree, m)
        for a, b in zip(completions, completions[1:]):
            assert 1 <= b - a <= tree.max_fanout


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=64), m=st.integers(min_value=1, max_value=34))
def test_optimal_k_from_table_strategies(n, m):
    k = optimal_k(n, m)
    # Optimality: no other k in range does better under the objective.
    best = min(predicted_steps(n, kk, m) for kk in range(1, min_k_binomial(n) + 1))
    assert predicted_steps(n, k, m) == best


@settings(max_examples=30)
@given(
    chain=st.lists(st.integers(), min_size=2, max_size=40, unique=True),
    k=st.integers(min_value=1, max_value=6),
)
def test_construction_on_arbitrary_node_labels(chain, k):
    tree = build_kbinomial_tree(chain, k)
    assert set(tree.nodes()) == set(chain)
    assert tree.root == chain[0]


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=40), k=st.integers(min_value=1, max_value=5), m=ms)
def test_fcfs_schedule_conservation_and_dominance(n, k, m):
    """FCFS: complete, in-order, one send per node-step, never beats FPFS."""
    from collections import Counter

    from repro.core import fcfs_schedule, fcfs_total_steps

    tree = build_kbinomial_tree(list(range(n)), k)
    schedule = fcfs_schedule(tree, m)
    assert len(schedule) == n * m
    sends = Counter()
    for node in tree.destinations():
        arrivals = [schedule[(node, p)] for p in range(m)]
        assert arrivals == sorted(arrivals) and len(set(arrivals)) == m
        for p, step in enumerate(arrivals):
            sends[(tree.parent(node), step)] += 1
    assert all(count == 1 for count in sends.values())
    assert fcfs_total_steps(tree, m) >= fpfs_total_steps(tree, m)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=1, max_value=5),
    m=ms,
    ports=st.integers(min_value=1, max_value=4),
)
def test_multiport_schedule_dominance(n, k, m, ports):
    """More ports never slow the FPFS schedule; capacity is respected."""
    from collections import Counter

    tree = build_kbinomial_tree(list(range(n)), k)
    schedule = fpfs_schedule(tree, m, ports=ports)
    sends = Counter()
    for (child, p), step in schedule.items():
        if child != tree.root:
            sends[(tree.parent(child), step)] += 1
    assert all(count <= ports for count in sends.values())
    assert max(schedule.values()) <= fpfs_total_steps(tree, m, ports=1)


@st.composite
def one_port_trees(draw):
    """Arbitrary rooted trees: node ``i`` hangs under some earlier node.

    Interior fan-outs are free to exceed the root's, the case Theorem 1's
    premise excludes and the per-node closed form still covers.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    tree = MulticastTree(0)
    for node in range(1, n):
        tree.add_child(draw(st.integers(min_value=0, max_value=node - 1)), node)
    return tree


@settings(max_examples=80)
@given(tree=one_port_trees(), m=st.integers(min_value=1, max_value=16))
def test_one_port_closed_form_equals_exact_schedule(tree, m):
    """Theorem 1 per node: packet p reaches v at first(v) + p·P(v)."""
    first, period = fpfs_one_port(tree)
    schedule = fpfs_schedule(tree, m)
    assert len(first) == len(period) == len(tree)
    for (node, p), step in schedule.items():
        assert first[node] + p * period[node] == step
