"""The pipelined step model of multi-packet FPFS multicast (§4.1).

The paper models an ``m``-packet multicast as ``m`` pipelined
single-packet multicasts: under FPFS each NI forwards packets in
arrival order, one send per *step* (a step = one NI-to-NI packet
transmission).  Theorem 1 shows successive packets complete exactly
``k_T`` (root fan-out) steps apart; Theorem 2 gives the total

    steps(T, m) = T1 + (m - 1) * k_T .

This module provides:

* :func:`fpfs_schedule` — an **exact** step-synchronous scheduler for
  an arbitrary tree: returns the step at which every (node, packet)
  pair is received.  It makes no k-binomial assumption, so it doubles
  as the ground truth the theorems are verified against (the theorem
  formula assumes no interior node out-fans the root, which k-binomial
  trees guarantee; the scheduler is exact even when that fails).
* :func:`fpfs_one_port` — the one-port schedule in closed form, one
  O(n) level-order pass (Theorem 1 per node, below).  It returns the
  same cells as :func:`fpfs_schedule` with ``ports=1``, for any tree
  and any ``m``, without walking the packets.
* :func:`fpfs_total_steps` — completion step of the last packet at the
  last destination.
* :func:`theorem2_steps` — the closed-form ``T1 + (m-1) * k_T``.
* :func:`multicast_latency_model` — µs latency
  ``t_s + steps * t_step + t_r`` (smart NI, §2.5).
* :func:`conventional_latency_model` — µs latency of conventional-NI
  binomial multicast, ``ceil(log2 n) * (m * t_step + t_s + t_r)``
  extended from the paper's single-packet expression.

Theorem 1 per node.  Theorem 1's argument holds at every node, not
only at the root.  Let ``P(v)`` be the largest fan-out among ``v``'s
strict ancestors (0 at the source).  Under one-port FPFS, node ``v``
receives packet ``p`` at step ``first(v) + p·P(v)``, and the ``i``-th
child of ``v`` (1-based, in send order) receives packet 0 at
``first(v) + i``.  By induction down the tree: ``v``'s packets arrive
``P(v)`` steps apart and each occupies ``v``'s port for ``fanout(v)``
steps, so ``v`` sends packet ``p`` to its children every
``max(P(v), fanout(v))`` steps — the children's ``P``.  The proof
sketch is in ``docs/THEORY.md``; tests pin the form against
:func:`fpfs_schedule`, which stays the oracle and the only schedule for
``ports > 1``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Tuple

from ..params import SystemParams
from .trees import MulticastTree

__all__ = [
    "fcfs_schedule",
    "fcfs_total_steps",
    "fpfs_one_port",
    "fpfs_schedule",
    "fpfs_total_steps",
    "packet_completion_steps",
    "theorem2_steps",
    "multicast_latency_model",
    "conventional_latency_model",
]


def fpfs_schedule(
    tree: MulticastTree, m: int, ports: int = 1
) -> Dict[Tuple[Hashable, int], int]:
    """Exact FPFS step schedule for ``m`` packets over ``tree``.

    Model (matches the paper's Figs. 5 and 8):

    * time advances in integer steps, numbered from 1;
    * each NI performs at most ``ports`` packet sends per step (the
      paper's model is one-port; ``ports > 1`` is the standard
      multi-port extension, where the NI can drive several network
      channels concurrently);
    * a packet sent in step ``t`` is received at the end of step ``t``
      and can be forwarded from step ``t + 1``;
    * an NI services forwarding work packet-by-packet in arrival order
      (FPFS), sending each packet to its children in child order;
    * the source holds all ``m`` packets at step 0.

    Returns
    -------
    dict
        ``(node, packet_index)`` → receive step, with packets indexed
        from 0.  The source's entries are all 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")

    recv: Dict[Tuple[Hashable, int], int] = {}
    # Per-node send capacity: a min-heap of the steps at which each of
    # the node's ports next becomes free (lazily created).
    port_free: Dict[Hashable, list] = {}
    # Heap of (available_step, packet_index, seq, node): the moment a
    # packet becomes forwardable at a node.  Ordering by (step, packet)
    # realises FPFS: earlier arrivals are fully serviced first.
    heap: list = []
    seq = 0
    for p in range(m):
        recv[(tree.root, p)] = 0
        heapq.heappush(heap, (1, p, seq, tree.root))
        seq += 1

    while heap:
        available, p, _, node = heapq.heappop(heap)
        if not tree.fanout(node):
            continue
        free = port_free.setdefault(node, [1] * ports)
        for child in tree.children(node):
            # Occupy the earliest-free port, no sooner than arrival.
            step = max(heapq.heappop(free), available)
            heapq.heappush(free, step + 1)
            recv[(child, p)] = step
            heapq.heappush(heap, (step + 1, p, seq, child))
            seq += 1
    return recv


def fpfs_one_port(tree: MulticastTree) -> Tuple[Dict[Hashable, int], Dict[Hashable, int]]:
    """One-port FPFS schedule in closed form: ``(first, period)`` per node.

    One level-order pass, O(n) and independent of ``m``.  Node ``v``
    receives packet ``p`` at ``first[v] + p * period[v]``: ``first`` is
    the packet-0 schedule and ``period`` is ``P(v)``, the largest
    fan-out among ``v``'s strict ancestors (0 at the source).  Equal to
    ``fpfs_schedule(tree, m, ports=1)`` cell for cell, for every ``m``.
    """
    first: Dict[Hashable, int] = {tree.root: 0}
    period: Dict[Hashable, int] = {tree.root: 0}
    order = [tree.root]
    for node in order:
        children = tree.children(node)
        t = first[node]
        inherited = max(period[node], len(children))
        for offset, child in enumerate(children, start=1):
            first[child] = t + offset
            period[child] = inherited
            order.append(child)
    return first, period


def fpfs_total_steps(tree: MulticastTree, m: int, ports: int = 1) -> int:
    """Completion step of the whole multicast (0 for a trivial tree)."""
    recv = fpfs_schedule(tree, m, ports=ports)
    return max(recv.values())


def packet_completion_steps(tree: MulticastTree, m: int, ports: int = 1) -> list[int]:
    """``t_i``: the step at which packet ``i`` reaches its last receiver.

    Theorem 1 states ``t_{i+1} - t_i == k_T`` for every ``i`` on a
    k-binomial tree (one-port model); tests verify that against this
    exact schedule.
    """
    recv = fpfs_schedule(tree, m, ports=ports)
    completion = [0] * m
    for (_, p), step in recv.items():
        completion[p] = max(completion[p], step)
    return completion


def fcfs_schedule(tree: MulticastTree, m: int) -> Dict[Tuple[Hashable, int], int]:
    """Exact FCFS step schedule (§3.1's discipline in the step model).

    Same step mechanics as :func:`fpfs_schedule`, but forwarding is
    child-major: each arriving packet is relayed to the *first* child
    immediately; children ``2..c`` receive the whole message only after
    the last packet has arrived.  The source (which holds all packets
    at step 0) streams the full message child by child.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    recv: Dict[Tuple[Hashable, int], int] = {}
    next_free: Dict[Hashable, int] = {}
    # (available_step, packet, seq, node) — arrival order drives the
    # first-child relay; the remaining children are booked when the
    # last packet lands.
    heap: list = []
    arrived: Dict[Hashable, int] = {}
    seq = 0
    for p in range(m):
        recv[(tree.root, p)] = 0
        heapq.heappush(heap, (1, p, seq, tree.root))
        seq += 1

    def book(node: Hashable, packet: int, child: Hashable, earliest: int) -> None:
        nonlocal seq
        step = max(earliest, next_free.get(node, 1))
        next_free[node] = step + 1
        recv[(child, packet)] = step
        heapq.heappush(heap, (step + 1, packet, seq, child))
        seq += 1

    while heap:
        available, p, _, node = heapq.heappop(heap)
        children = tree.children(node)
        if not children:
            continue
        arrived[node] = arrived.get(node, 0) + 1
        if node == tree.root and p == 0 and arrived[node] == 1:
            # The source holds everything: stream child-major at once.
            arrived[node] = m
            for _ in range(m - 1):
                heapq.heappop(heap)  # drop the other root entries
            for child in children:
                for packet in range(m):
                    book(node, packet, child, 1)
            continue
        book(node, p, children[0], available)
        if arrived[node] == m:
            for child in children[1:]:
                for packet in range(m):
                    book(node, packet, child, available)
    return recv


def fcfs_total_steps(tree: MulticastTree, m: int) -> int:
    """Completion step of an FCFS multicast (0 for a trivial tree)."""
    recv = fcfs_schedule(tree, m)
    return max(recv.values())


def theorem2_steps(t1: int, m: int, k_t: int) -> int:
    """Theorem 2's closed form: ``T1 + (m - 1) * k_T`` steps."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > 1 and k_t < 1:
        raise ValueError("a multi-packet multicast needs a root fan-out >= 1")
    return t1 + (m - 1) * k_t


def multicast_latency_model(steps: int, params: SystemParams) -> float:
    """Smart-NI multicast latency (µs): ``t_s + steps * t_step + t_r``."""
    return params.t_s + steps * params.t_step + params.t_r


def conventional_latency_model(n: int, m: int, params: SystemParams) -> float:
    """Conventional-NI binomial multicast latency (µs).

    §2.5: every hop of the binomial tree pays the host software
    overheads, giving ``ceil(log2 n) * (t_step + t_s + t_r)`` for one
    packet; with host-level store-and-forward of all ``m`` packets each
    hop transmits the full message, hence the ``m * t_step`` term.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    hops = math.ceil(math.log2(n)) if n > 1 else 0
    return hops * (m * params.t_step + params.t_s + params.t_r)
