"""Sharded plan-service cluster: ring, shard workers, router, client.

One :class:`~repro.service.PlanServer` is the throughput ceiling of the
whole stack — a warm plan costs microseconds and a cold one-port plan
about a millisecond, so scaling means routing plan *keys* across
processes, not making plans faster.  This package is that layer:

:mod:`repro.cluster.ring`
    A deterministic consistent-hash ring over the ``(n, m,
    MachineParams)`` plan-key space — virtual nodes, seeded placement,
    epoch-stamped membership, and replica chains.  Every placement
    decision is a pure function of ``(seed, members, key)`` so any
    process that holds the same shard map routes identically.
:mod:`repro.cluster.shard`
    Shard worker processes: each runs the existing ``PlanServer``
    (journal-backed for warm handoff) as a child
    process spawned through the CLI, plus fault-schedule-scripted
    SIGKILLs for chaos drills.
:mod:`repro.cluster.router`
    The asyncio frontend: forwards plans by ring lookup, serves the
    shard map to clients, replicates hot keys to the replica shard,
    health-probes members, and fails over (epoch bump + survivor
    reconfiguration) when a shard stops answering.
:mod:`repro.cluster.client`
    ``ClusterClient`` — learns the shard map from the router, routes
    directly to shards (epoch-stamped requests, ``stale_map`` refresh
    and retry), and falls back to router forwarding when a shard drops.

Single-flight dedupe survives sharding because routing is by plan key:
all concurrent requests for one key land on one shard's ledger.
"""

from .client import ClusterClient, cluster_status_remote, shard_map_remote
from .ring import HashRing, plan_key, stable_hash
from .router import ClusterRouter
from .shard import ShardProcess, ShardSpec, scripted_kills, spawn_shards

__all__ = [
    "ClusterClient",
    "ClusterRouter",
    "HashRing",
    "ShardProcess",
    "ShardSpec",
    "cluster_status_remote",
    "plan_key",
    "scripted_kills",
    "shard_map_remote",
    "spawn_shards",
    "stable_hash",
]
