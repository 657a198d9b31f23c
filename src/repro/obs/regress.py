"""Benchmark trajectory recording and the perf-regression gate.

Six perf-focused PRs produced zero *tracked* baselines — a regression
would ship silently.  This module closes that hole with three pieces:

* **Gates** — self-contained, seconds-scale wall-clock workloads
  distilled from the A15/A17/A18/A19/A21/A22 benchmarks (service Zipf
  drive, checkpointed sweep, surface build, flash-crowd sessions,
  2-shard cluster routing, Poisson-churn membership).  Each gate
  runs ``repeats`` times after a warmup and reports its *median*
  seconds, the statistic least moved by scheduler noise.
* **Trajectory file** — every run appends ``{manifest, entries}`` to a
  JSON trajectory (written atomically), and finished pytest-benchmark
  ``BENCH_*.json`` artifacts can be ingested into the same schema, so
  the weekly artifacts accumulate into one comparable history.
* **Comparison** — :func:`compare` pairs current medians against a
  committed baseline (``BENCH_baseline.json``) per gate id and flags
  any ratio above the threshold (default **+15%**); ``repro-mcast
  bench check`` exits non-zero on a flagged run unless
  ``--report-only``.  The self-test injects a synthetic 2x slowdown
  and asserts the gate catches it.

Gate workloads import their subsystems lazily so importing
``repro.obs`` never drags in the service/session stacks.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from .manifest import run_manifest

__all__ = [
    "GATES",
    "TRAJECTORY_SCHEMA",
    "compare",
    "format_report",
    "ingest_bench_json",
    "latest_entries",
    "load_trajectory",
    "record_trajectory",
    "run_gates",
]

#: Bump when the trajectory file's key set changes incompatibly.
TRAJECTORY_SCHEMA = 1

#: A current/baseline median ratio above ``1 + threshold`` is a regression.
DEFAULT_THRESHOLD = 0.15


# ---------------------------------------------------------------------------
# Gate workloads (lazy imports: the obs package must stay light)
# ---------------------------------------------------------------------------


def _gate_service() -> None:
    """A15 distilled: drive the plan server over a socket, Zipf mix."""
    import asyncio

    from ..analysis.load import zipf_plan_mix
    from ..service import PlanClient, PlanServer

    mix = zipf_plan_mix(96, n_keys=8)

    async def drive() -> None:
        server = PlanServer(port=0, workers=2, max_delay=0.002, max_inflight=2 * len(mix))
        await server.start()
        client = await PlanClient.connect("127.0.0.1", server.port)
        semaphore = asyncio.Semaphore(32)

        async def one(n: int, m: int):
            async with semaphore:
                return await client.plan(n, m)

        await asyncio.gather(*[one(n, m) for n, m in mix])
        await client.close()
        await server.shutdown()

    asyncio.run(drive())


def _gate_durable() -> None:
    """A17 distilled: a checkpointed sweep (journal append per chunk)."""
    import tempfile
    from pathlib import Path

    from ..analysis.sweep import run_sweep

    def measure(n, m):
        acc = 0.0
        for i in range(1, 4000):
            acc += (n * i) % 7 + (m / i)
        return {"v": acc}

    grids = {"n": list(range(1, 9)), "m": list(range(1, 9))}
    with tempfile.TemporaryDirectory(prefix="repro-gate-") as tmp:
        run_sweep(measure, grids, chunk_size=8, checkpoint=Path(tmp) / "gate.ckpt")


def _gate_surface() -> None:
    """A18 distilled: one cold analytic-surface build plus an extraction."""
    from ..core.surface import AnalyticSurface

    surface = AnalyticSurface.build(192, 24)
    surface.optimal_k_grid(tuple(range(2, 193)), tuple(range(1, 25)))


def _gate_sessions() -> None:
    """A19 distilled: a flash-crowd sessions point under cda scheduling."""
    from ..sessions import sessions_point

    sessions_point(
        "cda",
        seed=0,
        arrival="flash_crowd",
        load=2.0,
        count=8,
        dests=11,
        m=4,
        max_active=2,
        measure_isolated=False,
    )


def _gate_cluster() -> None:
    """A21 distilled: a 2-shard in-process cluster behind the router."""
    import asyncio

    from ..analysis.load import zipf_plan_mix
    from ..cluster import ClusterClient, ClusterRouter, ShardSpec
    from ..service import PlanServer

    mix = zipf_plan_mix(96, n_keys=8, seed=0)

    async def drive() -> None:
        servers = []
        specs = []
        for sid in range(2):
            server = PlanServer(
                port=0, workers=2, max_delay=0.002, max_inflight=2 * len(mix),
                shard_id=sid,
            )
            await server.start()
            servers.append(server)
            specs.append(ShardSpec(shard_id=sid, host="127.0.0.1", port=server.port))
        router = ClusterRouter(specs, port=0, probe_interval=5.0)
        await router.start()
        client = await ClusterClient.connect("127.0.0.1", router.port)
        semaphore = asyncio.Semaphore(32)

        async def one(n: int, m: int):
            async with semaphore:
                return await client.plan(n, m)

        await asyncio.gather(*[one(n, m) for n, m in mix])
        await client.close()
        await router.shutdown()
        for server in servers:
            await server.shutdown()

    asyncio.run(drive())


def _gate_membership() -> None:
    """A22 distilled: one Poisson-churn multicast with amendments."""
    from ..membership import churn_point

    record = churn_point("poisson", 0, 15, 4)
    assert record["stable_complete"], record


#: Gate id -> (workload, human name).  Ids match the benchmark index in
#: DESIGN.md so trajectory entries and EXPERIMENTS.md sections line up.
GATES: Dict[str, tuple] = {
    "A15": (_gate_service, "plan service, Zipf mix over a socket"),
    "A17": (_gate_durable, "checkpointed sweep with chunk journal"),
    "A18": (_gate_surface, "analytic surface cold build + extraction"),
    "A19": (_gate_sessions, "flash-crowd sessions point (cda)"),
    "A21": (_gate_cluster, "2-shard cluster, Zipf mix via shard-map routing"),
    "A22": (_gate_membership, "Poisson-churn multicast with live amendment"),
}


def run_gates(
    ids: Optional[Sequence[str]] = None,
    *,
    repeats: int = 3,
    warmup: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Run the named gates (default: all), returning trajectory entries.

    Each entry records every sample and the median, in seconds (lower
    is better for every gate).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    selected = list(GATES) if ids is None else list(ids)
    entries: List[dict] = []
    for gate_id in selected:
        if gate_id not in GATES:
            raise KeyError(f"unknown gate {gate_id!r}; have {sorted(GATES)}")
        workload, name = GATES[gate_id]
        if progress:
            progress(f"{gate_id}: {name} (warmup {warmup}, repeats {repeats})")
        for _ in range(warmup):
            workload()
        samples: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            workload()
            samples.append(time.perf_counter() - started)
        entries.append(
            {
                "id": gate_id,
                "name": name,
                "unit": "s",
                "median": statistics.median(samples),
                "samples": samples,
            }
        )
        if progress:
            progress(f"{gate_id}: median {statistics.median(samples) * 1e3:.1f} ms")
    return entries


# ---------------------------------------------------------------------------
# Trajectory file
# ---------------------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    from ..durable.atomic import atomic_write_json

    # crc=False: trajectory files are committed and hand-diffed; the
    # CRC stamp would churn on every append for no recovery benefit.
    atomic_write_json(path, payload, crc=False, indent=2)


def load_trajectory(path: str) -> dict:
    """Read a trajectory file (or return an empty one if absent)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {"schema": TRAJECTORY_SCHEMA, "runs": []}
    if not isinstance(data, dict) or "runs" not in data:
        # A bare baseline run ({manifest, entries}) is also accepted.
        if isinstance(data, dict) and "entries" in data:
            return {"schema": TRAJECTORY_SCHEMA, "runs": [data]}
        raise ValueError(f"{path}: not a trajectory file")
    return data


def record_trajectory(
    entries: Sequence[dict],
    path: str,
    *,
    extra: Optional[dict] = None,
) -> dict:
    """Append one manifest-stamped run to the trajectory at ``path``.

    Creates the file if needed; the write is atomic so a crashed
    recorder never corrupts the history.  Returns the appended run.
    """
    trajectory = load_trajectory(path)
    run = {
        "manifest": run_manifest(extra=extra),
        "entries": list(entries),
    }
    trajectory["runs"].append(run)
    trajectory["schema"] = TRAJECTORY_SCHEMA
    _write_json(path, trajectory)
    return run


def latest_entries(trajectory: dict) -> List[dict]:
    """The most recent run's entries (empty list for an empty file)."""
    runs = trajectory.get("runs", [])
    return list(runs[-1]["entries"]) if runs else []


def ingest_bench_json(path: str) -> List[dict]:
    """pytest-benchmark ``BENCH_*.json`` → trajectory entries.

    Each benchmark becomes one entry keyed by its test name, with the
    suite's median statistic as the value — so the weekly artifacts
    land in the same history as the gates.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entries: List[dict] = []
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        if "median" not in stats:
            continue
        entries.append(
            {
                "id": bench.get("name", bench.get("fullname", "?")),
                "name": bench.get("fullname", bench.get("name", "?")),
                "unit": "s",
                "median": stats["median"],
                "samples": stats.get("data", [])[:64],
            }
        )
    return entries


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------


def compare(
    current: Sequence[dict],
    baseline: Sequence[dict],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Pair current medians against baseline medians, flag regressions.

    Returns ``{"ok", "threshold", "rows", "regressions", "missing"}``:
    a row per gate id present in both inputs with the median ratio
    (current / baseline — above ``1 + threshold`` is a regression,
    gates are all lower-is-better), plus ids only one side has.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    base_by_id = {entry["id"]: entry for entry in baseline}
    cur_by_id = {entry["id"]: entry for entry in current}
    rows: List[dict] = []
    regressions: List[str] = []
    for gate_id in sorted(set(base_by_id) & set(cur_by_id)):
        base_median = float(base_by_id[gate_id]["median"])
        cur_median = float(cur_by_id[gate_id]["median"])
        ratio = cur_median / base_median if base_median > 0 else float("inf")
        regressed = ratio > 1.0 + threshold
        rows.append(
            {
                "id": gate_id,
                "baseline_median": base_median,
                "current_median": cur_median,
                "ratio": ratio,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(gate_id)
    missing = {
        "baseline_only": sorted(set(base_by_id) - set(cur_by_id)),
        "current_only": sorted(set(cur_by_id) - set(base_by_id)),
    }
    return {
        "ok": not regressions,
        "threshold": threshold,
        "rows": rows,
        "regressions": regressions,
        "missing": missing,
    }


def format_report(report: dict) -> str:
    """A terminal-friendly rendering of a :func:`compare` report."""
    lines = [
        f"bench regression gate (threshold +{report['threshold'] * 100:.0f}%)",
    ]
    for row in report["rows"]:
        mark = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {row['id']:>24s}: baseline {row['baseline_median'] * 1e3:9.2f} ms"
            f" -> current {row['current_median'] * 1e3:9.2f} ms"
            f"  ({row['ratio']:.3f}x)  {mark}"
        )
    for gate_id in report["missing"]["baseline_only"]:
        lines.append(f"  {gate_id:>24s}: in baseline only (skipped)")
    for gate_id in report["missing"]["current_only"]:
        lines.append(f"  {gate_id:>24s}: new (no baseline yet)")
    lines.append(
        "verdict: "
        + ("OK" if report["ok"] else "REGRESSION in " + ", ".join(report["regressions"]))
    )
    return "\n".join(lines)
