"""The repository's layered benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload fig_des --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``fig_des`` — the paper's §5.2 DES protocol, closed loop;
* ``contended_des`` — flash crowds of concurrent sessions, closed loop;
* ``plan_cold`` — cold plan requests through the cluster router to two
  plan-server shards.

With ``--trace 0`` the run prints the end-to-end metrics (host CPU per
operation, throughput and set-up time, each scaled to a reference host
speed by probes timed beside them, see ``NOTES.md``; memory); with ``--trace 1`` it
prints the per-layer metrics, adds ``plan_cold``'s open-loop
wall-clock phase, writes its spans to ``perfbench/out/`` and reports
the tracing overhead.  Every run checks
the program's outputs and exits non-zero if one is wrong.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict

import common
from common import (
    OUT_DIR, Spans, cache_counts, entry_hit_ratio, median, package_counts, percentile, shares,
)

WORKLOADS = ("fig_des", "contended_des", "plan_cold")
DES_WORKLOADS = ("fig_des", "contended_des")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cpu_p50_ms": "ms",
    "cpu_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A metric of a layer
#: the workload never calls reads 0.
PER_LAYER = {
    "mcast.run_ms": "ms",
    "mcast.host_us_per_send": "us",
    **{f"{pkg}.self_share": "fraction" for pkg in common.SHARE_PACKAGES},
    "network.testbed_build_ms": "ms",
    "network.channel_acquisitions": "count",
    "network.blocked_us": "us",
    "nic.peak_buffer": "packets",
    "sessions.makespan_us": "us",
    "sessions.queueing_us": "us",
    "mcast.sim_latency_digest": "hash",
    "core.tree_build_us": "us",
    "core.optimal_k_us": "us",
    "core.kbinomial_build_us": "us",
    "core.fpfs_schedule_ms": "ms",
    "service.plan_ms": "ms",
    "core.cache_hit_ratio": "fraction",
    "service.server_ms_p50": "ms",
    "service.wire_ms_p50": "ms",
    "service.batch_size_mean": "count",
    "service.planned_per_request": "fraction",
    "service.singleflight_ratio": "fraction",
    "service.open_loop_p50_ms": "ms",
    "service.open_loop_p99_ms": "ms",
    "cluster.router_hop_ms": "ms",
    "cluster.forwarded": "count",
    "cluster.failovers": "count",
    "cluster.errors": "count",
    "bench.gen_lag_p99_ms": "ms",
    "bench.trace_overhead": "fraction",
    "bench.failed_frac": "fraction",
}

#: Fresh-interpreter set-ups timed per run (``setup_s`` is their median).
SETUP_TRIALS = 7
#: Sampling rate of the traced run's profiler.
PROFILE_HZ = 250.0
#: Keys probed for the cold in-process ``core`` timings.
PROBE_KEYS = 40


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark (see perfbench/NOTES.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--slowdown", type=float, default=1.0,
        help="stretch every timed DES call, or every server-side plan, by this "
        "factor inside the harness (for the comparison self-check only)",
    )
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="directory for run records and spans")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not args.slowdown >= 1.0:
        parser.error("--slowdown must be >= 1")
    return args


# -- layer probes ------------------------------------------------------------------


def core_probes(keys) -> Dict[str, float]:
    """Cold in-process timings of each ``core`` step and of ``plan()`` per key."""
    from repro.core.cache import clear_caches
    from repro.core.kbinomial import build_kbinomial_tree
    from repro.core.optimal import optimal_k
    from repro.core.pipeline import fpfs_schedule
    from repro.service import PlanRequest, plan

    timings = {"optimal_k": [], "build": [], "fpfs": [], "plan": []}
    for n, m in keys:
        clear_caches()
        t0 = time.perf_counter()
        k = optimal_k(n, m)
        t1 = time.perf_counter()
        tree = build_kbinomial_tree(range(n), k)
        t2 = time.perf_counter()
        fpfs_schedule(tree, m)
        t3 = time.perf_counter()
        clear_caches()
        t4 = time.perf_counter()
        plan(PlanRequest(n=n, m=m))
        t5 = time.perf_counter()
        timings["optimal_k"].append(t1 - t0)
        timings["build"].append(t2 - t1)
        timings["fpfs"].append(t3 - t2)
        timings["plan"].append(t5 - t4)
    clear_caches()
    return {
        "core.optimal_k_us": median(timings["optimal_k"]) * 1e6,
        "core.kbinomial_build_us": median(timings["build"]) * 1e6,
        "core.fpfs_schedule_ms": median(timings["fpfs"]) * 1e3,
        "service.plan_ms": median(timings["plan"]) * 1e3,
    }


# -- the two families ----------------------------------------------------------------


def run_des_workload(args, spans: Spans) -> dict:
    from repro.obs import SamplingProfiler
    from workload_des import build_testbeds, des_metrics, run_des

    setups = common.cold_setups(args.workload, args.seed, SETUP_TRIALS)
    beds, build_ms = build_testbeds(args.workload, args.seed)
    profiler = SamplingProfiler(hz=PROFILE_HZ, seed=args.seed) if args.trace else None
    before = cache_counts()
    raw = run_des(args.workload, args.seed, args.seconds, beds, spans, profiler, args.slowdown)
    after = cache_counts()
    runner = raw["runner"]
    calls = len(runner.call_ms)
    out = {
        "attempted": calls,
        "failed": 0,
        "checks": {"simulated statistics repeat for the seed": raw["repeatable"]},
        "setup_trials_s": setups,
        "e2e": {
            **des_metrics(raw), "setup_s": median(setups["scaled"]),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "detail": {
            "rounds": raw["rounds"], "calls": calls, "sends": runner.sends,
            "wall_s": raw["wall_s"], "cpu_s": raw["cpu_s"],
            "unscaled setup_s": median(setups["raw"]),
            "unscaled cpu_p50_ms": median(runner.call_ms),
            "probe_ms p50 (min, max)": probe_summary(runner.probe.ms),
        },
    }
    if args.trace:
        traced, untraced = raw["round_s"][True], raw["round_s"][False]
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update(raw["reference"])
        layer.update(core_probes(runner.plan_keys(0)))
        layer.update({
            "mcast.run_ms": runner.run_s * 1e3 / calls,
            "mcast.host_us_per_send": runner.run_s * 1e6 / runner.sends,
            "network.testbed_build_ms": build_ms,
            "network.channel_acquisitions": runner.channel_acquisitions(0),
            "core.tree_build_us": median(runner.tree_us) if runner.tree_us else 0.0,
            "core.cache_hit_ratio": entry_hit_ratio(before, after),
            "bench.trace_overhead": (
                statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
                if traced and untraced else 0.0
            ),
        })
        counts = package_counts(profiler.stack_counts())
        layer.update({f"{pkg}.self_share": share for pkg, share in shares(counts).items()})
        out["layer"] = layer
        out["accounting"] = {
            "profile samples": sum(counts.values()),
            "share sum": sum(shares(counts).values()),
            "mcast.run_ms x calls / DES loop CPU time": runner.run_s / raw["cpu_s"],
            "DES loop CPU time / wall time": raw["cpu_s"] / raw["wall_s"],
        }
    return out


def run_service_workload(args, spans: Spans) -> dict:
    from repro.obs import SamplingProfiler
    from workload_service import BACKLOG_LIMIT_S, check_answers, run_service, service_metrics

    setups = common.cold_setups(args.workload, args.seed, SETUP_TRIALS)
    profiler = SamplingProfiler(hz=PROFILE_HZ, seed=args.seed, all_threads=True)
    raw = asyncio.run(run_service(args.seed, args.seconds, spans, profiler, args.slowdown))
    phases = raw["phases"]
    checked, wrong = check_answers(phases)
    attempted = sum(len(p.payloads) for p in phases)
    failed = sum(p.failed for p in phases)
    out = {
        "attempted": attempted,
        "failed": failed,
        "checks": {
            f"{checked} answers equal in-process plan()": wrong == 0 and checked > 0,
        },
        "setup_trials_s": setups,
        "detail": {"requests": attempted},
    }
    if not args.trace:
        out["e2e"] = {**service_metrics(raw), "setup_s": median(setups["scaled"])}
        out["detail"].update({
            "unscaled setup_s": median(setups["raw"]),
            "unscaled cpu_p50_ms": median(raw["closed"].values_ms("cpu")),
            "probe_ms p50 (min, max)": probe_summary(raw["closed"].probe.ms),
        })
        return out

    opened = raw["open"]
    if opened.backlog > opened.rate * BACKLOG_LIMIT_S:
        out["warnings"] = [
            f"open-loop backlog grew to {opened.backlog} requests: the rate was past"
            " capacity, so its latencies measure a queue"
        ]
    stats, before = raw["stats"], raw["stats_before"]
    counters = {k: v - before["counters"].get(k, 0) for k, v in stats["counters"].items()}
    plans = counters.get("plans", 0)
    client_p50 = median(opened.values_ms("latency"))
    server_p50 = stats["server_ms_p50"]
    first, second = raw["halves"]
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(core_probes([(p["n"], p["m"]) for p in first.payloads[:PROBE_KEYS]]))
    layer.update({
        "core.cache_hit_ratio": entry_hit_ratio(*raw["cache"]),
        "service.server_ms_p50": server_p50,
        "service.wire_ms_p50": client_p50 - server_p50,
        "service.batch_size_mean": stats["batch_size_mean"],
        "service.planned_per_request": counters.get("planned", 0) / plans if plans else 0.0,
        "service.singleflight_ratio": counters.get("singleflight_hits", 0) / plans if plans else 0.0,
        "service.open_loop_p50_ms": client_p50,
        "service.open_loop_p99_ms": percentile(opened.values_ms("latency"), 0.99),
        "bench.gen_lag_p99_ms": percentile(opened.lag_s, 0.99) * 1e3,
        "bench.trace_overhead": (
            median(second.values_ms("cpu")) / median(first.values_ms("cpu")) - 1.0
        ),
        "bench.failed_frac": failed / attempted,
    })
    for name in ("forwarded", "failovers", "errors"):
        layer[f"cluster.{name}"] = float(stats["router"][name])
    layer["cluster.router_hop_ms"] = client_p50 - median(raw["direct"].values_ms("latency"))
    counts = package_counts(profiler.stack_counts())
    layer.update({f"{pkg}.self_share": share for pkg, share in shares(counts).items()})
    out["layer"] = layer
    out["accounting"] = {
        "profile samples": sum(counts.values()),
        "share sum": sum(shares(counts).values()),
        "open-loop client p50 ms (= server p50 + wire p50)": client_p50,
        "server p50 / client p50": server_p50 / client_p50,
        "server samples / open-loop answers": stats["server_samples"] / max(1, len(opened.values_ms("latency"))),
    }
    out["detail"].update({
        "open_loop_rate": opened.rate,
        "open_loop_requests": len(opened.payloads),
        "open_loop_backlog": opened.backlog,
    })
    return out


# -- output --------------------------------------------------------------------------


def probe_summary(ms) -> str:
    return f"{median(ms):.3f} ({min(ms):.3f}, {max(ms):.3f})"


def result_line(out: dict, trace: bool) -> dict:
    table = PER_LAYER if trace else END_TO_END
    values = out["layer"] if trace else out["e2e"]
    return {
        "correct": all(out["checks"].values()),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in table.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    common.use_source_tree()
    common.pin_to_one_cpu()
    spans = Spans(enabled=bool(args.trace))
    started = time.perf_counter()
    with common.cpu_kept_busy(), spans.span(f"workload.{args.workload}"):
        if args.workload in DES_WORKLOADS:
            out = run_des_workload(args, spans)
        else:
            out = run_service_workload(args, spans)
    manifest = common.manifest(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(out, bool(args.trace))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" ({time.perf_counter() - started:.1f}s wall)")
    for name, ok in out["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for warning in out.get("warnings", ()):
        print(f"  WARNING {warning}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in out.get("accounting", {}).items():
        print(f"  accounting: {name} = {value:.4g}")
    for key, value in out["detail"].items():
        print(f"  detail: {key} = {value}")
    print("manifest " + json.dumps(manifest, sort_keys=True))

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": manifest, "result": result, "setup_trials_s": out["setup_trials_s"],
              "detail": out["detail"]}
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_chrome(spans_path, manifest)
        for name, row in sorted(spans.self_times().items()):
            print(f"  span {name:28s} n={row['count']:<6d} total={row['total_ms']:10.1f} ms"
                  f" self={row['self_ms']:10.1f} ms")
        print(f"  spans written to {spans_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
