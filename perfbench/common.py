"""Shared pieces of the layered benchmark: statistics, spans, profiles, manifest.

Nothing here imports ``repro`` at module level, so ``run.py`` can report
a missing source tree as a clean failure before any workload starts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median  # noqa: F401  (shared with the workload modules)
from typing import Dict, List, Optional, Sequence

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their result records and span files (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Packages whose leaf-sample shares the traced run reports, in order.
#: ``other`` is every remaining ``repro`` package; ``bench`` is this
#: harness's own code.
SHARE_PACKAGES = (
    "sim", "nic", "network", "mcast", "core", "service", "cluster", "sessions",
    "other", "bench",
)


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; nothing to measure")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed ------------------------------------------------------------------
#
# On a shared VM the speed of a CPU changes by up to 1.7x within seconds,
# as neighbouring guests load the physical core under it; CPU time does
# not leave that out.  The timed metrics are therefore scaled to a
# reference speed: a fixed piece of interpreter work that uses nothing
# of the program (the probe) is timed between operations, and each
# operation's CPU time is multiplied by PROBE_REF_MS over the mean of
# the two probes around it.  A slower program still reads slower; a
# slower host reads (nearly) the same.

#: Probe cost (ms of CPU) on the reference host (Intel Xeon, 2 vCPUs of
#: a shared KVM guest) in a quiet stretch.  A scale, not a gate: it
#: only sets the unit the scaled metrics read in.
PROBE_REF_MS = 1.0
#: Event steps of one probe (about 1 ms on the reference host).
PROBE_STEPS = 1000

_PROBE_LINKS = {i: [(i * 7 + j) % 257 for j in range(1, 5)] for i in range(257)}


class _ProbeEvent:
    __slots__ = ("t", "node", "hops")

    def __init__(self, t: float, node: int, hops: int) -> None:
        self.t, self.node, self.hops = t, node, hops


def _probe_work(steps: int = PROBE_STEPS) -> int:
    """A small event loop (heap, dict, slot objects), like the DES's inner loop."""
    import heapq

    heap = [(0.0, 0, _ProbeEvent(0.0, 0, 0))]
    seen: Dict[int, int] = {}
    seq = 1
    for _ in range(steps):
        t, _seq, event = heapq.heappop(heap)
        seen[event.node] = seen.get(event.node, 0) + 1
        for nxt in _PROBE_LINKS[event.node]:
            if len(heap) < 64:
                heapq.heappush(heap, (t + 1.0 + (nxt % 5) * 0.25, seq, _ProbeEvent(t, nxt, event.hops + 1)))
                seq += 1
    return len(seen)


class SpeedProbe:
    """Probe timings (ms of this thread's CPU), taken between timed operations."""

    def __init__(self) -> None:
        self.ms: List[float] = []
        for _ in range(3):  # warm the probe's own code paths
            _probe_work()

    def sample(self) -> float:
        # With the collector off, a collection the program's own
        # allocations have made due runs in the program, as it would
        # without the probe, and not inside the probe.
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time()
            _probe_work()
            self.ms.append((time.thread_time() - started) * 1e3)
        finally:
            if gc_was_on:
                gc.enable()
        return self.ms[-1]

    def scaled(self, costs: Sequence[float], every: int = 1) -> List[float]:
        """``costs`` at the reference speed.

        Operation ``j`` ran between probes ``j // every`` and
        ``j // every + 1``; the mean of those two is its host speed.
        """
        out = []
        for j, cost in enumerate(costs):
            block = j // every
            around = (self.ms[block] + self.ms[min(block + 1, len(self.ms) - 1)]) / 2.0
            out.append(cost * PROBE_REF_MS / around)
        return out


def pin_to_one_cpu() -> None:
    """Run this process, and every thread and child it starts later, on one CPU.

    The probe then always times the CPU the work ran on, whichever
    thread (event loop, planner worker) did the work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@contextmanager
def cpu_kept_busy():
    """Run ``keepbusy.py`` (a lowest-priority spinner) on this process's CPU meanwhile."""
    script = str(Path(__file__).resolve().parent / "keepbusy.py")
    proc = subprocess.Popen([sys.executable, script, str(os.getpid())], cwd=str(ROOT))
    try:
        yield
    finally:
        proc.kill()
        proc.wait()


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    Each span has a name, start and end (µs since the recorder was
    made), a parent span id and a request id shared by the spans of one
    operation.  A disabled recorder's :meth:`span` costs one attribute
    test, so untraced runs carry it unchanged.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._t0 = time.perf_counter()
        self._stack: List[int] = []
        self.records: List[dict] = []

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        if not self.enabled:
            yield
            return
        sid = len(self.records)
        record = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rid": rid,
            "start_us": (time.perf_counter() - self._t0) * 1e6,
            "end_us": None,
        }
        self.records.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_us"] = (time.perf_counter() - self._t0) * 1e6

    def add(self, name: str, start: float, end: float, parent: Optional[int], rid: Optional[int]) -> None:
        """Record a finished span from ``perf_counter`` stamps (async requests)."""
        if not self.enabled:
            return
        self.records.append({
            "id": len(self.records),
            "name": name,
            "parent": parent,
            "rid": rid,
            "start_us": (start - self._t0) * 1e6,
            "end_us": (end - self._t0) * 1e6,
        })

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total and self time (ms).

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span.
        """
        children: Dict[int, List[dict]] = {}
        for rec in self.records:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        out: Dict[str, dict] = {}
        for rec in self.records:
            start, end = rec["start_us"], rec["end_us"]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(rec["id"], ()), key=lambda c: c["start_us"]):
                lo, hi = max(child["start_us"], cursor), min(child["end_us"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = out.setdefault(rec["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e3
            row["self_ms"] += (end - start - covered) / 1e3
        return out

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = [
            {
                "name": rec["name"],
                "ph": "X",
                "ts": rec["start_us"],
                "dur": rec["end_us"] - rec["start_us"],
                "pid": 1,
                "tid": 1 if rec["rid"] is None else 2,
                "args": {"id": rec["id"], "parent": rec["parent"], "rid": rec["rid"]},
            }
            for rec in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))


# -- profiles -----------------------------------------------------------------


def package_of(label: str) -> Optional[str]:
    """Map a profiler frame label (``module:function``) to a share bucket."""
    module = label.split(":", 1)[0]
    if module.startswith("repro."):
        pkg = module.split(".")[1]
        return pkg if pkg in SHARE_PACKAGES else "other"
    if module in ("__main__", "common") or module.startswith("workload_"):
        return "bench"
    return None


#: Leaf frames of a thread that is waiting, not working: an event loop
#: in ``select``, an executor worker or reader thread blocked on its queue.
IDLE_LEAVES = frozenset({
    "selectors:select",
    "threading:wait",
    "queue:get",
    "concurrent.futures.thread:_worker",
})


def package_counts(stack_counts: Dict[Sequence[str], int]) -> Dict[str, int]:
    """Attribute each busy sample to the innermost program or harness frame.

    Library frames (asyncio, json, heapq, ...) count toward the package
    that called them.  Samples of waiting threads (:data:`IDLE_LEAVES`)
    and samples with neither a ``repro`` nor a harness frame are dropped.
    """
    counts = {pkg: 0 for pkg in SHARE_PACKAGES}
    for stack, hits in stack_counts.items():
        if not stack or stack[-1] in IDLE_LEAVES:
            continue
        for label in reversed(stack):
            pkg = package_of(label)
            if pkg is not None:
                counts[pkg] += hits
                break
    return counts


def shares(counts: Dict[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    return {pkg: (counts.get(pkg, 0) / total if total else 0.0) for pkg in SHARE_PACKAGES}


# -- caches ---------------------------------------------------------------------

#: Entry memos of a plan request, whose hit ratio is ``core.cache_hit_ratio``.
ENTRY_CACHES = ("optimal_k", "plan_schedule")


def cache_counts() -> Dict[str, List[int]]:
    """``[hits, misses]`` of every registered ``core.cache`` table."""
    from repro.core.cache import cache_stats

    return {name: [s.hits, s.misses] for name, s in cache_stats().items()}


def entry_hit_ratio(before: Dict[str, List[int]], after: Dict[str, List[int]]) -> float:
    hits = sum(after[name][0] - before[name][0] for name in ENTRY_CACHES if name in after)
    misses = sum(after[name][1] - before[name][1] for name in ENTRY_CACHES if name in after)
    return hits / (hits + misses) if hits + misses else 0.0


# -- set-up timing ---------------------------------------------------------------


#: What the set-up probe runs: a fresh interpreter importing a few
#: standard-library packages, the same kind of work as a set-up (a
#: process start, module loading) with nothing of the program in it.
SETUP_PROBE = "import asyncio, decimal, email.parser, hashlib, json, random"
#: Set-up probe time (s) on the reference host; like PROBE_REF_MS, a scale.
SETUP_PROBE_REF_S = 0.1


def _setup_probe() -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=str(ROOT), check=True)
    return time.perf_counter() - started


def cold_setups(workload: str, seed: int, trials: int) -> Dict[str, List[float]]:
    """Seconds each of ``trials`` fresh interpreters took to set ``workload`` up.

    Each trial spawns ``host.py``, which imports the program, builds the
    workload's testbeds or starts its servers, prints ``ready`` and
    exits; the clock runs from the spawn to that line.  Every child is
    waited for.  Returns the wall times (``raw``) and the same at the
    reference speed (``scaled``): :data:`SETUP_PROBE` is timed before
    and after each trial, and the faster of the two scales it (a
    process start reads slow by accident, never fast).
    """
    times: List[float] = []
    probes = [_setup_probe()]
    script = str(Path(__file__).resolve().parent / "host.py")
    for _ in range(trials):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, script, "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = None
            for line in proc.stdout:
                if line.startswith("ready") and ready is None:
                    ready = time.perf_counter() - started
            if proc.wait() != 0 or ready is None:
                raise RuntimeError(f"set-up of {workload} failed in a fresh interpreter")
        times.append(ready)
        probes.append(_setup_probe())
    scaled = [t * SETUP_PROBE_REF_S / min(probes[i], probes[i + 1]) for i, t in enumerate(times)]
    return {"raw": times, "scaled": scaled, "probe_s": probes}


# -- manifest -----------------------------------------------------------------


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args: str) -> Optional[str]:
    """Output of a git command in the checkout, or None when it is not a repository."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        out = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def host_fingerprint() -> dict:
    """The fields two result sets must share before they are compared."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def manifest(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """``repro.obs.run_manifest()`` plus host fingerprint, tree state and seed."""
    from repro.obs import run_manifest

    status = _git("status", "--porcelain", "--untracked-files=no")
    dirty = None if status is None else bool(status.strip())
    diff_hash = None
    if dirty:
        diff = _git("diff", "HEAD") or ""
        diff_hash = hashlib.sha256(diff.encode()).hexdigest()[:16]
    return run_manifest(
        seed=seed,
        extra={
            "kind": "perfbench",
            "workload": workload,
            "seconds": seconds,
            "trace": trace,
            "host": host_fingerprint(),
            "git_dirty": dirty,
            "git_diff_hash": diff_hash,
        },
    )
