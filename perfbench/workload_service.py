"""The service workload, ``plan_cold``.

Inputs come only from the seed.  The servers run in the benchmark
process, on the same event loop as the client, so one process holds the
whole request path: client, router, shard servers and the planner's
worker thread.

Requests walk a seeded, cost-stratified permutation of the whole
``n ∈ [8, 256] × m ∈ [1, 32]`` key space through a
:class:`ClusterRouter` in front of two :class:`PlanServer` shards.  The
``core.cache`` tables are emptied every :data:`COLD_RESET` requests and
no key repeats, so nearly every request misses every memo.

The end-to-end numbers come from a *closed loop* with one request in
flight: each request's cost is the host CPU time the process spent
between sending it and reading its answer, summed over every thread.
On a shared VM, CPU steal from neighbouring guests moved wall-clock
latencies by up to 60% at the median and 3x at p99 between runs minutes
apart.  Host CPU per request is steadier once it is scaled to a
reference speed by the speed probes the loop takes between requests
(:class:`common.SpeedProbe`).

The traced run adds an *open loop* at a fixed rate, where request ``i``
is due at ``t0 + i / rate`` and its wall-clock latency runs from that
due time to its answer, so a stall delays the requests behind it too.
Its latencies, the generator's lateness and the server-side split are
per-layer numbers.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from common import SpeedProbe, Spans, cache_counts, median, peak_rss_mb, percentile

#: Cold key space (n counts the source, as everywhere in the program).
COLD_N = range(8, 257)
COLD_M = range(1, 33)
#: Neighbouring keys per stratum of the cold space (see :func:`cold_keys`).
COLD_STRATUM = 8

#: Rate of the traced run's open loop (req/s), well below capacity.
OPEN_LOOP_RATE = 50.0
#: The closed loop times a speed probe before every this many requests.
PROBE_EVERY = 10
#: The closed loop empties the ``core.cache`` tables before every this
#: many requests.  Distinct keys still share sub-results (trees, step
#: counts) of the same n, so without a reset a run would grow warmer the
#: further it got, and a faster host would read cheaper per request.
COLD_RESET = 250
#: Requests after which the closed loop reads peak RSS.
RSS_AFTER = 1500
#: Client-side deadline per request; expiry counts as a failure.
REQUEST_TIMEOUT = 30.0
#: An open loop with more requests outstanding when sending ends than
#: arrive in this many seconds had a growing backlog: its rate was past
#: capacity, and its latencies describe a queue, not the service.
BACKLOG_LIMIT_S = 0.25


# -- inputs ---------------------------------------------------------------------


def cold_keys(seed: int) -> List[Tuple[int, int]]:
    """Every key of the cold space once, in stratified passes.

    The space is sorted by ``n * m`` (a plan's work grows with it) and
    cut into strata of :data:`COLD_STRATUM` neighbours.  Pass ``j`` takes
    one seeded pick from each stratum, in seeded order; so each pass
    spans the whole cost range evenly and every seed asks for the same
    mix of cheap and costly plans, with different keys.
    """
    rng = random.Random(f"plan_cold:{seed}")
    ordered = sorted(((n, m) for n in COLD_N for m in COLD_M), key=lambda k: (k[0] * k[1], k))
    strata = [ordered[i:i + COLD_STRATUM] for i in range(0, len(ordered), COLD_STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    keys: List[Tuple[int, int]] = []
    for j in range(COLD_STRATUM):
        one_pass = [stratum[j] for stratum in strata if j < len(stratum)]
        rng.shuffle(one_pass)
        keys.extend(one_pass)
    return keys


class Inputs:
    """Hands out every phase's requests from one walk; keys never repeat within a run."""

    def __init__(self, seed: int) -> None:
        self._cold = cold_keys(seed)
        self._next = 0

    def stream(self) -> Iterator[dict]:
        """An endless request stream, continuing the run's walk."""
        while True:
            n, m = self._cold[self._next % len(self._cold)]
            self._next += 1
            yield {"type": "plan", "n": n, "m": m}

    def take(self, count: int) -> List[dict]:
        return list(itertools.islice(self.stream(), count))


# -- the servers --------------------------------------------------------------------


class ServiceHost:
    """The workload's servers, in this process, with their own latencies kept."""

    def __init__(self) -> None:
        self.servers = []
        self.router = None
        self.server_s: List[float] = []
        self._lock = threading.Lock()

    def _watch(self, server) -> None:
        """Keep every value the server's own ``plan_latency`` histogram records."""
        histogram = server.metrics.plan_latency
        record = histogram.record

        def recording(seconds: float) -> None:
            with self._lock:
                self.server_s.append(seconds)
            record(seconds)

        histogram.record = recording

    async def start(self) -> int:
        """Start two shards and the router in front of them; return the router's port."""
        from repro.cluster import ClusterRouter, ShardSpec
        from repro.core.cache import clear_caches
        from repro.service import PlanServer

        clear_caches()
        specs = []
        for sid in range(2):
            server = PlanServer(
                port=0, shard_id=sid, max_inflight=4096, request_timeout=REQUEST_TIMEOUT
            )
            await server.start()
            self.servers.append(server)
            self._watch(server)
            specs.append(ShardSpec(shard_id=sid, host="127.0.0.1", port=server.port))
        self.router = ClusterRouter(specs, port=0, request_timeout=REQUEST_TIMEOUT)
        await self.router.start()
        return self.router.port

    def reset(self) -> None:
        for server in self.servers:
            server.metrics.reset()
        with self._lock:
            self.server_s = []

    def stats(self) -> dict:
        """Counters summed over the servers, batch sizes and exact server p50."""
        snaps = [server.metrics.snapshot() for server in self.servers]
        counters: Dict[str, int] = {}
        for snap in snaps:
            for name, value in snap["counters"].items():
                counters[name] = counters.get(name, 0) + value
        batches = sum(snap["batch"]["count"] for snap in snaps)
        batched = sum((snap["batch"]["mean_size"] or 0.0) * snap["batch"]["count"] for snap in snaps)
        with self._lock:
            server_s = list(self.server_s)
        return {
            "server_ms_p50": median(server_s) * 1e3 if server_s else 0.0,
            "server_samples": len(server_s),
            "counters": counters,
            "batch_size_mean": batched / batches if batches else 0.0,
            "router": self.router.status_report()["counters"],
        }

    async def shutdown(self) -> None:
        if self.router is not None:
            await self.router.shutdown()
        for server in self.servers:
            await server.shutdown()


# -- the loops ---------------------------------------------------------------------


def digest(result: dict) -> str:
    """A short stable fingerprint of a plan result, kept instead of the result."""
    return hashlib.sha1(json.dumps(result, sort_keys=True).encode()).hexdigest()


@dataclass
class Phase:
    """The requests of one phase and what became of each."""

    payloads: List[dict] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    #: Digest of each answer's result (``None`` for failures).
    digests: List[Optional[str]] = field(default_factory=list)
    #: Wall seconds: from sending (closed loop) or from the due time (open loop).
    latency_s: List[float] = field(default_factory=list)
    #: Host CPU seconds per request (closed loop only).
    cpu_s: List[float] = field(default_factory=list)
    #: How late each request was sent (open loop only).
    lag_s: List[float] = field(default_factory=list)
    #: Requests still unanswered when the last one was sent (open loop only).
    backlog: int = 0
    rate: float = 0.0
    #: Peak RSS (MB) after the closed loop's first :data:`RSS_AFTER` requests.
    rss_mb: Optional[float] = None
    #: Speed probes around every :data:`PROBE_EVERY` requests (closed loop only).
    probe: Optional[SpeedProbe] = None

    def values_ms(self, which: str, kind: Optional[str] = None) -> List[float]:
        """``latency`` or ``cpu`` of the successful requests (of one type), in ms."""
        values = self.cpu_s if which == "cpu" else self.latency_s
        return [
            v * 1e3 for payload, ok, v in zip(self.payloads, self.ok, values)
            if ok and (kind is None or payload["type"] == kind)
        ]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


def _answer(phase: Phase, i: int, response: Optional[dict]) -> None:
    ok = bool(response and response.get("ok"))
    phase.ok[i] = ok
    phase.digests[i] = digest(response["result"]) if ok else None


async def closed_loop(client, stream: Iterator[dict], seconds: float, slowdown: float = 1.0) -> Phase:
    """One request in flight for ``seconds``; each request's host CPU and wall time.

    A speed probe runs before every :data:`PROBE_EVERY` requests and
    once at the end, and the ``core.cache`` tables are emptied before
    every :data:`COLD_RESET` requests, both outside the timed requests.
    Peak RSS is read after :data:`RSS_AFTER` requests, a fixed amount of
    work: caches grow with the requests answered, so a reading at the
    end would measure speed as well as memory.
    """
    from repro.core.cache import clear_caches
    from repro.service import PlanServiceError

    phase = Phase(probe=SpeedProbe())
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        payload = next(stream)
        i = len(phase.payloads)
        if i == RSS_AFTER:
            phase.rss_mb = peak_rss_mb()
        if i % COLD_RESET == 0:
            clear_caches()
        if i % PROBE_EVERY == 0:
            phase.probe.sample()
        phase.payloads.append(payload)
        phase.ok.append(False)
        phase.digests.append(None)
        response = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            response = await client.request(payload, timeout=REQUEST_TIMEOUT)
        except (PlanServiceError, ConnectionError):
            pass
        cpu = time.process_time() - cpu0
        if slowdown != 1.0:
            # Harness-side synthetic slowdown for the comparison self-check.
            end = time.process_time() + (slowdown - 1.0) * cpu
            while time.process_time() < end:
                pass
            cpu = time.process_time() - cpu0
        phase.latency_s.append(time.perf_counter() - wall0)
        phase.cpu_s.append(cpu)
        _answer(phase, i, response)
    phase.probe.sample()
    return phase


async def open_loop(pick, payloads: List[dict], rate: float, spans: Spans) -> Phase:
    """Send ``payloads`` at ``rate``; ``pick(i, payload)`` chooses the connection."""
    from repro.service import PlanServiceError

    loop = asyncio.get_running_loop()
    count = len(payloads)
    phase = Phase(payloads=payloads, rate=rate)
    phase.ok = [False] * count
    phase.digests = [None] * count
    phase.latency_s = [0.0] * count
    phase.lag_s = [0.0] * count
    parent = spans.current

    async def one(i: int, due: float) -> None:
        start = time.perf_counter()
        response = None
        try:
            response = await pick(i, payloads[i]).request(payloads[i], timeout=REQUEST_TIMEOUT)
        except (PlanServiceError, ConnectionError):
            pass
        phase.latency_s[i] = loop.time() - due
        _answer(phase, i, response)
        spans.add(f"client.{payloads[i]['type']}", start, time.perf_counter(), parent, i)

    t0 = loop.time() + 0.02
    tasks = []
    for i in range(count):
        due = t0 + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lag_s[i] = max(0.0, loop.time() - due)
        tasks.append(loop.create_task(one(i, due)))
    phase.backlog = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    return phase


# -- expected answers ------------------------------------------------------------------


def expected_digest(payload: dict) -> str:
    """Digest of the in-process answer, ``plan(PlanRequest(n, m))``."""
    from repro.service import PlanRequest, plan

    request = PlanRequest(n=payload["n"], m=payload["m"])
    return digest(json.loads(json.dumps(plan(request).to_dict())))


def check_answers(phases: Sequence[Phase]) -> Tuple[int, int]:
    """Compare every answer with the in-process plan; ``(checked, wrong)``."""
    memo: Dict[str, str] = {}
    checked = wrong = 0
    for phase in phases:
        for payload, answer in zip(phase.payloads, phase.digests):
            if answer is None:
                continue
            key = json.dumps(payload, sort_keys=True)
            if key not in memo:
                memo[key] = expected_digest(payload)
            checked += 1
            wrong += answer != memo[key]
    return checked, wrong


# -- the run ----------------------------------------------------------------------


class DirectToOwner:
    """Sends each request straight to the shard that owns its plan key."""

    def __init__(self, ring, shard_clients: Dict[int, object]) -> None:
        self.ring = ring
        self.shard_clients = shard_clients

    def __call__(self, i: int, payload: dict):
        from repro.cluster.ring import plan_key

        return self.shard_clients[self.ring.lookup(plan_key(payload["n"], payload["m"]))]


async def run_service(seed: int, seconds: float, spans: Spans, profiler, slowdown: float) -> dict:
    """Untraced: the closed loop for ``seconds``.  Traced: closed loop halves,
    the open loop and the direct-to-shard open loop."""
    from repro.cluster.ring import HashRing
    from repro.service import PlanClient

    host = ServiceHost()
    port = await host.start()
    inputs = Inputs(seed)
    clients = [await PlanClient.connect("127.0.0.1", port) for _ in range(2)]
    out: dict = {}
    try:
        before = cache_counts()
        if not spans.enabled:
            phase = await closed_loop(clients[0], inputs.stream(), seconds, slowdown)
            out["closed"] = phase
            out["phases"] = [phase]
            out["cache"] = (before, cache_counts())
            return out

        # Untraced then traced halves of the closed loop: the difference
        # is the tracing overhead.
        spans.enabled = False
        first = await closed_loop(clients[0], inputs.stream(), seconds * 0.2)
        spans.enabled = True
        profiler.start()
        with spans.span("phase.closed_traced"):
            second = await closed_loop(clients[0], inputs.stream(), seconds * 0.2)
        rate = OPEN_LOOP_RATE
        host.reset()
        stats_before = host.stats()
        with spans.span("phase.open_loop"):
            opened = await open_loop(
                lambda i, payload: clients[i % 2],
                inputs.take(int(rate * seconds * 0.4)), rate, spans,
            )
        out["stats"] = host.stats()
        out["stats_before"] = stats_before
        profiler.stop()
        out["cache"] = (before, cache_counts())
        out.update(halves=(first, second), open=opened)
        out["phases"] = [first, second, opened]
        # The same mix sent straight to each key's owning shard: the p50
        # difference to the open loop is the router hop.
        mapping = await clients[0].request({"type": "shard_map"})
        ring = HashRing.from_map(mapping["map"])
        shard_clients = {
            int(sid): await PlanClient.connect(spec["host"], spec["port"])
            for sid, spec in mapping["shards"].items()
        }
        try:
            with spans.span("phase.direct"):
                direct = await open_loop(
                    DirectToOwner(ring, shard_clients), inputs.take(int(rate * seconds * 0.2)),
                    rate, spans,
                )
        finally:
            for client in shard_clients.values():
                await client.close()
        out["direct"] = direct
        out["phases"].append(direct)
        return out
    finally:
        for client in clients:
            await client.close()
        await host.shutdown()


def service_metrics(raw: dict) -> Dict[str, float]:
    """End-to-end metrics of a service run (tracing off), at the reference speed.

    Each request's host CPU time is scaled by the speed probes around
    it (see :class:`common.SpeedProbe`); the metrics are the median,
    p99 and throughput of the whole closed loop.
    """
    closed: Phase = raw["closed"]
    scaled = closed.probe.scaled(closed.cpu_s, PROBE_EVERY)
    cpu = [v * 1e3 for v, ok in zip(scaled, closed.ok) if ok]
    return {
        "cpu_p50_ms": median(cpu),
        "cpu_p99_ms": percentile(cpu, 0.99),
        "throughput_per_s": len(cpu) / (sum(cpu) / 1e3),
        "peak_rss_mb": closed.rss_mb if closed.rss_mb is not None else peak_rss_mb(),
    }
