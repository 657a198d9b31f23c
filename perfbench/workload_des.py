"""The two DES workloads: ``fig_des`` and ``contended_des``.

Both are closed loops over seeded inputs on the paper's testbed: 64
hosts on 16 eight-port switches wired at random, up*/down* routing and
the CCO base ordering.  A *round* is a fixed composition of calls whose
inputs (topology, source, destinations, arrival times) are drawn from
``(workload, seed, round)``, so every round costs about the same and
round 0 is a repeatable reference:

* ``fig_des`` — one call is one :meth:`MulticastSimulator.run` of an
  optimal k-binomial or a binomial tree on FPFS NIs.  A round covers
  every (destinations, packets, tree) cell of :data:`DEST_COUNTS` ×
  :data:`PACKETS` × :data:`TREES` once, in a seeded order.
* ``contended_des`` — one call is one
  :meth:`SessionSimulator.run_sessions` of a flash crowd of
  :data:`SESSION_SIZES` sessions under the ``cda`` scheduler with an
  admission cap; a round is one crowd per topology.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List, Sequence, Tuple

from common import SpeedProbe, Spans, median, percentile

#: Destination counts of the §5.2 figures (Figs. 13b/14b), up to a
#: 63-host broadcast.
DEST_COUNTS = (3, 7, 15, 23, 31, 47, 63)
#: Message sizes in packets (Figs. 13a/14a).  With the counts above the
#: per-call costs are spread finely, so the median call does not jump
#: between two distant cells from one seed to the next.
PACKETS = (1, 2, 4, 8, 16, 24, 32)
#: Trees compared in Fig. 14.
TREES = ("kbinomial", "binomial")
#: Topologies per run.
TOPOLOGIES = 4

#: Group sizes of one flash crowd: the 8 midpoint quantiles of a
#: Zipf(0.9) over 1..31 destinations.  Fixing the quantiles (and drawing
#: only who and when from the seed) keeps the work per call equal
#: across seeds while keeping the crowd's many-small, few-huge shape.
SESSION_SIZES = (1, 1, 2, 4, 7, 11, 17, 26)
SESSION_PACKETS = 4
#: Arrival window of a crowd (µs of simulated time).
CROWD_WINDOW = 10.0
#: Concurrent-session admission cap.
MAX_ACTIVE = 4
SCHEDULER = "cda"
#: Livelock guard for each concurrent run (µs of simulated time).
TIME_LIMIT = 1_000_000.0


def build_testbeds(workload: str, seed: int):
    """The run's topologies, routers and CCO orderings; returns (testbeds, ms)."""
    from repro import UpDownRouter, build_irregular_network, cco_ordering

    started = time.perf_counter()
    beds = []
    for t in range(TOPOLOGIES):
        topology = build_irregular_network(seed=hash_seed(workload, seed, "topology", t))
        router = UpDownRouter(topology)
        beds.append((topology, router, tuple(cco_ordering(topology, router))))
    return beds, (time.perf_counter() - started) * 1e3


def hash_seed(*parts) -> int:
    """A stable 32-bit seed from any printable parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest_of(rows: Sequence[tuple]) -> int:
    """48-bit digest of simulated values (exact in a JSON number)."""
    text = "\n".join(repr(row) for row in rows)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


# -- round inputs --------------------------------------------------------------


def fig_round(seed: int, rnd: int, beds) -> List[tuple]:
    """Calls of one fig_des round: (cell, bed index, source, destinations)."""
    rng = random.Random(f"fig_des:{seed}:{rnd}")
    cells = [(d, m, tree) for d in DEST_COUNTS for m in PACKETS for tree in TREES]
    rng.shuffle(cells)
    calls = []
    for cell in cells:
        bed = rng.randrange(len(beds))
        picked = rng.sample(list(beds[bed][0].hosts), cell[0] + 1)
        calls.append((cell, bed, picked[0], tuple(picked[1:])))
    return calls


def crowd_round(seed: int, rnd: int, beds) -> List[tuple]:
    """Calls of one contended_des round: (bed index, sessions), one per topology."""
    from repro.sessions import Session

    rng = random.Random(f"contended_des:{seed}:{rnd}")
    calls = []
    for bed, (topology, _router, _ordering) in enumerate(beds):
        sizes = list(SESSION_SIZES)
        rng.shuffle(sizes)
        arrivals = sorted(rng.uniform(0.0, CROWD_WINDOW) for _ in sizes)
        sessions = []
        for sid, (size, arrival) in enumerate(zip(sizes, arrivals)):
            picked = rng.sample(list(topology.hosts), size + 1)
            sessions.append(Session(
                source=picked[0], destinations=tuple(picked[1:]),
                num_packets=SESSION_PACKETS, arrival_time=arrival, session_id=sid,
            ))
        calls.append((bed, tuple(sessions)))
    return calls


# -- the closed loops ---------------------------------------------------------------


class DesRun:
    """Runs rounds of one DES workload and keeps what the metrics need."""

    def __init__(self, workload: str, seed: int, beds, spans: Spans, slowdown: float = 1.0):
        from repro import MulticastSimulator
        from repro.sessions import SessionSimulator

        self.workload = workload
        self.seed = seed
        self.beds = beds
        self.spans = spans
        self.slowdown = slowdown
        if workload == "fig_des":
            self.sims = [MulticastSimulator(topo, router) for topo, router, _ in beds]
        else:
            self.sims = [
                SessionSimulator(topo, router, ordering, scheduler=SCHEDULER, max_active=MAX_ACTIVE)
                for topo, router, ordering in beds
            ]
        self.call_ms: List[float] = []
        #: Speed probes: one before the first recorded call, one after each.
        self.probe = SpeedProbe()
        self.tree_us: List[float] = []
        self.sends = 0
        self.run_s = 0.0
        self.rid = 0

    def _timed(self, fn, *args):
        """Call ``fn``; return its result and the CPU seconds this thread spent.

        Thread CPU time, not wall time: a DES call is single-threaded and
        CPU-bound, so the two agree except while the host deschedules
        the process, which CPU time leaves out.
        """
        started = time.thread_time()
        out = fn(*args)
        elapsed = time.thread_time() - started
        if self.slowdown != 1.0:
            # Harness-side synthetic slowdown for the comparison self-check.
            _spin((self.slowdown - 1.0) * elapsed)
            elapsed = time.thread_time() - started
        return out, elapsed

    def round(self, rnd: int, record: bool = True) -> List[tuple]:
        """Run one round; return its simulated rows (for the digest)."""
        if self.workload == "fig_des":
            return self._fig_round(rnd, record)
        return self._crowd_round(rnd, record)

    def _fig_round(self, rnd: int, record: bool) -> List[tuple]:
        from repro import build_kbinomial_tree, chain_for
        from repro.core.optimal import optimal_k
        from repro.core.trees import build_binomial_tree

        rows = []
        with self.spans.span("des.round"):
            for (d, m, kind), bed, source, dests in fig_round(self.seed, rnd, self.beds):
                self.rid += 1
                ordering = self.beds[bed][2]
                with self.spans.span("mcast.chain_for", self.rid):
                    chain = chain_for(source, dests, ordering)
                started = time.thread_time()
                with self.spans.span("core.tree_build", self.rid):
                    if kind == "kbinomial":
                        tree = build_kbinomial_tree(chain, optimal_k(len(chain), m))
                    else:
                        tree = build_binomial_tree(chain)
                tree_s = time.thread_time() - started
                with self.spans.span("mcast.run", self.rid):
                    result, elapsed = self._timed(self.sims[bed].run, tree, m)
                if record:
                    self.call_ms.append(elapsed * 1e3)
                    self.probe.sample()
                    self.tree_us.append(tree_s * 1e6)
                    self.sends += d * m
                    self.run_s += elapsed
                rows.append((
                    d, m, kind, result.latency, result.completion_time,
                    result.blocked_time, result.max_peak_buffer,
                ))
        return rows

    def _crowd_round(self, rnd: int, record: bool) -> List[tuple]:
        rows = []
        with self.spans.span("des.round"):
            for bed, sessions in crowd_round(self.seed, rnd, self.beds):
                self.rid += 1
                sim = self.sims[bed]
                with self.spans.span("sessions.run_sessions", self.rid):
                    result, elapsed = self._timed(sim.run_sessions, sessions, TIME_LIMIT)
                if record:
                    self.call_ms.append(elapsed * 1e3)
                    self.probe.sample()
                    self.sends += sum(len(s.destinations) * s.num_packets for s in sessions)
                    self.run_s += elapsed
                peak = max(r.result.max_peak_buffer for r in result.results)
                rows.append((
                    bed, result.makespan, result.blocked_time, result.mean_queueing,
                    peak, result.latencies,
                ))
        return rows

    # -- deterministic per-round statistics (round 0) ------------------------

    def sim_stats(self, rows: List[tuple]) -> Dict[str, float]:
        """Simulated statistics of one round's rows; identical on every repeat."""
        if self.workload == "fig_des":
            return {
                "network.blocked_us": sum(r[5] for r in rows),
                "nic.peak_buffer": max(r[6] for r in rows),
                "sessions.makespan_us": 0.0,
                "sessions.queueing_us": 0.0,
                "mcast.sim_latency_digest": digest_of(rows),
            }
        return {
            "network.blocked_us": sum(r[2] for r in rows),
            "nic.peak_buffer": max(r[4] for r in rows),
            "sessions.makespan_us": sum(r[1] for r in rows),
            "sessions.queueing_us": sum(r[3] for r in rows),
            "mcast.sim_latency_digest": digest_of(rows),
        }

    def channel_acquisitions(self, rnd: int) -> int:
        """Σ over tree edges of route length × packets, for one round."""
        from repro import build_kbinomial_tree, chain_for
        from repro.core.optimal import optimal_k
        from repro.core.trees import build_binomial_tree

        total = 0
        if self.workload == "fig_des":
            for (d, m, kind), bed, source, dests in fig_round(self.seed, rnd, self.beds):
                chain = chain_for(source, dests, self.beds[bed][2])
                tree = (
                    build_kbinomial_tree(chain, optimal_k(len(chain), m))
                    if kind == "kbinomial" else build_binomial_tree(chain)
                )
                router = self.beds[bed][1]
                total += m * sum(len(router.route(p, c)) for p, c in tree.edges())
            return total
        for bed, sessions in crowd_round(self.seed, rnd, self.beds):
            sim = self.sims[bed]
            for session in sessions:
                tree = sim.plan_session(session).tree
                total += session.num_packets * sum(
                    len(sim.router.route(p, c)) for p, c in tree.edges()
                )
        return total

    def plan_keys(self, rnd: int) -> List[Tuple[int, int]]:
        """The (n, m) plan keys one round's multicasts use."""
        if self.workload == "fig_des":
            return sorted({(d + 1, m) for (d, m, _), *_ in fig_round(self.seed, rnd, self.beds)})
        keys = set()
        for _bed, sessions in crowd_round(self.seed, rnd, self.beds):
            keys.update((s.n, s.num_packets) for s in sessions if s.n >= 2)
        return sorted(keys)


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def run_des(workload: str, seed: int, seconds: float, beds, spans: Spans, profiler, slowdown: float):
    """The measured closed loop.  Returns a dict of raw results.

    The loop runs until ``seconds`` of wall time pass; its timings are
    CPU seconds of this thread (see :meth:`DesRun._timed`).

    Round 0 runs first, untimed: it warms the routers' route caches and
    is the simulated reference.  Timed rounds follow until ``seconds``
    pass; with tracing on, odd rounds run traced (spans + sampling
    profiler) and even rounds untraced, so one run yields both the
    layer numbers and the tracing overhead (from round wall times: the
    profiler's thread slows the loop by holding the interpreter lock,
    which CPU time would not show).  Round 0 is run again at the
    end and must reproduce its simulated statistics exactly.
    """
    runner = DesRun(workload, seed, beds, spans, slowdown)
    spans_on, spans.enabled = spans.enabled, False
    reference = runner.sim_stats(runner.round(0, record=False))
    round_s = {True: [], False: []}
    runner.probe.sample()
    started = time.perf_counter()
    cpu_started = time.thread_time()
    rnd = 1
    while time.perf_counter() - started < seconds:
        traced = spans_on and rnd % 2 == 1
        spans.enabled = traced
        if traced and profiler is not None:
            profiler.start()
        t0 = time.perf_counter()
        runner.round(rnd)
        round_s[traced].append(time.perf_counter() - t0)
        if traced and profiler is not None:
            profiler.stop()
        rnd += 1
    wall_s = time.perf_counter() - started
    # The loop's CPU time, less the speed probes taken inside it.
    cpu_s = time.thread_time() - cpu_started - sum(runner.probe.ms[1:]) / 1e3
    spans.enabled = False
    repeat = runner.sim_stats(runner.round(0, record=False))
    spans.enabled = spans_on
    return {
        "runner": runner,
        "rounds": rnd - 1,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "reference": reference,
        "repeatable": repeat == reference,
        "round_s": round_s,
    }


def des_metrics(raw: dict) -> Dict[str, float]:
    """End-to-end metrics of a DES run (tracing off), at the reference speed."""
    runner: DesRun = raw["runner"]
    scaled = runner.probe.scaled(runner.call_ms)
    return {
        "cpu_p50_ms": median(scaled),
        "cpu_p99_ms": percentile(scaled, 0.99),
        "throughput_per_s": runner.sends / (sum(scaled) / 1e3),
    }
