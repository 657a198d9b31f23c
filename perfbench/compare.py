"""Compare two sets of benchmark runs, and check that the comparison works.

Compare two result sets written by ``run.py --out DIR``::

    python3 perfbench/compare.py perfbench/out/base perfbench/out/new

For each workload and end-to-end metric it prints both medians, the
base set's spread (quartile distance over median) and a verdict:

* ``ok`` — the new median is not worse than the base by more than the
  metric's bound in ``BENCHMARK.json``;
* ``REGRESSED`` — it is, and the base spread is below the bound;
* ``unresolved`` — the base set's own spread exceeds the bound, so no
  verdict is given either way.

Sets from hosts with different fingerprints (CPU model, ``nproc``,
Python, numpy) are never compared: the verdict is refused instead of
reporting the host difference as a regression.

Self-check (A/A agreement plus a caught synthetic slowdown)::

    python3 perfbench/compare.py --selfcheck --workload fig_des --seeds 5 --seconds 10

runs ``2 × seeds`` unmodified runs as two sets that must agree, then a
set with ``run.py --slowdown`` (the harness stretches every timed
operation; the program is untouched) whose timing metrics must be
flagged.  Exit status 0 means the self-check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from common import OUT_DIR, ROOT

#: Metrics the synthetic slowdown stretches (set-up and memory it leaves alone).
TIMED_METRICS = ("cpu_p50_ms", "cpu_p99_ms", "throughput_per_s")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_set(directory: Path) -> Dict[str, List[dict]]:
    """Untraced run records of one set, by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["manifest"]["workload"], []).append(record)
    return runs


def spread(values: List[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def fingerprints(records: List[dict]) -> set:
    return {json.dumps(r["manifest"]["host"], sort_keys=True) for r in records}


def compare_sets(base: Dict[str, List[dict]], new: Dict[str, List[dict]], spec: dict) -> List[dict]:
    """One row per (workload, metric) present in both sets."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        hosts = fingerprints(base[workload]) | fingerprints(new[workload])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            n = [r["result"]["metrics"][name]["value"] for r in new[workload]]
            b_med, n_med = statistics.median(b), statistics.median(n)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
            noise = spread(b)
            if len(hosts) > 1:
                verdict = "refused (different hosts)"
            elif noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "base": b_med, "new": n_med,
                "worse": worse, "bound": bound, "base_spread": noise,
                "runs": (len(b), len(n)), "verdict": verdict,
            })
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':14s} {'metric':18s} {'base':>11s} {'new':>11s} {'worse':>8s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:18s} {row['base']:11.4g} {row['new']:11.4g} "
              f"{row['worse']:+8.3f} {row['bound']:6.2f} {row['base_spread']:7.3f}  {row['verdict']}")


def run_set(directory: Path, workload: str, seeds: List[int], seconds: int, slowdown: float) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.json"):
        stale.unlink()
    for seed in seeds:
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0", "--slowdown", str(slowdown), "--out", str(directory),
        ]
        done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"run failed ({' '.join(command)}):\n{done.stdout}{done.stderr}")
        print(f"  {directory.name}: {workload} seed {seed} done", flush=True)


def check_spec(spec: dict) -> List[str]:
    """Problems between BENCHMARK.json and the metric tables in run.py."""
    import run

    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} != {table}")
    if set(w["name"] for w in spec["workloads"]) != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def selfcheck(workload: str, count: int, seconds: int, slowdown: float, root: Path) -> int:
    spec = load_spec()
    problems = check_spec(spec)
    seeds_a = list(range(1, count + 1))
    seeds_b = list(range(count + 1, 2 * count + 1))
    run_set(root / "a", workload, seeds_a, seconds, 1.0)
    run_set(root / "b", workload, seeds_b, seconds, 1.0)
    run_set(root / "slow", workload, seeds_b, seconds, slowdown)
    a, b, slow = load_set(root / "a"), load_set(root / "b"), load_set(root / "slow")
    print(f"A/A: {workload}, seeds {seeds_a} against {seeds_b}")
    aa = compare_sets(a, b, spec)
    print_rows(aa)
    print(f"synthetic slowdown x{slowdown}: seeds {seeds_a} against {seeds_b}")
    caught = compare_sets(a, slow, spec)
    print_rows(caught)
    problems += [f"A/A flagged {r['metric']}" for r in aa if r["verdict"] == "REGRESSED"]
    problems += [
        f"slowdown not caught on {r['metric']} ({r['verdict']})"
        for r in caught if r["metric"] in TIMED_METRICS and r["verdict"] != "REGRESSED"
    ]
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", type=Path)
    parser.add_argument("new", nargs="?", type=Path)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--workload", default="fig_des")
    parser.add_argument("--seeds", type=int, default=5, help="runs per set in the self-check")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--slowdown", type=float, default=1.5)
    parser.add_argument("--dir", type=Path, default=OUT_DIR / "selfcheck")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.workload, args.seeds, args.seconds, args.slowdown, args.dir)
    if args.base is None or args.new is None:
        parser.error("give two result directories, or --selfcheck")
    rows = compare_sets(load_set(args.base), load_set(args.new), load_spec())
    print_rows(rows)
    return 1 if any(r["verdict"] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
