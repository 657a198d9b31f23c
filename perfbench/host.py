"""Set one workload up in a fresh interpreter, print ``ready``, and exit.

``run.py`` spawns this script to time set-up from a cold start
(``setup_s``): the program's imports plus

* DES workloads: the run's testbeds (topologies, up*/down* routers,
  CCO orderings);
* ``plan_cold``: the servers (two plan-server shards behind a cluster
  router).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from common import use_source_tree


async def start_and_stop() -> None:
    from workload_service import ServiceHost

    host = ServiceHost()
    try:
        await host.start()
        print("ready", flush=True)
    finally:
        await host.shutdown()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_source_tree()
    if args.workload in ("fig_des", "contended_des"):
        from workload_des import build_testbeds

        import repro.sessions  # noqa: F401  (imported by the contended loop)

        build_testbeds(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    asyncio.run(start_and_stop())
    return 0


if __name__ == "__main__":
    sys.exit(main())
