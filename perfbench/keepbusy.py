"""Spin at the lowest CPU priority until the parent process exits or kills it.

``run.py`` starts one on the CPU it is pinned to, so that CPU never goes
idle while the benchmark waits (a batch window, a socket, a thread hop).
Without it, code that runs in short bursts slowed less than the speed
probe when the host slowed, and the probe over-corrected it (see
``NOTES.md``, "Scaling to a reference speed").  At ``SCHED_IDLE`` the
spinner runs only when nothing else on the CPU can.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    parent = int(sys.argv[1])
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
