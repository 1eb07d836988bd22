"""Set up one workload in a fresh interpreter and say ``ready``.

``run.py`` times this script from process start to the ``ready`` line:
that is ``setup_s``, the cost of getting from nothing to a system that
can take its first campaign or request.  Usage::

    python3 perfbench/setup_probe.py <workload> <scratch dir>
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, work = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.make_workload(workload, work)
    try:
        if workload == "rush_hour":
            wl.start("setup", 1)
        else:
            wl.build()
        print("ready", flush=True)
    finally:
        if workload == "rush_hour":
            wl.stop()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
