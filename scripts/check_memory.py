"""Bound the peak memory of one world build (the ``make memory-smoke`` gate).

Builds the (1.0, 7) world in this fresh process, the way every build
runs: in one process, in bounded propagation batches and hegemony
partitions (DESIGN §18).  Fails when the process's high-water RSS
(``ru_maxrss``) exceeds :data:`BOUND_MB`.

The bound sits between 1.3× the measured peak of the bounded build
(252 MB on a 2-core Linux host, numpy 2.4, Python 3.11) and the 473 MB
the same build peaked at with unbounded ``batch_paths`` calls and a
64 MiB hegemony partition, so that regression fails it.
Run it with ``PYTHONPATH`` naming the ``src`` tree to check.
"""

from __future__ import annotations

import resource
import sys
import time

#: Peak RSS (MiB) a (1.0, 7) build may reach.
BOUND_MB = 400

SCALE, SEED = 1.0, 7


def main() -> int:
    from repro.scenario.build import build_world

    started = time.perf_counter()
    world = build_world(SCALE, SEED)
    seconds = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = "ok" if peak_mb <= BOUND_MB else "FAIL"
    print(
        f"memory-smoke: build_world({SCALE:g}, {SEED}) "
        f"{len(world.rib.arrays['rib_origin'])} route groups in {seconds:.1f}s, "
        f"peak RSS {peak_mb:.0f} MB (bound {BOUND_MB} MB): {verdict}"
    )
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
