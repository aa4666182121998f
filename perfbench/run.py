"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ov-4096 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed by name with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` under the current directory; without it the script
exits with status 2 and prints no result.

Before the library is imported, glibc is told to keep freed memory in the
process (see ``keep_freed_memory``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
M_MMAP_THRESHOLD = -3


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def keep_freed_memory() -> None:
    """Have glibc reuse freed memory instead of handing it back to the kernel.

    By default glibc maps every allocation of 128 KiB or more afresh and
    unmaps it when freed, so the numpy temporaries of each oracle call
    page-fault again on every call (about 1600 faults per ``ov-4096``
    count).  On a VM whose kernel returns free pages to the host (virtio
    balloon free page reporting), what a fault costs depends on the host's
    load, and ``ov-4096``'s count time moved with it: the median count
    times of eight 6-s runs, a minute apart, spread 0.24 (quartile distance
    over median) with the default and 0.10 with freed memory kept.  Keeping
    it measures the computation instead of the host; peak memory stays the
    same.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mallopt(M_MMAP_THRESHOLD, 1 << 25)


def load_library() -> None:
    """Import ``fgcount`` from ``./src``, or exit with status 2."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "fgcount" / "__init__.py").is_file():
        _fail("src/fgcount not found; run from the repository root")
    sys.path.insert(0, str(src))
    import fgcount

    if src not in Path(fgcount.__file__).resolve().parents:
        _fail(f"fgcount was imported from {fgcount.__file__}, not from {src}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    keep_freed_memory()
    load_library()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    run = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(bench.report(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
