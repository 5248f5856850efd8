"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scd-paper --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  Every metric is printed by name with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program is imported from ``src/`` of the checkout
this script sits in; without it the script exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> float | None:
    """Import ``repro`` from this checkout's ``src/``; its import seconds.

    Returns ``None`` (after saying why on stderr) when the source is
    missing or another copy of ``repro`` would be imported.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import repro

    import_s = perf_counter() - start
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return None
    return import_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_program()
    if import_s is None:
        return 2

    import numpy as np

    from cases import WORKLOADS, make_case
    from harness import frozen_digest, measure

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    case = make_case(args.workload, args.seed)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        report = measure(
            case,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            import_s=import_s,
            src=None if args.trace else SRC,
            expected=frozen_digest(case),
            spans_path=(
                ROOT / ".perfbench_out" / f"spans-{case.name}-seed{args.seed}.npz"
            ),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use, or never made
            workdir.parent.rmdir()

    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} "
        f"numba={'present' if importlib.util.find_spec('numba') else 'absent'}"
    )
    print(f"params {json.dumps(case.params, sort_keys=True)}")
    print(f"why {case.why}")
    for line in report.lines:
        print(line)
    for problem in report.problems:
        print(f"FAILED {problem}")
    print(
        f"failed_share = {report.failed}/{report.attempted} = "
        f"{report.failed / max(report.attempted, 1):.6g}"
    )
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
