"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, at a tiny size and a seed without frozen digests
(so the fast-versus-reference cross-check runs):

* an untraced and a traced run report exactly the metric names and
  units that ``BENCHMARK.json`` declares, with no failed check;
* a run given a deliberately corrupted digest reports failures, so the
  correctness check is shown to be able to fail.

Finally ``run.py`` must refuse, with a non-zero status and no result
line, in a directory holding only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import ROOT, load_program

TINY = {
    "scd-paper": {"rounds": 64, "prefix_rounds": 32},
    "rr-wide": {"rounds": 64, "prefix_rounds": 32},
    # Three blocks: two checkpoints, so keep=2 pruning runs.
    "rr-sized-ckpt": {"rounds": 768, "prefix_rounds": 32},
    "scd-decide": {"snapshot_rounds": 10, "snapshots": 50, "prefix_snapshots": 10},
}
SEED = 1
SECONDS = 0.01


def main() -> int:
    import_s = load_program()
    if import_s is None:
        return 2
    from cases import DEFAULT_SEED, WORKLOADS, make_case
    from harness import measure

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            errors.append(message)

    check(SEED != DEFAULT_SEED, "self-test seed has no frozen digest")
    check(set(TINY) == set(WORKLOADS), "every workload has a tiny size")
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the harness's workloads",
    )
    workdir = ROOT / ".perfbench_work" / "selftest"
    try:
        for name in WORKLOADS:
            case = make_case(name, SEED, **TINY[name])
            for trace in (0, 1):
                report = measure(
                    case, SECONDS, bool(trace), workdir, import_s
                )
                units = {k: v["unit"] for k, v in report.metrics.items()}
                check(
                    report.correct and report.failed == 0,
                    f"{name} trace={trace}: correct, {report.attempted} checks "
                    f"attempted {report.problems or ''}",
                )
                check(units == declared[trace], f"{name} trace={trace}: metric names and units")
                if trace == 0:
                    check(
                        all(v["value"] > 0 for v in report.metrics.values()),
                        f"{name}: every end-to-end metric is positive",
                    )
            corrupted = measure(
                case, SECONDS, False, workdir, import_s,
                expected={"corrupted": "digest"},
            )
            check(
                corrupted.failed > 0 and not corrupted.correct,
                f"{name}: a corrupted digest is reported as failed "
                f"({corrupted.failed}/{corrupted.attempted})",
            )

        bare = workdir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scd-paper",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(
            done.returncode != 0 and '"correct"' not in done.stdout,
            f"bare directory: exit status {done.returncode}, no result line",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
