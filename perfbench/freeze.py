"""Freeze the digests that default-seed runs are checked against.

Run from the root of a checkout, on a commit whose outputs are trusted::

    python3 perfbench/freeze.py

Each workload is first cross-checked (``fast`` against ``reference``
on a prefix) at the default seed, then run once; ``digests.json``
records its digest together with the parameters it holds for.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, load_program


def main() -> int:
    if load_program() is None:
        return 2
    from cases import DEFAULT_SEED, WORKLOADS, make_case
    from harness import DIGESTS_PATH

    workdir = ROOT / ".perfbench_work" / "freeze"
    frozen = {}
    try:
        for name in WORKLOADS:
            case = make_case(name, DEFAULT_SEED)
            ctx = case.prepare()
            problems = case.crosscheck(ctx)
            out = case.run(case.build(ctx, workdir))
            problems += out.problems
            if out.bad_ops:
                problems.append(f"{out.bad_ops} ops failed their check")
            if problems:
                print(f"{name}: not frozen: {'; '.join(problems)}", file=sys.stderr)
                return 1
            frozen[name] = {"params": case.params, "digest": out.digest}
            print(f"{name}: {out.digest}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
