"""One timed-run harness shared by every workload.

:func:`measure` runs a :class:`~cases.Case` for a wall-clock budget:

* **Set-up** (``setup_s``): importing ``repro`` (several fresh
  interpreters plus this process), ``prepare`` (several times) and each
  repetition's ``build``; the medians are added.
* **Correctness**: every repetition's digest must equal the first one's
  (same seed, same work), and at the default seed the frozen digest in
  ``digests.json``; at any other seed ``crosscheck`` compares the
  ``fast`` kernel with the ``reference`` kernel.  Each failed check
  counts in ``failed``.
* **Untraced runs** give the end-to-end metrics; **traced runs**
  alternate untraced and traced repetitions and give the per-layer
  metrics, with the traced repetitions' digests checked against the
  untraced ones.
* **Host speed**: every end-to-end time is scaled to a nominal host
  speed by :class:`HostSpeed`, timed around each repetition and each
  set-up sample; the raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core import scd
from repro.policies.round_robin import RoundRobinPolicy
from repro.runs import CheckpointController, CheckpointStore, Run, TelemetryWriter
from repro.sim.arrivals import PoissonArrivals
from repro.sim.batchstore import BatchQueueStore, SizedBatchQueueStore
from repro.sim.engine import Simulation
from repro.sim.probes import ProbeSet
from repro.sim.service import GeometricService
from repro.sim.sized import GeometricSize, SizedSimulation

from cases import DEFAULT_SEED, Case, Outcome
from tracer import Patches, Tracer

__all__ = ["END_TO_END", "PER_LAYER", "Report", "measure", "frozen_digest"]

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Counts are per
#: repetition; ``_pct`` times are shares of the traced engine wall time.
PER_LAYER = {
    "core.iwl.calls": "count",
    "core.iwl.busy_pct": "%",
    "core.probabilities.calls": "count",
    "core.probabilities.busy_pct": "%",
    "core.solves_per_dispatch": "ratio",
    "core.scd_decision.self_pct": "%",
    "policies.dispatch.calls": "count",
    "policies.dispatch.busy_pct": "%",
    "policies.dispatch_round.calls": "count",
    "policies.dispatch_round.busy_pct": "%",
    "policies.dispatch_rounds.busy_pct": "%",
    "policies.begin_round.busy_pct": "%",
    "sim.presample.calls": "count",
    "sim.presample.busy_pct": "%",
    "sim.batchstore.calls": "count",
    "sim.batchstore.busy_pct": "%",
    "sim.batchstore.jobs": "count",
    "sim.probes.busy_pct": "%",
    "sim.blockdriver.self_pct": "%",
    "runs.checkpoint.count": "count",
    "runs.checkpoint.busy_pct": "%",
    "runs.checkpoint.bytes": "B",
    "runs.store.write_pct": "%",
    "runs.telemetry.events": "count",
    "runs.telemetry.busy_pct": "%",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Fresh interpreters that time ``import repro`` for ``setup_s``.
IMPORT_SUBPROCESSES = 2
#: ``prepare`` calls timed for ``setup_s``.
PREPARE_SAMPLES = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


class HostSpeed:
    """A fixed reference loop, timed between repetitions.

    The host's speed drifts by up to about 2x over seconds to minutes
    (other tenants share its cores), far more than the effects the
    benchmark must resolve.  The loop mixes interpreter work with
    small-array and large-array numpy work, like the workloads, and
    touches no ``repro`` code, so a change to the program never changes
    its time.  :meth:`factor` gives the time of one loop over its
    nominal time; dividing a repetition's measured times by the mean
    factor of the loops before and after it scales them to the nominal
    host speed.
    """

    #: The loop's time on a quiet 2-vCPU x86_64 host at 2.1 GHz.
    NOMINAL_S = 0.037

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._small = rng.random(100)
        self._large = rng.random(400_000)

    def factor(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(240_000):
            total += i * i
        for _ in range(2_400):
            order = np.argsort(self._small, kind="stable")
            np.cumsum(self._small[order])
        for _ in range(6):
            cum = np.cumsum(self._large)
            np.searchsorted(cum, cum[::997])
            np.sort(self._large[:100_000])
        return (perf_counter() - start) / self.NOMINAL_S

    def scaled(self, fn: Callable[[], float]) -> float:
        """Seconds ``fn`` reports, scaled by the factor around the call."""
        before = self.factor()
        seconds = fn()
        return seconds / ((before + self.factor()) / 2)


@dataclass
class Report:
    """A run's result line plus the human-readable lines before it."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def metric(self, name: str, unit: str, value: float, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def frozen_digest(case: Case) -> dict | None:
    """The frozen digest for ``case`` at the default seed, if one applies."""
    if case.params["seed"] != DEFAULT_SEED or not DIGESTS_PATH.exists():
        return None
    entry = json.loads(DIGESTS_PATH.read_text()).get(case.name)
    if entry is None:
        return None
    if entry["params"] != json.loads(json.dumps(case.params)):
        return {"stale": "digests.json was frozen for other parameters"}
    return entry["digest"]


def import_seconds(src: Path) -> float:
    """``import repro`` wall time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def install_layers(patches: Patches) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    # Before any policy is built: SCDPolicy binds its solver at __init__.
    patches.item(scd.PROBABILITY_ALGORITHMS, "vectorized", "core.probabilities")
    patches.name(scd, "compute_iwl", "core.iwl")
    patches.name(scd, "scd_decision", "core.scd_decision")
    for cls in (scd.SCDPolicy, RoundRobinPolicy):
        for attr in ("dispatch", "dispatch_round", "dispatch_rounds", "begin_round"):
            patches.method(cls, attr, f"policies.{attr}")
    patches.method(PoissonArrivals, "sample", "sim.presample")
    patches.method(PoissonArrivals, "sample_many", "sim.presample")
    patches.method(GeometricService, "sample_many", "sim.presample")
    patches.method(GeometricSize, "sample", "sim.presample")
    patches.method(
        BatchQueueStore, "process_block", "sim.batchstore",
        count=lambda args, kwargs, result: int(args[2].sum()),
    )
    patches.method(
        SizedBatchQueueStore, "process_block", "sim.batchstore",
        count=lambda args, kwargs, result: len(args[2]),
    )
    patches.method(ProbeSet, "observe_block", "sim.probes")
    patches.method(ProbeSet, "observe_responses", "sim.probes")
    patches.method(Simulation, "run", "sim.blockdriver")
    patches.method(SizedSimulation, "run", "sim.blockdriver")
    patches.method(Run, "execute", "runs.execute")
    patches.method(CheckpointController, "after_block", "runs.checkpoint")
    patches.method(
        CheckpointStore, "write", "runs.store",
        count=lambda args, kwargs, result: result["bytes"],
    )
    patches.method(TelemetryWriter, "emit", "runs.telemetry")


def layer_metrics(tracer: Tracer, reps: int, wall: float, overhead: float) -> dict[str, float]:
    """The :data:`PER_LAYER` values from a tracer's spans."""
    times = tracer.layer_times()
    empty = {"calls": 0.0, "busy": 0.0, "self": 0.0}

    def t(name: str) -> dict[str, float]:
        return times.get(name, empty)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    dispatches = t("policies.dispatch")["calls"]
    return {
        "core.iwl.calls": t("core.iwl")["calls"] / reps,
        "core.iwl.busy_pct": pct(t("core.iwl")["busy"]),
        "core.probabilities.calls": t("core.probabilities")["calls"] / reps,
        "core.probabilities.busy_pct": pct(t("core.probabilities")["busy"]),
        "core.solves_per_dispatch": (
            t("core.iwl")["calls"] / dispatches if dispatches else 0.0
        ),
        "core.scd_decision.self_pct": pct(t("core.scd_decision")["self"]),
        "policies.dispatch.calls": dispatches / reps,
        "policies.dispatch.busy_pct": pct(t("policies.dispatch")["busy"]),
        "policies.dispatch_round.calls": t("policies.dispatch_round")["calls"] / reps,
        "policies.dispatch_round.busy_pct": pct(t("policies.dispatch_round")["busy"]),
        "policies.dispatch_rounds.busy_pct": pct(t("policies.dispatch_rounds")["busy"]),
        "policies.begin_round.busy_pct": pct(t("policies.begin_round")["busy"]),
        "sim.presample.calls": t("sim.presample")["calls"] / reps,
        "sim.presample.busy_pct": pct(t("sim.presample")["busy"]),
        "sim.batchstore.calls": t("sim.batchstore")["calls"] / reps,
        "sim.batchstore.busy_pct": pct(t("sim.batchstore")["busy"]),
        "sim.batchstore.jobs": tracer.counters.get("sim.batchstore", 0) / reps,
        "sim.probes.busy_pct": pct(t("sim.probes")["busy"]),
        "sim.blockdriver.self_pct": pct(t("sim.blockdriver")["self"]),
        "runs.checkpoint.count": t("runs.store")["calls"] / reps,
        "runs.checkpoint.busy_pct": pct(t("runs.checkpoint")["busy"]),
        "runs.checkpoint.bytes": tracer.counters.get("runs.store", 0) / reps,
        "runs.store.write_pct": pct(t("runs.store")["busy"]),
        "runs.telemetry.events": t("runs.telemetry")["calls"] / reps,
        "runs.telemetry.busy_pct": pct(t("runs.telemetry")["busy"]),
        "trace.overhead_ratio": overhead,
        "trace.wall_s": wall,
    }


def _check(report: Report, out: Outcome, reference: dict | None, label: str) -> None:
    """Count one repetition's checks and failures."""
    report.attempted += out.attempts
    if out.bad_ops:
        report.fail(out.bad_ops, f"{label}: {out.bad_ops} ops failed their check")
    elif out.problems:
        report.fail(out.attempts, f"{label}: " + "; ".join(out.problems))
    elif reference is not None and out.digest != reference:
        report.fail(out.attempts, f"{label}: digest {out.digest} != {reference}")


def measure(
    case: Case,
    seconds: float,
    trace: bool,
    workdir: Path,
    import_s: float,
    src: Path | None = None,
    expected: dict | None = None,
    spans_path: Path | None = None,
) -> Report:
    """Run ``case`` for ``seconds`` and return its :class:`Report`.

    ``import_s`` is this process's own ``import repro`` time; ``src``
    (when given, untraced runs only) adds fresh-interpreter samples.
    ``expected`` is the digest every repetition must match (the frozen
    one at the default seed); without it ``crosscheck`` runs instead.
    """
    report = Report()
    host = HostSpeed()
    # Set-up samples, each scaled by the host factor measured around it.
    setup = {"import": [import_s / host.factor()], "prepare": [], "build": []}
    ctx = None

    def prepare() -> float:
        nonlocal ctx
        start = perf_counter()
        ctx = case.prepare()
        return perf_counter() - start

    for _ in range(1 if trace else PREPARE_SAMPLES):
        setup["prepare"].append(host.scaled(prepare))

    if expected is None:
        report.attempted += 1
        problems = case.crosscheck(ctx)
        if problems:
            report.fail(1, "crosscheck: " + "; ".join(problems))
        reference = None
    else:
        reference = expected

    build_s: list[float] = []  # raw; scaled by each repetition's factor
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    tracer = Tracer()

    def repetition(use_trace: bool) -> Outcome:
        start = perf_counter()
        if not use_trace:
            obj = case.build(ctx, workdir)
            build_s.append(perf_counter() - start)
            return case.run(obj)
        with Patches(tracer) as patches:
            install_layers(patches)
            obj = case.build(ctx, workdir)
            build_s.append(perf_counter() - start)
            return case.run(obj)

    # The first repetition warms caches and lazy imports; it is checked
    # but not timed.
    deadline = None
    try:
        while True:
            use_trace = trace and len(traced) < len(untraced)
            out = repetition(use_trace)
            if deadline is None:
                label = "warm-up repetition"
            else:
                label = f"{'traced' if use_trace else 'untraced'} repetition"
                (traced if use_trace else untraced).append(out)
                after = host.factor()
                out.host = (before + after) / 2
                before = after
            _check(report, out, reference, label)
            if reference is None:
                reference = out.digest
            if deadline is None:
                build_s.clear()
                before = host.factor()
                deadline = perf_counter() + seconds
            elif perf_counter() >= deadline and len(traced) == (trace and len(untraced)):
                break
    except Exception as exc:  # a broken program is a failed run, reported
        report.attempted += 1
        report.fail(1, f"repetition raised {type(exc).__name__}: {exc}")

    report.lines.append(
        f"workload {case.name} seed {case.params['seed']}: "
        f"{len(untraced)} untraced + {len(traced)} traced repetitions of "
        f"{untraced[0].work if untraced else 0} ops ({case.op})"
    )
    if not untraced:
        return report

    if trace:
        if traced:
            wall = sum(o.wall for o in traced)
            overhead = (
                statistics.median(o.wall / o.host for o in traced)
                / statistics.median(o.wall / o.host for o in untraced)
                - 1.0
            )
            for name, value in layer_metrics(tracer, len(traced), wall, overhead).items():
                report.metric(name, PER_LAYER[name], value)
            report.lines.append(f"trace: {len(tracer)} spans in {len(traced)} repetitions")
            if spans_path is not None:
                tracer.write(spans_path)
                report.lines.append(f"trace: spans written to {spans_path}")
        return report

    # Every end-to-end time is scaled to the nominal host speed; the raw
    # figures are printed beside it.
    host_median = statistics.median(o.host for o in untraced)
    report.lines.append(
        f"host speed factor: median {host_median:.4f} over {len(untraced)} "
        f"repetitions (min {min(o.host for o in untraced):.4f}, "
        f"max {max(o.host for o in untraced):.4f}; 1 = nominal)"
    )
    raw_rate = statistics.median(o.work / o.wall for o in untraced)
    report.metric(
        "ops_per_s", "1/s", statistics.median(o.work * o.host / o.wall for o in untraced),
        f"median of {len(untraced)} repetitions, raw {raw_rate:.6g}; op: {case.op}",
    )
    # A latency percentile is taken within each repetition and the median
    # over repetitions reported, so one disturbed repetition cannot move it.
    per_rep = min(o.latencies_us.size for o in untraced)
    for q in (50, 99):
        values = [float(np.percentile(o.latencies_us / o.host, q)) for o in untraced]
        raw = [float(np.percentile(o.latencies_us, q)) for o in untraced]
        beyond = min(
            int(np.count_nonzero(o.latencies_us / o.host > v)) for o, v in zip(untraced, values)
        )
        report.metric(
            f"op_us_p{q}", "us", statistics.median(values),
            f"median over {len(untraced)} repetitions of {per_rep}+ samples each, "
            f"at least {beyond} beyond in each; raw {statistics.median(raw):.6g}",
        )
    if src is not None:
        for _ in range(IMPORT_SUBPROCESSES):
            setup["import"].append(host.scaled(lambda: import_seconds(src)))
    setup["build"] = [b / o.host for b, o in zip(build_s, untraced)]
    medians = {part: statistics.median(v) for part, v in setup.items()}
    report.metric(
        "setup_s", "s", sum(medians.values()),
        ", ".join(f"{part} median {medians[part]:.4g}s of {len(setup[part])}" for part in setup),
    )
    report.metric(
        "peak_rss_mb", "MB",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return report
