"""The benchmark's four workloads, driven through repro's public API.

Each workload is a :class:`Case`:

``prepare()``
    Inputs that do not change between repetitions (server rates, arrival
    rates; for ``scd-decide`` the decision snapshots).  Timed as set-up.
``build(ctx, workdir)``
    The objects of one repetition, up to the first engine call (the
    simulation; for ``rr-sized-ckpt`` also ``Run.create``).  Timed as
    set-up.
``run(obj)``
    One repetition: the engine call, timed, with per-op latencies.
    Returns an :class:`Outcome` whose digest the harness compares.
``crosscheck(ctx)``
    The check used at seeds without frozen digests: the ``fast`` kernel
    against the ``reference`` kernel, bit for bit, on a short prefix
    (for ``scd-decide``: the vectorized solver against Algorithm 3/4's
    loop forms).

:func:`make_case` builds a workload for one seed.  Every repetition of
a run uses that seed, so all repetitions must produce the same digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro
from repro.analysis.runtime import collect_snapshots
from repro.core import scd as scd_module
from repro.core.iwl import compute_iwl_reference
from repro.core.probabilities import scd_probabilities_loop
from repro.runs import BLOCK_ROUNDS, Run
from repro.sim.lifecycle import RunController

__all__ = ["Case", "Outcome", "WHY", "WORKLOADS", "DEFAULT_SEED", "make_case"]

#: The four extra probes of ``rr-sized-ckpt`` (every built-in probe
#: beyond the default collectors that the sized engine feeds).
EXTRA_PROBES = ("server_stats", "dispatcher_stats", "windowed_mean", "herding")


@dataclass
class Outcome:
    """What one repetition did and produced."""

    work: int  # simulated rounds, or scd_decision calls
    wall: float  # seconds in the engine call(s)
    latencies_us: np.ndarray  # per-op latency samples
    digest: dict
    problems: list[str] = field(default_factory=list)
    #: Checked units: the repetition, or each scd_decision call.
    attempts: int = 1
    bad_ops: int = 0  # ops that failed their own check (scd-decide)
    #: Host speed factor while it ran (set by the harness; 1 = nominal).
    host: float = 1.0


@dataclass
class Case:
    name: str
    why: str
    params: dict
    prepare: Callable[[], Any]
    build: Callable[[Any, Path], Any]
    run: Callable[[Any], Outcome]
    crosscheck: Callable[[Any], list[str]]
    #: What one op is, for the latency lines.
    op: str


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _summaries_sha(result) -> str:
    text = json.dumps(result.probe_summaries(), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _system(p: dict) -> tuple[np.ndarray, np.ndarray]:
    system = repro.SystemSpec(
        num_servers=p["n"], num_dispatchers=p["m"], profile=p["profile"]
    )
    return system.rates(), system.lambdas(p["rho"])


class _BlockClock(RunController):
    """Records the wall clock at every block boundary (no state export)."""

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []

    def after_block(self, next_round: int, export) -> None:
        self.marks.append((next_round, perf_counter()))


def _block_latencies(start: float, marks: list[tuple[int, float]]) -> np.ndarray:
    """Per-round latency (us) of each block, from its boundary marks."""
    out = []
    prev_round, prev_t = 0, start
    for round_, t in marks:
        out.append((t - prev_t) / (round_ - prev_round) * 1e6)
        prev_round, prev_t = round_, t
    return np.array(out)


# -- unit-size simulations (scd-paper, rr-wide) -----------------------------


def _unsized_sim(p: dict, ctx, rounds: int, backend: str) -> repro.Simulation:
    rates, lambdas = ctx
    return repro.Simulation(
        rates=rates,
        policy=repro.make_policy(p["policy"]),
        arrivals=repro.PoissonArrivals(lambdas),
        service=repro.GeometricService(rates),
        config=repro.SimulationConfig(
            rounds=rounds, seed=p["seed"], backend=backend
        ),
    )


def _unsized_digest(result) -> dict:
    return {
        "mean_response": repr(result.mean_response_time),
        "histogram": _sha(result.histogram.counts),
        "final_queues": _sha(result.final_queues),
        "arrived": int(result.total_arrived),
        "departed": int(result.total_departed),
        "queued": int(result.final_queued),
    }


def _unsized_problems(result) -> list[str]:
    problems = []
    if result.total_arrived != result.total_departed + result.final_queued:
        problems.append(
            f"conservation: arrived {result.total_arrived} != departed "
            f"{result.total_departed} + queued {result.final_queued}"
        )
    if int(result.final_queues.sum()) != result.final_queued:
        problems.append("final queue vector does not sum to the queued total")
    if result.histogram.total != result.total_departed:
        problems.append("histogram count differs from departures")
    return problems


def _make_unsized(p: dict) -> Case:
    def build(ctx, workdir):
        return _unsized_sim(p, ctx, p["rounds"], p["backend"])

    def run(sim) -> Outcome:
        clock = _BlockClock()
        start = perf_counter()
        result = sim.run(controller=clock)
        wall = perf_counter() - start
        return Outcome(
            work=p["rounds"],
            wall=wall,
            latencies_us=_block_latencies(start, clock.marks),
            digest=_unsized_digest(result),
            problems=_unsized_problems(result),
        )

    def crosscheck(ctx) -> list[str]:
        digests = {
            backend: _unsized_digest(
                _unsized_sim(p, ctx, p["prefix_rounds"], backend).run()
            )
            for backend in ("reference", p["backend"])
        }
        if digests["reference"] != digests[p["backend"]]:
            return [f"{p['backend']} != reference on {p['prefix_rounds']} rounds: {digests}"]
        return []

    return Case(
        name=p["name"],
        why=WHY[p["name"]],
        params=p,
        prepare=lambda: _system(p),
        build=build,
        run=run,
        crosscheck=crosscheck,
        op="simulated round (per 256-round block)",
    )


# -- sized jobs through a checkpointed Run (rr-sized-ckpt) ------------------


def _sized_sim(p: dict, ctx, rounds: int, backend: str) -> repro.SizedSimulation:
    rates, _ = ctx
    sizes = repro.GeometricSize(p["mean_size"])
    # WorkloadSpec.sized does not rescale the arrival rate, so offer
    # rho in work units: rho * sum(mu) / E[size] jobs per round.
    jobs_per_round = p["rho"] * rates.sum() / sizes.mean
    return repro.SizedSimulation(
        rates=rates,
        policy=repro.make_policy(p["policy"]),
        arrivals=repro.PoissonArrivals(np.full(p["m"], jobs_per_round / p["m"])),
        service=repro.GeometricService(rates),
        sizes=sizes,
        rounds=rounds,
        seed=p["seed"],
        backend=backend,
        probes=EXTRA_PROBES,
    )


def _sized_digest(result) -> dict:
    return {
        "mean_response": repr(result.mean_response_time),
        "histogram": _sha(result.histogram.counts),
        "queue_series": _sha(result.queue_series.values),
        "probe_summaries": _summaries_sha(result),
        "jobs": int(result.total_jobs),
        "units_arrived": int(result.total_units_arrived),
        "units_departed": int(result.total_units_departed),
        "units_queued": int(result.final_units_queued),
    }


def _sized_problems(result) -> list[str]:
    problems = []
    arrived, departed = result.total_units_arrived, result.total_units_departed
    if arrived != departed + result.final_units_queued:
        problems.append(
            f"conservation: units arrived {arrived} != departed {departed} "
            f"+ queued {result.final_units_queued}"
        )
    if result.histogram.total > result.total_jobs:
        problems.append("more jobs departed than arrived")
    return problems


def _make_sized_ckpt(p: dict) -> Case:
    numbers = itertools.count()

    def build(ctx, workdir):
        sim = _sized_sim(p, ctx, p["rounds"], p["backend"])
        return Run.create(
            sim,
            workdir / f"run-{next(numbers)}",
            checkpoint_every=p["checkpoint_every"],
            telemetry="telemetry.jsonl",
            keep=p["keep"],
        )

    def run(run_dir: Run) -> Outcome:
        marks: list[tuple[int, float]] = []

        def on_checkpoint(manifest, blob):
            marks.append((int(manifest["round"]), perf_counter()))

        start = perf_counter()
        result = run_dir.execute(on_checkpoint=on_checkpoint)
        wall = perf_counter() - start
        marks.append((p["rounds"], start + wall))
        digest = _sized_digest(result)
        problems = _sized_problems(result)
        stride = BLOCK_ROUNDS * p["checkpoint_every"]
        expected_ckpts = math.ceil(p["rounds"] / stride) - 1
        if len(marks) - 1 != expected_ckpts:
            problems.append(f"{len(marks) - 1} checkpoints, expected {expected_ckpts}")
        if not run_dir.store.rounds():
            problems.append("no checkpoint survived pruning")
        saved = run_dir.result()
        if saved is None or _sized_digest(saved) != digest:
            problems.append("result.json does not reproduce the run's result")
        shutil.rmtree(run_dir.directory)
        return Outcome(
            work=p["rounds"],
            wall=wall,
            latencies_us=_block_latencies(start, marks),
            digest=digest,
            problems=problems,
        )

    def crosscheck(ctx) -> list[str]:
        digests = {
            backend: _sized_digest(
                _sized_sim(p, ctx, p["prefix_rounds"], backend).run()
            )
            for backend in ("reference", p["backend"])
        }
        if digests["reference"] != digests[p["backend"]]:
            return [f"sized {p['backend']} != reference on {p['prefix_rounds']} rounds: {digests}"]
        return []

    return Case(
        name=p["name"],
        why=WHY[p["name"]],
        params=p,
        prepare=lambda: _system(p),
        build=build,
        run=run,
        crosscheck=crosscheck,
        op="simulated round (per 256-round block, checkpoint included)",
    )


# -- per-decision latency (scd-decide) --------------------------------------


def _make_decide(p: dict) -> Case:
    def prepare():
        system = repro.SystemSpec(
            num_servers=p["n"], num_dispatchers=p["m"], profile=p["profile"]
        )
        snapshots = collect_snapshots(
            system,
            rho=p["rho"],
            rounds=p["snapshot_rounds"],
            seed=p["seed"],
            max_snapshots=p["snapshots"],
        )
        return system.rates(), snapshots

    def build(ctx, workdir):
        return ctx

    def run(ctx) -> Outcome:
        rates, snapshots = ctx
        m = p["m"]
        # Resolved per repetition, so a traced repetition sees the
        # wrapped function.
        decide = scd_module.scd_decision
        latencies = np.empty(len(snapshots))
        digest = hashlib.sha256()
        bad = 0
        for i, snap in enumerate(snapshots):
            start = perf_counter()
            iwl, probs = decide(snap.queues, rates, snap.batch_size, m)
            latencies[i] = perf_counter() - start
            digest.update(np.float64(iwl).tobytes())
            digest.update(probs.tobytes())
            if abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any():
                bad += 1
        return Outcome(
            work=len(snapshots),
            wall=float(latencies.sum()),
            latencies_us=latencies * 1e6,
            digest={"decisions": len(snapshots), "iwl_p": digest.hexdigest()[:16]},
            attempts=len(snapshots),
            bad_ops=bad,
        )

    def crosscheck(ctx) -> list[str]:
        rates, snapshots = ctx
        estimator = repro.make_estimator("scaled")
        problems = []
        for snap in snapshots[: p["prefix_snapshots"]]:
            iwl, probs = scd_module.scd_decision(
                snap.queues, rates, snap.batch_size, p["m"]
            )
            queues = snap.queues.astype(np.float64)
            a_est = estimator.estimate(snap.batch_size, p["m"])
            ref_iwl = compute_iwl_reference(queues, rates, a_est)
            ref_probs = scd_probabilities_loop(queues, rates, a_est, ref_iwl)
            if not (
                math.isclose(iwl, ref_iwl, rel_tol=1e-9, abs_tol=1e-12)
                and np.allclose(probs, ref_probs, rtol=1e-9, atol=1e-12)
            ):
                problems.append(
                    f"scd_decision differs from Algorithm 3/4 loops "
                    f"(batch {snap.batch_size}): iwl {iwl} vs {ref_iwl}"
                )
        return problems

    return Case(
        name=p["name"],
        why=WHY[p["name"]],
        params=p,
        prepare=prepare,
        build=build,
        run=run,
        crosscheck=crosscheck,
        op="scd_decision call",
    )


#: One line per workload: why it is in the benchmark.
WHY = {
    "scd-paper": "the paper's policy at the paper's 100x50 scale; dispatch-bound "
    "(per-dispatcher SCD fallback, IWL and probability solves)",
    "rr-wide": "1000 homogeneous servers under batched rr; departure resolution "
    "and pre-sampling dominate and nothing SCD-specific runs",
    "rr-sized-ckpt": "sized jobs through a checkpointed Run with telemetry and four "
    "probes; the sized driver's per-round loop and the runs layer",
    "scd-decide": "Figure 5's per-dispatcher decision from scratch (sorts, estimator, "
    "solver), timed call by call; the engine never runs this path",
}

SCD_PAPER = {
    "name": "scd-paper",
    "policy": "scd", "backend": "fast", "n": 100, "m": 50,
    "profile": "u1_10", "rho": 0.9, "rounds": 512, "prefix_rounds": 300,
}
RR_WIDE = {
    "name": "rr-wide",
    "policy": "rr", "backend": "fast", "n": 1000, "m": 50,
    "profile": "homogeneous", "rho": 0.9, "rounds": 2048, "prefix_rounds": 300,
}
RR_SIZED_CKPT = {
    "name": "rr-sized-ckpt",
    "policy": "rr", "backend": "fast", "n": 1000, "m": 50,
    "profile": "homogeneous", "rho": 0.9, "mean_size": 3.0, "rounds": 1024,
    "checkpoint_every": 1, "keep": 2, "prefix_rounds": 300,
}
SCD_DECIDE = {
    "name": "scd-decide",
    "n": 400, "m": 10, "profile": "u1_10", "rho": 0.99,
    "snapshot_rounds": 200, "snapshots": 2000, "prefix_snapshots": 100,
}

#: The seed whose digests are frozen in ``digests.json``.
DEFAULT_SEED = 0

WORKLOADS: dict[str, dict] = {
    p["name"]: p for p in (SCD_PAPER, RR_WIDE, RR_SIZED_CKPT, SCD_DECIDE)
}

_FACTORIES: dict[str, Callable[[dict], Case]] = {
    "scd-paper": _make_unsized,
    "rr-wide": _make_unsized,
    "rr-sized-ckpt": _make_sized_ckpt,
    "scd-decide": _make_decide,
}


def make_case(name: str, seed: int, **overrides) -> Case:
    """Workload ``name`` at ``seed``; ``overrides`` replace parameters."""
    return _FACTORIES[name]({**WORKLOADS[name], **overrides, "seed": int(seed)})
