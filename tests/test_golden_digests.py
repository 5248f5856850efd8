"""Golden digests: every kernel's output pinned across engine refactors.

Each cell of {policy} x {backend} x {engine} runs a small heterogeneous
system (12 servers, 4 dispatchers, 600 rounds -- two full 256-round
blocks plus a partial one, so the block carry is exercised on a
non-aligned tail) and reduces the result to a digest:

* ``mean_response`` -- ``repr`` of the mean response time (exact float);
* ``histogram`` -- a hash of the response-time histogram counts;
* ``queue_series`` -- a hash of the per-round total queue length;
* ``final_queues`` -- a hash of the final per-server queue vector
  (unit-size jobs) or the final queued units (sized jobs);
* the conservation totals (arrived, departed, queued, in jobs or units).

The digests in ``tests/data/golden_digests.json`` were recorded before
the unit-size and sized engines were merged into one backend family;
they must never change.  ``unit`` runs ``SizedSimulation`` with
``DeterministicSize(1)``, which must reproduce ``Simulation`` exactly.

Regenerate (only when a change is *meant* to move results) with::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.policies.base import make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.service import GeometricService
from repro.sim.sized import BimodalSize, DeterministicSize, GeometricSize, SizedSimulation
from repro.workloads.scenarios import SystemSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"

POLICIES = ("jsq", "sed", "rr", "wr", "scd", "lsq", "random")
BACKENDS = ("reference", "fast", "compiled", "sharded:2")
#: Engine label -> job-size distribution (``None``: ``Simulation``).
ENGINES = {
    "unsized": None,
    "unit": DeterministicSize(1),
    "geom3": GeometricSize(3),
    "bimodal": BimodalSize(),
}

SYSTEM = SystemSpec(num_servers=12, num_dispatchers=4, profile="u1_10")
RHO = 0.85
ROUNDS = 600
SEED = 11


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()[:16]


def compute_digest(policy: str, backend: str, engine: str) -> dict:
    """Run one cell and reduce its result to the golden digest."""
    rates = SYSTEM.rates()
    sizes = ENGINES[engine]
    if sizes is None:
        result = Simulation(
            rates=rates,
            policy=make_policy(policy),
            arrivals=PoissonArrivals(SYSTEM.lambdas(RHO)),
            service=GeometricService(rates),
            config=SimulationConfig(rounds=ROUNDS, seed=SEED, backend=backend),
        ).run()
        return {
            "mean_response": repr(result.mean_response_time),
            "histogram": _sha(result.histogram.counts),
            "queue_series": _sha(result.queue_series.values),
            "final_queues": _sha(result.final_queues),
            "arrived": int(result.total_arrived),
            "departed": int(result.total_departed),
            "queued": int(result.final_queued),
        }
    # Offer RHO in work units: the job rate shrinks with the mean size.
    lambdas = SYSTEM.lambdas(RHO) / sizes.mean
    result = SizedSimulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(lambdas),
        service=GeometricService(rates),
        sizes=sizes,
        rounds=ROUNDS,
        seed=SEED,
        backend=backend,
    ).run()
    return {
        "mean_response": repr(result.mean_response_time),
        "histogram": _sha(result.histogram.counts),
        "queue_series": _sha(result.queue_series.values),
        "final_queues": _sha([result.final_units_queued]),
        "arrived": int(result.total_units_arrived),
        "departed": int(result.total_units_departed),
        "queued": int(result.final_units_queued),
        "jobs": int(result.total_jobs),
    }


def cell_key(policy: str, backend: str, engine: str) -> str:
    return f"{policy}|{backend}|{engine}"


CELLS = [
    (policy, backend, engine)
    for policy in POLICIES
    for backend in BACKENDS
    for engine in ENGINES
]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize(
    "policy,backend,engine", CELLS, ids=[cell_key(*cell) for cell in CELLS]
)
def test_digest_unchanged(golden, policy, backend, engine):
    assert compute_digest(policy, backend, engine) == golden[cell_key(policy, backend, engine)]


@pytest.mark.parametrize("policy", POLICIES)
def test_unit_sizes_reproduce_the_unsized_engine(golden, policy):
    """``DeterministicSize(1)`` jobs are the paper's unit jobs, bit for bit."""
    for backend in BACKENDS:
        unsized = golden[cell_key(policy, backend, "unsized")]
        unit = golden[cell_key(policy, backend, "unit")]
        for key in ("mean_response", "histogram", "queue_series", "arrived", "departed", "queued"):
            assert unit[key] == unsized[key], (backend, key)
        assert unit["jobs"] == unsized["arrived"]


def _write() -> None:
    digests = {cell_key(*cell): compute_digest(*cell) for cell in CELLS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    _write()
