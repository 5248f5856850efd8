"""Sized-job simulation: work-unit queues for the open-problem-1 study.

The base model (Section 2) counts jobs; here each job carries an integer
*size* in work units, servers complete work units per round, and queues
are measured in units.  Everything else -- synchronous 3-phase rounds,
independent dispatchers, FIFO service, common random numbers -- matches
the base engine.  A job's response time is the round its *last* unit
completes, minus its arrival round, plus one.

Policies plug in unchanged: they see the unit-denominated queue vector
(so JSQ ranks by least work left, SED by least expected drain time) and
return per-server *job* counts; the engine draws each job's size from a
:class:`JobSizeDistribution` whose stream lives with the arrival streams
(sizes are workload, not policy, randomness).

:class:`SizedSimulation` is a thin constructor over
:class:`repro.sim.engine.SimulationBase`: ``backend`` names a round
kernel in the one :mod:`repro.sim.backends` registry, exactly as for
:class:`~repro.sim.engine.Simulation`, and the size distribution alone
picks the kernel's path -- ``DeterministicSize(1)`` jobs *are* the base
model's unit jobs and take the batch-granular unit-size path, every
other distribution the per-job sized path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.policies.base import Policy

from .arrivals import ArrivalProcess
from .engine import SimulationBase
from .metrics import QueueLengthSeries, ResponseTimeHistogram
from .probes import Probe, ProbeSpec
from .service import ServiceProcess

__all__ = [
    "JobSizeDistribution",
    "DeterministicSize",
    "GeometricSize",
    "BimodalSize",
    "SizedServerQueue",
    "SizedSimulation",
    "SizedSimulationResult",
]


class JobSizeDistribution(ABC):
    """Distribution of per-job work sizes (positive integers)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. job sizes (int64, all >= 1)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """``E[W]``."""

    @property
    @abstractmethod
    def second_moment(self) -> float:
        """``E[W^2]``."""

    @property
    def is_unit(self) -> bool:
        """True when every job is exactly one unit (the base model)."""
        return False


class DeterministicSize(JobSizeDistribution):
    """Every job needs exactly ``size`` units; size 1 recovers the base model."""

    def __init__(self, size: int = 1) -> None:
        if size < 1:
            raise ValueError("job size must be >= 1")
        self.size = int(size)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self.size, dtype=np.int64)

    @property
    def mean(self) -> float:
        return float(self.size)

    @property
    def is_unit(self) -> bool:
        return self.size == 1

    @property
    def second_moment(self) -> float:
        return float(self.size) ** 2


class GeometricSize(JobSizeDistribution):
    """Sizes ``1 + Geom``: support {1, 2, ...} with the given mean."""

    def __init__(self, mean_size: float = 2.0) -> None:
        if mean_size <= 1.0:
            raise ValueError("mean size must exceed 1 (sizes start at 1)")
        self._mean = float(mean_size)
        # W = 1 + G with G geometric on {0,1,...} of mean m-1:
        self._p = 1.0 / self._mean  # success prob of numpy's 1-based geometric

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.geometric(self._p, size=count).astype(np.int64)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def second_moment(self) -> float:
        # numpy's geometric on {1,2,...}: Var = (1-p)/p^2.
        variance = (1.0 - self._p) / (self._p**2)
        return variance + self._mean**2


class BimodalSize(JobSizeDistribution):
    """Mostly small jobs with a heavy minority (the elephant/mice mix)."""

    def __init__(self, small: int = 1, large: int = 20, large_prob: float = 0.05):
        if small < 1 or large < small:
            raise ValueError("need 1 <= small <= large")
        if not 0.0 <= large_prob <= 1.0:
            raise ValueError("large_prob must be in [0, 1]")
        self.small = int(small)
        self.large = int(large)
        self.large_prob = float(large_prob)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        big = rng.random(count) < self.large_prob
        return np.where(big, self.large, self.small).astype(np.int64)

    @property
    def mean(self) -> float:
        return (1 - self.large_prob) * self.small + self.large_prob * self.large

    @property
    def second_moment(self) -> float:
        return (
            (1 - self.large_prob) * self.small**2
            + self.large_prob * self.large**2
        )


class SizedServerQueue:
    """FIFO queue of sized jobs; tracks remaining units of the head job."""

    __slots__ = ("_jobs", "units")

    def __init__(self) -> None:
        self._jobs: deque[list[int]] = deque()  # [arrival_round, remaining]
        self.units = 0

    def admit(self, round_index: int, sizes: np.ndarray) -> None:
        """Append jobs with the given sizes, arrived this round."""
        for size in sizes:
            self._jobs.append([round_index, int(size)])
            self.units += int(size)

    def complete(
        self,
        capacity: int,
        now: int,
        histogram: ResponseTimeHistogram | None,
    ) -> int:
        """Serve up to ``capacity`` work units FIFO; returns units served.

        A job's response time is recorded when its final unit completes.
        """
        if capacity <= 0 or self.units == 0:
            return 0
        budget = min(int(capacity), self.units)
        served = budget
        jobs = self._jobs
        while budget > 0:
            head = jobs[0]
            if head[1] <= budget:
                budget -= head[1]
                if histogram is not None:
                    histogram.record(now - head[0] + 1)
                jobs.popleft()
            else:
                head[1] -= budget
                budget = 0
        self.units -= served
        return served

    def __len__(self) -> int:
        return self.units


@dataclass
class SizedSimulationResult:
    """Metrics of one sized-job run (work accounted in units)."""

    policy_name: str
    histogram: ResponseTimeHistogram
    queue_series: QueueLengthSeries
    total_jobs: int
    total_units_arrived: int
    total_units_departed: int
    final_units_queued: int
    #: Label -> probe, every probe of the run (defaults + extras).
    probes: dict[str, Probe] = field(default_factory=dict, repr=False, compare=False)

    @property
    def mean_response_time(self) -> float:
        """Average per-job response time (rounds)."""
        return self.histogram.mean()

    def probe_summaries(self) -> dict[str, dict[str, float]]:
        """Label -> summary for every probe carried by this run."""
        return {label: probe.summary() for label, probe in self.probes.items()}


class SizedSimulation(SimulationBase):
    """Round engine over work-unit queues (drop-in analog of Simulation).

    ``warmup`` discards response times of jobs *completing* during the
    first ``warmup`` rounds (unit accounting still includes them), and
    ``probes`` appends extra observability probes to the default
    collectors, both exactly as in :class:`repro.sim.engine.SimulationConfig`.
    ``DeterministicSize(1)`` jobs take the unit-size path and reproduce
    :class:`~repro.sim.engine.Simulation` bit for bit.
    """

    def __init__(
        self,
        rates: np.ndarray,
        policy: Policy,
        arrivals: ArrivalProcess,
        service: ServiceProcess,
        sizes: JobSizeDistribution,
        rounds: int = 10_000,
        seed: int = 0,
        backend: str = "reference",
        warmup: int = 0,
        probes: tuple = (),
        scenario: str | None = None,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= warmup < rounds:
            raise ValueError("warmup must be in [0, rounds)")
        if not backend:
            raise ValueError("backend must be a non-empty registry name")
        self.sizes = sizes
        self.rounds = int(rounds)
        self.warmup = int(warmup)
        self.seed = int(seed)
        self.backend = backend
        self.scenario = scenario
        self.probes = tuple(ProbeSpec.of(p) for p in probes)
        self._bind(rates, policy, arrivals, service)

    def _result(self, probes: dict[str, Probe], state) -> SizedSimulationResult:
        return SizedSimulationResult(
            policy_name=self.policy.name,
            histogram=probes["responses"].histogram,
            queue_series=probes["queue_series"].series,
            total_jobs=state.total_jobs,
            total_units_arrived=state.units_in,
            total_units_departed=state.units_out,
            final_units_queued=state.units_queued,
            probes=probes,
        )
