"""The synchronous-round simulation engine (the model of Section 2).

Each round has three phases, executed for ``config.rounds`` rounds:

1. **Arrivals** -- the arrival process produces each dispatcher's batch.
2. **Dispatching** -- every dispatcher with a non-empty batch independently
   maps its jobs to servers through the policy, all against the same
   start-of-round queue snapshot.
3. **Departures** -- the service process produces each server's capacity;
   servers complete jobs FIFO and response times are recorded.

The engine maintains exact job accounting (arrived = departed + queued,
asserted in tests) and draws workload randomness from streams that are
independent of the policy stream, so runs with the same ``seed`` but
different policies experience identical workloads.

The round loop itself is pluggable: :class:`SimulationConfig.backend`
names a round kernel from the :mod:`repro.sim.backends` registry
(``"reference"`` -- the bit-exact per-object loop, the default -- or
``"fast"`` -- the vectorized batch kernel, and more).  The same kernels
run sized jobs (:mod:`repro.sim.sized`): both engines are thin
constructors over :class:`SimulationBase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.policies.base import Policy, SystemContext

from .arrivals import ArrivalProcess
from .metrics import QueueLengthSeries, ResponseTimeHistogram
from .probes import Probe, ProbeSpec
from .seeding import spawn_streams
from .service import ServiceProcess

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "SimulationBase",
    "Simulation",
    "simulate",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and instrumentation knobs for one simulation.

    Attributes
    ----------
    rounds:
        Number of rounds to simulate (the paper uses 1e5).
    warmup:
        Response times of jobs *completing* during the first ``warmup``
        rounds are discarded (queue accounting still includes them).  The
        paper reports over the full run, hence the default 0.
    seed:
        Master seed; expands into independent arrival/departure/policy
        streams (see :mod:`repro.sim.seeding`).
    track_queue_series:
        Record the per-round total queue length (cheap; needed for
        stability diagnostics).
    backend:
        Engine-backend registry name (see :mod:`repro.sim.backends`).
        ``"reference"`` is the original bit-exact loop; ``"fast"`` is
        the vectorized round kernel; ``"sharded:N"`` is the
        server-partitioned kernel (:mod:`repro.sim.sharding`).
        Resolved when :meth:`Simulation.run` is called, so unknown
        names fail with the list of known backends.
    probes:
        Extra observability probes for this run, as registry names or
        :class:`~repro.sim.probes.ProbeSpec` objects (see
        :mod:`repro.sim.probes`; ``repro probes`` lists them).  The
        default collectors (response histogram, queue series) are
        always present; these are appended and surface their summaries
        under ``<label>.<key>`` metric keys and ``result.probes``.
    scenario:
        Optional scenario spec string ``NAME[:k=v,...]`` (see
        :mod:`repro.scenarios`; ``repro scenarios`` lists them).
        Applied once at :class:`Simulation` construction: the scenario
        may wrap the arrival process (nonstationary rates) and/or the
        policy (server churn).  ``None`` -- the default -- leaves the
        stationary code path byte-for-byte untouched.
    """

    rounds: int = 10_000
    warmup: int = 0
    seed: int = 0
    track_queue_series: bool = True
    backend: str = "reference"
    probes: tuple[ProbeSpec, ...] = ()
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.warmup < self.rounds:
            raise ValueError("warmup must be in [0, rounds)")
        if not self.backend:
            raise ValueError("backend must be a non-empty registry name")
        if self.scenario is not None and not self.scenario:
            raise ValueError("scenario must be a non-empty spec string or None")
        object.__setattr__(
            self, "probes", tuple(ProbeSpec.of(p) for p in self.probes)
        )


@dataclass
class SimulationResult:
    """Everything measured in one run."""

    policy_name: str
    config: SimulationConfig
    histogram: ResponseTimeHistogram
    queue_series: QueueLengthSeries | None
    total_arrived: int
    total_departed: int
    final_queued: int
    final_queues: np.ndarray = field(repr=False)
    #: Jobs each server received / completed over the whole run.
    server_received: np.ndarray | None = field(default=None, repr=False)
    server_departed: np.ndarray | None = field(default=None, repr=False)
    #: Label -> probe, every probe of the run (defaults + extras).
    probes: dict[str, Probe] = field(default_factory=dict, repr=False, compare=False)

    @property
    def mean_response_time(self) -> float:
        """Average response time over recorded (post-warmup) jobs."""
        return self.histogram.mean()

    def utilization(self, rates: np.ndarray) -> np.ndarray:
        """Per-server utilization: completed work over offered capacity.

        ``departed_s / (mu_s * rounds)`` -- the fraction of each server's
        expected capacity that did useful work.  Low utilization on fast
        servers is the under-utilization failure mode the paper ascribes
        to heterogeneity-oblivious policies (Section 3.1).
        """
        if self.server_departed is None:
            raise ValueError("per-server accounting was not recorded")
        rates = np.asarray(rates, dtype=np.float64)
        return self.server_departed / (rates * self.config.rounds)

    def summary(self) -> dict[str, float]:
        """Headline numbers for tables: mean, p95/p99/p999, max."""
        hist = self.histogram
        return {
            "mean": hist.mean(),
            "p50": float(hist.percentile(0.50)),
            "p95": float(hist.percentile(0.95)),
            "p99": float(hist.percentile(0.99)),
            "p999": float(hist.percentile(0.999)),
            "max": float(hist.max_response_time),
        }

    def probe_summaries(self) -> dict[str, dict[str, float]]:
        """Label -> summary for every probe carried by this run."""
        return {label: probe.summary() for label, probe in self.probes.items()}


class SimulationBase:
    """A policy bound to workload processes: what every backend runs.

    :class:`Simulation` (unit-size jobs, the paper's model) and
    :class:`~repro.sim.sized.SizedSimulation` (jobs with work-unit
    sizes) are thin constructors over this class.  They differ only in
    their job-size distribution and in the result object they assemble
    (:meth:`_result`); the backends read the attributes below and pick
    the unit-size or sized path from :attr:`unit_jobs` alone.
    """

    #: Job-size distribution; ``None`` means unit-size jobs.
    sizes = None
    #: Record the per-round total queue length.
    track_queue_series = True

    rates: np.ndarray
    policy: Policy
    arrivals: ArrivalProcess
    service: ServiceProcess
    rounds: int
    warmup: int
    seed: int
    backend: str
    probes: tuple[ProbeSpec, ...]
    scenario: str | None

    def _bind(
        self,
        rates,
        policy: Policy,
        arrivals: ArrivalProcess,
        service: ServiceProcess,
    ) -> None:
        """Apply the scenario, store the processes, bind the policy."""
        self.rates = np.asarray(rates, dtype=np.float64)
        if service.num_servers != self.rates.size:
            raise ValueError(
                f"service process drives {service.num_servers} servers "
                f"but {self.rates.size} rates were given"
            )
        if self.scenario is not None:
            # Applied before bind and before the objects are stored, so
            # run manifests pickle the wrapped policy/arrivals and every
            # kernel (and resume) sees the identical reshaped pair.
            from repro.scenarios import apply_scenario

            policy, arrivals = apply_scenario(
                self.scenario, policy, arrivals, self.rates.size
            )
        self.policy = policy
        self.arrivals = arrivals
        self.service = service
        self._streams = spawn_streams(self.seed)
        policy.bind(
            SystemContext(
                rates=self.rates,
                num_dispatchers=arrivals.num_dispatchers,
                rng=self._streams.policy,
            )
        )
        arrivals.reset()
        service.reset()

    @property
    def unit_jobs(self) -> bool:
        """True when every job is one work unit (the paper's model)."""
        return self.sizes is None or self.sizes.is_unit

    def run(self, controller=None):
        """Execute all rounds via the configured backend (see ``backends``).

        ``controller`` is the optional run-lifecycle seam
        (:class:`repro.sim.lifecycle.RunController`): the checkpointing
        orchestrator in :mod:`repro.runs` uses it to resume mid-run and
        to export block-aligned state.
        """
        from .backends import make_backend

        return make_backend(self.backend).run(self, controller)

    def _result(self, probes: dict[str, Probe], state):
        """The run's result from its probes and final ``RunState``."""
        raise NotImplementedError


class Simulation(SimulationBase):
    """Binds a policy to workload processes and runs the round loop."""

    def __init__(
        self,
        rates: np.ndarray,
        policy: Policy,
        arrivals: ArrivalProcess,
        service: ServiceProcess,
        config: SimulationConfig | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self._bind(rates, policy, arrivals, service)

    # The backends' view of the run, read through the frozen config.
    rounds = property(lambda self: self.config.rounds)
    warmup = property(lambda self: self.config.warmup)
    seed = property(lambda self: self.config.seed)
    backend = property(lambda self: self.config.backend)
    probes = property(lambda self: self.config.probes)
    scenario = property(lambda self: self.config.scenario)
    track_queue_series = property(lambda self: self.config.track_queue_series)

    def _result(self, probes: dict[str, Probe], state) -> SimulationResult:
        series = probes.get("queue_series")
        return SimulationResult(
            policy_name=self.policy.name,
            config=self.config,
            histogram=probes["responses"].histogram,
            queue_series=series.series if series is not None else None,
            total_arrived=state.total_jobs,
            total_departed=state.units_out,
            final_queued=state.units_queued,
            final_queues=state.queues,
            server_received=state.server_received,
            server_departed=state.server_departed,
            probes=probes,
        )


def simulate(
    rates: np.ndarray,
    policy: Policy,
    arrivals: ArrivalProcess,
    service: ServiceProcess,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulation`."""
    return Simulation(rates, policy, arrivals, service, config).run()
