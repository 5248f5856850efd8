"""Pluggable round-kernel backends: one registry for every job kind.

The three-phase round model (arrivals, dispatching, departures) admits
more than one execution strategy, and this module is the seam between
the model and its implementations.  Every backend runs any
:class:`~repro.sim.engine.SimulationBase` -- :class:`~repro.sim.engine.Simulation`
(unit-size jobs, the paper's model) and
:class:`~repro.sim.sized.SizedSimulation` (jobs with work-unit sizes)
alike -- and picks the unit-size or sized path from the simulation's
job-size distribution alone (``sim.unit_jobs``; ``DeterministicSize(1)``
is unit-size):

``reference``
    The original per-object loop -- one ``policy.dispatch`` call per
    dispatcher, one FIFO queue object per server
    (:class:`~repro.sim.server.ServerQueue` batches for unit-size jobs,
    :class:`~repro.sim.sized.SizedServerQueue` jobs otherwise).  Simple,
    obviously correct, and the bit-exact default.

``fast``
    The vectorized kernel (:mod:`repro.sim.blockdriver`): a whole
    round's dispatching goes through the batch protocol
    :meth:`repro.policies.base.Policy.dispatch_round`, only per-server
    totals update per round, and FIFO departures are resolved a block
    at a time by an array-backed store
    (:class:`~repro.sim.batchstore.BatchQueueStore` for unit-size jobs,
    :class:`~repro.sim.batchstore.SizedBatchQueueStore` otherwise).
    Bit-identical to ``reference`` for deterministic policies, for any
    policy using the base-class ``dispatch_round`` fallback, and for
    native paths that draw the same random stream (``scd``, ``lsq``,
    ``jiq``...); statistically equivalent for the other policies with
    native batched sampling.

``compiled``
    The fast kernel with numba-jitted stores and, for ``rr``/``wrr`` on
    unit-size jobs, a native whole-block round loop
    (:mod:`repro.sim.compiled`).

``sharded``
    The server-partitioned kernel (:mod:`repro.sim.sharding`),
    parameterized through the name (``sharded:4``,
    ``sharded:4:process``); bit-identical to ``fast`` for deterministic
    policies at every shard count.

``meanfield``
    The fluid-limit engine (:mod:`repro.meanfield`); unit-size jobs
    only, declared through :class:`BackendCapabilities`.

Backends are registered by name (mirroring the policy registry) so
experiments and the CLI can select them as plain strings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ._registry import BackendCapabilities, BackendRegistry
from .batchstore import make_store
from .blockdriver import BLOCK_ROUNDS, Block, RunState, drive, negative_cell, resume
from .lifecycle import RunController
from .probes import (
    BlockRecorder,
    ProbeContext,
    ProbeSet,
    ResponseTee,
    build_probe_set,
)
from .server import ServerQueue

__all__ = [
    "BackendCapabilities",
    "EngineBackend",
    "ReferenceBackend",
    "FastBackend",
    "register_backend",
    "make_backend",
    "available_backends",
    "backend_descriptions",
    "backend_capabilities",
]


class EngineBackend(ABC):
    """One way of executing all rounds of a bound simulation."""

    #: Registry name, e.g. ``"reference"`` or ``"fast"``.
    name: str = "abstract"
    #: One-line description shown by ``repro backends``.
    description: str = ""

    @abstractmethod
    def run(self, sim, controller: RunController | None = None):
        """Execute ``sim.rounds`` rounds and return ``sim``'s result.

        ``controller`` is the optional run-lifecycle seam
        (:mod:`repro.sim.lifecycle`): kernels honor its ``start_round``
        / ``initial_state()`` to resume mid-run and call its
        ``after_block`` at every 256-round block boundary with their
        exportable state.
        """

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        """Capability flags (checkpointing, probes, job sizes) honored.

        The simulation kernels inherit the all-True defaults; analytical
        backends override this to declare what they genuinely support so
        experiments and runs can fail fast at construction.
        """
        return BackendCapabilities()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: BackendRegistry[EngineBackend] = BackendRegistry(
    "engine backend", "backends", EngineBackend
)

#: Class decorator registering an engine backend under a name.
register_backend = _REGISTRY.register
#: Instantiate a backend from its registry name (or pass one through).
make_backend = _REGISTRY.make
#: Names accepted by :func:`make_backend`, sorted.
available_backends = _REGISTRY.available
#: Name -> one-line description, for CLI listings.
backend_descriptions = _REGISTRY.descriptions
#: Capability flags for a backend name (or instance), without building it.
backend_capabilities = _REGISTRY.capabilities


def probe_context(sim) -> ProbeContext:
    """The run coordinates every probe of ``sim`` binds to."""
    return ProbeContext(
        num_servers=sim.rates.size,
        num_dispatchers=sim.arrivals.num_dispatchers,
        rates=sim.rates,
        rounds=sim.rounds,
        warmup=sim.warmup,
    )


def probe_set_for(sim) -> ProbeSet:
    """Default collectors plus the run's extra probes, bound to the run."""
    return build_probe_set(
        probe_context(sim), sim.probes, track_queue_series=sim.track_queue_series
    )


@register_backend("reference")
class ReferenceBackend(EngineBackend):
    """The original per-dispatcher / per-server Python loop (bit-exact default)."""

    name = "reference"
    description = (
        "per-dispatcher dispatch calls and per-server queue objects; "
        "the simple, bit-exact default"
    )

    def run(self, sim, controller: RunController | None = None):
        from .sized import SizedServerQueue

        policy = sim.policy
        arrivals = sim.arrivals
        arrival_rng = sim._streams.arrivals
        departure_rng = sim._streams.departures
        unit = sim.unit_jobs
        n = sim.rates.size
        m = arrivals.num_dispatchers
        start_round, state = resume(controller, sim.rounds, unit)
        if state is not None:
            servers = state["servers"]
            probes = state["probes"]
        else:
            queue_class = ServerQueue if unit else SizedServerQueue
            servers = [queue_class() for _ in range(n)]
            probes = probe_set_for(sim)
        run_state = RunState.restore(state, n)
        queues = run_state.queues
        histogram = probes.histogram
        series = probes.queue_series
        # A fresh recorder is correct on resume: its buffer is empty at
        # every block boundary (it auto-flushes exactly there).
        recorder = BlockRecorder(probes, BLOCK_ROUNDS)
        tee = ResponseTee(probes, histogram) if probes.wants_responses else None

        def export_state() -> dict:
            return {"servers": servers, "probes": probes, **run_state.export()}

        for t in range(start_round, sim.rounds):
            # Phase 1: arrivals.
            batch = arrivals.sample(arrival_rng, t)
            round_total = int(batch.sum())
            run_state.total_jobs += round_total

            # Phase 2: dispatching (independent decisions, shared
            # snapshot: queue updates wait until every decision is made).
            policy.begin_round(t, queues)
            received = None
            if round_total:
                policy.observe_total_arrivals(round_total)
                received = np.zeros(n, dtype=np.int64)
                for d in range(m):
                    k = int(batch[d])
                    if k == 0:
                        continue
                    # Sizes are workload randomness: drawn for the whole
                    # batch *before* placement from the arrival stream, so
                    # the realized sizes (and the stream position) are
                    # identical whatever the policy decides.
                    job_sizes = None if unit else sim.sizes.sample(arrival_rng, k)
                    counts = policy.dispatch(d, k)
                    problem = negative_cell(counts, n, d)
                    if problem is not None:
                        raise ValueError(f"{policy.name}, round {t}: {problem}")
                    if unit:
                        received += counts
                        continue
                    start = 0
                    for s in np.flatnonzero(counts):
                        stop = start + int(counts[s])
                        chunk = job_sizes[start:stop]
                        servers[s].admit(t, chunk)
                        received[s] += int(chunk.sum())
                        start = stop
                if unit:
                    for s in np.flatnonzero(received):
                        servers[s].admit(t, int(received[s]))
                queues += received
                run_state.server_received += received

            # Phase 3: departures.
            capacities = sim.service.sample(departure_rng, t)
            sink = histogram if t >= sim.warmup else None
            if tee is not None and sink is not None:
                sink = tee
            done_row = np.zeros(n, dtype=np.int64) if recorder.needs_done else None
            busy = np.flatnonzero((queues > 0) & (capacities > 0))
            for s in busy:
                if tee is not None and sink is tee:
                    tee.server = int(s)
                done = servers[s].complete(int(capacities[s]), t, sink)
                queues[s] -= done
                run_state.server_departed[s] += done
                if done_row is not None:
                    done_row[s] = done

            policy.end_round(t, queues)
            if series is not None:
                series.record(int(queues.sum()))
            recorder.record(t, batch, received, done_row, queues)
            if tee is not None and sink is tee:
                tee.flush(t)
            if controller is not None and (t + 1) % BLOCK_ROUNDS == 0:
                controller.after_block(t + 1, export_state)
        recorder.flush()
        return sim._result(probes.as_dict(), run_state)


@register_backend("fast")
class FastBackend(EngineBackend):
    """Vectorized round kernel: batch dispatching, block-resolved departures.

    Workload randomness is pre-sampled in blocks of :data:`BLOCK_ROUNDS`
    rounds (numpy block draws consume the RNG streams exactly like
    per-round draws, so the realization is the one the reference backend
    sees).  Within a block, each round makes one ``dispatch_round`` call
    -- which native policies answer with a single numpy operation -- and
    updates only the per-server queue totals; the FIFO bookkeeping
    (which job departed when) is deferred and resolved for the whole
    block at once by the store's ``process_block``, including bulk
    histogram recording.  Unit-size jobs keep the batch-granular store
    and cross-round ``dispatch_rounds`` batching; sized jobs lay each
    round's sizes out over its non-empty ``(dispatcher, server)`` cells.
    """

    name = "fast"
    description = (
        "vectorized kernel: batch dispatch protocol, array-backed queues, "
        "block-resolved departures (bit-exact for deterministic policies)"
    )

    def _make_store(self, num_servers: int, unit: bool):
        """Subclass seam: which departure resolver backs a fresh run."""
        return make_store(num_servers, unit)

    def _round_kernel(self, sim):
        """Subclass seam: an optional whole-block native round loop."""
        return None

    def run(self, sim, controller: RunController | None = None):
        n = sim.rates.size
        start_round, state = resume(controller, sim.rounds, sim.unit_jobs)
        if state is not None:
            store = state["store"]
            probes = state["probes"]
        else:
            store = self._make_store(n, sim.unit_jobs)
            probes = probe_set_for(sim)
        run_state = RunState.restore(state, n)
        histogram = probes.histogram
        response_sink = probes.observe_responses if probes.wants_responses else None
        # Churn scenarios wrap the policy in an adapter exposing the
        # block's capacity mask; stamping it onto the store arms the
        # no-admissions-while-masked corruption guard (and checkpoints
        # then carry the mask with the store).
        mask_source = getattr(sim.policy, "capacity_mask", None)

        def consume(block: Block) -> None:
            if mask_source is not None:
                store.set_capacity_mask(mask_source())
            if block.job_servers is None:
                admitted = (block.received,)
            else:
                admitted = (block.job_servers, block.job_rounds, block.job_sizes)
            store.process_block(
                block.start_round,
                *admitted,
                block.done,
                histogram,
                sim.warmup,
                response_sink=response_sink,
            )

        drive(
            sim,
            start_round=start_round,
            state=run_state,
            block_probes=probes,
            series=probes.queue_series,
            consume=consume,
            controller=controller,
            export_state=lambda: {"store": store, "probes": probes, **run_state.export()},
            round_kernel=self._round_kernel(sim),
        )
        return sim._result(probes.as_dict(), run_state)


# The sharded, compiled and mean-field kernels register themselves in
# this registry on import; keep this at the bottom so the registry
# machinery above exists when they do.
from . import sharding  # noqa: E402,F401  (registration side effect)
from . import compiled  # noqa: E402,F401  (registration side effect)
from ..meanfield import backend as _meanfield  # noqa: E402,F401  (registration side effect)
