"""The shared 256-round block driver behind every block-structured kernel.

``fast``, ``compiled`` and ``sharded`` execute the *same* round loop,
for unit-size and sized jobs alike: pre-sample a block of workload
randomness, run each round's dispatch against the live queue totals,
defer FIFO departure resolution to block end, feed the block to the
probe set, and hand the lifecycle controller an exportable state at the
block boundary.  What differs between kernels is only **where a
finished block goes** -- so this module owns the loop once and
parameterizes the destination:

``consume``
    A callable receiving the finished :class:`Block`.  The fast kernels
    resolve it against a local batch store; the sharded kernel slices
    it across shard workers.

``export_state``
    A zero-argument callable building the kernel's checkpoint dict; the
    driver invokes the :class:`~repro.sim.lifecycle.RunController` seam
    with it at every block boundary.

**Unit-size and sized jobs.**  Queues count work units; a unit-size job
is one unit, which is the paper's model.  The job-size distribution of
the simulation alone picks the path (``sim.unit_jobs``):

* *unit-size jobs* draw no size stream and stay batch-granular -- a
  round's admissions are per-server job counts, the block goes to a
  :class:`~repro.sim.batchstore.BatchQueueStore`, and two cross-round
  accelerations apply:

  - **cross-round dispatch batching**: when the policy passes
    :func:`repro.policies.base.supports_round_batching`, the whole
    block's admissions come from one
    :meth:`~repro.policies.base.Policy.dispatch_rounds` call and the
    loop degenerates to the pure queue/departure recurrence;
  - **a compiled round kernel** (see :mod:`repro.sim.compiled`) may run
    the *entire* block natively; the driver rebuilds the queue
    trajectory and series from the admission/completion matrices
    (integer prefix sums, so the values are the per-round loop's).

* *sized jobs* interleave batches and sizes on the arrival stream, so
  pre-sampling repeats the reference's per-round call sequence.  Each
  round's flat size vector is laid out over the *non-empty*
  ``(dispatcher, server)`` cells of its dispatch matrix only (see
  :func:`sized_layout`): one mask finds them, and a prefix sum over the
  sizes gathered at their job boundaries gives every cell's work, so
  the rest of the round costs O(jobs + m), not O(m * n).  The block
  carries its jobs sorted server-major for a
  :class:`~repro.sim.batchstore.SizedBatchQueueStore`.

Bit-identity is the invariant throughout: for a given policy and seed,
every path produces the same admission matrix, completion matrix, queue
trajectory and checkpoint state as the per-round reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.policies.base import (
    Policy,
    has_native_dispatch_round,
    supports_round_batching,
)

from .lifecycle import RunController, validate_start_round
from .probes import ProbeBlock, ProbeSet

__all__ = [
    "BLOCK_ROUNDS",
    "Block",
    "RunState",
    "RoundKernel",
    "resume",
    "drive",
    "negative_cell",
    "sized_layout",
]

#: Rounds pre-sampled per block (bounds the memory of the ``(chunk, m)``
#: / ``(chunk, n)`` workload blocks and sets the checkpoint granularity).
BLOCK_ROUNDS = 256

_EMPTY_JOBS = np.empty(0, dtype=np.int64)


@dataclass
class Block:
    """One finished block of the round loop, ready to resolve.

    ``received`` / ``done`` / ``queues`` count work units (jobs, for
    unit-size jobs).  Sized blocks also carry their jobs as parallel
    arrays sorted (stably) server-major; unit-size blocks leave them
    ``None`` -- ``received`` says everything about unit jobs.
    """

    start_round: int
    length: int
    batch: np.ndarray  # (length, m) per-dispatcher arrivals (jobs)
    received: np.ndarray  # (length, n) per-server admissions
    done: np.ndarray  # (length, n) per-server completions
    queues: np.ndarray | None  # (length, n) post-round queues, if requested
    job_servers: np.ndarray | None = None
    job_rounds: np.ndarray | None = None
    job_sizes: np.ndarray | None = None


class RunState:
    """The kernels' mutable run accumulators (checkpointed).

    ``queues`` is the live array the checkpoint dicts reference -- the
    kernels mutate it in place and never rebind it.  Per-server arrays
    count work units; ``total_jobs`` counts jobs.
    """

    __slots__ = ("queues", "total_jobs", "server_received", "server_departed")

    def __init__(
        self,
        queues: np.ndarray,
        total_jobs: int = 0,
        server_received: np.ndarray | None = None,
        server_departed: np.ndarray | None = None,
    ) -> None:
        self.queues = queues
        self.total_jobs = total_jobs
        self.server_received = (
            np.zeros_like(queues) if server_received is None else server_received
        )
        self.server_departed = (
            np.zeros_like(queues) if server_departed is None else server_departed
        )

    @classmethod
    def restore(cls, state: dict | None, num_servers: int) -> "RunState":
        """From an :meth:`export` dict, or fresh zeros when ``None``."""
        if state is None:
            return cls(np.zeros(num_servers, dtype=np.int64))
        return cls(
            state["queues"],
            state["total_arrived"],
            state["server_received"],
            state["server_departed"],
        )

    def export(self) -> dict:
        """The checkpoint keys (live references)."""
        return {
            "queues": self.queues,
            "total_arrived": self.total_jobs,
            "server_received": self.server_received,
            "server_departed": self.server_departed,
        }

    @property
    def units_in(self) -> int:
        return int(self.server_received.sum())

    @property
    def units_out(self) -> int:
        return int(self.server_departed.sum())

    @property
    def units_queued(self) -> int:
        return int(self.queues.sum())


def _upgrade_sized_layout(state: dict, unit: bool) -> dict:
    """Map a checkpoint of the former sized-job kernels onto today's keys.

    Those kernels kept ``unit_queues`` and unit totals only.  The sized
    result reports no per-server figures, so the totals ride on server
    0.  Unit-size jobs now take the unit path, whose queue objects have
    the same ``[arrival_round, count]`` layout -- a unit job is a batch
    of one -- so their sized queues convert field by field.
    """
    from .batchstore import BatchQueueStore
    from .server import ServerQueue

    state = dict(state)
    queues = state.pop("unit_queues")
    received = np.zeros_like(queues)
    departed = np.zeros_like(queues)
    received[0] = state.pop("units_in")
    departed[0] = state.pop("units_out")
    state.update(
        queues=queues,
        total_arrived=state.pop("total_jobs"),
        server_received=received,
        server_departed=departed,
    )
    if unit:
        for holder in [state, *state.get("shards", ())]:
            if "store" in holder:
                holder["store"] = BatchQueueStore.from_unit_jobs(holder["store"])
        if "servers" in state:
            state["servers"] = [ServerQueue.from_unit_jobs(q) for q in state["servers"]]
    return state


def resume(
    controller: RunController | None, rounds: int, unit: bool
) -> tuple[int, dict | None]:
    """``(start_round, kernel state or None)`` for a kernel invocation."""
    if controller is None:
        return 0, None
    start = validate_start_round(controller.start_round, rounds, BLOCK_ROUNDS)
    state = controller.initial_state()
    if state is not None and "unit_queues" in state:
        state = _upgrade_sized_layout(state, unit)
    return start, state


class RoundKernel(Protocol):
    """A native whole-block round loop (the compiled kernel's seam).

    ``run_block`` owns dispatch state, the queue recurrence and the
    completion matrix for one block: it fills ``received`` and ``done``
    and advances ``queues`` in place, leaving the policy's carried state
    exactly as the per-round loop would.  The driver reconstructs the
    queue trajectory and accumulators from the matrices afterwards.
    """

    def run_block(
        self,
        batch: np.ndarray,  # (length, m) arrivals, read-only
        capacity: np.ndarray,  # (length, n) capacities, read-only
        queues: np.ndarray,  # (n,) live queue totals, advanced in place
        received: np.ndarray,  # (length, n) zeros on entry, filled
        done: np.ndarray,  # (length, n) zeros on entry, filled
    ) -> None: ...


def negative_cell(counts: np.ndarray, n: int, dispatcher: int = 0) -> str | None:
    """Describe the first negative count of a dispatch result, if any.

    ``counts`` is a round's ``(m, n)`` dispatch matrix, or the row of
    dispatcher ``dispatcher``: flat cell ``c`` is dispatcher
    ``dispatcher + c // n``'s count for server ``c % n``.
    """
    flat = counts.ravel()
    if flat.min(initial=0) >= 0:
        return None
    cell = int((flat < 0).argmax())
    return _negative_message(dispatcher * n + cell, int(flat[cell]), n)


def _negative_message(cell: int, count: int, n: int) -> str:
    return f"dispatcher {cell // n} assigned {count} jobs to server {cell % n}"


def sized_layout(
    counts: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(received, job_servers)`` of one sized round.

    ``counts`` is the round's ``(m, n)`` dispatch matrix raveled in C
    order -- dispatcher-major, servers ascending within a dispatcher --
    which is the order the round's flat ``sizes`` vector is handed out
    in.  Only the non-empty cells are touched: a prefix sum over
    ``sizes`` gathered at their job boundaries gives each cell's work
    units, summed per server into ``received``; ``job_servers`` is every
    job's server in admission order.  Past the one mask over ``counts``
    this is O(jobs + non-empty cells).

    Raises :class:`ValueError` (naming the dispatcher and server) on a
    negative count, or when the counts do not place every job once.
    """
    cells = np.flatnonzero(counts != 0)
    cell_counts = counts[cells]
    if cell_counts.min(initial=0) < 0:
        bad = int((cell_counts < 0).argmax())
        raise ValueError(_negative_message(int(cells[bad]), int(cell_counts[bad]), n))
    total = int(cell_counts.sum())
    if total != sizes.size:
        raise ValueError(f"assigned {total} jobs for a round of {sizes.size}")
    servers = cells % n
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    ends = np.cumsum(cell_counts)
    received = np.zeros(n, dtype=np.int64)
    np.add.at(received, servers, bounds[ends] - bounds[ends - cell_counts])
    return received, np.repeat(servers, cell_counts)


def _check_received_block(
    policy: Policy, received: np.ndarray, batch: np.ndarray, n: int, start_round: int
) -> None:
    """Vectorized analogue of the per-round shape / count checks."""
    if received.shape != (batch.shape[0], n):
        raise ValueError(
            f"{policy.name}.dispatch_rounds returned shape {received.shape}, "
            f"expected ({batch.shape[0]}, {n})"
        )
    if received.min(initial=0) < 0:
        i, s = np.argwhere(received < 0)[0]
        raise ValueError(
            f"{policy.name}, round {start_round + int(i)}: dispatch_rounds "
            f"assigned {int(received[i, s])} jobs to server {int(s)}"
        )
    round_totals = batch.sum(axis=1)
    got = received.sum(axis=1)
    if not np.array_equal(got, round_totals):
        bad = int(np.flatnonzero(got != round_totals)[0])
        raise ValueError(
            f"{policy.name}, round {start_round + bad}: assigned "
            f"{int(got[bad])} jobs for a round of {int(round_totals[bad])}"
        )


def _record_totals(series, start_total: int, received_block, done_block) -> None:
    """Record a block's per-round total queue lengths in one call."""
    totals = (received_block - done_block).sum(axis=1)
    np.cumsum(totals, out=totals)
    totals += start_total
    series.record_many(totals)


def drive(
    sim,
    *,
    start_round: int,
    state: RunState,
    block_probes: ProbeSet,
    series,
    consume: Callable[[Block], None],
    controller: RunController | None = None,
    export_state: Callable[[], dict] | None = None,
    round_kernel: RoundKernel | None = None,
) -> None:
    """Run ``sim``'s round loop from ``start_round`` to ``sim.rounds``.

    ``block_probes`` is the probe set fed whole blocks (the fast
    kernel's full set; the sharded coordinator's non-partitionable
    subset); ``series`` is the queue-length series recorded per round,
    or ``None`` when the consumer's side owns it (shard workers record
    their own slices).  ``round_kernel`` applies to unit-size jobs only.
    """
    policy = sim.policy
    arrivals = sim.arrivals
    arrival_rng = sim._streams.arrivals
    departure_rng = sim._streams.departures
    unit = sim.unit_jobs
    queues = state.queues
    n = queues.size
    m = arrivals.num_dispatchers
    native = has_native_dispatch_round(policy)
    batching = unit and supports_round_batching(policy)
    if not unit:
        round_kernel = None
    fields = block_probes.fields
    need_queues = "queues" in fields
    wants_blocks = block_probes.wants_blocks
    track = need_queues or series is not None

    for chunk_start in range(start_round, sim.rounds, BLOCK_ROUNDS):
        chunk = min(BLOCK_ROUNDS, sim.rounds - chunk_start)

        # Phase 1 (pre-sampled): arrivals -- and, for sized jobs, sizes,
        # interleaved per round exactly as the reference consumes them.
        if unit:
            batch_block = arrivals.sample_many(arrival_rng, chunk_start, chunk)
        else:
            batch_block = np.empty((chunk, m), dtype=np.int64)
            size_rows: list[np.ndarray] = []
            for i in range(chunk):
                batch = arrivals.sample(arrival_rng, chunk_start + i)
                batch_block[i] = batch
                k = int(batch.sum())
                size_rows.append(sim.sizes.sample(arrival_rng, k) if k else _EMPTY_JOBS)
            job_servers: list[np.ndarray] = []
            job_rounds: list[np.ndarray] = []
        capacity_block = sim.service.sample_many(departure_rng, chunk_start, chunk)
        received_block = np.zeros((chunk, n), dtype=np.int64)
        done_block = np.zeros((chunk, n), dtype=np.int64)
        queue_block = np.zeros((chunk, n), dtype=np.int64) if need_queues else None
        state.total_jobs += int(batch_block.sum())

        batched = None
        if round_kernel is not None:
            start_total = int(queues.sum()) if track else 0
            start_queues = queues.copy() if need_queues else None
            round_kernel.run_block(
                batch_block, capacity_block, queues, received_block, done_block
            )
            if queue_block is not None:
                np.cumsum(received_block - done_block, axis=0, out=queue_block)
                queue_block += start_queues
            if series is not None:
                _record_totals(series, start_total, received_block, done_block)
        elif batching and (batched := policy.dispatch_rounds(batch_block)) is not None:
            _check_received_block(policy, batched, batch_block, n, chunk_start)
            received_block[:] = batched
            start_total = int(queues.sum()) if series is not None else 0
            # The policy is out of the loop; only the queue / departure
            # recurrence remains, round by round.
            for i in range(chunk):
                queues += received_block[i]
                done = np.minimum(queues, capacity_block[i])
                done_block[i] = done
                queues -= done
                if queue_block is not None:
                    queue_block[i] = queues
            if series is not None:
                _record_totals(series, start_total, received_block, done_block)
        else:
            for i in range(chunk):
                t = chunk_start + i
                batch = batch_block[i]
                round_total = int(batch.sum())

                # Phase 2: one batched dispatch for the whole round.
                policy.begin_round(t, queues)
                if round_total:
                    policy.observe_total_arrivals(round_total)
                    problem = None
                    if native or not unit:
                        rows = policy.dispatch_round(batch, queues)
                        if rows.shape != (m, n):
                            raise ValueError(
                                f"{policy.name}.dispatch_round returned shape "
                                f"{rows.shape}, expected ({m}, {n})"
                            )
                        if unit:
                            problem = negative_cell(rows, n)
                            received = rows.sum(axis=0)
                    else:
                        received = np.zeros(n, dtype=np.int64)
                        for d in range(m):
                            k = int(batch[d])
                            if k:
                                row = policy.dispatch(d, k)
                                problem = problem or negative_cell(row, n, d)
                                received += row
                    if not unit:
                        # Sizes are consumed dispatcher-major, within a
                        # dispatcher in server order -- the C-order of
                        # the dispatch matrix, whose non-empty cells
                        # alone lay the round's jobs out.
                        try:
                            received, servers = sized_layout(rows.ravel(), size_rows[i], n)
                        except ValueError as exc:
                            problem = str(exc)
                        else:
                            job_servers.append(servers)
                            job_rounds.append(np.full(round_total, t, dtype=np.int64))
                    elif problem is None and int(received.sum()) != round_total:
                        problem = (
                            f"assigned {int(received.sum())} jobs for a round "
                            f"of {round_total}"
                        )
                    if problem is not None:
                        raise ValueError(f"{policy.name}, round {t}: {problem}")
                    received_block[i] = received
                    queues += received

                # Phase 3: departures -- totals now, FIFO resolution at
                # block end (by the consumer).
                done = np.minimum(queues, capacity_block[i])
                done_block[i] = done
                queues -= done

                policy.end_round(t, queues)
                if series is not None:
                    series.record(int(queues.sum()))
                if queue_block is not None:
                    queue_block[i] = queues

        state.server_received += received_block.sum(axis=0)
        state.server_departed += done_block.sum(axis=0)
        block = Block(
            start_round=chunk_start,
            length=chunk,
            batch=batch_block,
            received=received_block,
            done=done_block,
            queues=queue_block,
        )
        if not unit:
            # Jobs are concatenated in (round, dispatcher) admission
            # order; a stable sort by server turns that into the
            # server-major FIFO order every store requires.
            if job_servers:
                srv = np.concatenate(job_servers)
                order = np.argsort(srv, kind="stable")
                block.job_servers = srv[order]
                block.job_rounds = np.concatenate(job_rounds)[order]
                block.job_sizes = np.concatenate(size_rows)[order]
            else:
                block.job_servers = block.job_rounds = block.job_sizes = _EMPTY_JOBS
        consume(block)
        if wants_blocks:
            block_probes.observe_block(
                ProbeBlock(
                    start_round=chunk_start,
                    length=chunk,
                    batch=batch_block if "batch" in fields else None,
                    received=received_block if "received" in fields else None,
                    done=done_block if "done" in fields else None,
                    queues=queue_block,
                )
            )
        if controller is not None:
            assert export_state is not None
            controller.after_block(chunk_start + chunk, export_state)
