"""Array-backed FIFO batch storage, resolved one round-block at a time.

The reference engine keeps one :class:`repro.sim.server.ServerQueue`
(a deque of ``[arrival_round, count]`` cells) per server and drains them
one Python call per server per round.  :class:`BatchQueueStore` holds
the same information for the whole pool as flat server-major arrays --
a structure of ``(arrival_round, count)`` pairs -- and exploits that a
round's *queue dynamics* need only the per-server totals: the engine can
run a whole block of rounds updating ``queues += received - done`` and
hand the store the block's ``(rounds, servers)`` admission and
completion matrices afterwards.  FIFO response times are then recovered
for every server at once on the *departed axis*:

* Within one server, jobs occupy FIFO *positions* ``1..N``; batch ``j``
  covers the position interval ``(B_{j-1}, B_j]`` of the cumulative
  batch counts.  The block drains the prefix ``(0, d]``, ``d`` the
  server's completions in the block, and round ``u``'s departures cover
  ``(D_{u-1}, D_u]`` of it.
* The departed axis lays the servers' drained prefixes end to end; only
  boundaries on it are ever stored, never one entry per job.  The
  departure ends on it are one running total of the non-zero cells of
  the completion matrix, read server-major.
* Those ends and the batch ends clipped to ``d`` cut the axis into
  segments, each in exactly one batch and one departure round --
  precisely the ``(response_time, count)`` pairs the reference engine
  records one at a time, in the same server-major, position-ascending
  order.  Both lists of ends ascend, so one stable sort of the two is a
  linear merge (timsort finds the two runs), and counting the ends of
  each kind before a segment gives its batch and round.
* What lies past ``d`` is the carry: ``B_j - max(B_{j-1}, d)`` of each
  batch still queued when the block ends, re-stored in server-major
  FIFO order for the next block.

Total work per block is a handful of linear numpy passes over the
batches and the non-zero matrix cells, however many jobs each holds,
with none of the per-round small-array overhead; scratch memory scales
the same way.  The result is bit-identical to draining the reference
queues: both produce the same (response time, count) records and the
same leftover batches.

:class:`SizedBatchQueueStore` is the unit-denominated analog for the
sized-job engine (:mod:`repro.sim.sized`): the FIFO position axis counts
*work units* instead of jobs, each pending entry is one job ``(arrival
round, remaining units)``, and a job's response time is attributed to
the round its *last* unit drains.  A job whose end lies within ``d``
has completed, and one ``searchsorted`` of the completed jobs' ends
into the departure ends on the departed axis finds their rounds.  The
two stores share their geometry, churn-mask guard and FIFO carry merge
(:class:`_FifoStore`) and the cell extraction; they differ only in what
one pending entry is and when a completion is recorded.  Which store a
run uses follows from its job sizes: unit-size jobs stay batch-granular.

Both stores split :meth:`process_block` into input checks and a
``_resolve`` step, which :mod:`repro.sim.compiled` overrides with a
jitted two-pointer walk.
"""

from __future__ import annotations

import numpy as np

from .metrics import ResponseTimeHistogram

__all__ = ["BatchQueueStore", "SizedBatchQueueStore", "make_store"]


class _FifoStore:
    """Server-major FIFO storage shared by the unit and sized stores.

    Pending entries live in flat server-major arrays: ``_rounds`` (arrival
    round of each entry), an amount array named by the subclass, and
    ``_lengths`` (entries per server).  Attribute names are part of the
    checkpoint format.
    """

    def __init__(self, num_servers: int) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self._n = int(num_servers)
        self._rounds = np.empty(0, dtype=np.int64)
        self._lengths = np.zeros(self._n, dtype=np.int64)
        self._capacity_mask: np.ndarray | None = None

    @property
    def num_servers(self) -> int:
        return self._n

    # -- capacity mask (server churn) --------------------------------------

    def capacity_mask(self) -> np.ndarray | None:
        """The availability mask in force, or ``None`` (full fleet)."""
        # getattr: checkpoints written before churn existed lack the slot.
        return getattr(self, "_capacity_mask", None)

    def set_capacity_mask(self, mask: np.ndarray | None) -> None:
        """Stamp the block's churn mask (``True`` = accepts dispatches).

        Masked servers may still *drain* -- departures are legal on any
        server holding work -- but :meth:`process_block` rejects blocks
        that admit jobs to them, turning a churn-adapter bug into a loud
        corruption error instead of silently wrong results.  The mask is
        a plain attribute, so checkpoints pickle and restore it.
        """
        if mask is None:
            self._capacity_mask = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise ValueError(
                f"capacity mask has shape {mask.shape}, expected ({self._n},)"
            )
        self._capacity_mask = mask

    def _admit(
        self, held: np.ndarray, new_totals: np.ndarray, done_block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Guard one block's admissions; per-server ``(totals, departures)``."""
        mask = self.capacity_mask()
        if mask is not None and np.any(new_totals[~mask]):
            raise RuntimeError(
                "batch store admitted jobs to churn-masked servers; "
                "the churn adapter failed to redirect them"
            )
        totals = held + new_totals
        dep_totals = done_block.sum(axis=0)
        if np.any(dep_totals > totals):
            raise RuntimeError(
                "batch store drained past its contents; "
                "engine accounting is corrupt"
            )
        return totals, dep_totals

    def _merge(
        self,
        old_amounts: np.ndarray,
        new_lengths: np.ndarray,
        new_rounds: np.ndarray,
        new_amounts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Carried entries, then the block's, per server (server-major).

        ``new_*`` are the block's entries sorted server-major,
        ``new_lengths`` their number per server.  Returns the merged
        ``(rounds, amounts, server)`` arrays.
        """
        # Each server's carried entries go in ahead of its first new one.
        at = np.repeat(np.cumsum(new_lengths) - new_lengths, self._lengths)
        return (
            np.insert(new_rounds, at, self._rounds),
            np.insert(new_amounts, at, old_amounts),
            np.repeat(np.arange(self._n), self._lengths + new_lengths),
        )


def _cells(start_round: int, block: np.ndarray):
    """A ``(rounds, servers)`` block's non-zero cells, server-major.

    Returns each cell's round and value.
    """
    by_server = np.ascontiguousarray(block.T, dtype=np.int64).ravel()
    cells = np.flatnonzero(by_server != 0)
    return start_round + cells % block.shape[0], by_server[cells]


def _emit(histogram, response_sink, dep_rounds, times, counts, servers) -> None:
    """Hand one block's response records to the histogram and the probes."""
    if histogram is not None:
        histogram.record_many(times, counts)
    if response_sink is not None:
        response_sink(dep_rounds, times, counts, servers)


class BatchQueueStore(_FifoStore):
    """Pending ``(arrival_round, count)`` batches for ``n`` servers.

    State between blocks is three flat arrays: per-server batch counts
    and arrival rounds (server-major, FIFO within server) plus the
    per-server batch- and job-totals.  :meth:`process_block` advances
    the store over a block of rounds given the block's admission and
    completion matrices.
    """

    def __init__(self, num_servers: int) -> None:
        super().__init__(num_servers)
        self._counts = np.empty(0, dtype=np.int64)
        self._jobs = np.zeros(self._n, dtype=np.int64)

    @classmethod
    def from_unit_jobs(cls, store: "SizedBatchQueueStore") -> "BatchQueueStore":
        """Adopt a :class:`SizedBatchQueueStore` holding unit-size jobs.

        A pending unit job is a batch of one, so the arrays carry over.
        """
        adopted = cls(store.num_servers)
        adopted._rounds = store._rounds
        adopted._counts = store._remaining
        adopted._lengths = store._lengths
        adopted._jobs = store._units
        adopted._capacity_mask = store.capacity_mask()
        return adopted

    # -- state inspection (tests, debugging) -------------------------------

    def batch_counts(self) -> np.ndarray:
        """Number of pending batches per server."""
        return self._lengths.copy()

    def queued_jobs(self) -> np.ndarray:
        """Total queued jobs per server (sum of pending batch counts)."""
        return self._jobs.copy()

    # -- block resolution --------------------------------------------------

    def process_block(
        self,
        start_round: int,
        received_block: np.ndarray,
        done_block: np.ndarray,
        histogram: ResponseTimeHistogram | None,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        """Advance the store over rounds ``start_round .. start_round+L-1``.

        Parameters
        ----------
        received_block:
            ``(L, n)`` jobs admitted per round per server (round ``t``'s
            arrivals are FIFO-behind everything queued before it).
        done_block:
            ``(L, n)`` jobs completed per round per server.  The engine
            guarantees the per-round feasibility ``done <= queued``;
            block totals are re-checked here as a corruption guard.
        histogram:
            Destination for the response times ``depart - arrive + 1``
            of every completion in the block; ``None`` discards them.
        warmup:
            Completions in rounds ``< warmup`` are not recorded (queue
            accounting still includes them), matching the reference
            engine's per-round sink gating.
        response_sink:
            Optional callable ``(departure_rounds, times, counts,
            servers)`` receiving the same post-warmup records the
            histogram gets, stamped with the serving server of each
            record (the probe feed; see :mod:`repro.sim.probes`).
        """
        totals, dep_totals = self._admit(
            self._jobs, received_block.sum(axis=0), done_block
        )
        if totals.any():
            self._resolve(
                start_round, received_block, done_block, totals, dep_totals,
                histogram, warmup, response_sink,
            )

    def _resolve(
        self, start_round, received_block, done_block, totals, dep_totals,
        histogram, warmup, response_sink,
    ) -> None:
        # Batch sequence per server: carried batches first, then the
        # block's admissions in round order (server-major throughout).
        new_rounds, new_counts = _cells(start_round, received_block)
        batch_rounds, batch_counts, batch_server = self._merge(
            self._counts, np.count_nonzero(received_block, axis=0), new_rounds, new_counts
        )
        local_end = np.cumsum(batch_counts) - (np.cumsum(totals) - totals)[batch_server]
        drained = dep_totals[batch_server]

        if histogram is not None or response_sink is not None:
            # Batches reaching into their server's drained region, their
            # ends clipped to it, on the departed axis.  Together with
            # the departure ends these cut it into segments, each in one
            # batch and one departure round: a record apiece.
            served = local_end - batch_counts < drained
            served_server = batch_server[served]
            dep_rounds, dep_counts = _cells(start_round, done_block)
            dep_base = np.cumsum(dep_totals) - dep_totals
            batch_ends = np.minimum(local_end[served], drained[served]) + dep_base[served_server]
            # Both end lists ascend, so sorting the two, tagged in the low
            # bit, is a merge: ``stable`` is timsort, which finds the two
            # runs and merges them in one linear pass.  A batch end sorts
            # ahead of an equal departure end; the empty segment between
            # them is dropped below.
            ends = np.sort(
                np.concatenate([batch_ends << 1, (np.cumsum(dep_counts) << 1) | 1]),
                kind="stable",
            )
            # A segment's departure index counts the departure ends
            # before it; its batch index, the batch ends before it, is
            # its position less that count.
            is_dep = ends & 1
            seg_dep = np.cumsum(is_dep) - is_dep
            seg_counts = np.diff(ends >> 1, prepend=0)
            seg = np.flatnonzero((seg_counts > 0) & (dep_rounds[seg_dep] >= warmup))
            seg_dep = seg_dep[seg]
            seg_batch = seg - seg_dep
            dep_round = dep_rounds[seg_dep]
            _emit(
                histogram,
                response_sink,
                dep_round,
                dep_round - batch_rounds[served][seg_batch] + 1,
                seg_counts[seg],
                served_server[seg_batch],
            )

        # The carry: what of each batch lies past its server's drained
        # region, still batch-granular and server-major FIFO.
        left = local_end > drained
        self._rounds = batch_rounds[left]
        self._counts = np.minimum(batch_counts[left], (local_end - drained)[left])
        self._lengths = np.bincount(batch_server[left], minlength=self._n)
        self._jobs = totals - dep_totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchQueueStore servers={self._n} "
            f"batches={int(self._lengths.sum())} "
            f"jobs={int(self._jobs.sum())}>"
        )


class SizedBatchQueueStore(_FifoStore):
    """Pending sized jobs for ``n`` servers, on a work-unit position axis.

    The sized engine's analog of :class:`BatchQueueStore`: each pending
    entry is one job ``(arrival_round, remaining_units)``, kept
    server-major in FIFO order, and the per-server position axis is
    denominated in work units.  :meth:`process_block` advances the store
    over a block of rounds given the block's admitted jobs and the
    ``(rounds, servers)`` matrix of per-round unit completions, recording
    each job's response time at the round its *last* unit drains --
    exactly the semantics of
    :meth:`repro.sim.sized.SizedServerQueue.complete`, including partial
    service of the head job across block boundaries.
    """

    def __init__(self, num_servers: int) -> None:
        super().__init__(num_servers)
        self._remaining = np.empty(0, dtype=np.int64)
        self._units = np.zeros(self._n, dtype=np.int64)

    # -- state inspection (tests, debugging) -------------------------------

    def job_counts(self) -> np.ndarray:
        """Number of pending jobs per server."""
        return self._lengths.copy()

    def queued_units(self) -> np.ndarray:
        """Total queued work units per server (head jobs may be partial)."""
        return self._units.copy()

    # -- block resolution --------------------------------------------------

    def process_block(
        self,
        start_round: int,
        job_servers: np.ndarray,
        job_rounds: np.ndarray,
        job_sizes: np.ndarray,
        done_block: np.ndarray,
        histogram: ResponseTimeHistogram | None,
        warmup: int = 0,
        response_sink=None,
    ) -> None:
        """Advance the store over rounds ``start_round .. start_round+L-1``.

        Parameters
        ----------
        job_servers, job_rounds, job_sizes:
            The block's admitted jobs as parallel flat arrays, sorted
            server-major and, within a server, in admission order
            (arrival round ascending, then dispatcher order -- the order
            :meth:`repro.sim.sized.SizedServerQueue.admit` sees them).
        done_block:
            ``(L, n)`` work units completed per round per server.  The
            engine guarantees per-round feasibility ``done <= queued``;
            block totals are re-checked here as a corruption guard.
        histogram:
            Destination for each completed job's response time
            ``last_unit_round - arrival_round + 1``; ``None`` discards.
        warmup:
            Jobs finishing in rounds ``< warmup`` are not recorded
            (unit accounting still includes them).
        response_sink:
            Optional callable ``(departure_rounds, times, counts,
            servers)`` receiving the same post-warmup records the
            histogram gets, stamped with the serving server of each
            record (the probe feed; see :mod:`repro.sim.probes`).
        """
        job_servers = np.ascontiguousarray(job_servers, dtype=np.int64)
        job_rounds = np.ascontiguousarray(job_rounds, dtype=np.int64)
        job_sizes = np.ascontiguousarray(job_sizes, dtype=np.int64)
        if not (job_servers.shape == job_rounds.shape == job_sizes.shape):
            raise ValueError("job arrays must be parallel 1-D arrays")
        if job_sizes.size and int(job_sizes.min()) < 1:
            raise ValueError("job sizes must be >= 1")
        if job_servers.size and np.any(np.diff(job_servers) < 0):
            raise ValueError("jobs must be sorted server-major")
        new_units = np.zeros(self._n, dtype=np.int64)
        if job_sizes.size:
            np.add.at(new_units, job_servers, job_sizes)
        totals, dep_totals = self._admit(self._units, new_units, done_block)
        if totals.any():
            self._resolve(
                start_round, job_servers, job_rounds, job_sizes, done_block,
                totals, dep_totals, histogram, warmup, response_sink,
            )

    def _resolve(
        self, start_round, job_servers, job_rounds, job_sizes, done_block,
        totals, dep_totals, histogram, warmup, response_sink,
    ) -> None:
        # Job sequence per server: carried jobs first (the head may be
        # partially served), then the block's admissions (server-major).
        rounds_merged, units_merged, job_server = self._merge(
            self._remaining,
            np.bincount(job_servers, minlength=self._n),
            job_rounds,
            job_sizes,
        )
        # Job j ends at its server's cumulative unit count through j; it
        # completes if that end lies in the server's drained region.
        local_end = np.cumsum(units_merged) - (np.cumsum(totals) - totals)[job_server]
        drained = dep_totals[job_server]
        completed = local_end <= drained

        if histogram is not None or response_sink is not None:
            # It finishes in the departure round whose end is the first
            # one at or past its own, on the departed axis.
            done_server = job_server[completed]
            dep_rounds, dep_counts = _cells(start_round, done_block)
            dep_base = np.cumsum(dep_totals) - dep_totals
            job_ends = local_end[completed] + dep_base[done_server]
            dep_round = dep_rounds[np.searchsorted(np.cumsum(dep_counts), job_ends)]
            record = dep_round >= warmup
            dep_round = dep_round[record]
            _emit(
                histogram,
                response_sink,
                dep_round,
                dep_round - rounds_merged[completed][record] + 1,
                np.ones(dep_round.size, dtype=np.int64),
                done_server[record],
            )

        # Carry: jobs whose last unit outlives the block's completions;
        # the head job of each leftover server may be partially served.
        carried = ~completed
        self._rounds = rounds_merged[carried]
        self._remaining = np.minimum(units_merged[carried], (local_end - drained)[carried])
        self._lengths = np.bincount(job_server[carried], minlength=self._n)
        self._units = totals - dep_totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SizedBatchQueueStore servers={self._n} "
            f"jobs={int(self._lengths.sum())} "
            f"units={int(self._units.sum())}>"
        )


def make_store(num_servers: int, unit: bool) -> _FifoStore:
    """The numpy store for unit-size (batch-granular) or sized jobs."""
    return BatchQueueStore(num_servers) if unit else SizedBatchQueueStore(num_servers)
