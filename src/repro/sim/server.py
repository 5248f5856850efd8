"""FIFO server queues with batch-compressed storage.

All jobs a server receives in the same round are interchangeable for
response-time purposes (same arrival round, FIFO service, arbitrary
intra-round order per the model's footnote 3), so a queue is stored as a
deque of ``[arrival_round, count]`` cells rather than one entry per job.
Admitting a round's batch is O(1) and completing ``c`` jobs touches at most
``O(#distinct arrival rounds drained)`` cells -- the simulator's memory and
time stay bounded by rounds, not by jobs.
"""

from __future__ import annotations

from collections import deque

from .metrics import ResponseTimeHistogram

__all__ = ["ServerQueue"]


class ServerQueue:
    """A single server's FIFO queue of pending jobs.

    Attributes
    ----------
    length:
        Current number of queued jobs (kept consistent by the methods).
    """

    __slots__ = ("_batches", "length")

    def __init__(self) -> None:
        self._batches: deque[list[int]] = deque()
        self.length = 0

    @classmethod
    def from_unit_jobs(cls, queue) -> "ServerQueue":
        """Adopt a :class:`~repro.sim.sized.SizedServerQueue` of unit jobs.

        Its ``[arrival_round, remaining]`` cells are batches of one.
        """
        adopted = cls()
        adopted._batches = queue._jobs
        adopted.length = queue.units
        return adopted

    def admit(self, round_index: int, count: int) -> None:
        """Append ``count`` jobs that arrived in round ``round_index``."""
        if count <= 0:
            return
        self._batches.append([round_index, count])
        self.length += count

    def complete(
        self,
        capacity: int,
        now: int,
        histogram: ResponseTimeHistogram | None,
    ) -> int:
        """Serve up to ``capacity`` jobs FIFO; record their response times.

        A job arriving in round ``t`` and departing in round ``now`` spent
        ``now - t + 1`` rounds in the system (the minimum is one round:
        arrive, get dispatched, get served).

        Parameters
        ----------
        capacity:
            ``c_s(t)``, the number of jobs the server can finish this round.
        now:
            Current round index.
        histogram:
            Destination for response-time samples; ``None`` discards them
            (used during warm-up).

        Returns
        -------
        int
            Number of jobs actually completed (``<= capacity``).
        """
        if capacity <= 0 or self.length == 0:
            return 0
        remaining = min(int(capacity), self.length)
        completed = remaining
        batches = self._batches
        while remaining > 0:
            head = batches[0]
            take = head[1] if head[1] <= remaining else remaining
            if histogram is not None:
                histogram.record(now - head[0] + 1, take)
            remaining -= take
            if take == head[1]:
                batches.popleft()
            else:
                head[1] -= take
        self.length -= completed
        return completed

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerQueue length={self.length} batches={len(self._batches)}>"
