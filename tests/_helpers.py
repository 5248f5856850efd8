"""Shared hypothesis strategies and statistical assertions for the suite.

A plain helper module (not a conftest) so test files can ``from _helpers
import ...`` without depending on pytest's conftest import machinery --
importing from ``conftest`` breaks when another rootdir directory (e.g.
``benchmarks/``) registers its own ``conftest`` module first.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

__all__ = [
    "server_instances",
    "dispatch_instances",
    "ensemble_tolerance",
    "assert_ensemble_close",
    "store_scenarios",
    "replay_store_scenario",
    "collect_records",
]


def ensemble_tolerance(n: int, base: float = 1.0, floor: float = 0.01) -> float:
    """Relative tolerance for an ``n``-sample ensemble vs a prediction.

    Sampling error of an ensemble mean shrinks like ``1/sqrt(n)``, so
    the tolerance is ``floor + base / sqrt(n)``: bigger ensembles (or
    bigger simulated systems) must match their analytical prediction
    *more* tightly, while ``floor`` absorbs model error that does not
    vanish with ``n`` (e.g. the O(1/n) finite-system gap to a
    mean-field limit, or histogram discretization).
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    return floor + base / math.sqrt(n)


def assert_ensemble_close(
    observed: float,
    predicted: float,
    *,
    n: int,
    base: float = 1.0,
    floor: float = 0.01,
    label: str = "ensemble mean",
) -> None:
    """Assert an empirical ensemble statistic matches a prediction.

    The shared check for every "simulation agrees with theory" test:
    second-moment formulas (``test_theory``), fluid-limit parity
    (``test_meanfield``).  Relative error is measured against the
    prediction; tolerance comes from :func:`ensemble_tolerance`.
    """
    scale = max(abs(float(predicted)), 1e-12)
    error = abs(float(observed) - float(predicted)) / scale
    tolerance = ensemble_tolerance(n, base=base, floor=floor)
    assert error <= tolerance, (
        f"{label}: observed {observed!r} vs predicted {predicted!r} -> "
        f"relative error {error:.4f} > tolerance {tolerance:.4f} (n={n})"
    )


@st.composite
def server_instances(draw, max_servers: int = 24, max_queue: int = 60):
    """A random (queues, rates) pair with well-conditioned rates."""
    n = draw(st.integers(min_value=1, max_value=max_servers))
    queues = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max_queue),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    rates = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=0.25,
                    max_value=64.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return queues, rates


@st.composite
def dispatch_instances(draw, max_servers: int = 24, max_arrivals: int = 200):
    """A random (queues, rates, arrivals) dispatching instance."""
    queues, rates = draw(server_instances(max_servers=max_servers))
    arrivals = draw(st.integers(min_value=1, max_value=max_arrivals))
    return queues, rates, arrivals


@st.composite
def store_scenarios(
    draw,
    max_size: int = 1,
    max_servers: int = 5,
    max_blocks: int = 3,
    max_block_len: int = 10,
):
    """Blocks of admissions and completions for the FIFO batch stores.

    Returns ``(n, warmup, blocks)``; each block is ``(start_round, mask,
    rounds, done)``: the churn mask in force (``None`` for the full
    fleet; masked servers admit nothing but may drain), per round the
    admitted jobs as ``(servers, sizes)`` sorted by server, and the
    ``(length, n)`` work units completed.  Every block draws one of
    three completion modes: random feasible drains, no departures at
    all, or random drains with a last round that empties every server.
    ``warmup`` may end inside any block.  ``max_size=1`` gives unit jobs.
    """
    n = draw(st.integers(1, max_servers))
    length = draw(st.integers(1, max_block_len))
    modes = draw(
        st.lists(
            st.sampled_from(["random", "idle", "drain"]), min_size=1, max_size=max_blocks
        )
    )
    churn = draw(st.booleans())
    warmup = draw(st.integers(0, len(modes) * length))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    queued = np.zeros(n, dtype=np.int64)
    blocks = []
    for b, mode in enumerate(modes):
        mask = rng.random(n) < 0.6 if churn else None
        rounds = []
        done = np.zeros((length, n), dtype=np.int64)
        for i in range(length):
            counts = rng.integers(0, 4, size=n)
            if mask is not None:
                counts[~mask] = 0
            servers = np.repeat(np.arange(n), counts)
            sizes = rng.integers(1, max_size + 1, size=servers.size)
            np.add.at(queued, servers, sizes)
            if mode == "drain" and i == length - 1:
                done[i] = queued
            elif mode != "idle":
                done[i] = rng.integers(0, queued + 1)
            queued -= done[i]
            rounds.append((servers, sizes))
        blocks.append((b * length, mask, rounds, done))
    return n, warmup, blocks


class _RecordTo:
    """A histogram stand-in that logs ``(round, time, count, server)``."""

    def __init__(self, records: list, now: int, server: int) -> None:
        self._records = records
        self._now = now
        self._server = server

    def record(self, response_time: int, count: int = 1) -> None:
        self._records.append((self._now, response_time, count, self._server))


def replay_store_scenario(queues, warmup, blocks, admit):
    """Drain a :func:`store_scenarios` case through per-server reference queues.

    ``queues`` holds one ``ServerQueue`` / ``SizedServerQueue`` per
    server and ``admit(queue, round, sizes)`` feeds one server's jobs of
    a round.  Yields, per block, the post-warmup response records in the
    stores' order -- server-major, then by departure -- as ``(round,
    time, count, server)`` tuples.  The queues are left as the block
    left them, for a carry comparison.
    """
    for start, _, rounds, done in blocks:
        records = [[] for _ in queues]
        for i, (servers, sizes) in enumerate(rounds):
            t = start + i
            for s, queue in enumerate(queues):
                own = sizes[servers == s]
                if own.size:
                    admit(queue, t, own)
            for s in np.flatnonzero(done[i]):
                sink = _RecordTo(records[s], t, int(s)) if t >= warmup else None
                assert queues[s].complete(int(done[i, s]), t, sink) == done[i, s]
        yield [record for per_server in records for record in per_server]


def collect_records(records: list):
    """A ``response_sink`` appending ``(round, time, count, server)`` tuples."""

    def sink(dep_rounds, times, counts, servers) -> None:
        columns = (dep_rounds, times, counts, servers)
        records.extend(zip(*(column.tolist() for column in columns)))

    return sink
