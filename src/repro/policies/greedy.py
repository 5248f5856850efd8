"""Greedy batch assignment: the JSQ / SED inner loop, done in bulk.

In the round-based model a dispatcher receives a *batch* of ``k`` jobs and
(under JSQ-style policies) assigns them one at a time, each to the server
minimizing the post-assignment criterion.  For SED the criterion for the
``j``-th extra job on server ``s`` is the resulting load
``(q_s + j) / mu_s``; JSQ is the special case ``mu == 1``.

Because the per-server marginal costs ``(q_s + j)/mu_s`` are increasing in
``j``, the sequential greedy is equivalent to selecting the ``k`` globally
smallest marginals -- which admits an ``O(n log n + k)``-ish vectorized
computation instead of ``k`` heap operations:

1. Water-fill to the continuous level ``L*`` (reusing
   :func:`repro.core.iwl.compute_iwl`); every marginal strictly below
   ``L*`` is certainly selected, giving per-server base counts.
2. Only ``O(n)`` jobs remain; their marginals are materialized per server
   and resolved with one ``argpartition``.

Both the vectorized routine and a plain heap reference are provided; they
agree up to tie-breaking, certified by :func:`greedy_certificate_ok`
(exchange optimality: no selected marginal exceeds any unselected one).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.iwl import _validate, compute_iwl, trusted_iwl

__all__ = [
    "greedy_batch_assign",
    "greedy_batch_assign_heap",
    "greedy_rows_for_batches",
    "greedy_certificate_ok",
]

#: Above this many candidate marginals the vectorized finish would allocate
#: too much; fall back to the heap for the residue.
_MAX_CANDIDATES = 4_000_000


def greedy_batch_assign_heap(
    queues: np.ndarray,
    rates: np.ndarray,
    num_jobs: int,
) -> np.ndarray:
    """Reference implementation: ``k`` heap pops, exactly the sequential greedy.

    Ties are broken by server index (the model allows arbitrary
    tie-breaking).  Used by tests and as the fallback path.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    n = queues.size
    counts = np.zeros(n, dtype=np.int64)
    if num_jobs <= 0:
        return counts
    q_list = queues.tolist()
    mu_list = rates.tolist()
    heap = [((q_list[s] + 1.0) / mu_list[s], s) for s in range(n)]
    heapq.heapify(heap)
    for _ in range(int(num_jobs)):
        _, s = heap[0]
        counts[s] += 1
        next_marginal = (q_list[s] + counts[s] + 1.0) / mu_list[s]
        heapq.heapreplace(heap, (next_marginal, s))
    return counts


def greedy_batch_assign(
    queues: np.ndarray,
    rates: np.ndarray,
    num_jobs: int,
) -> np.ndarray:
    """Vectorized sequential-greedy batch assignment.

    Parameters
    ----------
    queues:
        Queue lengths (or load estimates) the greedy ranks on.
    rates:
        Service rates; pass an all-ones array for plain JSQ ranking.
    num_jobs:
        Batch size ``k``.

    Returns
    -------
    numpy.ndarray
        Int64 counts per server summing to ``num_jobs``, satisfying the
        greedy exchange certificate.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    n = queues.size
    if num_jobs <= 0:
        return np.zeros(n, dtype=np.int64)
    k = int(num_jobs)
    return _assign_from_level(queues, rates, k, compute_iwl(queues, rates, float(k)))


def _assign_from_level(
    queues: np.ndarray, rates: np.ndarray, k: int, level: float
) -> np.ndarray:
    """The greedy counts for ``k`` jobs, given their continuous water level.

    ``queues`` and ``rates`` are float arrays; ``level`` is the IWL of
    ``k`` arrivals on them.
    """
    n = queues.size
    # Every integer marginal strictly below the level L* is among the k
    # smallest (the selection threshold T* is >= L*).
    base = np.ceil(rates * level - queues - 1e-9).astype(np.int64) - 1
    np.maximum(base, 0, out=base)
    remaining = k - int(base.sum())
    if remaining < 0:
        # Floating-point pathologies only; the heap is always correct.
        return greedy_batch_assign_heap(queues, rates, k)
    if remaining == 0:
        return base
    if remaining * n > _MAX_CANDIDATES:
        return _heap_finish(queues, rates, base, remaining)

    # Materialize each server's next `remaining` marginals and take the
    # `remaining` smallest overall.
    steps = np.arange(1, remaining + 1, dtype=np.float64)
    cand = (queues[:, None] + base[:, None] + steps[None, :]) / rates[:, None]
    flat = cand.ravel()
    chosen = np.argpartition(flat, remaining - 1)[:remaining]
    extra = np.bincount(chosen // remaining, minlength=n)
    return base + extra


def greedy_rows_for_batches(
    queues: np.ndarray,
    rates: np.ndarray,
    batch: np.ndarray,
) -> np.ndarray:
    """Whole-round greedy assignment: one ``(m, n)`` matrix of counts.

    Every dispatcher decides against the *same* snapshot, so dispatchers
    with equal batch sizes produce identical (deterministic) assignments
    -- the greedy runs once per *distinct* batch size instead of once per
    dispatcher.  The snapshot is validated and sorted once, and one
    :func:`~repro.core.iwl.trusted_iwl` pass gives every distinct size's
    water level.  Bit-identical to calling :func:`greedy_batch_assign`
    per dispatcher; this is the native batch-protocol path of JSQ/SED.
    """
    batch = np.asarray(batch, dtype=np.int64)
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    rows = np.zeros((batch.size, queues.size), dtype=np.int64)
    sizes = np.unique(batch[batch > 0])
    if sizes.size == 0:
        return rows
    _validate(queues, rates, 0.0)
    loads = queues / rates
    order = np.argsort(loads, kind="stable")
    levels = trusted_iwl(loads, queues, rates, order, sizes.astype(np.float64))
    for k, level in zip(sizes.tolist(), levels.tolist()):
        rows[batch == k] = _assign_from_level(queues, rates, k, level)
    return rows


def _heap_finish(
    queues: np.ndarray,
    rates: np.ndarray,
    base: np.ndarray,
    remaining: int,
) -> np.ndarray:
    """Finish a partially water-filled assignment with heap pops."""
    n = queues.size
    counts = base.copy()
    q_list = queues.tolist()
    mu_list = rates.tolist()
    heap = [((q_list[s] + counts[s] + 1.0) / mu_list[s], s) for s in range(n)]
    heapq.heapify(heap)
    for _ in range(remaining):
        _, s = heap[0]
        counts[s] += 1
        heapq.heapreplace(heap, ((q_list[s] + counts[s] + 1.0) / mu_list[s], s))
    return counts


def greedy_certificate_ok(
    queues: np.ndarray,
    rates: np.ndarray,
    counts: np.ndarray,
    *,
    rtol: float = 1e-9,
) -> bool:
    """Check the exchange-optimality certificate of a greedy assignment.

    ``counts`` is a valid greedy outcome iff moving any assigned job to any
    other server cannot lower its marginal: for all ``s`` with
    ``counts_s > 0`` and all ``u``,

        (q_s + counts_s) / mu_s  <=  (q_u + counts_u + 1) / mu_u.

    Tie-breaking differences between implementations pass this test; real
    assignment errors do not.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    counts = np.asarray(counts)
    if np.any(counts < 0):
        return False
    assigned = counts > 0
    if not assigned.any():
        return True
    max_selected = float(np.max((queues[assigned] + counts[assigned]) / rates[assigned]))
    min_next = float(np.min((queues + counts + 1.0) / rates))
    return max_selected <= min_next * (1.0 + rtol) + rtol
