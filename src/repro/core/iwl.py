"""Ideally balanced workload (IWL) and assignment (IBA).

Implements Section 3.1 of the paper.  Given the current queue lengths
``q_s``, the service rates ``mu_s`` and the total number ``a`` of incoming
jobs, the *ideally balanced assignment* (IBA) is the continuous assignment
``abar`` solving Eq. (1):

    max min_s (q_s + abar_s) / mu_s
    s.t.  sum_s abar_s = a  and  abar_s >= 0.

The optimal value of the objective is the *ideal workload* (IWL).  The IBA
is recovered from the IWL via Eq. (2):

    abar_s = mu_s * max(q_s / mu_s, iwl) - q_s.

Two implementations are provided:

* :func:`compute_iwl_reference` -- a faithful transcription of the paper's
  Algorithm 3 (iterative water filling, ``O(n)`` given the sort order).
* :func:`compute_iwl` -- a vectorized prefix-sum formulation used by the
  simulator (identical output; property-tested against the reference).
  It validates its inputs and calls :func:`trusted_iwl`, the unchecked
  kernel that also solves a whole vector of arrival counts in one pass.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "compute_iwl",
    "compute_iwl_reference",
    "trusted_iwl",
    "compute_iba",
    "load_vector",
]


def load_vector(queues: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Return the normalized loads ``q_s / mu_s`` as a float array.

    The *load* of a server is the expected time it needs to drain its
    current queue; it is the quantity the IBA balances (Section 3.1).
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return queues / rates


def _validate(queues: np.ndarray, rates: np.ndarray, arrivals: float) -> None:
    if queues.shape != rates.shape:
        raise ValueError(
            f"queues and rates must have the same shape, "
            f"got {queues.shape} vs {rates.shape}"
        )
    if queues.ndim != 1 or queues.size == 0:
        raise ValueError("queues must be a non-empty 1-D array")
    if np.any(rates <= 0):
        raise ValueError("all service rates must be strictly positive")
    if np.any(queues < 0):
        raise ValueError("queue lengths must be non-negative")
    if arrivals < 0:
        raise ValueError("arrivals must be non-negative")


def compute_iwl_reference(
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
) -> float:
    """Compute the IWL with the paper's Algorithm 3 (iterative water fill).

    Starts from the least-loaded server and repeatedly raises the set of
    least-loaded servers to the next-lowest load level until the incoming
    work ``arrivals`` is exhausted.

    Parameters
    ----------
    queues:
        Current queue lengths ``q_s`` (non-negative).
    rates:
        Service rates ``mu_s`` (strictly positive).
    arrivals:
        Total number of incoming jobs ``a`` (non-negative; may be
        fractional, the analysis treats work as continuous).

    Returns
    -------
    float
        The ideal workload level.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    _validate(queues, rates, arrivals)

    loads = queues / rates
    order = np.argsort(loads, kind="stable")

    # Algorithm 3, with ``order`` playing the role of the repeated argmin.
    mu_total = 0.0
    remaining = float(arrivals)
    idx = 0
    r = order[idx]
    iwl = loads[r]
    if remaining == 0.0:
        return float(iwl)
    n = queues.size
    while remaining > 0.0:
        mu_total += rates[r]
        idx += 1
        if idx == n:
            return float(iwl + remaining / mu_total)
        r = order[idx]
        delta = loads[r] - iwl
        if delta * mu_total >= remaining:
            return float(iwl + remaining / mu_total)
        remaining -= delta * mu_total
        iwl += delta
    return float(iwl)


def compute_iwl(
    queues: np.ndarray,
    rates: np.ndarray,
    arrivals: float,
    *,
    order: np.ndarray | None = None,
) -> float:
    """Compute the IWL with a vectorized prefix-sum water fill.

    Equivalent to :func:`compute_iwl_reference` but uses cumulative sums,
    which is considerably faster for the simulator's hot path.

    Parameters
    ----------
    queues, rates, arrivals:
        As in :func:`compute_iwl_reference`.
    order:
        Optional precomputed ``argsort`` of ``q_s / mu_s``.  The SCD
        dispatching procedure (Algorithm 2) sorts once per round and reuses
        the order across per-dispatcher computations.

    Returns
    -------
    float
        The ideal workload level.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    _validate(queues, rates, arrivals)

    loads = queues / rates
    if order is None:
        order = np.argsort(loads, kind="stable")
    if arrivals == 0.0:
        return float(loads[order[0]])
    return float(trusted_iwl(loads, queues, rates, order, arrivals))


def trusted_iwl(
    loads: np.ndarray,
    queues: np.ndarray,
    rates: np.ndarray,
    order: np.ndarray,
    arrivals: float | np.ndarray,
) -> float | np.ndarray:
    """The IWL water fill without validation, for one or many arrivals.

    The kernel behind :func:`compute_iwl`.  The caller vouches for its
    inputs: float ``queues >= 0`` and ``rates > 0`` of equal 1-D shape,
    ``loads == queues / rates``, ``order`` its stable argsort, and
    ``arrivals > 0`` -- a float (one level) or a 1-D array (one level per
    entry, all from the same two prefix sums in one pass).
    """
    loads_sorted = loads[order]
    # With the k+1 least-loaded servers active (k = 0..n-1), the work needed
    # to raise them all to the load of server k+1 (the next level) is
    #   need_k = M_{k+1} * loads_sorted[k+1] - Q_{k+1}
    # where M, Q are prefix sums of mu and q.  need is non-decreasing, so
    # the number of levels fully absorbed is found with searchsorted.
    mu_cum = np.cumsum(rates[order])
    q_cum = np.cumsum(queues[order])
    need = mu_cum[:-1] * loads_sorted[1:] - q_cum[:-1]
    k = np.searchsorted(need, arrivals, side="left")
    # k servers-boundaries fully crossed => k + 1 active servers.
    return (arrivals + q_cum[k]) / mu_cum[k]


def compute_iba(
    queues: np.ndarray,
    rates: np.ndarray,
    iwl: float,
) -> np.ndarray:
    """Return the ideally balanced assignment via Eq. (2).

    ``abar_s = mu_s * max(q_s / mu_s, iwl) - q_s``: servers below the ideal
    workload are filled exactly up to it, servers above receive nothing.

    Parameters
    ----------
    queues, rates:
        Server state, as elsewhere in this module.
    iwl:
        An ideal-workload level, normally from :func:`compute_iwl`.

    Returns
    -------
    numpy.ndarray
        Non-negative float array summing to the ``arrivals`` value used to
        compute ``iwl``.
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return np.maximum(rates * iwl - queues, 0.0)
