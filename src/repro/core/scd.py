"""Stochastically Coordinated Dispatching (SCD) -- the paper's Algorithm 2.

Per round, a dispatcher that received ``a_d`` jobs:

1. estimates the round's total arrivals (Eq. 18: ``a_est = m * a_d``),
2. computes the ideal workload for ``a_est`` (Algorithm 3),
3. computes the optimal probability vector ``P`` (Algorithm 4),
4. draws each job's destination i.i.d. from ``P``.

Step 4 over a whole batch is a multinomial draw.  Steps 2-3 depend only on
the shared snapshot and on ``a_est``; the two server orderings (by ``q/mu``
and by ``(2q+1)/mu``) are computed once per round and shared.

:meth:`SCDPolicy.dispatch` runs the four steps for one dispatcher.  With
full connectivity and the default ``vectorized`` solver,
:meth:`SCDPolicy.dispatch_round` runs them for the whole round at once:
every dispatcher's estimate in dispatcher order, one IWL and Algorithm 4
solve per *distinct* estimate (the scaled estimator makes ``a_est`` a
function of the batch size, so a round has few), all in one vectorized
pass over the round's prefix sums, and one 2-D multinomial draw.  Rows
with no jobs draw nothing, so the policy's random stream -- and every
allocation -- is bit-identical to looping :meth:`~SCDPolicy.dispatch`.

The module also exposes :func:`scd_decision`, the *from-scratch* single
dispatcher computation (sorts included) used by the run-time figures, and
the :class:`SCDPolicy` supports an optional per-dispatcher connectivity
mask -- the paper's Section 7 open problem (2) -- restricting each
dispatcher to the servers it can reach.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Policy, register_policy

from .estimation import ArrivalEstimator, make_estimator
from .iwl import compute_iwl, trusted_iwl
from .probabilities import (
    scd_probabilities,
    scd_probabilities_loop,
    scd_probabilities_quadratic,
    single_job_probabilities,
    trusted_probabilities,
)

__all__ = ["SCDPolicy", "scd_decision", "PROBABILITY_ALGORITHMS"]

#: Selectable probability solvers (all produce the same vector).
PROBABILITY_ALGORITHMS = {
    "vectorized": scd_probabilities,
    "loop": scd_probabilities_loop,
    "quadratic": scd_probabilities_quadratic,
}


def scd_decision(
    queues: np.ndarray,
    rates: np.ndarray,
    own_arrivals: int,
    num_dispatchers: int,
    *,
    algorithm: str = "vectorized",
    estimator: ArrivalEstimator | str = "scaled",
) -> tuple[float, np.ndarray]:
    """One dispatcher's full per-round computation, from scratch.

    Performs everything Algorithm 2 charges to a single dispatcher --
    both sorts, the IWL, and the probability vector -- with no caching.
    This is the unit the run-time evaluation (Figures 5 and 8) measures.

    Returns
    -------
    (iwl, probabilities)
    """
    queues = np.asarray(queues, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    est = make_estimator(estimator)
    a_est = est.estimate(int(own_arrivals), int(num_dispatchers))
    load_order = np.argsort(queues / rates, kind="stable")
    iwl = compute_iwl(queues, rates, a_est, order=load_order)
    solver = PROBABILITY_ALGORITHMS[algorithm]
    if algorithm == "quadratic":
        probs = solver(queues, rates, a_est, iwl)
    else:
        key_order = np.argsort((2.0 * queues + 1.0) / rates, kind="stable")
        probs = solver(queues, rates, a_est, iwl, order=key_order)
    return iwl, probs


@register_policy("scd")
class SCDPolicy(Policy):
    """The SCD dispatching policy (Algorithm 2).

    Parameters
    ----------
    estimator:
        Total-arrival estimator; the paper's ``"scaled"`` (Eq. 18) by
        default.  See :mod:`repro.core.estimation`.
    algorithm:
        Probability solver: ``"vectorized"`` (default), ``"loop"``
        (faithful Algorithm 4), or ``"quadratic"`` (Algorithm 1).
    connectivity:
        Optional ``(m, n)`` boolean array; ``connectivity[d, s]`` is True
        when dispatcher ``d`` can reach server ``s``.  ``None`` (default)
        means full connectivity.  With a mask, each dispatcher solves the
        optimization restricted to its reachable servers (the Section 7
        extension); it keeps the per-dispatcher path since views differ.
    """

    name = "scd"

    def __init__(
        self,
        estimator: ArrivalEstimator | str | float = "scaled",
        algorithm: str = "vectorized",
        connectivity: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        if algorithm not in PROBABILITY_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(PROBABILITY_ALGORITHMS)}"
            )
        self.estimator = make_estimator(estimator)
        self.algorithm = algorithm
        self._solver = PROBABILITY_ALGORITHMS[algorithm]
        self.connectivity = (
            None if connectivity is None else np.asarray(connectivity, dtype=bool)
        )
        if algorithm == "quadratic":
            self.name = "scd-alg1"

    def _on_bind(self) -> None:
        n = self.ctx.num_servers
        m = self.ctx.num_dispatchers
        if self.connectivity is not None:
            if self.connectivity.shape != (m, n):
                raise ValueError(
                    f"connectivity must be shaped (m, n) = ({m}, {n}), "
                    f"got {self.connectivity.shape}"
                )
            if not self.connectivity.any(axis=1).all():
                raise ValueError("every dispatcher must reach at least one server")
        self.estimator.reset()
        self._queues: np.ndarray | None = None

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues
        if self.connectivity is None:
            # Algorithm 2 lines 2-4: the two sort keys and their orders.
            rates = self.rates
            self._loads = queues / rates
            self._key = (2.0 * queues + 1.0) / rates
            self._load_order = np.argsort(self._loads, kind="stable")
            self._key_order = np.argsort(self._key, kind="stable")

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def _probabilities(self, a_est: float) -> np.ndarray:
        queues = self._queues
        rates = self.rates
        iwl = compute_iwl(queues, rates, a_est, order=self._load_order)
        if self.algorithm == "quadratic":
            probs = self._solver(queues, rates, a_est, iwl)
        else:
            probs = self._solver(queues, rates, a_est, iwl, order=self._key_order)
        return probs / probs.sum()

    def _probabilities_many(self, a_est: np.ndarray) -> np.ndarray:
        """Normalized rows for sorted distinct estimates, in one pass.

        Row ``i`` is bit-identical to ``_probabilities(a_est[i])``; the
        round's inputs are checked here once instead of once per solve.
        """
        queues = self._queues.astype(np.float64)
        rates = self.rates
        if queues.min() < 0:
            raise ValueError("queue lengths must be non-negative")
        if a_est[0] < 1:
            raise ValueError(f"arrival estimates must be >= 1, got {a_est[0]}")
        iwl = trusted_iwl(self._loads, queues, rates, self._load_order, a_est)
        probs = np.empty((a_est.size, rates.size), dtype=np.float64)
        single = int(a_est[0] == 1)  # Eq. (9) row; sorted, so only row 0
        if single:
            probs[0] = single_job_probabilities(queues, rates)
        if a_est.size > single:
            probs[single:] = trusted_probabilities(
                queues,
                rates,
                self._key,
                self._key_order,
                a_est[single:, None],
                iwl[single:, None],
            )
        return probs / probs.sum(axis=1, keepdims=True)

    def _masked_probabilities(self, dispatcher: int, a_est: float) -> np.ndarray:
        mask = self.connectivity[dispatcher]
        queues = np.asarray(self._queues, dtype=np.float64)[mask]
        rates = self.rates[mask]
        iwl = compute_iwl(queues, rates, a_est)
        sub = self._solver(queues, rates, a_est, iwl)
        probs = np.zeros(self.ctx.num_servers, dtype=np.float64)
        probs[mask] = sub / sub.sum()
        return probs

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        a_est = self.estimator.estimate(
            int(num_jobs), self.ctx.num_dispatchers, dispatcher
        )
        if self.connectivity is None:
            probs = self._probabilities(a_est)
        else:
            probs = self._masked_probabilities(dispatcher, a_est)
        return self.rng.multinomial(int(num_jobs), probs).astype(np.int64)

    def dispatch_round(self, batch: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Algorithm 2 for every dispatcher at once, bit-equal to the loop.

        Estimates in dispatcher order, one solve per distinct estimate,
        then one 2-D multinomial over every row: empty rows draw nothing,
        so the stream matches the per-dispatcher calls.  The masked
        variant and the ``loop`` / ``quadratic`` solvers keep that loop.
        """
        if self.connectivity is not None or self.algorithm != "vectorized":
            return super().dispatch_round(batch, queues)
        estimates = self.estimator.estimate_many(batch, self.ctx.num_dispatchers)
        distinct, inverse = np.unique(estimates, return_inverse=True)
        probs = self._probabilities_many(distinct)
        return self.rng.multinomial(batch, probs[inverse]).astype(np.int64, copy=False)


@register_policy("scd-alg1")
def _make_scd_alg1(**kwargs) -> SCDPolicy:
    """SCD with the O(n^2) Algorithm 1 solver (run-time comparator)."""
    kwargs.setdefault("algorithm", "quadratic")
    return SCDPolicy(**kwargs)
