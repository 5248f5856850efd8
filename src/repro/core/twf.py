"""Tidal Water Filling (TWF) -- the homogeneous baseline of Goren et al. [22].

TWF is stochastic coordination for *homogeneous* systems: it solves the
same per-round optimization as SCD but on raw queue lengths, i.e. as if
every server had unit rate.  In a homogeneous system it coincides with SCD;
in a heterogeneous system it is *heterogeneity-oblivious* -- it balances
job counts instead of workloads, starving fast servers and overloading slow
ones.  The paper uses it to show that a mild adaptation of [22] is not
enough (Figures 3-4: TWF's tail degrades by an order of magnitude under
high heterogeneity).

Implementation: we reuse the general heterogeneous solver with an all-ones
rate vector.  This is mathematically exactly [22]'s policy -- in the
homogeneous case the probable set is the analytically known
``{s : q_s < water-level}``, which our prefix search returns -- and it
exercises the same code paths, so TWF doubles as a regression check of the
general algorithm against the known homogeneous closed form (see
``tests/test_twf.py``).
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Policy, register_policy

from .estimation import ArrivalEstimator, make_estimator
from .iwl import compute_iwl
from .probabilities import scd_probabilities

__all__ = ["TWFPolicy", "twf_probabilities"]


def twf_probabilities(
    queues: np.ndarray,
    num_jobs_estimate: float,
) -> tuple[float, np.ndarray]:
    """Water level and TWF probability vector for a queue snapshot.

    Equivalent to SCD's computation with all rates equal to 1; the returned
    level is [22]'s *water level*, which equals the IWL in the homogeneous
    case (paper footnote 5).

    Returns
    -------
    (water_level, probabilities)
    """
    queues = np.asarray(queues, dtype=np.float64)
    ones = np.ones(queues.size, dtype=np.float64)
    level = compute_iwl(queues, ones, num_jobs_estimate)
    probs = scd_probabilities(queues, ones, num_jobs_estimate, level)
    return level, probs


@register_policy("twf")
class TWFPolicy(Policy):
    """TWF: stochastic coordination on job counts (rate-oblivious).

    Parameters
    ----------
    estimator:
        Total-arrival estimator, as in :class:`repro.core.scd.SCDPolicy`.
    """

    name = "twf"

    def __init__(self, estimator: ArrivalEstimator | str | float = "scaled") -> None:
        super().__init__()
        self.estimator = make_estimator(estimator)

    def _on_bind(self) -> None:
        self.estimator.reset()
        self._ones = np.ones(self.ctx.num_servers, dtype=np.float64)
        self._queues: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._round_cache: dict[float, np.ndarray] = {}

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues
        self._round_cache.clear()
        # With unit rates both of Algorithm 2's sort keys are monotone in q,
        # so a single order serves the IWL and the probability computation.
        self._order = np.argsort(queues, kind="stable")

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        a_est = self.estimator.estimate(
            int(num_jobs), self.ctx.num_dispatchers, dispatcher
        )
        probs = self._round_cache.get(a_est)
        if probs is None:
            level = compute_iwl(self._queues, self._ones, a_est, order=self._order)
            probs = scd_probabilities(
                self._queues, self._ones, a_est, level, order=self._order
            )
            probs = probs / probs.sum()
            self._round_cache[a_est] = probs
        return self.rng.multinomial(int(num_jobs), probs).astype(np.int64)
