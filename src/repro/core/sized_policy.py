"""The size-aware SCD dispatcher (companion to :mod:`repro.core.sized`).

``SizedSCDPolicy`` is Algorithm 2 run over work units: queues arrive in
units, the arrival estimate counts *jobs* (Eq. 18 unchanged), and the
probability vector comes from the generalized solver with the job-size
moments folded in.  Registered as ``"scd-sized"``.

The interesting baseline is plain SCD on the same unit queues: it treats
each job as one unit of work, so it *underestimates* incoming work by the
mean size and uses the wrong discreteness correction.  The gap between
the two is the value of size information -- the open-problem-1 question,
quantified in ``benchmarks/bench_ext_sized_jobs.py``.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Policy, register_policy

from .estimation import ArrivalEstimator, make_estimator
from .sized import sized_scd_probabilities

__all__ = ["SizedSCDPolicy"]


@register_policy("scd-sized")
class SizedSCDPolicy(Policy):
    """Size-aware SCD: stochastic coordination over work units.

    Parameters
    ----------
    mean_size, second_moment_size:
        The job-size moments the dispatchers know (``E[W]``, ``E[W^2]``);
        defaults describe unit jobs, where this policy coincides with SCD.
    estimator:
        Total-*job* estimator, as in :class:`repro.core.scd.SCDPolicy`.
    """

    name = "scd-sized"

    def __init__(
        self,
        mean_size: float = 1.0,
        second_moment_size: float | None = None,
        estimator: ArrivalEstimator | str | float = "scaled",
    ) -> None:
        super().__init__()
        if mean_size <= 0:
            raise ValueError("mean job size must be positive")
        self.mean_size = float(mean_size)
        self.second_moment_size = (
            float(second_moment_size)
            if second_moment_size is not None
            else self.mean_size**2
        )
        if self.second_moment_size < self.mean_size**2:
            raise ValueError("E[W^2] cannot be below E[W]^2")
        self.estimator = make_estimator(estimator)

    def _on_bind(self) -> None:
        self.estimator.reset()
        self._queues: np.ndarray | None = None
        self._round_cache: dict[float, np.ndarray] = {}

    def begin_round(self, round_index: int, queues: np.ndarray) -> None:
        self._queues = queues
        self._round_cache.clear()

    def observe_total_arrivals(self, total: int) -> None:
        self.estimator.observe_total(total)

    def dispatch(self, dispatcher: int, num_jobs: int) -> np.ndarray:
        a_est = self.estimator.estimate(
            int(num_jobs), self.ctx.num_dispatchers, dispatcher
        )
        probs = self._round_cache.get(a_est)
        if probs is None:
            _, probs = sized_scd_probabilities(
                self._queues,
                self.rates,
                a_est,
                self.mean_size,
                self.second_moment_size,
            )
            probs = probs / probs.sum()
            self._round_cache[a_est] = probs
        return self.rng.multinomial(int(num_jobs), probs).astype(np.int64)
