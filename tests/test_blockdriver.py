"""Tests for the block driver's per-round pieces.

* :func:`repro.sim.blockdriver.sized_layout`, the sparse per-round
  layout of sized jobs, equals the dense ``(m * n)``-cell formula it
  replaced (written out below) on every input;
* a dispatch result with a negative cell count is rejected -- on the
  reference loop and on the block driver, for unit and sized jobs, on the
  per-dispatcher, native ``dispatch_round`` and ``dispatch_rounds`` paths
  -- with an error naming the policy, the round and, where the path
  knows it, the dispatcher.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import Policy
from repro.sim.arrivals import DeterministicArrivals
from repro.sim.blockdriver import negative_cell, sized_layout
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.service import DeterministicService
from repro.sim.sized import GeometricSize, SizedSimulation


def dense_layout(counts, sizes, n):
    """The former per-round layout: every one of the ``m * n`` cells."""
    m = counts.size // n
    cell_server = np.tile(np.arange(n), m)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    cell_ends = np.cumsum(counts)
    cell_units = bounds[cell_ends] - bounds[cell_ends - counts]
    received = cell_units.reshape(m, n).sum(axis=0)
    return received, np.repeat(cell_server, counts)


def assert_layouts_equal(counts, sizes, n):
    received, job_servers = sized_layout(counts, sizes, n)
    want_received, want_servers = dense_layout(counts, sizes, n)
    assert received.dtype == job_servers.dtype == np.int64
    np.testing.assert_array_equal(received, want_received)
    np.testing.assert_array_equal(job_servers, want_servers)


@st.composite
def rounds(draw, max_m=6, max_n=8):
    """A round's flat ``(m, n)`` counts -- some dispatcher rows empty,
    cells above 1 allowed -- and a size per job."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    rows = [
        [0] * n
        if draw(st.booleans())
        else draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        for _ in range(m)
    ]
    counts = np.array(rows, dtype=np.int64).ravel()
    sizes = draw(
        st.lists(st.integers(1, 30), min_size=int(counts.sum()), max_size=int(counts.sum()))
    )
    return counts, np.array(sizes, dtype=np.int64), n


class TestSizedLayout:
    @given(rounds())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_formula(self, case):
        assert_layouts_equal(*case)

    @given(rounds(max_m=1, max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_single_dispatcher(self, case):
        assert_layouts_equal(*case)

    def test_wide_fleet_with_few_jobs(self):
        rng = np.random.default_rng(5)
        m, n = 50, 1000
        counts = np.zeros(m * n, dtype=np.int64)
        cells = rng.choice(m * n, size=40, replace=False)
        counts[cells] = rng.integers(1, 4, size=cells.size)
        sizes = rng.geometric(1 / 3, size=int(counts.sum())).astype(np.int64)
        assert_layouts_equal(counts, sizes, n)

    def test_empty_round(self):
        no_jobs = np.empty(0, dtype=np.int64)
        received, job_servers = sized_layout(np.zeros(6, dtype=np.int64), no_jobs, 3)
        np.testing.assert_array_equal(received, np.zeros(3))
        assert job_servers.size == 0

    def test_negative_cell_named(self):
        counts = np.array([0, 1, 0, -1, 2, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="dispatcher 1 assigned -1 jobs to server 0"):
            sized_layout(counts, np.ones(2, dtype=np.int64), 3)

    def test_job_count_mismatch(self):
        with pytest.raises(ValueError, match="assigned 2 jobs for a round of 3"):
            sized_layout(np.array([2, 0], dtype=np.int64), np.ones(3, dtype=np.int64), 2)


class TestNegativeCell:
    def test_matrix_and_row_forms(self):
        rows = np.array([[1, 0], [3, -2]])
        assert negative_cell(rows, 2) == "dispatcher 1 assigned -2 jobs to server 1"
        assert negative_cell(rows[1], 2, 4) == "dispatcher 4 assigned -2 jobs to server 1"
        assert negative_cell(np.abs(rows), 2) is None


class NegativeRow(Policy):
    """From round ``BAD_ROUND`` on, dispatcher 1 sends -1 jobs to server 0
    and one extra to server 1: every row still sums to its batch."""

    name = "negative-row"
    BAD_ROUND = 3

    def _on_bind(self) -> None:
        self._round = 0

    def begin_round(self, round_index, queues):
        self._round = round_index

    def dispatch(self, dispatcher, num_jobs):
        counts = np.zeros(self.ctx.num_servers, dtype=np.int64)
        counts[dispatcher % counts.size] = num_jobs
        if dispatcher == 1 and self._round >= self.BAD_ROUND:
            counts[0] -= 1
            counts[1] += 1
        return counts


class NativeNegativeRow(NegativeRow):
    """The same rows through a native ``dispatch_round``."""

    name = "native-negative-row"

    def dispatch_round(self, batch, queues):
        return np.array([self.dispatch(d, int(k)) for d, k in enumerate(batch)])


class BlockNegative(Policy):
    """A cross-round batching policy whose block puts -1 jobs on server 0
    in round 2 (the round's total stays right)."""

    name = "block-negative"

    def dispatch(self, dispatcher, num_jobs):
        counts = np.zeros(self.ctx.num_servers, dtype=np.int64)
        counts[0] = num_jobs
        return counts

    def dispatch_rounds(self, batch_block):
        received = np.zeros((batch_block.shape[0], self.ctx.num_servers), dtype=np.int64)
        received[:, 1] = batch_block.sum(axis=1)
        received[2, 0] -= 1
        received[2, 1] += 1
        return received


def run(policy, backend, sized):
    rates = np.array([2.0, 2.0, 2.0])
    common = dict(
        rates=rates,
        policy=policy,
        arrivals=DeterministicArrivals(np.array([1.0, 2.0])),
        service=DeterministicService(rates),
    )
    if sized:
        sim = SizedSimulation(
            **common, sizes=GeometricSize(2.0), rounds=20, seed=1, backend=backend
        )
    else:
        config = SimulationConfig(rounds=20, seed=1, backend=backend)
        sim = Simulation(**common, config=config)
    return sim.run()


class TestNegativeCountsRejected:
    MESSAGE = "round 3: dispatcher 1 assigned -1 jobs to server 0"

    @pytest.mark.parametrize("sized", [False, True], ids=["unit", "sized"])
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_per_dispatcher_policy(self, backend, sized):
        with pytest.raises(ValueError, match=f"^negative-row, {self.MESSAGE}$"):
            run(NegativeRow(), backend, sized)

    @pytest.mark.parametrize("sized", [False, True], ids=["unit", "sized"])
    def test_native_dispatch_round(self, sized):
        with pytest.raises(ValueError, match=f"^native-negative-row, {self.MESSAGE}$"):
            run(NativeNegativeRow(), "fast", sized)

    def test_dispatch_rounds_block(self):
        with pytest.raises(
            ValueError,
            match="^block-negative, round 2: dispatch_rounds assigned -1 jobs to server 0$",
        ):
            run(BlockNegative(), "fast", sized=False)
