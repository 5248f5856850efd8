"""Tests for sized jobs on the engine backends and the vectorized sized path.

The contract under test:

* sized simulations resolve backends in the one engine registry
  (names, errors, descriptions);
* the ``"fast"`` sized backend is *bit-identical* to ``"reference"`` --
  same seeds give the same :class:`SizedSimulationResult` including
  histograms, queue series, and unit accounting -- for deterministic
  policies (native batch paths included) and for every policy on the
  base-class ``dispatch_round`` fallback, across all three job-size
  distributions;
* stochastic policies with native batch paths keep exact unit
  accounting and see the identical workload realization;
* the unit-denominated :class:`SizedBatchQueueStore` reproduces the
  reference :class:`SizedServerQueue` drain exactly, job by job,
  including partial service of the head job across block boundaries;
* ``wrr``'s native smooth-credit batch path is bit-identical to the
  per-dispatcher fallback loop (counts *and* carried credit state);
* the backend choice is plumbed end-to-end: ``SizedSimulation``,
  ``simulate_cell``, ``Experiment`` grids, JSON persistence, and the
  CLI all accept sized + ``"fast"``.
"""

import tracemalloc

import numpy as np
import pytest
from _helpers import collect_records, replay_store_scenario, store_scenarios
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import Policy, SystemContext, has_native_dispatch_round, make_policy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.batchstore import SizedBatchQueueStore
from repro.sim.compiled import CompiledSizedBatchQueueStore
from repro.sim.metrics import ResponseTimeHistogram
from repro.sim.service import GeometricService
from repro.sim.sized import (
    BimodalSize,
    DeterministicSize,
    GeometricSize,
    SizedServerQueue,
    SizedSimulation,
)
from repro.sim.backends import (
    FastBackend,
    ReferenceBackend,
    available_backends,
    backend_descriptions,
    make_backend,
)

#: Policies whose decisions involve no randomness (native batch paths
#: included): identical runs on both backends are required bit-for-bit.
DETERMINISTIC_POLICIES = ["jsq", "sed", "rr", "wrr"]
#: Stateful / stochastic policies without a native batch path: they run
#: through the fallback, so they must also be bit-identical.
FALLBACK_POLICIES = ["twf", "scd-sized"]
#: Native batch paths that restructure no RNG consumption (LSQ/LED's
#: vectorized sampled refreshes, JIQ's fused empty-idle fallback and
#: SCD's one 2-D multinomial per round draw the identical stream): these
#: must also stay bit-identical across backends.
NATIVE_BIT_IDENTICAL_POLICIES = ["scd", "lsq", "hlsq", "led", "jiq"]
#: Stochastic policies with native batch paths: exact accounting plus an
#: identical workload realization only.
NATIVE_STOCHASTIC_POLICIES = ["wr", "random", "jsq(2)", "hjsq(2)"]

SIZE_DISTRIBUTIONS = {
    "det3": DeterministicSize(3),
    "geom2.5": GeometricSize(2.5),
    "bimodal": BimodalSize(small=1, large=20, large_prob=0.05),
}


def run_once(policy, sizes, backend, seed=0, n=8, m=3, rho=0.85, rounds=400):
    rng = np.random.default_rng(123)
    rates = rng.uniform(2.0, 10.0, size=n)
    jobs_per_round = rho * rates.sum() / sizes.mean
    return SizedSimulation(
        rates=rates,
        policy=make_policy(policy),
        arrivals=PoissonArrivals(np.full(m, jobs_per_round / m)),
        service=GeometricService(rates),
        sizes=sizes,
        rounds=rounds,
        seed=seed,
        backend=backend,
    ).run()


def forced_sized_compiled():
    """A sized ``compiled`` backend running the compiled control flow
    even without numba (the plain-Python twins of the jitted code)."""
    backend = make_backend("compiled")
    backend.force = True
    return backend


def assert_identical(a, b):
    """Both SizedSimulationResults describe the exact same run."""
    assert a.total_jobs == b.total_jobs
    assert a.total_units_arrived == b.total_units_arrived
    assert a.total_units_departed == b.total_units_departed
    assert a.final_units_queued == b.final_units_queued
    np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
    assert a.histogram.max_response_time == b.histogram.max_response_time
    np.testing.assert_array_equal(a.queue_series.values, b.queue_series.values)


class TestRegistry:
    def test_both_backends_registered(self):
        assert {"reference", "fast"} <= set(available_backends())

    def test_mirrors_base_registry_names(self):
        """Sized jobs run on every simulation kernel of the one registry;
        only analytic backends (no job-size dimension) are unit-only."""
        from repro.sim.backends import backend_capabilities

        unit_only = {
            name for name in available_backends()
            if not backend_capabilities(name).sized_jobs
        }
        analytic = {
            name for name in available_backends()
            if backend_capabilities(name).analytic
        }
        assert unit_only == analytic == {"meanfield"}

    def test_descriptions_cover_all(self):
        descriptions = backend_descriptions()
        assert set(descriptions) == set(available_backends())
        assert all(descriptions.values())

    def test_make_backend_by_name_and_passthrough(self):
        assert isinstance(make_backend("reference"), ReferenceBackend)
        assert isinstance(make_backend("FAST"), FastBackend)
        instance = FastBackend()
        assert make_backend(instance) is instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend("warp-drive")

    def test_simulation_rejects_empty_backend(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_once("jsq", DeterministicSize(1), backend="", rounds=10)

    def test_unknown_backend_fails_at_run(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            run_once("jsq", DeterministicSize(1), backend="warp-drive", rounds=10)


class TestBitExactness:
    @pytest.mark.parametrize("dist", sorted(SIZE_DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_deterministic_policies_identical(self, policy, dist):
        sizes = SIZE_DISTRIBUTIONS[dist]
        a = run_once(policy, sizes, "reference", seed=5)
        b = run_once(policy, sizes, "fast", seed=5)
        assert_identical(a, b)

    @pytest.mark.parametrize("dist", sorted(SIZE_DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", FALLBACK_POLICIES + ["scd"])
    def test_fallback_policies_identical(self, policy, dist):
        """The fallback policies, and SCD whose native path replaced its
        fallback, stay bit-identical on every size distribution."""
        native = policy in NATIVE_BIT_IDENTICAL_POLICIES
        assert has_native_dispatch_round(make_policy(policy)) == native
        sizes = SIZE_DISTRIBUTIONS[dist]
        a = run_once(policy, sizes, "reference", seed=11, rounds=300)
        b = run_once(policy, sizes, "fast", seed=11, rounds=300)
        assert_identical(a, b)

    @pytest.mark.parametrize(
        # SCD is pinned on every size distribution by the fallback test.
        "policy", [p for p in NATIVE_BIT_IDENTICAL_POLICIES if p != "scd"]
    )
    def test_native_bit_identical_policies(self, policy):
        """LSQ's native path draws the identical refresh stream, so it
        stays bit-identical on the sized engine too."""
        assert has_native_dispatch_round(make_policy(policy))
        sizes = GeometricSize(2.5)
        a = run_once(policy, sizes, "reference", seed=11, rounds=300)
        b = run_once(policy, sizes, "fast", seed=11, rounds=300)
        assert_identical(a, b)

    @pytest.mark.parametrize("policy", ["rr", "wrr", "jsq", "scd"])
    def test_wide_fleet_identical(self, policy):
        """200 servers x 50 dispatchers: each round fills a few hundred of
        10,000 cells, so the sparse per-round layout skips most of them."""
        sizes = GeometricSize(3)
        a = run_once(policy, sizes, "reference", seed=9, n=200, m=50, rounds=300)
        b = run_once(policy, sizes, "fast", seed=9, n=200, m=50, rounds=300)
        assert_identical(a, b)

    def test_rr_batches_beyond_fleet_size(self):
        """3 servers, 2 dispatchers, about 6 jobs per dispatcher a round:
        rr's full cycles and wrapped arcs run through the sized engine."""
        sizes = GeometricSize(1.5)
        a = run_once("rr", sizes, "reference", seed=4, n=3, m=2, rho=0.98, rounds=400)
        b = run_once("rr", sizes, "fast", seed=4, n=3, m=2, rho=0.98, rounds=400)
        assert a.total_jobs > 2 * 3 * 400  # batches above n are the norm
        assert_identical(a, b)

    def test_non_chunk_aligned_rounds(self):
        """Rounds not divisible by the block size exercise the tail block."""
        sizes = GeometricSize(3.0)
        a = run_once("sed", sizes, "reference", seed=3, rounds=259)
        b = run_once("sed", sizes, "fast", seed=3, rounds=259)
        assert_identical(a, b)

    def test_multi_block_carry(self):
        """Several full blocks force jobs (and partial heads) across
        block boundaries at high load."""
        sizes = BimodalSize(small=2, large=40, large_prob=0.1)
        a = run_once("jsq", sizes, "reference", seed=17, rounds=600, rho=1.02)
        b = run_once("jsq", sizes, "fast", seed=17, rounds=600, rho=1.02)
        assert_identical(a, b)

    def test_unit_sizes_match_base_model(self):
        """DeterministicSize(1) recovers the base model's job counting."""
        a = run_once("jsq", DeterministicSize(1), "fast", seed=2)
        assert a.total_units_arrived == a.total_jobs


class TestCompiledBitExactness:
    """The sized ``compiled`` kernel against ``fast``, compiled control
    flow forced on so numba-less hosts cover the jitted per-job resolver's
    exact (plain-Python) body."""

    def test_registered_with_description(self):
        assert "compiled" in available_backends()
        assert backend_descriptions()["compiled"]

    @pytest.mark.parametrize("dist", sorted(SIZE_DISTRIBUTIONS))
    @pytest.mark.parametrize(
        "policy",
        DETERMINISTIC_POLICIES + FALLBACK_POLICIES + NATIVE_BIT_IDENTICAL_POLICIES,
    )
    def test_bit_identical_to_fast(self, policy, dist):
        sizes = SIZE_DISTRIBUTIONS[dist]
        a = run_once(policy, sizes, "fast", seed=5, rounds=300)
        b = run_once(policy, sizes, forced_sized_compiled(), seed=5, rounds=300)
        assert_identical(a, b)

    def test_multi_block_partial_head_carry(self):
        """Large jobs partially served across block boundaries must carry
        their remaining units identically."""
        sizes = BimodalSize(small=2, large=40, large_prob=0.1)
        a = run_once("jsq", sizes, "fast", seed=17, rounds=600, rho=1.02)
        b = run_once(
            "jsq", sizes, forced_sized_compiled(), seed=17, rounds=600, rho=1.02
        )
        assert_identical(a, b)

    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES + ["scd"]),
        dist=st.sampled_from(sorted(SIZE_DISTRIBUTIONS)),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_compiled_agrees_with_fast(
        self, policy, dist, seed, n, m, rho, rounds
    ):
        sizes = SIZE_DISTRIBUTIONS[dist]
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(0.5, 12.0, size=n)
        jobs_per_round = rho * rates.sum() / sizes.mean
        lambdas = np.full(m, jobs_per_round / m)
        results = []
        for backend in ("fast", forced_sized_compiled()):
            result = SizedSimulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(lambdas),
                service=GeometricService(rates),
                sizes=sizes,
                rounds=rounds,
                seed=seed,
                backend=backend,
            ).run()
            assert (
                result.total_units_arrived
                == result.total_units_departed + result.final_units_queued
            )
            results.append(result)
        assert_identical(*results)


class TestStochasticNativePaths:
    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_native_override_present(self, policy):
        assert has_native_dispatch_round(make_policy(policy))

    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_exact_unit_accounting(self, policy):
        result = run_once(policy, GeometricSize(2.5), "fast", seed=7, rounds=500)
        assert (
            result.total_units_arrived
            == result.total_units_departed + result.final_units_queued
        )
        assert result.histogram.total <= result.total_jobs

    @pytest.mark.parametrize("policy", NATIVE_STOCHASTIC_POLICIES)
    def test_identical_workload_realization(self, policy):
        """Arrival and size streams are untouched by the policy's path."""
        a = run_once(policy, GeometricSize(2.5), "reference", seed=9)
        b = run_once(policy, GeometricSize(2.5), "fast", seed=9)
        assert a.total_jobs == b.total_jobs
        assert a.total_units_arrived == b.total_units_arrived


class TestSizedBackendPropertyBased:
    @given(
        policy=st.sampled_from(DETERMINISTIC_POLICIES + ["scd"]),
        dist=st.sampled_from(sorted(SIZE_DISTRIBUTIONS)),
        seed=st.integers(0, 2**20),
        n=st.integers(2, 7),
        m=st.integers(1, 4),
        rho=st.floats(0.3, 1.05),
        rounds=st.integers(1, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_backends_agree_and_conserve_units(
        self, policy, dist, seed, n, m, rho, rounds
    ):
        """Hypothesis sweep: identical records + exact accounting over
        random sizes, loads (including slightly inadmissible ones), and
        heterogeneous rate draws."""
        sizes = SIZE_DISTRIBUTIONS[dist]
        rng = np.random.default_rng(seed % 1000)
        rates = rng.uniform(0.5, 12.0, size=n)
        jobs_per_round = rho * rates.sum() / sizes.mean
        lambdas = np.full(m, jobs_per_round / m)
        results = []
        for backend in ("reference", "fast"):
            result = SizedSimulation(
                rates=rates,
                policy=make_policy(policy),
                arrivals=PoissonArrivals(lambdas),
                service=GeometricService(rates),
                sizes=sizes,
                rounds=rounds,
                seed=seed,
                backend=backend,
            ).run()
            assert (
                result.total_units_arrived
                == result.total_units_departed + result.final_units_queued
            )
            assert result.histogram.total <= result.total_jobs
            results.append(result)
        assert_identical(*results)


class TestWRRNativeBatchPath:
    """Satellite: the smooth-credit loop batched across dispatchers."""

    def _bound_pair(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.5, 10.0, size=n)
        native, fallback = make_policy("wrr"), make_policy("wrr")
        for policy in (native, fallback):
            policy.bind(
                SystemContext(
                    rates=rates,
                    num_dispatchers=m,
                    rng=np.random.default_rng(1),
                )
            )
        return native, fallback

    def test_native_override_present(self):
        assert has_native_dispatch_round(make_policy("wrr"))

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 8),
        m=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_and_credit_state_bit_identical(self, seed, n, m):
        native, fallback = self._bound_pair(n, m, seed)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            batch = rng.integers(0, 9, size=m)
            queues = rng.integers(0, 30, size=n)
            rows_native = native.dispatch_round(batch, queues)
            rows_fallback = Policy.dispatch_round(fallback, batch, queues)
            np.testing.assert_array_equal(rows_native, rows_fallback)
            np.testing.assert_array_equal(native._credits, fallback._credits)

    def test_empty_round_leaves_credits_untouched(self):
        native, _ = self._bound_pair(4, 3, seed=0)
        before = native._credits.copy()
        rows = native.dispatch_round(np.zeros(3, dtype=np.int64), np.zeros(4))
        assert rows.sum() == 0
        np.testing.assert_array_equal(native._credits, before)


class TestSizedBatchQueueStore:
    """The unit-denominated block resolver against the reference deques."""

    def reference_drain(self, n, admissions, done_blocks, warmup):
        """Replay the same sized admissions/completions through
        SizedServerQueues (warmup gated like the store's contract)."""
        servers = [SizedServerQueue() for _ in range(n)]
        histogram = ResponseTimeHistogram()
        gated = ResponseTimeHistogram()
        t = 0
        for per_round, done_block in zip(admissions, done_blocks):
            for jobs_by_server, done in zip(per_round, done_block):
                for s, sizes in jobs_by_server.items():
                    servers[s].admit(t, np.asarray(sizes, dtype=np.int64))
                for s in np.flatnonzero(done):
                    sink = gated if t >= warmup else None
                    completed = servers[s].complete(int(done[s]), t, sink)
                    assert completed == int(done[s])
                t += 1
        del histogram
        return gated, np.array([q.units for q in servers], dtype=np.int64)

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 5),
        blocks=st.integers(1, 3),
        block_len=st.integers(1, 10),
        warmup=st.integers(0, 6),
        max_size=st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sized_server_queue_semantics(
        self, seed, n, blocks, block_len, warmup, max_size
    ):
        rng = np.random.default_rng(seed)
        store = SizedBatchQueueStore(n)
        histogram = ResponseTimeHistogram()
        queued_units = np.zeros(n, dtype=np.int64)
        admissions, done_blocks = [], []
        start = 0
        for _ in range(blocks):
            per_round = []
            done_block = np.zeros((block_len, n), dtype=np.int64)
            job_servers, job_rounds, job_sizes = [], [], []
            for i in range(block_len):
                jobs_by_server = {}
                for s in range(n):
                    count = int(rng.integers(0, 4))
                    if count:
                        sizes = rng.integers(1, max_size + 1, size=count)
                        jobs_by_server[s] = sizes
                        queued_units[s] += int(sizes.sum())
                        job_servers.append(np.full(count, s, dtype=np.int64))
                        job_rounds.append(np.full(count, start + i, dtype=np.int64))
                        job_sizes.append(sizes.astype(np.int64))
                per_round.append(jobs_by_server)
                # Any feasible unit-completion vector (<= queued) is legal.
                done_block[i] = rng.integers(0, queued_units + 1)
                queued_units -= done_block[i]
            flat = lambda parts: (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            # Jobs were generated round-major; server-major stable sort
            # is the order the store requires.
            srv = flat(job_servers)
            order = np.argsort(srv, kind="stable")
            store.process_block(
                start,
                srv[order],
                flat(job_rounds)[order],
                flat(job_sizes)[order],
                done_block,
                histogram,
                warmup,
            )
            admissions.append(per_round)
            done_blocks.append(done_block)
            start += block_len
        expected_hist, expected_units = self.reference_drain(
            n, admissions, done_blocks, warmup
        )
        np.testing.assert_array_equal(histogram.counts, expected_hist.counts)
        np.testing.assert_array_equal(store.queued_units(), expected_units)
        assert int(store.queued_units().sum()) == int(queued_units.sum())

    @pytest.mark.parametrize(
        "make_store",
        [SizedBatchQueueStore, lambda n: CompiledSizedBatchQueueStore(n, force=True)],
        ids=["numpy", "walk"],
    )
    @given(case=store_scenarios(max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_record_stream_and_carry_match_sized_server_queues(self, make_store, case):
        """Every job record -- round, time, count, server, in order -- and
        the carried jobs equal the per-server deque replay's."""
        n, warmup, blocks = case
        store = make_store(n)
        queues = [SizedServerQueue() for _ in range(n)]
        expected = replay_store_scenario(
            queues, warmup, blocks, lambda queue, t, sizes: queue.admit(t, sizes)
        )
        for (start, mask, rounds, done), want in zip(blocks, expected):
            servers = np.concatenate([srv for srv, _ in rounds])
            arrived = np.repeat(
                start + np.arange(len(rounds)), [srv.size for srv, _ in rounds]
            )
            order = np.argsort(servers, kind="stable")
            got = []
            store.set_capacity_mask(mask)
            store.process_block(
                start,
                servers[order],
                arrived[order],
                np.concatenate([sizes for _, sizes in rounds])[order],
                done,
                None,
                warmup,
                response_sink=collect_records(got),
            )
            assert got == want
            carried = [job for queue in queues for job in queue._jobs]
            assert store._rounds.tolist() == [r for r, _ in carried]
            assert store._remaining.tolist() == [u for _, u in carried]
            assert store._lengths.tolist() == [len(q._jobs) for q in queues]
            assert store._units.tolist() == [q.units for q in queues]

    def test_scratch_memory_scales_with_departures(self):
        """A 10**12-unit job drained a few units per round resolves in
        memory bounded by the block's departures, not its size."""
        store = SizedBatchQueueStore(4)
        store.process_block(
            0,
            np.array([0, 0, 2]),
            np.array([0, 0, 0]),
            np.array([10**12, 1, 5]),
            np.zeros((1, 4), dtype=np.int64),
            None,
        )
        done = np.zeros((256, 4), dtype=np.int64)
        done[:, 0] = 3
        histogram = ResponseTimeHistogram()
        empty = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            store.process_block(1, empty, empty, empty, done, histogram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert histogram.total == 0
        assert store.queued_units().tolist() == [10**12 + 1 - 3 * 256, 0, 5, 0]
        assert store.job_counts().tolist() == [2, 0, 1, 0]

    def test_scratch_memory_scales_with_cells_not_units(self):
        """High-capacity servers draining 10**5 units per round resolve in
        memory bounded by the block's jobs and non-zero cells, not by the
        units they hold."""
        store = SizedBatchQueueStore(4)
        store.process_block(
            0,
            np.array([0, 2, 2]),
            np.array([0, 0, 0]),
            np.array([10**12, 10**7, 10**12]),
            np.zeros((1, 4), dtype=np.int64),
            None,
        )
        done = np.zeros((256, 4), dtype=np.int64)
        done[:, 0] = 10**5
        done[:, 2] = 10**5
        histogram = ResponseTimeHistogram()
        empty = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            store.process_block(1, empty, empty, empty, done, histogram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # Server 2's 10**7-unit job drains in rounds 1..100.
        assert histogram.total == 1
        assert store.queued_units().tolist() == [
            10**12 - 256 * 10**5, 0, 10**12 + 10**7 - 256 * 10**5, 0
        ]
        assert store.job_counts().tolist() == [1, 0, 1, 0]

    def test_partial_head_job_carries_across_blocks(self):
        """A job half-served at a block boundary finishes with the
        response time of its *last* unit's round."""
        store = SizedBatchQueueStore(1)
        histogram = ResponseTimeHistogram()
        # Round 0: one job of 5 units; rounds 0-1 drain 2+2 units.
        store.process_block(
            0,
            np.array([0]),
            np.array([0]),
            np.array([5]),
            np.array([[2], [2]], dtype=np.int64),
            histogram,
        )
        assert histogram.total == 0
        assert store.queued_units()[0] == 1
        assert store.job_counts()[0] == 1
        # Round 2: the final unit drains -> response 2 - 0 + 1 = 3.
        store.process_block(
            2,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.array([[1]], dtype=np.int64),
            histogram,
        )
        np.testing.assert_array_equal(histogram.counts, [0, 0, 0, 1])
        assert store.queued_units()[0] == 0
        assert store.job_counts()[0] == 0

    def test_fifo_across_jobs_and_servers(self):
        store = SizedBatchQueueStore(2)
        histogram = ResponseTimeHistogram()
        # Server 0: jobs of 2 and 1 units (round 0); server 1: 3 units.
        store.process_block(
            0,
            np.array([0, 0, 1]),
            np.array([0, 0, 0]),
            np.array([2, 1, 3]),
            np.array([[3, 3]], dtype=np.int64),
            histogram,
        )
        # All three jobs complete in round 0 -> response 1 each.
        np.testing.assert_array_equal(histogram.counts, [0, 3])

    def test_overdrain_detected(self):
        store = SizedBatchQueueStore(2)
        with pytest.raises(RuntimeError, match="drained past"):
            store.process_block(
                0,
                np.array([0]),
                np.array([0]),
                np.array([3]),
                np.array([[4, 0]], dtype=np.int64),
                ResponseTimeHistogram(),
            )

    def test_unsorted_jobs_rejected(self):
        store = SizedBatchQueueStore(2)
        with pytest.raises(ValueError, match="server-major"):
            store.process_block(
                0,
                np.array([1, 0]),
                np.array([0, 0]),
                np.array([1, 1]),
                np.zeros((1, 2), dtype=np.int64),
                None,
            )

    def test_empty_block_is_noop(self):
        store = SizedBatchQueueStore(3)
        empty = np.empty(0, dtype=np.int64)
        store.process_block(
            0, empty, empty, empty, np.zeros((4, 3), dtype=np.int64), None
        )
        np.testing.assert_array_equal(store.queued_units(), np.zeros(3, np.int64))
        np.testing.assert_array_equal(store.job_counts(), np.zeros(3, np.int64))


class TestEndToEndPlumbing:
    def test_simulate_cell_runs_sized_fast(self):
        from repro.experiments.executor import simulate_cell
        from repro.experiments.workload import WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        system = SystemSpec(6, 2)
        workload = WorkloadSpec.sized(GeometricSize(2.0))
        results = [
            simulate_cell(
                "jsq", system, 0.8, workload, seed=3, rounds=300, backend=backend
            )
            for backend in ("reference", "fast")
        ]
        assert_identical(*results)

    def test_simulate_cell_unknown_sized_backend_uses_registry_error(self):
        from repro.experiments.executor import simulate_cell
        from repro.experiments.workload import WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        with pytest.raises(ValueError, match="unknown engine backend"):
            simulate_cell(
                "jsq",
                SystemSpec(4, 1),
                0.5,
                WorkloadSpec.sized(DeterministicSize(2)),
                seed=0,
                rounds=10,
                backend="warp-drive",
            )

    def test_experiment_grid_identical_records_across_backends(self):
        from repro.experiments import Experiment, WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        def grid(backend):
            return Experiment(
                policies=["jsq", "scd"],
                systems=SystemSpec(6, 2),
                loads=[0.7],
                rounds=250,
                workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
                backend=backend,
            ).run(keep_results=False)

        reference, fast = grid("reference"), grid("fast")
        assert reference.records == fast.records
        assert {"jobs", "arrived"} <= set(fast.records[0].metrics)

    def test_sized_fast_experiment_json_round_trip(self, tmp_path):
        from repro.analysis.persistence import load_experiment, save_experiment
        from repro.experiments import Experiment, WorkloadSpec
        from repro.workloads.scenarios import SystemSpec

        result = Experiment(
            policies="jsq",
            systems=SystemSpec(5, 2),
            loads=0.6,
            rounds=120,
            workloads=(WorkloadSpec.sized(GeometricSize(2.0)),),
            backend="fast",
        ).run(keep_results=False)
        path = save_experiment(result, tmp_path / "sized.json")
        loaded = load_experiment(path)
        assert loaded.experiment.backend == "fast"
        assert loaded.records == result.records
