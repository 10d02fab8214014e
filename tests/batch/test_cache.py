"""Result-cache semantics: identical hits, disk tier, invalidation keys."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.batch.cache import CACHE_FORMAT, CacheStats, ResultCache
from repro.batch.engine import BatchJob, BatchMapper

pytestmark = pytest.mark.batch


class TestCacheStatsConcurrency:
    def test_multithreaded_hammer_counts_exactly(self):
        """N threads of get/put traffic must lose zero counter updates.

        The regression this guards: bare ``+= 1`` increments are a
        read-modify-write race, so concurrent service worker threads
        silently dropped counts and ``/healthz`` drifted under load.
        """
        cache = ResultCache()
        cache.put("warm", {"answer": 1})  # 1 store up front
        threads_n, rounds = 8, 300
        barrier = threading.Barrier(threads_n)

        def hammer(worker: int) -> None:
            barrier.wait()
            for index in range(rounds):
                assert cache.get("warm") is not None  # hit
                assert cache.get(f"miss-{worker}-{index}") is None  # miss
                cache.put(f"key-{worker}-{index}", {"worker": worker})  # store

        # Force frequent preemption so lost updates would actually show.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)

        total = threads_n * rounds
        assert cache.stats.hits == total
        assert cache.stats.misses == total
        assert cache.stats.stores == total + 1
        assert cache.stats.lookups == 2 * total

    def test_reclassify_hit_as_miss_moves_both_counters(self):
        stats = CacheStats()
        stats.record_hit()
        stats.reclassify_hit_as_miss()
        assert (stats.hits, stats.misses) == (0, 1)
        assert stats.lookups == 1

    def test_snapshot_is_consistent(self):
        stats = CacheStats()
        stats.record_hit()
        stats.record_miss()
        stats.record_store()
        snapshot = stats.snapshot()
        assert snapshot["hits"] + snapshot["misses"] == snapshot["lookups"]
        assert snapshot == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "lookups": 2,
            "hit_rate": 0.5,
        }


class TestCacheHits:
    def test_hit_returns_identical_mapping(self, batch_jobs):
        cache = ResultCache()
        mapper = BatchMapper(jobs=1, cache=cache)
        first = mapper.map_all(batch_jobs)
        second = mapper.map_all(batch_jobs)
        assert all(not r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        for fresh, cached in zip(first, second):
            for stage_name, stage in fresh.stages.items():
                hit = cached.stages[stage_name]
                assert hit.mapping.assignment == stage.mapping.assignment
                assert hit.metrics == stage.metrics
                assert hit.det_time == stage.det_time
                assert hit.mapping.is_valid()
        assert cache.stats.hits == len(batch_jobs)
        assert cache.stats.misses == len(batch_jobs)

    def test_failed_jobs_are_not_cached(self, batch_jobs):
        from repro.mca.architecture import custom_architecture
        from repro.mca.crossbar import CrossbarType
        from repro.snn.generators import random_network

        hub = random_network(8, 20, seed=9, max_fan_in=6, name="hub")
        bad = BatchJob(
            name="bad",
            network=hub,
            architecture=custom_architecture([(CrossbarType(4, 4), 8)]),
            stages=("area",),
        )
        cache = ResultCache()
        mapper = BatchMapper(jobs=1, cache=cache)
        mapper.map_all([bad])
        rerun = mapper.map_all([bad]).records[0]
        assert not rerun.from_cache
        assert cache.stats.stores == 0

    def test_portfolio_mode_keys_separately(self, batch_jobs):
        job = batch_jobs[0]
        assert job.fingerprint(portfolio=False) != job.fingerprint(portfolio=True)
        cache = ResultCache()
        BatchMapper(jobs=1, cache=cache).map_all([job])
        record = BatchMapper(jobs=1, portfolio=True, cache=cache).map_all([job])
        assert not record.records[0].from_cache

    def test_solver_specs_key_separately(self, batch_jobs):
        """Per-rung solver tuning must not collide with untuned (or other
        rungs') cache entries — the spec is part of the job key."""
        from repro.ilp.solve import SolverSpec

        job = batch_jobs[0]
        tuned = BatchJob(
            job.name, job.network, job.architecture, stages=job.stages,
            solver_spec=SolverSpec(node_limit=200),
        )
        other = BatchJob(
            job.name, job.network, job.architecture, stages=job.stages,
            solver_spec=SolverSpec(node_limit=5_000),
        )
        assert tuned.fingerprint() != job.fingerprint()
        assert tuned.fingerprint() != other.fingerprint()
        # An absent spec reproduces the historical key exactly.
        plain = BatchJob(
            job.name, job.network, job.architecture, stages=job.stages
        )
        assert plain.fingerprint() == job.fingerprint()

    def test_budgets_do_not_change_the_key(self, batch_jobs):
        job = batch_jobs[0]
        cheap = BatchJob(
            job.name, job.network, job.architecture, stages=job.stages,
            area_time_limit=0.5, route_time_limit=0.5,
        )
        assert cheap.fingerprint() == job.fingerprint()

    def test_limit_bound_entry_is_resolved_under_a_bigger_budget(self, batch_jobs):
        """A cached non-optimal (budget-starved) answer must not pin quality."""
        job = batch_jobs[0]
        starved = BatchJob(
            job.name, job.network, job.architecture, stages=("area",),
            area_time_limit=1e-4,  # HiGHS limits out -> warm-start fallback
        )
        cache = ResultCache()
        first = BatchMapper(jobs=1, cache=cache).map_all([starved]).records[0]
        assert first.stages["area"].solve_result.status.value == "feasible"

        generous = BatchJob(
            job.name, job.network, job.architecture, stages=("area",),
            area_time_limit=10.0,
        )
        rerun = BatchMapper(jobs=1, cache=cache).map_all([generous]).records[0]
        assert not rerun.from_cache  # bigger budget -> real re-solve
        assert (
            rerun.stages["area"].mapping.area()
            <= first.stages["area"].mapping.area() + 1e-9
        )

        # The optimal re-solve replaces the entry and is budget-independent.
        small_again = BatchMapper(jobs=1, cache=cache).map_all([starved]).records[0]
        assert small_again.from_cache


class TestDiskTier:
    def test_survives_across_cache_instances(self, batch_jobs, tmp_path):
        first = BatchMapper(
            jobs=1, cache=ResultCache(tmp_path / "cache")
        ).map_all(batch_jobs)
        reloaded = ResultCache(tmp_path / "cache")
        assert len(reloaded) == len(batch_jobs)
        second = BatchMapper(jobs=1, cache=reloaded).map_all(batch_jobs)
        assert all(r.from_cache for r in second)
        for fresh, cached in zip(first, second):
            assert (
                cached.final().mapping.assignment
                == fresh.final().mapping.assignment
            )

    def test_corrupt_entries_degrade_to_misses(self, batch_jobs, tmp_path):
        cache_dir = tmp_path / "cache"
        BatchMapper(jobs=1, cache=ResultCache(cache_dir)).map_all(batch_jobs[:1])
        (entry,) = cache_dir.glob("*.json")
        entry.write_text("{ not json")
        record = (
            BatchMapper(jobs=1, cache=ResultCache(cache_dir))
            .map_all(batch_jobs[:1])
            .records[0]
        )
        assert record.ok and not record.from_cache

    def test_stale_format_entries_are_ignored(self, batch_jobs, tmp_path):
        cache_dir = tmp_path / "cache"
        BatchMapper(jobs=1, cache=ResultCache(cache_dir)).map_all(batch_jobs[:1])
        (entry,) = cache_dir.glob("*.json")
        payload = json.loads(entry.read_text())
        payload["format"] = CACHE_FORMAT + 1
        entry.write_text(json.dumps(payload))
        cache = ResultCache(cache_dir)
        assert cache.get(payload["key"]) is None

    def test_contains_and_clear(self, batch_jobs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        mapper = BatchMapper(jobs=1, cache=cache)
        mapper.map_all(batch_jobs[:1])
        key = batch_jobs[0].fingerprint()
        assert key in cache
        cache.clear()
        assert key not in cache
        assert len(cache) == 0

    def test_concurrent_writers_of_one_key_all_succeed(self, tmp_path):
        """Threads sharing one directory may all publish the same key.

        The regression this guards: every put went through one shared
        ``<key>.json.tmp``, so the loser of a race renamed a file the
        winner had already moved and ``FileNotFoundError`` escaped.
        """
        cache_dir = tmp_path / "cache"
        threads_n, rounds = 4, 200
        caches = [ResultCache(cache_dir) for _ in range(threads_n)]
        barrier = threading.Barrier(threads_n)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            barrier.wait()
            for index in range(rounds):
                try:
                    caches[worker].put("shared", {"worker": worker, "i": index})
                except OSError as exc:
                    errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in cache_dir.iterdir()] == ["shared.json"]
        assert ResultCache(cache_dir).get("shared") is not None


class TestCacheLookupSpan:
    """The ``cache-lookup`` span marks a real lookup, and only that."""

    def _span_names(self, tmp_path, mapper, job) -> list[str]:
        from repro import trace

        trace.install(trace.TraceRuntime(tmp_path, "test-proc"))
        try:
            context = trace.mint_context()
            with trace.activate(context):
                mapper.map_all([job])
        finally:
            trace.uninstall()
        return [
            r["name"]
            for r in trace.read_trace_dir(tmp_path, context.trace_id)
            if r.get("kind") == "span"
        ]

    def test_cached_mapper_records_the_lookup(self, tmp_path, batch_jobs):
        mapper = BatchMapper(jobs=1, cache=ResultCache())
        names = self._span_names(tmp_path, mapper, batch_jobs[0])
        assert names.count("cache-lookup") == 1
        assert "stage:area" in names

    def test_cacheless_mapper_records_no_lookup(self, tmp_path, batch_jobs):
        names = self._span_names(tmp_path, BatchMapper(jobs=1), batch_jobs[0])
        assert "cache-lookup" not in names
        assert "stage:area" in names
