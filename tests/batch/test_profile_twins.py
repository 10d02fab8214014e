"""Profile twins: jobs that differ only in a profile no stage reads.

The area and SNU models are purely structural; only the PGO stage reads
the spike profile.  So a pgo-free job's fingerprint leaves the profile
out, its assignment does not depend on it, and ``map_all`` solves a set
of such twins once, scoring each mapping under its own profile.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.engine as engine
from repro.batch.engine import BatchJob, BatchMapper
from repro.mapping.metrics import evaluate_mapping
from repro.mca.architecture import homogeneous_architecture
from repro.snn.generators import random_network

pytestmark = pytest.mark.batch

#: Generous for these sizes: every solve closes ``optimal``, so the
#: answer is deterministic.
BUDGET = 20.0


def _job(seed: int, profile: dict[int, int], stages=("area", "snu"), **kwargs):
    net = random_network(10, 20, seed=seed, max_fan_in=5, name=f"net{seed}")
    return BatchJob(
        name=kwargs.pop("name", f"job{seed}"),
        network=net,
        architecture=homogeneous_architecture(net.num_neurons, dimension=8),
        stages=stages,
        profile=profile,
        area_time_limit=kwargs.pop("area_time_limit", BUDGET),
        route_time_limit=BUDGET,
        **kwargs,
    )


def _profile(seed: int, counts: list[int]) -> dict[int, int]:
    net = random_network(10, 20, seed=seed, max_fan_in=5)
    return {nid: counts[i % len(counts)] for i, nid in enumerate(net.neuron_ids())}


counts = st.lists(st.integers(0, 50), min_size=1, max_size=10)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 500), first=counts, second=counts)
def test_pgo_free_assignment_ignores_the_profile(seed, first, second):
    """Same key and same assignment under two profiles, serial and pooled."""
    a = _job(seed, _profile(seed, first), name="a")
    b = _job(seed, _profile(seed, second), name="b")
    assert a.fingerprint() == b.fingerprint()
    serial = [BatchMapper(jobs=1).map_all([job]).records[0] for job in (a, b)]
    # Different budgets keep the two jobs apart, so the pool runs both.
    pooled = BatchMapper(jobs=2).map_all(
        [a, replace(b, area_time_limit=BUDGET + 1)]
    ).records
    assignments = [r.final().mapping.assignment for r in serial + pooled]
    assert all(r.ok and not r.from_cache for r in serial + pooled)
    assert all(assignment == assignments[0] for assignment in assignments)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), first=counts, second=counts)
def test_pgo_fingerprint_follows_the_profile(seed, first, second):
    stages = ("area", "snu", "pgo")
    a = _job(seed, _profile(seed, first), stages=stages)
    b = _job(seed, _profile(seed, second), stages=stages)
    assert (a.fingerprint() == b.fingerprint()) == (a.profile == b.profile)


class TestTwinDedup:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls: list[str] = []
        execute = engine._execute_job

        def counting(job, portfolio):
            calls.append(job.name)
            return execute(job, portfolio)

        monkeypatch.setattr(engine, "_execute_job", counting)
        return calls

    def test_twins_share_one_solve_and_keep_their_own_metrics(self, solves):
        light = _profile(3, [1])
        heavy = _profile(3, [5, 7, 2])
        jobs = [_job(3, light, name="light"), _job(3, heavy, name="heavy")]
        first, second = BatchMapper().map_all(jobs).records
        assert solves == ["light"]
        assert not first.from_cache and second.from_cache
        assert first.wall_time > 0 and second.wall_time == 0
        assert first.optimal and second.optimal
        assert first.fingerprint == second.fingerprint
        assert first.final().mapping.assignment == second.final().mapping.assignment
        for record, profile in ((first, light), (second, heavy)):
            final = record.final()
            assert final.metrics == evaluate_mapping(final.mapping, profile)
        assert first.final().metrics.global_routes > 0
        assert (
            first.final().metrics.global_packets
            != second.final().metrics.global_packets
        )

    def test_twins_with_different_budgets_are_not_merged(self, solves):
        profile = _profile(4, [1])
        jobs = [
            _job(4, profile, name="short", area_time_limit=BUDGET),
            _job(4, profile, name="long", area_time_limit=BUDGET + 1),
        ]
        records = BatchMapper().map_all(jobs).records
        assert solves == ["short", "long"]
        assert not any(record.from_cache for record in records)

    def test_a_pgo_job_is_not_a_twin_of_another_profile(self, solves):
        stages = ("area", "snu", "pgo")
        jobs = [
            _job(5, _profile(5, [1]), stages=stages, name="uniform"),
            _job(5, _profile(5, [3, 1]), stages=stages, name="skewed"),
        ]
        BatchMapper().map_all(jobs)
        assert solves == ["uniform", "skewed"]
