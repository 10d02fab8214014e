"""BatchMapper behavior: serial identity, pooling, failure isolation.

The fixtures (see tests/conftest.py) keep instances tiny and budgets tight
so the default run covers pools and portfolios in seconds; the paranoid
wider-pool variant opts in via the ``slow`` marker.
"""

from __future__ import annotations

import pytest

from repro.batch.engine import JOB_ERROR, JOB_OK, BatchJob, BatchMapper
from repro.mapping.pipeline import MappingPipeline
from repro.mca.architecture import custom_architecture, homogeneous_architecture
from repro.mca.crossbar import CrossbarType
from repro.snn.generators import random_network

pytestmark = pytest.mark.batch


def _serial_reference(jobs):
    """The plain serial loop the engine's jobs=1 mode must match."""
    results = {}
    for job in jobs:
        pipeline = MappingPipeline(
            job.build_problem(),
            area_time_limit=job.area_time_limit,
            route_time_limit=job.route_time_limit,
            formulation=job.formulation,
        )
        results[job.name] = pipeline.run(stages=job.stages, profile=job.profile)
    return results


class TestSerialIdentity:
    def test_jobs_1_matches_serial_loop_bit_for_bit(self, batch_jobs):
        reference = _serial_reference(batch_jobs)
        result = BatchMapper(jobs=1).map_all(batch_jobs)
        for record in result:
            assert record.ok
            ref = reference[record.name]
            assert list(record.stages) == list(ref.stages)
            for stage_name, stage in record.stages.items():
                ref_stage = ref.stages[stage_name]
                assert stage.mapping.assignment == ref_stage.mapping.assignment
                assert stage.metrics == ref_stage.metrics
                assert stage.det_time == ref_stage.det_time

    def test_records_keep_submission_order(self, batch_jobs):
        result = BatchMapper(jobs=1).map_all(batch_jobs)
        assert [r.name for r in result] == [j.name for j in batch_jobs]

    def test_stage_records_mirror_pipeline_shape(self, batch_jobs):
        record = BatchMapper(jobs=1).map_all(batch_jobs[:1]).records[0]
        assert list(record.stages) == ["area", "snu"]
        final = record.final()
        assert final.name == "snu"
        assert final.mapping.is_valid()
        assert final.metrics.area == final.mapping.area()
        assert record.det_time == pytest.approx(
            sum(s.det_time for s in record.stages.values())
        )


class TestPooledExecution:
    def test_pool_matches_serial_results(self, batch_jobs):
        serial = BatchMapper(jobs=1).map_all(batch_jobs)
        pooled = BatchMapper(jobs=2).map_all(batch_jobs)
        for ser, par in zip(serial, pooled):
            assert par.ok, par.error
            assert par.name == ser.name
            for stage_name, stage in ser.stages.items():
                assert (
                    par.stages[stage_name].mapping.assignment
                    == stage.mapping.assignment
                )

    def test_failing_job_does_not_poison_the_batch(self, batch_jobs):
        # Fan-in 6 into a pool of 4-input slots: problem validation fails
        # inside the worker, the sibling jobs must come back untouched.
        hub = random_network(8, 20, seed=9, max_fan_in=6, name="hub")
        assert max(hub.fan_in(i) for i in hub.neuron_ids()) > 4
        bad = BatchJob(
            name="bad",
            network=hub,
            architecture=custom_architecture([(CrossbarType(4, 4), 8)]),
            stages=("area",),
            area_time_limit=1.0,
        )
        mixed = [batch_jobs[0], bad, batch_jobs[1]]
        result = BatchMapper(jobs=2).map_all(mixed)
        by_name = {r.name: r for r in result}
        assert by_name["bad"].status == JOB_ERROR
        assert "fan-in" in by_name["bad"].error
        assert by_name[batch_jobs[0].name].ok
        assert by_name[batch_jobs[1].name].ok
        with pytest.raises(ValueError, match="no stages"):
            by_name["bad"].final()

    def test_failed_records_report_in_result_helpers(self, batch_jobs):
        hub = random_network(8, 20, seed=9, max_fan_in=6, name="hub")
        bad = BatchJob(
            name="bad",
            network=hub,
            architecture=custom_architecture([(CrossbarType(4, 4), 8)]),
            stages=("area",),
        )
        result = BatchMapper(jobs=1).map_all([bad, batch_jobs[0]])
        assert [r.name for r in result.failed()] == ["bad"]
        assert [r.name for r in result.succeeded()] == [batch_jobs[0].name]
        assert "error" in result.report()


class TestJobValidation:
    def test_unknown_stage_rejected_at_construction(self, batch_jobs):
        job = batch_jobs[0]
        with pytest.raises(ValueError, match="unknown stages"):
            BatchJob(job.name, job.network, job.architecture, stages=("warp",))

    def test_pgo_requires_profile(self, batch_jobs):
        job = batch_jobs[0]
        with pytest.raises(ValueError, match="profile"):
            BatchJob(job.name, job.network, job.architecture,
                     stages=("area", "snu", "pgo"))

    def test_duplicate_job_names_rejected(self, batch_jobs):
        with pytest.raises(ValueError, match="unique"):
            BatchMapper(jobs=1).map_all([batch_jobs[0], batch_jobs[0]])

    def test_pgo_stage_runs_through_engine(self, batch_jobs):
        base = batch_jobs[0]
        counts = {i: (i % 3) for i in base.network.neuron_ids()}
        job = BatchJob(
            name="pgo-job",
            network=base.network,
            architecture=base.architecture,
            stages=("area", "snu", "pgo"),
            profile=counts,
            area_time_limit=2.0,
            route_time_limit=2.0,
        )
        record = BatchMapper(jobs=1).map_all([job]).records[0]
        assert record.ok, record.error
        assert list(record.stages) == ["area", "snu", "pgo"]
        assert record.final().metrics.global_packets is not None


@pytest.mark.slow
class TestPooledAtScale:
    def test_wider_pool_matches_serial(self):
        jobs = []
        for i in range(8):
            net = random_network(16, 32, seed=500 + i, max_fan_in=6)
            arch = homogeneous_architecture(net.num_neurons, dimension=8)
            jobs.append(
                BatchJob(f"s{i}", net, arch, stages=("area", "snu"),
                         area_time_limit=5.0, route_time_limit=4.0)
            )
        serial = BatchMapper(jobs=1).map_all(jobs)
        pooled = BatchMapper(jobs=4).map_all(jobs)
        for ser, par in zip(serial, pooled):
            assert par.ok
            assert (
                par.final().mapping.assignment == ser.final().mapping.assignment
            )
        assert all(r.status == JOB_OK for r in pooled)
