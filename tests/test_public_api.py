"""Tests for the top-level public API surface."""

import pytest

import repro
from repro.snn import random_network


class TestQuickMap:
    def test_heterogeneous_default(self):
        network = random_network(20, 40, seed=3, max_fan_in=6)
        mapping = repro.quick_map(network, time_limit=5.0)
        assert mapping.is_valid()
        assert mapping.problem.network is network

    def test_seed_controls_the_warm_start_reproducibly(self):
        network = random_network(20, 40, seed=3, max_fan_in=6)
        first = repro.quick_map(network, heterogeneous=False, time_limit=5.0, seed=11)
        again = repro.quick_map(network, heterogeneous=False, time_limit=5.0, seed=11)
        assert first.is_valid()
        assert first.assignment == again.assignment

    def test_homogeneous_variant(self):
        network = random_network(20, 40, seed=3, max_fan_in=6)
        mapping = repro.quick_map(network, heterogeneous=False, time_limit=5.0)
        assert mapping.is_valid()
        types = mapping.problem.architecture.types()
        assert len(types) == 1
        assert types[0].label == "16x16"

    def test_heterogeneous_beats_homogeneous_area(self):
        network = random_network(24, 48, seed=8, max_fan_in=6)
        het = repro.quick_map(network, time_limit=8.0)
        homo = repro.quick_map(network, heterogeneous=False, time_limit=8.0)
        assert het.area() < homo.area()


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_batch_surface_is_exported(self):
        """The batch engine is first-class public API."""
        for name in ("BatchJob", "BatchMapper", "BatchResult", "JobRecord",
                     "ResultCache", "SolverSpec"):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module",
        ["ilp", "snn", "mca", "mapping", "profile", "experiments", "batch"],
    )
    def test_subpackage_all_resolves(self, module):
        import importlib

        pkg = importlib.import_module(f"repro.{module}")
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"repro.{module}.{name}"
