"""Rung-indexed solver fidelity ladders for the adaptive driver."""

from __future__ import annotations

import pytest

from repro.dse.fidelity import rung_solver_spec
from repro.ilp.highs_backend import HighsBackend


def test_every_rung_runs_one_highs_arm():
    for max_rungs in range(1, 5):
        for rung in range(1, max_rungs + 1):
            spec = rung_solver_spec(rung, max_rungs)
            assert isinstance(spec.build(), HighsBackend)


def test_top_rung_is_full_fidelity():
    exact = rung_solver_spec(3, 3)
    assert exact.emphasis == "quality"
    assert exact.node_limit is None
    assert exact.effective_gap() == 0.0


def test_cheap_rungs_tighten_monotonically():
    gaps, caps = [], []
    for rung in range(1, 4):
        arm = rung_solver_spec(rung, 4)
        assert arm.emphasis == "speed"
        assert arm.node_limit is not None
        gaps.append(arm.effective_gap())
        caps.append(arm.node_limit)
    # Later rungs never run looser arms than earlier ones.
    assert gaps == sorted(gaps, reverse=True)
    assert caps == sorted(caps)
    assert len(set(caps)) == len(caps)
    # ... and the top rung is the tightest of all.
    top = rung_solver_spec(4, 4)
    assert top.effective_gap() < gaps[-1]


def test_single_rung_ladder_goes_straight_to_full_fidelity():
    exact = rung_solver_spec(1, 1)
    assert exact.emphasis == "quality"
    assert exact.node_limit is None


def test_rungs_are_one_based():
    with pytest.raises(ValueError, match="1-based"):
        rung_solver_spec(0, 3)
