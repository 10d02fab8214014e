"""The program attributes the repo benchmark's tracers patch still exist.

``perfbench --trace 1`` times each layer by swapping module and class
attributes for timing wrappers (``compile_workload._install_tracer``,
``sweep_workload._install_tracer``) and reads the winning solver arm
through ``repro.batch.portfolio.winning_arm``.  Renaming or deleting
any of them breaks only the traced run, which the untraced tier-1 suite
would not notice; this installs both tracers, restores them, and checks
that every patched attribute is back.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("common")


@pytest.mark.parametrize("workload", ["compile_workload", "sweep_workload"])
def test_tracer_hooks_install_and_restore(perfbench, workload):
    module = importlib.import_module(workload)
    tracer = perfbench.Tracer()
    try:
        module._install_tracer(tracer, {})
        patched = list(tracer._patches)
        assert patched
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_winning_arm_is_importable():
    from repro.batch.portfolio import winning_arm

    assert callable(winning_arm)
