"""Cheap passes of the benchmark's workloads, checked, so the harness cannot rot."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_phase_grid_pass_checks_clean(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    plan = workloads.build_plan("phase_grid", 1, tmp_path)
    assert plan.calls
    outputs = {call.label: call.collect(call.run()) for call in plan.calls}
    assert plan.check(outputs) == {}


def test_near_critical_cheap_round_checks_clean(monkeypatch, tmp_path):
    # Round 0 holds the 12 solves at |p0 - p0c| > 3e-3, under a second together.  The
    # solves at |d| <= 3e-3 stay benchmark-only because of their runtime; among
    # them the -1e-4 Poisson solve still ends INCONCLUSIVE where the closed form
    # says ZERO, the open failure of ROADMAP item 1.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    plan = workloads.build_plan("near_critical", 1, tmp_path)
    cheap = [call for call in plan.calls if call.label.endswith("#0")]
    assert len(cheap) == 12
    outputs = {call.label: call.collect(call.run()) for call in cheap}
    assert plan.check(outputs) == {}


def test_oracle_mc_pass_checks_clean(monkeypatch, tmp_path):
    # one pass: 50k trees per spec through the chunk map and the forest sampler
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    plan = workloads.build_plan("oracle_mc", 1, tmp_path)
    assert plan.calls
    outputs = {call.label: call.collect(call.run()) for call in plan.calls}
    assert plan.check(outputs) == {}
