"""One pass of the benchmark's phase_grid workload, checked, so the harness cannot rot."""

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
