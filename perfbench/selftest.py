"""Self-test of the benchmark itself (not of percgame).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that a deliberately wrong result is counted as a failure, that the
metric names and units a run prints are the ones BENCHMARK.json declares,
that host-speed scaling follows a lasting slowdown but not one stray probe,
and that the benchmark refuses to run without the percgame sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from percgame.fixpoint import Verdict  # noqa: E402
from workloads import (build_plan, check_near_verdict, check_phase_cell,  # noqa: E402
                       is_wrong_answer)

SCRATCH = ROOT / ".perfbench" / "selftest"


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_flipped_verdict_counts_as_failure():
    # the cheapest near-critical items, with one verdict flipped after the solve
    plan = build_plan("near_critical", 0, SCRATCH)
    plan.calls = [c for c in plan.calls if c.label.endswith("1e-01#0")]
    victim = plan.calls[0]
    honest_run = victim.run

    def flipped():
        result, verdict = honest_run()
        return result, Verdict.POSITIVE if verdict is Verdict.ZERO else Verdict.ZERO

    victim.run = flipped
    res = run.run_pass(plan)
    assert set(res.failed) == {victim.label}, res.failed
    assert is_wrong_answer(res.failed[victim.label])

    # checkers on hand-made outputs
    assert check_near_verdict(True, Verdict.ZERO, Verdict.ZERO) is None
    inconclusive = check_near_verdict(True, Verdict.INCONCLUSIVE, Verdict.ZERO)
    assert inconclusive and not is_wrong_answer(inconclusive)
    assert check_near_verdict(False, None, Verdict.ZERO) == "did not converge"
    k2 = {"draw_zero": True}
    s3 = {f"d{i}{j}": 0.0 for i in (1, 2) for j in (1, 2)}
    assert check_phase_cell(k2, {"d11": 0.0}, s3, {"fixed_point_count": 1}) is None
    assert is_wrong_answer(check_phase_cell(k2, {"d11": 0.3}, s3, {"fixed_point_count": 1}))
    assert is_wrong_answer(check_phase_cell(k2, {"d11": 0.0}, s3, {"fixed_point_count": 2}))
    assert not is_wrong_answer(check_phase_cell(k2, {"d11": 1e-8}, s3, {"fixed_point_count": 1}))


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    # a host twice as slow as the reference halves the reported times
    assert hostspeed.scaled([2.0, 4.0], [2 * ref] * 3) == [1.0, 2.0]
    # one stray probe slot does not move the scaling; a lasting slowdown does
    calls = [1.0] * 10
    stray = hostspeed.scaled(calls, [ref] * 5 + [9 * ref] + [ref] * 5)
    assert stray == [1.0] * 10
    lasting = hostspeed.scaled(calls, [ref] * 5 + [2 * ref] * 6)
    assert lasting[0] == 1.0 and lasting[-1] == 0.5


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = _bench("--workload", "phase_grid", "--seed", "0", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}, (trace, printed)


def test_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "phase_grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
