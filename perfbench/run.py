"""percgame benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload phase_grid --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates untraced and traced passes of the same calls and reports the
per-layer metrics derived from the span file.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (provenance, item-time details, failures and per-call digests),
also written under .perfbench/.

A run makes a fixed number of passes: --seconds divided by the workload's
nominal pass length (workloads.PASS_SECONDS), rounded, and at least one, so
a workload whose single pass is longer than --seconds runs exactly one pass.
Everything runs in this one process with
--jobs 1 and BLAS/OpenMP pinned to one thread; set-up time is measured in
fresh child processes (setup_probe.py).  Every reported time is scaled to the
reference host speed by probes timed around it (hostspeed.py); the raw times
are in the run record.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)      # must precede the numpy import

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def weighted_quantile_rank(samples, rank: int) -> float:
    """Value of the item at 1-based `rank` among (time, weight) samples."""
    acc = 0
    for value, weight in sorted(samples):
        acc += weight
        if acc >= rank:
            return value
    raise ValueError("rank beyond the sample count")


def item_stats(plan, passes) -> dict:
    """Median item time and the highest percentile with TAIL_BEYOND items beyond it.

    Each item's time is first reduced to its median over the passes, and over
    the rounds of a pass for calls labelled "<item>#<round>", so that one slow
    moment of the machine moves one sample rather than the rank statistic.
    """
    times, counts = {}, {}
    for res in passes:
        for key, t in item_times(plan, res).items():
            item = key.partition("#")[0]
            times.setdefault(item, []).append(t)
            counts[item] = counts.get(item, 0) + plan.weights[key]
    samples = [(statistics.median(ts), counts[item]) for item, ts in times.items()]
    total = sum(counts.values())
    p50 = weighted_quantile_rank(samples, (total + 1) // 2)
    if total > TAIL_BEYOND:
        tail_rank = total - TAIL_BEYOND
    else:                        # too few items for a tail: report the maximum
        tail_rank = total
    return {"p50": p50, "tail": weighted_quantile_rank(samples, tail_rank),
            "tail_percentile": 100.0 * tail_rank / total, "samples": total}


class PassResult:
    def __init__(self):
        self.times: dict[str, float] = {}        # at reference host speed
        self.raw_times: dict[str, float] = {}    # as measured
        self.slots: list[float] = []             # host-speed probe slots
        self.outputs: dict = {}
        self.digests: dict = {}
        self.failed: dict = {}
        self.output_bytes = 0

    @property
    def call_s(self) -> float:
        return sum(self.times.values())

    @property
    def raw_call_s(self) -> float:
        return sum(self.raw_times.values())


def run_pass(plan, tracer=None) -> PassResult:
    """Run every call of the plan once, timing each between host-speed probes,
    then check the outputs."""
    from workloads import CliOutput
    res = PassResult()
    res.slots.append(hostspeed.slot(0.0))
    for idx, call in enumerate(plan.calls):
        if tracer is not None:
            tracer.item_id = idx
        with tracer.span("bench.call") if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                raw, error = call.run(), None
            except Exception as exc:      # counted as a failure of the call's items
                raw, error = None, exc
            res.raw_times[call.label] = time.perf_counter() - t0
        res.slots.append(hostspeed.slot(res.raw_times[call.label]))
        if error is not None:
            for key in call.keys:
                res.failed.setdefault(key, f"{call.label} raised {type(error).__name__}: {error}")
            continue
        out = call.collect(raw)
        res.outputs[call.label] = out
        if isinstance(out, CliOutput):
            res.output_bytes += len(out.data)
    labels = list(res.raw_times)
    res.times = dict(zip(labels, hostspeed.scaled([res.raw_times[k] for k in labels],
                                                  res.slots)))
    for key, reason in plan.check(res.outputs).items():
        res.failed.setdefault(key, reason)
    res.digests = {c.label: c.digest(res.outputs[c.label])
                   for c in plan.calls if c.label in res.outputs}
    res.outputs = None           # large outputs must not pile up in peak RSS
    return res


def measure_setup(workload: str, seed: int) -> tuple:
    """Seconds from spawning a fresh interpreter until it could run the first
    item, at reference host speed and as measured."""
    out, slots = [], [hostspeed.slot(0.0)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        out.append(float(proc.stdout.split()[-1]) - t0)
        slots.append(hostspeed.slot(out[-1]))
    return hostspeed.scaled(out, slots), out


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "percgame").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "trace": trace, "git_sha": git_sha,
            "src_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": THREADS, "jobs": 1}


def item_times(plan, res: PassResult) -> dict:
    """Time per item key in one pass: a call's time is shared equally by the
    items it covers, and an item covered by several calls (a grid cell in
    four sweeps) adds up its shares."""
    per_key = {}
    for call in plan.calls:
        n_items = sum(plan.weights[k] for k in call.keys)
        for key in call.keys:
            per_key[key] = per_key.get(key, 0.0) + res.times[call.label] / n_items
    return per_key


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "percgame" / "__init__.py").is_file():
        return _fail(f"percgame sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import percgame
    if Path(percgame.__file__).resolve().parent != (SRC / "percgame").resolve():
        return _fail(f"imported percgame from {percgame.__file__}, not from {SRC}")
    from workloads import PASS_SECONDS, WORKLOADS, build_plan, is_wrong_answer
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = provenance(args.workload, args.seed, args.trace)
    hostspeed.probe()            # warm-up: first-call costs stay out of the scaling
    setup, raw_setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    plan = build_plan(args.workload, args.seed, workdir)
    record["inputs"] = plan.info

    passes, traced = [], []
    if args.trace == 0:
        n_passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        passes = [run_pass(plan) for _ in range(n_passes)]
    else:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        for _ in range(max(1, round(args.seconds / (2 * PASS_SECONDS[args.workload])))):
            passes.append(run_pass(plan))
            tracer.install()
            try:
                traced.append(run_pass(plan, tracer))
            finally:
                tracer.uninstall()
        span_file = workdir / "spans.npz"
        tracer.write(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))

    everything = passes + traced
    attempted = len(everything) * sum(plan.weights.values())
    failed = sum(plan.weights[k] for p in everything for k in p.failed)
    record.update({
        "passes": len(passes), "traced_passes": len(traced),
        "failed_frac": failed / attempted,
        "failures": {k: r for p in everything for k, r in p.failed.items()},
        "digests": passes[0].digests,
        "pass_call_s": [p.call_s for p in passes],
        "pass_raw_call_s": [p.raw_call_s for p in passes],
        "call_median_s": {label: statistics.median(p.times[label] for p in passes)
                          for label in passes[0].times},
        "probe_vs_reference": (statistics.median(q for p in everything for q in p.slots)
                               / hostspeed.REFERENCE_S),
    })
    if args.trace == 0:
        stats = item_stats(plan, passes)
        record.update({"item_tail_percentile": stats["tail_percentile"],
                       "item_samples": stats["samples"], "setup_probes_s": setup,
                       "setup_probes_raw_s": raw_setup,
                       "raw_items_per_s": attempted / sum(p.raw_call_s for p in passes),
                       "item_time_basis": "call time at reference host speed, shared "
                                          "equally by the items it covers"})
        values = {
            "items_per_s": attempted / sum(p.call_s for p in passes),
            "item_p50_s": stats["p50"],
            "item_tail_s": stats["tail"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from spans import PER_LAYER_UNITS
        values = layer_metrics(span_file, len(traced),
                               untraced_s=sum(p.call_s for p in passes),
                               traced_s=sum(p.call_s for p in traced),
                               output_bytes=sum(p.output_bytes for p in traced))
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}

    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"record": record}, sort_keys=True))
    correct = not any(is_wrong_answer(r) for p in everything for r in p.failed.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
