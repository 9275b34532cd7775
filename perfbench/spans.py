"""Span recorder for the traced benchmark run.

The tracer wraps percgame's public functions and methods from outside the
package, records one span per call (name, start, end, parent span, item id
and one integer count), keeps the spans in flat arrays in memory and writes
them to a file when the run ends.  `layer_metrics` derives the per-layer
numbers from that file alone.

Nothing here is imported by percgame; the wrappers exist only while a
`Tracer` is installed, so the untimed-by-tracing passes run the plain code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import time
from array import array
from pathlib import Path

import numpy as np

# Public call sites wrapped by the tracer: (module, attribute, span name).
# cli calls `fixpoint.solve`, `criteria.kappa2_draw_zero`, ... through the
# module objects, and `criteria` imported `classify_draw` by name, so both
# bindings of classify_draw are wrapped.
_FUNCTIONS = (
    ("fixpoint", "solve", "fixpoint.solve"),
    ("fixpoint", "find_fixed_points", "fixpoint.find_fixed_points"),
    ("fixpoint", "classify_draw", "fixpoint.classify_draw"),
    ("criteria", "classify_draw", "fixpoint.classify_draw"),
    ("fixpoint", "horizon_iterates", "fixpoint.horizon_iterates"),
    ("criteria", "kappa2_draw_zero", "criteria.kappa2_draw_zero"),
    ("criteria", "kappa3_bounds", "criteria.kappa3_bounds"),
    ("criteria", "kappa3_contraction_holds", "criteria.kappa3_contraction_holds"),
    ("criteria", "duration_criterion", "criteria.duration_criterion"),
    ("oracle", "estimate_probs", "oracle.estimate_probs"),
    ("oracle", "sample_forest", "oracle.sample_forest"),
    ("cli", "main", "cli.main"),
)

_DISTRIBUTIONS = ("Dirac", "UniformRange", "Binomial", "Poisson", "NegBinomial",
                  "TwoPoint", "Explicit")


def _forest_counts(sizes, aborted: int, n_samples: int, horizon: int, kappa: int) -> dict:
    """Exact oracle work counts, computed from the returned Forest.sizes.

    The induction kernel updates generation g at steps 1..H-g, so a node of
    generation g costs H-g node-steps.  table_bytes is computed, not
    measured: the two boolean verdict tables, n x (kappa+1) per node.
    """
    n = kappa - 1
    return {
        "nodes": int(sum(sizes)),
        "node_steps": int(sum(s * (horizon - g) for g, s in enumerate(sizes[:horizon]))),
        "table_bytes": int(2 * sum(sizes) * n * (kappa + 1)),
        "aborted": aborted,
        "samples": n_samples,
    }


class _DroppedSeeds(logging.Handler):
    """Counts seeds find_fixed_points reports as dropped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = 0

    def emit(self, record):
        if "dropped" in record.msg and record.args:
            self.dropped += int(record.args[0])


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.count = array("q")
        self.counters: dict[str, int] = {}
        self.item_id = -1
        self._stack: list[int] = []
        self._restore: list = []
        self._handler = _DroppedSeeds()
        self._forests: list = []
        self._default_seeds: dict[int, int] = {}
        self._logger = None

    # -- span store ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.count[idx] = count(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap the public entry points; `uninstall` puts the originals back."""
        from percgame import cli, criteria, fixpoint, offspring, oracle
        modules = {"cli": cli, "criteria": criteria, "fixpoint": fixpoint, "oracle": oracle}
        counts = {
            "fixpoint.solve": self._count_solve,
            "fixpoint.find_fixed_points": self._count_ffp,
            "oracle.sample_forest": self._count_forest,
            "oracle.estimate_probs": self._count_estimate,
        }
        for module, attr, name in _FUNCTIONS:
            self._wrap(modules[module], attr, name, counts.get(name))
        for cls_name in _DISTRIBUTIONS:
            cls = getattr(offspring, cls_name)
            self._wrap(cls, "pgf", "offspring.pgf", lambda a, k, out: np.size(a[1]))
            self._wrap(cls, "sample", "offspring.sample")
        self._logger = logging.getLogger(fixpoint.__name__)
        self._logger.addHandler(self._handler)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        if self._logger is not None:
            self._logger.removeHandler(self._handler)
            self._logger = None
        self.add("fixpoint.dropped_seeds", self._handler.dropped)
        self._handler.dropped = 0

    def _count_solve(self, args, kwargs, result) -> int:
        if not result.converged:
            self.add("fixpoint.nonconverged", 1)
        return result.iterations

    def _count_ffp(self, args, kwargs, points) -> int:
        seeds = kwargs.get("seeds", args[1] if len(args) > 1 else None)
        if seeds is None:
            kappa = args[0].kappa
            if kappa not in self._default_seeds:
                from percgame import fixpoint
                self._default_seeds[kappa] = len(fixpoint.default_seed_matrices(kappa))
            self.add("fixpoint.ffp_seeds", self._default_seeds[kappa])
        else:
            self.add("fixpoint.ffp_seeds", len(seeds))
        return len(points)

    def _count_forest(self, args, kwargs, forest) -> int:
        self._forests.append((list(forest.sizes), int(np.count_nonzero(forest.aborted)),
                              int(forest.n_samples)))
        return int(sum(forest.sizes))

    def _count_estimate(self, args, kwargs, est) -> int:
        """Oracle work counts for the forests this estimate sampled."""
        from percgame import oracle
        kappa, horizon = est.spec.kappa, est.horizon
        chunk_size = kwargs.get("chunk_size", oracle.DEFAULT_CHUNK_SIZE)
        chunks = -(-est.samples // chunk_size)
        self.add("oracle.resample_rounds", len(self._forests) - chunks)
        for sizes, aborted, n_samples in self._forests:
            counts = _forest_counts(sizes, aborted, n_samples, horizon, kappa)
            for key in ("node_steps", "aborted", "samples"):
                self.add(f"oracle.{key}", counts[key])
            self.counters["oracle.table_bytes"] = max(
                self.counters.get("oracle.table_bytes", 0), counts["table_bytes"])
        self._forests.clear()
        return est.samples

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write all spans and counters; the arrays are read back by layer_metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh,
                     name=np.frombuffer(self.name, dtype=np.int32),
                     start=np.frombuffer(self.start, dtype=np.int64),
                     end=np.frombuffer(self.end, dtype=np.int64),
                     parent=np.frombuffer(self.parent, dtype=np.int32),
                     item=np.frombuffer(self.item, dtype=np.int32),
                     count=np.frombuffer(self.count, dtype=np.int64),
                     names=np.array(json.dumps(self.names)),
                     counters=np.array(json.dumps(self.counters)))


PER_LAYER_UNITS = {
    "offspring.pgf_calls": "count",
    "offspring.pgf_elems": "count",
    "offspring.pgf_s": "s",
    "offspring.sample_calls": "count",
    "offspring.sample_s": "s",
    "fixpoint.solve_calls": "count",
    "fixpoint.solve_iterations": "count",
    "fixpoint.g_steps": "count",
    "fixpoint.self_s": "s",
    "fixpoint.us_per_g_step": "us",
    "fixpoint.ffp_calls": "count",
    "fixpoint.ffp_s": "s",
    "fixpoint.ffp_points_per_seed": "ratio",
    "fixpoint.dropped_seeds": "count",
    "fixpoint.nonconverged": "count",
    "criteria.calls": "count",
    "criteria.kappa2_s": "s",
    "criteria.kappa3_bounds_s": "s",
    "criteria.duration_s": "s",
    "oracle.sample_forest_calls": "count",
    "oracle.sample_forest_s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.induction_s": "s",
    "oracle.node_steps": "count",
    "oracle.node_steps_per_s": "1/s",
    "oracle.table_bytes": "bytes_computed",
    "oracle.kept_frac": "ratio",
    "oracle.aborted_samples": "count",
    "oracle.resample_rounds": "count",
    "cli.commands": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(path: Path, passes: int, untraced_s: float, traced_s: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics per traced pass, from a span file written by Tracer.write.

    A span's self time is its duration minus the durations of its direct
    children (calls are single-threaded, so children nest inside parents).
    Times are in seconds per pass and counts per pass; the passes repeat the
    same inputs, so counts are exact integers.
    """
    data = np.load(path)
    names = json.loads(str(data["names"]))
    counters = json.loads(str(data["counters"]))
    name, parent, count = data["name"], data["parent"], data["count"]
    dur = (data["end"] - data["start"]) / 1e9
    n_spans = dur.size
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_spans)
    self_s = dur - child_sum

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def mask(*wanted):
        return np.isin(name, ids(*wanted))

    def layer_mask(prefix):
        return np.isin(name, [i for i, n in enumerate(names) if n.startswith(prefix)])

    # a pgf span is a g-step when a fixpoint span encloses it
    fix = layer_mask("fixpoint.")
    in_fixpoint = np.zeros(n_spans, dtype=bool)
    if n_spans:
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            hit = np.zeros(n_spans, dtype=bool)
            hit[live] = fix[anc[live]]
            in_fixpoint |= hit
            anc[live] = parent[anc[live]]
            anc[in_fixpoint] = -1
    pgf = mask("offspring.pgf")
    g_steps = pgf & in_fixpoint
    estimate = mask("oracle.estimate_probs")
    forest = mask("oracle.sample_forest")
    solve = mask("fixpoint.solve")
    ffp = mask("fixpoint.find_fixed_points")
    main = mask("cli.main")
    crit = layer_mask("criteria.")

    def per_pass(x):
        return float(x) / passes

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    fixpoint_time = self_s[fix].sum() + self_s[g_steps].sum()
    sample_forest_s = dur[forest].sum()
    induction_s = self_s[estimate].sum()
    nodes = count[forest].sum()
    seeds = counters.get("fixpoint.ffp_seeds", 0)
    samples = counters.get("oracle.samples", 0)
    aborted = counters.get("oracle.aborted", 0)
    return {
        "offspring.pgf_calls": per_pass(pgf.sum()),
        "offspring.pgf_elems": per_pass(count[pgf].sum()),
        "offspring.pgf_s": per_pass(self_s[pgf].sum()),
        "offspring.sample_calls": per_pass(mask("offspring.sample").sum()),
        "offspring.sample_s": per_pass(self_s[mask("offspring.sample")].sum()),
        "fixpoint.solve_calls": per_pass(solve.sum()),
        "fixpoint.solve_iterations": per_pass(count[solve].sum()),
        "fixpoint.g_steps": per_pass(g_steps.sum()),
        "fixpoint.self_s": per_pass(self_s[fix].sum()),
        "fixpoint.us_per_g_step": 1e6 * ratio(fixpoint_time, g_steps.sum()),
        "fixpoint.ffp_calls": per_pass(ffp.sum()),
        "fixpoint.ffp_s": per_pass(dur[ffp].sum()),
        "fixpoint.ffp_points_per_seed": ratio(count[ffp].sum(), seeds),
        "fixpoint.dropped_seeds": per_pass(counters.get("fixpoint.dropped_seeds", 0)),
        "fixpoint.nonconverged": per_pass(counters.get("fixpoint.nonconverged", 0)),
        "criteria.calls": per_pass(crit.sum()),
        "criteria.kappa2_s": per_pass(self_s[mask("criteria.kappa2_draw_zero")].sum()),
        "criteria.kappa3_bounds_s": per_pass(self_s[mask("criteria.kappa3_bounds")].sum()),
        "criteria.duration_s": per_pass(self_s[mask("criteria.duration_criterion")].sum()),
        "oracle.sample_forest_calls": per_pass(forest.sum()),
        "oracle.sample_forest_s": per_pass(sample_forest_s),
        "oracle.nodes": per_pass(nodes),
        "oracle.nodes_per_s": ratio(nodes, sample_forest_s),
        "oracle.induction_s": per_pass(induction_s),
        "oracle.node_steps": per_pass(counters.get("oracle.node_steps", 0)),
        "oracle.node_steps_per_s": ratio(counters.get("oracle.node_steps", 0), induction_s),
        "oracle.table_bytes": float(counters.get("oracle.table_bytes", 0)),
        "oracle.kept_frac": ratio(samples - aborted, samples),
        "oracle.aborted_samples": per_pass(aborted),
        "oracle.resample_rounds": per_pass(counters.get("oracle.resample_rounds", 0)),
        "cli.commands": per_pass(main.sum()),
        "cli.main_s": per_pass(dur[main].sum()),
        "cli.self_s": per_pass(self_s[main].sum()),
        "cli.output_bytes": per_pass(output_bytes),
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    }

