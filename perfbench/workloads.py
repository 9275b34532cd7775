"""The benchmark's four workloads, built from a seed.

A workload is a `Plan`: the calls that make up one pass, the items each call
completes, and the checks run on what the calls return.  Passes repeat the
same calls, so every pass of one run does identical work.  Every call goes
through a public entry point of percgame: `cli.main(argv)`, `solve`,
`classify_draw`, `estimate_probs` or `horizon_iterates`; `kappa2_draw_zero`
supplies reference verdicts while the plan is built.

Workloads (why each exists is recorded in BENCHMARK.json):

* phase_grid    -- four `sweep` commands per family over a seed-drawn
                   p0 x p1 grid; item = one grid cell.
* near_critical -- kappa=2 `solve` + `classify_draw` at fixed signed
                   distances from the closed-form boundary; item = one solve.
* large_kappa   -- CLI `solve` and `duration` at kappa 100..200 written to
                   files; item = one command.
* oracle_mc     -- `estimate_probs` at kappa=3, H=6, checked against
                   `horizon_iterates`; item = one sampled tree.

Checks never raise: a wrong or missing result is returned as a failure
reason for the items it covers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from percgame import cli, criteria, fixpoint, oracle
from percgame.fixpoint import EdgeWeightLaw, GameSpec, Verdict
from percgame.offspring import Binomial, Dirac, Poisson

# classify_draw's thresholds, applied to D values read back from CLI output
ZERO_BELOW = 10 * fixpoint.DEFAULT_TOL
POSITIVE_ABOVE = fixpoint.DEFAULT_POSITIVE_THRESHOLD

# Every failed check counts its items as failed.  Failures that are wrong
# answers also make the run's `correct` false; the others (non-zero exit,
# exception, unparseable output, non-convergence, INCONCLUSIVE) mean the
# program gave no usable answer.
WRONG = "wrong answer: "


@dataclass
class Call:
    """One timed call.  `run` is timed; `collect` turns its return value into
    the output the checks read and is not timed."""

    label: str
    keys: tuple
    run: Callable[[], object]
    collect: Callable[[object], object] = lambda raw: raw
    digest: Callable[[object], str] = lambda out: ""


@dataclass
class CliOutput:
    rc: object
    data: bytes


@dataclass
class Plan:
    calls: list
    weights: dict                   # item key -> number of items it stands for
    check: Callable[[dict], dict]   # {label: output} -> {item key: failure reason}
    info: dict = field(default_factory=dict)


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def _cli_call(label: str, keys: tuple, argv: list, out_path: Path) -> Call:
    """A CLI command writing to out_path; exit code and file bytes are collected."""
    argv = list(argv) + ["--format", "json", "--output", str(out_path)]

    def run():
        try:
            return cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            return exc.code

    def collect(rc):
        try:
            data = out_path.read_bytes()
        except FileNotFoundError:
            data = b""
        else:
            out_path.unlink()           # a later failing call must not read stale output
        return CliOutput(rc, data)

    return Call(label, keys, run, collect, lambda out: _hash(out.data))


def _parse(out: CliOutput, label: str):
    """Parsed JSON of a CLI output, or a failure reason."""
    if out.rc != 0:
        return None, f"{label}: exit code {out.rc}"
    try:
        return json.loads(out.data), None
    except ValueError:
        return None, f"{label}: output does not parse"


def wrong(reason: str) -> str:
    """Mark a failure where the program returned a decided answer that
    contradicts the reference (as opposed to no usable answer at all)."""
    return WRONG + reason


def is_wrong_answer(reason: str) -> bool:
    return reason.startswith(WRONG)


def _verdict(d: float) -> Verdict:
    if d < ZERO_BELOW:
        return Verdict.ZERO
    if d > POSITIVE_ABOVE:
        return Verdict.POSITIVE
    return Verdict.INCONCLUSIVE


def boundary_p0(dist, p1: float) -> float:
    """p0 where kappa2_draw_zero flips from True to False at this p1 (bisection)."""
    lo, hi = 0.0, 1.0 - p1
    if criteria.kappa2_draw_zero(dist, EdgeWeightLaw.from_p0_p1(hi, p1)):
        raise ValueError(f"no kappa=2 boundary for {dist} at p1={p1}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if criteria.kappa2_draw_zero(dist, EdgeWeightLaw.from_p0_p1(mid, p1)):
            lo = mid
        else:
            hi = mid
    return lo


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# phase_grid
# ---------------------------------------------------------------------------

# Families with a kappa=2 closed form and a draw-positive region at p1 < 0.04.
PHASE_FAMILIES = (
    ("poisson", ("--family", "poisson", "--lam", "5"), Poisson(5.0)),
    ("binomial", ("--family", "binomial", "--n", "10", "--pi", "0.6"), Binomial(10, 0.6)),
)
PHASE_SWEEPS = (
    ("check-kappa2", ("--what", "check-kappa2")),
    ("solve2", ("--what", "solve", "--kappa", "2")),
    ("solve3", ("--what", "solve", "--kappa", "3")),
    ("count3", ("--what", "check-kappa3", "--count-fixed-points")),
)
# Grid: three p1 values and four p0 values, offset from the band of kappa=2
# boundary points p0c(p1): two below the band, two above.  The margin of at
# least 0.15 keeps cells away from the kappa=2 and kappa=3 critical lines,
# where iteration counts blow up, and in regions where the cost per cell
# changes slowly with p0.  The seed moves every value by at most
# PHASE_JITTER, so the pass length hardly depends on the seed.
PHASE_P1 = (0.01, 0.02, 0.03)
PHASE_BELOW = (0.3, 0.2)
PHASE_ABOVE = (0.15, 0.25)
PHASE_JITTER = 0.001


def _phase_grid(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    calls, weights, grids = [], {}, {}
    for family, flags, dist in PHASE_FAMILIES:
        p1s = [round(float(p1 + rng.uniform(-PHASE_JITTER, PHASE_JITTER)), 4) for p1 in PHASE_P1]
        band = [boundary_p0(dist, p1) for p1 in p1s]
        below = [min(band) - off - rng.uniform(0.0, PHASE_JITTER) for off in PHASE_BELOW]
        above = [max(band) + off + rng.uniform(0.0, PHASE_JITTER) for off in PHASE_ABOVE]
        p0s = [round(float(v), 4) for v in below + above]
        keys = tuple(f"{family}:{p0}:{p1}" for p0 in p0s for p1 in p1s)   # sweep row order
        weights.update({k: 1 for k in keys})
        grids[family] = {"p0": p0s, "p1": p1s, "keys": keys}
        grid = ["--grid-p0", ",".join(map(str, p0s)), "--grid-p1", ",".join(map(str, p1s)),
                "--jobs", "1"]
        for what, what_flags in PHASE_SWEEPS:
            label = f"{family}/{what}"
            calls.append(_cli_call(label, keys, ["sweep", *flags, *what_flags, *grid],
                                   workdir / f"{family}-{what}.json"))

    def check(outputs: dict) -> dict:
        failed = {}
        for family, grid in grids.items():
            keys = grid["keys"]
            rows = {}
            for what, _ in PHASE_SWEEPS:
                label = f"{family}/{what}"
                if label not in outputs:
                    continue                    # raised; already counted
                doc, reason = _parse(outputs[label], label)
                if doc is not None:
                    got = doc.get("rows") if isinstance(doc, dict) else None
                    cells = [(p0, p1) for p0 in grid["p0"] for p1 in grid["p1"]]
                    if (not isinstance(got, list) or len(got) != len(keys)
                            or any(not isinstance(r, dict) or r.get("p0") != p0 or r.get("p1") != p1
                                   for r, (p0, p1) in zip(got, cells))):
                        reason = wrong(f"{label}: rows do not match the grid")
                    else:
                        rows[what] = got
                if reason:
                    for k in keys:
                        failed.setdefault(k, reason)
            if len(rows) < len(PHASE_SWEEPS):
                continue
            for idx, key in enumerate(keys):
                try:
                    reason = check_phase_cell(rows["check-kappa2"][idx], rows["solve2"][idx],
                                              rows["solve3"][idx], rows["count3"][idx])
                except (KeyError, TypeError) as exc:
                    reason = wrong(f"malformed sweep row ({exc!r})")
                if reason:
                    failed.setdefault(key, reason)
        return failed

    return Plan(calls, weights, check,
                {f: {"p0": g["p0"], "p1": g["p1"]} for f, g in grids.items()})


def check_phase_cell(k2: dict, s2: dict, s3: dict, c3: dict):
    """Failure reason for one grid cell, or None.

    The kappa=2 solve verdict must be decided and agree with check-kappa2;
    the kappa=3 fixed-point count is >= 2 exactly when the kappa=3 solve
    gives a nonzero D.
    """
    v2 = _verdict(s2["d11"])
    if v2 is Verdict.INCONCLUSIVE:
        return f"kappa=2 solve INCONCLUSIVE (d11={s2['d11']})"
    if (v2 is Verdict.ZERO) != bool(k2["draw_zero"]):
        return wrong(f"kappa=2 solve {v2.value} but check-kappa2 draw_zero={k2['draw_zero']}")
    d3_zero = all(s3[f"d{i}{j}"] == 0.0 for i in (1, 2) for j in (1, 2))
    count = c3["fixed_point_count"]
    if (count >= 2) == d3_zero:
        return wrong(f"kappa=3 count {count} but solve D {'= 0' if d3_zero else '!= 0'}")
    return None


# ---------------------------------------------------------------------------
# near_critical
# ---------------------------------------------------------------------------

# (family, distribution, p1, signed distances p0 - p0c).  The first point is
# the one where the ROADMAP measured the -1e-4 solve returning INCONCLUSIVE.
# Solves at |d| <= 3e-3 (0.2 s and up) run once per pass; the cheaper ones
# run in each of 8 rounds, so that the median item time rests on 8 timings.
NEAR_ROUNDS = 8
NEAR_HEAVY = 3e-3          # |p0 - p0c| at or below this: one solve per pass
NEAR_POINTS = (
    ("poisson", Poisson(5.0), 0.05,
     (-1e-1, -3e-2, -1e-2, -3e-3, -1e-3, -1e-4, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)),
    ("binomial", Binomial(10, 0.6), 0.02,
     (-1e-1, -3e-2, -1e-2, -3e-3, -1e-3, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)),
)


def _near_critical(seed: int, workdir: Path) -> Plan:
    cheap, heavy = [], []
    for family, dist, p1, distances in NEAR_POINTS:
        p0c = boundary_p0(dist, p1)
        for d in distances:
            law = EdgeWeightLaw.from_p0_p1(p0c + d, p1)
            expected = Verdict.ZERO if criteria.kappa2_draw_zero(dist, law) else Verdict.POSITIVE
            item = (f"{family}:{d:+.0e}", GameSpec(2, dist, law), expected)
            (heavy if abs(d) <= NEAR_HEAVY else cheap).append(item)
    # The distances are the same for every seed; the seed only orders the
    # calls.  Cheap solves run once per round and heavy ones once per pass,
    # spread over the rounds, so the short item times are sampled at
    # several moments of the pass instead of once.
    rng = np.random.default_rng(seed)
    cheap = [cheap[i] for i in rng.permutation(len(cheap))]
    heavy = [heavy[i] for i in rng.permutation(len(heavy))]
    schedule = []
    for r in range(NEAR_ROUNDS):
        schedule += [(f"{key}#{r}", spec, exp) for key, spec, exp in cheap]
        schedule += [(key, spec, exp) for key, spec, exp in heavy[r::NEAR_ROUNDS]]
    expected_of = {label: expected for label, _, expected in schedule}

    def call(spec):
        def run():
            result = fixpoint.solve(spec)
            verdict = fixpoint.classify_draw(result)[0, 0] if result.converged else None
            return result, verdict
        return run

    calls = [Call(label, (label,), call(spec),
                  digest=lambda out: _hash(out[0].L, out[0].W, out[0].D, out[0].iterations))
             for label, spec, _ in schedule]

    def check(outputs: dict) -> dict:
        failed = {}
        for label, (result, verdict) in outputs.items():
            reason = check_near_verdict(result.converged, verdict, expected_of[label])
            if reason:
                failed[label] = f"{reason} after {result.iterations} iterations"
        return failed

    return Plan(calls, {label: 1 for label, _, _ in schedule}, check,
                {"points": [[f, str(d), p1, list(ds)] for f, d, p1, ds in NEAR_POINTS],
                 "rounds": NEAR_ROUNDS, "heavy_at_or_below": NEAR_HEAVY})


def check_near_verdict(converged: bool, verdict, expected: Verdict):
    """A near-critical solve passes only with the closed-form verdict."""
    if not converged:
        return "did not converge"
    if verdict is not expected:
        text = f"verdict {verdict.value} where the closed form says {expected.value}"
        return text if verdict is Verdict.INCONCLUSIVE else wrong(text)
    return None


# ---------------------------------------------------------------------------
# large_kappa
# ---------------------------------------------------------------------------

# (family flags, kappa anchor, p0 centre, p1 centre): a draws-zero point
# (many iterations on a 149 x 149 matrix), a draws-positive point near the
# top of the range (few iterations; output and the duration loops dominate)
# and p0 ~ 0.8, p1 ~ 0.1 at kappa ~ 100, where some draw entries fall below
# the ZERO threshold while others are POSITIVE.  Three points keep a pass
# short enough to repeat four times per run.  The seed moves p0 and p1 by up
# to LARGE_JITTER; kappa stays fixed, since the cost per step grows as
# kappa^2.  The iteration count at kappa ~ 100 rises by 60 % when p1 rises by
# 0.004, so the jitter is kept at 0.001, where it varies by about 10 %.
LARGE_JITTER = 0.001
LARGE_POINTS = (
    (("--family", "poisson", "--lam", "5"), 150, 0.40, 0.30),
    (("--family", "dirac", "--m", "2"), 195, 0.90, 0.05),
    (("--family", "poisson", "--lam", "5"), 100, 0.80, 0.10),
)


def _large_kappa(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    calls, points = [], []
    for idx, (flags, kappa, p0, p1) in enumerate(LARGE_POINTS):
        p0 = round(float(p0 + rng.uniform(-LARGE_JITTER, LARGE_JITTER)), 4)
        p1 = round(float(p1 + rng.uniform(-LARGE_JITTER, LARGE_JITTER)), 4)
        args = [*flags, "--kappa", str(kappa), "--p0", _fmt(p0), "--p1", _fmt(p1)]
        name = f"{flags[1]}-k{kappa}"
        points.append({"point": name, "kappa": kappa, "p0": p0, "p1": p1})
        for cmd in ("solve", "duration"):
            key = f"{name}/{cmd}"
            calls.append(_cli_call(key, (key,), [cmd, *args], workdir / f"{idx}-{cmd}.json"))
    kappa_of = {f"{p['point']}/{cmd}": p["kappa"] for p in points for cmd in ("solve", "duration")}

    def check(outputs: dict) -> dict:
        failed, docs = {}, {}
        for key, out in outputs.items():
            doc, reason = _parse(out, key)
            if reason is None:
                reason = check_large_doc(key.rsplit("/", 1)[1], doc, kappa_of[key])
            if reason:
                failed[key] = reason
            else:
                docs[key] = doc
        for p in points:
            s, d = docs.get(f"{p['point']}/solve"), docs.get(f"{p['point']}/duration")
            if s is not None and d is not None:
                all_zero = all(v == "ZERO" for row in s["verdicts"] for v in row)
                if all_zero != d["report"]["draws_zero"]:
                    failed[f"{p['point']}/duration"] = wrong(
                        f"draws_zero={d['report']['draws_zero']} but solve verdicts all ZERO={all_zero}")
        return failed

    return Plan(calls, {c.label: 1 for c in calls}, check, {"points": points})


def check_large_doc(cmd: str, doc: dict, kappa: int):
    """Shape and probability checks on a large-kappa solve or duration output."""
    n = kappa - 1
    try:
        if cmd == "solve":
            res = doc["result"]
            L, W, D = (np.asarray(res[k], dtype=float) for k in ("L", "W", "D"))
            if L.shape != (n, n) or W.shape != (n, n) or D.shape != (n, n):
                return wrong(f"solve: matrices are not {n}x{n}")
            if not res["converged"] or doc["verdicts"] is None:
                return "solve: not converged"
            if np.max(np.abs(L + W + D - 1.0)) > 1e-7:
                return wrong("solve: L + W + D differs from 1")
        else:
            rep = doc["report"]
            alpha, beta = np.asarray(rep["alpha"]), np.asarray(rep["beta"])
            sums = np.asarray(list(rep["row_sums"].values()), dtype=float)
            if alpha.shape != (n, n) or beta.shape != (n, n) or sums.size != n * n:
                return wrong(f"duration: report is not {n}x{n}")
            if not np.all(np.isfinite(sums)) or np.any(sums < 0):
                return wrong("duration: row sums not finite and non-negative")
    except (KeyError, TypeError, ValueError) as exc:
        return wrong(f"{cmd}: malformed output ({exc!r})")
    return None


# ---------------------------------------------------------------------------
# oracle_mc
# ---------------------------------------------------------------------------

ORACLE_HORIZON = 6
ORACLE_SAMPLES = 50_000
ORACLE_DISTS = (("dirac", Dirac(2)), ("poisson", Poisson(2.0)))
# The 3-standard-error rule miscounts a cell whose probability is far below
# 1/samples: the estimate is 0 with standard error 0.  For Dirac(2) the loss
# cell at capitals (2, 1) is such a cell once p_minus1 = 1 - p0 - p1 drops
# below about 0.2 (1e-6 at p_minus1 = 0.06), so the drawn laws keep
# p_minus1 >= 0.2, where every cell has an expected count of at least 8.
# The seed moves p0 and p1 within 0.01, so the size of the sampled trees, and
# with it the time per tree, hardly depends on the seed.
ORACLE_P0 = (0.57, 0.58)
ORACLE_P1 = (0.12, 0.13)


def _oracle_mc(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    calls, info = [], []
    for name, dist in ORACLE_DISTS:
        p0 = round(float(rng.uniform(*ORACLE_P0)), 4)
        p1 = round(float(rng.uniform(*ORACLE_P1)), 4)
        spec = GameSpec(3, dist, EdgeWeightLaw.from_p0_p1(p0, p1))
        master = int(rng.integers(2**31))
        info.append({"spec": name, "p0": p0, "p1": p1, "oracle_seed": master})

        def run(spec=spec, master=master):
            est = oracle.estimate_probs(spec, horizon=ORACLE_HORIZON, samples=ORACLE_SAMPLES,
                                        seed=master, jobs=1)
            ells, ws = fixpoint.horizon_iterates(spec, ORACLE_HORIZON)
            return est, ells, ws

        calls.append(Call(name, (name,), run,
                          digest=lambda out: _hash(out[0].loss_hat, out[0].win_hat,
                                                   out[0].aborted_samples)))

    def check(outputs: dict) -> dict:
        failed = {}
        for key, (est, ells, ws) in outputs.items():
            reason = check_oracle(est, ells, ws)
            if reason:
                failed[key] = reason
        return failed

    return Plan(calls, {name: ORACLE_SAMPLES for name, _ in ORACLE_DISTS},
                check, {"specs": info, "horizon": ORACLE_HORIZON, "samples": ORACLE_SAMPLES})


# Acceptance criterion 8 asks for 95 % of the cells within 3 standard
# errors.  Here the rule is applied to one spec at a time, whose 48 cells
# are nested events: the cell of one capital pair at horizons 2..6 moves
# together, so a single 3.4-sigma fluctuation (seen with correct code)
# costs five cells and fails the spec.  At 4 standard errors such a false
# failure is about 100 times rarer.
ORACLE_SIGMAS = 4
# A cell whose probability is exactly 0 (the first mover cannot win by
# horizon 1, say) is estimated as 0 with standard error 0, while the analytic
# iterate may carry roundoff such as 2.2e-16.  Differences up to the solver's
# tolerance are therefore agreement; any real disagreement is many orders of
# magnitude larger than 1/samples.
ORACLE_ABS_TOL = fixpoint.DEFAULT_TOL


def check_oracle(est, ells, ws):
    """At least 95 % of the horizon cells within ORACLE_SIGMAS standard
    errors (plus roundoff, ORACLE_ABS_TOL) of the analytic iterates."""
    ok = total = 0
    for h in range(1, est.horizon + 1):
        for hat, se, ana in ((est.loss_at(h), est.loss_stderr[h - 1], ells[h]),
                             (est.win_at(h), est.win_stderr[h - 1], ws[h])):
            total += hat.size
            ok += int(np.sum(np.abs(hat - ana) <= ORACLE_SIGMAS * se + ORACLE_ABS_TOL))
    if ok < 0.95 * total:
        return wrong(f"only {ok}/{total} cells within {ORACLE_SIGMAS} standard errors")
    return None


# Length of one pass on the reference machine of the benchmark (2 vCPUs,
# Intel Xeon, Python 3.11, numpy 2.4).  A run makes round(--seconds / this)
# passes, at least one, so every run of a workload does the same work and
# its item statistics always use the same ranks.
PASS_SECONDS = {
    "phase_grid": 4.5,
    "near_critical": 37.0,
    "large_kappa": 5.0,
    "oracle_mc": 8.5,
}

_BUILDERS = {
    "phase_grid": _phase_grid,
    "near_critical": _near_critical,
    "large_kappa": _large_kappa,
    "oracle_mc": _oracle_mc,
}
WORKLOADS = tuple(_BUILDERS)


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """The workload's calls and checks for this seed; writes no files."""
    return _BUILDERS[workload](seed, workdir)
