"""The single-path generating functions, forest sampler and batched sweep against the
code they replaced, kept here verbatim as references: results must be equal, not close."""

import concurrent.futures
import functools
import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest

from percgame import (Binomial, Dirac, EdgeWeightLaw, Explicit, NegBinomial, Poisson, TwoPoint,
                      UniformRange, cli, criteria, fixpoint, oracle, sample_forest)
from percgame.offspring import _PGF_DOMAIN_SLACK, DistributionError, _check_unit_interval
from percgame.oracle import DEFAULT_NODE_CAP

from test_cli import InlinePool
from test_offspring import ALL_DISTS


# Each reference subclass carries the family's former pgf and pgf_derivative bodies.

class RefDirac(Dirac):
    def pgf(self, x):
        x = _check_unit_interval(x)
        if not isinstance(x, np.ndarray):
            return x ** self.m
        x **= self.m
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.m * x ** (self.m - 1)


class RefUniformRange(UniformRange):
    def pgf(self, x):
        x = _check_unit_interval(x)
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for _ in range(self.m):  # Horner: x(1 + x(1 + ...)) = x + x^2 + ... + x^m
            acc += 1.0
            acc *= x
        acc /= self.m
        return acc if isinstance(x, np.ndarray) else float(acc)

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for k in range(self.m, 0, -1):  # Horner on sum_k k x^(k-1)
            acc = acc * x + k
        acc = acc / self.m
        return acc if isinstance(x, np.ndarray) else float(acc)


class RefBinomial(Binomial):
    def pgf(self, x):
        x = _check_unit_interval(x)
        if not isinstance(x, np.ndarray):
            return (1.0 - self.pi + self.pi * x) ** self.n
        x *= self.pi
        x += 1.0 - self.pi
        x **= self.n
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.n * self.pi * (1.0 - self.pi + self.pi * x) ** (self.n - 1)


class RefPoisson(Poisson):
    def pgf(self, x):
        x = _check_unit_interval(x)
        if not isinstance(x, np.ndarray):
            return np.exp(self.lam * (x - 1.0))
        x -= 1.0
        x *= self.lam
        return np.exp(x, out=x)

    def pgf_derivative(self, x):
        return self.lam * self.pgf(x)


class RefNegBinomial(NegBinomial):
    def pgf(self, x):
        x = _check_unit_interval(x)
        if not isinstance(x, np.ndarray):
            return self.pi**self.r * (1.0 - (1.0 - self.pi) * x) ** (-self.r)
        x *= 1.0 - self.pi
        np.subtract(1.0, x, out=x)
        x **= -self.r
        x *= self.pi**self.r
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return (self.r * (1.0 - self.pi) * self.pi**self.r
                * (1.0 - (1.0 - self.pi) * x) ** (-self.r - 1))


class RefTwoPoint(TwoPoint):
    def pgf(self, x):
        x = _check_unit_interval(x)
        if not isinstance(x, np.ndarray):
            return (1.0 - self.pi) + self.pi * x**self.d
        x **= self.d
        x *= self.pi
        x += 1.0 - self.pi
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.pi * self.d * x ** (self.d - 1)


class RefExplicit(Explicit):
    def pgf(self, x):
        x = _check_unit_interval(x)
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for v in reversed(self.pmf_values):
            acc *= x
            acc += v
        return acc if isinstance(x, np.ndarray) else float(acc)

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for m in range(len(self.pmf_values) - 1, 0, -1):
            acc = acc * x + m * self.pmf_values[m]
        return acc if isinstance(x, np.ndarray) else float(acc)


REFERENCES = {cls.__base__: cls for cls in (RefDirac, RefUniformRange, RefBinomial, RefPoisson,
                                            RefNegBinomial, RefTwoPoint, RefExplicit)}

DISTS = ALL_DISTS + [UniformRange(17), Explicit([0.1, 0.2, 0.3, 0.15, 0.25])]
GRID = [float(v) for v in np.linspace(0.0, 1.0, 41)] + [-1e-10, 1.0 + 1e-10, 0.123456789]
ARRAY = np.concatenate([np.random.default_rng(5).random(2000), GRID]).reshape(-1, 4)[:, ::2]


@pytest.mark.parametrize("dist", DISTS, ids=repr)
@pytest.mark.parametrize("method", ["pgf", "pgf_derivative"])
def test_pgf_equals_two_path_reference(dist, method):
    ref = REFERENCES[type(dist)](*dist.params().values())
    new, old = getattr(dist, method), getattr(ref, method)
    for x in GRID:
        assert type(new(x)) is type(old(x))
        assert new(x) == old(x)
    assert type(new(ARRAY)) is type(old(ARRAY)) is np.ndarray
    np.testing.assert_array_equal(new(ARRAY), old(ARRAY), strict=True)
    # A 0-d array is clipped to a numpy scalar; the Horner families used to convert
    # it to a Python float, and now return the numpy scalar as every other family does.
    zero_d = np.array(0.37)
    assert type(new(zero_d)) is np.float64
    assert new(zero_d) == old(zero_d)


@pytest.mark.parametrize("dist", DISTS, ids=repr)
def test_public_pgf_is_the_check_then_the_inplace_body(dist):
    # the operator loops call _pgf_inplace on a mix they clip themselves; the public
    # pgf keeps the range check and gives what the body gives on a clipped copy
    for x in (ARRAY, ARRAY.T, np.array([[-1e-9, 1.0 + 1e-9, 0.5]]), np.empty((0, 2))):
        body = dist._pgf_inplace(np.clip(x, 0.0, 1.0))
        np.testing.assert_array_equal(dist.pgf(x), body, strict=True)
    for x in GRID:
        assert dist.pgf(x) == dist._pgf_inplace(min(1.0, max(0.0, x)))
    buffer = ARRAY.copy()
    assert dist._pgf_inplace(buffer) is buffer                # in place, nothing fresh
    for x in (np.nan, -2e-9, 1.0 + 2e-9, np.array([0.5, np.nan]), np.array([[0.1, -0.5]]),
              np.array([1.0, 1.0 + 2e-9]), np.array(-2e-9)):
        with pytest.raises(DistributionError, match=r"pgf argument outside \[0, 1\]"):
            dist.pgf(x)


@dataclass
class Forest:
    """The former Forest layout, with a parent index and a sample id per node."""

    n_samples: int
    depth: int
    sizes: List[int]
    parents: List[Optional[np.ndarray]]
    weights: List[Optional[np.ndarray]]
    sample_id: List[np.ndarray]
    aborted: np.ndarray


def reference_sample_forest(dist, law, depth, n_samples, rng, node_cap=DEFAULT_NODE_CAP):
    """sample_forest as it was, with its separate branch for an empty generation and the
    former Forest layout."""
    p1, p0 = law.p_1, law.p_0
    sizes = [n_samples]
    parents: List[Optional[np.ndarray]] = [None]
    weights: List[Optional[np.ndarray]] = [None]
    sample_id = [np.arange(n_samples, dtype=np.int64)]
    cum = np.ones(n_samples, dtype=np.int64)
    aborted = np.zeros(n_samples, dtype=bool)
    for g in range(1, depth + 1):
        prev_n = sizes[g - 1]
        if prev_n == 0:
            sizes.append(0)
            parents.append(np.empty(0, dtype=np.int64))
            weights.append(np.empty(0, dtype=np.int8))
            sample_id.append(np.empty(0, dtype=np.int64))
            continue
        counts = dist.sample(rng, size=prev_n)
        counts[aborted[sample_id[g - 1]]] = 0
        parent = np.repeat(np.arange(prev_n, dtype=np.int64), counts)
        sid = sample_id[g - 1][parent]
        u = rng.random(parent.size)
        w = np.where(u < p1, 1, np.where(u < p1 + p0, 0, -1)).astype(np.int8)
        sizes.append(int(parent.size))
        parents.append(parent)
        weights.append(w)
        sample_id.append(sid)
        cum += np.bincount(sid, minlength=n_samples)
        aborted |= cum > node_cap
    return Forest(n_samples=n_samples, depth=depth, sizes=sizes, parents=parents,
                  weights=weights, sample_id=sample_id, aborted=aborted)


def assert_forest_equals_reference(new, old):
    """`new` holds exactly what the former layout `old` holds, in child counts and edge weights."""
    assert (new.n_samples, new.depth, new.sizes) == (old.n_samples, old.depth, old.sizes)
    assert len(new.children) == len(new.weights) == new.depth
    sample_id = np.arange(new.n_samples, dtype=np.int64)
    for g in range(new.depth):
        np.testing.assert_array_equal(
            new.children[g], np.bincount(old.parents[g + 1], minlength=old.sizes[g]), strict=True)
        np.testing.assert_array_equal(new.weights[g], old.weights[g + 1], strict=True)
        sample_id = np.repeat(sample_id, new.children[g])
        np.testing.assert_array_equal(sample_id, old.sample_id[g + 1], strict=True)
        np.testing.assert_array_equal(
            np.repeat(np.arange(new.sizes[g]), new.children[g]), old.parents[g + 1], strict=True)
    np.testing.assert_array_equal(new.aborted, old.aborted, strict=True)


@pytest.mark.parametrize("dist", [TwoPoint(0.3, 2), Explicit([0.6, 0.2, 0.2])], ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_sample_forest_equals_reference_through_empty_generations(dist, seed):
    law = EdgeWeightLaw.from_p0_p1(0.5, 0.3)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_forest(dist, law, 10, 3, rng_new, node_cap=12)
    old = reference_sample_forest(dist, law, 10, 3, rng_old, node_cap=12)
    assert 0 in old.sizes                      # whole generations die out
    assert_forest_equals_reference(new, old)
    # the next forest of a resampling round starts from the same generator state
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


class BoundaryUniforms:
    """Stands in for the generator: `random` cycles through the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def random(self, size):
        return np.resize(self.values, size)


@pytest.mark.parametrize("p0, p1", [(0.5, 0.3), (0.0, 0.4), (0.6, 0.0)])
def test_sample_forest_weights_equal_reference_at_their_boundaries(p0, p1):
    law = EdgeWeightLaw.from_p0_p1(p0, p1)
    # every u at which a weight changes, and the float just below it; Dirac draws no uniforms
    cut = law.p_1 + law.p_0
    uniforms = [0.0, np.nextafter(law.p_1, 0), law.p_1, np.nextafter(cut, 0), cut,
                np.nextafter(1.0, 0)]
    new = sample_forest(Dirac(3), law, 2, 2, BoundaryUniforms(uniforms))
    old = reference_sample_forest(Dirac(3), law, 2, 2, BoundaryUniforms(uniforms))
    assert_forest_equals_reference(new, old)
    expected = [1 if u < law.p_1 else 0 if u < cut else -1 for u in uniforms]
    np.testing.assert_array_equal(new.weights[0], expected)
    probs = {1: law.p_1, 0: law.p_0, -1: law.p_minus1}
    assert set(expected) == {w for w, p in probs.items() if p > 0}


def reference_check_unit_interval(x):
    """_check_unit_interval as it was, through the np.min/np.max/np.clip wrappers."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not (arr.min() >= -_PGF_DOMAIN_SLACK and arr.max() <= 1.0 + _PGF_DOMAIN_SLACK):
        raise DistributionError(f"pgf argument outside [0, 1]: {x!r}")
    clipped = np.clip(arr, 0.0, 1.0)
    return clipped if isinstance(x, np.ndarray) else float(clipped)


@pytest.mark.parametrize("x", [0.5, -1e-10, 1.0 + 1e-10, 0, np.float64(-0.0), np.array(0.37),
                               np.array(-1e-10), np.empty((0, 3)), ARRAY, ARRAY.T,
                               np.array([[-1e-9, 1.0 + 1e-9]])], ids=repr)
def test_check_unit_interval_equals_reference(x):
    new, old = _check_unit_interval(x), reference_check_unit_interval(x)
    assert type(new) is type(old)
    np.testing.assert_array_equal(new, old, strict=True)
    if isinstance(x, np.ndarray) and x.ndim:
        assert not np.shares_memory(new, x)      # a fresh copy the caller may overwrite
        assert new.flags.writeable


@pytest.mark.parametrize("x", [-2e-9, 1.0 + 2e-9, np.nan, np.array([0.5, np.nan]),
                               np.array([[0.1, -0.5]]), np.array(1.5)], ids=repr)
def test_check_unit_interval_refuses_like_reference(x):
    messages = []
    for check in (_check_unit_interval, reference_check_unit_interval):
        with pytest.raises(DistributionError) as exc:
            check(x)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"pgf argument outside [0, 1]: {x!r}"


# sweep: the per-cell body that the batched sweep replaced, one row function call per
# grid cell, each with its own solve or fixed-point search

def _ref_solve_row(spec, config):
    result = fixpoint.solve(spec, tol=config["tol"], max_iter=config["max_iter"])
    row = cli._spec_row(spec)
    sep = "_" if spec.size >= 10 else ""
    row.update((f"d{i + 1}{sep}{j + 1}", d) for (i, j), d in np.ndenumerate(result.D))
    return row, cli._status(result), None


def _ref_kappa2_row(spec, config):
    zero = criteria.kappa2_draw_zero(spec.dist, spec.law)
    return {**cli._spec_row(spec), "draw_zero": zero}, cli.EXIT_OK, None


def _ref_kappa3_row(spec, config):
    bounds = criteria.kappa3_bounds(spec.dist, spec.law)
    row = {**cli._spec_row(spec), "E11": bounds.E[0, 0], "E12": bounds.E[0, 1],
           "E21": bounds.E[1, 0], "E22": bounds.E[1, 1],
           "max_E": float(np.max(bounds.E)),
           "contraction_holds": criteria.kappa3_contraction_holds(bounds)}
    if config["count_fixed_points"]:
        row["fixed_point_count"] = len(fixpoint.find_fixed_points(
            spec, tol=config["tol"], max_iter=config["max_iter"]))
    return row, cli.EXIT_OK, bounds


_REF_SWEEP_ROWS = {"solve": (_ref_solve_row, None), "check-kappa2": (_ref_kappa2_row, 2),
                   "check-kappa3": (_ref_kappa3_row, 3)}


def _ref_sweep_cell(config, task):
    overrides, p0, p1 = task
    row_fn, kappa = _REF_SWEEP_ROWS[config["what"]]
    spec = cli._build_spec({**config, **overrides, "p0": p0, "p1": p1}, kappa)
    row, status, _ = row_fn(spec, config)
    return row, status


def reference_sweep(argv):
    """(exit status, stdout) of `percgame sweep` as it ran cell by cell, in this process."""
    config = cli._resolve_config(cli._build_parser().parse_args(["sweep", *argv]))
    tasks = cli._sweep_tasks(config)
    cells = oracle.map_in_processes(functools.partial(_ref_sweep_cell, config), 1, tasks)
    rows = [row for row, _ in cells]
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit({"rows": rows}, rows, list(rows[0]), config)
    return max(status for _, status in cells), out.getvalue()


P0_P1 = ["--grid-p0", "0.3,0.75,0.9", "--grid-p1", "0.02,0.05"]
POISSON = ["--family", "poisson", "--lam", "5"]
BINOMIAL = ["--family", "binomial", "--n", "10", "--pi", "0.6"]
DIRAC_M = ["--family", "dirac", "--grid-param", "m=2,5"]   # two laws in one sweep
SWEEPS = {
    "solve-poisson-k2": ["--what", "solve", *POISSON, "--kappa", "2", *P0_P1],
    "solve-poisson-k3": ["--what", "solve", *POISSON, "--kappa", "3", *P0_P1],
    "solve-poisson-k12": ["--what", "solve", *POISSON, "--kappa", "12", *P0_P1],
    "solve-binomial-k3": ["--what", "solve", *BINOMIAL, "--kappa", "3", *P0_P1],
    "solve-dirac-m-k2": ["--what", "solve", *DIRAC_M, "--kappa", "2", *P0_P1],
    "solve-dirac-m-k3": ["--what", "solve", *DIRAC_M, "--kappa", "3", *P0_P1],
    "solve-dirac-m-k12": ["--what", "solve", *DIRAC_M, "--kappa", "12", *P0_P1],
    "solve-max-iter-5": ["--what", "solve", *DIRAC_M, "--kappa", "3", "--max-iter", "5", *P0_P1],
    "kappa2-binomial": ["--what", "check-kappa2", *BINOMIAL, *P0_P1],
    "kappa3-dirac-m": ["--what", "check-kappa3", *DIRAC_M, *P0_P1],
    "kappa3-dirac-m-count": ["--what", "check-kappa3", *DIRAC_M, "--count-fixed-points", *P0_P1],
    "kappa3-poisson-count": ["--what", "check-kappa3", *POISSON, "--count-fixed-points", *P0_P1],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", SWEEPS)
def test_batched_sweep_equals_per_cell_reference(case, fmt, capsys, monkeypatch):
    argv = [*SWEEPS[case], "--format", fmt]
    expected = reference_sweep(argv)
    assert expected[0] == (3 if case == "solve-max-iter-5" else 0)
    for jobs in ("1", "2"):
        code = cli.main(["sweep", *argv, "--jobs", jobs])
        assert (code, capsys.readouterr().out) == expected, jobs
    # --jobs 64 asks for more chunks than there are cells: one worker per cell; the
    # pool runs inline so that no process is started
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    code = cli.main(["sweep", *argv, "--jobs", "64"])
    assert (code, capsys.readouterr().out) == expected
    cells = len(cli._sweep_tasks(cli._resolve_config(cli._build_parser().parse_args(
        ["sweep", *argv]))))
    assert InlinePool.sizes == [cells]
