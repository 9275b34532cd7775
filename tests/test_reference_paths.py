"""The references of two layers, the generating functions and `sweep`, and the one
former-code copy left.

* The `Ref*` classes carry each family's pgf and G' as a float path and an array path
  written apart; the public pgf and pgf_derivative must equal them, not be close.
* `reference_sweep` runs `percgame sweep` cell by cell, one row call per grid cell; the
  batched sweep must print the same bytes.
* `former_g_step` and `FORMER_PGF_INPLACE` are the operator step and pgf bodies that the
  lean step replaced, which pin it bitwise.

The other layers' references live with their tests (README, "Tests").
"""

import concurrent.futures
import functools
import io
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from percgame import (Binomial, Dirac, EdgeWeightLaw, Explicit, NegBinomial, Poisson, TwoPoint,
                      UniformRange, cli, criteria, fixpoint, offspring, oracle)
from percgame.offspring import DistributionError, _check_unit_interval, geometric

from test_cli import InlinePool
from test_offspring import ALL_DISTS


# Each reference subclass carries the family's pgf and pgf_derivative, a float path and an
# array path written apart.

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

DISTS = ALL_DISTS + [UniformRange(17), Explicit([0.1, 0.2, 0.3, 0.15, 0.25]),
                     NegBinomial(2, 0.1), geometric(0.2)]
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
    for x in (ARRAY, ARRAY.T, np.empty((0, 2))):
        assert type(new(x)) is type(old(x)) is np.ndarray
        np.testing.assert_array_equal(new(x), old(x), strict=True)
    # A 0-d array is clipped to a numpy scalar; the Horner families used to convert
    # it to a Python float, and now return the numpy scalar as every other family does.
    zero_d = np.array(0.37)
    assert type(new(zero_d)) is np.float64
    assert new(zero_d) == old(zero_d)


@pytest.mark.parametrize("dist", DISTS, ids=repr)
@pytest.mark.parametrize("public, body", [("pgf", "_pgf_inplace"),
                                          ("pgf_derivative", "_pgf_derivative")])
def test_public_pgf_is_the_check_then_the_inplace_body(dist, public, body):
    # the operator loops call _pgf_inplace on a mix they clip themselves; the public
    # pgf and pgf_derivative keep the range check and give what the body gives on a
    # clipped copy
    public, body = getattr(dist, public), getattr(dist, body)
    for x in (ARRAY, ARRAY.T, np.array([[-1e-9, 1.0 + 1e-9, 0.5]]), np.empty((0, 2))):
        np.testing.assert_array_equal(public(x), body(np.clip(x, 0.0, 1.0)), strict=True)
    for x in GRID:
        expected = body(min(1.0, max(0.0, x)))
        assert type(public(x)) is type(expected)
        assert public(x) == expected
    if public.__name__ == "pgf":
        buffer = ARRAY.copy()
        assert dist._pgf_inplace(buffer) is buffer                # in place, nothing fresh
    for x in (np.nan, -2e-9, 1.0 + 2e-9, np.array([0.5, np.nan]), np.array([[0.1, -0.5]]),
              np.array([1.0, 1.0 + 2e-9]), np.array(-2e-9)):
        with pytest.raises(DistributionError, match=r"pgf argument outside \[0, 1\]"):
            public(x)


# one law of each of the 8 families of offspring._FAMILIES
FAMILY_DISTS = [Dirac(2), UniformRange(3), Binomial(10, 0.6), Poisson(5.0), NegBinomial(2, 0.1),
                geometric(0.2), TwoPoint(0.5, 3), Explicit([0.1, 0.2, 0.3, 0.15, 0.25])]


@pytest.mark.parametrize("dist", FAMILY_DISTS, ids=repr)
def test_kappa3_certificates_check_each_distinct_value_once(dist, monkeypatch):
    calls, check = [], _check_unit_interval

    def counted(x):
        calls.append(x)
        return check(x)

    monkeypatch.setattr(offspring, "_check_unit_interval", counted)
    criteria.kappa3_bounds(dist, EdgeWeightLaw.from_p0_p1(0.5, 0.3))
    assert len(calls) == 26
    calls.clear()
    criteria.kappa3_p0_zero_check(dist, 0.4)
    assert len(calls) == 3


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


# The operator step as it was: keyword outputs, augmented operators with Python-float
# operands and ndarray.clip, in the same order as the step now issues its ufunc calls.

def former_g_step(G, laws, fill, buffers, out):
    p1, p0, pm1 = laws
    left, interior, right, term = buffers
    np.subtract(np.array(1.0), fill, out=interior)
    np.multiply(left, pm1, out=out)
    np.multiply(interior, p0, out=term)
    out += term
    np.multiply(right, p1, out=term)
    out += term
    out.clip(0.0, 1.0, out=out)
    return G(out)


def former_dirac(self, x):
    x **= self.m
    return x


def former_binomial(self, x):
    x *= self.pi
    x += 1.0 - self.pi
    x **= self.n
    return x


def former_poisson(self, x):
    x -= 1.0
    x *= self.lam
    return np.exp(x, out=x if isinstance(x, np.ndarray) else None)


def former_negbinomial(self, x):
    x *= self.pi - 1.0
    x += 1.0
    x **= -self.r
    x *= self.pi**self.r
    return x


def former_twopoint(self, x):
    x **= self.d
    x *= self.pi
    x += 1.0 - self.pi
    return x


# the former _pgf_inplace of each family whose body changed; the Horner families kept theirs
FORMER_PGF_INPLACE = {Dirac: former_dirac, Binomial: former_binomial, Poisson: former_poisson,
                      NegBinomial: former_negbinomial, TwoPoint: former_twopoint}
# every family, with the exponents that numpy's scalar power sends to square (2) and
# reciprocal (-1), the identity exponent 1, and exponents that go to power
STEP_DISTS = [Dirac(1), Dirac(2), Dirac(3), UniformRange(3), Binomial(2, 0.7),
              Binomial(10, 0.6), Poisson(5.0), NegBinomial(1, 0.3), NegBinomial(2, 0.1),
              TwoPoint(0.5, 2), TwoPoint(0.5, 3), Explicit([0.1, 0.2, 0.3, 0.15, 0.25])]
STEP_LAWS = [EdgeWeightLaw.from_p0_p1(p0, p1) for p0, p1 in ((0.8, 0.1), (0.4, 0.3), (0.5, 0.2))]


def operator_outputs(dist, kappa):
    """The bytes of every operator entry point at one law and kappa: list and single
    iterate_from_below and find_fixed_points, apply_g and horizon_iterates."""
    specs = [fixpoint.GameSpec(kappa, dist, law) for law in STEP_LAWS]
    n = kappa - 1
    rng = np.random.default_rng(kappa)
    seeds = [np.zeros((n, n)), np.ones((n, n)), rng.random((n, n))]
    out = []
    for run in (fixpoint.iterate_from_below(specs, max_iter=2000)
                + [fixpoint.iterate_from_below(specs[1], max_iter=2000)]):
        out += [run.ell.tobytes(), run.w.tobytes(), (run.iterations, run.delta, run.converged)]
    for points in (fixpoint.find_fixed_points(specs, seeds, max_iter=200)
                   + [fixpoint.find_fixed_points(specs[0], seeds, max_iter=200)]):
        out += [point.tobytes() for point in points] + ["|"]
    out += [fixpoint.apply_g(spec, rng.random((n, n))).tobytes() for spec in specs]
    ells, ws = fixpoint.horizon_iterates(specs[2], 5)
    return out + [a.tobytes() for a in ells + ws]


@pytest.mark.parametrize("kappa", (2, 3, 12, 41))
@pytest.mark.parametrize("dist", STEP_DISTS, ids=repr)
def test_operator_step_equals_former_step_bitwise(dist, kappa, monkeypatch):
    new = operator_outputs(dist, kappa)
    steps = []

    def counted(*args):
        steps.append(1)
        return former_g_step(*args)

    monkeypatch.setattr(fixpoint, "_g_step", counted)
    if type(dist) in FORMER_PGF_INPLACE:
        monkeypatch.setattr(type(dist), "_pgf_inplace", FORMER_PGF_INPLACE[type(dist)])
    assert operator_outputs(dist, kappa) == new
    assert steps                                   # the former step ran


@pytest.mark.parametrize("dist", STEP_DISTS, ids=repr)
def test_pgf_bodies_keep_their_scalar_path_and_array_bits(dist):
    # the scalar path keeps the former operations and result types: np.power on an
    # array differs from Python ** on floats in a few draws per thousand for some
    # exponents, and the kappa = 3 certificates read this path
    former_body = FORMER_PGF_INPLACE.get(type(dist), type(dist)._pgf_inplace)
    draws = np.random.default_rng(11).random(2000)
    for x in [float(v) for v in draws[:1000]] + list(draws[1000:]) + GRID[:41]:
        new, old = dist._pgf_inplace(x), former_body(dist, x)
        assert type(new) is type(old)
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
        if type(dist) is Poisson:
            assert np.asarray(dist._pgf_derivative(x)).tobytes() == np.asarray(
                dist.lam * former_body(dist, x)).tobytes()
    # the array path writes in place and gives the former bits
    for x in (np.random.default_rng(12).random(200_000), ARRAY, np.array(0.37)):
        new, old = x.copy(), x.copy()
        assert dist._pgf_inplace(new) is new
        assert new.tobytes() == former_body(dist, old).tobytes()


def test_step_clip_equals_ndarray_clip_bitwise():
    tiny = np.finfo(float).smallest_subnormal
    specials = [-0.0, 0.0, tiny, -tiny, 2 * tiny, np.finfo(float).tiny, -np.finfo(float).tiny,
                1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.inf, -np.inf, np.nan,
                -np.nan, 0.5]
    rng = np.random.default_rng(13)
    x = np.concatenate([specials, rng.uniform(-3.0, 4.0, 1000), rng.uniform(-1e-12, 1e-12, 100),
                        1.0 + rng.uniform(-1e-12, 1e-12, 100)])
    for values in (x, x.reshape(5, 1, 3, -1), x[::-1]):
        expected = values.clip(0.0, 1.0)
        got = values.copy()
        assert fixpoint._clip(got, fixpoint._ZERO, fixpoint._ONE, got) is got
        assert got.tobytes() == expected.tobytes()


# UniformRange and Explicit are left out: offspring._horner still builds a fresh
# accumulator per call, an open item of the roadmap until a workload runs them
@pytest.mark.parametrize("kappa", (2, 41))
@pytest.mark.parametrize("dist", [Dirac(2), Binomial(10, 0.6), Poisson(5.0), NegBinomial(2, 0.1),
                                  TwoPoint(0.5, 3)], ids=repr)
def test_fixed_step_run_allocates_nothing_per_step(dist, kappa):
    spec = fixpoint.GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.4, 0.3))
    fixpoint.iterate_from_below(spec, tol=0.0, max_iter=1000)     # first-call costs
    # whole blocks of steps (992 and 49,984 at kappa 2), since the last block's
    # per-step changes live until the run returns
    block = fixpoint._block_steps(2 * (kappa - 1) ** 2)
    peaks = []
    for steps in (block * (1000 // block), block * (50_000 // block)):
        tracemalloc.start()
        try:
            fixpoint.iterate_from_below(spec, tol=0.0, max_iter=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] == peaks[1]
