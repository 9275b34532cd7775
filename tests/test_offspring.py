import math

import numpy as np
import pytest

from percgame import (Binomial, Dirac, DistributionError, Explicit, NegBinomial,
                      Poisson, TwoPoint, UniformRange, distribution_from_json, geometric)
from percgame.offspring import _check_unit_interval

ALL_DISTS = [
    Dirac(2), Dirac(5), Dirac(15),
    UniformRange(1), UniformRange(2), UniformRange(5),
    Binomial(5, 0.5), Binomial(20, 0.2), Binomial(20, 0.9),
    Poisson(0.7), Poisson(2.0), Poisson(5.0),
    NegBinomial(1, 0.5), NegBinomial(2, 0.4), NegBinomial(4, 0.7),
    TwoPoint(0.3, 4), TwoPoint(0.5, 3),
    Explicit([0.0, 1.0]), Explicit([0.2, 0.3, 0.5]),
]


def test_pmf_point_masses():
    assert Dirac(2).pmf(2) == 1.0
    assert Dirac(2).pmf(3) == 0.0
    assert TwoPoint(0.3, 4).pmf(0) == 0.7
    assert TwoPoint(0.3, 4).pmf(4) == 0.3
    assert TwoPoint(0.3, 4).pmf(2) == 0.0


def test_pmf_poisson_series_value():
    # independent series formula e^-lam lam^m / m!
    assert Poisson(5.0).pmf(0) == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert Poisson(5.0).pmf(0) == pytest.approx(6.7379e-3, rel=1e-4)
    assert Poisson(5.0).pmf(3) == pytest.approx(math.exp(-5.0) * 125 / 6, rel=1e-12)


def test_pmf_negbinomial_series_value():
    d = NegBinomial(2, 0.4)
    # failures before the 2nd success: P(m) = (m+1) 0.4^2 0.6^m
    for m in range(6):
        assert d.pmf(m) == pytest.approx((m + 1) * 0.16 * 0.6**m, rel=1e-12)


def test_pgf_worked_values():
    assert Dirac(15).pgf(0.35) == pytest.approx(1.4488e-7, rel=1e-3)
    assert Poisson(5.0).pgf(0.35) == pytest.approx(math.exp(5 * (0.35 - 1)), rel=1e-14)
    assert Poisson(5.0).pgf(0.35) == pytest.approx(0.039, abs=1e-3)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_normalization_at_one(dist):
    assert dist.pgf(1.0) == pytest.approx(1.0, abs=1e-12)


def support_bound(dist, tail_mass=1e-12):
    """Smallest M with P(children > M) < tail_mass."""
    total, m = 0.0, 0
    while total < 1.0 - tail_mass:
        total += dist.pmf(m)
        m += 1
    return m - 1


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_matches_truncated_series(dist):
    M = support_bound(dist)
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        series = sum(x**m * dist.pmf(m) for m in range(M + 1))
        assert dist.pgf(x) == pytest.approx(series, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_strictly_increasing(dist):
    xs = np.linspace(0.0, 1.0, 21)
    vals = np.array([dist.pgf(float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_derivative_matches_finite_difference(dist):
    h = 1e-6
    for x in np.linspace(0.05, 0.95, 10):
        fd = (dist.pgf(float(x + h)) - dist.pgf(float(x - h))) / (2 * h)
        assert dist.pgf_derivative(float(x)) == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_derivative_nondecreasing(dist):
    xs = np.linspace(0.0, 1.0, 21)
    vals = np.array([dist.pgf_derivative(float(x)) for x in xs])
    assert np.all(np.diff(vals) >= -1e-12)


def test_pgf_derivative_closed_forms():
    assert Dirac(2).pgf_derivative(0.5) == pytest.approx(1.0, abs=1e-15)
    d, pi = 7, 0.3
    assert Binomial(d, pi).pgf_derivative(0.0) == pytest.approx(pi * d * (1 - pi) ** (d - 1), rel=1e-13)
    lam = 3.7
    for x in (0.0, 0.4, 1.0):
        assert Poisson(lam).pgf_derivative(x) == pytest.approx(lam * Poisson(lam).pgf(x), rel=1e-13)


def test_pgf_domain_violation():
    with pytest.raises(DistributionError):
        Poisson(2.0).pgf(1.5)
    with pytest.raises(DistributionError):
        Dirac(2).pgf(-0.2)
    for dist in ALL_DISTS:   # NaN is outside [0, 1] too, as a scalar and in an array
        with pytest.raises(DistributionError):
            dist.pgf(math.nan)
        with pytest.raises(DistributionError):
            dist.pgf(np.array([0.5, np.nan]))


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_pgf_never_mutates_its_argument(dist):
    # the array path works in place on a copy: the argument, a transposed view
    # of another array, and that array stay as they were
    base = np.random.default_rng(4).random((2, 3, 3))
    base[0, 0, 0], base[1, 2, 2] = 0.0, 1.0
    saved = base.copy()
    for arg in (base, base.swapaxes(-1, -2), base[1]):
        out = dist.pgf(arg)
        assert not np.shares_memory(out, base)
        assert np.array_equal(base, saved)


def test_pgf_accepts_arrays():
    x = np.array([[0.0, 0.5], [0.25, 1.0]])
    out = Binomial(4, 0.5).pgf(x)
    assert out.shape == x.shape
    assert out[1, 1] == pytest.approx(1.0)


def test_sampling_degenerate_cases():
    rng = np.random.default_rng(0)
    for dist, m in ((Dirac(5), 5), (Explicit([0.0, 1.0]), 1)):
        draws = dist.sample(rng, size=20)
        assert draws.dtype == np.int64
        assert np.all(draws == m)


def test_sampling_poisson_mean():
    rng = np.random.default_rng(42)
    draws = Poisson(2.0).sample(rng, size=10**6)
    se = math.sqrt(2.0 / 10**6)
    assert abs(draws.mean() - 2.0) < 3 * se


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_sampling_matches_pmf(dist):
    rng = np.random.default_rng(7)
    draws = dist.sample(rng, size=200000)
    assert draws.dtype == np.int64
    for m in range(support_bound(dist) + 1):
        freq = np.mean(draws == m)
        p = dist.pmf(m)
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws.size)


def test_invalid_parameters_rejected():
    with pytest.raises(DistributionError):
        Dirac(0)
    with pytest.raises(DistributionError):
        Binomial(3, 0.0)       # would put all mass on zero children
    with pytest.raises(DistributionError):
        Poisson(0.0)
    with pytest.raises(DistributionError):
        NegBinomial(2, 1.0)    # all mass on zero failures
    with pytest.raises(DistributionError):
        TwoPoint(0.5, 1)
    with pytest.raises(DistributionError):
        Explicit([1.0])        # no children almost surely
    with pytest.raises(DistributionError):
        Explicit([0.5, 0.4])   # does not sum to 1
    with pytest.raises(DistributionError):
        Explicit([-0.1, 1.1])
    for bad in (math.nan, math.inf):   # non-finite parameters and pmf entries
        for make in (lambda v: Poisson(v), lambda v: Binomial(3, v), lambda v: NegBinomial(2, v),
                     lambda v: TwoPoint(v, 2), lambda v: Explicit([v, 0.5, 0.5]),
                     lambda v: distribution_from_json({"family": "poisson", "params": {"lam": v}}),
                     lambda v: distribution_from_json({"family": "explicit",
                                                       "params": {"pmf": [0.5, 0.5, v]}})):
            with pytest.raises(DistributionError):
                make(bad)


def test_geometric_is_negbinomial_r1():
    g = geometric(0.5)
    assert isinstance(g, NegBinomial)
    assert g.r == 1
    for x in (0.0, 0.3, 1.0):
        assert g.pgf(x) == pytest.approx(0.5 / (1 - 0.5 * x), rel=1e-13)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_json_round_trip(dist):
    clone = distribution_from_json(dist.to_json())
    assert clone == dist


@pytest.mark.parametrize("dist, params", [
    (Dirac(2), {"m": 2}), (UniformRange(3), {"m": 3}), (Binomial(10, 0.6), {"n": 10, "pi": 0.6}),
    (Poisson(5.0), {"lam": 5.0}), (NegBinomial(2, 0.1), {"r": 2, "pi": 0.1}),
    (geometric(0.2), {"r": 1, "pi": 0.2}), (TwoPoint(0.5, 3), {"pi": 0.5, "d": 3}),
    (Explicit([0.25, 0.75]), {"pmf": [0.25, 0.75]})], ids=repr)
def test_params_name_the_parameters_in_constructor_order(dist, params):
    assert list(dist.params().items()) == list(params.items())
    assert [type(v) for v in dist.params().values()] == [type(v) for v in params.values()]


UNIT_ARRAY = np.random.default_rng(5).random((500, 2))


@pytest.mark.parametrize("x", [0.5, -1e-10, 1.0 + 1e-10, 0, np.float64(-0.0), np.array(0.37),
                               np.array(-1e-10), np.empty((0, 3)), UNIT_ARRAY, UNIT_ARRAY.T,
                               np.array([[-1e-9, 1.0 + 1e-9]])], ids=repr)
def test_check_unit_interval_clips_into_a_fresh_value(x):
    got = _check_unit_interval(x)
    np.testing.assert_array_equal(got, np.clip(np.asarray(x, dtype=float), 0.0, 1.0), strict=True)
    if not isinstance(x, np.ndarray):
        assert type(got) is float
    elif x.ndim == 0:
        assert type(got) is np.float64
    else:                       # a fresh copy the caller may overwrite
        assert type(got) is np.ndarray and got.flags.writeable and not np.shares_memory(got, x)


@pytest.mark.parametrize("x", [-2e-9, 1.0 + 2e-9, np.nan, np.array([0.5, np.nan]),
                               np.array([[0.1, -0.5]]), np.array(1.5)], ids=repr)
def test_check_unit_interval_refusal_names_the_argument(x):
    with pytest.raises(DistributionError) as exc:
        _check_unit_interval(x)
    assert str(exc.value) == f"pgf argument outside [0, 1]: {x!r}"


def test_json_geometric_alias_and_errors():
    g = distribution_from_json({"family": "geometric", "params": {"pi": 0.3}})
    assert g == NegBinomial(1, 0.3)
    with pytest.raises(DistributionError, match="^family: unknown offspring family 'zeta'$"):
        distribution_from_json({"family": "zeta", "params": {}})
    with pytest.raises(DistributionError):
        distribution_from_json(["not", "a", "dict"])
    with pytest.raises(DistributionError, match="^params: "):
        distribution_from_json({"family": "dirac", "params": [2]})
    # every parameter fault names the parameter; 2 and 2.0 are integers
    for params in ({}, {"m": 2.5}, {"m": True}, {"m": "x"}):
        with pytest.raises(DistributionError, match="^m: "):
            distribution_from_json({"family": "dirac", "params": params})
    with pytest.raises(DistributionError, match="^n: "):
        distribution_from_json({"family": "binomial", "params": {"n": 3.9, "pi": 0.5}})
    with pytest.raises(DistributionError, match="^pi: "):
        distribution_from_json({"family": "binomial", "params": {"n": 3}})
    for value in ("0.5", True, None, [0.5]):
        with pytest.raises(DistributionError, match="^pi: a number"):
            distribution_from_json({"family": "binomial", "params": {"n": 3, "pi": value}})
        with pytest.raises(DistributionError, match="^lam: a number"):
            distribution_from_json({"family": "poisson", "params": {"lam": value}})
    assert distribution_from_json({"family": "poisson", "params": {"lam": 5}}) == Poisson(5.0)
    for params in ({}, {"pmf": 0.5}, {"pmf": "0.5,0.5"}, {"pmf": [True]}):
        with pytest.raises(DistributionError, match="^pmf: "):
            distribution_from_json({"family": "explicit", "params": params})
    for m in (2, 2.0):
        assert distribution_from_json({"family": "dirac", "params": {"m": m}}) == Dirac(2)
    assert distribution_from_json({"family": "twopoint", "params": {"pi": 0.5, "d": 3.0}}) == TwoPoint(0.5, 3)
