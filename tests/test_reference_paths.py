"""The single-path generating functions and forest sampler against the two-path code
they replaced, kept here verbatim as references: results must be equal, not close."""

from typing import List, Optional

import numpy as np
import pytest

from percgame import (Binomial, Dirac, EdgeWeightLaw, Explicit, NegBinomial, Poisson, TwoPoint,
                      UniformRange, sample_forest)
from percgame.offspring import _check_unit_interval
from percgame.oracle import DEFAULT_NODE_CAP, Forest

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


def reference_sample_forest(dist, law, depth, n_samples, rng, node_cap=DEFAULT_NODE_CAP):
    """sample_forest as it was with its separate branch for an empty generation."""
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


@pytest.mark.parametrize("dist", [TwoPoint(0.3, 2), Explicit([0.6, 0.2, 0.2])], ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_sample_forest_equals_reference_through_empty_generations(dist, seed):
    law = EdgeWeightLaw.from_p0_p1(0.5, 0.3)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_forest(dist, law, 10, 3, rng_new, node_cap=12)
    old = reference_sample_forest(dist, law, 10, 3, rng_old, node_cap=12)
    assert 0 in old.sizes                      # whole generations die out
    assert (new.n_samples, new.depth, new.sizes) == (old.n_samples, old.depth, old.sizes)
    for field in ("parents", "weights", "sample_id"):
        for a, b in zip(getattr(new, field)[1:], getattr(old, field)[1:], strict=True):
            np.testing.assert_array_equal(a, b, strict=True)
    np.testing.assert_array_equal(new.aborted, old.aborted, strict=True)
    # the next forest of a resampling round starts from the same generator state
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
