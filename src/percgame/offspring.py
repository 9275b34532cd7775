"""Offspring distributions of the branching tree.

Each distribution knows its probability mass function, its generating
function G(x) = sum_m x^m P(m children) with the closed form used wherever
the family admits one, the derivative G'(x), and how to draw child counts
from a caller-owned random generator.

Every family must place positive mass on {1, 2, ...}: a tree whose root
never has children makes the game trivial, so P(0 children) = 1 is rejected
at construction time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

_PGF_DOMAIN_SLACK = 1e-9
_ONE = np.array(1.0)   # 0-d: the cheapest operand of a ufunc


class DistributionError(ValueError):
    """Invalid distribution parameters."""


def _check_unit_interval(x: ArrayLike) -> ArrayLike:
    """Validate pgf arguments, tolerating tiny floating-point overshoot; NaN is rejected.

    An array argument comes back as a fresh clipped copy that the caller may
    overwrite (a numpy scalar for a 0-d array), anything else as a float.  It runs
    once per public pgf or pgf_derivative call; the operator loops clip their own
    stencil mix instead (fixpoint._g_step).
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not (np.minimum.reduce(arr, None) >= -_PGF_DOMAIN_SLACK
                         and np.maximum.reduce(arr, None) <= 1.0 + _PGF_DOMAIN_SLACK):
        raise DistributionError(f"pgf argument outside [0, 1]: {x!r}")
    clipped = arr.clip(0.0, 1.0)
    return clipped if isinstance(x, np.ndarray) else float(clipped)


def _power(e: int) -> tuple:
    """(ufunc, operands) such that ufunc(x, *operands, x) is `x **= e` on a float array x,
    bit for bit: numpy sends the int exponents 2 and -1 to square and reciprocal, and any
    other to power with e as a float, here a 0-d array built once."""
    if e == 2:
        return np.square, ()
    if e == -1:
        return np.reciprocal, ()
    return np.power, (np.array(float(e)),)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, written over the array x and returned."""
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc *= x
        acc += c
    x[...] = acc
    return x


def _on_array(body, x: ArrayLike) -> ArrayLike:
    """A family's body of G or G' on x, checked and clipped (_check_unit_interval): an
    array as its fresh copy, anything else as a one-element array, giving a numpy float."""
    x = _check_unit_interval(x)
    return body(x) if isinstance(x, np.ndarray) else body(np.array([x]))[0]


class OffspringDistribution:
    """Base class; subclasses implement the per-family closed forms."""

    family: str = ""

    def pmf(self, m: int) -> float:
        raise NotImplementedError

    def pgf(self, x: ArrayLike) -> ArrayLike:
        """G(x): arguments up to 1e-9 outside [0, 1] are clipped, NaN and anything
        further out raise DistributionError; an array gives a fresh array and a
        scalar a numpy float, from a one-element array (_on_array).  Each family
        binds this in its own class, where the traced benchmark wraps it."""
        return _on_array(self._pgf_inplace, x)

    def _pgf_inplace(self, x: np.ndarray) -> np.ndarray:
        """The family's one body of G, for an array x already in [0, 1]: x is
        overwritten with G(x) and returned.  The body is its ufunc calls alone, each
        writing into x and taking the family's constants as the 0-d arrays of
        `_operands`, built once per distribution (the two Horner families still go
        through _horner)."""
        raise NotImplementedError

    def pgf_derivative(self, x: ArrayLike) -> ArrayLike:
        """G'(x), its argument checked and clipped, and a scalar taken, as `pgf` does."""
        return _on_array(self._pgf_derivative, x)

    def _pgf_derivative(self, x: np.ndarray) -> np.ndarray:
        """The family's one body of G' for an array x already in [0, 1]; x may be overwritten."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` child counts as an int64 array."""
        raise NotImplementedError

    def params(self) -> dict:
        """{parameter: value}, the parameters named and ordered as `_FAMILIES` lists them."""
        return {name: getattr(self, name) for name in _FAMILIES[self.family][1]}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}


@dataclass(frozen=True)
class Dirac(OffspringDistribution):
    """Every vertex has exactly m children (the rooted m-regular tree)."""

    m: int
    family: str = field(default="dirac", init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise DistributionError("Dirac: m must be a positive integer")

    def pmf(self, m: int) -> float:
        return 1.0 if m == self.m else 0.0

    pgf = OffspringDistribution.pgf

    @cached_property
    def _operands(self):
        return _power(self.m)

    def _pgf_inplace(self, x):
        power, exponent = self._operands
        return power(x, *exponent, x)

    def _pgf_derivative(self, x):
        return self.m * x ** (self.m - 1)

    def sample(self, rng, size):
        return np.full(size, self.m, dtype=np.int64)


@dataclass(frozen=True)
class UniformRange(OffspringDistribution):
    """Uniform child count on {1, ..., m}."""

    m: int
    family: str = field(default="uniform", init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise DistributionError("UniformRange: m must be a positive integer")

    def pmf(self, m: int) -> float:
        return 1.0 / self.m if 1 <= m <= self.m else 0.0

    pgf = OffspringDistribution.pgf

    def _pgf_inplace(self, x):
        x = _horner((0,) + (1,) * self.m, x)
        x /= self.m
        return x

    def _pgf_derivative(self, x):
        return _horner(range(1, self.m + 1), x) / self.m

    def sample(self, rng, size):
        return rng.integers(1, self.m + 1, size=size)


@dataclass(frozen=True)
class Binomial(OffspringDistribution):
    """Binomial(n, pi) child counts."""

    n: int
    pi: float
    family: str = field(default="binomial", init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DistributionError("Binomial: n must be a positive integer")
        if not 0.0 < self.pi <= 1.0:
            raise DistributionError("Binomial: pi must be in (0, 1]")

    def pmf(self, m: int) -> float:
        if not 0 <= m <= self.n:
            return 0.0
        return math.comb(self.n, m) * self.pi**m * (1.0 - self.pi) ** (self.n - m)

    pgf = OffspringDistribution.pgf

    @cached_property
    def _operands(self):
        return np.array(self.pi), np.array(1.0 - self.pi), _power(self.n)

    def _pgf_inplace(self, x):
        pi, q, (power, exponent) = self._operands
        np.multiply(x, pi, x)
        np.add(x, q, x)
        return power(x, *exponent, x)

    def _pgf_derivative(self, x):
        return self.n * self.pi * (1.0 - self.pi + self.pi * x) ** (self.n - 1)

    def sample(self, rng, size):
        return rng.binomial(self.n, self.pi, size=size)


@dataclass(frozen=True)
class Poisson(OffspringDistribution):
    """Poisson(lam) child counts; G(x) = exp(lam (x - 1))."""

    lam: float
    family: str = field(default="poisson", init=False, repr=False)

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DistributionError("Poisson: lam must be positive and finite")

    def pmf(self, m: int) -> float:
        return math.exp(-self.lam + m * math.log(self.lam) - math.lgamma(m + 1)) if m >= 0 else 0.0

    pgf = OffspringDistribution.pgf

    @cached_property
    def _operands(self):
        return np.array(self.lam)

    def _pgf_inplace(self, x):
        np.subtract(x, _ONE, x)
        np.multiply(x, self._operands, x)
        return np.exp(x, x)

    def _pgf_derivative(self, x):
        return self.lam * self._pgf_inplace(x)

    def sample(self, rng, size):
        return rng.poisson(self.lam, size=size)


@dataclass(frozen=True)
class NegBinomial(OffspringDistribution):
    """Negative binomial: failures before the r-th success, success prob pi.

    G(x) = pi^r (1 - (1 - pi) x)^(-r).  With r = 1 this is the geometric law,
    for which the draw probability is known to vanish identically.
    """

    r: int
    pi: float
    family: str = field(default="negbinomial", init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise DistributionError("NegBinomial: r must be a positive integer")
        if not 0.0 < self.pi < 1.0:
            raise DistributionError("NegBinomial: pi must be in (0, 1)")

    def pmf(self, m: int) -> float:
        if m < 0:
            return 0.0
        return math.comb(m + self.r - 1, m) * self.pi**self.r * (1.0 - self.pi) ** m

    pgf = OffspringDistribution.pgf

    @cached_property
    def _operands(self):
        return np.array(self.pi - 1.0), _power(-self.r), np.array(self.pi**self.r)

    def _pgf_inplace(self, x):
        # x (pi - 1) + 1: fl(pi - 1) = -fl(1 - pi), the same roundings as 1 - (1 - pi) x
        slope, (power, exponent), scale = self._operands
        np.multiply(x, slope, x)
        np.add(x, _ONE, x)
        power(x, *exponent, x)
        return np.multiply(x, scale, x)

    def _pgf_derivative(self, x):
        return (self.r * (1.0 - self.pi) * self.pi**self.r
                * (1.0 - (1.0 - self.pi) * x) ** (-self.r - 1))

    def sample(self, rng, size):
        return rng.negative_binomial(self.r, self.pi, size=size)


@dataclass(frozen=True)
class TwoPoint(OffspringDistribution):
    """Mass 1 - pi on 0 children and pi on d children, d >= 2."""

    pi: float
    d: int
    family: str = field(default="twopoint", init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.pi < 1.0:
            raise DistributionError("TwoPoint: pi must be in (0, 1)")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 2):
            raise DistributionError("TwoPoint: d must be an integer >= 2")

    def pmf(self, m: int) -> float:
        if m == 0:
            return 1.0 - self.pi
        if m == self.d:
            return self.pi
        return 0.0

    pgf = OffspringDistribution.pgf

    @cached_property
    def _operands(self):
        return _power(self.d), np.array(self.pi), np.array(1.0 - self.pi)

    def _pgf_inplace(self, x):
        (power, exponent), pi, q = self._operands
        power(x, *exponent, x)
        np.multiply(x, pi, x)
        return np.add(x, q, x)

    def _pgf_derivative(self, x):
        return self.pi * self.d * x ** (self.d - 1)

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.pi, self.d, 0).astype(np.int64)


@dataclass(frozen=True)
class Explicit(OffspringDistribution):
    """Finite user-supplied pmf; entry m is the probability of m children."""

    pmf_values: tuple
    family: str = field(default="explicit", init=False, repr=False)

    def __init__(self, pmf_values):
        values = tuple(float(v) for v in pmf_values)
        if len(values) == 0:
            raise DistributionError("Explicit: pmf must be non-empty")
        if not all(v >= 0 for v in values):   # NaN fails this and the next test
            raise DistributionError("Explicit: pmf entries must be non-negative")
        if not abs(sum(values) - 1.0) <= 1e-12:
            raise DistributionError("Explicit: pmf must sum to 1 within 1e-12")
        if values[0] >= 1.0:
            raise DistributionError("Explicit: pmf must give positive mass to m >= 1")
        object.__setattr__(self, "pmf_values", values)

    def pmf(self, m: int) -> float:
        return self.pmf_values[m] if 0 <= m < len(self.pmf_values) else 0.0

    pgf = OffspringDistribution.pgf

    def _pgf_inplace(self, x):
        return _horner(self.pmf_values, x)

    def _pgf_derivative(self, x):
        coeffs = [m * p for m, p in enumerate(self.pmf_values)][1:]
        return _horner(coeffs, x)

    def sample(self, rng, size):
        return rng.choice(len(self.pmf_values), size=size, p=self.pmf_values)

    def params(self):      # the field pmf_values holds the parameter pmf
        return {"pmf": list(self.pmf_values)}


def geometric(pi: float) -> NegBinomial:
    """Geometric(pi) offspring, exposed as NegBinomial with r = 1."""
    return NegBinomial(1, pi)


def _int_param(params: dict, name: str) -> int:
    """params[name] as an int: 2 and 2.0 pass; 2.5, true and "x" raise, naming the parameter."""
    value = params[name]
    try:
        if not isinstance(value, (bool, np.bool_)) and float(value).is_integer():
            return int(value) if isinstance(value, (int, np.integer)) else int(float(value))
    except (TypeError, ValueError, OverflowError):
        pass
    raise DistributionError(f"{name}: an integer is required, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float_param(params: dict, name: str) -> float:
    """params[name] as a float: finite numbers pass; true, "0.5", null, nan and inf raise,
    naming the parameter."""
    value = params[name]
    if not _is_real(value):
        raise DistributionError(f"{name}: a number is required, got {value!r}")
    if not math.isfinite(value):
        raise DistributionError(f"{name}: a finite number is required, got {value!r}")
    return float(value)


def _floats_param(params: dict, name: str) -> tuple:
    """params[name] as a tuple of floats: a list of finite numbers passes; 0.5, "0.5", [true]
    and [nan] raise."""
    value = params[name]
    if isinstance(value, (list, tuple, np.ndarray)) and all(
            _is_real(v) and math.isfinite(v) for v in value):
        return tuple(float(v) for v in value)
    raise DistributionError(f"{name}: a list of finite numbers is required, got {value!r}")


# family: (constructor, {parameter: parser}), parameters in constructor order
_FAMILIES = {
    "dirac": (Dirac, {"m": _int_param}),
    "uniform": (UniformRange, {"m": _int_param}),
    "binomial": (Binomial, {"n": _int_param, "pi": _float_param}),
    "poisson": (Poisson, {"lam": _float_param}),
    "negbinomial": (NegBinomial, {"r": _int_param, "pi": _float_param}),
    "geometric": (geometric, {"pi": _float_param}),
    "twopoint": (TwoPoint, {"pi": _float_param, "d": _int_param}),
    "explicit": (Explicit, {"pmf": _floats_param}),
}


def distribution_from_json(obj: dict) -> OffspringDistribution:
    """Build a distribution from {"family": ..., "params": {...}}."""
    try:
        family = obj["family"]
        params = obj.get("params", {})
    except (TypeError, KeyError) as exc:
        raise DistributionError(f"malformed distribution spec: {obj!r}") from exc
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DistributionError(f"family: unknown offspring family {family!r}")
    if not isinstance(params, dict):
        raise DistributionError(f"params: an object is required, got {params!r}")
    constructor, parsers = _FAMILIES[family]
    try:
        return constructor(*(parse(params, name) for name, parse in parsers.items()))
    except KeyError as exc:
        raise DistributionError(f"{exc.args[0]}: missing distribution parameter") from exc
