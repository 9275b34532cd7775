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
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

_PGF_DOMAIN_SLACK = 1e-9


class DistributionError(ValueError):
    """Invalid distribution parameters."""


def _check_unit_interval(x: ArrayLike) -> ArrayLike:
    """Validate pgf arguments, tolerating tiny floating-point overshoot; NaN is rejected.

    An array argument comes back as a fresh clipped copy that the caller may
    overwrite (a numpy scalar for a 0-d array), anything else as a float, so
    augmented assignments on the result serve every kind of argument.
    """
    arr = np.asarray(x, dtype=float)
    # the ufunc reductions and the clip method, not their np.* wrappers: this runs every step
    if arr.size and not (np.minimum.reduce(arr, None) >= -_PGF_DOMAIN_SLACK
                         and np.maximum.reduce(arr, None) <= 1.0 + _PGF_DOMAIN_SLACK):
        raise DistributionError(f"pgf argument outside [0, 1]: {x!r}")
    clipped = arr.clip(0.0, 1.0)
    return clipped if isinstance(x, np.ndarray) else float(clipped)


def _horner(coeffs, x: ArrayLike) -> ArrayLike:
    """sum_k coeffs[k] x^k by Horner's rule; an array x gives a fresh array."""
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc *= x
        acc += c
    return acc


class OffspringDistribution:
    """Base class; subclasses implement the per-family closed forms."""

    family: str = ""

    def pmf(self, m: int) -> float:
        raise NotImplementedError

    def pgf(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def pgf_derivative(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` child counts as an int64 array."""
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

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

    def pgf(self, x):
        x = _check_unit_interval(x)
        x **= self.m
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.m * x ** (self.m - 1)

    def sample(self, rng, size):
        return np.full(size, self.m, dtype=np.int64)

    def params(self):
        return {"m": self.m}


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

    def pgf(self, x):
        return _horner((0,) + (1,) * self.m, _check_unit_interval(x)) / self.m

    def pgf_derivative(self, x):
        return _horner(range(1, self.m + 1), _check_unit_interval(x)) / self.m

    def sample(self, rng, size):
        return rng.integers(1, self.m + 1, size=size)

    def params(self):
        return {"m": self.m}


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

    def pgf(self, x):
        x = _check_unit_interval(x)
        x *= self.pi
        x += 1.0 - self.pi
        x **= self.n
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.n * self.pi * (1.0 - self.pi + self.pi * x) ** (self.n - 1)

    def sample(self, rng, size):
        return rng.binomial(self.n, self.pi, size=size)

    def params(self):
        return {"n": self.n, "pi": self.pi}


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

    def pgf(self, x):
        x = _check_unit_interval(x)
        x -= 1.0
        x *= self.lam
        return np.exp(x, out=x if isinstance(x, np.ndarray) else None)

    def pgf_derivative(self, x):
        return self.lam * self.pgf(x)

    def sample(self, rng, size):
        return rng.poisson(self.lam, size=size)

    def params(self):
        return {"lam": self.lam}


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

    def pgf(self, x):
        x = _check_unit_interval(x)
        x *= self.pi - 1.0      # fl(pi - 1) = -fl(1 - pi): the same roundings as 1 - (1 - pi) x
        x += 1.0
        x **= -self.r
        x *= self.pi**self.r
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return (self.r * (1.0 - self.pi) * self.pi**self.r
                * (1.0 - (1.0 - self.pi) * x) ** (-self.r - 1))

    def sample(self, rng, size):
        return rng.negative_binomial(self.r, self.pi, size=size)

    def params(self):
        return {"r": self.r, "pi": self.pi}


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

    def pgf(self, x):
        x = _check_unit_interval(x)
        x **= self.d
        x *= self.pi
        x += 1.0 - self.pi
        return x

    def pgf_derivative(self, x):
        x = _check_unit_interval(x)
        return self.pi * self.d * x ** (self.d - 1)

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.pi, self.d, 0).astype(np.int64)

    def params(self):
        return {"pi": self.pi, "d": self.d}


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

    def pgf(self, x):
        return _horner(self.pmf_values, _check_unit_interval(x))

    def pgf_derivative(self, x):
        coeffs = [m * p for m, p in enumerate(self.pmf_values)][1:]
        return _horner(coeffs, _check_unit_interval(x))

    def sample(self, rng, size):
        return rng.choice(len(self.pmf_values), size=size, p=self.pmf_values)

    def params(self):
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
