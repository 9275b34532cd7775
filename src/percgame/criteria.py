"""Closed-form certificates about the draw probabilities and game duration.

Four groups of tests:

* target capital 2: exact phase boundaries deciding d = 0 for the binomial
  (and Dirac, as binomial with pi = 1), Poisson, negative binomial and
  two-point offspring families;
* target capital 3: lower bounds A on the loss probabilities, upper bounds B
  on one minus the win probabilities, and contraction coefficients E built
  from them -- max E < 1 certifies a unique fixed point, hence no draws;
* target capital 3 special regimes: the 1 : a : a^2 weight-ratio interval
  test on the binary tree, and the p_0 = 0 product test;
* the duration certificate: with all draws zero, row sums below 1 of a
  coefficient matrix built from G' at the win/loss mixtures imply finite
  expected game length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixpoint import (DEFAULT_DRAW_EPSILON, EdgeWeightLaw, InternalInconsistencyError,
                       SolveResult, Verdict, _edge_mix, classify_draw)
from .offspring import Binomial, Dirac, NegBinomial, OffspringDistribution, Poisson, TwoPoint

# Interval endpoints for the 1 : a : a^2 weight-ratio certificate on the
# binary tree, as published (6 significant figures, no derivation shown).
SPECIAL_RATIO_LOW = 0.242915
SPECIAL_RATIO_HIGH = 2.57162


class UnsupportedFamilyError(ValueError):
    """The requested closed-form test does not cover this offspring family."""


# ---------------------------------------------------------------------------
# target capital 2
# ---------------------------------------------------------------------------

def kappa2_draw_zero(dist: OffspringDistribution, law: EdgeWeightLaw) -> bool:
    """Exact draw-probability dichotomy at target capital 2.

    Returns True when the draw probability d_{1,1} is zero, which holds iff
    the family-specific inequality below is satisfied.  Dirac(m) is Binomial(m, 1)
    and takes the binomial test.  The ratios of powers (d + 1)^(d - 1) / d^d and
    (r - 1)^(r + 1) / r^r enter as their nearest floats, found from a float form
    unless the verdict lies within RATIO_MARGIN of it (_at_power_ratio).
    """
    p0, p1, pm1 = law.p_0, law.p_1, law.p_minus1
    if isinstance(dist, Dirac):
        dist = Binomial(dist.m, 1.0)
    if isinstance(dist, Binomial):
        d, pi = int(dist.n), dist.pi
        if d < 2:
            raise UnsupportedFamilyError("binomial test requires n >= 2 (dirac: m >= 2)")
        lhs = p0 * pi * (1.0 - pi * p1) ** (d - 1)
        return _at_power_ratio(lambda c: lhs <= c, _binomial_ratio(d), (d + 1, d - 1, d, d))
    if isinstance(dist, Poisson):
        return p0 * dist.lam * math.exp(-dist.lam * p1) <= math.e
    if isinstance(dist, NegBinomial):
        r, pi = int(dist.r), dist.pi
        q = p1 + pi - p1 * pi   # both sides over r^r q^r: pi^r and q^(r+1) would underflow together
        tail = (pi / q) ** r
        return _at_power_ratio(lambda c: c * (1.0 - pi) * p0 * tail <= q, _negbin_ratio(r),
                               (r - 1, r + 1, r, r))
    if isinstance(dist, TwoPoint):
        d, pi = int(dist.d), dist.pi
        lhs = p0 * pi * (pi * (1.0 - p1) + pm1 * (1.0 - pi)) ** (d - 1)
        return _at_power_ratio(lambda c: lhs <= c, _binomial_ratio(d), (d + 1, d - 1, d, d))
    raise UnsupportedFamilyError(f"no closed-form capital-2 test for family {dist.family!r}")


# The float forms below round a handful of terms of order 1 (1/d, log1p, one
# product, exp, one product or quotient, each within an ulp or two of 2^-53), so
# they lie within 1e-14 of their ratio, relatively, and so does the ratio's
# nearest float: both sit well inside this margin around the float form.
RATIO_MARGIN = 1e-12


def _binomial_ratio(d: int) -> float:
    """(d + 1)^(d - 1) / d^d = (1 + 1/d)^(d - 1) / d, from its logarithm."""
    return math.exp((d - 1) * math.log1p(1 / d)) / d


def _negbin_ratio(r: int) -> float:
    """(r - 1)^(r + 1) / r^r = (r - 1) (1 - 1/r)^r, from its logarithm."""
    return (r - 1) * math.exp(r * math.log1p(-1 / r)) if r > 1 else 0.0


def _at_power_ratio(holds, approx: float, powers: tuple) -> bool:
    """holds(c) for c the float nearest a^m / b^k, powers = (a, m, b, k), where holds
    is monotone in c and approx is the ratio's float form.  When holds agrees at both
    ends of approx's RATIO_MARGIN, that is the verdict; only between them are the
    exact big-int powers formed, whose cost grows faster than m and k."""
    ends = {holds(approx * (1.0 - RATIO_MARGIN)), holds(approx * (1.0 + RATIO_MARGIN))}
    if len(ends) == 1:
        return ends.pop()
    a, m, b, k = powers
    return holds(a**m / b**k)


# ---------------------------------------------------------------------------
# target capital 3: contraction bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kappa3Bounds:
    """Probability bounds and contraction coefficients at target capital 3.

    A[i, j] bounds the loss probability from below, B[i, j] bounds one minus
    the win probability from above, and E[i, j] is the per-variable
    contraction coefficient assembled from derivative maxima over the
    [A, B] box.  Bounds of many laws stack them on a leading axis, (laws, 2, 2).
    """

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        if np.any(self.A < -1e-12) or np.any(self.B > 1.0 + 1e-12):
            raise InternalInconsistencyError("bounds escaped [0, 1]")
        if np.any(self.A > self.B + 1e-12):
            raise InternalInconsistencyError("lower bound exceeds upper bound")
        if np.any(self.E < 0):
            raise InternalInconsistencyError("contraction coefficients must be non-negative")


def kappa3_bounds(dist: OffspringDistribution, law) -> Kappa3Bounds:
    """Compute the A/B probability bounds and the coefficients E at kappa = 3.

    The A entries arise from explicit forced-loss events (for instance every
    root edge carrying weight -1), the B entries from forced-win events, and
    E[i, j] sums, over the four composed-map components, the product of the
    inner derivative maximum (attained at A) and the outer derivative maximum
    (attained at B).  `law` is one EdgeWeightLaw, or a sequence of them whose
    bounds come stacked (laws, 2, 2) from the same array operations: each G and
    G' below is one pgf call over every law.
    """
    G = dist.pgf
    Gp = dist.pgf_derivative
    laws = [law] if isinstance(law, EdgeWeightLaw) else law
    p0, p1, pm1 = (np.array([getattr(lw, name) for lw in laws])
                   for name in ("p_0", "p_1", "p_minus1"))

    # every G value that the bounds share, evaluated once; g_m = G(pm1), g_q = G(1 - p1)
    g_m = G(pm1)
    g_q = G(1.0 - p1)
    g_1_gm = G(1.0 - g_m)
    g_1_gq = G(1.0 - g_q)
    g_lose = G(1.0 - (1.0 - pm1) * g_m)
    g_q_gq = G((1.0 - p1) * (1.0 - g_q))
    g_q_gm = G((1.0 - p1) * (1.0 - g_m))
    g_m_gq = G(pm1 * (1.0 - g_q))
    mix = (1.0 - pm1) * (1.0 - g_m) + pm1

    A11 = A12 = g_m
    B21 = B22 = g_q
    A21 = G(pm1 * (1.0 - g_lose))
    A22 = G(pm1 * (1.0 - g_1_gm)) + g_q_gq - G(pm1 * (1.0 - g_q - g_1_gm + g_q_gm))
    B11 = g_lose - G(mix) + G(mix - p1 * g_1_gq + p1 * g_m_gq)
    B12 = G(1.0 - p1 * g_q_gq)
    A = np.stack([A11, A12, A21, A22], -1).reshape(-1, 2, 2)
    B = np.stack([B11, B12, B21, B22], -1).reshape(-1, 2, 2)

    # f1(x1, x2) = G(1 - p1 x2 - p0 x1) and f2(x1, x2) = G(p0 + pm1 - p0 x2 - pm1 x1) at B
    f1B2, f1B1 = G(1.0 - p1 * B22 - p0 * B21), G(1.0 - p1 * B12 - p0 * B11)
    f2B2, f2B1 = G(p0 + pm1 - p0 * B22 - pm1 * B21), G(p0 + pm1 - p0 * B12 - pm1 * B11)
    outer = (Gp(1.0 - p1 * f1B2 - p0 * f1B1),
             Gp(1.0 - p1 * f2B2 - p0 * f2B1),
             Gp(p0 + pm1 - p0 * f1B2 - pm1 * f1B1),
             Gp(p0 + pm1 - p0 * f2B2 - pm1 * f2B1))

    # (p0, pm1) and (p1, p0): the weights of the row-i inner block inside the two outer
    # layers, and the chain factors of |partial_j f1| and |partial_j f2|
    weights = ((p0, pm1), (p1, p0))
    E = np.empty((len(laws), 2, 2))
    for i, (x1, x2) in enumerate(((A11, A12), (A21, A22))):
        w_first, w_second = weights[i]
        gp1 = Gp(1.0 - p1 * x2 - p0 * x1)
        gp2 = Gp(p0 + pm1 - p0 * x2 - pm1 * x1)
        for j, (c1, c2) in enumerate(weights):
            d1, d2 = c1 * gp1, c2 * gp2
            E[:, i, j] = (w_first * d1 * outer[0] + w_first * d2 * outer[1]
                          + w_second * d1 * outer[2] + w_second * d2 * outer[3])
    if isinstance(law, EdgeWeightLaw):
        return Kappa3Bounds(A=A[0], B=B[0], E=E[0])
    return Kappa3Bounds(A=A, B=B, E=E)


def kappa3_contraction_holds(bounds: Kappa3Bounds):
    """True when every contraction coefficient is below 1; for stacked bounds, a
    boolean array with one such verdict per law.

    Sufficient for all four draw probabilities at kappa = 3 to vanish; the
    converse does not hold.
    """
    holds = np.max(bounds.E, axis=(-2, -1)) < 1.0
    return bool(holds) if holds.ndim == 0 else holds


# ---------------------------------------------------------------------------
# target capital 3: special regimes
# ---------------------------------------------------------------------------

def ratio_law(alpha: float) -> EdgeWeightLaw:
    """Edge-weight law with probabilities in ratio 1 : alpha : alpha^2 for
    weights -1, 0, +1."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    z = 1.0 + alpha + alpha * alpha
    return EdgeWeightLaw(1.0 / z, alpha / z, alpha * alpha / z)


def kappa3_special_ratio(alpha: float) -> bool:
    """Binary tree, weights in ratio 1 : alpha : alpha^2 at kappa = 3.

    True certifies that all four draw probabilities vanish; False is
    inconclusive (not a proof of a positive draw).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return alpha < SPECIAL_RATIO_LOW or alpha > SPECIAL_RATIO_HIGH


def kappa3_p0_zero_check(dist: OffspringDistribution, p_minus1: float) -> bool:
    """Sufficient product test for zero draws at kappa = 3 when p_0 = 0.

    Evaluates p_m1 (1 - p_m1) G'(1 - (1 - p_m1) G(p_m1)) G'(p_m1 (1 - G(p_m1)))
    and returns True when it is below 1, certifying that all four draw
    probabilities vanish.
    """
    if not 0.0 <= p_minus1 <= 1.0:
        raise ValueError("p_minus1 must lie in [0, 1]")
    g = dist.pgf(p_minus1)
    Gp = dist.pgf_derivative
    product = (p_minus1 * (1.0 - p_minus1)
               * Gp(1.0 - (1.0 - p_minus1) * g) * Gp(p_minus1 * (1.0 - g)))
    return bool(product < 1.0)


# ---------------------------------------------------------------------------
# duration certificate
# ---------------------------------------------------------------------------

@dataclass
class DurationReport:
    """Row-sum certificate for finite expected game duration.

    alpha[i, j] mixes the win probabilities of the responding player over the
    mover's shifted capital, beta[i, j] does the same with one minus the loss
    probabilities; they coincide when all draws vanish.  criterion_holds is
    True when draws_zero holds and every row sum of the coefficient matrix is
    strictly below 1 (a tie reports False).
    """

    alpha: np.ndarray
    beta: np.ndarray
    row_sums: np.ndarray
    criterion_holds: bool
    draws_zero: bool

    def to_json_dict(self) -> dict:
        rows, cols = self.row_sums.shape
        ends = [f",{j}" for j in range(1, cols + 1)]     # each ",j" of the "i,j" keys once
        return {
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "row_sums": dict(zip((i + j for i in map(str, range(1, rows + 1)) for j in ends),
                                 self.row_sums.ravel().tolist())),
            "criterion_holds": self.criterion_holds,
            "draws_zero": self.draws_zero,
        }


def duration_criterion(result: SolveResult) -> DurationReport:
    """Evaluate the finite-expected-duration certificate of the solved game result.spec.

    Requires a strictly positive edge-weight law and a converged solve.  The
    draw verdicts are `classify_draw(result)`.  When any verdict is not ZERO
    the report still carries alpha, beta and the row sums as diagnostics with
    criterion_holds False.

    alpha = _edge_mix(W) and beta = _edge_mix(1 - L) use the operator's stencil
    (fixpoint._edge_mix), so beta - alpha mixes entries of the raw gap
    1 - W - L (the padded boundary columns contribute 0) and is bounded by the
    largest |gap|.  An all-ZERO verdict already accepted every |gap| up to
    max(DEFAULT_DRAW_EPSILON, 10 * tol) of the solve; alpha and beta are held
    to that same slack, plus 1e-15 of rounding.
    """
    spec = result.spec
    if not spec.law.strictly_positive:
        raise ValueError("duration criterion requires p_minus1, p_0, p_1 all positive")
    if not result.converged:
        raise ValueError("duration criterion requires a converged solve result")
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    Gp = spec.dist.pgf_derivative

    alpha = _edge_mix(result.W, p1, p0, pm1)
    beta = _edge_mix(1.0 - result.L, p1, p0, pm1)

    verdicts = classify_draw(result)
    draws_zero = bool(np.all(verdicts == Verdict.ZERO))
    slack = max(DEFAULT_DRAW_EPSILON, 10 * result.tol) + 1e-15
    if draws_zero and float(np.max(np.abs(alpha - beta))) > slack:
        raise InternalInconsistencyError(
            "alpha and beta disagree beyond tolerance although all draws are zero")

    # row (i', j') sums Gp(beta)[s, t] Gp(alpha)[t, i'] p_{i'-s} p_{j'-t} over s = i'-1+a,
    # t = j'-1+b in (s, t) order; zero padding adds exact zeros for s, t outside 1..kappa-1
    Gp_beta = np.pad(Gp(beta), 1)
    Gp_alpha_T = np.pad(Gp(alpha).T, ((0, 0), (1, 1)))
    weights = (p1, p0, pm1)
    row_sums = sum(Gp_beta[a:a + n, b:b + n] * Gp_alpha_T[:, b:b + n] * weights[a] * weights[b]
                   for a in range(3) for b in range(3))
    criterion_holds = draws_zero and bool(np.all(row_sums < 1.0))
    return DurationReport(alpha=alpha, beta=beta, row_sums=row_sums,
                          criterion_holds=criterion_holds, draws_zero=draws_zero)
