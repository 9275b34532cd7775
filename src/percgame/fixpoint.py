"""Fixed-point machinery for the win/loss/draw probabilities.

The probabilities of the first mover losing (matrix L, entries indexed by the
two starting capitals) and winning (matrix W) are the extreme fixed points of
a monotone operator h acting on the set of (kappa-1) x (kappa-1) matrices
with entries in [0, 1]:

    h(X) = f[ p_m1 e1 1^T + P (J - f(p_m1 1 e1^T + (J - X) P^T)) ]

where f applies the offspring generating function G entrywise, P is the
tridiagonal matrix of edge-weight probabilities and J the all-ones matrix.
h is the two-fold composition of the simpler map

    g(X) = f[ p_m1 e1 1^T + P (J - X^T) ],

and iterating the win/loss recurrences from zero produces monotone sequences
converging to L from below and to J - W from above.  Their difference is the
draw matrix D; D = 0 exactly when h has a unique fixed point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .offspring import OffspringDistribution, distribution_from_json

logger = logging.getLogger(__name__)

MAX_KAPPA = 1024

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6
# fixed thresholds, not settings: the |gap| solve clamps to a zero draw, the
# draw above which classify_draw says POSITIVE, and the max-norm distance
# within which find_fixed_points merges two limits
DEFAULT_DRAW_EPSILON = 1e-8
DEFAULT_POSITIVE_THRESHOLD = 1e-6
DEFAULT_CLUSTER_RADIUS = 1e-6
DEFAULT_SEED_GRID_RANDOM = 64
SEED_GRID_RNG_SEED = 20240817


class InternalInconsistencyError(RuntimeError):
    """A structural guarantee of the model was violated numerically."""


@dataclass(frozen=True)
class EdgeWeightLaw:
    """Probabilities of the edge weights -1, 0, +1."""

    p_minus1: float
    p_0: float
    p_1: float

    def __post_init__(self):
        probs = (self.p_minus1, self.p_0, self.p_1)
        # written so that NaN fails each test
        if not all(-1e-12 <= p <= 1.0 + 1e-12 for p in probs):
            raise ValueError(f"edge-weight probabilities must lie in [0, 1]: {probs}")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError(f"edge-weight probabilities must sum to 1: {probs}")
        # absorb float roundoff from arithmetic like 1 - p0 - p1
        for name in ("p_minus1", "p_0", "p_1"):
            object.__setattr__(self, name, float(min(1.0, max(0.0, getattr(self, name)))))

    @classmethod
    def from_p0_p1(cls, p_0: float, p_1: float) -> "EdgeWeightLaw":
        return cls(1.0 - p_0 - p_1, p_0, p_1)

    @property
    def strictly_positive(self) -> bool:
        return self.p_minus1 > 0.0 and self.p_0 > 0.0 and self.p_1 > 0.0

    def to_json(self) -> dict:
        return {"p_minus1": self.p_minus1, "p_0": self.p_0, "p_1": self.p_1}

    @classmethod
    def from_json(cls, obj: dict) -> "EdgeWeightLaw":
        return cls(float(obj["p_minus1"]), float(obj["p_0"]), float(obj["p_1"]))


@dataclass(frozen=True)
class GameSpec:
    """Target capital kappa plus offspring law and edge-weight law.

    Interior capital pairs run over {1, ..., kappa-1}^2; kappa = 1 leaves no
    interior state, so kappa >= 2 is required.
    """

    kappa: int
    dist: OffspringDistribution
    law: EdgeWeightLaw

    def __post_init__(self):
        if not (isinstance(self.kappa, (int, np.integer)) and self.kappa >= 2):
            raise ValueError("kappa must be an integer >= 2")
        if self.kappa > MAX_KAPPA:
            raise ValueError(f"kappa too large (limit {MAX_KAPPA})")

    @property
    def size(self) -> int:
        return self.kappa - 1

    def to_json(self) -> dict:
        return {"kappa": self.kappa, "dist": self.dist.to_json(), "law": self.law.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "GameSpec":
        return cls(obj["kappa"], distribution_from_json(obj["dist"]), EdgeWeightLaw.from_json(obj["law"]))


class Verdict(Enum):
    ZERO = "ZERO"
    POSITIVE = "POSITIVE"
    INCONCLUSIVE = "INCONCLUSIVE"


def _check_nonnegative(**values) -> None:
    """Reject a negative or NaN solver setting with a ValueError naming it."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")


def ensure_prob_matrix(X, size: int) -> np.ndarray:
    """Validate an element of the operator domain: size x size, entries in [0, 1], no NaN."""
    A = np.asarray(X, dtype=float)
    if A.shape != (size, size):
        raise ValueError(f"matrix has shape {A.shape}, expected {(size, size)}")
    if not (A.min() >= -1e-12 and A.max() <= 1.0 + 1e-12):
        raise ValueError("matrix entries must lie in [0, 1]")
    return np.clip(A, 0.0, 1.0)


def weight_matrix(spec: GameSpec) -> np.ndarray:
    """Tridiagonal matrix P with P[i, i-1] = p_m1, P[i, i] = p_0, P[i, i+1] = p_1."""
    n = spec.size
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, idx] = spec.law.p_0
    P[idx[:-1], idx[:-1] + 1] = spec.law.p_1
    P[idx[1:], idx[1:] - 1] = spec.law.p_minus1
    return P


def apply_f(dist: OffspringDistribution, A) -> np.ndarray:
    """Apply the generating function entrywise."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return np.asarray(dist.pgf(np.clip(A, 0.0, 1.0)))


def _stencil_buffers(shape: tuple) -> tuple:
    """Working arrays of _edge_mix for inputs of `shape` (..., n, n): views of one
    padded array whose boundary columns already hold 1 and 0 (columns 0..n-1,
    the interior 1..n and 2..n+1), then the mix and a work array for one term."""
    n = shape[-1]
    padded = np.empty(shape[:-1] + (n + 2,))
    padded[..., 0] = 1.0
    padded[..., n + 1] = 0.0
    return (padded[..., 0:n], padded[..., 1:n + 1], padded[..., 2:n + 2],
            np.empty(shape), np.empty(shape))


def _edge_mix(C: np.ndarray, p1: float, p0: float, pm1: float,
              _buffers: tuple = None) -> np.ndarray:
    """The edge-weight stencil out[i, j] = pm1 c[j, i-1] + p0 c[j, i] + p1 c[j, i+1]
    for i, j = 1..kappa-1, where c is C (columns 1..kappa-1) padded with the
    boundary values c[j, 0] = 1 and c[j, kappa] = 0; leading axes are batch axes.

    The result is a view of the mix buffer.  A loop passes its own
    _stencil_buffers so nothing is allocated, and may have written C into
    their interior already.
    """
    buffers = _stencil_buffers(C.shape) if _buffers is None else _buffers
    left, interior, right, mix, term = buffers
    if C is not interior:
        interior[...] = C
    np.multiply(left, pm1, out=mix)
    np.multiply(interior, p0, out=term)
    mix += term
    np.multiply(right, p1, out=term)
    mix += term
    return mix.swapaxes(-1, -2)


def _g_fast(dist_pgf, p1: float, p0: float, pm1: float, X: np.ndarray,
            _buffers: tuple = None) -> np.ndarray:
    """g(X) = G(_edge_mix(1 - X)); leading axes of X are batch axes.  A loop
    passes its own _stencil_buffers for X's shape."""
    buffers = _stencil_buffers(X.shape) if _buffers is None else _buffers
    np.subtract(1.0, X, out=buffers[1])
    return np.asarray(dist_pgf(_edge_mix(buffers[1], p1, p0, pm1, buffers)))


def apply_g(spec: GameSpec, X) -> np.ndarray:
    """One half-step of the fixed-point operator: g(X) = f[p_m1 e1 1^T + P(J - X^T)]."""
    X = ensure_prob_matrix(X, spec.size)
    return _g_fast(spec.dist.pgf, spec.law.p_1, spec.law.p_0, spec.law.p_minus1, X)


def apply_h(spec: GameSpec, X) -> np.ndarray:
    """The full operator, computed from its one-shot matrix expression.

    Kept deliberately independent of apply_g so the identity h = g(g(.)) can
    serve as a cross-check of both implementations.
    """
    X = ensure_prob_matrix(X, spec.size)
    n = spec.size
    P = weight_matrix(spec)
    J = np.ones((n, n))
    e1_row = np.zeros((n, n))
    e1_row[0, :] = 1.0   # e1 1^T
    e1_col = np.zeros((n, n))
    e1_col[:, 0] = 1.0   # 1 e1^T
    pm1 = spec.law.p_minus1
    inner = apply_f(spec.dist, pm1 * e1_col + (J - X) @ P.T)
    return apply_f(spec.dist, pm1 * e1_row + P @ (J - inner))


@dataclass
class IterationRun:
    """Monotone iteration of the win/loss recurrences from the zero start."""

    ell: np.ndarray
    w: np.ndarray
    iterations: int
    delta: float
    converged: bool
    ell_iterates: Optional[list] = None
    w_iterates: Optional[list] = None


def iterate_from_below(spec: GameSpec, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER,
                       keep_iterates: bool = False) -> IterationRun:
    """Run the alternating loss/win recurrences from the all-zero start.

    Each step applies

        ell'[i, j] = G(p1 w[j, i+1] + p0 w[j, i] + pm1 w[j, i-1])
        w'[i, j]   = 1 - G(1 - p1 ell[j, i+1] - p0 ell[j, i] - pm1 ell[j, i-1])

    with the constant boundary values w[j, 0] = 1, w[j, kappa] = 0,
    ell[j, 0] = 0, ell[j, kappa] = 1.  Both sequences increase monotonically
    to the loss matrix L and the win matrix W.  Stops once the max-norm
    change of both falls below tol.

    The pair advances as one stack Z = (ybar, ell), ybar = 1 - w: since
    g(ybar) = ell' and g(ell) = ybar', one operator call gives Z' = g(Z)[::-1].
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    pgf = spec.dist.pgf
    Z = np.stack([np.ones((n, n)), np.zeros((n, n))])
    buffers = _stencil_buffers(Z.shape)
    step = np.empty(Z.shape)
    ells = [Z[1].copy()] if keep_iterates else None
    ws = [np.zeros((n, n))] if keep_iterates else None
    delta = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        Z_next = _g_fast(pgf, p1, p0, pm1, Z, buffers)[::-1]
        np.subtract(Z_next, Z, out=step)
        step[0] *= -1.0               # both halves now hold increases: of w and of ell
        low = step.min()
        if low < -1e-12:
            raise InternalInconsistencyError("monotone iteration moved backwards")
        delta = max(step.max(), -low)  # the max-norm change of both
        Z = Z_next
        if keep_iterates:
            ells.append(Z[1].copy())
            ws.append(1.0 - Z[0])
        if delta < tol:
            converged = True
            break
    else:
        if max_iter == 0:
            converged = True  # degenerate request: the start is the answer
    if tol == 0.0:
        converged = True      # fixed-step run, e.g. horizon iterates
    return IterationRun(ell=Z[1], w=1.0 - Z[0], iterations=it, delta=float(delta) if delta != np.inf else 0.0,
                        converged=converged, ell_iterates=ells, w_iterates=ws)


def horizon_iterates(spec: GameSpec, horizon: int):
    """Exact finite-horizon probabilities ell^(n), w^(n) for n = 0..horizon."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    run = iterate_from_below(spec, tol=0.0, max_iter=horizon, keep_iterates=True)
    return run.ell_iterates, run.w_iterates


@dataclass
class SolveResult:
    """Converged loss/win/draw matrices for one game specification."""

    spec: GameSpec
    L: np.ndarray
    W: np.ndarray
    D: np.ndarray                  # draw matrix, small entries clamped to 0
    gap: np.ndarray                # raw 1 - W - L before clamping
    iterations: int
    residual: float
    converged: bool
    tol: float = DEFAULT_TOL

    def to_json_dict(self) -> dict:
        return {
            "L": self.L.tolist(),
            "W": self.W.tolist(),
            "D": self.D.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


def solve(spec: GameSpec, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Compute L, W and the draw matrix D = J - W - L.

    Entries of the raw gap no larger than DEFAULT_DRAW_EPSILON are clamped to
    zero: they are indistinguishable from iteration residue.  After
    convergence the extremes are verified to be fixed points of the full
    operator within 10 * tol.
    """
    run = iterate_from_below(spec, tol=tol, max_iter=max_iter)
    L, W = run.ell, run.w
    gap = 1.0 - W - L
    if np.any(gap < -max(10 * tol, 1e-15)):
        raise InternalInconsistencyError("draw matrix has a significantly negative entry")
    D = np.where(np.abs(gap) <= DEFAULT_DRAW_EPSILON, 0.0, np.maximum(gap, 0.0))
    ybar = 1.0 - W
    residual = max(float(np.max(np.abs(apply_h(spec, L) - L))),
                   float(np.max(np.abs(apply_h(spec, ybar) - ybar))))
    converged = run.converged and residual <= 10 * tol
    return SolveResult(spec=spec, L=L, W=W, D=D, gap=gap, iterations=run.iterations,
                       residual=residual, converged=converged, tol=tol)


def default_seed_matrices(kappa: int, n_random: int = DEFAULT_SEED_GRID_RANDOM) -> list:
    """Multi-start grid: all-zeros, all-ones, constant levels, random matrices."""
    n = kappa - 1
    seeds = [np.zeros((n, n)), np.ones((n, n))]
    seeds += [np.full((n, n), c) for c in np.arange(0.1, 0.95, 0.1)]
    rng = np.random.default_rng(SEED_GRID_RNG_SEED)
    seeds += [rng.random((n, n)) for _ in range(n_random)]
    return seeds


def find_fixed_points(spec: GameSpec, seeds: Optional[Sequence] = None,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Locate fixed points of h by iterating from many starting matrices.

    Limits closer than DEFAULT_CLUSTER_RADIUS in max-norm are merged.  Seeds
    whose orbit fails to settle within max_iter are dropped with a warning.
    The distinct limits are returned sorted lexicographically by their
    entries, an order that extends the entrywise partial order.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    if seeds is None:
        seeds = default_seed_matrices(spec.kappa)
    if len(seeds) == 0:
        return []
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    pgf = spec.dist.pgf
    # one stack of all seeds; a seed freezes at its first h-step changing less than tol
    X = np.stack([ensure_prob_matrix(seed_matrix, spec.size) for seed_matrix in seeds])
    active = np.arange(len(X))
    for _ in range(max_iter):
        Xn = _g_fast(pgf, p1, p0, pm1, _g_fast(pgf, p1, p0, pm1, X[active]))
        moving = ~(np.max(np.abs(Xn - X[active]), axis=(1, 2)) < tol)
        X[active] = Xn
        active = active[moving]
        if not active.size:
            break
    dropped = active.size
    found = []
    for F in np.delete(X, active, axis=0):
        if not any(np.max(np.abs(F - G)) < DEFAULT_CLUSTER_RADIUS for G in found):
            found.append(F)
    if dropped:
        logger.warning("find_fixed_points: dropped %d non-converging seed(s)", dropped)
    found.sort(key=lambda F: tuple(F.ravel()))
    return found


def classify_draw(result: SolveResult) -> np.ndarray:
    """Per-entry draw verdicts from a converged solve.

    An entry is ZERO below 10 * tol, POSITIVE above DEFAULT_POSITIVE_THRESHOLD
    and INCONCLUSIVE in between.  When all three edge-weight probabilities are
    strictly positive the draw probabilities vanish jointly or are jointly
    positive, so one POSITIVE entry promotes every entry; a simultaneous
    ZERO and POSITIVE in that regime is reported as an internal error.
    """
    if not result.converged:
        raise ValueError("classify_draw requires a converged solve result")
    D = result.D
    verdicts = np.empty(D.shape, dtype=object)
    verdicts[...] = Verdict.INCONCLUSIVE
    verdicts[D < 10 * result.tol] = Verdict.ZERO
    verdicts[D > DEFAULT_POSITIVE_THRESHOLD] = Verdict.POSITIVE
    if result.spec.law.strictly_positive:
        has_pos = bool(np.any(verdicts == Verdict.POSITIVE))
        has_zero = bool(np.any(verdicts == Verdict.ZERO))
        if has_pos and has_zero:
            raise InternalInconsistencyError(
                "mixed ZERO and POSITIVE draw verdicts under a strictly positive edge-weight law")
        if has_pos:
            verdicts[...] = Verdict.POSITIVE
    return verdicts
