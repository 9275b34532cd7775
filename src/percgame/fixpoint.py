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
# the most matrix entries one stack of specs holds (the rest run in further stacks), so
# memory stays flat at large kappa; a stack pays at small kappa, where a step costs
# mostly numpy call overhead
MAX_STACK_ENTRIES = 2**16


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


def _spec_stack(spec) -> tuple:
    """(specs, batched) for one GameSpec or a list of GameSpecs that share kappa and
    offspring law; a list of other specs is refused with a ValueError."""
    if isinstance(spec, GameSpec):
        return [spec], False
    specs = list(spec)
    if any(s.kappa != specs[0].kappa or s.dist != specs[0].dist for s in specs):
        raise ValueError("a list of specs must share kappa and the offspring law")
    return specs, True


def _stacks(specs: list, copies: int):
    """Consecutive runs of specs, each taking `copies` n x n matrices of a stack, such
    that a stack holds at most MAX_STACK_ENTRIES entries (and at least one spec)."""
    per_stack = max(1, MAX_STACK_ENTRIES // (copies * specs[0].size ** 2)) if specs else 1
    return (specs[lo:lo + per_stack] for lo in range(0, len(specs), per_stack))


def _law_columns(specs: list, ndim: int, repeat: int = 1) -> tuple:
    """p_1, p_0 and p_m1 per stack row, each spec's value `repeat` times, as arrays of
    shape (rows, 1, ..., 1) that broadcast over an ndim-dimensional stack; a value
    every spec shares stays a float, the cheaper operand of a ufunc."""
    columns = []
    for name in ("p_1", "p_0", "p_minus1"):
        values = [getattr(s.law, name) for s in specs]
        if values.count(values[0]) == len(values):
            columns.append(values[0])
        else:
            columns.append(np.repeat(values, repeat).reshape((-1,) + (1,) * (ndim - 1)))
    return tuple(columns)


def _rows(columns: tuple, keep: np.ndarray) -> tuple:
    """The law columns of the stack rows where keep is True."""
    return tuple(c if isinstance(c, float) else c[keep] for c in columns)


def iterate_from_below(spec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                       keep_iterates: bool = False):
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
    A list of specs sharing kappa and offspring law advances as one stack of
    such pairs and gives a list of runs; each spec leaves the stack at its own
    first step below tol, so its run equals the one it gets alone.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    specs, batched = _spec_stack(spec)
    runs = []
    for stack in _stacks(specs, 2):
        runs += _iterate_stack(stack, tol, max_iter, keep_iterates)
    return runs if batched else runs[0]


def _iterate_stack(specs: list, tol: float, max_iter: int, keep_iterates: bool) -> list:
    """iterate_from_below for one stack of specs, Z of shape (specs, 2, n, n)."""
    n = specs[0].size
    pgf = specs[0].dist.pgf
    laws = _law_columns(specs, 4)
    Z = np.empty((len(specs), 2, n, n))
    Z[:, 0] = 1.0
    Z[:, 1] = 0.0
    cells = list(range(len(specs)))     # the spec of each stack row
    runs = [None] * len(specs)
    ells = [[np.zeros((n, n))] for _ in specs] if keep_iterates else [None] * len(specs)
    ws = [[np.zeros((n, n))] for _ in specs] if keep_iterates else [None] * len(specs)
    delta = np.zeros(len(specs))        # what a run that takes no step reports

    def finish(row: int, converged: bool) -> None:
        cell = cells[row]
        runs[cell] = IterationRun(ell=Z[row, 1], w=1.0 - Z[row, 0], iterations=it,
                                  delta=float(delta[row]), converged=converged,
                                  ell_iterates=ells[cell], w_iterates=ws[cell])

    it = 0
    while cells:
        buffers = _stencil_buffers(Z.shape)
        step = np.empty(Z.shape)
        w_half, flat = step[:, 0], step.reshape(len(Z), -1)
        first = it + 1
        for it in range(first, max_iter + 1):
            Z_next = _g_fast(pgf, *laws, Z, buffers)[:, ::-1]
            np.subtract(Z_next, Z, out=step)
            w_half *= -1.0            # both halves now hold increases: of w and of ell
            if np.minimum.reduce(flat, None) < -1e-12:
                raise InternalInconsistencyError("monotone iteration moved backwards")
            Z = Z_next
            if keep_iterates:
                for row, cell in enumerate(cells):
                    ells[cell].append(Z[row, 1].copy())
                    ws[cell].append(1.0 - Z[row, 0])
            # the largest increase bounds a spec's max-norm change from below, so only
            # a spec whose increases all stay below tol can stop at this step
            if np.minimum.reduce(np.maximum.reduce(flat, 1)) < tol:
                delta = np.maximum.reduce(np.abs(flat), 1)   # max-norm change per spec
                if np.minimum.reduce(delta) < tol:
                    break
        else:                           # max_iter steps taken
            if it >= first:             # report the change of this stack's last step
                delta = np.maximum.reduce(np.abs(flat), 1)
            break
        done = delta < tol
        for row in np.flatnonzero(done):
            finish(row, True)
        keep = ~done
        Z, delta, laws = Z[keep], delta[keep], _rows(laws, keep)
        cells = [cell for cell, kept in zip(cells, keep) if kept]
    for row in range(len(cells)):
        # a degenerate request (max_iter 0: the start is the answer) and a fixed-step
        # run (tol 0, e.g. horizon iterates) count as converged
        finish(row, max_iter == 0 or tol == 0.0)
    return runs


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


class SolveResults(list):
    """The SolveResults of a list-`solve`, in spec order.  `converged` and `iterations`
    read the list as one result's fields read one spec (every spec converged; the steps
    of all specs), so a caller that counts results, such as the benchmark's span
    counter in perfbench/spans.py, reads a list-solve too."""

    @property
    def converged(self) -> bool:
        return all(result.converged for result in self)

    @property
    def iterations(self) -> int:
        return sum(result.iterations for result in self)


def solve(spec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Compute L, W and the draw matrix D = J - W - L.

    Entries of the raw gap no larger than DEFAULT_DRAW_EPSILON are clamped to
    zero: they are indistinguishable from iteration residue.  After
    convergence the extremes are verified to be fixed points of the full
    operator within 10 * tol.  A list of specs sharing kappa and offspring law
    iterates as one stack (iterate_from_below) and gives the list of the
    results each spec gets alone.
    """
    specs, batched = _spec_stack(spec)
    runs = iterate_from_below(specs, tol=tol, max_iter=max_iter)
    results = SolveResults(_solve_result(s, run, tol) for s, run in zip(specs, runs))
    return results if batched else results[0]


def _solve_result(spec: GameSpec, run: IterationRun, tol: float) -> SolveResult:
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


def find_fixed_points(spec, seeds: Optional[Sequence] = None,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Locate fixed points of h by iterating from many starting matrices.

    Limits closer than DEFAULT_CLUSTER_RADIUS in max-norm are merged.  Seeds
    whose orbit fails to settle within max_iter are dropped with a warning.
    The distinct limits are returned sorted lexicographically by their
    entries, an order that extends the entrywise partial order.  A list of
    specs sharing kappa and offspring law starts every spec from the same seeds
    in one stack and gives the list of the points each spec gets alone.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    specs, batched = _spec_stack(spec)
    if seeds is None and specs:
        seeds = default_seed_matrices(specs[0].kappa)
    found = [[] for _ in specs]
    if specs and len(seeds):
        starts = np.stack([ensure_prob_matrix(seed_matrix, specs[0].size) for seed_matrix in seeds])
        found = [points for stack in _stacks(specs, len(starts))
                 for points in _multi_start(stack, starts, tol, max_iter)]
    return found if batched else found[0]


def _multi_start(specs: list, starts: np.ndarray, tol: float, max_iter: int) -> list:
    """find_fixed_points for one stack: every spec from every start, a row per pair."""
    pgf = specs[0].dist.pgf
    n_seeds = len(starts)
    laws = _law_columns(specs, 3, repeat=n_seeds)
    X = np.concatenate([starts] * len(specs))     # spec-major, then seed order
    settled = np.zeros(len(X), dtype=bool)
    rows = np.arange(len(X))                      # the row of X each live orbit belongs to
    live = X
    buffers = _stencil_buffers(live.shape)
    # a seed freezes at its first h-step changing less than tol
    for _ in range(max_iter):
        nxt = _g_fast(pgf, *laws, _g_fast(pgf, *laws, live, buffers), buffers)
        moving = ~(np.max(np.abs(nxt - live), axis=(1, 2)) < tol)
        live = nxt
        if moving.all():
            continue
        frozen = rows[~moving]
        X[frozen] = live[~moving]
        settled[frozen] = True
        rows, live, laws = rows[moving], live[moving], _rows(laws, moving)
        if not rows.size:
            break
        buffers = _stencil_buffers(live.shape)
    found = []
    for limits, ok in zip(X.reshape((len(specs),) + starts.shape),
                          settled.reshape(len(specs), n_seeds)):
        dropped = n_seeds - np.count_nonzero(ok)
        if dropped:
            logger.warning("find_fixed_points: dropped %d non-converging seed(s)", dropped)
        found.append(_merge(limits[ok]))
    return found


def _merge(limits: np.ndarray) -> list:
    """The limits sorted, less each one within DEFAULT_CLUSTER_RADIUS of an earlier
    kept limit: the greedy merge in seed order, comparing each kept limit with all
    later ones in one array operation."""
    kept = []
    rest = np.arange(len(limits))
    while rest.size:
        F = limits[rest[0]]
        kept.append(F)
        rest = rest[~(np.max(np.abs(limits[rest] - F), axis=(1, 2)) < DEFAULT_CLUSTER_RADIUS)]
    kept.sort(key=lambda F: tuple(F.ravel()))
    return kept


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
