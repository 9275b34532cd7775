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

import bisect
import logging
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from numpy._core.umath import clip as _clip   # the ufunc that ndarray.clip ends in

from .offspring import _ONE, OffspringDistribution, distribution_from_json

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
# iterate_from_below runs its stop tests once per block of BLOCK_ENTRIES // (stack
# entries) steps, at most MAX_BLOCK_STEPS: at small kappa a test costs numpy call
# overhead like a step, while a stack of half BLOCK_ENTRIES or more (one spec from
# kappa 66 on) tests every step, where a longer block only spills the cache
BLOCK_ENTRIES = 2**14
MAX_BLOCK_STEPS = 32
# a stack that tests every step recomputes only the entries whose inputs changed
# (_box_step) while they fit in boxes whose blocks hold at least BOX_STEP_ENTRIES
# entries fewer than the stack: a box step costs what the whole-stack step spends
# on its box entries plus 4,800 to 9,500 entries' worth (the measured break-even
# medians, BENCH_box_calls.json).  The boxes follow from the boxes of the step
# before, one row and column larger each second step, and shrink to the entries
# that changed in a scan of a step's changes every SCAN_STEPS box steps.
BOX_STEP_ENTRIES = 10000
SCAN_STEPS = 8
# the contraction certificate of find_fixed_points (_unique_fixed_point): the box after
# CERT_BOX_STEPS h-steps, and at most CERT_POWERS products with its bound M of h'
CERT_BOX_STEPS = 8
CERT_POWERS = 64
_ZERO = np.array(0.0)  # with _ONE, the 0-d bounds of a step's clip


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
    return _unit_entries(A)


def _ensure_prob_stack(matrices, size: int) -> np.ndarray:
    """ensure_prob_matrix over a sequence of matrices, as one stack (k, size, size): a
    stack of the right shape takes one range check, any other sequence the per-matrix
    checks, which raise ensure_prob_matrix's message for the first bad matrix."""
    try:
        A = np.asarray(matrices, dtype=float)
    except ValueError:                          # ragged
        A = None
    if A is None or A.shape[1:] != (size, size):
        return np.stack([ensure_prob_matrix(X, size) for X in matrices])
    return _unit_entries(A)


def _unit_entries(A: np.ndarray) -> np.ndarray:
    """A clipped to [0, 1] once every entry passed the range check, NaN failing it."""
    if not (A.min() >= -1e-12 and A.max() <= 1.0 + 1e-12):
        raise ValueError("matrix entries must lie in [0, 1]")
    return np.clip(A, 0.0, 1.0)


def weight_matrix(spec: GameSpec) -> np.ndarray:
    """Tridiagonal matrix P with P[i, i-1] = p_m1, P[i, i] = p_0, P[i, i+1] = p_1."""
    return _weight_matrices([spec])[0]


def _weight_matrices(specs: list) -> np.ndarray:
    """The weight_matrix of each spec, stacked (specs, n, n)."""
    n = specs[0].size
    P = np.zeros((len(specs), n, n))
    idx = np.arange(n)
    for i, j, name in ((idx, idx, "p_0"), (idx[:-1], idx[:-1] + 1, "p_1"),
                       (idx[1:], idx[1:] - 1, "p_minus1")):
        P[:, i, j] = np.array([getattr(s.law, name) for s in specs])[:, None]
    return P


def _stencil_buffers(shape: tuple) -> tuple:
    """Working arrays of _edge_mix for a rows-first stack of `shape` (n, *batch, n):
    the row blocks 0..n-1, 1..n (the interior) and 2..n+1 of one array whose padding
    rows, above and below, already hold 1 and 0, then a work array for one term.
    With the row axis outermost, each block is one contiguous array over the whole
    stack, so every ufunc of the stencil runs numpy's contiguous loop."""
    n = shape[0]
    padded = np.empty((n + 2,) + shape[1:])
    padded[0] = 1.0
    padded[n + 1] = 0.0
    return padded[0:n], padded[1:n + 1], padded[2:n + 2], np.empty(shape)


def _edge_mix(C: np.ndarray, p1, p0, pm1, _buffers: tuple = None,
              out: np.ndarray = None) -> np.ndarray:
    """The edge-weight stencil out[i, j] = pm1 c[j, i-1] + p0 c[j, i] + p1 c[j, i+1]
    for i, j = 1..kappa-1, where c is C (columns 1..kappa-1) padded with the
    boundary values c[j, 0] = 1 and c[j, kappa] = 0.

    C is a rows-first stack (n, *batch, n): entry [i, b, j] is row i, column j of
    matrix b, so a 2-D C is one matrix.  C is transposed once, C.swapaxes(0, -1),
    into the interior rows, the only strided operand; each term is then one
    contiguous block of the stack.  The result is `out`, a fresh array by default.
    A loop passes its own _stencil_buffers and out so nothing is allocated, and
    may pass their interior as C once it holds C transposed; the stencil is then
    its five ufunc calls, each with its output as a positional argument.
    """
    left, interior, right, term = _stencil_buffers(C.shape) if _buffers is None else _buffers
    mix = np.empty(C.shape) if out is None else out
    if C is not interior:
        interior[...] = C.swapaxes(0, -1)
    np.multiply(left, pm1, mix)
    np.multiply(interior, p0, term)
    np.add(mix, term, mix)
    np.multiply(right, p1, term)
    return np.add(mix, term, mix)


def _g_step(G, laws: tuple, fill: np.ndarray, buffers: tuple, out: np.ndarray) -> np.ndarray:
    """The one body of an operator step: out = g(X) = G(clip(_edge_mix(1 - X))) for a
    rows-first stack X, from fill = X.swapaxes(0, -1), the law columns (p1, p0, pm1),
    the _stencil_buffers for X's shape and the output array.  1 - X goes transposed
    straight into the stencil's interior, the mix into `out`, and G runs on it there:
    a family's _pgf_inplace overwrites it, while a public pgf returns a fresh array.
    A step is nothing but ufunc calls, each passed its output positionally: the
    subtract, the stencil, the clip ufunc that ndarray.clip ends in, with 0-d bounds,
    and G's own; so it allocates nothing and every array it writes is contiguous.
    With fill None the interior already holds 1 - X (_box_step).

    The mix is not range-checked.  For X in [0, 1] it is a convex combination of
    entries of 1 - X and the boundary values 1 and 0, with weights that sum to
    1 within 1e-12 (EdgeWeightLaw), so it lies in [0, 1] up to rounding: all a
    pgf's _check_unit_interval would do to it is this clip, and it gives the
    same bits.  Every X comes from a validated matrix or from G itself.
    """
    if fill is not None:
        np.subtract(_ONE, fill, buffers[1])
    mix = _edge_mix(buffers[1], *laws, buffers, out)
    return G(_clip(mix, _ZERO, _ONE, mix))


def _g_fast(G, p1, p0, pm1, X: np.ndarray, _buffers: tuple = None,
            out: np.ndarray = None) -> np.ndarray:
    """g(X) for a rows-first stack X of shape (n, *batch, n) (_edge_mix; a 2-D X is
    one matrix) by _g_step, into `out` with the given _stencil_buffers, fresh arrays
    by default."""
    buffers = _stencil_buffers(X.shape) if _buffers is None else _buffers
    return _g_step(G, (p1, p0, pm1), X.swapaxes(0, -1), buffers,
                   np.empty(X.shape) if out is None else out)


def apply_g(spec: GameSpec, X) -> np.ndarray:
    """One half-step of the fixed-point operator: g(X) = f[p_m1 e1 1^T + P(J - X^T)]."""
    X = ensure_prob_matrix(X, spec.size)
    return _g_fast(spec.dist._pgf_inplace, spec.law.p_1, spec.law.p_0, spec.law.p_minus1, X)


def apply_h(spec: GameSpec, X) -> np.ndarray:
    """The full operator, computed from its one-shot matrix expression.

    Kept deliberately independent of apply_g so the identity h = g(g(.)) can
    serve as a cross-check of both implementations.
    """
    return _h_stack([spec], ensure_prob_matrix(X, spec.size)[None, None])[0, 0]


def _h_stack(specs: list, X: np.ndarray) -> np.ndarray:
    """apply_h's matrix expression for a stack X of shape (specs, k, n, n), k matrices
    per spec, in batched matrix products with each spec's P.  A matrix product of
    the stack gives each matrix the bits of its own product."""
    n = X.shape[-1]
    P = _weight_matrices(specs)[:, None]
    pm1 = np.array([s.law.p_minus1 for s in specs]).reshape(-1, 1, 1, 1)
    J = np.ones((n, n))
    e1_row = np.zeros((n, n))
    e1_row[0, :] = 1.0   # e1 1^T
    e1_col = np.zeros((n, n))
    e1_col[:, 0] = 1.0   # 1 e1^T
    pgf = specs[0].dist.pgf
    inner = pgf(pm1 * e1_col + (J - X) @ P.swapaxes(-1, -2))
    return pgf(pm1 * e1_row + P @ (J - inner))


@dataclass
class IterationRun:
    """Monotone iteration of the win/loss recurrences from the zero start."""

    ell: np.ndarray
    w: np.ndarray
    iterations: int
    delta: float
    converged: bool


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


def _law_columns(specs: list, shape: tuple, repeat=1) -> tuple:
    """p_1, p_0 and p_m1 of each row of a rows-first stack of `shape`, (n, rows, ..., n),
    whose rows run over the specs, each spec `repeat` times (spec k repeat[k] times,
    for a sequence).  An operand is a C-contiguous array of the stack's shape, so that
    each multiply of the stencil is one flat loop; a value every spec shares is a 0-d
    array, the cheapest operand of a ufunc."""
    columns = []
    for name in ("p_1", "p_0", "p_minus1"):
        values = [getattr(s.law, name) for s in specs]
        if values.count(values[0]) == len(values):
            columns.append(np.array(values[0]))
        else:
            column = np.empty(shape)
            column[...] = np.repeat(values, repeat).reshape((-1,) + (1,) * (len(shape) - 2))
            columns.append(column)
    return tuple(columns)


def _rows(columns: tuple, keep: np.ndarray) -> tuple:
    """The law columns of the stack rows where keep is True."""
    return tuple(c if c.ndim == 0 else c.compress(keep, 1) for c in columns)


def iterate_from_below(spec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Run the alternating loss/win recurrences from the all-zero start.

    Each step applies

        ell'[i, j] = G(p1 w[j, i+1] + p0 w[j, i] + pm1 w[j, i-1])
        w'[i, j]   = 1 - G(1 - p1 ell[j, i+1] - p0 ell[j, i] - pm1 ell[j, i-1])

    with the constant boundary values w[j, 0] = 1, w[j, kappa] = 0,
    ell[j, 0] = 0, ell[j, kappa] = 1.  Both sequences increase monotonically
    to the loss matrix L and the win matrix W.  Stops at the first step whose
    max-norm change of both falls below tol, and raises
    InternalInconsistencyError if a step up to that one moved backwards.

    The pair advances as one stack Z = (ybar, ell), ybar = 1 - w: since
    g(ybar) = ell' and g(ell) = ybar', one operator call gives Z' = g(Z)[::-1].
    A list of specs sharing kappa and offspring law advances as one stack of
    such pairs and gives a list of runs; each spec leaves the stack at its own
    first step below tol, so its run equals the one it gets alone.  The stop
    and monotonicity tests run once per block of steps (_block_steps), which
    changes no result: they take the block's steps in order.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    max_iter = operator.index(max_iter)
    specs, batched = _spec_stack(spec)
    runs = []
    for stack in _stacks(specs, 2):
        runs += _iterate_stack(stack, tol, max_iter)
    return runs if batched else runs[0]


def _block_steps(entries: int) -> int:
    """Steps of a block of _iterate_stack for a stack of `entries` matrix entries."""
    return max(1, min(MAX_BLOCK_STEPS, BLOCK_ENTRIES // entries))


def _iterate_stack(specs: list, tol: float, max_iter: int) -> list:
    """iterate_from_below for one rows-first stack of specs, Z of shape (n, specs, 2, n).

    Z' = (g(ell), g(ybar)): each step's fill reads the other half, through a view
    of its ring slot built once, Z.swapaxes(0, -1)[:, :, ::-1], so every slot holds
    its Z_k = (ybar_k, ell_k) in that order.  A block of K steps writes its iterates
    into a ring of K + 1 stacks, which the blocks walk forwards and backwards in
    turn, so that each block starts from the slot where the last one ended.  The
    tests then run over the block's K changes at once, from each half's least and
    largest change.  The one subtract that forms the changes writes them spec-major,
    (K, specs, 2, n, n), so each of those is one flat reduction over a half, where
    rows-first changes would take n - 1 inner loops of numpy's reduction to fold
    their rows.  A spec that stops inside the block leaves with its iterate of
    that step; the later steps of the other specs stand, and they go on from the
    block's last iterate in a new, smaller ring.

    A stack that tests every step (K = 1) updates Z in place by box steps
    (_box_step) while they pay (BOX_STEP_ENTRIES), and by the whole-stack step of
    the ring otherwise.  Entry [i, h, j] of g(Z) reads only Z[j, 1 - h, i-1..i+1]
    (_edge_mix), so an entry whose three inputs kept their bits keeps its own, and
    a step recomputes, for each half, only boxes that hold every entry whose inputs
    changed (_next_boxes): the entries it skips are exact.  The boxes follow from
    the boxes of the step before, and shrink to the entries that changed when a
    step's changes are scanned: every SCAN_STEPS steps while the boxes fit, and
    at gaps of 1, 2, 4, ..., 8 * SCAN_STEPS steps while they do not.
    """
    n = specs[0].size
    G = specs[0].dist._pgf_inplace
    B = np.empty((n, len(specs), 2, n))   # Z_it
    laws = _law_columns(specs, B.shape)
    B[:, :, 0] = 1.0
    B[:, :, 1] = 0.0
    cells = list(range(len(specs)))     # the spec of each stack row
    runs = [None] * len(specs)
    delta = np.zeros(len(specs))        # what a run that takes no step reports
    it = 0
    while cells and it < max_iter:
        K = _block_steps(B.size)
        path = np.empty((K + 1,) + B.shape)    # the ring, walked one way per block
        path[0] = B
        slots = list(path)
        fills = [Z.swapaxes(0, -1)[:, :, ::-1] for Z in slots]   # Z_k's other half, transposed
        change = np.empty((K, len(cells), 2, n, n))
        change_rows = change.transpose(0, 3, 1, 2, 4)     # the ring's axis order
        buffers = _stencil_buffers(B.shape)
        # box steps can pay only in a stack that tests every step and holds more than
        # BOX_STEP_ENTRIES entries, where they take their blocks and outputs from `pad`
        # and each spec's law operands as (specs, 1)
        track = K == 1 and B.size > BOX_STEP_ENTRIES
        if track:
            pad = np.empty((2, len(cells), B.size // len(cells)))
            work = (*pad, buffers[3].reshape(len(cells), -1), change.reshape(len(cells), -1))
            box_laws = tuple(p if p.ndim == 0 else p[0, :, 0, :1] for p in laws)
        # the boxes (rows a:b, columns c:d, a list per half) that hold every entry whose
        # inputs change in the next step, if known, and the steps to the next scan
        boxes, box, gap, wait = None, False, 1, 1
        fits = lambda boxes: len(cells) * _box_entries(boxes) + BOX_STEP_ENTRIES <= B.size
        while True:
            steps = min(K, max_iter - it)
            if track:
                wait -= 1
                box, scan = boxes is not None and fits(boxes), not wait
            if box:                     # Z_it in place
                lo, hi, boxes = _box_step(G, box_laws, boxes, slots[0], work, scan)
                path, slots, fills = path[::-1], slots[::-1], fills[::-1]   # Z_it is path[1]
            else:
                for fill, Z in zip(fills[:steps], slots[1:steps + 1]):
                    _g_step(G, laws, fill, buffers, Z)
                np.subtract(path[1:steps + 1], path[:steps], out=change_rows[:steps])
                # each half's least and largest change per step and spec: ybar = 1 - w
                # falls and ell rises, so the increases of w and ell lie in [-hi, -lo]
                # and [lo, hi] of their halves, and a max-norm change is max(hi, -lo)
                # (0.0 - lo, so that a step changing nothing reports +0.0, not -0.0)
                flat = change[:steps].reshape(steps, len(cells), 2, n * n)
                lo = np.minimum.reduce(flat, 3)
                hi = np.maximum.reduce(flat, 3)
                if track:
                    boxes = _next_boxes([[(0, n, 0, n)]] * 2, n, [[moved.T] for moved in (
                        np.logical_or.reduce(np.not_equal(change[0], _ZERO), 0))]) if scan else None
            if track and scan:
                # the next scan in SCAN_STEPS steps where the boxes found fit, else at a
                # gap doubling up to 8 * SCAN_STEPS: a scan of a whole-stack step's
                # changes costs 0.5 to 0.7 of the step at kappa 66-85 (BENCH_box_calls.json)
                gap = wait = SCAN_STEPS if fits(boxes) else min(2 * gap, 8 * SCAN_STEPS)
            deltas = np.maximum.reduce(np.maximum(hi, 0.0 - lo), 2)
            stops = _first_stops(deltas, tol)           # each spec's stop step, if any
            # a spec counts up to its stop step, which it reaches moving forwards
            if (np.maximum.reduce(hi[:, :, 0], None) > 1e-12
                    or np.minimum.reduce(lo[:, :, 1], None) < -1e-12):
                backwards = (hi[:, :, 0] > 1e-12) | (lo[:, :, 1] < -1e-12)
                if np.any(backwards & (np.arange(steps)[:, None] <= (
                        steps if stops is None else stops))):
                    raise InternalInconsistencyError("monotone iteration moved backwards")
            it += steps
            if it == max_iter:              # report the change of the last step
                delta = deltas[steps - 1]
            if stops is not None or it == max_iter:
                break
            path, slots, fills = path[::-1], slots[::-1], fills[::-1]
        done = np.zeros(len(cells), dtype=bool) if stops is None else stops < steps
        for row in np.flatnonzero(done):
            k = int(stops[row])
            runs[cells[row]] = _run(path[k + 1, :, row], it - steps + k + 1, deltas[k, row], True)
        keep = ~done
        B, delta, laws = path[steps][:, keep], delta[keep], _rows(laws, keep)
        cells = [cell for cell, kept in zip(cells, keep) if kept]
    for row, cell in enumerate(cells):
        # a degenerate request (max_iter 0: the start is the answer) and a fixed-step
        # run (tol 0, e.g. horizon iterates) count as converged
        runs[cell] = _run(B[:, row], it, delta[row], max_iter == 0 or tol == 0.0)
    return runs


def _box_entries(boxes: list) -> int:
    """The entries per spec of a box step's block for the boxes of each half (rows a:b,
    columns c:d): a run of b - a + 2 entries for each column of a box."""
    return sum((d - c) * (b - a + 2) for half in boxes for a, b, c, d in half)


def _next_boxes(boxes: list, n: int, moved: list = None) -> list:
    """The boxes of the next step (_box_step) from a step's boxes, a list for each half
    of boxes (rows a:b, columns c:d) that hold every entry that changed.  Half 1 - h
    reads half h, so a box of half h whose columns widened by one give the rows and
    whose rows give the columns is a box of half 1 - h.  With `moved`, for each box
    whether each of its entries changed in any spec, as [column, row], the boxes
    first shrink to the entries that changed, and a half's one box splits in two,
    over the columns up to the middle of those that changed and over the rest, where
    the two hold at most three quarters of its entries."""
    nxt = [[], []]
    for h, half in enumerate(boxes):
        if moved is not None:
            parts = []                  # per box, the boxes of its two column ranges
            for (a, b, c, d), box in zip(half, moved[h]):
                cols = np.logical_or.reduce(box, 1).nonzero()[0].tolist()
                if cols:
                    mid = bisect.bisect_left(cols, (cols[0] + cols[-1] + 1) // 2)
                    parts.append([(a + rows[0], a + rows[-1] + 1, c + part[0], c + part[-1] + 1)
                                  for part in (cols[:mid], cols[mid:]) if part for rows in [
                                      np.logical_or.reduce(box[part[0]:part[-1] + 1], 0)
                                      .nonzero()[0].tolist()]])
            half = [(min(box[0] for box in two), max(box[1] for box in two), two[0][2],
                     two[-1][3]) for two in parts]
            if len(parts) == 1 and 4 * _box_entries(parts) <= 3 * _box_entries([half]):
                half = parts[0]
        nxt[1 - h] = [(max(c - 1, 0), min(d + 1, n), a, b) for a, b, c, d in half]
    return nxt


def _box_step(G, laws: tuple, boxes: list, Z: np.ndarray, work: tuple, scan: bool) -> tuple:
    """A step of _iterate_stack that recomputes, in place in Z, only the boxes of each
    half (rows a:b, columns c:d), and gives each half's least and largest change per
    spec, of shape (1, specs, 2), and the next boxes (_next_boxes, from the changes
    when `scan`).

    Entry [i, h, j] reads Z[j, 1 - h, i-1..i+1], so column j of a box of half h reads
    row j of half 1 - h, columns a - 1 .. b: one contiguous run.  One _g_step runs over
    a block that holds, per spec, the runs of every box end to end, each as 1 - Z with
    its own boundary values 1 and 0, and so reads each run's b - a inputs in turn along
    the block's last axis: the two outputs at the end of each run read across runs and
    are not written back.  A half without a box recomputes one entry.  The law
    operands are 0-d or (specs, 1).  `work` holds the (specs, entries) arrays of the
    block, the outputs, the stencil's term and the changes, which hold half 0's boxes
    first, so that one reduceat pair takes the least and largest change of each spec
    and half."""
    n, specs = Z.shape[:2]
    if not boxes[0] and not boxes[1]:   # no input changed: nothing to recompute
        return np.zeros((1, specs, 2)), np.zeros((1, specs, 2)), boxes
    block, out, term, change = work
    rows_first = Z.transpose(1, 2, 0, 3)        # [spec, half, row, column] of Z
    runs, start = [], 0
    for h, half in enumerate(boxes):
        for a, b, c, d in half or [(0, 1, 0, 1)]:
            stop = start + (d - c) * (b - a + 2)
            run = block[:, start:stop].reshape(specs, d - c, b - a + 2)
            first, last = max(a - 1, 0), min(b + 1, n)
            np.subtract(_ONE, rows_first[:, 1 - h, c:d, first:last],
                        run[:, :, first - a + 1:last - a + 1])
            if a == 0:
                run[:, :, 0] = 1.0
            if b == n:
                run[:, :, -1] = 0.0
            runs.append((h, a, b, c, d, out[:, start:stop].reshape(run.shape)[:, :, :b - a]))
            start = stop
    m = start - 2
    _g_step(G, laws, None, (block[:, :m], block[:, 1:m + 1], block[:, 2:start], term[:, :m]),
            out[:, :m])
    cols_first = Z.transpose(1, 2, 3, 0)        # [spec, half, column, row] of Z
    moved, done, split = ([], []), 0, 0
    for h, a, b, c, d, new in runs:
        old = cols_first[:, h, c:d, a:b]
        step = change[:, done:done + (b - a) * (d - c)].reshape(new.shape)
        np.subtract(new, old, step)
        np.copyto(old, new)
        if scan:
            moved[h].append(np.logical_or.reduce(np.not_equal(step, _ZERO), 0))
        done += (b - a) * (d - c)
        split = split if h else done
    lo = np.minimum.reduceat(change[:, :done], (0, split), 1)[None]
    hi = np.maximum.reduceat(change[:, :done], (0, split), 1)[None]
    return lo, hi, _next_boxes(boxes, n, moved if scan else None)


def _run(iterate: np.ndarray, step: int, delta, converged: bool) -> IterationRun:
    """The run of one spec whose Z_step is `iterate`, of shape (n, 2, n)."""
    return IterationRun(ell=iterate[:, 1].copy(), w=1.0 - iterate[:, 0], iterations=step,
                        delta=float(delta), converged=converged)


def horizon_iterates(spec: GameSpec, horizon: int):
    """Exact finite-horizon ell^(n), w^(n), n = 0..horizon: iterate_from_below's n-step runs."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    runs = [iterate_from_below(spec, tol=0.0, max_iter=n) for n in range(horizon + 1)]
    return [run.ell for run in runs], [run.w for run in runs]


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
    results = SolveResults()
    for stack in _stacks(specs, 2):
        results += _solve_results(stack, runs[len(results):len(results) + len(stack)], tol)
    return results if batched else results[0]


def _solve_results(specs: list, runs: list, tol: float) -> list:
    """The SolveResults of one stack of specs from their runs: the gap, D and the
    residual check of L and 1 - W (_h_stack) each run once over the stack."""
    L = np.stack([run.ell for run in runs])
    W = np.stack([run.w for run in runs])
    gap = 1.0 - W - L
    if np.any(gap < -max(10 * tol, 1e-15)):
        raise InternalInconsistencyError("draw matrix has a significantly negative entry")
    D = np.where(np.abs(gap) <= DEFAULT_DRAW_EPSILON, 0.0, np.maximum(gap, 0.0))
    X = np.stack([L, 1.0 - W], axis=1)       # (specs, 2, n, n)
    residuals = np.maximum.reduce(np.abs(_h_stack(specs, X) - X).reshape(len(specs), -1), 1)
    results = []
    for k, (spec, run, residual) in enumerate(zip(specs, runs, residuals.tolist())):
        results.append(SolveResult(spec=spec, L=L[k], W=W[k], D=D[k], gap=gap[k],
                                   iterations=run.iterations, residual=residual,
                                   converged=run.converged and residual <= 10 * tol, tol=tol))
    return results


def default_seed_matrices(kappa: int) -> list:
    """Multi-start grid: all-zeros, all-ones, constant levels, random matrices."""
    n = kappa - 1
    seeds = [np.zeros((n, n)), np.ones((n, n))]
    seeds += [np.full((n, n), c) for c in np.arange(0.1, 0.95, 0.1)]
    rng = np.random.default_rng(SEED_GRID_RNG_SEED)
    seeds += [rng.random((n, n)) for _ in range(DEFAULT_SEED_GRID_RANDOM)]
    return seeds


def find_fixed_points(spec, seeds: Optional[Sequence] = None,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Locate fixed points of h by iterating from many starting matrices.

    Limits closer than DEFAULT_CLUSTER_RADIUS in max-norm are merged.  Seeds
    whose orbit fails to settle within max_iter are dropped with a warning.
    The distinct limits are returned sorted lexicographically by their
    entries, an order that extends the entrywise partial order.  A spec whose
    h has exactly one fixed point by the contraction certificate
    (_unique_fixed_point) iterates its first seed alone and gives that seed's
    limit, the point that the merge keeps first; if that seed does not settle,
    the spec iterates every seed.  A list of specs sharing kappa and offspring
    law starts every spec from the same seeds in one stack and gives the list
    of the points each spec gets alone.
    """
    _check_nonnegative(tol=tol, max_iter=max_iter)
    specs, batched = _spec_stack(spec)
    if seeds is None and specs:
        seeds = default_seed_matrices(specs[0].kappa)
    found = [[] for _ in specs]
    if specs and len(seeds):
        starts = _ensure_prob_stack(seeds, specs[0].size)
        found = [points for stack in _stacks(specs, len(starts))
                 for points in _stack_fixed_points(stack, starts, tol, max_iter)]
    return found if batched else found[0]


def _stack_fixed_points(specs: list, starts: np.ndarray, tol: float, max_iter: int) -> list:
    """find_fixed_points for one stack: one _multi_start over the first start of each
    certified spec and every start of the others, then one over every start of each
    certified spec whose first start did not settle; then the merge of each spec's limits."""
    certified = _unique_fixed_point(specs)
    counts = np.where(certified, 1, len(starts))
    limits, settled = _multi_start(specs, starts, counts, tol, max_iter)
    ends = np.cumsum(counts)[:-1]
    runs = list(zip(np.split(limits, ends), np.split(settled, ends)))
    retry = [k for k in np.flatnonzero(certified) if not runs[k][1][0]]
    if retry:
        limits, settled = _multi_start([specs[k] for k in retry], starts,
                                       [len(starts)] * len(retry), tol, max_iter)
        for k, points, ok in zip(retry, np.split(limits, len(retry)),
                                 np.split(settled, len(retry))):
            runs[k] = points, ok
    found = []
    for points, ok in runs:
        dropped = len(ok) - np.count_nonzero(ok)
        if dropped:
            logger.warning("find_fixed_points: dropped %d non-converging seed(s)", dropped)
        found.append(_merge(points[ok]))
    return found


def _unique_fixed_point(specs: list) -> np.ndarray:
    """Which specs of one stack have exactly one fixed point of h, by a contraction
    certificate on the box [lo, up] = [h^k(0), h^k(J)], k = CERT_BOX_STEPS, which holds
    every fixed point (iterate_from_below's 2k-step run).

    h'(X) v = a(g(X)) * mix0(a(X) * mix0(v)), where a(X) = G'(clip(_edge_mix(1 - X)))
    and mix0 is the stencil with zero padding.  G' increases and g is antitone, so on
    the box a(X) <= a(lo) and a(g(X)) <= a(g(up)), and M v = a(g(up)) * mix0(a(lo) *
    mix0(v)) bounds |h'(X)| entrywise.  A spec is certified at the first J <=
    CERT_POWERS with max M^J 1 <= 1 - 1e-9: then w = sum_{j<J} M^j 1 >= 1 has M w < w,
    so rho(M) < 1 (Collatz-Wielandt; Berman & Plemmons 1994), h contracts the box in
    the w-weighted max norm, and it has one fixed point.  A spec gives up at the first
    product whose max M^j 1 does not fall, so its verdict is the one it gets alone.

    M is formed from rounded iterates and a rounded G'.  Until the float error of a
    step is bounded, the slack for that is the margin 1e-9 and the box widened
    outwards by 1e-12 (lo and g(up) down, up up).
    """
    runs = iterate_from_below(specs, tol=0.0, max_iter=2 * CERT_BOX_STEPS)
    lo = np.stack([run.ell for run in runs], 1)          # rows-first (n, specs, n)
    up = np.clip(1e-12 + (1.0 - np.stack([run.w for run in runs], 1)), 0.0, 1.0)
    laws = _law_columns(specs, lo.shape)
    dist = specs[0].dist

    def a(X):
        X = np.clip(X - 1e-12, 0.0, 1.0)
        mix = _edge_mix(1.0 - X, *laws)
        return dist._pgf_derivative(_clip(mix, _ZERO, _ONE, mix))

    a_inner = a(lo)
    a_outer = a(_g_fast(dist._pgf_inplace, *laws, up))
    zero_pad = _stencil_buffers(lo.shape)
    zero_pad[0][0] = 0.0                                  # the row above the stencil
    v = np.ones(lo.shape)
    certified = np.zeros(len(specs), dtype=bool)
    live, last = ~certified, np.inf
    for _ in range(CERT_POWERS):
        _edge_mix(v, *laws, zero_pad, v)
        v *= a_inner
        _edge_mix(v, *laws, zero_pad, v)
        v *= a_outer
        top = np.maximum.reduce(np.maximum.reduce(v, 2), 0)     # max M^j 1 per spec
        certified |= live & (top <= 1.0 - 1e-9)
        live &= ~certified & (top < last)
        if not live.any():
            break
        last = top
    return certified


def _multi_start(specs: list, starts: np.ndarray, counts, tol: float, max_iter: int) -> tuple:
    """Spec k of one stack from its first counts[k] starts, a row per pair, in a rows-first
    stack (n, rows, n), spec-major: the limit of each row, (rows, n, n), and whether it
    settled.  A seed freezes at its first h-step changing less than tol.  As in
    _iterate_stack, a block of K h-steps (_block_steps) writes its iterates into a ring
    of K + 1 stacks, walked one way per block, and the freeze test then runs over the
    block's changes, written row-major so that each is one flat reduction; a row that
    freezes in the block leaves with its iterate of that step, and the others go on
    from the block's last iterate in a smaller ring."""
    G = specs[0].dist._pgf_inplace
    n = specs[0].size
    B = np.concatenate([starts[:count].transpose(1, 0, 2) for count in counts], axis=1)
    laws = _law_columns(specs, B.shape, repeat=counts)
    limits = np.empty((B.shape[1], n, n))
    settled = np.zeros(B.shape[1], dtype=bool)
    rows = np.arange(B.shape[1])                  # the row of the limits each live orbit fills
    it = 0
    while rows.size and it < max_iter:
        K = _block_steps(B.size)
        path = np.empty((K + 1,) + B.shape)
        path[0] = B
        buffers, half = _stencil_buffers(B.shape), np.empty(B.shape)
        change = np.empty((K, rows.size, n, n))
        while True:
            steps = min(K, max_iter - it)
            for k in range(steps):
                _g_step(G, laws, path[k].swapaxes(0, -1), buffers, half)
                _g_step(G, laws, half.swapaxes(0, -1), buffers, path[k + 1])
            flat = change[:steps]
            np.subtract(path[1:steps + 1], path[:steps], out=flat.transpose(0, 2, 1, 3))
            flat = np.abs(flat, flat).reshape(steps, rows.size, n * n)
            stops = _first_stops(np.maximum.reduce(flat, 2), tol)
            it += steps
            if stops is not None or it == max_iter:
                break
            path = path[::-1]
        if stops is None:                   # max_iter reached
            break
        frozen = np.flatnonzero(stops < steps)
        limits[rows[frozen]] = path[stops[frozen] + 1, :, frozen]
        settled[rows[frozen]] = True
        keep = stops == steps
        B, rows, laws = path[steps][:, keep], rows[keep], _rows(laws, keep)
    return limits, settled


def _first_stops(deltas: np.ndarray, tol: float):
    """Each row's first step of a block whose change (deltas, steps x rows) is below tol,
    the block's length for a row with none; None when no row has one."""
    if not np.minimum.reduce(deltas, None) < tol:
        return None
    below = deltas < tol
    return np.where(below.any(0), below.argmax(0), len(deltas))


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
