"""Monte-Carlo ground truth: exact game solving on sampled trees.

Trees are drawn in batches (a `Forest`), generation by generation, from the
offspring law, edges get independent weights in {-1, 0, +1}, a batch keeps
only each node's child count and each edge's weight, and every realized
game of the batch is solved exactly by one vectorised backward induction
over (vertex, mover capital, opponent capital) states with a bounded round
horizon.  The empirical frequencies of the root being a horizon-n loss or
win are unbiased estimates of the analytic horizon-n probabilities, because
a horizon-n verdict only reads the first n generations.

Terminal rules follow the recurrences: a move that empties the mover's
capital loses immediately and one that reaches the target capital wins
immediately, both taking precedence over the destination being a leaf; a
mover stranded at a leaf with interior capital loses.

The induction keeps each node's win set and loss set as bit rows, in one of
two layouts that alternate with generation parity:

* layout A (the root's parity): one row per interior mover capital, with
  bit c set when the verdict holds at opponent capital c = 0..kappa; the
  boundary bits (0 in the win rows, kappa in the loss rows) are set once;
* layout B: one row per opponent capital 0..kappa, with bit i-1 set when the
  verdict holds at interior mover capital i; the boundary rows (row 0 of the
  win table, row kappa of the loss table) are constant.

A move along an edge of weight w swaps the roles, so a parent reads a child
without any transpose: from a layout-A child it takes `(row >> (1 + w)) &
mask` of each row, and from a layout-B child it takes rows 1+w .. n+w; the
first gives the parent its layout-B rows and the second its layout-A rows.
Rows are the narrowest unsigned integers that hold kappa+1 bits, or Python
ints above 64 bits.  `sample_forest` keeps siblings contiguous, so "every
child" and "some child" are `reduceat` runs of bitwise AND and OR.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List

import numpy as np

from .fixpoint import EdgeWeightLaw, GameSpec
from .offspring import OffspringDistribution

DEFAULT_NODE_CAP = 10**7
DEFAULT_CHUNK_SIZE = 25000


class NodeCapExceeded(RuntimeError):
    """A sampled tree outgrew the configured node budget."""


@dataclass
class Forest:
    """Columnar batch of sampled trees by generation, siblings contiguous.  Generation g+1's
    parents are `np.repeat(np.arange(sizes[g]), children[g])`; its sample ids, g's ids alike."""

    n_samples: int
    depth: int
    sizes: List[int]                  # nodes per generation 0..depth
    children: List[np.ndarray]        # int64 child count per node of generation 0..depth-1
    weights: List[np.ndarray]         # int8 weight per edge from generation g to g+1
    aborted: np.ndarray               # bool per sample: exceeded node cap


def sample_forest(dist: OffspringDistribution, law: EdgeWeightLaw, depth: int,
                  n_samples: int, rng: np.random.Generator,
                  node_cap: int = DEFAULT_NODE_CAP) -> Forest:
    """Sample n_samples trees at once, generation by generation.

    A sample whose cumulative node count exceeds node_cap is marked aborted
    and stops growing; callers resample aborted slots.
    """
    p1, p0 = law.p_1, law.p_0
    sizes = [n_samples]
    children: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    sid = np.arange(n_samples, dtype=np.int64)
    cum = np.ones(n_samples, dtype=np.int64)
    aborted = np.zeros(n_samples, dtype=bool)
    for _ in range(depth):
        counts = dist.sample(rng, size=sizes[-1])
        counts[aborted[sid]] = 0
        sid = np.repeat(sid, counts)
        u = rng.random(sid.size)
        w = (u < p1).view(np.int8) - (u >= p1 + p0).view(np.int8)
        sizes.append(int(sid.size))
        children.append(counts)
        weights.append(w)
        cum += np.bincount(sid, minlength=n_samples)
        aborted |= cum > node_cap
    return Forest(n_samples=n_samples, depth=depth, sizes=sizes, children=children,
                  weights=weights, aborted=aborted)


def _row_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned integer dtype with `bits` bits; object rows (Python ints) above 64."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bits <= np.iinfo(dt).bits:
            return np.dtype(dt)
    return np.dtype(object)


def _forest_root_counts(forest: Forest, kappa: int, horizon: int):
    """Per-horizon root loss/win counts over the non-aborted samples.

    A mover loses at horizon m+1 when the node is childless or every child,
    under the weight-shifted mover capital, lies in the opponent's horizon-m
    win set (capital 0 counting as an immediate win for the opponent, capital
    kappa as an immediate loss).  The win case is dual.

    Win and loss sets are bit rows in the layouts of the module docstring:
    even generations in layout A, odd ones in layout B.  The sibling runs of
    the reductions end in one identity row (all ones for AND, zero for OR) so
    that a run may start at the end; runs of leaf parents are masked out.
    """
    n = kappa - 1
    H = horizon
    dt = _row_dtype(kappa + 1)
    row = dt.type
    mask = row((1 << n) - 1)
    win, lose = [], []
    for g in range(H + 1):
        N = forest.sizes[g]
        if g % 2 == 0:      # layout A
            win.append(np.full((N, n), row(1), dtype=dt))
            lose.append(np.full((N, n), row(1 << kappa), dtype=dt))
        else:               # layout B
            wv = np.zeros((N, kappa + 1), dtype=dt)
            lv = np.zeros((N, kappa + 1), dtype=dt)
            wv[:, 0] = mask
            lv[:, kappa] = mask
            win.append(wv)
            lose.append(lv)
    # Per parent generation: sibling-run starts, leaf mask and how to read a
    # child.  Reads and leaf masks are full (rows, n) arrays: numpy applies a
    # column broadcast across n rows several times slower.
    ones, zeros = np.full((1, n), mask, dtype=dt), np.zeros((1, n), dtype=dt)
    plan = []
    for g in range(H):
        nch = forest.children[g]
        w = forest.weights[g]
        if g % 2 == 0:      # child rows are per opponent capital: pick rows i + w
            read = (np.arange(1, w.size * (kappa + 1), kappa + 1) + w)[:, None] + np.arange(n)
        else:               # child rows are per mover capital: shift out bits i + w
            read = np.repeat((1 + w).astype(dt)[:, None], n, axis=1)
        plan.append((np.cumsum(nch) - nch, np.repeat((nch == 0)[:, None], n, axis=1), read))
    # The reductions see each child's n rows as a few wide words: an AND or OR
    # of whole words gives the same bits, and reduceat's cost is per element.
    word = dt if dt == object else np.dtype(f"u{np.gcd(8, n * dt.itemsize)}")
    bits = np.arange(1, kappa).astype(dt)
    keep = ~forest.aborted
    loss = np.zeros((H, n, n))
    wins = np.zeros((H, n, n))
    for step in range(1, H + 1):
        for g in range(H - step + 1):
            starts, leaf, read = plan[g]
            if g % 2 == 0:
                cw = win[g + 1].reshape(-1).take(read)
                cl = lose[g + 1].reshape(-1).take(read)
            else:
                cw = (win[g + 1] >> read) & mask
                cl = (lose[g + 1] >> read) & mask
            every = np.bitwise_and.reduceat(np.concatenate([cw, ones]).view(word), starts, axis=0)
            some = np.bitwise_or.reduceat(np.concatenate([cl, zeros]).view(word), starts, axis=0)
            lose_g = np.where(leaf, mask, every.view(dt))
            win_g = np.where(leaf, row(0), some.view(dt))
            if g % 2 == 0:
                win[g] = (win_g << 1) | row(1)
                lose[g] = (lose_g << 1) | row(1 << kappa)
            else:
                win[g][:, 1:kappa] = win_g
                lose[g][:, 1:kappa] = lose_g
        loss[step - 1] = ((lose[0][keep][:, :, None] >> bits) & 1).sum(axis=0)
        wins[step - 1] = ((win[0][keep][:, :, None] >> bits) & 1).sum(axis=0)
    return loss, wins


def map_in_processes(fn, jobs: int, *iterables) -> list:
    """[fn(*args) for args in zip(*iterables)], in task order, on up to `jobs` worker
    processes (never more than there are tasks); in this process when one suffices."""
    if not jobs >= 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    tasks = list(zip(*iterables))
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(*args) for args in tasks]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _chunk_counts(spec: GameSpec, horizon: int, m: int, seed_seq, node_cap: int):
    rng = np.random.default_rng(seed_seq)
    n = spec.size
    loss = np.zeros((horizon, n, n))
    win = np.zeros((horizon, n, n))
    aborted_total = 0
    want = m
    rounds = 0
    while want > 0:
        rounds += 1
        if rounds > 1000:
            raise NodeCapExceeded("resampling keeps hitting the node cap; raise node_cap")
        forest = sample_forest(spec.dist, spec.law, horizon, want, rng, node_cap=node_cap)
        lo, wi = _forest_root_counts(forest, spec.kappa, horizon)
        loss += lo
        win += wi
        n_aborted = int(forest.aborted.sum())
        aborted_total += n_aborted
        want = n_aborted
    return loss, win, aborted_total


@dataclass
class OracleEstimate:
    """Monte-Carlo estimates of the horizon-n loss/win probabilities."""

    spec: GameSpec
    horizon: int
    samples: int
    loss_hat: np.ndarray      # shape (horizon, kappa-1, kappa-1); index n-1 = horizon n
    win_hat: np.ndarray
    loss_stderr: np.ndarray
    win_stderr: np.ndarray
    aborted_samples: int
    seed: int

    def loss_at(self, n: int) -> np.ndarray:
        return self.loss_hat[self._index(n)]

    def win_at(self, n: int) -> np.ndarray:
        return self.win_hat[self._index(n)]

    def _index(self, n: int) -> int:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"horizon n must be in 1..{self.horizon}, got {n!r}")
        return n - 1

    def to_json_dict(self) -> dict:
        return {
            "L": self.loss_hat[-1].tolist(),
            "W": self.win_hat[-1].tolist(),
            "L_stderr": self.loss_stderr[-1].tolist(),
            "W_stderr": self.win_stderr[-1].tolist(),
            "horizon": self.horizon,
            "samples": self.samples,
            "aborted_samples": self.aborted_samples,
        }


def estimate_probs(spec: GameSpec, horizon: int, samples: int, seed: int = 0,
                   node_cap: int = DEFAULT_NODE_CAP, jobs: int = 1) -> OracleEstimate:
    """Estimate the horizon-n loss/win probabilities for n = 1..horizon.

    Samples are processed in chunks of DEFAULT_CHUNK_SIZE, each driven by a
    substream spawned deterministically from the master seed, so results are
    bit-identical for a given (seed, samples) regardless of the number of
    worker processes.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    chunk_sizes = [min(DEFAULT_CHUNK_SIZE, samples - start)
                   for start in range(0, samples, DEFAULT_CHUNK_SIZE)]
    subs = np.random.SeedSequence(seed).spawn(len(chunk_sizes))
    counts = map_in_processes(functools.partial(_chunk_counts, spec, horizon, node_cap=node_cap),
                              jobs, chunk_sizes, subs)
    loss, win, aborted = (sum(parts) for parts in zip(*counts))   # in chunk order
    loss_hat = loss / samples
    win_hat = win / samples
    loss_se = np.sqrt(loss_hat * (1.0 - loss_hat) / samples)
    win_se = np.sqrt(win_hat * (1.0 - win_hat) / samples)
    return OracleEstimate(spec=spec, horizon=horizon, samples=samples,
                          loss_hat=loss_hat, win_hat=win_hat,
                          loss_stderr=loss_se, win_stderr=win_se,
                          aborted_samples=aborted, seed=seed)
