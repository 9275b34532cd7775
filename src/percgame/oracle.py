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
  boundary bits (0 in the win rows, kappa in the loss rows) are always set;
* layout B: one row per opponent capital 0..kappa, with bit i-1 set when the
  verdict holds at interior mover capital i; the boundary rows (row 0 of the
  win table, row kappa of the loss table) are constant.

A generation's rows form an array with one column per node.  A move along
an edge of weight w swaps the roles, so a parent reads a child without any
transpose: from a layout-A child it takes `(row >> (1 + w)) & mask` of each
row, and from a layout-B child it takes rows 1+w .. n+w; the first gives
the parent its layout-B rows and the second its layout-A rows.  Rows are
the narrowest unsigned integers that hold kappa+1 bits, or Python ints
above 64 bits.  A generation's columns are in decreasing order of child
count, so "every child" and "some child" are one bitwise AND and OR per
sibling rank over a prefix of the parents.
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
    bounds = np.arange(n_samples + 1)     # sample s holds nodes bounds[s]:bounds[s+1]
    cum = np.ones(n_samples, dtype=np.int64)
    aborted = np.zeros(n_samples, dtype=bool)
    for _ in range(depth):
        counts = dist.sample(rng, size=sizes[-1])
        if aborted.any():
            counts[np.repeat(aborted, np.diff(bounds))] = 0
        bounds = np.concatenate(([0], np.cumsum(counts)))[bounds]
        u = rng.random(int(bounds[-1]))
        w = (u < p1).view(np.int8) - (u >= p1 + p0).view(np.int8)
        sizes.append(w.size)
        children.append(counts)
        weights.append(w)
        cum += np.diff(bounds)
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
    even generations in layout A, odd ones in layout B.  A generation's nodes
    are columns in decreasing order of child count, so the parents with more
    than r children are a prefix, and "every child" / "some child" fold in
    one step per sibling rank r over that prefix, starting from the
    identities (all ones for AND, zero for OR) that a leaf keeps.  Horizon 1
    only reads the boundary capitals, so every node starts from one of 8
    table entries, picked by which weights occur among its children, and
    generation H is never built.
    """
    n = kappa - 1
    H = horizon
    dt = _row_dtype(kappa + 1)
    row = dt.type
    mask = row((1 << n) - 1)

    # Horizon-1 rows per code = OR of 1 << (1 + w) over a node's children: a
    # mover at capital i loses on a leaf (code 0) and at i = 1 with only -1
    # edges (code 1), and wins at i = kappa-1 with a +1 edge (code & 4).
    # tables[p] holds the loss and win rows of parity p, one column per code.
    c, i = np.arange(8), np.arange(1, kappa)[:, None]
    zero = np.zeros((n, 8), dtype=dt)
    lost = np.where((c == 0) | ((c == 1) & (i == 1)), mask, zero)    # over opponent capitals
    won = np.where((c & 4 > 0) & (i == n), mask, zero)
    lost_b = np.where(c == 0, mask, np.where(c == 1, row(1), zero))  # over mover capitals
    won_b = np.where(c & 4 > 0, row(1 << (n - 1)), zero)
    edge, full = zero[:1], zero[:1] + mask
    tables = [((lost << 1) | row(1 << kappa), (won << 1) | row(1)),
              (np.concatenate([edge, lost_b, full]), np.concatenate([full, won_b, edge]))]

    # From generation H-1 up: each generation's column order and codes, and per
    # sibling rank r of parent generations 0..H-2 the count m of parents with
    # more than r children and how each reads its r-th child, whose column is
    # `pos` of its index in the child generation.
    codes, plans = [None] * H, [None] * H
    pos = None
    for g in range(H - 1, -1, -1):
        nch = forest.children[g]
        top = int(nch.max(initial=0))
        order = (top - nch).astype(np.min_scalar_type(top)).argsort(kind="stable")
        first = (np.cumsum(nch) - nch).take(order)
        codes[g] = np.zeros(nch.size, dtype=np.uint8)
        plans[g] = []
        for r, m in enumerate(nch.size - np.cumsum(np.bincount(nch))[:-1]):
            child = first[:m] + r
            w = forest.weights[g].take(child)
            codes[g][:m] |= np.uint8(1) << (1 + w).view(np.uint8)
            if g == H - 1:
                continue
            at, size = pos.take(child), forest.sizes[g + 1]
            if g % 2 == 0:  # flat indices of layout-B rows i + w
                plans[g].append((m, i * size + (w.astype(np.intp) * size + at), None))
            else:           # layout-A columns, shifted by 1 + w
                plans[g].append((m, at, (1 + w).astype(dt)))
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
    keep = (~forest.aborted.take(order)).astype(dt)
    lose = [tables[g % 2][0].take(code, axis=1) for g, code in enumerate(codes)]
    win = [tables[g % 2][1].take(code, axis=1) for g, code in enumerate(codes)]

    bits = i.astype(dt)
    loss = np.zeros((H, n, n))
    wins = np.zeros((H, n, n))
    for step in range(1, H + 1):
        # horizon 1 is the tables'; later ones fold in place, in generation order,
        # since generation g-1 has read g's horizon step-1 rows by then
        for g in range(H - step + 1 if step > 1 else 0):
            every, some = (lose[g], win[g]) if g % 2 == 0 else (lose[g][1:kappa], win[g][1:kappa])
            every[...], some[...] = mask, 0
            for m, read, shift in plans[g]:
                if shift is None:
                    cw, cl = win[g + 1].take(read), lose[g + 1].take(read)
                else:
                    cw, cl = win[g + 1].take(read, axis=1), lose[g + 1].take(read, axis=1)
                    cw >>= shift
                    cl >>= shift
                every[:, :m] &= cw
                some[:, :m] |= cl
            if g % 2 == 0:
                every <<= 1
                every |= row(1 << kappa)
                some <<= 1
                some |= row(1)
            else:
                some &= mask
        loss[step - 1] = np.count_nonzero((lose[0][:, None] >> bits) & keep, axis=-1)
        wins[step - 1] = np.count_nonzero((win[0][:, None] >> bits) & keep, axis=-1)
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
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
