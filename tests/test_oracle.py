import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from percgame import (Dirac, EdgeWeightLaw, Explicit, Forest, GameSpec, NodeCapExceeded,
                      Poisson, TwoPoint, estimate_probs, horizon_iterates, sample_forest)
from percgame.oracle import _forest_root_counts, map_in_processes


LAW = EdgeWeightLaw.from_p0_p1(0.8, 0.1)


def build_forest(n_roots, *generations):
    """Forest from one (parent indices, edge weights) pair per generation, siblings contiguous."""
    parents = [np.asarray(p, dtype=np.int64) for p, _ in generations]
    assert all(np.all(np.diff(p) >= 0) for p in parents)
    sizes = [n_roots] + [p.size for p in parents]
    return Forest(n_samples=n_roots, depth=len(generations), sizes=sizes,
                  children=[np.bincount(p, minlength=n) for p, n in zip(parents, sizes)],
                  weights=[np.asarray(w, dtype=np.int8) for _, w in generations],
                  aborted=np.zeros(n_roots, dtype=bool))


def chain_forest(weights, depth=None):
    """One-sample forest: root -> child -> ... along the given edge weights."""
    depth = len(weights) if depth is None else depth
    return build_forest(1, *[([0], [w]) for w in weights], *[([], [])] * (depth - len(weights)))


def reference_root_counts(forest, kappa, horizon):
    """Per-horizon root loss/win counts by recursive minimax, one tree at a time.

    Written from the rules in the oracle module docstring: a move reaching
    kappa wins, a move emptying the mover's capital loses, and a mover with
    no winning move loses when every move loses (so a childless mover loses).
    """
    kids = [[[] for _ in range(size)] for size in forest.sizes]
    for g in range(forest.depth):
        parents = np.repeat(np.arange(forest.sizes[g]), forest.children[g])
        for c, (p, w) in enumerate(zip(parents, forest.weights[g])):
            kids[g][p].append((c, int(w)))

    @functools.lru_cache(maxsize=None)
    def value(g, u, i, j, m):
        # +1: the mover (capital i, opponent j) wins within m rounds; -1: loses
        if m == 0:
            return 0
        moves = [1 if i + w == kappa else -1 if i + w == 0 else -value(g + 1, c, j, i + w, m - 1)
                 for c, w in kids[g][u]]
        return 1 if 1 in moves else -1 if all(v == -1 for v in moves) else 0

    n = kappa - 1
    loss, win = np.zeros((horizon, n, n)), np.zeros((horizon, n, n))
    for h in range(1, horizon + 1):
        for s in np.flatnonzero(~forest.aborted):
            for i in range(1, kappa):
                for j in range(1, kappa):
                    v = value(0, int(s), i, j, h)
                    loss[h - 1, i - 1, j - 1] += v == -1
                    win[h - 1, i - 1, j - 1] += v == 1
    return loss, win


def root_verdicts(forest, kappa, horizon):
    """Kernel root verdicts of a one-sample forest as bool arrays (horizon, i, j)."""
    loss, win = _forest_root_counts(forest, kappa, horizon)
    return loss.astype(bool), win.astype(bool)


def test_sample_forest_dirac_complete():
    n = 7
    forest = sample_forest(Dirac(2), LAW, 3, n, np.random.default_rng(0))
    assert forest.sizes == [n, 2 * n, 4 * n, 8 * n]
    assert not forest.aborted.any()
    for g in range(3):
        np.testing.assert_array_equal(forest.children[g], 2)
        assert forest.children[g].size == forest.sizes[g]
        assert forest.weights[g].size == forest.sizes[g + 1] == forest.children[g].sum()
        assert np.all(np.isin(forest.weights[g], [-1, 0, 1]))


def test_forest_stores_child_counts_and_edge_weights_only():
    assert [f.name for f in dataclasses.fields(Forest)] == [
        "n_samples", "depth", "sizes", "children", "weights", "aborted"]
    for dist, cap in ((Poisson(2.0), 10**7), (Poisson(2.0), 30), (Dirac(3), 100)):
        forest = sample_forest(dist, LAW, 6, 50, np.random.default_rng(8), node_cap=cap)
        arrays = []
        for f in dataclasses.fields(forest):
            value = getattr(forest, f.name)
            arrays += value if isinstance(value, list) else [value]
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        sizes = forest.sizes
        assert nbytes == 8 * sum(sizes[:-1]) + sum(sizes[1:]) + forest.aborted.nbytes


def test_sample_forest_node_cap():
    # 3-regular trees pass 100 nodes in generation 4 (1 + 3 + 9 + 27 + 81)
    forest = sample_forest(Dirac(3), LAW, 8, 5, np.random.default_rng(0), node_cap=100)
    assert forest.aborted.all()
    assert forest.sizes[5:] == [0, 0, 0, 0]
    # a sample is aborted when its node count exceeds the cap: depth 2 holds 1 + 3 + 9 = 13
    for cap, aborted in ((13, False), (12, True)):
        forest = sample_forest(Dirac(3), LAW, 2, 4, np.random.default_rng(0), node_cap=cap)
        assert forest.sizes == [4, 12, 36]
        np.testing.assert_array_equal(forest.aborted, aborted)


@pytest.mark.parametrize("dist, depth, n, cap, aborts", [
    (TwoPoint(0.3, 2), 10, 3, 12, "none"),
    (Poisson(0.7), 6, 16, 3, "some"),
    (Explicit([0.4, 0.2, 0.1, 0.3]), 6, 16, 6, "some"),
    (Dirac(1), 6, 16, 1, "all")], ids=repr)
@pytest.mark.parametrize("seed", range(3))
def test_sample_forest_draw_order(dist, depth, n, cap, aborts, seed):
    # per generation one dist.sample call for every node, zeroed in aborted samples, then
    # one uniform per edge, also for an empty generation: the simulate golden digests
    # rest on this draw sequence
    law = EdgeWeightLaw.from_p0_p1(0.4, 0.35)
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    forest = sample_forest(dist, law, depth, n, rng, node_cap=cap)
    sample_id, nodes = np.arange(n), np.ones(n, dtype=np.int64)
    for g in range(depth):
        counts = dist.sample(replay, size=sample_id.size)
        counts[(nodes > cap)[sample_id]] = 0
        np.testing.assert_array_equal(forest.children[g], counts, strict=True)
        u = replay.random(counts.sum())
        weights = np.where(u < law.p_1, 1, np.where(u < law.p_1 + law.p_0, 0, -1))
        np.testing.assert_array_equal(forest.weights[g], weights.astype(np.int8), strict=True)
        sample_id = np.repeat(sample_id, counts)
        nodes += np.bincount(sample_id, minlength=n)
    np.testing.assert_array_equal(forest.aborted, nodes > cap, strict=True)
    assert forest.sizes == [n] + [w.size for w in forest.weights]
    assert rng.bit_generator.state == replay.bit_generator.state
    n_aborted = int(forest.aborted.sum())
    assert {"none": n_aborted == 0, "some": 0 < n_aborted < n, "all": n_aborted == n}[aborts]
    assert 0 in forest.sizes


class BoundaryUniforms:
    """Stands in for the generator: `random` cycles through the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def random(self, size):
        return np.resize(self.values, size)


@pytest.mark.parametrize("p0, p1", [(0.5, 0.3), (0.0, 0.4), (0.6, 0.0)])
def test_sample_forest_weights_at_their_boundaries(p0, p1):
    law = EdgeWeightLaw.from_p0_p1(p0, p1)
    # every u at which a weight changes, and the float just below it; Dirac draws no uniforms
    cut = law.p_1 + law.p_0
    uniforms = [0.0, np.nextafter(law.p_1, 0), law.p_1, np.nextafter(cut, 0), cut,
                np.nextafter(1.0, 0)]
    forest = sample_forest(Dirac(3), law, 2, 2, BoundaryUniforms(uniforms))
    expected = [1 if u < law.p_1 else 0 if u < cut else -1 for u in uniforms]
    np.testing.assert_array_equal(forest.weights[0], expected)
    probs = {1: law.p_1, 0: law.p_0, -1: law.p_minus1}
    assert set(expected) == {w for w, p in probs.items() if p > 0}


def test_sample_forest_mean_node_count():
    # expected nodes for Poisson(2) to depth 5: sum of 2^g = 63
    rng = np.random.default_rng(123)
    n = 10000
    forest = sample_forest(Poisson(2.0), LAW, 5, n, rng)
    counts = np.ones(n)
    sid = np.arange(n)
    for g in range(forest.depth):
        sid = np.repeat(sid, forest.children[g])
        counts += np.bincount(sid, minlength=n)
    se = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - 63.0) < 3 * se


def test_childless_root_loses_everywhere():
    loss, win = root_verdicts(chain_forest([], depth=3), kappa=4, horizon=3)
    assert loss.all()
    assert not win.any()


def test_plus_edge_reaches_target_and_wins():
    loss, win = root_verdicts(chain_forest([1]), kappa=2, horizon=1)
    assert win[0, 0, 0] and not loss[0, 0, 0]


def test_capital_exhaustion_beats_stranding():
    # single -1 edge to a leaf: moving bankrupts the mover even though it
    # would strand the opponent, so the mover loses
    loss, win = root_verdicts(chain_forest([-1], depth=2), kappa=3, horizon=2)
    assert loss[0, 0, 0] and loss[1, 0, 0]
    # with capital 2 the same move survives and strands the opponent
    assert win[1, 1, 0]
    assert not win[0, 1, 0]


def test_horizon_monotone_verdicts_on_samples():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        forest = sample_forest(Poisson(2.0), LAW, 4, 1, rng)
        loss, win = root_verdicts(forest, kappa=3, horizon=4)
        assert np.all(win[1:] >= win[:-1])
        assert np.all(loss[1:] >= loss[:-1])
        assert not np.any(win & loss)


def test_capital_monotone_verdicts_on_samples():
    rng = np.random.default_rng(99)
    for _ in range(25):
        forest = sample_forest(Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.5, 0.25), 4, 1, rng)
        loss, win = root_verdicts(forest, kappa=4, horizon=4)
        # win at (i, j+1) implies win at (i, j) implies win at (i+1, j)
        assert np.all(win[:, :, 1:] <= win[:, :, :-1])
        assert np.all(win[:, :-1, :] <= win[:, 1:, :])
        assert np.all(loss[:, 1:, :] <= loss[:, :-1, :])
        assert np.all(loss[:, :, :-1] <= loss[:, :, 1:])


def assert_counts_match_per_tree_solver(forest, kappa, horizon, case):
    loss, win = _forest_root_counts(forest, kappa, horizon)
    loss_ref, win_ref = reference_root_counts(forest, kappa, horizon)
    np.testing.assert_array_equal(loss, loss_ref, err_msg=case)
    np.testing.assert_array_equal(win, win_ref, err_msg=case)


def test_forest_counts_match_per_tree_solver():
    # (kappa, offspring law, horizon, samples, node cap, aborted samples)
    cases = [(3, Poisson(2.0), 4, 150, None, "none"),
             (3, Poisson(2.0), 4, 150, 30, "some"),
             (4, Dirac(2), 5, 80, None, "none"),
             (4, Dirac(2), 5, 80, 62, "all"),
             (2, Poisson(1.2), 6, 200, None, "none"),
             (2, Poisson(1.2), 6, 200, 12, "some"),
             # the other horizon parity at each kappa above; kappa=2 has one-bit rows
             (3, Poisson(2.0), 5, 150, None, "none"),
             (4, Dirac(2), 4, 80, None, "none"),
             (2, Poisson(1.2), 5, 200, None, "none"),
             # kappa=8: the first kappa whose kappa+1 bits need 16-bit rows
             (8, Poisson(1.5), 3, 60, None, "none"),
             (8, Poisson(1.5), 4, 60, 40, "some"),
             # kappa=66: more than 64 bits, so rows are Python ints
             (66, Poisson(1.2), 2, 6, None, "none"),
             (66, Poisson(1.2), 3, 6, None, "none"),
             # H=1 reads the horizon-1 table at layout A, H=2 at layout B and folds once
             (3, Poisson(2.0), 1, 150, None, "none"),
             (3, Poisson(2.0), 2, 150, 6, "some"),
             (4, Dirac(2), 1, 80, 2, "all"),
             (4, Dirac(2), 2, 80, None, "none"),
             (2, Poisson(1.2), 1, 200, None, "none"),
             (2, Poisson(1.2), 2, 200, None, "none")]
    law = EdgeWeightLaw.from_p0_p1(0.5, 0.25)
    for seed, (kappa, dist, horizon, n, cap, aborts) in enumerate(cases):
        rng = np.random.default_rng(31 + seed)
        forest = sample_forest(dist, law, horizon, n, rng, node_cap=cap or 10**7)
        n_aborted = int(forest.aborted.sum())
        assert {"none": n_aborted == 0, "some": 0 < n_aborted < n, "all": n_aborted == n}[aborts]
        assert_counts_match_per_tree_solver(forest, kappa, horizon,
                                            f"kappa={kappa} {dist} H={horizon} cap={cap}")


@pytest.mark.parametrize("kappa, horizon",
                         [(k, 3) for k in (15, 16, 31, 32, 63, 64, 65)] + [(16, 4), (64, 4)])
def test_forest_counts_match_per_tree_solver_at_row_dtype_boundaries(kappa, horizon):
    # kappa on both sides of each row-dtype boundary: 16, 32 and 64 bits, then Python ints
    forest = sample_forest(Poisson(1.2), EdgeWeightLaw.from_p0_p1(0.4, 0.35), horizon, 6,
                           np.random.default_rng(kappa))
    assert_counts_match_per_tree_solver(forest, kappa, horizon, f"kappa={kappa} H={horizon}")


HAND_BUILT = {
    # in generation 2 only the last parent has children, in generation 3 only the first
    # (the later runs start at the end of the children), and generations 4 and 5 are empty
    "sibling-runs-at-the-edges": ([3, 3, 3, 2, 0, 0], ([0, 0, 2], [1, -1, 0]),
                                  ([2, 2, 2], [0, 1, -1]), ([0, 0], [-1, 0]), ([], []), ([], [])),
    # roots whose children carry the weight sets {-1}, {+1}, {-1, 0, +1}, none, {0} and
    # {-1, +1}: every code of the horizon-1 table; generation 1 is all leaves (H=2) and
    # generation 2 is empty (H=3)
    "every-horizon1-code": ([6, 8, 0, 0], ([0, 1, 2, 2, 2, 4, 5, 5], [-1, 1, -1, 0, 1, 0, -1, 1]),
                            ([], []), ([], [])),
}


@pytest.mark.parametrize("kappa", (2, 3, 4, 8))
@pytest.mark.parametrize("name, horizon", [("sibling-runs-at-the-edges", h) for h in (4, 5)]
                         + [("every-horizon1-code", h) for h in (1, 2, 3)])
def test_forest_counts_match_per_tree_solver_on_hand_built_forests(name, horizon, kappa):
    sizes, *generations = HAND_BUILT[name]
    forest = build_forest(sizes[0], *generations)
    assert forest.sizes == sizes
    assert_counts_match_per_tree_solver(forest, kappa, horizon, name)


def test_forest_counts_traced_peak_below_three_forests():
    # peak_rss_mb is a gated benchmark metric: the kernel's own allocations stay within a
    # fixed multiple of the forest it reads (about 2.6x here; the reduceat kernel took 4.4x)
    forest = sample_forest(Dirac(2), LAW, 6, 2000, np.random.default_rng(5))
    nbytes = sum(a.nbytes for a in forest.children + forest.weights) + forest.aborted.nbytes
    tracemalloc.start()
    try:
        _forest_root_counts(forest, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * nbytes, peak / nbytes


def test_estimates_deterministic_and_job_invariant():
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    a = estimate_probs(spec, horizon=4, samples=30000, seed=11)
    b = estimate_probs(spec, horizon=4, samples=30000, seed=11)
    np.testing.assert_array_equal(a.loss_hat, b.loss_hat)
    np.testing.assert_array_equal(a.win_hat, b.win_hat)
    c = estimate_probs(spec, horizon=4, samples=30000, seed=11, jobs=2)
    np.testing.assert_array_equal(a.loss_hat, c.loss_hat)
    d = estimate_probs(spec, horizon=4, samples=30000, seed=12)
    assert np.any(d.loss_hat != a.loss_hat)


def test_estimates_all_zero_when_only_zero_weights():
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw(0.0, 1.0, 0.0))
    est = estimate_probs(spec, horizon=5, samples=500, seed=3)
    np.testing.assert_array_equal(est.loss_hat, 0.0)
    np.testing.assert_array_equal(est.win_hat, 0.0)


def test_estimates_match_analytic_iterates():
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    n = 20000
    est = estimate_probs(spec, horizon=6, samples=n, seed=12345)
    ells, ws = horizon_iterates(spec, 6)
    ok = 0
    total = 0
    for h in range(1, 7):
        for hat, se, ana in ((est.loss_at(h), est.loss_stderr[h - 1], ells[h]),
                             (est.win_at(h), est.win_stderr[h - 1], ws[h])):
            total += hat.size
            ok += int(np.sum(np.abs(hat - ana) <= 3 * np.maximum(se, 1e-12)))
    assert ok >= 10  # 12 cells, allow the odd 3-sigma event


def test_estimate_horizon_index_out_of_range_raises():
    est = estimate_probs(GameSpec(2, Dirac(2), LAW), horizon=3, samples=10, seed=1)
    np.testing.assert_array_equal(est.loss_at(1), est.loss_hat[0])
    np.testing.assert_array_equal(est.win_at(3), est.win_hat[2])
    for n in (0, -1, 4):
        with pytest.raises(ValueError, match="horizon"):
            est.loss_at(n)
        with pytest.raises(ValueError, match="horizon"):
            est.win_at(n)


def test_estimate_abort_and_resample():
    # node cap binds for some samples; the estimator resamples and reports
    spec = GameSpec(2, Poisson(1.5), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    est = estimate_probs(spec, horizon=7, samples=400, seed=9, node_cap=60)
    assert est.aborted_samples > 0
    assert est.samples == 400
    with pytest.raises(NodeCapExceeded):
        # impossible budget: every tree of the 2-regular law needs 2^h nodes
        estimate_probs(GameSpec(2, Dirac(2), LAW), horizon=6, samples=10, seed=1,
                       node_cap=20)


def test_map_in_processes_keeps_task_order_and_rejects_jobs_below_one():
    assert map_in_processes(pow, 1, [2, 3, 4], [3, 2, 1]) == [8, 9, 4]
    assert map_in_processes(pow, 4, [], []) == []
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            map_in_processes(pow, jobs, [2], [3])
        with pytest.raises(ValueError, match="jobs"):
            estimate_probs(GameSpec(2, Dirac(2), LAW), horizon=2, samples=10, jobs=jobs)


def test_estimate_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        estimate_probs(GameSpec(2, Dirac(2), LAW), horizon=2, samples=10, seed=-1)


def test_estimate_serialization():
    spec = GameSpec(3, Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    est = estimate_probs(spec, horizon=2, samples=1000, seed=4)
    obj = est.to_json_dict()
    assert set(obj) == {"L", "W", "L_stderr", "W_stderr", "horizon", "samples",
                        "aborted_samples"}
