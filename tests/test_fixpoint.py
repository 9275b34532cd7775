import inspect
import logging

import numpy as np
import pytest

from percgame import (Binomial, Dirac, EdgeWeightLaw, Explicit, GameSpec,
                      InternalInconsistencyError, NegBinomial, Poisson, SolveResult,
                      TwoPoint, UniformRange, Verdict, apply_f, apply_g, apply_h,
                      classify_draw, default_seed_matrices, duration_criterion,
                      find_fixed_points, geometric, horizon_iterates, iterate_from_below,
                      solve, weight_matrix)
from percgame import fixpoint
from percgame.fixpoint import IterationRun, _g_fast, ensure_prob_matrix
from percgame.offspring import OffspringDistribution


def spec_d2(p0, p1, kappa=3):
    return GameSpec(kappa, Dirac(2), EdgeWeightLaw.from_p0_p1(p0, p1))


RANDOM_SPECS = [
    GameSpec(2, Dirac(2), EdgeWeightLaw.from_p0_p1(0.6, 0.2)),
    GameSpec(3, Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.5, 0.3)),
    GameSpec(3, Binomial(5, 0.5), EdgeWeightLaw.from_p0_p1(0.8, 0.1)),
    GameSpec(4, UniformRange(3), EdgeWeightLaw.from_p0_p1(0.7, 0.2)),
    GameSpec(5, geometric(0.4), EdgeWeightLaw.from_p0_p1(0.4, 0.35)),
]


# one distribution per offspring family
FAMILIES = {"dirac": Dirac(2), "uniform": UniformRange(3), "binomial": Binomial(10, 0.6),
            "poisson": Poisson(5.0), "negbinomial": NegBinomial(2, 0.4),
            "geometric": geometric(0.5), "twopoint": TwoPoint(0.7, 3),
            "explicit": Explicit([0.1, 0.3, 0.6])}


def test_edge_weight_law_validation():
    with pytest.raises(ValueError):
        EdgeWeightLaw(0.5, 0.5, 0.2)
    with pytest.raises(ValueError):
        EdgeWeightLaw(-0.1, 0.6, 0.5)
    law = EdgeWeightLaw.from_p0_p1(0.8, 0.1)
    assert law.p_minus1 == pytest.approx(0.1)
    assert law.strictly_positive
    assert not EdgeWeightLaw.from_p0_p1(1.0, 0.0).strictly_positive
    assert EdgeWeightLaw.from_json(law.to_json()) == law


def test_edge_weight_law_rejects_nan():
    # every comparison with NaN is False: a NaN probability once passed both
    # tests and the clamp then turned (nan, p0, p1) into (0, 0, p1)
    for probs in ((np.nan, 0.5, 0.5), (0.5, np.nan, 0.1), (0.2, 0.8, np.nan), (np.nan,) * 3):
        with pytest.raises(ValueError):
            EdgeWeightLaw(*probs)
    with pytest.raises(ValueError):
        EdgeWeightLaw.from_p0_p1(np.nan, 0.1)


def test_game_spec_validation():
    dist = Dirac(2)
    law = EdgeWeightLaw.from_p0_p1(0.8, 0.1)
    with pytest.raises(ValueError):
        GameSpec(1, dist, law)
    with pytest.raises(ValueError):
        GameSpec(2000, dist, law)
    spec = GameSpec(4, dist, law)
    assert spec.size == 3
    assert GameSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError, match="kappa"):
        GameSpec.from_json({**spec.to_json(), "kappa": 3.7})  # not truncated to 3


def test_weight_matrix_layout():
    P = weight_matrix(GameSpec(4, Dirac(2), EdgeWeightLaw(0.2, 0.5, 0.3)))
    expected = np.array([[0.5, 0.3, 0.0],
                         [0.2, 0.5, 0.3],
                         [0.0, 0.2, 0.5]])
    np.testing.assert_allclose(P, expected)


def test_apply_f_basics():
    zeros = np.zeros((2, 2))
    ones = np.ones((2, 2))
    np.testing.assert_allclose(apply_f(Dirac(2), zeros), zeros)
    for dist in (Dirac(2), Poisson(5.0), geometric(0.5)):
        np.testing.assert_allclose(apply_f(dist, ones), ones, atol=1e-12)
    out = apply_f(Poisson(5.0), np.full((2, 2), 0.35))
    np.testing.assert_allclose(out, np.exp(5 * (0.35 - 1)), rtol=1e-12)
    with pytest.raises(ValueError):
        apply_f(Dirac(2), np.zeros((2, 3)))


def test_apply_g_kappa2_scalar_form():
    spec = GameSpec(2, Binomial(5, 0.5), EdgeWeightLaw.from_p0_p1(0.6, 0.25))
    p0, pm1 = spec.law.p_0, spec.law.p_minus1
    for x in (0.0, 0.3, 0.99):
        out = apply_g(spec, np.array([[x]]))
        assert out[0, 0] == pytest.approx(spec.dist.pgf(pm1 + p0 * (1 - x)), rel=1e-14)
    spec0 = GameSpec(2, Dirac(2), EdgeWeightLaw(0.0, 0.5, 0.5))
    assert apply_g(spec0, np.array([[1.0]]))[0, 0] == pytest.approx(0.0)


def test_apply_g_kappa3_hand_expansion():
    # written out from the definition: row 1 sees the forced -1 contribution,
    # row 2 mixes the two interior columns
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw(0.35, 0.3, 0.35))
    G = spec.dist.pgf
    X = np.zeros((2, 2))
    out = apply_g(spec, X)
    p1, p0, pm1 = 0.35, 0.3, 0.35
    expected = np.array([
        [G(pm1 + p0 * 1 + p1 * 1), G(pm1 + p0 * 1 + p1 * 1)],
        [G(pm1 * 1 + p0 * 1), G(pm1 * 1 + p0 * 1)],
    ])
    np.testing.assert_allclose(out, expected, rtol=1e-14)
    # and with a non-constant argument
    X = np.array([[0.2, 0.7], [0.4, 0.1]])
    out = apply_g(spec, X)
    expected = np.array([
        [G(pm1 + p0 * (1 - X[0, 0]) + p1 * (1 - X[0, 1])),
         G(pm1 + p0 * (1 - X[1, 0]) + p1 * (1 - X[1, 1]))],
        [G(pm1 * (1 - X[0, 0]) + p0 * (1 - X[0, 1])),
         G(pm1 * (1 - X[1, 0]) + p0 * (1 - X[1, 1]))],
    ])
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_apply_h_kappa2_degenerate_and_hand_value():
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw(0.55, 0.0, 0.45))
    for x in (0.0, 0.5, 1.0):
        assert apply_h(spec, np.array([[x]]))[0, 0] == pytest.approx(spec.dist.pgf(0.55))
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw(0.1, 0.8, 0.1))
    # G(0.1 + 0.8 (1 - G(0.1 + 0.8 * 0.5))) with G(x) = x^2
    inner = (0.1 + 0.8 * 0.5) ** 2
    expected = (0.1 + 0.8 * (1 - inner)) ** 2
    assert apply_h(spec, np.array([[0.5]]))[0, 0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=lambda s: f"k{s.kappa}-{s.dist.family}")
def test_h_equals_g_composed(spec):
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = rng.random((spec.size, spec.size))
        np.testing.assert_allclose(apply_h(spec, X), apply_g(spec, apply_g(spec, X)),
                                   atol=1e-12)


@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=lambda s: f"k{s.kappa}-{s.dist.family}")
def test_h_monotone_on_ordered_pairs(spec):
    rng = np.random.default_rng(11)
    for _ in range(20):
        X2 = rng.random((spec.size, spec.size))
        X1 = np.clip(X2 + rng.random((spec.size, spec.size)) * (1 - X2), 0, 1)
        h2, h1 = apply_h(spec, X2), apply_h(spec, X1)
        assert np.all(h2 <= h1 + 1e-14)


def reference_iterate_from_below(spec, tol=1e-12, max_iter=10**6, keep_iterates=False):
    """iterate_from_below with two operator calls per step, one on ybar and one on ell."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    pgf = spec.dist.pgf
    ell = np.zeros((n, n))
    ybar = np.ones((n, n))          # ybar = 1 - w
    ells = [ell.copy()] if keep_iterates else None
    ws = [np.zeros((n, n))] if keep_iterates else None
    delta = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        ell_next = _g_fast(pgf, p1, p0, pm1, ybar)
        ybar_next = _g_fast(pgf, p1, p0, pm1, ell)
        if np.any(ell_next < ell - 1e-12) or np.any(ybar_next > ybar + 1e-12):
            raise InternalInconsistencyError("monotone iteration moved backwards")
        delta = max(float(np.max(np.abs(ell_next - ell))),
                    float(np.max(np.abs(ybar_next - ybar))))
        ell, ybar = ell_next, ybar_next
        if keep_iterates:
            ells.append(ell.copy())
            ws.append(1.0 - ybar)
        if delta < tol:
            converged = True
            break
    else:
        if max_iter == 0:
            converged = True  # degenerate request: the start is the answer
    if tol == 0.0:
        converged = True      # fixed-step run, e.g. horizon iterates
    return IterationRun(ell=ell, w=1.0 - ybar, iterations=it, delta=float(delta) if delta != np.inf else 0.0,
                        converged=converged, ell_iterates=ells, w_iterates=ws)


def assert_same_run(got, expected):
    assert np.array_equal(got.ell, expected.ell)
    assert np.array_equal(got.w, expected.w)
    assert (got.iterations, got.delta, got.converged) == (
        expected.iterations, expected.delta, expected.converged)
    for mine, theirs in ((got.ell_iterates, expected.ell_iterates),
                         (got.w_iterates, expected.w_iterates)):
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert len(mine) == len(theirs)
            assert all(map(np.array_equal, mine, theirs))


@pytest.mark.parametrize("kappa", (2, 3, 4, 6, 40))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_stacked_iteration_equals_two_call_reference(dist, kappa):
    spec = GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.8, 0.05))
    # at kappa = 40 the dirac, uniform and poisson runs stop unconverged at the cap
    for kwargs in ({"max_iter": 4000}, {"max_iter": 0},
                   {"tol": 0.0, "max_iter": 25, "keep_iterates": True},
                   {"max_iter": 7, "keep_iterates": True}, {"tol": 1e-6, "max_iter": 4000}):
        assert_same_run(iterate_from_below(spec, **kwargs),
                        reference_iterate_from_below(spec, **kwargs))


class _Decreasing(OffspringDistribution):
    """Not a generating function: G(x) = 1 - x decreases, so the iteration cannot be monotone."""

    family = "decreasing"

    def pgf(self, x):
        return 1.0 - np.asarray(x)


def test_iteration_that_moves_backwards_raises():
    spec = GameSpec(3, _Decreasing(), EdgeWeightLaw.from_p0_p1(0.5, 0.25))
    for iterate in (iterate_from_below, reference_iterate_from_below):
        with pytest.raises(InternalInconsistencyError, match="monotone iteration moved backwards"):
            iterate(spec)


def test_iterate_rejects_nan_and_negative_tol():
    spec = spec_d2(0.9, 0.05)
    for tol in (np.nan, -1e-12):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            iterate_from_below(spec, tol=tol)


@pytest.mark.parametrize("call, field", [
    (lambda spec: iterate_from_below(spec, max_iter=-1), "max_iter"),
    (lambda spec: solve(spec, max_iter=-1), "max_iter"),
    (lambda spec: find_fixed_points(spec, max_iter=-1), "max_iter"),
    (lambda spec: find_fixed_points(spec, tol=-1.0, max_iter=2000), "tol"),
])
def test_out_of_range_solver_values_rejected(call, field):
    with pytest.raises(ValueError, match=field):
        call(spec_d2(0.875, 0.025))


@pytest.mark.parametrize("call", [
    lambda spec: solve(spec, draw_epsilon=1e-8),
    lambda spec: classify_draw(solve(spec), positive_threshold=1e-6),
    lambda spec: duration_criterion(solve(spec), positive_threshold=1e-6),
    lambda spec: find_fixed_points(spec, cluster_radius=1e-6),
], ids=["draw_epsilon", "classify_positive_threshold", "duration_positive_threshold",
        "cluster_radius"])
def test_verdict_thresholds_are_not_keywords(call):
    # the draw clamp, POSITIVE threshold and merge radius are fixed constants
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(spec_d2(0.875, 0.025))


def test_iterate_all_zero_weights_never_ends():
    run = iterate_from_below(GameSpec(3, Dirac(2), EdgeWeightLaw(0.0, 1.0, 0.0)))
    assert run.converged
    np.testing.assert_allclose(run.ell, 0.0)
    np.testing.assert_allclose(run.w, 0.0)


def test_iterate_reproduces_published_draw_values():
    run = iterate_from_below(spec_d2(0.9, 0.05))
    D = 1 - run.w - run.ell
    assert D[0, 0] == pytest.approx(0.985522, abs=1e-5)
    assert D[1, 0] == pytest.approx(0.827345, abs=1e-5)


def test_iterates_monotone_and_capital_ordered():
    for spec in (spec_d2(0.9, 0.05), spec_d2(0.8, 0.15, kappa=4),
                 GameSpec(3, Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.5, 0.25))):
        ells, ws = horizon_iterates(spec, 12)
        for a, b in zip(ells, ells[1:]):
            assert np.all(b >= a - 1e-12)
        for a, b in zip(ws, ws[1:]):
            assert np.all(b >= a - 1e-12)
        for mat, increasing_in_i in ((ells, False), (ws, True)):
            for M in mat:
                di = np.diff(M, axis=0)   # step in mover capital i
                dj = np.diff(M, axis=1)   # step in opponent capital j
                if increasing_in_i:
                    assert np.all(di >= -1e-12)
                    assert np.all(dj <= 1e-12)
                else:
                    assert np.all(di <= 1e-12)
                    assert np.all(dj >= -1e-12)


def test_solve_published_values_and_residual():
    r = solve(GameSpec(3, Dirac(5), EdgeWeightLaw.from_p0_p1(0.95, 0.025)))
    assert r.converged
    assert r.D[0, 0] == pytest.approx(0.999992937, abs=1e-6)
    assert r.D[1, 0] == pytest.approx(0.880855111, abs=1e-6)
    assert r.residual < 10 * r.tol

    r = solve(GameSpec(3, Binomial(20, 0.5), EdgeWeightLaw.from_p0_p1(0.9, 0.075)))
    assert r.D[0, 0] == pytest.approx(0.993142, abs=1e-5)

    r = solve(GameSpec(2, Dirac(2), EdgeWeightLaw(0.55, 0.0, 0.45)))
    np.testing.assert_allclose(r.D, 0.0)


def test_solve_non_convergence_flagged():
    r = solve(spec_d2(0.9, 0.05), max_iter=3)
    assert not r.converged
    assert r.iterations == 3


def test_solve_tiny_gap_clamped_to_zero():
    r = solve(GameSpec(3, UniformRange(2), EdgeWeightLaw.from_p0_p1(0.8, 0.1)))
    assert np.all(r.gap < 1e-8)
    np.testing.assert_allclose(r.D, 0.0)


def test_find_fixed_points_unique_for_geometric():
    for (p0, p1) in ((0.8, 0.1), (0.5, 0.25), (0.95, 0.02)):
        spec = GameSpec(2, geometric(0.5), EdgeWeightLaw.from_p0_p1(p0, p1))
        assert len(find_fixed_points(spec)) == 1


def test_find_fixed_points_counts_and_bracketing():
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw(0.1, 1 - 0.1 - 0.025, 0.025))
    points = find_fixed_points(spec)
    assert len(points) == 6
    r = solve(spec)
    for F in points:
        assert np.all(F >= r.L - 1e-10)
        assert np.all(F <= (1 - r.W) + 1e-10)
    # extremes are found and returned in an order extending the entrywise order
    np.testing.assert_allclose(points[0], r.L, atol=1e-9)
    np.testing.assert_allclose(points[-1], 1 - r.W, atol=1e-9)

    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw(0.3, 1 - 0.3 - 0.1, 0.1))
    assert len(find_fixed_points(spec)) == 1


def reference_find_fixed_points(spec, seeds, tol=1e-12, max_iter=10**6, cluster_radius=1e-6):
    """find_fixed_points one seed at a time: (sorted points, dropped seed count)."""
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    pgf = spec.dist.pgf
    found = []
    dropped = 0
    for seed_matrix in seeds:
        X = ensure_prob_matrix(seed_matrix, spec.size)
        settled = False
        for _ in range(max_iter):
            Xn = _g_fast(pgf, p1, p0, pm1, _g_fast(pgf, p1, p0, pm1, X))
            if np.max(np.abs(Xn - X)) < tol:
                X = Xn
                settled = True
                break
            X = Xn
        if not settled:
            dropped += 1
            continue
        if not any(np.max(np.abs(X - F)) < cluster_radius for F in found):
            found.append(X)
    found.sort(key=lambda F: tuple(F.ravel()))
    return found, dropped


def dropped_counts(caplog):
    return [r.args[0] for r in caplog.records if "dropped" in r.msg]


def assert_same_as_reference(spec, seeds, caplog, **kwargs):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="percgame.fixpoint"):
        got = find_fixed_points(spec, seeds, **kwargs)
    expected, dropped = reference_find_fixed_points(spec, seeds, **kwargs)
    assert len(got) == len(expected)
    for F, E in zip(got, expected):
        assert np.array_equal(F, E)
    assert dropped_counts(caplog) == ([dropped] if dropped else [])
    return got, dropped


@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_g_fast_batch_equals_per_slice(dist):
    rng = np.random.default_rng(5)
    for kappa in (2, 3, 5):
        X = rng.random((7, kappa - 1, kappa - 1))
        got = _g_fast(dist.pgf, 0.3, 0.5, 0.2, X)
        expected = np.stack([_g_fast(dist.pgf, 0.3, 0.5, 0.2, S) for S in X])
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("kappa", (2, 3, 4, 6))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_find_fixed_points_batch_equals_per_seed(dist, kappa, caplog):
    spec = GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.8, 0.05))
    assert_same_as_reference(spec, default_seed_matrices(kappa, n_random=8), caplog)


def test_find_fixed_points_batch_equals_per_seed_six_points(caplog):
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.875, 0.025))
    points, dropped = assert_same_as_reference(spec, default_seed_matrices(3), caplog)
    assert len(points) == 6 and dropped == 0


def test_find_fixed_points_batch_equals_per_seed_with_drops(caplog):
    # at 40 h-steps some seeds of the six-point case have settled and some not
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.875, 0.025))
    points, dropped = assert_same_as_reference(spec, default_seed_matrices(3), caplog,
                                               max_iter=40)
    assert 0 < dropped < 75 and points


def test_find_fixed_points_edge_cases(caplog):
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.875, 0.025))
    assert find_fixed_points(spec, []) == []
    with caplog.at_level(logging.WARNING, logger="percgame.fixpoint"):
        assert find_fixed_points(spec, max_iter=0) == []
    assert dropped_counts(caplog) == [75]
    with pytest.raises(ValueError):
        find_fixed_points(spec, [np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        find_fixed_points(spec, [np.zeros((2, 2)), np.full((2, 2), 1.5)])
    with pytest.raises(ValueError):
        find_fixed_points(spec, [np.full((2, 2), -0.1)])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):   # once iterated and dropped as non-converging
        find_fixed_points(spec, seeds=[np.full((2, 2), np.nan)])
    with pytest.raises(ValueError):
        ensure_prob_matrix(np.array([[0.5, np.nan], [0.0, 1.0]]), 2)
    # the traced benchmark reads seeds positionally (args[1]) or by keyword
    assert list(inspect.signature(find_fixed_points).parameters)[:2] == ["spec", "seeds"]
    seeds = default_seed_matrices(3, n_random=2)
    by_position, by_keyword = find_fixed_points(spec, seeds), find_fixed_points(spec, seeds=seeds)
    assert len(by_position) == len(by_keyword) > 0
    assert all(map(np.array_equal, by_position, by_keyword))


def reference_merge(limits):
    """The merge as a Python loop over pairs: keep a limit unless a kept one is within
    the radius, then sort."""
    found = []
    for F in limits:
        if not any(np.max(np.abs(F - G)) < fixpoint.DEFAULT_CLUSTER_RADIUS for G in found):
            found.append(F)
    found.sort(key=lambda F: tuple(F.ravel()))
    return found


def test_merge_equals_pairwise_reference():
    radius = fixpoint.DEFAULT_CLUSTER_RADIUS
    # a chain 0.6 radius apart: the greedy order keeps 0, 1.2, 2.4, ... and not 0.6, 1.8, ...
    chain = np.arange(8)[:, None, None] * 0.6 * radius + np.zeros((1, 2, 2))
    rng = np.random.default_rng(3)
    clusters = (rng.integers(0, 4, 200)[:, None, None] * 0.3
                + rng.uniform(-1.5, 1.5, (200, 2, 2)) * radius)
    for limits in (chain, chain[::-1], clusters, chain[:0]):
        got, expected = fixpoint._merge(limits), reference_merge(limits)
        assert len(got) == len(expected)
        assert all(map(np.array_equal, got, expected))
    assert len(fixpoint._merge(chain)) == 4


def grid_specs(kappa, dist, p0s=(0.3, 0.6, 0.75, 0.9), p1s=(0.02, 0.05, 0.1)):
    return [GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(p0, p1)) for p0 in p0s for p1 in p1s]


SOLVE_FIELDS = ("L", "W", "D", "gap", "iterations", "residual", "converged", "tol", "spec")


def assert_same_results(got, expected):
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        for field in SOLVE_FIELDS:
            a, b = getattr(mine, field), getattr(theirs, field)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field


@pytest.mark.parametrize("kappa", (2, 3, 5))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_list_solve_equals_per_spec_solve(dist, kappa):
    specs = grid_specs(kappa, dist)
    for kwargs in ({}, {"max_iter": 5}, {"max_iter": 0}, {"tol": 1e-6}):
        got = solve(specs, **kwargs)
        assert_same_results(got, [solve(spec, **kwargs) for spec in specs])
        assert got.converged == all(r.converged for r in got)
        assert got.iterations == sum(r.iterations for r in got)
    assert solve([]) == []


def test_list_iteration_keeps_each_specs_iterates():
    specs = grid_specs(4, Poisson(5.0))
    for kwargs in ({"tol": 0.0, "max_iter": 9, "keep_iterates": True},
                   {"max_iter": 40, "keep_iterates": True}, {"max_iter": 4000}):
        for got, spec in zip(iterate_from_below(specs, **kwargs), specs, strict=True):
            assert_same_run(got, iterate_from_below(spec, **kwargs))


def test_list_solve_splits_at_the_stack_cap(monkeypatch):
    specs = grid_specs(3, Binomial(10, 0.6))
    expected = solve(specs)
    monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 3 * 2 * 4)   # three kappa=3 specs
    assert_same_results(solve(specs), expected)
    monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 1)           # at least one spec each
    assert_same_results(solve(specs), expected)


@pytest.mark.parametrize("specs", [
    [spec_d2(0.9, 0.05), spec_d2(0.9, 0.05, kappa=4)],
    [spec_d2(0.9, 0.05), GameSpec(3, Dirac(3), EdgeWeightLaw.from_p0_p1(0.9, 0.05))],
    [spec_d2(0.9, 0.05), GameSpec(3, Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.9, 0.05))],
], ids=["mixed kappa", "mixed m", "mixed family"])
def test_list_of_mixed_specs_is_refused(specs):
    for call in (solve, find_fixed_points, iterate_from_below):
        with pytest.raises(ValueError, match="share kappa and the offspring law"):
            call(specs)


@pytest.mark.parametrize("dist", [Poisson(5.0), Dirac(2), Binomial(10, 0.6)], ids=repr)
def test_list_find_fixed_points_equals_per_spec(dist, caplog, monkeypatch):
    specs = grid_specs(3, dist, p0s=(0.3, 0.75, 0.875, 0.9), p1s=(0.025, 0.05))
    for kwargs in ({}, {"max_iter": 40}):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="percgame.fixpoint"):
            expected = [find_fixed_points(spec, **kwargs) for spec in specs]
            warnings = dropped_counts(caplog)
            caplog.clear()
            got = find_fixed_points(specs, **kwargs)
        assert dropped_counts(caplog) == warnings      # one warning per spec that dropped seeds
        for mine, theirs in zip(got, expected, strict=True):
            assert len(mine) == len(theirs)
            assert all(map(np.array_equal, mine, theirs))
        monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 2 * 75 * 4)   # two specs a stack
        split = find_fixed_points(specs, **kwargs)
        monkeypatch.undo()
        for mine, theirs in zip(split, expected, strict=True):
            assert len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))
    assert any(len(points) > 1 for points in expected)
    assert find_fixed_points([]) == [] and find_fixed_points(specs, []) == [[]] * len(specs)


def test_dropped_seed_warning_format(caplog):
    # the traced benchmark counts dropped seeds from args[0] of any warning
    # whose msg contains "dropped"
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.875, 0.025))
    with caplog.at_level(logging.WARNING, logger="percgame.fixpoint"):
        find_fixed_points(spec, max_iter=40)
    (record,) = caplog.records
    assert record.name == "percgame.fixpoint" and record.levelno == logging.WARNING
    assert record.msg == "find_fixed_points: dropped %d non-converging seed(s)"
    assert record.args == (21,)
    assert record.getMessage() == "find_fixed_points: dropped 21 non-converging seed(s)"


def test_default_seed_matrices_shape_and_determinism():
    seeds1 = default_seed_matrices(3)
    seeds2 = default_seed_matrices(3)
    assert len(seeds1) == 2 + 9 + 64
    for a, b in zip(seeds1, seeds2):
        np.testing.assert_array_equal(a, b)


def test_classify_draw_verdicts():
    r = solve(spec_d2(0.9, 0.05))
    assert np.all(classify_draw(r) == Verdict.POSITIVE)
    r = solve(GameSpec(2, Dirac(2), EdgeWeightLaw(0.55, 0.0, 0.45)))
    assert np.all(classify_draw(r) == Verdict.ZERO)


def _fake_result(D, law, tol=1e-12):
    spec = GameSpec(3, Dirac(2), law)
    D = np.asarray(D, dtype=float)
    return SolveResult(spec=spec, L=np.zeros_like(D), W=1 - D, D=D, gap=D,
                       iterations=1, residual=0.0, converged=True, tol=tol)


def test_classify_draw_promotion_and_conflict():
    law = EdgeWeightLaw.from_p0_p1(0.8, 0.1)
    # one POSITIVE entry promotes an INCONCLUSIVE one under a strictly positive law
    r = _fake_result([[1e-7, 0.5], [0.5, 0.5]], law)
    assert np.all(classify_draw(r) == Verdict.POSITIVE)
    # ZERO together with POSITIVE is a structural violation
    r = _fake_result([[0.0, 0.5], [0.5, 0.5]], law)
    with pytest.raises(InternalInconsistencyError):
        classify_draw(r)
    # without strict positivity the mixed verdicts stand
    r = _fake_result([[0.0, 0.5], [0.5, 0.5]], EdgeWeightLaw.from_p0_p1(0.5, 0.5))
    v = classify_draw(r)
    assert v[0, 0] == Verdict.ZERO and v[0, 1] == Verdict.POSITIVE
    # unconverged results are refused
    r = _fake_result([[0.0, 0.0], [0.0, 0.0]], law)
    r.converged = False
    with pytest.raises(ValueError):
        classify_draw(r)


def test_draw_parity_structure_when_p0_zero():
    # with no zero-weight edges, draw verdicts are constant on the classes
    # where (i1 - i2) + (j1 - j2) is even
    spec = GameSpec(4, Dirac(2), EdgeWeightLaw(0.4, 0.0, 0.6))
    r = solve(spec)
    v = classify_draw(r)
    n = spec.size
    for parity in (0, 1):
        cells = [v[i - 1, j - 1] for i in range(1, n + 1) for j in range(1, n + 1)
                 if (i + j) % 2 == parity]
        has_zero = any(c == Verdict.ZERO for c in cells)
        has_pos = any(c == Verdict.POSITIVE for c in cells)
        assert not (has_zero and has_pos)


def test_solve_result_serialization():
    r = solve(spec_d2(0.9, 0.05))
    obj = r.to_json_dict()
    assert set(obj) == {"L", "W", "D", "iterations", "residual", "converged"}
    assert obj["converged"] is True
