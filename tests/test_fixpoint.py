import dataclasses
import inspect
import logging

import numpy as np
import pytest

import percgame
from percgame import (Binomial, Dirac, EdgeWeightLaw, Explicit, GameSpec,
                      InternalInconsistencyError, NegBinomial, Poisson, SolveResult,
                      TwoPoint, UniformRange, Verdict, apply_g, apply_h,
                      classify_draw, default_seed_matrices, duration_criterion,
                      find_fixed_points, geometric, horizon_iterates, iterate_from_below,
                      solve, weight_matrix)
from percgame import criteria, fixpoint
from percgame.fixpoint import (IterationRun, _edge_mix, _g_fast, _law_columns,
                               _stencil_buffers, ensure_prob_matrix)
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


def test_pgf_on_matrices_basics():
    zeros = np.zeros((2, 2))
    ones = np.ones((2, 2))
    np.testing.assert_allclose(Dirac(2).pgf(zeros), zeros)
    for dist in (Dirac(2), Poisson(5.0), geometric(0.5)):
        np.testing.assert_allclose(dist.pgf(ones), ones, atol=1e-12)
    out = Poisson(5.0).pgf(np.full((2, 2), 0.35))
    np.testing.assert_allclose(out, np.exp(5 * (0.35 - 1)), rtol=1e-12)
    with pytest.raises(ValueError):
        apply_h(spec_d2(0.8, 0.1), np.zeros((2, 3)))


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


def reference_iterate_from_below(spec, tol=1e-12, max_iter=10**6):
    """iterate_from_below with two operator calls per step, one on ybar and one on ell;
    gives the run and the lists of its iterates ell_n and w_n, n = 0..iterations."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    pgf = spec.dist.pgf
    ell = np.zeros((n, n))
    ybar = np.ones((n, n))          # ybar = 1 - w
    ells = [ell.copy()]
    ws = [np.zeros((n, n))]
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
    run = IterationRun(ell=ell, w=1.0 - ybar, iterations=it,
                       delta=float(delta) if delta != np.inf else 0.0, converged=converged)
    return run, ells, ws


def assert_same_run(got, expected):
    assert np.array_equal(got.ell, expected.ell)
    assert np.array_equal(got.w, expected.w)
    assert (got.iterations, got.delta, got.converged) == (
        expected.iterations, expected.delta, expected.converged)


def assert_same_horizon_iterates(spec, horizon):
    """horizon_iterates equals the iterates the reference keeps in a fixed-step run."""
    _, ells, ws = reference_iterate_from_below(spec, tol=0.0, max_iter=horizon)
    for mine, theirs in zip(horizon_iterates(spec, horizon), (ells, ws), strict=True):
        assert len(mine) == len(theirs) == horizon + 1
        assert all(map(np.array_equal, mine, theirs))


@pytest.mark.parametrize("kappa", (2, 3, 4, 6, 40))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_stacked_iteration_equals_two_call_reference(dist, kappa):
    spec = GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.8, 0.05))
    # at kappa = 40 the dirac, uniform and poisson runs stop unconverged at the cap
    for kwargs in ({"max_iter": 4000}, {"max_iter": 0}, {"tol": 0.0, "max_iter": 25},
                   {"max_iter": 7}, {"tol": 1e-6, "max_iter": 4000}):
        assert_same_run(iterate_from_below(spec, **kwargs),
                        reference_iterate_from_below(spec, **kwargs)[0])
    for horizon in (25, 7):
        assert_same_horizon_iterates(spec, horizon)


def kappa2_boundary_p0(dist, p1):
    """The largest float p0 (bisection) at which kappa2_draw_zero still says ZERO."""
    lo, hi = 0.0, 1.0 - p1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if criteria.kappa2_draw_zero(dist, EdgeWeightLaw.from_p0_p1(mid, p1)):
            lo = mid
        else:
            hi = mid
    return lo


def near_boundary_specs(dist, p1, distances=(-3e-3, 3e-3)):
    p0c = kappa2_boundary_p0(dist, p1)
    return [GameSpec(2, dist, EdgeWeightLaw.from_p0_p1(p0c + d, p1)) for d in distances]


def test_near_boundary_runs_equal_two_call_reference():
    # the kappa = 2 solves of the near-critical benchmark at +-3e-3 from the boundary,
    # single and as a list, then a list whose specs differ in p1
    poisson = near_boundary_specs(Poisson(5.0), 0.05)
    binomial = near_boundary_specs(Binomial(10, 0.6), 0.02)
    mixed = (near_boundary_specs(Poisson(5.0), 0.04, (-3e-3,)) + poisson[:1]
             + near_boundary_specs(Poisson(5.0), 0.06, (3e-3,)))
    for specs in (poisson, binomial, mixed):
        expected = [reference_iterate_from_below(spec)[0] for spec in specs]
        for got, run in zip(iterate_from_below(specs), expected, strict=True):
            assert_same_run(got, run)
        for spec, run in zip(specs, expected):
            assert_same_run(iterate_from_below(spec), run)
            assert run.converged
    assert [spec.law.p_1 for spec in mixed] == [0.04, 0.05, 0.06]
    # the step counts below the boundary
    assert [iterate_from_below(below).iterations for below, _ in (poisson, binomial)] == [8647, 5180]


def test_a_step_that_changes_nothing_reports_positive_zero():
    # with every edge weight 0, Dirac(2) at kappa = 2 starts at its fixed point
    spec = GameSpec(2, Dirac(2), EdgeWeightLaw.from_p0_p1(1.0, 0.0))
    for run in (iterate_from_below(spec, tol=0.0, max_iter=3), iterate_from_below(spec),
                *iterate_from_below([spec, spec_d2(0.5, 0.2, 2)], tol=0.0, max_iter=40)[:1]):
        assert run.delta == 0.0 and not np.signbit(run.delta)


class _Decreasing(OffspringDistribution):
    """Not a generating function: G(x) = 1 - x decreases, so the iteration cannot be monotone."""

    family = "decreasing"

    def _pgf_inplace(self, x):
        return np.subtract(1.0, x, out=x if isinstance(x, np.ndarray) else None)


def test_iteration_that_moves_backwards_raises():
    spec = GameSpec(3, _Decreasing(), EdgeWeightLaw.from_p0_p1(0.5, 0.25))
    for iterate in (iterate_from_below, reference_iterate_from_below):
        with pytest.raises(InternalInconsistencyError, match="monotone iteration moved backwards"):
            iterate(spec)


class _Relapsing(OffspringDistribution):
    """Dirac(2)'s G for its first `calls` calls, then G = 0: the iteration of a single
    spec, one operator call a step, moves backwards from step calls + 1 on."""

    family = "relapsing"

    def __init__(self, calls):
        self.calls = calls

    def _pgf_inplace(self, x):
        self.calls -= 1
        x **= 2
        if self.calls < 0:
            x *= 0.0
        return x


def test_backwards_move_after_the_stop_step_does_not_raise():
    law = EdgeWeightLaw.from_p0_p1(0.5, 0.25)
    expected = reference_iterate_from_below(GameSpec(2, Dirac(2), law), tol=1e-6)[0]
    stop = expected.iterations
    # the block goes on past the stop step, into the backwards steps
    assert stop % fixpoint._block_steps(2) and stop < fixpoint._block_steps(2)
    assert_same_run(iterate_from_below(GameSpec(2, _Relapsing(stop), law), tol=1e-6), expected)
    with pytest.raises(InternalInconsistencyError, match="monotone iteration moved backwards"):
        iterate_from_below(GameSpec(2, _Relapsing(stop - 1), law), tol=1e-6)


# kappa 2 specs stopping after 25, 35, 41, 51, 43 and 83 steps at the default tol
BLOCK_SPECS = [GameSpec(2, Poisson(5.0), EdgeWeightLaw.from_p0_p1(p0, p1))
               for p0, p1 in ((0.3, 0.25), (0.5, 0.25), (0.6, 0.25), (0.75, 0.25), (0.3, 0.1),
                              (0.5, 0.1))]
BLOCK_SIZES = (1, 2, 5, 7, 32)


def test_block_cases_cover_the_block_boundaries():
    stops = [reference_iterate_from_below(spec)[0].iterations for spec in BLOCK_SPECS]
    blocks = {K: [(stop - 1) // K for stop in stops] for K in BLOCK_SIZES}
    assert any(len(set(b)) < len(b) for b in blocks.values())      # two stop in one block
    assert any(len(set(b)) > 1 for b in blocks.values())           # others in different ones
    assert any(stop % K == 0 for K in BLOCK_SIZES if K > 1 for stop in stops)   # at a block's end


@pytest.mark.parametrize("K", BLOCK_SIZES)
def test_block_boundaries_equal_reference(K, monkeypatch):
    monkeypatch.setattr(fixpoint, "BLOCK_ENTRIES", 2**40)     # every stack takes K steps a block
    monkeypatch.setattr(fixpoint, "MAX_BLOCK_STEPS", K)
    for kwargs in ({}, {"tol": 1e-6}, {"tol": 0.0, "max_iter": 2 * K + 3}, {"max_iter": 0},
                   {"max_iter": 1}, {"max_iter": K + K // 2 + 1}, {"max_iter": 3 * K},
                   {"max_iter": 40}):
        expected = [reference_iterate_from_below(spec, **kwargs)[0] for spec in BLOCK_SPECS]
        for got, run in zip(iterate_from_below(BLOCK_SPECS, **kwargs), expected, strict=True):
            assert_same_run(got, run)
            assert type(got.iterations) is int and type(got.delta) is float
        for spec, run in zip(BLOCK_SPECS, expected):
            got = iterate_from_below(spec, **kwargs)
            assert_same_run(got, run)
            assert type(got.iterations) is int and type(got.delta) is float


def test_default_block_sizes_equal_reference():
    small, large = BLOCK_SPECS[1], GameSpec(100, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.2, 0.6))
    assert fixpoint._block_steps(2 * small.size**2) == fixpoint.MAX_BLOCK_STEPS
    assert fixpoint._block_steps(2 * large.size**2) == 1
    for spec, kwargs in ((small, {}), (small, {"max_iter": 45}),
                         (small, {"tol": 0.0, "max_iter": 70}), (large, {"max_iter": 7}),
                         (large, {"tol": 1e-6, "max_iter": 300})):   # stops at step 288
        got = iterate_from_below(spec, **kwargs)
        assert_same_run(got, reference_iterate_from_below(spec, **kwargs)[0])
        assert type(got.iterations) is int and type(got.delta) is float


# From kappa = 66 a stack tests every step, and its steps recompute only the boxes of
# entries whose inputs changed (fixpoint._box_step) once that pays.  The three points
# of the benchmark's large-kappa workload:
LARGE_KAPPA_SPECS = {
    "poisson-k150": GameSpec(150, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.4, 0.3)),
    "dirac-k195": GameSpec(195, Dirac(2), EdgeWeightLaw.from_p0_p1(0.9, 0.05)),
    "poisson-k100": GameSpec(100, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.8, 0.1)),
}


@pytest.fixture
def box_steps(monkeypatch):
    """(specs, block entries per spec, stack entries) of every box step the test runs."""
    seen = []
    box_step = fixpoint._box_step

    def spy(G, laws, boxes, Z, work, scan):
        seen.append((Z.shape[1], fixpoint._box_entries(boxes), Z.size))
        return box_step(G, laws, boxes, Z, work, scan)

    monkeypatch.setattr(fixpoint, "_box_step", spy)
    return seen


@pytest.mark.parametrize("name", LARGE_KAPPA_SPECS)
def test_large_kappa_runs_equal_two_call_reference(name, box_steps):
    spec = LARGE_KAPPA_SPECS[name]
    run = iterate_from_below(spec)
    assert_same_run(run, reference_iterate_from_below(spec)[0])
    assert run.converged and box_steps


def test_large_kappa_run_cut_mid_front_equals_reference(box_steps):
    spec = GameSpec(250, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.4, 0.3))
    assert_same_run(iterate_from_below(spec, max_iter=500),
                    reference_iterate_from_below(spec, max_iter=500)[0])
    specs, entries, size = box_steps[-1]          # the front fills a fraction of the stack
    assert len(box_steps) > 400 and 0 < 4 * specs * entries < size


def test_large_kappa_fixed_step_runs_and_horizon_iterates_equal_reference(box_steps):
    spec = LARGE_KAPPA_SPECS["poisson-k150"]
    for max_iter in (1, 16, 17, 60):
        assert_same_run(iterate_from_below(spec, tol=0.0, max_iter=max_iter),
                        reference_iterate_from_below(spec, tol=0.0, max_iter=max_iter)[0])
    assert_same_horizon_iterates(spec, 30)
    assert box_steps


def test_large_kappa_list_whose_specs_stop_apart_equals_reference(box_steps):
    specs = [GameSpec(100, Poisson(5.0), EdgeWeightLaw.from_p0_p1(p0, p1))
             for p0, p1 in ((0.4, 0.3), (0.5, 0.4), (0.3, 0.4))]
    expected = [reference_iterate_from_below(spec)[0] for spec in specs]
    assert len({run.iterations for run in expected}) == 3
    for got, run in zip(iterate_from_below(specs), expected, strict=True):
        assert_same_run(got, run)
    assert {specs for specs, _, _ in box_steps} >= {2, 3}     # box steps over the list


def test_large_kappa_steps_that_change_nothing_report_positive_zero(box_steps):
    spec = LARGE_KAPPA_SPECS["dirac-k195"]
    run = iterate_from_below(spec, tol=0.0, max_iter=160)
    assert_same_run(run, reference_iterate_from_below(spec, tol=0.0, max_iter=160)[0])
    assert run.delta == 0.0 and not np.signbit(run.delta)
    assert box_steps[-1][1] == 0                  # the last steps recompute no entry


def test_large_kappa_iteration_that_moves_backwards_raises():
    spec = GameSpec(100, _Decreasing(), EdgeWeightLaw.from_p0_p1(0.5, 0.25))
    for iterate in (iterate_from_below, reference_iterate_from_below):
        with pytest.raises(InternalInconsistencyError, match="monotone iteration moved backwards"):
            iterate(spec)


def test_large_kappa_backwards_move_after_the_stop_step_does_not_raise(box_steps):
    law = EdgeWeightLaw.from_p0_p1(0.9, 0.05)
    expected = reference_iterate_from_below(GameSpec(100, Dirac(2), law), tol=1e-6)[0]
    counted = _Relapsing(10**9)
    assert_same_run(iterate_from_below(GameSpec(100, counted, law), tol=1e-6), expected)
    calls = 10**9 - counted.calls                # the G calls up to the stop step
    assert box_steps and calls < 2 * expected.iterations
    assert_same_run(iterate_from_below(GameSpec(100, _Relapsing(calls), law), tol=1e-6), expected)
    with pytest.raises(InternalInconsistencyError, match="monotone iteration moved backwards"):
        iterate_from_below(GameSpec(100, _Relapsing(calls - 1), law), tol=1e-6)


def test_box_steps_run_where_they_pay(box_steps):
    # a box step costs about what a whole-stack step spends on BOX_STEP_ENTRIES entries
    iterate_from_below(LARGE_KAPPA_SPECS["dirac-k195"])
    assert len(box_steps) > 50
    assert all(specs * entries + fixpoint.BOX_STEP_ENTRIES <= size
               for specs, entries, size in box_steps)
    # a stack of at most BOX_STEP_ENTRIES entries (one spec up to kappa 71), where the
    # measured break-even leaves no box that pays, takes none
    box_steps.clear()
    for kappa in (66, 71):
        spec = GameSpec(kappa, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.4, 0.3))
        assert fixpoint._block_steps(2 * spec.size**2) == 1
        assert 2 * spec.size**2 <= fixpoint.BOX_STEP_ENTRIES
        iterate_from_below(spec, tol=0.0, max_iter=100)
    assert not box_steps


@pytest.mark.parametrize("scan_steps", [1, 10**9], ids=["scan-every-step", "never-scan-box-steps"])
def test_propagated_boxes_equal_reference(scan_steps, box_steps, monkeypatch):
    # every step scans its changes for the next boxes, or only whole-stack steps do,
    # until boxes fit: from then on every box follows from the boxes before alone;
    # with no break-even every step whose boxes are smaller than the stack is a box step
    monkeypatch.setattr(fixpoint, "SCAN_STEPS", scan_steps)
    monkeypatch.setattr(fixpoint, "BOX_STEP_ENTRIES", 0)
    spec = GameSpec(100, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    assert_same_run(iterate_from_below(spec), reference_iterate_from_below(spec)[0])
    assert len(box_steps) > 100
    box_steps.clear()
    specs = [GameSpec(100, Poisson(5.0), EdgeWeightLaw.from_p0_p1(p0, p1))
             for p0, p1 in ((0.4, 0.3), (0.5, 0.4), (0.3, 0.4))]
    for got, spec in zip(iterate_from_below(specs), specs, strict=True):
        assert_same_run(got, reference_iterate_from_below(spec)[0])
    assert {specs for specs, _, _ in box_steps} >= {2, 3}     # per-spec law operands


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


def test_removed_keywords_and_names_stay_removed():
    # the iterate history, the random seed count and the entrywise pgf wrapper are gone
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        iterate_from_below(spec_d2(0.875, 0.025), keep_iterates=True)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        default_seed_matrices(3, n_random=8)
    assert len(default_seed_matrices(3)) == 11 + fixpoint.DEFAULT_SEED_GRID_RANDOM
    assert not hasattr(percgame, "apply_f") and not hasattr(fixpoint, "apply_f")
    assert "apply_f" not in percgame.__all__
    assert [f.name for f in dataclasses.fields(IterationRun)] == [
        "ell", "w", "iterations", "delta", "converged"]


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


def test_step_clips_a_mix_above_one():
    # EdgeWeightLaw takes probabilities that sum to 1 within 1e-12, so a mix of ones can
    # exceed 1; the step clips it before G, as the public pgf's check would
    law = EdgeWeightLaw(0.3 + 4e-13, 0.4, 0.3)
    assert law.p_minus1 + law.p_0 + law.p_1 > 1.0
    spec = GameSpec(4, Dirac(2), law)
    assert apply_g(spec, np.zeros((3, 3))).max() == 1.0
    run = iterate_from_below(spec)
    assert run.ell.max() <= 1.0 and run.w.min() >= 0.0


@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_g_fast_batch_equals_per_slice(dist):
    rng = np.random.default_rng(5)
    for kappa in (2, 3, 5):
        X = rng.random((kappa - 1, 7, kappa - 1))     # rows-first: matrix b is X[:, b]
        got = _g_fast(dist.pgf, 0.3, 0.5, 0.2, X)
        expected = np.stack([_g_fast(dist.pgf, 0.3, 0.5, 0.2, X[:, b]) for b in range(7)], axis=1)
        assert np.array_equal(got, expected)


def reference_edge_mix(C, p1, p0, pm1):
    """The stencil entry by entry on a rows-first stack C of shape (n, *batch, n), whose
    matrix b has entry C[i, b, j] in row i, column j: out[i, ..., j] = pm1 c[j, i-1] +
    p0 c[j, i] + p1 c[j, i+1] (1-based i, j) over the rows of c = C[:, b] padded with
    c[j, 0] = 1 and c[j, kappa] = 0, in _edge_mix's order of additions; p1, p0 and pm1
    broadcast over C."""
    out = np.empty(C.shape)
    weights = [np.broadcast_to(p, C.shape) for p in (pm1, p0, p1)]
    for idx in np.ndindex(C.shape):
        i, *batch, j = idx
        c = [1.0, *C[(j, *batch)], 0.0]
        a, b, d = (float(w[idx]) for w in weights)
        out[idx] = a * c[i] + b * c[i + 1] + d * c[i + 2]
    return out


def _law_stack(kappa, batch):
    """A random rows-first stack of shape (n,) + batch + (n,) and per-row law columns for
    it, from one spec per entry of the first batch axis (one spec's values for batch ())."""
    rng = np.random.default_rng(kappa + len(batch))
    rows = batch[0] if batch else 1
    specs = [GameSpec(kappa, Dirac(2), EdgeWeightLaw.from_p0_p1(p0, p1))
             for p0, p1 in zip(rng.uniform(0.1, 0.6, rows), rng.uniform(0.05, 0.3, rows))]
    n = kappa - 1
    C = rng.random((n,) + batch + (n,))
    return C, _law_columns(specs, C.shape)


@pytest.mark.parametrize("batch", [(), (7,), (3, 2)], ids=str)
@pytest.mark.parametrize("kappa", (2, 3, 5, 40))
def test_edge_mix_equals_literal_stencil(kappa, batch):
    C, laws = _law_stack(kappa, batch)
    C_before = C.copy()
    # fresh buffers
    assert np.array_equal(_edge_mix(C, *laws), reference_edge_mix(C, *laws))
    assert np.array_equal(C, C_before)
    # a loop's buffers, reused across steps through _g_fast with G the identity
    buffers = _stencil_buffers(C.shape)
    for X in (C, C[::-1]):
        got = _g_fast(lambda x: x, *laws, X, buffers).copy()
        assert np.array_equal(got, reference_edge_mix(1.0 - X, *laws))
    assert np.array_equal(C, C_before)


def _stencil_stacks(kappa):
    """(stack, law columns) for the three kinds of rows-first stack the loops build: one
    spec's (n, 1, 2, n), a list of specs with their own laws (n, 5, 2, n), and a
    multi-start row stack of 3 specs x 4 starts (n, 12, n)."""
    rng = np.random.default_rng(kappa)
    n = kappa - 1
    specs = [GameSpec(kappa, Poisson(5.0), EdgeWeightLaw.from_p0_p1(p0, 0.1))
             for p0 in (0.3, 0.4, 0.5, 0.6, 0.7)]
    shapes = ((n, 1, 2, n), (n, 5, 2, n), (n, 12, n))
    return [(rng.random(shape), _law_columns(specs[:rows], shape, repeat=repeat))
            for shape, rows, repeat in zip(shapes, (1, 5, 3), (1, 1, 4))]


@pytest.mark.parametrize("kappa", (2, 3, 41))
def test_stencil_results_are_c_contiguous(kappa):
    # each stencil ufunc acts on one contiguous block of the stack: the property the
    # rows-first layout exists for
    for C, laws in _stencil_stacks(kappa):
        buffers = _stencil_buffers(C.shape)
        for block in buffers:
            assert block.shape == C.shape and block.flags.c_contiguous
        out = np.empty(C.shape)
        for result in (_edge_mix(C, *laws), _edge_mix(C, *laws, buffers, out),
                       _g_fast(Poisson(5.0).pgf, *laws, C),
                       _g_fast(Poisson(5.0)._pgf_inplace, *laws, C, buffers, out)):
            assert result.shape == C.shape and result.flags.c_contiguous
    # a value every spec shares is a 0-d array, others a C-contiguous operand of the
    # stack's shape, so that each stencil multiply is one flat loop
    (C1, one), (C5, listed), (C12, starts) = _stencil_stacks(kappa)
    assert [c.shape for c in one] == [()] * 3
    assert [c.shape for c in listed] == [(), C5.shape, C5.shape]
    assert [c.shape for c in starts] == [(), C12.shape, C12.shape]
    for c in listed[1:] + starts[1:]:
        assert c.flags.c_contiguous
    # each row holds its own spec's value, the starts' rows spec-major
    p0 = listed[1][0, :, 0, 0]
    assert p0.tolist() == [0.3, 0.4, 0.5, 0.6, 0.7]
    assert np.all(listed[1] == p0[None, :, None, None])
    assert starts[1][0, :, 0].tolist() == np.repeat([0.3, 0.4, 0.5], 4).tolist()
    # compacting the rows keeps them C-contiguous and in order
    keep = np.array([True, False, True, True, False])
    kept = fixpoint._rows(listed, keep)
    assert kept[0] is listed[0] and kept[1].flags.c_contiguous
    assert kept[1][0, :, 0, 0].tolist() == [0.3, 0.5, 0.6]


@pytest.mark.parametrize("kappa", (2, 3, 41))
def test_stacked_step_over_row_laws_equals_each_specs_own_step(kappa):
    # one _g_step over a stack whose rows carry their own laws gives every row the bits
    # of that spec's own step on its one matrix, with 0-d laws
    specs = [GameSpec(kappa, Poisson(5.0), EdgeWeightLaw.from_p0_p1(p0, 0.1))
             for p0 in (0.3, 0.4, 0.5, 0.6, 0.7)]       # as in _stencil_stacks
    (listed, listed_laws), (starts, starts_laws) = _stencil_stacks(kappa)[1:]
    for C, laws, row_specs in ((listed, listed_laws, specs),
                               (starts, starts_laws, [s for s in specs[:3] for _ in range(4)])):
        got = fixpoint._g_step(Poisson(5.0)._pgf_inplace, laws, C.swapaxes(0, -1),
                               _stencil_buffers(C.shape), np.empty(C.shape))
        for row, spec in enumerate(row_specs):
            own = _g_fast(spec.dist.pgf, spec.law.p_1, spec.law.p_0, spec.law.p_minus1,
                          C[:, row:row + 1])
            assert np.array_equal(got[:, row:row + 1], own)


@pytest.mark.parametrize("kappa", (2, 3, 4, 6))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_find_fixed_points_batch_equals_per_seed(dist, kappa, caplog):
    spec = GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.8, 0.05))
    assert_same_as_reference(spec, default_seed_matrices(kappa)[:19], caplog)   # 8 random


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
    seeds = default_seed_matrices(3)[:13]   # 2 random
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
    for kwargs in ({"tol": 0.0, "max_iter": 9}, {"max_iter": 40}, {"max_iter": 4000}):
        for got, spec in zip(iterate_from_below(specs, **kwargs), specs, strict=True):
            assert_same_run(got, iterate_from_below(spec, **kwargs))
    # the n-step run of the list gives each spec's n-th horizon iterate
    horizons = [horizon_iterates(spec, 40) for spec in specs]
    for n in range(41):
        runs = iterate_from_below(specs, tol=0.0, max_iter=n)
        for got, (ells, ws) in zip(runs, horizons, strict=True):
            assert np.array_equal(got.ell, ells[n]) and np.array_equal(got.w, ws[n])


def test_list_solve_splits_at_the_stack_cap(monkeypatch):
    specs = grid_specs(3, Binomial(10, 0.6))
    expected = solve(specs)
    monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 3 * 2 * 4)   # three kappa=3 specs
    assert_same_results(solve(specs), expected)
    monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 1)           # at least one spec each
    assert_same_results(solve(specs), expected)


def reference_apply_h(spec, X):
    """apply_h's matrix expression on one 2-D matrix, with P.T and P of that spec alone."""
    n = spec.size
    P = weight_matrix(spec)
    J = np.ones((n, n))
    e1_row, e1_col = np.zeros((n, n)), np.zeros((n, n))
    e1_row[0, :] = 1.0
    e1_col[:, 0] = 1.0
    pm1 = spec.law.p_minus1
    inner = spec.dist.pgf(pm1 * e1_col + (J - X) @ P.T)
    return spec.dist.pgf(pm1 * e1_row + P @ (J - inner))


def reference_solve_fields(spec, run, tol):
    """(gap, D, residual, converged) of one run, each matrix checked apart."""
    gap = 1.0 - run.w - run.ell
    D = np.where(np.abs(gap) <= fixpoint.DEFAULT_DRAW_EPSILON, 0.0, np.maximum(gap, 0.0))
    ybar = 1.0 - run.w
    residual = max(float(np.max(np.abs(reference_apply_h(spec, run.ell) - run.ell))),
                   float(np.max(np.abs(reference_apply_h(spec, ybar) - ybar))))
    return gap, D, residual, run.converged and residual <= 10 * tol


def assert_results_equal_reference(results, specs, **kwargs):
    runs = [iterate_from_below(spec, **kwargs) for spec in specs]
    tol = kwargs.get("tol", fixpoint.DEFAULT_TOL)
    for result, spec, run in zip(results, specs, runs, strict=True):
        gap, D, residual, converged = reference_solve_fields(spec, run, tol)
        assert np.array_equal(result.L, run.ell) and np.array_equal(result.W, run.w)
        assert np.array_equal(result.gap, gap) and np.array_equal(result.D, D)
        assert result.residual == residual and type(result.residual) is float
        assert result.converged is converged and result.iterations == run.iterations


@pytest.mark.parametrize("kappa", (2, 3, 4, 12))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_stacked_residual_equals_per_matrix_residual(dist, kappa):
    # solve forms the gap, D and the residual check once over a stack of specs; a list
    # solve equals the one-spec solves, and both equal the per-matrix check
    specs = grid_specs(kappa, dist, p0s=(0.3, 0.5, 0.75, 0.9))
    got = solve(specs)
    assert_same_results(got, [solve(spec) for spec in specs])
    assert_results_equal_reference(got, specs)


def test_list_solve_over_two_stacks_with_a_spec_at_max_iter(monkeypatch):
    specs = grid_specs(12, Poisson(5.0))
    counts = sorted(iterate_from_below(spec).iterations for spec in specs)
    max_iter = counts[-1] - 1                    # the slowest spec stops at max_iter
    expected = [solve(spec, max_iter=max_iter) for spec in specs]
    stacks = []
    solve_results = fixpoint._solve_results
    monkeypatch.setattr(fixpoint, "_solve_results",
                        lambda specs, runs, tol: stacks.append(len(specs))
                        or solve_results(specs, runs, tol))
    monkeypatch.setattr(fixpoint, "MAX_STACK_ENTRIES", 2 * 11**2 * 7)  # stacks of 7 and 5
    got = solve(specs, max_iter=max_iter)
    assert stacks == [7, 5]
    assert_same_results(got, expected)
    assert_results_equal_reference(got, specs, max_iter=max_iter)
    assert not got.converged and sum(r.converged for r in got) == len(specs) - 1


@pytest.mark.parametrize("kappa", (2, 3, 4, 12))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_apply_h_equals_its_matrix_expression(dist, kappa):
    rng = np.random.default_rng(kappa)
    spec = GameSpec(kappa, dist, EdgeWeightLaw.from_p0_p1(0.5, 0.2))
    for X in (rng.random((kappa - 1, kappa - 1)), np.zeros((kappa - 1, kappa - 1)),
              np.ones((kappa - 1, kappa - 1))):
        got = apply_h(spec, X.tolist())
        assert got.shape == X.shape and np.array_equal(got, reference_apply_h(spec, X))


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


MULTI_START_SPECS = grid_specs(3, Poisson(5.0), p0s=(0.3, 0.75, 0.875, 0.9), p1s=(0.025, 0.05))


@pytest.mark.parametrize("max_iter", (0, 1, 5, 33, 50, None), ids=str)
@pytest.mark.parametrize("kappa", (2, 3))
def test_block_tested_multi_start_equals_per_spec_and_per_seed(kappa, max_iter, caplog):
    # the freeze test runs once per block of h-steps; a list of 8 specs at kappa 3 takes
    # blocks of 6 h-steps and one spec blocks of 32, so max_iter 5, 33 and 50 end inside
    # a block, while each seed still freezes at its first h-step below tol
    specs = [dataclasses.replace(spec, kappa=kappa) for spec in MULTI_START_SPECS]
    seeds = default_seed_matrices(kappa)
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    expected, warnings = [], []
    with caplog.at_level(logging.WARNING, logger="percgame.fixpoint"):
        for spec in specs:
            caplog.clear()
            expected.append(find_fixed_points(spec, seeds, **kwargs))
            reference, dropped = reference_find_fixed_points(spec, seeds, **kwargs)
            warnings += [dropped] if dropped else []
            assert dropped_counts(caplog) == ([dropped] if dropped else [])
            assert len(expected[-1]) == len(reference)
            assert all(map(np.array_equal, expected[-1], reference))
        caplog.clear()
        got = find_fixed_points(specs, seeds, **kwargs)
    assert dropped_counts(caplog) == warnings
    for mine, theirs in zip(got, expected, strict=True):
        assert len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))
    if max_iter == 0:
        assert got == [[]] * len(specs) and warnings == [len(seeds)] * len(specs)


def test_seed_grid_is_checked_once_with_the_matrix_messages(monkeypatch):
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.875, 0.025))
    good = np.full((2, 2), 0.5)
    cases = [[good, np.zeros((3, 3))], [np.zeros((3, 3)), good], [good, [0.5, 0.5]],
             [good, np.full((2, 2), np.nan)], [good, np.full((2, 2), 1.5)],
             [np.full((2, 2), -0.1), np.zeros((3, 3))], [[[0.5, 0.5], [0.5]]],
             np.zeros((4, 3, 3)), [np.zeros((2, 2, 1))]]
    for seeds in cases:
        with pytest.raises(ValueError) as expected:
            for seed in seeds:                     # the first bad seed's message
                ensure_prob_matrix(seed, 2)
        for specs in (spec, [spec, spec]):
            with pytest.raises(ValueError) as got:
                find_fixed_points(specs, seeds)
            assert str(got.value) == str(expected.value)
    # a grid of the right shape takes one range check, not one per seed
    calls = []
    check = fixpoint.ensure_prob_matrix
    monkeypatch.setattr(fixpoint, "ensure_prob_matrix", lambda *a: calls.append(a) or check(*a))
    assert len(find_fixed_points(spec)) == 6 and not calls
    # the checked grid is clipped to [0, 1] as each matrix is
    edge = [np.full((2, 2), 1.0 + 1e-13), np.full((2, 2), -1e-13)]
    assert np.array_equal(fixpoint._ensure_prob_stack(edge, 2),
                          np.stack([check(X, 2) for X in edge]))
    assert find_fixed_points(spec, []) == [] and find_fixed_points([spec], []) == [[]]


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


# The contraction certificate of find_fixed_points (_unique_fixed_point)

def reference_certified(spec):
    """_unique_fixed_point for one spec with dense matrices: the box from
    reference_iterate_from_below, the bound of |g'| above a point as an n^2 x n^2 matrix
    written entry by entry, M as the product of two of them, and the same widening,
    margin, cap and give-up rule."""
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    weights = ((-1, pm1), (0, p0), (1, p1))
    run = reference_iterate_from_below(spec, tol=0.0, max_iter=2 * fixpoint.CERT_BOX_STEPS)[0]
    up = np.clip(1e-12 + (1.0 - run.w), 0.0, 1.0)

    def bound(X):
        # g(X)[i, j] = G(sum_d p_d c[j, i + d]), c = 1 - X padded with 1 and 0, so
        # |d g(Y)[i, j] / d Y[j, i + d]| = p_d G'(mix) <= this at every Y >= X
        X = np.clip(X - 1e-12, 0.0, 1.0)
        K = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                c = [1.0 if k < 0 else 0.0 if k >= n else 1.0 - X[j, k] for k in (i - 1, i, i + 1)]
                mix = pm1 * c[0] + p0 * c[1] + p1 * c[2]
                slope = spec.dist.pgf_derivative(min(max(mix, 0.0), 1.0))
                for d, p in weights:
                    if 0 <= i + d < n:
                        K[i * n + j, j * n + i + d] = p * slope
        return K

    M = bound(_g_fast(spec.dist.pgf, p1, p0, pm1, up)) @ bound(run.ell)
    v, last = np.ones(n * n), np.inf
    for _ in range(fixpoint.CERT_POWERS):
        v = M @ v
        if v.max() <= 1.0 - 1e-9:
            return True
        if not v.max() < last:
            return False
        last = v.max()
    return False


@pytest.mark.parametrize("kappa", (2, 3, 4))
@pytest.mark.parametrize("dist", FAMILIES.values(), ids=FAMILIES.keys())
def test_certificate_equals_dense_reference(dist, kappa):
    specs = grid_specs(kappa, dist, p0s=(0.1, 0.3, 0.5, 0.7, 0.85), p1s=(0.02, 0.1))
    expected = [reference_certified(spec) for spec in specs]
    assert fixpoint._unique_fixed_point(specs).tolist() == expected
    assert [fixpoint._unique_fixed_point([spec])[0] for spec in specs] == expected
    assert any(expected)


def test_certificate_refuses_the_identity_operator():
    # with one child and every edge weight 0, g(X) = 1 - X^T and h is the identity up to
    # rounding: every matrix is a fixed point, M is I, and every seed is its own limit
    spec = GameSpec(3, Dirac(1), EdgeWeightLaw(0.0, 1.0, 0.0))
    assert not fixpoint._unique_fixed_point([spec])[0]
    assert not reference_certified(spec)
    assert len(find_fixed_points(spec)) == len(default_seed_matrices(3))


# the five families with a closed-form capital-2 test, at laws either side of it
KAPPA2_FAMILIES = [Binomial(10, 0.6), Dirac(2), Dirac(5), Poisson(5.0), NegBinomial(2, 0.1),
                   TwoPoint(0.9, 4)]


@pytest.mark.parametrize("dist", KAPPA2_FAMILIES, ids=repr)
def test_certified_specs_have_no_kappa2_draw(dist):
    specs = [GameSpec(2, dist, EdgeWeightLaw.from_p0_p1(p0, p1))
             for p1 in (0.0, 0.01, 0.05, 0.2) for p0 in np.linspace(0.0, 1.0 - p1, 41)]
    certified = fixpoint._unique_fixed_point(specs)
    zero = np.array([criteria.kappa2_draw_zero(dist, spec.law) for spec in specs])
    assert not np.any(certified & ~zero)
    assert certified.any() and not zero.all()        # the grid crosses the boundary


@pytest.mark.parametrize("kappa", (3, 4, 5, 6))
@pytest.mark.parametrize("dist", [Poisson(5.0), Binomial(10, 0.6), Dirac(2)], ids=repr)
def test_certified_specs_have_no_draw_and_one_fixed_point(dist, kappa, monkeypatch):
    specs = grid_specs(kappa, dist, p0s=(0.05, 0.1, 0.45, 0.9), p1s=(0.02, 0.1))
    certified = [spec for spec, ok in zip(specs, fixpoint._unique_fixed_point(specs)) if ok]
    assert 0 < len(certified) < len(specs)
    for result in solve(certified):
        assert result.converged and np.all(result.D == 0.0)
    monkeypatch.setattr(fixpoint, "_unique_fixed_point", lambda specs: np.zeros(len(specs), bool))
    assert [len(points) for points in find_fixed_points(certified)] == [1] * len(certified)


@pytest.mark.parametrize("kappa", (2, 3))
def test_certified_points_equal_the_full_grid_reference(kappa):
    # the list's specs certify apart; test_block_tested_multi_start_equals_per_spec_and_per_seed
    # runs the same list at other max_iter
    specs = [dataclasses.replace(spec, kappa=kappa) for spec in MULTI_START_SPECS]
    certified = fixpoint._unique_fixed_point(specs)
    assert 0 < certified.sum() < len(specs)
    seeds = default_seed_matrices(kappa)
    for spec, points, ok in zip(specs, find_fixed_points(specs), certified):
        if ok:
            expected, dropped = reference_find_fixed_points(spec, seeds)
            assert dropped == 0 and len(points) == len(expected) == 1
            assert np.array_equal(points[0], expected[0])
            assert np.array_equal(find_fixed_points(spec)[0], expected[0])


def test_certified_spec_whose_first_seed_does_not_settle_takes_every_seed(caplog):
    # the zero seed is among this spec's slowest: at 40 h-steps it has not settled and the spec
    # iterates every seed, as without the certificate, dropping the same seeds
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.3, 0.02))
    assert fixpoint._unique_fixed_point([spec])[0]
    seeds = default_seed_matrices(3)
    for max_iter, count in ((30, 0), (40, 1), (48, 1)):
        points, dropped = assert_same_as_reference(spec, seeds, caplog, max_iter=max_iter)
        assert len(points) == count and (dropped > 0) == (max_iter < 48)


def test_loose_tol_reports_one_point_where_certified():
    # at tol 1e-5 the seeds stop up to ~1e-5 from the one fixed point, in ten clusters
    # of DEFAULT_CLUSTER_RADIUS; the certified search reports the first seed's limit alone
    spec = GameSpec(3, Poisson(5.0), EdgeWeightLaw.from_p0_p1(0.3, 0.02))
    seeds = default_seed_matrices(3)
    clusters, _ = reference_find_fixed_points(spec, seeds, tol=1e-5)
    first, _ = reference_find_fixed_points(spec, seeds[:1], tol=1e-5)
    points = find_fixed_points(spec, tol=1e-5)
    assert len(clusters) == 10 and len(points) == 1
    assert np.array_equal(points[0], first[0])


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


@pytest.mark.xfail(raises=InternalInconsistencyError, strict=True,
                   reason="ROADMAP item 1: threshold verdicts mix ZERO and POSITIVE here")
def test_verdicts_agree_under_a_strictly_positive_law_at_kappa_20():
    # the draws are jointly zero or jointly positive, yet classify_draw raises "mixed
    # ZERO and POSITIVE" at this point, a cheap repro of the kappa=100 failure; drop
    # the marker once verdicts come from proofs
    verdicts = classify_draw(solve(GameSpec(20, Dirac(2), EdgeWeightLaw.from_p0_p1(0.8, 0.05))))
    assert len(set(verdicts.ravel())) == 1


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
