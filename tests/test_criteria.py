import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from percgame import criteria
from percgame import (Binomial, Dirac, DurationReport, EdgeWeightLaw, Explicit, GameSpec,
                      InternalInconsistencyError, Kappa3Bounds, NegBinomial, Poisson,
                      SolveResult, TwoPoint, UniformRange, Verdict, classify_draw,
                      UnsupportedFamilyError, duration_criterion, geometric,
                      kappa2_draw_zero, kappa3_bounds, kappa3_contraction_holds,
                      kappa3_p0_zero_check, kappa3_special_ratio,
                      ratio_law, solve)
from percgame.fixpoint import DEFAULT_DRAW_EPSILON


def law(p0, p1):
    return EdgeWeightLaw.from_p0_p1(p0, p1)


def _within_display(ref, got):
    """Whether `got` truncated to the digits of the positive decimal string
    `ref` reads `ref`, i.e. ref <= got < ref + one unit in its last place.
    Published bound values are truncated displays, not rounded ones."""
    lo = Decimal(ref)
    return lo <= Decimal(float(got)) < lo + Decimal(1).scaleb(lo.as_tuple().exponent)


# ---------------------------------------------------------------------------
# capital-2 dichotomy
# ---------------------------------------------------------------------------

def test_kappa2_geometric_always_zero():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p0 = rng.random()
        p1 = rng.random() * (1 - p0)
        assert kappa2_draw_zero(NegBinomial(1, rng.uniform(0.05, 0.95)), law(p0, p1))


def test_kappa2_poisson2_zero_on_whole_simplex():
    # sup of p0 * 2 * exp(-2 p1) over the simplex is 2 < e
    for p0 in np.linspace(0, 1, 11):
        for p1 in np.linspace(0, 1, 11):
            if p0 + p1 <= 1:
                assert kappa2_draw_zero(Poisson(2.0), law(p0, p1))


def test_kappa2_poisson10_positive_example():
    # 0.99 * 10 * exp(-0.05) = 9.417... > e
    assert not kappa2_draw_zero(Poisson(10.0), law(0.99, 0.005))
    assert 0.99 * 10 * math.exp(-0.05) > math.e


def test_kappa2_matches_literal_inequalities():
    cases = [(0.8, 0.1), (0.5, 0.25), (0.95, 0.02), (0.2, 0.5)]
    for p0, p1 in cases:
        lw = law(p0, p1)
        d, pi = 5, 0.5
        lhs = p0 * pi * (1 - pi * p1) ** (d - 1)
        assert kappa2_draw_zero(Binomial(d, pi), lw) == (lhs <= (d + 1) ** (d - 1) * d ** (-d))
        lam = 3.0
        assert kappa2_draw_zero(Poisson(lam), lw) == (p0 * lam * math.exp(-lam * p1) <= math.e)
        r, pi = 2, 0.4
        lhs = (r - 1) ** (r + 1) * (1 - pi) * p0 * pi**r
        rhs = (p1 + pi - p1 * pi) ** (r + 1) * r**r
        assert kappa2_draw_zero(NegBinomial(r, pi), lw) == (lhs <= rhs)
        pi, d = 0.5, 3
        lhs = p0 * pi * (pi * (1 - p1) + lw.p_minus1 * (1 - pi)) ** (d - 1)
        assert kappa2_draw_zero(TwoPoint(pi, d), lw) == (lhs <= (d + 1) ** (d - 1) / d**d)


def exact_kappa2_draw_zero(dist, lw):
    """The binomial, negative binomial and two-point capital-2 inequalities in exact rationals."""
    p0, p1, pm1, pi = (Fraction(x) for x in (lw.p_0, lw.p_1, lw.p_minus1, dist.pi))
    if isinstance(dist, Binomial):
        d = int(dist.n)
        return p0 * pi * (1 - pi * p1) ** (d - 1) <= Fraction((d + 1) ** (d - 1), d**d)
    if isinstance(dist, TwoPoint):
        d = int(dist.d)
        return (p0 * pi * (pi * (1 - p1) + pm1 * (1 - pi)) ** (d - 1)
                <= Fraction((d + 1) ** (d - 1), d**d))
    r = int(dist.r)
    return (r - 1) ** (r + 1) * (1 - pi) * p0 * pi**r <= (p1 + pi - p1 * pi) ** (r + 1) * r**r


@pytest.mark.parametrize("k", [144, 500, np.int64(144)], ids=["144", "500", "int64-144"])
def test_kappa2_large_laws_equal_exact_reference(k):
    # k^k no longer fits a float from k = 144 on, nor an int64; pi^500 underflows below pi = 0.24
    seen = set()
    for pi in np.linspace(0.01, 0.99, 15).tolist():
        for p0 in np.linspace(0.0, 1.0, 6).tolist():
            for p1 in np.linspace(0.0, 1.0 - p0, 4).tolist():
                lw = law(p0, p1)
                for dist in (Binomial(k, pi), NegBinomial(k, pi), TwoPoint(pi, k)):
                    verdict = kappa2_draw_zero(dist, lw)
                    assert verdict == exact_kappa2_draw_zero(dist, lw), (dist, p0, p1)
                    seen.add((dist.family, verdict))
    assert len(seen) == 6


def big_int_kappa2_draw_zero(dist, lw):
    """kappa2_draw_zero as it was, forming the exact big-int ratios of powers for every
    n, r and d: its verdicts are the float inequalities with the ratios' nearest floats."""
    p0, p1, pm1 = lw.p_0, lw.p_1, lw.p_minus1
    if isinstance(dist, Binomial):
        d, pi = int(dist.n), dist.pi
        return p0 * pi * (1.0 - pi * p1) ** (d - 1) <= (d + 1) ** (d - 1) / d**d
    if isinstance(dist, NegBinomial):
        r, pi = int(dist.r), dist.pi
        q = p1 + pi - p1 * pi
        return (r - 1) ** (r + 1) / r**r * (1.0 - pi) * p0 * (pi / q) ** r <= q
    d, pi = int(dist.d), dist.pi
    return (p0 * pi * (pi * (1.0 - p1) + pm1 * (1.0 - pi)) ** (d - 1)
            <= (d + 1) ** (d - 1) / d**d)


RATIO_GRID = list(range(1, 41)) + [99, 143, 144, 500, 1000, 4096, 10**4]


def test_kappa2_ratio_float_forms_within_margin():
    # the worst relative error on this grid is about 4e-16; the margin holds 1e-14 a
    # hundred times over
    assert 100 * 1e-14 <= criteria.RATIO_MARGIN
    for k in RATIO_GRID:
        forms = [(criteria._negbin_ratio(k), Fraction((k - 1) ** (k + 1), k**k))]
        if k >= 2:
            forms.append((criteria._binomial_ratio(k), Fraction((k + 1) ** (k - 1), k**k)))
        for approx, exact in forms:
            assert abs(Fraction(approx) - exact) <= Fraction(1e-14) * exact, k


def _tie(verdict, p1):
    """The adjacent floats p0 < p0' at which verdict(law(., p1)) turns from True to
    False, found by bisection, or None when it holds on all of [0, 1 - p1]."""
    lo, hi = 0.0, 1.0 - p1
    if verdict(law(hi, p1)):
        return None
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if verdict(law(mid, p1)) else (lo, mid)


@pytest.mark.parametrize("k", [5, 12, 144, 1000, 10**4])
def test_kappa2_verdicts_equal_big_int_form_at_ties(k, monkeypatch):
    # at a tie the float form cannot decide and the exact powers are formed; a few
    # floats away, and far from it, the float form decides alone
    calls = []
    decide = criteria._at_power_ratio

    def counting(holds, approx, powers):
        seen = []
        verdict = decide(lambda c: seen.append(c) or holds(c), approx, powers)
        calls.append(len(seen))
        return verdict

    monkeypatch.setattr(criteria, "_at_power_ratio", counting)
    for dist in (Binomial(k, 0.6), NegBinomial(k, 0.3), TwoPoint(max(0.9, 1 - 1 / k), k)):
        ties = [(p1, tie) for p1 in (0.5 / k, 2.0 / k, 0.05)
                if (tie := _tie(lambda lw: big_int_kappa2_draw_zero(dist, lw), p1))]
        assert ties, dist
        for p1, (lo, hi) in ties:
            for p0 in (lo, hi, lo * (1 - 1e-13), hi * (1 + 1e-13), lo * (1 - 1e-9),
                       hi * (1 + 1e-9), lo / 2, hi * 1.5):
                lw = law(min(p0, 1.0 - p1), p1)
                assert kappa2_draw_zero(dist, lw) == big_int_kappa2_draw_zero(dist, lw), (
                    dist, p0, p1)
            assert kappa2_draw_zero(dist, law(lo, p1)) and not kappa2_draw_zero(dist, law(hi, p1))
    assert {2, 3} <= set(calls)   # both the float verdicts and the exact fallback ran


def test_kappa2_unsupported_family():
    with pytest.raises(UnsupportedFamilyError):
        kappa2_draw_zero(UniformRange(3), law(0.8, 0.1))
    with pytest.raises(UnsupportedFamilyError):
        kappa2_draw_zero(Binomial(1, 0.5), law(0.8, 0.1))
    with pytest.raises(UnsupportedFamilyError, match="m >= 2"):
        kappa2_draw_zero(Dirac(1), law(0.8, 0.1))


# a p0 x p1 grid over the simplex that crosses the Dirac(m) boundaries for m = 2, 3, 5
KAPPA2_GRID = [(p0, p1) for p0 in np.linspace(0.0, 1.0, 21)
               for p1 in np.linspace(0.0, 1.0 - p0, 6)]


@pytest.mark.parametrize("m", (2, 3, 5))
def test_kappa2_dirac_is_binomial_with_pi_one(m):
    verdicts = [kappa2_draw_zero(Dirac(m), law(p0, p1)) for p0, p1 in KAPPA2_GRID]
    assert verdicts == [kappa2_draw_zero(Binomial(m, 1.0), law(p0, p1)) for p0, p1 in KAPPA2_GRID]
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# capital-3 bounds
# ---------------------------------------------------------------------------

def test_kappa3_bounds_poisson5_closed_forms():
    b = kappa3_bounds(Poisson(5.0), EdgeWeightLaw(0.35, 0.3, 0.35))
    # evaluate the displayed closed forms independently
    a21 = math.exp(5 * (0.35 * (1 - math.exp(-5 * 0.65 * math.exp(5 * (0.35 - 1)))) - 1))
    assert b.A[1, 0] == pytest.approx(a21, rel=1e-12)
    assert b.A[0, 0] == pytest.approx(math.exp(5 * (0.35 - 1)), rel=1e-12)
    assert b.B[1, 0] == pytest.approx(math.exp(-5 * 0.35), rel=1e-12)
    assert _within_display("0.0991", b.A[1, 1])
    assert _within_display("0.44488", b.B[0, 0])
    assert _within_display("0.84123", b.B[0, 1])


def test_kappa3_bounds_dirac15_closed_forms():
    b = kappa3_bounds(Dirac(15), EdgeWeightLaw(0.35, 0.3, 0.35))
    assert b.A[0, 0] == pytest.approx(0.35**15, rel=1e-12)
    assert b.B[1, 0] == pytest.approx(0.65**15, rel=1e-12)
    assert _within_display("2.57866e-95", b.A[1, 0])
    assert _within_display("0.00188145", b.B[0, 0])
    assert _within_display("0.992019", b.B[0, 1])


@pytest.mark.parametrize("dist,lw", [
    (Poisson(2.0), law(0.5, 0.3)),
    (Poisson(5.0), law(0.3, 0.35)),
    (Dirac(5), law(0.3, 0.35)),
    (Binomial(6, 0.5), law(0.6, 0.2)),
    (geometric(0.5), law(0.4, 0.3)),
    (UniformRange(4), law(0.55, 0.25)),
])
def test_bounds_sandwich_solved_probabilities(dist, lw):
    b = kappa3_bounds(dist, lw)
    r = solve(GameSpec(3, dist, lw))
    assert r.converged
    assert np.all(b.A <= r.L + 1e-9)
    assert np.all(1 - r.W <= b.B + 1e-9)
    assert np.all(b.A <= b.B + 1e-12)


@pytest.mark.parametrize("dist", [Poisson(5.0), Dirac(4), Binomial(6, 0.5)], ids=repr)
@pytest.mark.parametrize("p0, p1", [(0.2, 0.5), (0.3, 0.15), (0.1, 0.6), (0.45, 0.35)])
def test_kappa3_bounds_at_asymmetric_laws(dist, p0, p1):
    # A, B and E term by term where p1 != p_m1, so that a swap of the two shows; E[i, j]
    # chains |d f_a / d x_i| at (f_k(B_1), f_k(B_2)) with |d f_k / d x_j| at A_i
    G, Gp, pm1 = dist.pgf, dist.pgf_derivative, 1 - p0 - p1
    g_m, g_q = G(pm1), G(1 - p1)
    mix = (1 - pm1) * (1 - g_m) + pm1
    A = [[g_m, g_m], [G(pm1 * (1 - G(1 - (1 - pm1) * g_m))),
                      G(pm1 * (1 - G(1 - g_m))) + G((1 - p1) * (1 - g_q))
                      - G(pm1 * (1 - g_q - G(1 - g_m) + G((1 - p1) * (1 - g_m))))]]
    B = [[G(1 - (1 - pm1) * g_m) - G(mix) + G(mix - p1 * G(1 - g_q) + p1 * G(pm1 * (1 - g_q))),
          G(1 - p1 * G((1 - p1) * (1 - g_q)))], [g_q, g_q]]
    args = (lambda x1, x2: 1 - p1 * x2 - p0 * x1, lambda x1, x2: p0 + pm1 - p0 * x2 - pm1 * x1)
    coefs = ((p0, p1), (pm1, p0))      # |d f_a / d x_j| = coefs[a][j] * G'(args[a])

    def partial(a, j, x):
        return coefs[a][j] * Gp(args[a](*x))

    outer_at = [[G(args[k](*B[0])), G(args[k](*B[1]))] for k in (0, 1)]
    E = [[sum(partial(a, i, outer_at[k]) * partial(k, j, A[i]) for a in (0, 1) for k in (0, 1))
          for j in (0, 1)] for i in (0, 1)]
    b = kappa3_bounds(dist, law(p0, p1))
    np.testing.assert_allclose([b.A, b.B, b.E], [A, B, E], rtol=1e-12, atol=0)


def test_kappa3_bounds_partials_match_finite_differences():
    dist, lw = Poisson(5.0), EdgeWeightLaw(0.35, 0.3, 0.35)
    G = dist.pgf
    p0, p1, pm1 = lw.p_0, lw.p_1, lw.p_minus1
    h = 1e-6

    def f1(x1, x2):
        return G(1 - p1 * x2 - p0 * x1)

    def f2(x1, x2):
        return G(p0 + pm1 - p0 * x2 - pm1 * x1)

    Gp = dist.pgf_derivative
    for (x1, x2) in ((0.2, 0.3), (0.05, 0.6)):
        assert -p0 * Gp(1 - p1 * x2 - p0 * x1) == pytest.approx(
            (f1(x1 + h, x2) - f1(x1 - h, x2)) / (2 * h), abs=1e-5)
        assert -p1 * Gp(1 - p1 * x2 - p0 * x1) == pytest.approx(
            (f1(x1, x2 + h) - f1(x1, x2 - h)) / (2 * h), abs=1e-5)
        assert -pm1 * Gp(p0 + pm1 - p0 * x2 - pm1 * x1) == pytest.approx(
            (f2(x1 + h, x2) - f2(x1 - h, x2)) / (2 * h), abs=1e-5)
        assert -p0 * Gp(p0 + pm1 - p0 * x2 - pm1 * x1) == pytest.approx(
            (f2(x1, x2 + h) - f2(x1, x2 - h)) / (2 * h), abs=1e-5)


def test_contraction_holds_cases():
    assert kappa3_contraction_holds(
        Kappa3Bounds(A=np.zeros((2, 2)), B=np.ones((2, 2)), E=np.zeros((2, 2))))
    b = kappa3_bounds(Poisson(50.0), EdgeWeightLaw(0.3, 0.4, 0.3))
    assert kappa3_contraction_holds(b)
    assert np.max(b.E) < 1e-3
    b = kappa3_bounds(Poisson(5.0), EdgeWeightLaw(0.1, 0.8, 0.1))
    assert not kappa3_contraction_holds(b)
    assert np.max(b.E) > 1


def test_contraction_soundness_implies_zero_draws():
    cases = [
        (Poisson(50.0), EdgeWeightLaw(0.3, 0.4, 0.3)),
        (Poisson(25.0), EdgeWeightLaw(0.35, 0.3, 0.35)),
        (Dirac(20), EdgeWeightLaw(0.35, 0.3, 0.35)),
        (Dirac(30), EdgeWeightLaw(0.25, 0.5, 0.25)),
    ]
    for dist, lw in cases:
        if kappa3_contraction_holds(kappa3_bounds(dist, lw)):
            r = solve(GameSpec(3, dist, lw))
            assert np.all(r.D < 1e-8), (dist, lw)


# ---------------------------------------------------------------------------
# special regimes
# ---------------------------------------------------------------------------

def test_special_ratio_intervals():
    assert kappa3_special_ratio(0.1)
    assert not kappa3_special_ratio(1.0)
    assert kappa3_special_ratio(3.0)
    assert kappa3_special_ratio(0.0)
    assert not kappa3_special_ratio(0.242915)     # left endpoint excluded
    assert not kappa3_special_ratio(2.57162)      # right endpoint excluded
    with pytest.raises(ValueError):
        kappa3_special_ratio(-0.5)


def test_ratio_law_normalization():
    lw = ratio_law(2.0)
    assert lw.p_minus1 + lw.p_0 + lw.p_1 == pytest.approx(1.0)
    assert lw.p_0 / lw.p_minus1 == pytest.approx(2.0)
    assert lw.p_1 / lw.p_0 == pytest.approx(2.0)


def test_special_ratio_certificate_agrees_with_solve():
    for alpha in (0.1, 0.2, 3.0, 5.0):
        assert kappa3_special_ratio(alpha)
        r = solve(GameSpec(3, Dirac(2), ratio_law(alpha)))
        assert np.all(r.D < 1e-8), alpha


def test_p0_zero_check_validation_and_formula():
    with pytest.raises(ValueError):
        kappa3_p0_zero_check(Dirac(2), 1.5)
    assert kappa3_p0_zero_check(Dirac(2), 0.0)
    assert kappa3_p0_zero_check(Poisson(50.0), 0.875)
    assert not kappa3_p0_zero_check(Poisson(50.0), 0.9)   # product 1.0824


@pytest.mark.parametrize("dist", [Dirac(2), Poisson(3.0), Poisson(50.0), Binomial(10, 0.6),
                                  NegBinomial(2, 0.1), TwoPoint(0.5, 3), UniformRange(3),
                                  Explicit([0.1, 0.2, 0.3, 0.15, 0.25])], ids=repr)
def test_p0_zero_check_is_the_product_rule(dist):
    G, Gp = dist.pgf, dist.pgf_derivative
    for pm1 in (i / 40 for i in range(41)):
        product = pm1 * (1 - pm1) * Gp(1 - (1 - pm1) * G(pm1)) * Gp(pm1 * (1 - G(pm1)))
        assert kappa3_p0_zero_check(dist, pm1) == (product < 1), pm1


def kappa3_p0_zero_maps(dist, p_minus1):
    """The pair of scalar maps a(x) = G(p_m1 - p_m1 x), b(x) = G(1 - p1 x)
    governing the p_0 = 0 regime at kappa = 3 (p1 = 1 - p_m1)."""
    p1 = 1.0 - p_minus1

    def a(x):
        return dist.pgf(p_minus1 - p_minus1 * x)

    def b(x):
        return dist.pgf(1.0 - p1 * x)

    return a, b


def count_scalar_fixed_points(fn):
    """Multi-start fixed-point count for a scalar self-map of [0, 1]."""
    rng = np.random.default_rng(7)
    starts = [0.0, 1.0] + list(np.arange(0.1, 0.95, 0.1)) + list(rng.random(32))
    found = []
    for x in starts:
        settled = False
        for _ in range(10**6):
            xn = float(fn(x))
            if abs(xn - x) < 1e-12:
                x = xn
                settled = True
                break
            x = xn
        if settled and not any(abs(x - f) < 1e-6 for f in found):
            found.append(x)
    return len(found)


def test_p0_zero_uniqueness_equivalence():
    # d_{1,1} = 0 iff the composed scalar map b(b(a(a(.)))) has a unique fixed
    # point; likewise d_{1,2} with b(a(a(b(.)))).  Cross-validate the scalar
    # multi-start count against the full solve on a parameter grid.
    grids = {
        Dirac(2): np.linspace(0.05, 0.95, 7),
        Poisson(2.0): np.linspace(0.05, 0.95, 7),
        Poisson(50.0): [0.85, 0.9],
        Dirac(10): [0.3, 0.7],
    }
    for dist, grid in grids.items():
        for pm1 in grid:
            a, b = kappa3_p0_zero_maps(dist, pm1)
            r = solve(GameSpec(3, dist, EdgeWeightLaw(pm1, 0.0, 1.0 - pm1)))
            assert r.converged
            n11 = count_scalar_fixed_points(lambda x: b(b(a(a(x)))))
            n12 = count_scalar_fixed_points(lambda x: b(a(a(b(x)))))
            assert (r.D[0, 0] < 1e-8) == (n11 == 1), (dist, pm1)
            assert (r.D[0, 1] < 1e-8) == (n12 == 1), (dist, pm1)
            # part-4 parity pairing: (1,1) with (2,2) and (1,2) with (2,1)
            assert (r.D[0, 0] < 1e-8) == (r.D[1, 1] < 1e-8)
            assert (r.D[0, 1] < 1e-8) == (r.D[1, 0] < 1e-8)
            if kappa3_p0_zero_check(dist, pm1):
                assert np.all(r.D < 1e-8)


# ---------------------------------------------------------------------------
# duration certificate
# ---------------------------------------------------------------------------

def reference_duration_criterion(spec, result):
    """duration_criterion's former cell-by-cell body: its own padded W and L
    columns, alpha and beta filled in a double loop, and the row sums in a
    four-deep loop.  The vectorised code must reproduce it bit for bit."""
    k = spec.kappa
    n = spec.size
    p1, p0, pm1 = spec.law.p_1, spec.law.p_0, spec.law.p_minus1
    Gp = spec.dist.pgf_derivative

    wpad = np.empty((n, k + 1))
    wpad[:, 0] = 1.0
    wpad[:, k] = 0.0
    wpad[:, 1:k] = result.W
    lpad = np.empty((n, k + 1))
    lpad[:, 0] = 0.0
    lpad[:, k] = 1.0
    lpad[:, 1:k] = result.L

    alpha = np.empty((n, n))
    beta = np.empty((n, n))
    for i in range(1, k):
        for j in range(1, k):
            alpha[i - 1, j - 1] = (pm1 * wpad[j - 1, i - 1] + p0 * wpad[j - 1, i]
                                   + p1 * wpad[j - 1, i + 1])
            beta[i - 1, j - 1] = (pm1 * (1.0 - lpad[j - 1, i - 1]) + p0 * (1.0 - lpad[j - 1, i])
                                  + p1 * (1.0 - lpad[j - 1, i + 1]))

    verdicts = classify_draw(result)
    draws_zero = bool(np.all(verdicts == Verdict.ZERO))
    slack = max(DEFAULT_DRAW_EPSILON, 10 * result.tol) + 1e-15
    if draws_zero and float(np.max(np.abs(alpha - beta))) > slack:
        raise InternalInconsistencyError(
            "alpha and beta disagree beyond tolerance although all draws are zero")

    probs = {-1: pm1, 0: p0, 1: p1}
    Gp_beta = Gp(beta)
    Gp_alpha = Gp(alpha)
    row_sums = np.empty((n, n))
    for ip in range(1, k):
        for jp in range(1, k):
            total = 0.0
            for s in range(max(1, ip - 1), min(k - 1, ip + 1) + 1):
                for t in range(max(1, jp - 1), min(k - 1, jp + 1) + 1):
                    total += (Gp_beta[s - 1, t - 1] * Gp_alpha[t - 1, ip - 1]
                              * probs[ip - s] * probs[jp - t])
            row_sums[ip - 1, jp - 1] = total
    criterion_holds = draws_zero and bool(np.all(row_sums < 1.0))
    return DurationReport(alpha=alpha, beta=beta, row_sums=row_sums,
                          criterion_holds=criterion_holds, draws_zero=draws_zero)


def assert_duration_matches_reference(spec):
    """Same report as the reference, float for float and entry for entry, or the
    same InternalInconsistencyError; returns (draws_zero, criterion_holds)."""
    r = solve(spec)
    assert r.converged
    try:
        expected = reference_duration_criterion(spec, r)
    except InternalInconsistencyError as exc:
        with pytest.raises(InternalInconsistencyError, match=str(exc)):
            duration_criterion(r)
        return None
    got = duration_criterion(r)
    assert np.array_equal(got.alpha, expected.alpha)
    assert np.array_equal(got.beta, expected.beta)
    assert np.array_equal(got.row_sums, expected.row_sums)
    assert got.draws_zero == expected.draws_zero
    assert got.criterion_holds == expected.criterion_holds
    return got.draws_zero, got.criterion_holds


DURATION_DISTS = [Dirac(2), UniformRange(3), Binomial(5, 0.5), Poisson(3.0),
                  NegBinomial(2, 0.4), TwoPoint(0.6, 3), Explicit([0.1, 0.3, 0.6])]


def test_duration_equals_reference_bit_for_bit():
    specs = [GameSpec(kappa, dist, lw) for kappa in (2, 3, 4, 6) for dist in DURATION_DISTS
             for lw in (law(0.8, 0.1), law(0.5, 0.3), law(0.3, 0.35))]
    specs.append(GameSpec(40, Poisson(5.0), law(0.4, 0.3)))
    outcomes = {assert_duration_matches_reference(spec) for spec in specs}
    # every outcome occurs: holds, fails on a row sum, positive draws, and the raise
    assert outcomes == {(True, True), (True, False), (False, False), None}


def test_duration_requires_positive_law_and_convergence():
    spec = GameSpec(3, Dirac(2), EdgeWeightLaw(0.4, 0.0, 0.6))
    r = solve(spec)
    with pytest.raises(ValueError):
        duration_criterion(r)
    spec = GameSpec(3, Dirac(2), EdgeWeightLaw.from_p0_p1(0.9, 0.05))
    r = solve(spec, max_iter=3)
    with pytest.raises(ValueError):
        duration_criterion(r)


def test_duration_zero_draw_case():
    for kappa in (3, 4, 5):
        spec = GameSpec(kappa, Dirac(2), EdgeWeightLaw.from_p0_p1(0.8, 0.15))
        r = solve(spec, tol=1e-13)
        report = duration_criterion(r)
        assert report.draws_zero
        # draws vanish, so the certificate reduces to the row-sum test; here a
        # row exceeds 1 so the certificate does not apply (recorded oracle value)
        assert not report.criterion_holds
        assert float(np.max(np.abs(report.alpha - report.beta))) < 1e-10
        expected = reference_duration_criterion(spec, r)
        for name in ("alpha", "beta", "row_sums"):
            assert np.array_equal(getattr(report, name), getattr(expected, name))
        if kappa == 3:
            assert report.row_sums[1, 1] > 1.0
            assert report.row_sums[0, 1] < 1.0


def _gap_result(spec, gap):
    """A converged result whose raw gap is `gap` everywhere and whose D is 0."""
    r = solve(spec, tol=1e-13)
    n = spec.size
    return SolveResult(spec=spec, L=r.L, W=1.0 - r.L - gap, D=np.zeros((n, n)),
                       gap=np.full((n, n), gap), iterations=r.iterations, residual=0.0,
                       converged=True, tol=1e-12)


def test_duration_accepts_gaps_the_zero_verdict_accepted():
    # solve clamps |gap| <= DEFAULT_DRAW_EPSILON to D = 0, so all verdicts are ZERO
    # while alpha and beta differ by up to the gap (seen at Binomial(10, 0.6),
    # kappa=100, p0=0.6, p1=0.2: max |gap| 4.45e-9 after 1,024 iterations)
    spec = GameSpec(3, Dirac(2), law(0.8, 0.15))
    report = duration_criterion(_gap_result(spec, 5e-9))
    assert report.draws_zero
    assert 1e-9 < float(np.max(np.abs(report.alpha - report.beta))) <= 5e-9 + 1e-15
    # a gap the ZERO verdict could not have accepted is still reported
    with pytest.raises(InternalInconsistencyError):
        duration_criterion(_gap_result(spec, 5e-8))


def test_duration_uses_the_positive_threshold():
    # one entry of 1e-5 is POSITIVE at the 1e-6 threshold next to ZERO entries,
    # which a strictly positive law cannot have
    spec = GameSpec(3, Dirac(2), law(0.8, 0.15))
    gapped = _gap_result(spec, 0.0)
    D = np.zeros((2, 2))
    D[0, 0] = 1e-5
    result = SolveResult(spec=spec, L=gapped.L, W=gapped.W, D=D, gap=D, iterations=1,
                         residual=0.0, converged=True, tol=1e-12)
    with pytest.raises(InternalInconsistencyError):
        duration_criterion(result)


def test_duration_positive_draws_disable_certificate():
    spec = GameSpec(3, Dirac(2), EdgeWeightLaw.from_p0_p1(0.9, 0.05))
    r = solve(spec)
    report = duration_criterion(r)
    assert not report.draws_zero
    assert not report.criterion_holds
    assert report.row_sums.shape == (2, 2)  # diagnostics still present


def test_duration_certificate_holds_somewhere():
    # a strongly contracting point: all draws zero and all row sums below 1
    spec = GameSpec(3, Poisson(25.0), EdgeWeightLaw(0.35, 0.3, 0.35))
    r = solve(spec, tol=1e-13)
    report = duration_criterion(r)
    assert report.draws_zero
    assert report.criterion_holds
    assert np.all(report.row_sums < 1)


def test_duration_kappa2_reduction():
    spec = GameSpec(2, Poisson(2.0), EdgeWeightLaw.from_p0_p1(0.8, 0.1))
    r = solve(spec, tol=1e-13)
    report = duration_criterion(r)
    assert report.draws_zero
    Gp = spec.dist.pgf_derivative
    beta11 = float(report.beta[0, 0])
    assert report.row_sums[0, 0] == pytest.approx(
        Gp(beta11) ** 2 * spec.law.p_0 ** 2, rel=1e-9)


def test_duration_report_serialization():
    spec = GameSpec(3, Dirac(2), EdgeWeightLaw.from_p0_p1(0.8, 0.15))
    r = solve(spec, tol=1e-13)
    report = duration_criterion(r)
    obj = report.to_json_dict()
    assert set(obj) == {"alpha", "beta", "row_sums", "criterion_holds", "draws_zero"}
    assert "2,2" in obj["row_sums"]
    # the "i,j" keys of the 1-based capital pairs, in row-major order
    assert list(obj["row_sums"]) == ["1,1", "1,2", "2,1", "2,2"]
    assert list(obj["row_sums"].values()) == report.row_sums.ravel().tolist()
    # a non-square report: keys count rows by i and columns by j, values are Python floats
    report = DurationReport(*np.arange(18.0).reshape(3, 3, 2), False, False)
    row_sums = report.to_json_dict()["row_sums"]
    assert list(row_sums.items()) == [("1,1", 12.0), ("1,2", 13.0), ("2,1", 14.0),
                                      ("2,2", 15.0), ("3,1", 16.0), ("3,2", 17.0)]
    assert all(type(v) is float for v in row_sums.values())
