import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SEXTIC_FACTORS,
    SEXTIC_PAIRS,
    SEXTIC_T,
    SEXTIC_U_SQ,
    random_h2_points,
    random_unimodular,
)
from formred.centroid import (
    alt_center_presentation,
    center_exact,
    center_from_quadratic_factors,
    center_from_quadratic_factors_exact,
    center_of_mass_h2,
    center_of_mass_hyperboloid,
    exact_sqrt,
    hyperboloid_transfer,
    oracle_center,
    psi,
    q_of_t,
    sum_cosh,
)
from formred.forms import RealQuadraticFactor
from formred.hyperbolic import PointH2, dist_h2, minkowski, mobius_h2, to_hyperboloid

SEXTIC_POINTS = [PointH2(x, y) for x, y in SEXTIC_PAIRS]


def random_float_factor(rng):
    while True:
        a = rng.uniform(-6, 6)
        b = rng.uniform(0.5, 12)
        if 4 * b - a * a > 0.1:
            return RealQuadraticFactor(a, b)


class TestPsi:
    def test_single_entry(self):
        assert psi([7], [3]) == 7

    def test_equal_weights_give_mean(self):
        assert psi([1, 2, 9], [5, 5, 5]) == 4

    def test_worked_example_exact(self):
        assert psi([2, 6, 4], [3, 4, 7]) == Fraction(230, 61)

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 50)), min_size=1, max_size=8))
    def test_weighted_mean_bounds(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        value = psi(xs, ys)
        assert min(xs) - 1e-9 <= value <= max(xs) + 1e-9

    def test_weights_sum_to_one(self):
        rng = random.Random(61)
        for _ in range(50):
            ys = [rng.uniform(0.1, 9) for _ in range(rng.randint(1, 6))]
            total = sum(1 / y for y in ys)
            weights = [(1 / y) / total for y in ys]
            assert all(w > 0 for w in weights)
            assert abs(sum(weights) - 1) <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            psi([1, 2], [1])
        with pytest.raises(ValueError):
            psi([], [])
        with pytest.raises(ValueError):
            psi([1], [0])


class TestQOfT:
    def test_at_root_real_part(self):
        assert q_of_t(2, 2, 3) == 9

    def test_worked_value(self):
        t = Fraction(230, 61)
        expected = (t - 2) * (t - 2) + 9  # independent evaluation of (t-x)^2 + y^2
        assert q_of_t(t, Fraction(2), Fraction(3)) == expected == Fraction(45153, 3721)

    @given(st.floats(-100, 100), st.floats(-50, 50), st.floats(0.01, 50))
    def test_lower_bound(self, t, x, y):
        assert q_of_t(t, x, y) >= y * y


class TestCenterOfMassH2:
    def test_single_point(self):
        p = PointH2(3, 5)
        c = center_of_mass_h2([p])
        assert (c.x, c.y) == (3.0, 5.0)

    def test_worked_example(self):
        c = center_of_mass_h2(SEXTIC_POINTS)
        assert c.x == pytest.approx(float(SEXTIC_T), rel=1e-14)
        assert c.y == pytest.approx(math.sqrt(float(SEXTIC_U_SQ)), rel=1e-14)

    def test_worked_example_exact(self):
        t, u_sq = center_exact([2, 6, 4], [3, 4, 7])
        assert t == SEXTIC_T
        assert u_sq == SEXTIC_U_SQ

    def test_symmetric_pair(self):
        c = center_of_mass_h2([PointH2(-2, 1.5), PointH2(2, 1.5)])
        assert c.x == 0.0

    def test_system_residuals(self):
        rng = random.Random(62)
        for _ in range(100):
            pts = random_h2_points(rng, rng.randint(1, 6))
            c = center_of_mass_h2(pts)
            r1 = sum((c.x - p.x) / p.y for p in pts)
            r2 = sum((c.y**2 - q_of_t(c.x, p.x, p.y)) / p.y for p in pts)
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10

    def test_convex_hull_bound(self):
        rng = random.Random(63)
        for _ in range(100):
            pts = random_h2_points(rng, rng.randint(1, 6))
            c = center_of_mass_h2(pts)
            assert min(p.x for p in pts) - 1e-12 <= c.x <= max(p.x for p in pts) + 1e-12

    def test_duplicated_point_matches_weighted_mean(self):
        p, q = PointH2(1, 2), PointH2(5, 3)
        c = center_of_mass_h2([p, p, q])
        t_manual = (2 * p.x / p.y + q.x / q.y) / (2 / p.y + 1 / q.y)
        assert c.x == pytest.approx(t_manual, rel=1e-14)

    def test_equivariance(self):
        rng = random.Random(64)
        for _ in range(50):
            pts = random_h2_points(rng, rng.randint(2, 5))
            M = random_unimodular(rng)
            lhs = center_of_mass_h2([mobius_h2(p, M) for p in pts])
            rhs = mobius_h2(center_of_mass_h2(pts), M)
            assert dist_h2(lhs, rhs) <= 1e-8

    def test_minimality(self):
        rng = random.Random(65)
        for _ in range(50):
            pts = random_h2_points(rng, rng.randint(2, 5))
            c = center_of_mass_h2(pts)
            base = sum_cosh(c, pts)
            for _ in range(5):
                dx = rng.uniform(-0.1, 0.1)
                dy = rng.uniform(-0.1, 0.1)
                if abs(dx) + abs(dy) < 0.01 or c.y + dy <= 0:
                    continue
                assert base + 1e-12 < sum_cosh(PointH2(c.x + dx, c.y + dy), pts)


class TestFactorFormulas:
    def test_worked_example_exact(self):
        factors = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]
        exact = center_from_quadratic_factors_exact(factors)
        assert exact == (SEXTIC_T, SEXTIC_U_SQ)
        c = center_from_quadratic_factors(factors)
        assert c.x == pytest.approx(float(SEXTIC_T), rel=1e-14)

    def test_single_factor(self):
        c = center_from_quadratic_factors([RealQuadraticFactor(0, 1)])
        assert (c.x, c.y) == (0.0, 1.0)

    def test_matches_root_formula(self):
        rng = random.Random(66)
        for _ in range(50):
            factors = [random_float_factor(rng) for _ in range(rng.randint(1, 4))]
            via_factors = center_from_quadratic_factors(factors)
            via_roots = center_of_mass_h2([PointH2(f.x, f.y) for f in factors])
            assert dist_h2(via_factors, via_roots) <= 1e-10

    def test_irrational_data_uses_float_path(self):
        factors = [RealQuadraticFactor(Fraction(1), Fraction(1))]  # d^2 = 3, irrational d
        assert center_from_quadratic_factors_exact(factors) is None
        c = center_from_quadratic_factors(factors)
        assert c.x == pytest.approx(-0.5, abs=1e-14)
        assert c.y == pytest.approx(math.sqrt(3) / 2, rel=1e-14)


def reference_center_exact(factors):
    """Reference: the exact centroid through psi on Fractions,
    t = -psi(a, d)/2 and u^2 = psi(b, d) - psi(a, d)^2/4."""
    if not all(f.is_exact for f in factors):
        return None
    ds = [exact_sqrt(f.d_squared) for f in factors]
    if None in ds:
        return None
    psi_ad = psi([f.a for f in factors], ds)
    return -psi_ad / 2, psi([f.b for f in factors], ds) - psi_ad * psi_ad / 4


small_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
positive_rationals = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4))
# a factor with rational d: b = (a^2 + d^2) / 4
square_factors = st.builds(lambda a, d: RealQuadraticFactor(a, (a * a + d * d) / 4),
                           small_rationals, positive_rationals)
# b drawn freely: d is rational only by chance
free_factors = st.builds(lambda a, e: RealQuadraticFactor(a, a * a / 4 + e),
                         small_rationals, positive_rationals)


class TestExactCenterIntegers:
    """The integer sums give exactly the psi-on-Fractions point, and decline
    exactly when it does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(square_factors, min_size=1, max_size=10))
    def test_rational_d_matches_reference(self, factors):
        exact = center_from_quadratic_factors_exact(factors)
        assert exact is not None
        assert exact == reference_center_exact(factors)
        assert all(type(v) is Fraction for v in exact)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(square_factors, free_factors), min_size=1, max_size=10))
    def test_mixed_factors_match_reference(self, factors):
        assert center_from_quadratic_factors_exact(factors) == reference_center_exact(factors)

    def test_repeated_and_float_factors(self):
        sextic = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]
        for factors in (sextic * 3, sextic[:1] * 4, sextic + sextic[1:]):
            assert center_from_quadratic_factors_exact(factors) == reference_center_exact(factors)
        assert center_from_quadratic_factors_exact(
            sextic + [RealQuadraticFactor(0.5, 1.0)]) is None


class TestAltPresentation:
    def test_worked_example(self):
        factors = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]
        alt = alt_center_presentation(factors)
        assert alt.x == pytest.approx(float(SEXTIC_T), rel=1e-12)
        assert alt.y == pytest.approx(math.sqrt(float(SEXTIC_U_SQ)), rel=1e-12)

    def test_single_factor(self):
        alt = alt_center_presentation([RealQuadraticFactor(0, 1)])
        assert (alt.x, alt.y) == (0.0, 1.0)

    def test_matches_factor_formula(self):
        rng = random.Random(67)
        for _ in range(100):
            factors = [random_float_factor(rng) for _ in range(rng.randint(1, 6))]
            a = alt_center_presentation(factors)
            b = center_from_quadratic_factors(factors)
            assert dist_h2(a, b) <= 1e-10


class TestHyperboloid:
    def test_single_point(self):
        p = to_hyperboloid(PointH2(1, 1))
        c = center_of_mass_hyperboloid([p])
        assert c.triple() == pytest.approx(p.triple(), abs=1e-15)

    def test_transfer_matches_closed_form(self):
        rng = random.Random(68)
        for _ in range(100):
            pts = random_h2_points(rng, rng.randint(1, 6))
            via_hyperboloid = hyperboloid_transfer(pts)
            direct = center_of_mass_h2(pts)
            assert dist_h2(via_hyperboloid, direct) <= 1e-9

    def test_sum_cosh_identity_on_worked_example(self):
        hyper = [to_hyperboloid(p) for p in SEXTIC_POINTS]
        total = (sum(p.x1 for p in hyper), sum(p.x2 for p in hyper), sum(p.x3 for p in hyper))
        norm = math.sqrt(minkowski(total, total))
        center = center_of_mass_h2(SEXTIC_POINTS)
        assert sum_cosh(center, SEXTIC_POINTS) == pytest.approx(norm, rel=1e-12)


class TestOracle:
    def test_single_point(self):
        p = PointH2(2, 3)
        c = oracle_center([p])
        assert dist_h2(c, p) <= 1e-6

    def test_worked_example_frozen_value(self):
        # brute-force minimum of the cosh sum for the example roots
        c = oracle_center(SEXTIC_POINTS)
        assert c.x == pytest.approx(3.770492, abs=1e-4)
        assert c.y == pytest.approx(4.736996, abs=1e-4)

    def test_matches_closed_form(self):
        rng = random.Random(69)
        for _ in range(20):
            pts = random_h2_points(rng, rng.randint(2, 5))
            assert dist_h2(oracle_center(pts), center_of_mass_h2(pts)) <= 1e-6


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(83496, 3721) * Fraction(3721, 83496)) == 1
