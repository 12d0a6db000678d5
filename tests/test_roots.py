import cmath
import logging
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    SEXTIC_COEFFS,
    SEXTIC_FACTORS,
    SEXTIC_PAIRS,
    corpora,
    random_integer_factor,
    random_totally_complex_form,
    random_unimodular,
)
from formred.errors import ConvergenceFailure, RealRootDetected, UnpairedRoot
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    UnimodularMatrix,
    _left_sum,
    _substitute,
    expand_quadratic_factors,
    from_quadratic_factors,
    height,
    transform,
)
import formred.cli
import formred.roots
from formred.hyperbolic import PointH2
from formred.roots import (
    _aberth,
    _dyadic,
    _exact_newton_polish,
    _exact_value,
    _exact_value_and_slope,
    _IntegerPoly,
    _nearest_rational,
    _newton_polish,
    _rationalize,
    _root_magnitude_bound,
    complex_roots,
    pair_conjugates,
    real_quadratic_factors,
    root_set,
    square_free_parts,
)


def assert_same_multiset(found, expected, tol=1e-9):
    assert len(found) == len(expected)
    pool = list(expected)
    for r in found:
        best = min(pool, key=lambda e: abs(e - r))
        assert abs(best - r) <= tol * (1 + abs(best))
        pool.remove(best)


class TestComplexRoots:
    def test_unit_quadratic(self):
        assert_same_multiset(complex_roots(BinaryForm((1, 0, 1))), [1j, -1j], tol=1e-12)

    def test_worked_sextic(self):
        expected = [complex(x, s * y) for x, y in SEXTIC_PAIRS for s in (1, -1)]
        assert_same_multiset(complex_roots(BinaryForm(SEXTIC_COEFFS)), expected, tol=1e-9)

    def test_double_real_root_clustered(self):
        # (X - Z)^2 (X^2 + Z^2) = X^4 - 2X^3Z + 2X^2Z^2 - 2XZ^3 + Z^4
        F = BinaryForm((1, -2, 2, -2, 1))
        assert_same_multiset(complex_roots(F), [1, 1, 1j, -1j], tol=1e-6)

    def test_residual_contract(self):
        rng = random.Random(51)
        for _ in range(20):
            factors = [random_integer_factor(rng) for _ in range(3)]
            F = from_quadratic_factors(factors)
            n = F.degree
            coeffs = [float(c) for c in F.coeffs]
            h = float(height(F))
            for r in complex_roots(F):
                val = 0j
                for c in coeffs:
                    val = val * r + c
                assert abs(val) / (h * (1 + abs(r)) ** n) <= formred.roots._RESIDUAL_TOL

    def test_deterministic(self):
        F = BinaryForm(SEXTIC_COEFFS)
        assert complex_roots(F) == complex_roots(F)


class TestPairConjugates:
    def test_unit_pair(self):
        pairs = pair_conjugates([1j, -1j])
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.x, p.y) == (0.0, 1.0)

    def test_worked_sextic_pairs(self):
        rs = root_set(BinaryForm(SEXTIC_COEFFS))
        got = sorted((p.x, p.y) for p in rs.pairs)
        for (gx, gy), (ex, ey) in zip(got, sorted(SEXTIC_PAIRS)):
            assert abs(gx - ex) <= 1e-9 and abs(gy - ey) <= 1e-9
        assert rs.residual <= 1e-8

    def test_real_root_detected(self):
        # (X^2 - 2XZ + 2Z^2)(X - Z)(X + Z)
        F = BinaryForm((1, -2, 1, 2, -2))
        with pytest.raises(RealRootDetected):
            root_set(F)

    def test_order_independence(self):
        rng = random.Random(52)
        roots = complex_roots(BinaryForm(SEXTIC_COEFFS))
        reference = pair_conjugates(roots)
        for _ in range(10):
            shuffled = roots[:]
            rng.shuffle(shuffled)
            assert pair_conjugates(shuffled) == reference

    def test_unpaired_rejected(self):
        with pytest.raises(UnpairedRoot):
            pair_conjugates([1j, 2j, -1j, -1j])


class TestRealQuadraticFactors:
    def test_worked_sextic_exact_recovery(self):
        facs = real_quadratic_factors(root_set(BinaryForm(SEXTIC_COEFFS)))
        assert all(f.is_exact for f in facs)
        assert sorted((f.a, f.b) for f in facs) == sorted(
            (Fraction(a), Fraction(b)) for a, b in SEXTIC_FACTORS)

    def test_unit_quadratic(self):
        facs = real_quadratic_factors(root_set(BinaryForm((1, 0, 1))))
        assert [(f.a, f.b) for f in facs] == [(0, 1)]

    def test_construct_then_recover(self):
        rng = random.Random(53)
        for _ in range(20):
            factors = [random_integer_factor(rng) for _ in range(4)]
            F = from_quadratic_factors(factors)
            recovered = real_quadratic_factors(root_set(F))
            # multiset match within 1e-8
            pool = sorted((float(f.a), float(f.b)) for f in factors)
            got = sorted((float(f.a), float(f.b)) for f in recovered)
            for (ga, gb), (ea, eb) in zip(got, pool):
                assert abs(ga - ea) <= 1e-8 * (1 + abs(ea))
                assert abs(gb - eb) <= 1e-8 * (1 + abs(eb))

    def test_round_trip_product(self):
        rng = random.Random(54)
        for _ in range(10):
            factors = [random_integer_factor(rng) for _ in range(3)]
            F = from_quadratic_factors(factors)
            recovered = real_quadratic_factors(root_set(F))
            product = expand_quadratic_factors(recovered)
            for p, c in zip(product, F.coeffs):
                assert abs(float(p) - float(c)) <= 1e-8 * (1 + abs(float(c)))

    def test_scaled_form_factors(self):
        # leading coefficient 3: factors stay monic, product times a0 gives F back
        F = from_quadratic_factors([RealQuadraticFactor(0, 1), RealQuadraticFactor(-4, 13)],
                                   leading=3)
        facs = real_quadratic_factors(root_set(F))
        assert all(f.is_exact for f in facs)
        assert sorted((f.a, f.b) for f in facs) == [(Fraction(-4), Fraction(13)),
                                                    (Fraction(0), Fraction(1))]

    @pytest.mark.parametrize("base, scrambled, reduced", [
        ((1, 1, 1, 1, 1), (121, 826, 2116, 2411, 1031), (1, -1, 1, -1, 1)),
        ((1, 0, 0, 0, 1), (82, 548, 1374, 1532, 641), (1, 0, 0, 0, 1)),
    ])
    def test_forms_that_do_not_split_over_q(self, base, scrambled, reduced):
        # Phi5 and X^4 + 1 split over the reals only into quadratics with
        # irrational coefficients, so the factors stay floats; so do those of
        # their scrambles by (3 5; 1 2)
        assert transform(BinaryForm(base), UnimodularMatrix(3, 5, 1, 2)).coeffs == scrambled
        for coeffs in (base, scrambled):
            F = BinaryForm(coeffs)
            facs = real_quadratic_factors(root_set(F))
            assert len(facs) == 2
            assert all(type(f.a) is float and type(f.b) is float for f in facs)
            report = formred.reduce_form(F, method="centroid")
            assert report.diagnostics["exact"] is False
            assert report.reduced.coeffs == reduced


def fraction_horner(coeffs, re, im):
    """Reference: Horner at re + i*im in Fraction arithmetic."""
    pr, pi = Fraction(0), Fraction(0)
    for c in coeffs:
        pr, pi = pr * re - pi * im + c, pr * im + pi * re
    return pr, pi


def derivative(F):
    """F(X, 1)'s coefficients (descending), exact."""
    n = F.degree
    return [c * (n - i) for i, c in enumerate(F.coeffs[:-1])]


def fraction_taylor_shift_scaled(coeffs, x0, s):
    """Reference: exact coefficients (descending) of F(x0 + s*w, 1) in w."""
    work = list(coeffs)
    taylor = []
    for _ in range(len(coeffs)):
        acc = Fraction(0)
        quotient = []
        for c in work:
            acc = acc * x0 + c
            quotient.append(acc)
        taylor.append(quotient.pop())
        work = quotient
    return [taylor[k] * s**k for k in range(len(taylor))][::-1]


def bits(z):
    """Bit pattern of z, except the sign of a zero imaginary part: complex() of
    two Fractions adds the imaginary part to +0.0, so the reference turns an
    underflowed -0.0 into +0.0."""
    return z.real.hex(), z.imag.hex() if z.imag else 0.0


HEIGHT = 10**12
rationals = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
forms = st.integers(2, 20).flatmap(
    lambda n: st.tuples(rationals.filter(bool), st.lists(rationals, min_size=n, max_size=n))
).map(lambda lead_rest: BinaryForm((lead_rest[0], *lead_rest[1])))
parts = st.one_of(
    st.just(0.0),
    st.floats(-1e6, 1e6),
    st.floats(-1e-6, 1e-6),
    st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-1120, -1000)),
)


class TestExactEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(forms, parts, parts)
    def test_integer_horner_matches_fraction_horner(self, F, re, im):
        poly = _IntegerPoly.of_form(F)
        x = complex(re, im)
        got, _ = _exact_value_and_slope(poly, _dyadic(x))
        want = complex(*fraction_horner(F.coeffs, Fraction(re), Fraction(im)))
        assert bits(got) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(forms, parts, parts)
    def test_derivative_matches_fraction_horner(self, F, re, im):
        x = complex(re, im)
        _, got = _exact_value_and_slope(_IntegerPoly.of_form(F), _dyadic(x))
        want = complex(*fraction_horner(derivative(F), Fraction(re), Fraction(im)))
        assert bits(got) == bits(want)

    @settings(max_examples=300, deadline=None)
    @given(forms, parts, parts)
    def test_one_pass_matches_two_evaluations(self, F, re, im):
        p, dp = _exact_value_and_slope(_IntegerPoly.of_form(F), _dyadic(complex(re, im)))
        assert bits(p) == bits(complex(*fraction_horner(F.coeffs, Fraction(re), Fraction(im))))
        want = complex(*fraction_horner(derivative(F), Fraction(re), Fraction(im)))
        assert bits(dp) == bits(want)

    @settings(max_examples=300, deadline=None)
    @given(forms, parts, parts)
    def test_value_alone_matches_the_one_pass_and_fractions(self, F, re, im):
        # the residual certificate's pass for p alone
        poly, dyadic = _IntegerPoly.of_form(F), _dyadic(complex(re, im))
        got = _exact_value(poly, dyadic)
        assert exact_bits([got]) == exact_bits([_exact_value_and_slope(poly, dyadic)[0]])
        assert bits(got) == bits(complex(*fraction_horner(F.coeffs, Fraction(re), Fraction(im))))

    @given(forms)
    def test_integer_poly_is_exact(self, F):
        poly = _IntegerPoly.of_form(F)
        assert poly.den > 0
        assert [Fraction(c, poly.den) for c in poly.ints] == list(F.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(forms, st.integers(-2**40, 2**40), st.integers(0, 80))
    def test_zoom_substitution_matches_fractions(self, F, k, m):
        # a dyadic shift and scale, F(2^24 X + k 2^m Z, 2^(24 + m) Z) on the
        # integer coefficients, is den 2^((24 + m) n) times F(k/2^24 + w/2^m, 1)
        poly, n = _IntegerPoly.of_form(F), F.degree
        shifted = _substitute(poly.ints, 1 << 24, k << m, 0, 1 << (24 + m))
        want = fraction_taylor_shift_scaled(F.coeffs, Fraction(k, 2**24), Fraction(1, 2**m))
        assert shifted == [poly.den * 2**((24 + m) * n) * c for c in want]


def reference_horner(coeffs, x):
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def reference_aberth(coeffs, max_iter):
    """Reference: the Aberth sweep with one Horner call per evaluation and an
    explicit zero test in the repulsion sum."""
    n = len(coeffs) - 1
    deriv = [coeffs[i] * (n - i) for i in range(n)]
    radius = _root_magnitude_bound(coeffs)
    xs = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / n + 0.4)) for k in range(n)]
    for it in range(max_iter):
        moved = 0.0
        for i in range(n):
            xi = xs[i]
            p = reference_horner(coeffs, xi)
            dp = reference_horner(deriv, xi)
            if dp == 0:
                xs[i] = xi + (1e-8 + 1e-8j) * (1.0 + abs(xi))
                moved = math.inf
                continue
            newton = p / dp
            s = 0j
            for j in range(n):
                if j != i:
                    diff = xi - xs[j]
                    if diff == 0:
                        diff = (1e-12 + 1e-12j) * (1.0 + abs(xi))
                    s += 1.0 / diff
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            xs[i] = xi - step
            moved = max(moved, abs(step) / (1.0 + abs(xs[i])))
        if moved <= 1e-14:
            break
    return xs


def reference_newton_polish(coeffs, deriv, x, rounds=24):
    """Reference: Newton polish evaluating p afresh at the top of every round."""
    best, best_p = x, abs(reference_horner(coeffs, x))
    for _ in range(rounds):
        dp = reference_horner(deriv, x)
        if dp == 0:
            break
        x = x - reference_horner(coeffs, x) / dp
        p = abs(reference_horner(coeffs, x))
        if p < best_p:
            best, best_p = x, p
        if abs(best - x) <= 1e-15 * (1.0 + abs(x)) and p >= best_p:
            break
    return best


def exact_bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def float_coeffs(F):
    return [float(c) for c in F.coeffs]


integral_forms = st.integers(2, 20).flatmap(
    lambda n: st.tuples(st.integers(-HEIGHT, HEIGHT).filter(bool),
                        st.lists(st.integers(-HEIGHT, HEIGHT), min_size=n, max_size=n))
).map(lambda lead_rest: BinaryForm((lead_rest[0], *lead_rest[1])))
quadratic_factors = st.tuples(st.integers(-5, 5), st.integers(1, 10)).filter(
    lambda ab: ab[0] ** 2 < 4 * ab[1]).map(lambda ab: RealQuadraticFactor(*ab))
# scrambled products with a squared quadratic factor: nearly all of their
# Aberth walks run every sweep
repeated_factor_forms = st.builds(
    lambda f, rest, seed: transform(from_quadratic_factors([f, f, *rest]),
                                    random_unimodular(random.Random(seed), bound=20)),
    quadratic_factors, st.lists(quadratic_factors, max_size=2), st.integers(0, 2**32))
# a form whose float p' is exactly 0 at estimate 2 in sweep 157 (iteration 156
# counted from 0): the sweep's dp == 0 branch (the acceptance suite's scramble
# corpus reaches it)
DP_ZERO = (301321833800, -1987872961694, 5737531271250, -9462890455157, 9754453298034,
           -6435204990323, 2653396865541, -625178948876, 64444356925)


class TestAberthSweep:
    """The written-out sweep, and the polish that reuses p(x), repeat the
    reference's float operations exactly."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(integral_forms, forms, repeated_factor_forms), st.integers(1, 200))
    def test_matches_reference_bit_for_bit(self, F, max_iter):
        coeffs = float_coeffs(F)
        assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
            reference_aberth(coeffs, max_iter))

    def test_seeded_forms_match_reference(self):
        rng = random.Random(62)
        cases = [BinaryForm(SEXTIC_COEFFS),
                 BinaryForm((1, -2, 2, -2, 1)),  # (X - Z)^2 (X^2 + Z^2)
                 BinaryForm((1, 0, 4, 0, 6, 0, 4, 0, 1)),  # (X^2 + Z^2)^4
                 BinaryForm((Fraction(3, 7), Fraction(-1, 2), 5, Fraction(2, 9)))]
        # up to the high degrees of the hard-input sets (height cap 10^40,
        # scramble bound 20): degree 40's walk spreads each Horner pass and
        # each repulsion sum over two generated lines
        for degree in [*range(2, 21, 2), 24, 32, 40]:
            F, _ = random_totally_complex_form(
                rng, degree, coeff_bound=10**12 if degree <= 20 else 10**40)
            cases.append(transform(F, random_unimodular(rng, bound=20)))
        for F in cases:
            coeffs = float_coeffs(F)
            xs = _aberth(coeffs, 200)
            assert exact_bits(xs) == exact_bits(reference_aberth(coeffs, 200))
            n = F.degree
            deriv = [coeffs[i] * (n - i) for i in range(n)]
            assert exact_bits([_newton_polish(coeffs, deriv, x) for x in xs]) == exact_bits(
                [reference_newton_polish(coeffs, deriv, x) for x in xs])

    def test_zero_derivative_branch_matches_reference(self):
        coeffs = float_coeffs(BinaryForm(DP_ZERO))
        for max_iter in (156, 157, 158, 200):
            assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
                reference_aberth(coeffs, max_iter)), max_iter
        # in sweep 157 estimate 2 keeps its value from sweep 156 until its
        # turn; p' is exactly 0 there, so the branch moves it by the offset
        x = _aberth(coeffs, 156)[2]
        assert reference_horner(formred.roots._derivative(coeffs), x) == 0
        assert exact_bits(_aberth(coeffs, 157)[2:3]) == exact_bits(
            [x + (1e-8 + 1e-8j) * (1.0 + abs(x))])

    def test_nan_movement_counts_as_none(self, caplog):
        # x^2 + 10^308 overflows at the start circle: every estimate turns NaN
        # in sweep 1, which then moves nothing, as the reference's max reads it
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        coeffs = float_coeffs(BinaryForm(FLOAT_RANGE_FORMS[0]))
        xs = _aberth(coeffs, 200)
        assert all(math.isnan(x.real) for x in xs)
        assert exact_bits(xs) == exact_bits(reference_aberth(coeffs, 200))
        assert [r.getMessage() for r in aberth_records(caplog)] == [
            "aberth converged in 1 iterations"]

    @pytest.mark.parametrize("coeffs", [SEXTIC_COEFFS, (1, -2, 2, -2, 1),
                                        (1, 0, 4, 0, 6, 0, 4, 0, 1), (2, -3, 0, 1, 4, -1)])
    def test_coincident_estimates_match_reference(self, monkeypatch, coeffs):
        # every estimate starts at 0, so a repulsion sum of sweep 1 or 2
        # divides by zero and takes the offset in place of the pole
        def start(coeffs):
            return 0.0

        monkeypatch.setattr(formred.roots, "_root_magnitude_bound", start)
        monkeypatch.setitem(reference_aberth.__globals__, "_root_magnitude_bound", start)
        coeffs = float_coeffs(BinaryForm(coeffs))
        assert len(set(_aberth(coeffs, 0))) == 1
        for max_iter in (1, 2, 7, 200):
            assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
                reference_aberth(coeffs, max_iter)), max_iter

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 0, 5, 0, 4), (4, 0, 9)])
    def test_estimates_on_the_imaginary_axis_match_reference(self, coeffs):
        # X^2 + Z^2, (X^2 + Z^2)(X^2 + 4Z^2) and 4X^2 + 9Z^2: by sweep 7 their
        # walks hold estimates whose real part is exactly +0.0, and their odd
        # coefficients are 0, so a Horner chain could carry a zero's sign
        coeffs = float_coeffs(BinaryForm(coeffs))
        assert any(x.real == 0 and math.copysign(1.0, x.real) == 1.0
                   for x in reference_aberth(coeffs, 7))
        for max_iter in (1, 2, 7, 200):
            assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
                reference_aberth(coeffs, max_iter)), max_iter

    def test_coincident_estimates_reach_the_term_by_term_sum(self, monkeypatch):
        # the walk looks _repulsion up at call time, once a chain divides by zero
        calls, repulsion = [], formred.roots._repulsion

        def counting(xi, others):
            calls.append(len(others))
            return repulsion(xi, others)

        monkeypatch.setattr(formred.roots, "_root_magnitude_bound", lambda coeffs: 0.0)
        monkeypatch.setattr(formred.roots, "_repulsion", counting)
        _aberth(float_coeffs(BinaryForm(SEXTIC_COEFFS)), 2)
        assert calls and set(calls) == {5}

    def test_walk_is_built_once_per_degree_and_named(self):
        walk = formred.roots._walk(8)
        assert formred.roots._walk(8) is walk
        assert walk.__code__.co_filename == "<formred.roots: aberth walk, degree 8>"
        # each Horner chain starts at its leading coefficient and each sum at
        # its first term: no step multiplies by or adds a complex zero, whose
        # bits the tests above cannot tell from the step left out (the int 0
        # that starts Brent's count is a constant too)
        assert [c for c in walk.__code__.co_consts if type(c) is complex and c == 0] == []

    def test_zero_difference_is_the_only_division_error(self):
        # the sweep catches ZeroDivisionError where the reference tests diff == 0
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            with pytest.raises(ZeroDivisionError):
                1.0 / zero
        for tiny in (complex(5e-324, 0.0), complex(-0.0, 5e-324), complex(math.nan, 0.0)):
            assert isinstance(1.0 / tiny, complex)


def reference_exact_newton_polish(F, x, multiplicity):
    """Reference: exact Newton steps with p' and p from two separate Fraction
    Horner evaluations, each part rounded by float(Fraction)."""
    dcoeffs = derivative(F)
    for _ in range(3):
        re, im = Fraction(x.real), Fraction(x.imag)
        dp = complex(*map(float, fraction_horner(dcoeffs, re, im)))
        if dp == 0:
            break
        step = multiplicity * complex(*map(float, fraction_horner(F.coeffs, re, im))) / dp
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


class TestExactNewton:
    """The one-pass exact Newton step takes the reference's steps bit for bit."""

    def test_seeded_clusters_match_reference(self):
        rng = random.Random(25)
        starts = 0
        for multiplicity in range(1, 5):
            for _ in range(3):
                factors = [random_integer_factor(rng) for _ in range(rng.randint(0, 2))]
                F = transform(from_quadratic_factors(
                    [random_integer_factor(rng)] * multiplicity + factors),
                    random_unimodular(rng, bound=20))
                poly = _IntegerPoly.of_form(F)
                xs = _aberth(float_coeffs(F), 200)
                # estimates within 2% (relative) of each other, as a loose cluster
                for group in formred.roots._groups(xs, 0.02):
                    # the group's mean, as the cluster merge takes it, and each member
                    for x in [_left_sum(group) / len(group), *group]:
                        m = min(multiplicity, len(group))
                        assert exact_bits([_exact_newton_polish(poly, x, m)]) == exact_bits(
                            [reference_exact_newton_polish(F, x, m)])
                        starts += 1
        assert starts > 100

    def test_zero_slope_stops(self):
        F = BinaryForm((1, 0, 1))
        assert exact_bits([_exact_newton_polish(_IntegerPoly.of_form(F), 0j, 1)]) == [
            (0.0.hex(), 0.0.hex())]
        assert reference_exact_newton_polish(F, 0j, 1) == 0j


# exact-centroid corpus form (perfbench, seed 1, #3): its Aberth walk repeats
# with period 12 from sweep 28; Brent's test, with the list of sweep 33
# saved, finds the repeat at sweep 45
CYCLING = (590053, -361582, 83090, -8486, 325)
# exact-centroid corpus form (perfbench, seed 1, #93): its walk repeats with
# period 6 from sweep 37, and every sweep of the cycle moves an estimate by
# more than 1e-10, so a repeat test that waits for slower movement runs all
# 200 sweeps; Brent's test, with the list of sweep 65 saved, finds it at sweep 71
LATE_WATCH = (1125, 42540, 603229, 3801832, 8985524)


def aberth_records(caplog):
    return [r for r in caplog.records if r.getMessage().startswith("aberth ")]


class TestAberthRepeat:
    """The sweep stops once Brent's test finds an exact repeat, with the bits of
    max_iter sweeps."""

    def test_repeat_is_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        _aberth(list(map(float, CYCLING)), 200)
        assert [r.getMessage() for r in aberth_records(caplog)] == [
            "aberth repeats with period 12 at iteration 45"]

    def test_every_max_iter_around_the_repeat(self, caplog):
        # from two sweeps before the sweep that finds the repeat to two periods after it
        coeffs = list(map(float, CYCLING))
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        _aberth(coeffs, 200)
        period, found = aberth_records(caplog)[0].args
        for max_iter in range(found - 2, found + 2 * period + 1):
            assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
                reference_aberth(coeffs, max_iter)), max_iter

    def test_repeat_while_still_moving(self, caplog):
        coeffs = list(map(float, LATE_WATCH))
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        xs = _aberth(coeffs, 200)
        assert [r.getMessage() for r in aberth_records(caplog)] == [
            "aberth repeats with period 6 at iteration 71"]
        assert exact_bits(xs) == exact_bits(reference_aberth(coeffs, 200))
        for max_iter in range(69, 71 + 2 * 6 + 1):
            assert exact_bits(_aberth(coeffs, max_iter)) == exact_bits(
                reference_aberth(coeffs, max_iter)), max_iter

    def test_gated_corpora_calls_match_reference(self, monkeypatch, capsys):
        calls, aberth = [], formred.roots._aberth
        polish_calls, newton_polish = [], formred.roots._newton_polish

        def recording(coeffs, max_iter):
            xs = aberth(coeffs, max_iter)
            calls.append((list(coeffs), max_iter, exact_bits(xs)))
            return xs

        def recording_polish(coeffs, deriv, x):
            best = newton_polish(coeffs, deriv, x)
            polish_calls.append((list(coeffs), list(deriv), x, exact_bits([best])))
            return best

        monkeypatch.setattr(formred.roots, "_aberth", recording)
        monkeypatch.setattr(formred.roots, "_newton_polish", recording_polish)
        for coeffs in corpora.generate("accept-both", 1, 100):
            formred.compare_methods(BinaryForm(coeffs))
        for coeffs in corpora.generate("exact-centroid", 1, 100):
            argv = ["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]
            assert formred.cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) > 200
        for coeffs, max_iter, got in calls:
            assert got == exact_bits(reference_aberth(coeffs, max_iter))
        assert len(polish_calls) > 1000
        for coeffs, deriv, x, got in polish_calls:
            assert got == exact_bits([reference_newton_polish(coeffs, deriv, x)])

    def test_signed_zero_is_not_a_repeat(self):
        state = (complex(0.0, 1.0), complex(2.0, -0.0))
        for other in ((complex(-0.0, 1.0), complex(2.0, -0.0)),
                      (complex(0.0, 1.0), complex(2.0, 0.0))):
            assert other == state and hash(other) == hash(state)
            assert not formred.roots._same_bits(state, other)
        assert formred.roots._same_bits(state, tuple(state))

    def test_rejected_repeat_keeps_sweeping(self, monkeypatch, caplog):
        # a list equal under == but not bit for bit is no repeat: the walk
        # goes on, through every sweep, to the reference's bits
        monkeypatch.setattr(formred.roots, "_same_bits", lambda xs, ys: False)
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        coeffs = list(map(float, CYCLING))
        assert exact_bits(_aberth(coeffs, 200)) == exact_bits(reference_aberth(coeffs, 200))
        assert aberth_records(caplog) == []


# even-degree forms whose solve leaves the float range: at a NaN iterate
# (twice), in the exact power sums, in an exact Newton step, and in the
# residual certificate's (1 + |r|)^n (a last coefficient of 0 would fail
# before the solve, as a real root)
FLOAT_RANGE_FORMS = [
    (1, 0, 10**308),
    (Fraction(-3, 10**50), 10**307, 3 * 10**150),
    (Fraction(-1, 10**299), 30, 1),
    (10**300, Fraction(3, 10**320), Fraction(1, 10**49)),
    (Fraction(-3, 10**300), Fraction(-7, 10**320), -7, Fraction(-1, 10**50), 30),
]


# a quadratic walk started on a circle of radius OVERFLOW_RADIUS, in place of
# the magnitude bound's: sweep 1 moves estimate 0 and then gives estimate 1 a
# step, built to nearly cancel Aberth's denominator, with finite parts and a
# modulus beyond the float range
OVERFLOW_STEP = tuple(map(float.fromhex, (
    "0x1.0000000000000p-1000", "-0x1.bbd36bf3b6cfap-12", "-0x1.9d294e3631d88p+976")))
OVERFLOW_RADIUS = float.fromhex("0x1.87706b0213d0ap+986")


class TestFloatRange:
    @pytest.mark.parametrize("coeffs", [(10**400, 0, 10**400), (1, 0, 10**320),
                                        (10**400, 0, 2 * 10**400, 0, 10**400)])
    def test_out_of_range_coefficients_fail_classified(self, coeffs):
        with pytest.raises(ConvergenceFailure, match="leave the float range"):
            formred.reduce_form(BinaryForm(coeffs))

    @pytest.mark.parametrize("coeffs", FLOAT_RANGE_FORMS)
    def test_solve_out_of_float_range_is_a_convergence_failure(self, coeffs):
        with pytest.raises(ConvergenceFailure, match="leaves the float range$"):
            root_set(BinaryForm(coeffs))

    def test_unmeasured_step_beyond_the_float_range(self, monkeypatch):
        # the reference measures every step, so abs() raises at estimate 1's;
        # the sweep, with estimate 0 already moved, does not measure it, and
        # the solve still fails as leaving the float range (at a NaN iterate)
        def start(coeffs):
            return OVERFLOW_RADIUS

        monkeypatch.setattr(formred.roots, "_root_magnitude_bound", start)
        monkeypatch.setitem(reference_aberth.__globals__, "_root_magnitude_bound", start)
        coeffs = list(OVERFLOW_STEP)
        with pytest.raises(OverflowError):
            reference_aberth(coeffs, 1)
        x = _aberth(coeffs, 1)[1]
        assert math.isfinite(x.real) and math.isfinite(x.imag)
        with pytest.raises(OverflowError):
            abs(x)
        with pytest.raises(ConvergenceFailure, match="leaves the float range$"):
            complex_roots(BinaryForm(tuple(map(Fraction, OVERFLOW_STEP))))


def reference_rationalize(F, factors, max_denominator=10**6):
    """Reference: the rounded factors' Fraction product compared with F."""
    candidates = []
    for f in factors:
        try:
            candidates.append(RealQuadraticFactor(
                Fraction(f.a).limit_denominator(max_denominator),
                Fraction(f.b).limit_denominator(max_denominator)))
        except (RealRootDetected, ValueError):
            return None
    product = expand_quadratic_factors(candidates)
    if all(F.coeffs[0] * p == c for p, c in zip(product, F.coeffs)):
        return candidates
    return None


small_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
exact_factors = st.builds(lambda a, e: RealQuadraticFactor(a, a * a / 4 + e), small_fractions,
                          st.builds(Fraction, st.integers(1, 300), st.integers(1, 40)))


class TestRationalize:
    """The integer identity accepts and rejects exactly what the Fraction product did."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(exact_factors, min_size=1, max_size=6), small_fractions.filter(bool),
           st.sampled_from(["none", "factor", "form"]), st.floats(1e-13, 1e-3), st.integers(0, 99))
    def test_decides_like_reference(self, factors, leading, perturb, eps, k):
        F = from_quadratic_factors(factors, leading=leading)
        floats = [RealQuadraticFactor(float(f.a), float(f.b)) for f in factors]
        if perturb == "factor":
            f = floats[k % len(floats)]
            floats[k % len(floats)] = RealQuadraticFactor(f.a, f.b * (1 + eps) + eps)
        elif perturb == "form":
            coeffs = list(F.coeffs)
            coeffs[1 + k % F.degree] += Fraction(1, 7)
            F = BinaryForm(tuple(coeffs))
        assert _rationalize(F, floats) == reference_rationalize(F, floats)

    def test_accepts_and_rejects(self):
        F = BinaryForm(SEXTIC_COEFFS)
        floats = [RealQuadraticFactor(float(a), float(b)) for a, b in SEXTIC_FACTORS]
        assert _rationalize(F, floats) == reference_rationalize(F, floats)
        assert [(f.a, f.b) for f in _rationalize(F, floats)] == list(SEXTIC_FACTORS)
        wrong = floats[:2] + [RealQuadraticFactor(-8.0, 65.5)]
        assert _rationalize(F, wrong) is None is reference_rationalize(F, wrong)


def farey_neighbour(p, q, bound=10**6):
    """The next fraction after p/q (lowest terms, 1 < q <= bound) among those
    of denominator at most bound: r/s with r q - p s = 1 and s the largest."""
    s = -pow(p, -1, q) % q
    s += (bound - s) // q * q
    return Fraction((1 + p * s) // q, s)


class TestNearestRational:
    """The continued fraction on ints gives Fraction.limit_denominator(10**6)'s
    Fraction, whatever its input."""

    @staticmethod
    def assert_as_limit_denominator(n, d):
        got, want = _nearest_rational(n, d), Fraction(n, d).limit_denominator(10**6)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e3, 1e3),
        st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-1074, -1000)),
        st.builds(float, st.integers(-2**80, 2**80)),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         sys.float_info.max, -sys.float_info.max, 1e-6, 999999.5, 0.5]),
    ))
    def test_floats(self, x):
        # as _rationalize calls it
        self.assert_as_limit_denominator(*x.as_integer_ratio())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**15, 10**15), st.sampled_from([10**6 - 1, 10**6, 10**6 + 1]))
    def test_denominators_at_the_bound(self, n, d):
        assume(math.gcd(n, d) == 1)
        self.assert_as_limit_denominator(n, d)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**6), st.integers(-10**7, 10**7))
    def test_exact_ties(self, q, p):
        # the midpoint of two Farey neighbours of order 10^6 is as near to
        # one as to the other: the tie rule picks the last convergent
        assume(math.gcd(p, q) == 1)
        y = Fraction(p, q)
        z = farey_neighbour(p, q)
        m = (y + z) / 2
        assert m.denominator > 10**6 and abs(m - y) == abs(z - m)
        self.assert_as_limit_denominator(m.numerator, m.denominator)


def expand(parts):
    """prod P^i of [(P, i), ...] as a descending coefficient list."""
    out = [Fraction(1)]
    for P, i in parts:
        for _ in range(i):
            out = [sum(out[j] * P[k - j] for j in range(len(out)) if 0 <= k - j < len(P))
                   for k in range(len(out) + len(P) - 1)]
    return out


class TestSquareFreeSplit:
    def test_square_free_form_is_one_part(self):
        assert square_free_parts(BinaryForm(SEXTIC_COEFFS)) == [(list(SEXTIC_COEFFS), 1)]

    def test_known_splits(self):
        # (X - Z)^2 (X^2 + Z^2), and 3 (X^2 + Z^2)^3 (X^2 + XZ + Z^2)
        assert square_free_parts(BinaryForm((1, -2, 2, -2, 1))) == [([1, 0, 1], 1), ([1, -1], 2)]
        F = from_quadratic_factors([RealQuadraticFactor(0, 1)] * 3 + [RealQuadraticFactor(1, 1)],
                                   leading=3)
        assert square_free_parts(F) == [([1, 1, 1], 1), ([1, 0, 1], 3)]

    def test_seeded_forms_multiply_back(self):
        rng = random.Random(81)
        for _ in range(30):
            distinct = {(f.a, f.b): f for f in (random_integer_factor(rng, 5, 10)
                                                 for _ in range(rng.randint(1, 4)))}
            mults = {key: rng.randint(1, 4) for key in distinct}
            factors = [f for key, f in distinct.items() for _ in range(mults[key])]
            F = transform(from_quadratic_factors(factors, leading=Fraction(rng.randint(1, 9), 4)),
                          random_unimodular(rng, bound=5))
            parts = square_free_parts(F)
            assert [F.coeffs[0] * c for c in expand(parts)] == list(F.coeffs)
            for P, _ in parts:
                assert square_free_parts(BinaryForm(tuple(P))) == [(P, 1)]
            # multiplicities add up by degree
            by_mult = {}
            for m in mults.values():
                by_mult[m] = by_mult.get(m, 0) + 2
            assert {i: len(P) - 1 for P, i in parts} == by_mult


class TestSquareFreeShortcut:
    """A large integer content is divided out before Yun's loop."""

    def test_leading_coefficient_divisible_by_the_prime(self):
        p = 2**61 - 1
        assert square_free_parts(BinaryForm((p, 0, p))) == [([1, 0, 1], 1)]
        assert square_free_parts(BinaryForm((p, 0, 2 * p, 0, p))) == [([1, 0, 1], 2)]


def reference_derivative(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def reference_divmod(u, v):
    """Quotient and remainder of u by v (descending Fraction lists; [] is zero)."""
    u = list(u)
    q = []
    for k in range(len(u) - len(v) + 1):
        f = u[k] / v[0]
        q.append(f)
        if f:
            for j in range(1, len(v)):
                u[k + j] -= f * v[j]
    r = u[len(q):]
    while r and not r[0]:
        r.pop(0)
    return q, r


def reference_monic_gcd(u, v):
    while v:
        u, v = v, reference_divmod(u, v)[1]
    return [c / u[0] for c in u]


def reference_sub(u, v):
    n = max(len(u), len(v))
    out = [a - b for a, b in zip([0] * (n - len(u)) + u, [0] * (n - len(v)) + v)]
    while out and not out[0]:
        out.pop(0)
    return out


def reference_square_free_parts(F):
    """Reference: Yun's decomposition on Fraction polynomials, monic gcds by
    Euclid over the rationals."""
    f = [Fraction(c, F.coeffs[0]) for c in F.coeffs]
    df = reference_derivative(f)
    g = reference_monic_gcd(f, df)
    b, c = reference_divmod(f, g)[0], reference_divmod(df, g)[0]
    d = reference_sub(c, reference_derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = reference_monic_gcd(b, d)
        b, c = reference_divmod(b, a)[0], reference_divmod(d, a)[0]
        d = reference_sub(c, reference_derivative(b))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def rational_poly(degree):
    return st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                    min_size=degree + 1, max_size=degree + 1).filter(lambda cs: cs[0] != 0)


@st.composite
def repeated_products(draw):
    """scale * g * h^k of degree 2 to 20, rational coefficients.  The scale's
    sign, integer content and a large prime factor 2^61 - 1 vary."""
    dh, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    degree = draw(st.integers(max(2, k * dh), 20))
    g, h = draw(rational_poly(degree - k * dh)), draw(rational_poly(dh))
    scale = Fraction(draw(st.sampled_from([1, -1])) * draw(st.integers(1, 30))
                     * draw(st.sampled_from([1, 2**61 - 1])), draw(st.integers(1, 12)))
    return BinaryForm(tuple(scale * c for c in expand([(g, 1), (h, k)])))


# hard-scramble (perfbench, seed 1) forms of degree 16 to 20 with a repeated
# factor: index -> (degree, multiplicity) of each part
HARD_REPEATED = {
    4: [(14, 1), (2, 2)],
    5: [(16, 1), (2, 2)],
    29: [(12, 1), (4, 2)],
    33: [(8, 1), (4, 2)],
    35: [(14, 1), (2, 3)],
    40: [(4, 1), (4, 2), (2, 3)],
}


class TestIntegerYun:
    """Yun's loop on ints gives the parts the Fraction reference gives."""

    @settings(max_examples=150, deadline=None)
    @given(repeated_products())
    def test_matches_fraction_reference(self, F):
        assert square_free_parts(F) == reference_square_free_parts(F)

    @pytest.mark.parametrize("index", sorted(HARD_REPEATED))
    def test_hard_scramble_forms(self, index):
        F = BinaryForm(corpora.generate("hard-scramble", 1, index + 1)[index])
        parts = square_free_parts(F)
        assert parts == reference_square_free_parts(F)
        assert [(len(P) - 1, i) for P, i in parts] == HARD_REPEATED[index]


class TestCertifiedRoots:
    def test_direct_solve_when_it_certifies(self):
        F = BinaryForm(SEXTIC_COEFFS)
        rs = root_set(F)
        assert rs.form is F
        assert rs.roots == tuple(complex_roots(F))
        assert rs.pairs == pair_conjugates(rs.roots)
        assert rs == root_set(F)

    def test_fourth_power_is_rescued(self):
        F = BinaryForm((1, 0, 4, 0, 6, 0, 4, 0, 1))  # (X^2 + Z^2)^4
        rs = root_set(F)
        assert rs.roots == tuple(complex_roots(F)) == (-1j,) * 4 + (1j,) * 4
        assert rs.pairs == (PointH2(0, 1),) * 4
        assert rs.residual == 0.0

    def test_pairs_repeat_with_multiplicity(self):
        F = from_quadratic_factors([RealQuadraticFactor(0, 1)] * 3 + [RealQuadraticFactor(1, 1)])
        rs = root_set(F)
        assert len(rs.roots) == 8 and len(rs.pairs) == 4
        assert_same_multiset(rs.roots, [1j, -1j] * 3 + [complex(-0.5, s * 3**0.5 / 2)
                                                   for s in (1, -1)])
        assert rs.pairs[1:] == (PointH2(0, 1),) * 3
        assert abs(rs.pairs[0].as_complex() - complex(-0.5, 3**0.5 / 2)) <= 1e-15

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1), (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1)])
    def test_odd_degree_fails_before_any_solve(self, monkeypatch, coeffs):
        def failing(F):
            raise AssertionError("complex_roots called")

        monkeypatch.setattr(formred.roots, "complex_roots", failing)
        with pytest.raises(RealRootDetected,
                           match="^odd-degree real forms always have a real root$"):
            root_set(BinaryForm(coeffs))

    def test_square_free_failure_is_reraised(self, monkeypatch):
        def failing(F):
            raise ConvergenceFailure("direct solve failed")

        monkeypatch.setattr(formred.roots, "complex_roots", failing)
        with pytest.raises(ConvergenceFailure, match="^direct solve failed$"):
            root_set(BinaryForm(SEXTIC_COEFFS))

    def test_linear_part_is_a_real_root(self, monkeypatch):
        F = BinaryForm((1, -2, 2, -2, 1))  # (X - Z)^2 (X^2 + Z^2)
        certify = formred.roots._certify

        def failing_on_f(G, poly, roots):
            if G == F:
                raise ConvergenceFailure("certificate failed")
            return certify(G, poly, roots)

        monkeypatch.setattr(formred.roots, "_certify", failing_on_f)
        with pytest.raises(RealRootDetected, match="multiplicity 2"):
            root_set(F)


# exact-centroid corpus form (perfbench, seed 1, #29): a quadratic times a
# squared quadratic, whose first solve leaves a root cluster
REPEATED_CLUSTER = (1, -4, 14, -24, 57, -36, 76, -16, 32)
# accept-both corpus form (seed 1, #65): square-free, degree 8, clustered
SQUARE_FREE_CLUSTER = (19986816, -128350500, 360638120, -579094759, 581232096,
                       -373397503, 149939175, -34408254, 3454857)


def failing_split(F, poly, parts):
    raise ConvergenceFailure("split failed")


def scrambled_cluster():
    """REPEATED_CLUSTER under (5 2; 2 1), whose first solve fails the
    power-sum certificate."""
    return transform(BinaryForm(REPEATED_CLUSTER), UnimodularMatrix(5, 2, 2, 1))


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of the complex_roots and _frame_solve calls made from here on."""
    calls = {"complex_roots": 0, "_frame_solve": 0}
    for name in calls:
        def counting(*args, _name=name, _solve=getattr(formred.roots, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(formred.roots, name, counting)
    return calls


class TestClusterPolicy:
    """A root cluster from a repeated factor is split exactly; a square-free
    cluster, or a failed split, is solved in the reduced frame."""

    def test_repeated_factor_cluster_is_split_not_zoomed(self, solver_calls):
        assert [i for _, i in square_free_parts(BinaryForm(REPEATED_CLUSTER))] == [1, 2]
        report = formred.reduce_form(BinaryForm(REPEATED_CLUSTER), method="centroid")
        assert formred.reduce.reduced_zero_matches(report)
        assert solver_calls == {"complex_roots": 1, "_frame_solve": 0}

    def test_complex_roots_splits(self, caplog):
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        F = BinaryForm(REPEATED_CLUSTER)
        roots = complex_roots(F)
        assert [r.getMessage() for r in caplog.records if "split" in r.getMessage()] == [
            f"square-free split of {F} into multiplicities [1, 2]"]
        assert len(roots) == 8
        pairs = pair_conjugates(roots)
        assert sorted(pairs.count(p) for p in pairs) == [1, 1, 2, 2]
        rs = root_set(F)
        assert (rs.roots, rs.pairs) == (tuple(roots), pairs)

    def test_square_free_cluster_is_framed(self, solver_calls, caplog):
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        F = BinaryForm(SQUARE_FREE_CLUSTER)
        assert square_free_parts(F) == [([Fraction(c, F.coeffs[0]) for c in F.coeffs], 1)]
        report = formred.reduce_form(F, method="centroid")
        assert solver_calls == {"complex_roots": 1, "_frame_solve": 1}
        # the frame is the reduction that the roots found in it give
        assert [r.getMessage() for r in caplog.records if "frame" in r.getMessage()] == [
            f"reduced frame {report.matrix} of {F} after 1 rounds"]

    def test_failed_split_falls_back_to_the_zoom(self, monkeypatch, solver_calls, caplog):
        # the reduced frame, which replaced the zoom, solves the whole form
        # after a failed split: its first solve fails the certificate, and
        # the frame's roots certify
        F = scrambled_cluster()
        poly = _IntegerPoly.of_form(F)
        first = formred.roots._refine(poly, formred.roots._float_solve(float_coeffs(F)))
        with pytest.raises(ConvergenceFailure, match="power-sum"):
            formred.roots._certify(F, poly, first)
        monkeypatch.setattr(formred.roots, "_split", failing_split)
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        rs = root_set(F)
        assert solver_calls == {"complex_roots": 1, "_frame_solve": 1}
        assert [r.getMessage() for r in caplog.records if "frame" in r.getMessage()] == [
            f"reduced frame [[-1,2],[2,-5]] of {F} after 1 rounds"]
        assert rs.roots == tuple(complex_roots(F))
        assert rs.pairs == pair_conjugates(rs.roots)

    def test_failed_split_zooms_from_the_first_solve(self, monkeypatch):
        # the frame after a failed split starts from the estimates the split
        # was tried on: one Aberth walk on F's own coefficients, none repeated
        walks, aberth = [], formred.roots._aberth

        def recording(coeffs, max_iter):
            walks.append(coeffs)
            return aberth(coeffs, max_iter)

        monkeypatch.setattr(formred.roots, "_aberth", recording)
        monkeypatch.setattr(formred.roots, "_split", failing_split)
        F = scrambled_cluster()
        root_set(F)
        assert walks.count(float_coeffs(F)) == 1

    def test_numerically_real_estimate_stays_out_of_the_frame(self):
        # exact-centroid corpus form (seed 1, #1096): a six-root cluster whose
        # first solve leaves one estimate about 1e-216 off the real axis; its
        # weight 1/y would put the center of mass on the axis, where Gauss
        # reduction does not end
        F = BinaryForm((399108154, -2678379114, 7489321501, -11168937078, 9369231250,
                        -4191746568, 781402960))
        first = formred.roots._refine(_IntegerPoly.of_form(F),
                                      formred.roots._float_solve(float_coeffs(F)))
        assert min(abs(x.imag) for x in first) < 1e-200
        report = formred.reduce_form(F, method="centroid")
        assert report.matrix == UnimodularMatrix(-19, 9, -17, 8)
        assert report.reduced.coeffs == (1, 0, 4, 6, 13, 6, 10)

    def test_failing_frame_leaves_the_first_solve(self, monkeypatch):
        # the octic's first solve certifies with a defect above 1e-12; a frame
        # whose Gauss reduction does not end leaves those roots
        def endless(z):
            raise ConvergenceFailure("fundamental-domain reduction did not terminate")

        F = BinaryForm(SQUARE_FREE_CLUSTER)
        first = formred.roots._refine(_IntegerPoly.of_form(F),
                                      formred.roots._float_solve(float_coeffs(F)))
        monkeypatch.setattr(formred.roots, "reduce_point_to_fundamental_domain", endless)
        assert complex_roots(F) == sorted(first, key=lambda r: (r.real, r.imag))

    def test_failed_split_and_zoom_raise_the_split_error(self, monkeypatch):
        # the split fails, and so does every certificate after it
        def failing_certificate(*args):
            raise ConvergenceFailure("certificate failed")

        monkeypatch.setattr(formred.roots, "_split", failing_split)
        monkeypatch.setattr(formred.roots, "_certify", failing_certificate)
        with pytest.raises(ConvergenceFailure, match="^split failed$"):
            root_set(BinaryForm(REPEATED_CLUSTER))

    def test_one_debug_record_per_decision(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        root_set(BinaryForm(REPEATED_CLUSTER))
        decisions = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
        assert len(decisions) == 1
        assert decisions[0].startswith("square-free split of ")
        assert decisions[0].endswith("into multiplicities [1, 2]")

        caplog.clear()
        monkeypatch.setattr(formred.roots, "_split", failing_split)
        root_set(BinaryForm(REPEATED_CLUSTER))
        decisions = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
        assert len(decisions) == 2
        assert decisions[0].startswith("square-free split of ")
        assert decisions[1].startswith("failed split of ")
        assert decisions[1].endswith(": split failed")

        # a failed split whose form is then framed: one record more, the frame's
        caplog.clear()
        F = scrambled_cluster()
        root_set(F)
        assert [r.getMessage() for r in caplog.records if "aberth" not in r.getMessage()] == [
            f"square-free split of {F} into multiplicities [1, 2]",
            f"failed split of {F}: split failed",
            f"reduced frame [[-1,2],[2,-5]] of {F} after 1 rounds"]
