import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SEXTIC_COEFFS,
    SEXTIC_FACTORS,
    SEXTIC_PAIRS,
    random_integer_factor,
    random_totally_complex_form,
    random_unimodular,
)
from formred.errors import RealRootDetected, UnpairedRoot
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    expand_quadratic_factors,
    from_quadratic_factors,
    height,
    transform,
)
from formred.roots import (
    _aberth,
    _dyadic,
    _exact_value,
    _IntegerPoly,
    _newton_polish,
    _root_magnitude_bound,
    _taylor_shift_scaled,
    complex_roots,
    pair_conjugates,
    real_quadratic_factors,
    root_set,
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
            for r in complex_roots(F, tol=1e-10):
                val = 0j
                for c in coeffs:
                    val = val * r + c
                assert abs(val) / (h * (1 + abs(r)) ** n) <= 1e-10

    def test_deterministic(self):
        F = BinaryForm(SEXTIC_COEFFS)
        assert complex_roots(F) == complex_roots(F)


class TestPairConjugates:
    def test_unit_pair(self):
        rs = pair_conjugates([1j, -1j])
        assert len(rs) == 1
        p = rs.pairs[0]
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
            assert pair_conjugates(shuffled).pairs == reference.pairs

    def test_unpaired_rejected(self):
        with pytest.raises(UnpairedRoot):
            pair_conjugates([1j, 2j, -1j, -1j])


class TestRealQuadraticFactors:
    def test_worked_sextic_exact_recovery(self):
        facs = real_quadratic_factors(BinaryForm(SEXTIC_COEFFS))
        assert all(f.is_exact for f in facs)
        assert sorted((f.a, f.b) for f in facs) == sorted(
            (Fraction(a), Fraction(b)) for a, b in SEXTIC_FACTORS)

    def test_unit_quadratic(self):
        facs = real_quadratic_factors(BinaryForm((1, 0, 1)))
        assert [(f.a, f.b) for f in facs] == [(0, 1)]

    def test_construct_then_recover(self):
        rng = random.Random(53)
        for _ in range(20):
            factors = [random_integer_factor(rng) for _ in range(4)]
            F = from_quadratic_factors(factors)
            recovered = real_quadratic_factors(F)
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
            recovered = real_quadratic_factors(F)
            product = expand_quadratic_factors(recovered)
            for p, c in zip(product, F.coeffs):
                assert abs(float(p) - float(c)) <= 1e-8 * (1 + abs(float(c)))

    def test_scaled_form_factors(self):
        # leading coefficient 3: factors stay monic, product times a0 gives F back
        F = from_quadratic_factors([RealQuadraticFactor(0, 1), RealQuadraticFactor(-4, 13)],
                                   leading=3)
        facs = real_quadratic_factors(F)
        assert all(f.is_exact for f in facs)
        assert sorted((f.a, f.b) for f in facs) == [(Fraction(-4), Fraction(13)),
                                                    (Fraction(0), Fraction(1))]


def fraction_horner(coeffs, re, im):
    """Reference: Horner at re + i*im in Fraction arithmetic."""
    pr, pi = Fraction(0), Fraction(0)
    for c in coeffs:
        pr, pi = pr * re - pi * im + c, pr * im + pi * re
    return pr, pi


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
        got = _exact_value(poly, _dyadic(x))
        want = complex(*fraction_horner(F.coeffs, Fraction(re), Fraction(im)))
        assert bits(got) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(forms, parts, parts)
    def test_derivative_matches_fraction_horner(self, F, re, im):
        n = F.degree
        dcoeffs = [c * (n - i) for i, c in enumerate(F.coeffs[:-1])]
        x = complex(re, im)
        got = _exact_value(_IntegerPoly.of_form(F).derivative(), _dyadic(x))
        want = complex(*fraction_horner(dcoeffs, Fraction(re), Fraction(im)))
        assert bits(got) == bits(want)

    @given(forms)
    def test_integer_poly_is_exact(self, F):
        poly = _IntegerPoly.of_form(F)
        assert poly.den > 0
        assert [Fraction(c, poly.den) for c in poly.ints] == list(F.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(forms, st.integers(-2**40, 2**40), st.integers(0, 80))
    def test_taylor_shift_matches_fractions(self, F, k, m):
        shifted = _taylor_shift_scaled(_IntegerPoly.of_form(F), k, m)
        want = fraction_taylor_shift_scaled(F.coeffs, Fraction(k, 2**24), Fraction(1, 2**m))
        assert shifted.den > 0
        assert [Fraction(c, shifted.den) for c in shifted.ints] == want


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


class TestAberthSweep:
    """The written-out sweep, and the polish that reuses p(x), repeat the
    reference's float operations exactly."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(integral_forms, forms), st.integers(1, 200))
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
        for degree in range(2, 21, 2):
            F, _ = random_totally_complex_form(rng, degree, coeff_bound=10**12)
            cases.append(transform(F, random_unimodular(rng, bound=20)))
        for F in cases:
            coeffs = float_coeffs(F)
            xs = _aberth(coeffs, 200)
            assert exact_bits(xs) == exact_bits(reference_aberth(coeffs, 200))
            n = F.degree
            deriv = [coeffs[i] * (n - i) for i in range(n)]
            assert exact_bits([_newton_polish(coeffs, deriv, x) for x in xs]) == exact_bits(
                [reference_newton_polish(coeffs, deriv, x) for x in xs])

    def test_zero_difference_is_the_only_division_error(self):
        # the sweep catches ZeroDivisionError where the reference tests diff == 0
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            with pytest.raises(ZeroDivisionError):
                1.0 / zero
        for tiny in (complex(5e-324, 0.0), complex(-0.0, 5e-324), complex(math.nan, 0.0)):
            assert isinstance(1.0 / tiny, complex)
