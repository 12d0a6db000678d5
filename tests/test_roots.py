import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEXTIC_COEFFS, SEXTIC_FACTORS, SEXTIC_PAIRS, random_integer_factor
from formred.errors import RealRootDetected, UnpairedRoot
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    expand_quadratic_factors,
    from_quadratic_factors,
    height,
)
from formred.roots import (
    _dyadic,
    _exact_value,
    _IntegerPoly,
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
