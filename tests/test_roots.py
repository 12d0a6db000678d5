import cmath
import logging
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
from formred.errors import ConvergenceFailure, RealRootDetected, UnpairedRoot
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    expand_quadratic_factors,
    from_quadratic_factors,
    height,
    transform,
)
import formred.roots
from formred.hyperbolic import PointH2
from formred.roots import (
    _aberth,
    _dyadic,
    _exact_value,
    _IntegerPoly,
    _newton_polish,
    _rationalize,
    _root_magnitude_bound,
    _taylor_shift_scaled,
    certified_roots,
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


small_polys = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)
).filter(lambda cs: cs[0] != 0)


class TestSquareFreeShortcut:
    """The modular square-free test only ever skips work: with it or without
    it the split is the same."""

    @settings(max_examples=100, deadline=None)
    @given(small_polys, small_polys, st.integers(1, 3))
    def test_same_split_as_gcds_over_rationals(self, g, h, k):
        F = BinaryForm(tuple(expand([(g, 1), (h, k)])))
        split = square_free_parts(F)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(formred.roots, "_square_free_mod_prime", lambda ints: False)
            assert square_free_parts(F) == split

    def test_leading_coefficient_divisible_by_the_prime(self):
        p = formred.roots._PRIME
        assert square_free_parts(BinaryForm((p, 0, p))) == [([1, 0, 1], 1)]
        assert square_free_parts(BinaryForm((p, 0, 2 * p, 0, p))) == [([1, 0, 1], 2)]


class TestCertifiedRoots:
    def test_direct_solve_when_it_certifies(self):
        F = BinaryForm(SEXTIC_COEFFS)
        roots, rs = certified_roots(F)
        assert roots == complex_roots(F)
        assert rs == pair_conjugates(roots, form=F) == root_set(F)

    def test_fourth_power_is_rescued(self):
        F = BinaryForm((1, 0, 4, 0, 6, 0, 4, 0, 1))  # (X^2 + Z^2)^4
        with pytest.raises(ConvergenceFailure):
            complex_roots(F)
        roots, rs = certified_roots(F)
        assert roots == [-1j] * 4 + [1j] * 4
        assert rs.pairs == (PointH2(0, 1),) * 4
        assert rs.residual == 0.0

    def test_pairs_repeat_with_multiplicity(self):
        F = from_quadratic_factors([RealQuadraticFactor(0, 1)] * 3 + [RealQuadraticFactor(1, 1)])
        roots, rs = certified_roots(F)
        assert len(roots) == 8 and len(rs) == 4
        assert_same_multiset(roots, [1j, -1j] * 3 + [complex(-0.5, s * 3**0.5 / 2)
                                                   for s in (1, -1)])
        assert rs.pairs[1:] == (PointH2(0, 1),) * 3
        assert abs(rs.pairs[0].as_complex() - complex(-0.5, 3**0.5 / 2)) <= 1e-15

    def test_square_free_failure_is_reraised(self, monkeypatch):
        def failing(F, tol=1e-10):
            raise ConvergenceFailure("direct solve failed")

        monkeypatch.setattr(formred.roots, "complex_roots", failing)
        with pytest.raises(ConvergenceFailure, match="^direct solve failed$"):
            certified_roots(BinaryForm(SEXTIC_COEFFS))

    def test_linear_part_is_a_real_root(self, monkeypatch):
        F = BinaryForm((1, -2, 2, -2, 1))  # (X - Z)^2 (X^2 + Z^2)
        solve = formred.roots.complex_roots

        def failing_on_f(G, tol=1e-10):
            if G == F:
                raise UnpairedRoot("direct solve failed")
            return solve(G, tol=tol)

        monkeypatch.setattr(formred.roots, "complex_roots", failing_on_f)
        with pytest.raises(RealRootDetected, match="multiplicity 2"):
            certified_roots(F)


# exact-centroid corpus form (perfbench, seed 1, #29): a quadratic times a
# squared quadratic, whose first solve leaves a root cluster
REPEATED_CLUSTER = (1, -4, 14, -24, 57, -36, 76, -16, 32)
# accept-both corpus form (seed 1, #65): square-free, degree 8, clustered
SQUARE_FREE_CLUSTER = (19986816, -128350500, 360638120, -579094759, 581232096,
                       -373397503, 149939175, -34408254, 3454857)


def failing_split(F, parts, tol):
    raise ConvergenceFailure("split failed")


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of the complex_roots and _zoom_solve calls made from here on."""
    calls = {"complex_roots": 0, "_zoom_solve": 0}
    for name in calls:
        def counting(*args, _name=name, _solve=getattr(formred.roots, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(formred.roots, name, counting)
    return calls


class TestClusterPolicy:
    """A root cluster from a repeated factor is split exactly, not zoomed into."""

    def test_repeated_factor_cluster_is_split_not_zoomed(self, solver_calls):
        assert [i for _, i in square_free_parts(BinaryForm(REPEATED_CLUSTER))] == [1, 2]
        report = formred.reduce_form(BinaryForm(REPEATED_CLUSTER), method="centroid")
        assert formred.reduce.reduced_zero_matches(report)
        assert solver_calls == {"complex_roots": 1, "_zoom_solve": 0}

    def test_complex_roots_leaves_the_split_to_certified_roots(self):
        F = BinaryForm(REPEATED_CLUSTER)
        with pytest.raises(ConvergenceFailure, match="repeated factor"):
            complex_roots(F)
        roots, rs = certified_roots(F)
        assert len(roots) == 8
        assert sorted(rs.pairs.count(p) for p in rs.pairs) == [1, 1, 2, 2]

    def test_square_free_cluster_still_zooms(self, solver_calls):
        F = BinaryForm(SQUARE_FREE_CLUSTER)
        assert square_free_parts(F) == [([Fraction(c, F.coeffs[0]) for c in F.coeffs], 1)]
        formred.compare_methods(F)
        assert solver_calls["_zoom_solve"] > 0

    def test_failed_split_falls_back_to_the_zoom(self, monkeypatch, solver_calls):
        monkeypatch.setattr(formred.roots, "_split", failing_split)
        F = BinaryForm(REPEATED_CLUSTER)
        roots, rs = certified_roots(F)
        assert solver_calls["complex_roots"] == 1 and solver_calls["_zoom_solve"] > 0
        assert roots == formred.roots._roots(F)
        assert rs == pair_conjugates(roots, form=F)

    def test_failed_split_and_zoom_raise_the_split_error(self, monkeypatch):
        def failing_certificate(*args):
            raise ConvergenceFailure("zoom failed")

        monkeypatch.setattr(formred.roots, "_split", failing_split)
        monkeypatch.setattr(formred.roots, "_certify", failing_certificate)
        with pytest.raises(ConvergenceFailure, match="^split failed$"):
            certified_roots(BinaryForm(REPEATED_CLUSTER))

    def test_one_debug_record_per_decision(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        certified_roots(BinaryForm(REPEATED_CLUSTER))
        decisions = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
        assert len(decisions) == 1
        assert decisions[0].startswith("split at a repeated-factor cluster of ")
        assert decisions[0].endswith("into multiplicities [1, 2]")

        caplog.clear()
        monkeypatch.setattr(formred.roots, "_split", failing_split)
        certified_roots(BinaryForm(REPEATED_CLUSTER))
        decisions = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
        assert len(decisions) == 2
        assert decisions[0].startswith("split at a repeated-factor cluster of ")
        assert decisions[1].startswith("zoom fallback after a failed split of ")
        assert decisions[1].endswith(": split failed")
