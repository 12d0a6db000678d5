import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEXTIC_COEFFS, SEXTIC_FACTORS, SEXTIC_REDUCED, random_unimodular
from formred.errors import FormParseError, RealRootDetected
from formred.forms import (
    _left_sum,
    BinaryForm,
    RealQuadraticFactor,
    UnimodularMatrix,
    evaluate,
    expand_quadratic_factors,
    from_quadratic_factors,
    height,
    normalized_height,
    parse,
    primitive_integral_coeffs,
    serialize,
    transform,
)
from formred.hyperbolic import HyperboloidPoint, PointH2, PointH3
from formred.julia import BarycentricWeights, JuliaResult
from formred.paramspace import HermitianForm, PosDefQuadratic
from formred.reduce import ComparisonReport, ReductionReport, ZeroPoint
from formred.roots import RootSet

X2_PLUS_Z2 = BinaryForm((1, 0, 1))


class TestUnimodularMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, 2)
        with pytest.raises(TypeError):
            UnimodularMatrix(1.0, 0, 0, 1)

    def test_inverse_and_product(self):
        rng = random.Random(7)
        for _ in range(20):
            M = random_unimodular(rng)
            assert M @ M.inverse() == UnimodularMatrix.identity()

    def test_named_generators(self):
        assert UnimodularMatrix.translation(4).rows == ((1, 4), (0, 1))
        assert UnimodularMatrix.inversion().rows == ((0, -1), (1, 0))


class TestEvaluate:
    def test_monomials(self):
        assert evaluate(X2_PLUS_Z2, 1, 0) == 1
        assert evaluate(X2_PLUS_Z2, 1, 1) == 2

    def test_sextic_constant_term(self):
        assert evaluate(BinaryForm(SEXTIC_COEFFS), 0, 1) == 43940


class TestTransform:
    def test_identity(self):
        F = BinaryForm(SEXTIC_COEFFS)
        assert transform(F, UnimodularMatrix.identity()) == F

    def test_shift_matches_worked_example(self):
        F = BinaryForm(SEXTIC_COEFFS)
        G = transform(F, UnimodularMatrix.translation(4))
        assert G == BinaryForm(SEXTIC_REDUCED)

    def test_inversion_symmetry(self):
        assert transform(X2_PLUS_Z2, UnimodularMatrix.inversion()) == X2_PLUS_Z2

    def test_right_action(self):
        rng = random.Random(11)
        F = BinaryForm(SEXTIC_COEFFS)
        for _ in range(50):
            M = random_unimodular(rng)
            N = random_unimodular(rng)
            assert transform(transform(F, M), N) == transform(F, M @ N)

    def test_degree_preserved(self):
        rng = random.Random(12)
        for coeffs in [(1, 0, 1), (2, 3, 5, 7, 11), SEXTIC_COEFFS]:
            F = BinaryForm(coeffs)
            assert transform(F, random_unimodular(rng)).degree == F.degree

    def test_quadratic_discriminant_invariant(self):
        rng = random.Random(13)

        def disc(f):
            return f.coeffs[1] ** 2 - 4 * f.coeffs[0] * f.coeffs[2]

        for _ in range(50):
            while True:  # positive definite, so no real roots get in the way
                a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
                if b * b - 4 * a * c < 0:
                    break
            Q = BinaryForm((a, b, c))
            QM = transform(Q, random_unimodular(rng))
            assert disc(QM) == disc(Q)


def reference_transform(F, M):
    """Reference: sum over i of c_i (aX + bZ)^(n-i) (cX + dZ)^i, each product of
    binomial expansions multiplied out term by term."""
    def binomial_power(p, q, m):
        return [math.comb(m, k) * p ** (m - k) * q**k for k in range(m + 1)]

    n = F.degree
    out = [0] * (n + 1)
    for i, c in enumerate(F.coeffs):
        if not c:
            continue
        u, v = binomial_power(M.a, M.b, n - i), binomial_power(M.c, M.d, i)
        for j, uj in enumerate(u):
            for k, vk in enumerate(v):
                out[j + k] += c * uj * vk
    return out


def assert_transform_matches_reference(F, M):
    expected = reference_transform(F, M)
    if expected[0] == 0:  # F(a, c) = 0: not a form of the same degree
        with pytest.raises(FormParseError):
            transform(F, M)
        return
    G = transform(F, M)
    assert G == BinaryForm(tuple(expected))
    assert [type(c) for c in G.coeffs] == [type(c) for c in BinaryForm(tuple(expected)).coeffs]


def word_matrix(steps):
    """The product of T^n S over the given n, T^n the translation and S the inversion."""
    M = UnimodularMatrix.identity()
    for n in steps:
        M = M @ UnimodularMatrix.translation(n) @ UnimodularMatrix.inversion()
    return M


rational_coeffs = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))
any_forms = st.integers(2, 20).flatmap(
    lambda n: st.lists(rational_coeffs, min_size=n + 1, max_size=n + 1)
).filter(lambda cs: cs[0] != 0).map(lambda cs: BinaryForm(tuple(cs)))
matrices = st.lists(st.integers(-30, 30), max_size=6).map(word_matrix)


class TestTransformHorner:
    """Homogeneous Horner gives exactly the form of the term-by-term expansion."""

    @settings(max_examples=200, deadline=None)
    @given(any_forms, matrices)
    def test_matches_reference(self, F, M):
        assert_transform_matches_reference(F, M)

    def test_seeded_matrices_and_zero_coefficients(self):
        rng = random.Random(71)
        for degree in range(2, 21):
            coeffs = [rng.choice([0, 0, rng.randint(-99, 99), Fraction(rng.randint(-99, 99), 7)])
                      for _ in range(degree)]
            F = BinaryForm((rng.randint(1, 9), *coeffs))
            for _ in range(5):
                assert_transform_matches_reference(F, random_unimodular(rng, bound=50))


class TestHeight:
    def test_worked_example_heights(self):
        assert height(BinaryForm(SEXTIC_COEFFS)) == 43940
        assert height(BinaryForm(SEXTIC_REDUCED)) == 12740
        assert height(X2_PLUS_Z2) == 1

    def test_rational_vs_normalized(self):
        F = BinaryForm((Fraction(1, 2), 0, Fraction(1, 3)))
        assert height(F) == Fraction(1, 2)
        assert primitive_integral_coeffs(F) == [3, 0, 2]
        assert normalized_height(F) == 3


class TestQuadraticFactors:
    def test_worked_example_expansion(self):
        factors = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]
        assert from_quadratic_factors(factors) == BinaryForm(SEXTIC_COEFFS)

    def test_single_factor(self):
        assert from_quadratic_factors([RealQuadraticFactor(0, 1)]) == X2_PLUS_Z2

    def test_two_factors_hand_expansion(self):
        F = from_quadratic_factors([RealQuadraticFactor(0, 1), RealQuadraticFactor(0, 4)])
        assert F == BinaryForm((1, 0, 5, 0, 4))

    def test_real_rooted_factor_rejected(self):
        with pytest.raises(RealRootDetected):
            RealQuadraticFactor(2, 1)  # discriminant 0
        with pytest.raises(RealRootDetected):
            RealQuadraticFactor(3, 1)

    def test_factor_root_coordinates(self):
        f = RealQuadraticFactor(-4, 13)
        assert f.x == 2 and f.y == 3.0 and f.is_exact
        assert f.d_squared == 36

    def test_float_factors_expand_but_do_not_build_forms(self):
        f = RealQuadraticFactor(0.0, 1.0)
        assert not f.is_exact
        assert expand_quadratic_factors([f]) == [1, 0.0, 1.0]
        with pytest.raises(TypeError):
            from_quadratic_factors([f])


class TestParseSerialize:
    def test_coefficient_list(self):
        assert parse("1,0,1") == X2_PLUS_Z2
        assert parse("1, -24, 306, -2308, 10933, -29068, 43940") == BinaryForm(SEXTIC_COEFFS)

    def test_polynomial_syntax(self):
        assert parse("x^6-24*x^5+306*x^4-2308*x^3+10933*x^2-29068*x+43940") \
            == BinaryForm(SEXTIC_COEFFS)
        assert parse("x^2+z^2") == X2_PLUS_Z2
        assert parse("X^2 + Z^2") == X2_PLUS_Z2
        assert parse("3/4*x^2+1/2") == BinaryForm((Fraction(3, 4), 0, Fraction(1, 2)))

    def test_serialize_round_trip_examples(self):
        for coeffs in [(1, 0, 1), SEXTIC_COEFFS, (Fraction(1, 2), -3, 0, 7)]:
            F = BinaryForm(coeffs)
            assert parse(serialize(F)) == F

    @given(st.lists(st.integers(-100, 100), min_size=3, max_size=9).filter(lambda c: c[0] != 0))
    def test_serialize_round_trip_random(self, coeffs):
        F = BinaryForm(tuple(coeffs))
        assert parse(serialize(F)) == F

    def test_errors(self):
        for bad in ["", "1,0", "x+1", "x^2+z", "no such form", "1,,3"]:
            with pytest.raises(FormParseError):
                parse(bad)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            BinaryForm((1.0, 0, 1))

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(FormParseError):
            BinaryForm((0, 1, 1))


class TestCoefficientTypes:
    """Integral coefficients are stored as plain ints, the others as Fractions."""

    def test_integral_values_are_ints(self):
        F = BinaryForm((3, Fraction(6, 2), "6/2", True, Fraction(1, 2)))
        assert [type(c) for c in F.coeffs] == [int, int, int, int, Fraction]
        assert F.coeffs == (3, 3, 3, 1, Fraction(1, 2))

    def test_numpy_integers_are_ints(self):
        np = pytest.importorskip("numpy")
        F = BinaryForm((np.int64(2), np.int32(-5), 7))
        assert [type(c) for c in F.coeffs] == [int, int, int]

    def test_parsed_forms_are_ints(self):
        for F in (parse(",".join(map(str, SEXTIC_COEFFS))),
                  parse("x^6-24*x^5+306*x^4-2308*x^3+10933*x^2-29068*x+43940")):
            assert all(type(c) is int for c in F.coeffs)
        assert [type(c) for c in parse("3/4*x^2+4/2").coeffs] == [Fraction, int, int]

    def test_equal_and_hash_equal_either_way(self):
        ints = BinaryForm(SEXTIC_COEFFS)
        fractions = BinaryForm(tuple(Fraction(c) for c in SEXTIC_COEFFS))
        strings = BinaryForm(tuple(f"{2 * c}/2" for c in SEXTIC_COEFFS))
        assert ints == fractions == strings
        assert hash(ints) == hash(fractions) == hash(strings)
        assert len({ints, fractions, strings}) == 1

    def test_transform_of_integral_form_is_integral(self):
        rng = random.Random(61)
        F = BinaryForm(SEXTIC_COEFFS)
        for _ in range(10):
            G = transform(F, random_unimodular(rng))
            assert all(type(c) is int for c in G.coeffs)
        half = transform(BinaryForm((Fraction(1, 2), 0, Fraction(1, 2))),
                         UnimodularMatrix(1, 1, 0, 1))
        assert [type(c) for c in half.coeffs] == [Fraction, int, int]
        assert half.coeffs == (Fraction(1, 2), 1, 1)


_P = PointH2(1, 2)
_REPORT = ReductionReport(BinaryForm((1, 0, 1)), "centroid", ZeroPoint(PointH2(0, 1), 0, 1),
                          UnimodularMatrix.identity(), BinaryForm((1, 0, 1)), 1, 1,
                          ZeroPoint(PointH2(0, 1)), {"exact": True})
_REPORT_TEXT = (
    "ReductionReport(input=BinaryForm(coeffs=(1, 0, 1)), method='centroid', "
    "zero_point=ZeroPoint(point=PointH2(x=0.0, y=1.0), t_exact=0, u_sq_exact=1), "
    "matrix=UnimodularMatrix(a=1, b=0, c=0, d=1), reduced=BinaryForm(coeffs=(1, 0, 1)), "
    "height_before=1, height_after=1, "
    "reduced_point=ZeroPoint(point=PointH2(x=0.0, y=1.0), t_exact=None, u_sq_exact=None), "
    "diagnostics={'exact': True})")
# (class, positional arguments, field names, repr, arguments giving an equal
# record, hashable); arguments shorter than the fields leave the defaults
RECORDS = [
    (UnimodularMatrix, (2, 1, 1, 1), "a b c d", "UnimodularMatrix(a=2, b=1, c=1, d=1)",
     (2, True, 1, 1), True),
    (RealQuadraticFactor, (-4, 13), "a b", "RealQuadraticFactor(a=Fraction(-4, 1), b=Fraction(13, 1))",
     (Fraction(-8, 2), "13"), True),
    (BinaryForm, ((3, 0, 1),), "coeffs", "BinaryForm(coeffs=(3, 0, 1))",
     ((Fraction(6, 2), "0", "6/6"),), True),
    (PointH2, (1, 2), "x y", "PointH2(x=1.0, y=2.0)", (1.0, Fraction(2)), True),
    (PointH3, (1 + 1j, 2), "z t", "PointH3(z=(1+1j), t=2.0)", (complex(1, 1), 2.0), True),
    (HyperboloidPoint, (0, 0, 1), "x1 x2 x3", "HyperboloidPoint(x1=0.0, x2=0.0, x3=1.0)",
     (0.0, 0.0, 1.0), True),
    # X^2 - 2XZ + 5Z^2, with roots 1 -+ 2i
    (RootSet, (BinaryForm((1, -2, 5)), [1 - 2j, 1 + 2j], [_P], 0.0), "form roots pairs residual",
     "RootSet(form=BinaryForm(coeffs=(1, -2, 5)), roots=((1-2j), (1+2j)), "
     "pairs=(PointH2(x=1.0, y=2.0),), residual=0.0)",
     (BinaryForm(("1", -2, Fraction(10, 2))), (1 - 2j, 1 + 2j), (PointH2(1.0, 2.0),), 0.0), True),
    (ZeroPoint, (_P,), "point t_exact u_sq_exact",
     "ZeroPoint(point=PointH2(x=1.0, y=2.0), t_exact=None, u_sq_exact=None)",
     (PointH2(1.0, 2.0), None, None), True),
    (ReductionReport, tuple(getattr(_REPORT, f) for f in (
        "input method zero_point matrix reduced height_before height_after reduced_point "
        "diagnostics").split()),
     "input method zero_point matrix reduced height_before height_after reduced_point "
     "diagnostics", _REPORT_TEXT, None, False),
    (ComparisonReport, (_REPORT, _REPORT, 0.0, True, True),
     "centroid_report julia_report zero_gap same_matrix same_reduced_form",
     f"ComparisonReport(centroid_report={_REPORT_TEXT}, julia_report={_REPORT_TEXT}, "
     "zero_gap=0.0, same_matrix=True, same_reduced_form=True)", None, False),
    (BarycentricWeights, ((1, 2),), "values", "BarycentricWeights(values=(1.0, 2.0))",
     ([1.0, 2.0],), True),
    (JuliaResult, (_P, 0.5, 1e-12, 3), "point objective gradient_norm iterations",
     "JuliaResult(point=PointH2(x=1.0, y=2.0), objective=0.5, gradient_norm=1e-12, iterations=3)",
     None, True),
    # the paramspace classes define their own equality, up to a positive factor
    (PosDefQuadratic, (1, 0, 1), "a b c", "PosDefQuadratic(a=1, b=0, c=1)", (2, 0, 2), False),
    (HermitianForm, (1, 0, 1), "a b c", "HermitianForm(a=1, b=0j, c=1)", (3.0, 0j, 3.0), False),
]


@pytest.mark.parametrize("cls, args, fields, text, equal_args, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, args, fields, text, equal_args, hashable):
    """Equality, hashing, repr, immutability and copying of every record class."""
    fields = fields.split()
    a, b, kw = cls(*args), cls(*args), cls(**dict(zip(fields, args)))
    assert a is not b
    assert repr(a) == repr(kw) == text
    assert a == b == kw
    if equal_args is not None:
        assert cls(*equal_args) == a
    assert a != tuple(getattr(a, f) for f in fields)
    if cls in (PosDefQuadratic, HermitianForm):
        assert a != cls(1, 0, 2)
        assert cls.__hash__ is None
    else:
        other = type("Other", (cls,), {})(*args)
        assert a != other and other != a
    if hashable:
        equal = [a, b, kw] + ([cls(*equal_args)] if equal_args is not None else [])
        assert len({hash(r) for r in equal}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert repr(a) == text
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is cls and c == a and repr(c) == text


class TestLeftSum:
    def test_adds_floats_left_to_right(self):
        # the built-in sum compensates float rounding from Python 3.12 on
        assert _left_sum([1e16, 1.0, -1e16]) == (1e16 + 1.0) - 1e16 == 0.0
        assert _left_sum(x for x in [0.1] * 10) == 0.9999999999999999

    def test_adds_complex_numbers_left_to_right(self):
        # the built-in sum compensates complex rounding from Python 3.14 on
        big = complex(1e16, -1e16)
        assert _left_sum([big, 1 + 1j, -big]) == (big + (1 + 1j)) - big == 0j
        assert _left_sum(z for z in [0.1 + 0.1j] * 10) == complex(0.9999999999999999,
                                                                  0.9999999999999999)

    def test_exact_values_and_empty(self):
        assert _left_sum([Fraction(1, 3), Fraction(2, 3), 1]) == 2
        assert _left_sum([]) == 0
