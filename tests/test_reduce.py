import json
import logging
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import formred.centroid
from conftest import (
    ACCEPTANCE_SEED,
    SEXTIC_COEFFS,
    SEXTIC_REDUCED,
    SEXTIC_T,
    SEXTIC_U_SQ,
    corpora,
    random_integer_factor,
    random_totally_complex_form,
    random_unimodular,
)
from formred.errors import FormParseError, FormReductionError, RealRootDetected
from formred.forms import (
    BinaryForm,
    UnimodularMatrix,
    from_quadratic_factors,
    height,
    normalized_height,
    transform,
)
from formred.hyperbolic import in_fundamental_domain
from formred.reduce import (
    compare_methods,
    format_decimal,
    is_reduced,
    reduce_form,
    reduced_zero_matches,
    ZeroPoint,
    zero_point,
)
from formred.roots import root_set

X2_PLUS_Z2 = BinaryForm((1, 0, 1))

# compare_methods reports recorded byte for byte: the worked sextic, the first
# three scrambled forms of the acceptance corpus (ACCEPTANCE_SEED + 10) and a
# quartic whose two zero maps choose different matrices
GOLDEN = json.loads((Path(__file__).parent / "data" / "compare_golden.json").read_text())


class TestReduceForm:
    def test_worked_example_centroid(self, sextic):
        rep = reduce_form(sextic, method="centroid")
        assert rep.matrix == UnimodularMatrix.translation(4)
        assert rep.reduced == BinaryForm(SEXTIC_REDUCED)
        assert rep.height_before == 43940
        assert rep.height_after == 12740
        assert rep.zero_point.t_exact == SEXTIC_T
        assert rep.zero_point.u_sq_exact == SEXTIC_U_SQ
        assert rep.reduced_point.t_exact == SEXTIC_T - 4
        assert reduced_zero_matches(rep)

    def test_worked_example_julia(self, sextic):
        rep = reduce_form(sextic, method="julia")
        assert rep.matrix == UnimodularMatrix.translation(4)
        assert rep.reduced == BinaryForm(SEXTIC_REDUCED)
        assert rep.height_after == 12740
        assert rep.diagnostics["gradient_norm"] <= 1e-10
        assert reduced_zero_matches(rep)

    def test_identity_on_reduced_input(self):
        rep = reduce_form(X2_PLUS_Z2, method="centroid")
        assert rep.matrix == UnimodularMatrix.identity()
        assert rep.reduced == X2_PLUS_Z2

    def test_rejects_real_roots(self):
        with pytest.raises(RealRootDetected):
            reduce_form(BinaryForm((1, 0, -1)))
        with pytest.raises(RealRootDetected):
            reduce_form(BinaryForm((1, 0, 0, 1)))  # odd degree

    def test_rejects_unknown_method(self, sextic):
        with pytest.raises(FormParseError):
            reduce_form(sextic, method="fancy")

    def test_idempotent(self, sextic):
        for method in ("centroid", "julia"):
            rep = reduce_form(sextic, method=method)
            again = reduce_form(rep.reduced, method=method)
            assert again.matrix == UnimodularMatrix.identity()
            assert again.reduced == rep.reduced

    def test_deterministic_reports(self, sextic):
        a = reduce_form(sextic, method="centroid").to_json()
        b = reduce_form(sextic, method="centroid").to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["schema_version"] == 1
        assert payload["matrix"] == [[1, 4], [0, 1]]
        assert payload["height_after"] == "12740"
        assert payload["zero_point"]["exact_t"] == "230/61"
        assert payload["zero_point"]["exact_u_sq"] == "83496/3721"

    def test_decimal_precision(self):
        assert format_decimal(Fraction(230, 61)).startswith("3.7704918032786885245901639344")
        assert len(format_decimal(Fraction(1, 3)).replace("0.", "")) == 30


class TestIsReduced:
    def test_examples(self, sextic, sextic_reduced):
        assert not is_reduced(sextic, method="centroid")
        assert is_reduced(sextic_reduced, method="centroid")
        assert is_reduced(X2_PLUS_Z2, method="centroid")
        assert is_reduced(sextic_reduced, method="julia")


class TestCompareMethods:
    def test_worked_example(self, sextic):
        comp = compare_methods(sextic)
        assert comp.same_reduced_form
        assert comp.same_matrix
        assert comp.zero_gap == pytest.approx(0.0203, abs=2e-3)
        d = comp.to_dict()
        assert d["schema_version"] == 1

    def test_single_pair_gap_zero(self):
        comp = compare_methods(BinaryForm((1, -4, 13)))
        assert comp.zero_gap <= 1e-9
        assert comp.same_reduced_form

    def test_random_degree_eight(self):
        rng = random.Random(81)
        agree = 0
        for _ in range(5):
            F, _ = random_totally_complex_form(rng, 8)
            comp = compare_methods(F)
            assert comp.zero_gap >= 0
            agree += comp.same_reduced_form
        assert agree >= 0  # experimental output; both reports must simply exist


class TestScrambleRecover:
    def test_small_corpus(self):
        rng = random.Random(82)
        recovered_at_most_original = 0
        for _ in range(20):
            degree = rng.choice([4, 6, 8])
            F, _ = random_totally_complex_form(rng, degree)
            M = random_unimodular(rng, bound=20)
            scrambled = transform(F, M)
            for method in ("centroid", "julia"):
                rep = reduce_form(scrambled, method=method)
                assert in_fundamental_domain(rep.reduced_point.point)
                assert rep.height_after <= rep.height_before
                assert is_reduced(rep.reduced, method=method)
            rep = reduce_form(scrambled, method="centroid")
            if rep.height_after <= height(F):
                recovered_at_most_original += 1
        assert recovered_at_most_original >= 15  # expected, not guaranteed

    def test_corpus_invariants(self):
        # 200 scrambled forms: the zero always lands in the domain; shrinking
        # below the scrambled height is logged, recovery to at most the
        # pre-scramble height must hit at least 95%
        rng = random.Random(83)
        grew = []
        recovered = 0
        total = 200
        for _ in range(total):
            degree = rng.choice([4, 6, 8])
            F, _ = random_totally_complex_form(rng, degree)
            scrambled = transform(F, random_unimodular(rng, bound=20))
            rep = reduce_form(scrambled, method="centroid")
            assert in_fundamental_domain(rep.reduced_point.point)
            if rep.height_after > rep.height_before:
                grew.append((scrambled, rep.height_before, rep.height_after))
            if rep.height_after <= height(F):
                recovered += 1
        for form, before, after in grew:
            print(f"height grew under reduction: {form} ({before} -> {after})")
        assert recovered >= 0.95 * total


def hard_covariance_cases():
    """Six products of quadratic factors of degree 10 to 20, by the benchmark's
    hard-scramble recipe before its scramble (corpora.random_form, height cap
    10^12), each with three scrambles of bound 100 (corpora.random_unimodular)."""
    rng = random.Random("covariance:1")
    cases = []
    for degree in (10, 12, 14, 16, 18, 20):
        form = BinaryForm(tuple(corpora.random_form(rng, degree, 10**12, False)))
        cases.append((form, [UnimodularMatrix(*corpora.random_unimodular(rng, 100))
                             for _ in range(3)]))
    return cases


# reduce(F^M) gives reduce(F)'s reduced form on hard inputs.  A pair whose
# zero points tie on the domain's boundary may reduce to two equivalent
# forms; such a case goes in as a strict xfail until ties are decided
# exactly (ROADMAP item 6).  None of these ties.
HARD_COVARIANCE = hard_covariance_cases()


@pytest.mark.parametrize("form, scrambles", HARD_COVARIANCE,
                         ids=[f"degree {form.degree}" for form, _ in HARD_COVARIANCE])
def test_hard_scrambles_reduce_to_the_same_form(form, scrambles):
    reduced = reduce_form(form).reduced
    assert [reduce_form(transform(form, M)).reduced for M in scrambles] == [reduced] * 3


class TestRepeatedFactors:
    def test_seeded_corpus_reduces(self, caplog):
        # scrambled products of 1 to 3 distinct factors with multiplicities up
        # to 4: every form reduces with both methods, most of them
        # through the square-free split
        caplog.set_level(logging.DEBUG, logger="formred.roots")
        rng = random.Random(ACCEPTANCE_SEED + 20)
        rescued = 0
        for _ in range(24):
            distinct = [random_integer_factor(rng, 5, 10) for _ in range(rng.randint(1, 3))]
            factors = [f for f in distinct for _ in range(rng.randint(1, 4))][:6]
            if len(factors) == 1:
                factors *= 2
            F = transform(from_quadratic_factors(factors), random_unimodular(rng, bound=20))
            caplog.clear()
            comparison = compare_methods(F)
            decisions = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
            if decisions and not any(d.startswith("failed split") for d in decisions):
                rescued += 1
            for rep in (comparison.centroid_report, comparison.julia_report):
                assert reduced_zero_matches(rep)
                assert rep.reduced == transform(F, rep.matrix)
                assert rep.height_after == normalized_height(rep.reduced)
        assert rescued >= 8


class TestZeroPoint:
    def test_exact_flag(self, sextic):
        zp, diag = zero_point(root_set(sextic), method="centroid")
        assert diag["exact"] is True
        assert abs(diag["system_residuals"][0]) <= 1e-10
        assert abs(diag["system_residuals"][1]) <= 1e-10

    def test_exact_point_from_t_and_u_sq(self, sextic):
        zp = ZeroPoint.exact(SEXTIC_T, SEXTIC_U_SQ)
        assert zp == zero_point(root_set(sextic), method="centroid")[0]
        assert (zp.point.x, zp.point.y) == (float(SEXTIC_T), math.sqrt(float(SEXTIC_U_SQ)))

    @pytest.mark.parametrize("coeffs, exact", [(SEXTIC_COEFFS, True), ((1, 1, 2, 1, 1), False)])
    def test_one_exact_attempt(self, monkeypatch, coeffs, exact):
        # (X^2 + XZ + Z^2)(X^2 + Z^2) has the irrational d = sqrt(3): the float path
        calls, center_exact = [], formred.centroid.center_from_quadratic_factors_exact
        float_calls, center_float = [], formred.centroid.center_from_quadratic_factors

        def counting(factors):
            calls.append(factors)
            return center_exact(factors)

        def counting_float(factors):
            float_calls.append(factors)
            return center_float(factors)

        monkeypatch.setattr(formred.centroid, "center_from_quadratic_factors_exact", counting)
        monkeypatch.setattr(formred.centroid, "center_from_quadratic_factors", counting_float)
        zp, diag = zero_point(root_set(BinaryForm(coeffs)), method="centroid")
        assert len(calls) == 1
        assert len(float_calls) == (0 if exact else 1)
        assert diag["exact"] is exact and (zp.t_exact is not None) is exact

    def test_julia_diag(self, sextic):
        zp, diag = zero_point(root_set(sextic), method="julia")
        assert diag["gradient_norm"] <= 1e-10
        assert diag["iterations"] >= 1
        assert 3.5 < zp.point.x < 4.5


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_comparison_report_bytes(case):
    report = compare_methods(BinaryForm(tuple(case["coefficients"])))
    assert json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")) == case["report"]


def test_comparison_shares_one_transform_per_matrix():
    for case in GOLDEN:
        report = compare_methods(BinaryForm(tuple(case["coefficients"])))
        rc, rj = report.centroid_report, report.julia_report
        assert (rj.matrix is rc.matrix) == report.same_matrix
        assert (rj.reduced is rc.reduced) == report.same_matrix
        assert rj.reduced == transform(rj.input, rj.matrix)
        # heights are ints, and CPython caches the ints up to 256, so identity
        # tells shared from recomputed only above 256; smaller ones by value
        assert rj.height_before == rc.height_before
        if rc.height_before > 256:
            assert rj.height_before is rc.height_before
        for rep in (rc, rj):
            assert rep.height_after == normalized_height(rep.reduced)
        if max(rc.height_after, rj.height_after) > 256:
            assert (rj.height_after is rc.height_after) == report.same_matrix


# coefficients m * 10^k and m / 10^k up to 7 * 10^320, and zero
extreme_coefficients = st.one_of(
    st.just(0),
    st.builds(lambda m, k: m * 10**k, st.integers(-7, 7), st.integers(0, 320)),
    st.builds(lambda m, k: Fraction(m, 10**k), st.integers(-7, 7), st.integers(1, 320)),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 4, 6]).flatmap(
    lambda n: st.lists(extreme_coefficients, min_size=n + 1, max_size=n + 1)))
# a Julia line-search trial point whose objective overflows exp
@example(coeffs=[0, 0, 0, 0, 100000, 0, Fraction(1, 10)])
def test_extreme_coefficients_reduce_or_fail_classified(coeffs):
    F = BinaryForm((coeffs[0] or 1, *coeffs[1:]))
    try:
        comparison = compare_methods(F)
    except FormReductionError:
        return
    for report in (comparison.centroid_report, comparison.julia_report):
        assert report.reduced == transform(F, report.matrix)
