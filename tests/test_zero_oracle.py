"""The centroid zero point of every benchmark form against its ground truth.

Each corpus form is a scrambled product of known quadratic factors, so its
centroid zero point is known independently of the root solver.  The corpus
RNG calls are replayed here with a random_form that keeps each factor (a, b)
and the scramble matrix S; the replayed coefficients must equal
corpora.generate's.  With d_j = sqrt(4 b_j - a_j^2) and S_0, S_1, S_2 the sums
of 1/d_j, a_j/d_j and b_j/d_j, the unscrambled form's zero point is

    t = -S_1 / (2 S_0),    u^2 = (4 S_0 S_2 - S_1^2) / (4 S_0^2),

and the scrambled form's is z = t + iu moved by S^-1, for F(aX + bZ, cX + dZ)
has the roots S^-1 r.  On exact-centroid every d_j is an integer and the
truth is rational, so the exact zero point must equal it; on accept-both the
truth is computed in decimal at 60 digits and the float zero point must lie
within 1e-9 of it, relative to Im z.  Matrices are not checked.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import formred
from conftest import SEXTIC_FACTORS, SEXTIC_T, SEXTIC_U_SQ, corpora
from formred.reduce import zero_point
from formred.roots import root_set

SEEDS = (1, 2, 3)
COUNT = 100
# the corpus sizes of a 50 s perfbench run
FULL_COUNT = {"accept-both": 1000, "exact-centroid": 1650}


def random_form(rng, degree, height_cap, square):
    """corpora.random_form, returning the coefficients and the factors (a, b)."""
    a_range, b_range = (3, 6) if degree >= 8 else (5, 10)
    while True:
        coeffs, factors = [1], []
        for _ in range(degree // 2):
            a, b = corpora._random_factor(rng, a_range, b_range, square)
            factors.append((a, b))
            coeffs = corpora.poly_mul(coeffs, [1, a, b])
        if max(abs(c) for c in coeffs) <= height_cap:
            return coeffs, factors


def generate_with_truth_data(workload, seed, count):
    """[(coefficients, factors, S)] in corpora.generate's order, by its RNG calls."""
    degrees, height_cap, bound, square = corpora.RECIPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i in range(count):
        form, factors = random_form(rng, degrees[i % len(degrees)], height_cap, square)
        matrix = corpora.random_unimodular(rng, bound)
        out.append((tuple(corpora.scramble(form, matrix)), factors, matrix))
    return out


def moved_by_inverse(t, u_sq, matrix):
    """(t', u'^2) of S^-1 (t + iu) for S = (a b; c d) of determinant 1, in the
    arithmetic of t and u_sq (Fractions or Decimals)."""
    a, b, c, d = matrix
    den = (a - c * t) ** 2 + c * c * u_sq
    return ((a * d + b * c) * t - c * d * (t * t + u_sq) - a * b) / den, u_sq / (den * den)


def exact_truth(factors, matrix):
    """The zero point (t, u^2) as Fractions; every d_j must be an integer."""
    s0 = s1 = s2 = Fraction(0)
    for a, b in factors:
        d = math.isqrt(4 * b - a * a)
        assert d * d == 4 * b - a * a
        s0 += Fraction(1, d)
        s1 += Fraction(a, d)
        s2 += Fraction(b, d)
    return moved_by_inverse(-s1 / (2 * s0), (4 * s0 * s2 - s1 * s1) / (4 * s0 * s0), matrix)


def decimal_truth(factors, matrix):
    """The zero point (t, u) as 60-digit Decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        s0 = s1 = s2 = Decimal(0)
        for a, b in factors:
            d = Decimal(4 * b - a * a).sqrt()
            s0 += 1 / d
            s1 += a / d
            s2 += b / d
        t, u_sq = moved_by_inverse(-s1 / (2 * s0), (4 * s0 * s2 - s1 * s1) / (4 * s0 * s0),
                                   matrix)
        return t, u_sq.sqrt()


@pytest.mark.parametrize("workload", ["accept-both", "exact-centroid"])
def test_replay_reproduces_the_corpus(workload):
    replayed = generate_with_truth_data(workload, 1, COUNT)
    assert [coeffs for coeffs, _, _ in replayed] == corpora.generate(workload, 1, COUNT)


def test_truth_of_the_worked_sextic():
    # the worked sextic's factors, as they are and under (2 1; 1 1)
    assert exact_truth(SEXTIC_FACTORS, (1, 0, 0, 1)) == (SEXTIC_T, SEXTIC_U_SQ)
    F = formred.transform(formred.from_quadratic_factors(
        [formred.RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]),
        formred.UnimodularMatrix(2, 1, 1, 1))
    zp, _ = zero_point(root_set(F))
    assert (zp.t_exact, zp.u_sq_exact) == exact_truth(SEXTIC_FACTORS, (2, 1, 1, 1))


def exact_mismatches(seed, count):
    """Forms of the exact-centroid corpus whose exact zero point is not the truth."""
    bad = []
    for i, (coeffs, factors, matrix) in enumerate(
            generate_with_truth_data("exact-centroid", seed, count)):
        zp, _ = zero_point(root_set(formred.BinaryForm(coeffs)))
        if (zp.t_exact, zp.u_sq_exact) != exact_truth(factors, matrix):
            bad.append(i)
    return bad


def float_errors(seed, count):
    """|z - z*| / Im z* for every form of the accept-both corpus."""
    errors = []
    for coeffs, factors, matrix in generate_with_truth_data("accept-both", seed, count):
        pt = zero_point(root_set(formred.BinaryForm(coeffs)))[0].point
        t, u = decimal_truth(factors, matrix)
        with localcontext() as ctx:
            ctx.prec = 60
            gap = ((Decimal(pt.x) - t) ** 2 + (Decimal(pt.y) - u) ** 2).sqrt()
            errors.append(float(gap / u))
    return errors


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_centroid_zero_points_are_the_truth(seed):
    assert exact_mismatches(seed, COUNT) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_accept_both_zero_points_meet_the_truth(seed):
    assert max(float_errors(seed, COUNT)) <= 1e-9


@pytest.mark.slow
def test_full_exact_centroid_corpus_is_the_truth():
    assert exact_mismatches(1, FULL_COUNT["exact-centroid"]) == []


@pytest.mark.slow
def test_full_accept_both_corpus_meets_the_truth():
    assert max(float_errors(1, FULL_COUNT["accept-both"])) <= 1e-9


# accept-both seed 1 forms whose true zero point lies on the tie Re z = 1/2:
# the float centroid lands about 1e-11 inside Re z = -1/2, past the boundary
# tolerance, and keeps the other representative (1,2,5,4,4 and 1,2,11,10,16)
# where the Julia zero map gives the canonical form
FALSE_TIES = {63: (1, -2, 5, -4, 4), 564: (1, -2, 11, -10, 16)}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: false ties at Re z = 1/2")
@pytest.mark.parametrize("index", sorted(FALSE_TIES))
def test_false_tie_reduces_to_the_canonical_form(index):
    F = formred.BinaryForm(corpora.generate("accept-both", 1, index + 1)[index])
    assert formred.reduce_form(F, "julia").reduced.coeffs == FALSE_TIES[index]
    assert formred.reduce_form(F, "centroid").reduced.coeffs == FALSE_TIES[index]
