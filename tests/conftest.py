"""Shared fixtures and seeded generators for the test suite.

All randomized tests draw from random.Random with fixed seeds so runs are
reproducible; the acceptance suite documents its seeds here.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import formred.roots
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    UnimodularMatrix,
    expand_quadratic_factors,
    height,
)
from formred.hyperbolic import PointH2

# worked example: sextic with roots 2+-3i, 6+-4i, 4+-7i
SEXTIC_COEFFS = (1, -24, 306, -2308, 10933, -29068, 43940)
SEXTIC_REDUCED = (1, 0, 66, 28, 1093, 1372, 12740)
SEXTIC_FACTORS = ((-4, 13), (-12, 52), (-8, 65))
SEXTIC_PAIRS = ((2, 3), (6, 4), (4, 7))
SEXTIC_T = Fraction(230, 61)
SEXTIC_U_SQ = Fraction(83496, 3721)

ACCEPTANCE_SEED = 20250808

# the benchmark's seeded corpus generators, loaded from their file:
# nothing under perfbench/ is imported as a package or changed
_CORPORA_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpora", Path(__file__).resolve().parents[1] / "perfbench" / "corpora.py")
corpora = importlib.util.module_from_spec(_CORPORA_SPEC)
_CORPORA_SPEC.loader.exec_module(corpora)


@pytest.fixture
def no_frame(monkeypatch):
    """The root ladder with a reduced frame that finds nothing: a form whose
    first solve and split both fail raises the split's or the certificate's error."""
    monkeypatch.setattr(formred.roots, "_frame_solve", lambda F, poly, xs: None)


@pytest.fixture
def sextic():
    return BinaryForm(SEXTIC_COEFFS)


@pytest.fixture
def sextic_reduced():
    return BinaryForm(SEXTIC_REDUCED)


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def random_unimodular(rng, bound=10):
    """Random SL2(Z) matrix with |entries| <= bound."""
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0) or math.gcd(c, d) != 1:
            continue
        # a*d - b*c = 1 via the extended gcd, then shift to the smallest pair
        g, u, v = _ext_gcd(d, c)
        if g < 0:
            g, u, v = -g, -u, -v
        a0, b0 = u, -v
        k = round(-(a0 * c + b0 * d) / (c * c + d * d))
        best = None
        for kk in (k - 1, k, k + 1):
            a, b = a0 + kk * c, b0 + kk * d
            cand = max(abs(a), abs(b))
            if best is None or cand < best[0]:
                best = (cand, a, b)
        if best[0] <= bound:
            return UnimodularMatrix(best[1], best[2], c, d)


def random_sl2c(rng, scale=2.0):
    """Random det-1 complex 2x2 matrix (entries of moderate size)."""
    while True:
        a = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        b = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        c = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(a) < 0.3:
            continue
        d = (1 + b * c) / a
        if abs(d) <= 4 * scale:
            return ((a, b), (c, d))


def random_h2_point(rng, x_range=(-5.0, 5.0), y_range=(0.2, 5.0)):
    return PointH2(rng.uniform(*x_range), rng.uniform(*y_range))


def random_h2_points(rng, n, **kw):
    return [random_h2_point(rng, **kw) for _ in range(n)]


def random_integer_factor(rng, a_range=3, b_range=6):
    """Random exact factor X^2 + aXZ + bZ^2 with a^2 < 4b."""
    while True:
        a = rng.randint(-a_range, a_range)
        b = rng.randint(1, b_range)
        if 4 * b - a * a > 0:
            return RealQuadraticFactor(a, b)


def random_totally_complex_form(rng, degree, coeff_bound=10**4):
    """Random integer form of the given even degree, no real roots, height <= bound."""
    assert degree % 2 == 0 and degree >= 2
    for attempt in range(1000):
        a_range, b_range = (3, 6) if degree >= 8 else (5, 10)
        factors = [random_integer_factor(rng, a_range, b_range) for _ in range(degree // 2)]
        form = BinaryForm(tuple(expand_quadratic_factors(factors)))
        if height(form) <= coeff_bound:
            return form, factors
    raise AssertionError("could not sample a small enough form")


def semicircle_point(a, b, theta):
    """Point of the H2 geodesic with ideal endpoints a < b at angle theta."""
    m, r = (a + b) / 2.0, (b - a) / 2.0
    return PointH2(m + r * math.cos(theta), r * math.sin(theta))


def random_geodesic_triple_h2(rng):
    """(ideal endpoint, z, w) with z, w on the geodesic over random a < b."""
    a = rng.uniform(-5.0, 5.0)
    b = a + rng.uniform(0.5, 8.0)
    t1 = rng.uniform(0.15 * math.pi, 0.85 * math.pi)
    t2 = rng.uniform(0.15 * math.pi, 0.85 * math.pi)
    endpoint = a if rng.random() < 0.5 else b
    return endpoint, semicircle_point(a, b, t1), semicircle_point(a, b, t2)
