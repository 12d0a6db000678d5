"""Seeded, self-contained corpus generators for the benchmark workloads.

Every form is a product of monic integer quadratics X^2 + aXZ + bZ^2 with
a^2 < 4b, so it is totally complex by construction, then scrambled by a random
SL2(Z) matrix.  All arithmetic is on Python ints, so a corpus depends only on
its seed and recipe, never on the package being measured.
"""

import hashlib
import math
import random

# (degrees, height cap before scrambling, scramble bound, perfect-square
# discriminants only); the factor ranges are those of random_form
RECIPES = {
    "accept-both": ((4, 6, 8), 10**4, 20, False),
    "exact-centroid": ((4, 6, 8), 10**4, 20, True),
    "hard-scramble": (tuple(range(10, 21, 2)), 10**12, 100, False),
}


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def random_unimodular(rng, bound):
    """(a, b, c, d) with ad - bc = 1 and every |entry| <= bound."""
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0) or math.gcd(c, d) != 1:
            continue
        g, u, v = _ext_gcd(d, c)
        if g < 0:
            u, v = -u, -v
        k = round(-(u * c - v * d) / (c * c + d * d))
        a, b = min(((u + kk * c, -v + kk * d) for kk in (k - 1, k, k + 1)),
                   key=lambda ab: max(abs(ab[0]), abs(ab[1])))
        if max(abs(a), abs(b)) <= bound:
            return a, b, c, d


def _random_factor(rng, a_range, b_range, square):
    while True:
        a = rng.randint(-a_range, a_range)
        b = rng.randint(1, b_range)
        disc = 4 * b - a * a
        if disc > 0 and (not square or math.isqrt(disc) ** 2 == disc):
            return a, b


def poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _binomial_power(p, q, m):
    return [math.comb(m, k) * p ** (m - k) * q**k for k in range(m + 1)]


def scramble(coeffs, matrix):
    """Coefficients of F(aX + bZ, cX + dZ) for F given in descending powers of X."""
    a, b, c, d = matrix
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, coef in enumerate(coeffs):
        term = poly_mul(_binomial_power(a, b, n - i), _binomial_power(c, d, i))
        for k, t in enumerate(term):
            out[k] += coef * t
    return out


def random_form(rng, degree, height_cap, square):
    """Integer product of degree/2 random quadratic factors with height <= height_cap."""
    a_range, b_range = (3, 6) if degree >= 8 else (5, 10)
    while True:
        coeffs = [1]
        for _ in range(degree // 2):
            a, b = _random_factor(rng, a_range, b_range, square)
            coeffs = poly_mul(coeffs, [1, a, b])
        if max(abs(c) for c in coeffs) <= height_cap:
            return coeffs


def generate(workload, seed, count):
    """`count` scrambled forms (tuples of ints) for the workload, fixed by the seed."""
    degrees, height_cap, bound, square = RECIPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    corpus = []
    for i in range(count):
        degree = degrees[i % len(degrees)]
        form = random_form(rng, degree, height_cap, square)
        corpus.append(tuple(scramble(form, random_unimodular(rng, bound))))
    return corpus


def corpus_hash(corpus):
    """sha256 over the forms' coefficient lists, one comma-separated line each."""
    h = hashlib.sha256()
    for form in corpus:
        h.update((",".join(map(str, form)) + "\n").encode())
    return h.hexdigest()
