"""Hyperbolic center of mass: closed form in H2, hyperboloid version, and an oracle.

The center of n points a_j = x_j + i y_j is the unique minimizer of
sum_j cosh d(., a_j).  Writing psi(x, y) for the mean of the x_j weighted by
1/y_j, the minimizer is t + iu with

    t = psi(x, y),        u^2 = psi(q(t), y),   q_j(t) = (t - x_j)^2 + y_j^2,

which also solves  sum (t - x_j)/y_j = 0  and  sum (u^2 - q_j(t))/y_j = 0.
For a form split into monic quadratic factors X^2 + a_j XZ + b_j Z^2 with
d_j = sqrt(4 b_j - a_j^2) the same point is

    t = -psi(a, d)/2,     u^2 = psi(b, d) - psi(a, d)^2 / 4.

psi is computed as (sum x_j/y_j)/(sum 1/y_j); the literal product form
appears only in alt_center_presentation.  center_from_quadratic_factors_exact
evaluates these formulas exactly, on integer sums, when every d_j is
rational, and returns None otherwise; center_from_quadratic_factors evaluates
them in floats.  reduce.zero_point makes the choice between the two.

On the hyperboloid model the center of mass is simply the Minkowski-normalized
sum of the points, and transfers to the H2 formulas through the isometry.

oracle_center is an independent brute-force minimizer (coarse grid plus local
refinement) used to cross-check the closed form; it shares no code path with it.
It is the package's only numpy user and imports numpy when called.
"""

import math
from fractions import Fraction

from .forms import _left_sum
from .hyperbolic import (
    HyperboloidPoint,
    PointH2,
    cosh_dist_h2,
    from_hyperboloid,
    minkowski,
    to_hyperboloid,
)

_GRID = 200
_REFINE_ITERS = 60
_REFINE_GRID = 21
_SHRINK = 0.65


def _lift(v):
    # int -> Fraction so integer inputs follow the exact path (int/int is float)
    return Fraction(v) if isinstance(v, int) else v


def psi(xs, ys):
    """Mean of the x_j with weights proportional to 1/y_j; exact on rationals."""
    xs = [_lift(x) for x in xs]
    ys = [_lift(y) for y in ys]
    if not xs or len(xs) != len(ys):
        raise ValueError("psi needs two equally long, nonempty vectors")
    if any(not y > 0 for y in ys):
        raise ValueError("psi needs positive weights y_j")
    num = _left_sum(x / y for x, y in zip(xs, ys))
    den = _left_sum(1 / y for y in ys)
    return num / den


def q_of_t(t, x, y):
    """q(t) = t^2 - 2xt + x^2 + y^2 = (t - x)^2 + y^2."""
    return (t - x) * (t - x) + y * y


def _center(xs, ys):
    """(t, u^2) of the center of mass: t = psi(x, y), u^2 = psi(q(t), y)."""
    t = psi(xs, ys)
    return t, psi([q_of_t(t, x, y) for x, y in zip(xs, ys)], ys)


def center_exact(xs, ys):
    """Exact center of mass (t, u^2) for rational coordinates."""
    return _center([Fraction(x) for x in xs], [Fraction(y) for y in ys])


def center_of_mass_h2(points):
    """Center of mass of upper half-plane points (float path)."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    if len(points) == 1:
        return points[0]
    t, u_sq = _center([p.x for p in points], [p.y for p in points])
    return PointH2(t, math.sqrt(u_sq))


def exact_sqrt(value):
    """Fraction square root of a Fraction, or None when it is irrational."""
    value = Fraction(value)
    if value < 0:
        return None
    p, q = value.numerator, value.denominator
    r = math.isqrt(p * q)
    if r * r != p * q:
        return None
    return Fraction(r, q)


def center_from_quadratic_factors_exact(factors):
    """(t, u^2) as exact rationals, or None when the factor data is irrational.

    Needs every factor exact and every d_j = sqrt(4 b_j - a_j^2) rational.
    With S0, S1, S2 the sums of 1/d_j, a_j/d_j, b_j/d_j, the point is
    t = -S1 / (2 S0) and u^2 = (4 S2 S0 - S1^2) / (4 S0^2); the sums are kept
    as integer numerators over one common denominator, which cancels.
    """
    if not all(f.is_exact for f in factors):
        return None
    s0 = s1 = s2 = 0
    den = 1
    for f in factors:
        # with D the lcm of the denominators, A = a D and B = b D are integers,
        # d = m / D where m^2 = 4 B D - A^2, and 1/d, a/d, b/d = D/m, A/m, B/m
        D = math.lcm(f.a.denominator, f.b.denominator)
        A = f.a.numerator * (D // f.a.denominator)
        B = f.b.numerator * (D // f.b.denominator)
        m_sq = 4 * B * D - A * A
        m = math.isqrt(m_sq)
        if m * m != m_sq:
            return None
        s0, s1, s2, den = s0 * m + D * den, s1 * m + A * den, s2 * m + B * den, den * m
    return Fraction(-s1, 2 * s0), Fraction(4 * s2 * s0 - s1 * s1, 4 * s0 * s0)


def center_from_quadratic_factors(factors):
    """Center of mass of the factor roots by the float formulas
    t = -psi(a, d)/2 and u^2 = psi(b, d) - psi(a, d)^2/4, whatever the factor
    data; reduce.zero_point tries center_from_quadratic_factors_exact first."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    a = [float(f.a) for f in factors]
    b = [float(f.b) for f in factors]
    d = [math.sqrt(float(f.d_squared)) for f in factors]
    psi_ad = psi(a, d)
    t = -psi_ad / 2
    u_sq = psi(b, d) - psi_ad * psi_ad / 4
    return PointH2(t, math.sqrt(u_sq))


def alt_center_presentation(factors):
    """Same center via the product-form presentation in the factor data.

    With s = sum_i prod_{j != i} d_j the coordinates are
        t   = -(sum_i a_i prod_{j != i} d_j) / (2s)
        u^2 = prod(d) * (s * sum(d) + sum_{i<j} (prod_{k != i,j} d_k)(a_i - a_j)^2) / (4 s^2)
    where the second sum runs over unordered index pairs.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    a = [float(f.a) for f in factors]
    d = [math.sqrt(float(f.d_squared)) for f in factors]
    r = len(d)

    def prod_except(skip):
        out = 1.0
        for k in range(r):
            if k not in skip:
                out *= d[k]
        return out

    s = _left_sum(prod_except({i}) for i in range(r))
    t = -_left_sum(a[i] * prod_except({i}) for i in range(r)) / (2.0 * s)
    pair_sum = 0.0
    for i in range(r):
        for j in range(i + 1, r):
            pair_sum += prod_except({i, j}) * (a[i] - a[j]) ** 2
    u_sq = prod_except(set()) * (s * _left_sum(d) + pair_sum) / (4.0 * s * s)
    return PointH2(t, math.sqrt(u_sq))


def center_of_mass_hyperboloid(points):
    """Minkowski-normalized sum of hyperboloid points."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    s1 = _left_sum(p.x1 for p in points)
    s2 = _left_sum(p.x2 for p in points)
    s3 = _left_sum(p.x3 for p in points)
    norm_sq = minkowski((s1, s2, s3), (s1, s2, s3))
    if not norm_sq > 0:
        raise ValueError("summed point has nonpositive Minkowski norm")
    norm = math.sqrt(norm_sq)
    return HyperboloidPoint(s1 / norm, s2 / norm, s3 / norm)


def sum_cosh(center, points):
    """sum_j cosh d(center, p_j) for half-plane points; the minimized quantity."""
    return _left_sum(cosh_dist_h2(center, p) for p in points)


def oracle_center(points):
    """Brute-force minimizer of sum cosh d: coarse grid then local refinement.

    Deliberately independent of the closed form; deterministic.  Its fixed schedule
    (grid 200x200, then 60 shrinking local grids) is good to about 1e-6.
    """
    import numpy as np

    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])

    def total(tg, ug):
        acc = np.zeros_like(tg)
        for x, y in zip(xs, ys):
            acc += 1.0 + ((tg - x) ** 2 + (ug - y) ** 2) / (2.0 * ug * y)
        return acc

    x_lo, x_hi = xs.min(), xs.max()
    span = x_hi - x_lo
    lo_t, hi_t = x_lo - span, x_hi + span
    lo_u, hi_u = ys.min() / 4.0, ys.max() * 4.0
    tg, ug = np.meshgrid(np.linspace(lo_t, hi_t, _GRID), np.linspace(lo_u, hi_u, _GRID))
    vals = total(tg, ug)
    k = int(np.argmin(vals))
    best_t, best_u = float(tg.flat[k]), float(ug.flat[k])
    half_t = max((hi_t - lo_t) / _GRID, 1e-12)
    half_u = (hi_u - lo_u) / _GRID
    for _ in range(_REFINE_ITERS):
        t_axis = np.linspace(best_t - half_t, best_t + half_t, _REFINE_GRID)
        u_axis = np.linspace(max(best_u - half_u, best_u / 2.0), best_u + half_u, _REFINE_GRID)
        tg, ug = np.meshgrid(t_axis, u_axis)
        vals = total(tg, ug)
        k = int(np.argmin(vals))
        best_t, best_u = float(tg.flat[k]), float(ug.flat[k])
        half_t *= _SHRINK
        half_u *= _SHRINK
    return PointH2(best_t, best_u)


def hyperboloid_transfer(points):
    """Center of mass computed in the hyperboloid model, mapped back to H2."""
    return from_hyperboloid(center_of_mass_hyperboloid([to_hyperboloid(p) for p in points]))
