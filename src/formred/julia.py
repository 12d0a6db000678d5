"""Zero map by minimizing the summed boundary distances to the roots.

For roots a_1..a_n on the boundary plane, F~(w) = sum_i ln((|z - a_i|^2 + t^2)/t)
is strictly convex along geodesics and has a unique minimizer w0 in the upper
half-space; for forms with real coefficients w0 sits on the real cross-section,
so the real path minimizes over (x, t) with every conjugate pair counted twice.

The minimizer is certified by the tangent criterion: the unit tangent vectors
at w0 along the geodesics to the roots sum to zero, i.e. the Riemannian
gradient of F~ vanishes.  tangent_sum returns that gradient; its Riemannian
norm is the convergence certificate.

Optimizer: damped Newton in (x, tau) or (Re z, Im z, tau) with t = exp(tau)
(keeps t > 0), Armijo backtracking, and a plain gradient step whenever the
Hessian is not positive definite.  Initialized at the hyperbolic center of
mass (real path) or at the mean/spread of the roots (complex path).  Both
minimizers raise ConvergenceFailure when a step, the start point or the
final point leaves the float range.

The optimizer works on tuples of plain floats: a Cholesky pass tests the
Hessian, a partial-pivot elimination solves for the Newton step, and sums over
the roots run left to right.
"""

import math
from contextlib import contextmanager

from .centroid import center_of_mass_h2
from .errors import ConvergenceFailure, NotPositiveDefinite
from .forms import _left_sum, _Record, _set
from .hyperbolic import PointH2, PointH3, boundary_dist_h3, embed_h2
from .roots import _debug, root_set

DEFAULT_TOL = 1e-10
MAX_ITER = 200


class BarycentricWeights(_Record):
    """Nonnegative weights t_1..t_n, not all zero."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("need at least one weight")
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("weights must not all be zero")
        _set(self, "values", vals)


class JuliaResult(_Record):
    """Minimizer w0 (a PointH2 or PointH3) with the objective value and the
    convergence certificate."""

    __slots__ = ("point", "objective", "gradient_norm", "iterations")

    def __init__(self, point, objective, gradient_norm, iterations):
        _set(self, "point", point)
        _set(self, "objective", objective)
        _set(self, "gradient_norm", gradient_norm)
        _set(self, "iterations", iterations)


def _weight_values(weights):
    if isinstance(weights, BarycentricWeights):
        return weights.values
    return BarycentricWeights(tuple(weights)).values


def q_f(weights, roots):
    """Weighted sum of the boundary forms |X - a_i Z|^2 of the roots.

    Positive definite exactly when the positive-weight roots span at least two
    distinct points; with all mass on one root it degenerates to that boundary
    form (and the zero map downstream rejects it).
    """
    from .paramspace import HermitianForm  # only this and julia_quadratic need it

    t = _weight_values(weights)
    roots = [complex(r) for r in roots]
    if len(t) != len(roots):
        raise ValueError("need as many weights as roots")
    a = _left_sum(t)
    b = _left_sum(ti * r.conjugate() for ti, r in zip(t, roots))
    c = _left_sum(ti * (r.real * r.real + r.imag * r.imag) for ti, r in zip(t, roots))
    return HermitianForm(a, b, c)


def theta0(a0, weights, roots):
    """a0^2 disc(Q_F)^(n/2) / (n^n t_1...t_n); scale-invariant in the weights."""
    t = _weight_values(weights)
    if any(v <= 0 for v in t):
        raise ValueError("theta0 needs strictly positive weights")
    n = len(roots)
    disc = q_f(t, roots).delta
    if disc <= 0:
        raise NotPositiveDefinite("nonpositive discriminant in theta0")
    prod = 1.0
    for v in t:
        prod *= v
    return float(a0) ** 2 * disc ** (n / 2.0) / (float(n) ** n * prod)


def _as_h3(w):
    if isinstance(w, PointH2):
        return complex(w.x, 0.0), w.y
    return w.z, w.t


def distance_sum(w, roots):
    """F~(w) = sum of boundary distances from w to the roots."""
    if isinstance(w, PointH2):
        w = embed_h2(w)
    return _left_sum(boundary_dist_h3(w, r) for r in roots)


def tangent_sum(w, roots):
    """Riemannian gradient of F~ at w: the negated sum of the unit tangent
    vectors along the geodesics towards the roots.  Components are in the
    (x, y, t) coordinate basis; the Riemannian norm is |v| / t.
    """
    z, t = _as_h3(w)
    gx = gy = gt = 0.0
    for r in roots:
        d = z - complex(r)
        D = d.real * d.real + d.imag * d.imag + t * t
        gx += 2.0 * d.real / D
        gy += 2.0 * d.imag / D
        gt += 2.0 * t / D - 1.0 / t
    t2 = t * t
    return (t2 * gx, t2 * gy, t2 * gt)


def gradient_norm(w, roots):
    """Riemannian norm of tangent_sum at w."""
    z, t = _as_h3(w)
    return math.hypot(*tangent_sum(w, roots)) / t


def _positive_definite(h):
    """Cholesky pass over the symmetric matrix h: every pivot must stay positive."""
    n = len(h)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = h[j][j]
        for k in range(j):
            pivot -= low[j][k] * low[j][k]
        if not pivot > 0:
            return False
        low[j][j] = root = math.sqrt(pivot)
        for i in range(j + 1, n):
            acc = h[i][j]
            for k in range(j):
                acc -= low[i][k] * low[j][k]
            low[i][j] = acc / root
    return True


def _solve(a, b):
    """Solve a x = b by elimination with partial pivoting; None when a is singular."""
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for j in range(n):
        best = max(range(j, n), key=lambda i: abs(rows[i][j]))
        rows[j], rows[best] = rows[best], rows[j]
        pivot = rows[j][j]
        if pivot == 0:
            return None
        for i in range(j + 1, n):
            f = rows[i][j] / pivot
            for k in range(j + 1, n + 1):
                rows[i][k] -= f * rows[j][k]
    x = [0.0] * n
    for i in reversed(range(n)):
        acc = rows[i][n]
        for k in range(i + 1, n):
            acc -= rows[i][k] * x[k]
        x[i] = acc / rows[i][i]
    return x


def _dot(u, v):
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _minimize(value_grad_hess, p0, tol):
    """Damped Newton with Armijo backtracking; falls back to gradient steps."""
    p = tuple(float(v) for v in p0)
    val, grad, hess, riem = value_grad_hess(p)
    for it in range(MAX_ITER):
        if riem <= tol:
            return p, val, riem, it
        descent = [-g for g in grad]
        step = _solve(hess, descent) if _positive_definite(hess) else None
        if step is None or _dot(grad, step) >= 0:
            step = descent
        slope = _dot(grad, step)
        if abs(slope) <= 1e-13 * (1.0 + abs(val)):
            # predicted decrease is below evaluation noise: the line search can
            # no longer discriminate, but the full Newton step is tiny and safe
            s = 1.0
        else:
            s = 1.0
            while s > 1e-12:
                cand = tuple(pi + s * di for pi, di in zip(p, step))
                try:
                    cval = value_grad_hess(cand)[0]
                except ArithmeticError:
                    # a trial point that leaves the float range fails the test
                    cval = math.inf
                if cval <= val + 1e-4 * s * slope:
                    break
                s *= 0.5
        p = tuple(pi + s * di for pi, di in zip(p, step))
        val, grad, hess, riem = value_grad_hess(p)
    if riem <= tol:
        return p, val, riem, MAX_ITER
    raise ConvergenceFailure(
        f"no convergence after {MAX_ITER} iterations (gradient norm {riem:.3e})")


def _real_problem(pairs):
    pts = [(p.x, p.y) for p in pairs]
    n = len(pts)

    def fgh(p):
        x, tau = p
        t = math.exp(tau)
        t2 = t * t
        logs = gx = gtau = gxx = gxt = gtt = 0.0
        for px, py in pts:
            dx = x - px
            D = dx * dx + py * py + t2
            DD = D * D
            logs += math.log(D)
            gx += 4.0 * dx / D
            gtau += 4.0 * t2 / D - 2.0
            gxx += 4.0 / D - 8.0 * dx * dx / DD
            gxt += -8.0 * dx * t2 / DD
            gtt += 8.0 * t2 / D - 8.0 * t2 * t2 / DD
        val = 2.0 * (logs - n * tau)
        riem = math.sqrt(t2 * gx * gx + gtau * gtau)
        return val, (gx, gtau), ((gxx, gxt), (gxt, gtt)), riem

    return fgh


def _complex_problem(roots):
    pts = [(complex(r).real, complex(r).imag) for r in roots]
    n = len(pts)

    def fgh(p):
        x, y, tau = p
        t = math.exp(tau)
        t2 = t * t
        logs = gx = gy = gtau = gxx = gyy = gxy = gxt = gyt = gtt = 0.0
        for px, py in pts:
            dx = x - px
            dy = y - py
            D = dx * dx + dy * dy + t2
            D2 = D * D
            logs += math.log(D)
            gx += 2.0 * dx / D
            gy += 2.0 * dy / D
            gtau += 2.0 * t2 / D - 1.0
            gxx += 2.0 / D - 4.0 * dx * dx / D2
            gyy += 2.0 / D - 4.0 * dy * dy / D2
            gxy += -4.0 * dx * dy / D2
            gxt += -4.0 * dx * t2 / D2
            gyt += -4.0 * dy * t2 / D2
            gtt += 4.0 * t2 / D - 4.0 * t2 * t2 / D2
        val = logs - n * tau
        hess = ((gxx, gxy, gxt), (gxy, gyy, gyt), (gxt, gyt, gtt))
        riem = math.sqrt(t2 * (gx * gx + gy * gy) + gtau * gtau)
        return val, (gx, gy, gtau), hess, riem

    return fgh


@contextmanager
def _float_range():
    """Turns a minimization that leaves the float range into ConvergenceFailure;
    a ValueError is a point whose y or t underflows to 0 or is NaN, or a log of one."""
    try:
        yield
    except (ArithmeticError, ValueError):
        raise ConvergenceFailure("Julia minimization leaves the float range") from None


def julia_zero(roots, tol=DEFAULT_TOL, start=None):
    """Unique minimizer of F~ over the upper half-space (needs >= 2 distinct roots).

    A minimization that leaves the float range, from the start point at the
    mean and spread of the roots to the final point, raises ConvergenceFailure.
    """
    roots = [complex(r) for r in roots]
    if len(set(roots)) < 2:
        raise ValueError("need at least two distinct roots")
    with _float_range():
        if start is None:
            mean = _left_sum(roots) / len(roots)
            spread = math.sqrt(_left_sum(abs(r - mean) ** 2 for r in roots) / len(roots))
            start = PointH3(mean, spread)
        p0 = (start.z.real, start.z.imag, math.log(start.t))
        p, val, riem, it = _minimize(_complex_problem(roots), p0, tol)
        point = PointH3(complex(p[0], p[1]), math.exp(p[2]))
    _debug(__name__, "julia_zero: %d iterations, gradient %.2e", it, riem)
    return JuliaResult(point, val, riem, it)


def julia_zero_real(pairs):
    """Minimizer of F~ restricted to the real cross-section.

    `pairs` is a sequence of upper half-plane points, one per conjugate pair
    (a RootSet's pairs); the objective counts each pair twice, so the value
    matches distance_sum over the full root list.  The minimizer is certified
    to gradient norm DEFAULT_TOL; as in julia_zero, a minimization that leaves
    the float range raises ConvergenceFailure.
    """
    pts = tuple(pairs)
    if not pts:
        raise ValueError("need at least one conjugate pair")
    with _float_range():
        start = center_of_mass_h2(pts)
        p, val, riem, it = _minimize(_real_problem(pts), (start.x, math.log(start.y)),
                                     DEFAULT_TOL)
        point = PointH2(p[0], math.exp(p[1]))
    _debug(__name__, "julia_zero_real: %d iterations, gradient %.2e", it, riem)
    return JuliaResult(point, val, riem, it)


def julia_quadratic(F):
    """Monic positive definite quadratic whose zero is the minimizer for F.

    Determined up to a positive factor, which is all reduction needs; real
    forms only (real roots are rejected by the pairing step).
    """
    from .paramspace import inv_zero_quadratic

    return inv_zero_quadratic(julia_zero_real(root_set(F).pairs).point)
