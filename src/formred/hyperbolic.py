"""Upper half-plane, upper half-space and hyperboloid models of hyperbolic space.

Conventions used throughout:

* H2 points are x + iy with y > 0, metric ds^2 = (dx^2 + dy^2)/y^2;
  cosh d(z, w) = 1 + |z - w|^2 / (2 y1 y2).
* H3 points are z + t*j with z complex and t > 0, metric (|dz|^2 + dt^2)/t^2.
* Matrices act on the right through their inverse: z.M = M^(-1) z, so the
  point action composes with the substitution action on forms.
* Boundary distances are ln(((x-a)^2 + y^2)/y) in H2 and ln((|z-b|^2 + t^2)/t)
  in H3; the ideal point at infinity gets ln(1/y) (resp. ln(1/t)), which keeps
  the additive property along vertical geodesics.
* The hyperboloid model is the upper sheet of -x1^2 - x2^2 + x3^2 = 1 with the
  Minkowski pairing M(x, y) = -x1 y1 - x2 y2 + x3 y3, and cosh d = M(x, y).
"""

import math
from fractions import Fraction

from .errors import ConvergenceFailure
from .forms import UnimodularMatrix, _Record, _set

INFINITY = math.inf

_BOUNDARY_TOL = 1e-12
_MAX_STEPS = 64  # the most steps of a Gauss reduction


def is_infinite(p):
    """True when a boundary value denotes the ideal point at infinity."""
    if isinstance(p, complex):
        return math.isinf(p.real) or math.isinf(p.imag)
    return isinstance(p, float) and math.isinf(p)


class PointH2(_Record):
    """x + iy with float coordinates, y > 0."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = float(x), float(y)
        _set(self, "x", x)
        _set(self, "y", y)
        if not y > 0:
            raise ValueError(f"upper half-plane point needs y > 0, got y={y}")

    def as_complex(self):
        return complex(self.x, self.y)


class PointH3(_Record):
    """z + tj with complex z and float t > 0."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        z, t = complex(z), float(t)
        _set(self, "z", z)
        _set(self, "t", t)
        if not t > 0:
            raise ValueError(f"upper half-space point needs t > 0, got t={t}")


class HyperboloidPoint(_Record):
    """(x1, x2, x3) on the upper sheet of -x1^2 - x2^2 + x3^2 = 1."""

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1, x2, x3):
        _set(self, "x1", float(x1))
        _set(self, "x2", float(x2))
        _set(self, "x3", float(x3))
        if not self.x3 > 0:
            raise ValueError("hyperboloid point needs x3 > 0")
        err = abs(minkowski(self, self) - 1.0)
        if err > 1e-9 * max(1.0, self.x3 * self.x3):
            raise ValueError(f"point off the unit hyperboloid (residual {err:.3g})")

    def triple(self):
        return (self.x1, self.x2, self.x3)


def _triple(p):
    if isinstance(p, HyperboloidPoint):
        return p.x1, p.x2, p.x3
    x1, x2, x3 = p
    return float(x1), float(x2), float(x3)


def minkowski(p, q):
    """Minkowski pairing -x1 y1 - x2 y2 + x3 y3 of two triples."""
    a1, a2, a3 = _triple(p)
    b1, b2, b3 = _triple(q)
    return -a1 * b1 - a2 * b2 + a3 * b3


def to_hyperboloid(z):
    """Isometry H2 -> hyperboloid: x + iy -> (x/y, (x^2+y^2-1)/(2y), (x^2+y^2+1)/(2y))."""
    s = z.x * z.x + z.y * z.y
    return HyperboloidPoint(z.x / z.y, (s - 1) / (2 * z.y), (s + 1) / (2 * z.y))


def from_hyperboloid(p):
    """Inverse of to_hyperboloid."""
    y = 1.0 / (p.x3 - p.x2)
    return PointH2(p.x1 * y, y)


def cosh_dist_h2(z, w):
    dx = z.x - w.x
    dy = z.y - w.y
    return 1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y)


def dist_h2(z, w):
    """Hyperbolic distance in the upper half-plane."""
    return math.acosh(max(1.0, cosh_dist_h2(z, w)))


def dist_h2_cross_ratio(z, w):
    """Distance via ideal endpoints and the cross-ratio; independent check of dist_h2."""
    scale = max(1.0, abs(z.x), abs(w.x))
    if abs(z.x - w.x) <= 1e-15 * scale:
        return abs(math.log(w.y / z.y))
    m = (w.x * w.x + w.y * w.y - z.x * z.x - z.y * z.y) / (2.0 * (w.x - z.x))
    r = math.hypot(z.x - m, z.y)
    a, b = m - r, m + r
    zc, wc = z.as_complex(), w.as_complex()
    z_inf, w_inf = (a, b) if abs(zc - a) <= abs(zc - b) else (b, a)
    return abs(math.log(abs(zc - w_inf) * abs(wc - z_inf) / (abs(wc - w_inf) * abs(zc - z_inf))))


def boundary_dist_h2(A, z):
    """Signed distance-like quantity from the ideal point A to z; additive on
    geodesics.  It is boundary_dist_h3 on the real cross-section of H3."""
    return boundary_dist_h3(embed_h2(z), A)


def cosh_dist_h3(w1, w2):
    dz = w1.z - w2.z
    dt = w1.t - w2.t
    return 1.0 + ((dz.real * dz.real + dz.imag * dz.imag) + dt * dt) / (2.0 * w1.t * w2.t)


def dist_h3(w1, w2):
    """Hyperbolic distance in the upper half-space."""
    return math.acosh(max(1.0, cosh_dist_h3(w1, w2)))


def boundary_dist_h3(w, beta):
    """ln((|z - beta|^2 + t^2)/t); for beta at infinity, ln(1/t)."""
    if is_infinite(beta):
        return math.log(1.0 / w.t)
    d = w.z - complex(beta)
    return math.log((d.real * d.real + d.imag * d.imag + w.t * w.t) / w.t)


def embed_h2(z):
    """Isometric inclusion of the half-plane as the vertical cross-section of H3."""
    return PointH3(complex(z.x, 0.0), z.y)


def _entries(M):
    """Entries a, b, c, d of M, a UnimodularMatrix or a pair of rows
    ((a, b), (c, d)) of numbers with determinant 1 to within 1e-9."""
    if isinstance(M, UnimodularMatrix):
        return M.a, M.b, M.c, M.d
    (a, b), (c, d) = M
    det = a * d - b * c
    if abs(det - 1) > 1e-9:
        raise ValueError(f"matrix must have determinant 1, got {det}")
    return a, b, c, d


def _inverse_entries(M):
    """Entries of M^(-1) for det-1 M, without forming the inverse numerically."""
    a, b, c, d = _entries(M)
    return d, -b, -c, a


def mobius_h2(z, M):
    """Right action z.M = M^(-1) z on points of H2 or its boundary."""
    if not isinstance(z, PointH2):
        return mobius_cp1(z, M)
    a, b, c, d = _inverse_entries(M)
    w = z.as_complex()
    r = (a * w + b) / (c * w + d)
    return PointH2(r.real, r.imag)


def mobius_cp1(beta, M):
    """Right action of a det-1 complex matrix on the boundary sphere C u {oo}."""
    a, b, c, d = _inverse_entries(M)
    if is_infinite(beta):
        return INFINITY if c == 0 else a / c
    den = c * beta + d
    if den == 0:
        return INFINITY
    return (a * beta + b) / den


def act_h3(w, M):
    """Right action of a det-1 complex matrix on H3 (quaternionic Mobius formula)."""
    a, b, c, d = _inverse_entries(M)
    z, t = w.z, w.t
    czd = c * z + d
    denom = abs(czd) ** 2 + abs(c) ** 2 * t * t
    z2 = ((a * z + b) * czd.conjugate() + a * complex(c).conjugate() * t * t) / denom
    return PointH3(z2, t / denom)


def in_fundamental_domain(z, tol=_BOUNDARY_TOL):
    """True when z lies in the closed region |Re z| <= 1/2, |z| >= 1."""
    return abs(z.x) <= 0.5 + tol and z.x * z.x + z.y * z.y >= 1.0 - tol


def reduce_point_to_fundamental_domain(z, trace=None):
    """Gauss reduction of a half-plane point into the fundamental domain.

    Returns (z', M) with z.M = z', |Re z'| <= 1/2 and |z'| >= 1 up to 1e-12;
    boundary representatives are canonical (Re = +1/2, right arc of |z| = 1).
    `trace`, when a list, collects the intermediate points visited.
    """
    x, y = z.x, z.y
    M = UnimodularMatrix.identity()
    if trace is not None:
        trace.append(PointH2(x, y))
    for _ in range(_MAX_STEPS):
        n = math.ceil(x - 0.5)
        if n:
            x -= n
            M = M @ UnimodularMatrix.translation(n)
            if trace is not None:
                trace.append(PointH2(x, y))
        r2 = x * x + y * y
        if r2 < 1.0 - _BOUNDARY_TOL:
            x, y = -x / r2, y / r2
            M = M @ UnimodularMatrix.inversion()
            if trace is not None:
                trace.append(PointH2(x, y))
            continue
        if r2 <= 1.0 + _BOUNDARY_TOL and x < -_BOUNDARY_TOL:
            x, y = -x / r2, y / r2
            M = M @ UnimodularMatrix.inversion()
            if trace is not None:
                trace.append(PointH2(x, y))
        if abs(x + 0.5) <= _BOUNDARY_TOL:
            x += 1.0
            M = M @ UnimodularMatrix.translation(-1)
            if trace is not None:
                trace.append(PointH2(x, y))
        return PointH2(x + 0.0, y), M
    raise ConvergenceFailure("fundamental-domain reduction did not terminate")


def _form_root(A, B, C):
    """The root in H of the integer form (A, B, C), each part rounded correctly."""
    return PointH2(-B / (2 * A), math.sqrt((4 * A * C - B * B) / (4 * A * A)))


def reduce_point_exact(t, u_sq, trace=None):
    """Exact Gauss reduction of the point t + i*sqrt(u_sq) on an integer form.

    Returns (t', u_sq', M) with z.M = t' + i*sqrt(u_sq') reduced and boundary
    ties (Re = 1/2, |z| = 1) resolved canonically.  With t = p/q, u^2 = r/s
    the point is the root in H of the positive definite integer form
    (A, B, C) = (q^2 s, -2pqs, p^2 s + r q^2): t = -B/2A, u^2 = (4AC - B^2)/4A^2
    and |z|^2 = C/A.  z -> z - n moves it to (A, B + 2nA, C + nB + n^2 A) and
    z -> -1/z to (C, -B, A), so the loop runs on integers alone.  `trace`,
    when a list, collects the points visited.
    """
    t, u2 = Fraction(t), Fraction(u_sq)
    if u2 <= 0:
        raise ValueError("u_sq must be positive")
    p, q, r, s = t.numerator, t.denominator, u2.numerator, u2.denominator
    A, B, C = q * q * s, -2 * p * q * s, p * p * s + r * q * q
    M = UnimodularMatrix.identity()
    for _ in range(_MAX_STEPS):
        if trace is not None:
            trace.append(_form_root(A, B, C))
        n = -((A + B) // (2 * A))  # ceil(t - 1/2)
        if n:
            B, C = B + 2 * n * A, C + n * (B + n * A)
            M = M @ UnimodularMatrix.translation(n)
            if trace is not None:
                trace.append(_form_root(A, B, C))
        if C < A:
            A, B, C = C, -B, A
            M = M @ UnimodularMatrix.inversion()
            continue
        if C == A and B > 0:
            B = -B
            M = M @ UnimodularMatrix.inversion()
            if trace is not None:
                trace.append(_form_root(A, B, C))
        return Fraction(-B, 2 * A), Fraction(4 * A * C - B * B, 4 * A * A), M
    raise ConvergenceFailure("fundamental-domain reduction did not terminate")
