"""Positive definite quadratics and Hermitian forms as coordinates on H2 / H3.

Real quadratics are written Q = a*X^2 - 2b*XZ + c*Z^2 (note the -2b), with
discriminant D = ac - b^2; positive definite means a > 0, D > 0 and the upper
root is b/a + i*sqrt(D)/a.  Hermitian forms are H = a|X|^2 - b X conj(Z)
- conj(b) conj(X) Z + c|Z|^2 with real a, c and D = ac - |b|^2.  Forms are
projective (meaningful up to a positive factor); boundary forms have D = 0 and
encode ideal points: Q_r = (X - rZ)^2, Q_oo = Z^2 and their Hermitian analogues.
"""

import math

from .errors import DegenerateCombination, NotPositiveDefinite
from .hyperbolic import PointH2, PointH3
from .forms import UnimodularMatrix, _Record, _set

_NEG_TOL = 1e-9


def _first_nonzero(values):
    for i, v in enumerate(values):
        if v != 0:
            return i
    return None


class PosDefQuadratic(_Record):
    """a*X^2 - 2b*XZ + c*Z^2, positive semidefinite (boundary forms allowed);
    a, b, c are floats or exact rationals.  Equal up to a positive factor."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        scale = max(abs(self.a), abs(self.b), abs(self.c))
        if scale == 0:
            raise ValueError("zero quadratic form")
        if self.a < -_NEG_TOL * scale or self.delta < -_NEG_TOL * scale * scale:
            raise NotPositiveDefinite(f"indefinite quadratic (a={self.a}, delta={self.delta})")

    @property
    def delta(self):
        return self.a * self.c - self.b * self.b

    @property
    def is_positive_definite(self):
        return self.a > 0 and self.delta > 0

    @property
    def is_boundary(self):
        return not self.is_positive_definite

    @classmethod
    def boundary_point(cls, r):
        """(X - rZ)^2, the form with double root at r."""
        return cls(1, r, r * r)

    @classmethod
    def boundary_infinity(cls):
        """Z^2, the form with double root at infinity."""
        return cls(0, 0, 1)

    def normalized(self):
        """Monic representative (requires a != 0)."""
        if self.a == 0:
            raise NotPositiveDefinite("cannot normalize a form with a = 0")
        return PosDefQuadratic(self.a / self.a, self.b / self.a, self.c / self.a)

    def coefficients(self):
        """Plain quadratic coefficients (a, -2b, c) of aX^2 - 2bXZ + cZ^2."""
        return (self.a, -2 * self.b, self.c)

    def __eq__(self, other):
        if not isinstance(other, PosDefQuadratic):
            return NotImplemented
        mine, theirs = (self.a, self.b, self.c), (other.a, other.b, other.c)
        i = _first_nonzero(mine)
        if i != _first_nonzero(theirs):
            return False
        if mine[i] * theirs[i] <= 0:
            return False
        return all(mine[j] * theirs[i] == theirs[j] * mine[i] for j in range(3))


class HermitianForm(_Record):
    """a|X|^2 - b X conj(Z) - conj(b) conj(X) Z + c|Z|^2 with real a, c and
    complex b.  Equal up to a positive factor."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        _set(self, "a", a)
        _set(self, "b", complex(b))
        _set(self, "c", c)
        scale = max(abs(self.a), abs(self.b), abs(self.c))
        if scale == 0:
            raise ValueError("zero Hermitian form")
        if self.a < -_NEG_TOL * scale or self.delta < -_NEG_TOL * scale * scale:
            raise NotPositiveDefinite(f"indefinite Hermitian form (a={self.a}, delta={self.delta})")

    @property
    def delta(self):
        return self.a * self.c - (self.b.real**2 + self.b.imag**2)

    @property
    def is_positive_definite(self):
        return self.a > 0 and self.delta > 0

    @property
    def is_boundary(self):
        return not self.is_positive_definite

    @classmethod
    def boundary_point(cls, beta):
        """|X - beta*Z|^2, the decomposable form attached to the ideal point beta."""
        beta = complex(beta)
        return cls(1.0, beta.conjugate(), abs(beta) ** 2)

    @classmethod
    def boundary_infinity(cls):
        return cls(0.0, 0j, 1.0)

    def normalized(self):
        if self.a == 0:
            raise NotPositiveDefinite("cannot normalize a form with a = 0")
        return HermitianForm(1.0, self.b / self.a, self.c / self.a)

    def __eq__(self, other):
        if not isinstance(other, HermitianForm):
            return NotImplemented
        mine = (self.a, self.b, self.c)
        theirs = (other.a, other.b, other.c)
        i = _first_nonzero(mine)
        if i != _first_nonzero(theirs):
            return False
        ratio = complex(mine[i]) * complex(theirs[i]).conjugate()
        if ratio.imag != 0 or ratio.real <= 0:
            return False
        return all(mine[j] * theirs[i] == theirs[j] * mine[i] for j in range(3))


def zero_quadratic(Q):
    """Upper root b/a + i*sqrt(ac - b^2)/a of a positive definite quadratic."""
    if not Q.is_positive_definite:
        raise NotPositiveDefinite("zero map needs a positive definite quadratic")
    a = float(Q.a)
    return PointH2(float(Q.b) / a, math.sqrt(float(Q.delta)) / a)


def inv_zero_quadratic(w):
    """Monic quadratic (X - wZ)(X - conj(w)Z) whose zero is w."""
    return PosDefQuadratic(1.0, w.x, w.x * w.x + w.y * w.y)


def zero_hermitian(H):
    """Point conj(b)/a + j*sqrt(ac - |b|^2)/a of a positive definite Hermitian form."""
    if not H.is_positive_definite:
        raise NotPositiveDefinite("zero map needs a positive definite Hermitian form")
    return PointH3(H.b.conjugate() / H.a, math.sqrt(H.delta) / H.a)


def inv_zero_hermitian(w):
    """Monic Hermitian form |X - zZ|^2 + t^2 |Z|^2 whose zero is w = z + tj."""
    z = complex(w.z)
    return HermitianForm(1.0, z.conjugate(), abs(z) ** 2 + w.t * w.t)


def embed_real(Q):
    """Inclusion of real quadratics into Hermitian forms (b stays real)."""
    return HermitianForm(float(Q.a), complex(float(Q.b), 0.0), float(Q.c))


def act_on_quadratic(Q, M):
    """Substitution action Q^M(X, Z) = Q(aX + bZ, cX + dZ); preserves the discriminant."""
    if isinstance(M, UnimodularMatrix):
        a, b, c, d = M.a, M.b, M.c, M.d
    else:
        (a, b), (c, d) = M
        if abs(a * d - b * c - 1) > 1e-9:
            raise ValueError("matrix must have determinant 1")
    aQ, bQ, cQ = Q.a, Q.b, Q.c
    return PosDefQuadratic(
        aQ * a * a - 2 * bQ * a * c + cQ * c * c,
        bQ * (a * d + b * c) - aQ * a * b - cQ * c * d,
        aQ * b * b - 2 * bQ * b * d + cQ * d * d,
    )


def act_on_hermitian(H, M):
    """Substitution action with conjugates on the conjugated slots; det M = 1."""
    if isinstance(M, UnimodularMatrix):
        a, b, c, d = complex(M.a), complex(M.b), complex(M.c), complex(M.d)
    else:
        (a, b), (c, d) = M
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if abs(a * d - b * c - 1) > 1e-9:
            raise ValueError("matrix must have determinant 1")
    aH, bH, cH = H.a, H.b, H.c
    a2 = aH * abs(a) ** 2 - 2 * (bH * a * c.conjugate()).real + cH * abs(c) ** 2
    c2 = aH * abs(b) ** 2 - 2 * (bH * b * d.conjugate()).real + cH * abs(d) ** 2
    b2 = bH * a * d.conjugate() + bH.conjugate() * b.conjugate() * c \
        - aH * a * b.conjugate() - cH * c * d.conjugate()
    return HermitianForm(a2, b2, c2)


def convex_combination(weights, forms):
    """Coefficientwise sum of weighted quadratics; its zero sweeps the convex hull.

    Weights must be nonnegative and sum to 1.  Raises DegenerateCombination when
    the whole mass sits on a single boundary point (the sum is not definite).
    """
    weights = list(weights)
    forms = list(forms)
    if len(weights) != len(forms) or not forms:
        raise ValueError("need equally many weights and forms, at least one each")
    total = sum(weights)
    if any(w < -1e-12 for w in weights) or abs(total - 1) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    a = sum(w * q.a for w, q in zip(weights, forms))
    b = sum(w * q.b for w, q in zip(weights, forms))
    c = sum(w * q.c for w, q in zip(weights, forms))
    out = PosDefQuadratic(a, b, c)
    if not out.is_positive_definite:
        raise DegenerateCombination("combination collapses onto one boundary point")
    return out
