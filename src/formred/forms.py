"""Binary forms with exact rational coefficients and the unimodular action on them.

A form of degree n is F(X, Z) = sum_i c_i X^(n-i) Z^i with c_0 != 0; coefficients
are stored as exact rationals in descending powers of X, each a plain int when
integral and a Fraction otherwise, so integral forms are transformed and
measured in int arithmetic.  A matrix M = (a b; c d) with det 1 acts by
substitution, F^M(X, Z) = F(aX + bZ, cX + dZ), which is a right action:
(F^M)^N = F^(MN).

The record classes of the package (forms, matrices, points, reports) derive
from _Record, an immutable slotted class that compares, hashes, prints and
copies like a frozen dataclass, without importing dataclasses.
"""

import math
import re
from fractions import Fraction
from operator import attrgetter

from .errors import FormParseError, RealRootDetected


def _exact(value, what="coefficient"):
    """Coerce to an exact rational: a plain int when integral, else a Fraction.

    Floats are rejected (coefficients are exact by contract); bools, numpy
    integers and integral Fractions or 'p/q' strings all come out as int.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int, Fraction or 'p/q' string), got float")
    try:
        f = Fraction(value)
    except (ValueError, TypeError) as exc:
        raise FormParseError(f"cannot read {what} from {value!r}") from exc
    return int(f.numerator) if f.denominator == 1 else f


# a record's __init__ sets its fields with _set, past _Record.__setattr__
_set = object.__setattr__


class _Record:
    """Immutable record: the fields are the subclass's __slots__, set once in
    its __init__ through _set.  Equality (same type, equal fields), hashing,
    repr, copying and pickling follow the fields, as for a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__slots__" in cls.__dict__:
            fields = cls._fields = tuple(cls.__slots__)
            get = attrgetter(*fields)
            # the tuple of field values, a 1-tuple for a single field
            cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class UnimodularMatrix(_Record):
    """Integer 2x2 matrix (a b; c d) with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        for entry in (a, b, c, d):
            if not isinstance(entry, int):
                raise TypeError("matrix entries must be integers")
        if a * d - b * c != 1:
            raise ValueError("matrix must have determinant 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, n):
        """Matrix whose point action sends z to z - n."""
        return cls(1, int(n), 0, 1)

    @classmethod
    def inversion(cls):
        """Matrix whose point action sends z to -1/z."""
        return cls(0, -1, 1, 0)

    def __matmul__(self, other):
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    @property
    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


class RealQuadraticFactor(_Record):
    """Monic real quadratic X^2 + a*XZ + b*Z^2 with no real roots (a^2 < 4b).

    Coefficients are either both Fractions or both floats; exact factors feed
    the exact evaluation path of the centroid formulas.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if isinstance(a, float) or isinstance(b, float):
            _set(self, "a", float(a))
            _set(self, "b", float(b))
        else:
            _set(self, "a", Fraction(a))
            _set(self, "b", Fraction(b))
        if 4 * self.b - self.a * self.a <= 0:
            raise RealRootDetected(f"factor X^2 + {a}XZ + {b}Z^2 has real roots")

    @property
    def is_exact(self):
        return isinstance(self.a, Fraction)

    @property
    def d_squared(self):
        """Discriminant-complement 4b - a^2 (> 0)."""
        return 4 * self.b - self.a * self.a

    @property
    def x(self):
        """Real part of the upper root; exact when the factor is exact."""
        return -self.a / 2

    @property
    def y(self):
        """Imaginary part of the upper root, as a float."""
        return math.sqrt(float(self.d_squared)) / 2


class BinaryForm(_Record):
    """Degree-n binary form, coefficients c_0..c_n in descending powers of X.

    Each coefficient is an int when integral and a Fraction otherwise; forms
    built from 3, Fraction(3) or "6/2" compare and hash equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_exact(c) for c in coeffs)
        if len(coeffs) < 3:
            raise FormParseError("a binary form must have degree at least 2")
        if coeffs[0] == 0:
            raise FormParseError("leading coefficient must be nonzero")
        _set(self, "coeffs", coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[0]

    def __str__(self):
        return serialize(self)


def evaluate(F, x, z):
    """Evaluate F at exact arguments (x, z); returns a Fraction."""
    x = _exact(x, "argument")
    z = _exact(z, "argument")
    n = F.degree
    total = Fraction(0)
    for i, c in enumerate(F.coeffs):
        if c:
            total += c * x ** (n - i) * z**i
    return total


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return out


def transform(F, M):
    """Apply the variable change F^M(X, Z) = F(aX + bZ, cX + dZ); exact.

    Homogeneous Horner, out = out * (aX + bZ) + c_i (cX + dZ)^i with the power
    carried along: O(n^2) products.
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    out = [F.coeffs[0]]
    power = [1]
    for ci in F.coeffs[1:]:
        # times a linear form pX + qZ: new[k] = p * old[k] + q * old[k - 1]
        out = [a * u + b * v for u, v in zip(out + [0], [0] + out)]
        power = [c * u + d * v for u, v in zip(power + [0], [0] + power)]
        if ci:
            out = [u + ci * w for u, w in zip(out, power)]
    return BinaryForm(tuple(out))


def height(F):
    """Naive height: max |c_i| over the stored coefficients."""
    return max(abs(c) for c in F.coeffs)


def primitive_integral_coeffs(F):
    """Clear denominators and divide by the common content; keeps sign of c_0... as is."""
    lcm = 1
    for c in F.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in F.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints]


def normalized_height(F):
    """Height of the primitive integral multiple of F, as an int; used in reports."""
    return max(abs(v) for v in primitive_integral_coeffs(F))


def expand_quadratic_factors(factors, leading=1):
    """Raw coefficient list of leading * prod(X^2 + a_j XZ + b_j Z^2).

    Exact when every factor is exact; float otherwise.
    """
    if not factors:
        raise ValueError("need at least one quadratic factor")
    prod = [leading]
    for f in factors:
        prod = _poly_mul(prod, [1, f.a, f.b])
    return prod


def from_quadratic_factors(factors, leading=1):
    """BinaryForm from exact quadratic factors (degree 2r)."""
    for f in factors:
        if not f.is_exact:
            raise TypeError("from_quadratic_factors needs exact factors; "
                            "use expand_quadratic_factors for float ones")
    return BinaryForm(tuple(expand_quadratic_factors(factors, leading=_exact(leading, "leading"))))


_TERM_BODY = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?"
    r"(?:[xX](?:\^(?P<xp>\d+))?)?\*?"
    r"(?:[zZ](?:\^(?P<zp>\d+))?)?$"
)


def _parse_polynomial(text):
    s = text.replace(" ", "").replace("−", "-")
    if not s:
        raise FormParseError("empty form")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens) != s:
        raise FormParseError(f"cannot parse {text!r}")
    terms = []
    for tok in tokens:
        sign, body = tok[0], tok[1:]
        m = _TERM_BODY.match(body)
        if not m or not body:
            raise FormParseError(f"cannot parse term {tok!r}")
        has_x = "x" in body or "X" in body
        has_z = "z" in body or "Z" in body
        coef = m.group("coef")
        if coef is None and not has_x and not has_z:
            raise FormParseError(f"cannot parse term {tok!r}")
        c = Fraction(coef) if coef is not None else Fraction(1)
        if sign == "-":
            c = -c
        xp = int(m.group("xp")) if m.group("xp") else (1 if has_x else 0)
        zp = int(m.group("zp")) if m.group("zp") else (1 if has_z else 0)
        terms.append((c, xp, zp, has_z))
    any_z = any(t[3] for t in terms)
    if any_z:
        n = max(xp + zp for _, xp, zp, _ in terms)
        for _, xp, zp, _ in terms:
            if xp + zp != n:
                raise FormParseError("homogeneous input has terms of unequal degree")
    else:
        n = max(xp for _, xp, _, _ in terms)
    coeffs = [Fraction(0)] * (n + 1)
    for c, xp, zp, _ in terms:
        coeffs[n - xp] += c
    return BinaryForm(tuple(coeffs))


def parse(text):
    """Read a form from a comma-separated coefficient list or polynomial syntax.

    Coefficient lists are descending powers of X ("1,-24,306,...", rationals as
    "p/q").  Polynomial syntax accepts x-only input ("x^6-24*x^5+...") which is
    homogenized, or explicit homogeneous x/z terms ("x^2+z^2").
    """
    if not isinstance(text, str):
        raise FormParseError("parse expects a string")
    if "," in text:
        toks = [t.strip() for t in text.split(",")]
        if any(not t for t in toks):
            raise FormParseError("empty coefficient in list")
        return BinaryForm(tuple(_exact(t) for t in toks))
    return _parse_polynomial(text.strip())


def serialize(F):
    """Canonical single-variable string, descending powers of x; parse() inverts it."""
    n = F.degree
    parts = []
    for i, c in enumerate(F.coeffs):
        if not c:
            continue
        p = n - i
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            xpow = "x" if p == 1 else f"x^{p}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
