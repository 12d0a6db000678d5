"""Numeric roots of real binary forms and their conjugate pairing.

Roots are found by the Aberth-Ehrlich simultaneous iteration started on a
deterministic circle (radius from a Fujiwara-type magnitude bound, fixed phase
offset), then polished root-by-root with Newton steps.  Estimates closer than
the clustering radius are merged to their mean, which recovers accuracy for
multiple roots.  Forms with a numerically real root are rejected loudly: the
downstream center-of-mass formulas divide by the imaginary parts.

A cluster of estimates that fails the integrity certificates is resolved in
this order.  A form with a repeated factor (a modular square-free test, then
Yun's exact square-free decomposition) is split into its square-free parts,
each part is solved alone, and the certificates are checked on the whole form.
A square-free form is zoomed into: re-solved in exact coordinates recentred on
the cluster.  Should the split fail, the zoom is the last resort for a form
with a repeated factor too.  A form with a repeated factor whose roots fail to
certify or to pair without a cluster is split the same way.

Certification and the final Newton steps evaluate the form exactly at each
float iterate.  A float is dyadic, so with the form's denominators cleared once
(integer coefficients over one common denominator) and both parts of the
iterate scaled by a common 2^e, Horner runs on Python ints alone; each part is
rounded once at the end by int / int, which is correctly rounded, so the value
equals the float of the exact rational value bit for bit.  The zoom re-solve
shifts to a dyadic centre and scales by a power of two, so its Taylor shift
runs on ints too.
"""

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceFailure, RealRootDetected, UnpairedRoot
from .forms import BinaryForm, RealQuadraticFactor, _integer_coeffs, _poly_mul, _Record, _set
from .hyperbolic import PointH2

REALNESS_THRESHOLD = 1e-8
_CLUSTER_RADIUS = 1e-7
# estimates this close (relative) are zoomed into as one cluster
_ZOOM_GROUP_RADIUS = 0.02
# the zoom centre is a multiple of 2^-_ZOOM_BITS
_ZOOM_BITS = 24


def _debug(logger, msg, *args):
    """logging.getLogger(logger).debug(msg, *args), skipped while logging is not
    imported: until then nothing can have given the logger a level or a handler,
    and the record would be dropped."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(msg, *args)


class RootSet(_Record):
    """Upper half-plane representatives of the conjugate root pairs of a real form."""

    __slots__ = ("pairs", "residual")

    def __init__(self, pairs, residual=0.0):
        _set(self, "pairs", tuple(pairs))
        _set(self, "residual", residual)

    def __len__(self):
        return len(self.pairs)


def _horner(coeffs, x):
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def _float_residual(F, roots):
    """max |F(r, 1)| over the roots, by float Horner: the RootSet residual."""
    coeffs = [float(c) for c in F.coeffs]
    return max(abs(_horner(coeffs, r)) for r in roots)


def _root_magnitude_bound(coeffs):
    """Fujiwara-style bound: every root has modulus <= 2 max_k |c_k/c_0|^(1/k)."""
    c0 = abs(coeffs[0])
    best = 0.0
    for k, c in enumerate(coeffs[1:], start=1):
        if c:
            best = max(best, (abs(c) / c0) ** (1.0 / k))
    return 2.0 * best if best > 0 else 1.0


def _aberth(coeffs, max_iter):
    n = len(coeffs) - 1
    deriv = [coeffs[i] * (n - i) for i in range(n)]
    radius = _root_magnitude_bound(coeffs)
    # fixed phase offset so the start is never conjugation-symmetric
    xs = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / n + 0.4)) for k in range(n)]
    # Horner for p and p' is written out (the operations of _horner, in its
    # order): at these degrees a call per evaluation costs more than its loop
    for it in range(max_iter):
        moved = 0.0
        for i in range(n):
            xi = xs[i]
            p = 0j
            for c in coeffs:
                p = p * xi + c
            dp = 0j
            for c in deriv:
                dp = dp * xi + c
            if dp == 0:
                xs[i] = xi + (1e-8 + 1e-8j) * (1.0 + abs(xi))
                moved = math.inf
                continue
            newton = p / dp
            s = 0j
            for xj in xs[:i] + xs[i + 1:]:
                try:
                    s += 1.0 / (xi - xj)
                except ZeroDivisionError:
                    # coincident estimates: a tiny offset instead of the pole
                    s += 1.0 / ((1e-12 + 1e-12j) * (1.0 + abs(xi)))
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            xi = xs[i] = xi - step
            rel = abs(step) / (1.0 + abs(xi))
            if rel > moved:
                moved = rel
        if moved <= 1e-14:
            _debug(__name__, "aberth converged in %d iterations", it + 1)
            break
    return xs


def _newton_polish(coeffs, deriv, x, rounds=24):
    px = _horner(coeffs, x)
    best, best_p = x, abs(px)
    for _ in range(rounds):
        dp = _horner(deriv, x)
        if dp == 0:
            break
        x = x - px / dp
        px = _horner(coeffs, x)
        p = abs(px)
        if p < best_p:
            best, best_p = x, p
        if abs(best - x) <= 1e-15 * (1.0 + abs(x)) and p >= best_p:
            break
    return best


def _groups(roots, radius):
    """Group estimates transitively lying within `radius` (relative) of each other."""
    remaining = list(roots)
    groups = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        changed = True
        while changed:
            changed = False
            for r in remaining[:]:
                if any(abs(r - m) <= radius * (1.0 + abs(m)) for m in members):
                    members.append(r)
                    remaining.remove(r)
                    changed = True
        groups.append(members)
    return groups


def _multiple_root_polish(coeffs, deriv, x, multiplicity, rounds=12):
    """Modified Newton x -= m p/p'; quadratic at a root of the given multiplicity.

    Iterates are kept only while |p| improves, so a mistaken multiplicity cannot
    push a good estimate away.
    """
    px = _horner(coeffs, x)
    best, best_p = x, abs(px)
    for _ in range(rounds):
        dp = _horner(deriv, x)
        if dp == 0:
            break
        x = x - multiplicity * px / dp
        px = _horner(coeffs, x)
        p = abs(px)
        if p >= best_p:
            break
        best, best_p = x, p
    return best


class _IntegerPoly(namedtuple("_IntegerPoly", "ints den")):
    """A polynomial as integer coefficients (descending) over one positive denominator."""

    __slots__ = ()

    @classmethod
    def of_form(cls, F):
        return cls(*_integer_coeffs(F))

    def derivative(self):
        n = len(self.ints) - 1
        return _IntegerPoly([c * (n - i) for i, c in enumerate(self.ints[:-1])], self.den)


def _dyadic(x):
    """(A, B, e) with x = (A + iB) / 2^e exactly, for a complex x with finite parts."""
    a, da = x.real.as_integer_ratio()
    b, db = x.imag.as_integer_ratio()
    ea, eb = da.bit_length() - 1, db.bit_length() - 1
    e = max(ea, eb)
    return a << (e - ea), b << (e - eb), e


def _exact_value(poly, dyadic):
    """p at the dyadic point (A + iB) / 2^e, each part the correctly rounded float.

    Homogeneous Horner on ints gives den * 2^(en) * p exactly; one int / int
    per part rounds it.
    """
    A, B, e = dyadic
    pr = pi = 0
    shift = 0
    for c in poly.ints:
        pr, pi = pr * A - pi * B + (c << shift), pr * B + pi * A
        shift += e
    scale = poly.den << (e * (len(poly.ints) - 1))
    return complex(pr / scale, pi / scale)


def _exact_newton_polish(poly, dpoly, x, multiplicity=1, rounds=3):
    """Newton steps with the polynomial evaluated exactly at the float iterate.

    Float Horner on large integer coefficients loses enough accuracy to spoil
    conjugate pairing; evaluating p and p' exactly leaves only the float
    representation of the iterate itself.
    """
    for _ in range(rounds):
        at = _dyadic(x)
        dp = _exact_value(dpoly, at)
        if dp == 0:
            break
        step = multiplicity * _exact_value(poly, at) / dp
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def _refine(poly, dpoly, coeffs, deriv, estimates):
    """Merge estimates within the clustering radius to their mean, then polish
    each cluster to full accuracy."""
    out = []
    for members in _groups(estimates, _CLUSTER_RADIUS):
        value, mult = sum(members) / len(members), len(members)
        if mult > 1:
            value = _multiple_root_polish(coeffs, deriv, value, mult)
        value = _exact_newton_polish(poly, dpoly, value, multiplicity=mult)
        out.extend([value] * mult)
    return out


def _exact_residual(poly, r):
    """|p(r)| / (height * (1 + |r|)^n), with the numerator evaluated exactly."""
    h = max(abs(c) for c in poly.ints) / poly.den
    return abs(_exact_value(poly, _dyadic(r))) / (h * (1.0 + abs(r)) ** (len(poly.ints) - 1))


def _conjugate_defect(roots):
    """How far the multiset is from being closed under conjugation."""
    upper = sorted((r for r in roots if r.imag > 0), key=lambda r: (r.real, r.imag))
    lower = sorted((r.conjugate() for r in roots if r.imag < 0),
                   key=lambda r: (r.real, r.imag))
    if len(upper) != len(lower):
        return math.inf
    if not upper:
        return 0.0
    return max(abs(u - v) for u, v in zip(upper, lower))


def _power_sum_defect(F, roots):
    """Mismatch of the first two power sums against the exact coefficient values.

    Newton's identities give sum(r) = -c1/c0 and sum(r^2) = (c1^2 - 2 c0 c2)/c0^2;
    a wrong multiset (a doubled root hiding a missed one) shows up here even when
    every reported root has a tiny residual.
    """
    c0, c1, c2 = F.coeffs[0], F.coeffs[1], F.coeffs[2]
    s1_true = complex(float(-c1 / c0))
    s2_true = complex(float((c1 * c1 - 2 * c0 * c2) / (c0 * c0)))
    s1 = sum(roots)
    s2 = sum(r * r for r in roots)
    scale1 = 1.0 + sum(abs(r) for r in roots)
    scale2 = 1.0 + sum(abs(r) ** 2 for r in roots)
    return max(abs(s1 - s1_true) / scale1, abs(s2 - s2_true) / scale2)


def _taylor_shift_scaled(poly, k, m):
    """Exact coefficients (descending) of p(k/2^24 + w/2^m) as a polynomial in w.

    Returned as an _IntegerPoly.  With L = 2^24, L^n p((k + u)/L) is the integer
    polynomial sum_j c_j L^j (k + u)^(n-j); its Taylor shift by k runs on ints,
    and u = 2^(24-m) w only scales the coefficients by powers of two.
    """
    n = len(poly.ints) - 1
    work = [c << (_ZOOM_BITS * j) for j, c in enumerate(poly.ints)]
    taylor = []
    for _ in range(n + 1):
        acc = 0
        quotient = []
        for c in work:
            acc = acc * k + c
            quotient.append(acc)
        taylor.append(quotient.pop())
        work = quotient
    shift = _ZOOM_BITS - m
    den = poly.den << (_ZOOM_BITS * n)
    if shift >= 0:
        ints = [t << (shift * j) for j, t in enumerate(taylor)]
    else:
        ints = [t << (-shift * (n - j)) for j, t in enumerate(taylor)]
        den <<= -shift * n
    return _IntegerPoly(ints[::-1], den)


def _zoom_solve(poly, dpoly, coeffs, deriv, cluster, max_iter):
    """Re-solve after recentering on a tight root cluster.

    A Moebius substitution can contract roots into clusters whose diameter is
    far below the double-precision resolution of the original coefficients.
    Shifting exactly to a dyadic center near the cluster and rescaling by a
    dyadic power makes the cluster well conditioned; the whole root set is
    re-solved in the new coordinates and refined back in the original ones.
    """
    center = sum(cluster) / len(cluster)
    diam = max(abs(r - center) for r in cluster)
    if diam == 0:
        return None
    n = len(poly.ints) - 1
    k = round(center.real * 2**_ZOOM_BITS)
    scale_exp = math.frexp(2.0 * diam)[1]
    if scale_exp > 0:
        return None
    shifted = _taylor_shift_scaled(poly, k, -scale_exp).ints
    top = max(abs(c) for c in shifted)
    if top == 0:
        return None
    local = [c / top for c in shifted]
    local_deriv = [local[i] * (n - i) for i in range(n)]
    ws = _aberth(local, max_iter)
    ws = [_newton_polish(local, local_deriv, w) for w in ws]
    x0f, sf = k / 2**_ZOOM_BITS, math.ldexp(1.0, scale_exp)
    back = [x0f + sf * w for w in ws]
    _debug(__name__, "zoom re-solve at %s with scale %s", x0f, sf)
    return _refine(poly, dpoly, coeffs, deriv, back)


class _RepeatedFactor(ConvergenceFailure):
    """A root cluster that needs resolving, on a form with a repeated factor.

    Carries the form's square-free parts, [(P, i), ...] as square_free_parts
    gives them, so that certified_roots can solve them without a second split.
    """

    def __init__(self, parts):
        super().__init__("root cluster at a repeated factor; multiplicities "
                         f"{[i for _, i in parts]}")
        self.parts = parts


def complex_roots(F, tol=1e-10, max_iter=200):
    """All n roots of F(X, 1), multiplicities included, deterministically ordered.

    Residual contract: |F(r, 1)| / (height * (1 + |r|)^n) <= tol for every root,
    with the polynomial value computed in exact arithmetic; the first two power
    sums must also match their exact coefficient values.

    When the first solve leaves a cluster of estimates that fails the integrity
    certificates, a form with a repeated factor raises a ConvergenceFailure
    instead of zooming: its exact square-free split resolves the cluster, and
    certified_roots catches the error and solves the parts.  Clusters of
    distinct roots are zoomed into.
    """
    return _roots(F, tol, max_iter, split=True)


def _roots(F, tol=1e-10, max_iter=200, split=False):
    """complex_roots, with the repeated-factor check only when split is true.

    certified_roots solves square-free parts and its zoom fallback here, not
    through the complex_roots name, so complex_roots runs once per form.
    """
    n = F.degree
    poly = _IntegerPoly.of_form(F)
    dpoly = poly.derivative()
    coeffs = [float(c) for c in F.coeffs]
    deriv = [coeffs[i] * (n - i) for i in range(n)]
    xs = _aberth(coeffs, max_iter)
    xs = [_newton_polish(coeffs, deriv, x) for x in xs]
    xs = _refine(poly, dpoly, coeffs, deriv, xs)
    # clusters of nearby roots are exactly where double precision runs out;
    # a repeated factor is split off exactly, otherwise zoom into each cluster
    # and keep the result when the integrity certificates improve
    quality = max(_conjugate_defect(xs), _power_sum_defect(F, xs))
    for group in _groups(xs, _ZOOM_GROUP_RADIUS):
        if len(group) < 2 or quality <= 1e-12:
            continue
        if split:
            parts = square_free_parts(F)
            if len(parts) > 1 or parts[0][1] > 1:
                raise _RepeatedFactor(parts)
            split = False
        zoomed = _zoom_solve(poly, dpoly, coeffs, deriv, group, max_iter)
        if zoomed is None:
            continue
        new_quality = max(_conjugate_defect(zoomed), _power_sum_defect(F, zoomed))
        if new_quality < quality:
            xs, quality = zoomed, new_quality
    _certify(F, poly, xs, tol)
    xs.sort(key=lambda r: (r.real, r.imag))
    return xs


def _certify(F, poly, roots, tol):
    """Raise ConvergenceFailure unless the roots pass the power-sum and the
    exact-residual certificates of F (poly: F as an _IntegerPoly)."""
    defect = _power_sum_defect(F, roots)
    if defect > 1e-8:
        raise ConvergenceFailure(f"root multiset fails the power-sum certificate ({defect:.3e})")
    for r in roots:
        rel = _exact_residual(poly, r)
        if not rel <= tol:
            raise ConvergenceFailure(f"root residual {rel:.3e} exceeds tolerance {tol:.1e}")


def pair_conjugates(roots, tol=1e-8, form=None):
    """Match roots into conjugate pairs; representatives get positive imaginary part.

    Raises RealRootDetected when some root is within the realness threshold of
    the real axis, and UnpairedRoot when matching fails.  The result does not
    depend on the input order.
    """
    roots = list(roots)
    for r in roots:
        if abs(r.imag) <= REALNESS_THRESHOLD * (1.0 + abs(r)):
            raise RealRootDetected(f"root {r} is (numerically) real")
    upper = sorted((r for r in roots if r.imag > 0), key=lambda r: (r.real, r.imag))
    lower = sorted((r for r in roots if r.imag < 0), key=lambda r: (r.real, -r.imag))
    if len(upper) != len(lower):
        raise UnpairedRoot(f"{len(upper)} upper vs {len(lower)} lower roots")
    pairs = []
    pool = list(lower)
    for r in upper:
        match = min(pool, key=lambda m: abs(r - m.conjugate()))
        gap = abs(r - match.conjugate())
        if gap > tol * (1.0 + abs(r)):
            raise UnpairedRoot(f"no conjugate partner for {r} (closest at distance {gap:.3e})")
        pool.remove(match)
        rep = (r + match.conjugate()) / 2
        pairs.append(PointH2(rep.real, rep.imag))
    pairs.sort(key=lambda p: (p.x, p.y))
    return RootSet(tuple(pairs), 0.0 if form is None else _float_residual(form, roots))


def _poly_derivative(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _poly_divmod(u, v):
    """Quotient and remainder of u by v (descending Fraction lists; [] is zero)."""
    u = list(u)
    q = []
    for k in range(len(u) - len(v) + 1):
        f = u[k] / v[0]
        q.append(f)
        if f:
            for j in range(1, len(v)):
                u[k + j] -= f * v[j]
    r = u[len(q):]
    while r and not r[0]:
        r.pop(0)
    return q, r


def _monic_gcd(u, v):
    while v:
        u, v = v, _poly_divmod(u, v)[1]
    return [c / u[0] for c in u]


def _poly_sub(u, v):
    """u - v for descending lists of possibly different lengths, leading zeros dropped."""
    n = max(len(u), len(v))
    out = [a - b for a, b in zip([0] * (n - len(u)) + u, [0] * (n - len(v)) + v)]
    while out and not out[0]:
        out.pop(0)
    return out


# the modular square-free test's prime; one that divides the leading
# coefficient leaves the test inconclusive
_PRIME = 2**61 - 1


def _square_free_mod_prime(ints):
    """True when gcd(f, f') = 1 modulo _PRIME, which proves the integer
    polynomial f square-free over the rationals: the prime does not divide the
    leading coefficient, so a square factor of f would survive the reduction.
    False is inconclusive."""
    p = _PRIME
    n = len(ints) - 1
    if ints[0] % p == 0:
        return False
    u = [c % p for c in ints]
    v = [c * (n - i) % p for i, c in enumerate(ints[:-1])]
    while v and v[0] == 0:
        v.pop(0)
    while v:
        inv = pow(v[0], -1, p)
        for k in range(len(u) - len(v) + 1):
            f = u[k] * inv % p
            if f:
                for j in range(1, len(v)):
                    u[k + j] = (u[k + j] - f * v[j]) % p
        r = u[len(u) - len(v) + 1:]
        while r and r[0] == 0:
            r.pop(0)
        u, v = v, r
    return len(u) == 1


def square_free_parts(F):
    """Yun's exact square-free decomposition of F(X, 1) over the rationals.

    Returns [(P, i), ...] with F(X, 1) = c_0 * prod P^i, each P a monic
    square-free polynomial of positive degree (descending Fraction
    coefficients) and the P pairwise coprime; a square-free F gives
    [(F / c_0, 1)].  D. Y. Y. Yun, SYMSAC '76.  A form shown square-free
    modulo a prime skips the gcds over the rationals.
    """
    f = [Fraction(c, F.coeffs[0]) for c in F.coeffs]
    if _square_free_mod_prime(_IntegerPoly.of_form(F).ints):
        return [(f, 1)]
    df = _poly_derivative(f)
    g = _monic_gcd(f, df)
    b, c = _poly_divmod(f, g)[0], _poly_divmod(df, g)[0]
    d = _poly_sub(c, _poly_derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = _monic_gcd(b, d)
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        d = _poly_sub(c, _poly_derivative(b))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def _solve(F, tol):
    roots = _roots(F, tol=tol)
    return roots, pair_conjugates(roots, form=F)


def _split(F, parts, tol):
    """certified_roots from the square-free parts [(P, i), ...] of F: each part
    solved alone, its roots and pairs repeated i times, then the certificates
    checked on F itself."""
    roots, pairs = [], []
    for P, i in parts:
        if len(P) == 2:
            raise RealRootDetected(f"rational root {-P[1]} of multiplicity {i}")
        part_roots, part_pairs = _solve(BinaryForm(tuple(P)), tol)
        roots += part_roots * i
        pairs += part_pairs.pairs * i
    _certify(F, _IntegerPoly.of_form(F), roots, tol)
    roots.sort(key=lambda r: (r.real, r.imag))
    pairs.sort(key=lambda p: (p.x, p.y))
    return roots, RootSet(pairs, _float_residual(F, roots))


def certified_roots(F, tol=1e-10):
    """(roots, RootSet) of F: its n roots, sorted as complex_roots sorts them,
    and their conjugate pairs in the upper half-plane.

    F is solved by complex_roots.  When that meets a root cluster on a form with
    a repeated factor, F is split exactly into square-free parts P_i of
    multiplicity i; each part is solved on its own, its roots and pairs
    repeated i times, and the power-sum and exact-residual certificates are
    checked on F itself.  Should the split fail, F is solved directly with the
    cluster zoomed into, as for a square-free form; should that fail too, the
    split's error is raised.  When the direct solve fails to certify or to pair
    and F has a repeated factor, F is split the same way.  A square-free F
    re-raises the direct solve's error; a linear part is a real root.
    """
    try:
        roots = complex_roots(F, tol=tol)
        return roots, pair_conjugates(roots, form=F)
    except _RepeatedFactor as cluster:
        _debug(__name__, "split at a repeated-factor cluster of %s into multiplicities %s",
               F, [i for _, i in cluster.parts])
        try:
            return _split(F, cluster.parts, tol)
        except (ConvergenceFailure, UnpairedRoot) as exc:
            _debug(__name__, "zoom fallback after a failed split of %s: %s", F, exc)
            split_error = exc
        try:
            return _solve(F, tol)
        except (ConvergenceFailure, UnpairedRoot):
            raise split_error from None
    except (ConvergenceFailure, UnpairedRoot):
        parts = square_free_parts(F)
        if len(parts) == 1 and parts[0][1] == 1:
            raise
    _debug(__name__, "square-free split of %s into multiplicities %s", F, [i for _, i in parts])
    return _split(F, parts, tol)


def root_set(F, tol=1e-10):
    """Roots of F paired into the upper half-plane (raises on real roots);
    see certified_roots for the square-free split of forms with repeated factors."""
    return certified_roots(F, tol=tol)[1]


def _rationalize(F, factors, max_denominator=10**6):
    """Round float factors to nearby rationals; keep them only if the product
    reproduces F exactly.

    With F = ints / den and D_j the lcm of the denominators of a_j and b_j, the
    test is the integer identity
    ints[0] * prod(D_j X^2 + a_j D_j XZ + b_j D_j Z^2) == ints * prod(D_j).
    """
    candidates = []
    for f in factors:
        try:
            candidates.append(RealQuadraticFactor(
                Fraction(f.a).limit_denominator(max_denominator),
                Fraction(f.b).limit_denominator(max_denominator),
            ))
        except (RealRootDetected, ValueError):
            return None
    ints = _IntegerPoly.of_form(F).ints
    product, scale = [ints[0]], 1
    for f in candidates:
        a, b = f.a, f.b
        D = math.lcm(a.denominator, b.denominator)
        product = _poly_mul(product, [D, a.numerator * (D // a.denominator),
                                      b.numerator * (D // b.denominator)])
        scale *= D
    if product == [c * scale for c in ints]:
        return candidates
    return None


def real_quadratic_factors(F, tol=1e-10, rootset=None):
    """Factor F/a0 over the reals into monic quadratics X^2 + a_j XZ + b_j Z^2.

    Each conjugate pair x + iy contributes (a_j, b_j) = (-2x, x^2 + y^2).  When
    rounding the numeric factors to small rationals reproduces F exactly, the
    exact factors are returned (enabling the exact centroid path downstream).
    """
    rs = rootset if rootset is not None else root_set(F, tol=tol)
    floats = [RealQuadraticFactor(-2.0 * p.x, p.x * p.x + p.y * p.y) for p in rs.pairs]
    exact = _rationalize(F, floats)
    if exact is not None:
        _debug(__name__, "recovered exact quadratic factors for %s", F)
        return exact
    return floats
