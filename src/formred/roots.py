"""Numeric roots of real binary forms and their conjugate pairing, solved once
per form into a RootSet (root_set) that the zero maps and the factors read.

Roots are found by the Aberth-Ehrlich simultaneous iteration started on a
deterministic circle (radius from a Fujiwara-type magnitude bound, fixed phase
offset), then polished root-by-root with float Newton steps.  The iteration
stops when a sweep moves no estimate by more than 1e-14 (relative), after 200
sweeps, or, once its float iterates repeat an earlier sweep's bit for bit, at
the sweep that leaves sweep 200's iterates: from the repeat on it only replays
a cycle.  Brent's cycle test finds the repeat from the first sweep, with no
threshold.  Estimates closer than the clustering radius are merged to their
mean and polished by exact Newton steps x -= m p/p', m the number merged,
which recovers accuracy for multiple roots.  Forms with a numerically real
root are rejected loudly: the downstream center-of-mass formulas divide by
the imaginary parts.

A cluster of estimates that fails the integrity certificates is resolved by
the ladder that complex_roots describes.

Certification and the exact Newton steps evaluate the form exactly at each
float iterate.  A float is dyadic, so with the form's denominators cleared once
(integer coefficients over one common denominator) and both parts of the
iterate scaled by a common 2^e, Horner runs on Python ints alone; each part is
rounded once at the end by int / int, which is correctly rounded, so the value
equals the float of the exact rational value bit for bit.  An exact Newton
step takes p and p' from one such pass, which carries p' along as
P' <- P' X + P on p's own scaled coefficients; the residual certificate's
pass carries p alone.  The zoom re-solve recentres
on a dyadic point and scales by a power of two with transform's exact change
of variables (forms._substitute), on ints too.
"""

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceFailure, RealRootDetected, UnpairedRoot
from .forms import (BinaryForm, RealQuadraticFactor, _integer_coeffs, _left_sum, _poly_mul,
                    _primitive, _Record, _set, _substitute, primitive_integral_coeffs)
from .hyperbolic import PointH2

REALNESS_THRESHOLD = 1e-8
# the exact-residual certificate: |F(r, 1)| / (height * (1 + |r|)^n) <= _RESIDUAL_TOL
_RESIDUAL_TOL = 1e-10
# roots r and s pair as conjugates when |r - conj(s)| <= _PAIR_TOL * (1 + |r|)
_PAIR_TOL = 1e-8
_CLUSTER_RADIUS = 1e-7
# the most Aberth sweeps of a solve
_MAX_SWEEPS = 200
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
    """A solved form: the BinaryForm, its roots in complex_roots' order, their
    conjugate pairs (pair_conjugates) and the float residual max |F(r, 1)|."""

    __slots__ = ("form", "roots", "pairs", "residual")

    def __init__(self, form, roots, pairs, residual):
        _set(self, "form", form)
        _set(self, "roots", tuple(roots))
        _set(self, "pairs", tuple(pairs))
        _set(self, "residual", residual)


def _horner(coeffs, x):
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def _float_coeffs(F):
    """F's coefficients as floats; ConvergenceFailure when one is too large for
    a float, for every solve and residual here runs in double precision."""
    try:
        return [float(c) for c in F.coeffs]
    except OverflowError:
        raise ConvergenceFailure("form coefficients leave the float range") from None


def _float_residual(F, roots):
    """max |F(r, 1)| over the roots, by float Horner: the RootSet residual."""
    coeffs = _float_coeffs(F)
    return max(abs(_horner(coeffs, r)) for r in roots)


def _root_magnitude_bound(coeffs):
    """Fujiwara-style bound: every root has modulus <= 2 max_k |c_k/c_0|^(1/k)."""
    c0 = abs(coeffs[0])
    best = 0.0
    for k, c in enumerate(coeffs[1:], start=1):
        if c:
            best = max(best, (abs(c) / c0) ** (1.0 / k))
    return 2.0 * best if best > 0 else 1.0


def _same_bits(xs, ys):
    """True when the complex lists xs and ys, already equal under ==, also agree
    in the sign of every zero part: == takes 0.0 and -0.0 for the same float."""
    return all(math.copysign(1.0, x.real) == math.copysign(1.0, y.real)
               and math.copysign(1.0, x.imag) == math.copysign(1.0, y.imag)
               for x, y in zip(xs, ys))


def _aberth(coeffs, max_iter):
    """The Aberth-Ehrlich iterates of coeffs (descending floats) after max_iter
    sweeps, or after the first sweep that moves no estimate by more than 1e-14
    (relative).  Only that yes or no is read, so a sweep stops measuring at
    the first estimate that moves further (or takes the zero-derivative
    offset); a NaN movement counts as none.

    A sweep is a deterministic function of the iterate list, so once the list
    after some sweep repeats the list after an earlier one bit for bit, every
    later sweep replays that cycle and none of them can meet the movement
    test.  Brent's cycle test finds the repeat from the first sweep, with no
    threshold: it saves the list whenever the sweep count doubles and
    compares each later list with it (R. P. Brent, BIT 20, 1980).  The walk
    then stops at the sweep of the cycle that leaves the list sweep max_iter
    would: the same bits as running the remaining sweeps.
    """
    n = len(coeffs) - 1
    deriv = _derivative(coeffs)
    radius = _root_magnitude_bound(coeffs)
    # fixed phase offset so the start is never conjugation-symmetric
    xs = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / n + 0.4)) for k in range(n)]
    # Brent's test: saved is the list of sweep saved_at, renewed at sweeps
    # 0, 1, 2, 4, 8, ... (counted from 0); stop is the last sweep to run
    saved, saved_at, stop = None, 0, max_iter - 1
    # p and p' by Horner, written out in one loop over the pairs (c, c') of
    # coeffs and deriv, then p's last coefficient: p and p' each see the
    # operations of _horner, in its order.  The repulsion sum reads xs in
    # place through others[i], the indices j != i in order: at these degrees
    # a call per evaluation, or a copy of xs per root, costs more than its
    # loop.  1.0 / (xi - xs[j]) and 1.0 - newton * s keep a float left
    # operand, as the reference sweep in the tests does: since Python 3.14 a
    # float mixes with a complex as a real number (gh-69639), so (1 + 0j) / z
    # can differ from 1.0 / z in the sign of a zero part
    pairs, last = list(zip(coeffs, deriv)), coeffs[-1]
    others = [[j for j in range(n) if j != i] for i in range(n)]
    for it in range(max_iter):
        still = True
        for i in range(n):
            xi = xs[i]
            p = dp = 0j
            for c, d in pairs:
                p = p * xi + c
                dp = dp * xi + d
            p = p * xi + last
            if dp == 0:
                xs[i] = xi + (1e-8 + 1e-8j) * (1.0 + abs(xi))
                still = False
                continue
            newton = p / dp
            s = 0j
            for j in others[i]:
                try:
                    s += 1.0 / (xi - xs[j])
                except ZeroDivisionError:
                    # coincident estimates: a tiny offset instead of the pole
                    s += 1.0 / ((1e-12 + 1e-12j) * (1.0 + abs(xi)))
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            xi = xs[i] = xi - step
            if still and abs(step) / (1.0 + abs(xi)) > 1e-14:
                still = False
        if still:
            _debug(__name__, "aberth converged in %d iterations", it + 1)
            break
        if xs == saved and _same_bits(xs, saved):
            # sweeps saved_at and it leave the same list: sweep max_iter - 1
            # leaves the list of sweep stop, a whole number of periods past it
            period = it - saved_at
            stop = it + (max_iter - 1 - it) % period
            _debug(__name__, "aberth repeats with period %d at iteration %d", period, it + 1)
        if it == stop:
            break
        if not it & (it - 1):
            saved, saved_at = xs[:], it
    return xs


def _newton_polish(coeffs, deriv, x):
    """The iterate of least |p| among x and up to 24 float Newton steps from
    it.  The steps stop at a zero p', or at an iterate within 1e-15
    (relative) of the best one whose |p| is no lower than the best's: the
    new best itself passes that test, so the first step that lowers |p| is
    the last.  Most calls take that one step, so p and p' stay separate
    Horner passes: one fused pass per iterate would also evaluate p' at the
    last iterate, where nothing reads it."""
    px = _horner(coeffs, x)
    best, best_p = x, abs(px)
    for _ in range(24):
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


def _float_solve(coeffs):
    """The Aberth estimates of coeffs (descending floats), each polished by float Newton."""
    deriv = _derivative(coeffs)
    return [_newton_polish(coeffs, deriv, x) for x in _aberth(coeffs, _MAX_SWEEPS)]


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


def _derivative(coeffs):
    """The derivative's coefficients (descending), ints or floats as given."""
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


class _IntegerPoly(namedtuple("_IntegerPoly", "ints den")):
    """A polynomial as integer coefficients (descending) over one positive denominator."""

    __slots__ = ()

    @classmethod
    def of_form(cls, F):
        return cls(*_integer_coeffs(F))


def _dyadic(x):
    """(A, B, e) with x = (A + iB) / 2^e exactly; ConvergenceFailure unless x is finite."""
    try:
        a, da = x.real.as_integer_ratio()
        b, db = x.imag.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ConvergenceFailure(f"root iterate {x} leaves the float range") from None
    ea, eb = da.bit_length() - 1, db.bit_length() - 1
    e = max(ea, eb)
    return a << (e - ea), b << (e - eb), e


def _exact_value_and_slope(poly, dyadic):
    """(p, p') at the dyadic point (A + iB) / 2^e, each part the correctly
    rounded float, from one integer Horner pass.

    With X = A + iB, homogeneous Horner P <- P X + c 2^(ek) on ints ends as
    den * 2^(en) * p exactly, and one int / int per part rounds it.  The pass
    carries P' <- P' X + P before each step of P: P' ends as
    den * 2^(e(n-1)) * p', the same integer that Horner on the derivative's
    coefficients gives.
    """
    A, B, e = dyadic
    ints = poly.ints
    pr, pi, dr, di = ints[0], 0, 0, 0
    shift = 0
    for c in ints[1:]:
        shift += e
        dr, di = dr * A - di * B + pr, dr * B + di * A + pi
        pr, pi = pr * A - pi * B + (c << shift), pr * B + pi * A
    dscale = poly.den << (shift - e)
    scale = dscale << e
    return complex(pr / scale, pi / scale), complex(dr / dscale, di / dscale)


def _exact_value(poly, dyadic):
    """p at the dyadic point (A + iB) / 2^e, each part the correctly rounded
    float: _exact_value_and_slope's pass without P', for the certificate,
    which reads no slope."""
    A, B, e = dyadic
    ints = poly.ints
    pr, pi = ints[0], 0
    shift = 0
    for c in ints[1:]:
        shift += e
        pr, pi = pr * A - pi * B + (c << shift), pr * B + pi * A
    scale = poly.den << shift
    return complex(pr / scale, pi / scale)


def _exact_newton_polish(poly, x, multiplicity):
    """Newton steps x -= m p/p' with the polynomial evaluated exactly at the float iterate.

    Float Horner on large integer coefficients loses enough accuracy to spoil
    conjugate pairing; evaluating p and p' exactly leaves only the float
    representation of the iterate itself.
    """
    for _ in range(3):
        p, dp = _exact_value_and_slope(poly, _dyadic(x))
        if dp == 0:
            break
        step = multiplicity * p / dp
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def _refine(poly, estimates):
    """Merge estimates within the clustering radius to their mean, then polish
    each cluster by exact Newton with its size as the multiplicity."""
    out = []
    for members in _groups(estimates, _CLUSTER_RADIUS):
        mult = len(members)
        value = _exact_newton_polish(poly, _left_sum(members) / mult, mult)
        out.extend([value] * mult)
    return out


def _power_sum_defect(F, roots):
    """Mismatch of the first two power sums against the exact coefficient values.

    Newton's identities give sum(r) = -c1/c0 and sum(r^2) = (c1^2 - 2 c0 c2)/c0^2;
    a wrong multiset (a doubled root hiding a missed one) shows up here even when
    every reported root has a tiny residual.
    """
    c0, c1, c2 = F.coeffs[0], F.coeffs[1], F.coeffs[2]
    s1_true = complex(float(-c1 / c0))
    s2_true = complex(float((c1 * c1 - 2 * c0 * c2) / (c0 * c0)))
    s1 = _left_sum(roots)
    s2 = _left_sum(r * r for r in roots)
    scale1 = 1.0 + _left_sum(abs(r) for r in roots)
    scale2 = 1.0 + _left_sum(abs(r) ** 2 for r in roots)
    return max(abs(s1 - s1_true) / scale1, abs(s2 - s2_true) / scale2)


def _quality(F, roots):
    """How far roots are from certifying as F's: the worse of the power-sum
    defect and the distance of the multiset from closure under conjugation."""
    upper = sorted((r for r in roots if r.imag > 0), key=lambda r: (r.real, r.imag))
    lower = sorted((r.conjugate() for r in roots if r.imag < 0),
                   key=lambda r: (r.real, r.imag))
    if len(upper) != len(lower):
        return math.inf
    conjugate = max((abs(u - v) for u, v in zip(upper, lower)), default=0.0)
    return max(conjugate, _power_sum_defect(F, roots))


def _zoom_solve(poly, cluster):
    """Re-solve after recentering on a tight root cluster.

    A Moebius substitution can contract roots into clusters whose diameter is
    far below the double-precision resolution of the original coefficients.
    Shifting exactly to a dyadic center near the cluster and rescaling by a
    dyadic power makes the cluster well conditioned; the whole root set is
    re-solved in the new coordinates and refined back in the original ones.
    """
    center = _left_sum(cluster) / len(cluster)
    diam = max(abs(r - center) for r in cluster)
    if diam == 0:
        return None
    k = round(center.real * 2**_ZOOM_BITS)
    scale_exp = math.frexp(2.0 * diam)[1]
    if scale_exp > 0:
        return None
    # F(2^24 X + k 2^m Z, 2^(24 + m) Z) on ints: den 2^((24 + m) n) p(k/2^24 + w/2^m)
    m = -scale_exp
    shifted = _substitute(poly.ints, 1 << _ZOOM_BITS, k << m, 0, 1 << (_ZOOM_BITS + m))
    top = max(abs(c) for c in shifted)
    ws = _float_solve([c / top for c in shifted])
    x0f, sf = k / 2**_ZOOM_BITS, math.ldexp(1.0, scale_exp)
    back = [x0f + sf * w for w in ws]
    _debug(__name__, "zoom re-solve at %s with scale %s", x0f, sf)
    return _refine(poly, back)


def complex_roots(F):
    """All n roots of F(X, 1), multiplicities included, deterministically ordered.

    Residual contract: |F(r, 1)| / (height * (1 + |r|)^n) <= _RESIDUAL_TOL for
    every root, with the polynomial value computed in exact arithmetic; the
    first two power sums must also match their exact coefficient values.

    A form with a coefficient too large for a float fails at once, and a solve
    fails where its float arithmetic overflows or divides by zero.  The first
    solve runs Aberth, float Newton on each estimate, the cluster merge, and
    exact Newton on each merged value with the cluster's size as its
    multiplicity.  Then two cases.  With no cluster (a conjugate and power-sum
    defect of 1e-12 or below, or no estimates grouped within the zoom radius)
    its roots are returned as soon as they certify.  Otherwise, or when they
    fail, F is tested once for a repeated factor (Yun's exact decomposition on
    ints).  A form with one is split into its square-free parts P_i of
    multiplicity i, each solved and paired on its own, its roots repeated i
    times and certified on F.  A square-free form, or one whose split failed,
    is zoomed into at each cluster of the first solve until the defect is
    1e-12 or below, keeping each zoom that lowers it.  Those roots are
    returned when they certify (and, after a failed split, pair); otherwise
    the split's error is raised, or the certificate's when nothing was split.
    A linear part is a real root.
    """
    try:
        return _solve(F)
    except ArithmeticError:
        raise ConvergenceFailure("root solve leaves the float range") from None


def _solve(F):
    """complex_roots' ladder; square-free parts are solved here directly, so
    that only whole forms pass through complex_roots."""
    coeffs = _float_coeffs(F)
    poly = _IntegerPoly.of_form(F)
    xs = _refine(poly, _float_solve(coeffs))
    # clusters of nearby roots are exactly where double precision runs out
    quality = _quality(F, xs)
    clusters = [] if quality <= 1e-12 else [
        group for group in _groups(xs, _ZOOM_GROUP_RADIUS) if len(group) > 1]
    if not clusters:
        try:
            return _certified(F, poly, xs)
        except ConvergenceFailure:
            pass
    # a repeated factor is split off exactly; a square-free form, or a failed
    # split, zooms into each cluster and keeps the result when the integrity
    # certificates improve
    parts, split_error = square_free_parts(F), None
    if not _square_free(parts):
        _debug(__name__, "square-free split of %s into multiplicities %s", F, [i for _, i in parts])
        try:
            return _split(F, poly, parts)
        except (ConvergenceFailure, UnpairedRoot) as exc:
            _debug(__name__, "failed split of %s: %s", F, exc)
            split_error = exc
    for group in clusters:
        if quality <= 1e-12:
            break
        zoomed = _zoom_solve(poly, group)
        if zoomed is None:
            continue
        new_quality = _quality(F, zoomed)
        if new_quality < quality:
            xs, quality = zoomed, new_quality
    try:
        xs = _certified(F, poly, xs)
        if split_error is not None:
            pair_conjugates(xs)
        return xs
    except (ConvergenceFailure, UnpairedRoot):
        if split_error is None:
            raise
        raise split_error from None


def _certified(F, poly, roots):
    """roots, sorted, once they pass F's certificates (_certify)."""
    _certify(F, poly, roots)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def _certify(F, poly, roots):
    """Raise ConvergenceFailure unless the roots pass the power-sum and the
    exact-residual certificates of F (poly: F as an _IntegerPoly).  The
    residual of a root r is |p(r)| / (height * (1 + |r|)^n), with the
    numerator evaluated exactly by _exact_value: one integer Horner pass for
    p alone."""
    defect = _power_sum_defect(F, roots)
    if defect > 1e-8:
        raise ConvergenceFailure(f"root multiset fails the power-sum certificate ({defect:.3e})")
    h, n = max(abs(c) for c in poly.ints) / poly.den, len(poly.ints) - 1
    for r in roots:
        rel = abs(_exact_value(poly, _dyadic(r))) / (h * (1.0 + abs(r)) ** n)
        if not rel <= _RESIDUAL_TOL:
            raise ConvergenceFailure(
                f"root residual {rel:.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}")


def pair_conjugates(roots):
    """Match roots into conjugate pairs; representatives get positive imaginary part.

    Raises RealRootDetected when some root is within the realness threshold of
    the real axis, and UnpairedRoot when matching fails.  The result, a sorted
    tuple of PointH2s, does not depend on the input order.
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
        if gap > _PAIR_TOL * (1.0 + abs(r)):
            raise UnpairedRoot(f"no conjugate partner for {r} (closest at distance {gap:.3e})")
        pool.remove(match)
        rep = (r + match.conjugate()) / 2
        pairs.append(PointH2(rep.real, rep.imag))
    return tuple(sorted(pairs, key=lambda p: (p.x, p.y)))


def _pseudo_remainder(u, v):
    """A non-zero rational multiple of the remainder of u by v (integer
    polynomials, deg u >= deg v), leading zeros dropped.  A step multiplies
    u by v's leading coefficient only when that coefficient does not divide
    the term to eliminate."""
    u = list(u)
    lc, m = v[0], len(v)
    for k in range(len(u) - m + 1):
        f = u[k]
        if not f:
            continue
        q, r = divmod(f, lc)
        if r:
            for j in range(k + 1, len(u)):
                u[j] *= lc
            q = f
        for j in range(1, m):
            u[k + j] -= q * v[j]
    r = u[len(u) - m + 1:]
    while r and not r[0]:
        r.pop(0)
    return r


def _primitive_gcd(u, v):
    """A primitive gcd, unique up to sign, of the integer polynomials u
    (primitive) and v (deg v < deg u; [] is zero): the primitive remainder
    sequence, each pseudo-remainder over its content (G. E. Collins, J. ACM
    14, 1967)."""
    while v:
        v = _primitive(v)
        u, v = v, _pseudo_remainder(u, v)
    return u


def _exact_quotient(u, v):
    """u / v for integer polynomials where v divides u over the integers ([]
    is zero).  By Gauss's lemma that holds whenever v is primitive and divides
    u over the rationals."""
    u = list(u)
    lc, m = v[0], len(v)
    q = []
    for k in range(len(u) - m + 1):
        c = u[k] // lc
        q.append(c)
        if c:
            for j in range(1, m):
                u[k + j] -= c * v[j]
    return q


def _poly_sub(u, v):
    """u - v for descending lists of possibly different lengths, leading zeros dropped."""
    n = max(len(u), len(v))
    out = [a - b for a, b in zip([0] * (n - len(u)) + u, [0] * (n - len(v)) + v)]
    while out and not out[0]:
        out.pop(0)
    return out


def square_free_parts(F):
    """Yun's exact square-free decomposition of F(X, 1) over the rationals.

    Returns [(P, i), ...] with F(X, 1) = c_0 * prod P^i, each P a monic
    square-free polynomial of positive degree (descending Fraction
    coefficients) and the P pairwise coprime; a square-free F gives
    [(F / c_0, 1)].  D. Y. Y. Yun, SYMSAC '76.  Yun's loop runs on the
    primitive integer multiple f of F: gcds by primitive remainder sequences
    (G. E. Collins, J. ACM 14, 1967) and exact integer quotients, for every
    divisor is primitive; only the parts are made monic over the rationals.
    """
    f = primitive_integral_coeffs(F)
    df = _derivative(f)
    g = _primitive_gcd(f, df)
    b, c = _exact_quotient(f, g), _exact_quotient(df, g)
    d = _poly_sub(c, _derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = _primitive_gcd(b, d)
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        d = _poly_sub(c, _derivative(b))
        if len(a) > 1:
            parts.append(([Fraction(x, a[0]) for x in a], i))
        i += 1
    return parts


def _square_free(parts):
    """True when square_free_parts found no repeated factor."""
    return len(parts) == 1 and parts[0][1] == 1


def _split(F, poly, parts):
    """The roots of F (poly: F as an _IntegerPoly) from its square-free parts
    [(P, i), ...]: each part solved and paired alone, its roots repeated i
    times, then the certificates checked on F itself."""
    roots = []
    for P, i in parts:
        if len(P) == 2:
            raise RealRootDetected(f"rational root {-P[1]} of multiplicity {i}")
        part_roots = _solve(BinaryForm(tuple(P)))
        # a part whose roots do not pair fails the split; root_set pairs
        # the whole form again, since complex_roots returns roots only
        pair_conjugates(part_roots)
        roots += part_roots * i
    return _certified(F, poly, roots)


def root_set(F):
    """F solved once, as a RootSet (see complex_roots for how a root cluster is
    resolved; pair_conjugates raises on a real root).  An odd-degree form fails
    before any solve: a real form of odd degree always has a real root; so does
    a form whose last coefficient is zero, which X divides."""
    if F.degree % 2:
        raise RealRootDetected("odd-degree real forms always have a real root")
    if F.coeffs[-1] == 0:
        raise RealRootDetected("rational root 0: the last coefficient is zero")
    roots = complex_roots(F)
    return RootSet(F, roots, pair_conjugates(roots), _float_residual(F, roots))


def _nearest_rational(n, d):
    """Fraction(n, d).limit_denominator(10**6) for n/d in lowest terms (d > 0),
    on ints alone: the continued-fraction convergents of n/d up to denominator
    10^6, then the nearer to n/d of the last convergent p1/q1 and the
    semiconvergent past it, p1/q1 on a tie (as Fraction does on every
    release).  The two lie on either side of n/d, 1 / (q1 q) apart (q the
    semiconvergent's denominator), and p1/q1 is r / (q1 d) from n/d, r the
    last remainder; so p1/q1 is nearer or tied when 2 r q <= d."""
    if d <= 10**6:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, r = n, d
    while True:
        a = num // r
        q2 = q0 + a * q1
        if q2 > 10**6:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, r = r, num - a * r
    k = (10**6 - q0) // q1
    q = q0 + k * q1
    if 2 * r * q <= d:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q)


def _rationalize(F, factors):
    """Round float factors to the nearest rationals of denominator at most
    10^6; keep them only if the product reproduces F exactly.

    With F = ints / den and D_j the lcm of the denominators of a_j and b_j, the
    test is the integer identity
    ints[0] * prod(D_j X^2 + a_j D_j XZ + b_j D_j Z^2) == ints * prod(D_j).
    """
    candidates = []
    for f in factors:
        try:
            candidates.append(RealQuadraticFactor(
                _nearest_rational(*f.a.as_integer_ratio()),
                _nearest_rational(*f.b.as_integer_ratio()),
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


def real_quadratic_factors(rs):
    """Factor F/a0 over the reals into monic quadratics X^2 + a_j XZ + b_j Z^2.

    Each conjugate pair x + iy of the RootSet rs contributes (a_j, b_j) =
    (-2x, x^2 + y^2).  When rounding these to small rationals reproduces
    F = rs.form exactly, the exact factors are returned (enabling the exact
    centroid path downstream).
    """
    floats = [RealQuadraticFactor(-2.0 * p.x, p.x * p.x + p.y * p.y) for p in rs.pairs]
    exact = _rationalize(rs.form, floats)
    if exact is not None:
        _debug(__name__, "recovered exact quadratic factors for %s", rs.form)
        return exact
    return floats
