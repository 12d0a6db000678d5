"""End-to-end reduction: zero map -> fundamental-domain matrix -> reduced form.

Both zero maps are supported: "centroid" (closed-form hyperbolic center of
mass of the roots) and "julia" (distance-sum minimizer).  A reduction report
records the zero point, the matrix, the transformed form and the heights; the
report serializes deterministically (exact coefficients as strings, point
coordinates as 30-significant-digit decimals, exact rational t and u^2
whenever the centroid path stayed rational).
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from . import centroid as _centroid
from .errors import FormParseError, RealRootDetected
from .forms import _Record, _set, normalized_height, transform
from .hyperbolic import (
    PointH2,
    dist_h2,
    in_fundamental_domain,
    mobius_h2,
    reduce_point_exact,
    reduce_point_to_fundamental_domain,
)
from .roots import real_quadratic_factors, root_set

SCHEMA_VERSION = 1
METHODS = ("centroid", "julia")


def format_decimal(value, digits=30):
    """Deterministic decimal string with the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        elif isinstance(value, int):
            d = +Decimal(value)
        else:
            d = +Decimal(float(value))
    return str(d)


def format_decimal_sqrt(value, digits=30):
    """Decimal string of sqrt(value) for an exact nonnegative Fraction."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = (Decimal(value.numerator) / Decimal(value.denominator)).sqrt()
    return str(d)


class ZeroPoint(_Record):
    """A zero-map value (a PointH2) with optional exact rational coordinates
    (t, u^2), None when the point is a float one."""

    __slots__ = ("point", "t_exact", "u_sq_exact")

    def __init__(self, point, t_exact=None, u_sq_exact=None):
        _set(self, "point", point)
        _set(self, "t_exact", t_exact)
        _set(self, "u_sq_exact", u_sq_exact)

    def to_dict(self, digits=30):
        out = {
            "x": format_decimal(self.t_exact if self.t_exact is not None else self.point.x, digits),
            "y": (format_decimal_sqrt(self.u_sq_exact, digits)
                  if self.u_sq_exact is not None else format_decimal(self.point.y, digits)),
        }
        out["exact_t"] = str(self.t_exact) if self.t_exact is not None else None
        out["exact_u_sq"] = str(self.u_sq_exact) if self.u_sq_exact is not None else None
        return out


class ReductionReport(_Record):
    """One reduction: the input BinaryForm, the method, its ZeroPoint, the
    UnimodularMatrix, the reduced BinaryForm, the normalized heights before
    and after, the reduced ZeroPoint and a dict of diagnostics."""

    __slots__ = ("input", "method", "zero_point", "matrix", "reduced", "height_before",
                 "height_after", "reduced_point", "diagnostics")

    def __init__(self, input, method, zero_point, matrix, reduced, height_before,
                 height_after, reduced_point, diagnostics):
        _set(self, "input", input)
        _set(self, "method", method)
        _set(self, "zero_point", zero_point)
        _set(self, "matrix", matrix)
        _set(self, "reduced", reduced)
        _set(self, "height_before", height_before)
        _set(self, "height_after", height_after)
        _set(self, "reduced_point", reduced_point)
        _set(self, "diagnostics", diagnostics)

    def to_dict(self, digits=30):
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "input": {"degree": self.input.degree,
                      "coefficients": [str(c) for c in self.input.coeffs]},
            "zero_point": self.zero_point.to_dict(digits),
            "matrix": [[self.matrix.a, self.matrix.b], [self.matrix.c, self.matrix.d]],
            "reduced": {"degree": self.reduced.degree,
                        "coefficients": [str(c) for c in self.reduced.coeffs]},
            "reduced_point": self.reduced_point.to_dict(digits),
            "height_before": str(self.height_before),
            "height_after": str(self.height_after),
            "diagnostics": self.diagnostics,
        }

    def to_json(self, digits=30):
        return json.dumps(self.to_dict(digits), sort_keys=True, separators=(",", ":"))


class ComparisonReport(_Record):
    """The centroid and the Julia ReductionReport of one form, the distance
    between their zero points and whether their matrices and reduced forms agree."""

    __slots__ = ("centroid_report", "julia_report", "zero_gap", "same_matrix",
                 "same_reduced_form")

    def __init__(self, centroid_report, julia_report, zero_gap, same_matrix,
                 same_reduced_form):
        _set(self, "centroid_report", centroid_report)
        _set(self, "julia_report", julia_report)
        _set(self, "zero_gap", zero_gap)
        _set(self, "same_matrix", same_matrix)
        _set(self, "same_reduced_form", same_reduced_form)

    def to_dict(self, digits=30):
        return {
            "schema_version": SCHEMA_VERSION,
            "centroid": self.centroid_report.to_dict(digits),
            "julia": self.julia_report.to_dict(digits),
            "zero_gap": format_decimal(self.zero_gap, digits),
            "same_matrix": self.same_matrix,
            "same_reduced_form": self.same_reduced_form,
        }


def _check_method(method):
    if method not in METHODS:
        raise FormParseError(f"unknown method {method!r}; expected one of {METHODS}")


def julia_zero_real(pairs, **kwargs):
    """formred.julia.julia_zero_real, with formred.julia imported by the first
    call: a centroid reduction never loads it.  A module-level name, so that
    callers and perfbench's spans can wrap the Julia step of zero_point."""
    from .julia import julia_zero_real

    return julia_zero_real(pairs, **kwargs)


def zero_point(F, method="centroid", tol=1e-10, rootset=None):
    """Zero-map value of F under the requested method, with diagnostics."""
    _check_method(method)
    rs = rootset if rootset is not None else root_set(F, tol=tol)
    if method == "centroid":
        factors = real_quadratic_factors(F, tol=tol, rootset=rs)
        pt, exact = _centroid.center_and_exact(factors)
        zp = ZeroPoint(pt) if exact is None else ZeroPoint(pt, *exact)
        xs = [p.x for p in rs.pairs]
        ys = [p.y for p in rs.pairs]
        r1 = sum((pt.x - x) / y for x, y in zip(xs, ys))
        r2 = sum((pt.y * pt.y - _centroid.q_of_t(pt.x, x, y)) / y for x, y in zip(xs, ys))
        diag = {"root_residual": rs.residual, "exact": exact is not None,
                "system_residuals": [r1, r2]}
        return zp, diag
    result = julia_zero_real(rs, tol=tol)
    diag = {"root_residual": rs.residual, "exact": False,
            "gradient_norm": result.gradient_norm, "iterations": result.iterations,
            "objective": result.objective}
    return ZeroPoint(result.point), diag


def reduce_form(F, method="centroid", tol=1e-10):
    """Reduce F: move its zero-map value into the fundamental domain.

    Works for real forms of even degree without real roots; raises
    RealRootDetected otherwise.
    """
    return _reduce(F, method, tol)


def _reduce(F, method, tol, prior=None):
    """reduce_form; `prior`, an earlier report on F, lends its matrix, reduced
    form and heights when its matrix is the same, so one exact transform serves
    both and the two reports hold one copy of each."""
    _check_method(method)
    if F.degree % 2:
        raise RealRootDetected("odd-degree real forms always have a real root")
    zp, diag = zero_point(F, method=method, tol=tol)
    if zp.t_exact is not None:
        t_red, u_sq_red, M = reduce_point_exact(zp.t_exact, zp.u_sq_exact)
        red_pt = ZeroPoint(PointH2(float(t_red), math.sqrt(float(u_sq_red))), t_red, u_sq_red)
    else:
        pt, M = reduce_point_to_fundamental_domain(zp.point)
        red_pt = ZeroPoint(pt)
    if prior is not None and prior.matrix == M:
        M, reduced, height_after = prior.matrix, prior.reduced, prior.height_after
    else:
        reduced = transform(F, M)
        height_after = normalized_height(reduced)
    return ReductionReport(
        input=F,
        method=method,
        zero_point=zp,
        matrix=M,
        reduced=reduced,
        height_before=prior.height_before if prior is not None else normalized_height(F),
        height_after=height_after,
        reduced_point=red_pt,
        diagnostics=diag,
    )


def is_reduced(F, method="centroid", tol=1e-10):
    """True when the zero-map value of F already lies in the closed domain."""
    zp, _ = zero_point(F, method=method, tol=tol)
    return in_fundamental_domain(zp.point)


def compare_methods(F, tol=1e-10):
    """Run both reductions and measure how far apart the two zero maps land."""
    rc = _reduce(F, "centroid", tol)
    rj = _reduce(F, "julia", tol, prior=rc)
    gap = dist_h2(rc.zero_point.point, rj.zero_point.point)
    return ComparisonReport(
        centroid_report=rc,
        julia_report=rj,
        zero_gap=gap,
        same_matrix=rc.matrix == rj.matrix,
        same_reduced_form=rc.reduced == rj.reduced,
    )


def reduced_zero_matches(report, tol=1e-9):
    """Consistency check: the recorded matrix really moves the zero into the domain."""
    moved = mobius_h2(report.zero_point.point, report.matrix)
    return (in_fundamental_domain(moved, tol)
            and dist_h2(moved, report.reduced_point.point) <= tol)
