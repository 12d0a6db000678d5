"""Command-line interface: single-form and batch reduction, zero-map inspection.

Exit codes: 0 success, 1 usage or input error, 2 real root detected,
3 optimizer/root-finder failure (no convergence, or roots that do not pair
into conjugates).  Set FORMRED_LOG=DEBUG (or INFO, ...) for diagnostics on
stderr.
"""

import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (
    ConvergenceFailure,
    FormParseError,
    FormReductionError,
    RealRootDetected,
    UnpairedRoot,
)
from .forms import parse, serialize
from .hyperbolic import dist_h2, in_fundamental_domain, reduce_point_to_fundamental_domain
from .reduce import (
    METHODS,
    SCHEMA_VERSION,
    compare_methods,
    format_decimal,
    reduce_form,
    zero_point,
)
from .roots import certified_roots, root_set


# (error class, batch status, exit code), most specific first; any other
# FormReductionError is a "reduction_error" with exit code 1
_FAILURES = (
    (FormParseError, "parse_error", 1),
    (RealRootDetected, "real_root_detected", 2),
    (ConvergenceFailure, "convergence_failure", 3),
    (UnpairedRoot, "unpaired_root", 3),
)


def _classify(exc):
    """(batch status, exit code) of a FormReductionError."""
    for cls, status, code in _FAILURES:
        if isinstance(exc, cls):
            return status, code
    return "reduction_error", 1


def _configure_logging():
    level = os.environ.get("FORMRED_LOG", "").upper()
    if level:
        # imported only here: without FORMRED_LOG a command never loads logging
        import logging

        logging.basicConfig(level=getattr(logging, level, logging.INFO), stream=sys.stderr)


def _square_free(n):
    """n = m^2 * s with s squarefree (best effort for large prime cofactors)."""
    m, s, x = 1, 1, n
    p = 2
    while p * p <= x and p < 100000:
        if x % p == 0:
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            m *= p ** (k // 2)
            if k % 2:
                s *= p
        p += 1 if p == 2 else 2
    if x > 1:
        r = math.isqrt(x)
        if r * r == x:
            m *= r
        else:
            s *= x
    return m, s


def sqrt_display(value):
    """Render sqrt(value) of an exact Fraction as "(m/q)*sqrt(s)"."""
    p, q = value.numerator, value.denominator
    m, s = _square_free(p * q)
    coeff = Fraction(m, q)
    if s == 1:
        return str(coeff)
    root = f"sqrt({s})"
    return root if coeff == 1 else f"({coeff})*{root}"


def _emit(args, payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _point_text(zp, digits):
    return f"x = {format_decimal(zp.point.x, digits)}, y = {format_decimal(zp.point.y, digits)}"


def cmd_reduce(args):
    F = parse(args.coeffs)
    if args.method == "both":
        comparison = compare_methods(F, tol=args.tol)
        if args.format == "text":
            for rep in (comparison.centroid_report, comparison.julia_report):
                _print_report_text(rep, args.precision)
            print(f"zero_gap = {format_decimal(comparison.zero_gap, args.precision)}")
            print(f"same_reduced_form = {str(comparison.same_reduced_form).lower()}")
        else:
            _emit(args, comparison.to_dict())
        return 0
    report = reduce_form(F, method=args.method, tol=args.tol)
    if args.format == "text":
        _print_report_text(report, args.precision)
    else:
        _emit(args, report.to_dict())
    return 0


def _print_report_text(report, digits):
    print(f"method          {report.method}")
    print(f"input           {serialize(report.input)}")
    print(f"zero point      {_point_text(report.zero_point, digits)}")
    if report.zero_point.t_exact is not None:
        print(f"exact zero      t = {report.zero_point.t_exact}, "
              f"u^2 = {report.zero_point.u_sq_exact}")
    print(f"matrix          {report.matrix}")
    print(f"reduced         {serialize(report.reduced)}")
    print(f"height          {report.height_before} -> {report.height_after}")


def _zero_points(args):
    """{method: (zero point, diagnostics)} for the requested method(s) of
    args.coeffs, all from one root solve."""
    F = parse(args.coeffs)
    rs = root_set(F, tol=args.tol)
    methods = METHODS if args.method == "both" else (args.method,)
    return {m: zero_point(F, method=m, tol=args.tol, rootset=rs) for m in methods}


def cmd_zero(args):
    results = _zero_points(args)
    if args.format != "text":
        payload = {"schema_version": SCHEMA_VERSION, "zeros": {}}
        for m, (zp, diag) in results.items():
            payload["zeros"][m] = zp.to_dict()
            payload["zeros"][m]["diagnostics"] = diag
        if len(results) == 2:
            payload["zero_gap"] = format_decimal(
                dist_h2(results["centroid"][0].point, results["julia"][0].point))
        _emit(args, payload)
        return 0
    for m, (zp, diag) in results.items():
        line = f"{m}: {_point_text(zp, args.precision)}"
        if zp.t_exact is not None:
            line += f", t = {zp.t_exact}"
        if m == "julia":
            line += f", gradient_norm = {diag['gradient_norm']:.3e}"
        print(line)
    if len(results) == 2:
        gap = dist_h2(results["centroid"][0].point, results["julia"][0].point)
        print(f"zero_gap = {format_decimal(gap, args.precision)}")
    return 0


def cmd_zero_map(args):
    """`center` and `julia`: one zero map and whether it lies in the fundamental domain."""
    [(method, (zp, diag))] = _zero_points(args).items()
    inside = in_fundamental_domain(zp.point)
    if args.format != "text":
        key = "center" if method == "centroid" else "julia"
        _emit(args, {"schema_version": SCHEMA_VERSION, key: zp.to_dict(),
                     "diagnostics": diag, "in_fundamental_domain": inside})
        return 0
    if zp.t_exact is not None:
        print(f"t = {zp.t_exact}, u = {sqrt_display(zp.u_sq_exact)}")
    print(_point_text(zp, args.precision))
    if method == "julia":
        print(f"gradient_norm = {diag['gradient_norm']:.3e}, iterations = {diag['iterations']}, "
              f"objective = {format_decimal(diag['objective'], args.precision)}")
    print(f"in_fundamental_domain = {str(inside).lower()}")
    return 0


def _batch_record(ident, line_coeffs, methods, tol):
    record = {"schema_version": SCHEMA_VERSION, "id": ident}
    try:
        F = parse(line_coeffs)
        reports = {m: reduce_form(F, method=m, tol=tol) for m in methods}
    except FormReductionError as exc:
        record.update(status=_classify(exc)[0], error=str(exc))
        return record
    record["status"] = "ok"
    record["degree"] = F.degree
    record["height_before"] = str(next(iter(reports.values())).height_before)
    for m, rep in reports.items():
        record[m] = {
            "height_after": str(rep.height_after),
            "matrix": [[rep.matrix.a, rep.matrix.b], [rep.matrix.c, rep.matrix.d]],
            "zero_point": rep.zero_point.to_dict(),
        }
    if len(methods) == 2:
        record["zero_gap"] = format_decimal(dist_h2(
            reports["centroid"].zero_point.point, reports["julia"].zero_point.point))
        record["same_reduced_form"] = reports["centroid"].reduced == reports["julia"].reduced
    return record


_CSV_COLUMNS = ("id", "status", "degree", "height_before",
                "centroid_height_after", "centroid_matrix",
                "julia_height_after", "julia_matrix", "zero_gap", "same_reduced_form")


def _csv_row(record):
    def matrix_str(m):
        return f"[[{m[0][0]},{m[0][1]}],[{m[1][0]},{m[1][1]}]]"

    row = {
        "id": record["id"],
        "status": record["status"],
        "degree": record.get("degree", ""),
        "height_before": record.get("height_before", ""),
        "zero_gap": record.get("zero_gap", ""),
        "same_reduced_form": record.get("same_reduced_form", ""),
    }
    for m in ("centroid", "julia"):
        data = record.get(m)
        row[f"{m}_height_after"] = data["height_after"] if data else ""
        row[f"{m}_matrix"] = matrix_str(data["matrix"]) if data else ""
    return ",".join(str(row[c]) for c in _CSV_COLUMNS)


def cmd_batch(args):
    methods = ("centroid", "julia") if args.method == "both" else (args.method,)
    try:
        stream = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    except OSError as exc:
        print(f"cannot open {args.input}: {exc}", file=sys.stderr)
        return 1
    records = []
    with stream if stream is not sys.stdin else contextlib.nullcontext(stream) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            ident, _, rest = line.partition(",")
            if not rest:
                records.append({"schema_version": SCHEMA_VERSION, "id": ident or str(lineno),
                                "status": "parse_error", "error": "missing coefficients"})
                continue
            records.append(_batch_record(ident, rest, methods, args.tol))
    summary = _summarize(records, methods[0])
    if args.format == "csv":
        print(",".join(_CSV_COLUMNS))
        for rec in records:
            print(_csv_row(rec))
        for key in sorted(summary):
            print(f"# {key} = {summary[key]}")
    else:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        print(json.dumps({"schema_version": SCHEMA_VERSION, "type": "summary", **summary},
                         sort_keys=True, separators=(",", ":")))
    return 0


def _summarize(records, primary_method):
    counts = {"records": len(records), "ok": 0, "real_root_detected": 0, "errors": 0,
              "height_reduced": 0, "height_unchanged": 0, "height_increased": 0}
    for rec in records:
        status = rec["status"]
        if status == "ok":
            counts["ok"] += 1
            before = Fraction(rec["height_before"])
            after = Fraction(rec[primary_method]["height_after"])
            if after < before:
                counts["height_reduced"] += 1
            elif after == before:
                counts["height_unchanged"] += 1
            else:
                counts["height_increased"] += 1
        elif status == "real_root_detected":
            counts["real_root_detected"] += 1
        else:
            counts["errors"] += 1
    return counts


def cmd_geodata(args):
    F = parse(args.coeffs)
    roots, rs = certified_roots(F, tol=args.tol)
    method = "centroid" if args.method == "both" else args.method
    zc, _ = zero_point(F, method="centroid", tol=args.tol, rootset=rs)
    zj, _ = zero_point(F, method="julia", tol=args.tol, rootset=rs)
    start = zc.point if method == "centroid" else zj.point
    path = []
    _, matrix = reduce_point_to_fundamental_domain(start, trace=path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "degree": F.degree,
        "roots": [[r.real, r.imag] for r in roots],
        "pairs": [[p.x, p.y] for p in rs.pairs],
        "zeros": {"centroid": zc.to_dict(), "julia": zj.to_dict()},
        "reduction": {
            "method": method,
            "matrix": [[matrix.a, matrix.b], [matrix.c, matrix.d]],
            "path": [[p.x, p.y] for p in path],
        },
        "fundamental_domain": {"re_min": -0.5, "re_max": 0.5, "min_modulus": 1.0},
    }
    _emit(args, payload)
    return 0


def build_parser():
    # argparse is imported here, not at module level: importing formred.cli
    # should not pay for it
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors by default; the contract here is exit 1
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="formred",
                     description="Reduce totally complex real binary forms "
                                 "via hyperbolic zero maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_method="centroid", methods=("centroid", "julia", "both"),
                   default_format="json", formats=("json", "text")):
        p.add_argument("--method", choices=methods, default=default_method)
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--precision", type=int, default=12,
                       help="significant digits in text output")

    p = sub.add_parser("reduce", help="reduce a single form")
    p.add_argument("--coeffs", required=True,
                   help="descending-power coefficients '1,-24,...' or polynomial 'x^6-...'")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("zero", help="print the zero-map value(s) of a form")
    p.add_argument("--coeffs", required=True)
    add_common(p, default_method="both", default_format="text")
    p.set_defaults(func=cmd_zero)

    p = sub.add_parser("center", help="hyperbolic center-of-mass zero map")
    p.add_argument("--coeffs", required=True)
    add_common(p, default_method="centroid", methods=("centroid",), default_format="text")
    p.set_defaults(func=cmd_zero_map)

    p = sub.add_parser("julia", help="distance-sum (Julia) zero map")
    p.add_argument("--coeffs", required=True)
    add_common(p, default_method="julia", methods=("julia",), default_format="text")
    p.set_defaults(func=cmd_zero_map)

    p = sub.add_parser("batch", help="reduce forms listed one per line: id,c0,c1,...")
    p.add_argument("--input", required=True, help="input file, or - for stdin")
    add_common(p, default_method="both", default_format="jsonl",
               formats=("jsonl", "csv"))
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("geodata", help="emit roots/zeros/reduction path as JSON")
    p.add_argument("--coeffs", required=True)
    add_common(p, default_method="both", formats=("json",))
    p.set_defaults(func=cmd_geodata)

    return parser


@functools.cache
def _parser():
    """build_parser(), run by the first main() call and shared by every later
    one: parse_args leaves the parser unchanged and returns a fresh Namespace."""
    return build_parser()


def main(argv=None):
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except FormReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)[1]


if __name__ == "__main__":
    sys.exit(main())
