"""Command-line interface: single-form and batch reduction, zero-map inspection.

Exit codes: 0 success, 1 usage or input error, 2 real root detected,
3 optimizer/root-finder failure (no convergence, or roots that do not pair
into conjugates).  Set FORMRED_LOG=DEBUG (or INFO, ...) for diagnostics on
stderr.
"""

import contextlib
import functools
import io
import json
import math
import os
import sys
from decimal import MAX_PREC
from fractions import Fraction

from .errors import (
    ConvergenceFailure,
    FormParseError,
    FormReductionError,
    RealRootDetected,
    UnpairedRoot,
)
from .forms import parse, serialize
from .hyperbolic import dist_h2, in_fundamental_domain
from .reduce import (
    METHODS,
    SCHEMA_VERSION,
    compare_methods,
    format_decimal,
    reduce_form,
    reduce_zero_point,
    zero_point,
)
from .roots import root_set


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


def _square_part(n):
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
    m, s = _square_part(p * q)
    coeff = Fraction(m, q)
    if s == 1:
        return str(coeff)
    root = f"sqrt({s})"
    return root if coeff == 1 else f"({coeff})*{root}"


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _point_text(zp, digits):
    return f"x = {format_decimal(zp.point.x, digits)}, y = {format_decimal(zp.point.y, digits)}"


def cmd_reduce(args):
    F = parse(args.coeffs)
    if args.method == "both":
        comparison = compare_methods(F)
        if args.format == "text":
            for rep in (comparison.centroid_report, comparison.julia_report):
                _print_report_text(rep, args.precision)
            print(f"zero_gap = {format_decimal(comparison.zero_gap, args.precision)}")
            print(f"same_reduced_form = {str(comparison.same_reduced_form).lower()}")
        else:
            _emit(comparison.to_dict())
        return 0
    report = reduce_form(F, method=args.method)
    if args.format == "text":
        _print_report_text(report, args.precision)
    else:
        _emit(report.to_dict())
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


def _methods(method):
    """The zero maps a --method value asks for."""
    return METHODS if method == "both" else (method,)


def _zero_points(coeffs, methods):
    """(RootSet, {method: (zero point, diagnostics)}) of the form `coeffs`
    under each of `methods`, all from one root solve."""
    rs = root_set(parse(coeffs))
    return rs, {m: zero_point(rs, method=m) for m in methods}


def cmd_zero(args):
    _, results = _zero_points(args.coeffs, _methods(args.method))
    gap = (dist_h2(results["centroid"][0].point, results["julia"][0].point)
           if len(results) == 2 else None)
    if args.format != "text":
        payload = {"schema_version": SCHEMA_VERSION, "zeros": {}}
        for m, (zp, diag) in results.items():
            payload["zeros"][m] = zp.to_dict()
            payload["zeros"][m]["diagnostics"] = diag
        if gap is not None:
            payload["zero_gap"] = format_decimal(gap)
        _emit(payload)
        return 0
    for m, (zp, diag) in results.items():
        line = f"{m}: {_point_text(zp, args.precision)}"
        if zp.t_exact is not None:
            line += f", t = {zp.t_exact}"
        if m == "julia":
            line += f", gradient_norm = {diag['gradient_norm']:.3e}"
        print(line)
    if gap is not None:
        print(f"zero_gap = {format_decimal(gap, args.precision)}")
    return 0


def cmd_zero_map(args):
    """`center` and `julia`: one zero map and whether it lies in the fundamental domain."""
    [(method, (zp, diag))] = _zero_points(args.coeffs, (args.method,))[1].items()
    inside = in_fundamental_domain(zp.point)
    if args.format != "text":
        _emit({"schema_version": SCHEMA_VERSION, args.command: zp.to_dict(),
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


def _batch_record(ident, line_coeffs, method):
    """One batch line as `reduce --method <method>` computes it, cut to the
    fields a batch record keeps."""
    record = {"schema_version": SCHEMA_VERSION, "id": ident}
    try:
        F = parse(line_coeffs)
        if method == "both":
            payload = compare_methods(F).to_dict()
        else:
            payload = {method: reduce_form(F, method=method).to_dict()}
    except FormReductionError as exc:
        record.update(status=_classify(exc)[0], error=str(exc))
        return record
    methods = _methods(method)
    record.update(status="ok", degree=F.degree, height_before=payload[methods[0]]["height_before"])
    for m in methods:
        record[m] = {key: payload[m][key] for key in ("height_after", "matrix", "zero_point")}
    for key in ("zero_gap", "same_reduced_form"):
        if key in payload:
            record[key] = payload[key]
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


def _batch_input(path):
    """The batch input as UTF-8 text, "-" for stdin.  A byte that does not
    decode reads as U+FFFD, so its line becomes a parse_error record and the
    other lines still reduce."""
    if path != "-":
        return open(path, encoding="utf-8", errors="replace")
    if isinstance(sys.stdin, io.TextIOWrapper) and sys.stdin.errors != "replace":
        sys.stdin.reconfigure(encoding="utf-8", errors="replace")
    return contextlib.nullcontext(sys.stdin)


def cmd_batch(args):
    """Print each line's record as soon as it is built, then the summary;
    only the summary counts are kept, so memory stays flat on long inputs."""
    try:
        stream = _batch_input(args.input)
    except OSError as exc:
        print(f"cannot open {args.input}: {exc}", file=sys.stderr)
        return 1
    csv, primary_method = args.format == "csv", _methods(args.method)[0]
    if csv:
        print(",".join(_CSV_COLUMNS))
    counts = dict.fromkeys(("records", "ok", "real_root_detected", "errors",
                            "height_reduced", "height_unchanged", "height_increased"), 0)
    with stream as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            ident, _, rest = line.partition(",")
            ident = ident or str(lineno)
            if rest:
                record = _batch_record(ident, rest, args.method)
            else:
                record = {"schema_version": SCHEMA_VERSION, "id": ident,
                          "status": "parse_error", "error": "missing coefficients"}
            _count(counts, record, primary_method)
            print(_csv_row(record) if csv
                  else json.dumps(record, sort_keys=True, separators=(",", ":")))
    if csv:
        for key in sorted(counts):
            print(f"# {key} = {counts[key]}")
    else:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "type": "summary", **counts},
                         sort_keys=True, separators=(",", ":")))
    return 0


def _count(counts, record, primary_method):
    """Add one batch record to the summary counts."""
    counts["records"] += 1
    status = record["status"]
    if status == "ok":
        counts["ok"] += 1
        before = Fraction(record["height_before"])
        after = Fraction(record[primary_method]["height_after"])
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


def cmd_geodata(args):
    """Both zero maps of one root solve, the roots, and the reduction path of
    the requested zero map (the centroid's for `both`)."""
    rs, zeros = _zero_points(args.coeffs, METHODS)
    method = "centroid" if args.method == "both" else args.method
    path = []
    _, matrix = reduce_zero_point(zeros[method][0], trace=path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "degree": rs.form.degree,
        "roots": [[r.real, r.imag] for r in rs.roots],
        "pairs": [[p.x, p.y] for p in rs.pairs],
        "zeros": {m: zp.to_dict() for m, (zp, _) in zeros.items()},
        "reduction": {
            "method": method,
            "matrix": [[matrix.a, matrix.b], [matrix.c, matrix.d]],
            "path": [[p.x, p.y] for p in path],
        },
        "fundamental_domain": {"re_min": -0.5, "re_max": 0.5, "min_modulus": 1.0},
    }
    _emit(payload)
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

    def precision(text):
        """A --precision value: an int from 1 to decimal.MAX_PREC, else a usage error."""
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
        if value > MAX_PREC:
            raise argparse.ArgumentTypeError(f"must be at most {MAX_PREC}: {text!r}")
        return value

    # argparse names the type in its "invalid <type> value" message
    precision.__name__ = "int"

    parser = _Parser(prog="formred",
                     description="Reduce totally complex real binary forms "
                                 "via hyperbolic zero maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, method=None, formats=(), fmt=None):
        """--method, --format and --precision where a command reads them."""
        if method is not None:
            p.add_argument("--method", choices=(*METHODS, "both"), default=method)
        if formats:
            p.add_argument("--format", choices=formats, default=fmt)
        if "text" in formats:
            p.add_argument("--precision", type=precision, default=12,
                           help="significant digits in text output")

    p = sub.add_parser("reduce", help="reduce a single form")
    p.add_argument("--coeffs", required=True,
                   help="descending-power coefficients '1,-24,...' or polynomial 'x^6-...'")
    add_common(p, method="centroid", formats=("json", "text"), fmt="json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("zero", help="print the zero-map value(s) of a form")
    p.add_argument("--coeffs", required=True)
    add_common(p, method="both", formats=("json", "text"), fmt="text")
    p.set_defaults(func=cmd_zero)

    p = sub.add_parser("center", help="hyperbolic center-of-mass zero map")
    p.add_argument("--coeffs", required=True)
    add_common(p, formats=("json", "text"), fmt="text")
    p.set_defaults(func=cmd_zero_map, method="centroid")

    p = sub.add_parser("julia", help="distance-sum (Julia) zero map")
    p.add_argument("--coeffs", required=True)
    add_common(p, formats=("json", "text"), fmt="text")
    p.set_defaults(func=cmd_zero_map, method="julia")

    p = sub.add_parser("batch", help="reduce forms listed one per line: id,c0,c1,...")
    p.add_argument("--input", required=True, help="input file, or - for stdin")
    add_common(p, method="both", formats=("jsonl", "csv"), fmt="jsonl")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("geodata", help="emit roots/zeros/reduction path as JSON")
    p.add_argument("--coeffs", required=True)
    add_common(p, method="both")
    p.set_defaults(func=cmd_geodata)

    return parser


@functools.cache
def _parser():
    """build_parser(), run by the first main() call and shared by every later
    one: parse_args leaves the parser unchanged and returns a fresh Namespace."""
    return build_parser()


def _joined_coeffs(argv):
    """argv with each `--coeffs <value>` written `--coeffs=<value>`: argparse
    takes a separate value that starts with '-' (-1,0,-1 or -x^2-z^2, a
    negative leading coefficient) for an option unless it is a plain number,
    and reads a joined one as the value."""
    out = []
    for token in argv:
        if out and out[-1] == "--coeffs" and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    _configure_logging()
    try:
        args = _parser().parse_args(_joined_coeffs(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except FormReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)[1]


if __name__ == "__main__":
    sys.exit(main())
