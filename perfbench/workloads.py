"""Entry calls, output checks and the timed closed loop of each workload.

Every workload is a closed loop in one thread: a form goes in only when the
previous answer, a report or a classified failure, is back.  Each entry call
returns the serialized output a user would see; the checks read it back.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import corpora
import formred
import formred.cli
import formred.reduce
from formred import BinaryForm, FormReductionError, PointH2, UnimodularMatrix

# worked sextic with roots 2+-3i, 6+-4i, 4+-7i and its reduced form
SEXTIC = (1, -24, 306, -2308, 10933, -29068, 43940)
SEXTIC_REDUCED = (1, 0, 66, 28, 1093, 1372, 12740)

# CLI exit codes that classify a FormReductionError (see formred.cli)
CLI_FAILURES = {2: "RealRootDetected", 3: "ConvergenceFailure"}


class CheckError(Exception):
    """A wrong answer: a benchmark error, unlike a classified FormReductionError."""


@dataclass
class Outcome:
    """One entry call's answer: serialized reports, or the class of the failure."""

    text: str | None = None
    reports: tuple = ()
    failure: str | None = None


def accept_both(coeffs):
    result = formred.compare_methods(BinaryForm(coeffs))
    text = json.dumps(result.to_dict(), sort_keys=True)
    return Outcome(text, (result.centroid_report, result.julia_report))


def exact_centroid(coeffs):
    argv = ["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = formred.cli.main(argv)
    if code == 0:
        return Outcome(out.getvalue())
    if code in CLI_FAILURES:
        return Outcome(failure=CLI_FAILURES[code])
    if code == 1 and err.getvalue().startswith("error: "):
        return Outcome(failure="FormReductionError")
    raise CheckError(f"CLI exit {code}: {err.getvalue().strip()}")


def hard_scramble(coeffs):
    report = formred.reduce_form(BinaryForm(coeffs), method="centroid")
    return Outcome(report.to_json(), (report,))


ENTRIES = {
    "accept-both": accept_both,
    "exact-centroid": exact_centroid,
    "hard-scramble": hard_scramble,
}


def call(entry, coeffs):
    """One closed-loop request; a FormReductionError is a classified answer."""
    try:
        return entry(coeffs)
    except FormReductionError as exc:
        return Outcome(failure=type(exc).__name__)


def _report_dicts(workload, text):
    payload = json.loads(text)
    if workload == "accept-both":
        return [payload["centroid"], payload["julia"]]
    return [payload]


def _point(zero_point):
    return SimpleNamespace(point=PointH2(float(zero_point["x"]), float(zero_point["y"])))


def _log2(value):
    return math.log2(value.numerator) - math.log2(value.denominator)


def check_outcome(workload, coeffs, outcome):
    """Raise CheckError unless every report is right; return its mean log2 height ratio.

    A classified failure passes and counts as ratio 1 (log2 0).
    """
    if outcome.failure is not None:
        return 0.0
    try:
        return _check_reports(workload, coeffs, outcome)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed report for {coeffs}: {exc!r}") from exc


def _check_reports(workload, coeffs, outcome):
    form = BinaryForm(coeffs)
    dicts = _report_dicts(workload, outcome.text)
    objects = outcome.reports or [None] * len(dicts)
    if len(objects) != len(dicts):
        raise CheckError("serialized output does not match the returned reports")
    ratios = []
    for d, obj in zip(dicts, objects):
        if [Fraction(c) for c in d["input"]["coefficients"]] != list(coeffs):
            raise CheckError("report input differs from the corpus form")
        (a, b), (c, dd) = d["matrix"]
        matrix = UnimodularMatrix(a, b, c, dd)
        reduced = BinaryForm(tuple(Fraction(x) for x in d["reduced"]["coefficients"]))
        if formred.transform(form, matrix) != reduced:
            raise CheckError(f"reduced != transform(input, matrix) for {coeffs}")
        before, after = Fraction(d["height_before"]), Fraction(d["height_after"])
        if before != formred.normalized_height(form):
            raise CheckError(f"height_before is wrong for {coeffs}")
        if after != formred.normalized_height(reduced):
            raise CheckError(f"height_after != normalized_height(reduced) for {coeffs}")
        if obj is None:
            obj = SimpleNamespace(zero_point=_point(d["zero_point"]), matrix=matrix,
                                  reduced_point=_point(d["reduced_point"]))
        elif obj.matrix != matrix or obj.reduced != reduced:
            raise CheckError("serialized report differs from the returned report")
        if not formred.reduce.reduced_zero_matches(obj):
            raise CheckError(f"the matrix does not move the zero into the domain for {coeffs}")
        ratios.append(_log2(after) - _log2(before))
    return sum(ratios) / len(ratios)


def outcome_line(outcome):
    return outcome.text if outcome.failure is None else f"failure {outcome.failure}"


def digest(outcomes):
    """sha256 of a pass's serialized answers, one per line, in corpus order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update((outcome_line(outcome) + "\n").encode())
    return h.hexdigest()


# Reference kernel.  This machine's speed drifts by up to 2x over tens of
# seconds, for every process alike (CPU time moves with wall time).  A fixed
# pure-Python kernel, timed after every entry call, measures that drift where
# the call ran; times are reported at the speed where the kernel takes REF_MS.
# The kernel mixes the root solver's two kinds of work: float Aberth sweeps and
# exact Horner steps on big dyadic Fractions.  A kernel of small Fractions only
# tracked the drift worse (time ratio spread 4.7% against 2.7% over 1.5 s blocks).
REF_MS = 1.0


def _product(*factors):
    out = [1]
    for f in factors:
        out = corpora.poly_mul(out, f)
    return out


_REF_QUARTICS = ([1, 1, 1], [1, -1, 2], [1, 2, 3], [1, 0, 3])
_REF_FLOAT = tuple(float(c) for c in corpora.scramble(_product(*_REF_QUARTICS * 2), (2, 3, 3, 5)))
_REF_EXACT = tuple(Fraction(c) for c in corpora.scramble(_product(*_REF_QUARTICS), (3, 5, 7, 12)))
_REF_POINTS = tuple(complex(1.3 * math.cos(0.7 * k + 0.2), 1.1 * math.sin(0.7 * k + 0.2))
                    for k in range(16))


def reference_kernel():
    acc = 0
    for _ in range(4):
        for x in _REF_POINTS:
            p = 0j
            for c in _REF_FLOAT:
                p = p * x + c
            s = 0j
            for y in _REF_POINTS:
                if y != x:
                    s += 1.0 / (x - y)
            acc += int(abs(p * s)) % 7
    for x in _REF_POINTS[:4]:
        re, im = Fraction(x.real), Fraction(x.imag)
        pr = pi = Fraction(0)
        for c in _REF_EXACT:
            pr, pi = pr * re - pi * im + c, pr * im + pi * re
        acc += pr.denominator.bit_length()
    return acc


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_factors(ref_seconds, window=4):
    """Per-call scale to reference speed: REF_MS over the local kernel median."""
    n = len(ref_seconds)
    return [REF_MS / 1e3 / statistics.median(ref_seconds[max(0, i - window):i + window + 1])
            for i in range(n)]


@dataclass
class Pass:
    outcomes: list
    seconds: list
    ref_seconds: list


def run_pass(entry, corpus):
    """One closed-loop pass; the kernel runs after each call, outside its time."""
    outcomes, seconds, ref_seconds = [], [], []
    for coeffs in corpus:
        start = time.perf_counter()
        outcome = call(entry, coeffs)
        seconds.append(time.perf_counter() - start)
        outcomes.append(outcome)
        ref_seconds.append(time_reference())
    return Pass(outcomes, seconds, ref_seconds)


def run_timed(entry, corpus, budget):
    """Whole passes over the corpus while the next one fits in `budget` seconds.

    The first pass always runs.  Every later pass must serialize exactly like
    the first, which checks that the answers are deterministic.
    """
    start = time.perf_counter()
    passes = [run_pass(entry, corpus)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            break
        passes.append(run_pass(entry, corpus))
        for first, again in zip(passes[0].outcomes, passes[-1].outcomes):
            if outcome_line(first) != outcome_line(again):
                raise CheckError("a repeated pass gave a different answer")
    return passes, time.perf_counter() - start
