"""The benchmark's gated workloads reduce every one of their forms.

perfbench refuses a change under which a larger share of its operations
fails.  These tests push the first 100 forms of each gated corpus, seeds 1 to
3, through the same entry calls, so a solver change that adds failures fails
here before it reaches the benchmark.  The `slow` tests do the same for the
full corpora of a 50 s run, seeds 1 to 5 (about 2 min; `pytest -m slow`).  A
few single corpus forms pin the root solver's repeated-factor paths.
perfbench/corpora.py is loaded from its file; nothing under perfbench/ is
imported as a package or changed.
"""

import importlib.util
import json
import logging
from pathlib import Path

import pytest

import formred
from formred.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_corpora", Path(__file__).resolve().parents[1] / "perfbench" / "corpora.py")
corpora = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpora)

SEEDS = (1, 2, 3)
COUNT = 100
# the corpus sizes of a 50 s perfbench run
FULL_SEEDS = (1, 2, 3, 4, 5)
FULL_COUNT = {"accept-both": 1000, "exact-centroid": 1650}


def accept_both_failures(seed, count):
    failures = []
    for i, coeffs in enumerate(corpora.generate("accept-both", seed, count)):
        try:
            formred.compare_methods(formred.BinaryForm(coeffs))
        except formred.FormReductionError as exc:
            failures.append((i, repr(exc)))
    return failures


def exact_centroid_cli_failures(capsys, seed, count):
    failures = []
    for i, coeffs in enumerate(corpora.generate("exact-centroid", seed, count)):
        argv = ["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code != 0:
            failures.append((i, code, err))
    return failures


@pytest.mark.parametrize("seed", SEEDS)
def test_accept_both_reduces_every_form(seed):
    assert accept_both_failures(seed, COUNT) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_centroid_cli_reduces_every_form(capsys, seed):
    assert exact_centroid_cli_failures(capsys, seed, COUNT) == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_full_accept_both_reduces_every_form(seed):
    assert accept_both_failures(seed, FULL_COUNT["accept-both"]) == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_full_exact_centroid_cli_reduces_every_form(capsys, seed):
    assert exact_centroid_cli_failures(capsys, seed, FULL_COUNT["exact-centroid"]) == []


def test_failed_split_falls_back_to_the_zoom(caplog):
    # degree 18: a degree-14 part that fails on its own, times a squared
    # quadratic; only the zoomed direct solve of the whole form certifies
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    coeffs = corpora.generate("hard-scramble", 1, 5)[4]
    report = formred.reduce_form(formred.BinaryForm(coeffs), method="centroid")
    assert report.matrix == formred.UnimodularMatrix(15, 7, -43, -20)
    assert any(r.getMessage().startswith("zoom fallback after a failed split")
               for r in caplog.records)


# seed-4 exact-centroid forms with a repeated factor whose zoomed roots lost
# the exact rational path: zero point, matrix, reduced form and heights
EXACT_AFTER_SPLIT = {
    428: ("189/10", "19/100", [[19, -1], [1, 0]],
          ["1", "-4", "20", "-44", "134", "-220", "500", "-500", "625"],
          "10190786398208", "625"),
    994: ("7/20", "1/400", [[-1, 1], [-3, 2]], ["1", "0", "12", "0", "48", "0", "64"],
          "134400", "64"),
}


@pytest.mark.parametrize("index", sorted(EXACT_AFTER_SPLIT))
def test_split_keeps_the_exact_zero_point(capsys, index):
    t, u_sq, matrix, reduced, before, after = EXACT_AFTER_SPLIT[index]
    coeffs = corpora.generate("exact-centroid", 4, index + 1)[index]
    assert main(["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["exact"] is True
    assert (report["zero_point"]["exact_t"], report["zero_point"]["exact_u_sq"]) == (t, u_sq)
    assert report["matrix"] == matrix
    assert report["reduced"]["coefficients"] == reduced
    assert (report["height_before"], report["height_after"]) == (before, after)
