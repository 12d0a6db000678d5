"""The benchmark's gated workloads reduce every one of their first 100 forms.

perfbench refuses a change under which a larger share of its operations
fails.  These tests push the first 100 forms of each gated corpus, seeds 1 to
3, through the same entry calls, so a solver change that adds failures fails
here before it reaches the benchmark.  perfbench/corpora.py is loaded from
its file; nothing under perfbench/ is imported as a package or changed.
"""

import importlib.util
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


@pytest.mark.parametrize("seed", SEEDS)
def test_accept_both_reduces_every_form(seed):
    failures = []
    for i, coeffs in enumerate(corpora.generate("accept-both", seed, COUNT)):
        try:
            formred.compare_methods(formred.BinaryForm(coeffs))
        except formred.FormReductionError as exc:
            failures.append((i, repr(exc)))
    assert failures == []


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_centroid_cli_reduces_every_form(capsys, seed):
    failures = []
    for i, coeffs in enumerate(corpora.generate("exact-centroid", seed, COUNT)):
        argv = ["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code != 0:
            failures.append((i, code, err))
    assert failures == []
