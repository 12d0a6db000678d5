"""The benchmark's gated workloads reduce every one of their forms.

perfbench refuses a change under which a larger share of its operations
fails.  These tests push the first 100 forms of each gated corpus, seeds 1 to
3, through the same entry calls, so a solver change that adds failures fails
here before it reaches the benchmark.  The `slow` tests do the same for the
full corpora of a 50 s run, seeds 1 to 5 (about 2 min; `pytest -m slow`), and
pin their bytes.  The ungated hard corpus is pinned too, in `slow`: the same
forms reduce, to the same bytes.  A few single corpus forms pin the root
solver's repeated-factor paths and its pairing failures.  perfbench/corpora.py
is loaded from its file (see conftest); nothing under perfbench/ is imported
as a package or changed.
"""

import hashlib
import json
import logging

import pytest

import formred
from conftest import corpora
from formred.cli import main

SEEDS = (1, 2, 3)
COUNT = 100
# the corpus sizes of a 50 s perfbench run
FULL_SEEDS = (1, 2, 3, 4, 5)
FULL_COUNT = {"accept-both": 1000, "exact-centroid": 1650}


# the full corpora's sha256 of one line per form in corpus order, the JSON
# of compare_methods' result or the reduce CLI's stdout, as perfbench digests
# a pass (its "reports sha256"); recorded before Aberth stopped at exact repeats
FULL_DIGESTS = {
    "accept-both": {
        1: "8c326b333bf3cd3ceabdda0303a759efade501977e788e3220f9fe06d0a0603f",
        2: "ab98da05d9c7bbf17e79cf663532b3d4383102b3056d4f7d94d2b0cc64534bd5",
        3: "35fefe22625e8be80f3b02860b496cb5303bf8f95fc53ecaee6d9f7b5cc48bcc",
        4: "8a42b1051e75ad511d045829323324e5d960e5d6e2eded7ba09206d264cd047a",
        5: "05f9ea43b12305828eab2d3de73b9fb4f8becaf6e164d1a3f1e53c3494f54444",
    },
    "exact-centroid": {
        1: "8a6a87616127637af61050e1bd13081e74fc46e702e1c965cdad381bbea1555d",
        2: "6704a511d53ba289e1daa680b6003d27dd88ee202d5dfba38da77e4539fca653",
        3: "1d0015b89e0146cb964d41fa51c3e4b1740b45a91d39019ee8d6c149670cc601",
        4: "19650fa03741b017df0eb602806419058076c710180119ba45d4fe7f6af43592",
        5: "abc3aa188e1c22b42c197d7e56c2c51a384d39f5a0e8721f8d88212833131071",
    },
}


def accept_both_pass(seed, count):
    """The failures, and the sha256 of the lines of the forms that reduce."""
    failures, h = [], hashlib.sha256()
    for i, coeffs in enumerate(corpora.generate("accept-both", seed, count)):
        try:
            result = formred.compare_methods(formred.BinaryForm(coeffs))
        except formred.FormReductionError as exc:
            failures.append((i, repr(exc)))
            continue
        h.update((json.dumps(result.to_dict(), sort_keys=True) + "\n").encode())
    return failures, h.hexdigest()


def exact_centroid_cli_pass(capsys, seed, count):
    """The failures, and the sha256 of the stdout of the forms that reduce."""
    failures, h = [], hashlib.sha256()
    for i, coeffs in enumerate(corpora.generate("exact-centroid", seed, count)):
        argv = ["reduce", "--coeffs", ",".join(map(str, coeffs)), "--method", "centroid"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code != 0:
            failures.append((i, code, err))
            continue
        h.update((out + "\n").encode())
    return failures, h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_accept_both_reduces_every_form(seed):
    assert accept_both_pass(seed, COUNT)[0] == []


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_centroid_cli_reduces_every_form(capsys, seed):
    assert exact_centroid_cli_pass(capsys, seed, COUNT)[0] == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_full_accept_both_reduces_every_form(seed):
    assert accept_both_pass(seed, FULL_COUNT["accept-both"]) == (
        [], FULL_DIGESTS["accept-both"][seed])


@pytest.mark.slow
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_full_exact_centroid_cli_reduces_every_form(capsys, seed):
    assert exact_centroid_cli_pass(capsys, seed, FULL_COUNT["exact-centroid"]) == (
        [], FULL_DIGESTS["exact-centroid"][seed])


# hard-scramble, 150 forms per seed (the corpus of a 50 s run), recorded while
# the square-free split still ran on Fractions: the forms that reduce, and the
# sha256 of one line per form in corpus order, the report's JSON or
# "failure <class>", as perfbench digests a pass; seed 2 was re-recorded when
# the float modified Newton (_multiple_root_polish) went from the cluster
# polish, which made #106 reduce and changed no other line
HARD_SCRAMBLE = {
    1: ({
        0, 1, 2, 4, 6, 7, 9, 12, 18, 24, 25, 30, 31, 33, 36, 40, 42, 43, 44, 45, 46, 48, 49,
        54, 55, 60, 61, 70, 72, 74, 78, 85, 88, 91, 93, 96, 97, 104, 105, 112, 114, 115,
        117, 120, 121, 123, 128, 129, 131, 132, 138, 139, 140, 141, 144, 145, 146, 147},
        "4d6cfc9ed66def85765a1593155848ec9cf157648ce9e88b293dd3984589d1d8"),
    2: ({
        0, 1, 3, 4, 6, 7, 8, 12, 13, 18, 19, 20, 22, 24, 28, 30, 31, 32, 36, 37, 38, 40, 41,
        42, 43, 44, 46, 49, 50, 52, 53, 58, 59, 60, 67, 71, 72, 73, 76, 78, 79, 81, 84, 85,
        86, 89, 90, 96, 98, 102, 103, 106, 108, 109, 110, 114, 115, 118, 121, 126, 127, 128,
        133, 134, 138, 139, 142, 143, 145, 147},
        "985053c7770cb7904f63fd280bca4ee901b43df78bc199e082a2416aaa33835b"),
    3: ({
        3, 6, 7, 8, 12, 13, 14, 18, 19, 20, 23, 24, 30, 33, 34, 35, 36, 37, 40, 42, 43, 49,
        50, 51, 54, 55, 57, 59, 60, 62, 66, 69, 71, 72, 78, 79, 80, 81, 82, 94, 96, 97, 99,
        102, 103, 104, 105, 112, 114, 116, 117, 118, 121, 122, 127, 129, 133, 134, 136, 137,
        138, 143, 144, 146, 147},
        "21944d5d9897099948bcc70f1f0367c3f4da407d07d4e56af70f09bc0a81b01b"),
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(HARD_SCRAMBLE))
def test_hard_scramble_keeps_its_reduced_forms_and_bytes(seed):
    reducing, digest = HARD_SCRAMBLE[seed]
    h, reduced = hashlib.sha256(), set()
    for i, coeffs in enumerate(corpora.generate("hard-scramble", seed, 150)):
        try:
            line = formred.reduce_form(formred.BinaryForm(coeffs), method="centroid").to_json()
            reduced.add(i)
        except formred.FormReductionError as exc:
            line = f"failure {type(exc).__name__}"
        h.update((line + "\n").encode())
    assert reduced == reducing
    assert h.hexdigest() == digest


def test_failed_split_falls_back_to_the_zoom(caplog):
    # degree 18: a degree-14 part that fails on its own, times a squared
    # quadratic; only the zoomed direct solve of the whole form certifies
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    coeffs = corpora.generate("hard-scramble", 1, 5)[4]
    report = formred.reduce_form(formred.BinaryForm(coeffs), method="centroid")
    assert report.matrix == formred.UnimodularMatrix(15, 7, -43, -20)
    assert any(r.getMessage().startswith("failed split of ")
               for r in caplog.records)


def test_zoomed_cluster_certifies_under_exact_newton_alone():
    # degree 18, square-free parts of multiplicities 1 and 2: the split fails
    # and the zoomed solve of the whole form certifies only while its merged
    # clusters are polished by exact Newton with multiplicity and by nothing
    # else; a float modified Newton before it left the power-sum defect at
    # 8.621e-06
    coeffs = corpora.generate("hard-scramble", 2, 107)[106]
    report = formred.reduce_form(formred.BinaryForm(coeffs), method="centroid")
    assert report.matrix == formred.UnimodularMatrix(-3, 1, -88, 29)
    assert report.reduced.coeffs == (
        1, 3, 27, 63, 342, 642, 2639, 3891, 13763, 15105, 51576, 38436, 147144, 59520, 323968,
        25440, 537840, -118800, 648000)


def split_decisions(caplog):
    return [r.getMessage() for r in caplog.records if "split" in r.getMessage()]


def first_solve_has_no_cluster(F):
    """True when the first solve of F fails a certificate while no two of its
    estimates group within the zoom radius: the ladder's no-cluster failure."""
    poly = formred.roots._IntegerPoly.of_form(F)
    xs = formred.roots._refine(poly, formred.roots._float_solve(formred.roots._float_coeffs(F)))
    groups = formred.roots._groups(xs, formred.roots._ZOOM_GROUP_RADIUS)
    return formred.roots._quality(F, xs) > 1e-12 and all(len(g) == 1 for g in groups)


def test_unclustered_failure_is_split(caplog):
    # hard-scramble seed 1 #93, degree 16, square-free parts of multiplicities
    # 1 and 2: split at once, with one decision, and the split reduces
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    F = formred.BinaryForm(corpora.generate("hard-scramble", 1, 94)[93])
    assert first_solve_has_no_cluster(F)
    caplog.clear()
    report = formred.reduce_form(F, method="centroid")
    assert report.matrix == formred.UnimodularMatrix(-44, -1, -43, -1)
    [decision] = split_decisions(caplog)
    assert decision == f"square-free split of {F} into multiplicities [1, 2]"


def test_unclustered_failed_split_raises_its_error(caplog):
    # hard-scramble seed 1 #94, degree 18: the split fails, and with no
    # cluster to zoom into its error is raised
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    F = formred.BinaryForm(corpora.generate("hard-scramble", 1, 95)[94])
    assert first_solve_has_no_cluster(F)
    caplog.clear()
    with pytest.raises(formred.ConvergenceFailure) as failure:
        formred.roots.root_set(F)
    assert str(failure.value) == "root multiset fails the power-sum certificate (9.435e-05)"
    logged = split_decisions(caplog)
    assert len(logged) == 2
    assert logged[0].startswith("square-free split of ")
    assert logged[1] == f"failed split of {F}: {failure.value}"


# hard-scramble forms whose certified roots do not pair, with the message
# recorded before the root solver's ladder became one function and the split
# decisions logged: seed 2 #100 (degree 18, a degree-10 part times a squared
# quartic; its split fails to pair, and so do the zoomed roots, so the split's
# error is raised without a second split) and seed 3 #73 (degree 12,
# square-free, so nothing is split)
UNPAIRED = {
    (2, 100): (["square-free split of ", "failed split of "],
               "no conjugate partner for (-0.9424128376158092+0.00014863377336235518j) "
               "(closest at distance 3.325e-08)"),
    (3, 73): ([], "no conjugate partner for (0.2264870361435714+0.00011367922407998224j) "
                  "(closest at distance 3.081e-08)"),
}


@pytest.mark.parametrize("seed, index", sorted(UNPAIRED))
def test_unpaired_roots_keep_their_message(caplog, seed, index):
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    decisions, message = UNPAIRED[seed, index]
    F = formred.BinaryForm(corpora.generate("hard-scramble", seed, index + 1)[index])
    with pytest.raises(formred.UnpairedRoot) as failure:
        formred.roots.root_set(F)
    assert str(failure.value) == message
    logged = [r.getMessage() for r in caplog.records if "split" in r.getMessage()]
    assert len(logged) == len(decisions)
    assert all(m.startswith(d) for m, d in zip(logged, decisions))


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
