"""Smoke tests of the benchmark itself, on tiny corpora (about 40 s).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import formred  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd)


def _printed(stdout, name, unit):
    return len(re.findall(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b", stdout, re.M))


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = _bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 3 * 6
    for name, unit in run.END_TO_END.items():
        assert _printed(proc.stdout, name, unit) == len(run.WORKLOADS), name
        for workload in run.WORKLOADS:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    assert proc.stdout.count("reports sha256 ") == len(run.WORKLOADS)


def test_traced_run_prints_every_layer_metric_and_self_times_add_up():
    proc = _bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for workload in run.WORKLOADS:
        for name, (unit, _) in spans.METRICS.items():
            assert metrics[f"{workload}.{name}"]["unit"] == unit
            assert metrics[f"{workload}.{name}"]["value"] is not None
    assert metrics["accept-both.roots.complex_roots.calls_per_form"]["value"] == 2.0
    assert metrics["exact-centroid.roots.complex_roots.calls_per_form"]["value"] == 1.0
    assert metrics["hard-scramble.roots.complex_roots.calls_per_form"]["value"] == 1.0
    assert metrics["exact-centroid.centroid.exact_frac"]["value"] == 1.0
    sums = re.findall(r"sum of layer self times (\S+) ms/form; traced total (\S+) ms/form",
                      proc.stdout)
    assert len(sums) == len(run.WORKLOADS)
    for layer_sum, total in sums:
        assert abs(float(layer_sum) - float(total)) <= 1e-5 * float(total)


def test_same_seed_same_corpus():
    for workload in run.WORKLOADS:
        a = corpora.generate(workload, 11, 12)
        assert corpora.corpus_hash(a) == corpora.corpus_hash(corpora.generate(workload, 11, 12))
        assert corpora.corpus_hash(a) != corpora.corpus_hash(corpora.generate(workload, 12, 12))
        assert a[:6] == corpora.generate(workload, 11, 6)


def test_corpus_forms_are_scrambled_products_of_the_recipe():
    for workload, (degrees, *_) in corpora.RECIPES.items():
        for coeffs in corpora.generate(workload, 3, 2 * len(degrees)):
            assert len(coeffs) - 1 in degrees and coeffs[0] != 0
    a, b, c, d = corpora.random_unimodular(random.Random(1), 100)
    assert a * d - b * c == 1 and max(map(abs, (a, b, c, d))) <= 100
    form = formred.BinaryForm((1, 2, 5))
    matrix = formred.UnimodularMatrix(a, b, c, d)
    assert formred.transform(form, matrix).coeffs == tuple(corpora.scramble((1, 2, 5), (a, b, c, d)))


def test_a_corrupted_report_fails_the_run(monkeypatch, capsys):
    real = formred.reduce_form

    def corrupted(F, *args, **kwargs):
        report = real(F, *args, **kwargs)
        if F.degree >= 10:
            report = dataclasses.replace(report, height_after=report.height_after + 1)
        return report

    monkeypatch.setattr(formred, "reduce_form", corrupted)
    assert run.main(["--workload", "hard-scramble", "--seed", "1", "--seconds", "1"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out.splitlines()[-1])["correct"] is False
    assert "height_after" in out.err


def test_a_wrong_cli_answer_fails_the_check():
    coeffs = corpora.generate("exact-centroid", 1, 1)[0]
    outcome = workloads.exact_centroid(coeffs)
    workloads.check_outcome("exact-centroid", coeffs, outcome)
    payload = json.loads(outcome.text)
    (a, b), (c, d) = payload["matrix"]
    payload["matrix"] = [[a + c, b + d], [c, d]]
    bad = workloads.Outcome(json.dumps(payload))
    try:
        workloads.check_outcome("exact-centroid", coeffs, bad)
    except workloads.CheckError:
        return
    raise AssertionError("a wrong matrix passed the check")


def test_a_missing_wrap_target_reads_absent():
    targets = tuple(t for t in spans.TARGETS if t[0] != "roots.complex_roots")
    targets += (("roots.complex_roots", "formred.roots", "no_such_function", None),)
    tracer = spans.Tracer(targets)
    assert tracer.absent == ["roots.complex_roots"]
    tracer.form = 0
    root = tracer.span(spans.ROOT, workloads.hard_scramble)
    unwrapped = formred.reduce_form
    tracer.install()
    try:
        workloads.call(root, workloads.SEXTIC)
    finally:
        tracer.uninstall()
    assert formred.reduce_form is unwrapped
    metrics = spans.layer_metrics(tracer.spans, [1.0], 1, tracer.absent, 0.0)
    assert metrics["roots.complex_roots.ms_per_form"]["value"] is None
    assert metrics["roots.pair_conjugates.ms_per_form"]["value"] > 0


def test_refuses_to_run_without_the_checkout_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "accept-both", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
