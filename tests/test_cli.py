import argparse
import decimal
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import formred
import formred.cli
import formred.reduce
import formred.roots
from conftest import SEXTIC_COEFFS, corpora
from formred.cli import main, sqrt_display
from formred.errors import UnpairedRoot
from formred.hyperbolic import PointH2, in_fundamental_domain

SEXTIC_ARG = ",".join(str(c) for c in SEXTIC_COEFFS)
# a valid degree-8 form with a repeated factor whose directly computed roots do
# not pair into conjugates; the square-free split reduces it (the benchmark's
# exact-centroid corpus, seed 1, form 788)
REPEATED_ARG = ("2125,-160100,5277455,-99412838,1170477910,-8820369328,"
                "41544466652,-111821274136,131685104200")
# a square-free degree-10 form whose first solve fails the power-sum
# certificate, and which reduces in its reduced frame (the benchmark's
# hard-scramble corpus, seed 1, form 108)
UNCERTIFIED_ARG = ("12879481231461,1043370595706076,38035693887061687,821675477874391233,"
                   "11648731601551736482,113240078743956461637,764467819307000782976,"
                   "3538844379615929499156,10750608630599598972808,19353560352678605096256,"
                   "15678381139877300729248")
# a scrambled degree-11 form: a real root by its degree alone, where a root
# solve fails the power-sum certificate
ODD_ARG = ("5392716637468615,24739439890616177,51588149362809210,64544878733526380,"
           "53837250893064408,31434206799243982,13109755910247007,3905342920422471,"
           "814370977773176,113212569561078,9443190754184,358031058112")
# forms with a coefficient too large for a float: a classified failure
OUT_OF_RANGE_ARGS = [f"{10**400},0,{10**400}", f"1,0,{10**320}"]
# X^2 + 10^308 Z^2: its coefficients are floats, but its Aberth walk overflows
SOLVE_OUT_OF_RANGE_ARG = f"1,0,{10**308}"
SOLVE_OUT_OF_RANGE_MESSAGE = "root iterate (nan+nanj) leaves the float range"
# X (-10^-299 X + 30 Z): X divides it, so it has the real root 0, though its
# root solve would overflow
ZERO_LAST_ARG = f"-1/{10**299},30,0"
ZERO_LAST_MESSAGE = "rational root 0: the last coefficient is zero"
# X^6 + 10^5 X^2 Z^4 + Z^6/10: a Julia line-search trial point overflows exp
JULIA_OVERFLOW_ARG = "1,0,0,0,100000,0,1/10"
UNPAIRED_MESSAGE = "no conjugate partner for (9.4+0.2j) (closest at distance 1.805e-07)"
# `formred reduce` stdout recorded byte for byte: the worked sextic, a form with
# rational coefficients (centroid and both methods) and the first three forms
# of the benchmark's exact-centroid corpus, seed 1
REDUCE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "reduce_golden.json").read_text())
# `formred zero`, `center` and `julia` stdout, text and JSON, recorded byte for
# byte on the worked sextic and the rational-coefficient sextic above
ZERO_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "zero_golden.json").read_text())
# `formred batch` stdout, JSONL and CSV under each method, recorded byte for
# byte on one input: the worked sextic, the rational-coefficient sextic, the
# first six forms of the benchmark's accept-both and exact-centroid corpora
# (seed 1), REPEATED_ARG, UNCERTIFIED_ARG, a blank line, a real-root, an
# odd-degree, an unparsable and a coefficient-less line (UNCERTIFIED_ARG's
# line reduces; test_uncertified_line_is_one_record keeps a failure record)
BATCH_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "batch_golden.json").read_text())
# `formred geodata` stdout under each method, recorded byte for byte on the
# worked sextic, REPEATED_ARG and the rational-coefficient sextic
GEODATA_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "geodata_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def complex_roots_calls(monkeypatch):
    """The argument tuples of every formred.roots.complex_roots call, in order."""
    calls, complex_roots = [], formred.roots.complex_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return complex_roots(*args, **kwargs)

    monkeypatch.setattr(formred.roots, "complex_roots", counting)
    return calls


@pytest.fixture
def unpaired_root_set(monkeypatch):
    """Make root_set raise UnpairedRoot for the forms added to the returned set."""
    unpaired, root_set = set(), formred.reduce.root_set

    def fake(F):
        if F in unpaired:
            raise UnpairedRoot(UNPAIRED_MESSAGE)
        return root_set(F)

    monkeypatch.setattr(formred.reduce, "root_set", fake)
    return unpaired


class TestReduceCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "reduce", "--method", "centroid", "--coeffs", SEXTIC_ARG)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["matrix"] == [[1, 4], [0, 1]]
        assert payload["height_after"] == "12740"

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "reduce", "--coeffs", SEXTIC_ARG, "--format", "text")
        assert code == 0
        assert "43940 -> 12740" in out
        assert "[[1,4],[0,1]]" in out

    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "reduce", "--coeffs", SEXTIC_ARG, "--method", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["same_reduced_form"] is True

    def test_identity_reduction(self, capsys):
        code, out, _ = run(capsys, "reduce", "--coeffs", "1,0,1")
        assert code == 0
        assert json.loads(out)["matrix"] == [[1, 0], [0, 1]]

    def test_real_root_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "--coeffs", "1,0,-1")
        assert code == 2
        assert "real" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "reduce", "--coeffs", "1,0,1", "--method", "nope")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("reduce", "--coeffs", "1,0,1", "--format", "text", "--precision", "0"),
        ("zero", "--coeffs", "1,0,1", "--precision", "-3"),
    ])
    def test_precision_below_one_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --precision: must be finite and positive: "
                            f"{argv[-1]!r}\n")

    @pytest.mark.parametrize("precision", ["abc", "1.5"])
    def test_precision_not_an_int_is_a_usage_error(self, capsys, precision):
        code, out, err = run(capsys, "zero", "--coeffs", "1,0,1", "--precision", precision)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --precision: invalid int value: {precision!r}\n")

    @pytest.mark.parametrize("command", ["reduce", "zero"])
    @pytest.mark.parametrize("precision", [str(decimal.MAX_PREC + 1), "1" + "0" * 19,
                                           "1" + "0" * 400], ids=["MAX_PREC+1", "1e19", "1e400"])
    def test_precision_above_decimal_max_prec_is_a_usage_error(self, capsys, command, precision):
        # format_decimal cannot give more digits than a decimal context holds
        code, out, err = run(capsys, command, "--coeffs", "1,0,1", "--format", "text",
                             "--precision", precision)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --precision: must be at most {decimal.MAX_PREC}: "
                            f"{precision!r}\n")

    def test_precision_up_to_decimal_max_prec_is_kept(self, capsys):
        code, out, _ = run(capsys, "zero", "--coeffs", "1,0,1", "--method", "centroid",
                           "--precision", str(decimal.MAX_PREC))
        assert (code, out) == (0, "centroid: x = 0, y = 1, t = 0\n")

    def test_small_tolerance_and_precision_are_kept(self, capsys):
        code, out, _ = run(capsys, "zero", "--coeffs", "1,0,1", "--method", "centroid",
                           "--precision", "1")
        assert code == 0
        assert out.startswith("centroid: x = 0, y = 1")

    @pytest.mark.parametrize("argv", [
        ("batch", "--input", "-", "--precision", "3"),
        ("geodata", "--coeffs", "1,0,1", "--precision", "3"),
        ("geodata", "--coeffs", "1,0,1", "--format", "json"),
        ("center", "--coeffs", "1,0,1", "--method", "centroid"),
        ("julia", "--coeffs", "1,0,1", "--method", "julia"),
        # the certificate thresholds are constants: no command takes --tol
        ("reduce", "--coeffs", "1,0,1", "--tol", "1e-3"),
        ("zero", "--coeffs", "1,0,1", "--tol", "1e-3"),
        ("center", "--coeffs", "1,0,1", "--tol", "1e-3"),
        ("julia", "--coeffs", "1,0,1", "--tol", "1e-3"),
        ("batch", "--input", "-", "--tol", "1e-3"),
        ("geodata", "--coeffs", "1,0,1", "--tol", "1e-3"),
    ], ids=["batch precision", "geodata precision", "geodata format", "center method",
            "julia method", "reduce tol", "zero tol", "center tol", "julia tol", "batch tol",
            "geodata tol"])
    def test_options_a_command_never_reads_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "--coeffs", "garbage!!")
        assert code == 1
        assert "error" in err

    def test_unpaired_root_exit_code(self, capsys, unpaired_root_set):
        unpaired_root_set.add(formred.parse(SEXTIC_ARG))
        code, out, err = run(capsys, "reduce", "--coeffs", SEXTIC_ARG)
        assert code == 3
        assert out == ""
        assert err == f"error: {UNPAIRED_MESSAGE}\n"

    def test_uncertified_roots_exit_code(self, capsys, no_frame):
        code, out, err = run(capsys, "reduce", "--coeffs", UNCERTIFIED_ARG)
        assert code == 3
        assert out == ""
        assert err.startswith("error: root multiset fails the power-sum certificate")

    def test_formerly_uncertified_roots_reduce(self, capsys):
        code, out, err = run(capsys, "reduce", "--coeffs", UNCERTIFIED_ARG)
        assert (code, err) == (0, "")
        assert json.loads(out)["matrix"] == [[-81, 8], [10, -1]]

    @pytest.mark.parametrize("form", OUT_OF_RANGE_ARGS)
    def test_out_of_range_exit_code(self, capsys, form):
        code, out, err = run(capsys, "reduce", "--coeffs", form)
        assert (code, out, err) == (3, "", "error: form coefficients leave the float range\n")

    def test_solve_out_of_range_exit_code(self, capsys):
        code, out, err = run(capsys, "reduce", "--coeffs", SOLVE_OUT_OF_RANGE_ARG)
        assert (code, out, err) == (3, "", f"error: {SOLVE_OUT_OF_RANGE_MESSAGE}\n")

    @pytest.mark.parametrize("form", ["1,0,1/0", "x^2+1/0"])
    def test_zero_denominator_is_a_parse_error(self, capsys, form):
        code, out, err = run(capsys, "reduce", "--coeffs", form)
        assert (code, out, err) == (1, "", "error: cannot read coefficient from '1/0'\n")

    @pytest.mark.parametrize("form", [ZERO_LAST_ARG, "1,0,0", "1,0,1,0,0"])
    def test_zero_last_coefficient_is_a_real_root(self, capsys, complex_roots_calls, form):
        code, out, err = run(capsys, "reduce", "--coeffs", form)
        assert (code, out, err) == (2, "", f"error: {ZERO_LAST_MESSAGE}\n")
        assert complex_roots_calls == []

    def test_julia_line_search_past_the_float_range_reduces(self, capsys):
        code, out, err = run(capsys, "reduce", "--coeffs", JULIA_OVERFLOW_ARG, "--method", "julia")
        assert (code, err) == (0, "")
        assert json.loads(out)["diagnostics"]["gradient_norm"] <= 1e-10

    def test_repeated_factor_form_reduces(self, capsys):
        code, out, _ = run(capsys, "reduce", "--coeffs", REPEATED_ARG)
        assert code == 0
        report = json.loads(out)
        assert report["matrix"] == [[-19, -9], [-2, -1]]
        assert report["reduced"]["coefficients"] == ["1", "0", "7", "0", "15", "0", "13", "0", "4"]
        assert report["zero_point"]["exact_t"] == "443/47"
        assert report["zero_point"]["exact_u_sq"] == "70/2209"

    @pytest.mark.parametrize("form", ["x^8+4*x^6+6*x^4+4*x^2+1",  # (X^2 + Z^2)^4
                                      # (X^2 + Z^2)^3 (X^2 + XZ + Z^2)
                                      "x^8+x^7+4*x^6+3*x^5+6*x^4+3*x^3+4*x^2+x+1"])
    def test_power_of_a_factor_reduces_with_both_methods(self, capsys, form):
        code, out, err = run(capsys, "reduce", "--coeffs", form, "--method", "both")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        for method in ("centroid", "julia"):
            (a, b), (c, d) = payload[method]["matrix"]
            reduced = formred.transform(formred.parse(form), formred.UnimodularMatrix(a, b, c, d))
            assert [str(x) for x in reduced.coeffs] == payload[method]["reduced"]["coefficients"]

    @pytest.mark.parametrize("case", REDUCE_GOLDEN, ids=[c["name"] for c in REDUCE_GOLDEN])
    def test_report_bytes(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == 0
        assert out == case["stdout"]

    @pytest.mark.parametrize("case", REDUCE_GOLDEN, ids=[c["name"] for c in REDUCE_GOLDEN])
    def test_report_bytes_on_repeated_calls(self, capsys, case):
        formred.cli._parser.cache_clear()
        for _ in range(3):
            assert run(capsys, *case["argv"]) == (0, case["stdout"], "")


class TestZeroCenterJulia:
    def test_zero_both_methods(self, capsys):
        code, out, _ = run(capsys, "zero", "--coeffs", SEXTIC_ARG)
        assert code == 0
        assert "centroid:" in out and "julia:" in out
        assert "t = 230/61" in out
        assert "gradient_norm" in out
        assert "zero_gap" in out

    def test_center_exact_line(self, capsys):
        code, out, _ = run(capsys, "center", "--coeffs", SEXTIC_ARG)
        assert code == 0
        assert "t = 230/61, u = (14/61)*sqrt(426)" in out
        assert "in_fundamental_domain = false" in out

    def test_center_unit_form(self, capsys):
        code, out, _ = run(capsys, "zero", "--coeffs", "1,0,1")
        assert code == 0
        assert out.count("x = 0") == 2  # both methods at the same point

    def test_julia_command(self, capsys):
        code, out, _ = run(capsys, "julia", "--coeffs", SEXTIC_ARG)
        assert code == 0
        assert "gradient_norm" in out

    @pytest.mark.parametrize("case", ZERO_GOLDEN, ids=[c["name"] for c in ZERO_GOLDEN])
    def test_output_bytes(self, capsys, case):
        assert run(capsys, *case["argv"]) == (0, case["stdout"], "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_zero_solves_roots_once(self, capsys, monkeypatch, fmt):
        calls, complex_roots = [], formred.roots.complex_roots

        def counting(*args, **kwargs):
            calls.append(args)
            return complex_roots(*args, **kwargs)

        monkeypatch.setattr(formred.roots, "complex_roots", counting)
        code, out, _ = run(capsys, "zero", "--coeffs", SEXTIC_ARG, "--method", "both",
                           "--format", fmt)
        assert code == 0 and "julia" in out
        assert len(calls) == 1


class TestBatch:
    def test_three_line_file(self, capsys, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\nunit,1,0,1\nbad,1,0,-1\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # three records plus summary
        records = [json.loads(line) for line in lines]
        assert [r["id"] for r in records[:3]] == ["demo", "unit", "bad"]
        assert records[0]["status"] == "ok"
        assert records[0]["centroid"]["height_after"] == "12740"
        assert records[1]["status"] == "ok"
        assert records[2]["status"] == "real_root_detected"
        summary = records[3]
        assert summary["type"] == "summary"
        assert summary["records"] == 3 and summary["ok"] == 2
        assert summary["real_root_detected"] == 1

    def test_matches_single_run(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\n")
        code, out, _ = run(capsys, "batch", "--input", str(path), "--method", "centroid")
        record = json.loads(out.strip().splitlines()[0])
        code2, single, _ = run(capsys, "reduce", "--coeffs", SEXTIC_ARG)
        report = json.loads(single)
        assert record["centroid"]["matrix"] == report["matrix"]
        assert record["centroid"]["zero_point"] == report["zero_point"]

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["records"] == 0 and summary["ok"] == 0

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\nbad,1,0,-1\n")
        code, out, _ = run(capsys, "batch", "--input", str(path), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id,status,degree")
        assert lines[1].startswith("demo,ok,6,43940,12740")
        assert lines[2].startswith("bad,real_root_detected")
        assert any(line.startswith("# records = 2") for line in lines)

    def test_unpaired_root_is_one_record(self, capsys, tmp_path, unpaired_root_set):
        unpaired_root_set.add(formred.parse(REPEATED_ARG))
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\nunpaired,{REPEATED_ARG}\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        *records, summary = [json.loads(line) for line in out.strip().splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [("demo", "ok"),
                                                            ("unpaired", "unpaired_root")]
        assert "conjugate partner" in records[1]["error"]
        assert summary["records"] == 2 and summary["ok"] == 1 and summary["errors"] == 1

    @pytest.mark.parametrize("form", OUT_OF_RANGE_ARGS)
    def test_out_of_range_line_is_one_record(self, capsys, tmp_path, form):
        path = tmp_path / "forms.txt"
        path.write_text(f"unit,1,0,1\nhuge,{form}\nafter,1,2,5\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [
            ("unit", "ok"), ("huge", "convergence_failure"), ("after", "ok")]
        assert records[1]["error"] == "form coefficients leave the float range"
        assert summary["records"] == 3 and summary["ok"] == 2 and summary["errors"] == 1

    def test_uncertified_line_is_one_record(self, capsys, monkeypatch, no_frame):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"a,1,0,1\nb,{UNCERTIFIED_ARG}\nc,1,0,2\n"))
        code, out, _ = run(capsys, "batch", "--input", "-")
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [
            ("a", "ok"), ("b", "convergence_failure"), ("c", "ok")]
        assert records[1]["error"] == "root multiset fails the power-sum certificate (7.970e-03)"
        assert (summary["records"], summary["ok"], summary["errors"]) == (3, 2, 1)

    def test_solve_out_of_range_line_is_one_record(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f"a,1,0,1\nb,{SOLVE_OUT_OF_RANGE_ARG}\nc,1,0,2\n"))
        code, out, _ = run(capsys, "batch", "--input", "-")
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [
            ("a", "ok"), ("b", "convergence_failure"), ("c", "ok")]
        assert records[1]["error"] == SOLVE_OUT_OF_RANGE_MESSAGE
        assert (summary["records"], summary["ok"], summary["errors"]) == (3, 2, 1)

    def test_zero_denominator_line_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a,1,0,1/0\nb,1,0,1\n"))
        code, out, _ = run(capsys, "batch", "--input", "-")
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [("a", "parse_error"), ("b", "ok")]
        assert records[0]["error"] == "cannot read coefficient from '1/0'"
        assert (summary["records"], summary["ok"], summary["errors"]) == (2, 1, 1)

    def test_julia_overflow_line_is_reduced_and_the_next_line_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"a,{JULIA_OVERFLOW_ARG}\nb,1,0,1\n"))
        code, out, _ = run(capsys, "batch", "--input", "-", "--method", "julia")
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [("a", "ok"), ("b", "ok")]
        assert (summary["records"], summary["ok"], summary["errors"]) == (2, 2, 0)

    def test_height_increase_is_counted(self, capsys, tmp_path):
        # the centroid of X^4 - X^3 Z - X Z^3 + 2 Z^4 has x = 0.5119..., and the one
        # translation that moves it into the domain raises the height from 2 to 3
        path = tmp_path / "forms.txt"
        path.write_text("up,1,-1,0,-1,2\n")
        code, out, _ = run(capsys, "batch", "--input", str(path), "--method", "centroid")
        assert code == 0
        record, summary = out.splitlines()
        assert json.loads(record)["centroid"]["height_after"] == "3"
        assert '"height_increased":1' in summary
        assert json.loads(summary)["height_reduced"] == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "batch", "--input", "/nonexistent/path.txt")
        assert code == 1
        assert "cannot open" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\nunit,1,0,1\n")
        _, first, _ = run(capsys, "batch", "--input", str(path))
        _, second, _ = run(capsys, "batch", "--input", str(path))
        assert first == second

    @pytest.mark.parametrize("case", BATCH_GOLDEN["cases"],
                             ids=[c["name"] for c in BATCH_GOLDEN["cases"]])
    def test_output_bytes(self, capsys, tmp_path, case):
        path = tmp_path / "forms.txt"
        path.write_text(BATCH_GOLDEN["input"])
        assert run(capsys, *case["argv"], "--input", str(path)) == (0, case["stdout"], "")

    def test_blank_ids_get_the_line_number(self, capsys, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{SEXTIC_ARG}\n,1,0,1\n\n,\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        *records, summary = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"]) for r in records] == [
            ("demo", "ok"), ("2", "ok"), ("4", "parse_error")]
        assert summary["records"] == 3

    def test_records_are_printed_as_they_are_built(self, capsys, monkeypatch):
        printed = []

        def stdin():
            yield f"first,{SEXTIC_ARG}\n"
            printed.append(capsys.readouterr().out)
            yield "second,1,0,1\n"

        monkeypatch.setattr(sys, "stdin", stdin())
        code, rest, _ = run(capsys, "batch", "--input", "-", "--format", "csv")
        assert code == 0
        assert printed[0].splitlines()[1].startswith("first,ok,6,43940,12740")
        assert rest.splitlines()[0].startswith("second,ok,2")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_line_is_one_parse_error(self, capsys, tmp_path, source, fmt):
        data = b"a,1,0,1\nb,1,\xff,1\nc,1,2,5\n"
        if source == "file":
            path = tmp_path / "forms.txt"
            path.write_bytes(data)
            code, out, err = run(capsys, "batch", "--input", str(path), "--format", fmt)
        else:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from formred.cli import main; sys.exit(main(sys.argv[1:]))",
                 "batch", "--input", "-", "--format", fmt],
                input=data, env=_src_env(), capture_output=True)
            code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if fmt == "csv":
            assert [line.split(",")[:2] for line in lines[1:4]] == [
                ["a", "ok"], ["b", "parse_error"], ["c", "ok"]]
            assert {"# records = 3", "# ok = 2", "# errors = 1"} <= set(lines[4:])
        else:
            *records, summary = [json.loads(line) for line in lines]
            assert [(r["id"], r["status"]) for r in records] == [
                ("a", "ok"), ("b", "parse_error"), ("c", "ok")]
            assert records[1]["error"] == "cannot read coefficient from '\ufffd'"
            assert (summary["records"], summary["ok"], summary["errors"]) == (3, 2, 1)

    @pytest.mark.parametrize("form", [SEXTIC_ARG, REPEATED_ARG])
    def test_both_methods_solve_roots_as_compare_methods_does(self, capsys, tmp_path,
                                                             complex_roots_calls, form):
        path = tmp_path / "forms.txt"
        path.write_text(f"demo,{form}\n")
        assert run(capsys, "batch", "--input", str(path), "--method", "both")[0] == 0
        batch_calls = len(complex_roots_calls)
        complex_roots_calls.clear()
        formred.compare_methods(formred.parse(form))
        assert batch_calls == len(complex_roots_calls) > 0


# X^2 + Z^2 under (75025 46368; 46368 28657) and under a smaller Fibonacci
# matrix: totally complex, but their float roots land within the realness
# threshold of the axis (exit 2) or fail the power-sum certificate (exit 3)
@pytest.mark.xfail(strict=True, reason="ROADMAP items 7 and 9: ill-conditioned quadratics")
@pytest.mark.parametrize("coeffs", ["7778742049,9615053952,2971215073",
                                    "165580141,204668310,63245986"])
def test_ill_conditioned_quadratic_reduces_to_the_unit_form(capsys, coeffs):
    code, out, _ = run(capsys, "reduce", "--coeffs", coeffs)
    assert code == 0
    assert json.loads(out)["reduced"]["coefficients"] == ["1", "0", "1"]


# 10^307 X^2 + Z^2: totally complex, with roots +-i 10^-153.5, but the root
# certificates, scaled by 1 + |r|, pass one estimate of modulus 9e-152 taken
# twice, and the realness threshold 1e-8 * (1 + |r|) calls it real (exit 2)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: roots of tiny modulus read as real")
def test_tiny_roots_are_not_real(capsys):
    code, out, _ = run(capsys, "reduce", "--coeffs", f"{10**307},0,1")
    assert code == 0
    assert json.loads(out)["reduced"]["coefficients"] == ["1", "0", str(10**307)]


class TestGeodata:
    def test_structure(self, capsys):
        code, out, _ = run(capsys, "geodata", "--coeffs", SEXTIC_ARG)
        assert code == 0
        payload = json.loads(out)
        for key in ("roots", "pairs", "zeros", "reduction", "fundamental_domain"):
            assert key in payload
        assert len(payload["pairs"]) == payload["degree"] // 2
        assert len(payload["roots"]) == payload["degree"]
        assert set(payload["zeros"]) == {"centroid", "julia"}

    def test_path_ends_in_domain(self, capsys):
        code, out, _ = run(capsys, "geodata", "--coeffs", SEXTIC_ARG)
        payload = json.loads(out)
        path = payload["reduction"]["path"]
        assert len(path) >= 2
        assert in_fundamental_domain(PointH2(*path[-1]))

    def test_repeated_factor_form(self, capsys):
        code, out, _ = run(capsys, "geodata", "--coeffs", REPEATED_ARG)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 8 and len(payload["pairs"]) == 4
        assert payload["zeros"]["centroid"]["exact_t"] == "443/47"
        assert payload["reduction"]["matrix"] == [[-19, -9], [-2, -1]]

    # exact-centroid corpus forms (seed 1) whose reduced zero point is a tie:
    # exactly i (#183), and on Re z = 1/2 (#458)
    @pytest.mark.parametrize("index", [183, 458])
    @pytest.mark.parametrize("method", ["both", "centroid"])
    def test_path_ends_where_reduce_does(self, capsys, index, method):
        coeffs = corpora.generate("exact-centroid", 1, index + 1)[index]
        code, out, _ = run(capsys, "geodata", "--coeffs", ",".join(map(str, coeffs)),
                           "--method", method)
        assert code == 0
        reduction = json.loads(out)["reduction"]
        report = formred.reduce_form(formred.BinaryForm(coeffs))
        M = report.matrix
        assert reduction["matrix"] == [[M.a, M.b], [M.c, M.d]]
        assert reduction["path"][-1] == [report.reduced_point.point.x,
                                         report.reduced_point.point.y]

    @pytest.mark.parametrize("case", GEODATA_GOLDEN, ids=[c["name"] for c in GEODATA_GOLDEN])
    def test_output_bytes(self, capsys, case):
        assert run(capsys, *case["argv"]) == (0, case["stdout"], "")


@pytest.mark.parametrize("command", ["zero", "center", "julia", "geodata"])
def test_odd_degree_fails_before_the_root_solve(capsys, complex_roots_calls, command):
    code, out, err = run(capsys, command, "--coeffs", ODD_ARG)
    assert (code, out) == (2, "")
    assert err == "error: odd-degree real forms always have a real root\n"
    assert complex_roots_calls == []


def test_readme_names_only_options_a_command_takes():
    # every --option in README's CLI section, so a removed option cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    [subparsers] = [a for a in formred.cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    accepted = {option for command in subparsers.choices.values()
                for option in command._option_string_actions}
    assert documented and documented <= accepted, documented - accepted


@pytest.mark.parametrize("command", ["reduce", "zero", "center", "julia", "geodata"])
@pytest.mark.parametrize("coeffs", ["-1,0,-1", "-x^2-z^2", "-1,-1,-2,-1,-1"])
def test_coeffs_value_may_start_with_a_minus(capsys, command, coeffs):
    joined = run(capsys, command, f"--coeffs={coeffs}")
    assert joined[0] == 0
    assert run(capsys, command, "--coeffs", coeffs) == joined


class TestParserReuse:
    # one process running several commands, a usage error, --help and a
    # failure: UNCERTIFIED_ARG with a reduced frame that finds nothing
    # (no_frame), in this process and in each fresh one
    FRESH = ("import sys, formred.roots; formred.roots._frame_solve = lambda F, poly, xs: None; "
             "from formred.cli import main; sys.exit(main(sys.argv[1:]))")
    SEQUENCE = (
        ("reduce", "--coeffs", SEXTIC_ARG, "--method", "both"),
        ("zero", "--coeffs", SEXTIC_ARG),
        ("reduce", "--coeffs", "1,0,1", "--method", "nope"),
        ("--help",),
        ("reduce", "--coeffs", UNCERTIFIED_ARG),
        ("reduce", "--coeffs", SEXTIC_ARG, "--format", "text"),
    )

    def test_in_process_calls_match_fresh_interpreters(self, capsys, monkeypatch, no_frame):
        src = str(Path(formred.__file__).resolve().parent.parent)
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("FORMRED_LOG", None)
        monkeypatch.delenv("FORMRED_LOG", raising=False)
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in self.SEQUENCE:
            proc = subprocess.run([sys.executable, "-c", self.FRESH, *argv],
                                  env=env, capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 3, 0]
        assert [run(capsys, *argv) for argv in self.SEQUENCE] == fresh

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built, build_parser = [], formred.cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(formred.cli, "build_parser", counting)
        formred.cli._parser.cache_clear()
        for argv in self.SEQUENCE * 2:
            run(capsys, *argv)
        assert len(built) == 1


def test_sqrt_display():
    from fractions import Fraction

    assert sqrt_display(Fraction(83496, 3721)) == "(14/61)*sqrt(426)"
    assert sqrt_display(Fraction(9, 4)) == "3/2"
    assert sqrt_display(Fraction(2)) == "sqrt(2)"


def test_schema_version_in_every_json_payload(capsys):
    for argv in (["reduce", "--coeffs", "1,0,1"],
                 ["zero", "--coeffs", "1,0,1", "--format", "json"],
                 ["center", "--coeffs", "1,0,1", "--format", "json"],
                 ["julia", "--coeffs", "1,0,1", "--format", "json"],
                 ["geodata", "--coeffs", "1,0,1"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["schema_version"] == 1


def test_reduction_path_does_not_import_numpy():
    code = f"""
import contextlib, io, sys
import formred, formred.cli
from formred import BinaryForm, compare_methods
compare_methods(BinaryForm({SEXTIC_COEFFS!r}))
for method in ("centroid", "both"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert formred.cli.main(["reduce", "--coeffs", "{SEXTIC_ARG}", "--method", method]) == 0
print("numpy" in sys.modules)
"""
    src = str(Path(formred.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# FORMRED_LOG=DEBUG stderr of `formred reduce --method both` on the worked sextic
SEXTIC_DEBUG_LOG = [
    "DEBUG:formred.roots:aberth converged in 10 iterations",
    "DEBUG:formred.roots:recovered exact quadratic factors for "
    "x^6 - 24*x^5 + 306*x^4 - 2308*x^3 + 10933*x^2 - 29068*x + 43940",
    "DEBUG:formred.roots:aberth converged in 10 iterations",
    "DEBUG:formred.julia:julia_zero_real: 3 iterations, gradient 1.04e-15",
]


def _src_env(**extra):
    """The environment with this checkout's src/ on PYTHONPATH, FORMRED_LOG unset."""
    src = str(Path(formred.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("FORMRED_LOG", None)
    return dict(env, **extra)


def test_import_loads_only_what_a_command_runs():
    # -S: an installation's site hooks may import typing on their own
    code = f"""
import contextlib, io, sys
import formred, formred.cli
print(sorted({{'argparse', 'typing', 'formred.paramspace', 'dataclasses', 'inspect',
              'logging', 'formred.julia'}} & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    assert formred.cli.main(["reduce", "--coeffs", "{SEXTIC_ARG}", "--method", "centroid"]) == 0
print(sorted({{'logging', 'formred.julia'}} & set(sys.modules)))
formred.compare_methods(formred.parse("{SEXTIC_ARG}"))
print('formred.julia' in sys.modules)
import formred.paramspace
print(sorted({{'dataclasses', 'logging'}} & set(sys.modules)))
# logging imported after formred: a level set then still gets the records
import logging
logging.basicConfig(format="%(name)s:%(message)s")
logging.getLogger("formred.roots").setLevel(logging.DEBUG)
formred.reduce_form(formred.parse("{SEXTIC_ARG}"))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True", "[]"]
    assert proc.stderr.splitlines() == [line.split(":", 1)[1] for line in SEXTIC_DEBUG_LOG[:2]]


def test_debug_log_goes_to_stderr_only():
    cmd = [sys.executable, "-m", "formred.cli", "reduce", "--method", "both",
           "--coeffs", SEXTIC_ARG]
    quiet = subprocess.run(cmd, env=_src_env(), capture_output=True, text=True)
    debug = subprocess.run(cmd, env=_src_env(FORMRED_LOG="DEBUG"), capture_output=True,
                           text=True)
    assert quiet.returncode == debug.returncode == 0, debug.stderr
    assert quiet.stderr == ""
    assert debug.stderr.splitlines() == SEXTIC_DEBUG_LOG
    assert debug.stdout == quiet.stdout


def test_debug_records_reach_a_level_set_after_import(caplog):
    caplog.set_level(logging.DEBUG, logger="formred.roots")
    formred.reduce_form(formred.BinaryForm(SEXTIC_COEFFS))
    assert [f"DEBUG:{r.name}:{r.getMessage()}" for r in caplog.records] == SEXTIC_DEBUG_LOG[:2]
