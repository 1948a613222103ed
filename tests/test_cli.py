"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detpowers
from detpowers import cli
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    PowerTerm,
    krishna_makam_det3,
    main_decomposition,
)
from detpowers.symmetry import conjugate_decomposition
from detpowers.verify import verify_power_decomposition


def child_env():
    """The environment for a child interpreter, with the package's ``src``
    directory first on its PYTHONPATH, however this session found it."""
    src = str(Path(detpowers.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join((src, path))}


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out)


class TestDecomposeJson:
    def test_main_d2_has_four_terms(self, capsys):
        code, obj = run_json(capsys, "decompose", "--d", "2",
                             "--scheme", "main")
        assert code == 0
        assert obj["d"] == 2
        assert obj["scheme"] == "main"
        assert obj["scale"] == 4
        assert obj["target"] == "determinant"
        assert len(obj["terms"]) == 4
        for term in obj["terms"]:
            assert set(term) == {"index", "coeff", "form", "exponent"}
            assert term["exponent"] == 2

    def test_coeff_encoding(self, capsys):
        code, obj = run_json(capsys, "decompose", "--d", "3",
                             "--scheme", "main")
        assert code == 0
        coeffs = {tuple(t["coeff"]["num"]) for t in obj["terms"]}
        # every coefficient is a sign, encoded over the power basis of
        # the order-3 field (phi(3) = 2 slots)
        assert coeffs <= {(1, 0), (-1, 0)}
        for term in obj["terms"]:
            c = term["coeff"]
            assert c["order"] == 3
            assert c["den"] == 1
            assert c["root_power_combination"] == [
                [k, v] for k, v in enumerate(c["num"]) if v]

    def test_krishna_makam_shape(self, capsys):
        code, obj = run_json(capsys, "decompose", "--d", "3",
                             "--scheme", "krishna-makam")
        assert code == 0
        assert obj["scheme"] == "krishna-makam"
        assert [t["sign"] for t in obj["terms"]] == [1, 1, -1, -1, 1]
        assert all(len(t["forms"]) == 3 for t in obj["terms"])


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits",
                                        "monomial"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_power_schemes(self, scheme, d):
        dec = SCHEME_BUILDERS[scheme](d)
        text = json.dumps(cli.decomposition_to_obj(dec), sort_keys=True)
        assert cli.parse_decomposition(text) == dec

    def test_product_scheme(self):
        pd = krishna_makam_det3()
        text = json.dumps(cli.product_to_obj(pd), sort_keys=True)
        assert cli.parse_decomposition(text) == pd

    def test_cli_emission_parses_back(self, capsys):
        code, out = run_cli(capsys, "decompose", "--d", "3",
                            "--scheme", "classical")
        assert code == 0
        assert cli.parse_decomposition(out) == SCHEME_BUILDERS["classical"](3)

    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits"])
    def test_conjugated_decompositions(self, scheme):
        dec = SCHEME_BUILDERS[scheme](3)
        zero, one = Cyc.zero(dec.order), Cyc.one(dec.order)
        a = ((one, Cyc.from_int(dec.order, 2), zero), (zero, one, zero),
             (zero, zero, one))
        b = ((one, zero, zero), (zero, one, zero), (zero, -one, one))
        conj = conjugate_decomposition(a, b, dec)
        text = json.dumps(cli.decomposition_to_obj(conj), sort_keys=True)
        parsed = cli.parse_decomposition(text)
        assert parsed == conj
        assert hash(parsed) == hash(conj)
        assert [t.index for t in parsed.terms] == [t.index for t in dec.terms]
        assert verify_power_decomposition(parsed).equal

    def test_tampered_combination_rejected(self):
        dec = SCHEME_BUILDERS["main"](2)
        obj = cli.decomposition_to_obj(dec)
        obj["terms"][0]["coeff"]["root_power_combination"] = [[0, 5]]
        with pytest.raises(ValueError):
            cli.parse_decomposition(json.dumps(obj))


# the one-line LaTeX output of `decompose --format latex`, byte for byte
PINNED_LATEX = [
    ("main", "2",
     r"4 \, \det X = -\left(-x_{1,1} + x_{2,2}\right)^{2} + "
     r"\left(x_{1,1} + x_{2,2}\right)^{2} + \left(-x_{1,2} + "
     r"x_{2,1}\right)^{2} - \left(x_{1,2} + x_{2,1}\right)^{2}" "\n"),
    ("classical", "2",
     r"4 \, \det X = \left(x_{1,1} + x_{2,2}\right)^{2} - "
     r"\left(x_{1,1} - x_{2,2}\right)^{2} - \left(x_{1,2} + "
     r"x_{2,1}\right)^{2} + \left(x_{1,2} - x_{2,1}\right)^{2}" "\n"),
    ("gurvits", "2",
     r"2 \, \det X = \left(x_{1,1} + x_{2,2}\right)^{2} - "
     r"\left(x_{2,2}\right)^{2} - \left(x_{1,1}\right)^{2} - "
     r"\left(x_{1,2} + x_{2,1}\right)^{2} + "
     r"\left(x_{2,1}\right)^{2} + \left(x_{1,2}\right)^{2}" "\n"),
    ("monomial", "2",
     r"4 \, x_{1,1} x_{2,2} = \left(x_{1,1} + x_{2,2}\right)^{2} - "
     r"\left(x_{1,1} - x_{2,2}\right)^{2}" "\n"),
    ("krishna-makam", "3",
     r"\det X = x_{1,1} \left(x_{2,2} + x_{2,3}\right) "
     r"\left(x_{3,1} + x_{3,3}\right) + \left(x_{1,2} + "
     r"x_{1,3}\right) x_{2,1} x_{3,2} - \left(x_{1,1} + "
     r"x_{1,3}\right) x_{2,2} x_{3,1} - x_{1,2} \left(x_{2,1} + "
     r"x_{2,3}\right) \left(x_{3,2} + x_{3,3}\right) + "
     r"\left(-x_{1,1} + x_{1,2}\right) x_{2,3} \left(x_{3,1} + "
     r"x_{3,2} + x_{3,3}\right)" "\n"),
]


class TestLatex:
    @pytest.mark.parametrize("scheme, d, expected", PINNED_LATEX,
                             ids=[row[0] for row in PINNED_LATEX])
    def test_pinned_output(self, capsys, scheme, d, expected):
        code, out = run_cli(capsys, "decompose", "--d", d,
                            "--scheme", scheme, "--format", "latex")
        assert code == 0
        assert out == expected

    def test_monomial_d3_is_the_xyz_identity(self, capsys):
        code, out = run_cli(capsys, "decompose", "--d", "3",
                            "--scheme", "monomial", "--format", "latex")
        assert code == 0
        assert out.startswith("24 \\, x_{1,1} x_{2,2} x_{3,3} = ")
        assert out.count("^{3}") == 4
        assert "\\left(x_{1,1} + x_{2,2} + x_{3,3}\\right)^{3}" in out
        assert "- \\left(x_{1,1} + x_{2,2} - x_{3,3}\\right)^{3}" in out
        assert out.rstrip().endswith(
            "+ \\left(x_{1,1} - x_{2,2} - x_{3,3}\\right)^{3}")

    def test_main_d3_has_18_cubes(self, capsys):
        code, out = run_cli(capsys, "decompose", "--d", "3",
                            "--scheme", "main", "--format", "latex")
        assert code == 0
        assert out.startswith("18 \\, \\det X = ")
        assert out.count("^{3}") == 18
        assert "\\omega x_{1,1}" in out
        assert "\\omega^{2}" in out

    def test_product_d3(self, capsys):
        code, out = run_cli(capsys, "decompose", "--d", "3",
                            "--scheme", "krishna-makam", "--format", "latex")
        assert code == 0
        assert out.startswith("\\det X = x_{1,1} \\left(")
        assert out.count("\\left(") == 8  # bare single-variable factors skip parens

    def test_cyc_latex_values(self):
        assert cli.cyc_latex(Cyc.one(4)) == "1"
        assert cli.cyc_latex(-Cyc.one(4)) == "-1"
        assert cli.cyc_latex(omega(5, 1)) == "\\omega"
        assert cli.cyc_latex(omega(5, 3)) == "\\omega^{3}"
        assert cli.cyc_latex(Cyc.one(3) / 2) == "\\tfrac{1}{2}"
        mixed = omega(5, 1) + Cyc.one(5)
        assert cli.cyc_latex(mixed) == "\\bigl(1 + \\omega\\bigr)"
        negative = omega(5, 1) - Cyc.one(5) * 2
        assert cli.cyc_latex(negative) == "\\bigl(-2 + \\omega\\bigr)"

    def test_bounds_latex_contains_lower_bound(self, capsys):
        code, out = run_cli(capsys, "bounds", "--format", "latex")
        assert code == 0
        assert "3 & 24 & 20 & 24 & 18 & 18 & 17 \\\\" in out
        assert "2 & 4 & 4 & 6 & -- & 4 & 4 \\\\" in out


class TestVerifyCommand:
    def test_main_d4_both_modes(self, capsys):
        code, obj = run_json(capsys, "verify", "--d", "4")
        assert code == 0
        assert obj["ok"] is True
        by_mode = {r["mode"]: r for r in obj["results"] if "mode" in r}
        assert by_mode["expansion"]["term_count"] == 96
        assert by_mode["expansion"]["equal"] is True
        assert by_mode["streaming"]["equal"] is True
        agree = [r for r in obj["results"] if r.get("check") == "modes_agree"]
        assert agree and agree[0]["ok"] is True

    def test_product_identity(self, capsys):
        code, obj = run_json(capsys, "verify", "--d", "3",
                             "--scheme", "krishna-makam")
        assert code == 0
        assert obj["results"][0]["equal"] is True

    def test_report_schema(self, capsys):
        code, obj = run_json(capsys, "verify", "--d", "2",
                             "--scheme", "classical")
        assert code == 0
        assert set(obj) == {"command", "ok", "results", "version"}
        assert obj["command"] == "verify"
        assert obj["version"] == cli.__version__

    def test_failing_verify_reports_witness(self, capsys, monkeypatch):
        dec = main_decomposition(3)
        term = dec.terms[7]
        terms = list(dec.terms)
        terms[7] = PowerTerm(term.index, term.coeff * (-1), term.form,
                             term.exponent)
        flipped = dataclasses.replace(dec, terms=tuple(terms))
        monkeypatch.setitem(cli.SCHEME_BUILDERS, "main", lambda d: flipped)
        code, obj = run_json(capsys, "verify", "--d", "3", "--jobs", "1")
        assert code == 1
        assert obj["ok"] is False
        by_mode = {r["mode"]: r for r in obj["results"] if "mode" in r}
        witness = by_mode["expansion"]["witness"]
        assert set(witness) == {"monomial", "got", "want"}
        assert all(len(entry) == 3 for entry in witness["monomial"])
        assert cli.obj_to_cyc(witness["got"]) \
            != cli.obj_to_cyc(witness["want"])
        # streaming checks the flipped object against the scheme's own
        # builder, not the patched registry entry, so both engines reject it
        # with the same witness and the modes agree
        assert by_mode["streaming"]["equal"] is False
        assert by_mode["streaming"]["witness"] == witness
        agree = [r for r in obj["results"] if r.get("check") == "modes_agree"]
        assert agree[0]["ok"] is True


class TestCheckCommands:
    def test_lemma_check(self, capsys):
        code, obj = run_json(capsys, "lemma-check", "--d", "3")
        assert code == 0
        assert obj["results"][0]["matches"] is True
        assert obj["results"][0]["monomial_count"] == 165

    def test_independence(self, capsys):
        code, obj = run_json(capsys, "independence", "--d", "3")
        assert code == 0
        rank_row = [r for r in obj["results"] if r["check"] == "rank"][0]
        assert rank_row["rank"] == 18
        assert rank_row["expected"] == 18

    def test_symmetries_full_d2(self, capsys):
        code, obj = run_json(capsys, "symmetries", "--d", "2", "--full")
        assert code == 0
        orders = obj["results"][0]
        assert orders["preserving_order"] == 8
        assert orders["matches_printed"] is True
        action = [r for r in obj["results"] if r["check"] == "action"][0]
        assert action["mode"] == "full"

    def test_symmetries_d5_mismatch_is_flagged_not_failed(self, capsys):
        code, obj = run_json(capsys, "symmetries", "--d", "5")
        assert code == 0
        orders = obj["results"][0]
        assert orders["preserving_order"] == 30000
        assert orders["printed_order"] == 37500
        assert orders["matches_printed"] is False
        assert orders["matches_formula"] is True
        assert obj["ok"] is True

    def test_symmetries_d4_reports_transpose_witness(self, capsys):
        code, obj = run_json(capsys, "symmetries", "--d", "4")
        assert code == 0
        row = [r for r in obj["results"]
               if r["check"] == "transpose_closure"][0]
        assert row["closed"] is False
        assert row["expected_closed"] is False
        assert row["ok"] is True
        assert row["row_swap_witness"] == [1, [2, 1, 3, 4]]
        assert row["witness_count"] > 0

    def test_equations_d2(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "2")
        assert code == 0
        locus = [r for r in obj["results"] if r["check"] == "locus"][0]
        assert locus["p"] == 3
        assert locus["projective_points"] == 4
        assert locus["affine_solutions"] == 8

    def test_equations_explicit_prime(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "2",
                             "--prime", "5")
        assert code == 0
        locus = [r for r in obj["results"] if r["check"] == "locus"][0]
        assert locus["p"] == 5
        assert locus["projective_points"] == 4
        assert locus["affine_solutions"] == 16

    def test_equations_d4_fails_honestly(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "4")
        assert code == 1
        assert obj["ok"] is False
        rows = {r["check"]: r for r in obj["results"]}
        assert rows["quadric_vanishing"]["ok"] is True
        extra = rows["extra_generators"]
        assert extra["squares_vanish"] is False
        assert extra["square_failure_count"] == 768
        assert extra["differences_vanish"] is True
        assert extra["ok"] is False
        assert rows["locus"]["ok"] is True

    def test_equations_d5_skips_locus(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "5")
        assert code == 0
        locus = [r for r in obj["results"] if r["check"] == "locus"][0]
        assert "skipped" in locus

    def test_bounds_json(self, capsys):
        code, obj = run_json(capsys, "bounds")
        assert code == 0
        assert len(obj["results"]) == 8
        d3 = [r for r in obj["results"] if r["d"] == 3][0]
        assert d3 == {"d": 3, "classical": 24, "derksen": 20, "gurvits": 24,
                      "cglv": 18, "new": 18, "lower": 17}


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ("decompose", "--d", "9", "--scheme", "main"),
        ("decompose", "--d", "4", "--scheme", "krishna-makam"),
        ("verify", "--d", "6", "--scheme", "classical"),
        ("lemma-check", "--d", "6"),
        ("independence", "--d", "5"),
        ("symmetries", "--d", "5", "--full"),
        ("equations", "--d", "5", "--prime", "11"),
        ("equations", "--d", "3", "--prime", "6"),
        ("bounds", "--d", "25"),
        ("decompose", "--d", "3", "--scheme", "bogus"),
        ("verify", "--d", "3", "--format", "latex"),
        ("no-such-command",),
    ])
    def test_usage_errors_exit_2(self, capsys, args):
        code = cli.main(list(args))
        capsys.readouterr()
        assert code == 2

    def test_force_lifts_caps(self, capsys):
        code, obj = run_json(capsys, "independence", "--d", "4", "--force")
        assert code == 0
        rank_row = [r for r in obj["results"] if r["check"] == "rank"][0]
        assert rank_row["rank"] == 96

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


class TestDeterminism:
    def test_verify_jobs_byte_identical(self, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "detpowers.cli", "verify", "--d", "3",
                 "--scheme", "main", "--jobs", jobs],
                capture_output=True, check=True, env=child_env())
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert b'"ok": true' in outputs[0]

    def test_symmetries_seed_reproducible(self, capsys):
        first = run_cli(capsys, "symmetries", "--d", "4", "--seed", "7")
        second = run_cli(capsys, "symmetries", "--d", "4", "--seed", "7")
        assert first == second
        code, obj = run_json(capsys, "symmetries", "--d", "4", "--seed", "7")
        action = [r for r in obj["results"] if r["check"] == "action"][0]
        assert action["seed"] == 7
        assert action["bad"] == 0

    def test_out_writes_same_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "lemma-check", "--d", "2",
                            "--out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    def test_timings_stay_off_stdout(self, capsys):
        code, out = run_cli(capsys, "verify", "--d", "2")
        assert code == 0
        assert "[time]" not in out
        json.loads(out)


class TestImportPath:
    def test_cli_import_leaves_numpy_unloaded(self):
        # a fresh interpreter, so modules the test session loaded do not count
        # nor the process-pool machinery: every command runs in one process
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, detpowers.cli; print(sorted(m for m in "
             "('numpy', 'concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))"],
            capture_output=True, text=True, check=True, env=child_env())
        assert proc.stdout.strip() == "[]"


class TestReportSerialization:
    def test_empty_report_is_valid_json(self):
        report = cli.Report(command="probe", ok=True)
        obj = json.loads(cli.report_json(report))
        assert obj["results"] == []
        assert obj["ok"] is True

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "lemma-check", "--d", "2",
                            "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "command: lemma-check"
        assert "ok: true" in out


class TestBench:
    def test_bench_runs_green(self, capsys):
        code, obj = run_json(capsys, "bench", "--jobs", "1")
        assert code == 0
        assert obj["ok"] is True
        names = [r["benchmark"] for r in obj["results"]]
        assert "verify-main-4-streaming" in names
        assert "verify-main-6-streaming" in names
        assert "verify-conjugated-main-4-expansion" in names
        assert "verify-conjugated-classical-4-expansion" in names
        assert "separation-5" in names
        assert "rank-5-certificate" in names
        assert "symmetries-6" in names
        assert all(r["ok"] for r in obj["results"])
