"""End-to-end tests for the command-line interface."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import detpowers
from detpowers import cli, verify
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    PowerTerm,
    krishna_makam_det3,
    main_decomposition,
)
from detpowers.multipoly import weak_compositions
from detpowers.symmetry import conjugate_decomposition
from detpowers.verify import verify_power_decomposition

from test_varieties import PREMISE_MUTATIONS

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = Path(__file__).parent / "data"


def child_env():
    """The environment for a child interpreter, with the package's ``src``
    directory first on its PYTHONPATH, however this session found it."""
    src = str(Path(detpowers.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else os.pathsep.join((src, path))}


# each --format and the extension of its golden files
FORMAT_FILES = (("json", "json"), ("text", "txt"), ("latex", "tex"))


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

    def test_conjugated_gurvits_d1_with_its_zero_form(self):
        dec = SCHEME_BUILDERS["gurvits"](1)
        a = ((Cyc.from_int(1, -1),),)
        conj = conjugate_decomposition(a, a, dec)
        text = json.dumps(cli.decomposition_to_obj(conj), sort_keys=True)
        parsed = cli.parse_decomposition(text)
        assert parsed == conj
        assert parsed.terms[1].form.support() == ()
        assert verify_power_decomposition(parsed).equal

    @pytest.mark.parametrize("mode", ["expansion", "streaming"])
    def test_mixed_root_orders_are_refused(self, mode):
        # main(2) with every coefficient read at order 1: the same +-1
        # values, so the identity holds, but summed at two orders expansion
        # reported 0 at x11*x22, where the value is 4
        obj = cli.decomposition_to_obj(main_decomposition(2))
        for term in obj["terms"]:
            term["coeff"]["order"] = 1
        with pytest.raises(ValueError, match="mixes root orders 1 and 2"):
            verify_power_decomposition(
                cli.parse_decomposition(json.dumps(obj)), mode=mode)

    @pytest.mark.parametrize("scheme", ["main", "classical", "gurvits",
                                        "monomial"])
    def test_d_zero_is_refused_as_the_builders_refuse_it(self, scheme):
        obj = cli.decomposition_to_obj(SCHEME_BUILDERS[scheme](1))
        obj["d"], obj["terms"] = 0, []
        with pytest.raises(ValueError, match="^d must be positive, got 0$"):
            cli.parse_decomposition(json.dumps(obj))
        with pytest.raises(ValueError, match="^d must be positive, got 0$"):
            SCHEME_BUILDERS[scheme](0)

    def test_tampered_combination_rejected(self):
        dec = SCHEME_BUILDERS["main"](2)
        obj = cli.decomposition_to_obj(dec)
        obj["terms"][0]["coeff"]["root_power_combination"] = [[0, 5]]
        with pytest.raises(ValueError):
            cli.parse_decomposition(json.dumps(obj))

    def test_repeated_cell_rejected(self):
        # a form listing x11 twice was read as a dict, so the last entry
        # won: main(2)'s -x11 + x22 became 5*x11 + x22
        obj = cli.decomposition_to_obj(main_decomposition(2))
        obj["terms"][0]["form"].append(
            [1, 1, cli.cyc_to_obj(Cyc.from_int(2, 5))])
        with pytest.raises(ValueError, match="repeated variable"):
            cli.parse_decomposition(json.dumps(obj))

    @pytest.mark.parametrize("part, value", [("num", [1.5]), ("num", [2.0]),
                                             ("den", 1.0), ("num", ["1"])])
    def test_non_int_coefficient_parts_rejected(self, part, value):
        obj = cli.decomposition_to_obj(main_decomposition(2))
        obj["terms"][0]["coeff"][part] = value
        with pytest.raises(ValueError, match="must be ints"):
            cli.parse_decomposition(json.dumps(obj))

    # a float or bool where the format has an int: a cell of 1.0 broke
    # expansion while streaming accepted it, and a row of true was row 1
    @pytest.mark.parametrize("product, path, value", [
        (False, ("d",), 2.0),
        (False, ("order",), 2.0),
        (False, ("scale",), 4.0),
        (False, ("terms", 0, "exponent"), 2.0),
        (False, ("terms", 0, "form", 0, 0), 1.0),
        (False, ("terms", 0, "form", 0, 0), True),
        (False, ("terms", 0, "form", 0, 1), 1.0),
        (False, ("terms", 0, "coeff", "order"), 2.0),
        (True, ("terms", 0, "sign"), True),
    ], ids=["d", "order", "scale", "exponent", "cell-row", "cell-row-bool",
            "cell-column", "coeff-order", "product-sign"])
    def test_non_int_fields_rejected(self, product, path, value):
        obj = (cli.product_to_obj(krishna_makam_det3()) if product
               else cli.decomposition_to_obj(main_decomposition(2)))
        *parents, last = path
        holder = obj
        for key in parents:
            holder = holder[key]
        holder[last] = value
        with pytest.raises(ValueError, match="must be an int"):
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


DECOMPOSE_DIGESTS = json.loads(
    (DATA_DIR / "decompose_json_sha256.json").read_text())


@pytest.mark.parametrize("name", list(DECOMPOSE_DIGESTS))
def test_decompose_json_is_byte_stable(capsys, name):
    # the sha256 of `decompose --format json` stdout, per "<scheme>_d<d>"
    scheme, d = name.rsplit("_d", 1)
    code, out = run_cli(capsys, "decompose", "--d", d, "--scheme", scheme,
                        "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == DECOMPOSE_DIGESTS[name]


class TestLatex:
    @pytest.mark.parametrize("scheme, d, expected", PINNED_LATEX,
                             ids=[row[0] for row in PINNED_LATEX])
    def test_pinned_output(self, capsys, scheme, d, expected):
        code, out = run_cli(capsys, "decompose", "--d", d,
                            "--scheme", scheme, "--format", "latex")
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("fmt, expected", [
        ("latex", r"\det X = \left(x_{1,1}\right)^{1} - "
                  r"\left(0\right)^{1}" "\n"),
        ("text", "scheme gurvits, d=1, scale=1, target=determinant, "
                 "2 terms\n  1 * (x_{1,1})^1\n  -1 * (0)^1\n"),
    ])
    def test_gurvits_d1_zero_form_is_zero(self, capsys, fmt, expected):
        # gurvits(1)'s second form is empty, and renders as 0
        code, out = run_cli(capsys, "decompose", "--d", "1",
                            "--scheme", "gurvits", "--format", fmt)
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
        # streaming checks the flipped object against the scheme's closed
        # form, not the patched registry entry, so both engines reject it
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

    @pytest.mark.parametrize("args, golden", [
        (("--d", str(d)), f"lemma_d{d}.json") for d in range(2, 6)
    ] + [
        (("--d", "6", "--force"), "lemma_d6_force.json"),
        (("--d", "3", "--format", "text"), "lemma_d3.txt"),
    ])
    def test_lemma_check_stdout_is_pinned(self, capsys, args, golden):
        code, out = run_cli(capsys, "lemma-check", *args)
        assert code == 0
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    @pytest.mark.parametrize("args, golden", [
        (("--d", "6"), "lemma_d6.err"),
        (("--d", "7", "--force"), "lemma_d7_force.err"),
        (("--d", "1"), "lemma_d1.err"),
    ])
    def test_lemma_check_usage_errors_are_pinned(self, capsys, args, golden):
        assert cli.main(["lemma-check", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (DATA_DIR / golden).read_text()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("rule_zero", [False, True],
                             ids=["drop-nonzero", "add-at-zero"])
    def test_lemma_check_fails_on_a_wrong_coefficient(self, capsys,
                                                      monkeypatch, d,
                                                      rule_zero):
        # one monomial's rule changed: 0 where it is nonzero, or 1 where
        # it is 0
        rule = verify.closed_form_coefficient
        comp = next(c for c in weak_compositions(d, d)
                    if (not rule(c, d)) == rule_zero)
        wrong = Cyc.from_int(d, int(rule_zero))
        monkeypatch.setattr(verify, "closed_form_coefficient",
                            lambda e, k: wrong if e == comp else rule(e, k))
        assert verify.check_closed_form_coefficients(d) is False
        code, obj = run_json(capsys, "lemma-check", "--d", str(d))
        assert code == 1
        assert obj["results"][0]["matches"] is False

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

    @pytest.mark.parametrize("args, golden", [
        (("--d", "2"), "symmetries_d2.json"),
        (("--d", "3", "--full"), "symmetries_d3_full.json"),
        (("--d", "4", "--full"), "symmetries_d4_full.json"),
        (("--d", "5", "--seed", "7"), "symmetries_d5_seed7.json"),
        (("--d", "5", "--full"), "symmetries_d5_full.json"),
        (("--d", "6", "--full"), "symmetries_d6_full.json"),
        (("--d", "4", "--format", "text"), "symmetries_d4.txt"),
    ])
    def test_symmetries_stdout_is_pinned(self, capsys, args, golden):
        # the action proved from generators at d=2..6, byte for byte; a
        # --seed run prints the same report as a --full one
        code, out = run_cli(capsys, "symmetries", *args)
        assert code == 0
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_symmetries_flags_change_nothing(self, capsys, d):
        # --full and --seed are accepted and ignored: every run proves the
        # action from generators
        runs = [run_cli(capsys, "symmetries", "--d", str(d), *flags)
                for flags in ((), ("--seed", "7"), ("--full",))]
        assert runs[0] == runs[1] == runs[2]
        code, out = runs[0]
        assert code == 0
        action = [r for r in json.loads(out)["results"]
                  if r["check"] == "action"]
        assert action == [{"check": "action", "mode": "full", "d": d,
                           "ok": True}]

    @pytest.mark.parametrize("args, golden", [
        (("bounds", *d, "--format", fmt), f"bounds_d9.{ext}")
        for d in ((), ("--d", "9")) for fmt, ext in FORMAT_FILES
    ] + [
        (("decompose", "--scheme", "krishna-makam", "--d", "3", "--format",
          fmt), f"decompose_krishna-makam_d3.{ext}")
        for fmt, ext in FORMAT_FILES
    ])
    def test_bounds_and_product_stdout_is_pinned(self, capsys, args, golden):
        # the bounds rows (the default --d is 9) and the product
        # decomposition, in every format, byte for byte
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    @pytest.mark.parametrize("args, golden", [
        (("--d", "2"), "independence_d2.json"),
        (("--d", "3"), "independence_d3.json"),
        (("--d", "4"), "independence_d4.json"),
        (("--d", "5", "--force"), "independence_d5.json"),
        (("--d", "3", "--format", "text"), "independence_d3.txt"),
    ])
    def test_independence_stdout_is_pinned(self, capsys, args, golden):
        # the separation, promotion and rank rows, byte for byte
        code, out = run_cli(capsys, "independence", *args)
        assert code == 0
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    @pytest.mark.parametrize("args, golden", [
        (("--d", str(d), "--scheme", scheme), f"verify_{scheme}_d{d}.json")
        for scheme in ("main", "classical", "gurvits") for d in range(1, 6)
    ] + [
        (("--d", "6", "--scheme", "main"), "verify_main_d6.json"),
        (("--d", "6", "--scheme", "monomial"), "verify_monomial_d6.json"),
        (("--d", "3", "--scheme", "krishna-makam"),
         "verify_krishna-makam_d3.json"),
    ])
    def test_verify_stdout_is_pinned(self, capsys, args, golden):
        # both engines' verdicts, table sizes and witnesses, byte for byte
        code, out = run_cli(capsys, "verify", *args)
        assert code == 0
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    @pytest.mark.parametrize("args, golden, expected_code", [
        (("--d", "2"), "equations_d2.json", 0),
        (("--d", "3"), "equations_d3.json", 0),
        (("--d", "4"), "equations_d4.json", 1),
        (("--d", "5"), "equations_d5.json", 0),
        (("--d", "6"), "equations_d6.json", 0),
        (("--d", "3", "--format", "text"), "equations_d3.txt", 0),
    ])
    def test_equations_stdout_is_pinned(self, capsys, args, golden,
                                        expected_code):
        # every locus row, each read from the proof, and d=4's
        # square-family failure, byte for byte
        code, out = run_cli(capsys, "equations", *args)
        assert code == expected_code
        assert out.encode() == (DATA_DIR / golden).read_bytes()

    def test_equations_d2(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "2")
        assert code == 0
        locus = [r for r in obj["results"] if r["check"] == "locus"][0]
        assert locus["p"] == 3
        assert locus["projective_points"] == 4
        assert locus["affine_solutions"] == 8

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

    def test_equations_d5_counts_locus(self, capsys):
        code, obj = run_json(capsys, "equations", "--d", "5")
        assert code == 0
        locus = [r for r in obj["results"] if r["check"] == "locus"][0]
        assert locus["p"] == 11
        assert locus["projective_points"] == locus["expected"] == 600
        assert locus["affine_solutions"] == 6000
        assert locus["ok"] is True

    @pytest.mark.parametrize("name", sorted(PREMISE_MUTATIONS))
    def test_a_broken_family_fails_the_locus_row(self, capsys, monkeypatch,
                                                 name):
        d, mutate = PREMISE_MUTATIONS[name]
        built = cli.quadric_generators
        monkeypatch.setattr(cli, "quadric_generators",
                            lambda d: mutate(built(d)))
        code, obj = run_json(capsys, "equations", "--d", str(d))
        assert code == 1
        rows = {r["check"]: r for r in obj["results"]}
        assert rows["quadric_vanishing"]["ok"] is True
        assert rows["locus"]["ok"] is False

    def test_bounds_json(self, capsys):
        code, obj = run_json(capsys, "bounds")
        assert code == 0
        assert len(obj["results"]) == 8
        d3 = [r for r in obj["results"] if r["d"] == 3][0]
        assert d3 == {"d": 3, "classical": 24, "derksen": 20, "gurvits": 24,
                      "cglv": 18, "new": 18, "lower": 17}


# ---------------------------------------------------------------------------
# reading the arguments: the option table against argparse


HELP_ARGVS = [("top", ["--help"])] + [(name, [name, "--help"])
                                      for name in cli._COMMANDS]

USAGE_ERRORS = [
    ("missing_d", ["verify"]),
    ("bad_scheme", ["verify", "--d", "3", "--scheme", "bogus"]),
    ("unknown_flag", ["verify", "--d", "3", "--bogus"]),
    ("unknown_command", ["no-such-command"]),
]


def benchmark_argvs() -> list:
    """The argument lists of the benchmark's CLI operations, at two seeds
    (``symmetries --seed`` follows the seed)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return sorted({tuple(op.label.split()) for seed in (0, 1)
                   for make in workloads.WORKLOADS.values()
                   for op in make(seed) if op.cli})


def argparse_reading(argv, parser=None):
    """``vars`` of argparse's namespace for argv, or None where it exits."""
    parser = parser or cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def read_like_argparse(argv, parser=None):
    """``cli._read_args(argv)``, checked against argparse: a namespace it
    returns is argparse's, and it returns None wherever argparse exits."""
    read = cli._read_args(argv)
    parsed = argparse_reading(argv, parser)
    if read is not None:
        assert vars(read) == parsed, argv
    if parsed is None:
        assert read is None, argv
    return read


def table_argvs():
    """Every command with its defaults, with each option alone (beside the
    required --d) and each of its choices, and with every option at once."""
    for command, (_, options) in cli._COMMANDS.items():
        required = [token for flag, _, _, _, needed, _ in options if needed
                    for token in (flag, "3")]
        yield [command, *required]
        everything = [command]
        for flag, _, kind, _, needed, _ in options:
            values = ([None] if kind is bool else list(kind)
                      if isinstance(kind, tuple)
                      else ["4"] if kind is int else ["report.json"])
            for value in values:
                tokens = [flag] if value is None else [flag, value]
                yield [command, *tokens] if needed \
                    else [command, *required, *tokens]
            everything += tokens
        yield everything


class TestArgumentReader:
    @pytest.mark.parametrize("argv", list(table_argvs()), ids=" ".join)
    def test_every_option_alone_and_combined(self, argv):
        assert read_like_argparse(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["verify", "--d", "3", "--d", "4"],
        ["verify", "--d", "3", "--scheme", "gurvits", "--scheme", "main"],
        ["decompose", "--force", "--d", "2", "--force"],
        ["verify", "--jobs", "2", "--d", "3", "--jobs", "1"],
        ["symmetries", "--full", "--seed", "7", "--d", "5", "--full"],
        ["bounds", "--d", "+4"],
        ["bounds", "--d", " 4"],
        ["bounds", "--d", "0_4"],
        ["bounds", "--d", "\u0664"],
        ["bounds", "--out", ""],
        ["bounds", "--out", "verify"],
    ], ids=repr)
    def test_repeats_orders_and_int_spellings(self, argv):
        assert read_like_argparse(argv) is not None

    @pytest.mark.parametrize("argv", [
        [],
        ["--help"], ["-h"], ["verify", "-h"], ["verify", "--d", "3", "--help"],
        ["verify", "--d=3"], ["verify", "--d", "3", "--scheme=gurvits"],
        ["verify", "--d", "3", "--sch", "main"],
        ["decompose", "--d", "3", "--forc"],
        ["decompose", "--d", "3", "--fo", "latex"],
        ["bounds", "--fo", "latex"],
        ["verify", "-d", "3"],
        ["verify", "--", "--d", "3"], ["verify", "--d", "3", "--"],
        ["verify", "--d", "-3"], ["verify", "--d", "3", "--jobs", "-1"],
        ["bounds", "--out", "-"], ["bounds", "--out", "-x"],
        ["verify", "--d", "three"], ["verify", "--d", "3.0"],
        ["verify", "--d", ""], ["symmetries", "--d", "3", "--seed", "x"],
        ["verify", "--d", "3", "--scheme", "bogus"],
        ["verify", "--d", "3", "--scheme", "Main"],
        ["verify", "--d", "3", "--format", "latex"],
        ["verify"], ["verify", "--scheme", "main"],
        ["equations", "--jobs", "1"],
        ["verify", "--d"], ["verify", "--d", "3", "--out"],
        ["verify", "--d", "3", "--bogus"], ["verify", "--d", "3", "extra"],
        ["decompose", "--d", "3", "--force", "yes"],
        ["no-such-command"], ["VERIFY", "--d", "3"], ["-x"],
        ["symmetries", "--d", "3", "--force"], ["bench", "--d", "3"],
        ["bounds", "--force"],
    ], ids=repr)
    def test_everything_else_goes_to_argparse(self, argv):
        assert read_like_argparse(argv) is None

    def test_the_benchmark_argvs_are_read(self):
        argvs = benchmark_argvs()
        assert argvs
        for argv in argvs:
            assert read_like_argparse(list(argv)) is not None

    def test_no_argv_reads_the_command_line(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["detpowers", "bounds", "--d", "5"])
        assert vars(cli._read_args(None)) == {
            "command": "bounds", "d": 5, "fmt": "json", "out": None}

    def test_seeded_fuzz_over_the_table_tokens(self):
        rng = random.Random(30)
        commands = [*cli._COMMANDS, "no-such-command", "-h"]
        every_option = [option for _, options in cli._COMMANDS.values()
                        for option in options]
        others = ["--help", "--d=3", "--sch", "-d", "--"]
        values = ["3", "0", "-3", "+3", "x", "", "--", "-h", "out.json",
                  *cli.ALL_SCHEMES, "json", "latex", "text"]

        def fitting(kind):
            if isinstance(kind, tuple):
                return rng.choice(kind)
            return rng.choice(["0", "3", "6"]) if kind is int else "out.json"

        parser = cli._build_parser()
        accepted = 0
        for _ in range(1500):
            argv = [rng.choice(commands)]
            own = cli._COMMANDS.get(argv[0], ("", every_option))[1]
            for _ in range(rng.randrange(5)):
                if rng.random() < 0.1:
                    argv.append(rng.choice(others + values))
                    continue
                flag, _, kind, _, _, _ = rng.choice(
                    own if rng.random() < 0.9 else every_option)
                argv.append(flag)
                if rng.random() < 0.2:
                    argv.append(rng.choice(values))
                elif kind is not bool:
                    argv.append(fitting(kind))
            accepted += read_like_argparse(argv, parser) is not None
        assert accepted > 300, accepted


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ("decompose", "--d", "9", "--scheme", "main"),
        ("decompose", "--d", "4", "--scheme", "krishna-makam"),
        ("verify", "--d", "6", "--scheme", "classical"),
        ("lemma-check", "--d", "6"),
        ("independence", "--d", "5"),
        ("symmetries", "--d", "7", "--full"),
        ("bounds", "--d", "25"),
        ("decompose", "--d", "3", "--scheme", "bogus"),
        ("verify", "--d", "3", "--format", "latex"),
        ("no-such-command",),
        # d ranges the library checks
        ("independence", "--d", "6", "--force"),
        ("lemma-check", "--d", "7", "--force"),
        ("equations", "--d", "7"),
        ("symmetries", "--d", "1"),
        ("bounds", "--d", "1"),
        ("verify", "--d", "13", "--force"),
        ("decompose", "--d", "0"),
        # flags that changed nothing and are gone
        ("equations", "--d", "3", "--full"),
        ("equations", "--d", "2", "--prime", "5"),
        ("bench", "--seed", "1"),
        ("bench", "--jobs", "1"),
        ("symmetries", "--d", "3", "--force"),
        ("bounds", "--force"),
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

    @pytest.mark.parametrize("name, argv", HELP_ARGVS)
    def test_help_exits_zero(self, capsys, monkeypatch, name, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the width
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == (DATA_DIR / f"help_{name}.txt").read_text()
        assert captured.err == ""

    @pytest.mark.parametrize("name, argv", USAGE_ERRORS)
    def test_usage_errors_print_argparse_messages(self, capsys, monkeypatch,
                                                  name, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (DATA_DIR / f"usage_{name}.txt").read_text()


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

    def test_out_writes_same_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "lemma-check", "--d", "2",
                            "--out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    def test_out_to_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code = cli.main(["bounds", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("args, labels", [
        (("decompose", "--d", "2"), []),
        (("verify", "--d", "2"), ["verify-expansion", "verify-streaming"]),
        (("verify", "--d", "3", "--scheme", "krishna-makam"),
         ["verify-product"]),
        (("lemma-check", "--d", "2"), ["lemma-check"]),
        (("independence", "--d", "2"), ["certificate"]),
        (("symmetries", "--d", "3"), ["enumerate", "action"]),
        (("equations", "--d", "3"),
         ["vanishing", "extra-generators", "locus"]),
        (("bounds",), []),
        (("bench",), None),  # every case name in the report
    ])
    def test_timings_stay_off_stdout(self, capsys, args, labels):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        assert code == 0
        assert "[time]" not in captured.out
        obj = json.loads(captured.out)
        timed = re.findall(r"^\[time\] (.+): \d+\.\d{3}s$", captured.err,
                           re.MULTILINE)
        if labels is None:
            # a fresh interpreter's import, then every case in the report
            assert re.fullmatch(r"import detpowers\.cli \(fresh interpreter, "
                                r"\.pyc present: (yes|no)\)", timed[0])
            labels = timed[:1] + [row["benchmark"] for row in obj["results"]]
        assert timed == labels


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

    def test_cli_import_loads_every_layer_and_not_argparse(self):
        # every layer is compiled before the benchmark forks its ops, so no
        # op pays for one; argparse waits for help and usage errors
        layers = ["cyclotomic", "decompositions", "independence",
                  "multipoly", "symmetry", "varieties", "verify"]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, detpowers.cli; print(json.dumps(sorted("
             "m for m in sys.modules if m.startswith('detpowers.') or m in "
             "('argparse', 'gettext'))))"],
            capture_output=True, text=True, check=True, env=child_env())
        assert json.loads(proc.stdout) == [
            "detpowers.cli"] + [f"detpowers.{name}" for name in layers]

    def test_only_the_term_records_are_dataclasses(self):
        # every other record is a NamedTuple, made without the generated
        # code a dataclass decorator compiles at import
        modules = [importlib.import_module(f"detpowers.{info.name}")
                   for info in pkgutil.iter_modules(detpowers.__path__)]
        found = sorted(f"{module.__name__}.{name}" for module in modules
                       for name, value in vars(module).items()
                       if isinstance(value, type)
                       and dataclasses.is_dataclass(value)
                       and value.__module__ == module.__name__)
        assert len(modules) == 8
        assert found == ["detpowers.decompositions.PowerDecomposition",
                         "detpowers.decompositions.PowerTerm"]

    def test_benchmark_commands_leave_argparse_unloaded(self):
        # argparse, and the gettext it imports, load only for help and
        # usage errors
        script = (
            "import contextlib, io, json, sys\n"
            "from detpowers import cli\n"
            "sink = io.StringIO()\n"
            "with contextlib.redirect_stdout(sink), "
            "contextlib.redirect_stderr(sink):\n"
            "    codes = [cli.main(argv) "
            "for argv in json.loads(sys.argv[1])]\n"
            "    loaded = [m for m in ('argparse', 'gettext') "
            "if m in sys.modules]\n"
            "    help_code = cli.main(['--help'])\n"
            "print(json.dumps([codes, loaded, help_code, "
            "'argparse' in sys.modules]))\n")
        argvs = [list(argv) for argv in benchmark_argvs()]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, check=True, env=child_env())
        codes, loaded, help_code, after_help = json.loads(proc.stdout)
        # equations --d 4 reports the d = 4 square failure
        assert codes == [1 if argv[:3] == ["equations", "--d", "4"] else 0
                         for argv in argvs]
        assert loaded == []
        assert (help_code, after_help) == (0, True)


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
        code, obj = run_json(capsys, "bench")
        assert code == 0
        assert obj["ok"] is True
        names = [r["benchmark"] for r in obj["results"]]
        assert "verify-main-4-streaming" in names
        assert "verify-main-6-streaming" in names
        assert "verify-main-7-streaming" in names
        assert "verify-main-6-expansion" in names
        assert "verify-gurvits-5-expansion" in names
        assert "verify-conjugated-main-4-expansion" in names
        assert "verify-conjugated-classical-4-expansion" in names
        assert "separation-5" in names
        assert "rank-5-certificate" in names
        assert "symmetries-6" in names
        assert "symmetries-4-full" in names
        assert "equations-4" in names
        assert all(r["ok"] for r in obj["results"])

    def test_import_line_says_whether_pyc_files_are_present(
            self, monkeypatch, tmp_path):
        # the cache is looked up under sys.pycache_prefix: empty, then
        # holding a file for every module of the package
        monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
        package = Path(cli.__file__).parent
        cached, seconds = cli._import_seconds()
        assert cached is False and seconds > 0
        for path in package.glob("*.py"):
            cache = Path(importlib.util.cache_from_source(str(path)))
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.touch()
        assert cli._import_seconds()[0] is True


def test_every_exported_name_resolves():
    # a stale entry in __all__ would break ``from detpowers import *``:
    # run that import, and check it binds every name, once
    missing = [name for name in detpowers.__all__
               if not hasattr(detpowers, name)]
    assert missing == []
    namespace = {}
    exec("from detpowers import *", namespace)
    assert set(detpowers.__all__) <= namespace.keys()
    assert len(set(detpowers.__all__)) == len(detpowers.__all__)


def test_package_imports_only_the_standard_library():
    # the README's promise of no runtime dependency outside the standard
    # library, checked on every absolute import of the package's modules
    allowed = set(sys.stdlib_module_names) | {"detpowers"}
    paths = sorted(Path(detpowers.__file__).parent.glob("*.py"))
    assert {"cli.py", "verify.py"} <= {path.name for path in paths}
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
