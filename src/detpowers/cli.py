"""Command-line front end: build, verify, and inspect the decompositions.

Commands: decompose, verify, lemma-check, independence, symmetries,
equations, bounds, bench. Every command runs in one process; verify and
equations accept --jobs for compatibility and ignore it. symmetries always
proves the term action from generators; it accepts --full and --seed for
compatibility and ignores them.
Every command's options are declared once, in ``_COMMANDS``, and
``_read_args`` reads ``<command> (--flag [value])*`` from that table;
argparse is imported and its parser built from the same table only for
help, for the other spellings it accepts (``--flag=value``, abbreviations,
values that start with "-") and for usage errors, so its help text, error
messages and exit codes are unchanged. Building and running the parser
cost every command about 6.5 ms of CPU; reading the table costs about
0.04 ms.
Reports go to standard output as JSON with sorted keys (byte-stable
across runs); wall-clock timings go to the error stream, one line as each
stage ends, so reports stay deterministic.
Exit codes: 0 when everything checked holds, 1 when a mathematical check
fails, 2 on usage errors.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .cyclotomic import Cyc
from .decompositions import (
    SCHEME_BUILDERS,
    SCHEMES,
    TARGET_DETERMINANT,
    PowerDecomposition,
    PowerTerm,
    ProductDecomposition,
    bounds_table,
    krishna_makam_det3,
)
from .independence import independence_certificate
from .multipoly import LinForm
from .symmetry import (
    check_affine_characterization,
    check_sign_formulas,
    check_symmetry_action,
    conjugate_decomposition,
    enumerate_symmetries,
    transpose_closure,
)
from .varieties import (
    extra_generators,
    locus_proof,
    quadric_generators,
    vanish_on_points,
)
from .verify import (
    check_closed_form_coefficients,
    verify_power_decomposition,
    verify_product_identity,
)

ALL_SCHEMES = SCHEMES + ("krishna-makam",)

# desk-scale defaults; anything larger needs an explicit --force, and
# decompose and verify build no scheme beyond D_CEILING even then
SCHEME_CAPS = {"main": 6, "classical": 5, "gurvits": 5, "monomial": 6}
LEMMA_CAP = 5
INDEPENDENCE_CAP = 4
D_CEILING = 12


class UsageError(ValueError):
    """Bad arguments or out-of-range requests: exit code 2, as for every
    ValueError the library raises on its inputs."""


class Report(NamedTuple):
    command: str
    ok: bool
    results: tuple = ()
    version: str = __version__


def report_json(report: Report) -> str:
    return json.dumps(report._asdict(), sort_keys=True,
                      indent=2) + "\n"


def report_text(report: Report) -> str:
    lines = [f"command: {report.command}", f"ok: {str(report.ok).lower()}"]
    for result in report.results:
        lines.append("  " + json.dumps(result, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON emitters and the round-trip parser


def cyc_to_obj(value: Cyc) -> dict:
    return {
        "order": value.order,
        "num": list(value.num),
        "den": value.den,
        "root_power_combination": [[k, c] for k, c in enumerate(value.num)
                                   if c],
    }


def _int_field(value, name: str) -> int:
    """``value``, read from JSON where the format has an int: a float, a
    bool or anything else is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def obj_to_cyc(obj: dict) -> Cyc:
    value = Cyc(_int_field(obj["order"], "order"), tuple(obj["num"]),
                obj["den"])
    sparse = [[k, c] for k, c in enumerate(value.num) if c]
    if sparse != [list(pair) for pair in obj["root_power_combination"]]:
        raise ValueError("inconsistent coefficient encoding")
    return value


def form_to_obj(form: LinForm) -> list:
    return [[i, j, cyc_to_obj(c)] for (i, j), c in form.support()]


def obj_to_form(obj: list, order: int, d: int) -> LinForm:
    return LinForm(order, d, [
        ((_int_field(i, "cell row"), _int_field(j, "cell column")),
         obj_to_cyc(c)) for i, j, c in obj])


def _index_to_obj(index):
    if isinstance(index, tuple):
        return [_index_to_obj(part) for part in index]
    return index


def _obj_to_index(obj):
    """The inverse of ``_index_to_obj``: every index is built from tuples,
    so nested lists become tuples whatever the scheme (a conjugated
    decomposition keeps the index of the scheme it came from)."""
    if isinstance(obj, list):
        return tuple(_obj_to_index(part) for part in obj)
    return obj


def decomposition_to_obj(dec: PowerDecomposition) -> dict:
    return {
        "d": dec.d,
        "scheme": dec.scheme,
        "scale": dec.scale,
        "target": dec.target,
        "order": dec.order,
        "terms": [
            {
                "index": _index_to_obj(term.index),
                "coeff": cyc_to_obj(term.coeff),
                "form": form_to_obj(term.form),
                "exponent": term.exponent,
            }
            for term in dec.terms
        ],
    }


def product_to_obj(pd: ProductDecomposition) -> dict:
    order = pd.terms[0][1][0].order
    return {
        "d": pd.d,
        "scheme": pd.scheme,
        "order": order,
        "terms": [
            {"sign": sign, "forms": [form_to_obj(f) for f in forms]}
            for sign, forms in pd.terms
        ],
    }


def parse_decomposition(text: str):
    """Rebuild the exact decomposition value from its JSON emission."""
    obj = json.loads(text)
    scheme = obj["scheme"]
    d = _int_field(obj["d"], "d")
    order = _int_field(obj["order"], "order")
    if scheme == "krishna-makam":
        terms = tuple(
            (_int_field(t["sign"], "sign"),
             tuple(obj_to_form(f, order, d) for f in t["forms"]))
            for t in obj["terms"])
        return ProductDecomposition(d, scheme, terms)
    terms = tuple(
        PowerTerm(_obj_to_index(t["index"]), obj_to_cyc(t["coeff"]),
                  obj_to_form(t["form"], order, d),
                  _int_field(t["exponent"], "exponent"))
        for t in obj["terms"])
    return PowerDecomposition(d, scheme, _int_field(obj["scale"], "scale"),
                              obj["target"], order, terms)


# ---------------------------------------------------------------------------
# LaTeX emitters


def _join_signed(parts) -> str:
    """Join (sign, body) pairs into "a + b - c"; a leading "+" is dropped."""
    (first_sign, first_body), *rest = parts
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in rest:
        text += f" {sign} {body}"
    return text


def cyc_latex(value: Cyc) -> str:
    rat = value.rational()
    if rat is not None:
        if rat.denominator == 1:
            return str(rat.numerator)
        sign = "-" if rat < 0 else ""
        return f"{sign}\\tfrac{{{abs(rat.numerator)}}}{{{rat.denominator}}}"
    power = value.root_power()
    if power is not None:
        if power == 0:
            return "1"
        if power == 1:
            return "\\omega"
        return f"\\omega^{{{power}}}"
    parts = []
    for k, c in enumerate(value.num):
        if not c:
            continue
        base = "1" if k == 0 else ("\\omega" if k == 1
                                   else f"\\omega^{{{k}}}")
        body = base if abs(c) == 1 and k > 0 else (f"{abs(c)}" if k == 0
                                                   else f"{abs(c)}{base}")
        parts.append(("-" if c < 0 else "+", body))
    wrapped = f"\\bigl({_join_signed(parts)}\\bigr)"
    if value.den != 1:
        return f"{wrapped}/{value.den}"
    return wrapped


def form_latex(form: LinForm) -> str:
    """The form's signed sum of variables; the zero form, with no
    support (gurvits at d=1), is "0"."""
    parts = []
    for (i, j), c in form.support():
        var = f"x_{{{i},{j}}}"
        rat = c.rational()
        if rat is not None and rat.denominator == 1 and abs(rat) == 1:
            parts.append(("-" if rat < 0 else "+", var))
        elif rat is not None and rat < 0:
            parts.append(("-", f"{cyc_latex(-c)} {var}"))
        else:
            parts.append(("+", f"{cyc_latex(c)} {var}"))
    return _join_signed(parts) if parts else "0"


def _target_latex(dec: PowerDecomposition) -> str:
    if dec.target == TARGET_DETERMINANT:
        return "\\det X"
    return " ".join(f"x_{{{i},{i}}}" for i in range(1, dec.d + 1))


def power_decomposition_latex(dec: PowerDecomposition) -> str:
    lhs = _target_latex(dec) if dec.scale == 1 \
        else f"{dec.scale} \\, {_target_latex(dec)}"
    pieces = []
    one = Cyc.one(dec.order)
    minus_one = -one
    for term in dec.terms:
        body = f"\\left({form_latex(term.form)}\\right)^{{{term.exponent}}}"
        if term.coeff == one:
            pieces.append(("+", body))
        elif term.coeff == minus_one:
            pieces.append(("-", body))
        else:
            pieces.append(("+", f"{cyc_latex(term.coeff)} \\, {body}"))
    return f"{lhs} = {_join_signed(pieces)}\n"


def product_latex(pd: ProductDecomposition) -> str:
    pieces = []
    for sign, forms in pd.terms:
        factors = []
        for form in forms:
            support = form.support()
            if len(support) == 1 and support[0][1] == Cyc.one(form.order):
                (i, j), _ = support[0]
                factors.append(f"x_{{{i},{j}}}")
            else:
                factors.append(f"\\left({form_latex(form)}\\right)")
        pieces.append(("+" if sign > 0 else "-", " ".join(factors)))
    return f"\\det X = {_join_signed(pieces)}\n"


def bounds_latex(rows) -> str:
    def cell(value):
        return "--" if value is None else str(value)

    lines = [
        "\\begin{tabular}{rrrrrrr}",
        "d & classical & derksen & gurvits & cglv & new & lower \\\\",
        "\\hline",
    ]
    for row in rows:
        lines.append(
            f"{row.d} & {cell(row.classical)} & {cell(row.derksen)} & "
            f"{cell(row.gurvits)} & {cell(row.cglv)} & {cell(row.new)} & "
            f"{cell(row.lower)} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def decomposition_text(dec) -> str:
    if isinstance(dec, ProductDecomposition):
        lines = [f"scheme {dec.scheme}, d={dec.d}, {len(dec.terms)} "
                 f"signed products"]
        for sign, forms in dec.terms:
            joined = " * ".join(f"({form_latex(f)})" for f in forms)
            lines.append(f"  {'+' if sign > 0 else '-'} {joined}")
        return "\n".join(lines) + "\n"
    lines = [f"scheme {dec.scheme}, d={dec.d}, scale={dec.scale}, "
             f"target={dec.target}, {len(dec.terms)} terms"]
    for term in dec.terms:
        lines.append(f"  {cyc_latex(term.coeff)} * "
                     f"({form_latex(term.form)})^{term.exponent}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and returns either rows
# for ``main`` to report or finished text, with whether every check held


@contextlib.contextmanager
def _stage(label: str):
    """Print ``[time] label: N.NNNs`` to standard error when the block ends
    without raising."""
    started = time.perf_counter()
    yield
    print(f"[time] {label}: {time.perf_counter() - started:.3f}s",
          file=sys.stderr)


def _check_cap(args: SimpleNamespace, cap: int, what: str) -> None:
    if args.d > cap and not args.force:
        raise UsageError(f"--d {args.d} exceeds the desk-scale cap {cap} for "
                         f"{what}; pass --force to override")


def _build_decomposition(args: SimpleNamespace):
    if args.scheme == "krishna-makam":
        if args.d != 3:
            raise UsageError("the 5-term product identity is specific to "
                             "--d 3")
        return krishna_makam_det3()
    _check_cap(args, SCHEME_CAPS[args.scheme], f"scheme {args.scheme}")
    if args.d > D_CEILING:
        raise UsageError(f"--d {args.d} exceeds {D_CEILING}, the largest d "
                         f"even --force builds")
    return SCHEME_BUILDERS[args.scheme](args.d)


def _cmd_decompose(args: SimpleNamespace):
    dec = _build_decomposition(args)
    product = isinstance(dec, ProductDecomposition)
    if args.fmt == "json":
        obj = product_to_obj(dec) if product else decomposition_to_obj(dec)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n", True
    if args.fmt == "latex":
        return (product_latex(dec) if product
                else power_decomposition_latex(dec)), True
    return decomposition_text(dec), True


def _witness_obj(report) -> dict | None:
    if report.witness is None:
        return None
    mono, got, want = report.witness
    return {"monomial": [list(entry) for entry in mono],
            "got": cyc_to_obj(got), "want": cyc_to_obj(want)}


def _cmd_verify(args: SimpleNamespace):
    dec = _build_decomposition(args)
    if isinstance(dec, ProductDecomposition):
        with _stage("verify-product"):
            equal = verify_product_identity(dec)
        return [{"d": dec.d, "scheme": dec.scheme, "equal": equal}], equal
    rows = []
    reports = []
    for mode in ("expansion", "streaming"):
        with _stage(f"verify-{mode}"):
            rep = verify_power_decomposition(dec, mode=mode)
        reports.append(rep)
        rows.append({
            "d": dec.d,
            "scheme": dec.scheme,
            "mode": mode,
            "equal": rep.equal,
            "term_count": rep.term_count,
            "distinct_monomials": rep.distinct_monomials,
            "witness": _witness_obj(rep),
        })
    # the verdicts must match; then the witness when both reject (expansion
    # counts the monomials the given terms reach, streaming the scheme's
    # whole walk), the table size when both accept
    expansion, streaming = reports
    modes_agree = expansion.equal == streaming.equal and (
        expansion.distinct_monomials == streaming.distinct_monomials
        if expansion.equal else expansion.witness == streaming.witness)
    rows.append({"check": "modes_agree", "ok": modes_agree})
    return rows, expansion.equal and streaming.equal and modes_agree


def _cmd_lemma_check(args: SimpleNamespace):
    d = args.d
    _check_cap(args, LEMMA_CAP, "lemma-check")
    with _stage("lemma-check"):
        ok = check_closed_form_coefficients(d)
    return [{"d": d, "matches": ok,
             "monomial_count": math.comb(d * d + d - 1, d)}], ok


def _cmd_independence(args: SimpleNamespace):
    d = args.d
    _check_cap(args, INDEPENDENCE_CAP, "independence")
    with _stage("certificate"):
        violations, rank, violation = independence_certificate(d)
    expected = d * math.factorial(d)
    rows = [
        {"check": "separation", "d": d, "ok": not violations,
         "violations": len(violations)},
        {"check": "promotion", "d": d, "ok": violation is None},
        {"check": "rank", "d": d, "rank": rank, "expected": expected,
         "ok": rank == expected},
    ]
    return rows, all(row["ok"] for row in rows)


def _cmd_symmetries(args: SimpleNamespace):
    d = args.d
    with _stage("enumerate"):
        enum = enumerate_symmetries(d)
    exactly_half = enum.preserving_order == enum.reversing_order
    rows = [{
        "check": "orders",
        "d": d,
        "full_order": enum.full_order,
        "preserving_order": enum.preserving_order,
        "reversing_order": enum.reversing_order,
        "formula_order": enum.formula_order,
        "printed_order": enum.printed_order,
        "matches_formula": enum.matches_formula,
        "matches_printed": enum.matches_printed,
        "exactly_half": exactly_half,
        "faithful": enum.faithful,
    }]
    # a printed-table mismatch is reported and flagged, not failed
    orders_ok = enum.matches_formula and exactly_half and enum.faithful
    with _stage("action"):
        rows.append({"check": "action", "mode": "full", "d": d,
                     "ok": check_symmetry_action(d)})
    rows.append({"check": "affine_characterization", "d": d,
                 "ok": check_affine_characterization(d)})
    rows.append({"check": "sign_formulas", "d": d,
                 "ok": check_sign_formulas(d)})
    closed, witnesses = transpose_closure(d)
    expected_closed = d <= 3
    swap = (2, 1) + tuple(range(3, d + 1))
    rows.append({
        "check": "transpose_closure",
        "d": d,
        "closed": closed,
        "expected_closed": expected_closed,
        "ok": closed == expected_closed,
        "witness_count": len(witnesses),
        "first_witnesses": [[j, list(images)] for j, images in witnesses[:5]],
        "row_swap_witness": ([1, list(swap)] if (1, swap) in witnesses
                             else None),
    })
    return rows, orders_ok and all(row["ok"] for row in rows[1:])


def _cmd_equations(args: SimpleNamespace):
    d = args.d
    with _stage("vanishing"):
        vanish = vanish_on_points(d)
    rows = [{"check": "quadric_vanishing", "d": d, "ok": vanish}]
    if d in (3, 4):
        with _stage("extra-generators"):
            extra = extra_generators(d)
        reduction_ok = None if extra.reduction is None else extra.reduction.ok
        rows.append({
            "check": "extra_generators",
            "d": d,
            "squares_vanish": extra.squares_vanish,
            "square_failure_count": extra.square_failure_count,
            "differences_vanish": extra.differences_vanish,
            "raw_difference_count": extra.raw_difference_count,
            "reduction_ok": reduction_ok,
            "ok": (extra.squares_vanish and extra.differences_vanish
                   and reduction_ok is not False),
        })
    with _stage("locus"):
        proof = locus_proof(quadric_generators(d))
    rows.append({
        "check": "locus",
        "d": d,
        "p": proof.p,
        "mode": "proof",
        "affine_solutions": proof.affine_solutions,
        "projective_points": proof.projective_points,
        "expected": proof.expected,
        "ok": proof.ok,
    })
    return rows, all(row["ok"] for row in rows)


def _cmd_bounds(args: SimpleNamespace):
    rows = bounds_table(args.d)
    if args.fmt == "latex":
        return bounds_latex(rows), True
    return [row._asdict() for row in rows], True


def _verifies(dec: PowerDecomposition, mode: str = "expansion") -> bool:
    return verify_power_decomposition(dec, mode=mode).equal


def _import_seconds() -> tuple[bool, float]:
    """Whether every module of the package has its ``.pyc`` in the cache,
    and the wall seconds a fresh interpreter takes to import
    ``detpowers.cli`` from this package's source."""
    import importlib.util
    import os
    import subprocess

    package = os.path.dirname(os.path.abspath(__file__))
    cached = all(os.path.exists(importlib.util.cache_from_source(
        os.path.join(package, name)))
        for name in os.listdir(package) if name.endswith(".py"))
    path = [os.path.dirname(package), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", "import time; started = time.perf_counter(); "
         "import detpowers.cli; print(time.perf_counter() - started)"],
        env=env, capture_output=True, text=True, check=True)
    return cached, float(done.stdout)


def _cmd_bench(args: SimpleNamespace):
    cached, seconds = _import_seconds()
    print(f"[time] import detpowers.cli (fresh interpreter, .pyc present: "
          f"{'yes' if cached else 'no'}): {seconds:.3f}s", file=sys.stderr)
    build_main = SCHEME_BUILDERS["main"]
    suite = [
        ("decompose-main-4", lambda: len(build_main(4).terms) == 96),
        ("verify-main-3-expansion", lambda: _verifies(build_main(3))),
        ("verify-main-6-expansion", lambda: _verifies(build_main(6))),
        ("verify-main-4-streaming",
         lambda: _verifies(build_main(4), "streaming")),
        ("verify-main-6-streaming",
         lambda: _verifies(build_main(6), "streaming")),
        ("verify-main-7-streaming",
         lambda: _verifies(build_main(7), "streaming")),
        ("verify-classical-3",
         lambda: _verifies(SCHEME_BUILDERS["classical"](3))),
        ("verify-gurvits-5-expansion",
         lambda: _verifies(SCHEME_BUILDERS["gurvits"](5))),
        ("verify-monomial-5",
         lambda: _verifies(SCHEME_BUILDERS["monomial"](5))),
        ("verify-conjugated-main-4-expansion",
         lambda: _verifies(_conjugated("main", 4))),
        ("verify-conjugated-classical-4-expansion",
         lambda: _verifies(_conjugated("classical", 4))),
        ("separation-5", lambda: not independence_certificate(5)[0]),
        ("rank-5-certificate",
         lambda: independence_certificate(5)[1:] == (600, None)),
        ("symmetries-6", lambda: enumerate_symmetries(6).matches_formula),
        ("symmetries-4-full", lambda: enumerate_symmetries(4).faithful
         and check_symmetry_action(4)),
        ("equations-4", lambda: vanish_on_points(4)
         and extra_generators(4).square_failure_count == 768),
        ("bounds-9", lambda: len(bounds_table(9)) == 8),
    ]
    rows = []
    for name, thunk in suite:
        with _stage(name):
            passed = bool(thunk())
        rows.append({"benchmark": name, "ok": passed})
    return rows, all(row["ok"] for row in rows)


def _conjugated(scheme: str, d: int) -> PowerDecomposition:
    """The scheme's decomposition at d conjugated by the unitriangular pair
    I + 2 E_12, I - E_32, so its coefficients are general elements of
    Q(w), not roots of unity."""
    dec = SCHEME_BUILDERS[scheme](d)

    def unitriangular(r, c, v):
        return tuple(
            tuple(Cyc.from_int(dec.order, (i == j) + v * ((i, j) == (r, c)))
                  for j in range(1, d + 1))
            for i in range(1, d + 1))

    return conjugate_decomposition(unitriangular(1, 2, 2),
                                   unitriangular(3, 2, -1), dec)


# ---------------------------------------------------------------------------
# argument plumbing


_HANDLERS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "lemma-check": _cmd_lemma_check,
    "independence": _cmd_independence,
    "symmetries": _cmd_symmetries,
    "equations": _cmd_equations,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
}


# every command's options, in help order: command -> (help, options), and
# an option is (flag, dest, kind, default, required, help), where kind is
# int, str, a tuple of choices, or bool for a flag that takes no value
_D = ("--d", "d", int, None, True, "matrix dimension")
_SCHEME = ("--scheme", "scheme", ALL_SCHEMES, "main", False, None)
_JSON_TEXT = ("--format", "fmt", ("json", "text"), "json", False, None)
_ANY_FORMAT = ("--format", "fmt", ("json", "latex", "text"), "json", False,
               None)
_FORCE = ("--force", "force", bool, False, False,
          "override the desk-scale caps")
_JOBS = ("--jobs", "jobs", int, 1, False,
         "accepted for compatibility and ignored; every command runs in one "
         "process")
_OUT = ("--out", "out", str, None, False, "also write the output to this file")
_IGNORED = "accepted for compatibility and ignored"

_COMMANDS = {
    "decompose": ("build a decomposition and print it",
                  (_D, _SCHEME, _ANY_FORMAT, _FORCE, _OUT)),
    "verify": ("expand a decomposition and compare with its target",
               (_D, _SCHEME, _JSON_TEXT, _FORCE, _JOBS, _OUT)),
    "lemma-check": ("closed-form power-sum coefficients vs expansion",
                    (_D, _JSON_TEXT, _FORCE, _OUT)),
    "independence": ("separation pairings and the certified rank",
                     (_D, _JSON_TEXT, _FORCE, _OUT)),
    # the action is always proved from generators, so --full and --seed
    # change nothing
    "symmetries": ("group orders, the term action, and closure checks",
                   (_D, _JSON_TEXT, _OUT,
                    ("--full", "full", bool, False, False, _IGNORED),
                    ("--seed", "seed", int, 0, False, _IGNORED))),
    "equations": ("quadric vanishing and the proved locus",
                  (_D, _JSON_TEXT, _JOBS, _OUT)),
    "bounds": ("decomposition-size table",
               (("--d", "d", int, 9, False, "matrix dimension"), _ANY_FORMAT,
                _OUT)),
    "bench": ("timings for a fixed small suite", (_JSON_TEXT, _OUT)),
}


def _build_parser():
    """The argparse form of ``_COMMANDS``, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="detpowers",
        description="Exact power-sum decompositions of the determinant: "
                    "construction, verification, and the surrounding checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, dest, kind, default, required, option_help in options:
            how = ({"action": "store_true"} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple)
                   else {"type": kind})
            cmd.add_argument(flag, dest=dest, default=default,
                             required=required, help=option_help, **how)
    return parser


def _read_args(argv: list[str] | None) -> SimpleNamespace | None:
    """The arguments of ``<command> (--flag [value])*`` read from
    ``_COMMANDS``, with every default filled in: the namespace argparse
    would return. Anything else (help, ``--flag=value``, abbreviations,
    unknown names, values that start with "-", bad values, a missing
    required option) is None, for argparse to parse or refuse."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {option[0]: option for option in _COMMANDS[argv[0]][1]}
    values = {dest: default for _, dest, _, default, _, _ in options.values()}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options:
            return None
        _, dest, kind, _, _, _ = options[flag]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused like "-x"
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[dest] = value
    if any(required and values[dest] is None
           for _, dest, _, _, required, _ in options.values()):
        return None
    return SimpleNamespace(command=argv[0], **values)


def main(argv: list[str] | None = None) -> int:
    args = _read_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        payload, ok = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    if not isinstance(payload, str):
        report = Report(command=args.command, ok=ok, results=tuple(payload))
        payload = (report_text(report) if args.fmt == "text"
                   else report_json(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
