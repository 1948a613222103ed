"""Command-line front end: build, verify, and inspect the decompositions.

Commands: decompose, verify, lemma-check, independence, symmetries,
equations, bounds, bench. Every command runs in one process; verify,
equations and bench accept --jobs for compatibility and ignore it.
Reports go to standard output as JSON with sorted keys (byte-stable
across runs); wall-clock timings go to the error stream so reports stay
deterministic.
Exit codes: 0 when everything checked holds, 1 when a mathematical check
fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

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
from .independence import (
    certified_rank,
    check_promotion,
    separation_violations,
)
from .multipoly import LinForm
from .symmetry import (
    check_affine_characterization,
    check_sign_formulas,
    check_symmetry_action,
    conjugate_decomposition,
    enumerate_symmetries,
    sample_symmetry_actions,
    transpose_closure,
)
from .varieties import (
    FULL_SPACE_LIMIT,
    STAGED_LIMIT,
    extra_generators,
    finite_field_locus_count,
    vanish_on_points,
)
from .verify import (
    check_closed_form_coefficients,
    verify_power_decomposition,
    verify_product_identity,
)

ALL_SCHEMES = SCHEMES + ("krishna-makam",)

# desk-scale defaults; anything larger needs an explicit --force
SCHEME_CAPS = {"main": 6, "classical": 5, "gurvits": 5, "monomial": 6}
LEMMA_CAP = 5
INDEPENDENCE_CAP = 4
SYMMETRY_FULL_CAP = 4

# smallest odd prime p with d | p - 1, used by `equations` without --prime
DEFAULT_PRIMES = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7}

SAMPLED_ACTION_COUNT = 20


class UsageError(Exception):
    """Bad arguments or out-of-range requests: exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    d: int | None = None
    scheme: str = "main"
    fmt: str = "json"
    prime: int | None = None
    full: bool = False
    force: bool = False
    seed: int = 0
    out: str | None = None


@dataclasses.dataclass(frozen=True)
class Report:
    command: str
    ok: bool
    results: tuple = ()
    version: str = __version__


def report_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "ok": report.ok,
        "results": list(report.results),
        "version": report.version,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def obj_to_cyc(obj: dict) -> Cyc:
    value = Cyc(obj["order"], tuple(obj["num"]), obj["den"])
    sparse = [[k, c] for k, c in enumerate(value.num) if c]
    if sparse != [list(pair) for pair in obj["root_power_combination"]]:
        raise ValueError("inconsistent coefficient encoding")
    return value


def form_to_obj(form: LinForm) -> list:
    return [[i, j, cyc_to_obj(c)] for (i, j), c in form.support()]


def obj_to_form(obj: list, order: int, d: int) -> LinForm:
    return LinForm(order, d, {(i, j): obj_to_cyc(c) for i, j, c in obj})


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
    d = obj["d"]
    order = obj["order"]
    if scheme == "krishna-makam":
        terms = tuple(
            (t["sign"], tuple(obj_to_form(f, order, d) for f in t["forms"]))
            for t in obj["terms"])
        return ProductDecomposition(d, scheme, terms)
    terms = tuple(
        PowerTerm(_obj_to_index(t["index"]), obj_to_cyc(t["coeff"]),
                  obj_to_form(t["form"], order, d), t["exponent"])
        for t in obj["terms"])
    return PowerDecomposition(d, scheme, obj["scale"], obj["target"], order,
                              terms)


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
    return _join_signed(parts)


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
# command handlers


def _build_decomposition(config: RunConfig):
    scheme = config.scheme
    d = config.d
    if scheme == "krishna-makam":
        if d != 3:
            raise UsageError("the 5-term product identity is specific to "
                             "--d 3")
        return krishna_makam_det3()
    if scheme not in SCHEME_CAPS:
        raise UsageError(f"unknown scheme {scheme!r}")
    cap = SCHEME_CAPS[scheme]
    if d > cap and not config.force:
        raise UsageError(f"--d {d} exceeds the desk-scale cap {cap} for "
                         f"scheme {scheme}; pass --force to override")
    return SCHEME_BUILDERS[scheme](d)


def _cmd_decompose(config: RunConfig, timings: list):
    dec = _build_decomposition(config)
    if config.fmt == "json":
        obj = product_to_obj(dec) if isinstance(dec, ProductDecomposition) \
            else decomposition_to_obj(dec)
        return json.dumps(obj, sort_keys=True, indent=2) + "\n", True
    if config.fmt == "latex":
        if isinstance(dec, ProductDecomposition):
            return product_latex(dec), True
        return power_decomposition_latex(dec), True
    return decomposition_text(dec), True


def _witness_obj(report) -> dict | None:
    if report.witness is None:
        return None
    mono, got, want = report.witness
    return {"monomial": [list(entry) for entry in mono],
            "got": cyc_to_obj(got), "want": cyc_to_obj(want)}


def _cmd_verify(config: RunConfig, timings: list):
    dec = _build_decomposition(config)
    if isinstance(dec, ProductDecomposition):
        started = time.perf_counter()
        equal = verify_product_identity(dec)
        timings.append(("verify-product", time.perf_counter() - started))
        report = Report(command="verify", ok=equal, results=(
            {"d": dec.d, "scheme": dec.scheme, "equal": equal},))
        return _format_report(report, config), equal
    results = []
    ok = True
    reports = {}
    for mode in ("expansion", "streaming"):
        started = time.perf_counter()
        rep = verify_power_decomposition(dec, mode=mode)
        timings.append((f"verify-{mode}", time.perf_counter() - started))
        reports[mode] = rep
        ok = ok and rep.equal
        results.append({
            "d": dec.d,
            "scheme": dec.scheme,
            "mode": mode,
            "equal": rep.equal,
            "term_count": rep.term_count,
            "distinct_monomials": rep.distinct_monomials,
            "witness": _witness_obj(rep),
        })
    # the verdicts must match; then the witness when both reject (streaming
    # stops counting monomials at its first mismatch), the table size when
    # both accept
    expansion, streaming = reports["expansion"], reports["streaming"]
    modes_agree = expansion.equal == streaming.equal and (
        expansion.distinct_monomials == streaming.distinct_monomials
        if expansion.equal else expansion.witness == streaming.witness)
    results.append({"check": "modes_agree", "ok": modes_agree})
    ok = ok and modes_agree
    report = Report(command="verify", ok=ok, results=tuple(results))
    return _format_report(report, config), ok


def _cmd_lemma_check(config: RunConfig, timings: list):
    d = config.d
    if d > LEMMA_CAP and not config.force:
        raise UsageError(f"--d {d} exceeds the desk-scale cap {LEMMA_CAP} "
                         f"for lemma-check; pass --force to override")
    started = time.perf_counter()
    ok = check_closed_form_coefficients(d)
    timings.append(("lemma-check", time.perf_counter() - started))
    monomials = math.comb(d * d + d - 1, d)
    report = Report(command="lemma-check", ok=ok, results=(
        {"d": d, "matches": ok, "monomial_count": monomials},))
    return _format_report(report, config), ok


def _cmd_independence(config: RunConfig, timings: list):
    d = config.d
    if d > INDEPENDENCE_CAP and not config.force:
        raise UsageError(f"--d {d} exceeds the desk-scale cap "
                         f"{INDEPENDENCE_CAP} for independence; pass "
                         f"--force to override")
    results = []
    ok = True
    started = time.perf_counter()
    violations = separation_violations(d)
    timings.append(("separation", time.perf_counter() - started))
    results.append({"check": "separation", "d": d,
                    "ok": not violations, "violations": len(violations)})
    ok = ok and not violations
    started = time.perf_counter()
    promoted = check_promotion(d)
    timings.append(("promotion", time.perf_counter() - started))
    results.append({"check": "promotion", "d": d, "ok": promoted})
    ok = ok and promoted
    expected = d * math.factorial(d)
    started = time.perf_counter()
    rank = certified_rank(d)
    timings.append(("rank", time.perf_counter() - started))
    results.append({"check": "rank", "d": d, "rank": rank,
                    "expected": expected, "ok": rank == expected})
    ok = ok and rank == expected
    report = Report(command="independence", ok=ok, results=tuple(results))
    return _format_report(report, config), ok


def _cmd_symmetries(config: RunConfig, timings: list):
    d = config.d
    if config.full and d > SYMMETRY_FULL_CAP:
        raise UsageError(f"--full checks every element and is capped at "
                         f"--d {SYMMETRY_FULL_CAP}")
    results = []
    ok = True
    started = time.perf_counter()
    enum = enumerate_symmetries(d, with_elements=False)
    timings.append(("enumerate", time.perf_counter() - started))
    exactly_half = enum.preserving_order == enum.reversing_order
    results.append({
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
    })
    # a printed-table mismatch is reported and flagged, not failed
    ok = ok and enum.matches_formula and exactly_half and bool(enum.faithful)
    started = time.perf_counter()
    if config.full:
        action_ok = check_symmetry_action(d)
        results.append({"check": "action", "mode": "full", "d": d,
                        "ok": action_ok})
    else:
        stats = sample_symmetry_actions(d, SAMPLED_ACTION_COUNT,
                                        seed=config.seed)
        action_ok = stats["bad"] == 0
        results.append({"check": "action", "mode": "sampled", "d": d,
                        "seed": config.seed, "ok": action_ok, **stats})
    timings.append(("action", time.perf_counter() - started))
    ok = ok and action_ok
    affine_ok = check_affine_characterization(d)
    results.append({"check": "affine_characterization", "d": d,
                    "ok": affine_ok})
    ok = ok and affine_ok
    signs_ok = check_sign_formulas(d)
    results.append({"check": "sign_formulas", "d": d, "ok": signs_ok})
    ok = ok and signs_ok
    closed, witnesses = transpose_closure(d)
    expected_closed = d <= 3
    swap = (2, 1) + tuple(range(3, d + 1))
    results.append({
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
    ok = ok and closed == expected_closed
    report = Report(command="symmetries", ok=ok, results=tuple(results))
    return _format_report(report, config), ok


def _locus_mode(config: RunConfig, d: int, p: int) -> str | None:
    full_ok = p ** (d * d) <= FULL_SPACE_LIMIT
    staged_ok = math.factorial(d) * (p - 1) ** d <= STAGED_LIMIT
    if config.full:
        if not full_ok:
            raise UsageError(f"--full needs p^(d^2) <= {FULL_SPACE_LIMIT}; "
                             f"{p}^{d * d} is beyond that")
        return "full"
    if full_ok:
        return "full"
    if staged_ok:
        return "staged"
    return None


def _cmd_equations(config: RunConfig, timings: list):
    d = config.d
    results = []
    ok = True
    started = time.perf_counter()
    vanish = vanish_on_points(d)
    timings.append(("vanishing", time.perf_counter() - started))
    results.append({"check": "quadric_vanishing", "d": d, "ok": vanish})
    ok = ok and vanish
    if d in (3, 4):
        started = time.perf_counter()
        extra = extra_generators(d)
        timings.append(("extra-generators", time.perf_counter() - started))
        reduction_ok = None
        if extra.reduction is not None:
            reduction_ok = (extra.reduction.solvable
                            and extra.reduction.residual_contained)
        row = {
            "check": "extra_generators",
            "d": d,
            "squares_vanish": extra.squares_vanish,
            "square_failure_count": extra.square_failure_count,
            "differences_vanish": extra.differences_vanish,
            "raw_difference_count": extra.raw_difference_count,
            "reduction_ok": reduction_ok,
            "ok": (extra.squares_vanish and extra.differences_vanish
                   and reduction_ok is not False),
        }
        results.append(row)
        ok = ok and row["ok"]
    prime = config.prime if config.prime is not None else DEFAULT_PRIMES.get(d)
    if prime is None:
        results.append({"check": "locus", "skipped": "no default prime"})
    else:
        mode = _locus_mode(config, d, prime)
        if mode is None and config.prime is not None:
            raise UsageError(
                f"no feasible counting mode for d={d}, p={prime}: "
                f"p^(d^2) > {FULL_SPACE_LIMIT} and d!(p-1)^d > {STAGED_LIMIT}")
        if mode is None:
            results.append({
                "check": "locus", "d": d, "p": prime,
                "skipped": "beyond desk scale in both counting modes"})
        else:
            started = time.perf_counter()
            count = finite_field_locus_count(d, prime, mode=mode)
            timings.append(("locus", time.perf_counter() - started))
            results.append({
                "check": "locus",
                "d": d,
                "p": prime,
                "mode": count.mode,
                "affine_solutions": count.affine_solutions,
                "projective_points": count.projective_points,
                "expected": count.expected,
                "ok": count.matches_expected,
            })
            ok = ok and count.matches_expected
    report = Report(command="equations", ok=ok, results=tuple(results))
    return _format_report(report, config), ok


def _cmd_bounds(config: RunConfig, timings: list):
    d_max = config.d if config.d is not None else 9
    rows = bounds_table(d_max)
    if config.fmt == "latex":
        return bounds_latex(rows), True
    results = tuple(dataclasses.asdict(row) for row in rows)
    report = Report(command="bounds", ok=True, results=results)
    return _format_report(report, config), True


def _cmd_bench(config: RunConfig, timings: list):
    suite = [
        ("decompose-main-4",
         lambda: _count_terms(SCHEME_BUILDERS["main"](4), 96)),
        ("verify-main-3-expansion",
         lambda: verify_power_decomposition(
             SCHEME_BUILDERS["main"](3), mode="expansion").equal),
        ("verify-main-4-streaming",
         lambda: verify_power_decomposition(
             SCHEME_BUILDERS["main"](4), mode="streaming").equal),
        ("verify-main-6-streaming",
         lambda: verify_power_decomposition(
             SCHEME_BUILDERS["main"](6), mode="streaming").equal),
        ("verify-classical-3",
         lambda: verify_power_decomposition(
             SCHEME_BUILDERS["classical"](3)).equal),
        ("verify-monomial-5",
         lambda: verify_power_decomposition(
             SCHEME_BUILDERS["monomial"](5)).equal),
        ("verify-conjugated-main-4-expansion",
         lambda: verify_power_decomposition(
             _conjugated("main", 4), mode="expansion").equal),
        ("verify-conjugated-classical-4-expansion",
         lambda: verify_power_decomposition(
             _conjugated("classical", 4), mode="expansion").equal),
        ("separation-5", lambda: not separation_violations(5)),
        ("rank-5-certificate", lambda: certified_rank(5) == 600),
        ("symmetries-6", lambda: enumerate_symmetries(
            6, with_elements=False).matches_formula),
        ("bounds-9", lambda: len(bounds_table(9)) == 8),
    ]
    results = []
    ok = True
    for name, thunk in suite:
        started = time.perf_counter()
        passed = bool(thunk())
        timings.append((name, time.perf_counter() - started))
        results.append({"benchmark": name, "ok": passed})
        ok = ok and passed
    report = Report(command="bench", ok=ok, results=tuple(results))
    return _format_report(report, config), ok


def _count_terms(dec: PowerDecomposition, expected: int) -> bool:
    return len(dec.terms) == expected


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


def _format_report(report: Report, config: RunConfig) -> str:
    if config.fmt == "latex":
        raise UsageError(f"--format latex is not defined for "
                         f"{report.command}; use decompose or bounds")
    if config.fmt == "text":
        return report_text(report)
    return report_json(report)


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

_D_RANGES = {
    "decompose": (1, 12),
    "verify": (1, 12),
    "lemma-check": (2, 6),
    "independence": (2, 5),
    "symmetries": (2, 6),
    "equations": (2, 6),
    "bounds": (2, 20),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detpowers",
        description="Exact power-sum decompositions of the determinant: "
                    "construction, verification, and the surrounding checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_scheme=False, with_d=True,
            d_required=True, formats=("json", "text"), with_prime=False,
            with_full=False, with_seed=False, with_jobs=False):
        cmd = sub.add_parser(name, help=help_text)
        if with_d:
            cmd.add_argument("--d", type=int, required=d_required,
                             help="matrix dimension")
        if with_scheme:
            cmd.add_argument("--scheme", choices=ALL_SCHEMES,
                             default="main")
        cmd.add_argument("--format", dest="fmt", choices=formats,
                         default="json")
        if with_prime:
            cmd.add_argument("--prime", type=int, default=None)
        if with_full:
            cmd.add_argument("--full", action="store_true")
        cmd.add_argument("--force", action="store_true",
                         help="override the desk-scale caps")
        if with_jobs:
            cmd.add_argument("--jobs", type=int, default=1,
                             help="accepted for compatibility and ignored; "
                                  "every command runs in one process")
        if with_seed:
            cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", type=str, default=None,
                         help="also write the output to this file")
        return cmd

    add("decompose", "build a decomposition and print it",
        with_scheme=True, formats=("json", "latex", "text"))
    add("verify", "expand a decomposition and compare with its target",
        with_scheme=True, with_jobs=True)
    add("lemma-check", "closed-form power-sum coefficients vs expansion")
    add("independence", "separation pairings and the certified rank")
    add("symmetries", "group orders, the term action, and closure checks",
        with_full=True, with_seed=True)
    add("equations", "quadric vanishing and finite-field locus counts",
        with_prime=True, with_full=True, with_jobs=True)
    add("bounds", "decomposition-size table", d_required=False,
        formats=("json", "latex", "text"))
    add("bench", "timings for a fixed small suite", with_d=False,
        with_seed=True, with_jobs=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        d=getattr(args, "d", None),
        scheme=getattr(args, "scheme", "main"),
        fmt=getattr(args, "fmt", "json"),
        prime=getattr(args, "prime", None),
        full=getattr(args, "full", False),
        force=getattr(args, "force", False),
        seed=getattr(args, "seed", 0),
        out=getattr(args, "out", None),
    )


def _check_d_range(config: RunConfig) -> None:
    if config.command not in _D_RANGES or config.d is None:
        return
    low, high = _D_RANGES[config.command]
    if not low <= config.d <= high:
        raise UsageError(f"--d {config.d} is outside [{low}, {high}] for "
                         f"{config.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    config = _config_from_args(args)
    timings: list = []
    try:
        _check_d_range(config)
        payload, ok = _HANDLERS[config.command](config, timings)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    for label, seconds in timings:
        print(f"[time] {label}: {seconds:.3f}s", file=sys.stderr)
    sys.stdout.write(payload)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
