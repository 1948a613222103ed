"""The three workloads, their seeded inputs, and the answer oracle.

Each operation is a closed loop of one: the next starts only after the
previous one has returned its verdict, from one process. Every ``--jobs``
value is explicit and never above the two cores the workloads were sized
for. The oracle knows each answer from the paper's formulas, not from the
code under test: term counts from the scheme table, ``equal`` true for true
identities and false for tampered ones, rank d*d!, |H| = d^3 phi(d) d!/2,
d*d! projective points, and 768 failing square evaluations at d = 4.

Why these workloads (see README.md for what was left out):

* ``verify-builtin``: every coefficient is +-w^k, so the time goes to the
  expansion and streaming engines (``multipoly.expand_power``, ``Cyc``
  products, accumulation, signed-extension sums).
* ``verify-foreign``: inputs the builders did not produce. Conjugated forms
  carry general cyclotomic coefficients, so a +-w^k shortcut does not apply;
  tampered forms must be rejected by expansion at jobs=1. The other two
  engines accept them at this point (ROADMAP item 1), so they are run by the
  ``tampered-engines`` probe instead, which is not a measured workload.
* ``structure``: the ``independence``, ``symmetry`` and ``varieties``
  layers, which the verify workloads do not touch.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable

from detpowers import Cyc

from layers import library, run_cli


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    command: str                       # the CLI command the time counts toward
    jobs: int
    body: Callable[[object], dict]     # runs in the op's child process
    check: Callable[[dict], str | None]  # None when the verdict is right
    cli: bool = False
    reject: bool = False               # the input is false and must be rejected


# --- independent answers ----------------------------------------------------


def term_count(scheme: str, d: int) -> int:
    fact = math.factorial(d)
    return {"main": d * fact, "classical": 2 ** (d - 1) * fact,
            "gurvits": (d + 1) * fact, "monomial": 2 ** (d - 1)}[scheme]


def symmetry_order(d: int) -> int:
    """|H| = d^3 phi(d) d! / 2."""
    phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    return d ** 3 * phi * math.factorial(d) // 2


def _rows(verdict: dict) -> dict:
    """CLI report rows keyed by their ``check`` field, or else ``mode``."""
    return {row.get("check", row.get("mode")): row
            for row in verdict["report"]["results"]}


def _cli_failure(verdict: dict, exit_code: int = 0) -> str | None:
    if verdict["exit"] != exit_code:
        return f"exit {verdict['exit']}, expected {exit_code}"
    if verdict["report"] is None:
        return "no JSON report on standard output"
    return None


def _expect(condition: bool, what: str) -> str | None:
    return None if condition else what


# --- operations ---------------------------------------------------------------


def _cli_op(command: str, args: list[str], check, jobs: int = 1,
            exit_code: int = 0) -> Op:
    argv = [command, *args] + (["--jobs", str(jobs)]
                               if command in ("verify", "equations") else [])

    def checked(verdict):
        return _cli_failure(verdict, exit_code) or check(verdict)

    return Op(label=" ".join(argv), command=command, jobs=jobs,
              body=lambda tracer: run_cli(argv, tracer), check=checked,
              cli=True)


def _cli_verify(scheme: str, d: int, jobs: int = 1) -> Op:
    def check(verdict):
        rows = _rows(verdict)
        if scheme == "krishna-makam":
            return _expect(verdict["report"]["results"][0]["equal"] is True,
                           "product identity not equal")
        for mode in ("expansion", "streaming"):
            row = rows.get(mode, {})
            if row.get("equal") is not True:
                return f"{mode} did not accept a true identity"
            if row.get("term_count") != term_count(scheme, d):
                return f"{mode} term count {row.get('term_count')}"
        return _expect(rows["modes_agree"]["ok"] is True, "modes disagree")

    return _cli_op("verify", ["--d", str(d), "--scheme", scheme], check, jobs)


def _library_verify(label: str, make, mode: str, jobs: int,
                    expect_equal: bool, terms: int) -> Op:
    """``make(lib)`` builds the decomposition inside the child."""

    def body(tracer):
        lib = library(tracer)
        report = lib.verify_power_decomposition(make(lib), mode=mode,
                                                jobs=jobs)
        return {"equal": report.equal, "terms": report.term_count,
                "witness": report.witness is not None}

    def check(verdict):
        if verdict["terms"] != terms:
            return f"term count {verdict['terms']}, expected {terms}"
        if expect_equal:
            return _expect(verdict["equal"], "a true identity was rejected")
        return _expect(not verdict["equal"] and verdict["witness"],
                       "a tampered decomposition was accepted")

    return Op(label=f"{label} [{mode}, jobs={jobs}]", command="verify",
              jobs=jobs, body=body, check=check, reject=not expect_equal)


def unitriangular_pair(rng: random.Random, d: int):
    """Lower and upper unitriangular integer matrices, det 1 each, with
    seed-drawn signs on the first off-diagonal: +-2 below, +-3 above.

    Every builder's coefficient matrix has at most one nonzero per row and
    column, so an entry of a*C*b sums at most two products, c + 6c' or
    2c + 3c' up to signs, with c and c' roots of unity. Neither can cancel,
    so every seed gives the same sparsity and the same cost."""
    lower = [[1 if r == c else (rng.choice((-2, 2)) if c == r - 1 else 0)
              for c in range(d)] for r in range(d)]
    upper = [[1 if r == c else (rng.choice((-3, 3)) if c == r + 1 else 0)
              for c in range(d)] for r in range(d)]
    return lower, upper


def _conjugated(scheme: str, d: int, pair) -> Callable:
    def make(lib):
        dec = lib.builders[scheme](d)
        a, b = ([[Cyc.from_int(dec.order, v) for v in row] for row in m]
                for m in pair)
        return lib.conjugate_decomposition(a, b, dec)
    return make


def _tampered(scheme: str, d: int, index: int) -> Callable:
    def make(lib):
        dec = lib.builders[scheme](d)
        terms = list(dec.terms)
        terms[index] = dataclasses.replace(terms[index],
                                           coeff=-terms[index].coeff)
        return dataclasses.replace(dec, terms=tuple(terms))
    return make


def _verify_builtin(seed: int) -> list[Op]:
    return [
        _cli_verify("main", 5, jobs=1),
        _cli_verify("main", 5, jobs=2),
        _cli_verify("classical", 4),
        _cli_verify("gurvits", 5),
        _cli_verify("monomial", 6),
        _cli_verify("krishna-makam", 3),
        _library_verify("main_decomposition(6)",
                        lambda lib: lib.main_decomposition(6), "streaming",
                        1, True, term_count("main", 6)),
    ]


def _tampered_inputs(seed: int):
    """The seed-drawn foreign inputs: the conjugating pair, then one negated
    term each in main(5) and classical(4)."""
    rng = random.Random(seed)
    pair = unitriangular_pair(rng, 4)
    tampered = [(scheme, d, rng.randrange(term_count(scheme, d)))
                for scheme, d in (("main", 5), ("classical", 4))]
    return pair, tampered


def _reject_ops(seed: int, engines) -> list[Op]:
    return [_library_verify(f"{scheme}({d}) with term {index} negated",
                            _tampered(scheme, d, index), mode, jobs, False,
                            term_count(scheme, d))
            for scheme, d, index in _tampered_inputs(seed)[1]
            for mode, jobs in engines]


def _verify_foreign(seed: int) -> list[Op]:
    pair, _ = _tampered_inputs(seed)
    ops = [_library_verify(f"conjugated {scheme}(4)",
                           _conjugated(scheme, 4, pair), "expansion", 1,
                           True, term_count(scheme, 4))
           for scheme in ("main", "classical", "gurvits")]
    return ops + _reject_ops(seed, [("expansion", 1)])


def _tampered_engines(seed: int) -> list[Op]:
    """The same tampered inputs through the two engines that rebuild the
    decomposition from its scheme name instead of reading the given terms
    (expansion at jobs=2, streaming). They accept every tampered input
    until ROADMAP item 1 lands, so this is a defect probe, not a measured
    workload: it reports ``correct: false`` while the defect stands."""
    return _reject_ops(seed, [("expansion", 2), ("streaming", 1)])


def _independence(verdict):
    rows = _rows(verdict)
    return (_expect(rows["separation"]["violations"] == 0, "separation")
            or _expect(rows["promotion"]["ok"] is True, "promotion")
            or _expect(rows["rank"]["rank"] == 4 * 24, "rank"))


def _symmetries(d: int):
    def check(verdict):
        orders = _rows(verdict)["orders"]
        action = _rows(verdict)["action"]
        return (_expect(orders["preserving_order"] == symmetry_order(d),
                        f"|H| = {orders['preserving_order']}")
                or _expect(orders["full_order"] == 2 * symmetry_order(d),
                           "full order")
                or _expect(action["ok"] is True and action.get("bad", 0) == 0,
                           "action"))
    return check


def _locus(d: int, p: int):
    def check(verdict):
        locus = _rows(verdict)["locus"]
        points = d * math.factorial(d)
        return _expect(locus["projective_points"] == points
                       and locus["affine_solutions"] == (p - 1) * points,
                       f"{locus['projective_points']} projective points")
    return check


def _equations_d4(verdict):
    extra = _rows(verdict)["extra_generators"]
    return (_expect(extra["square_failure_count"] == 768,
                    f"{extra['square_failure_count']} square failures")
            or _locus(4, 5)(verdict))


def _structure(seed: int) -> list[Op]:
    return [
        _cli_op("independence", ["--d", "4"], _independence),
        _cli_op("symmetries", ["--d", "5", "--seed", str(seed)],
                _symmetries(5)),
        _cli_op("symmetries", ["--d", "4", "--full"], _symmetries(4)),
        _cli_op("equations", ["--d", "3"], _locus(3, 7), jobs=2),
        _cli_op("equations", ["--d", "4"], _equations_d4, jobs=1,
                exit_code=1),
    ]


WORKLOADS = {
    "verify-builtin": _verify_builtin,
    "verify-foreign": _verify_foreign,
    "structure": _structure,
}

# run by name with --workload, never by "all"; not in BENCHMARK.json
PROBES = {
    "tampered-engines": _tampered_engines,
}

ALL = {**WORKLOADS, **PROBES}

COMMANDS = ("verify", "independence", "symmetries", "equations")
