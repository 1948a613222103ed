"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS or FAIL line; run with

    pytest -s -v tests/test_acceptance.py

to see all eleven lines. Budgets are wall-clock seconds on a single
desktop core.
"""

import itertools
import math
import time

from detpowers import cli
from detpowers.decompositions import (
    SCHEME_BUILDERS,
    bounds_table,
    krishna_makam_det3,
)
from detpowers.symmetry import (
    check_affine_characterization,
    check_sign_formulas,
    check_symmetry_action,
    enumerate_symmetries,
    transpose_closure,
)
from detpowers.varieties import (
    extra_generators,
    locus_proof,
    quadric_generators,
    vanish_on_points,
)
from detpowers.verify import (
    check_closed_form_coefficients,
    verify_power_decomposition,
    verify_product_identity,
)

from test_independence import rank_oracle, separation_matrix
from test_varieties import full_affine_count


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {status}: {detail}")


def _verify_timed(scheme: str, d: int, budget: float, mode: str = "expansion"):
    started = time.perf_counter()
    report = verify_power_decomposition(SCHEME_BUILDERS[scheme](d), mode=mode)
    elapsed = time.perf_counter() - started
    return report.equal and elapsed <= budget, elapsed, report


def test_criterion_01_main_identity_exact():
    budgets = {2: 5.0, 3: 5.0, 4: 5.0, 5: 5.0, 6: 60.0}
    ok = True
    slowest = (0, 0.0)
    for d, budget in budgets.items():
        good, elapsed, report = _verify_timed("main", d, budget)
        ok = ok and good
        if elapsed > slowest[1]:
            slowest = (d, elapsed)
    detail = (f"d*d!*det equals its d*d!-term power sum exactly for d=2..6 "
              f"(slowest: d={slowest[0]} at {slowest[1]:.1f}s)")
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_02_classical_and_row_mix_families():
    ok = True
    slowest = 0.0
    for scheme in ("classical", "gurvits"):
        for d in range(2, 6):
            good, elapsed, report = _verify_timed(scheme, d, 30.0)
            ok = ok and good
            slowest = max(slowest, elapsed)
    detail = (f"sign-vector and row-mix decompositions verify exactly for "
              f"d=2..5 (slowest {slowest:.1f}s, budget 30s)")
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_03_diagonal_power_sum_and_five_products():
    ok = True
    slowest = 0.0
    for d in range(2, 7):
        good, elapsed, report = _verify_timed("monomial", d, 1.0)
        ok = ok and good
        slowest = max(slowest, elapsed)
    started = time.perf_counter()
    product_ok = verify_product_identity(krishna_makam_det3())
    elapsed = time.perf_counter() - started
    ok = ok and product_ok and elapsed <= 1.0
    slowest = max(slowest, elapsed)
    detail = (f"diagonal power sums (d=2..6) and the five-term product "
              f"identity verify exactly (slowest {slowest:.2f}s, budget 1s)")
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_04_power_sum_coefficient_formula():
    ok = True
    slowest = 0.0
    for d in range(2, 6):
        started = time.perf_counter()
        matches = check_closed_form_coefficients(d)
        elapsed = time.perf_counter() - started
        ok = ok and matches and elapsed <= 10.0
        slowest = max(slowest, elapsed)
    detail = (f"closed-form coefficients match full expansion on every "
              f"degree-d monomial for d=2..5 (slowest {slowest:.2f}s, "
              f"budget 10s)")
    _report(4, ok, detail)
    assert ok, detail


# term counts and rank bounds, frozen from the printed summary table
EXPECTED_BOUNDS = {
    2: (4, 4, 6, None, 4, 4),
    3: (24, 20, 24, 18, 18, 17),
    4: (192, 160, 120, None, 96, 50),
    5: (1920, 1600, 720, None, 600, 182),
    6: (23040, 16000, 5040, None, 4320, 672),
    7: (322560, 224000, 40320, None, 35280, 2508),
    8: (5160960, 3584000, 362880, None, 322560, 9438),
    9: (92897280, 53760000, 3628800, None, 3265920, 35750),
}


def test_criterion_05_bounds_table():
    rows = {row.d: row for row in bounds_table(9)}
    bad = []
    for d, expected in EXPECTED_BOUNDS.items():
        row = rows.get(d)
        got = None if row is None else (row.classical, row.derksen,
                                        row.gurvits, row.cglv, row.new,
                                        row.lower)
        if got != expected:
            bad.append(f"d={d}: {got} != {expected}")
    ok = not bad and len(rows) == len(EXPECTED_BOUNDS)
    detail = ("every bounds-table entry for d=2..9 matches, including the "
              "lower bound 17 at d=3" if ok else "; ".join(bad))
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_06_separation_and_rank():
    bad = []
    d4_elapsed = 0.0
    for d in range(2, 6):
        started = time.perf_counter()
        indices, matrix = separation_matrix(d)
        elapsed = time.perf_counter() - started
        if d == 4:
            d4_elapsed += elapsed
        for r, (images_r, j_r) in enumerate(indices):
            expected = (-1) ** ((d + 1) * j_r) * d
            for c in range(len(indices)):
                entry = matrix[r][c]
                if r == c:
                    if entry != expected:
                        bad.append(f"d={d} diagonal at {indices[r]}: "
                                   f"{entry} != {expected}")
                elif not entry.is_zero:
                    bad.append(f"d={d} off-diagonal {indices[r]} x "
                               f"{indices[c]} is {entry}")
    for d in range(2, 5):
        started = time.perf_counter()
        rank = rank_oracle(d)
        elapsed = time.perf_counter() - started
        if d == 4:
            d4_elapsed += elapsed
        if rank != d * math.factorial(d):
            bad.append(f"rank at d={d} is {rank}, "
                       f"expected {d * math.factorial(d)}")
    if d4_elapsed > 60.0:
        bad.append(f"d=4 took {d4_elapsed:.1f}s, budget 60s")
    ok = not bad
    detail = (f"pairing matrix is exactly diagonal with entries "
              f"(-1)^((d+1)j) * d for d=2..5 and the span has full rank "
              f"d*d! for d=2..4 (d=4 in {d4_elapsed:.1f}s)"
              if ok else "; ".join(bad[:4]))
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_07_symmetry_groups():
    bad = []
    flagged = []
    printed = {2: 8, 3: 162, 4: 1536}
    for d in (2, 3, 4):
        enum = enumerate_symmetries(d)
        if enum.preserving_order != printed[d]:
            bad.append(f"|H| at d={d} is {enum.preserving_order}, "
                       f"expected {printed[d]}")
        if not check_symmetry_action(d):
            bad.append(f"an element fails the term action at d={d}")
    for d in range(2, 6):
        enum = enumerate_symmetries(d)
        if enum.preserving_order != enum.reversing_order:
            bad.append(f"preserving/reversing split at d={d} is "
                       f"{enum.preserving_order}/{enum.reversing_order}")
    for d in (5, 6):
        enum = enumerate_symmetries(d)
        if not enum.matches_formula:
            bad.append(f"d={d} enumeration {enum.preserving_order} differs "
                       f"from the closed formula {enum.formula_order}")
        if not enum.matches_printed:
            flagged.append(f"d={d}: enumerated {enum.preserving_order} vs "
                           f"printed {enum.printed_order}")
    ok = not bad
    detail = ("orders 8/162/1536 at d=2/3/4, every element acts correctly "
              "on the terms, and exactly half of the extended group "
              "preserves for d=2..5")
    if flagged:
        detail += ("; printed-table mismatches flagged as an open "
                   "question: " + ", ".join(flagged))
    if not ok:
        detail = "; ".join(bad[:4])
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_08_affine_membership_and_signs():
    bad = []
    for d in range(2, 7):
        if not check_affine_characterization(d):
            bad.append(f"affine characterization fails at d={d}")
    for d in range(2, 13):
        if not check_sign_formulas(d):
            bad.append(f"a sign formula fails at d={d}")
    ok = not bad
    detail = ("monomial-matrix membership matches the affine criterion for "
              "d=2..6 and both determinant-sign formulas hold for d=2..12"
              if ok else "; ".join(bad))
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_09_transpose_closure():
    bad = []
    witness_note = ""
    for d in range(2, 7):
        closed, witnesses = transpose_closure(d)
        expected = d <= 3
        if closed != expected:
            bad.append(f"closure at d={d} is {closed}, expected {expected}")
        if d == 4:
            swap = (1, (2, 1, 3, 4))
            if swap in witnesses:
                witness_note = ("; the shifted row swap (j=1, images "
                                "(2,1,3,4)) witnesses the failure at d=4")
            else:
                bad.append("expected row-swap witness missing at d=4")
    ok = not bad
    detail = ("term set is transpose-closed for d=2,3 and not for d=4,5,6"
              + witness_note if ok else "; ".join(bad))
    _report(9, ok, detail)
    assert ok, detail


# The d=4 square generator for row i and column pair S = {j1, j2} is
# x[i,j1]^2 + x[i,j2]^2 minus the permanent over rows {i-1, i+1} and the
# columns outside S. At D^j P_sigma it evaluates to
# w^(2ij) ([sigma(i) in S] - [sigma(i) in S and sigma(i+2) in S]), since
# w^(2(i+2)j) = w^(2ij) when w^4 = 1, so it is nonzero exactly when
# sigma(i) is in S and sigma(i+2) is not: d * d! * d * 2 = 768 evaluations.
_D4_SQUARE_FAILURES = 4 * math.factorial(4) * 4 * 2


def _wrap4(i: int) -> int:
    return (i - 1) % 4 + 1


def _d4_square_failures_by_closed_form() -> int:
    """Count the (j, sigma, i, S) with sigma(i) in S and sigma(i+2) not in
    S, without reading the library's report."""
    count = 0
    for _j in range(4):
        for images in itertools.permutations(range(1, 5)):
            for i in range(1, 5):
                for pair in itertools.combinations(range(1, 5), 2):
                    if (images[i - 1] in pair
                            and images[_wrap4(i + 2) - 1] not in pair):
                        count += 1
    return count


def _d4_square_family_problems(extra4) -> list[str]:
    """Check that the d=4 square family, kept as stated, fails on the point
    set exactly as the closed form says, with a genuine first witness."""
    bad = []
    labels = tuple((i, j1, j2) for i in range(1, 5)
                   for j1, j2 in itertools.combinations(range(1, 5), 2))
    if len(extra4.squares) != 24 or extra4.square_labels != labels:
        bad.append(f"d=4 square family has {len(extra4.squares)} generators "
                   f"labelled {extra4.square_labels}, expected the 24 "
                   f"(row, column pair) labels {labels}")
        return bad
    expected = _d4_square_failures_by_closed_form()
    if expected != _D4_SQUARE_FAILURES:
        bad.append(f"closed-form enumeration gives {expected} failing "
                   f"evaluations, expected d*d!*d*2 = {_D4_SQUARE_FAILURES}")
    if extra4.squares_vanish or extra4.square_failure_count != expected:
        bad.append(f"d=4 square family as stated has "
                   f"{extra4.square_failure_count} nonzero evaluations "
                   f"(squares_vanish={extra4.squares_vanish}), expected "
                   f"exactly {expected}")
    if not extra4.square_failures:
        bad.append("d=4 square family report carries no failure witness")
        return bad
    pos, j, images = extra4.square_failures[0]
    i, j1, j2 = labels[pos]
    # substitute D^j P_sigma directly: entry (r, sigma(r)) is w^(rj), and
    # the primitive fourth root w = 1j keeps every product exact
    entries = {(r, images[r - 1]): 1j ** (r * j) for r in range(1, 5)}

    def x(r, c):
        return entries.get((r, c), 0)

    squares = x(i, j1) ** 2 + x(i, j2) ** 2
    rows = (_wrap4(i - 1), _wrap4(i + 1))
    cols = tuple(c for c in range(1, 5) if c not in (j1, j2))
    permanent = (x(rows[0], cols[0]) * x(rows[1], cols[1])
                 + x(rows[0], cols[1]) * x(rows[1], cols[0]))
    if squares == 0 or permanent != 0:
        bad.append(f"first d=4 square witness is not genuine: form "
                   f"{labels[pos]} at j={j}, permutation {images} gives "
                   f"squares {squares} and permanent {permanent}")
    return bad


def test_criterion_10_defining_equations():
    bad = []
    for d in range(2, 7):
        if not vanish_on_points(d):
            bad.append(f"a monomial or row-sum quadric fails at d={d}")
    extra3 = extra_generators(3)
    if not extra3.squares_vanish:
        bad.append("a d=3 square generator fails on a point")
    red = extra3.reduction
    if red is None or not red.ok:
        bad.append("the d=3 row-sum quadrics do not reduce to the square "
                   "generators modulo the monomial ideal")
    extra4 = extra_generators(4)
    if not extra4.differences_vanish:
        bad.append("a d=4 permanent-difference generator fails on a point")
    if extra4.raw_difference_count != 24 or len(extra4.differences) != 12:
        bad.append(f"d=4 permanent differences count "
                   f"{extra4.raw_difference_count}/{len(extra4.differences)},"
                   f" expected 24/12")
    bad.extend(_d4_square_family_problems(extra4))
    proofs = {d: locus_proof(quadric_generators(d)) for d in range(2, 7)}
    bad.extend(f"the locus proof's premise or point count fails at d={d}"
               for d, proof in proofs.items() if not proof.ok)
    expected_loci = [(2, 5, 16, 4), (3, 7, 108, 18), (4, 5, 384, 96)]
    for d, p, affine, projective in expected_loci:
        started = time.perf_counter()
        searched = full_affine_count(d, p)
        elapsed = time.perf_counter() - started
        points = proofs[d].projective_points
        if (searched, points) != (affine, projective):
            bad.append(f"locus over p={p} at d={d}: the search counted "
                       f"{searched} and the proof {points} points, expected "
                       f"{affine}/{projective}")
        if d == 3 and elapsed > 120.0:
            bad.append(f"full count at d=3, p=7 took {elapsed:.1f}s, "
                       f"budget 120s")
    ok = not bad
    detail = (f"all quadric families vanish on the d*d! points for d=2..6, "
              f"the d=3 reduction is exact, the d=4 square family as stated "
              f"fails at exactly {_D4_SQUARE_FAILURES} evaluations with a "
              f"genuine witness, the locus proof holds for d=2..6, and the "
              f"GF(p) row search counts its points"
              if ok else "; ".join(bad))
    _report(10, ok, detail)
    assert ok, detail


def test_criterion_11_mode_agreement_and_determinism(capsys):
    bad = []
    ranges = {"main": 6, "classical": 5, "gurvits": 5, "monomial": 6}
    for scheme, top in ranges.items():
        for d in range(2, top + 1):
            dec = SCHEME_BUILDERS[scheme](d)
            expanded = verify_power_decomposition(dec, mode="expansion")
            streamed = verify_power_decomposition(dec, mode="streaming")
            if not (expanded.equal and streamed.equal
                    and expanded.distinct_monomials
                    == streamed.distinct_monomials):
                bad.append(f"expansion and streaming disagree for {scheme} "
                           f"at d={d}")
    outputs = []
    for jobs in ("1", "2"):
        code = cli.main(["verify", "--d", "3", "--scheme", "main",
                         "--jobs", jobs])
        captured = capsys.readouterr()
        if code != 0:
            bad.append(f"verify report with --jobs {jobs} exited {code}")
        outputs.append(captured.out)
    if outputs[0] != outputs[1]:
        bad.append("sequential and parallel verify reports differ")
    symmetry_reports = []
    for flags in ((), ("--seed", "11"), ("--full",)):
        code = cli.main(["symmetries", "--d", "4", *flags])
        captured = capsys.readouterr()
        if code != 0:
            bad.append(f"symmetry report with {list(flags)} exited {code}")
        symmetry_reports.append(captured.out)
    if len(set(symmetry_reports)) != 1:
        bad.append("symmetry reports differ across --seed and --full")
    ok = not bad
    detail = ("expansion and streaming verification agree for every scheme "
              "up to its cap, and reports are byte-identical across --jobs "
              "and, for symmetries, across the ignored --seed and --full"
              if ok else "; ".join(bad))
    _report(11, ok, detail)
    assert ok, detail
