import dataclasses
import json
import math

import pytest

from detpowers import decompositions, independence
from detpowers.cli import main
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import (
    classical_decomposition,
    main_decomposition,
)
from detpowers.independence import (
    _certificate,
    diagonal_cofactor_monomial,
    dual_form,
    independence_certificate,
    term_index_list,
)
from detpowers.multipoly import (
    LinForm,
    SparsePoly,
    covered_values,
    expand_power,
)
from test_decompositions import transposition
from test_multipoly import evaluate


def term_point(d, sigma, j):
    """Oracle: the coefficient matrix of term (sigma, j) by main's formula,
    as a point by its phases: the coordinate at (i, sigma i) is
    w^(ij mod d), every other is zero."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    return {(i, s): i * j % d for i, s in enumerate(sigma, start=1)}


def promoted_dual_form(d, sigma, j, make_form=dual_form):
    """Oracle: the degree-d promotion, the dual form multiplied by
    x[1, sigma 1]."""
    return make_form(d, sigma, j) * SparsePoly.variable(d, (1, sigma[0]))


def _separation_values(d):
    """Oracle: every dual form of the library paired with the formula's term
    points, both in ``term_index_list`` order, by ``covered_values``."""
    if not 2 <= d <= 5:
        raise ValueError(f"d must be in [2, 5], got {d}")
    indices = term_index_list(d)
    return indices, covered_values(
        [independence.dual_form(d, sigma, j) for sigma, j in indices],
        [term_point(d, sigma, j) for sigma, j in indices])


def formula_separation_violations(d):
    """Oracle: the entries of the formula-point table breaking the pattern,
    row by row, in column order."""
    indices, values = _separation_values(d)
    zero = Cyc.zero(d)
    bad = []
    for r, ((_, j), row) in enumerate(zip(indices, values)):
        expected_diag = Cyc.from_int(d, (-1) ** ((d + 1) * j) * d)
        for c in sorted(row.keys() | {r}):
            value = row.get(c, zero)
            if value != (expected_diag if r == c else zero):
                bad.append((r, c, value))
    return bad


def separation_matrix(d):
    """The full pairing table: entry [r][c] is the r-th dual form evaluated
    at the c-th term point, zero wherever no monomial is covered."""
    indices, values = _separation_values(d)
    zero = Cyc.zero(d)
    matrix = []
    for row in values:
        entries = [zero] * len(indices)
        for c, value in row.items():
            entries[c] = value
        matrix.append(entries)
    return indices, matrix


def rank_of_rows(rows):
    """Oracle: exact rank of sparse vectors over the cyclotomic field. Row
    reduction pivots on each row's first nonzero position in sorted column
    order; exact arithmetic needs no pivot-size policy.

    Pivots are applied in creation order: each stored pivot row is already
    zero at every earlier pivot column, so a fully reduced row is zero at
    all of them and its leading column is guaranteed fresh.
    """
    pivots = []
    for row in rows:
        work = dict(row)
        for col, pivot in pivots:
            factor = work.get(col)
            if factor is None or factor.is_zero:
                continue
            for c, v in pivot.items():
                delta = v * factor
                prior = work.get(c)
                updated = -delta if prior is None else prior - delta
                if updated.is_zero:
                    work.pop(c, None)
                else:
                    work[c] = updated
        work = {c: v for c, v in work.items() if not v.is_zero}
        if not work:
            continue
        lead = min(work)
        inv = work[lead].inverse()
        pivots.append((lead, {c: v * inv for c, v in work.items()}))
    return len(pivots)


def exact_rank(terms):
    return rank_of_rows([dict((expand_power(term.form, term.exponent)
                               * term.coeff).terms) for term in terms])


def rank_oracle(d, allow_large=False):
    """Oracle: rank of the expanded terms T_{sigma,j} in the degree-d
    monomial basis, by exact elimination over Q(w). d = 5 means a 600-row
    system; it is gated behind allow_large."""
    if d < 2 or d > 5 or (d == 5 and not allow_large):
        limit = "in [2, 5] with allow_large" if d == 5 else "in [2, 4]"
        raise ValueError(f"d must be {limit}, got {d}")
    return exact_rank(main_decomposition(d).terms)


def c1(n):
    return Cyc.from_int(1, n)


def coords(d, point):
    """Oracle: a term point's nonzero coordinates, {var: w^phase}."""
    return {var: omega(d, k) for var, k in point.items()}


def identity(d):
    return tuple(range(1, d + 1))


def degrees(poly):
    """The set of total degrees of the monomials of ``poly``."""
    return {sum(e for _, _, e in m) for m in poly.terms}


class TestTermPoint:
    def test_d2_identity_j1(self):
        p = coords(2, term_point(2, (1, 2), 1))
        assert p[1, 1] == Cyc.from_int(2, -1)
        assert p[2, 2] == Cyc.from_int(2, 1)
        assert (1, 2) not in p and (2, 1) not in p

    def test_d3_identity_j3_is_all_ones_diagonal(self):
        p = coords(3, term_point(3, (1, 2, 3), 3))
        one = Cyc.one(3)
        for i in range(1, 4):
            assert p[i, i] == one

    def test_d3_cycle(self):
        p = term_point(3, (2, 3, 1), 1)
        w = omega(3)
        assert p == {(1, 2): 1, (2, 3): 2, (3, 1): 0}
        assert coords(3, p) == {(1, 2): w, (2, 3): w * w, (3, 1): Cyc.one(3)}

    def test_exactly_d_nonzero_entries(self):
        for sigma, j in term_index_list(3):
            point = term_point(3, sigma, j)
            assert sorted(point) == sorted(enumerate(sigma, start=1))

    def test_j_range(self):
        with pytest.raises(ValueError):
            term_point(3, (1, 2, 3), 0)


class TestDualForm:
    def test_d2_identity_j2(self):
        form = dual_form(2, (1, 2), 2)
        assert len(form.terms) == 2
        mono_x11 = (((1, 1, 1),))
        mono_x22 = (((2, 2, 1),))
        assert form.coefficient(tuple(mono_x11)) == Cyc.one(2)
        assert form.coefficient(tuple(mono_x22)) == Cyc.one(2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_has_d_monomials_of_degree_d_minus_1(self, d):
        for sigma in (identity(d), transposition(d, 1, d)):
            form = dual_form(d, sigma, 1)
            assert len(form) == d
            assert degrees(form) == {d - 1}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cofactor_value_at_matching_point(self, d):
        # product of all-but-one coordinate at the matching point is
        # w^(binom(d+1,2) j - k j)
        for j in range(1, d + 1):
            point = coords(d, term_point(d, identity(d), j))
            for k in range(1, d + 1):
                mono = diagonal_cofactor_monomial(identity(d), k)
                value = Cyc.one(d)
                for (i, col, e) in mono:
                    value = value * point[i, col] ** e
                assert value == omega(d, math.comb(d + 1, 2) * j - k * j)


class TestSeparation:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_is_diagonal_with_stated_values(self, d):
        indices, matrix = separation_matrix(d)
        assert len(indices) == d * math.factorial(d)
        for r, (_, j) in enumerate(indices):
            for c in range(len(indices)):
                if r == c:
                    assert matrix[r][c] == Cyc.from_int(
                        d, (-1) ** ((d + 1) * j) * d)
                else:
                    assert matrix[r][c].is_zero

    def test_check_separation_d4(self):
        assert independence_certificate(4)[0] == []

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_violations_equal_the_formula_point_table(self, d):
        # the certificate reads the points of the terms main(d) holds; the
        # oracle reads them from main's formula
        violations = independence_certificate(d)[0]
        assert violations == formula_separation_violations(d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_promotion_preserves_pattern(self, d):
        assert independence_certificate(d)[2] is None

    def test_promoted_form_degree(self):
        form = promoted_dual_form(3, (1, 2, 3), 1)
        assert degrees(form) == {3}
        assert len(form) == 3

    @pytest.mark.parametrize("d", [-1, 0, 1, 6, 12])
    def test_range_check(self, d, monkeypatch):
        # refused before main(d) is built
        monkeypatch.setattr(independence, "main_decomposition", None)
        with pytest.raises(ValueError,
                           match=rf"^d must be in \[2, 5\], got {d}$"):
            independence_certificate(d)

    def test_index_order_is_sigma_lex_then_j(self):
        indices = term_index_list(2)
        assert indices == [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]


def full_table(d, make_form=dual_form, points=None):
    """Oracle: every form evaluated at every point, by default the term
    points of main's formula."""
    indices = term_index_list(d)
    if points is None:
        points = [coords(d, term_point(d, sigma, j)) for sigma, j in indices]
    return [[evaluate(make_form(d, sigma, j), p) for p in points]
            for sigma, j in indices]


def pattern_violations(d, table):
    indices = term_index_list(d)
    count = 0
    for r, (_, j) in enumerate(indices):
        diagonal = Cyc.from_int(d, (-1) ** ((d + 1) * j) * d)
        for c, value in enumerate(table[r]):
            count += value != (diagonal if r == c else Cyc.zero(d))
    return count


def promoted_reading(dec, make_form=dual_form):
    """Oracle: the certified rank and the first violation, read from the
    full table of the promoted forms at the points of the given terms."""
    table = full_table(
        dec.d, lambda d, sigma, j: promoted_dual_form(d, sigma, j, make_form),
        [dict(term.form.support()) for term in dec.terms])
    count, first = 0, None
    for r, (term, row) in enumerate(zip(dec.terms, table)):
        bad = [(r, c, value) for c, value in enumerate(row)
               if (r == c) == value.is_zero]
        if not bad:
            count += not term.coeff.is_zero
        elif first is None:
            first = bad[0]
    return count, first


def widened_by(tau):
    """The dual forms, the first one with tau's cofactor monomial at k = 1
    added, so that it no longer vanishes at tau's points."""
    def widened(d, sigma, j):
        form = dual_form(d, sigma, j)
        if sigma != identity(d) or j != 1:
            return form
        terms = dict(form.terms)
        terms[diagonal_cofactor_monomial(tau, 1)] = Cyc.one(d)
        return SparsePoly(d, terms)
    return widened


def tampered(d, kind):
    """main(d) as built, with term 0 repeated at 1, or with a zero
    coefficient at term 3."""
    dec = main_decomposition(d)
    if kind == "duplicated":
        return with_term(dec, 1, dec.terms[0])
    if kind == "zero-coefficient":
        return with_term(dec, 3, dataclasses.replace(dec.terms[3],
                                                     coeff=Cyc.zero(d)))
    return dec


class TestSupportDecidedPairings:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matrix_equals_full_table(self, d):
        _, matrix = separation_matrix(d)
        assert matrix == full_table(d)

    @pytest.mark.parametrize("d,tau", [
        (2, (1, 2)), (3, (1, 2)), (4, (1, 2)), (3, (2, 3)), (4, (2, 3))],
        ids=["2-(12)", "3-(12)", "4-(12)", "3-(23)", "4-(23)"])
    def test_covering_monomial_is_caught(self, d, tau, monkeypatch):
        # the first form gains a cofactor monomial of tau, so it no longer
        # vanishes at tau's points. Nor does its promotion by x[1, 1] when
        # tau fixes 1; tau = (1 2) moves 1, so tau's points have no (1, 1)
        # coordinate, and the promotion stays zero there and keeps the rank
        widened = widened_by(transposition(d, *tau))
        expected = pattern_violations(d, full_table(d, widened))
        reading = promoted_reading(main_decomposition(d), widened)
        monkeypatch.setattr(independence, "dual_form", widened)
        violations, *rest = independence_certificate(d)
        assert expected > 0
        assert len(violations) == expected
        assert violations == formula_separation_violations(d)
        assert tuple(rest) == reading
        assert (reading == (d * math.factorial(d), None)) == (tau == (1, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["main", "duplicated",
                                      "zero-coefficient"])
    def test_certificate_equals_promoted_table(self, d, kind):
        dec = tampered(d, kind)
        assert _certificate(dec)[1:] == promoted_reading(dec)

class TestRank:
    def test_rank_of_simple_rows(self):
        rows = [{0: c1(1), 1: c1(2)}, {0: c1(2), 1: c1(4)}]
        assert rank_of_rows(rows) == 1
        rows = [{0: c1(1)}, {1: c1(1)}, {0: c1(1), 1: c1(1)}]
        assert rank_of_rows(rows) == 2
        assert rank_of_rows([]) == 0
        assert rank_of_rows([{}]) == 0

    def test_rank_with_cancellation_ordering(self):
        # the third row reduces to zero only after both pivots apply
        rows = [{0: c1(1), 2: c1(1)},
                {1: c1(1), 2: c1(-1)},
                {0: c1(3), 1: c1(3)},
                {0: c1(1), 1: c1(1), 2: c1(1)}]
        assert rank_of_rows(rows) == 3

    def test_rank_over_cyclotomic_field(self):
        w = omega(4)
        rows = [{0: w, 1: Cyc.one(4)},
                {0: w * w, 1: w},
                {0: Cyc.one(4), 1: w}]
        # second row is w times the first; third is independent
        assert rank_of_rows(rows) == 2

    @pytest.mark.parametrize("d,expected", [(2, 4), (3, 18)])
    def test_rank_oracle_small(self, d, expected):
        assert rank_oracle(d) == expected

    def test_rank_oracle_gates(self):
        with pytest.raises(ValueError):
            rank_oracle(5)
        with pytest.raises(ValueError):
            rank_oracle(1)
        with pytest.raises(ValueError):
            rank_oracle(6, allow_large=True)


def with_term(dec, r, term):
    terms = list(dec.terms)
    terms[r] = term
    return dataclasses.replace(dec, terms=tuple(terms))


class TestRankCertificate:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_certified_rank_equals_exact_oracle(self, d):
        _, count, violation = independence_certificate(d)
        assert count == rank_oracle(d) == d * math.factorial(d)
        assert violation is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_mod_p_itself_is_full(self, d):
        # the promoted pairing table itself has full rank over Q(w), without
        # the pattern: f_r(D) sends a vanishing combination of the terms to
        # d! times the table applied to (lambda_c coeff_c), so an invertible
        # table alone forces every lambda_c = 0
        table = full_table(d, promoted_dual_form)
        rows = [{c: v for c, v in enumerate(row) if not v.is_zero}
                for row in table]
        assert rank_of_rows(rows) == d * math.factorial(d)

    def test_certified_rank_at_d5_is_full(self):
        assert independence_certificate(5) == ([], 600, None)

    def test_duplicated_term_breaks_the_pattern(self):
        # two equal points: form 0 is nonzero at both and form 1 at neither,
        # so rows 0 and 1 drop out of a count that stays a lower bound
        dec = main_decomposition(3)
        dec = with_term(dec, 1, dec.terms[0])
        exact = exact_rank(dec.terms)
        _, count, violation = _certificate(dec)
        assert count == 16 <= exact == 17
        assert violation == (0, 1, Cyc.from_int(3, 3) * omega(3))

    def test_zero_coefficient_is_not_counted(self):
        dec = main_decomposition(3)
        dec = with_term(dec, 5, dataclasses.replace(dec.terms[5],
                                                    coeff=Cyc.zero(3)))
        assert _certificate(dec)[1:] == (17, None)

    def test_scalar_off_the_roots_of_unity_is_rejected(self):
        # 2w, and the root i of order 4 where the points' w has order 2
        dec = main_decomposition(3)
        term = dec.terms[4]
        (var, c), *rest = term.form.support()
        form = LinForm(3, 3, [(var, c * 2), *rest])
        with pytest.raises(ValueError, match=r"term 4 .*not a power of w"):
            _certificate(with_term(
                dec, 4, dataclasses.replace(term, form=form)))
        # main(2) read at root order 4, its first form's entries i: a
        # decomposition refuses a form whose order is not its own
        dec = main_decomposition(2)

        def lift(c):
            return Cyc.from_fraction(4, c.rational())

        terms = [dataclasses.replace(
                    t, coeff=lift(t.coeff),
                    form=LinForm(4, 2, [(var, lift(c))
                                        for var, c in t.form.support()]))
                 for t in dec.terms]
        form = LinForm(4, 2, [(var, omega(4, 1))
                              for var, _ in dec.terms[0].form.support()])
        terms[0] = dataclasses.replace(terms[0], form=form)
        with pytest.raises(ValueError, match=r"term 0 .*of order 2"):
            _certificate(dataclasses.replace(
                dec, order=4, terms=tuple(terms)))

    def test_range_check(self):
        # a decomposition with other than d * d! terms has no pairing
        with pytest.raises(ValueError, match="pairs 18 terms"):
            _certificate(classical_decomposition(3))

    def test_cli_d5_is_certified_without_exact_elimination(self, capsys):
        # the library has no exact elimination; only these tests do
        assert not hasattr(independence, "rank_of_rows")
        assert main(["independence", "--d", "5", "--force"]) == 0
        report = json.loads(capsys.readouterr().out)
        rank_row = [r for r in report["results"] if r["check"] == "rank"][0]
        assert rank_row["rank"] == rank_row["expected"] == 600


class TestOnePairing:
    """Work counts, with no clock: the separation pattern and the rank
    certificate are read from one pairing of the dual forms with the points
    of the built terms."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = independence.covered_values

        def counted(forms, points):
            calls.append((len(forms), len(points)))
            return original(forms, points)

        monkeypatch.setattr(independence, "covered_values", counted)
        return calls

    def test_cli_d4_pairs_once(self, calls, capsys):
        assert main(["independence", "--d", "4"]) == 0
        assert calls == [(96, 96)]

    def test_d5_pairs_once(self, calls):
        assert independence_certificate(5) == ([], 600, None)
        assert calls == [(600, 600)]

    def test_points_look_up_no_root_per_term(self, monkeypatch):
        # the points are read from the phase-code view: one lookup per
        # distinct pair object of main(4), 44 for its 96 * 4 entries, and
        # no Cyc.root_power at all
        lookups, powers = [], []
        code, power = decompositions._unit_code, Cyc.root_power
        monkeypatch.setattr(decompositions, "_unit_code",
                            lambda c: lookups.append(c) or code(c))
        monkeypatch.setattr(Cyc, "root_power",
                            lambda c: powers.append(c) or power(c))
        assert independence_certificate(4) == ([], 96, None)
        assert len(lookups) == 44
        assert powers == []
