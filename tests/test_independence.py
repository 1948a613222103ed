import dataclasses
import json
import math

import pytest

from detpowers import independence
from detpowers.cli import main
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import (
    classical_decomposition,
    main_decomposition,
)
from detpowers.independence import (
    _separation_values,
    diagonal_cofactor_monomial,
    dual_form,
    promoted_dual_form,
    promotion_certificate,
    separation_violations,
    term_index_list,
    term_point,
)
from detpowers.multipoly import LinForm, SparsePoly, expand_power
from test_decompositions import transposition
from test_multipoly import evaluate


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
        assert separation_violations(4) == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_promotion_preserves_pattern(self, d):
        assert promotion_certificate(main_decomposition(d))[1] is None

    def test_promoted_form_degree(self):
        form = promoted_dual_form(3, (1, 2, 3), 1)
        assert degrees(form) == {3}
        assert len(form) == 3

    def test_range_check(self):
        with pytest.raises(ValueError):
            separation_matrix(6)

    def test_index_order_is_sigma_lex_then_j(self):
        indices = term_index_list(2)
        assert indices == [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]


def full_table(d, make_form=dual_form):
    """Oracle: every dual form evaluated at every term point."""
    indices = term_index_list(d)
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


class TestSupportDecidedPairings:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matrix_equals_full_table(self, d):
        _, matrix = separation_matrix(d)
        assert matrix == full_table(d)

    @pytest.mark.parametrize("d", [3, 4])
    def test_covering_monomial_is_caught(self, d, monkeypatch):
        # the first form gains a cofactor monomial of tau = (2 3), so it no
        # longer vanishes at tau's points, nor does its promotion by x[1,1]
        original = dual_form
        tau = transposition(d, 2, 3)

        def widened(d_, sigma, j):
            form = original(d_, sigma, j)
            if sigma != identity(d_) or j != 1:
                return form
            extra = diagonal_cofactor_monomial(tau, 1)
            terms = dict(form.terms)
            terms[extra] = Cyc.one(d_)
            return SparsePoly(d_, terms)

        expected = pattern_violations(d, full_table(d, widened))
        promoted = full_table(d, lambda d_, sigma, j: widened(d_, sigma, j)
                              * SparsePoly.variable(d, (1, sigma[0])))
        first = next((r, c, value) for r, row in enumerate(promoted)
                     for c, value in enumerate(row)
                     if (r == c) == value.is_zero)
        monkeypatch.setattr(independence, "dual_form", widened)
        assert expected > 0
        assert len(separation_violations(d)) == expected
        count, violation = promotion_certificate(main_decomposition(d))
        assert violation == first
        assert count < d * math.factorial(d)


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
        count, violation = promotion_certificate(main_decomposition(d))
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
        assert promotion_certificate(main_decomposition(5)) == (600, None)

    def test_duplicated_term_breaks_the_pattern(self):
        # two equal points: form 0 is nonzero at both and form 1 at neither,
        # so rows 0 and 1 drop out of a count that stays a lower bound
        dec = main_decomposition(3)
        dec = with_term(dec, 1, dec.terms[0])
        exact = exact_rank(dec.terms)
        count, violation = promotion_certificate(dec)
        assert count == 16 <= exact == 17
        assert violation == (0, 1, Cyc.from_int(3, 3) * omega(3))

    def test_zero_coefficient_is_not_counted(self):
        dec = main_decomposition(3)
        dec = with_term(dec, 5, dataclasses.replace(dec.terms[5],
                                                    coeff=Cyc.zero(3)))
        assert promotion_certificate(dec) == (17, None)

    def test_scalar_off_the_roots_of_unity_is_rejected(self):
        # 2w, and the root i of order 4 where the points' w has order 2
        dec = main_decomposition(3)
        term = dec.terms[4]
        (var, c), *rest = term.form.support()
        form = LinForm(3, 3, [(var, c * 2), *rest])
        with pytest.raises(ValueError, match=r"term 4 .*not a power of w"):
            promotion_certificate(with_term(
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
            promotion_certificate(dataclasses.replace(
                dec, order=4, terms=tuple(terms)))

    def test_range_check(self):
        # a decomposition with other than d * d! terms has no pairing
        with pytest.raises(ValueError, match="pairs 18 terms"):
            promotion_certificate(classical_decomposition(3))

    def test_cli_d5_is_certified_without_exact_elimination(self, capsys):
        # the library has no exact elimination; only these tests do
        assert not hasattr(independence, "rank_of_rows")
        assert main(["independence", "--d", "5", "--force"]) == 0
        report = json.loads(capsys.readouterr().out)
        rank_row = [r for r in report["results"] if r["check"] == "rank"][0]
        assert rank_row["rank"] == rank_row["expected"] == 600
