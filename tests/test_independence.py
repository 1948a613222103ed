import dataclasses
import json
import math
import random

import pytest

from detpowers import independence
from detpowers.cli import main
from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import Perm, main_decomposition
from detpowers.independence import (
    CERTIFICATE_PRIME,
    DualForm,
    certificate_root,
    certified_rank,
    check_promotion,
    check_separation,
    diagonal_cofactor_monomial,
    dual_form,
    promoted_dual_form,
    rank_mod_p,
    rank_of_rows,
    rank_oracle,
    rows_mod_p,
    separation_matrix,
    separation_violations,
    term_index_list,
    term_point,
    term_rank,
)
from detpowers.multipoly import SparsePoly, expand_power


def c1(n):
    return Cyc.from_int(1, n)


def coords(point):
    """Oracle: a term point's nonzero coordinates, {var: w^phase}."""
    return {var: omega(point.d, k) for var, k in point.phases.items()}


class TestTermPoint:
    def test_d2_identity_j1(self):
        p = term_point(2, Perm.identity(2), 1)
        assert coords(p)[1, 1] == Cyc.from_int(2, -1)
        assert coords(p)[2, 2] == Cyc.from_int(2, 1)
        assert (1, 2) not in coords(p) and (2, 1) not in coords(p)

    def test_d3_identity_j3_is_all_ones_diagonal(self):
        p = term_point(3, Perm.identity(3), 3)
        one = Cyc.one(3)
        for i in range(1, 4):
            assert coords(p)[i, i] == one

    def test_d3_cycle(self):
        p = term_point(3, Perm((2, 3, 1)), 1)
        w = omega(3)
        assert coords(p) == {(1, 2): w, (2, 3): w * w, (3, 1): Cyc.one(3)}

    def test_exactly_d_nonzero_entries(self):
        for sigma in Perm.all_perms(3):
            for j in range(1, 4):
                assert len(coords(term_point(3, sigma, j))) == 3

    def test_j_range(self):
        with pytest.raises(ValueError):
            term_point(3, Perm.identity(3), 0)


class TestDualForm:
    def test_d2_identity_j2(self):
        form = dual_form(2, Perm.identity(2), 2)
        point_vals = form.poly.terms
        assert len(point_vals) == 2
        mono_x11 = (((1, 1, 1),))
        mono_x22 = (((2, 2, 1),))
        assert form.poly.coefficient(tuple(mono_x11)) == Cyc.one(2)
        assert form.poly.coefficient(tuple(mono_x22)) == Cyc.one(2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_has_d_monomials_of_degree_d_minus_1(self, d):
        for sigma in (Perm.identity(d), next(iter(Perm.all_perms(d)))):
            form = dual_form(d, sigma, 1)
            assert len(form.poly) == d
            assert form.degree == d - 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cofactor_value_at_matching_point(self, d):
        # product of all-but-one coordinate at the matching point is
        # w^(binom(d+1,2) j - k j)
        for j in range(1, d + 1):
            point = term_point(d, Perm.identity(d), j)
            for k in range(1, d + 1):
                mono = diagonal_cofactor_monomial(d, Perm.identity(d), k)
                value = Cyc.one(d)
                for (i, col, e) in mono:
                    value = value * coords(point)[i, col] ** e
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
        assert check_separation(4)
        assert separation_violations(4) == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_promotion_preserves_pattern(self, d):
        assert check_promotion(d)

    def test_promoted_form_degree(self):
        form = promoted_dual_form(3, Perm.identity(3), 1)
        assert form.degree == 3
        assert form.poly.total_degree() == 3

    def test_range_check(self):
        with pytest.raises(ValueError):
            separation_matrix(6)

    def test_index_order_is_sigma_lex_then_j(self):
        indices = term_index_list(2)
        assert indices == [((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)]


def full_table(d, make_form=dual_form):
    """Oracle: every dual form evaluated at every term point."""
    indices = term_index_list(d)
    points = [term_point(d, Perm(images), j) for images, j in indices]
    return [[make_form(d, Perm(images), j).poly.evaluate(coords(p))
             for p in points]
            for images, j in indices]


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
        tau = Perm.transposition(d, 2, 3)

        def widened(d_, sigma, j):
            form = original(d_, sigma, j)
            if sigma != Perm.identity(d_) or j != 1:
                return form
            extra = diagonal_cofactor_monomial(d_, tau, 1)
            terms = dict(form.poly.terms)
            terms[extra] = Cyc.one(d_)
            return DualForm(SparsePoly(d_, terms), form.degree)

        expected = pattern_violations(d, full_table(d, widened))
        promoted = full_table(d, lambda *args: DualForm(
            widened(*args).poly * SparsePoly.variable(d, (1, args[1](1))), d))
        promotion_holds = all((r == c) != value.is_zero
                              for r, row in enumerate(promoted)
                              for c, value in enumerate(row))
        monkeypatch.setattr(independence, "dual_form", widened)
        assert expected > 0
        assert len(separation_violations(d)) == expected
        assert check_promotion(d) is promotion_holds is False


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


class TestRankCertificate:
    def test_rank_mod_p_of_simple_rows(self):
        # the third row meets the second pivot only through the fill-in
        # of the first
        assert rank_mod_p([{0: 1, 2: 1}, {2: 1}, {0: 1}], 7) == 2
        assert rank_mod_p([{0: 1, 1: 7}, {0: 1}], 7) == 1
        assert rank_of_rows([{0: c1(1), 1: c1(7)}, {0: c1(1)}]) == 2
        assert rank_mod_p([], 7) == 0 and rank_mod_p([{0: 14}], 7) == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rank_mod_p_itself_is_full(self, d):
        rows = rows_mod_p(main_decomposition(d).terms, d)
        assert rank_mod_p(rows, CERTIFICATE_PRIME) == d * math.factorial(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_certified_rank_equals_exact_oracle(self, d):
        assert certified_rank(d) == rank_oracle(d) == d * math.factorial(d)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_reduction_is_a_ring_map(self, order):
        # w goes to an element of multiplicative order exactly `order`, and
        # sums and products of seeded elements reduce to sums and products
        p = CERTIFICATE_PRIME
        root = certificate_root(order)
        image = omega(order, 1).mod_p(root, p)
        assert [k for k in range(1, order + 1)
                if pow(image, k, p) == 1] == [order]
        rng = random.Random(order)
        phi = len(Cyc.zero(order).num)

        def element():
            num = tuple(rng.randint(-9, 9) for _ in range(phi))
            return Cyc(order, num, rng.choice([1, 2, 5, 12]))

        for _ in range(30):
            a, b = element(), element()
            assert (a * b).mod_p(root, p) == \
                a.mod_p(root, p) * b.mod_p(root, p) % p
            assert (a + b).mod_p(root, p) == \
                (a.mod_p(root, p) + b.mod_p(root, p)) % p

    def test_rank_lost_only_mod_p_falls_back_to_exact(self):
        # one coefficient times p: the row vanishes mod p, not over Q(w)
        terms = list(main_decomposition(3).terms)
        terms[5] = dataclasses.replace(
            terms[5], coeff=terms[5].coeff * CERTIFICATE_PRIME)
        assert rank_mod_p(rows_mod_p(terms, 3), CERTIFICATE_PRIME) == 17
        assert term_rank(terms, 3) == 18

    def test_duplicated_term_reports_exact_deficient_rank(self):
        terms = list(main_decomposition(3).terms)
        terms[1] = terms[0]
        exact = rank_of_rows([dict((expand_power(t.form, t.exponent)
                                    * t.coeff).terms) for t in terms])
        assert exact == 17
        assert term_rank(terms, 3) == 17

    def test_range_check(self):
        with pytest.raises(ValueError):
            certified_rank(1)
        with pytest.raises(ValueError):
            certified_rank(7)

    def test_cli_d5_is_certified_without_exact_elimination(
            self, capsys, monkeypatch):
        def exact(terms):
            raise AssertionError("exact elimination at d=5")

        monkeypatch.setattr(independence, "_exact_rank", exact)
        assert main(["independence", "--d", "5", "--force"]) == 0
        report = json.loads(capsys.readouterr().out)
        rank_row = [r for r in report["results"] if r["check"] == "rank"][0]
        assert rank_row["rank"] == rank_row["expected"] == 600
