import itertools
import math
from fractions import Fraction

import pytest

from detpowers.cyclotomic import Cyc, omega
from detpowers.decompositions import Perm
from detpowers.multipoly import SparsePoly, monomial
from detpowers.varieties import (
    LocusCount,
    _full_affine_count,
    _solve_exact,
    _staged_solutions,
    extra_generators,
    finite_field_locus_count,
    point_set,
    quadric_generators,
    vanish_on_points,
)


def point_assignment(d, j, sigma):
    """Sparse coordinates of D^j P_sigma: w^(ij) at (i, sigma i)."""
    return {(i, sigma(i)): omega(d, i * j) for i in range(1, d + 1)}


def var_product(d, v1, v2):
    if v1 == v2:
        return SparsePoly(d, {monomial({v1: 2}): Cyc.one(d)})
    return SparsePoly(d, {monomial({v1: 1, v2: 1}): Cyc.one(d)})


class TestQuadricGenerators:
    @pytest.mark.parametrize("d,per_family", [(2, 2), (3, 9), (4, 24)])
    def test_family_sizes(self, d, per_family):
        qs = quadric_generators(d)
        assert len(qs.row_monomials) == per_family
        assert len(qs.column_monomials) == per_family
        assert len(qs.rho_quadrics) == d
        assert len(qs.generators) == 2 * per_family + d

    def test_total_counts_match_formula(self):
        for d in range(2, 7):
            qs = quadric_generators(d)
            assert len(qs.generators) == 2 * d * math.comb(d, 2) + d

    def test_rho_quadric_is_the_stated_polynomial(self):
        qs = quadric_generators(3)
        rho = [None]
        for i in range(1, 4):
            total = SparsePoly.zero(3)
            for j in range(1, 4):
                total = total + SparsePoly.variable(3, (i, j))
            rho.append(total)
        assert qs.rho_quadrics[1] == rho[2] * rho[2] - rho[1] * rho[3]
        # cyclic wrap at i = 1 and i = d
        assert qs.rho_quadrics[0] == rho[1] * rho[1] - rho[3] * rho[2]
        assert qs.rho_quadrics[2] == rho[3] * rho[3] - rho[2] * rho[1]

    def test_generators_are_homogeneous_quadrics(self):
        for poly in quadric_generators(4).generators:
            assert poly.total_degree() == 2
            assert all(sum(e for _, _, e in m) == 2 for m in poly.monomials())

    def test_row_monomial_order(self):
        qs = quadric_generators(3)
        assert qs.row_monomials[0] == var_product(3, (1, 1), (1, 2))
        assert qs.row_monomials[1] == var_product(3, (1, 1), (1, 3))
        assert qs.column_monomials[0] == var_product(3, (1, 1), (2, 1))

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            quadric_generators(1)


class TestVanishing:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_generators_vanish(self, d):
        assert vanish_on_points(d)

    def test_point_set_size(self):
        assert len(list(point_set(3))) == 18
        assert len(list(point_set(2))) == 4

    def test_point_assignment_values(self):
        coords = point_assignment(3, 1, Perm.identity(3))
        assert coords == {(1, 1): omega(3, 1), (2, 2): omega(3, 2),
                          (3, 3): omega(3, 0)}

    def test_perturbed_diagonal_breaks_a_rho_quadric(self):
        # diag(w, w, w^3) is not of the form (scalar times) diag(w^j, w^2j, w^3j)
        coords = {(1, 1): omega(3, 1), (2, 2): omega(3, 1),
                  (3, 3): omega(3, 3)}
        qs = quadric_generators(3)
        assert all(poly.evaluate(coords).is_zero
                   for poly in qs.row_monomials + qs.column_monomials)
        assert any(not poly.evaluate(coords).is_zero
                   for poly in qs.rho_quadrics)

    def test_range_check(self):
        with pytest.raises(ValueError):
            vanish_on_points(7)


@pytest.fixture(scope="module")
def report3():
    return extra_generators(3)


@pytest.fixture(scope="module")
def report4():
    return extra_generators(4)


class TestExtraGeneratorsD3:
    def test_counts_and_labels(self, report3):
        assert len(report3.squares) == 9
        assert report3.square_labels == tuple(
            (i, j) for i in range(1, 4) for j in range(1, 4))
        assert report3.differences == ()
        assert report3.raw_difference_count == 0

    def test_first_generator_is_the_stated_one(self, report3):
        one = Cyc.one(3)
        expected = SparsePoly(3, {
            monomial({(1, 1): 2}): one,
            monomial({(2, 2): 1, (3, 3): 1}): -one,
            monomial({(2, 3): 1, (3, 2): 1}): -one,
        })
        assert report3.squares[0] == expected

    def test_all_squares_vanish_on_the_18_points(self, report3):
        assert report3.squares_vanish
        assert report3.square_failure_count == 0
        assert report3.square_failures == ()

    def test_reduction_found_and_exact(self, report3):
        red = report3.reduction
        assert red is not None
        assert red.solvable
        assert red.residual_contained
        assert red.natural_combination

    def test_reduction_coefficients_are_the_unit_rows(self, report3):
        # the square coefficients in the combination are forced, so the
        # solver must land exactly on coefficient 1 for the matching row
        red = report3.reduction
        for i in range(3):
            expected = tuple(Fraction(1) if label[0] == i + 1 else Fraction(0)
                             for label in report3.square_labels)
            assert red.coefficients[i] == expected


class TestExtraGeneratorsD4:
    def test_square_family_shape(self, report4):
        assert len(report4.squares) == 24
        assert report4.square_labels[0] == (1, 1, 2)

    def test_square_family_does_not_vanish(self, report4):
        # honest failure: these generators are reproduced as stated, and
        # they do not vanish on the point set (see the varieties module
        # docstring). At D^j P_sigma the form for row i and column pair S
        # is w^(2ij) ([sigma(i) in S] - [sigma(i), sigma(i+2) both in S]),
        # nonzero exactly when sigma(i) is in S and sigma(i+2) is not:
        # 4 (j) * 24 (sigma) * 4 (i) * 2 (other column of S) = 768
        assert not report4.squares_vanish
        assert report4.square_failure_count == 768
        assert report4.square_failures

    def test_failures_match_plain_evaluation(self, report4):
        # the phase evaluator against SparsePoly.evaluate in Q(w), in the
        # report's order: points first, then the family's positions
        failures = [(pos, j, sigma.images)
                    for j, sigma in point_set(4)
                    for pos, poly in enumerate(report4.squares)
                    if poly.evaluate(point_assignment(4, j, sigma))]
        assert len(failures) == report4.square_failure_count == 768
        assert report4.square_failures == tuple(failures[:12])

    def test_explicit_failure_witness(self, report4):
        # x[1,1]^2 + x[1,2]^2 - (x[4,3]x[2,4] + x[4,4]x[2,3]) at D^1 P_id:
        # the squares give w^2, the permanent gives 0
        coords = point_assignment(4, 1, Perm.identity(4))
        assert report4.squares[0].evaluate(coords) == omega(4, 2)

    def test_difference_family_counts(self, report4):
        assert report4.raw_difference_count == 24
        assert len(report4.differences) == 12
        assert len(report4.difference_labels) == 12

    def test_difference_labels_are_balanced_splits(self, report4):
        for ex_rows, ex_cols in report4.difference_labels:
            assert 1 in ex_rows
            assert ex_rows in ((1, 2), (1, 4))
            comp_rows = tuple(r for r in range(1, 5) if r not in ex_rows)
            assert (sum(ex_rows) - sum(comp_rows)) % 4 == 0
            assert len(ex_cols) == 2

    def test_differences_vanish_on_the_96_points(self, report4):
        assert report4.differences_vanish

    def test_a_difference_generator_explicitly(self, report4):
        # excluded rows (1,2), excluded cols (1,2):
        # perm(rows 3,4; cols 3,4) - perm(rows 1,2; cols 1,2)
        idx = report4.difference_labels.index(((1, 2), (1, 2)))
        one = Cyc.one(4)
        expected = SparsePoly(4, {
            monomial({(3, 3): 1, (4, 4): 1}): one,
            monomial({(3, 4): 1, (4, 3): 1}): one,
            monomial({(1, 1): 1, (2, 2): 1}): -one,
            monomial({(1, 2): 1, (2, 1): 1}): -one,
        })
        assert report4.differences[idx] == expected

    def test_no_reduction_for_d4(self, report4):
        assert report4.reduction is None

    def test_domain_errors(self):
        for d in (2, 5):
            with pytest.raises(ValueError):
                extra_generators(d)


class TestSolver:
    def test_inconsistent_system(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]]
        assert _solve_exact(rows, [Fraction(2), Fraction(3)]) is None

    def test_underdetermined_system_picks_a_solution(self):
        rows = [[Fraction(1), Fraction(1)]]
        sol = _solve_exact(rows, [Fraction(2)])
        assert sol is not None and sol[0] + sol[1] == 2


class TestLocusCounts:
    def test_d2_p5_full(self):
        count = finite_field_locus_count(2, 5, mode="full")
        assert count.affine_solutions == 16
        assert count.projective_points == 4
        assert count.expected == 4
        assert count.matches_expected

    def test_d2_p5_staged_agrees_with_full(self):
        staged = finite_field_locus_count(2, 5, mode="staged")
        full = finite_field_locus_count(2, 5, mode="full")
        assert staged.projective_points == full.projective_points == 4
        assert staged.affine_solutions == full.affine_solutions

    def test_d3_p7_staged(self):
        count = finite_field_locus_count(3, 7, mode="staged")
        assert count.affine_solutions == 108
        assert count.projective_points == 18
        assert count.matches_expected

    def test_d3_p7_full(self):
        count = finite_field_locus_count(3, 7, mode="full")
        assert count.projective_points == 18
        assert count.matches_expected

    def test_d4_p5_staged(self):
        count = finite_field_locus_count(4, 5, mode="staged")
        assert count.affine_solutions == 384
        assert count.projective_points == 96
        assert count.expected == 96
        assert count.matches_expected

    def test_auto_mode_selection(self):
        assert finite_field_locus_count(2, 5).mode == "full"
        assert finite_field_locus_count(4, 5).mode == "staged"

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_row_by_row_count_matches_brute_force(self, p):
        # every one of the p^4 matrices, against the generator polynomials
        # themselves evaluated mod p
        gens = [[(int(c.rational()), m) for m, c in g.terms.items()]
                for g in quadric_generators(2).generators]
        cells = [(i, j) for i in (1, 2) for j in (1, 2)]
        solutions = 0
        for values in itertools.product(range(p), repeat=4):
            x = dict(zip(cells, values))
            if all(sum(c * math.prod(x[i, j] ** e for i, j, e in m)
                       for c, m in gen) % p == 0 for gen in gens):
                solutions += 1
        assert _full_affine_count(2, p) == solutions - 1  # less the zero matrix

    def test_full_count_d4_p5_equals_staged(self):
        # every matrix, not only the one-entry-per-row-and-column supports
        # staged mode walks: an independent check of that restriction at d=4
        assert _full_affine_count(4, 5) == 384

    @pytest.mark.parametrize("d,p", [(2, 5), (3, 7), (4, 5)])
    def test_geometric_ratios(self, d, p):
        # every staged solution's diagonal is a geometric progression, its
        # ratio a d-th root of unity carrying the last entry to the first
        solutions = _staged_solutions(d, p)
        assert solutions
        for _, deltas in solutions:
            ratio = deltas[1] * pow(deltas[0], -1, p) % p
            assert pow(ratio, d, p) == 1
            for i in range(d):
                assert deltas[(i + 1) % d] == deltas[i] * ratio % p

    def test_projective_count_matches_normal_form_classes(self):
        supports = {tuple(point_assignment(3, j, sigma).items())
                    for j in range(3) for sigma in Perm.all_perms(3)}
        assert len(supports) == 18
        count = finite_field_locus_count(3, 7, mode="staged")
        assert count.projective_points == len(supports)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            finite_field_locus_count(2, 6)  # not prime
        with pytest.raises(ValueError):
            finite_field_locus_count(3, 5)  # 3 does not divide 4
        with pytest.raises(ValueError):
            finite_field_locus_count(4, 5, mode="full")  # 5^16 too large
        with pytest.raises(ValueError):
            finite_field_locus_count(6, 7, mode="staged")  # 720 * 6^6 too large
        with pytest.raises(ValueError):
            finite_field_locus_count(2, 5, mode="sideways")
        with pytest.raises(ValueError):
            finite_field_locus_count(1, 5)

    def test_report_shape(self):
        count = finite_field_locus_count(2, 5)
        assert isinstance(count, LocusCount)
        assert count.d == 2 and count.p == 5
