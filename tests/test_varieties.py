import builtins
import itertools
import json
import math
import sys

import pytest

from detpowers import varieties
from detpowers.cli import main
from detpowers.cyclotomic import Cyc, omega
from detpowers.multipoly import SparsePoly, monomial
from detpowers.varieties import (
    DEFAULT_PRIMES,
    QuadricSet,
    extra_generators,
    locus_proof,
    point_set,
    quadric_generators,
    vanish_on_points,
)
from test_multipoly import evaluate


def point_assignment(d, j, sigma):
    """Sparse coordinates of D^j P_sigma: w^(ij) at (i, sigma i)."""
    return {(i, s): omega(d, i * j) for i, s in enumerate(sigma, start=1)}


def integer_terms(poly):
    return [(int(c.rational()), m) for m, c in poly.terms.items()]


def value_mod_p(terms, coords, p):
    """Integer terms evaluated mod p; ``coords`` holds the nonzero entries."""
    total = 0
    for value, m in terms:
        for i, j, e in m:
            coord = coords.get((i, j))
            if coord is None:
                break
            value *= coord ** e
        else:
            total += value
    return total % p


def full_affine_count(d: int, p: int) -> int:
    """Oracle for the locus proof: nonzero d x d matrices over GF(p) on
    which every quadric vanishes, counted by a depth-first search over the
    rows. GF(p) has no zero divisors, so the row products leave at most one
    nonzero entry in a row and the column products put it in a column no
    earlier row uses: a row is zero or a value in one of the free columns,
    and its row sum is that value. Later rows see only how many columns are
    free, so each value is searched once and counted once per free column.
    Row-sum quadric i is tested as soon as rows i-1, i and i+1 are set, and
    the two that wrap around (i = 1 and i = d) once the last row is.

    The search takes at most p + p^2 + 2(d-2) p^3 loop steps. The loop at
    row r runs p times for each prefix rho_0 .. rho_(r-1) of row sums that
    reaches it, and there are 1 and p of those at r = 0 and r = 1. A prefix
    that reaches row r >= 2 satisfies rho_i^2 = rho_(i-1) rho_(i+1) at every
    0 < i < r-1, so a nonzero interior rho_i makes both its neighbours
    nonzero. Either every rho is then nonzero, a geometric progression
    fixed by rho_0 and rho_1, (p-1)^2 prefixes, or every interior rho is
    zero and only the two ends are free, at most p^2. So each of rows 2 ..
    d-1 takes fewer than 2p^3 steps."""
    rho = [0] * d

    def fits(i: int) -> bool:
        return (rho[i] * rho[i] - rho[i - 1] * rho[(i + 1) % d]) % p == 0

    def search(r: int, free: int) -> int:
        if r == d:
            return int(fits(0) and fits(d - 1))
        total = 0
        for value in range(p):
            rho[r] = value
            if r >= 2 and not fits(r - 1):
                continue
            if not value:
                total += search(r + 1, free)
            elif free:
                total += free * search(r + 1, free - 1)
        return total

    return search(0, d) - 1  # the zero matrix satisfies everything


def brute_force_full_count(d, p):
    """Oracle: every d-tuple of rows on which the row products vanish, each
    tried against the column products and the row-sum quadrics."""
    pairs = tuple(itertools.combinations(range(d), 2))
    rows = [row for row in itertools.product(range(p), repeat=d)
            if all(row[a] * row[b] % p == 0 for a, b in pairs)]
    total = 0
    for matrix in itertools.product(rows, repeat=d):
        if any(matrix[a][j] * matrix[b][j] % p
               for a, b in pairs for j in range(d)):
            continue
        rho = [sum(row) for row in matrix]
        if all((rho[i] * rho[i] - rho[i - 1] * rho[(i + 1) % d]) % p == 0
               for i in range(d)):
            total += 1
    return total - 1  # the zero matrix satisfies everything


def per_point_solutions(d, p):
    """Oracle: every Delta P_sigma with nonzero Delta, each evaluated on the
    row-sum quadrics themselves, as (sigma images, deltas)."""
    rho = [integer_terms(g) for g in quadric_generators(d).rho_quadrics]
    solutions = []
    for sigma in itertools.permutations(range(1, d + 1)):
        for deltas in itertools.product(range(1, p), repeat=d):
            coords = dict(zip(enumerate(sigma, start=1), deltas))
            if not any(value_mod_p(gen, coords, p) for gen in rho):
                solutions.append((sigma, deltas))
    return tuple(solutions)


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
            assert poly.monomials()
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

    def test_points_are_built_once_per_d(self, monkeypatch, capsys):
        # vanishing, the squares, the raw differences and the locus proof
        # of one ``equations --d 4`` share one list of points
        varieties._point_phases.cache_clear()
        calls = []
        real = varieties.point_set
        monkeypatch.setattr(varieties, "point_set",
                            lambda d: calls.append(d) or real(d))
        assert main(["equations", "--d", "4"]) == 1
        assert calls == [4]

    def test_point_set_size(self):
        assert len(list(point_set(3))) == 18
        assert len(list(point_set(2))) == 4

    def test_point_assignment_values(self):
        coords = point_assignment(3, 1, (1, 2, 3))
        assert coords == {(1, 1): omega(3, 1), (2, 2): omega(3, 2),
                          (3, 3): omega(3, 0)}

    def test_perturbed_diagonal_breaks_a_rho_quadric(self):
        # diag(w, w, w^3) is not of the form (scalar times) diag(w^j, w^2j, w^3j)
        coords = {(1, 1): omega(3, 1), (2, 2): omega(3, 1),
                  (3, 3): omega(3, 3)}
        qs = quadric_generators(3)
        assert all(evaluate(poly, coords).is_zero
                   for poly in qs.row_monomials + qs.column_monomials)
        assert any(not evaluate(poly, coords).is_zero
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
        assert red.ok

    def test_reduction_coefficients_are_the_unit_rows(self, report3):
        red = report3.reduction
        for i in range(3):
            expected = tuple(1 if label[0] == i + 1 else 0
                             for label in report3.square_labels)
            assert red.coefficients[i] == expected

    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_flipped_square_breaks_the_reduction(self, position, capsys,
                                                 monkeypatch):
        # -s still vanishes on the points, but rho_i minus the unit-row sum
        # then keeps 2 x[i,j]^2, a monomial outside the product ideal
        squares, labels = varieties._extra_generators_d3()
        flipped = list(squares)
        flipped[position] = -flipped[position]
        monkeypatch.setattr(varieties, "_extra_generators_d3",
                            lambda: (tuple(flipped), labels))
        report = extra_generators(3)
        assert report.squares_vanish
        assert report.reduction.ok is False
        assert main(["equations", "--d", "3"]) == 1
        rows = json.loads(capsys.readouterr().out)["results"]
        extra = next(r for r in rows if r["check"] == "extra_generators")
        assert extra["reduction_ok"] is False and extra["ok"] is False


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
        # the phase evaluator against the evaluate oracle in Q(w), in the
        # report's order: points first, then the family's positions
        failures = [(pos, j, sigma)
                    for j, sigma in point_set(4)
                    for pos, poly in enumerate(report4.squares)
                    if evaluate(poly, point_assignment(4, j, sigma))]
        assert len(failures) == report4.square_failure_count == 768
        assert report4.square_failures == tuple(failures[:12])

    def test_explicit_failure_witness(self, report4):
        # x[1,1]^2 + x[1,2]^2 - (x[4,3]x[2,4] + x[4,4]x[2,3]) at D^1 P_id:
        # the squares give w^2, the permanent gives 0
        coords = point_assignment(4, 1, (1, 2, 3, 4))
        assert evaluate(report4.squares[0], coords) == omega(4, 2)

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


def row_sum(d, i):
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        total = total + SparsePoly.variable(d, ((i - 1) % d + 1, j))
    return total


def with_rho(qs, i, quadric):
    """``qs`` with its row-sum quadric i replaced by ``quadric``."""
    rho = list(qs.rho_quadrics)
    rho[i - 1] = quadric
    return qs._replace(rho_quadrics=tuple(rho))


# quadric sets that break the proof's premise: (d, mutation of the built set)
PREMISE_MUTATIONS = {
    "dropped-row-pair": (3, lambda qs: qs._replace(
        row_monomials=qs.row_monomials[1:])),
    "column-pair-as-row-pair": (3, lambda qs: qs._replace(
        column_monomials=qs.row_monomials[:1] + qs.column_monomials[1:])),
    "rho-neighbour-i-2": (4, lambda qs: with_rho(
        qs, 2, row_sum(4, 2) * row_sum(4, 2) - row_sum(4, 0) * row_sum(4, 3))),
    "rho-sign-flipped": (4, lambda qs: with_rho(
        qs, 2, row_sum(4, 2) * row_sum(4, 2) + row_sum(4, 1) * row_sum(4, 3))),
    "rho-wrong-at-d2": (2, lambda qs: with_rho(
        qs, 1, row_sum(2, 1) * row_sum(2, 1) - row_sum(2, 1) * row_sum(2, 2))),
}


class TestLocusProof:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_the_built_families_prove_the_locus(self, d):
        proof = locus_proof(quadric_generators(d))
        assert proof.premise_holds and proof.ok
        assert proof.d == d and proof.p == DEFAULT_PRIMES[d]
        assert proof.projective_points == proof.expected == (
            d * math.factorial(d))
        assert proof.affine_solutions == (proof.p - 1) * proof.expected

    @pytest.mark.parametrize("name", sorted(PREMISE_MUTATIONS))
    def test_a_broken_family_fails_the_premise(self, name):
        d, mutate = PREMISE_MUTATIONS[name]
        proof = locus_proof(mutate(quadric_generators(d)))
        assert not proof.premise_holds and not proof.ok
        assert proof.projective_points == proof.expected

    def test_a_rho_quadric_plus_products_still_proves(self):
        # the products vanish on the locus, so adding one to a row-sum
        # quadric changes no zero and keeps the premise
        qs = quadric_generators(3)
        proof = locus_proof(with_rho(qs, 1, qs.rho_quadrics[0]
                                     + qs.row_monomials[0]
                                     - qs.column_monomials[4]))
        assert proof.ok

    def test_range_check(self):
        with pytest.raises(ValueError):
            locus_proof(QuadricSet(7, (), (), ()))


class TestLocusCounts:
    @pytest.mark.parametrize("d, p", [
        (2, 3), (2, 5), (3, 7), (4, 5), (5, 11), (6, 7)])
    def test_search_equals_the_proof(self, d, p):
        proof = locus_proof(quadric_generators(d))
        assert full_affine_count(d, p) == (p - 1) * proof.projective_points
        if p == DEFAULT_PRIMES[d]:
            assert full_affine_count(d, p) == proof.affine_solutions

    def test_projective_count_matches_normal_form_classes(self):
        supports = {tuple(point_assignment(3, j, sigma).items())
                    for j in range(3)
                    for sigma in itertools.permutations(range(1, 4))}
        assert len(supports) == 18
        assert locus_proof(quadric_generators(3)).projective_points == len(
            supports)

    @pytest.mark.parametrize("d, p", [(2, 101), (3, 13), (4, 13), (6, 13)])
    def test_search_counts_the_scaled_points(self, d, p):
        assert full_affine_count(d, p) == (p - 1) * d * math.factorial(d)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_row_by_row_count_matches_brute_force(self, p):
        # every one of the p^4 matrices, against the generator polynomials
        # themselves evaluated mod p
        gens = [integer_terms(g) for g in quadric_generators(2).generators]
        cells = [(i, j) for i in (1, 2) for j in (1, 2)]
        solutions = 0
        for values in itertools.product(range(p), repeat=4):
            x = dict(zip(cells, values))
            if all(sum(c * math.prod(x[i, j] ** e for i, j, e in m)
                       for c, m in gen) % p == 0 for gen in gens):
                solutions += 1
        assert full_affine_count(2, p) == solutions - 1  # less the zero matrix

    @pytest.mark.parametrize("d,p", [(2, 3), (2, 5), (3, 7)])
    def test_row_search_matches_brute_force_rows(self, d, p):
        assert full_affine_count(d, p) == brute_force_full_count(d, p)

    @pytest.mark.parametrize("d,p", [(2, 3), (2, 5), (3, 7), (4, 5)])
    def test_row_search_matches_per_point(self, d, p):
        # every Delta P_sigma tried against the row-sum quadrics: the
        # search's count of all matrices equals the count on these supports
        assert full_affine_count(d, p) == len(per_point_solutions(d, p))

    @pytest.mark.parametrize("d,p", [(2, 5), (3, 7), (4, 5)])
    def test_geometric_ratios(self, d, p):
        # every solution's diagonal is a geometric progression, its ratio a
        # d-th root of unity carrying the last entry to the first
        solutions = per_point_solutions(d, p)
        assert solutions
        for _, deltas in solutions:
            ratio = deltas[1] * pow(deltas[0], -1, p) % p
            assert pow(ratio, d, p) == 1
            for i in range(d):
                assert deltas[(i + 1) % d] == deltas[i] * ratio % p

    @pytest.mark.parametrize("d,p", [(4, 5), (5, 11), (6, 7)])
    def test_count_proves_the_locus(self, d, p):
        # the (p - 1) d d! scalar multiples of the points D^j P_sigma, w sent
        # to a primitive d-th root g mod p, are distinct and every generator
        # vanishes on them; the search counts exactly that many solutions,
        # so over GF(p) they are the whole locus
        g = next(g for g in range(2, p)
                 if pow(g, d, p) == 1 and all(pow(g, k, p) != 1
                                              for k in range(1, d)))
        gens = [integer_terms(poly)
                for poly in quadric_generators(d).generators]
        scaled = set()
        for j, sigma in point_set(d):
            coords = {(i, s): pow(g, i * j, p)
                      for i, s in enumerate(sigma, start=1)}
            assert not any(value_mod_p(gen, coords, p) for gen in gens)
            cells = tuple(sorted(coords.items()))
            scaled.update(tuple((cell, c * s % p) for cell, c in cells)
                          for s in range(1, p))
        points = d * math.factorial(d)
        assert len(scaled) == (p - 1) * points
        assert full_affine_count(d, p) == (p - 1) * points

    @pytest.mark.parametrize("d, p, steps", [
        (2, 3, 12), (3, 7, 399), (4, 5, 280), (5, 11, 5225), (6, 7, 1932),
        (7, 29, 191023)])
    def test_search_steps_stay_within_the_proven_bound(self, d, p, steps,
                                                       monkeypatch):
        # count the values the search's loops draw from range(p)
        drawn = []

        def counted(*args):
            values = builtins.range(*args)
            drawn.append(len(values))
            return values

        monkeypatch.setattr(sys.modules[__name__], "range", counted,
                            raising=False)
        full_affine_count(d, p)
        monkeypatch.undo()
        assert sum(drawn) == steps
        assert steps <= p + p * p + 2 * (d - 2) * p ** 3
