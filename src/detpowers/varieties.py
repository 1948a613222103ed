"""Quadric equations cutting out the scaled permutation matrices.

The projective points [D^j P_sigma] are the common zeros of three families
of quadrics: products of two entries in a common row, products of two
entries in a common column, and rho_i^2 - rho_{i-1} rho_{i+1} in the row
sums rho_i (indices cyclic mod d). The module builds the families exactly,
checks vanishing on the point set (each point's coordinates are w^k or 0,
so a polynomial is evaluated from the points' phases, and only where a
support index finds one of its monomials), constructs the extra generator
families recorded for d = 3 and d = 4 together with vanishing and
reduction reports, and proves the converse: the families have no other
zeros.

The proof holds over any field K in which x^d - 1 has d distinct roots,
so over C, and over GF(p) when d | p - 1. Take a matrix on which every
quadric vanishes.
1. The row and column products leave at most one nonzero entry in each
   row and in each column, so the row sum rho_i is that entry, or 0.
2. If some rho_i is 0, then rho_{i-1} rho_{i+1} = rho_i^2 = 0 makes a
   neighbour 0, and two adjacent zeros rho_k = rho_{k+1} = 0 force
   rho_{k+2}^2 = rho_{k+1} rho_{k+3} = 0. So every rho is 0, and so is
   the matrix.
3. In a nonzero solution every rho_i is nonzero, so the matrix is a
   permutation pattern P_sigma, and rho_{i+1} / rho_i = rho_i / rho_{i-1}
   is a constant r. Wrapping around gives r^d = 1, so r = w^j and the
   matrix is rho_d * D^j P_sigma.
4. Conversely every D^j P_sigma has one nonzero entry per row and per
   column, and w^(2ij) = w^((i-1)j) w^((i+1)j): ``vanish_on_points``
   checks this on the built polynomials.
Only the row-sum quadrics' values on the zeros of the products enter, so
step 2 needs each of them to equal rho_i^2 - rho_{i-1} rho_{i+1} on the
monomials outside the ideal the products generate. ``locus_proof`` checks
exactly that premise on the built families, and counts the distinct
points. Over GF(p) with d | p - 1 the affine solutions are then the
(p - 1) d d! nonzero multiples of the points, a corollary the tests
compare with a search of every matrix.

The d = 4 square family is reproduced exactly as stated; it does not
vanish on the point set, and its report keeps explicit failure witnesses
rather than papering over the discrepancy.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import Cyc
from .decompositions import _permutations
from .multipoly import (
    Monomial,
    SparsePoly,
    covered_values,
    mono_mul,
    monomial,
    permanent_poly,
)

# smallest odd prime p with d | p - 1, the field of the GF(p) corollary
DEFAULT_PRIMES = {2: 3, 3: 7, 4: 5, 5: 11, 6: 7}


def _wrap(i: int, d: int) -> int:
    return (i - 1) % d + 1


def _row_sum_poly(d: int, i: int) -> SparsePoly:
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        total = total + SparsePoly.variable(d, (_wrap(i, d), j))
    return total


class QuadricSet(NamedTuple):
    """The three quadric families, in fixed partition order."""
    d: int
    row_monomials: tuple[SparsePoly, ...]
    column_monomials: tuple[SparsePoly, ...]
    rho_quadrics: tuple[SparsePoly, ...]

    @property
    def generators(self) -> tuple[SparsePoly, ...]:
        return self.row_monomials + self.column_monomials + self.rho_quadrics


@lru_cache(maxsize=None)
def quadric_generators(d: int) -> QuadricSet:
    """Row products x[i,j1]x[i,j2], column products x[i1,j]x[i2,j], and the
    cyclic row-sum quadrics rho_i^2 - rho_{i-1} rho_{i+1}, built once per
    d."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    one = Cyc.one(d)
    rows = tuple(
        SparsePoly(d, {monomial({(i, j1): 1, (i, j2): 1}): one})
        for i in range(1, d + 1)
        for j1, j2 in itertools.combinations(range(1, d + 1), 2))
    cols = tuple(
        SparsePoly(d, {monomial({(i1, j): 1, (i2, j): 1}): one})
        for j in range(1, d + 1)
        for i1, i2 in itertools.combinations(range(1, d + 1), 2))
    sums = [_row_sum_poly(d, i) for i in range(0, d + 2)]
    rho = tuple(sums[i] * sums[i] - sums[i - 1] * sums[i + 1]
                for i in range(1, d + 1))
    return QuadricSet(d, rows, cols, rho)


# ---------------------------------------------------------------------------
# the point set and vanishing checks


def point_set(d: int):
    """All d * d! pairs (j, sigma images) indexing the matrices D^j P_sigma."""
    return ((j, sigma) for j in range(d) for sigma in _permutations(d)[0])


@lru_cache(maxsize=None)
def _point_phases(d: int):
    """The points (j, sigma) and, for each, D^j P_sigma as the phase map
    {(i, sigma i): ij mod d}, built once per d and shared by every caller,
    which must not mutate them."""
    points = list(point_set(d))
    return points, [{(i, s): i * j % d for i, s in enumerate(sigma, start=1)}
                    for j, sigma in points]


def _family_violations(polys, d: int, cap: int = 12):
    """Count evaluation failures of the given polynomials over the point
    set, keeping at most ``cap`` witnesses (poly position, j, sigma), the
    first in point order, then in position order."""
    points, phases = _point_phases(d)
    failures = sorted((c, pos) for pos, values in
                      enumerate(covered_values(polys, phases))
                      for c, value in values.items() if value)
    witnesses = tuple((pos, *points[c]) for c, pos in failures[:cap])
    return len(failures), witnesses


def vanish_on_points(d: int) -> bool:
    """Do all three quadric families vanish at every point D^j P_sigma?"""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    count, _ = _family_violations(quadric_generators(d).generators, d, cap=1)
    return count == 0


# ---------------------------------------------------------------------------
# extra generators for d = 3 and d = 4


class ReductionReport(NamedTuple):
    """The d = 3 certificate that each row-sum quadric rho_i is a
    combination of the square generators modulo the monomial quadrics: the
    coefficients, 1 on each square of row i and 0 elsewhere, and whether
    every such combination leaves only monomials inside their ideal."""
    coefficients: tuple[tuple[int, ...], ...]
    ok: bool


class ExtraGeneratorReport(NamedTuple):
    d: int
    squares: tuple[SparsePoly, ...]
    square_labels: tuple[tuple[int, ...], ...]
    squares_vanish: bool
    square_failure_count: int
    square_failures: tuple[tuple, ...]
    differences: tuple[SparsePoly, ...]
    difference_labels: tuple[tuple, ...]
    raw_difference_count: int
    differences_vanish: bool
    reduction: ReductionReport | None


def _square_poly(d: int, i: int, j: int) -> SparsePoly:
    return SparsePoly(d, {monomial({(i, j): 2}): Cyc.one(d)})


def _monomial_in_quadric_ideal(m: Monomial) -> bool:
    """Is the monomial divisible by a row or column product of two
    distinct entries?"""
    return (len({i for i, _, _ in m}) < len(m)
            or len({j for _, j, _ in m}) < len(m))


def _reduce_rho_quadrics(qs: QuadricSet, squares, labels) -> ReductionReport:
    """Check, for each i, that rho_i minus the sum of the squares of row i
    has every monomial inside the row and column product ideal."""
    coefficients = tuple(tuple(int(label[0] == i) for label in labels)
                         for i in range(1, qs.d + 1))
    ok = True
    for target, row in zip(qs.rho_quadrics, coefficients):
        residual = target
        for poly, c in zip(squares, row):
            if c:
                residual = residual - poly
        ok = ok and all(map(_monomial_in_quadric_ideal, residual.terms))
    return ReductionReport(coefficients, ok)


def _extra_generators_d3():
    d = 3
    squares = []
    labels = []
    for i in range(1, 4):
        for j in range(1, 4):
            rows = tuple(r for r in range(1, 4) if r != i)
            cols = tuple(c for c in range(1, 4) if c != j)
            squares.append(_square_poly(d, i, j)
                           - permanent_poly(rows, cols, order=d))
            labels.append((i, j))
    return tuple(squares), tuple(labels)


def _extra_generators_d4():
    d = 4
    squares = []
    labels = []
    for i in range(1, 5):
        perm_rows = tuple(sorted((_wrap(i - 1, d), _wrap(i + 1, d))))
        for j1, j2 in itertools.combinations(range(1, 5), 2):
            perm_cols = tuple(c for c in range(1, 5) if c not in (j1, j2))
            squares.append(_square_poly(d, i, j1) + _square_poly(d, i, j2)
                           - permanent_poly(perm_rows, perm_cols, order=d))
            labels.append((i, j1, j2))
    # permanent differences: excluded row pairs with equal sums mod 4
    row_pairs = [pair for pair in itertools.combinations(range(1, 5), 2)
                 if (sum(pair) - sum(r for r in range(1, 5)
                                     if r not in pair)) % 4 == 0]
    # the four qualifying subsets each occur once as the excluded rows,
    # covering both orientations of both balanced partitions
    ordered_rows = []
    for pair in row_pairs:
        comp = tuple(r for r in range(1, 5) if r not in pair)
        ordered_rows.append((pair, comp))
    # each 2-subset occurs once as the excluded column pair, so the six
    # subsets give the six ordered column splits
    ordered_cols = []
    for pair in itertools.combinations(range(1, 5), 2):
        comp = tuple(c for c in range(1, 5) if c not in pair)
        ordered_cols.append((pair, comp))
    raw = []
    raw_labels = []
    for ex_rows, other_rows in ordered_rows:
        for ex_cols, other_cols in ordered_cols:
            # P_{ex_rows; ex_cols} is the permanent over the complements
            gen = permanent_poly(other_rows, other_cols, order=d) \
                - permanent_poly(ex_rows, ex_cols, order=d)
            raw.append(gen)
            raw_labels.append((ex_rows, ex_cols))
    deduped = []
    deduped_labels = []
    for gen, (ex_rows, ex_cols) in zip(raw, raw_labels):
        if 1 in ex_rows:
            deduped.append(gen)
            deduped_labels.append((ex_rows, ex_cols))
    return (tuple(squares), tuple(labels), tuple(raw),
            tuple(deduped), tuple(deduped_labels))


def extra_generators(d: int) -> ExtraGeneratorReport:
    """The extra generator families for d = 3 (entry squares minus the
    complementary 2x2 permanents) and d = 4 (square pairs minus permanents,
    and permanent differences over balanced index splits), with vanishing
    checks over the full point set."""
    if d == 3:
        squares, labels = _extra_generators_d3()
        fail_count, witnesses = _family_violations(squares, d)
        qs = quadric_generators(3)
        reduction = _reduce_rho_quadrics(qs, squares, labels)
        return ExtraGeneratorReport(
            d=3, squares=squares, square_labels=labels,
            squares_vanish=fail_count == 0,
            square_failure_count=fail_count, square_failures=witnesses,
            differences=(), difference_labels=(), raw_difference_count=0,
            differences_vanish=True, reduction=reduction)
    if d == 4:
        squares, labels, raw, deduped, dlabels = _extra_generators_d4()
        fail_count, witnesses = _family_violations(squares, d)
        diff_fail_count, _ = _family_violations(raw, d, cap=1)
        return ExtraGeneratorReport(
            d=4, squares=squares, square_labels=labels,
            squares_vanish=fail_count == 0,
            square_failure_count=fail_count, square_failures=witnesses,
            differences=deduped, difference_labels=dlabels,
            raw_difference_count=len(raw),
            differences_vanish=diff_fail_count == 0, reduction=None)
    raise ValueError(f"extra generators are recorded for d in {{3, 4}}, "
                     f"got {d}")


# ---------------------------------------------------------------------------
# the locus, proved


class LocusProof(NamedTuple):
    """What ``locus_proof`` read from one ``QuadricSet``: whether it holds
    the families the module docstring's proof needs, and how many distinct
    points D^j P_sigma there are. p is the smallest prime with d | p - 1."""
    d: int
    p: int
    premise_holds: bool
    projective_points: int

    @property
    def expected(self) -> int:
        return self.d * math.factorial(self.d)

    @property
    def affine_solutions(self) -> int:
        """The GF(p) corollary: (p - 1) nonzero multiples of each point."""
        return (self.p - 1) * self.projective_points

    @property
    def ok(self) -> bool:
        return self.premise_holds and self.projective_points == self.expected


def _product(a, b) -> Monomial:
    """The monomial x_a x_b of the cells a and b."""
    return mono_mul(((*a, 1),), ((*b, 1),))


def _is_product_family(polys, pairs) -> bool:
    """Is each polynomial one product x_a x_b, and are the products the
    cell pairs (a, b) of ``pairs``, each once?"""
    return (all(len(poly) == 1 for poly in polys)
            and sorted(m for poly in polys for m in poly.terms)
            == sorted(_product(a, b) for a, b in pairs))


def _is_rho_quadric(poly: SparsePoly, d: int, i: int) -> bool:
    """Does ``poly`` equal rho_i^2 - rho_(i-1) rho_(i+1) on every monomial
    outside the row and column product ideal? At d = 2 the neighbours
    i - 1 and i + 1 are one row, and the product is a square."""
    want: dict[Monomial, int] = {}
    for r, s, sign in ((i, i, 1), (i - 1, i + 1, -1)):
        for j, k in itertools.product(range(1, d + 1), repeat=2):
            m = _product((_wrap(r, d), j), (_wrap(s, d), k))
            want[m] = want.get(m, 0) + sign
    got = {m: c for m, c in poly.terms.items()
           if not _monomial_in_quadric_ideal(m)}
    return got == {m: Cyc.from_int(poly.order, n) for m, n in want.items()
                   if n and not _monomial_in_quadric_ideal(m)}


def locus_proof(qs: QuadricSet) -> LocusProof:
    """Prove that the quadrics of ``qs`` cut out exactly the points
    [D^j P_sigma]: check that ``qs`` holds every row pair and every column
    pair, each as one product, and for each i the quadric rho_i^2 -
    rho_(i-1) rho_(i+1) on the monomials outside their ideal (the premise of
    the proof in the module docstring), then count the distinct points.
    Each phase map puts w^0 = 1 in row d, so distinct maps are distinct
    projective points."""
    d = qs.d
    if d not in DEFAULT_PRIMES:
        raise ValueError(f"d must be in [2, 6], got {d}")
    cells = range(1, d + 1)
    row_pairs = [((i, j), (i, k)) for i in cells
                 for j, k in itertools.combinations(cells, 2)]
    premise = (_is_product_family(qs.row_monomials, row_pairs)
               and _is_product_family(
                   qs.column_monomials,
                   [((j, i), (k, i)) for (i, j), (_, k) in row_pairs])
               and len(qs.rho_quadrics) == d
               and all(_is_rho_quadric(poly, d, i)
                       for i, poly in enumerate(qs.rho_quadrics, start=1)))
    _, phases = _point_phases(d)
    return LocusProof(d=d, p=DEFAULT_PRIMES[d], premise_holds=premise,
                      projective_points=len({tuple(phase.items())
                                             for phase in phases}))
