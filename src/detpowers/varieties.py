"""Quadric equations cutting out the scaled permutation matrices.

The projective points [D^j P_sigma] are the common zeros of three families
of quadrics: products of two entries in a common row, products of two
entries in a common column, and rho_i^2 - rho_{i-1} rho_{i+1} in the row
sums rho_i (indices cyclic mod d). The module builds the families exactly,
checks vanishing on the point set (each point's coordinates are w^k or 0,
so a polynomial is evaluated from the points' phases, and only where a
support index finds one of its monomials), constructs the extra generator
families recorded for d = 3 and d = 4 together with vanishing and
reduction reports, and counts the GF(p) solution locus to test the
converse direction at desk scale. The count searches every matrix row by
row: the row and column products leave at most one nonzero per row, in a
column no other row uses, and each row-sum quadric is tested as soon as its
three rows are set. The d = 4 square family is reproduced exactly as
stated; it does not vanish on the point set, and its report keeps explicit
failure witnesses rather than papering over the discrepancy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from .cyclotomic import Cyc, _check_prime
from .decompositions import Perm
from .multipoly import (
    Monomial,
    SparsePoly,
    covered_values,
    mono_degree,
    monomial,
    permanent_poly,
)

SEARCH_LIMIT = 10 ** 6          # largest bound on the locus search's steps


def _wrap(i: int, d: int) -> int:
    return (i - 1) % d + 1


def _row_sum_poly(d: int, i: int) -> SparsePoly:
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        total = total + SparsePoly.variable(d, (_wrap(i, d), j))
    return total


@dataclasses.dataclass(frozen=True)
class QuadricSet:
    """The three quadric families, in fixed partition order."""
    d: int
    row_monomials: tuple[SparsePoly, ...]
    column_monomials: tuple[SparsePoly, ...]
    rho_quadrics: tuple[SparsePoly, ...]

    def __post_init__(self):
        d = self.d
        pairs = math.comb(d, 2)
        if len(self.row_monomials) != d * pairs:
            raise ValueError("wrong number of row monomial generators")
        if len(self.column_monomials) != d * pairs:
            raise ValueError("wrong number of column monomial generators")
        if len(self.rho_quadrics) != d:
            raise ValueError("wrong number of row-sum quadrics")
        for poly in self.generators:
            if poly.is_zero or any(mono_degree(m) != 2
                                   for m in poly.monomials()):
                raise ValueError("generators must be homogeneous of degree 2")

    @property
    def generators(self) -> tuple[SparsePoly, ...]:
        return self.row_monomials + self.column_monomials + self.rho_quadrics


def quadric_generators(d: int) -> QuadricSet:
    """Row products x[i,j1]x[i,j2], column products x[i1,j]x[i2,j], and the
    cyclic row-sum quadrics rho_i^2 - rho_{i-1} rho_{i+1}."""
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
    """All d * d! pairs (j, sigma) indexing the matrices D^j P_sigma."""
    return ((j, sigma) for j in range(d) for sigma in Perm.all_perms(d))


def _family_violations(polys, d: int, cap: int = 12):
    """Count evaluation failures of the given polynomials over the point
    set, keeping at most ``cap`` witnesses (poly position, j, sigma), the
    first in point order, then in position order. The point D^j P_sigma is
    the phase map {(i, sigma i): ij mod d}."""
    points = list(point_set(d))
    phases = [{(i, sigma(i)): i * j % d for i in range(1, d + 1)}
              for j, sigma in points]
    failures = sorted((c, pos) for pos, values in
                      enumerate(covered_values(polys, phases))
                      for c, value in values.items() if value)
    witnesses = tuple((pos, points[c][0], points[c][1].images)
                      for c, pos in failures[:cap])
    return len(failures), witnesses


def vanish_on_points(d: int) -> bool:
    """Do all three quadric families vanish at every point D^j P_sigma?"""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    count, _ = _family_violations(quadric_generators(d).generators, d, cap=1)
    return count == 0


# ---------------------------------------------------------------------------
# extra generators for d = 3 and d = 4


@dataclasses.dataclass(frozen=True)
class ReductionReport:
    """Outcome of rewriting each row-sum quadric as a combination of the
    square generators modulo the monomial quadrics (d = 3 only)."""
    coefficients: tuple[tuple[Fraction, ...], ...]
    solvable: bool
    residual_contained: bool
    natural_combination: bool


@dataclasses.dataclass(frozen=True)
class ExtraGeneratorReport:
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
    """Is the degree-2 monomial divisible by a row or column product of two
    distinct entries?"""
    if len(m) != 2:
        return False
    (i1, j1, _), (i2, j2, _) = m
    return i1 == i2 or j1 == j2


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Particular rational solution of rows * c = rhs (free variables set
    to zero), or None when the system is inconsistent."""
    if not rows:
        return []
    width = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    rank = 0
    for col in range(width):
        pivot = next((k for k in range(rank, len(aug)) if aug[k][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [v / scale for v in aug[rank]]
        for k in range(len(aug)):
            if k != rank and aug[k][col]:
                factor = aug[k][col]
                aug[k] = [v - factor * w for v, w in zip(aug[k], aug[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == len(aug):
            break
    if any(row[width] for row in aug[rank:]):
        return None
    solution = [Fraction(0)] * width
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][width]
    return solution


def _rational_coefficient(value: Cyc) -> Fraction:
    rat = value.rational()
    if rat is None:
        raise ArithmeticError(f"non-rational coefficient {value!r}")
    return rat


def _residual_contained(residual: SparsePoly) -> bool:
    return all(_monomial_in_quadric_ideal(m) for m in residual.monomials())


def _combine(target: SparsePoly, squares, coefficients) -> SparsePoly:
    residual = target
    for poly, c in zip(squares, coefficients):
        if c:
            residual = residual - poly * c
    return residual


def _reduce_rho_quadrics(qs: QuadricSet, squares, labels) -> ReductionReport:
    """Solve, exactly over the rationals, for a combination of the square
    generators matching each row-sum quadric on every monomial outside the
    monomial-quadric ideal; then confirm the residual support really is
    contained, and that unit coefficients on the matching row do the job."""
    forbidden = sorted(
        {m for poly in (*squares, *qs.rho_quadrics) for m in poly.monomials()
         if not _monomial_in_quadric_ideal(m)})
    matrix = [[_rational_coefficient(g.coefficient(m)) for g in squares]
              for m in forbidden]
    all_coeffs = []
    solvable = True
    contained = True
    natural = True
    for i, target in enumerate(qs.rho_quadrics, start=1):
        rhs = [_rational_coefficient(target.coefficient(m)) for m in forbidden]
        solution = _solve_exact(matrix, rhs)
        if solution is None:
            solvable = False
            all_coeffs.append(tuple(Fraction(0) for _ in squares))
            contained = False
            continue
        all_coeffs.append(tuple(solution))
        if not _residual_contained(_combine(target, squares, solution)):
            contained = False
        unit = [Fraction(1) if label[0] == i else Fraction(0)
                for label in labels]
        if not _residual_contained(_combine(target, squares, unit)):
            natural = False
    return ReductionReport(
        coefficients=tuple(all_coeffs), solvable=solvable,
        residual_contained=contained, natural_combination=natural)


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
# finite-field locus counting


@dataclasses.dataclass(frozen=True)
class LocusCount:
    d: int
    p: int
    affine_solutions: int
    projective_points: int
    expected: int
    mode = "full"  # the count always searches every matrix

    @property
    def matches_expected(self) -> bool:
        return self.projective_points == self.expected


def _full_affine_count(d: int, p: int) -> int:
    """Nonzero d x d matrices over GF(p) on which every quadric vanishes,
    counted by a depth-first search over the rows. GF(p) has no zero
    divisors, so the row products leave at most one nonzero entry in a row
    and the column products put it in a column no earlier row uses: a row is
    zero or a value in one of the free columns, and its row sum is that
    value. Later rows see only how many columns are free, so each value is
    searched once and counted once per free column. Row-sum quadric i is
    tested as soon as rows i-1, i and i+1 are set, and the two that wrap
    around (i = 1 and i = d) once the last row is.

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


def check_locus_input(d: int, p: int) -> None:
    """Refuse a (d, p) the locus count cannot take: d below 2, a search
    whose proven bound on its loop steps exceeds SEARCH_LIMIT (tested
    first, since the primality test is slow for a large p), a p that is
    not prime, or a p - 1 that d does not divide."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    steps = p + p * p + 2 * (d - 2) * p ** 3
    if steps > SEARCH_LIMIT:
        raise ValueError(f"the locus search at d={d}, p={p} may take {steps} "
                         f"steps, more than {SEARCH_LIMIT}")
    _check_prime(p)
    if (p - 1) % d != 0:
        raise ValueError(f"d = {d} must divide p - 1 = {p - 1} so that "
                         f"GF({p}) has the needed roots of unity")


def finite_field_locus_count(d: int, p: int) -> LocusCount:
    """Projective count of GF(p) solutions of all quadric generators.

    Every one of the p^(d^2) matrices is counted by the depth-first row
    search of ``_full_affine_count``: the row and column products leave
    each row zero or one value in an unused column, and a row-sum quadric
    prunes the search as soon as its three rows are set. A (d, p) that
    ``check_locus_input`` refuses is refused before any search. A count over
    one GF(p) that equals d * d! supports the claim that the quadrics cut
    out the points set-theoretically; it does not prove it over the
    complex numbers.
    """
    check_locus_input(d, p)
    affine = _full_affine_count(d, p)
    if affine % (p - 1) != 0:
        raise ArithmeticError(
            f"affine count {affine} is not divisible by p - 1 = {p - 1}; "
            f"the locus is not scalar-invariant")
    return LocusCount(d=d, p=p, affine_solutions=affine,
                      projective_points=affine // (p - 1),
                      expected=d * math.factorial(d))
