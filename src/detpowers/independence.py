"""Linear independence of the main decomposition's terms.

Each term T_{sigma,j} is a d-th power of a linear form; its coefficient
matrix is a point in d^2-space. For every term there is a degree-(d-1)
"dual" form, built from the products of all-but-one coordinate along sigma's
diagonal, that evaluates to (-1)^((d+1)j) * d at the term's own point and to
exactly zero at every other term point. That separation pattern proves the
terms linearly independent; an exact Gaussian-elimination rank over the
cyclotomic field confirms it independently at small d.

A pairing is decided by support before any arithmetic. A form's value at a
point is a sum over its monomials, and a monomial with a variable outside the
point's support contributes an exact zero. So a form none of whose monomials
lies in a point's support is exactly 0 there. An integer support index built
from the actual monomials and points finds the covered pairs. Only those pairs
are evaluated in Q(w); for the dual forms that is d points per form.
"""

from __future__ import annotations

import dataclasses
import math

from .cyclotomic import Cyc, omega
from .decompositions import Perm, main_decomposition
from .multipoly import Monomial, SparsePoly, monomial, expand_power


@dataclasses.dataclass(frozen=True)
class TermPoint:
    """Coefficient matrix of one term's linear form, as a point."""
    index: tuple
    coords: tuple[tuple[Cyc, ...], ...]

    @property
    def d(self) -> int:
        return len(self.coords)

    def sparse(self) -> dict[tuple[int, int], Cyc]:
        d = self.d
        return {(i, k): self.coords[i - 1][k - 1]
                for i in range(1, d + 1) for k in range(1, d + 1)
                if not self.coords[i - 1][k - 1].is_zero}


@dataclasses.dataclass(frozen=True)
class DualForm:
    """A homogeneous form paired with points by plain evaluation."""
    poly: SparsePoly
    degree: int

    def __post_init__(self):
        if self.poly.total_degree() != self.degree:
            raise ValueError("form degree does not match the declared degree")

    def at(self, point: TermPoint) -> Cyc:
        return self.poly.evaluate(point.sparse())


def term_point(d: int, sigma: Perm, j: int) -> TermPoint:
    """The point whose (i, sigma i) coordinate is w^(ij), all others zero."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    zero = Cyc.zero(d)
    rows = []
    for i in range(1, d + 1):
        row = [zero] * d
        row[sigma(i) - 1] = omega(d, i * j)
        rows.append(tuple(row))
    return TermPoint((sigma.images, j), tuple(rows))


def diagonal_cofactor_monomial(d: int, sigma: Perm, k: int) -> Monomial:
    """The product of x[i, sigma i] over all i except k."""
    return monomial({(i, sigma(i)): 1 for i in range(1, d + 1) if i != k})


def dual_form(d: int, sigma: Perm, j: int) -> DualForm:
    """L_{sigma,j} = sum_k w^(kj) * (product of x[i, sigma i], i != k)."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    terms = {diagonal_cofactor_monomial(d, sigma, k): omega(d, k * j)
             for k in range(1, d + 1)}
    return DualForm(SparsePoly(d, terms), d - 1)


def promoted_dual_form(d: int, sigma: Perm, j: int) -> DualForm:
    """The degree-d promotion: L multiplied by x[1, sigma 1], a linear form
    that does not vanish at the matching point."""
    base = dual_form(d, sigma, j)
    riser = SparsePoly.variable(d, (1, sigma(1)))
    return DualForm(base.poly * riser, d)


def term_index_list(d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (sigma images, j) in lexicographic sigma order, then j = 1..d."""
    return [(sigma.images, j)
            for sigma in Perm.all_perms(d) for j in range(1, d + 1)]


def _covered_values(forms: list[DualForm],
                   points: list[TermPoint]) -> list[dict[int, Cyc]]:
    """Each form's value at every point that covers one of its monomials,
    as {point position: value}; the form is exactly 0 at every other point.

    A monomial is nonzero at a point only when all its variables are in the
    point's support, and a form with no such monomial is a sum of exact
    zeros. The covering points come from an integer support index: for
    every variable, the bit set of the points where it is nonzero, built
    from the points' actual coordinates; a monomial's covering set is the
    intersection over its variables. Only covered pairs are evaluated.
    """
    holders: dict[tuple[int, int], int] = {}
    for c, point in enumerate(points):
        for var in point.sparse():
            holders[var] = holders.get(var, 0) | (1 << c)
    everyone = (1 << len(points)) - 1
    out = []
    for form in forms:
        covering = 0
        for mono in form.poly.terms:
            bits = everyone
            for i, k, _ in mono:
                bits &= holders.get((i, k), 0)
            covering |= bits
        values = {}
        while covering:
            low = covering & -covering
            c = low.bit_length() - 1
            values[c] = form.at(points[c])
            covering ^= low
        out.append(values)
    return out


def _separation_values(d: int) -> tuple[list[tuple[tuple[int, ...], int]],
                                        list[dict[int, Cyc]]]:
    if not 2 <= d <= 5:
        raise ValueError(f"d must be in [2, 5], got {d}")
    indices = term_index_list(d)
    points = [term_point(d, Perm(images), j) for images, j in indices]
    forms = [dual_form(d, Perm(images), j) for images, j in indices]
    return indices, _covered_values(forms, points)


def separation_matrix(d: int) -> tuple[list[tuple[tuple[int, ...], int]],
                                       list[list[Cyc]]]:
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


def separation_violations(d: int) -> list[tuple[int, int, Cyc]]:
    """Entries breaking the expected pattern: diagonal (-1)^((d+1)j) * d,
    zero off the diagonal. Empty means the pattern holds exactly."""
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


def check_separation(d: int) -> bool:
    return not separation_violations(d)


def check_promotion(d: int) -> bool:
    """The degree-d promoted functionals keep the separation pattern:
    nonzero at their own point, zero at all the others."""
    indices = term_index_list(d)
    points = [term_point(d, Perm(images), j) for images, j in indices]
    forms = [promoted_dual_form(d, Perm(images), j) for images, j in indices]
    for r, row in enumerate(_covered_values(forms, points)):
        if row.get(r, Cyc.zero(d)).is_zero:
            return False
        if any(not value.is_zero for c, value in row.items() if c != r):
            return False
    return True


def rank_of_rows(rows: list[dict]) -> int:
    """Exact rank of sparse vectors over the cyclotomic field. Row reduction
    pivots on each row's first nonzero position in sorted column order;
    exact arithmetic needs no pivot-size policy.

    Pivots are applied in creation order: each stored pivot row is already
    zero at every earlier pivot column, so a fully reduced row is zero at
    all of them and its leading column is guaranteed fresh.
    """
    pivots: list[tuple[object, dict]] = []
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


def rank_oracle(d: int, allow_large: bool = False) -> int:
    """Rank of the expanded terms T_{sigma,j} in the degree-d monomial
    basis. d = 5 means exact elimination on a 600-row system and takes
    minutes; it is gated behind allow_large."""
    if d < 2 or d > 5 or (d == 5 and not allow_large):
        limit = "in [2, 5] with allow_large" if d == 5 else "in [2, 4]"
        raise ValueError(f"d must be {limit}, got {d}")
    dec = main_decomposition(d)
    rows = []
    for term in dec.terms:
        expanded = expand_power(term.form, term.exponent) * term.coeff
        rows.append(dict(expanded.terms))
    return rank_of_rows(rows)
