"""Linear independence of the main decomposition's terms.

Each term T_{sigma,j} is a d-th power of a linear form; its coefficient
matrix is a point in d^2-space. For every term there is a degree-(d-1)
"dual" form, built from the products of all-but-one coordinate along sigma's
diagonal, that evaluates to (-1)^((d+1)j) * d at the term's own point and to
exactly zero at every other term point. That separation pattern is the
paper's proof that the terms are linearly independent.

A pairing is decided by support before any arithmetic. A form's value at a
point is a sum over its monomials, and a monomial with a variable outside the
point's support contributes an exact zero. So a form none of whose monomials
lies in a point's support is exactly 0 there. An integer support index built
from the actual monomials and points finds the covered pairs. Only those pairs
are evaluated, exactly, from the point's phases (every coordinate is w^k or
0) by counting phases in the group ring (``multipoly.covered_values``); for
the dual forms that is d points per form.

The rank comes from apolarity: for a form f of degree d and a linear form l
with coefficient vector a, f(D) l^d = d! f(a). Multiplied by one linear
factor, each dual form has degree d and keeps the pattern, so applying it to
a vanishing combination of the terms leaves only its own term's multiplier,
which must be zero. ``promotion_certificate`` reads the points from the
terms a decomposition actually holds; the rows keeping the pattern are a
proven lower bound on the rank, equal to it at d * d!.
"""

from __future__ import annotations

from .cyclotomic import Cyc, omega
from .decompositions import PowerDecomposition, _permutations
from .multipoly import (
    Monomial,
    SparsePoly,
    covered_values,
    mono_mul,
    monomial,
)


def term_point(d: int, sigma: tuple[int, ...], j: int) -> dict:
    """The coefficient matrix of term (sigma, j) as a point, by its phases:
    the coordinate at (i, sigma i) is w^(ij mod d), every other is zero."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    return {(i, s): i * j % d for i, s in enumerate(sigma, start=1)}


def diagonal_cofactor_monomial(sigma: tuple[int, ...], k: int) -> Monomial:
    """The product of x[i, sigma i] over all i except k."""
    return monomial({(i, s): 1 for i, s in enumerate(sigma, start=1)
                     if i != k})


def dual_form(d: int, sigma: tuple[int, ...], j: int) -> SparsePoly:
    """L_{sigma,j} = sum_k w^(kj) * (product of x[i, sigma i], i != k), of
    degree d - 1."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    return SparsePoly(d, {diagonal_cofactor_monomial(sigma, k):
                          omega(d, k * j) for k in range(1, d + 1)})


def promoted_dual_form(d: int, sigma: tuple[int, ...], j: int) -> SparsePoly:
    """The degree-d promotion: L multiplied by x[1, sigma 1], a linear form
    that does not vanish at the matching point. Multiplying by one monomial
    keeps every coefficient and the monomials distinct."""
    riser = monomial({(1, sigma[0]): 1})
    return SparsePoly(d, {mono_mul(m, riser): c
                          for m, c in dual_form(d, sigma, j).terms.items()})


def term_index_list(d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (sigma images, j) in lexicographic sigma order, then j = 1..d."""
    return [(sigma, j)
            for sigma in _permutations(d)[0] for j in range(1, d + 1)]


def _separation_values(d: int) -> tuple[list[tuple[tuple[int, ...], int]],
                                        list[dict[int, Cyc]]]:
    """Every dual form paired with the term points, both in
    ``term_index_list`` order, by ``covered_values``."""
    if not 2 <= d <= 5:
        raise ValueError(f"d must be in [2, 5], got {d}")
    indices = term_index_list(d)
    return indices, covered_values(
        [dual_form(d, sigma, j) for sigma, j in indices],
        [term_point(d, sigma, j) for sigma, j in indices])


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


def promotion_certificate(
        dec: PowerDecomposition) -> tuple[int, tuple[int, int, Cyc] | None]:
    """A proven lower bound on the rank of the given terms, and the first
    entry breaking the promoted pairing's pattern.

    Row r pairs the promoted dual form f_r of the r-th (sigma, j) of
    ``term_index_list`` with the point a_c of every given term c: the
    coefficients of its form, each of which must be a power of w. For a
    degree-d form, f(D) l^d = d! f(a) (D the partial derivatives), so f_r(D)
    sends a vanishing combination sum_c lambda_c coeff_c l_c^d to
    lambda_r coeff_r d! f_r(a_r) when f_r is zero at every other point. A row
    whose term coefficient and diagonal entry are nonzero and whose other
    entries are zero therefore forces lambda_r = 0. The number of such rows
    is returned: the terms are independent when it reaches d * d!. The
    violation is the first (r, c, value), row by row, that is zero on the
    diagonal or nonzero off it; None when the pattern holds.
    """
    d = dec.d
    indices = term_index_list(d)
    if len(dec.terms) != len(indices):
        raise ValueError(f"the certificate pairs {len(indices)} terms at "
                         f"d={d}, got {len(dec.terms)}")
    points = []
    for r, term in enumerate(dec.terms):
        phases = {}
        for var, c in term.form.support():
            k = c.root_power() if c.order == d else None
            if k is None:
                raise ValueError(f"term {r} {term.index}: coefficient {c!r} "
                                 f"of x{var} is not a power of w of order {d}")
            phases[var] = k
        points.append(phases)
    forms = [promoted_dual_form(d, sigma, j) for sigma, j in indices]
    zero = Cyc.zero(d)
    count, first = 0, None
    for r, (term, row) in enumerate(
            zip(dec.terms, covered_values(forms, points))):
        row.setdefault(r, zero)
        bad = [(r, c, row[c]) for c in sorted(row)
               if (c == r) == row[c].is_zero]
        if bad and first is None:
            first = bad[0]
        count += not bad and not term.coeff.is_zero
    return count, first
