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
0, its code read from ``decompositions.phase_codes``) by counting phases in
the group ring, monomial by monomial (``multipoly.covered_values``); for the
dual forms that is d points per form.

The rank comes from apolarity: for a form f of degree d and a linear form l
with coefficient vector a, f(D) l^d = d! f(a). Multiplied by one linear
factor, each dual form has degree d and keeps the pattern, so applying it to
a vanishing combination of the terms leaves only its own term's multiplier,
which must be zero. The factor is x[1, sigma 1], so the promoted form's value
at a point is the dual form's value times the point's coordinate there: one
pairing of the dual forms with the points of the terms a decomposition
actually holds gives both patterns (``independence_certificate``). The rows
keeping the promoted pattern are a proven lower bound on the rank, equal to
it at d * d!.
"""

from __future__ import annotations

from .cyclotomic import Cyc, omega
from .decompositions import (
    PowerDecomposition,
    _permutations,
    main_decomposition,
    phase_codes,
)
from .multipoly import Monomial, SparsePoly, covered_values


def diagonal_cofactor_monomial(sigma: tuple[int, ...], k: int) -> Monomial:
    """The product of x[i, sigma i] over all i except k, its entries in row
    order and so already canonical."""
    return tuple((i, s, 1) for i, s in enumerate(sigma, start=1) if i != k)


def dual_form(d: int, sigma: tuple[int, ...], j: int) -> SparsePoly:
    """L_{sigma,j} = sum_k w^(kj) * (product of x[i, sigma i], i != k), of
    degree d - 1."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    return SparsePoly(d, {diagonal_cofactor_monomial(sigma, k):
                          omega(d, k * j) for k in range(1, d + 1)})


def term_index_list(d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (sigma images, j) in lexicographic sigma order, then j = 1..d."""
    return [(sigma, j)
            for sigma in _permutations(d)[0] for j in range(1, d + 1)]


def independence_certificate(
        d: int) -> tuple[list[tuple[int, int, Cyc]], int,
                         tuple[int, int, Cyc] | None]:
    """The separation violations of ``main_decomposition(d)``, its proven
    rank lower bound and the first entry breaking the promoted pattern, from
    one pairing (see ``_certificate``)."""
    if not 2 <= d <= 5:
        raise ValueError(f"d must be in [2, 5], got {d}")
    return _certificate(main_decomposition(d))


def _certificate(
        dec: PowerDecomposition) -> tuple[list[tuple[int, int, Cyc]], int,
                                          tuple[int, int, Cyc] | None]:
    """Pair the dual form L_r of the r-th (sigma, j) of ``term_index_list``
    with the point a_c of every given term c (its form's phase codes, each
    a power of w, one entry per row) once, and read the table twice.

    The separation violations are the entries (r, c, value) off the pattern:
    (-1)^((d+1)j) * d on the diagonal, zero elsewhere. The promoted entry
    f_r(a_c) is L_r(a_c) * a_c[1, sigma_r 1], zero where that coordinate is.
    A row whose term coefficient and promoted diagonal are nonzero, with
    zeros elsewhere, forces its term's multiplier in a vanishing combination
    to zero; the count of such rows is the certified rank. The violation is
    the first promoted (r, c, value), row by row, zero on the diagonal or
    nonzero off it; None when the promoted pattern holds.
    """
    d = dec.d
    indices = term_index_list(d)
    if len(dec.terms) != len(indices):
        raise ValueError(f"the certificate pairs {len(indices)} terms at "
                         f"d={d}, got {len(dec.terms)}")
    points = []
    for r, (term, view) in enumerate(zip(dec.terms, phase_codes(dec))):
        if view is None or dec.order != d or max(view[1], default=0) >= d:
            raise ValueError(f"term {r} {term.index}: its form is not a "
                             f"power of w of order {d} at each of its "
                             f"cells, one cell per row")
        cols, codes = view
        points.append(dict(zip([(i, s) for i, s in enumerate(cols, 1) if s],
                               codes)))
    values = covered_values([dual_form(d, sigma, j) for sigma, j in indices],
                            points)
    zero = Cyc.zero(d)
    violations, count, first = [], 0, None
    for r, ((sigma, j), term, row) in enumerate(
            zip(indices, dec.terms, values)):
        diagonal = Cyc.from_int(d, (-1) ** ((d + 1) * j) * d)
        riser, bad = (1, sigma[0]), None
        for c in sorted(row.keys() | {r}):
            value = row.get(c, zero)
            if value != (diagonal if c == r else zero):
                violations.append((r, c, value))
            k = points[c].get(riser)
            if bad is None and (c == r) == (k is None or value.is_zero):
                bad = (r, c, zero if k is None else value * omega(d, k))
        if bad is None:
            count += not term.coeff.is_zero
        elif first is None:
            first = bad
    return violations, count, first
