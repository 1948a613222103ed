"""Linear independence of the main decomposition's terms.

Each term T_{sigma,j} is a d-th power of a linear form; its coefficient
matrix is a point in d^2-space. For every term there is a degree-(d-1)
"dual" form, built from the products of all-but-one coordinate along sigma's
diagonal, that evaluates to (-1)^((d+1)j) * d at the term's own point and to
exactly zero at every other term point. That separation pattern proves the
terms linearly independent; the rank of the expanded terms confirms it
independently.

A pairing is decided by support before any arithmetic. A form's value at a
point is a sum over its monomials, and a monomial with a variable outside the
point's support contributes an exact zero. So a form none of whose monomials
lies in a point's support is exactly 0 there. An integer support index built
from the actual monomials and points finds the covered pairs. Only those pairs
are evaluated, exactly, from the point's phases (every coordinate is w^k or
0) by counting phases in the group ring (``multipoly.covered_values``); for
the dual forms that is d points per form.

The rank is certified mod a prime: a full rank mod p proves a full rank over
Q(w). When the rank mod p falls short, an exact elimination over Q(w)
decides it; that elimination alone is ``rank_oracle``.
"""

from __future__ import annotations

import dataclasses
import heapq

from .cyclotomic import Cyc, omega, primitive_root_of_unity
from .decompositions import Perm, main_decomposition
from .multipoly import (
    Monomial,
    SparsePoly,
    covered_values,
    expand_power,
    mono_mul,
    monomial,
    multinomial,
    weak_compositions,
)


@dataclasses.dataclass(frozen=True)
class TermPoint:
    """Coefficient matrix of one term's linear form, as a point: the
    coordinate at each var of ``phases`` is w^phases[var], every other
    coordinate is zero."""
    index: tuple
    d: int
    phases: dict[tuple[int, int], int] = dataclasses.field(hash=False)


@dataclasses.dataclass(frozen=True)
class DualForm:
    """A homogeneous form, paired with term points by ``covered_values``."""
    poly: SparsePoly
    degree: int

    def __post_init__(self):
        if self.poly.total_degree() != self.degree:
            raise ValueError("form degree does not match the declared degree")


def term_point(d: int, sigma: Perm, j: int) -> TermPoint:
    """The point whose (i, sigma i) coordinate is w^(ij), all others zero."""
    if not 1 <= j <= d:
        raise ValueError(f"j must be in [1, {d}], got {j}")
    return TermPoint((sigma.images, j), d,
                     {(i, sigma(i)): i * j % d for i in range(1, d + 1)})


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
    that does not vanish at the matching point. Multiplying by one monomial
    keeps every coefficient and the monomials distinct."""
    riser = monomial({(1, sigma(1)): 1})
    terms = {mono_mul(m, riser): c
             for m, c in dual_form(d, sigma, j).poly.terms.items()}
    return DualForm(SparsePoly(d, terms), d)


def term_index_list(d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (sigma images, j) in lexicographic sigma order, then j = 1..d."""
    return [(sigma.images, j)
            for sigma in Perm.all_perms(d) for j in range(1, d + 1)]


def _pairings(d: int, make_form) -> list[dict[int, Cyc]]:
    """Every form make_form(d, sigma, j) paired with the term points, in
    ``term_index_list`` order, by ``covered_values``."""
    indices = term_index_list(d)
    return covered_values(
        [make_form(d, Perm(images), j).poly for images, j in indices],
        [term_point(d, Perm(images), j).phases for images, j in indices])


def _separation_values(d: int) -> tuple[list[tuple[tuple[int, ...], int]],
                                        list[dict[int, Cyc]]]:
    if not 2 <= d <= 5:
        raise ValueError(f"d must be in [2, 5], got {d}")
    return term_index_list(d), _pairings(d, dual_form)


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
    for r, row in enumerate(_pairings(d, promoted_dual_form)):
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


def _exact_rank(terms) -> int:
    return rank_of_rows([dict((expand_power(term.form, term.exponent)
                               * term.coeff).terms) for term in terms])


def rank_oracle(d: int, allow_large: bool = False) -> int:
    """Rank of the expanded terms T_{sigma,j} in the degree-d monomial
    basis, by exact elimination over Q(w). d = 5 means a 600-row system;
    it is gated behind allow_large."""
    if d < 2 or d > 5 or (d == 5 and not allow_large):
        limit = "in [2, 5] with allow_large" if d == 5 else "in [2, 4]"
        raise ValueError(f"d must be {limit}, got {d}")
    return _exact_rank(main_decomposition(d).terms)


# ---------------------------------------------------------------------------
# the rank certified mod p
#
# Reduction mod p, with w sent to a primitive order-th root of unity r in
# GF(p), is a ring map from Z[w] (and from its elements over denominators
# prime to p) onto GF(p): since p does not divide the order, r is a root of
# the cyclotomic polynomial mod p. Every minor of the reduced rows is the
# image of the same minor over Q(w), so a minor nonzero mod p is nonzero
# over Q(w): full rank mod p proves full rank. A rank short of the row
# count proves nothing, and the exact elimination decides it.

CERTIFICATE_PRIME = 7681  # p - 1 = 2^9 * 3 * 5: d | p - 1 for d = 2..6


def certificate_root(order: int) -> int:
    """The image of w in GF(CERTIFICATE_PRIME)."""
    return primitive_root_of_unity(order, CERTIFICATE_PRIME)


def rows_mod_p(terms, order: int) -> list[dict[int, int]]:
    """Each term's expansion coeff * form^exponent, reduced mod
    CERTIFICATE_PRIME, as {column: value} with the zeros dropped. Every
    composition e of the exponent over the form's support adds
    multinomial(e) * coeff * prod_k entry_k^e_k at the monomial of e.
    Columns are numbered with the monomials of more variables first: those
    belong to fewer supports, so the elimination's pivots land there."""
    p = CERTIFICATE_PRIME
    root = certificate_root(order)
    compositions: dict[tuple[int, int], list] = {}
    monomials: dict[tuple, list] = {}
    rows = []
    for term in terms:
        support = term.form.support()
        variables = tuple(var for var, _ in support)
        key = (term.exponent, len(variables))
        if key not in compositions:
            compositions[key] = [
                (tuple((k, e) for k, e in enumerate(comp) if e),
                 multinomial(term.exponent, comp))
                for comp in weak_compositions(*key)]
        table = compositions[key]
        if (term.exponent, variables) not in monomials:
            monomials[term.exponent, variables] = [
                tuple((*variables[k], e) for k, e in parts)
                for parts, _ in table]
        powers = [[pow(c.mod_p(root, p), e, p)
                   for e in range(term.exponent + 1)] for _, c in support]
        coeff = term.coeff.mod_p(root, p)
        row = {}
        for mono, (parts, mult) in zip(monomials[term.exponent, variables],
                                       table):
            value = coeff * mult
            for k, e in parts:
                value *= powers[k][e]
            value %= p
            if value:
                row[mono] = value
        rows.append(row)
    columns = sorted({mono for row in rows for mono in row},
                     key=lambda mono: (-len(mono), mono))
    number = {mono: c for c, mono in enumerate(columns)}
    return [{number[mono]: v for mono, v in row.items()} for row in rows]


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse integer rows. Each new row is reduced by
    the stored pivot rows in creation order, each pivot row being zero at
    every earlier pivot column; a heap of the pivot positions the row
    touches finds the pivots that apply, including those at columns the
    reduction fills in. A row that survives pivots on its smallest column."""
    pivots: list[tuple[int, dict[int, int]]] = []
    position: dict[int, int] = {}
    for row in rows:
        work = {c: v % p for c, v in row.items() if v % p}
        pending = [position[c] for c in work if c in position]
        heapq.heapify(pending)
        while pending:
            col, pivot = pivots[heapq.heappop(pending)]
            factor = work.get(col)
            if not factor:
                continue
            for c, v in pivot.items():
                prior = work.get(c)
                if prior is None:
                    work[c] = -factor * v % p
                    if c in position:
                        heapq.heappush(pending, position[c])
                elif (updated := (prior - factor * v) % p):
                    work[c] = updated
                else:
                    del work[c]
        if work:
            lead = min(work)
            inv = pow(work[lead], -1, p)
            position[lead] = len(pivots)
            pivots.append((lead, {c: v * inv % p for c, v in work.items()}))
    return len(pivots)


def term_rank(terms, order: int) -> int:
    """Rank of the expanded terms in the monomial basis over Q(w): the rank
    mod CERTIFICATE_PRIME when it equals the row count, which certifies it;
    otherwise the exact elimination."""
    rank = rank_mod_p(rows_mod_p(terms, order), CERTIFICATE_PRIME)
    return rank if rank == len(terms) else _exact_rank(terms)


def certified_rank(d: int) -> int:
    """Rank of the expanded terms T_{sigma,j}, by ``term_rank``."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    return term_rank(main_decomposition(d).terms, d)
