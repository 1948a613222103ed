"""Exact verification of the power-sum identities.

Two independent engines are provided:

* expansion mode builds one table for the whole sum, one integer per
  monomial: the monomial's sum without its multinomial, an element f of
  the group ring Z[C_n] indexed by the phase, evaluated at B = 2^W and
  kept mod B^n - 1 (Kronecker substitution). Every term reaching a
  monomial adds it with the same multinomial, which is applied only in
  the comparison, and a monomial matches iff its integer, minus the
  lifted target, leaves no remainder mod Phi_n(B). A term whose scalars
  are all units +-w^k adds +-B^s at each composition's phase s, read for
  all its compositions at once from the fields of one packed integer.
  Such terms on cells inside one support, as a builder's terms at one
  sigma are, form a run: its sum is computed once for each distinct run,
  memoised by the run's signature, and added with one add per
  composition, a cell a term leaves out taking a dead code that reads 0;
  any other term has its scalars lifted to the ring and packed, so one
  integer product mod B^n - 1 is one product in the ring. W comes from
  a proved bound on every digit, the target and the reduction mod
  Phi_n; denominators are cleared by one common denominator of the sum;
  only a mismatching monomial is decoded and projected to Q(w), and
  nothing falls back to Cyc products;
* streaming mode never expands a term: the scheme's total at a monomial
  is a class factor of the exponents' composition, read from the scheme's
  rows at sigma = identity (``decompositions``), times the signed
  extension sum of the pattern, so one comparison decides a whole
  composition class. Each given term is checked against the term of the
  scheme's numbering at its own position; a term found elsewhere has its
  number read from its support, so terms may come in any order. Only the
  monomials of a failing class, and those a term whose index is missing,
  repeated or differs reaches (corrected by that term), are evaluated one
  by one.

The engines share no code path, so they act as each other's oracle; both
read the terms they are given, compare against the scaled target
polynomial with exact arithmetic, and name the first mismatching monomial
in sorted order as the witness.

The closed-form coefficient rule for the single-row phase polynomial
P = sum_j (-1)^((d+1)j) (sum_i w^(ij) x_i)^d, the lemma behind the d * d!
bound, is checked by the expansion engine: the d powers are its terms and
the rule's coefficients its target.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from bisect import bisect_right
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, is_, itemgetter, mul
from typing import NamedTuple

from .cyclotomic import (
    Cyc,
    _signed_roots,
    cyclotomic_polynomial,
    from_root_coefficients,
    omega,
)
from .decompositions import (
    TARGET_DETERMINANT,
    TARGET_DIAGONAL,
    PowerDecomposition,
    PowerTerm,
    ProductDecomposition,
    _numbering,
)
from .multipoly import (
    LinForm,
    Monomial,
    SparsePoly,
    determinant_poly,
    monomial,
    multinomial,
    perm_sign,
    weak_compositions,
)


def closed_form_coefficient(multiplicities: tuple[int, ...], d: int) -> Cyc:
    """Coefficient of x_1^e_1 ... x_d^e_d in the phase polynomial P, for
    the multiplicities (e_1, ..., e_d), by the closed-form rule:
    (d choose e) * d when sum(i * e_i) is congruent to binom(d+1, 2) mod d,
    else 0."""
    if len(multiplicities) != d or sum(multiplicities) != d:
        raise ValueError(f"{multiplicities} are not the multiplicities of "
                         f"a degree-{d} monomial in {d} variables")
    entry_sum = sum(i * e for i, e in enumerate(multiplicities, start=1))
    if entry_sum % d != math.comb(d + 1, 2) % d:
        return Cyc.zero(d)
    return Cyc.from_int(d, multinomial(d, multiplicities) * d)


def check_closed_form_coefficients(d: int) -> bool:
    """Compare the closed-form rule with the phase polynomial P, expanded
    by the expansion engine, at every degree-d monomial in x_1..x_d, x_i
    stored as the grid variable (i, 1)."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    terms = []
    # main's rows at sigma = identity, one choice per row, with row i's
    # scalar moved to the cell (i, 1)
    for j, (sign, rows) in enumerate(_numbering("main", d).families, 1):
        choices = [choice for choice, in rows]
        terms.append(PowerTerm(
            (j,), Cyc.from_int(d, sign * math.prod(s for s, _ in choices)),
            LinForm(d, d, {(i, 1): c for i, (_, c) in enumerate(choices, 1)}),
            d))
    target = SparsePoly(d, {
        monomial({(i, 1): e for i, e in enumerate(comp, start=1)}):
            closed_form_coefficient(comp, d)
        for comp in weak_compositions(d, d)})
    mismatches, distinct = _expand_check(d, d, terms, target, False)
    # every term reaches every degree-d monomial in x_1..x_d, so a table of
    # all of them, none mismatching, is the whole of P
    return not mismatches and distinct == math.comb(2 * d - 1, d)


# ---------------------------------------------------------------------------
# decomposition verification


class VerificationReport(NamedTuple):
    scheme: str
    d: int
    mode: str
    equal: bool
    term_count: int
    distinct_monomials: int
    witness: tuple[Monomial, Cyc, Cyc] | None = None
    mismatch_count: int = 0
    mismatches: tuple[tuple[Monomial, Cyc, Cyc], ...] | None = None


# --- expansion engine -------------------------------------------------------
#
# Every term adds coeff * multinomial(e) * prod_k entry_k^e_k to the monomial
# x^E of each weak composition e of the exponent over the form's support.
# Every term that reaches x^E does so with the same multinomial m(E) =
# deg(E)! / prod E!, so the table keeps f_E, the monomial's sum without it,
# an element of the group ring Z[C_order] indexed by the phase, and m(E) is
# applied only where f_E is compared or decoded. No Cyc product is taken.
#
# * One int per monomial: V, congruent to f_E(B) mod M = B^order - 1 at
#   B = 2^W (Kronecker substitution). x^order - 1 at x = B is M, so one
#   int product mod M is one product in the ring. W comes from one proved
#   bound on every digit, the target and the reduction mod Phi_order (see
#   ``_packed_width``).
# * The ints sit in one flat list, in blocks: the monomials on one set of
#   cells, in a fixed order of their compositions. A support reaches the
#   whole block of each nonempty subset of at most exponent of its cells.
#   One composition table, for the largest support, serves every term
#   (all share the exponent d): a smaller support takes its prefix. A new
#   support looks up the blocks of all its subsets at once, makes the
#   missing ones, and places each composition at start plus rank.
# * The check compares in the ring, one remainder per monomial: Phi_order
#   divides x^order - 1, so Phi_order(B) divides M, and V mod Phi_order(B)
#   is 0 iff f_E vanishes in Q(w). A target monomial matches iff
#   m(E) * V - t_E(B) is 0 mod Phi_order(B), t_E the target's coefficient
#   times the common denominator, lifted at phase 0. Only mismatching
#   monomials are decoded (centered mod M, then order signed base-B
#   digits, times m(E)) and projected to Q(w).
#
# * A term whose coefficient and nonzero entries are all units +-w^k adds
#   +-B^slot at the phase of each composition, the exponent-weighted sum
#   of the entries' root powers. Each entry is a power z^code of a root z
#   of order 2 * order (z^2 = w, z^order = -1), so composition e's product
#   is z^v, v = sum_k code_k * e_k. One int holds every composition's v in
#   a field of its own: sum_k code_k * column_k, column k holding e_k of
#   every composition, one field each; a table per coefficient turns v
#   into the signed phase it adds.
# * Unit terms are added in runs: a unit term that opens a support, and
#   every unit term after it whose cells lie inside it, as a builder's
#   terms at one sigma do. A term's codes are placed on the run's cells; a
#   cell it leaves out takes the dead code, past every code sum, so each
#   composition that uses the cell reads 0. The run's sum at each
#   composition is counted by phase at a narrow width, each distinct count
#   packed at B once, and memoised by the run's signature: the table
#   prefix and each term's (sign, k0, codes). A builder's runs repeat at
#   every sigma up to sgn sigma, so two sums are computed, and each run
#   adds its nonzero sums into the table, one add per composition. Only
#   the latest ``_KEPT_SUMS`` sums are kept, so runs that never repeat
#   hold no more than that many runs' sums.
# * Any other scalar is lifted to the ring: its numerator over 1, w, ...,
#   w^(phi-1), padded with zeros to length order, is an element of
#   Z[C_order] that projects back to itself, and the projection is a ring
#   map, so products of lifts (cyclic convolutions) project to the products
#   in Q(w). A lift is packed into one int, evaluated at B and kept mod M.
#   The products over a term's compositions walk a tree of nonzero
#   prefixes, one product per node, shared by the compositions below it,
#   and each composition adds prefix * power into its monomial's int.
# * Denominators are cleared by one common denominator L of the whole sum,
#   so every term adds integers; a witness's projection divides by L once.


def _terms_unit_phases(terms) -> list:
    """Per term, (sign, k) of its coefficient and the code of each entry,
    when every scalar of the term is a unit; else None. The entry
    (-1)^neg * w^p has code 2 * p + order * neg, the exponent of z in
    z^(2p) * (z^order)^neg for a root z of order 2 * order, with z^2 = w
    and z^order = -1. Each distinct coefficient object, and each distinct
    (entry, scalar) pair object with a unit scalar, is looked up once, by
    its id, which the terms keep in use: a builder's terms share their
    numbering's few pairs."""
    heads: dict = {}  # id of a coefficient -> its (sign, k), or None
    codes: dict = {}  # id of a pair with a unit scalar -> its code
    code_of, unseen = codes.get, object()
    out = []
    append = out.append
    for term in terms:
        coeff = term.coeff
        head = heads.get(id(coeff), unseen)
        if head is unseen:
            head = heads[id(coeff)] = _signed_roots(coeff.order).get(
                (coeff.num, coeff.den))
        if head is None:
            append(None)
            continue
        entry = []
        for pair in term.form.support():
            code = code_of(id(pair))
            if code is None:
                c = pair[1]
                unit = _signed_roots(c.order).get((c.num, c.den))
                if unit is None:
                    append(None)
                    break
                code = codes[id(pair)] = 2 * unit[1] + (
                    c.order if unit[0] < 0 else 0)
            entry.append(code)
        else:
            append((head, tuple(entry)))
    return out


def _code_bound(exponent: int, order: int) -> int:
    """The largest sum of ``exponent`` entry codes: each is at most
    2 * (order - 1) + order."""
    return exponent * (3 * order - 2)


def _dead_code(exponent: int, order: int) -> int:
    """The code of a cell that a run's term leaves out: past every code sum
    of the cells it has, so a composition that uses the cell reads 0."""
    return _code_bound(exponent, order) + 1


def _field_format(exponent: int, order: int,
                  dead_codes: bool = False) -> str:
    """The struct format of the smallest unsigned native field that holds
    every code sum of a unit term, or, with ``dead_codes``, every sum of
    ``exponent`` codes each at most the dead code: at most exponent *
    dead."""
    bound = _code_bound(exponent, order)
    if dead_codes:
        bound = exponent * _dead_code(exponent, order)
    return next(code for code in "BHIQ"
                if bound < 1 << 8 * struct.calcsize(code))


class _Table(NamedTuple):
    """The weak compositions of an exponent over ``size`` parts (``comps``)
    by their last positive part: those over s parts are the first
    ``ends[s][1]``. Node n >= 1 of a tree of their nonzero prefixes is
    ``nodes[n - 1]`` = (parent, k, e), its parent extended by part k = e;
    the first ``ends[s][0]`` are over s parts. ``steps[c]`` = (parent, k,
    e) completes composition c, at place ``ranks[c]`` of block b =
    ``blocks[c]``, its positive parts ``masks[b]``, ordered by last part:
    part k extends the earlier blocks ``grows[k]``, of < exponent parts."""
    comps: list
    nodes: list
    steps: list
    blocks: list
    ranks: list
    masks: list
    grows: list
    ends: list


def _cell_masks(bits, grows) -> list[int]:
    """The cell mask of each block of a ``_Table`` on a support whose cells
    have ``bits``, built as the table's ``masks``: two maps per part."""
    cells = []
    for bit, grow in zip(bits, grows):
        cells.append(bit)
        cells += map(bit.__or__, map(cells.__getitem__, grow))
    return cells


def _composition_table(exponent: int, size: int) -> _Table:
    """The ``_Table`` of ``exponent`` >= 1 over ``size`` parts. Level k
    completes each earlier prefix by all that remains at part k and, but
    at the last part, extends it by each smaller part k. Prefixes of one
    set of parts come in lexicographically descending order, so each
    block's compositions do, in the order of ``_positive_compositions``,
    and a composition's rank is its block's count so far."""
    masks, grows = [], []
    for k in range(size):
        grows.append([b for b, mask in enumerate(masks)
                      if mask.bit_count() < exponent])
        masks += [1 << k, *(masks[b] | 1 << k for b in grows[-1])]
    ids = {mask: b for b, mask in enumerate(masks)}
    comps, nodes, steps, blocks, ranks = [], [], [], [], []
    counts = [0] * len(ids)
    # prefix n: (what remains, its parts, its set of parts); 0 is empty
    prefixes = [(exponent, [0] * size, 0)]
    ends = [(0, 0)]
    for k in range(size):
        node_end = len(nodes)
        for parent in range(len(prefixes)):
            rem, parts, mask = prefixes[parent]
            b = ids[mask | 1 << k]
            steps.append((parent, k, rem))
            comps.append(parts[:k] + [rem] + parts[k + 1:])
            blocks.append(b)
            ranks.append(counts[b])
            counts[b] += 1
            for e in range(rem - 1 if k < size - 1 else 0, 0, -1):
                nodes.append((parent, k, e))
                prefixes.append((rem - e, parts[:k] + [e] + parts[k + 1:],
                                 mask | 1 << k))
        ends.append((node_end, len(steps)))
    return _Table(comps, nodes, steps, blocks, ranks, masks, grows, ends)


@lru_cache(maxsize=None)
def _positive_compositions(exponent: int, size: int) -> tuple:
    """The compositions of ``exponent`` into ``size`` positive parts, in the
    order of a block's slots: lexicographically descending, as
    ``weak_compositions`` lists them less one per part, with no table."""
    return tuple(tuple(e + 1 for e in c)
                 for c in weak_compositions(exponent - size, size))


def _packed_columns(comps, field: str) -> list[int]:
    """Column k holds part k of composition c in its field c."""
    return [int.from_bytes(struct.pack(f"{len(comps)}{field}", *column),
                           sys.byteorder) for column in zip(*comps)]


def _common_denominator(terms, units=None) -> int:
    """lcm over the terms of coeff.den * D^exponent, D the lcm of the
    form's scalar denominators: L times a term is an integer times the
    coefficient's numerator times the power of the form scaled by D, all
    integral. 1 when every scalar is integral, as for every builder. A
    unit term, one whose ``units`` entry (from ``_terms_unit_phases``) is
    not None, has every denominator 1 and is skipped."""
    common = 1
    for term, unit in zip(terms, units or repeat(None)):
        if unit is not None:
            continue
        den = math.lcm(*(c.den for _, c in term.form.support()))
        common = math.lcm(common, term.coeff.den * den ** term.exponent)
    return common


def _digit_bound(terms, units, scale: int) -> int:
    """A bound F on |f_E|_1, the L1 norm of every monomial's sum without
    its multinomial, ``units`` being ``_terms_unit_phases(terms)``. A term
    reaches a monomial through one composition e at most. A unit term adds
    +-scale at one phase there. Any other adds the lift of factor * coeff *
    prod_k entry_k^e_k, entry_k scaled by D / entry_k.den and factor =
    scale / (coeff.den * D^exponent); as |a * b|_1 <= |a|_1 * |b|_1 in
    Z[C_n] and each nonzero lift has |entry_k|_1 >= 1, its norm is at most
    factor * |coeff|_1 * (max_k |entry_k|_1)^exponent."""
    bound = 0
    for term, unit in zip(terms, units):
        if unit is not None:
            bound += scale
            continue
        support = term.form.support()
        den = math.lcm(*(c.den for _, c in support))
        top = max((den // c.den * sum(map(abs, c.num)) for _, c in support),
                  default=0)
        factor = scale // (term.coeff.den * den ** term.exponent)
        bound += factor * sum(map(abs, term.coeff.num)) * top ** term.exponent
    return bound


def _packed_width(order: int, spread: int) -> int:
    """Bits per digit W of the packed group ring, B = 2^W, for every g in
    Z[C_order] with |g|_1 <= ``spread``: each monomial's f_E, and each
    m(E) * f_E - t_E it is compared with. Let G be the largest |coefficient|
    of the reduced powers x^k mod Phi_order, k < order, H the largest
    |coefficient| of Phi_order, and W one more than the bit length of
    G * spread + H, so B > 2 * (G * spread + H). Then

    (1) g(B) mod Phi_order(B) is 0 iff g vanishes in Q(w). Write g =
        q * Phi_order + r, deg r < phi = deg Phi_order; g vanishes iff
        r = 0. r = sum_k g_k * (x^k mod Phi_order), so every |r_i| <=
        G * |g|_1 <= G * spread =: R. g(B) = r(B) mod Phi_order(B). As
        Phi_order is monic, Phi_order(B) >= B^phi - H * (B^phi - 1)/(B - 1)
        while |r(B)| <= R * (B^phi - 1)/(B - 1), and R + H <= B - 1 gives
        |r(B)| < Phi_order(B): the remainder is 0 iff r(B) = 0. As R < B,
        r's top nonzero digit outweighs all below it, so r(B) = 0 iff
        r = 0. Phi_order divides x^order - 1, so the same holds for any V
        congruent to g(B) mod M = B^order - 1.
    (2) g is read back from any V congruent to g(B) mod M. Each |g_i| <=
        spread < (B - 1) / 2, so |g(B)| <= spread * M / (B - 1) < M / 2 is
        V mod M centered, and B / 2 added to each digit lands in [0, B):
        the digits are read without a borrow."""
    reduced = max(abs(x) for k in range(order) for x in omega(order, k).num)
    height = max(map(abs, cyclotomic_polynomial(order)))
    return (reduced * spread + height).bit_length() + 1


def _digits(value: int, order: int, width: int) -> list[int]:
    """The ``order`` signed base-2^width digits of the g with g(2^width)
    congruent to ``value`` mod 2^(order * width) - 1 (see ``_packed_width``,
    part 2)."""
    base = 1 << width
    modulus = (1 << order * width) - 1
    half = base >> 1
    value %= modulus
    if value > modulus >> 1:
        value -= modulus
    # modulus // (base - 1) = sum of base^i, i < order
    value += half * (modulus // (base - 1))
    return [(value >> i * width & base - 1) - half for i in range(order)]


def _pack(coeffs, factor: int, width: int) -> int:
    """factor * the integer vector ``coeffs``, an element of Z[C_order],
    evaluated at x = 2^width."""
    return sum(factor * x << i * width for i, x in enumerate(coeffs))


def _slot(blocks: dict, mono: Monomial, d: int) -> int | None:
    """The place of ``mono``, of the terms' degree, in a table whose blocks
    are ``blocks`` (see ``_expand_chunk``), or None if no term reaches it."""
    exps = tuple(e for _, _, e in mono)
    start = blocks.get(sum(1 << (i - 1) * d + j - 1 for i, j, _ in mono))
    if start is None:
        return None
    return start + _positive_compositions(sum(exps), len(exps)).index(exps)


def _monomials_at(blocks: dict, places, d: int, exponent: int) \
        -> list[Monomial]:
    """The monomials at ``places`` of a table of terms of ``exponent`` whose
    blocks are ``blocks``, each a tuple of sorted entries."""
    masks, starts = list(blocks), list(blocks.values())
    out = []
    for place in places:
        b = bisect_right(starts, place) - 1
        cells = [divmod(bit, d) for bit in range(masks[b].bit_length())
                 if masks[b] >> bit & 1]
        exps = _positive_compositions(exponent, len(cells))[place - starts[b]]
        out.append(tuple((i + 1, j + 1, e) for (i, j), e in zip(cells, exps)))
    return out


def _multinomial(mono: Monomial) -> int:
    """m(E): the multinomial every term reaching ``mono`` adds it with."""
    exps = [e for _, _, e in mono]
    return multinomial(sum(exps), exps)


# the run sums expansion keeps at once: a builder's runs take one signature
# per sgn sigma, and runs that never repeat (a builder's terms with every
# sigma's phases moved) would otherwise keep all of theirs to the end
_KEPT_SUMS = 16


def _expand_chunk(order: int, scale: int, terms, d: int, wants,
                  units=None):
    """``scale`` times the sum of the terms without the multinomials, as
    (blocks, acc, width): acc[place] is congruent to f_E(2^width) mod
    2^(order * width) - 1 for the monomial x^E at that place. Every term
    has one exponent e, as in a ``PowerDecomposition``. The monomials on
    one set of cells S of the d x d grid take consecutive places, a block,
    in the order of ``_positive_compositions(e, |S|)``; ``blocks`` maps the
    bit mask of S (bit (i - 1) * d + j - 1 for cell (i, j)) to the block's
    first place, in increasing order. A term whose support holds S reaches
    the whole block, so the table holds the union of the terms' monomials,
    those that cancel to zero included. ``scale`` must clear every
    denominator (see ``_common_denominator``). ``wants`` holds the target's
    (m(E), lifted vector) pairs: the width holds each comparison with
    them (see ``_packed_width``). ``units`` are
    ``_terms_unit_phases(terms)``, read here when not given."""
    if units is None:
        units = _terms_unit_phases(terms)
    bound = _digit_bound(terms, units, scale)
    width = _packed_width(order, max([bound, *(
        m * bound + sum(map(abs, want)) for m, want in wants)]))
    exponent, = {term.exponent for term in terms} or {1}
    table = _composition_table(exponent, max(
        (len(term.form.support()) for term in terms), default=0))
    # the number of compositions in each table block
    sizes = [math.comb(exponent - 1, mask.bit_count() - 1)
             for mask in table.masks]
    blocks: dict[int, int] = {}
    acc: list[int] = []
    cache: dict = {}
    sums: dict[tuple, list] = {}
    lifts = [scale << i * width for i in range(order)]
    last_vars = None
    for support, term, members in _runs(terms, units,
                                        _dead_code(exponent, order)):
        variables = [var for var, _ in support]
        if variables != last_vars:
            # find or make the blocks of all its subsets at once
            last_vars = variables
            node_end, step_end = table.ends[len(variables)]
            cells = _cell_masks([1 << (i - 1) * d + j - 1
                                 for i, j in variables], table.grows)
            starts = list(map(blocks.get, cells))
            missing = list(compress(range(len(cells)),
                                    map(is_, starts, repeat(None))))
            if missing:
                # the missing blocks one after another at the table's end,
                # in the order of ``cells``
                new = list(map(sizes.__getitem__, missing))
                firsts = list(accumulate(new[:-1], initial=len(acc)))
                blocks.update(zip(map(cells.__getitem__, missing), firsts))
                acc += repeat(0, sum(new))
                for b, first in zip(missing, firsts):
                    starts[b] = first
            places = None
        if members is None:
            # each composition's place, made once per support
            if places is None:
                places = list(map(add, map(starts.__getitem__,
                                           table.blocks[:step_end]),
                                  table.ranks[:step_end]))
                nodes = table.nodes[:node_end]
            _add_general_term(term, support, order, scale, width, acc, places,
                              nodes, table.steps)
            continue
        # the run's signature is everything its sum depends on; a builder's
        # runs differ from sigma to sigma only in sgn sigma
        key = (step_end, *members)
        found = sums.get(key)
        if found is None:
            if len(sums) == _KEPT_SUMS:
                del sums[next(iter(sums))]
            found = sums[key] = _run_sum(members, step_end, table, cache,
                                         exponent, lifts)
        at_blocks, ranks, values = found
        for i, x in zip(map(add, map(starts.__getitem__, at_blocks), ranks),
                        values):
            acc[i] += x
    return blocks, acc, width


def _runs(terms, units, dead: int):
    """The terms in order, as (support, term, None) for a term that is not
    a unit term and (support, None, members) for a run: a unit term that
    opens a support, and every unit term after it whose cells lie inside
    that support. A member is (sign, k0, codes), its codes on the run's
    cells, ``dead`` on a cell it leaves out."""
    at = None
    for term, unit in zip(terms, units):
        support = term.form.support()
        if unit is None or at is None or not all(
                map(at.__contains__, map(itemgetter(0), support))):
            if at is not None:
                yield opening, None, members
            if unit is None:
                yield support, term, None
                at = None
                continue
            opening, members = support, []
            at = {var: k for k, (var, _) in enumerate(support)}
        (sign, k0), codes = unit
        # supports are in row-major order, so one of the run's size inside
        # it is its own, its codes already aligned
        if len(support) < len(at):
            aligned = [dead] * len(at)
            for (var, _), code in zip(support, codes):
                aligned[at[var]] = code
            codes = tuple(aligned)
        members.append((sign, k0, codes))
    if at is not None:
        yield opening, None, members


def _run_sum(members, step_end: int, table: _Table, cache: dict,
             exponent: int, lifts) -> list:
    """The sum of a run's unit terms at the first ``step_end`` compositions
    of ``table``, as the blocks, ranks and sums of those where it is not
    0, each sum packed at the ``lifts`` scale * B^s. Member (sign, k0,
    codes) adds sign * w^k0 * z^v, v its code sum, and 0 where v passes the
    code bound, as at every composition that uses a cell of dead code. The
    members are counted by phase at a narrow width, and each distinct count
    is packed at B once. ``cache`` keeps what runs share: the packed
    columns by field, the phase tables by (sign, k0, narrow width) and the
    packed counts by narrow width."""
    order = len(lifts)
    dead = _dead_code(exponent, order)
    field = _field_format(exponent, order,
                          any(dead in codes for _, _, codes in members))
    columns = cache.get(field)
    if columns is None:
        columns = cache[field] = _packed_columns(table.comps, field)
    size = len(table.comps) * struct.calcsize(field)
    # no phase counts more than len(members) in absolute value
    narrow = (2 * len(members) + 1).bit_length()
    counts = [0] * step_end
    # the lookups of up to 32 members at once, summed per composition
    for group in range(0, len(members), 32):
        lookups = []
        for sign, k0, codes in members[group:group + 32]:
            phase_of = cache.get((sign, k0, narrow))
            if phase_of is None:
                # z^v is w^(v/2) for even v and -w^((v - order)/2) for odd
                # v (odd v needs an odd order)
                phase_of = cache[sign, k0, narrow] = [
                    (-sign if v & 1 else sign) << (k0 + (
                        (v - (order if v & 1 else 0)) >> 1)) % order * narrow
                    for v in range(dead)] + [0] * ((exponent - 1) * dead + 1)
            # field c of the sum is the code sum v of composition c
            packed = sum(map(mul, codes, columns))
            fields = memoryview(packed.to_bytes(size, sys.byteorder)).cast(
                field)
            lookups.append(map(phase_of.__getitem__, fields[:step_end]))
        counts = list(map(sum, zip(*lookups), counts))
    wide = cache.setdefault(narrow, {})
    for v in set(counts).difference(wide):
        wide[v] = sum(map(mul, _digits(v, order, narrow), lifts))
    return [list(compress(column, counts)) for column
            in (table.blocks, table.ranks, map(wide.__getitem__, counts))]


def _add_general_term(term, support, order: int, scale: int, width: int,
                      acc, run, nodes, steps) -> None:
    """Add scale * coeff * prod_k entry_k^e_k, packed, into the int of the
    monomial of each composition e. Products are taken mod 2^(order *
    width) - 1, which is x^order - 1 at x = 2^width, so they are products
    in Z[C_order]."""
    modulus = (1 << order * width) - 1
    exponent = term.exponent
    den = math.lcm(*(c.den for _, c in support))
    powers = []
    for _, c in support:
        power = _pack(c.num, den // c.den, width) % modulus
        row = [None, power]
        for _ in range(exponent - 1):
            row.append(row[-1] * power % modulus)
        powers.append(row)
    coeff = term.coeff
    products = [_pack(coeff.num, scale // (coeff.den * den ** exponent),
                      width) % modulus]
    for parent, k, e in nodes:
        products.append(products[parent] * powers[k][e] % modulus)
    for i, (parent, k, e) in zip(run, steps):
        acc[i] += products[parent] * powers[k][e]


def _expand_check(order: int, d: int, terms, target: SparsePoly,
                  collect_all: bool):
    """Returns (mismatch list, distinct monomial count): the monomials, in
    sorted order, where ``target`` differs from the expanded sum of
    ``terms``, d-th powers of forms on the d x d grid, and the size of the
    expansion's table, zeros included. The target's coefficients are
    integers."""
    units = _terms_unit_phases(terms)
    scale = _common_denominator(terms, units)
    # each integer coefficient lifts to its numerator times the common
    # denominator, at phase 0
    wants = {mono: (_multinomial(mono), [scale * x for x in c.num])
             for mono, c in target.terms.items()}
    blocks, acc, width = _expand_chunk(order, scale, terms, d,
                                       wants.values(), units)
    divisor = _pack(cyclotomic_polynomial(order), 1, width)
    found, targets = [], set()
    for mono, (m, want) in wants.items():
        place = _slot(blocks, mono, d)
        targets.add(place)
        value = 0 if place is None else acc[place]
        if (m * value - _pack(want, 1, width)) % divisor:
            found.append((mono, place))
    bad = [place for place, value in enumerate(acc)
           if value % divisor and place not in targets]
    found += zip(_monomials_at(blocks, bad, d, d), bad)
    # the witness is the first mismatch in sorted monomial order
    found.sort()
    if not collect_all:
        del found[1:]
    zero = Cyc.zero(order)
    out = []
    for mono, place in found:
        digits = [0] * order if place is None \
            else _digits(acc[place], order, width)
        m = _multinomial(mono)
        out.append((mono, from_root_coefficients(
            order, [m * x for x in digits], scale),
            target.terms.get(mono, zero)))
    return out, len(acc)


def verify_power_decomposition(dec: PowerDecomposition, mode: str = "expansion",
                               jobs: int = 1,
                               collect_all: bool = False) -> VerificationReport:
    """Check scale * target == sum of the terms, exactly.

    ``mode`` picks the engine: "expansion" works for any decomposition;
    "streaming" works for the four structured schemes. It reads its class
    factors from the scheme's rows and matches every given term to its
    number in the same scheme's numbering, or corrects it, so its verdict
    rests on the factorization F(e) * ext and the numbering alone. It
    raises ValueError when a term whose index is missing, repeated or
    differs reaches a monomial outside the scheme's walk.
    Both engines run in the calling process; ``jobs`` is accepted for
    compatibility and ignored.
    """
    if mode == "expansion":
        mismatches, distinct = _expand_check(
            dec.order, dec.d, dec.terms, dec.target_poly() * dec.scale,
            collect_all)
    elif mode == "streaming":
        mismatches, distinct = _stream_check(dec, collect_all)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return VerificationReport(
        scheme=dec.scheme, d=dec.d, mode=mode, equal=not mismatches,
        term_count=len(dec.terms), distinct_monomials=distinct,
        witness=mismatches[0] if mismatches else None,
        mismatch_count=len(mismatches),
        mismatches=tuple(mismatches) if collect_all else None)


# --- streaming engine -------------------------------------------------------
#
# The scheme's numbering (``decompositions._numbering``) repeats its terms
# at sigma = identity at every sigma, with sgn sigma, or keeps sigma =
# identity alone. At a monomial with exponents e on the entries (i, sigma i)
# of k rows, the terms at sigma sum to sgn sigma * F(e), the class factor
#
#   F(e) = multinomial(e) * sum over families of sign
#          * prod over rows i of (sum over choices of sign * scalar^(e_i))
#
# (a left-out row gives 1 at e_i = 0, else 0), and the terms at another
# sigma reach it iff that sigma extends the pattern. So the scheme's total
# is F(e) * ext, ext the signed extension sum of the pattern over its
# sigmas (over the identity alone: 1 on the diagonal, else 0). Over all
# sigmas, against the determinant target (scale * sgn(columns) when e is
# all ones, else 0), one test decides a whole composition class:
#
# * k <= d-2: ext = 0 and the target is 0, so the class matches;
# * k = d-1: the target is 0 and ext = +-1, so it matches iff F == 0;
# * k = d: ext = sgn(columns) = target / scale, so it matches iff F == scale.
#
# Evaluated one by one, in sorted order, are only the monomials that can
# mismatch: those of a failing class or one whose target is not uniform
# (all ones under the diagonal-product target), every pattern of a scheme
# at sigma = identity alone, and those reached by a given term that differs
# from the scheme's term in its position, which adds term minus scheme
# term. Every given term is checked against the numbering, so the verdict
# is proved from the terms given: first against the term at its own
# position, where a builder puts it, and only when its support is not that
# term's against the term its support decodes to.


def _signed_extension_sum(d: int, partial: dict[int, int]) -> int:
    """Sum of signs of all permutations extending the partial row -> column
    assignment (which must be injective). With two or more unassigned rows,
    swapping the images of two of them pairs the extensions off with
    opposite signs, so the sum is 0; otherwise the extension is unique."""
    if d - len(partial) >= 2:
        return 0
    spare = iter(set(range(1, d + 1)).difference(partial.values()))
    return perm_sign(tuple(partial[r] if r in partial else next(spare)
                           for r in range(1, d + 1)))


def _term_corrections(dec: PowerDecomposition, diagonal: bool) -> dict:
    """The given terms that are not the scheme's, with sign +1, and the
    scheme's terms no given term is, with sign -1. A given term is the
    scheme's term n when its coefficient and support are term n's in the
    scheme's numbering and no earlier term was term n; so a term whose
    index is missing, repeated or differs is corrected, and term order does
    not matter. The term at position n is first checked against term n,
    as a builder's terms come in the numbering's order, and ``decode``
    reads a term's number only when its support is not term n's. No two
    of the scheme's terms share a support, so a term with term n's support
    is term n or no term of the scheme. Each correction is indexed by
    every nonempty subset of its support, so a monomial finds the terms
    whose power reaches it by its own support. Raises ValueError when the
    root orders differ, or for a corrected term whose support is not a
    partial permutation pattern the walk covers (only the diagonal when
    ``diagonal``)."""
    d, numbering = dec.d, _numbering(dec.scheme, dec.d)
    if dec.order != numbering.order:
        raise ValueError(f"streaming {dec.scheme} needs root order "
                         f"{numbering.order}, got {dec.order}")
    decode, reference = numbering.decode, numbering.term
    used = bytearray(len(numbering.perms) * len(numbering.block))
    out: dict[tuple[tuple[int, int], ...], list] = {}
    for n, term in enumerate(dec.terms):
        support = term.form.support()
        if n < len(used):
            coeff, want = reference(n)
        if n >= len(used) or support != want:
            # not at its own position: its number is read from its support
            n = decode(support)
            if n is not None:
                coeff, want = reference(n)
        # a builder's terms hold the numbering's own units and pairs, so
        # they match by identity
        if n is not None and not used[n] and support == want and (
                term.coeff is coeff or term.coeff == coeff):
            used[n] = 1
            continue
        _index_correction(out, 1, term.coeff, support, d, diagonal,
                          term.index)
    for n in [n for n, hit in enumerate(used) if not hit]:
        _index_correction(out, -1, *reference(n), d, diagonal, n)
    return out


def _index_correction(out: dict, sign: int, coeff: Cyc, support, d: int,
                      diagonal: bool, label) -> None:
    variables = [var for var, _ in support]
    rows = {i for i, _ in variables}
    cols = {j for _, j in variables}
    if (len(rows) < len(variables) or len(cols) < len(variables)
            or (diagonal and any(i != j for i, j in variables))):
        raise ValueError(
            f"term {label!r} is not the scheme's term and its support "
            f"{variables} is not a pattern the streaming walk covers")
    powers = {var: [c ** e for e in range(d + 1)] for var, c in support}
    for size in range(1, len(variables) + 1):
        for sub in itertools.combinations(variables, size):
            out.setdefault(sub, []).append((sign, coeff, powers))


def _correction(entries, mono: Monomial, mult: int, order: int) -> Cyc:
    """sum of sign * coeff * mult * prod entry^e over the indexed terms."""
    total = Cyc.zero(order)
    for sign, coeff, powers in entries:
        value = coeff * (sign * mult)
        for i, j, e in mono:
            value = value * powers[(i, j)][e]
        total = total + value
    return total


def _walk_count(d: int, diagonal: bool) -> int:
    """How many monomials the walk holds: k of the d rows, a composition of
    d into k positive parts, and an injective choice of k columns (on the
    diagonal, none)."""
    return sum(math.comb(d, k) * math.comb(d - 1, k - 1)
               * (1 if diagonal else math.perm(d, k))
               for k in range(1, d + 1))


def _stream_check(dec: PowerDecomposition, collect_all: bool):
    """Decide each composition class by the rule above, then compare the
    total coefficient of every monomial that can mismatch with the target,
    in sorted order. The count is of the whole walk, whether or not the
    check stops at the first mismatch, as expansion counts its whole
    table."""
    d = dec.d
    numbering = _numbering(dec.scheme, d)
    if numbering is None:
        raise ValueError(
            f"streaming mode not available for scheme {dec.scheme!r}")
    if dec.target not in (TARGET_DETERMINANT, TARGET_DIAGONAL):
        raise ValueError(f"unknown target {dec.target!r}")
    # a scheme at sigma = identity alone lives on the diagonal; a
    # determinant target also needs the off-diagonal patterns walked
    diagonal = not numbering.over_sigma and dec.target == TARGET_DIAGONAL
    corrections = _term_corrections(dec, diagonal)
    visit = set()
    for comp in weak_compositions(d, d):
        rows = tuple(i for i, e in enumerate(comp, start=1) if e)
        k = len(rows)
        # a class decided by the rule above is never walked
        uniform = numbering.over_sigma and (
            k < d or dec.target == TARGET_DETERMINANT)
        if uniform and (k < d - 1 or _class_factor(numbering, comp)
                        == (dec.scale if k == d else 0)):
            continue
        exps = tuple(e for e in comp if e)
        for cols in ([rows] if diagonal
                     else itertools.permutations(range(1, d + 1), k)):
            visit.add(tuple(zip(rows, cols, exps)))
    # every monomial a differing term reaches: positive exponents on a
    # subset of its support
    for support in corrections:
        for exps in weak_compositions(d - len(support), len(support)):
            visit.add(tuple((i, j, e + 1) for (i, j), e in zip(support, exps)))
    # sorted, like expansion's comparison, so both name the same witness
    mismatches = []
    for mono in sorted(visit):
        comp = [0] * d
        for i, _, e in mono:
            comp[i - 1] = e
        comp = tuple(comp)
        # the scheme's own total: F(e) times the signed extension sum of
        # the pattern over the scheme's sigmas
        ext = (_signed_extension_sum(d, {i: j for i, j, _ in mono})
               if numbering.over_sigma
               else int(all(i == j for i, j, _ in mono)))
        got = _class_factor(numbering, comp) * ext
        entries = corrections.get(tuple((i, j) for i, j, _ in mono))
        if entries:
            got = got + _correction(entries, mono, multinomial(d, comp),
                                    dec.order)
        want = _target_coefficient(dec, mono, comp)
        if got != want:
            mismatches.append((mono, got, want))
            if not collect_all:
                break
    return mismatches, _walk_count(d, diagonal)


@lru_cache(maxsize=None)
def _row_sums(numbering) -> list:
    """Each family's sign and, per row, the row's sums over its choices of
    sign * scalar^e for e = 0..d, each the (phase, coefficient) pairs of an
    element of Z[C_n], as every scalar is +-w^k; a left-out row gives 1 at
    e = 0 and 0 after. Rows with equal choices share their sums."""
    order = numbering.order

    @lru_cache(maxsize=None)
    def sums(row, d):
        if row is None:
            return [[(0, 1)]] + [[]] * d
        out = []
        for e in range(d + 1):
            by_phase = defaultdict(int)
            for s, c in row:
                unit, k = _signed_roots(order)[c.num, c.den]
                by_phase[k * e % order] += s * unit ** e
            out.append([(p, a) for p, a in by_phase.items() if a])
        return out

    return [(sign, [sums(row, len(rows)) for row in rows])
            for sign, rows in numbering.families]


@lru_cache(maxsize=None)
def _class_factor(numbering, comp: tuple[int, ...]) -> Cyc:
    """F(e) of the rule above, for the composition ``comp``: each family's
    product of its rows' sums, term by term (no more terms than the family
    has), counted by phase in Z[C_n] and projected to Q(w) once."""
    order = numbering.order
    total = [0] * order
    for sign, rows in _row_sums(numbering):
        phases = [(0, sign)]
        for sums, e in zip(rows, comp):
            phases = [((p + q) % order, a * b)
                      for p, a in phases for q, b in sums[e]]
            if not phases:
                break
        for p, a in phases:
            total[p] += a
    mult = multinomial(len(comp), comp) if any(total) else 0
    return from_root_coefficients(order, [mult * a for a in total])


def _target_coefficient(dec: PowerDecomposition, mono: Monomial,
                        comp: tuple[int, ...]) -> Cyc:
    if any(e != 1 for e in comp):
        return Cyc.zero(dec.order)
    if dec.target == TARGET_DETERMINANT:
        sign = perm_sign(tuple(j for _, j, _ in mono))
        return Cyc.from_int(dec.order, dec.scale * sign)
    # diagonal-product target
    if all(i == j for i, j, _ in mono):
        return Cyc.from_int(dec.order, dec.scale)
    return Cyc.zero(dec.order)


def verify_product_identity(pd: ProductDecomposition) -> bool:
    """Expand the signed products of linear forms and compare with the
    determinant, over the integers."""
    total = SparsePoly.zero(1)
    for piece in pd.expanded_terms():
        total = total + piece
    return total == determinant_poly(pd.d)
