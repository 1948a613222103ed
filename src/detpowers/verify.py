"""Exact verification of the power-sum identities.

Two independent engines are provided:

* expansion mode builds one coefficient table for the whole sum: every
  term adds integers to a vector per monomial, an element of the group
  ring Z[C_n] indexed by the phase, and each vector is projected to Q(w)
  once at the end. A term whose scalars are all units +-w^k adds
  +-multinomial at a phase; any other term has its scalars lifted to the
  ring and packed into one integer each, the ring element evaluated at
  2^B, so one integer product mod 2^(nB) - 1 is one product in the ring.
  The width B comes from a proved bound on every digit, and denominators
  are cleared by one common denominator of the sum; nothing falls back
  to Cyc products;
* streaming mode never expands a term: the scheme's combinatorial formula
  gives its total at a monomial as a factor of the exponents' composition
  times the signed extension sum of the pattern, so one comparison decides
  a whole composition class. Only the monomials of a failing class, and
  those a given term that differs from the scheme's own term reaches
  (corrected by that difference), are evaluated one by one.

The engines share no code path, so they act as each other's oracle; both
read the terms they are given, compare against the scaled target
polynomial with exact arithmetic, and name the first mismatching monomial
in sorted order as the witness.

The module also houses the closed-form coefficient rule for the single-row
phase polynomial P = sum_j (-1)^((d+1)j) (sum_i w^(ij) x_i)^d.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from functools import lru_cache
from operator import itemgetter, mul

from .cyclotomic import Cyc, from_root_coefficients, omega
from .decompositions import (
    TARGET_DETERMINANT,
    TARGET_DIAGONAL,
    PowerDecomposition,
    ProductDecomposition,
    classical_decomposition,
    gurvits_decomposition,
    main_decomposition,
    monomial_power_decomposition,
)
from .multipoly import (
    LinForm,
    Monomial,
    SparsePoly,
    determinant_poly,
    expand_power,
    monomial,
    multinomial,
    perm_sign,
    weak_compositions,
)


@dataclasses.dataclass(frozen=True)
class MultiIndex:
    """A degree-d monomial in variables x_1..x_d, stored as the sorted
    tuple of its d index entries (with repetition)."""
    entries: tuple[int, ...]

    def __post_init__(self):
        d = len(self.entries)
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("entries must be sorted ascending")
        if not all(1 <= v <= d for v in self.entries):
            raise ValueError(f"entries must lie in [1, {d}]")

    @classmethod
    def of(cls, values) -> "MultiIndex":
        return cls(tuple(sorted(values)))

    @property
    def d(self) -> int:
        return len(self.entries)

    def multiplicities(self) -> tuple[int, ...]:
        """How many times each of 1..d occurs."""
        counts = [0] * self.d
        for v in self.entries:
            counts[v - 1] += 1
        return tuple(counts)

    def support(self) -> frozenset[int]:
        return frozenset(self.entries)


def closed_form_coefficient(index: MultiIndex, d: int) -> Cyc:
    """Coefficient of the monomial named by ``index`` in the phase
    polynomial P, by the closed-form rule: (d choose multiplicities) * d
    when the entry sum is congruent to binom(d+1, 2) mod d, else 0."""
    if index.d != d:
        raise ValueError(f"index has {index.d} entries, expected {d}")
    if sum(index.entries) % d != math.comb(d + 1, 2) % d:
        return Cyc.zero(d)
    value = multinomial(d, index.multiplicities()) * d
    return Cyc.from_int(d, value)


def phase_polynomial(d: int) -> SparsePoly:
    """P = sum_j (-1)^((d+1)j) (sum_i w^(ij) x_i)^d, with x_i stored as
    the grid variable (i, 1)."""
    total = SparsePoly.zero(d)
    for j in range(1, d + 1):
        form = LinForm(d, d, {(i, 1): omega(d, i * j)
                              for i in range(1, d + 1)})
        total = total + expand_power(form, d) * ((-1) ** ((d + 1) * j))
    return total


def check_closed_form_coefficients(d: int) -> bool:
    """Exhaustively compare the closed-form rule against the coefficient of
    every degree-d monomial in the expanded phase polynomial."""
    if not 2 <= d <= 6:
        raise ValueError(f"d must be in [2, 6], got {d}")
    poly = phase_polynomial(d)
    seen = 0
    for comp in weak_compositions(d, d):
        index = MultiIndex.of(
            v for v, e in enumerate(comp, start=1) for _ in range(e))
        mono = monomial({(i, 1): e for i, e in enumerate(comp, start=1)})
        if poly.coefficient(mono) != closed_form_coefficient(index, d):
            return False
        seen += 1
    # every monomial of P has degree d, so the sweep above was exhaustive
    return seen == math.comb(2 * d - 1, d - 1) and len(poly) <= seen


# ---------------------------------------------------------------------------
# decomposition verification


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    scheme: str
    d: int
    mode: str
    equal: bool
    term_count: int
    distinct_monomials: int
    elapsed: float
    witness: tuple[Monomial, Cyc, Cyc] | None = None
    mismatch_count: int = 0
    mismatches: tuple[tuple[Monomial, Cyc, Cyc], ...] | None = None


# --- expansion engine -------------------------------------------------------
#
# Every term adds coeff * multinomial(e) * prod_k entry_k^e_k to the monomial
# of each weak composition e of the exponent over the form's support. Each
# monomial accumulates these as an integer vector indexed by the phase mod
# the root order, an element of the group ring Z[C_order], and is projected
# to Q(w) once at the end; no Cyc product is taken.
#
# * A term whose coefficient and nonzero entries are all units +-w^k adds
#   +-multinomial(e) at the phase of its composition, the exponent-weighted
#   sum of the entries' root powers.
# * Any other scalar is lifted to the ring: its numerator over 1, w, ...,
#   w^(phi-1), padded with zeros to length order, is an element of
#   Z[C_order] that projects back to itself, and the projection is a ring
#   map, so products of lifts (cyclic convolutions) project to the products
#   in Q(w). A lift is packed into one int, the vector evaluated at
#   x = 2^B (Kronecker substitution), and kept mod M = 2^(order*B) - 1,
#   which is x^order - 1 at x = 2^B: one int product mod M is one cyclic
#   convolution. The products over a term's compositions walk a tree of
#   nonzero prefixes, one product per node, shared by the compositions
#   below it, and each composition adds multinomial * prefix * power into
#   one packed int per monomial.
# * The width B is the bit length of a bound on every digit, plus 2 (see
#   ``_packed_width``), taken over the remaining non-unit terms when the
#   first of them is met; a sum of unit terms packs nothing. Each
#   monomial's packed sum is decoded once, at the end: centered mod M,
#   then split into order signed base-2^B digits, which are added into
#   its vector.
# * Denominators are cleared by one common denominator L of the whole sum,
#   so every term adds integers; the projection divides by L once.


def _unit(c: Cyc) -> tuple[int, int] | None:
    """(sign, k) with c == sign * w^k, or None. The sign is found apart
    from the root table because -1 is not a power of w at order 1."""
    k = c.root_power()
    if k is not None:
        return 1, k
    k = (-c).root_power()
    return None if k is None else (-1, k)


def _unit_phases(coeff: Cyc, support):
    """(sign, k) of the coefficient, and the root powers and negation flags
    (0/1) of the entries, when every scalar of the term is a unit; else
    None."""
    head = _unit(coeff)
    if head is None:
        return None
    powers, negated = [], []
    for _, c in support:
        unit = _unit(c)
        if unit is None:
            return None
        powers.append(unit[1])
        negated.append(int(unit[0] < 0))
    return head, powers, negated


def _composition_table(exponent: int, size: int, scale: int):
    """The weak compositions of ``exponent`` >= 1 over ``size`` parts, their
    multinomials (plain, and signed times ``scale`` for unit terms), and a
    tree of their nonzero prefixes, for products over the parts and for
    the monomials' keys. Node n >= 1 of the tree is ``nodes[n - 1]`` =
    (parent, k, e), its parent's prefix extended by part k = e; node 0 is
    the empty prefix. ``steps[c]`` = (parent, k, e) is the step from an
    inner node that completes composition c."""
    nodes, steps, comps, mults = [], [], [], []
    fact = [math.factorial(e) for e in range(exponent + 1)]
    comp = [0] * size

    def grow(parent, start, rem, den):
        for k in range(start, size):
            # the last part takes all that remains
            for e in range(rem, rem - 1 if k == size - 1 else 0, -1):
                comp[k] = e
                if e == rem:
                    steps.append((parent, k, e))
                    comps.append(comp.copy())
                    mults.append(fact[exponent] // (den * fact[e]))
                else:
                    nodes.append((parent, k, e))
                    grow(len(nodes), k + 1, rem - e, den * fact[e])
            comp[k] = 0

    grow(0, 0, exponent, 1)
    signed = {1: [scale * m for m in mults], -1: [-scale * m for m in mults]}
    return comps, mults, signed, nodes, steps


def _common_denominator(terms) -> int:
    """lcm over the terms of coeff.den * D^exponent, D the lcm of the
    form's scalar denominators: L times a term is an integer times the
    coefficient's numerator times the power of the form scaled by D, all
    integral. 1 when every scalar is integral, as for every builder."""
    common = 1
    for term in terms:
        den = math.lcm(*(c.den for _, c in term.form.support()))
        common = math.lcm(common, term.coeff.den * den ** term.exponent)
    return common


def _packed_width(terms, scale: int) -> int:
    """Bits per digit of the packed group ring of the non-unit ``terms``.
    Lifted with the common-denominator factors, a term adds at most
    |coeff|_1 * (sum over its entries of |entry|_1)^exponent to the L1
    norm of all its monomials' vectors together (the multinomial theorem,
    with |a * b|_1 <= |a|_1 * |b|_1), so the sum over the terms bounds
    every digit; two more bits hold the sign and a margin."""
    bound = 0
    for term in terms:
        support = term.form.support()
        if _unit_phases(term.coeff, support) is not None:
            continue
        den = math.lcm(*(c.den for _, c in support))
        base = sum(den // c.den * sum(map(abs, c.num)) for _, c in support)
        factor = scale // (term.coeff.den * den ** term.exponent)
        bound += factor * sum(map(abs, term.coeff.num)) * base ** term.exponent
    return bound.bit_length() + 2


def _expand_chunk(order: int, scale: int, terms) -> dict:
    """``scale`` times the sum of the terms, as a table monomial ->
    Z[C_order] vector; ``scale`` must clear every denominator (see
    ``_common_denominator``). Keys whose coefficients cancel to zero are
    kept, so the key set is the union of the terms' supports. From the
    first non-unit term on, each vector carries one more slot, the packed
    sum of the non-unit terms, decoded into the vector at the end."""
    ring: dict = {}
    tables: dict[tuple[int, int], tuple] = {}
    last_vars = vecs = width = None
    blank = [0] * order
    for t, term in enumerate(terms):
        support = term.form.support()
        variables = [var for var, _ in support]
        key = (term.exponent, len(variables))
        if key not in tables:
            tables[key] = _composition_table(*key, scale)
        comps, mults, signed, nodes, steps = tables[key]
        if variables != last_vars:
            # builders emit the terms of one support consecutively
            last_vars, vecs = variables, []
            cells = [[(i, j, e) for e in range(term.exponent + 1)]
                     for i, j in variables]
            prefixes = [()]
            for parent, k, e in nodes:
                prefixes.append(prefixes[parent] + (cells[k][e],))
            for parent, k, e in steps:
                mono = prefixes[parent] + (cells[k][e],)
                vec = ring.get(mono)
                if vec is None:
                    vec = ring[mono] = blank.copy()
                vecs.append(vec)
        unit = _unit_phases(term.coeff, support)
        if unit is None:
            if width is None:
                # the terms before this one are all units
                width = _packed_width(terms[t:], scale)
                blank.append(0)
                for vec in ring.values():
                    vec.append(0)
            _add_general_term(term, support, order, scale, width, vecs,
                              mults, nodes, steps)
            continue
        (sign, k0), powers, negated = unit
        odd = negated if any(negated) else None
        phased = powers if any(powers) else None
        for vec, comp, m in zip(vecs, comps, signed[sign]):
            if odd and sum(map(mul, comp, odd)) & 1:
                m = -m
            if phased:
                vec[(k0 + sum(map(mul, comp, phased))) % order] += m
            else:
                vec[k0] += m
    if width is not None:
        _unpack(ring, order, width)
    return ring


def _pack(c: Cyc, factor: int, width: int) -> int:
    """factor * the numerator of c, an element of Z[C_order], evaluated at
    x = 2^width."""
    return sum(factor * x << i * width for i, x in enumerate(c.num))


def _add_general_term(term, support, order: int, scale: int, width: int,
                      vecs, mults, nodes, steps) -> None:
    """Add scale * coeff * multinomial(e) * prod_k entry_k^e_k, packed,
    into the last slot of the vector of each composition e. Products are
    taken mod 2^(order * width) - 1, which is x^order - 1 at x = 2^width,
    so they are products in Z[C_order]."""
    modulus = (1 << order * width) - 1
    exponent = term.exponent
    den = math.lcm(*(c.den for _, c in support))
    powers = []
    for _, c in support:
        power = _pack(c, den // c.den, width) % modulus
        row = [None, power]
        for _ in range(exponent - 1):
            row.append(row[-1] * power % modulus)
        powers.append(row)
    coeff = term.coeff
    products = [_pack(coeff, scale // (coeff.den * den ** exponent), width)
                % modulus]
    for parent, k, e in nodes:
        products.append(products[parent] * powers[k][e] % modulus)
    for vec, m, (parent, k, e) in zip(vecs, mults, steps):
        vec[-1] += m * products[parent] * powers[k][e]


def _unpack(ring: dict, order: int, width: int) -> None:
    """Add the last slot of each vector, a packed element of Z[C_order],
    into the vector's digits, and drop it. Every digit is below
    2^(width - 2) in size (see ``_packed_width``), so the value centered
    mod 2^(order * width) - 1 is the element evaluated at 2^width; adding
    half a base to every digit makes them all nonnegative, so each is read
    off without a borrow."""
    base = 1 << width
    modulus = (1 << order * width) - 1
    half = base >> 1
    # modulus // (base - 1) = sum of base^i, i < order
    offset = half * (modulus // (base - 1))
    for vec in ring.values():
        packed = vec.pop() % modulus
        if not packed:
            continue
        if packed > modulus >> 1:
            packed -= modulus
        packed += offset
        for i in range(order):
            vec[i] += (packed >> i * width & base - 1) - half


def _expand_sum(dec: PowerDecomposition) -> dict:
    order = dec.order
    scale = _common_denominator(dec.terms)
    ring = _expand_chunk(order, scale, dec.terms)
    return {mono: from_root_coefficients(order, vec, scale)
            for mono, vec in ring.items()}


def _compare_with_target(dec: PowerDecomposition, computed: dict,
                         collect_all: bool):
    """Returns (mismatch list, distinct monomial count). ``computed`` maps
    monomials to total coefficients and may carry exact zeros."""
    target = dec.target_poly() * dec.scale
    zero = Cyc.zero(dec.order)
    mismatches = [(mono, got, zero) for mono, got in computed.items()
                  if got and mono not in target.terms]
    for mono, want in target.terms.items():
        got = computed.get(mono, zero)
        if got != want:
            mismatches.append((mono, got, want))
    # the witness is the first mismatch in sorted monomial order
    mismatches.sort(key=itemgetter(0))
    if not collect_all:
        del mismatches[1:]
    return mismatches, len(computed)


def verify_power_decomposition(dec: PowerDecomposition, mode: str = "expansion",
                               jobs: int = 1,
                               collect_all: bool = False) -> VerificationReport:
    """Check scale * target == sum of the terms, exactly.

    ``mode`` picks the engine: "expansion" works for any decomposition;
    "streaming" works for the four structured schemes, and raises
    ValueError when a given term that differs from the scheme's own
    reaches a monomial outside the scheme's walk.
    Both engines run in the calling process; ``jobs`` is accepted for
    compatibility and ignored.
    """
    start = time.perf_counter()
    if mode == "expansion":
        computed = _expand_sum(dec)
        mismatches, distinct = _compare_with_target(dec, computed, collect_all)
    elif mode == "streaming":
        mismatches, distinct = _stream_check(dec, collect_all)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    return VerificationReport(
        scheme=dec.scheme, d=dec.d, mode=mode, equal=not mismatches,
        term_count=len(dec.terms), distinct_monomials=distinct,
        elapsed=elapsed,
        witness=mismatches[0] if mismatches else None,
        mismatch_count=len(mismatches),
        mismatches=tuple(mismatches) if collect_all else None)


# --- streaming engine -------------------------------------------------------
#
# At a monomial with exponents e on the entries (i, sigma i) of k rows, the
# scheme's own terms sum to F(e) * ext: the class factor F depends on the
# composition e alone (phase-group sum, sign-vector sum or 1 - zero rows,
# times the multinomial), ext is the signed extension sum of the pattern.
# The determinant target is scale * sgn(columns) when e is all ones and 0
# otherwise, so one test decides a whole composition class, exactly:
#
# * k <= d-2: ext = 0 and the target is 0, so the class matches;
# * k = d-1: the target is 0 and ext = +-1, so it matches iff F == 0;
# * k = d: ext = sgn(columns) = target / scale, so it matches iff F == scale.
#
# Evaluated one by one, in sorted order, are only the monomials that can
# mismatch: those of a failing class or one whose target is not uniform
# (all ones under the diagonal-product target), those of the monomial
# scheme (F on the diagonal, 0 off it), and those reached by a given term
# that differs from the scheme's term in its position, which adds its
# difference, term minus scheme term.


@lru_cache(maxsize=None)
def _phase_group_sum(d: int, s: int) -> Cyc:
    """sum over j = 1..d of (-1)^((d+1)j) w^(js)."""
    total = Cyc.zero(d)
    for j in range(1, d + 1):
        total = total + omega(d, j * s) * ((-1) ** ((d + 1) * j))
    return total


def _sign_vector_sum(powers: tuple[int, ...]) -> int:
    """sum over sign vectors eps (eps_1 = +1) of prod_i eps_i^powers[i].
    The sum factors as prod over i >= 2 of (1 + (-1)^powers[i]): 2^(d-1)
    when powers[1:] are all even, else 0."""
    return 0 if any(p & 1 for p in powers[1:]) else 1 << (len(powers) - 1)


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


# the builders whose terms the streaming formulas describe, bound by name
# so that a replaced entry of the mutable SCHEME_BUILDERS registry cannot
# become the reference a given decomposition is compared with
_STREAM_REFERENCE = {
    "main": main_decomposition,
    "classical": classical_decomposition,
    "gurvits": gurvits_decomposition,
    "monomial": monomial_power_decomposition,
}


def _term_corrections(dec: PowerDecomposition, diagonal: bool) -> dict:
    """The terms of ``dec`` that differ from the term its scheme's builder
    puts in the same position, each paired with that builder term: the
    given term with sign +1, the builder term with sign -1. Both are
    indexed by every nonempty subset of their support, so a monomial finds
    the terms whose power reaches it by its own support. Raises ValueError
    when the root orders differ, or for a differing term whose support is
    not a partial permutation pattern the walk covers (only the diagonal
    when ``diagonal``)."""
    d = dec.d
    family = _STREAM_REFERENCE[dec.scheme](d)
    if dec.order != family.order:
        raise ValueError(f"streaming {dec.scheme} needs root order "
                         f"{family.order}, got {dec.order}")
    out: dict[tuple[tuple[int, int], ...], list] = {}
    for mine, theirs in zip(dec.terms, family.terms, strict=True):
        if mine.coeff == theirs.coeff and mine.form == theirs.form:
            continue
        for sign, term in ((1, mine), (-1, theirs)):
            support = term.form.support()
            variables = [var for var, _ in support]
            rows = {i for i, _ in variables}
            cols = {j for _, j in variables}
            if (len(rows) < len(variables) or len(cols) < len(variables)
                    or (diagonal and any(i != j for i, j in variables))):
                raise ValueError(
                    f"term {term.index!r} differs from the scheme's term and "
                    f"its support {variables} is not a pattern the streaming "
                    f"walk covers")
            powers = {var: [c ** e for e in range(d + 1)]
                      for var, c in support}
            for size in range(1, len(variables) + 1):
                for sub in itertools.combinations(variables, size):
                    out.setdefault(sub, []).append((sign, term.coeff, powers))
    return out


def _correction(entries, mono: Monomial, mult: int, order: int) -> Cyc:
    """sum of sign * coeff * mult * prod entry^e over the indexed terms."""
    total = Cyc.zero(order)
    for sign, coeff, powers in entries:
        value = coeff * (sign * mult)
        for i, j, e in mono:
            value = value * powers[(i, j)][e]
        total = total + value
    return total


def _walk_count(diagonal: bool, rows: int, budget: int, cols: int) -> int:
    """How many walk monomials put exponent sum ``budget`` on ``rows`` free
    rows with ``cols`` free columns: k of the rows, a composition of the
    budget into k positive parts, and an injective choice of k columns (on
    the diagonal, none)."""
    if budget == 0:
        return 1
    return sum(math.comb(rows, k) * math.comb(budget - 1, k - 1)
               * (1 if diagonal else math.perm(cols, k))
               for k in range(1, min(rows, budget) + 1))


def _walk_rank(d: int, diagonal: bool, mono: Monomial) -> int:
    """How many walk monomials sort before ``mono``: for each position t,
    those that share its first t entries and have a smaller entry at t (no
    walk monomial is a prefix of another, all having degree d)."""
    below, used, budget = 0, set(), d
    for t, entry in enumerate(mono):
        for i in range(mono[t - 1][0] + 1 if t else 1, d + 1):
            for j in [i] if diagonal else set(range(1, d + 1)) - used:
                for e in range(1, budget + 1):
                    if (i, j, e) < entry:
                        below += _walk_count(diagonal, d - i, budget - e,
                                             d - t - 1)
        used.add(entry[1])
        budget -= entry[2]
    return below


def _stream_check(dec: PowerDecomposition, collect_all: bool):
    """Decide each composition class by the rule above, then compare the
    total coefficient of every monomial that can mismatch with the target,
    in sorted order. The count is of the whole walk, or, on a stop at the
    first mismatch, of the walk's monomials up to it."""
    d, scheme = dec.d, dec.scheme
    if scheme not in _STREAM_REFERENCE:
        raise ValueError(f"streaming mode not available for scheme {scheme!r}")
    if dec.target not in (TARGET_DETERMINANT, TARGET_DIAGONAL):
        raise ValueError(f"unknown target {dec.target!r}")
    # the monomial scheme lives on the diagonal; a determinant target also
    # needs the off-diagonal permutation patterns walked
    diagonal = scheme == "monomial" and dec.target == TARGET_DIAGONAL
    corrections = _term_corrections(dec, diagonal)
    visit = set()
    for comp in weak_compositions(d, d):
        rows = tuple(i for i, e in enumerate(comp, start=1) if e)
        k = len(rows)
        # a class decided by the rule above is never walked
        uniform = scheme != "monomial" and (
            k < d or dec.target == TARGET_DETERMINANT)
        if uniform and (k < d - 1 or _class_factor(scheme, d, comp)
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
        got = _streaming_coefficient(scheme, d, mono, comp)
        entries = corrections.get(tuple((i, j) for i, j, _ in mono))
        if entries:
            got = got + _correction(entries, mono, multinomial(d, comp),
                                    dec.order)
        want = _target_coefficient(dec, mono, comp)
        if got != want:
            mismatches.append((mono, got, want))
            if not collect_all:
                return mismatches, 1 + _walk_rank(d, diagonal, mono)
    return mismatches, _walk_count(diagonal, d, d, d)


def _class_factor(scheme: str, d: int, comp: tuple[int, ...]) -> Cyc:
    """F(e): the scheme's total at a monomial of composition ``comp`` over
    its signed extension sum (over its diagonal indicator for the monomial
    scheme, whose factor is classical's)."""
    mult = multinomial(d, comp)
    if scheme == "main":
        s = sum(i * e for i, e in enumerate(comp, start=1)) % d
        return _phase_group_sum(d, s) * mult
    if scheme == "gurvits":
        return Cyc.from_int(1, mult * (1 - comp.count(0)))
    return Cyc.from_int(1, mult * _sign_vector_sum(tuple(e + 1 for e in comp)))


def _streaming_coefficient(scheme: str, d: int, mono: Monomial,
                           comp: tuple[int, ...]) -> Cyc:
    """The scheme's own total at ``mono``: the class factor times the
    signed extension sum of its pattern, or, for the monomial scheme, times
    1 on the diagonal and 0 off it."""
    if scheme == "monomial":
        ext = int(all(i == j for i, j, _ in mono))
    else:
        ext = _signed_extension_sum(d, {i: j for i, j, _ in mono})
    return _class_factor(scheme, d, comp) * ext


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
