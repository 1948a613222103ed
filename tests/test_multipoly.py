import itertools
import math
import random
from fractions import Fraction

import pytest

from detpowers.cyclotomic import Cyc, omega
from detpowers.multipoly import (
    MONO_ONE,
    LinForm,
    PhaseEvaluator,
    SparsePoly,
    determinant_poly,
    diagonal_product_poly,
    expand_power,
    mono_degree,
    mono_mul,
    monomial,
    multinomial,
    permanent_poly,
    weak_compositions,
)


def slow_power(poly: SparsePoly, e: int) -> SparsePoly:
    """Oracle: plain repeated multiplication."""
    out = SparsePoly.constant(poly.order, 1)
    for _ in range(e):
        out = out * poly
    return out


def test_monomial_canonicalization():
    m = monomial({(2, 1): 1, (1, 2): 3})
    assert m == ((1, 2, 3), (2, 1, 1))
    assert monomial([((1, 1), 2), ((1, 1), 1)]) == ((1, 1, 3),)
    assert monomial({(1, 1): 0}) == MONO_ONE
    with pytest.raises(ValueError):
        monomial({(1, 1): -1})


def test_mono_mul_and_degree():
    a = monomial({(1, 1): 1, (2, 2): 2})
    b = monomial({(2, 2): 1, (3, 1): 4})
    assert mono_mul(a, b) == ((1, 1, 1), (2, 2, 3), (3, 1, 4))
    assert mono_mul(a, MONO_ONE) == a
    assert mono_degree(mono_mul(a, b)) == 8


def test_multinomial():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5, 0, 0)) == 1
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))  # does not sum to total
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


def test_weak_compositions_count_and_sum():
    for total, length in ((3, 2), (4, 3), (6, 6), (0, 3)):
        comps = list(weak_compositions(total, length))
        assert len(comps) == math.comb(total + length - 1, length - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == total for c in comps)


def test_expand_power_simple_square():
    # [xy] (x + y)^2 == 2
    form = LinForm(1, 2, {(1, 1): 1, (2, 2): 1})
    sq = expand_power(form, 2)
    xy = monomial({(1, 1): 1, (2, 2): 1})
    assert sq.coefficient(xy) == Cyc.from_int(1, 2)
    assert sq.coefficient(monomial({(1, 1): 2})) == Cyc.from_int(1, 1)
    assert len(sq) == 3


def test_expand_power_monomial_count():
    # s support variables, exponent e: C(e+s-1, s-1) monomials
    rng = random.Random(1)
    for s in (1, 2, 3, 4):
        for e in (1, 2, 3, 5):
            coeffs = {}
            placed = set()
            while len(placed) < s:
                var = (rng.randint(1, 4), rng.randint(1, 4))
                if var not in placed:
                    placed.add(var)
                    coeffs[var] = rng.randint(1, 5)
            form = LinForm(1, 4, coeffs)
            expanded = expand_power(form, e)
            assert len(expanded) == math.comb(e + s - 1, s - 1)


def test_expand_power_matches_repeated_multiplication():
    rng = random.Random(7)
    for order in (1, 3, 4):
        for _ in range(12):
            s = rng.randint(1, 4)
            e = rng.randint(1, 5)
            coeffs = {}
            while len(coeffs) < s:
                var = (rng.randint(1, 3), rng.randint(1, 3))
                c = Cyc(order, tuple(rng.randint(-3, 3)
                                     for _ in range(len(omega(order).num))),
                        rng.randint(1, 3))
                coeffs[var] = c
            form = LinForm(order, 3, coeffs)
            assert expand_power(form, e) == slow_power(form.as_poly(), e)


def test_expand_power_rejects_bad_exponent():
    form = LinForm(1, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        expand_power(form, 0)


def test_expand_power_of_zero_form_is_zero():
    form = LinForm(1, 2, {})
    assert expand_power(form, 3).is_zero


def test_sparsepoly_ring_axioms_random():
    rng = random.Random(3)

    def rand_poly(order):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            m = monomial({(rng.randint(1, 2), rng.randint(1, 2)): rng.randint(1, 3)})
            terms[m] = Cyc.from_int(order, rng.randint(-4, 4))
        return SparsePoly(order, terms)

    for order in (1, 4):
        for _ in range(25):
            a, b, c = rand_poly(order), rand_poly(order), rand_poly(order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == SparsePoly.zero(order)


def test_sparsepoly_insertion_order_irrelevant():
    m1 = monomial({(1, 1): 1})
    m2 = monomial({(2, 2): 1})
    a = SparsePoly(1, {m1: Cyc.from_int(1, 1), m2: Cyc.from_int(1, 2)})
    b = SparsePoly(1, {m2: Cyc.from_int(1, 2), m1: Cyc.from_int(1, 1)})
    assert a == b
    assert a.monomials() == b.monomials()


def test_sparsepoly_drops_zeros():
    m = monomial({(1, 1): 1})
    p = SparsePoly(1, {m: Cyc.zero(1)})
    assert p.is_zero
    q = SparsePoly(1, {m: Cyc.from_int(1, 5)}) + SparsePoly(1, {m: Cyc.from_int(1, -5)})
    assert q.is_zero and len(q) == 0


def test_evaluate_sparse_point():
    # 2*x[1,1]*x[2,2] - x[1,2] at x[1,1]=3, x[2,2]=1/2, x[1,2] missing (=0)
    p = SparsePoly(1, {
        monomial({(1, 1): 1, (2, 2): 1}): Cyc.from_int(1, 2),
        monomial({(1, 2): 1}): Cyc.from_int(1, -1),
    })
    coords = {(1, 1): Cyc.from_int(1, 3),
              (2, 2): Cyc.from_fraction(1, Fraction(1, 2))}
    assert p.evaluate(coords) == Cyc.from_int(1, 3)


class TestPhaseEvaluator:
    """The phase evaluator against ``SparsePoly.evaluate`` at root-of-unity
    points with missing coordinates."""

    @staticmethod
    def random_coefficient(rng, order):
        kind = rng.randrange(4)
        if kind == 0:
            return Cyc.from_int(order, rng.choice([-3, -1, 1, 2, 5]))
        if kind == 1:
            return rng.choice([1, -1]) * omega(order, rng.randrange(order))
        phi = len(Cyc.zero(order).num)
        num = tuple(rng.randint(-4, 4) for _ in range(phi))
        den = 1 if kind == 2 else rng.choice([2, 3, 6, 7])
        return Cyc(order, num, den)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_matches_sparse_evaluate(self, order):
        rng = random.Random(100 + order)
        variables = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 7)):
                chosen = rng.sample(variables, rng.randint(0, 3))
                mono = monomial({v: rng.randint(1, 3) for v in chosen})
                terms[mono] = self.random_coefficient(rng, order)
            poly = SparsePoly(order, terms)
            at = PhaseEvaluator(poly)
            for _ in range(6):
                present = rng.sample(variables, rng.randint(0, 9))
                phases = {v: rng.randrange(2 * order) for v in present}
                coords = {v: omega(order, k) for v, k in phases.items()}
                assert at(phases) == poly.evaluate(coords)

    def test_cancellation_projects_to_zero(self):
        # 1 + w + w^2 is a nonzero vector in Z[C_3] that projects to 0
        x = monomial({(1, 1): 1})
        poly = SparsePoly(3, {(): Cyc.one(3), x: Cyc.one(3),
                              monomial({(2, 2): 1}): Cyc.one(3)})
        at = PhaseEvaluator(poly)
        assert at({(1, 1): 1, (2, 2): 2}).is_zero
        assert at({(1, 1): 1, (2, 2): 1}) == 1 + 2 * omega(3, 1)
        assert at({}) == Cyc.one(3)

    def test_zero_polynomial(self):
        assert PhaseEvaluator(SparsePoly.zero(4))({(1, 1): 3}).is_zero


def test_determinant_poly_small():
    d2 = determinant_poly(2)
    assert d2.coefficient(monomial({(1, 1): 1, (2, 2): 1})) == Cyc.from_int(1, 1)
    assert d2.coefficient(monomial({(1, 2): 1, (2, 1): 1})) == Cyc.from_int(1, -1)
    assert len(d2) == 2
    for d in (1, 2, 3, 4, 5):
        p = determinant_poly(d)
        assert len(p) == math.factorial(d)
        assert all(c.rational() in (Fraction(1), Fraction(-1))
                   for c in p.terms.values())


def test_determinant_row_swap_antisymmetry():
    # swapping two rows of the variable grid negates the determinant
    d = 4
    p = determinant_poly(d)
    swapped_terms = {}
    for m, c in p.terms.items():
        swapped = monomial({(2 if i == 1 else 1 if i == 2 else i, j): e
                            for i, j, e in m})
        swapped_terms[swapped] = c
    assert SparsePoly(1, swapped_terms) == -p


def test_permanent_poly():
    p = permanent_poly((1, 2), (1, 2))
    assert p.coefficient(monomial({(1, 1): 1, (2, 2): 1})) == Cyc.from_int(1, 1)
    assert p.coefficient(monomial({(1, 2): 1, (2, 1): 1})) == Cyc.from_int(1, 1)
    # all coefficients +1, count = size!
    q = permanent_poly((1, 2, 4), (2, 3, 4))
    assert len(q) == 6
    assert all(c == Cyc.from_int(1, 1) for c in q.terms.values())
    with pytest.raises(ValueError):
        permanent_poly((1, 2), (1, 2, 3))


def test_diagonal_product_poly():
    p = diagonal_product_poly(3)
    assert len(p) == 1
    assert p.coefficient(monomial({(1, 1): 1, (2, 2): 1, (3, 3): 1})) == Cyc.from_int(1, 1)


def test_linform_support_order_and_bounds():
    w = omega(4)
    form = LinForm(4, 2, {(2, 1): w, (1, 2): w * w})
    assert form.support() == (((1, 2), w * w), ((2, 1), w))
    assert (1, 1) not in dict(form.support())
    with pytest.raises(ValueError):
        LinForm(4, 2, {(3, 1): 1})


def test_linform_map_and_pairs_agree():
    w = omega(4)
    from_map = LinForm(4, 3, {(2, 1): w, (1, 3): Fraction(1, 2), (3, 3): -1})
    from_pairs = LinForm(4, 3, [((3, 3), -1), ((2, 1), w),
                                ((1, 3), Fraction(1, 2))])
    assert from_map == from_pairs
    assert hash(from_map) == hash(from_pairs)
    assert [var for var, _ in from_pairs.support()] == [(1, 3), (2, 1), (3, 3)]


def test_linform_drops_explicit_zeros():
    form = LinForm(3, 2, {(1, 1): 0, (1, 2): Cyc.zero(3), (2, 2): 5})
    assert form.support() == (((2, 2), Cyc.from_int(3, 5)),)
    assert LinForm(3, 2, [((1, 1), 0)]).support() == ()


def test_linform_keeps_a_canonical_pair_as_given():
    pair = ((1, 2), omega(3))
    assert LinForm(3, 2, [pair]).support()[0] is pair


@pytest.mark.parametrize("coeffs", [
    [((1, 1), 1), ((1, 1), 2)],                # a repeated variable
    [((2, 1), 1), ((1, 2), 3), ((2, 1), -1)],  # repeated, out of order
    {(0, 1): 1},                               # row out of range
    {(1, 3): 1},                               # column out of range
    {(1, 1): omega(4)},                        # a scalar of another order
])
def test_linform_rejects(coeffs):
    with pytest.raises(ValueError):
        LinForm(3, 2, coeffs)


def test_expand_power_order_mismatch_guard():
    form = LinForm(4, 2, {(1, 1): 1})
    p = expand_power(form, 2)
    q = determinant_poly(2, order=1)
    with pytest.raises(ValueError):
        _ = p + q
