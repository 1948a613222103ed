import math
import random
from fractions import Fraction
from operator import mul

import pytest

from detpowers import cyclotomic, verify
from detpowers.cli import D_CEILING
from detpowers.cyclotomic import (
    Cyc,
    cyclotomic_polynomial,
    from_root_coefficients,
    omega,
)


def root_power_sum(order, p):
    """Sum of w^(p*j) for j = 1..order, computed by actual summation."""
    total = Cyc.zero(order)
    for j in range(1, order + 1):
        total = total + omega(order, p * j)
    return total


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # prime p: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    # degree is Euler's totient
    expected_phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4,
                    9: 6, 10: 4, 11: 10, 12: 4}
    for d, phi in expected_phi.items():
        assert len(cyclotomic_polynomial(d)) - 1 == phi


def test_product_of_cyclotomics_is_x_to_d_minus_one():
    # independent reconstruction: prod over divisors e of d of Phi_e == x^d - 1
    for d in range(1, 13):
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                phi_e = cyclotomic_polynomial(e)
                out = [0] * (len(prod) + len(phi_e) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_e):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (d - 1) + [1]


def test_omega_primitivity():
    # w^k == 1 exactly when k == 0 (mod d)
    for d in range(1, 13):
        one = Cyc.one(d)
        for k in range(2 * d):
            if k % d == 0:
                assert omega(d, k) == one
            else:
                assert omega(d, k) != one
        assert omega(d, d) == one


def test_omega_powers_multiply():
    for d in (1, 2, 3, 4, 5, 6, 8, 12):
        w = omega(d)
        acc = Cyc.one(d)
        for k in range(2 * d + 1):
            assert acc == omega(d, k)
            acc = acc * w


def test_known_values():
    # w_2 = -1, w_4^2 = -1, w_6 satisfies w^2 = w - 1
    assert omega(2) == Cyc.from_int(2, -1)
    assert omega(4) * omega(4) == Cyc.from_int(4, -1)
    w6 = omega(6)
    assert w6 * w6 == w6 - 1


def test_from_root_coefficients_matches_summed_powers():
    rng = random.Random(4)
    for order in range(1, 13):
        for _ in range(20):
            coeffs = [rng.randint(-9, 9) for _ in range(order)]
            total = Cyc.zero(order)
            for k, c in enumerate(coeffs):
                total = total + omega(order, k) * c
            assert from_root_coefficients(order, coeffs) == total
        # the sum of all roots of unity of order > 1 is zero
        assert from_root_coefficients(order, [1] * order) \
            == Cyc.from_int(order, 1 if order == 1 else 0)


def test_projection_columns_are_built_once_per_order():
    # the transposed table of powers is cached, not rebuilt per projection
    cyclotomic._columns.cache_clear()
    for order in (4, 5, 4, 5, 12):
        from_root_coefficients(order, list(range(1, order + 1)))
        assert cyclotomic._columns(order) == tuple(
            zip(*cyclotomic._powers(order)))
    assert cyclotomic._columns.cache_info().misses == 3


def root_coefficients_vanish(order, coeffs):
    """The oracle for the group ring's kernel: whether sum over k of
    coeffs[k] * w^k is 0 in Q(w), for integer coeffs[0..order-1]. The image
    is the remainder of sum_k coeffs[k] x^k mod Phi_order, exact in the
    integers: the coeffs dotted with the reduced powers x^k mod Phi_order,
    one coordinate at a time."""
    columns = zip(*(omega(order, k).num for k in range(order)))
    return not any(sum(map(mul, coeffs, column)) for column in columns)


def phi_multiple(order, quotient):
    """quotient(x) * Phi_order(x) reduced mod x^order - 1: an element of
    Z[C_order] in the kernel of its projection to Q(w)."""
    out = [0] * order
    for i, a in enumerate(quotient):
        for j, b in enumerate(cyclotomic_polynomial(order)):
            out[(i + j) % order] += a * b
    return out


@pytest.mark.parametrize("order", range(1, 13))
def test_root_coefficients_vanish_matches_projection(order):
    rng = random.Random(900 + order)
    vectors = [[rng.randint(-9, 9) for _ in range(order)] for _ in range(40)]
    kernel = [phi_multiple(order, [rng.randint(-9, 9) for _ in range(order)])
              for _ in range(40)]
    # a kernel vector off by one in one slot is never in the kernel
    nudged = [vec.copy() for vec in kernel]
    for vec in nudged:
        vec[rng.randrange(order)] += rng.choice((-1, 1))
    for vec in vectors + kernel + nudged + [[0] * order, [1] * order]:
        assert root_coefficients_vanish(order, vec) \
            == (from_root_coefficients(order, vec) == 0), vec
    assert all(root_coefficients_vanish(order, vec) for vec in kernel)
    assert not any(root_coefficients_vanish(order, vec) for vec in nudged)
    # multiples of Phi with a nonzero quotient are nonzero in the ring
    # except at order 1, where Phi_1 = x - 1 spans the kernel {0}
    assert order == 1 or any(any(vec) for vec in kernel)


@pytest.mark.parametrize("order", [2, 3, 5, 7, 11])
def test_all_equal_vectors_vanish_at_a_prime_order(order):
    # Phi_p = 1 + x + ... + x^(p-1), so (c, ..., c) is c * Phi_p
    for c in (1, -3, 10 ** 30):
        assert root_coefficients_vanish(order, [c] * order)
        assert not root_coefficients_vanish(order, [c] * (order - 1) + [c + 1])


@pytest.mark.parametrize("order", [1, 4, 6, 8, 9, 12])
def test_all_equal_vectors_at_other_orders(order):
    # 1 + w + ... + w^(n-1) = 0 for every n > 1; at order 1 it is 1
    assert root_coefficients_vanish(order, [2] * order) is (order > 1)
    # w^(n/2) = -1 at even orders, so 1 + w^(n/2) vanishes there
    if order % 2 == 0:
        vec = [0] * order
        vec[0] = vec[order // 2] = 5
        assert root_coefficients_vanish(order, vec)
        vec[0] = 4
        assert not root_coefficients_vanish(order, vec)


def packed(vec, width):
    return sum(x << i * width for i, x in enumerate(vec))


@pytest.mark.parametrize("order", range(1, 13))
def test_packed_remainder_decides_vanishing(order):
    # the expansion's rule: at B = 2^W, W = _packed_width(order, spread),
    # every g with |g|_1 <= spread vanishes in Q(w) iff g(B) mod Phi(B) is
    # 0, read from any int congruent to g(B) mod B^order - 1, and the
    # digits of g are read back from that int
    rng = random.Random(1200 + order)
    phi = cyclotomic_polynomial(order)
    kernel = phi_multiple(order, [1])
    c = 10 ** 6 + rng.randrange(1000)
    spread = max(c * sum(map(abs, kernel)), c)
    vectors = [[rng.randint(-9, 9) for _ in range(order)] for _ in range(40)]
    vectors += [phi_multiple(order, [rng.randint(-9, 9)
                                     for _ in range(order)])
                for _ in range(40)]
    for k in range(order):
        # one digit at the bound, and kernel elements at and just off it
        rotated = kernel[-k:] + kernel[:-k] if k else kernel
        vectors += [[spread if i == k else 0 for i in range(order)],
                    [-spread if i == k else 0 for i in range(order)],
                    [c * x for x in rotated],
                    [(c - 1) * x + (i == k) for i, x in enumerate(rotated)]]
    assert max(sum(map(abs, vec)) for vec in vectors) == spread
    width = verify._packed_width(order, spread)
    divisor = packed(phi, width)
    modulus = (1 << order * width) - 1
    for vec in vectors:
        value = packed(vec, width) + rng.randint(-3, 3) * modulus
        assert (value % divisor == 0) == root_coefficients_vanish(order, vec)
        assert verify._digits(value, order, width) == vec
    assert any(root_coefficients_vanish(order, vec) for vec in vectors)
    assert not all(root_coefficients_vanish(order, vec) for vec in vectors)


@pytest.mark.parametrize("order", [1, 2, 5, 6, 12])
def test_packed_width_grows_with_the_bound(order):
    # G = H = 1 at these orders, so W is one bit over spread + 1: the
    # premise B > 2 (G * spread + H) of the proof, with no bit to spare
    for bits in (4, 17, 40):
        below, at = (1 << bits) - 2, (1 << bits) - 1
        assert verify._packed_width(order, below) == bits + 1
        assert verify._packed_width(order, at) == bits + 2
        for spread in (below, at):
            width = verify._packed_width(order, spread)
            assert 1 << width > 2 * (spread + 1) >= 1 << width - 1


def test_root_power_sum_matches_closed_form():
    # sum_{j=1..d} w^(p j) is d when d | p and 0 otherwise
    for d in range(1, 13):
        for p in range(-3 * d, 3 * d + 1):
            expected = Cyc.from_int(d, d) if p % d == 0 else Cyc.zero(d)
            assert root_power_sum(d, p) == expected


def test_parity_bridge():
    # (-1)^(d+1) equals w^(-binom(d+1,2)) in the order-d field
    for d in range(1, 13):
        sign = Cyc.from_int(d, (-1) ** (d + 1))
        assert omega(d, -math.comb(d + 1, 2)) == sign


def _random_cyc(rng: random.Random, d: int) -> Cyc:
    phi = len(cyclotomic_polynomial(d)) - 1
    num = tuple(rng.randint(-9, 9) for _ in range(phi))
    return Cyc(d, num, rng.randint(1, 9))


def test_field_axioms_on_random_elements():
    rng = random.Random(0)
    for d in range(1, 9):
        one = Cyc.one(d)
        zero = Cyc.zero(d)
        checked = 0
        while checked < 100:
            a = _random_cyc(rng, d)
            b = _random_cyc(rng, d)
            c = _random_cyc(rng, d)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            if not a.is_zero:
                assert a * a.inverse() == one
                assert a / a == one
                checked += 1


@pytest.mark.parametrize("order", range(1, D_CEILING + 1))
def test_inverse_by_the_norm(order):
    rng = random.Random(2900 + order)
    one = Cyc.one(order)
    checked = 0
    while checked < 40:
        a = _random_cyc(rng, order)
        if a:
            inv = a.inverse()
            assert a * inv == one
            assert (-a).inverse() == -inv
            checked += 1
    for k in range(-order, 2 * order):
        assert omega(order, k).inverse() == omega(order, -k)
    for f in (Fraction(3, 7), Fraction(-5, 2), Fraction(1), Fraction(-12)):
        assert Cyc.from_fraction(order, f).inverse() \
            == Cyc.from_fraction(order, 1 / f)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        Cyc.one(4) / Cyc.zero(4)


def test_mixed_order_arithmetic_raises():
    with pytest.raises(ValueError):
        omega(3) + omega(4)
    with pytest.raises(ValueError):
        omega(3) * omega(6)


def test_rational_and_root_power_views():
    half = Cyc.from_fraction(6, Fraction(1, 2))
    assert half.rational() == Fraction(1, 2)
    assert omega(6).rational() is None
    for d in (1, 2, 3, 4, 5, 6):
        for k in range(d):
            assert omega(d, k).root_power() == k
    assert Cyc.from_int(5, 2).root_power() is None
    assert Cyc.from_int(1, 1).root_power() == 0


@pytest.mark.parametrize("order, num, den", [
    (1, (2.0 ** 53,), 1), (4, (1.5, 0), 1), (4, (1, 0), 2.0),
    (4, (Fraction(1, 2), 0), 1), (4, ("1", 0), 1)])
def test_non_int_parts_are_refused(order, num, den):
    # a float lost exactness silently: Cyc(1, (2.0**53,)) + 1 equalled
    # Cyc(1, (2**53,)), and repr(Cyc(4, (1.5, 0))) raised TypeError
    with pytest.raises(ValueError, match="must be ints"):
        Cyc(order, num, den)


@pytest.mark.parametrize("value", [0.5, 2.0 ** 53, "1/2"])
def test_from_fraction_refuses_a_non_rational(value):
    with pytest.raises(ValueError, match="an int or a Fraction"):
        Cyc.from_fraction(4, value)


def test_canonical_form_and_hash():
    a = Cyc(4, (2, 4), 2)
    assert a == Cyc(4, (1, 2), 1)
    assert hash(a) == hash(Cyc(4, (1, 2), 1))
    assert Cyc(4, (0, 0), 7) == Cyc.zero(4)
    # int and Fraction coercion
    assert omega(4) * 2 == 2 * omega(4)
    assert Cyc.from_int(4, 3) / 2 == Cyc.from_fraction(4, Fraction(3, 2))


def test_equality_against_each_kind_of_value():
    three = Cyc.from_int(4, 3)
    assert three == 3 and 3 == three and three != 4
    assert Cyc.from_fraction(4, Fraction(3, 2)) == Fraction(3, 2)
    assert three != Fraction(3, 2) and Fraction(3, 2) != three
    assert three == Cyc(4, (6, 0), 2) and three != omega(4)
    # another root order is unequal, not an error
    assert three != Cyc.from_int(2, 3) and Cyc.from_int(2, 3) != three
    assert three != "3" and three != 3.0
    assert three.__eq__("3") is NotImplemented
    assert three.__eq__(None) is NotImplemented


def test_pow_including_negative():
    w = omega(5)
    assert w ** 7 == omega(5, 7)
    assert w ** -3 == omega(5, -3)
    x = Cyc(6, (2, -3), 5)
    assert x ** 4 == x * x * x * x
    assert (x ** -2) * (x ** 2) == Cyc.one(6)
