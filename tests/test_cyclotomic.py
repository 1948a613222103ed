import math
import random
from fractions import Fraction

import pytest

from detpowers.cyclotomic import (
    Cyc,
    PrimeScalar,
    cyclotomic_polynomial,
    from_root_coefficients,
    omega,
    primitive_root_of_unity,
    root_power_sum,
)


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


def test_canonical_form_and_hash():
    a = Cyc(4, (2, 4), 2)
    assert a == Cyc(4, (1, 2), 1)
    assert hash(a) == hash(Cyc(4, (1, 2), 1))
    assert Cyc(4, (0, 0), 7) == Cyc.zero(4)
    # int and Fraction coercion
    assert omega(4) * 2 == 2 * omega(4)
    assert Cyc.from_int(4, 3) / 2 == Cyc.from_fraction(4, Fraction(3, 2))


def test_pow_including_negative():
    w = omega(5)
    assert w ** 7 == omega(5, 7)
    assert w ** -3 == omega(5, -3)
    x = Cyc(6, (2, -3), 5)
    assert x ** 4 == x * x * x * x
    assert (x ** -2) * (x ** 2) == Cyc.one(6)


# ---------------------------------------------------------------------------
# prime scalars


def test_prime_scalar_arithmetic():
    a = PrimeScalar(7, 3)
    b = PrimeScalar(7, 5)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (a * b).value == 1
    assert (a / b).value == (3 * pow(5, 5, 7)) % 7
    assert a ** 6 == PrimeScalar(7, 1)
    assert a.inverse() * a == PrimeScalar(7, 1)


def test_prime_scalar_validation():
    with pytest.raises(ValueError):
        PrimeScalar(6, 1)
    with pytest.raises(ValueError):
        PrimeScalar(7, 1) + PrimeScalar(5, 1)
    with pytest.raises(ZeroDivisionError):
        PrimeScalar(7, 0).inverse()


def test_primitive_root_of_unity():
    # d | p - 1 cases used by the variety checks
    for d, p in ((2, 5), (3, 7), (4, 5), (6, 7), (5, 11)):
        g = primitive_root_of_unity(d, p)
        assert g ** d == PrimeScalar(p, 1)
        for k in range(1, d):
            assert g ** k != PrimeScalar(p, 1)
        # smallest such element: exhaustive confirmation
        for smaller in range(2, g.value):
            if pow(smaller, d, p) == 1 and all(
                    pow(smaller, k, p) != 1 for k in range(1, d)):
                pytest.fail(f"{smaller} has order {d} and is below {g.value}")
    with pytest.raises(ValueError):
        primitive_root_of_unity(3, 5)
