import dataclasses
import math
import random
from fractions import Fraction

import pytest

from detpowers.cyclotomic import Cyc, omega
from detpowers import symmetry
from detpowers.decompositions import (
    Perm,
    main_decomposition,
    monomial_power_decomposition,
)
from detpowers.multipoly import LinForm
from detpowers.symmetry import (
    AffinePerm,
    MonoMatrix,
    SymElement,
    affine_group,
    check_affine_characterization,
    check_faithfulness,
    check_sign_formulas,
    check_symmetry_action,
    conjugate_decomposition,
    cycle_sign,
    enumerate_symmetries,
    euler_totient,
    jacobi_symbol,
    matrix_determinant,
    matrix_product,
    mono_membership,
    mono_membership_sparse,
    sample_symmetry_actions,
    transpose_closure,
)
from detpowers.symmetry import _TermTable
from detpowers.verify import verify_power_decomposition


def mono_support(m: MonoMatrix):
    """Oracle: the support of w^k D^j P_sigma, entry w^(k+ij) at
    (i, sigma i), as a linear form's ((row, col), scalar) pairs."""
    d = m.d
    return tuple(((i, m.sigma(i)), omega(d, m.k + i * m.j))
                 for i in range(1, d + 1))


class TestTotientAndJacobi:
    def test_totient_values(self):
        assert [euler_totient(d) for d in (1, 2, 3, 4, 6, 12)] \
            == [1, 1, 2, 2, 2, 4]

    def test_totient_on_primes(self):
        for p in (5, 7, 11, 13):
            assert euler_totient(p) == p - 1

    def test_jacobi_small(self):
        assert jacobi_symbol(1, 3) == 1
        assert jacobi_symbol(2, 3) == -1
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(3, 9) == 0

    def test_jacobi_matches_euler_criterion_on_primes(self):
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi_symbol(a, p) == (1 if euler == 1 else -1)

    def test_jacobi_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi_symbol(3, 4)


class TestCycleSign:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_inversion_count_sign(self, d):
        for p in Perm.all_perms(d):
            assert cycle_sign(p) == p.sign


class TestMonoMatrix:
    def test_d_times_p_identity(self):
        m = MonoMatrix(0, 1, Perm.identity(3))
        found = mono_membership(3, mono_support(m))
        assert found == m

    def test_normal_form_uniqueness(self):
        for d in (2, 3, 4):
            supports = set()
            for k in range(d):
                for j in range(d):
                    for sigma in Perm.all_perms(d):
                        supports.add(mono_support(MonoMatrix(k, j, sigma)))
            assert len(supports) == d * d * math.factorial(d)

    def test_membership_round_trip(self):
        for d in (2, 3, 4):
            for k in range(d):
                for j in range(d):
                    for sigma in Perm.all_perms(d):
                        m = MonoMatrix(k, j, sigma)
                        assert mono_membership(d, mono_support(m)) == m

    def test_p12_times_d_is_outside_for_d4(self):
        # P_(12) D has entry w^(sigma i) at (i, sigma i)
        sigma = Perm((2, 1, 3, 4))
        exponents = tuple(sigma(i) % 4 for i in range(1, 5))
        assert mono_membership_sparse(4, sigma.images, exponents) is None

    def test_scaled_d_squared_cycle(self):
        sigma = Perm((2, 3, 1))
        m = MonoMatrix(1, 2, sigma)
        assert mono_membership(3, mono_support(m)) == m
        assert mono_support(m)[0] == ((1, 2), omega(3, 1 + 2))

    def test_dense_matrix_is_rejected(self):
        one = Cyc.one(3)
        dense = tuple(((i, j), one) for i in range(1, 4) for j in range(1, 4))
        assert mono_membership(3, dense) is None

    def test_non_root_entry_is_rejected(self):
        two = Cyc.from_int(2, 2)
        assert mono_membership(2, (((1, 1), two), ((2, 2), two))) is None

    def test_missing_row_and_repeated_column_are_rejected(self):
        one = Cyc.one(3)
        assert mono_membership(3, (((1, 1), one), ((2, 2), one))) is None
        assert mono_membership(
            3, (((1, 1), one), ((2, 1), one), ((3, 3), one))) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MonoMatrix(3, 0, Perm.identity(3))


class TestAffinePerm:
    def test_call_and_perm(self):
        aff = AffinePerm(2, 1, 5)  # i -> 2i + 1 mod 5
        assert [aff(i) for i in range(1, 6)] == [3, 5, 2, 4, 1]
        assert aff.perm().images == (3, 5, 2, 4, 1)

    def test_composition_law_matches_permutation_composition(self):
        for d in (3, 4, 5, 6):
            group = affine_group(d)
            for f in group:
                for g in group[:5]:
                    # compose applies g first, Perm.then applies left first
                    assert f.compose(g).perm() == g.perm().then(f.perm())

    def test_inverse(self):
        for aff in affine_group(5):
            assert aff.compose(aff.inverse()).perm() == Perm.identity(5)
            assert aff.inverse().compose(aff).perm() == Perm.identity(5)

    def test_group_orders(self):
        assert len(affine_group(3)) == 6
        assert len(affine_group(4)) == 8
        assert len(affine_group(5)) == 20

    def test_affine_3_is_all_of_s3(self):
        images = {aff.perm().images for aff in affine_group(3)}
        assert images == {p.images for p in Perm.all_perms(3)}

    def test_transposition_12_is_not_affine_for_d4(self):
        images = {aff.perm().images for aff in affine_group(4)}
        assert (2, 1, 3, 4) not in images

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            AffinePerm(2, 0, 4)


class TestAffineCharacterization:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_holds(self, d):
        assert check_affine_characterization(d)

    @pytest.mark.parametrize("d,passing", [(3, 6), (4, 8), (5, 20)])
    def test_membership_count_matches_affine_order(self, d, passing):
        count = 0
        for pi in Perm.all_perms(d):
            exponents = tuple(pi(i) % d for i in range(1, d + 1))
            if mono_membership_sparse(d, pi.images, exponents) is not None:
                count += 1
        assert count == passing


class TestSignFormulas:
    @pytest.mark.parametrize("d", list(range(2, 13)))
    def test_hold(self, d):
        assert check_sign_formulas(d)

    def test_d5_multiplication_by_2(self):
        perm = AffinePerm(2, 0, 5).perm()
        assert cycle_sign(perm) == -1
        assert jacobi_symbol(2, 5) == -1

    def test_d4_shift_by_1_is_a_4_cycle(self):
        perm = AffinePerm(1, 1, 4).perm()
        assert cycle_sign(perm) == -1
        assert (-1) ** (1 * 5) == -1


class TestEnumeration:
    @pytest.mark.parametrize("d,order", [(2, 8), (3, 162), (4, 1536)])
    def test_preserving_order_matches_printed_table(self, d, order):
        enum = enumerate_symmetries(d, with_elements=(d <= 3))
        assert enum.preserving_order == order
        assert enum.matches_printed is True
        assert enum.matches_formula

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exactly_half_preserve_the_multiplier(self, d):
        enum = enumerate_symmetries(d, with_elements=False)
        assert enum.preserving_order == enum.reversing_order
        assert enum.full_order == 2 * enum.preserving_order
        assert enum.full_order == d ** 3 * euler_totient(d) * math.factorial(d)

    def test_d5_flags_printed_table_mismatch(self):
        enum = enumerate_symmetries(5, with_elements=False)
        assert enum.formula_order == 30000
        assert enum.preserving_order == 30000
        assert enum.printed_order == 37500
        assert enum.matches_formula and enum.matches_printed is False

    def test_d6_order_only_mode(self):
        enum = enumerate_symmetries(6, with_elements=False)
        assert enum.preserving_order == 155520
        assert enum.printed_order == 15552
        assert enum.matches_printed is False
        assert enum.elements is None
        with pytest.raises(ValueError):
            enumerate_symmetries(6, with_elements=True)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_faithful(self, d):
        assert check_faithfulness(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_character_count_matches_element_walk(self, d):
        # oracle: every element's own multiplier, one Cyc product at a time
        one, minus_one = Cyc.one(d), Cyc.from_int(d, -1)
        walked = {"preserving": 0, "reversing": 0}
        total = 0
        for m in range(d):
            for n in range(d):
                for pi in affine_group(d):
                    for sigma in Perm.all_perms(d):
                        mult = SymElement(m, n, pi, sigma) \
                            .determinant_multiplier()
                        assert mult in (one, minus_one)
                        walked["preserving" if mult == one
                               else "reversing"] += 1
                        total += 1
        enum = enumerate_symmetries(d, with_elements=False,
                                    check_faithful=False)
        assert enum.preserving_order == walked["preserving"]
        assert enum.reversing_order == walked["reversing"]
        assert enum.full_order == total

    def test_element_list_order_and_size(self):
        enum = enumerate_symmetries(3, check_faithful=False)
        assert len(enum.elements) == enum.full_order
        assert enum.elements[0] == SymElement(
            0, 0, AffinePerm(1, 0, 3), Perm.identity(3))
        assert enum.elements[-1] == SymElement(
            2, 2, affine_group(3)[-1], Perm((3, 2, 1)))

    def test_multiplier_values(self):
        # n = 0 and trivial permutations leave the determinant alone
        for m in range(3):
            elem = SymElement(m, 0, AffinePerm(1, 0, 3), Perm.identity(3))
            assert elem.determinant_multiplier() == Cyc.one(3)
        # a single inversion flips it
        elem = SymElement(0, 0, AffinePerm(1, 0, 3), Perm((2, 1, 3)))
        assert elem.determinant_multiplier() == Cyc.from_int(3, -1)


class TestAction:
    def test_identity_element_is_the_identity_bijection(self):
        dec = main_decomposition(3)
        elem = SymElement(0, 0, AffinePerm(1, 0, 3), Perm.identity(3))
        outcome = _TermTable(dec).act(elem)
        assert outcome.sign_preserving
        assert outcome.preserved == len(dec.terms)

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_preserving_element_acts_sign_preservingly(self, d):
        assert check_symmetry_action(d)

    def test_reversing_element_flips_every_sign_at_d3(self):
        dec = main_decomposition(3)
        enum = enumerate_symmetries(3)
        reversing = next(e for e in enum.elements
                         if e.determinant_multiplier() == Cyc.from_int(3, -1))
        outcome = _TermTable(dec).act(reversing)
        assert outcome.sign_reversing
        assert outcome.flipped == 18 and outcome.preserved == 0
        assert outcome.structural_failures == 0

    @staticmethod
    def signature_map(elem):
        d = elem.d
        cells = [(r, c) for r in range(1, d + 1) for c in range(1, d + 1)]
        return dict(zip(cells, elem.signature()))

    def test_group_law_on_random_pairs(self):
        rng = random.Random(11)
        for d in (2, 3, 4):
            enum = enumerate_symmetries(d, check_faithful=False)
            for _ in range(50):
                outer = rng.choice(enum.elements)
                inner = rng.choice(enum.elements)
                outer_sig = self.signature_map(outer)
                inner_sig = self.signature_map(inner)
                composed_sig = {}
                for cell in outer_sig:
                    phase_out, r1, c1 = outer_sig[cell]
                    phase_in, r2, c2 = inner_sig[(r1, c1)]
                    composed_sig[cell] = ((phase_out + phase_in) % d, r2, c2)
                composed = outer.compose(inner)
                assert self.signature_map(composed) == composed_sig

    def test_compose_with_identity(self):
        ident = SymElement(0, 0, AffinePerm(1, 0, 3), Perm.identity(3))
        elem = SymElement(2, 1, AffinePerm(2, 1, 3), Perm((3, 1, 2)))
        assert elem.compose(ident) == elem
        assert ident.compose(elem) == elem

    def test_multiplier_is_multiplicative(self):
        rng = random.Random(5)
        enum = enumerate_symmetries(3, check_faithful=False)
        for _ in range(30):
            e1 = rng.choice(enum.elements)
            e2 = rng.choice(enum.elements)
            lhs = e2.compose(e1).determinant_multiplier()
            rhs = e2.determinant_multiplier() * e1.determinant_multiplier()
            assert lhs == rhs

    def test_requires_main_scheme(self):
        from detpowers.decompositions import classical_decomposition
        elem = SymElement(0, 0, AffinePerm(1, 0, 3), Perm.identity(3))
        with pytest.raises(ValueError):
            _TermTable(classical_decomposition(3)).act(elem)

    @pytest.mark.parametrize("d", [2, 3])
    def test_shared_table_matches_apply_symmetry_on_every_element(self, d):
        # oracle: each element applied on its own, phases in the exponents
        dec = main_decomposition(d)
        table = _TermTable(dec)
        one = Cyc.one(d)
        walk_verdict = True
        for elem in enumerate_symmetries(d, check_faithful=False).elements:
            alone = table.act(elem)
            shared = table.outcome(
                table.images(0, 0, elem.pi.perm().images,
                             elem.sigma.images), shift=elem.n)
            assert shared == alone
            if elem.determinant_multiplier() == one:
                walk_verdict = walk_verdict and alone.sign_preserving
        assert check_symmetry_action(d) is walk_verdict is True

    def test_flipped_coefficient_fails_the_full_check(self, monkeypatch):
        def flipped(d):
            dec = main_decomposition(d)
            terms = list(dec.terms)
            terms[4] = dataclasses.replace(terms[4], coeff=-terms[4].coeff)
            return dataclasses.replace(dec, terms=tuple(terms))

        monkeypatch.setattr(symmetry, "main_decomposition", flipped)
        assert check_symmetry_action(3) is False

    def test_form_swapped_term_is_rejected(self):
        dec = main_decomposition(3)
        terms = list(dec.terms)
        terms[0] = dataclasses.replace(terms[0], form=terms[5].form)
        swapped = dataclasses.replace(dec, terms=tuple(terms))
        assert not verify_power_decomposition(swapped).equal
        elem = SymElement(1, 2, AffinePerm(2, 1, 3), Perm((2, 3, 1)))
        with pytest.raises(ValueError, match="form"):
            _TermTable(swapped).act(elem)

    @pytest.mark.parametrize("coeffs", [
        {(1, 1): 1, (1, 2): 1, (2, 3): 1, (3, 3): 1},  # two in row 1
        {(1, 2): 1, (2, 3): 1},                        # row 3 missing
        {(1, 2): 2, (2, 3): 1, (3, 1): 1},             # 2 is no root
    ])
    def test_form_outside_m_is_rejected(self, coeffs):
        dec = main_decomposition(3)
        terms = list(dec.terms)
        terms[0] = dataclasses.replace(terms[0], form=LinForm(3, 3, coeffs))
        bad = dataclasses.replace(dec, terms=tuple(terms))
        with pytest.raises(ValueError, match="reads as None"):
            _TermTable(bad)

    def test_sampled_actions_are_reproducible(self):
        a = sample_symmetry_actions(3, 25, seed=7)
        b = sample_symmetry_actions(3, 25, seed=7)
        assert a == b
        assert a["bad"] == 0
        assert a["checked"] == 25


class TestTransposeClosure:
    def test_small_d_closed(self):
        ok, witnesses = transpose_closure(2)
        assert ok and witnesses == []
        ok, witnesses = transpose_closure(3)
        assert ok and witnesses == []

    @pytest.mark.parametrize("d", [4, 5])
    def test_large_d_not_closed(self, d):
        ok, witnesses = transpose_closure(d)
        assert not ok
        assert witnesses

    def test_d4_witness_includes_d_times_p12(self):
        _, witnesses = transpose_closure(4)
        assert (1, (2, 1, 3, 4)) in witnesses


class TestConjugation:
    @staticmethod
    def identity_matrix(d, order):
        zero, one = Cyc.zero(order), Cyc.one(order)
        return tuple(tuple(one if r == c else zero for c in range(d))
                     for r in range(d))

    def test_identity_conjugation_preserves_forms(self):
        dec = main_decomposition(2)
        eye = self.identity_matrix(2, 2)
        conj = conjugate_decomposition(eye, eye, dec)
        assert conj.scheme == "conjugated"
        assert [t.form for t in conj.terms] == [t.form for t in dec.terms]
        assert verify_power_decomposition(conj).equal

    def test_diagonal_conjugation_verifies(self):
        dec = main_decomposition(2)
        zero = Cyc.zero(2)
        a = ((Cyc.from_int(2, 2), zero),
             (zero, Cyc.from_fraction(2, Fraction(1, 2))))
        b = self.identity_matrix(2, 2)
        conj = conjugate_decomposition(a, b, dec)
        assert verify_power_decomposition(conj).equal

    def test_random_unimodular_integer_conjugation_d3(self):
        rng = random.Random(3)
        dec = main_decomposition(3)
        eye = self.identity_matrix(3, 3)

        def random_unimodular():
            m = [list(row) for row in eye]
            for _ in range(6):
                r, c = rng.sample(range(3), 2)
                scale = Cyc.from_int(3, rng.choice([-2, -1, 1, 2]))
                for k in range(3):
                    m[r][k] = m[r][k] + scale * m[c][k]
            return tuple(tuple(row) for row in m)

        a, b = random_unimodular(), random_unimodular()
        assert matrix_determinant(matrix_product(a, b, 3), 3) == Cyc.one(3)
        conj = conjugate_decomposition(a, b, dec)
        assert verify_power_decomposition(conj).equal

    def test_determinant_condition_is_enforced(self):
        dec = main_decomposition(2)
        zero = Cyc.zero(2)
        a = ((Cyc.from_int(2, 2), zero), (zero, Cyc.one(2)))
        with pytest.raises(ValueError):
            conjugate_decomposition(a, self.identity_matrix(2, 2), dec)

    def test_non_determinant_target_is_rejected(self):
        dec = monomial_power_decomposition(3)
        zero, one, two = (Cyc.from_int(1, v) for v in (0, 1, 2))
        a = ((one, two, zero), (zero, one, zero), (zero, zero, one))
        b = ((one, zero, zero), (zero, one, zero), (zero, -one, one))
        with pytest.raises(ValueError, match="determinant"):
            conjugate_decomposition(a, b, dec)

    def test_matrix_determinant_of_d(self):
        for d in (2, 3, 4):
            # D = diag(w, w^2, ..., w^d)
            m = tuple(tuple(omega(d, i) if c == i else Cyc.zero(d)
                            for c in range(1, d + 1)) for i in range(1, d + 1))
            assert matrix_determinant(m, d) == omega(d, math.comb(d + 1, 2))

    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_sparse_matrix_product_matches_dense(self, order):
        """Skipping zero factors changes no entry: seeded matrices from
        all-zero to dense, with general entries of Q(w), against the
        plain triple loop."""
        rng = random.Random(order)
        phi = len(Cyc.zero(order).num)

        def matrix(d, density):
            return tuple(
                tuple(Cyc(order, tuple(rng.randint(-3, 3)
                                       for _ in range(phi)),
                          rng.choice([1, 1, 2]))
                      if rng.random() < density else Cyc.zero(order)
                      for _ in range(d))
                for _ in range(d))

        def dense(a, b):
            d = len(a)
            return tuple(
                tuple(sum((a[r][k] * b[k][c] for k in range(d)),
                          Cyc.zero(order))
                      for c in range(d))
                for r in range(d))

        for d in (1, 2, 4):
            for density in (0.0, 0.25, 0.5, 1.0):
                for _ in range(3):
                    a, b = matrix(d, density), matrix(d, density)
                    assert matrix_product(a, b, order) == dense(a, b)
