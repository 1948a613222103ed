import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from detpowers.cyclotomic import Cyc, omega
from detpowers import decompositions, symmetry
from detpowers.decompositions import (
    _permutations,
    gurvits_decomposition,
    main_decomposition,
    monomial_power_decomposition,
)
from detpowers.multipoly import LinForm, perm_sign
from detpowers.symmetry import (
    AffinePerm,
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
    symmetry_generators,
    transpose_closure,
)
from detpowers.symmetry import (
    _image,
    _multiplier_sign,
    _phase_signs,
    _signed_terms,
)
from detpowers.verify import verify_power_decomposition
from test_decompositions import then


def mono_support(sigma, k, j):
    """Oracle: the support of w^k D^j P_sigma, entry w^(k+ij) at
    (i, sigma i), as a linear form's ((row, col), scalar) pairs."""
    d = len(sigma)
    return tuple(((i, s), omega(d, k + i * j))
                 for i, s in enumerate(sigma, start=1))


def inverse(sigma):
    """Oracle: the inverse permutation, as its image tuple."""
    return tuple(sorted(range(1, len(sigma) + 1), key=lambda i: sigma[i - 1]))


def all_perms(d):
    """Oracle: every permutation of 1..d, as image tuples."""
    return list(itertools.permutations(range(1, d + 1)))


def identity(d):
    return tuple(range(1, d + 1))


def compose_affine(f: AffinePerm, g: AffinePerm) -> AffinePerm:
    """Oracle: (a,b) o (a',b') = (aa', ab'+b), applying ``g`` first."""
    d = f.d
    return AffinePerm((f.a * g.a) % d, (f.a * g.b + f.b) % d, d)


def inverse_affine(f: AffinePerm) -> AffinePerm:
    a_inv = pow(f.a, -1, f.d)
    return AffinePerm(a_inv, (-a_inv * f.b) % f.d, f.d)


def compose(outer: SymElement, inner: SymElement) -> SymElement:
    """Oracle: the element inducing ``outer`` applied after ``inner``.

    Pulling inner's phase through outer's row permutation (an affine map
    r -> ar + b) gives the semidirect-product law
    m'' = m2 + m1 + n1*b, n'' = n2 + n1*a, pi'' = pi1 o pi2,
    sigma''^-1 = sigma1^-1 o sigma2^-1 (subscript 2 = outer, 1 = inner).
    """
    d = outer.d
    return SymElement((outer.m + inner.m + inner.n * outer.pi.b) % d,
                      (outer.n + inner.n * outer.pi.a) % d,
                      compose_affine(inner.pi, outer.pi),
                      then(inner.sigma, outer.sigma))


def signature(elem: SymElement) -> tuple:
    """Oracle: the induced variable map written out, entry (r, c) as
    (phase, row, column) for w^(m + n r) X[pi r, sigma^-1 c]."""
    d = elem.d
    rows = [((elem.m + elem.n * r) % d, elem.pi(r)) for r in range(1, d + 1)]
    columns = inverse(elem.sigma)
    return tuple((phase, pi_r, c) for phase, pi_r in rows for c in columns)


def determinant_multiplier(elem: SymElement) -> Cyc:
    """Oracle: det of the image over det of the source, w^(dm) det(D)^n
    times the two permutation signs, one Cyc product at a time from
    det(D) = w^(1+2+...+d)."""
    d = elem.d
    value = omega(d, d * elem.m) * omega(d, elem.n * math.comb(d + 1, 2))
    return value * (cycle_sign(elem.pi.perm()) * cycle_sign(elem.sigma))


def all_elements(d: int) -> list[SymElement]:
    """Every (m, n, pi, sigma), in that order."""
    return [SymElement(m, n, pi, sigma)
            for m in range(d) for n in range(d)
            for pi in affine_group(d) for sigma in all_perms(d)]


def random_element(rng: random.Random, d: int) -> SymElement:
    return SymElement(rng.randrange(d), rng.randrange(d),
                      rng.choice(affine_group(d)),
                      rng.choice(all_perms(d)))


def with_term(dec, position, **changes):
    """``dec`` with one term's fields replaced."""
    terms = list(dec.terms)
    terms[position] = dataclasses.replace(terms[position], **changes)
    return dataclasses.replace(dec, terms=tuple(terms))


def negated(terms: dict) -> dict:
    return {index: -c for index, c in terms.items()}


def shifted(image: dict, n: int, d: int) -> dict:
    """The image at phase (m, n) from the one at (0, 0): D^n adds n*r to
    the row exponents, which keeps them affine in r and moves j by n."""
    return {(sigma, None if j is None else (j + n - 1) % d + 1): c
            for (sigma, j), c in image.items()}


def every_element_verdict(dec) -> bool:
    """The oracle for the generator check: every element of H~ maps the
    signed terms S to its determinant multiplier times S. One image per
    (pi, sigma) at m = n = 0, shifted per n; m moves only k, which dies in
    the d-th power, so each (m, n, pi, sigma) reads the image of its n."""
    terms = _signed_terms(dec)
    d = dec.d
    one, minus = Cyc.one(d), negated(terms)
    for pi in affine_group(d):
        for sigma in all_perms(d):
            at_origin = _image(SymElement(0, 0, pi, sigma), terms)
            for n in range(d):
                image = shifted(at_origin, n, d)
                for m in range(d):
                    multiplier = determinant_multiplier(
                        SymElement(m, n, pi, sigma))
                    if image != (terms if multiplier == one else minus):
                        return False
    return True


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
        perms, signs = _permutations(d)
        assert [cycle_sign(p) for p in perms] == signs
        assert all(cycle_sign(p) == perm_sign(p) for p in perms)


class TestMonoMembership:
    def test_d_times_p_identity(self):
        found = mono_membership(3, mono_support((1, 2, 3), 0, 1))
        assert found == ((1, 2, 3), 0, 1)

    def test_normal_form_uniqueness(self):
        for d in (2, 3, 4):
            supports = set()
            for k in range(d):
                for j in range(d):
                    for sigma in all_perms(d):
                        supports.add(mono_support(sigma, k, j))
            assert len(supports) == d * d * math.factorial(d)

    def test_membership_round_trip(self):
        for d in (2, 3, 4):
            for k in range(d):
                for j in range(d):
                    for sigma in all_perms(d):
                        assert mono_membership(
                            d, mono_support(sigma, k, j)) == (sigma, k, j)

    def test_p12_times_d_is_outside_for_d4(self):
        # P_(12) D has entry w^(sigma i) at (i, sigma i)
        sigma = (2, 1, 3, 4)
        support = tuple(((i, s), omega(4, s))
                        for i, s in enumerate(sigma, start=1))
        assert mono_membership(4, support) is None

    def test_scaled_d_squared_cycle(self):
        sigma = (2, 3, 1)
        assert mono_membership(3, mono_support(sigma, 1, 2)) == (sigma, 1, 2)
        assert mono_support(sigma, 1, 2)[0] == ((1, 2), omega(3, 1 + 2))

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


class TestAffinePerm:
    def test_call_and_perm(self):
        aff = AffinePerm(2, 1, 5)  # i -> 2i + 1 mod 5
        assert [aff(i) for i in range(1, 6)] == [3, 5, 2, 4, 1]
        assert aff.perm() == (3, 5, 2, 4, 1)

    def test_composition_law_matches_permutation_composition(self):
        for d in (3, 4, 5, 6):
            group = affine_group(d)
            for f in group:
                for g in group[:5]:
                    # compose_affine(f, g) applies g first, then(p, q) applies p
                    assert compose_affine(f, g).perm() \
                        == then(g.perm(), f.perm())

    def test_inverse(self):
        for aff in affine_group(5):
            inv = inverse_affine(aff)
            assert compose_affine(aff, inv).perm() == identity(5)
            assert compose_affine(inv, aff).perm() == identity(5)

    def test_group_orders(self):
        assert len(affine_group(3)) == 6
        assert len(affine_group(4)) == 8
        assert len(affine_group(5)) == 20

    def test_affine_3_is_all_of_s3(self):
        images = {aff.perm() for aff in affine_group(3)}
        assert images == set(all_perms(3))

    def test_transposition_12_is_not_affine_for_d4(self):
        images = {aff.perm() for aff in affine_group(4)}
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
        for pi in all_perms(d):
            # P_pi D has entry w^(pi i) at (i, pi i)
            support = tuple(((i, p), omega(d, p))
                            for i, p in enumerate(pi, start=1))
            if mono_membership(d, support) is not None:
                count += 1
        assert count == passing

    @pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
    @pytest.mark.parametrize("d", [3, 4])
    def test_shifted_normal_form_fails(self, d, shift, monkeypatch):
        # the check compares the solved (k, j) with (b, a), not only its
        # existence: a solver off by one in k or in j must fail it
        solve = symmetry._solve_row_exponents

        def shifted_solve(d_, exponents):
            solved = solve(d_, exponents)
            if solved is None:
                return None
            return tuple((v + s) % d_ for v, s in zip(solved, shift))

        monkeypatch.setattr(symmetry, "_solve_row_exponents", shifted_solve)
        assert check_affine_characterization(d) is False


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
        enum = enumerate_symmetries(d)
        assert enum.preserving_order == order
        assert enum.matches_printed is True
        assert enum.matches_formula

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exactly_half_preserve_the_multiplier(self, d):
        enum = enumerate_symmetries(d)
        assert enum.preserving_order == enum.reversing_order
        assert enum.full_order == 2 * enum.preserving_order
        assert enum.full_order == d ** 3 * euler_totient(d) * math.factorial(d)

    def test_d5_flags_printed_table_mismatch(self):
        enum = enumerate_symmetries(5)
        assert enum.formula_order == 30000
        assert enum.preserving_order == 30000
        assert enum.printed_order == 37500
        assert enum.matches_formula and enum.matches_printed is False

    def test_d6_order_only_mode(self):
        # orders are counted from factor tallies, never from an element list
        enum = enumerate_symmetries(6)
        assert enum.preserving_order == 155520
        assert enum.printed_order == 15552
        assert enum.matches_printed is False
        assert enum.faithful is True

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_faithful(self, d):
        assert check_faithfulness(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_shared_signature_parts_match_every_element(self, d):
        # oracle: each element's own variable map, one SymElement at a time
        walked = [signature(elem) for elem in all_elements(d)]
        assert check_faithfulness(d) is (len(set(walked)) == len(walked))
        assert len(set(walked)) == len(walked)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_faithfulness_enumerates_no_element(self, d, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("faithfulness enumerated a permutation")
        monkeypatch.setattr(symmetry, "_permutations", refuse)
        monkeypatch.setattr(symmetry, "affine_group", refuse)
        assert check_faithfulness(d) is True

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_character_count_matches_element_walk(self, d):
        # oracle: every element's own multiplier, one Cyc product at a time
        one, minus_one = Cyc.one(d), Cyc.from_int(d, -1)
        walked = {"preserving": 0, "reversing": 0}
        total = 0
        for m in range(d):
            for n in range(d):
                for pi in affine_group(d):
                    for sigma in all_perms(d):
                        mult = determinant_multiplier(
                            SymElement(m, n, pi, sigma))
                        assert mult in (one, minus_one)
                        walked["preserving" if mult == one
                               else "reversing"] += 1
                        total += 1
        enum = enumerate_symmetries(d)
        assert enum.preserving_order == walked["preserving"]
        assert enum.reversing_order == walked["reversing"]
        assert enum.full_order == total

    def test_element_list_order_and_size(self):
        elements = all_elements(3)
        assert len(set(elements)) == enumerate_symmetries(3).full_order
        assert elements[0] == SymElement(
            0, 0, AffinePerm(1, 0, 3), (1, 2, 3))
        assert elements[-1] == SymElement(
            2, 2, affine_group(3)[-1], (3, 2, 1))

    def test_multiplier_values(self):
        # n = 0 and trivial permutations leave the determinant alone
        for m in range(3):
            elem = SymElement(m, 0, AffinePerm(1, 0, 3), (1, 2, 3))
            assert determinant_multiplier(elem) == Cyc.one(3)
        # a single inversion flips it
        elem = SymElement(0, 0, AffinePerm(1, 0, 3), (2, 1, 3))
        assert determinant_multiplier(elem) == Cyc.from_int(3, -1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_generator_signs_match_the_cyc_multiplier(self, d):
        # the int the action check reads for chi(g), against the Cyc product
        phase = _phase_signs(d)
        for g in symmetry_generators(d):
            sign = _multiplier_sign(g, phase)
            assert sign in (1, -1)
            assert Cyc.from_int(d, sign) == determinant_multiplier(g)


class TestAction:
    def test_identity_element_is_the_identity_bijection(self):
        terms = _signed_terms(main_decomposition(3))
        elem = SymElement(0, 0, AffinePerm(1, 0, 3), (1, 2, 3))
        assert _image(elem, terms) == terms
        assert len(terms) == 18

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_preserving_element_acts_sign_preservingly(self, d):
        assert check_symmetry_action(d)

    def test_reversing_element_flips_every_sign_at_d3(self):
        terms = _signed_terms(main_decomposition(3))
        reversing = next(e for e in all_elements(3)
                         if determinant_multiplier(e) == Cyc.from_int(3, -1))
        image = _image(reversing, terms)
        assert image == negated(terms) != terms
        assert all(image[index] != c for index, c in terms.items())

    @staticmethod
    def signature_map(elem):
        d = elem.d
        cells = [(r, c) for r in range(1, d + 1) for c in range(1, d + 1)]
        return dict(zip(cells, signature(elem)))

    def test_group_law_on_random_pairs(self):
        rng = random.Random(11)
        for d in (2, 3, 4):
            elements = all_elements(d)
            for _ in range(50):
                outer = rng.choice(elements)
                inner = rng.choice(elements)
                outer_sig = self.signature_map(outer)
                inner_sig = self.signature_map(inner)
                composed_sig = {}
                for cell in outer_sig:
                    phase_out, r1, c1 = outer_sig[cell]
                    phase_in, r2, c2 = inner_sig[(r1, c1)]
                    composed_sig[cell] = ((phase_out + phase_in) % d, r2, c2)
                assert self.signature_map(compose(outer, inner)) \
                    == composed_sig

    def test_compose_with_identity(self):
        ident = SymElement(0, 0, AffinePerm(1, 0, 3), (1, 2, 3))
        elem = SymElement(2, 1, AffinePerm(2, 1, 3), (3, 1, 2))
        assert compose(elem, ident) == elem
        assert compose(ident, elem) == elem

    def test_multiplier_is_multiplicative(self):
        rng = random.Random(5)
        for d in (2, 3, 4, 5):
            for _ in range(30):
                e1 = random_element(rng, d)
                e2 = random_element(rng, d)
                lhs = determinant_multiplier(compose(e2, e1))
                rhs = determinant_multiplier(e2) * determinant_multiplier(e1)
                assert lhs == rhs

    def test_requires_main_scheme(self):
        from detpowers.decompositions import classical_decomposition
        with pytest.raises(ValueError, match="main scheme"):
            _signed_terms(classical_decomposition(3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_shifted_image_matches_every_element(self, d):
        # the oracle's shortcut (one image per (pi, sigma), shifted by n)
        # against each element applied on its own, phases in the exponents
        terms = _signed_terms(main_decomposition(d))
        for elem in all_elements(d):
            at_origin = _image(SymElement(0, 0, elem.pi, elem.sigma), terms)
            assert shifted(at_origin, elem.n, d) == _image(elem, terms)
        assert every_element_verdict(main_decomposition(d)) is True

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generators_reach_every_element(self, d):
        start = SymElement(0, 0, AffinePerm(1, 0, d), identity(d))
        generators = symmetry_generators(d)
        reached, frontier = {start}, {start}
        while frontier:
            frontier = {compose(g, h) for h in frontier
                        for g in generators} - reached
            reached |= frontier
        assert len(reached) == enumerate_symmetries(d).full_order

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_action_composes_on_seeded_pairs(self, d):
        # the term map of g o h is the map of h followed by that of g
        terms = _signed_terms(main_decomposition(d))

        def term_map(h):
            # each index carried as its own value to its image
            moved = _image(h, {index: index for index in terms})
            assert len(moved) == len(terms)
            return {source: image for image, source in moved.items()}

        rng = random.Random(d)
        for _ in range(20):
            g, h = random_element(rng, d), random_element(rng, d)
            g_map, h_map = term_map(g), term_map(h)
            assert term_map(compose(g, h)) == {
                term: g_map[image] for term, image in h_map.items()}

    @staticmethod
    def tampered(d: int, kind: str):
        dec = main_decomposition(d)
        term = dec.terms[1]
        if kind == "negated":
            return with_term(dec, 1, coeff=-term.coeff)
        if kind == "tripled":
            return with_term(dec, 1, coeff=term.coeff * 3)
        if kind == "form-swapped":
            return with_term(dec, 0, form=term.form)
        if kind == "exchanged":
            # the first term and the first of the other sign trade places
            first = dec.terms[0]
            k, other = next((k, t) for k, t in enumerate(dec.terms)
                            if t.coeff != first.coeff)
            return with_term(with_term(dec, 0, form=other.form,
                                       index=other.index),
                             k, form=first.form, index=first.index)
        return dec

    @pytest.mark.parametrize("kind", ["main", "negated", "tripled",
                                      "form-swapped", "exchanged"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generator_verdict_matches_every_element_oracle(
            self, monkeypatch, d, kind):
        dec = self.tampered(d, kind)
        monkeypatch.setattr(symmetry, "main_decomposition", lambda _: dec)
        if kind == "form-swapped":
            with pytest.raises(ValueError, match="form"):
                every_element_verdict(dec)
            with pytest.raises(ValueError, match="form"):
                check_symmetry_action(d)
            return
        expected = kind == "main"
        assert every_element_verdict(dec) is expected
        assert check_symmetry_action(d) is expected

    def test_flipped_coefficient_fails_the_full_check(self, monkeypatch):
        def flipped(d):
            dec = main_decomposition(d)
            return with_term(dec, 4, coeff=-dec.terms[4].coeff)

        monkeypatch.setattr(symmetry, "main_decomposition", flipped)
        assert check_symmetry_action(3) is False
        assert check_symmetry_action(4) is False

    def test_tripled_coefficient_is_not_flipped(self):
        # every generator at d=4 but the m-shift reverses the multiplier,
        # so a reversing image must carry exactly the negated coefficient
        n_shift = SymElement(0, 1, AffinePerm(1, 0, 4), (1, 2, 3, 4))
        tripled = _signed_terms(self.tampered(4, "tripled"))
        image = _image(n_shift, tripled)
        assert image.keys() == tripled.keys()
        assert image != negated(tripled)
        flips = [image[index] == -c for index, c in tripled.items()]
        assert flips.count(True) == 94 and flips.count(False) == 2
        assert all(image[index] != c for index, c in tripled.items())

    def test_tripled_coefficient_is_never_sign_reversing(self):
        # a reversing element moves every term, so it meets the tripled one;
        # untampered, every one of them reverses every sign
        minus_one = Cyc.from_int(3, -1)
        reversing = [e for e in all_elements(3)
                     if determinant_multiplier(e) == minus_one]
        assert len(reversing) == enumerate_symmetries(3).reversing_order
        tripled = _signed_terms(self.tampered(3, "tripled"))
        untampered = _signed_terms(main_decomposition(3))
        for elem in reversing:
            assert _image(elem, tripled) != negated(tripled)
            assert _image(elem, untampered) == negated(untampered)

    def test_full_check_work_counts_at_d4(self, monkeypatch):
        # six generators: the m- and n-shifts, x -> x+1, x -> 3x, (1 2)
        # and (1 2 3 4); one image each, of d = 4 row solves
        images = solves = 0
        solve, image = symmetry._solve_row_exponents, symmetry._image

        def counted_solve(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        def counted_image(*args):
            nonlocal images
            images += 1
            return image(*args)

        monkeypatch.setattr(symmetry, "_solve_row_exponents", counted_solve)
        monkeypatch.setattr(symmetry, "_image", counted_image)
        assert check_symmetry_action(4)
        # one membership solve per distinct tuple of entry codes, the d
        # families of main(4), not one per term
        term_read = 4
        assert images == len(symmetry_generators(4)) == 6
        assert solves - term_read == 4 * 6

    def test_term_read_looks_up_no_root_per_term(self, monkeypatch):
        # the terms are read from the phase-code view: one lookup per
        # distinct pair object of main(4), 44 for its 96 * 4 entries, and
        # no Cyc.root_power at all
        lookups, powers = [], []
        code, power = decompositions._unit_code, Cyc.root_power
        monkeypatch.setattr(decompositions, "_unit_code",
                            lambda c: lookups.append(c) or code(c))
        monkeypatch.setattr(Cyc, "root_power",
                            lambda c: powers.append(c) or power(c))
        assert check_symmetry_action(4)
        pairs = {id(pair) for term in main_decomposition(4).terms
                 for pair in term.form.support()}
        assert len(lookups) == len(pairs) == 44
        assert powers == []

    def test_form_swapped_term_is_rejected(self):
        dec = main_decomposition(3)
        terms = list(dec.terms)
        terms[0] = dataclasses.replace(terms[0], form=terms[5].form)
        swapped = dataclasses.replace(dec, terms=tuple(terms))
        assert not verify_power_decomposition(swapped).equal
        with pytest.raises(ValueError, match="form"):
            _signed_terms(swapped)

    def test_repeated_index_is_rejected(self, monkeypatch):
        # the second term becomes a copy of the first, form and index, so
        # both read true and S would silently lose a term
        dec = main_decomposition(3)
        first = dec.terms[0]
        twice = with_term(dec, 1, index=first.index, form=first.form)
        with pytest.raises(ValueError, match="met twice"):
            _signed_terms(twice)
        monkeypatch.setattr(symmetry, "main_decomposition", lambda _: twice)
        with pytest.raises(ValueError, match="met twice"):
            check_symmetry_action(3)

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
            _signed_terms(bad)


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

    def test_gurvits_d1_conjugate_keeps_its_zero_form(self):
        # X -> aXb with ab = 1 maps the omitted term's zero form to itself
        dec = gurvits_decomposition(1)
        a = ((Cyc.from_int(1, 2),),)
        b = ((Cyc.from_fraction(1, Fraction(1, 2)),),)
        conj = conjugate_decomposition(a, b, dec)
        assert conj.scheme == "conjugated"
        assert [t.form for t in conj.terms] == [t.form for t in dec.terms]
        assert not conj.terms[1].form.support()
        assert verify_power_decomposition(conj).equal

    @pytest.mark.parametrize("order", [3, 4])
    def test_outer_products_match_the_triple_product(self, order):
        """Each image entry, a sum of v times a precomputed outer product,
        equals the dense sum of x * v * y over the form's support, on
        seeded unitriangular pairs with general entries of Q(w)."""
        rng = random.Random(40 + order)
        d, phi = order, len(Cyc.zero(order).num)
        dec = main_decomposition(d)

        def unitriangular(below):
            return tuple(
                tuple(Cyc.one(order) if r == c
                      else Cyc(order, tuple(rng.randint(-2, 2)
                                            for _ in range(phi)),
                               rng.choice([1, 2]))
                      if (c < r) is below else Cyc.zero(order)
                      for c in range(d))
                for r in range(d))

        for _ in range(3):
            a, b = unitriangular(True), unitriangular(False)
            assert any(x.den != 1 or any(x.num[1:]) for row in a + b
                       for x in row)
            conj = conjugate_decomposition(a, b, dec)
            for term, image in zip(dec.terms, conj.terms):
                want = {(r, c): Cyc.zero(order) for r in range(1, d + 1)
                        for c in range(1, d + 1)}
                for (i, j), v in term.form.support():
                    for r, c in want:
                        want[r, c] += a[r - 1][i - 1] * v * b[j - 1][c - 1]
                assert image == dataclasses.replace(
                    term, form=LinForm(order, d, want))

    def test_determinant_condition_is_enforced(self):
        dec = main_decomposition(2)
        zero = Cyc.zero(2)
        a = ((Cyc.from_int(2, 2), zero), (zero, Cyc.one(2)))
        with pytest.raises(ValueError):
            conjugate_decomposition(a, self.identity_matrix(2, 2), dec)

    @pytest.mark.parametrize("shape", ["3x3", "5x5", "ragged b"])
    def test_matrices_must_be_d_by_d(self, shape):
        # at d = 4 a 3x3 pair would index past its rows and a 5x5 identity
        # pair has determinant 1; both are refused before the determinant
        dec = main_decomposition(4)
        eye = self.identity_matrix(4, 4)
        a, b = {
            "3x3": (self.identity_matrix(3, 4),) * 2,
            "5x5": (self.identity_matrix(5, 4),) * 2,
            "ragged b": (eye, eye[:3] + (eye[3][:3],)),
        }[shape]
        with pytest.raises(ValueError, match="4x4 matrices"):
            conjugate_decomposition(a, b, dec)

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
