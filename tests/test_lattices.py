import random

import pytest

from tlfields.errors import InsufficientPrecision, NoCertificate, NotContained, SingularMatrix
from tlfields.scalars import make_extension
from tlfields.series import Series, agree_within_window, level1_valuation
from tlfields.lattices import (
    LatticePair,
    Refinement,
    contains,
    find_refinement,
    induced_quotient_map,
    lattice_normal_form,
    mat_inv,
    mat_mul,
    quotient_module,
    standard_lattice,
)
from tlfields.tlf import LiftingSpec, TlfDescriptor


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def K1(Q):
    return TlfDescriptor(1, Q)


@pytest.fixture
def K2(Q):
    return TlfDescriptor(2, Q)


def _mat(K, rows):
    return [[K.from_terms({tuple(e) if isinstance(e, tuple) else (e,): K.field.one})
             if isinstance(e, (int, tuple)) else e for e in row] for row in rows]


class TestNormalForm:
    def test_identity(self, K1):
        L = standard_lattice(K1, 3)
        assert L.divisors == (0, 0, 0)

    def test_diag_mixed(self, K1):
        t = K1.gen(1)
        gens = [[t, K1.zero()], [K1.zero(), t.inv()]]
        L = lattice_normal_form(K1, gens)
        assert L.divisors == (-1, 1)

    def test_column_reduction_example(self, K1):
        # [[1, t],[0, t^2]] has divisors (0, 2)
        t = K1.gen(1)
        gens = [[K1.one(), t], [K1.zero(), t * t]]
        L = lattice_normal_form(K1, gens)
        assert L.divisors == (0, 2)

    def test_non_split_lattice(self, K1):
        # span{(1,1),(0,t)}: hermite form keeps the coupling
        t = K1.gen(1)
        gens = [[K1.one(), K1.zero()], [K1.one(), t]]
        L = lattice_normal_form(K1, gens)
        assert L.divisors == (0, 1)
        assert L.hnf[1][0] == K1.one()

    def test_singular_rejected(self, K1):
        gens = [[K1.one(), K1.one()], [K1.one(), K1.one()]]
        with pytest.raises(SingularMatrix):
            lattice_normal_form(K1, gens)

    @pytest.mark.parametrize("seed", range(4))
    def test_canonicity_under_column_mixing(self, K1, seed):
        rng = random.Random(seed)
        t = K1.gen(1)
        for _ in range(50):
            r = rng.choice([2, 3])
            gens = [
                [
                    K1.from_terms(
                        {
                            (rng.randint(-2, 2),): K1.field.random_element(rng, 3)
                            for _ in range(rng.randint(1, 2))
                        }
                    )
                    for _ in range(r)
                ]
                for _ in range(r)
            ]
            try:
                L = lattice_normal_form(K1, gens)
            except SingularMatrix:
                continue
            # mix columns by a random unimodular (over O_1) transformation
            mixed = [row[:] for row in gens]
            for _ in range(3):
                c1, c2 = rng.sample(range(r), 2)
                f = K1.from_terms({(rng.randint(0, 2),): K1.field.random_element(rng, 2)})
                for row in range(r):
                    mixed[row][c1] = mixed[row][c1] + f * mixed[row][c2]
            L2 = lattice_normal_form(K1, mixed)
            assert L.divisors == L2.divisors
            assert L.hnf == L2.hnf

    def test_exact_generators_retry_a_wider_window(self):
        # the column mixing of a triangular lattice over F8 whose last pivot,
        # t1^9, lies past a unit inverse on 8 coefficients: the default window
        # refuses, twice as many coefficients give the triangular lattice's form
        field = make_extension(2, [1, 1, 0, 1])
        K = TlfDescriptor(1, field)
        x, one = field.gen, field.one

        def m(c, e):
            return K.monomial((e,), c)

        gens = [[m(x + one, 2), m(x * x, -2), m(x + x * x, 0)],
                [K.zero(), m(one + x * x, 2), m(one + x, -2)],
                [K.zero(), K.zero(), m(one + x + x * x, 1)]]
        mixed = [[m(x * x, 0) + m(one + x + x * x, 2), m(x * x, -2), m(x + x * x, 0) + m(x + x * x, 2)],
                 [m(x, -2), m(one + x * x, 2), m(one + x, -2)],
                 [m(one + x, 1), K.zero(), m(one + x + x * x, 1)]]
        with pytest.raises(InsufficientPrecision):
            lattice_normal_form(K, mixed, window=8)
        L, L2 = lattice_normal_form(K, gens), lattice_normal_form(K, mixed)
        assert L.divisors == L2.divisors == (-2, -2, 9)
        assert L.hnf == L2.hnf
        # a window-limited generator gets no retry
        cut = [row[:] for row in mixed]
        cut[2][2] = cut[2][2] + Series(field, 1, order=40, exact=False)
        with pytest.raises(InsufficientPrecision):
            lattice_normal_form(K, cut)

    def test_normal_form_depth2(self, K2):
        t1, t2 = K2.gens()
        gens = [[t1 * t2, K2.zero()], [K2.one(), t1.inv()]]
        L = lattice_normal_form(K2, gens)
        assert L.divisors == (-1, 1)


class TestContains:
    def test_standard_shifts(self, K1):
        L0 = standard_lattice(K1, 2, 0)
        L2 = standard_lattice(K1, 2, 2)
        assert contains(L0, L2)
        assert not contains(L2, L0)

    def test_sandwich(self, K1):
        rng = random.Random(5)
        t = K1.gen(1)
        L5 = standard_lattice(K1, 2, 5)
        Lm5 = standard_lattice(K1, 2, -5)
        for _ in range(30):
            gens = [
                [
                    K1.from_terms({(rng.randint(-4, 4),): K1.field.random_element(rng, 2)})
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            try:
                L = lattice_normal_form(K1, gens)
            except SingularMatrix:
                continue
            if min(L.divisors) >= -5 and max(L.divisors) <= 5:
                assert contains(L, L5)
                assert contains(Lm5, L)

    def test_partial_order(self, K1):
        lats = [standard_lattice(K1, 2, i) for i in (-2, 0, 1, 3)]
        for L in lats:
            assert contains(L, L)
        for Li in lats:
            for Lj in lats:
                if contains(Li, Lj) and contains(Lj, Li):
                    assert Li == Lj
                for Lk in lats:
                    if contains(Li, Lj) and contains(Lj, Lk):
                        assert contains(Li, Lk)


class TestQuotient:
    def test_rank1_dimension(self, K1):
        sigma = LiftingSpec(1)
        L0 = standard_lattice(K1, 1, 0)
        L2 = standard_lattice(K1, 1, 2)
        Qm = quotient_module(L0, L2, sigma)
        assert Qm.dimension == 2
        assert Qm.basis_labels() == [(0, 0), (0, 1)]

    def test_self_quotient(self, K1):
        sigma = LiftingSpec(1)
        L = standard_lattice(K1, 2, 1)
        Qm = quotient_module(L, L, sigma)
        assert Qm.dimension == 0

    def test_rank2_depth(self, K1):
        sigma = LiftingSpec(1)
        L0 = standard_lattice(K1, 2, 0)
        L3 = standard_lattice(K1, 2, 3)
        Qm = quotient_module(L0, L3, sigma)
        assert Qm.dimension == 6

    def test_divisor_gap_dimension(self, K1):
        sigma = LiftingSpec(1)
        t = K1.gen(1)
        gens = [[K1.one(), t], [K1.zero(), t * t]]
        L = lattice_normal_form(K1, gens)  # divisors (0, 2)
        L4 = standard_lattice(K1, 2, 4)
        Qm = quotient_module(L, L4, sigma)
        assert Qm.dimension == (4 - 0) + (4 - 2)

    def test_not_contained(self, K1):
        sigma = LiftingSpec(1)
        L0 = standard_lattice(K1, 1, 0)
        L2 = standard_lattice(K1, 1, 2)
        with pytest.raises(NotContained):
            quotient_module(L2, L0, sigma)

    def test_one_inverse_of_the_hermite_basis(self, K2, monkeypatch):
        # one inversion of L.hnf serves the containment test and the Smith
        # form; the other inverts the adapted basis
        import tlfields.lattices as lattices_module

        t1, t2 = K2.gen(1), K2.gen(2)
        L = lattice_normal_form(K2, [[t1, t2], [K2.zero(), t1 * t1 + t2]])
        L2 = L.shift(2)
        want_M = mat_mul(mat_inv(L.hnf, K2), L2.hnf)
        want_gaps, want_P = lattices_module._smith(K2, [row[:] for row in want_M], None)
        calls = []
        counted = lattices_module.mat_inv
        monkeypatch.setattr(lattices_module, "mat_inv",
                            lambda *a, **k: calls.append(a[0]) or counted(*a, **k))
        Qm = quotient_module(L, L2, LiftingSpec(1))
        assert len(calls) == 2
        assert calls[0] == L.hnf and calls[1] == Qm.adapted
        assert Qm.gaps == tuple(want_gaps) and Qm.dimension == 4
        assert Qm.adapted == mat_mul(L.hnf, want_P)

    def test_reduce_coordinates(self, K2):
        sigma = LiftingSpec(1)
        L0 = standard_lattice(K2, 1, 0)
        L2 = standard_lattice(K2, 1, 2)
        Qm = quotient_module(L0, L2, sigma)
        t2_inner = Series.generator(K2.field, 1, 1)
        x = K2.from_terms({(0, 1): K2.field.one, (1, 0): K2.field.from_int(3)})
        coords = Qm.reduce([x])
        assert coords[(0, 0)] == t2_inner
        assert coords[(0, 1)] == Series.constant(K2.field, 1, K2.field.from_int(3))


class TestRefinement:
    def test_mult_by_pole(self, K1):
        # phi = mult by t^-2 on (L0, L0): shift by 2
        L0 = standard_lattice(K1, 1, 0)
        pair = LatticePair(L0, L0)
        ref = find_refinement(2, pair)
        assert ref.shift == 2
        assert ref.L1p.divisors == (2,)
        assert ref.L2p.divisors == (-2,)
        tinv2 = K1.monomial((-2,))
        assert ref.validate(lambda x: tinv2 * x)

    def test_identity_refinement(self, K1):
        L0 = standard_lattice(K1, 1, 0)
        pair = LatticePair(L0, L0)
        ref = find_refinement(0, pair)
        assert ref.shift == 0
        assert ref.validate(lambda x: x)

    def test_derivative_refinement(self, K2):
        # d/dt1 drops valuation by 1
        L0 = standard_lattice(K2, 1, 0)
        pair = LatticePair(L0, L0)
        ref = find_refinement(1, pair)
        assert ref.shift == 1
        assert ref.validate(lambda x: x.derivative(1))

    def test_no_certificate(self, K1):
        pair = LatticePair(standard_lattice(K1, 1, 0), standard_lattice(K1, 1, 0))
        with pytest.raises(NoCertificate):
            find_refinement(None, pair)

    def test_validates_inclusions(self, K1):
        rng = random.Random(11)
        for _ in range(30):
            i = rng.randint(-2, 2)
            j = rng.randint(-2, 2)
            pair = LatticePair(standard_lattice(K1, 2, i), standard_lattice(K1, 2, j))
            d = rng.randint(0, 3)
            mult = K1.monomial((-d,))
            ref = find_refinement(d, pair)
            assert ref.validate(lambda x: mult * x)


class TestInducedMap:
    def _endo_refinement(self, K, gap):
        # realize an endomorphism of L0 / a^gap L0 as the Def-style shape
        # L1/L1' -> L2'/L2 with L1 = L2' = L0 and L1' = L2 = a^gap L0
        L0 = standard_lattice(K, 1, 0)
        Lg = standard_lattice(K, 1, gap)
        pair = LatticePair(L0, Lg)
        return Refinement(pair, Lg, L0, gap)

    def test_mult_by_t_is_nilpotent_shift(self, K2):
        sigma = LiftingSpec(1)
        ref = self._endo_refinement(K2, 2)
        t1 = K2.gen(1)
        Q1, Q2, entries = induced_quotient_map(lambda x: t1 * x, ref, sigma)
        # only entry ((0,1),(0,0)) should act as identity; (0,0)->(0,0) is zero
        one = Series.one(K2.field, 1)
        img = entries[((0, 1), (0, 0))](one)
        assert img == one
        img0 = entries[((0, 0), (0, 0))](one)
        assert img0.is_exact_zero()
        img2 = entries[((0, 1), (0, 1))](one)  # t * t = t^2 dies in the quotient
        assert img2.is_exact_zero()

    def test_identity_map(self, K2):
        sigma = LiftingSpec(1)
        ref = self._endo_refinement(K2, 2)
        Q1, Q2, entries = induced_quotient_map(lambda x: x, ref, sigma)
        one = Series.one(K2.field, 1)
        for lbl in Q1.basis_labels():
            for out in Q2.basis_labels():
                img = entries[(out, lbl)](one)
                if out == lbl:
                    assert img == one
                else:
                    assert img.is_zero_within_window() or img.is_exact_zero()

    def test_sigma_linear_mult(self, K2):
        # mult by sigma(c) acts diagonally as mult-by-c
        sigma = LiftingSpec(1)
        c = Series.from_terms(K2.field, 1, {(1,): K2.field.from_int(2)})
        lift = sigma.apply(c)
        ref = self._endo_refinement(K2, 1)
        Q1, Q2, entries = induced_quotient_map(lambda x: lift * x, ref, sigma)
        x = Series.from_terms(K2.field, 1, {(0,): K2.field.one, (2,): K2.field.one})
        img = entries[((0, 0), (0, 0))](x)
        assert img == c * x


class TestMatrixHelpers:
    def test_inverse_roundtrip(self, K2):
        rng = random.Random(4)
        for _ in range(10):
            gens = [
                [
                    K2.from_terms(
                        {
                            (rng.randint(-1, 1), rng.randint(-1, 1)): K2.field.random_element(rng, 2)
                        }
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            try:
                inv = mat_inv(gens, K2, window=6)
            except SingularMatrix:
                continue
            prod = mat_mul(gens, inv)
            for i in range(2):
                for j in range(2):
                    target = K2.one() if i == j else K2.zero()
                    assert agree_within_window(prod[i][j], target)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("char, poly", [(0, [0, 1]), (5, [0, 1]), (5, [-2, 0, 1])])
    def test_inverse_is_exact_within_the_window(self, n, char, poly):
        K = TlfDescriptor(n, make_extension(char, poly))
        rng = random.Random(11 * n + char)
        inverted = 0
        for size in (1, 2, 3):
            for _ in range(4):
                A = [[K.random_element(rng, max_terms=2, exp_span=2) for _ in range(size)]
                     for _ in range(size)]
                try:
                    inv = mat_inv(A, K, window=6)
                except (SingularMatrix, InsufficientPrecision):
                    continue
                inverted += 1
                prod = mat_mul(A, inv)
                for i in range(size):
                    for j in range(size):
                        assert agree_within_window(prod[i][j], K.one() if i == j else K.zero())
        assert inverted >= 6

    def test_singular_matrix_raises(self, K2):
        t1, one, zero = K2.gen(1), K2.one(), K2.zero()
        for A in ([[zero]], [[one, t1], [t1, t1 * t1]], [[zero, one], [zero, t1]]):
            with pytest.raises(SingularMatrix):
                mat_inv(A, K2)

    def test_level1_valuation(self, K2):
        assert level1_valuation(K2.zero()) is None
        assert level1_valuation(K2.monomial((-3, 2))) == -3
