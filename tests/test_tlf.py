import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from tlfields.bt_ops import DiffOp
from tlfields.errors import CharacteristicObstruction, LocalFieldError, NotUniformizers
from tlfields.scalars import make_extension
from tlfields.series import Series, agree_within_window, random_series, truncate_level1
from tlfields.tlf import (
    ArtinianQuotient,
    LiftingSpec,
    LiftingSystem,
    TlfDescriptor,
    UniformizerSystem,
    change_of_lifting_matrix,
    differential_order_bounded,
    parametrize,
    sigma_expand,
    sigma_reassemble,
    validate_uniformizers,
)


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def F5():
    return make_extension(5, [0, 1])


@pytest.fixture
def K2(Q):
    return TlfDescriptor(2, Q)


@pytest.fixture
def K2_F5(F5):
    return TlfDescriptor(2, F5)


class TestDescriptor:
    @pytest.mark.parametrize("window", [0, -3, None, 2.5])
    def test_window_below_one_rejected(self, Q, window):
        with pytest.raises(LocalFieldError):
            TlfDescriptor(2, Q, window)

    def test_window_one_accepted(self, Q):
        assert TlfDescriptor(2, Q, 1).window == 1


class TestValidateUniformizers:
    def test_standard_valid(self, K2):
        sys_ = validate_uniformizers(K2, K2.gens())
        assert sys_.valuations == ((1, 0), (0, 1))

    def test_square_rejected(self, K2):
        t1, t2 = K2.gens()
        with pytest.raises(NotUniformizers) as ei:
            validate_uniformizers(K2, [t1 * t1, t2])
        assert ei.value.level == 1

    def test_sum_rejected(self, K2):
        t1, t2 = K2.gens()
        with pytest.raises(NotUniformizers) as ei:
            validate_uniformizers(K2, [t1 + t2, t2])
        assert ei.value.level == 1

    def test_perturbed_valid(self, K2):
        t1, t2 = K2.gens()
        one = K2.one()
        validate_uniformizers(K2, [t1 * (one + t2), t2 + t1])


class TestParametrize:
    def test_identity(self, K2):
        iso = parametrize(K2, UniformizerSystem.standard(K2))
        x = K2.from_terms({(1, -2): K2.field.from_int(3)})
        assert iso.forward(x) == x
        assert iso.inverse(x) == x

    def test_forward_definition(self, K2):
        t1, t2 = K2.gens()
        a1 = t1 * (K2.one() + t2)
        iso = parametrize(K2, [a1, t2])
        assert iso.forward(t1) == a1

    @pytest.mark.parametrize("char", [0, 5])
    def test_roundtrip_random(self, char):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(2, field, window=7)
        rng = random.Random(17)
        t1, t2 = K.gens()
        one = K.one()
        a1 = t1 * (one + t2) + t1 ** 2 * t2
        a2 = t2 + t1 * t2
        iso = parametrize(K, [a1, a2])
        for _ in range(50):
            x = random_series(field, 2, rng, max_terms=3, exp_span=2)
            y = iso.inverse(iso.forward(x))
            assert agree_within_window(y - x, K.zero())

    def test_valuation_preserved(self, K2):
        t1, t2 = K2.gens()
        iso = parametrize(K2, [t1 * (K2.one() + t2), t2 + t1 * t1])
        for exps in [(0, 1), (2, -1), (-1, 3), (1, 0)]:
            assert iso.forward(K2.monomial(exps)).valuation() == exps


class TestLiftings:
    def test_standard_apply(self, K2):
        t2_inner = Series.generator(K2.field, 1, 1)
        sigma = LiftingSpec(1)
        lifted = sigma.apply(t2_inner)
        assert lifted == K2.gen(2)

    def test_twisted_on_t2(self, K2):
        # sigma(t2) = t2 + t1 for the depth-1 twist by d/dt2 with c = 1
        sigma = LiftingSpec(1, "twisted", axis=2, depth=1)
        t2_inner = Series.generator(K2.field, 1, 1)
        lifted = sigma.apply(t2_inner)
        t1, t2 = K2.gens()
        assert lifted == t2 + t1

    def test_twisted_on_t2_squared(self, K2):
        # multiplicativity: sigma(t2^2) = t2^2 + 2 t1 t2 + t1^2
        sigma = LiftingSpec(1, "twisted", axis=2, depth=2)
        t2_inner = Series.generator(K2.field, 1, 1)
        lifted = sigma.apply(t2_inner * t2_inner)
        t1, t2 = K2.gens()
        expected = t2 * t2 + t1 * t2 * 2 + t1 * t1
        assert lifted == expected
        # depth-1 truncation agrees modulo t1^2
        sigma1 = LiftingSpec(1, "twisted", axis=2, depth=1)
        lift1 = sigma1.apply(t2_inner * t2_inner)
        assert truncate_level1(lift1 - expected, 2).is_zero_within_window()

    def test_hom_property_random(self, K2):
        rng = random.Random(3)
        c = Series.from_terms(K2.field, 1, {(1,): K2.field.one})
        sigma = LiftingSpec(1, "twisted", axis=2, c=c, depth=3)
        assert sigma.verify_homomorphism(K2, rng, trials=10)

    def test_char_p_depth_limit(self, K2_F5):
        with pytest.raises(CharacteristicObstruction):
            LiftingSystem.twisted_at(K2_F5, 1, 2, depth=5)
        LiftingSystem.twisted_at(K2_F5, 1, 2, depth=4)

    @pytest.mark.parametrize("depth", [-1, 2.5, None])
    def test_bad_twist_depth_rejected(self, depth):
        with pytest.raises(LocalFieldError):
            LiftingSpec(1, "twisted", axis=2, depth=depth)

    def test_twist_depth_zero_is_standard(self, K2):
        sigma = LiftingSpec(1, "twisted", axis=2, depth=0)
        x = Series.from_terms(K2.field, 1, {(-1,): K2.field.one, (2,): K2.field.from_int(3)})
        assert sigma.apply(x) == LiftingSpec(1).apply(x)

    def test_d1(self, Q):
        K3 = TlfDescriptor(3, Q)
        sys_ = LiftingSystem.twisted_at(K3, 2, 3, depth=1)
        reduced = sys_.d1()
        assert reduced.descriptor.n == 2
        assert reduced.specs[0].kind == "twisted"
        assert reduced.specs[0].axis == 2

    def test_json_roundtrip(self, K2):
        c = Series.from_terms(K2.field, 1, {(0,): K2.field.one})
        spec = LiftingSpec(1, "twisted", axis=2, c=c, depth=2)
        data = spec.to_json()
        back = LiftingSpec.from_json(K2, data)
        assert back.kind == "twisted" and back.axis == 2 and back.depth == 2
        assert back.c == c


class TestSigmaExpand:
    def test_standard_split(self, K2):
        t1, t2 = K2.gens()
        x = t1 + t2
        sigma = LiftingSpec(1)
        pairs = sigma_expand(x, sigma)
        by_q = {q: b for b, q in pairs}
        t2_inner = Series.generator(K2.field, 1, 1)
        assert by_q[0] == t2_inner
        assert by_q[1] == Series.one(K2.field, 1)

    def test_roundtrip_standard(self, K2):
        rng = random.Random(9)
        sigma = LiftingSpec(1)
        a1 = K2.gen(1)
        for _ in range(30):
            x = random_series(K2.field, 2, rng)
            pairs = sigma_expand(x, sigma)
            back = sigma_reassemble(pairs, sigma, a1, 2, K2.field)
            assert back == x

    def test_twisted_example(self, K2):
        # x = t2 under the twist by d/dt2, c=1: b_0 = t2, b_1 = -1, rest 0
        sigma = LiftingSpec(1, "twisted", axis=2, depth=3)
        x = K2.gen(2)
        pairs = sigma_expand(x, sigma)
        by_q = {q: b for b, q in pairs}
        t2_inner = Series.generator(K2.field, 1, 1)
        assert by_q[0] == t2_inner
        assert by_q[1] == -Series.one(K2.field, 1)
        assert set(by_q) == {0, 1}

    def test_roundtrip_twisted(self, K2):
        # the full expansion is infinite; agreement holds on the window covered
        rng = random.Random(29)
        sigma = LiftingSpec(1, "twisted", axis=2, depth=4)
        a1 = K2.gen(1)
        for _ in range(20):
            x = random_series(K2.field, 2, rng, max_terms=3, exp_span=2)
            pairs = sigma_expand(x, sigma, window=8)
            back = sigma_reassemble(pairs, sigma, a1, 2, K2.field)
            stop = x.order + 8
            diff = truncate_level1(back - x, stop)
            assert diff.is_zero_within_window()

    def test_nonstandard_uniformizer(self, K2):
        rng = random.Random(31)
        sigma = LiftingSpec(1)
        t1, t2 = K2.gens()
        a1 = t1 * (K2.one() + t2)
        for _ in range(15):
            x = random_series(K2.field, 2, rng, max_terms=3, exp_span=2)
            pairs = sigma_expand(x, sigma, a1, window=8)
            back = sigma_reassemble(pairs, sigma, a1, 2, K2.field)
            stop = x.order + 8
            diff = truncate_level1(back - x, stop)
            assert diff.is_zero_within_window()


class TestChangeOfLifting:
    @pytest.mark.parametrize("char", [5, 0])
    def test_unit_upper_triangular(self, char):
        field = make_extension(char, [0, 1])
        K = TlfDescriptor(2, field)
        A = ArtinianQuotient(K, 2)  # O_1/m_1^3
        std = LiftingSpec(1)
        twist = LiftingSpec(1, "twisted", axis=2, depth=2)
        mat = change_of_lifting_matrix(A, std, twist)
        t2 = Series.generator(field, 1, 1)
        probes = [Series.one(field, 1), t2, t2 * t2, t2.inv(), t2 + t2 * t2]
        assert mat.is_unit_upper_triangular(probes)

    def test_first_order_entry(self, Q):
        # entry (0,1) should be -d/dt2: double commutator with mult-by-t2 vanishes
        K = TlfDescriptor(2, Q)
        A = ArtinianQuotient(K, 2)
        std = LiftingSpec(1)
        twist = LiftingSpec(1, "twisted", axis=2, depth=2)
        mat = change_of_lifting_matrix(A, std, twist)
        t2 = Series.generator(Q, 1, 1)
        probes = [Series.one(Q, 1), t2, t2 * t2, t2.inv()]
        mults = [t2, t2 * t2, Series.one(Q, 1) + t2]
        entry = mat.entries[0][1]
        # acts as -(d/dt2): on t2^2 gives -2 t2
        img = entry(t2 * t2)
        assert img == t2.scalar_mul(Q.from_int(-2))
        assert differential_order_bounded(entry, 1, probes, mults)
        assert not differential_order_bounded(entry, 0, probes, mults)

    def test_same_lifting_identity(self, Q):
        K = TlfDescriptor(2, Q)
        A = ArtinianQuotient(K, 2)
        std = LiftingSpec(1)
        mat = change_of_lifting_matrix(A, std, std)
        t2 = Series.generator(Q, 1, 1)
        probes = [Series.one(Q, 1), t2, t2.inv()]
        for i in range(3):
            for j in range(3):
                for p in probes:
                    img = mat.entries[i][j](p)
                    if i == j:
                        assert img == p
                    else:
                        assert img.is_zero_within_window()

    def test_neumann_inverse(self, Q):
        K = TlfDescriptor(2, Q)
        A = ArtinianQuotient(K, 2)
        std = LiftingSpec(1)
        twist = LiftingSpec(1, "twisted", axis=2, depth=2)
        mat = change_of_lifting_matrix(A, std, twist)
        inv = mat.neumann_inverse()
        t2 = Series.generator(Q, 1, 1)
        coords = [t2, Series.one(Q, 1), t2 * t2]
        forward = mat.apply_to_coordinates(coords)
        back = inv.apply_to_coordinates(forward)
        for orig, got in zip(coords, back):
            assert agree_within_window(orig - got, Series.zero(Q, 1))

    def test_reassembly_consistency(self, Q):
        # sum sigma(a_i) m_i = sum sigma'(gamma coords) m_i as elements of A
        K = TlfDescriptor(2, Q)
        A = ArtinianQuotient(K, 2)
        std = LiftingSpec(1)
        twist = LiftingSpec(1, "twisted", axis=2, depth=2)
        mat = change_of_lifting_matrix(A, std, twist)
        basis = A.standard_basis()
        rng = random.Random(8)
        for _ in range(10):
            coords = [random_series(Q, 1, rng, max_terms=2, exp_span=2) for _ in range(3)]
            lhs = K.zero()
            for c, m in zip(coords, basis):
                lhs = lhs + std.apply(c) * m
            new_coords = mat.apply_to_coordinates(coords)
            rhs = K.zero()
            for c, m in zip(new_coords, basis):
                rhs = rhs + twist.apply(c) * m
            assert agree_within_window(A.reduce(lhs) - A.reduce(rhs), K.zero())


def _nested_commutator_reference(op, order, probes, multipliers):
    """The nested-commutator check built one commutator at a time, as the
    definition reads: [phi, a](x) = phi(a x) - a phi(x), over every ordered
    tuple of multipliers."""

    def commutator(phi, a):
        return lambda x: phi(a * x) - a * phi(x)

    def check(phi, depth_left):
        if depth_left == 0:
            return all(phi(p).is_zero_within_window() for p in probes)
        return all(check(commutator(phi, a), depth_left - 1) for a in multipliers)

    return check(op, order + 1)


def _inclusion_exclusion_reference(op, order, probes, multipliers):
    """The commutator test by inclusion-exclusion: [..[op, a_1], ..., a_k]
    expands into sum_S (-1)^(k-|S|) (prod_{i not in S} a_i) op(prod_{i in S} a_i x),
    equal sub-multisets S summed with their multiplicity and op(a_S p)
    computed once per probe."""
    k = order + 1

    def times(x, i):
        return multipliers[i] * x

    for p in probes:
        images = {}  # sorted multiplier indices S -> op(a_S p)
        for combo in combinations_with_replacement(range(len(multipliers)), k):
            counts = Counter(combo)
            total = Series.zero(p.field, p.depth)
            for kept in product(*(range(c + 1) for c in counts.values())):
                S = tuple(i for i, s in zip(counts, kept) for _ in range(s))
                if S not in images:
                    images[S] = op(reduce(times, S, p))
                rest = [i for i, s in zip(counts, kept) for _ in range(counts[i] - s)]
                multiplicity = prod(comb(c, s) for c, s in zip(counts.values(), kept))
                term = reduce(times, rest, images[S])
                total = total + term.scalar_mul((-1) ** len(rest) * multiplicity)
            if not total.is_zero_within_window():
                return False
    return True


def _lifting_pair(forward):
    std = LiftingSpec(1)
    twist = LiftingSpec(1, "twisted", axis=2, depth=2)
    return (std, twist) if forward else (twist, std)


class TestChangeOfLiftingRewrite:
    """Guards for the entries as plain functions, the reverse-solve inverse and
    the inclusion-exclusion commutator check."""

    @pytest.mark.parametrize("char", [0, 5])
    @pytest.mark.parametrize("exponent", [1, 2])
    @pytest.mark.parametrize("forward", [True, False], ids=["std-twist", "twist-std"])
    def test_order_check_matches_nested_reference(self, char, exponent, forward):
        field = make_extension(char, [0, 1])
        A = ArtinianQuotient(TlfDescriptor(2, field), exponent)
        mat = change_of_lifting_matrix(A, *_lifting_pair(forward))
        t2 = Series.generator(field, 1, 1)
        one = Series.one(field, 1)
        probes = [one, t2, t2 * t2, t2.inv()]
        mults = [t2, t2 * t2, one + t2]
        seen = set()
        for i in range(mat.rank):
            for j in range(mat.rank):
                for order in range(mat.rank):
                    entry = mat.entries[i][j]
                    expected = _nested_commutator_reference(entry, order, probes, mults)
                    assert differential_order_bounded(entry, order, probes, mults) == expected
                    assert _inclusion_exclusion_reference(entry, order, probes, mults) == expected
                    seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("exponent", [1, 2, 3])
    @pytest.mark.parametrize("forward", [True, False], ids=["std-twist", "twist-std"])
    @pytest.mark.parametrize("basis_kind", ["standard", "filtered"])
    def test_neumann_inverse_two_sided(self, Q, exponent, forward, basis_kind):
        K = TlfDescriptor(2, Q)
        A = ArtinianQuotient(K, exponent)
        t1, t2 = K.gens()
        basis = None
        if basis_kind == "filtered":
            basis = [t1 ** i * (K.one() + t2 * t1) for i in range(exponent + 1)]
        mat = change_of_lifting_matrix(A, *_lifting_pair(forward), basis=basis)
        gamma, theta = mat.entries, mat.neumann_inverse().entries
        s = Series.generator(Q, 1, 1)
        probes = [Series.one(Q, 1), s, s * s + s.inv()]
        r = exponent + 1
        # coordinates change as c'_j = sum_i gamma[i][j](c_i), so entry (i, j)
        # of a composite applies first[i][k] and then second[k][j]
        for first, second in ((gamma, theta), (theta, gamma)):
            for i in range(r):
                for j in range(r):
                    for p in probes:
                        total = Series.zero(Q, 1)
                        for k in range(r):
                            total = total + second[k][j](first[i][k](p))
                        expected = p if i == j else Series.zero(Q, 1)
                        assert (total - expected).is_zero_within_window(), (i, j, p)


FIELDS = [make_extension(0, [0, 1]), make_extension(5, [0, 1])]
PROPERTY = settings(max_examples=24, deadline=None, derandomize=True, database=None)


def _nonzero(field):
    return st.sampled_from([-2, -1, 1, 2]).map(field.from_int)


@st.composite
def _filtered_case(draw):
    """A random filtered basis of O_1/m^(l+1) at n = 2, l = 1 or 2: m_i is
    u t1^i t2^a with a unit u, plus up to two terms of higher t1-degree; and a
    twisted lifting with a random coefficient c in k_1, on either side."""
    field = draw(st.sampled_from(FIELDS))
    K = TlfDescriptor(2, field)
    l = draw(st.integers(1, 2))
    basis = []
    for i in range(l + 1):
        terms = {(i, draw(st.integers(-1, 1))): draw(_nonzero(field))}
        higher = st.tuples(st.integers(i + 1, l + 1), st.integers(-1, 1))
        terms.update(draw(st.dictionaries(higher, _nonzero(field), max_size=2)))
        basis.append(K.from_terms(terms))
    c = Series.from_terms(field, 1, draw(st.dictionaries(
        st.tuples(st.integers(-1, 1)), _nonzero(field), min_size=1, max_size=2)))
    twist = LiftingSpec(1, "twisted", axis=2, c=c, depth=draw(st.integers(1, 2)))
    pair = (LiftingSpec(1), twist) if draw(st.booleans()) else (twist, LiftingSpec(1))
    return ArtinianQuotient(K, l), pair, basis


def _probes_and_mults(field):
    t2, one = Series.generator(field, 1, 1), Series.one(field, 1)
    return [one, t2, t2 * t2, t2.inv()], [t2, t2 * t2, one + t2]


class TestDerivedOrders:
    """The orders a LiftingMatrix derives from its liftings, held against the
    probe-based commutator test."""

    @PROPERTY
    @given(_filtered_case())
    def test_derived_orders_pass_the_commutator_test(self, case):
        A, (sigma, sigma_prime), basis = case
        mat = change_of_lifting_matrix(A, sigma, sigma_prime, basis=basis)
        probes, mults = _probes_and_mults(A.descriptor.field)
        for i in range(mat.rank):
            for j in range(mat.rank):
                if j < i:
                    assert mat.orders[i][j] is None
                else:
                    assert 0 <= mat.orders[i][j] <= j - i
        assert mat.unit_triangular
        assert mat.is_unit_upper_triangular(probes)
        assert mat.orders_hold(probes, mults)

    @pytest.mark.parametrize("c", [1, -2])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
    def test_bound_one_below_the_closed_form_fails(self, field, l, c):
        # for the standard basis and a constant twist coefficient c,
        # gamma_{i,i+n} = (-D)^n / n! with D = c d/dt2, of order exactly n
        A = ArtinianQuotient(TlfDescriptor(2, field), l)
        twist = LiftingSpec(1, "twisted", axis=2, c=Series.constant(field, 1, field.from_int(c)),
                            depth=2)
        mat = change_of_lifting_matrix(A, LiftingSpec(1), twist)
        probes, mults = _probes_and_mults(field)
        for i in range(mat.rank):
            for j in range(i + 1, mat.rank):
                n = j - i
                entry = mat.entries[i][j]
                for p in probes:
                    closed = p
                    for _ in range(n):
                        closed = -(closed.derivative(1).scalar_mul(field.from_int(c)))
                    closed = closed.scalar_mul(field.from_fraction(Fraction(1, factorial(n))))
                    assert agree_within_window(entry(p) - closed, Series.zero(field, 1))
                assert mat.orders[i][j] == n
                assert not differential_order_bounded(entry, n - 1, probes, mults)
                right = mat.orders[i][j]
                mat.orders[i][j] = n - 1
                assert not mat.orders_hold(probes, mults)
                mat.orders[i][j] = right
        assert mat.orders_hold(probes, mults)


ENTRY_FIELDS = [make_extension(char, [0, 1]) for char in (0, 3, 5)]
ENTRY_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def _k1_element(draw, field, m, max_size=2):
    """A random exact nonzero element of k_1 = k((t_2, ..., t_n)), m = n - 1."""
    exps = st.tuples(*[st.integers(-1, 1)] * m)
    return Series.from_terms(field, m, draw(st.dictionaries(
        exps, _nonzero(field), min_size=1, max_size=max_size)))


@st.composite
def _lifting_case(draw, n, l):
    """A change-of-lifting matrix of O_1/m^(l+1) at dimension n over Q, F_3 or
    F_5: the standard basis or a random filtered one (m_i a unit times t1^i
    plus up to two terms of higher t1-degree), and a twisted lifting of depth
    0..min(3, p - 1) along a random axis with a random coefficient, on either
    side; and a seed for the probes."""
    field = draw(st.sampled_from(ENTRY_FIELDS))
    K = TlfDescriptor(n, field)
    basis = None
    if draw(st.booleans()):
        basis = []
        for i in range(l + 1):
            unit = _k1_element(draw, field, n - 1, max_size=1)
            terms = {(i,) + e: c for e, c in unit.known_terms()}
            higher = st.tuples(st.integers(i + 1, l + 1), *[st.integers(-1, 1)] * (n - 1))
            terms.update(draw(st.dictionaries(higher, _nonzero(field), max_size=2)))
            basis.append(K.from_terms(terms))
    top = 3 if field.char == 0 else min(3, field.char - 1)
    twist = LiftingSpec(1, "twisted", axis=draw(st.integers(2, n)),
                        c=_k1_element(draw, field, n - 1), depth=draw(st.integers(0, top)))
    pair = (LiftingSpec(1), twist) if draw(st.booleans()) else (twist, LiftingSpec(1))
    return ArtinianQuotient(K, l), pair, basis, draw(st.integers(0, 2 ** 16))


class TestFittedEntries:
    """Entries as DiffOps fitted to the triangular solve, which stays the
    reference: LiftingMatrix.solve."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    @ENTRY_PROPERTY
    @given(data=st.data())
    def test_entries_equal_the_solve(self, n, l, data):
        A, pair, basis, seed = data.draw(_lifting_case(n, l))
        mat = change_of_lifting_matrix(A, *pair, basis=basis)
        res = A.descriptor.residue_descriptor()
        rng = random.Random(seed)
        probes = []
        while len(probes) < 4:
            p = random_series(res.field, res.n, rng, max_terms=3, exp_span=2)
            if not p.is_exact_zero():
                probes += [p, truncate_level1(p, p.order + rng.randint(1, 3))]
        for p in probes:
            for i in range(mat.rank):
                coords = mat.solve(i, p)
                for j in range(mat.rank):
                    entry = mat.entries[i][j]
                    assert isinstance(entry, DiffOp)
                    assert agree_within_window(entry(p), coords[j]), (i, j, p)
                    if mat.orders[i][j] is None:
                        assert entry.terms == ()
                    else:
                        assert all(sum(I) <= mat.orders[i][j] for _, I in entry.terms)

    @pytest.mark.parametrize("field", ENTRY_FIELDS[1:], ids=["F3", "F5"])
    def test_closed_form_in_char_p(self, field):
        # gamma_{0,n} = (-c d)^n / n! = (-c)^n d^[n] for a constant c, order
        # n >= p included: one divided-power term
        A = ArtinianQuotient(TlfDescriptor(2, field), 4)
        c = field.from_int(2)
        twist = LiftingSpec(1, "twisted", axis=2, c=Series.constant(field, 1, c),
                            depth=field.char - 1)
        mat = change_of_lifting_matrix(A, LiftingSpec(1), twist)
        for n in range(field.char):
            (coefficient, I), = mat.entries[0][n].terms
            assert I == (n,) and coefficient == Series.constant(field, 1, (-c) ** n)

    def test_wrong_order_bound_raises(self, Q, monkeypatch):
        # claim every twisted component of order 0: entry (0, 1), of order 1,
        # then disagrees with the solve on the layer |beta| = 1
        monkeypatch.setattr(LiftingSpec, "component_order", lambda self, k: (
            0 if k == 0 or (not self.is_standard() and k <= self.depth) else None))
        A = ArtinianQuotient(TlfDescriptor(2, Q), 2)
        twist = LiftingSpec(1, "twisted", axis=2, depth=2)
        with pytest.raises(LocalFieldError, match=r"entry \(0, 1\) is not of order <= 0"):
            change_of_lifting_matrix(A, LiftingSpec(1), twist)


ORDER_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _operator_of_order(draw):
    """A random exact DiffOp of order exactly d = 1..3 on k((t1)) or
    k((t1, t2)) over Q, F_3 or F_5: one term of order d with a nonzero
    coefficient, and up to two of lower order."""
    field = draw(st.sampled_from(ENTRY_FIELDS))
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 3))
    first = draw(st.integers(0, d)) if n == 2 else d
    lead = (first, d - first)[:n]
    lower = st.tuples(*[st.integers(0, d - 1)] * n).filter(lambda I: sum(I) < d)
    orders = [lead] + draw(st.lists(lower, max_size=2))
    K = TlfDescriptor(n, field)
    return DiffOp(K, [(_k1_element(draw, field, n), I) for I in orders]), d


class TestCommutatorRecurrence:
    """differential_order_bounded against the inclusion-exclusion it replaced."""

    @ORDER_PROPERTY
    @given(_operator_of_order())
    def test_order_exactly_and_one_above(self, case):
        op, d = case
        K = op.descriptor
        t = K.gens()
        probes = [K.one(), t[-1], t[0].inv() + t[-1] * t[-1]]
        mults = [t[0], t[-1], K.one() + t[0] * t[-1]]
        for order, expected in ((d, True), (d - 1, False)):
            assert differential_order_bounded(op, order, probes, mults) is expected
            assert _inclusion_exclusion_reference(op, order, probes, mults) is expected

    @pytest.mark.parametrize("order, images, nodes", [(0, 4, 3), (1, 10, 15), (2, 20, 45)])
    def test_evaluation_counts(self, Q, monkeypatch, order, images, nodes):
        """With 3 multipliers and k = order + 1: op runs once on each a_S p,
        |S| <= k, that is C(3 + k, k) times, each a_S p costs one product, and
        each memoised node (T, S) one product and one difference.  The
        inclusion-exclusion took 84 products and 56 sums at order 2."""
        t, one = Series.generator(Q, 1, 1), Series.one(Q, 1)
        mults = [t, t * t, one + t]
        counts = Counter()

        def counting(name):
            method = getattr(Series, name)

            def wrapped(self, other):
                counts[name] += 1
                return method(self, other)

            return wrapped

        for name in ("__mul__", "__sub__"):
            monkeypatch.setattr(Series, name, counting(name))

        def op(x):
            counts["op"] += 1
            return x.divided_derivative(1, order)

        assert differential_order_bounded(op, order, [one + t.inv()], mults)
        assert counts == {"op": images, "__sub__": nodes, "__mul__": nodes + images - 1}
        assert images == comb(3 + order + 1, order + 1)
