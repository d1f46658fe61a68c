import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tlfields.errors import (
    DivisionByZero,
    IndeterminateValuation,
    InsufficientPrecision,
    LocalFieldError,
    NotUniformizers,
)
import tlfields.series as series_module
from tlfields.scalars import ExtScalar, make_extension
from tlfields.series import (
    Series,
    _compose_1d,
    _convolve,
    _invert,
    _kronecker_product,
    _mul_window,
    _packed_invert,
    _pad,
    agree_within_window,
    check_uniformizer_valuations,
    newton_inverse_1d,
    part_level1,
    random_series,
    truncate_box,
    truncate_level1,
    truncate_lex,
)


@pytest.fixture
def Q():
    return make_extension(0, [0, 1])


@pytest.fixture
def F5():
    return make_extension(5, [0, 1])


def S(field, depth, terms):
    return Series.from_terms(field, depth, terms)


PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# the proper extensions: F25, F8, Q(i), Q(cbrt 2), non-integral m(x)
PACKED_FIELDS = [
    make_extension(5, [-2, 0, 1]),
    make_extension(2, [1, 1, 0, 1]),
    make_extension(0, [1, 0, 1]),
    make_extension(0, [-2, 0, 0, 1]),
    make_extension(0, [Fraction(1, 2), 0, Fraction(3, 4), 1]),
]

# QQ and F_5 (the degree-1 paths) and the proper extensions
KERNEL_FIELDS = [make_extension(0, [0, 1]), make_extension(5, [0, 1])] + PACKED_FIELDS


def _scalar(field):
    if field.char:
        raw = st.integers(0, field.char - 1)
    else:
        raw = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.tuples(*[raw] * field.degree).map(lambda c: ExtScalar(field, c))


def _depth_one(field, exact=None):
    """A depth-1 series with up to six stored coefficients, some of them zero."""
    exactness = st.booleans() if exact is None else st.just(exact)
    return st.builds(
        lambda order, values, ex: Series(
            field, 1, order=order, coeffs=[Series(field, 0, scalar=v) for v in values],
            exact=ex,
        ),
        st.integers(-3, 3),
        st.lists(st.one_of(st.just(field.zero), _scalar(field)), min_size=1, max_size=6),
        exactness,
    )


@st.composite
def _depth_one_pair(draw, first_exact=None):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    return field, draw(_depth_one(field, first_exact)), draw(_depth_one(field))


class TestNormalForm:
    def test_canonical_zero(self, Q):
        z = S(Q, 2, {})
        assert z.is_exact_zero()
        assert z.order == 0 and z.coeffs == ()

    def test_leading_zero_stripped(self, Q):
        x = S(Q, 1, {(2,): Q.from_int(3)})
        assert x.order == 2
        assert len(x.coeffs) == 1

    def test_cancellation_keeps_window(self, Q):
        x = truncate_level1(S(Q, 1, {(0,): Q.one}), 4)
        d = x - x
        # visible coefficients cancel; tail stays unknown
        assert not d.is_exact_zero()
        assert d.is_zero_within_window()
        assert d.coefficient_at((3,)) == Q.zero
        with pytest.raises(InsufficientPrecision):
            d.coefficient_at((4,))

    def test_exact_cancellation_is_zero(self, Q):
        x = S(Q, 1, {(0,): Q.one, (3,): Q.from_int(2)})
        assert (x - x).is_exact_zero()


class TestArithmetic:
    def test_product_one_plus_t_one_minus_t(self, Q):
        t = Series.generator(Q, 1, 1)
        one = Series.one(Q, 1)
        prod = (one + t) * (one - t)
        assert prod == one - t * t

    def test_geometric_inverse(self, Q):
        t = Series.generator(Q, 1, 1)
        inv = (Series.one(Q, 1) - t).inv(6)
        for k in range(6):
            assert inv.coefficient_at((k,)) == Q.one
        with pytest.raises(InsufficientPrecision):
            inv.coefficient_at((6,))

    def test_inverse_with_pole(self, Q):
        # inv(t^-1 (1+t)) checked by multiplying back: product = 1 within window
        t = Series.generator(Q, 1, 1)
        x = t.inv() * (Series.one(Q, 1) + t)
        xi = x.inv(7)
        assert agree_within_window(x * xi, Series.one(Q, 1))
        # t - t^2 + t^3 - ...
        assert xi.coefficient_at((1,)) == Q.one
        assert xi.coefficient_at((2,)) == Q.from_int(-1)
        assert xi.coefficient_at((3,)) == Q.one

    def test_monomial_inverse_exact(self, Q):
        x = Series.monomial(Q, 2, (2, -3), Q.from_int(4))
        xi = x.inv()
        assert xi.is_exact_zero() is False
        assert (x * xi) == Series.one(Q, 2)

    def test_inverse_of_zero(self, Q):
        with pytest.raises(DivisionByZero):
            Series.zero(Q, 1).inv()

    @pytest.mark.parametrize("window", [0, -3, 2.0])
    def test_inverse_rejects_a_window_below_one(self, Q, window):
        t = Series.generator(Q, 1, 1)
        t1, t2 = Series.generator(Q, 2, 1), Series.generator(Q, 2, 2)
        message = f"precision window must be an integer >= 1, got {window!r}"
        for x in (Series.one(Q, 1) + t, t1 * (Series.one(Q, 2) + t2)):
            with pytest.raises(LocalFieldError, match=re.escape(message)):
                x.inv(window)
            with pytest.raises(LocalFieldError, match=re.escape(message)):
                x.__pow__(-2, window)

    def test_inverse_indeterminate_leading(self, Q):
        x = truncate_level1(S(Q, 1, {(0,): Q.one}), 3)
        y = x - x  # O(t^3), leading unknown
        with pytest.raises(InsufficientPrecision):
            y.inv()

    def test_char_p_arithmetic(self, F5):
        t = Series.generator(F5, 1, 1)
        x = (Series.one(F5, 1) + t) ** 5
        # (1+t)^5 = 1 + t^5 mod 5
        assert x == Series.one(F5, 1) + t ** 5

    @pytest.mark.parametrize("depth,cases", [(1, 500), (2, 350), (3, 200)])
    def test_ring_axioms(self, Q, F5, depth, cases):
        rng = random.Random(100 + depth)
        for i in range(cases):
            field = Q if i % 2 == 0 else F5
            x = random_series(field, depth, rng, exact=(i % 3 != 0))
            y = random_series(field, depth, rng, exact=(i % 5 != 0))
            z = random_series(field, depth, rng)
            assert agree_within_window((x + y) + z, x + (y + z))
            assert agree_within_window(x + y, y + x)
            assert agree_within_window(x * y, y * x)
            assert agree_within_window((x * y) * z, x * (y * z))
            assert agree_within_window(x * (y + z), x * y + x * z)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_valuation_additive(self, Q, depth):
        rng = random.Random(7 + depth)
        for _ in range(200):
            x = random_series(Q, depth, rng)
            y = random_series(Q, depth, rng)
            if x.is_exact_zero() or y.is_exact_zero():
                continue
            vx, vy = x.valuation(), y.valuation()
            assert (x * y).valuation() == tuple(a + b for a, b in zip(vx, vy))

    def test_two_sided_inverse_within_window(self, Q):
        rng = random.Random(11)
        one = Series.one(Q, 2)
        for _ in range(60):
            x = random_series(Q, 2, rng)
            if x.is_exact_zero():
                continue
            try:
                xi = x.inv(5)
            except InsufficientPrecision:
                continue
            assert agree_within_window(x * xi, one)
            assert agree_within_window(xi * x, one)


class TestValuation:
    def test_monomial(self, Q):
        x = Series.monomial(Q, 2, (2, -3))
        assert x.valuation() == (2, -3)

    def test_one(self, Q):
        assert Series.one(Q, 3).valuation() == (0, 0, 0)

    def test_t1_plus_t2(self, Q):
        # in k((t2))((t1)) the t1^0 coefficient is t2 != 0
        x = S(Q, 2, {(1, 0): Q.one, (0, 1): Q.one})
        assert x.valuation() == (0, 1)

    def test_indeterminate(self, Q):
        x = truncate_level1(S(Q, 1, {(0,): Q.one}), 3)
        with pytest.raises(IndeterminateValuation):
            (x - x).valuation()


class TestCoefficientAt:
    def test_monomial(self, Q):
        x = Series.monomial(Q, 2, (-1, -1))
        assert x.coefficient_at((-1, -1)) == Q.one
        assert x.coefficient_at((0, 0)) == Q.zero

    def test_geometric(self, Q):
        t = Series.generator(Q, 1, 1)
        inv = (Series.one(Q, 1) - t).inv(7)
        assert inv.coefficient_at((5,)) == Q.one

    def test_outside_window(self, Q):
        t = Series.generator(Q, 1, 1)
        inv = (Series.one(Q, 1) - t).inv(4)
        with pytest.raises(InsufficientPrecision):
            inv.coefficient_at((4,))


class TestDerivative:
    def test_basic(self, Q):
        x = Series.monomial(Q, 2, (2, 1))
        d = x.derivative(1)
        assert d == Series.monomial(Q, 2, (1, 1), 2)

    def test_char_p_kernel(self, F5):
        x = Series.monomial(F5, 1, (5,))
        assert x.derivative(1).is_exact_zero()

    def test_termwise_oracle(self, Q):
        # d/dt2 of sum_{j>=1} t2^j equals sum j t2^{j-1}, checked termwise
        b = S(Q, 2, {(0, j): Q.one for j in range(1, 7)})
        db = b.derivative(2)
        for j in range(1, 7):
            assert db.coefficient_at((0, j - 1)) == Q.from_int(j)

    def test_window_shift(self, Q):
        x = truncate_level1(S(Q, 1, {(0,): Q.one, (3,): Q.one}), 5)
        d = x.derivative(1)
        assert d.end == 4  # exponent shift by -1, same width


class TestSubstitute:
    def test_identity(self, Q):
        x = S(Q, 2, {(1, -2): Q.from_int(3), (-1, 0): Q.one})
        gens = [Series.generator(Q, 2, i) for i in (1, 2)]
        assert x.substitute(gens) == x

    def test_shift_into_pole(self, Q):
        # t -> t + t^2 applied to t^-1; verify by multiplying back
        t = Series.generator(Q, 1, 1)
        a = t + t * t
        img = t.inv().substitute([a], window=8)
        assert agree_within_window(img * a, Series.one(Q, 1))
        assert img.coefficient_at((-1,)) == Q.one
        assert img.coefficient_at((0,)) == Q.from_int(-1)

    def test_two_level(self, Q):
        t1 = Series.generator(Q, 2, 1)
        t2 = Series.generator(Q, 2, 2)
        a1 = t1 * (Series.one(Q, 2) + t2)
        img = t1.substitute([a1, t2])
        assert img == a1

    def test_rejects_bad_system(self, Q):
        t1 = Series.generator(Q, 2, 1)
        t2 = Series.generator(Q, 2, 2)
        with pytest.raises(NotUniformizers):
            t1.substitute([t1 * t1, t2])
        with pytest.raises(NotUniformizers):
            t1.substitute([t1 + t2, t2])

    def test_tail_pollution_is_tracked(self, Q):
        # x known only below t1^2: image must not claim anything at t1 >= 2
        x = truncate_level1(S(Q, 2, {(0, 1): Q.one}), 2)
        t1 = Series.generator(Q, 2, 1)
        t2 = Series.generator(Q, 2, 2)
        a1 = t1 * (Series.one(Q, 2) + t2)
        img = x.substitute([a1, t2])
        assert img.coefficient_at((0, 1)) == Q.one
        with pytest.raises(InsufficientPrecision):
            img.coefficient_at((2, 0))

    def test_deep_tail_lex_bound(self, Q):
        # coefficient of t1^0 known only below t2^3: positions lex >= (0,3) unknown
        inner = truncate_level1(S(Q, 1, {(1,): Q.one}), 3)
        x = Series(Q, 2, order=0, coeffs=(inner,), exact=True)
        t1 = Series.generator(Q, 2, 1)
        t2 = Series.generator(Q, 2, 2)
        img = x.substitute([t1, t2 + t1])  # valid: v(t2+t1) = (0,1)
        assert img.coefficient_at((0, 1)) == Q.one
        # (1,2) is lex-above (0,3); the t2-tail of x spreads there via (t2+t1)^j
        with pytest.raises(InsufficientPrecision):
            img.coefficient_at((1, 2))


# QQ, F_5 and F5[x]/(x^2 - 2)
WINDOW_FIELDS = [make_extension(0, [0, 1]), make_extension(5, [0, 1]), make_extension(5, [-2, 0, 1])]


class TestWindowSoundness:
    """Claims made on truncated operands must agree with full recomputation."""

    @staticmethod
    def _claimed(s, extra=2):
        """All multi-indices the series claims to know (including some zeros)."""
        if s.depth == 0:
            yield ()
            return
        end = s.end if s.end is not None else s.order + len(s.coeffs) + extra
        for k in range(s.order, end):
            if s.order <= k < s.order + len(s.coeffs):
                inner = s.coeffs[k - s.order]
                for idx in TestWindowSoundness._claimed(inner, extra):
                    yield (k,) + idx
            else:
                yield (k,) + (0,) * (s.depth - 1)

    def _compare(self, partial, full):
        from tlfields.errors import InsufficientPrecision

        for idx in self._claimed(partial):
            got = partial.coefficient_at(idx)
            try:
                want = full.coefficient_at(idx)
            except InsufficientPrecision:
                continue  # the reference is not finer here; nothing to check
            assert got == want, f"claimed {got} at {idx}, full recomputation gives {want}"

    def test_multiplication(self, Q):
        from tlfields.series import truncate_box

        rng = random.Random(71)
        for _ in range(60):
            x_full = random_series(Q, 2, rng, max_terms=4, exp_span=2)
            y = random_series(Q, 2, rng, max_terms=3, exp_span=2)
            if x_full.is_exact_zero():
                continue
            ends = [x_full.order + rng.randint(1, 4), rng.randint(0, 3)]
            x_win = truncate_box(x_full, ends)
            self._compare(x_win * y, x_full * y)

    def test_inverse(self, Q):
        from tlfields.series import truncate_box

        rng = random.Random(72)
        checked = 0
        while checked < 40:
            x_full = random_series(Q, 2, rng, max_terms=3, exp_span=2)
            if x_full.is_exact_zero():
                continue
            ends = [x_full.order + rng.randint(2, 5), rng.randint(1, 4)]
            x_win = truncate_box(x_full, ends)
            try:
                inv_win = x_win.inv(6)
                inv_full = x_full.inv(12)
            except InsufficientPrecision:
                continue
            self._compare(inv_win, inv_full)
            checked += 1

    @staticmethod
    def _cuts(field, depth, seed, count):
        """count pairs (x, a truncate_box of x) of random nonzero series."""
        rng = random.Random(seed)
        while count:
            x = random_series(field, depth, rng, max_terms=4, exp_span=2)
            if x.is_exact_zero():
                continue
            ends = [x.order + rng.randint(1, 4)] + [rng.randint(0, 3) for _ in range(depth - 1)]
            yield rng, x, truncate_box(x, ends)
            count -= 1

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_addition(self, field, depth):
        for rng, x_full, x_win in self._cuts(field, depth, 170 + depth, 30):
            y = random_series(field, depth, rng, max_terms=4, exp_span=2)
            self._compare(x_win + y, x_full + y)
            self._compare(y + x_win, y + x_full)
            self._compare(x_win - y, x_full - y)
            self._compare(x_win + x_win, x_full + x_full)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_negation_and_scalar_multiple(self, field, depth):
        for rng, x_full, x_win in self._cuts(field, depth, 180 + depth, 30):
            c = field.random_element(rng, 3)
            self._compare(-x_win, -x_full)
            self._compare(x_win.scalar_mul(c), x_full.scalar_mul(c))
            self._compare(x_win * c, x_full * c)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_derivative(self, field, depth):
        for _, x_full, x_win in self._cuts(field, depth, 190 + depth, 30):
            for axis in range(1, depth + 1):
                self._compare(x_win.derivative(axis), x_full.derivative(axis))

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_substitution(self, field, depth):
        rng = random.Random(71 + depth)
        t = [Series.generator(field, depth, i) for i in range(1, depth + 1)]
        one = Series.one(field, depth)
        systems = [
            [t[0] * (one + t[-1])] + t[1:],
            [t[0]] + [ti + t[0] * ti for ti in t[1:]],
            [t[0] * (one + t[-1]) + t[0] * t[0]] + [ti + t[0] * ti * ti for ti in t[1:]],
        ]
        checked = 0
        while checked < (45 if depth < 3 else 24):
            x_full = random_series(field, depth, rng, max_terms=3, exp_span=2)
            if x_full.is_exact_zero():
                continue
            ends = [x_full.order + rng.randint(1, 4)] + [rng.randint(0, 3) for _ in range(depth - 1)]
            x_win = truncate_box(x_full, ends)
            system = systems[checked % len(systems)]
            img_win = x_win.substitute(system, window=8)
            img_full = x_full.substitute(system, window=14)
            self._compare(img_win, img_full)
            checked += 1

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    def test_compositional_inverse_of_a_window(self, field):
        """newton_inverse_1d of an a known only below t^end, where each
        composition stops at that end."""
        rng = random.Random(74)
        t = Series.generator(field, 1, 1)
        for _ in range(12):
            a_full = t.scalar_mul(field.from_int(rng.choice([1, 2, 3])))
            for k in range(2, 7):
                a_full = a_full + t ** k * Series.constant(field, 1, field.random_element(rng, 3))
            a_win = truncate_level1(a_full, rng.randint(2, 6))
            self._compare(newton_inverse_1d(a_win, window=8), newton_inverse_1d(a_full, window=12))

    @pytest.mark.parametrize(
        "field", [make_extension(0, [1, 0, 1]), make_extension(5, [-2, 0, 1])],
        ids=["Q(i)", "F25"],
    )
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_extension_mul_and_inv(self, field, depth):
        rng = random.Random(70 + depth)
        products = inverses = 0
        for _ in range(400):
            if products >= 12 and inverses >= 8:
                break
            x_full = random_series(field, depth, rng, max_terms=3, exp_span=2)
            y = random_series(field, depth, rng, max_terms=3, exp_span=2)
            if x_full.is_exact_zero():
                continue
            ends = [x_full.order + rng.randint(1, 5)]
            ends += [rng.randint(0, 4) for _ in range(depth - 1)]
            x_win = truncate_box(x_full, ends)
            self._compare(x_win * y, x_full * y)
            products += 1
            try:
                inv_win = x_win.inv(6)
            except InsufficientPrecision:
                continue
            self._compare(inv_win, x_full.inv(12))
            inverses += 1
        assert products >= 12 and inverses >= 8

    @pytest.mark.parametrize(
        "field", [make_extension(0, [0, 1]), make_extension(5, [0, 1])], ids=repr
    )
    @pytest.mark.parametrize("depth", [2, 3])
    def test_packed_multiplication(self, field, depth):
        """Deep products over QQ and F_5, which take the packed kernel."""
        rng = random.Random(80 + depth)
        packed = 0
        for _ in range(24 if depth == 2 else 16):
            x_full = random_series(field, depth, rng, max_terms=20, exp_span=4 - depth)
            y = random_series(field, depth, rng, max_terms=20, exp_span=4 - depth)
            if x_full.is_exact_zero() or y.is_exact_zero():
                continue
            ends = [x_full.order + rng.randint(2, 6)]
            ends += [rng.randint(0, 3) for _ in range(depth - 1)]
            x_win = truncate_box(x_full, ends)
            self._compare(x_win * y, x_full * y)
            if min(len(x_win.coeffs), len(y.coeffs)) >= 2:
                packed += _kronecker_product(x_win, y) is not None
        assert packed >= (16 if depth == 2 else 10)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_level1_projection(self, field, depth):
        for rng, x_full, x_win in self._cuts(field, depth, 200 + depth, 30):
            for _ in range(3):
                lo = rng.choice([None, x_full.order + rng.randint(-2, 4)])
                hi = rng.choice([None, x_full.order + rng.randint(-1, 6)])
                self._compare(part_level1(x_win, lo, hi), part_level1(x_full, lo, hi))

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_truncations(self, field, depth):
        for rng, x_full, x_win in self._cuts(field, depth, 210 + depth, 30):
            end = x_full.order + rng.randint(-1, 6)
            self._compare(truncate_level1(x_win, end), x_full)
            bound = [end] + [rng.choice([None, rng.randint(-2, 3)]) for _ in range(depth - 1)]
            self._compare(truncate_lex(x_win, bound), x_full)
            ends = [end] + [rng.randint(-1, 4) for _ in range(depth - 1)]
            self._compare(truncate_box(x_win, ends), x_full)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_hermite_form(self, field, depth):
        """The Hermite form of generators cut to a box against that of the
        same generators cut to a box three wider at every level, on forms
        whose entry below the diagonal is not an exact zero."""
        from tlfields.lattices import lattice_normal_form
        from tlfields.tlf import TlfDescriptor

        desc = TlfDescriptor(depth, field)
        rng = random.Random(220 + depth)
        checked = inexact = 0
        while checked < 12:
            full = [[random_series(field, depth, rng, max_terms=4, exp_span=3) for _ in range(2)]
                    for _ in range(2)]
            ends = [[[e.order + rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(depth - 1)]
                     for e in row] for row in full]
            narrow, wide = (
                [[truncate_box(e, [b + extra for b in cut]) for e, cut in zip(row, row_ends)]
                 for row, row_ends in zip(full, ends)]
                for extra in (0, 3)
            )
            try:
                got = lattice_normal_form(desc, narrow, window=6)
                want = lattice_normal_form(desc, wide, window=9)
            except (InsufficientPrecision, LocalFieldError):
                continue  # SingularMatrix is a LocalFieldError
            if got.hnf[1][0].is_exact_zero():
                continue
            assert got.divisors == want.divisors
            for got_row, want_row in zip(got.hnf, want.hnf):
                for a, b in zip(got_row, want_row):
                    self._compare(a, b)
            checked += 1
            inexact += not got.hnf[1][0].exact
        assert inexact >= 2

    @PROPERTY
    @given(_depth_one_pair(first_exact=True), st.integers(1, 5))
    def test_depth_one_kernels(self, case, cut):
        """Depth-1 mul, add and inv over KERNEL_FIELDS against a wider window."""
        _, x_full, y = case
        if x_full.is_exact_zero():
            return
        x_win = truncate_level1(x_full, x_full.order + cut)
        self._compare(x_win * y, x_full * y)
        self._compare(x_win + y, x_full + y)
        self._compare(y + x_win, y + x_full)
        try:
            inv_win = x_win.inv(6)
        except InsufficientPrecision:
            return
        self._compare(inv_win, x_full.inv(12))

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_depth_one_kernels_at_window_32(self, field):
        """Depth-1 inv of a series cut to 32 coefficients, and its products with
        short operands (one to three coefficients, below the packing
        threshold), against the uncut series."""
        rng = random.Random(180 + KERNEL_FIELDS.index(field))
        for _ in range(4):
            x_full = Series(field, 1, order=rng.randint(-3, 3), coeffs=[
                field.random_nonzero(rng, 5)] + [
                field.zero if rng.random() < 0.25 else field.random_element(rng, 5)
                for _ in range(39)])
            x_win = truncate_level1(x_full, x_full.order + 32)
            assert len(x_win.coeffs) == 32
            self._compare(x_win.inv(), x_full.inv(40))
            for n in (1, 2, 3):
                y = Series(field, 1, order=rng.randint(-3, 3),
                           coeffs=[field.random_nonzero(rng, 5) for _ in range(n)],
                           exact=rng.random() < 0.5)
                self._compare(x_win * y, x_full * y)
                self._compare(y * x_win, y * x_full)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_separation(self, field, depth):
        """AbstractForm.separate of forms of every degree in a symbol bound to a
        cut operand, with products, a square, an inverse and a negative power,
        against the same forms in the uncut operand: every coefficient of every
        basis element dt_I."""
        from tlfields.forms import AbstractForm, Const, Gen, Sym
        from tlfields.tlf import TlfDescriptor

        desc = TlfDescriptor(depth, field)
        t = [Gen(desc, i) for i in range(1, depth + 1)]
        checked = 0
        for rng, x_full, x_win in self._cuts(field, depth, 260 + depth, 12):
            c = Sym(desc, "c", random_series(field, depth, rng, max_terms=3, exp_span=2))
            one = Const(desc, 1)

            def separated(x, window):
                b = Sym(desc, "b", x)
                forms = [AbstractForm(desc, 0, [(b * c + t[0], ())])]
                for q in range(1, depth + 1):
                    hs = tuple(b * t[i] + c for i in range(q))
                    inverse = (one + t[0] * b).inv() * c ** -1
                    forms.append(AbstractForm(desc, q, [(c * b ** 2, hs), (inverse, hs[::-1])]))
                return [form.separate(window) for form in forms]

            try:
                narrow, wide = separated(x_win, 6), separated(x_full, 10)
            except (InsufficientPrecision, DivisionByZero):
                continue
            for got, want in zip(narrow, wide):
                for axes, coeff in got.coeffs.items():
                    self._compare(coeff, want.coefficient(axes))
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_divided_derivative(self, field, depth):
        for _, x_full, x_win in self._cuts(field, depth, 200 + depth, 20):
            for axis in range(1, depth + 1):
                for k in range(7):
                    self._compare(x_win.divided_derivative(axis, k),
                                  x_full.divided_derivative(axis, k))

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lifting(self, field, depth):
        """LiftingSpec.apply, standard and twisted, of a cut operand and with a
        cut twist coefficient."""
        from tlfields.tlf import LiftingSpec

        top = 3 if field.char == 0 else min(3, field.char - 1)
        for rng, x_full, x_win in self._cuts(field, depth, 210 + depth, 12):
            c_full = random_series(field, depth, rng, max_terms=2, exp_span=1)
            if c_full.is_exact_zero():
                c_full = Series.one(field, depth)
            c_win = truncate_level1(c_full, c_full.order + rng.randint(1, 3))
            axis, d = rng.randint(2, depth + 1), rng.randint(0, top)
            twist, twist_win = (LiftingSpec(1, "twisted", axis=axis, c=c, depth=d)
                                for c in (c_full, c_win))
            self._compare(LiftingSpec(1).apply(x_win), LiftingSpec(1).apply(x_full))
            self._compare(twist.apply(x_win), twist.apply(x_full))
            self._compare(twist_win.apply(x_full), twist.apply(x_full))

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_sigma_expansion(self, field, depth):
        """sigma_expand of a cut operand, under standard and twisted liftings and
        uniformizers t_1, t_1 + t_1^2, t_1 (1 + t_n); an exact zero b_q is left
        out of the expansion, so up to the last q the wider expansion reaches,
        a missing q is a zero."""
        from tlfields.tlf import LiftingSpec, sigma_expand

        t = [Series.generator(field, depth, i) for i in range(1, depth + 1)]
        uniformizers = [None, t[0] + t[0] * t[0], t[0] * (Series.one(field, depth) + t[-1])]
        top = 2 if field.char == 0 else min(2, field.char - 1)
        zero = Series.zero(field, depth - 1)
        for rng, x_full, x_win in self._cuts(field, depth, 220 + depth, 12):
            sigma = LiftingSpec(1)
            if depth > 1 and rng.random() < 0.5:
                sigma = LiftingSpec(1, "twisted", axis=rng.randint(2, depth),
                                    depth=rng.randint(1, top))
            a1 = rng.choice(uniformizers)
            win = dict((q, b) for b, q in sigma_expand(x_win, sigma, a1, window=6))
            full = dict((q, b) for b, q in sigma_expand(x_full, sigma, a1, window=10))
            for q, b in win.items():
                if q <= max(full, default=q - 1):
                    self._compare(b, full.get(q, zero))


def _by_exponent(x):
    return {x.order + k: c for k, c in enumerate(x.coeffs)}


def _expected_end(ends):
    ends = [e for e in ends if e is not None]
    return min(ends) if ends else None


def _assert_coefficients(result, reference, zero):
    """result agrees with reference on every exponent it guarantees."""
    exps = list(reference) + [result.order, result.order + len(result.coeffs)]
    hi = result.end if result.end is not None else max(exps) + 2
    for k in range(min(exps) - 2, hi):
        assert result.coefficient_at((k,)) == reference.get(k, zero), k


class TestDividedDerivative:
    """d^[k] t^b = C(b, k) t^(b - k) along one axis (Series.divided_derivative)."""

    @staticmethod
    def _cases(field, depth, seed, count=12):
        rng = random.Random(seed)
        for _ in range(count):
            yield (rng, random_series(field, depth, rng, max_terms=4, exp_span=3),
                   rng.randint(1, depth))

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_termwise_definition(self, field, depth):
        for _, x, axis in self._cases(field, depth, 230 + depth):
            for k in range(7):
                want = {}
                for idx, c in x.known_terms():
                    b = idx[axis - 1]
                    moved = idx[:axis - 1] + (b - k,) + idx[axis:]
                    want[moved] = c * field.from_int(series_module.binomial(b, k))
                assert x.divided_derivative(axis, k) == S(field, depth, want)

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_leibniz_rule(self, field, depth):
        # d^[k](x y) = sum_{i + j = k} d^[i] x d^[j] y
        for rng, x, axis in self._cases(field, depth, 240 + depth):
            y = random_series(field, depth, rng, max_terms=3, exp_span=3)
            for k in range(6):
                total = Series.zero(field, depth)
                for i in range(k + 1):
                    total = total + x.divided_derivative(axis, i) * y.divided_derivative(axis, k - i)
                assert (x * y).divided_derivative(axis, k) == total

    @pytest.mark.parametrize("field", WINDOW_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_composition(self, field, depth):
        # d^[a] d^[b] = C(a + b, a) d^[a + b], and k! d^[k] is d applied k times
        for _, x, axis in self._cases(field, depth, 250 + depth):
            for a in range(5):
                for b in range(5):
                    assert x.divided_derivative(axis, b).divided_derivative(axis, a) == (
                        x.divided_derivative(axis, a + b).scalar_mul(math.comb(a + b, a)))
            repeated = x
            for k in range(6):
                assert repeated == x.divided_derivative(axis, k).scalar_mul(math.factorial(k))
                repeated = repeated.derivative(axis)
            assert x.derivative(axis) == x.divided_derivative(axis, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_char_p(self, p):
        # the p-th derivative vanishes, the divided power d^[p] does not
        field = make_extension(p, [0, 1])
        t = Series.generator(field, 2, 2)
        x = (t ** p) * (Series.one(field, 2) + Series.generator(field, 2, 1))
        repeated = x
        for _ in range(p):
            repeated = repeated.derivative(2)
        assert repeated.is_exact_zero()
        assert x.divided_derivative(2, p) == Series.one(field, 2) + Series.generator(field, 2, 1)
        assert Series.monomial(field, 1, (-1,)).divided_derivative(1, p) == Series.monomial(
            field, 1, (-1 - p,), field.from_int(-1) ** p)


class TestDepthOneKernels:
    """Depth-1 mul, add and inv equal plain coefficient arithmetic."""

    @PROPERTY
    @given(_depth_one_pair())
    def test_mul_is_convolution(self, case):
        field, x, y = case
        product = {}
        for i, a in _by_exponent(x).items():
            for j, b in _by_exponent(y).items():
                product[i + j] = product.get(i + j, field.zero) + a * b
        p = x * y
        if x.is_exact_zero() or y.is_exact_zero():
            assert p.is_exact_zero()
            return
        assert p.end == _expected_end([
            None if x.end is None else x.end + y.order,
            None if y.end is None else y.end + x.order,
        ])
        _assert_coefficients(p, product, field.zero)

    @PROPERTY
    @given(_depth_one_pair())
    def test_add_is_coefficientwise(self, case):
        field, x, y = case
        total = _by_exponent(x)
        for k, b in _by_exponent(y).items():
            total[k] = total.get(k, field.zero) + b
        s = x + y
        assert s.end == _expected_end([x.end, y.end])
        _assert_coefficients(s, total, field.zero)
        difference = _by_exponent(x)
        for k, b in _by_exponent(y).items():
            difference[k] = difference.get(k, field.zero) - b
        _assert_coefficients(x - y, difference, field.zero)

    @PROPERTY
    @given(_depth_one_pair(), st.integers(1, 10))
    def test_inv_solves_the_convolution(self, case, window):
        field, x, _ = case
        if x.is_exact_zero() or not x.coeffs:
            return
        q = x.inv(window)
        assert q.order == -x.order
        if x.exact and len(x.coeffs) == 1:
            assert q.exact and len(q.coeffs) == 1
        else:
            assert not q.exact
            assert len(q.coeffs) == (window if x.exact else len(x.coeffs))
        xs, qs = _by_exponent(x), _by_exponent(q)
        for k in range(len(q.coeffs)):
            acc = field.zero
            for i in range(k + 1):
                acc = acc + xs.get(x.order + i, field.zero) * qs[q.order + k - i]
            assert acc == (field.one if k == 0 else field.zero), k


def _high_scalar(field):
    """A scalar whose coordinates have height up to 10^3."""
    if field.char:
        raw = st.integers(0, field.char - 1)
    else:
        raw = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
    return st.tuples(*[raw] * field.degree).map(lambda c: ExtScalar(field, c))


def _convolve_reference(a, b, n, zero):
    """_convolve of scalar lists one ExtScalar operation at a time, as it ran
    before the integer kernel: the reference of the depth-1 product."""
    acc = [zero] * n
    b_nonzero = [(j, y) for j, y in enumerate(b) if not y.is_exact_zero()]
    for i, x in enumerate(a[:n]):
        if x.is_exact_zero():
            continue
        for j, y in b_nonzero:
            if i + j >= n:
                break
            acc[i + j] = acc[i + j] + x * y
    return acc


def _invert_reference(c, d0, w, zero):
    """_invert of a scalar list one ExtScalar operation at a time, as it ran
    before the integer kernel: the reference of the depth-1 inverse."""
    out = [d0]
    c_nonzero = [(i, x) for i, x in enumerate(c) if i and not x.is_exact_zero()]
    for k in range(1, w):
        s = zero
        for i, x in c_nonzero:
            if i > k:
                break
            s = s + x * out[k - i]
        out.append(-(d0 * s))
    return out


def _assert_same_scalars(got, want, field):
    """Equal scalar lists, with equal repr and coordinates of the field's type:
    Fraction over QQ, int over F_p."""
    assert len(got) == len(want)
    coordinate = [int if field.char else Fraction] * field.degree
    for g, x in zip(got, want):
        assert g == x
        assert repr(g) == repr(x)
        assert [type(v) for v in g.coeffs] == [type(v) for v in x.coeffs] == coordinate


def _scalar_entries(draw, field):
    """Scalars of low or high height, about half of them exact zeros."""
    scalar = _high_scalar(field) if draw(st.booleans()) else _scalar(field)
    return st.one_of(st.just(field.zero), scalar), scalar


@st.composite
def _scalar_convolution_case(draw):
    """(field, a, b, n): a long operand of up to 40 scalars, or a short one,
    times a short one of 1-3 scalars, in either order, cut or padded to an n
    of 0 to two past the full product, so some outputs no pair reaches."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    entry, _ = _scalar_entries(draw, field)
    a = draw(st.lists(entry, min_size=1, max_size=draw(st.sampled_from([3, 40]))))
    b = draw(st.lists(entry, min_size=1, max_size=3))
    if draw(st.booleans()):
        a, b = b, a
    return field, a, b, draw(st.integers(0, len(a) + len(b) + 1))


@st.composite
def _scalar_inverse_case(draw):
    """(field, c, d0, w): c[0] nonzero, then none, up to 3 or up to 40 more
    scalars, padded or cut to a window w of 1..40; d0 = 1 / c[0]."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    entry, scalar = _scalar_entries(draw, field)
    c0 = draw(scalar.filter(lambda s: not s.is_zero()))
    rest = draw(st.lists(entry, max_size=draw(st.sampled_from([0, 3, 40]))))
    w = draw(st.integers(1, 40))
    return field, _pad([c0] + rest, 0, w, field.zero), c0.inv(), w


class TestIntegerKernels:
    """The depth-1 _convolve and _invert, on integer coordinates over one
    common denominator, equal the ExtScalar loops they replace."""

    @settings(PROPERTY, max_examples=300)
    @given(_scalar_convolution_case())
    def test_convolve_equals_scalar_loop(self, case):
        field, a, b, n = case
        _assert_same_scalars(_convolve(a, b, n, field.zero),
                             _convolve_reference(a, b, n, field.zero), field)

    @settings(PROPERTY, max_examples=300)
    @given(_scalar_inverse_case(), st.integers(-3, 3))
    def test_invert_equals_scalar_loop(self, case, order):
        field, c, d0, w = case
        want = _invert_reference(c, d0, w, field.zero)
        _assert_same_scalars(_invert(c, d0, w, field.zero), want, field)
        # Series.inv of the series storing c, inexact, runs the same kernel
        x = Series(field, 1, order=order, coeffs=c, exact=False)
        _assert_same_series(x.inv(), Series(field, 1, order=-order, coeffs=want, exact=False))

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_fixed_cases(self, field):
        rng = random.Random(190 + KERNEL_FIELDS.index(field))
        zero = field.zero
        x, y, z = (field.random_nonzero(rng, 5) for _ in range(3))
        # c_0 alone: the inverse is d0 then zeros
        c = _pad([x], 0, 40, zero)
        got = _invert(c, x.inv(), 40, zero)
        _assert_same_scalars(got, _invert_reference(c, x.inv(), 40, zero), field)
        assert got[0] == x.inv() and all(s.is_zero() for s in got[1:])
        # outputs 1, 2 and 5 on, which no pair of nonzero scalars reaches
        a, b = [x, zero, zero, y], [z]
        got = _convolve(a, b, 7, zero)
        _assert_same_scalars(got, _convolve_reference(a, b, 7, zero), field)
        assert [s.is_zero() for s in got] == [False, True, True, False, True, True, True]
        # a sum that cancels
        a, b = [x, -x], [y, y]
        _assert_same_scalars(_convolve(a, b, 3, zero), _convolve_reference(a, b, 3, zero), field)
        assert _convolve(a, b, 3, zero)[1].is_zero()


def _series(field, depth, scalar, exponents):
    """A series with exact and inexact levels, zero scalars, exact-zero
    coefficients and inexact coefficients that store nothing."""
    if depth == 0:
        return scalar.map(lambda v: Series(field, 0, scalar=v))
    coeff = _series(field, depth - 1, scalar, exponents)
    if depth > 1:
        coeff = st.one_of(
            coeff,
            coeff,
            coeff,
            st.just(Series.zero(field, depth - 1)),
            exponents.map(lambda o: Series(field, depth - 1, order=o, exact=False)),
        )
    return st.builds(
        lambda order, coeffs, exact: Series(field, depth, order=order, coeffs=coeffs, exact=exact),
        exponents,
        st.lists(coeff, min_size=1, max_size=6 if depth == 1 else 5),
        st.booleans(),
    )


@st.composite
def _product_case(draw):
    """Two series of one depth (1-3) and field; the first may be cut to a
    level-1 window or a box.  Narrow exponent ranges make dense operands, wide
    ones sparse operands."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    depth = draw(st.integers(1, 3))
    scalar = _high_scalar(field) if draw(st.booleans()) else _scalar(field)
    exponents = draw(st.sampled_from([st.integers(0, 1), st.integers(-2, 2), st.integers(-12, 12)]))
    x = draw(_series(field, depth, scalar, exponents))
    y = draw(_series(field, depth, scalar, exponents))
    cut = draw(st.sampled_from(["exact", "level1", "box"]))
    if cut != "exact" and not x.is_exact_zero():
        ends = [x.order + draw(st.integers(1, 6))]
        if cut == "box":
            ends += [draw(st.integers(1, 4)) for _ in range(depth - 1)]
        x = truncate_box(x, ends)
    return x, y


def _convolved(x, y):
    """x * y with every product, at every level, on the convolution."""
    saved = series_module._PACK_MIN_COEFFS
    series_module._PACK_MIN_COEFFS = float("inf")
    try:
        return x * y
    finally:
        series_module._PACK_MIN_COEFFS = saved


def _assert_same_series(got, want):
    """Equal series, with equal repr and JSON and coordinates of equal types."""
    assert got == want
    assert repr(got) == repr(want)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert [(s.field, [type(c) for c in s.coeffs]) for _, s in got.known_terms()] == [
        (s.field, [type(c) for c in s.coeffs]) for _, s in want.known_terms()
    ]


def _operands_at_the_bound(field, n):
    """x and y whose packed product puts a kept slot at the width bound.

    y is cut to n coefficients, so the kept slot of t^(min(n, 12) - 1) sums
    m = min(n, 12) pairs: every coordinate at its largest height and every
    product of one sign (negative over QQ) put it at the width bound
    m * d * top^2.  Over QQ that bound also fills the last bit of its top byte
    and is no power of two, so a slot without the sign bit would spill into
    the next.
    """
    d, m = field.degree, min(n, 12)
    if field.char:
        top, x_coord, y_coord = field.char - 1, field.char - 1, field.char - 1
    else:
        def fills_top_byte(h):
            bound = m * d * h * h
            return bound.bit_length() % 8 == 0 and bound & (bound - 1)

        top = next(h for h in range(2, 10**4) if fills_top_byte(h))
        x_coord, y_coord = Fraction(top, 7), Fraction(-top, 5)
    x = Series(field, 1, coeffs=[Series(field, 0, scalar=ExtScalar(field, (x_coord,) * d))] * 12)
    y = Series(field, 1, coeffs=[Series(field, 0, scalar=ExtScalar(field, (y_coord,) * d))] * 12)
    return x, truncate_level1(y, n)


class TestPackedProduct:
    """The Kronecker-packed product equals the convolution at every depth."""

    @settings(PROPERTY, max_examples=300)
    @given(_product_case())
    def test_equals_convolution(self, case):
        x, y = case
        want = _convolved(x, y)
        _assert_same_series(x * y, want)
        if x.is_exact_zero() or y.is_exact_zero():
            return
        got = _kronecker_product(x, y)
        if got is not None:  # None: the box would be too sparse to pack
            _assert_same_series(got, want)

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    @pytest.mark.parametrize("n", [1, 7, 12, 30])
    def test_slots_at_the_bound(self, field, n):
        x, y = _operands_at_the_bound(field, n)
        _assert_same_series(_kronecker_product(x, y), _convolved(x, y))

    @pytest.mark.parametrize("field", KERNEL_FIELDS[:2], ids=repr)
    def test_sparse_operand_keeps_the_convolution(self, field):
        # four level-1 coefficients, each a single term at t2^-40 or t2^40:
        # the packed box would hold 81 * 7 slots for 16 pairs of scalars
        t1, t2 = Series.generator(field, 2, 1), Series.generator(field, 2, 2)
        x = sum((t1 ** k * t2 ** (40 if k % 2 else -40) for k in range(4)), Series.zero(field, 2))
        y = Series.one(field, 2) + t1 + t1 ** 2 + t1 ** 3
        assert _kronecker_product(x, y) is None
        _assert_same_series(x * y, _convolved(x, y))
        _assert_same_series(_kronecker_product(y, y), _convolved(y, y))


def _dense_row(field, rng, length, exact):
    """A depth-1 series storing `length` nonzero scalars from t_1^-1 on."""
    coeffs = [field.random_nonzero(rng, 7) for _ in range(length)]
    return Series(field, 1, order=-1, coeffs=coeffs, exact=exact)


class TestKernelChoice:
    """Either depth-1 kernel gives the same product on both sides of the
    calibrated crossovers, and Series.__mul__ reaches both."""

    # (shorter length, longer length, exact): over a degree-1 field an exact
    # square product packs from length 32 and a windowed one from 48, over
    # Q(i) from 12 and 18; an exact 16 x 128 product over QQ convolves and a
    # 24 x 128 one packs
    @pytest.mark.parametrize("field", KERNEL_FIELDS[:2] + [PACKED_FIELDS[2]], ids=repr)
    @pytest.mark.parametrize("a, b, exact", [
        (11, 11, True), (12, 12, True), (31, 31, True), (32, 32, True),
        (17, 17, False), (18, 18, False), (47, 47, False), (48, 48, False),
        (16, 128, True), (24, 128, True), (16, 128, False),
    ])
    def test_kernels_agree(self, field, a, b, exact):
        rng = random.Random(a * 1000 + b)
        x = _dense_row(field, rng, a, exact)
        y = _dense_row(field, rng, b, exact)
        want = _convolved(x, y)
        _assert_same_series(x * y, want)
        _assert_same_series(_kronecker_product(x, y), want)
        _assert_same_series(y * x, want)

    @pytest.mark.parametrize("field", [KERNEL_FIELDS[0], PACKED_FIELDS[2]], ids=repr)
    def test_both_kernels_reached(self, field, monkeypatch):
        calls = {"_kronecker_product": 0, "_convolve": 0}

        def counted(name):
            kernel = getattr(series_module, name)

            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(series_module, name, counted(name))
        rng = random.Random(23)
        for length, packed in ((4, False), (40, True)):
            calls.update(dict.fromkeys(calls, 0))
            _dense_row(field, rng, length, True) * _dense_row(field, rng, length, True)
            assert calls == {"_kronecker_product": int(packed), "_convolve": int(not packed)}


# QQ, F_5, Q(i), F5[x]/(x^2 - 2) and F2[x]/(x^3 + x + 1)
INVERSE_FIELDS = KERNEL_FIELDS[:2] + [PACKED_FIELDS[2], PACKED_FIELDS[0], PACKED_FIELDS[1]]


@st.composite
def _inverse_case(draw):
    """(c, d0, w): the level-1 coefficients c of a series of depth 2 or 3,
    exact, inexact or cut to a box, padded or cut to a window w of 1..32, and
    d0 = 1 / c[0] on an inner window of at most 6."""
    field = draw(st.sampled_from(INVERSE_FIELDS))
    depth = draw(st.integers(2, 3))
    scalar = _high_scalar(field) if draw(st.booleans()) else _scalar(field)
    exponents = draw(st.sampled_from([st.integers(0, 1), st.integers(-2, 2), st.integers(-12, 12)]))
    x = draw(_series(field, depth, scalar, exponents))
    cut = draw(st.sampled_from(["exact", "level1", "box"]))
    if cut != "exact" and not x.is_exact_zero():
        ends = [x.order + draw(st.integers(1, 6))]
        if cut == "box":
            ends += [draw(st.integers(1, 4)) for _ in range(depth - 1)]
        x = truncate_box(x, ends)
    assume(x.coeffs)
    w = draw(st.integers(1, 32))
    c = _pad(list(x.coeffs), 0, w, Series.zero(field, depth - 1))
    try:
        d0 = c[0].inv(draw(st.integers(1, 6)))
    except InsufficientPrecision:
        assume(False)
    return c, d0, w


def _assert_same_inverse(c, d0, w):
    want = _invert(c, d0, w, Series.zero(d0.field, d0.depth))
    got = _packed_invert(c, d0, w)
    assert len(got) == len(want) == w
    for g, x in zip(got, want):
        _assert_same_series(g, x)


def _row(field, order, values, exact=False):
    """A depth-1 series of integer scalars."""
    return Series(field, 1, order=order, exact=exact,
                  coeffs=[Series(field, 0, scalar=field.from_int(v)) for v in values])


class TestPackedInverse:
    """The inverse recurrence on packed rows equals _invert at depths 2 and 3."""

    @settings(PROPERTY, max_examples=200)
    @given(_inverse_case())
    def test_equals_recurrence(self, case):
        _assert_same_inverse(*case)

    @pytest.mark.parametrize("field", INVERSE_FIELDS, ids=repr)
    def test_row_storing_no_scalar(self, field):
        # c[1] = 0 + O(11) stores nothing, so s_1 = c[1] * d0 and out[1]
        # store nothing either, and must read back inexact
        c = [_row(field, 0, [1, 2], exact=True), Series(field, 1, order=11, exact=False),
             _row(field, 0, [1]), _row(field, -1, [3, 0, 1]), _row(field, 2, [1, 1])]
        d0 = c[0].inv(8)
        _assert_same_inverse(c, d0, 8)
        got = _packed_invert(c, d0, 8)
        assert got[1] == Series(field, 1, order=11, exact=False)

    @pytest.mark.parametrize("field", INVERSE_FIELDS[:2], ids=repr)
    def test_operand_rows_storing_no_scalar(self, field):
        # at depth 3 every row after c[0] holds only coefficients 0 + O(k):
        # no pair of rows stores a scalar, so no sum sets the slot width
        t2 = Series.generator(field, 2, 1)  # t_2, the first variable of a row
        empty = Series(field, 2, order=0, exact=False,
                       coeffs=[Series(field, 1, order=k, exact=False) for k in (2, 3)])
        c = [Series.one(field, 2) + t2] + [empty] * 5
        _assert_same_inverse(c, c[0].inv(6), 6)

    @pytest.mark.parametrize("field", INVERSE_FIELDS[:2], ids=repr)
    @pytest.mark.parametrize("depth", [2, 3])
    def test_sparse_operand_with_wide_spans(self, field, depth):
        # the innermost exponents alternate between -40 and 40 and spread
        # further at every step, so the box must grow to what each step
        # needs; a box sized from the first rows aliases
        t = [Series.generator(field, depth, i) for i in range(1, depth + 1)]
        x = Series.one(field, depth) + sum(
            (t[0] ** k * t[-1] ** (40 if k % 2 else -40) * (k + 1) for k in range(1, 6)),
            Series.zero(field, depth))
        if depth == 3:
            x = x + t[0] * t[1] * t[2] + t[0] ** 2 * t[1] ** -1
        zero = Series.zero(field, depth - 1)
        for y in (x, truncate_box(x, [5] + [3] * (depth - 1)), truncate_level1(x, 4)):
            c = _pad(list(y.coeffs), 0, 9, zero)
            _assert_same_inverse(c, c[0].inv(9), 9)
        TestWindowSoundness()._compare(truncate_level1(x, 5).inv(9), x.inv(12))

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    @pytest.mark.parametrize("n", [1, 7, 12, 30])
    def test_slots_at_the_bound(self, field, n):
        # d0 = 1 / c[0] is the x of _operands_at_the_bound and c[1] its y, so
        # the first sum of products, c[1] * d0, puts a kept slot at the bound
        x, y = _operands_at_the_bound(field, n)
        c = [x.inv(12), y]
        d0 = c[0].inv()
        assert d0 == truncate_level1(x, 12)
        _assert_same_inverse(c, d0, 2)


def _convolution_product(x, y):
    """x * y by the product window of _mul_window and the coefficientwise
    convolution of _convolve at every level, the route of every product with
    a monomial operand before the shift."""
    field, depth = x.field, x.depth
    if x.is_exact_zero() or y.is_exact_zero():
        return Series.zero(field, depth)
    start, end, exact = _mul_window(x.order, x.order + len(x.coeffs), x.exact,
                                    y.order, y.order + len(y.coeffs), y.exact)
    n = end - start
    if depth == 1:
        coeffs = _convolve(x.coeffs, y.coeffs, n, field.zero)
    else:
        coeffs = [Series.zero(field, depth - 1)] * n
        for i, a in enumerate(x.coeffs[:n]):
            for j, b in enumerate(y.coeffs[:n - i]):
                if not (a.is_exact_zero() or b.is_exact_zero()):
                    coeffs[i + j] = coeffs[i + j] + _convolution_product(a, b)
    return Series(field, depth, order=start, coeffs=coeffs, exact=exact)


@st.composite
def _monomial_case(draw):
    """x, a monomial c * t^e with c one or not and exponents in -12..12, and
    whether the monomial is the left operand; x is a series of depth 1-3 as in
    _product_case, exact or cut to a level-1 window or a box."""
    field = draw(st.sampled_from(INVERSE_FIELDS))
    depth = draw(st.integers(1, 3))
    scalar = _high_scalar(field) if draw(st.booleans()) else _scalar(field)
    exponents = draw(st.sampled_from([st.integers(0, 1), st.integers(-2, 2), st.integers(-12, 12)]))
    x = draw(_series(field, depth, scalar, exponents))
    cut = draw(st.sampled_from(["exact", "level1", "box"]))
    if cut != "exact" and not x.is_exact_zero():
        ends = [x.order + draw(st.integers(1, 6))]
        if cut == "box":
            ends += [draw(st.integers(1, 4)) for _ in range(depth - 1)]
        x = truncate_box(x, ends)
    c = draw(st.one_of(st.just(field.one), _scalar(field).filter(lambda v: not v.is_zero())))
    e = draw(st.lists(st.integers(-12, 12), min_size=depth, max_size=depth))
    return x, Series.monomial(field, depth, e, c), draw(st.booleans())


class TestMonomialProduct:
    """A product with a monomial operand, a shift of every level, equals the
    convolution."""

    @settings(PROPERTY, max_examples=300)
    @given(_monomial_case())
    def test_equals_convolution(self, case):
        x, m, left = case
        assert series_module._is_monomial(m)
        if left:
            _assert_same_series(m * x, _convolution_product(m, x))
        else:
            _assert_same_series(x * m, _convolution_product(x, m))

    @pytest.mark.parametrize("field", INVERSE_FIELDS, ids=repr)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_window_soundness(self, field, depth):
        # a narrow and a wide cut of one series, times one monomial, agree on
        # the narrow window
        rng = random.Random(90 + depth)
        checked = 0
        while checked < 16:
            x = random_series(field, depth, rng, max_terms=6, exp_span=2)
            if x.is_exact_zero():
                continue
            ends = [x.order + rng.randint(1, 4)] + [rng.randint(0, 3) for _ in range(depth - 1)]
            narrow, wide = truncate_box(x, ends), truncate_box(x, [e + 3 for e in ends])
            exps = [rng.randint(-3, 3) for _ in range(depth)]
            c = field.one if checked % 2 else field.random_nonzero(rng, 3)
            m = Series.monomial(field, depth, exps, c)
            TestWindowSoundness()._compare(narrow * m, wide * m)
            TestWindowSoundness()._compare(m * narrow, wide * m)
            checked += 1


class TestPower:
    @pytest.mark.parametrize("field", KERNEL_FIELDS[:2], ids=repr)
    def test_matches_repeated_multiplication(self, field):
        t = Series.generator(field, 1, 1)
        t1, t2 = Series.generator(field, 2, 1), Series.generator(field, 2, 2)
        one1, one2 = Series.one(field, 1), Series.one(field, 2)
        bases = [
            one1 + t,
            truncate_level1(t.inv() + 2 * t + t ** 3, 5),
            truncate_box(t1 * (one2 + t2) + t1 ** 2 * t2.inv(), [3, 4]),
            t1 * t2.inv() + 2 * t2,
        ]
        for x in bases:
            one = one1 if x.depth == 1 else one2
            acc = one
            for n in range(71):
                assert x ** n == acc, n
                acc = acc * x
            acc, inv = one, x.inv()
            for n in range(1, 6):
                acc = acc * inv
                assert x ** -n == acc, -n


# QQ, F_5, Q(i) and F5[x]/(x^2 - 2)
SUBSTITUTION_FIELDS = KERNEL_FIELDS[:2] + [PACKED_FIELDS[2], PACKED_FIELDS[0]]


def _evaluate_everywhere(x, values, target_depth, field, window):
    """The image of every known term of x, composed in full: the evaluation
    before the level-1 cut, kept as its reference."""
    if x.depth == 0:
        return Series.constant(field, target_depth, x)
    acc = Series.zero(field, target_depth)
    for c in reversed(x.coeffs):
        acc = acc * values[0] + _evaluate_everywhere(c, values[1:], target_depth, field, window)
    if x.order:
        acc = acc * values[0].__pow__(x.order, window)
    return acc


def _substitute_everywhere(x, system, window):
    """x.substitute(system, window) by the full composition, then the lex cut."""
    check_uniformizer_valuations(system)
    if x.is_exact_zero():
        return Series.zero(x.field, x.depth)
    result = _evaluate_everywhere(x, system, x.depth, x.field, window)
    bound = x.smallest_unknown_index()
    return result if bound is None else truncate_lex(result, bound)


@st.composite
def _uniformizer(draw, field, depth, axis):
    """A series of valuation e_axis (0-based): c * t_axis plus terms of larger
    valuation, or the cross-variable unit t_axis * (1 + c * t_1 * t_axis);
    sometimes cut to a box."""
    c = draw(_scalar(field).filter(lambda v: not v.is_zero()))
    t = Series.generator(field, depth, axis + 1)
    if draw(st.booleans()):
        a = t * (Series.one(field, depth) + Series.generator(field, depth, 1) * t.scalar_mul(c))
    else:
        terms = {tuple(int(i == axis) for i in range(depth)): c}
        for _ in range(draw(st.integers(0, 3))):
            # lex above e_axis: first larger at a level j <= axis
            j = draw(st.integers(0, axis))
            head = [0] * j + [draw(st.integers(1, 2)) + int(j == axis)]
            terms[tuple(head + [draw(st.integers(-3, 3)) for _ in range(depth - j - 1)])] = draw(
                _scalar(field)
            )
        a = Series.from_terms(field, depth, terms)
    if draw(st.booleans()):
        ends = [a.order + draw(st.integers(1, 5))] + [draw(st.integers(1, 5)) for _ in range(depth - 1)]
        a = truncate_box(a, ends[:draw(st.integers(1, depth))])
    return a


@st.composite
def _substitution_case(draw):
    """An operand at depth 1-3, exact or cut to a box at one or more levels,
    with negative exponents; a system of uniformizers; a window."""
    field = draw(st.sampled_from(SUBSTITUTION_FIELDS))
    depth = draw(st.integers(1, 3))
    if depth < 3 and draw(st.booleans()):
        # exact and inexact levels, exact-zero and empty inexact coefficients
        x = draw(_series(field, depth, _scalar(field), st.integers(-3, 3)))
    else:
        exponents = st.tuples(*[st.integers(-3, 3)] * depth)
        x = Series.from_terms(
            field, depth, draw(st.dictionaries(exponents, _scalar(field), min_size=1, max_size=8))
        )
    if draw(st.booleans()) and not x.is_exact_zero():
        ends = [x.order + draw(st.integers(1, 6))] + [draw(st.integers(-2, 5)) for _ in range(depth - 1)]
        x = truncate_box(x, ends[:draw(st.integers(1, depth))])
    system = [draw(_uniformizer(field, depth, axis)) for axis in range(depth)]
    return x, system, draw(st.sampled_from([None, 3, 6, 9]))


def _outcome(compute):
    try:
        return compute(), None
    except Exception as exc:  # the refusal is part of the result
        return None, (type(exc), str(exc))


class TestSubstituteCut:
    """substitute evaluates only below the level-1 end b_1 + 1 of its lex bound
    (b_1, b_2, ...), and gives the full composition cut to that bound."""

    @settings(PROPERTY, max_examples=200)
    @given(_substitution_case())
    def test_equals_full_composition(self, case):
        x, system, window = case
        evaluate, calls = series_module._evaluate, []

        def spy(y, values, target_depth, field, w, end=None):
            image = evaluate(y, values, target_depth, field, w, end)
            if y.depth and end is not None:  # a scalar's image is its constant
                calls.append((y.depth < target_depth, end, image))
            return image

        series_module._evaluate = spy
        try:
            got, refused = _outcome(lambda: x.substitute(system, window))
        finally:
            series_module._evaluate = evaluate
        want, reference_refused = _outcome(lambda: _substitute_everywhere(x, system, window))
        assert refused == reference_refused
        if want is not None:
            _assert_same_series(got, want)
        for inner, end, image in calls:
            # no coefficient is evaluated that the cut drops entirely, and the
            # image of x and of every series coefficient stops at its end
            assert end >= 1 or not inner
            assert image.is_exact_zero() or image.end is not None and image.end <= end
        if x.depth == 1 and want is not None:
            w = window or 8
            full = _evaluate_everywhere(x, system, 1, x.field, w)
            _assert_same_series(
                _compose_1d(x, system[0], w), full if x.exact else truncate_level1(full, x.end)
            )


class TestCompositionalInverse:
    def test_newton_roundtrip(self, Q):
        rng = random.Random(5)
        t = Series.generator(Q, 1, 1)
        for _ in range(50):
            a = t
            for k in range(2, 6):
                a = a + t ** k * Series.constant(Q, 1, Q.random_element(rng, 3))
            b = newton_inverse_1d(a, window=8)
            x = random_series(Q, 1, rng, max_terms=3, exp_span=2)
            if x.is_exact_zero():
                continue
            roundtrip = x.substitute([a], window=8).substitute([b], window=8)
            assert agree_within_window(roundtrip - x, Series.zero(Q, 1))

    def test_newton_char_p(self, F5):
        t = Series.generator(F5, 1, 1)
        a = t + t ** 5  # derivative is 1 in char 5
        b = newton_inverse_1d(a, window=9)
        comp = a.substitute([b], window=9)
        assert agree_within_window(comp, t)


class TestJson:
    def test_roundtrip(self, Q):
        x = truncate_level1(S(Q, 2, {(0, 1): Q.one, (2, -1): Q.from_int(5)}), 4)
        data = x.to_json()
        y = Series.from_json(Q, 2, data)
        assert x == y

    # depth 1-3 series over Q(i) and F5[x]/(x^2 - 2) with inexact windows and
    # exact-zero inner coefficients, and their JSON
    @pytest.mark.parametrize(
        "field, a, b, c, pinned",
        [
            (make_extension(0, [1, 0, 1]), [Fraction(1, 2), -2], [0, 3], [-1, Fraction(2, 3)], [
                '{"order": -1, "window": 4, "exact": false, "coeffs": [{"scalar": ["1/2", "-2"]}, '
                '{"scalar": ["0", "0"]}, {"scalar": ["0", "3"]}, {"scalar": ["0", "0"]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 1, "window": 1, '
                '"exact": false, "coeffs": [{"scalar": ["1/2", "-2"]}]}, {"order": 2, "window": 0, '
                '"exact": false, "coeffs": []}, {"order": -1, "window": 3, "exact": false, '
                '"coeffs": [{"scalar": ["-1", "2/3"]}, {"scalar": ["0", "0"]}, '
                '{"scalar": ["0", "0"]}]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 0, "window": 2, '
                '"exact": false, "coeffs": [{"order": 1, "window": 0, "exact": false, "coeffs": []}, '
                '{"order": 1, "window": 0, "exact": false, "coeffs": []}]}, {"order": 2, '
                '"window": 0, "exact": false, "coeffs": []}, {"order": 0, "window": 2, '
                '"exact": false, "coeffs": [{"order": -1, "window": 2, "exact": false, "coeffs": '
                '[{"scalar": ["-1", "2/3"]}, {"scalar": ["0", "0"]}]}, {"order": 1, "window": 0, '
                '"exact": false, "coeffs": []}]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 0, "window": 1, '
                '"exact": true, "coeffs": [{"order": 1, "window": 1, "exact": true, "coeffs": '
                '[{"scalar": ["1/2", "-2"]}]}]}, {"order": 0, "window": 0, "exact": true, '
                '"coeffs": []}, {"order": 0, "window": 1, "exact": true, "coeffs": [{"order": -1, '
                '"window": 1, "exact": true, "coeffs": [{"scalar": ["-1", "2/3"]}]}]}]}',
            ]),
            (make_extension(5, [-2, 0, 1]), [2, 4], [0, 3], [1, 1], [
                '{"order": -1, "window": 4, "exact": false, "coeffs": [{"scalar": ["2", "4"]}, '
                '{"scalar": ["0", "0"]}, {"scalar": ["0", "3"]}, {"scalar": ["0", "0"]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 1, "window": 1, '
                '"exact": false, "coeffs": [{"scalar": ["2", "4"]}]}, {"order": 2, "window": 0, '
                '"exact": false, "coeffs": []}, {"order": -1, "window": 3, "exact": false, '
                '"coeffs": [{"scalar": ["1", "1"]}, {"scalar": ["0", "0"]}, '
                '{"scalar": ["0", "0"]}]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 0, "window": 2, '
                '"exact": false, "coeffs": [{"order": 1, "window": 0, "exact": false, "coeffs": []}, '
                '{"order": 1, "window": 0, "exact": false, "coeffs": []}]}, {"order": 2, '
                '"window": 0, "exact": false, "coeffs": []}, {"order": 0, "window": 2, '
                '"exact": false, "coeffs": [{"order": -1, "window": 2, "exact": false, "coeffs": '
                '[{"scalar": ["1", "1"]}, {"scalar": ["0", "0"]}]}, {"order": 1, "window": 0, '
                '"exact": false, "coeffs": []}]}]}',
                '{"order": 0, "window": 3, "exact": false, "coeffs": [{"order": 0, "window": 1, '
                '"exact": true, "coeffs": [{"order": 1, "window": 1, "exact": true, "coeffs": '
                '[{"scalar": ["2", "4"]}]}]}, {"order": 0, "window": 0, "exact": true, '
                '"coeffs": []}, {"order": 0, "window": 1, "exact": true, "coeffs": [{"order": -1, '
                '"window": 1, "exact": true, "coeffs": [{"scalar": ["1", "1"]}]}]}]}',
            ]),
        ],
        ids=["Q(i)", "F25"],
    )
    def test_pinned_format(self, field, a, b, c, pinned):
        a, b, c = field.element(a), field.element(b), field.element(c)
        cases = [
            truncate_level1(S(field, 1, {(-1,): a, (1,): b, (4,): c}), 3),
            truncate_box(S(field, 2, {(0, 1): a, (0, 3): b, (2, -1): c, (3, 0): a}), [3, 2]),
            truncate_box(
                S(field, 3, {(0, 0, 1): a, (0, 2, 0): b, (2, 0, -1): c, (2, 1, 1): a}), [3, 2, 1]
            ),
            truncate_level1(S(field, 3, {(0, 0, 1): a, (2, 0, -1): c, (5, 1, 1): b}), 3),
        ]
        for x, text in zip(cases, pinned):
            assert json.dumps(x.to_json()) == text
            _assert_same_series(Series.from_json(field, x.depth, json.loads(text)), x)


# Per field, its compound scalar c and, for zero, one and c, the coordinates
# of to_json, v + c, v * c, v.scalar_mul(3), v.inv(4), v**3 and v**-2 (the
# last three None at zero)
DEPTH0_FIELDS = {
    "Q": (make_extension(0, [0, 1]), [Fraction(-3, 2)]),
    "F5": (make_extension(5, [0, 1]), [3]),
    "Q(i)": (make_extension(0, [1, 0, 1]), [Fraction(1, 2), -2]),
    "F25": (make_extension(5, [-2, 0, 1]), [2, 4]),
}
DEPTH0_PINNED = {
    ('Q', 'zero'): (['0'], ['-3/2'], ['0'], ['0'], None, None, None),
    ('Q', 'one'): (['1'], ['-1/2'], ['-3/2'], ['3'], ['1'], ['1'], ['1']),
    ('Q', 'compound'): (['-3/2'], ['-3'], ['9/4'], ['-9/2'], ['-2/3'], ['-27/8'], ['4/9']),
    ('F5', 'zero'): (['0'], ['3'], ['0'], ['0'], None, None, None),
    ('F5', 'one'): (['1'], ['4'], ['3'], ['3'], ['1'], ['1'], ['1']),
    ('F5', 'compound'): (['3'], ['1'], ['4'], ['4'], ['2'], ['2'], ['4']),
    ('Q(i)', 'zero'): (['0', '0'], ['1/2', '-2'], ['0', '0'], ['0', '0'], None, None, None),
    ('Q(i)', 'one'): (['1', '0'], ['3/2', '-2'], ['1/2', '-2'], ['3', '0'], ['1', '0'],
                      ['1', '0'], ['1', '0']),
    ('Q(i)', 'compound'): (['1/2', '-2'], ['1', '-4'], ['-15/4', '-2'], ['3/2', '-6'],
                           ['2/17', '8/17'], ['-47/8', '13/2'], ['-60/289', '32/289']),
    ('F25', 'zero'): (['0', '0'], ['2', '4'], ['0', '0'], ['0', '0'], None, None, None),
    ('F25', 'one'): (['1', '0'], ['3', '4'], ['2', '4'], ['3', '0'], ['1', '0'], ['1', '0'],
                     ['1', '0']),
    ('F25', 'compound'): (['2', '4'], ['4', '3'], ['1', '1'], ['1', '2'], ['1', '3'], ['0', '1'],
                          ['4', '1']),
}


class TestDepthZero:
    """A depth-0 element is its ExtScalar, and answers what the series
    recursion and the callers ask of it."""

    @staticmethod
    def _value(name, kind):
        field, raw = DEPTH0_FIELDS[name]
        c = field.element(raw)
        return field, c, {"zero": Series.zero(field, 0), "one": Series.one(field, 0),
                          "compound": Series.constant(field, 0, c)}[kind]

    @pytest.mark.parametrize("name, kind", list(DEPTH0_PINNED), ids="-".join)
    def test_surface(self, name, kind):
        field, c, v = self._value(name, kind)

        def coords(s):
            return [str(x) for x in s.coeffs]

        data, plus, times, thrice, inverse, cube, inverse_square = DEPTH0_PINNED[name, kind]
        assert type(v) is ExtScalar and v.depth == 0
        assert v.to_json() == {"scalar": data}
        assert v.is_exact_zero() == v.is_zero_within_window() == (kind == "zero")
        assert v.smallest_unknown_index() is None
        assert v.coefficient_at(()) is v
        assert list(v.known_terms()) == ([] if kind == "zero" else [((), v)])
        assert coords(v + c) == plus
        assert coords(v * c) == times
        assert coords(v.scalar_mul(field.from_int(3))) == thrice
        if kind == "zero":
            return
        assert v.valuation() == ()
        assert coords(v.inv(4)) == inverse
        assert coords(v.__pow__(3, 4)) == cube
        assert coords(v.__pow__(-2, 4)) == inverse_square

    @pytest.mark.parametrize("name", list(DEPTH0_FIELDS))
    def test_constructors_give_the_scalar(self, name):
        from tlfields.tlf import TlfDescriptor

        field, c, _ = self._value(name, "compound")
        assert Series(field, 0, scalar=c) is c
        assert Series(field, 0) is field.zero
        K0 = TlfDescriptor(0, field)
        for v in (Series.zero(field, 0), Series.one(field, 0), Series.constant(field, 0, c),
                  Series.monomial(field, 0, (), c), K0.zero(), K0.one(), K0.constant(c),
                  Series.from_json(field, 0, c.to_json())):
            assert type(v) is ExtScalar
        assert Series.from_json(field, 0, c.to_json()) == c
        assert K0.one() == 1
        x = Series.from_terms(field, 1, {(0,): c, (2,): field.one})
        assert [type(x.coefficient_level1(i)) for i in range(-1, 4)] == [ExtScalar] * 5

    @pytest.mark.parametrize("name", list(DEPTH0_FIELDS))
    def test_typed_errors(self, name):
        _, c, zero = self._value(name, "zero")
        with pytest.raises(IndeterminateValuation):
            zero.valuation()
        with pytest.raises(DivisionByZero):
            zero.inv()
        with pytest.raises(LocalFieldError):
            c.coefficient_at((0,))


# The level-1 projections that part_level1 replaced, as they were written in
# lattices (the Hermite form), residue (tate_residue_dim1) and
# tlf.ArtinianQuotient.reduce, kept as the reference.


def _stored(x, k, zero):
    if x.order <= k < x.order + len(x.coeffs):
        return x.coeffs[k - x.order]
    return zero


def _part_at_least(x, cut):
    if x.is_exact_zero() or x.order >= cut:
        return x
    end = x.end
    hi = end if end is not None else x.order + len(x.coeffs)
    zero = Series.zero(x.field, x.depth - 1)
    coeffs = [_stored(x, k, zero) for k in range(cut, max(cut, hi))]
    return Series(x.field, x.depth, order=cut, coeffs=coeffs, exact=x.exact)


def _part_below(x, cut):
    if x.is_exact_zero():
        return x
    zero = Series.zero(x.field, x.depth - 1)
    start = min(x.order, cut)
    end = x.end
    if end is not None and end < cut:
        # the window stops short of the cut: the part beyond it is unknown
        coeffs = [_stored(x, k, zero) for k in range(start, end)]
        return Series(x.field, x.depth, order=start, coeffs=coeffs, exact=False)
    coeffs = [_stored(x, k, zero) for k in range(start, cut)]
    return Series(x.field, x.depth, order=start, coeffs=coeffs, exact=True)


def _project_at_least(x, cut):
    """Keep t_1-exponents >= cut (exact: the dropped part is known zero)."""
    if x.depth == 0:
        raise LocalFieldError("projection needs depth >= 1")
    if x.is_exact_zero() or x.order >= cut:
        return x
    end = x.end
    if end is not None and end <= cut:
        raise InsufficientPrecision("projection cut beyond the guaranteed window")
    zero = Series.zero(x.field, x.depth - 1)
    hi = end if end is not None else x.order + len(x.coeffs)
    coeffs = [_stored(x, k, zero) for k in range(cut, hi)]
    return Series(x.field, x.depth, order=cut, coeffs=coeffs, exact=x.exact)


def _quotient_slice(A, x):
    if x.depth != A.descriptor.n:
        raise LocalFieldError("element has wrong depth")
    if not x.is_exact_zero() and x.order < 0:
        raise LocalFieldError("element not in O_1 (negative t_1-exponent)")
    zero = Series.zero(x.field, x.depth - 1)
    kept = [_stored(x, k, zero) for k in range(0, A.exponent + 1)]
    if not x.exact and (x.end is not None and x.end <= A.exponent):
        raise InsufficientPrecision("element window does not cover the quotient degrees")
    return Series(x.field, x.depth, order=0, coeffs=kept, exact=True)


@st.composite
def _projection_case(draw):
    """x of depth 1-3 over QQ, F_5, Q(i) and F5[x]/(x^2 - 2), as in
    _product_case exact or cut to a level-1 window or a box (which may store
    nothing), and two cuts in -6..6, each of them None (unbounded) or not."""
    field = draw(st.sampled_from(SUBSTITUTION_FIELDS))
    depth = draw(st.integers(1, 3))
    x = draw(_series(field, depth, _scalar(field), st.integers(-4, 4)))
    cut = draw(st.sampled_from(["exact", "level1", "box"]))
    if cut != "exact" and not x.is_exact_zero():
        ends = [x.order + draw(st.integers(0, 6))]
        if cut == "box":
            ends += [draw(st.integers(0, 4)) for _ in range(depth - 1)]
        x = truncate_box(x, ends)
    cuts = st.one_of(st.none(), st.integers(-6, 6))
    return x, draw(cuts), draw(cuts)


class TestPartLevel1:
    """part_level1 is each of the projections it replaced, and is the part of
    x in [lo, hi) with every other coefficient an exact zero."""

    @settings(PROPERTY, max_examples=300)
    @given(_projection_case())
    def test_equals_the_replaced_projections(self, case):
        x, lo, hi = case
        if lo is not None:
            _assert_same_series(part_level1(x, lo), _part_at_least(x, lo))
            got, refused = _outcome(lambda: _project_at_least(x, lo))
            if refused is None:
                _assert_same_series(part_level1(x, lo), got)
            else:
                # refused where nothing from lo on is known; now that is the part
                assert refused[0] is InsufficientPrecision
                assert part_level1(x, lo) == Series(x.field, x.depth, order=lo, exact=False)
        if hi is not None:
            _assert_same_series(part_level1(x, None, hi), _part_below(x, hi))

    @settings(PROPERTY, max_examples=300)
    @given(_projection_case())
    def test_is_the_part_in_the_range(self, case):
        x, lo, hi = case
        part = part_level1(x, lo, hi)
        empty = lo is not None and hi is not None and lo >= hi
        assert part.exact == (x.exact or empty or (hi is not None and x.end >= hi))
        for k in range(-12, 14):
            inside = (lo is None or lo <= k) and (hi is None or k < hi)
            x_knows = x.exact or k < x.end
            knows = part.exact or k < part.end
            if inside:
                assert knows == x_knows
                if knows:
                    assert part.coefficient_level1(k) == x.coefficient_level1(k)
            else:
                assert knows or (hi is not None and k >= hi)
                if knows:
                    assert part.coefficient_level1(k).is_exact_zero()

    @settings(PROPERTY, max_examples=200)
    @given(_projection_case(), st.integers(0, 5))
    def test_quotient_reduce_equals_the_slice(self, case, exponent):
        from tlfields.tlf import ArtinianQuotient, TlfDescriptor

        x = case[0]
        A = ArtinianQuotient(TlfDescriptor(x.depth, x.field), exponent)
        got, refused = _outcome(lambda: A.reduce(x))
        want, reference_refused = _outcome(lambda: _quotient_slice(A, x))
        assert refused == reference_refused
        if want is not None:
            _assert_same_series(got, want)

    def test_quotient_refusals(self, Q):
        from tlfields.tlf import ArtinianQuotient, TlfDescriptor

        A = ArtinianQuotient(TlfDescriptor(1, Q), 2)
        x = S(Q, 1, {(0,): 1, (1,): 2})
        with pytest.raises(InsufficientPrecision, match="does not cover"):
            A.reduce(truncate_level1(x, 2))
        assert A.reduce(truncate_level1(x, 3)) == x
        with pytest.raises(LocalFieldError, match="not in O_1"):
            A.reduce(S(Q, 1, {(-1,): 1}))

    def test_depth_zero_is_refused(self, Q):
        with pytest.raises(LocalFieldError):
            part_level1(Q.one, 0)
