import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from tlfields.errors import DivisionByZero, LocalFieldError, ReduciblePolynomial
from tlfields.scalars import (
    BaseField,
    ExtField,
    ExtScalar,
    _poly_add,
    _poly_ext_gcd,
    _poly_mod,
    _poly_mul,
    _poly_trim,
    ext_norm,
    ext_trace,
    make_extension,
    row_reduce,
)


@pytest.fixture
def f4():
    return make_extension(2, [1, 1, 1])  # GF(4) = F2[x]/(x^2+x+1)


@pytest.fixture
def qi():
    return make_extension(0, [1, 0, 1])  # Q(i)


@pytest.fixture
def f9():
    return make_extension(3, [1, 0, 1])  # F9: x^2+1 has no root mod 3


class TestConstruction:
    def test_f4(self, f4):
        assert f4.degree == 2
        assert f4.char == 2
        # 4 distinct elements
        elems = {f4.element([a, b]) for a in range(2) for b in range(2)}
        assert len(elems) == 4

    def test_qi(self, qi):
        i = qi.gen
        assert i * i == qi.from_int(-1)

    def test_f9_exhaustive_roots(self, f9):
        # oracle: x^2+1 has no root mod 3
        assert all((r * r + 1) % 3 != 0 for r in range(3))
        assert f9.degree == 2

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            make_extension(2, [0, 1, 1])  # x^2 + x = x(x+1)
        with pytest.raises(ReduciblePolynomial):
            make_extension(0, [-1, 0, 1])  # x^2 - 1
        with pytest.raises(ReduciblePolynomial):
            make_extension(0, [-8, 0, 0, 1])  # x^3 - 8 = (x-2)(x^2+2x+4)

    def test_cubic_rational(self):
        make_extension(0, [-2, 0, 0, 1])  # x^3 - 2 irreducible over Q

    def test_quartic_with_quadratic_factors_rejected(self):
        # (x^2+1)(x^2+2) = x^4 + 3x^2 + 2: no rational roots, needs Kronecker
        with pytest.raises(ReduciblePolynomial):
            make_extension(0, [2, 0, 3, 0, 1])

    def test_quartic_irreducible(self):
        make_extension(0, [1, 0, 0, 0, 1])  # x^4 + 1 irreducible over Q

    def test_degree_one_identity_maps(self):
        k = make_extension(0, [0, 1])
        a = k.from_fraction(Fraction(3, 7))
        assert ext_trace(a) == Fraction(3, 7)
        assert ext_norm(a) == Fraction(3, 7)

    def test_json_roundtrip(self, qi, f9):
        for fld in (qi, f9):
            assert ExtField.from_json(fld.to_json()) == fld


class TestTraceNorm:
    def test_trace_f4_generator(self, f4):
        # Frobenius oracle: x + x^2 = x + (x+1) = 1
        x = f4.gen
        frob = x * x
        assert x + frob == f4.one
        assert ext_trace(x) == 1

    def test_trace_zero(self, f4, qi):
        assert ext_trace(f4.zero) == 0
        assert ext_trace(qi.zero) == 0

    def test_trace_i(self, qi):
        assert ext_trace(qi.gen) == 0

    def test_norm_one_plus_i(self, qi):
        # conjugate product (1+i)(1-i) = 2
        a = qi.one + qi.gen
        assert ext_norm(a) == 2

    def test_norm_identity(self, qi, f4):
        assert ext_norm(qi.one) == 1
        assert ext_norm(f4.one) == 1

    def test_norm_f9_generator(self, f9):
        # det oracle equals product of Frobenius conjugates x * x^3 = x^4
        x = f9.gen
        assert ext_norm(x) == (x ** 4).coeffs[0]
        assert ext_norm(x) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_trace_additive_norm_multiplicative(self, f4, qi, f9, seed):
        rng = random.Random(seed)
        for fld in (f4, qi, f9):
            for _ in range(500):
                a = fld.random_element(rng)
                b = fld.random_element(rng)
                assert ext_trace(a + b) == fld.base.add(ext_trace(a), ext_trace(b))
                assert ext_norm(a * b) == fld.base.mul(ext_norm(a), ext_norm(b))


class TestFieldAxioms:
    @pytest.mark.parametrize("poly,char", [([1, 1, 1], 2), ([1, 0, 1], 0), ([1, 0, 1], 3)])
    def test_axioms(self, poly, char):
        fld = make_extension(char, poly)
        rng = random.Random(42)
        for _ in range(300):
            a = fld.random_element(rng)
            b = fld.random_element(rng)
            c = fld.random_element(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
        for _ in range(100):
            a = fld.random_nonzero(rng)
            assert a * a.inv() == fld.one

    def test_inverse_of_zero(self, qi):
        with pytest.raises(DivisionByZero):
            qi.zero.inv()

    def test_pow(self, f9):
        x = f9.gen
        assert x ** 8 == f9.one  # multiplicative group order 8
        assert x ** -1 == x.inv()


class TestBaseField:
    def test_prime_validation(self):
        with pytest.raises(Exception):
            BaseField(4)
        with pytest.raises(Exception):
            BaseField(101)

    def test_fraction_reduction(self):
        k = BaseField(0)
        assert k.from_fraction(Fraction(2, 4)) == Fraction(1, 2)

    def test_fp_lift(self):
        k = BaseField(5)
        assert k.from_fraction(Fraction(1, 2)) == 3  # 2*3 = 6 = 1 mod 5


# -- degree-1 fast paths against the generic polynomial route ---------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# k[x]/(x) and k[x]/(x - 3) over QQ and F_5: both are k itself
DEGREE_ONE = [make_extension(char, poly) for char in (0, 5) for poly in ([0, 1], [-3, 1])]


def _raw(field):
    if field.char:
        return st.integers(0, field.char - 1)
    return st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _degree_one_pair(draw):
    field = draw(st.sampled_from(DEGREE_ONE))
    a = ExtScalar(field, (draw(_raw(field)),))
    b = ExtScalar(field, (draw(_raw(field)),))
    return field, a, b


def _padded(field, poly):
    return tuple(poly) + (field.base.zero,) * (field.degree - len(poly))


def _generic_add(field, a, b):
    return _padded(field, _poly_add(field.base, list(a.coeffs), list(b.coeffs)))


def _generic_sub(field, a, b):
    k = field.base
    return _padded(field, _poly_add(k, list(a.coeffs), [k.neg(c) for c in b.coeffs]))


def _generic_mul(field, a, b):
    k = field.base
    prod = _poly_mul(k, list(a.coeffs), list(b.coeffs))
    return _padded(field, _poly_mod(k, prod, list(field.min_poly)))


def _generic_inv(field, a):
    k = field.base
    d, u, _ = _poly_ext_gcd(k, _poly_trim(list(a.coeffs)), list(field.min_poly))
    assert len(d) == 1
    return _padded(field, _poly_mod(k, [k.div(c, d[0]) for c in u], list(field.min_poly)))


class TestDegreeOneFastPath:
    @PROPERTY
    @given(_degree_one_pair())
    def test_ring_ops_match_generic_route(self, case):
        field, a, b = case
        assert (a + b).coeffs == _generic_add(field, a, b)
        assert (a - b).coeffs == _generic_sub(field, a, b)
        assert (-a).coeffs == _generic_sub(field, field.zero, a)
        assert (a * b).coeffs == _generic_mul(field, a, b)
        for result in (a + b, a - b, -a, a * b):
            assert result.field is field and len(result.coeffs) == 1

    @PROPERTY
    @given(_degree_one_pair())
    def test_inverse_matches_generic_route(self, case):
        field, a, _ = case
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.inv()
            return
        assert a.inv().coeffs == _generic_inv(field, a)
        assert (a * a.inv()).coeffs == field.one.coeffs

    @PROPERTY
    @given(_degree_one_pair(), st.integers(-12, 12))
    def test_equality_and_zero_test(self, case, n):
        field, a, b = case
        assert (a == b) == (a.coeffs == b.coeffs)
        assert a.is_zero() == (a.coeffs[0] == 0)
        assert (a == n) == (a.coeffs == field.from_int(n).coeffs)
        twin = ExtField(field.base, list(field.min_poly))  # equal field, other object
        assert twin is not field and twin == field
        assert a == ExtScalar(twin, a.coeffs)
        assert (a + ExtScalar(twin, b.coeffs)).coeffs == _generic_add(field, a, b)

    def test_mixed_fields_rejected(self):
        q, f5 = make_extension(0, [0, 1]), make_extension(5, [0, 1])
        assert q.one != f5.one
        with pytest.raises(LocalFieldError):
            q.one + f5.one


# -- fold-table multiply and reduction against the polynomial route ----------

FOLD_FIELDS = [
    make_extension(5, [-2, 0, 1]),  # F5[x]/(x^2 - 2)
    make_extension(2, [1, 1, 0, 1]),  # F2[x]/(x^3 + x + 1)
    make_extension(0, [1, 0, 1]),  # Q(i)
    make_extension(0, [-2, 0, 0, 1]),  # Q(cbrt 2)
    make_extension(0, [Fraction(1, 2), 0, Fraction(3, 4), 1]),  # non-integral m(x)
]


def _high(field):
    """A raw base-field value of height up to 10^3 (zero included)."""
    if field.char:
        return st.integers(0, field.char - 1)
    return st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@st.composite
def _fold_pair(draw):
    field = draw(st.sampled_from(FOLD_FIELDS))
    scalar = st.one_of(
        st.just(field.zero),
        st.tuples(*[_high(field)] * field.degree).map(lambda c: ExtScalar(field, c)),
    )
    return field, draw(scalar), draw(scalar)


def _types(coeffs):
    return [type(c) for c in coeffs]


class TestFoldTable:
    def test_rows_are_reduced_powers(self):
        for field in FOLD_FIELDS:
            k, d = field.base, field.degree
            assert len(field._fold) == d - 1
            for j, row in enumerate(field._fold):
                power = [k.zero] * (d + j) + [k.one]
                want = _padded(field, _poly_mod(k, power, list(field.min_poly)))
                assert tuple(k.from_fraction(Fraction(r, field._fold_den)) for r in row) == want

    @PROPERTY
    @given(_fold_pair())
    def test_multiply_matches_polynomial_route(self, case):
        field, a, b = case
        got, want = (a * b).coeffs, _generic_mul(field, a, b)
        assert got == want
        assert _types(got) == _types(want)

    @PROPERTY
    @given(st.sampled_from(FOLD_FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), st.lists(_high(f), max_size=14))))
    def test_element_reduces_like_the_remainder(self, case):
        field, coeffs = case
        k = field.base
        got = field.element(coeffs).coeffs
        want = _padded(field, _poly_mod(k, _poly_trim(list(coeffs)), list(field.min_poly)))
        assert got == want
        assert _types(got) == _types(want)


# -- extension add, sub and neg against the base-field route -----------------

ADD_FIELDS = [FOLD_FIELDS[0], FOLD_FIELDS[2]]  # F5[x]/(x^2 - 2), Q(i)


class TestExtensionAddSub:
    @PROPERTY
    @given(st.sampled_from(ADD_FIELDS).flatmap(lambda f: st.tuples(
        st.just(f), *[st.tuples(*[_high(f)] * f.degree).map(lambda c, f=f: ExtScalar(f, c))] * 2)))
    def test_coordinatewise_like_the_base_field(self, case):
        field, a, b = case
        k = field.base
        got = [(a + b).coeffs, (a - b).coeffs, (-a).coeffs]
        want = [
            tuple(k.add(x, y) for x, y in zip(a.coeffs, b.coeffs)),
            tuple(k.sub(x, y) for x, y in zip(a.coeffs, b.coeffs)),
            tuple(k.neg(x) for x in a.coeffs),
        ]
        assert got == want
        assert [_types(c) for c in got] == [_types(c) for c in want]


# -- the one elimination over a field and the norm it computes ---------------

ELIM_FIELDS = [make_extension(0, [0, 1]), make_extension(5, [0, 1]), FOLD_FIELDS[0]]


def _small(field):
    """Elements with coordinates in -1..1, so that singular matrices are common."""
    return st.tuples(*[st.integers(-1, 1)] * field.degree).map(field.element)


@st.composite
def _matrix(draw):
    field = draw(st.sampled_from(ELIM_FIELDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = _small(field)
    return field, [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def _leibniz(field, m):
    """Determinant as the signed sum over permutations."""
    total = field.zero
    for perm in permutations(range(len(m))):
        term = field.one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        total = total - term if inversions % 2 else total + term
    return total


def _rank(field, m):
    """The largest size of a nonzero minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if _leibniz(field, [[m[i][j] for j in cols] for i in rows]) != field.zero:
                    return k
    return 0


class TestRowReduce:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_matrix())
    def test_reduced_echelon_form_of_the_same_row_space(self, case):
        field, m = case
        before = [row[:] for row in m]
        reduced, pivots, det = row_reduce(m, field.zero, field.one)
        assert m == before  # the input is left as it was
        assert len(reduced) == len(m) and all(len(row) == len(m[0]) for row in reduced)
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert reduced[i][c] == field.one
            assert all(e == field.zero for e in reduced[i][:c])
            assert all(reduced[j][c] == field.zero for j in range(len(m)) if j != i)
        assert all(e == field.zero for row in reduced[len(pivots):] for e in row)
        # every input row is the combination of reduced rows its pivot entries
        # give, and the reduced rows span no more than the input rows do
        for row in m:
            combo = [field.zero] * len(row)
            for i, c in enumerate(pivots):
                combo = [a + row[c] * b for a, b in zip(combo, reduced[i])]
            assert combo == row
        assert len(pivots) == _rank(field, m)
        if len(m) == len(m[0]):
            assert det == _leibniz(field, m)

    def test_stops_once_every_row_has_a_pivot(self):
        field = ELIM_FIELDS[0]
        asked = []

        def pick(entries):
            entries = list(entries)
            asked.append(len(entries))
            return entries[0][0]

        one, two = field.one, field.from_int(2)
        _, pivots, det = row_reduce([[two, one, one]], field.zero, field.one, pick)
        assert asked == [1] and pivots == [0] and det == two


NORM_FIELDS = [
    make_extension(5, [-3, 0, 1]),  # F5[x]/(x^2 - 3)
    make_extension(2, [1, 1, 0, 1]),  # F2[x]/(x^3 + x + 1)
    make_extension(0, [1, 0, 1]),  # Q(i)
    make_extension(0, [-2, 0, 0, 1]),  # Q(cbrt 2)
    make_extension(0, [2, 0, 0, 0, 1]),  # Q[x]/(x^4 + 2)
]


class TestNorm:
    @PROPERTY
    @given(st.sampled_from(NORM_FIELDS).flatmap(lambda f: st.tuples(
        st.just(f), *[st.tuples(*[_raw(f)] * f.degree).map(lambda c, f=f: ExtScalar(f, c))] * 2)))
    def test_multiplicative(self, case):
        field, a, b = case
        assert ext_norm(a * b) == field.base.mul(ext_norm(a), ext_norm(b))

    @pytest.mark.parametrize("field", NORM_FIELDS[2:], ids=repr)
    def test_resultant_over_q_matches_sympy(self, field):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def poly(coeffs):
            return sum(sympy.Rational(c.numerator, c.denominator) * x ** e
                       for e, c in enumerate(coeffs))

        rng = random.Random(field.degree)
        for a in [field.zero, field.one, field.gen] + [field.random_element(rng) for _ in range(20)]:
            # m is monic, so Res(m, a) is the product of a over the roots of m
            assert ext_norm(a) == Fraction(str(sympy.resultant(poly(field.min_poly), poly(a.coeffs), x)))
