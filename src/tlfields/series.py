"""Truncated iterated Laurent series with a precision-window calculus.

An element of k'((t_1, ..., t_n)) is modeled recursively: a depth-n series is
a Laurent series in t_1 whose coefficients are depth-(n-1) elements.  A depth-0
element is an ExtScalar of k' itself, so a depth-1 series stores ExtScalars,
and ``Series(k, 0, scalar=s)`` is s.  Each level records

  * ``order``  -- the lowest t_1-exponent with a possibly nonzero coefficient
                  (everything below ``order`` is exactly zero),
  * ``coeffs`` -- the stored consecutive coefficients starting at ``order``,
  * ``exact``  -- whether the coefficients beyond the stored range are known
                  to vanish (an exact Laurent polynomial in t_1) or unknown.

"Topology" is replaced by window bookkeeping: every operation computes the
largest provably-correct output window from its input windows, and raises
InsufficientPrecision instead of returning coefficients outside guarantees.
Exact zero is treated as infinitely precise throughout.

A product is computed in two parts.  Its *shape* -- the start, end and
exactness of the stored range at every level, and which coefficients are exact
zeros -- comes from the window rules alone, on integers: the product rule of
``__mul__`` at the top, and below it, per coefficient, the sum rule of
``__add__`` over the products of the pairs of coefficients that are not exact
zeros, as the convolution visits them.  Its *values* are the coefficients of
the full product of the stored terms, which the window rules guarantee at every
index the shape keeps.  The result is built from shape and values through the
constructor, whose stripping makes it canonical; the exact zeros a coefficient
strips in the convolution add nothing there, so both routes give one series.

A product with a monomial operand c * t_1^e_1 ... t_n^e_n (exact, one stored
coefficient at every level) is a shift of every level: the other operand's
order moves by that level's exponent, its exactness and exact-zero
coefficients stay, and each stored scalar is multiplied by c once, or reused
when c is one.  That is what the convolution computes: against one exact
coefficient at e the window rules give [xs + e, xe + e) with x's exactness, on
either side, and each x_k * c lands on an exact zero.  A monomial never packs,
and every other product is computed as below.

Other products pick their kernel by cost.  At depth 1 the convolution visits
the pairs of stored coefficients that land inside the product's stored range,
d^2 products of coordinates each over a field of degree d, and packing costs
about 4 (d + 1) such pairs for each scalar it packs or reads back: a product
packs when the first cost exceeds the second (see _packing_pays).  Deeper, it
packs when both operands store at least ``_PACK_MIN_COEFFS`` level-1
coefficients, each counted twice.  A packed product's values come from one
big-int product (Kronecker substitution, as in D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput. 2009),
at any depth and over any field.

Each stored coordinate of an operand takes a slot of one
Python int: level l has span_x(l) + span_y(l) - 1 slots per step of the level
above, span being the operand's range of stored exponents there, and each
scalar takes 2d - 1 slots, of which its d coordinates fill the low ones.  Over
QQ each operand is first cleared of denominators (the lcm of all of them).  The
slot width comes from the bound min(#terms x, #terms y) * d * max|x| * max|y|
on every slot of the product, plus a sign bit over QQ, so no slot spills into
the next; over QQ the product is then offset by half a slot in every slot, so
each slot reads back unsigned on its own.  Only the slots the shape keeps are
read, and each scalar is reduced once through the field's fold table (dividing
by the product of the two lcms over QQ).

Products that do not pack, and operands so sparse that the packed box would
hold more than ``_PACK_BOX_PER_PAIR`` slots per pair of stored scalars, keep
the coefficientwise convolution.  At depth 1 it runs on integer coordinates, in
the fraction-free style of J. von zur Gathen and J. Gerhard, *Modern Computer
Algebra*: each operand is cleared once to integer coordinates over one common
denominator (as for packing; over F_p they are ints already), each output
index sums its products unreduced in 2d - 1 integer slots, and is then folded
and reduced once through the field's fold table -- one ``Fraction`` per
coordinate over QQ, one ``% p`` over F_p.  Deeper, the entries are series and
the convolution adds their products.

The inverse runs the recurrence out[k] = -d0 * sum_i c[i] * out[k - i], d0
being the inverse of c[0].  At depth 1 it runs on integer coordinates too (op.
cit., 9.1): with c[1:] cleared to integer vectors C_i over one denominator D,
d0 / D = U / E and F the fold table's denominator, out[k] is N_k / (E^(k+1)
F^(2k)) for integer vectors N_k that the recurrence gives from one another
through products folded by the integer table; only the w outputs are built as
scalars (see _invert_scalars).  At depth >= 2, when at least ``_PACK_MIN_COEFFS``
level-1 coefficients are not exact zeros, it runs on packed rows: every
depth-(n-1) coefficient c[i], -d0 and out[k] is packed once, in one layout of
slots per level below the top and one slot width.  Each sum is accumulated
unreduced, as the products of packed rows shifted to the lowest exponents of
the sum, and read back at the slots its shape keeps (the sum rule over the
product shapes, in the order the recurrence adds them); out[k] is the product
of -d0 with that sum, packed, read back the same way.  Shapes and values are
the recurrence's, by the argument above.  The box and the width come from the
spans and the bound of each step's pairs: when a step needs more, they grow
and the rows are packed again.  Sparser operands at depth >= 2 keep the
coefficientwise recurrence on series entries.

Substitution t_i -> a_i runs Horner's rule in t_1, recursing into the inner
levels, only below the level-1 end its result keeps: b_1 + 1, for the lex-least
index (b_1, b_2, ...) the operand does not know.  Coefficients past that end
are skipped and the accumulator is cut after every step, at every level.
"""

from fractions import Fraction
from math import comb, lcm, prod

from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    InsufficientPrecision,
    LocalFieldError,
    NotUniformizers,
)
from .scalars import ExtScalar, _clear_denominators

DEFAULT_WINDOW = 8

# At depth 1 packing costs about this many convolution pairs, times d + 1 over
# a field of degree d, for each scalar it packs or reads back (_packing_pays).
# Deeper, a product packs when both operands store at least this many level-1
# coefficients, each counted twice since it is a series itself.
_PACK_MIN_COEFFS = 4
# The packed box may hold at most this many slots per pair of stored scalars;
# sparser operands with wide exponent spans keep the convolution.
_PACK_BOX_PER_PAIR = 8


class Series:
    """One element of an iterated Laurent series field, immutable."""

    __slots__ = ("field", "depth", "order", "coeffs", "exact")

    def __new__(cls, field, depth, scalar=None, order=0, coeffs=(), exact=True):
        # a depth-0 element is its scalar, k.zero when none is given
        if depth == 0:
            return field.zero if scalar is None else scalar
        return super().__new__(cls)

    def __init__(self, field, depth, scalar=None, order=0, coeffs=(), exact=True):
        self.field = field
        self.depth = depth
        coeffs = list(coeffs)
        # strip provably-zero leading coefficients
        while coeffs and coeffs[0].is_exact_zero():
            coeffs.pop(0)
            order += 1
        if exact:
            while coeffs and coeffs[-1].is_exact_zero():
                coeffs.pop()
            if not coeffs:
                order = 0
        self.order = order
        self.coeffs = tuple(coeffs)
        self.exact = exact

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, field, depth, scalar):
        if isinstance(scalar, int):
            scalar = field.from_int(scalar)
        if depth == 0:
            return scalar
        inner = cls.constant(field, depth - 1, scalar)
        if inner.is_exact_zero():
            return cls.zero(field, depth)
        return cls(field, depth, order=0, coeffs=(inner,), exact=True)

    @classmethod
    def zero(cls, field, depth):
        if depth == 0:
            return field.zero
        return cls(field, depth, order=0, coeffs=(), exact=True)

    @classmethod
    def one(cls, field, depth):
        return cls.constant(field, depth, field.one)

    @classmethod
    def monomial(cls, field, depth, exponents, scalar=1):
        """Exact c * t_1^e_1 ... t_n^e_n."""
        exponents = tuple(exponents)
        if len(exponents) != depth:
            raise LocalFieldError("exponent tuple length must equal depth")
        if isinstance(scalar, int):
            scalar = field.from_int(scalar)
        if depth == 0:
            return scalar
        inner = cls.monomial(field, depth - 1, exponents[1:], scalar)
        if inner.is_exact_zero():
            return cls.zero(field, depth)
        return cls(field, depth, order=exponents[0], coeffs=(inner,), exact=True)

    @classmethod
    def from_terms(cls, field, depth, terms):
        """Exact Laurent polynomial from a {multi-index: scalar} mapping."""
        acc = cls.zero(field, depth)
        for idx in sorted(terms):
            acc = acc + cls.monomial(field, depth, idx, terms[idx])
        return acc

    @classmethod
    def generator(cls, field, depth, axis):
        """The variable t_axis (1-based) as an exact series."""
        exps = [0] * depth
        exps[axis - 1] = 1
        return cls.monomial(field, depth, exps)

    # -- structure ----------------------------------------------------------

    def is_exact_zero(self):
        return not self.coeffs and self.exact

    def is_zero_within_window(self):
        """True when every guaranteed coefficient vanishes."""
        return all(c.is_zero_within_window() for c in self.coeffs)

    @property
    def end(self):
        """One past the last guaranteed t_1-exponent; None means exact (+inf)."""
        if self.exact:
            return None
        return self.order + len(self.coeffs)

    @property
    def window(self):
        """Number of guaranteed consecutive coefficients from ``order``."""
        return None if self.exact else len(self.coeffs)

    def coefficient_level1(self, i):
        """The depth-(n-1) coefficient of t_1^i, or raise InsufficientPrecision."""
        if i < self.order:
            return Series.zero(self.field, self.depth - 1)
        if i < self.order + len(self.coeffs):
            return self.coeffs[i - self.order]
        if self.exact:
            return Series.zero(self.field, self.depth - 1)
        if not self.coeffs:
            raise InsufficientPrecision(
                f"t_1-coefficient {i} unknown: nothing is guaranteed from t_1^{self.order} on"
            )
        raise InsufficientPrecision(
            f"t_1-coefficient {i} outside guaranteed window [{self.order}, {self.end})"
        )

    def coefficient_at(self, idx):
        """The scalar coefficient at a full multi-index."""
        idx = tuple(idx)
        if len(idx) != self.depth:
            raise LocalFieldError("index length must equal depth")
        return self.coefficient_level1(idx[0]).coefficient_at(idx[1:])

    def valuation(self):
        """Lexicographic valuation in Z^n (t_1 dominant)."""
        if not self.coeffs:
            if self.exact:
                raise IndeterminateValuation("series is exactly zero")
            raise IndeterminateValuation(
                f"all visible coefficients vanish below exponent {self.order}"
            )
        return (self.order,) + self.coeffs[0].valuation()

    def smallest_unknown_index(self):
        """Lex-least multi-index whose coefficient is not guaranteed.

        Returns None when the series is exact at every level.  A None entry
        inside the returned tuple means "everything from here on" (-infinity).
        """
        for m, c in enumerate(self.coeffs):
            u = c.smallest_unknown_index()
            if u is not None:
                return (self.order + m,) + u
        if self.exact:
            return None
        return (self.order + len(self.coeffs),) + (None,) * (self.depth - 1)

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, Series):
            raise LocalFieldError(f"cannot combine series with {type(other).__name__}")
        if other.depth != self.depth or other.field != self.field:
            raise LocalFieldError("series have different depth or coefficient field")

    def __add__(self, other):
        if isinstance(other, (int, ExtScalar)):
            other = Series.constant(self.field, self.depth, other)
        self._check_compatible(other)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        start, end, exact = _sum_window(
            self.order, self.order + len(self.coeffs), self.exact,
            other.order, other.order + len(other.coeffs), other.exact,
        )
        n = end - start
        zero = Series.zero(self.field, self.depth - 1)
        a = _pad(self.coeffs, self.order - start, n, zero)
        b = _pad(other.coeffs, other.order - start, n, zero)
        return Series(self.field, self.depth, order=start, coeffs=[x + y for x, y in zip(a, b)],
                      exact=exact)

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.field,
            self.depth,
            order=self.order,
            coeffs=tuple(-c for c in self.coeffs),
            exact=self.exact,
        )

    def __sub__(self, other):
        if isinstance(other, (int, ExtScalar)):
            other = Series.constant(self.field, self.depth, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, s):
        if isinstance(s, int):
            s = self.field.from_int(s)
        if s.is_zero():
            return Series.zero(self.field, self.depth)
        return Series(
            self.field,
            self.depth,
            order=self.order,
            coeffs=tuple(c.scalar_mul(s) for c in self.coeffs),
            exact=self.exact,
        )

    def __mul__(self, other):
        if isinstance(other, (int, ExtScalar)):
            return self.scalar_mul(other)
        self._check_compatible(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return Series.zero(self.field, self.depth)
        if _is_monomial(other):
            return _times_monomial(self, other)
        if _is_monomial(self):
            return _times_monomial(other, self)
        start, end, exact = _mul_window(
            self.order, self.order + len(self.coeffs), self.exact,
            other.order, other.order + len(other.coeffs), other.exact,
        )
        if _packing_pays(self, other, end - start):
            product = _kronecker_product(self, other)
            if product is not None:
                return product
        zero = Series.zero(self.field, self.depth - 1)
        acc = _convolve(self.coeffs, other.coeffs, end - start, zero)
        return Series(self.field, self.depth, order=start, coeffs=acc, exact=exact)

    __rmul__ = __mul__

    def inv(self, window=None):
        """Multiplicative inverse, correct on the propagated window.

        ``window``, an integer >= 1 or None for DEFAULT_WINDOW, is the number
        of level-1 coefficients computed for an exact operand; an inexact one
        gets as many as it stores.  An exact operand with one level-1
        coefficient c0 inverts to c0^-1 * t_1^-order, exact at level 1.  Else the
        coefficients come from the recurrence out[k] = -d0 * sum c[i] out[k-i],
        d0 being the inverse of c0 (on ``window`` at the levels below); at
        depth 1 on integer coordinates, and at depth >= 2, with at least
        ``_PACK_MIN_COEFFS`` level-1 coefficients that are not exact zeros, on
        packed rows (see the module docstring).
        """
        if window is not None:
            check_window(window)
        if self.is_exact_zero():
            raise DivisionByZero("inverse of exact zero")
        if not self.coeffs:
            raise InsufficientPrecision("leading coefficient indeterminate")
        c0 = self.coeffs[0]
        if c0.depth > 0 and not c0.coeffs:
            raise InsufficientPrecision("leading coefficient indeterminate")
        if self.exact and len(self.coeffs) == 1:
            return Series(
                self.field,
                self.depth,
                order=-self.order,
                coeffs=(c0.inv(window),),
                exact=True,
            )
        if not self.exact:
            w = len(self.coeffs)
        else:
            w = DEFAULT_WINDOW if window is None else window
        zero = Series.zero(self.field, self.depth - 1)
        c = _pad(self.coeffs, 0, w, zero)
        if self.depth > 1 and sum(not x.is_exact_zero() for x in c) >= _PACK_MIN_COEFFS:
            out = _packed_invert(c, c0.inv(window), w)
        else:
            out = _invert(c, c0.inv(window), w, zero)
        return Series(self.field, self.depth, order=-self.order, coeffs=out, exact=False)

    def __truediv__(self, other):
        if isinstance(other, (int, ExtScalar)):
            if isinstance(other, int):
                other = self.field.from_int(other)
            return self.scalar_mul(other.inv())
        self._check_compatible(other)
        return self * other.inv()

    def __pow__(self, n, window=None):
        if not isinstance(n, int):
            raise LocalFieldError("series exponent must be an integer")
        if n < 0:
            return self.inv(window).__pow__(-n, window)
        if n == 0:
            return Series.one(self.field, self.depth)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        acc = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                acc = acc * base
            n >>= 1
        return acc

    # -- calculus -----------------------------------------------------------

    def derivative(self, axis):
        """Termwise partial derivative along t_axis (1-based)."""
        return self.divided_derivative(axis, 1)

    def divided_derivative(self, axis, k):
        """The divided-power derivative d^[k] along t_axis (1-based), termwise
        t^b -> C(b, k) t^(b - k) for every integer b (Hasse and Schmidt, J.
        Reine Angew. Math. 177, 1937).

        k! d^[k] is the k-th derivative, so in characteristic p the p-th
        derivative vanishes while d^[p] does not.  The window moves with the
        exponents: a coefficient known at t^b gives the one at t^(b - k).
        """
        if not 1 <= axis <= self.depth:
            raise LocalFieldError(f"axis {axis} outside 1..{self.depth}")
        if axis == 1:
            from_int = self.field.from_int
            out = [c.scalar_mul(from_int(binomial(self.order + e, k)))
                   for e, c in enumerate(self.coeffs)]
            return Series(
                self.field, self.depth, order=self.order - k, coeffs=out, exact=self.exact
            )
        return Series(
            self.field,
            self.depth,
            order=self.order,
            coeffs=tuple(c.divided_derivative(axis - 1, k) for c in self.coeffs),
            exact=self.exact,
        )

    # -- substitution -------------------------------------------------------

    def substitute(self, assignment, window=None):
        """Compose with t_i -> assignment[i-1], a valid uniformizer system.

        Soundness of the window tracking relies on each assigned series having
        valuation equal to the corresponding standard basis vector, which is
        checked here.  The result keeps only the multi-indices lexicographically
        below the first one x does not know, (b_1, b_2, ...), so the image is
        evaluated only below the level-1 end b_1 + 1 (see _evaluate).
        """
        assignment = list(assignment)
        if len(assignment) != self.depth:
            raise LocalFieldError("assignment length must equal depth")
        check_uniformizer_valuations(assignment)
        if self.is_exact_zero():
            return Series.zero(self.field, self.depth)
        bound = self.smallest_unknown_index()
        if bound is None:
            return _evaluate(self, assignment, self.depth, self.field, window)
        result = _evaluate(self, assignment, self.depth, self.field, window, bound[0] + 1)
        return truncate_lex(result, bound)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.depth != other.depth or self.field != other.field:
            return False
        return (
            self.order == other.order
            and self.exact == other.exact
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.depth, self.order, self.exact, self.coeffs))

    # -- display / serialization --------------------------------------------

    def known_terms(self):
        """Iterate (multi-index, scalar) over all guaranteed nonzero coefficients."""
        for k, c in enumerate(self.coeffs):
            for idx, s in c.known_terms():
                yield (self.order + k,) + idx, s

    def __repr__(self):
        terms = []
        for idx, s in self.known_terms():
            mono = "*".join(
                f"t{i + 1}^{e}" if e != 1 else f"t{i + 1}"
                for i, e in enumerate(idx)
                if e != 0
            )
            coeff = repr(s)
            if "+" in coeff or "-" in coeff[1:]:
                coeff = f"({coeff})"
            if mono:
                terms.append(coeff + "*" + mono if coeff != "1" else mono)
            else:
                terms.append(coeff)
        body = " + ".join(terms) if terms else "0"
        u = self.smallest_unknown_index()
        if u is not None:
            tail = ",".join("*" if e is None else str(e) for e in u)
            body += f" + O({tail})"
        return body

    def to_json(self):
        return {
            "order": self.order,
            "window": len(self.coeffs),
            "exact": self.exact,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, field, depth, data):
        if depth == 0:
            raw = [Fraction(c) if field.char == 0 else int(c) for c in data["scalar"]]
            return field.element(raw)
        coeffs = [cls.from_json(field, depth - 1, c) for c in data["coeffs"]]
        return cls(
            field,
            depth,
            order=data["order"],
            coeffs=coeffs,
            exact=data.get("exact", False),
        )


# ---------------------------------------------------------------------------
# free functions forming the operation surface
# ---------------------------------------------------------------------------


def binomial(b, k):
    """C(b, k) = b (b - 1) ... (b - k + 1) / k! for any integer b and k >= 0."""
    return comb(b, k) if b >= 0 else (-1) ** k * comb(k - b - 1, k)


def _pad(values, offset, n, zero):
    """n values with values[m] at position offset + m and zero elsewhere."""
    row = [zero] * n
    lo = max(0, -offset)
    hi = max(lo, min(len(values), n - offset))
    row[lo + offset:hi + offset] = values[lo:hi]
    return row


def _coordinates(scalars, field):
    """(values, den): the coordinates of scalars as integers over one common
    denominator den (1 over F_p); at degree 1 each value is the scalar's one
    coordinate, at degree d a list of its d coordinates."""
    d = field.degree
    if d == 1:
        values = [s.coeffs[0] for s in scalars]
        return (values, 1) if field.char else _clear_denominators(values)
    if field.char:
        return [s.coeffs for s in scalars], 1
    values, den = _clear_denominators([c for s in scalars for c in s.coeffs])
    return [values[i:i + d] for i in range(0, len(values), d)], den


def _accumulate(slots, x, y):
    """Add the polynomial product of coordinate lists x and y to slots."""
    for e, v in enumerate(x):
        if v:
            for f, u in enumerate(y, e):
                slots[f] += v * u


def _fold_product(field, c):
    """fold_den times (sum c[e] x^e mod m), for 2d - 1 integers c, as d
    integers: the high coordinates fold through the field's integer table."""
    d, scale = field.degree, field._fold_den
    low = c[:d] if scale == 1 else [scale * v for v in c[:d]]
    for v, row in zip(c[d:], field._fold):
        if v:
            for k, r in enumerate(row):
                low[k] += v * r
    return low


def _convolve(a, b, n, zero):
    """The first n coefficients of the product of coefficient lists a and b.

    Scalar entries (depth 1) run on integer coordinates: each output sums its
    products unreduced and is reduced once (see the module docstring)."""
    if not zero.depth:
        return _convolve_scalars(a, b, n, zero)
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


def _convolve_scalars(a, b, n, zero):
    """_convolve for ExtScalar entries: both operands cleared once to integer
    coordinates, each output summed unreduced over its pairs and reduced once
    over the product of the two denominators; zero where no pair lands or the
    sum vanishes."""
    field = zero.field
    xs, dx = _coordinates(a[:n], field)
    ys, dy = _coordinates(b[:n], field)
    den, p = dx * dy, field.char
    if field.degree == 1:
        acc = [0] * n
        ys = [(j, y) for j, y in enumerate(ys) if y]
        for i, x in enumerate(xs):
            if x:
                for j, y in ys:
                    if i + j >= n:
                        break
                    acc[i + j] += x * y
        return [ExtScalar(field, (v % p if p else Fraction(v, den),)) if v else zero
                for v in acc]
    acc = [None] * n
    ys = [(j, y) for j, y in enumerate(ys) if any(y)]
    for i, x in enumerate(xs):
        for j, y in ys if any(x) else ():
            k = i + j
            if k >= n:
                break
            if acc[k] is None:
                acc[k] = [0] * (2 * field.degree - 1)
            _accumulate(acc[k], x, y)
    return [zero if s is None else field._reduce(s, den) for s in acc]


def _packing_pays(x, y, n):
    """True when x * y, n level-1 coefficients long, costs less packed.

    At depth 1 the convolution visits the pairs (i, j) of stored coefficients
    with i + j < n, d^2 products of coordinates each over a field of degree
    d; packing costs about _PACK_MIN_COEFFS * (d + 1) pairs per scalar it
    packs or reads back, len(x) + len(y) + n of them.  Deeper, both operands
    must store _PACK_MIN_COEFFS level-1 coefficients, each counted twice.
    """
    a, b = len(x.coeffs), len(y.coeffs)
    if x.depth > 1:
        return min(a, b) * 2 >= _PACK_MIN_COEFFS
    # the convolution reads the first n of each; the pairs it skips, those
    # with i + j >= n, form a triangle of side m inside that box
    ca, cb = min(a, n), min(b, n)
    m = max(ca + cb - 1 - n, 0)
    d = x.field.degree
    return (ca * cb - m * (m + 1) // 2) * d * d > _PACK_MIN_COEFFS * (d + 1) * (a + b + n)


def _is_monomial(x):
    """True when x is exact and stores exactly one coefficient at every level."""
    while x.depth:
        if not x.exact or len(x.coeffs) != 1:
            return False
        x = x.coeffs[0]
    return True


def _times_monomial(x, m):
    """x * m for a monomial m = c * t_1^e_1 ... t_n^e_n and x not an exact zero:
    the order of every level of x moves by that level's exponent, exactness and
    exact-zero coefficients stay, and each stored scalar is multiplied by c
    once, or reused when c is one."""
    field, exponents, c = x.field, [], m
    while c.depth:
        exponents.append(c.order)
        c = c.coeffs[0]
    one = c == field.one

    def shift(y, level):
        if y.depth == 1:
            coeffs = y.coeffs if one else [s * c for s in y.coeffs]
        else:
            coeffs = [s if s.is_exact_zero() else shift(s, level + 1) for s in y.coeffs]
        return Series(field, y.depth, order=y.order + exponents[level], coeffs=coeffs,
                      exact=y.exact)

    return shift(x, 0)


def _sum_window(xs, xe, xx, ys, ye, yx):
    """(start, end, exact) of the stored range of a sum, from the stored ranges
    [xs, xe), [ys, ye) of the operands and their exactness."""
    start = min(xs, ys)
    if xx:
        if yx:
            return start, max(xe, ye), True
        return start, ye, False
    if yx:
        return start, xe, False
    return start, min(xe, ye), False


def _mul_window(xs, xe, xx, ys, ye, yx):
    """(start, end, exact) of the stored range of a product of two series that
    are not exact zeros, from their stored ranges and exactness."""
    start = xs + ys
    if xx:
        if yx:
            return start, xe + ye - 1, True
        return start, ye + xs, False
    if yx:
        return start, xe + ys, False
    return start, min(xe + ys, ye + xs), False


def _product_shape(x, y):
    """The shape of x * y for series x, y that are not exact zeros.

    At depth 1 it is the stored range (start, end, exact).  Deeper it is
    (start, end, exact, children), children[k] being the shape of the
    coefficient of t_1^(start + k): the sum of the shapes of the products of
    the pairs of coefficients that meet there and are not exact zeros, or None
    where no pair meets (an exact zero), as _convolve visits them.
    """
    start, end, exact = _mul_window(
        x.order, x.order + len(x.coeffs), x.exact, y.order, y.order + len(y.coeffs), y.exact
    )
    if x.depth == 1:
        return start, end, exact
    n = end - start
    children = [None] * n
    ys = [(j, c) for j, c in enumerate(y.coeffs) if not c.is_exact_zero()]
    for i, a in enumerate(x.coeffs[:n]):
        if a.is_exact_zero():
            continue
        for j, b in ys:
            k = i + j
            if k >= n:
                break
            s = _product_shape(a, b)
            children[k] = s if children[k] is None else _sum_shape(children[k], s)
    return start, end, exact, children


def _sum_shape(x, y):
    """The shape of the sum of two series with shapes x and y."""
    start, end, exact = _sum_window(x[0], x[1], x[2], y[0], y[1], y[2])
    if len(x) == 3:
        return start, end, exact
    xs, xe, xc = x[0], x[1], x[3]
    ys, ye, yc = y[0], y[1], y[3]
    children = []
    for k in range(start, end):
        a = xc[k - xs] if xs <= k < xe else None
        b = yc[k - ys] if ys <= k < ye else None
        children.append(b if a is None else a if b is None else _sum_shape(a, b))
    return start, end, exact, children


def _stored_rows(x, path=()):
    """(path, order, scalars) for each depth-1 coefficient of x that stores
    scalars, path holding its exponents at the levels above."""
    if x.depth == 1:
        return [(path, x.order, x.coeffs)] if x.coeffs else []
    rows = []
    for k, c in enumerate(x.coeffs, x.order):
        if c.coeffs:
            rows += _stored_rows(c, path + (k,))
    return rows


class _Packable:
    """A series of depth >= 1 as packing sees it: its stored depth-1 rows, the
    number n of scalars they store, the integer coordinates of those scalars
    (over QQ times den, the lcm of their denominators) and the largest of them
    in absolute value, and per level the lowest stored exponent and the span of
    stored exponents.  The packed int is kept with the layout it was packed
    for."""

    __slots__ = ("series", "rows", "values", "n", "den", "top", "lo", "span", "packed", "layout")

    def __init__(self, x):
        self.series = x
        self.rows = _stored_rows(x)
        self.n = sum(len(r[2]) for r in self.rows)
        values = [c for r in self.rows for s in r[2] for c in s.coeffs]
        self.den = 1
        if values:
            if not x.field.char:
                values, self.den = _clear_denominators(values)
            self.top = max(map(abs, values))
            self.lo, self.span = _extents(self.rows, x.depth)
        self.values = values
        self.layout = None

    def pack(self, layout):
        """The packed int for layout (strides, width); see _pack."""
        if self.layout is not layout:
            strides, width = layout
            self.packed = _pack(self.rows, self.values, self.lo, self.span[0], strides,
                                self.series.field.degree, width)
            self.layout = layout
        return self.packed


def _extents(rows, depth):
    """The lowest stored exponent and the span of stored exponents per level."""
    lo = [min(r[0][level] for r in rows) for level in range(depth - 1)]
    hi = [max(r[0][level] for r in rows) for level in range(depth - 1)]
    lo.append(min(r[1] for r in rows))
    hi.append(max(r[1] + len(r[2]) - 1 for r in rows))
    return lo, [h - l + 1 for l, h in zip(lo, hi)]


def _strides(sizes, d):
    """Slots per step at each level of a box of sizes[l] exponents per level,
    each scalar taking 2d - 1 slots; sizes[0] is not needed."""
    strides = [2 * d - 1]
    for size in reversed(sizes[1:]):
        strides.insert(0, strides[0] * size)
    return strides


def _slot_width(bound, p):
    """Bytes per slot for slots of absolute value at most bound; over QQ the
    slots are signed and need one more bit."""
    return (bound.bit_length() + (0 if p else 1) + 7) // 8


def _pair_bound(x, y, d):
    """A bound on every slot of the product of packed x and y: each slot sums
    at most min(x.n, y.n) * d products of coordinates."""
    return min(x.n, y.n) * d * x.top * y.top


def _pack(rows, values, lo, span, strides, d, width):
    """The integer coordinates `values` of the scalars stored in rows as one
    int: coordinate e of the scalar at exponents k sits in slot
    sum_l (k_l - lo_l) * strides[l] + e, each slot 8 * width bits wide; span
    is the span of the level-1 exponents."""
    last = strides[-1]
    pos = bytearray(strides[0] * span * width)
    neg = None
    i = 0
    for path, order, scalars in rows:
        o = (order - lo[-1]) * last
        for k, low, stride in zip(path, lo, strides):
            o += (k - low) * stride
        for _ in scalars:
            for b in range(o * width, (o + d) * width, width):
                v = values[i]
                i += 1
                if v > 0:
                    pos[b:b + width] = v.to_bytes(width, "little")
                elif v < 0:
                    if neg is None:
                        neg = bytearray(len(pos))
                    neg[b:b + width] = (-v).to_bytes(width, "little")
            o += last
    packed = int.from_bytes(pos, "little")
    if neg is not None:
        packed -= int.from_bytes(neg, "little")
    return packed


def _unpack(shape, field, packed, den, los, sizes, layout):
    """The series of the given shape (see _product_shape) whose stored scalars
    are read from a packed sum of products: the coordinates of the scalar at
    exponents k fill 2d - 1 slots from slot sum_l (k_l - los[l]) * strides[l]
    when every k_l lies in [los[l], los[l] + sizes[l]), and are zero outside
    that box.  Over QQ the slots are signed and each scalar is divided by den.
    Only the slots the shape keeps are read, each scalar reduced once."""
    strides, width = layout
    depth, d, p = len(los), field.degree, field.char
    total = strides[0] * sizes[0]
    half = 0
    if not p:
        # add half a slot to every slot, so each reads back unsigned on its own
        half = 1 << (8 * width - 1)
        packed += int.from_bytes((bytes(width - 1) + b"\x80") * total, "little")
    raw = packed.to_bytes(total * width, "little")
    step = (2 * d - 1) * width
    reduce = field._reduce

    def scalar_at(slot):
        o = slot * width
        if d == 1:
            v = int.from_bytes(raw[o:o + width], "little") - half
            return ExtScalar(field, (v % p if p else Fraction(v, den),))
        return reduce([int.from_bytes(raw[i:i + width], "little") - half
                       for i in range(o, o + step, width)], den)

    def build(shape, level, base):
        # base: the slot of exponent los[level] at this level, None outside the box
        start, end, exact = shape[0], shape[1], shape[2]
        lo, size, stride = los[level], sizes[level], strides[level]
        if level == depth - 1:
            coeffs = [field.zero] * (end - start)
            if base is not None:
                for k in range(max(start, lo), min(end, lo + size)):
                    coeffs[k - start] = scalar_at(base + (k - lo) * stride)
            return Series(field, 1, order=start, coeffs=coeffs, exact=exact)
        inner_zero = Series.zero(field, depth - level - 1)
        coeffs = []
        for k, child in enumerate(shape[3], start):
            if child is None:
                coeffs.append(inner_zero)
            elif base is None or not 0 <= k - lo < size:
                coeffs.append(build(child, level + 1, None))
            else:
                coeffs.append(build(child, level + 1, base + (k - lo) * stride))
        return Series(field, depth - level, order=start, coeffs=coeffs, exact=exact)

    return build(shape, 0, 0 if total else None)


def _kronecker_product(x, y):
    """x * y by one product of packed big ints (see the module docstring), for
    series x, y of one depth and field that are not exact zeros; None when the
    packed box would hold too many slots per pair of stored scalars."""
    field = x.field
    x, y = _Packable(x), _Packable(y)
    if not x.n or not y.n:
        return None
    d = field.degree
    sizes = [a + b - 1 for a, b in zip(x.span, y.span)]
    if prod(sizes) > _PACK_BOX_PER_PAIR * x.n * y.n:
        return None
    layout = (_strides(sizes, d), _slot_width(_pair_bound(x, y, d), field.char))
    los = [a + b for a, b in zip(x.lo, y.lo)]
    return _unpack(_product_shape(x.series, y.series), field, x.pack(layout) * y.pack(layout),
                   x.den * y.den, los, sizes, layout)


def _invert(c, d0, w, zero):
    """The first w coefficients of 1 / sum c[k] t^k, given d0 = 1 / c[0]; for
    scalar entries (depth 1) on integer coordinates (see _invert_scalars)."""
    if not zero.depth:
        return _invert_scalars(c, d0, w)
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


def _invert_scalars(c, d0, w):
    """_invert for ExtScalar entries, fraction-free (von zur Gathen and Gerhard,
    Modern Computer Algebra, 9.1).

    Clear c[1:] to integer vectors C_i over one denominator D, and write
    u = d0 / D = U / E with U integer; F is the field's fold_den and A (x) B
    the product of integer vectors folded by the integer table, so that
    A (x) B = F * (A B mod m).  Then out[k] = N_k / (E^(k+1) F^(2k)), with
    N_0 = D U and N_k = -U (x) sum_i C_i (x) N_(k-i) (E F^2)^(i-1); over F_p,
    where D = E = F = 1, each N_k is kept reduced mod p.  Only the outputs
    are built as scalars.
    """
    field = d0.field
    d, p = field.degree, field.char
    C, D = _coordinates(c[1:w], field)
    if d == 1:
        u = d0.coeffs[0] if p else d0.coeffs[0] / D
        U, E = (u, 1) if p else (u.numerator, u.denominator)
        N = [U * D]
    else:
        U, E = (list(d0.coeffs), 1) if p else _clear_denominators([v / D for v in d0.coeffs])
        N = [[v * D for v in U]]
    step = E * field._fold_den ** 2
    terms, scale = [], 1
    for i, x in enumerate(C, 1):
        if x if d == 1 else any(x):
            terms.append((i, x * scale if d == 1 else [v * scale for v in x]))
        scale *= step
    out, den = [d0], E
    for k in range(1, w):
        den *= step
        if d == 1:
            s = 0
            for i, x in terms:
                if i > k:
                    break
                s += x * N[k - i]
            v = -U * s
            out.append(ExtScalar(field, (v % p if p else Fraction(v, den),)))
            N.append(out[-1].coeffs[0] if p else v)
            continue
        s = [0] * (2 * d - 1)
        for i, x in terms:
            if i > k:
                break
            _accumulate(s, x, N[k - i])
        v = [0] * (2 * d - 1)
        _accumulate(v, U, _fold_product(field, s))
        v = [-e for e in _fold_product(field, v)]
        out.append(field._reduce(v, den))
        N.append(out[-1].coeffs if p else v)
    return out


def _packed_invert(c, d0, w):
    """_invert for coefficients c of depth >= 1 on packed rows (see the module
    docstring): the same recurrence, with each sum of products read back from
    one int and each coefficient -d0 * s read back from one more."""
    field, depth = d0.field, d0.depth
    d, p = field.degree, field.char
    zero = Series.zero(field, depth)
    # the box: sizes[l] exponents at each level l below the top (sizes[0] is
    # not used), and the slot width
    sizes, width = [1] * depth, 1
    layout = (_strides(sizes, d), width)

    def read(shape, pairs):
        """The series of the given shape whose values are sum x * y over the
        pairs of packed rows; the box and the width grow when they must."""
        nonlocal sizes, width, layout
        pairs = [(x, y) for x, y in pairs if x.n and y.n]
        if not pairs:
            return _unpack(shape, field, 0, 1, [0] * depth, [0] * depth, layout)
        bases = [[a + b for a, b in zip(x.lo, y.lo)] for x, y in pairs]
        los = [min(level) for level in zip(*bases)]
        need = [max(b[l] - los[l] + x.span[l] + y.span[l] - 1 for b, (x, y) in zip(bases, pairs))
                for l in range(depth)]
        den = 1 if p else lcm(*(x.den * y.den for x, y in pairs))
        scales = [den // (x.den * y.den) for x, y in pairs]
        fit = _slot_width(sum(s * _pair_bound(x, y, d) for s, (x, y) in zip(scales, pairs)), p)
        if fit > width or any(a > b for a, b in zip(need[1:], sizes[1:])):
            sizes = [max(a, b) for a, b in zip(need, sizes)]
            width = max(width, fit)
            layout = (_strides(sizes, d), width)
        strides = layout[0]
        packed = 0
        for (x, y), b, s in zip(pairs, bases, scales):
            shift = sum((bl - l) * st for bl, l, st in zip(b, los, strides))
            packed += (x.pack(layout) * y.pack(layout) * s) << (8 * width * shift)
        return _unpack(shape, field, packed, den, los, [need[0]] + sizes[1:], layout)

    minus_d0 = _Packable(-d0)
    terms = [(i, _Packable(x)) for i, x in enumerate(c) if i and not x.is_exact_zero()]
    # out_rows[k] is out[k] packable, None where out[k] is an exact zero
    out, out_rows = [d0], [_Packable(d0)]
    for k in range(1, w):
        shape, pairs = None, []
        for i, x in terms:
            if i > k:
                break
            y = out_rows[k - i]
            if y is not None:
                shape_xy = _product_shape(x.series, y.series)
                shape = shape_xy if shape is None else _sum_shape(shape, shape_xy)
                pairs.append((x, y))
        s = zero if shape is None else read(shape, pairs)
        if s.is_exact_zero():
            out.append(zero)
            out_rows.append(None)
            continue
        s = _Packable(s)
        out.append(read(_product_shape(minus_d0.series, s.series), [(minus_d0, s)]))
        out_rows.append(_Packable(out[-1]))
    return out


def check_window(window):
    """Require a precision window to be an integer >= 1."""
    if not isinstance(window, int) or window < 1:
        raise LocalFieldError(f"precision window must be an integer >= 1, got {window!r}")


def check_uniformizer_valuations(assignment):
    """Require v(assignment[i]) to be the i-th standard basis vector."""
    n = len(assignment)
    for i, s in enumerate(assignment):
        if s.depth != n:
            raise NotUniformizers(i + 1, "assigned series has wrong depth")
        try:
            v = s.valuation()
        except IndeterminateValuation as exc:
            raise NotUniformizers(i + 1, f"valuation indeterminate: {exc}") from exc
        expected = tuple(1 if j == i else 0 for j in range(n))
        if v != expected:
            raise NotUniformizers(i + 1, f"valuation {v} != {expected}")


def _evaluate(x, values, target_depth, field, window, end=None):
    """Image of the known part of x under t_i -> values[i], computed only at
    level-1 (t_1) exponents below end, or everywhere when end is None.

    values[0] has t_1-order s: 1 for a_1, and 0 for a_i with i >= 2, whose
    inverse has t_1-exponents >= 0 too.  The image of every coefficient of x
    has t_1-exponents >= 0, so the term c_k * values[0]^(order + k) starts at
    t_1^(s * (order + k)).  Horner's rule skips c_k where that is >= end, and
    cuts the accumulator after the step of c_k at end - s * (order + k), which
    is also the end handed down to c_k.
    """
    if x.depth == 0:
        return Series.constant(field, target_depth, x)
    v1 = values[0]
    acc = Series.zero(field, target_depth)
    for k in reversed(range(len(x.coeffs))):
        cut = None if end is None else end - v1.order * (x.order + k)
        if cut is not None and cut <= 0:
            continue
        acc = acc * v1 + _evaluate(x.coeffs[k], values[1:], target_depth, field, window, cut)
        if cut is not None:
            acc = truncate_level1(acc, cut)
    if x.order:
        acc = acc * v1.__pow__(x.order, window)
    return acc


def truncate_lex(x, bound):
    """Clip guaranteed knowledge to multi-indices lexicographically below bound."""
    if x.depth == 0:
        raise LocalFieldError("cannot truncate a depth-0 series")
    b1 = bound[0]
    if b1 is None:
        raise LocalFieldError("cannot represent a fully-unknown series")
    end = x.end
    if end is not None and b1 >= end:
        return x
    start = min(x.order, b1)
    kept = _pad(x.coeffs, x.order - start, b1 - start, Series.zero(x.field, x.depth - 1))
    rest = bound[1:]
    if rest and rest[0] is not None and x.depth > 1 and (end is None or b1 < end):
        kept.append(truncate_lex(x.coefficient_level1(b1), rest))
    return Series(x.field, x.depth, order=start, coeffs=kept, exact=False)


def truncate_level1(x, end):
    """Forget coefficients at level-1 exponents >= end (make the tail unknown)."""
    if x.depth == 0:
        raise LocalFieldError("cannot truncate a depth-0 series")
    cur = x.end
    if cur is not None and cur <= end:
        return x
    start = min(x.order, end)
    kept = _pad(x.coeffs, x.order - start, end - start, Series.zero(x.field, x.depth - 1))
    return Series(x.field, x.depth, order=start, coeffs=kept, exact=False)


def part_level1(x, lo=None, hi=None):
    """The part of x at level-1 exponents in [lo, hi), None meaning unbounded;
    every other coefficient is an exact zero.

    The part is exact when x is known up to hi, or when [lo, hi) is empty;
    otherwise it is known where x is known, and below lo.
    """
    if x.depth == 0:
        raise LocalFieldError("cannot project a depth-0 series")
    if x.is_exact_zero():
        return x
    stored_end = x.order + len(x.coeffs)
    start = x.order if lo is None else max(x.order, lo)
    stop = stored_end if hi is None else max(start, min(hi, stored_end))
    exact = x.exact or (hi is not None and max(stored_end, start) >= hi)
    return Series(x.field, x.depth, order=start, coeffs=x.coeffs[start - x.order:stop - x.order],
                  exact=exact)


def truncate_box(x, ends):
    """Apply truncate_level1 with ends[0], then recurse into coefficients."""
    if not ends:
        return x
    y = truncate_level1(x, ends[0])
    if len(ends) == 1 or y.depth == 1:
        return y
    coeffs = [truncate_box(c, ends[1:]) for c in y.coeffs]
    return Series(y.field, y.depth, order=y.order, coeffs=coeffs, exact=y.exact)


def agree_within_window(x, y):
    """True when x - y vanishes on every coefficient the difference guarantees."""
    return (x - y).is_zero_within_window()


def valuation_info(x):
    """(lower bound for v_1, known): known means the bound is the valuation.

    Exact zero yields (None, True).  A window-limited element whose visible
    coefficients vanish gets its window end as an honest lower bound.
    """
    if x.is_exact_zero():
        return None, True
    for k, c in enumerate(x.coeffs):
        if c.is_exact_zero():
            continue
        return x.order + k, not c.is_zero_within_window()
    return x.end, False


def level1_valuation(x):
    """The t_1-order of a nonzero element; None for exact zero."""
    v, known = valuation_info(x)
    if known:
        return v
    raise InsufficientPrecision("t_1-valuation indeterminate within the window")


def residue_level1(x):
    """The t_1^0 coefficient as a depth-(n-1) series; the image in k_1(K)."""
    return x.coefficient_level1(0)


def newton_inverse_1d(a, window=None):
    """Compositional inverse of a depth-1 series with valuation 1.

    Solves a(b(t)) = t by Newton iteration; a'(b) is a unit series so the
    update is well-defined in any characteristic.
    """
    if a.depth != 1:
        raise LocalFieldError("compositional inversion is one-dimensional here")
    check_uniformizer_valuations([a])
    if a.exact and len(a.coeffs) == 1:
        # a = c t inverts exactly to c^{-1} t
        c = a.coefficient_at((1,))
        return Series(a.field, 1, order=1, coeffs=(c.inv(),))
    if window is not None:
        w = window
    else:
        w = len(a.coeffs) if not a.exact else DEFAULT_WINDOW
    field = a.field
    t = Series.generator(field, 1, 1)
    c1 = a.coefficient_at((1,))
    b = t.scalar_mul(c1.inv())
    da = a.derivative(1)
    steps = 1
    while (1 << steps) < w + 1:
        steps += 1
    for _ in range(steps + 1):
        ab = _compose_1d(a, b, w)
        dab = _compose_1d(da, b, w)
        b = b - (ab - t) * dab.inv(w)
        b = truncate_level1(b, w + 1)
    return b


def _compose_1d(f, g, w):
    """f(g(t)) truncated past f's guaranteed window; v(g) >= 1 required."""
    result = _evaluate(f, [g], 1, f.field, w, f.end)
    # the cut already stops the image at f.end, unless f stores no term
    if not f.exact:
        result = truncate_level1(result, f.end)
    return result


def random_series(field, depth, rng, max_terms=4, exp_span=3, scalar_span=4, exact=True,
                  window=DEFAULT_WINDOW):
    """Sparse random Laurent polynomial, optionally truncated to a finite window."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(rng.randint(-exp_span, exp_span) for _ in range(depth))
        terms[idx] = field.random_element(rng, scalar_span)
    s = Series.from_terms(field, depth, terms)
    if not exact and depth >= 1:
        s = truncate_level1(s, s.order + window)
    return s


def map_scalars(x, fn, target_field):
    """Apply fn to every scalar coefficient, producing a series over target_field."""
    if x.depth == 0:
        return fn(x)
    return Series(
        target_field,
        x.depth,
        order=x.order,
        coeffs=tuple(map_scalars(c, fn, target_field) for c in x.coeffs),
        exact=x.exact,
    )
