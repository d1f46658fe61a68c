"""Truncated iterated Laurent series with a precision-window calculus.

An element of k'((t_1, ..., t_n)) is modeled recursively: a depth-n series is
a Laurent series in t_1 whose coefficients are depth-(n-1) series, bottoming
out in ExtScalar values at depth 0.  Each level records

  * ``order``  -- the lowest t_1-exponent with a possibly nonzero coefficient
                  (everything below ``order`` is exactly zero),
  * ``coeffs`` -- the stored consecutive coefficients starting at ``order``,
  * ``exact``  -- whether the coefficients beyond the stored range are known
                  to vanish (an exact Laurent polynomial in t_1) or unknown.

"Topology" is replaced by window bookkeeping: every operation computes the
largest provably-correct output window from its input windows, and raises
InsufficientPrecision instead of returning coefficients outside guarantees.
Exact zero is treated as infinitely precise throughout.

Multiplication at depth 1 over a field of degree d >= 2 runs on one big-int
product (Kronecker substitution, as in D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput. 2009).
Each operand's first n coordinate vectors are packed into a Python int: t-slot
i holds 2d-1 x-slots, of which the coordinates fill the low d.  Over QQ the
operand is first cleared of denominators (the lcm of all of them).  The slot
width comes from the bound min(len a, len b) * d * max|a| * max|b| on every
slot of the product, plus a sign bit over QQ, so no slot overflows into the
next.  The two ints are multiplied once; the first n t-slots are unpacked
(signed slots with a borrow) and each is reduced once through the field's fold
table, dividing by the product of the two lcms over QQ.  The order, end and
exactness of the result come from the window rules before the kernel runs, so
the result equals the coefficientwise convolution.  Degree-1 fields and deeper
levels keep the convolution; the inverse keeps its recurrence.
"""

from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    InsufficientPrecision,
    LocalFieldError,
    NotUniformizers,
)
from .scalars import ExtScalar, _clear_denominators

DEFAULT_WINDOW = 8


class Series:
    """One element of an iterated Laurent series field, immutable."""

    __slots__ = ("field", "depth", "scalar", "order", "coeffs", "exact")

    def __init__(self, field, depth, scalar=None, order=0, coeffs=(), exact=True):
        self.field = field
        self.depth = depth
        if depth == 0:
            self.scalar = scalar if scalar is not None else field.zero
            self.order = 0
            self.coeffs = ()
            self.exact = True
            return
        self.scalar = None
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
            return cls(field, 0, scalar=scalar)
        inner = cls.constant(field, depth - 1, scalar)
        if inner.is_exact_zero():
            return cls.zero(field, depth)
        return cls(field, depth, order=0, coeffs=(inner,), exact=True)

    @classmethod
    def zero(cls, field, depth):
        if depth == 0:
            return cls(field, 0, scalar=field.zero)
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
            return cls(field, 0, scalar=scalar)
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
        if self.depth == 0:
            return self.scalar.is_zero()
        return not self.coeffs and self.exact

    def is_zero_within_window(self):
        """True when every guaranteed coefficient vanishes."""
        if self.depth == 0:
            return self.scalar.is_zero()
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
        if self.depth == 0:
            raise LocalFieldError("depth-0 series has no level-1 coefficients")
        if i < self.order:
            return Series.zero(self.field, self.depth - 1)
        if i < self.order + len(self.coeffs):
            return self.coeffs[i - self.order]
        if self.exact:
            return Series.zero(self.field, self.depth - 1)
        raise InsufficientPrecision(
            f"t_1-coefficient {i} outside guaranteed window [{self.order}, {self.end})"
        )

    def coefficient_at(self, idx):
        """The scalar coefficient at a full multi-index."""
        idx = tuple(idx)
        if len(idx) != self.depth:
            raise LocalFieldError("index length must equal depth")
        if self.depth == 0:
            return self.scalar
        return self.coefficient_level1(idx[0]).coefficient_at(idx[1:])

    def valuation(self):
        """Lexicographic valuation in Z^n (t_1 dominant)."""
        if self.depth == 0:
            if self.scalar.is_zero():
                raise IndeterminateValuation("series is exactly zero")
            return ()
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
        if self.depth == 0:
            return None
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
        if self.depth == 0:
            return Series(self.field, 0, scalar=self.scalar + other.scalar)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        start = min(self.order, other.order)
        ends = [e for e in (self.end, other.end) if e is not None]
        if ends:
            end = min(ends)
            exact = False
        else:
            end = max(self.order + len(self.coeffs), other.order + len(other.coeffs))
            exact = True
        n = max(0, end - start)
        a, zero, _ = self._level1_values()
        b = other._level1_values()[0]
        a = _pad(a, self.order - start, n, zero)
        b = _pad(b, other.order - start, n, zero)
        out = self._from_level1_values([x + y for x, y in zip(a, b)])
        if end < start:
            start = end
        return Series(self.field, self.depth, order=start, coeffs=out, exact=exact)

    __radd__ = __add__

    def _stored(self, k, zero):
        if self.order <= k < self.order + len(self.coeffs):
            return self.coeffs[k - self.order]
        return zero

    def _level1_values(self):
        """(values, zero, is_zero) for the level-1 kernels.

        At depth 1 the values are the ExtScalars of the coefficients, so a
        kernel does scalar arithmetic and wraps each result into a depth-0
        series once, in _from_level1_values; deeper, they are the coefficient
        series themselves.
        """
        if self.depth == 1:
            return [c.scalar for c in self.coeffs], self.field.zero, ExtScalar.is_zero
        return list(self.coeffs), Series.zero(self.field, self.depth - 1), Series.is_exact_zero

    def _from_level1_values(self, values):
        if self.depth == 1:
            return [Series(self.field, 0, scalar=v) for v in values]
        return values

    def __neg__(self):
        if self.depth == 0:
            return Series(self.field, 0, scalar=-self.scalar)
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
        if self.depth == 0:
            return Series(self.field, 0, scalar=self.scalar * s)
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
        if self.depth == 0:
            return Series(self.field, 0, scalar=self.scalar * other.scalar)
        if self.is_exact_zero() or other.is_exact_zero():
            return Series.zero(self.field, self.depth)
        start = self.order + other.order
        bounds = []
        if self.end is not None:
            bounds.append(self.end + other.order)
        if other.end is not None:
            bounds.append(other.end + self.order)
        if bounds:
            end = min(bounds)
            exact = False
        else:
            end = start + len(self.coeffs) + len(other.coeffs) - 1
            exact = True
        n = max(0, end - start)
        a, zero, is_zero = self._level1_values()
        b = other._level1_values()[0]
        if self.depth == 1 and self.field.degree > 1:
            values = _packed_product(self.field, a, b, n)
        else:
            values = _convolve(a, b, n, zero, is_zero)
        acc = self._from_level1_values(values)
        if end < start:
            start = end
        return Series(self.field, self.depth, order=start, coeffs=acc, exact=exact)

    __rmul__ = __mul__

    def inv(self, window=None):
        """Multiplicative inverse, correct on the propagated window."""
        if self.depth == 0:
            if self.scalar.is_zero():
                raise DivisionByZero("inverse of exact zero")
            return Series(self.field, 0, scalar=self.scalar.inv())
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
        c, zero, is_zero = self._level1_values()
        c = _pad(c, 0, w, zero)
        d0 = c0.scalar.inv() if self.depth == 1 else c0.inv(window)
        out = self._from_level1_values(_invert(c, d0, w, zero, is_zero))
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
        acc = Series.one(self.field, self.depth)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- calculus -----------------------------------------------------------

    def derivative(self, axis):
        """Termwise partial derivative along t_axis (1-based)."""
        if not 1 <= axis <= self.depth:
            raise LocalFieldError(f"axis {axis} outside 1..{self.depth}")
        if axis == 1:
            out = []
            for k, c in enumerate(self.coeffs):
                e = self.order + k
                out.append(c.scalar_mul(self.field.from_int(e)))
            return Series(
                self.field, self.depth, order=self.order - 1, coeffs=out, exact=self.exact
            )
        return Series(
            self.field,
            self.depth,
            order=self.order,
            coeffs=tuple(c.derivative(axis - 1) for c in self.coeffs),
            exact=self.exact,
        )

    # -- substitution -------------------------------------------------------

    def substitute(self, assignment, window=None):
        """Compose with t_i -> assignment[i-1], a valid uniformizer system.

        Soundness of the window tracking relies on each assigned series having
        valuation equal to the corresponding standard basis vector, which is
        checked here.
        """
        assignment = list(assignment)
        if len(assignment) != self.depth:
            raise LocalFieldError("assignment length must equal depth")
        check_uniformizer_valuations(assignment)
        if self.is_exact_zero():
            return Series.zero(self.field, self.depth)
        bound = self.smallest_unknown_index()
        result = _evaluate(self, assignment, self.depth, self.field, window)
        if bound is None:
            return result
        return truncate_lex(result, bound)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.depth != other.depth or self.field != other.field:
            return False
        if self.depth == 0:
            return self.scalar == other.scalar
        return (
            self.order == other.order
            and self.exact == other.exact
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self.depth == 0:
            return hash((self.field, self.scalar))
        return hash((self.field, self.depth, self.order, self.exact, self.coeffs))

    # -- display / serialization --------------------------------------------

    def known_terms(self):
        """Iterate (multi-index, scalar) over all guaranteed nonzero coefficients."""
        if self.depth == 0:
            if not self.scalar.is_zero():
                yield (), self.scalar
            return
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
        if self.depth == 0:
            return {"scalar": [str(c) for c in self.scalar.coeffs]}
        return {
            "order": self.order,
            "window": len(self.coeffs),
            "exact": self.exact,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, field, depth, data):
        from fractions import Fraction

        if depth == 0:
            raw = [Fraction(c) if field.char == 0 else int(c) for c in data["scalar"]]
            return cls(field, 0, scalar=field.element(raw))
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


def _pad(values, offset, n, zero):
    """n values with values[m] at position offset + m and zero elsewhere."""
    row = [zero] * n
    lo = max(0, -offset)
    hi = max(lo, min(len(values), n - offset))
    row[lo + offset:hi + offset] = values[lo:hi]
    return row


def _convolve(a, b, n, zero, is_zero):
    """The first n coefficients of the product of coefficient lists a and b."""
    acc = [zero] * n
    b_nonzero = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    for i, x in enumerate(a[:n]):
        if is_zero(x):
            continue
        for j, y in b_nonzero:
            if i + j >= n:
                break
            acc[i + j] = acc[i + j] + x * y
    return acc


def _packed_product(field, a, b, n):
    """_convolve(a, b, n, ...) for ExtScalar lists over a field of degree >= 2,
    by one product of packed big ints (see the module docstring)."""
    d = field.degree
    a, b = a[:n], b[:n]
    p = field.char
    if p:
        xa = [c for s in a for c in s.coeffs]
        xb = [c for s in b for c in s.coeffs]
        den = 1
    else:
        xa, da = _clear_denominators([c for s in a for c in s.coeffs])
        xb, db = _clear_denominators([c for s in b for c in s.coeffs])
        den = da * db
    top_a = max(map(abs, xa), default=0)
    top_b = max(map(abs, xb), default=0)
    if not top_a or not top_b:
        return [field.zero] * n
    bound = min(len(a), len(b)) * d * top_a * top_b
    # bytes per slot; over QQ the slots are signed and need one more bit
    width = (bound.bit_length() + (0 if p else 1) + 7) // 8
    pack = _pack if p else _pack_signed
    prod = pack(xa, d, width) * pack(xb, d, width)
    size = n * (2 * d - 1) * width
    raw = (prod & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    if p:
        slots = [int.from_bytes(raw[o:o + width], "little") for o in range(0, size, width)]
    else:
        # the slots below sum to a negative number exactly when the last nonzero
        # one is negative, and then this slot reads one less than its value
        slots = []
        borrow = 0
        for o in range(0, size, width):
            v = int.from_bytes(raw[o:o + width], "little", signed=True) + borrow
            if v:
                borrow = v < 0
            slots.append(v)
    step = 2 * d - 1
    return [field._reduce(slots[o:o + step], den) for o in range(0, len(slots), step)]


def _pack(values, d, width):
    """The nonnegative coordinates of a coefficient list as one int: coordinate k
    of coefficient i at bit 8 * width * (i * (2d - 1) + k)."""
    chunks = [v.to_bytes(width, "little") for v in values]
    gap = bytes(width * (d - 1))
    return int.from_bytes(
        gap.join([b"".join(chunks[o:o + d]) for o in range(0, len(chunks), d)]), "little"
    )


def _pack_signed(values, d, width):
    """_pack for coordinates of either sign: the positive parts less the negative."""
    return (_pack([max(v, 0) for v in values], d, width)
            - _pack([max(-v, 0) for v in values], d, width))


def _invert(c, d0, w, zero, is_zero):
    """The first w coefficients of 1 / sum c[k] t^k, given d0 = 1 / c[0]."""
    out = [d0]
    c_nonzero = [(i, x) for i, x in enumerate(c) if i and not is_zero(x)]
    for k in range(1, w):
        s = zero
        for i, x in c_nonzero:
            if i > k:
                break
            s = s + x * out[k - i]
        out.append(-(d0 * s))
    return out


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


def _evaluate(x, values, target_depth, field, window):
    """Image of the known part of x under t_i -> values[i]."""
    if x.depth == 0:
        return Series.constant(field, target_depth, x.scalar)
    v1 = values[0]
    acc = Series.zero(field, target_depth)
    for c in reversed(x.coeffs):
        img = _evaluate(c, values[1:], target_depth, field, window)
        acc = acc * v1 + img
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
    zero = Series.zero(x.field, x.depth - 1)
    start = min(x.order, b1)
    kept = [x._stored(k, zero) for k in range(start, b1)]
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
    zero = Series.zero(x.field, x.depth - 1)
    start = min(x.order, end)
    kept = [x._stored(k, zero) for k in range(start, end)]
    return Series(x.field, x.depth, order=start, coeffs=kept, exact=False)


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
        return Series(a.field, 1, order=1, coeffs=(Series(a.field, 0, scalar=c.inv()),))
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
    result = _evaluate(f, [g], 1, f.field, w)
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
        return Series(target_field, 0, scalar=fn(x.scalar))
    return Series(
        target_field,
        x.depth,
        order=x.order,
        coeffs=tuple(map_scalars(c, fn, target_field) for c in x.coeffs),
        exact=x.exact,
    )
