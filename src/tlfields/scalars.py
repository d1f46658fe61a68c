"""Exact base-field arithmetic: rationals, prime fields, and small extensions.

A BaseField is either the rationals (characteristic 0, values are
``fractions.Fraction``) or a prime field F_p (values are ints in [0, p)).
An ExtField is a finite extension k[x]/(m(x)) of degree <= 6, with elements
stored as coordinate vectors in the power basis 1, x, ..., x^(d-1).
Every consumer of scalars works through ExtScalar, degree-1 fields included.
A degree-1 field k[x]/(x - c) is k itself: its elements are single base-field
values, so ExtScalar arithmetic on them calls the BaseField operations on
``coeffs[0]`` directly and never builds, reduces or inverts a polynomial.
Fields compare by identity first; operands of one field object skip the
structural comparison.

For degree d >= 2 every field carries a fold table: the coordinates of
x^(d+j) mod m(x) for j = 0..d-2, computed once at construction and scaled to
integers by one common denominator (1 over F_p).  A product is then one pass
on integers: each rational operand is cleared of denominators (its lcm), the
schoolbook product of the coordinate vectors is formed with no reduction
inside the loop, its d-1 high coordinates are folded into the low d through
the table, and each of the d results is reduced once: ``% p`` over F_p, one
``Fraction`` normalisation over QQ.  ``ExtField.element`` reduces over-long
coordinate lists by the same rule.

The module also holds the polynomial helpers over a BaseField and the one
Gauss-Jordan elimination over a field, ``row_reduce``, which serves the norm,
the finite-potent trace in bt_ops and the lattice inverse in lattices.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    IrreducibilityCheckInfeasible,
    LocalFieldError,
    ReduciblePolynomial,
)

MAX_PRIME = 97
MAX_EXT_DEGREE = 6

# Budget for the Kronecker factor search over the rationals.
_KRONECKER_BUDGET = 200_000


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class BaseField:
    """The rationals (char 0) or a prime field F_p (p prime, p <= 97)."""

    __slots__ = ("char",)

    def __init__(self, char):
        if char != 0:
            if not _is_prime(char):
                raise LocalFieldError(f"characteristic {char} is not prime")
            if char > MAX_PRIME:
                raise LocalFieldError(f"prime {char} exceeds supported bound {MAX_PRIME}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.char == other.char

    def __hash__(self):
        return hash(("BaseField", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    # raw values are Fraction (char 0) or int in [0, p)

    def from_int(self, n):
        if self.char == 0:
            return Fraction(n)
        return n % self.char

    def from_fraction(self, q):
        if self.char == 0:
            return Fraction(q)
        q = Fraction(q)
        den = q.denominator % self.char
        if den == 0:
            raise DivisionByZero(f"denominator {q.denominator} vanishes mod {self.char}")
        return (q.numerator * pow(den, -1, self.char)) % self.char

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def random(self, rng, span=6):
        if self.char:
            return rng.randrange(self.char)
        return Fraction(rng.randint(-span, span), rng.randint(1, 4))


# ---------------------------------------------------------------------------
# dense polynomial helpers over a BaseField (coefficient lists, low to high)
# ---------------------------------------------------------------------------


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_add(k, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else k.zero
        b = g[i] if i < len(g) else k.zero
        out.append(k.add(a, b))
    return _poly_trim(out)


def _poly_mul(k, f, g):
    if not f or not g:
        return []
    out = [k.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = k.add(out[i + j], k.mul(a, b))
    return _poly_trim(out)


def _poly_divmod(k, f, g):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(f)
    q = [k.zero] * max(0, len(f) - len(g) + 1)
    inv_lead = k.inv(g[-1])
    while len(f) >= len(g) and f:
        shift = len(f) - len(g)
        factor = k.mul(f[-1], inv_lead)
        q[shift] = factor
        for i, b in enumerate(g):
            f[shift + i] = k.sub(f[shift + i], k.mul(factor, b))
        _poly_trim(f)
    return _poly_trim(q), f


def _poly_mod(k, f, g):
    return _poly_divmod(k, f, g)[1]


def _poly_eval(k, f, x):
    acc = k.zero
    for c in reversed(f):
        acc = k.add(k.mul(acc, x), c)
    return acc


def _poly_derivative(k, f):
    return _poly_trim([k.mul(k.from_int(i), c) for i, c in enumerate(f)][1:])


def _poly_str(f, var):
    """f as 'c0 + c1*var + var^2 + ...', zero terms left out; '0' for f = 0."""
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = var if i == 1 else f"{var}^{i}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts) if parts else "0"


def _poly_ext_gcd(k, f, g):
    """Return (d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [k.one], []
    t0, t1 = [], [k.one]
    while r1:
        q, r = _poly_divmod(k, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(k, s0, [k.neg(c) for c in _poly_mul(k, q, s1)])
        t0, t1 = t1, _poly_add(k, t0, [k.neg(c) for c in _poly_mul(k, q, t1)])
    if r0:
        lead_inv = k.inv(r0[-1])
        r0 = [k.mul(c, lead_inv) for c in r0]
        s0 = [k.mul(c, lead_inv) for c in s0]
        t0 = [k.mul(c, lead_inv) for c in t0]
    return r0, s0, t0


# ---------------------------------------------------------------------------
# the least factor of a polynomial, by brute-force search
# ---------------------------------------------------------------------------


def _monic_polys(p, degree):
    """Yield all monic degree-`degree` coefficient lists over F_p."""
    total = p ** degree
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield coeffs


def _divisors_signed(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    out = []
    for v in small + large[::-1]:
        out.append(v)
        out.append(-v)
    return out


def _integer_poly(poly):
    """A rational polynomial times the lcm of its denominators, as ints."""
    denom = 1
    for c in poly:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [int(c * denom) for c in poly]


def _least_factor(k, poly, max_deg):
    """The monic factor of least degree 1..max_deg of a monic poly of degree
    >= 1, or None.  Only degrees up to deg/2 are searched, so poly itself is
    the answer when nothing turns up and its degree is at most max_deg.

    Over F_p: trial division by every monic polynomial, degree by degree.
    Over QQ: the root at 0, the rational roots (rational root theorem), then
    Kronecker interpolation per degree, which may raise
    IrreducibilityCheckInfeasible.  The first factor found has least degree
    and comes first in that search order.
    """
    top = min(max_deg, (len(poly) - 1) // 2)
    if k.char:
        for deg in range(1, top + 1):
            for g in _monic_polys(k.char, deg):
                if not _poly_mod(k, poly, g):
                    return g
    elif top:
        zpoly = _integer_poly(poly)
        if zpoly[0] == 0:
            return [k.zero, k.one]
        r_dens = [r for r in _divisors_signed(zpoly[-1]) if r > 0]
        for r_num in _divisors_signed(zpoly[0]):
            for r_den in r_dens:
                if _poly_eval(k, poly, Fraction(r_num, r_den)) == 0:
                    return [-Fraction(r_num, r_den), k.one]
        for deg in range(2, top + 1):
            g = _kronecker_factor(k, poly, deg)
            if g is not None:
                return g
    return list(poly) if len(poly) - 1 <= max_deg else None


def _check_irreducible(k, poly):
    """Raise ReduciblePolynomial naming the least factor of poly, if any."""
    g = _least_factor(k, poly, len(poly) - 2)
    if g is None:
        return
    if k.char:
        raise ReduciblePolynomial(f"factor of degree {len(g) - 1} found over GF({k.char})")
    if len(g) > 2:
        raise ReduciblePolynomial(f"factor of degree {len(g) - 1} found over QQ")
    if g[0] == 0:
        raise ReduciblePolynomial("root at 0")
    raise ReduciblePolynomial(f"rational root {-g[0]}")


def _kronecker_factor(k, poly, deg):
    """Kronecker's method over QQ: the first monic factor g of poly with
    1 <= deg g < deg poly among the interpolants through deg + 1 integer
    points, or None.  Raises IrreducibilityCheckInfeasible when the search
    would exceed _KRONECKER_BUDGET candidates."""
    zpoly = _integer_poly(poly)
    points = []
    x = 0
    while len(points) < deg + 1:
        v = _poly_eval(k, [Fraction(c) for c in zpoly], Fraction(x))
        if v != 0:
            points.append((x, int(v)))
        x = -x if x > 0 else -x + 1
    divisor_lists = [_divisors_signed(v) for _, v in points]
    total = prod(len(lst) for lst in divisor_lists)
    if total > _KRONECKER_BUDGET:
        raise IrreducibilityCheckInfeasible(
            f"Kronecker search needs {total} candidates (budget {_KRONECKER_BUDGET})"
        )
    xs = [Fraction(x) for x, _ in points]
    # reversed, so the first point's divisor varies fastest
    for ys in product(*divisor_lists[::-1]):
        g = _lagrange_interp(xs, [Fraction(y) for y in ys[::-1]])
        if 1 <= len(g) - 1 < len(poly) - 1 and not _poly_divmod(k, poly, g)[1]:
            lead_inv = k.inv(g[-1])
            return [k.mul(c, lead_inv) for c in g]
    return None


def _lagrange_interp(xs, ys):
    n = len(xs)
    poly = []
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul(BaseField(0), num, [-xs[j], Fraction(1)])
            den *= xs[i] - xs[j]
        term = [c * ys[i] / den for c in num]
        poly = _poly_add(BaseField(0), poly, term)
    return poly


# ---------------------------------------------------------------------------
# extension fields
# ---------------------------------------------------------------------------


class ExtField:
    """A finite extension k[x]/(m(x)) of the base field, degree 1..6.

    Irreducibility of m is verified at construction by _least_factor, the
    one factor search over the base field (trial division over F_p, root
    search plus Kronecker interpolation over Q), which geom also uses to
    factor denominators.
    """

    __slots__ = ("base", "min_poly", "degree", "_zero", "_one", "_fold", "_fold_den")

    def __init__(self, base, min_poly):
        min_poly = [base.from_fraction(c) if base.char == 0 else base.from_int(c)
                    for c in min_poly]
        if not min_poly or min_poly[-1] != base.one:
            raise LocalFieldError("minimal polynomial must be monic")
        d = len(min_poly) - 1
        if not 1 <= d <= MAX_EXT_DEGREE:
            raise LocalFieldError(f"extension degree {d} outside 1..{MAX_EXT_DEGREE}")
        if d > 1:
            _check_irreducible(base, min_poly)
        self.base = base
        self.min_poly = tuple(min_poly)
        self.degree = d
        self._zero = ExtScalar(self, (base.zero,) * d)
        self._one = ExtScalar(self, (base.one,) + (base.zero,) * (d - 1))
        # fold table: row j holds x^(d+j) mod m, times _fold_den, as integers
        row = [base.neg(c) for c in min_poly[:d]]
        rows = []
        for _ in range(d - 1):
            rows.append(row)
            top = row[-1]
            row = [base.zero] + row[:-1]
            row = [base.add(c, base.mul(top, r)) for c, r in zip(row, rows[0])]
        ints, self._fold_den = _clear_denominators([c for r in rows for c in r])
        self._fold = tuple(tuple(ints[j * d:(j + 1) * d]) for j in range(d - 1))

    @property
    def char(self):
        return self.base.char

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ExtField)
            and self.base == other.base
            and self.min_poly == other.min_poly
        )

    def __hash__(self):
        return hash(("ExtField", self.base, self.min_poly))

    def __repr__(self):
        if self.degree == 1:
            return repr(self.base)
        return f"{self.base!r}[x]/({_poly_str(self.min_poly, 'x')})"

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def gen(self):
        if self.degree == 1:
            # x is congruent to -c0 in a degree-1 quotient
            return ExtScalar(self, (self.base.neg(self.min_poly[0]),))
        coeffs = [self.base.zero] * self.degree
        coeffs[1] = self.base.one
        return ExtScalar(self, tuple(coeffs))

    def element(self, coeffs):
        """The element sum coeffs[e] x^e, for any number of coordinates."""
        k = self.base
        coeffs = [k.from_fraction(c) if k.char == 0 else k.from_int(c) for c in coeffs]
        if len(coeffs) > self.degree:
            ints, den = _clear_denominators(coeffs)
            return self._reduce(ints, den)
        coeffs += [k.zero] * (self.degree - len(coeffs))
        return ExtScalar(self, tuple(coeffs))

    def _reduce(self, c, den=1):
        """The element (sum c[e] x^e) / den, for a list c of integers (consumed)
        and an integer den > 0.

        Coordinates above x^(2d-2) are first folded down one at a time through
        x^e = x^(e-d) * x^d; then the d-1 high coordinates are folded through
        the table in one pass, and each low coordinate is reduced once.
        """
        d = self.degree
        rows, fold_den = self._fold, self._fold_den
        while len(c) > 2 * d - 1:
            top = c.pop()
            if top:
                if fold_den != 1:
                    c = [fold_den * v for v in c]
                    den *= fold_den
                e = len(c) - d
                for k, r in enumerate(rows[0]):
                    c[e + k] += top * r
        low = c[:d]
        if len(low) < d:
            low += [0] * (d - len(low))
        high = c[d:]
        if any(high):
            if fold_den != 1:
                low = [fold_den * v for v in low]
                den *= fold_den
            for v, row in zip(high, rows):
                if v:
                    for k, r in enumerate(row):
                        low[k] += v * r
        p = self.base.char
        if p:
            return ExtScalar(self, tuple([v % p for v in low]))
        return ExtScalar(self, tuple([Fraction(v, den) for v in low]))

    def from_base(self, raw):
        return self.element([raw])

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def from_fraction(self, q):
        return self.from_base(self.base.from_fraction(q))

    def basis(self):
        """Power basis 1, x, ..., x^(d-1)."""
        out = []
        for i in range(self.degree):
            coeffs = [self.base.zero] * self.degree
            coeffs[i] = self.base.one
            out.append(ExtScalar(self, tuple(coeffs)))
        return out

    def random_element(self, rng, span=6):
        return ExtScalar(
            self, tuple(self.base.random(rng, span) for _ in range(self.degree))
        )

    def random_nonzero(self, rng, span=6):
        while True:
            a = self.random_element(rng, span)
            if not a.is_zero():
                return a

    def to_json(self):
        if self.base.char == 0:
            poly = [str(c) for c in self.min_poly]
        else:
            poly = [int(c) for c in self.min_poly]
        return {"char": self.base.char, "ext_poly": poly}

    @classmethod
    def from_json(cls, data):
        base = BaseField(data["char"])
        if base.char == 0:
            poly = [Fraction(c) for c in data["ext_poly"]]
        else:
            poly = list(data["ext_poly"])
        return cls(base, poly)


class ExtScalar:
    """An element of an ExtField in power-basis coordinates. Immutable.

    It is also the depth-0 element of the series tower: the coefficients of a
    depth-1 ``Series`` are ExtScalars, and ``Series(k, 0, scalar=s)`` is s.
    For the series recursion it answers ``depth`` (0), ``is_exact_zero`` and
    ``is_zero_within_window`` (both ``is_zero``), ``valuation``,
    ``smallest_unknown_index``, ``coefficient_at(())``, ``known_terms``,
    ``scalar_mul``, ``to_json``, and ``inv`` and ``**`` with a window that a
    scalar ignores.
    """

    __slots__ = ("field", "coeffs")

    depth = 0

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    is_exact_zero = is_zero_within_window = is_zero

    def valuation(self):
        if self.is_zero():
            raise IndeterminateValuation("series is exactly zero")
        return ()

    def smallest_unknown_index(self):
        return None

    def coefficient_at(self, idx):
        if tuple(idx):
            raise LocalFieldError("index length must equal depth")
        return self

    def known_terms(self):
        if not self.is_zero():
            yield (), self

    def to_json(self):
        return {"scalar": [str(c) for c in self.coeffs]}

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            if other.field is not self.field and other.field != self.field:
                raise LocalFieldError("scalars from different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        k = field.base
        if field.degree == 1:
            return ExtScalar(field, (k.add(self.coeffs[0], other.coeffs[0]),))
        p = k.char
        if p:
            return ExtScalar(field, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))
        return ExtScalar(field, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        k = field.base
        if field.degree == 1:
            return ExtScalar(field, (k.sub(self.coeffs[0], other.coeffs[0]),))
        p = k.char
        if p:
            return ExtScalar(field, tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]))
        return ExtScalar(field, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        field = self.field
        k = field.base
        if field.degree == 1:
            return ExtScalar(field, (k.neg(self.coeffs[0]),))
        p = k.char
        if p:
            return ExtScalar(field, tuple([-a % p for a in self.coeffs]))
        return ExtScalar(field, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        k = field.base
        if field.degree == 1:
            return ExtScalar(field, (k.mul(self.coeffs[0], other.coeffs[0]),))
        if k.char:
            a, b, den = self.coeffs, other.coeffs, 1
        else:
            a, da = _clear_denominators(self.coeffs)
            b, db = _clear_denominators(other.coeffs)
            den = da * db
        prod = [0] * (2 * field.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return field._reduce(prod, den)

    __rmul__ = scalar_mul = __mul__

    def inv(self, window=None):
        if self.is_zero():
            raise DivisionByZero("inverse of exact zero")
        field = self.field
        k = field.base
        if field.degree == 1:
            return ExtScalar(field, (k.inv(self.coeffs[0]),))
        d, u, _ = _poly_ext_gcd(k, _poly_trim(list(self.coeffs)), list(field.min_poly))
        if len(d) != 1:
            raise LocalFieldError("element not invertible; minimal polynomial reducible?")
        return field.element([k.div(c, d[0]) for c in u])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n, window=None):
        if n < 0:
            return self.inv() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            if other.field is not self.field and other.field != self.field:
                return False
        elif isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        else:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        return _poly_str(self.coeffs, "x")

    def mult_matrix(self):
        """Matrix of multiplication by self in the power basis (rows over the base)."""
        k = self.field.base
        d = self.field.degree
        cols = []
        for b in self.field.basis():
            col = (self * b).coeffs
            cols.append(col)
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def trace(self):
        """Trace of the multiplication matrix; the base-field trace tr_{k'/k}."""
        m = self.mult_matrix()
        k = self.field.base
        acc = k.zero
        for i in range(self.field.degree):
            acc = k.add(acc, m[i][i])
        return acc

    def norm(self):
        """Determinant of the multiplication matrix; the base-field norm n_{k'/k}."""
        field = self.field
        rows = [[field.from_base(c) for c in row] for row in self.mult_matrix()]
        return row_reduce(rows, field.zero, field.one)[2].coeffs[0]


def _clear_denominators(values):
    """(integers, den) with values[i] == integers[i] / den, den the lcm of the
    denominators; int values pass with den 1."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# matrices over a field (lists of rows): ExtScalar, or Series over K
# ---------------------------------------------------------------------------


def _dot(row, v):
    acc = None
    for a, b in zip(row, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def mat_vec(A, v):
    return [_dot(row, v) for row in A]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[_dot(row, col) for col in cols] for row in A]


def row_reduce(rows, zero, one, pick=None, inv=None):
    """Gauss-Jordan elimination over a field whose exact zero and one are
    given.  Returns (reduced, pivots, det): the reduced row echelon form, the
    pivot column of each of its leading rows, and the signed product of the
    pivots, which for a square matrix is its determinant (zero once some
    column has no pivot).  Each pivot becomes exactly one and each cleared
    entry exactly zero; elimination stops once every row has a pivot.

    pick(entries) chooses the pivot row of a column from the (row, entry)
    pairs below the pivots found so far, None for no pivot; by default the
    first nonzero entry.  inv(p) inverts a pivot; by default p.inv().
    """
    pick = pick or (lambda entries: next((r for r, e in entries if e != zero), None))
    inv = inv or (lambda p: p.inv())
    rows = [r[:] for r in rows]
    pivots = []
    det = one
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        at = pick((r, rows[r][col]) for r in range(rank, len(rows)))
        if at is None:
            det = zero
            continue
        if at != rank:
            rows[rank], rows[at] = rows[at], rows[rank]
            det = -det
        p = rows[rank][col]
        det = det * p
        p_inv = inv(p)
        row = [p_inv * e for e in rows[rank]]
        row[col] = one
        rows[rank] = row
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f != zero:
                rows[r] = [a - f * b for a, b in zip(rows[r], row)]
                rows[r][col] = zero
        pivots.append(col)
    return rows, pivots, det


def make_extension(base, min_poly):
    """Build the extension field k[x]/(m(x)); raises ReduciblePolynomial on failure."""
    if isinstance(base, int):
        base = BaseField(base)
    return ExtField(base, min_poly)


def ext_trace(a):
    """Trace of an extension scalar down to the base field."""
    return a.trace()


def ext_norm(a):
    """Norm of an extension scalar down to the base field."""
    return a.norm()


QQ = BaseField(0)
