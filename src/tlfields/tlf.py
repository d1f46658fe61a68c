"""The n-step valuation tower: descriptors, uniformizers, liftings, quotients.

A TlfDescriptor fixes the ambient field k'((t_1, ..., t_n)); its elements are
Series of depth n over the extension field k'.  The module provides:

  * validation of uniformizer systems (valuation + recursive residue checks),
  * parametrization isomorphisms and their compositional inverses,
  * systems of coefficient-field liftings, standard and derivation-twisted,
  * expansion of elements as sum_q sigma(b_q) a^q and its reassembly,
  * artinian quotients O_1/m_1^(l+1) and the change-of-lifting matrix
    between two liftings of such a quotient, each entry an explicit
    differential operator whose order is derived from the liftings and
    cross-checked by the commutator filtration on probes.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import (
    BasisNotFiltered,
    CharacteristicObstruction,
    IndeterminateValuation,
    InsufficientPrecision,
    LocalFieldError,
    NotUniformizers,
)
from .scalars import ExtField
from .series import (
    DEFAULT_WINDOW,
    Series,
    check_window,
    newton_inverse_1d,
    part_level1,
    residue_level1,
    truncate_level1,
)


class TlfDescriptor:
    """An n-dimensional iterated Laurent series field over k with last residue k'."""

    def __init__(self, n, field, window=DEFAULT_WINDOW):
        if n < 0:
            raise LocalFieldError("dimension must be nonnegative")
        if not isinstance(field, ExtField):
            raise LocalFieldError("last residue field must be an ExtField")
        check_window(window)
        self.n = n
        self.field = field
        self.window = window

    def __eq__(self, other):
        return (
            isinstance(other, TlfDescriptor)
            and self.n == other.n
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.n, self.field))

    def __repr__(self):
        vars_ = ",".join(f"t{i}" for i in range(1, self.n + 1))
        return f"{self.field!r}(({vars_}))" if self.n else repr(self.field)

    @property
    def char(self):
        return self.field.char

    def residue_descriptor(self):
        """Descriptor of the first residue field k_1(K)."""
        if self.n == 0:
            raise LocalFieldError("a 0-dimensional field has no residue tower")
        return TlfDescriptor(self.n - 1, self.field, self.window)

    # element factories

    def zero(self):
        return Series.zero(self.field, self.n)

    def one(self):
        return Series.one(self.field, self.n)

    def constant(self, scalar):
        return Series.constant(self.field, self.n, scalar)

    def gen(self, axis):
        return Series.generator(self.field, self.n, axis)

    def gens(self):
        return [self.gen(i) for i in range(1, self.n + 1)]

    def monomial(self, exponents, scalar=1):
        return Series.monomial(self.field, self.n, exponents, scalar)

    def from_terms(self, terms):
        return Series.from_terms(self.field, self.n, terms)

    def random_element(self, rng, **kw):
        from .series import random_series

        return random_series(self.field, self.n, rng, **kw)

    def to_json(self):
        data = self.field.to_json()
        data["n"] = self.n
        data["window"] = self.window
        return data

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], ExtField.from_json(data), data.get("window", DEFAULT_WINDOW))


class UniformizerSystem:
    """A validated system (a_1, ..., a_n) with v(a_i) the i-th basis vector."""

    def __init__(self, descriptor, elements, valuations):
        self.descriptor = descriptor
        self.elements = tuple(elements)
        self.valuations = tuple(valuations)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @classmethod
    def standard(cls, descriptor):
        gens = descriptor.gens()
        vals = [tuple(1 if j == i else 0 for j in range(descriptor.n)) for i in range(descriptor.n)]
        return cls(descriptor, gens, vals)


def validate_uniformizers(descriptor, elements):
    """Check the uniformizer conditions and return a certified system.

    v(a_1) must be (1,0,...,0), and the images of a_2,...,a_n in k_1(K) must
    form a uniformizer system there; both conditions collapse to v(a_i) = e_i,
    verified level by level so failures report the offending level.
    """
    elements = list(elements)
    n = descriptor.n
    if len(elements) != n:
        raise NotUniformizers(0, f"expected {n} elements, got {len(elements)}")
    vals = []
    for i, a in enumerate(elements):
        if not isinstance(a, Series) or a.depth != n or a.field != descriptor.field:
            raise NotUniformizers(i + 1, "element not a series of the ambient field")
        try:
            v = a.valuation()
        except IndeterminateValuation as exc:
            raise NotUniformizers(i + 1, f"valuation indeterminate: {exc}") from exc
        expected = tuple(1 if j == i else 0 for j in range(n))
        if v != expected:
            raise NotUniformizers(i + 1, f"v(a_{i + 1}) = {v}, expected {expected}")
        vals.append(v)
    return UniformizerSystem(descriptor, elements, vals)


class SubstitutionIso:
    """The isomorphism sending t_i to a_i, with its compositional inverse."""

    def __init__(self, system, inverse_elements, window):
        self.system = system
        self.descriptor = system.descriptor
        self.inverse_elements = tuple(inverse_elements)
        self.window = window

    def forward(self, x):
        return x.substitute(self.system.elements, self.window)

    def inverse(self, x):
        return x.substitute(self.inverse_elements, self.window)


def parametrize(descriptor, system, window=None):
    """Build the substitution isomorphism of a uniformizer system.

    The inverse assignment is computed level by level: the target is expanded
    along powers of a_1 with coefficients transported through the map, the
    residue substitution is inverted recursively one dimension down, and the
    recursion bottoms out in Newton iteration at depth 1.
    """
    if not isinstance(system, UniformizerSystem):
        system = validate_uniformizers(descriptor, system)
    w = descriptor.window if window is None else window
    n = descriptor.n
    if n == 0:
        return SubstitutionIso(system, (), w)
    inverse = [
        _inverse_apply(list(system.elements), descriptor.gen(i), w)
        for i in range(1, n + 1)
    ]
    return SubstitutionIso(system, inverse, w)


def _inverse_apply(a_list, y, window):
    """Compute f^{-1}(y) for the substitution f: t_i -> a_list[i-1].

    Writing z = sum_q sigma_std(b_q) t_1^q, the image is
    f(z) = sum_q lam(b_q) a_1^q with lam(b) := f(sigma_std(b)), whose residue
    is fbar(b) for the residue substitution fbar of (a_2, ..., a_n).  The b_q
    are solved by a triangular pass in ascending q, inverting fbar recursively.
    """
    n = y.depth
    if n == 0:
        return y
    if all(a == Series.generator(y.field, n, i + 1) for i, a in enumerate(a_list)):
        return y
    if n == 1:
        b = newton_inverse_1d(a_list[0], window=window)
        return y.substitute([b], window=window)
    field = y.field
    a1 = a_list[0]
    a1_inv = a1.inv(window + 2)
    abar = [residue_level1(a) for a in a_list[1:]]

    def lam(b):
        proxy = Series(field, n, order=0, coeffs=(b,), exact=True)
        return proxy.substitute(a_list, window=window)

    apow = {0: Series.one(field, n)}

    def power(e):
        if e not in apow:
            apow[e] = power(e - 1) * a1 if e > 0 else power(e + 1) * a1_inv
        return apow[e]

    pairs = []
    r = y
    q = y.order
    end = y.end
    cap = q + window + 4
    while not r.is_exact_zero():
        if end is not None and q >= end:
            break
        if q > cap:
            break
        try:
            cq = residue_level1(r * power(-q))
        except InsufficientPrecision:
            break
        if not cq.is_exact_zero():
            bq = _inverse_apply(abar, cq, window)
            pairs.append((bq, q))
            r = r - lam(bq) * power(q)
        q += 1
    # assemble sum sigma_std(b_q) t_1^q directly as stored coefficients
    if not pairs:
        if r.is_exact_zero():
            return Series.zero(field, n)
        return Series(field, n, order=q, coeffs=(), exact=False)
    lo = min(qq for _, qq in pairs)
    by_q = {qq: bq for bq, qq in pairs}
    zero = Series.zero(field, n - 1)
    coeffs = [by_q.get(k, zero) for k in range(lo, q)]
    return Series(field, n, order=lo, coeffs=coeffs, exact=r.is_exact_zero())


# ---------------------------------------------------------------------------
# liftings
# ---------------------------------------------------------------------------


class LiftingSpec:
    """A coefficient-field lifting at one level of the tower.

    ``standard`` is the Laurent inclusion k_i(K) -> O_i(K).  ``twisted``
    applies the truncated exponential of a derivation D = c * d/dt_axis:
    sigma(x) = sum_{j<=L} t^j sigma_std(D^j x) / j!, a ring homomorphism
    modulo m^(L+1).  In characteristic p this requires L <= p-1.
    """

    def __init__(self, level, kind="standard", axis=None, c=None, depth=1):
        self.level = level
        self.kind = kind
        if kind == "standard":
            self.axis = None
            self.c = None
            self.depth = 0
            return
        if kind != "twisted":
            raise LocalFieldError(f"unknown lifting kind {kind!r}")
        if axis is None or axis <= level:
            raise LocalFieldError("twist axis must lie strictly below the lifting level")
        if not isinstance(depth, int) or depth < 0:
            raise LocalFieldError(f"twist depth must be an integer >= 0, got {depth!r}")
        self.axis = axis
        self.c = c
        self.depth = depth

    def is_standard(self):
        return self.kind == "standard"

    def component_order(self, k):
        """Order bound of sigma_k, the t_1^k component of this lifting, as a
        differential operator on the residue field; None where sigma_k is zero.

        sigma(x) = sum_k t_1^k sigma_std(sigma_k(x)).  sigma_0 is the identity
        for either kind, since a lifting is a section of the residue map.  A
        twisted sigma_k is D^k/k! with D = c d/dt_axis, of order <= k, and is
        zero above the truncation depth.
        """
        if k == 0:
            return 0
        if self.is_standard() or k > self.depth:
            return None
        return k

    def _check_char(self, field):
        if self.kind == "twisted" and field.char and self.depth > field.char - 1:
            raise CharacteristicObstruction(
                f"twist depth {self.depth} needs invertible factorials; char {field.char} "
                f"allows depth <= {field.char - 1}"
            )

    def apply(self, x):
        """Lift a residue-field element one level up the tower."""
        field = x.field
        if self.is_standard():
            if x.is_exact_zero():
                return Series.zero(field, x.depth + 1)
            return Series(field, x.depth + 1, order=0, coeffs=(x,), exact=True)
        self._check_char(field)
        rel_axis = self.axis - self.level
        if not 1 <= rel_axis <= x.depth:
            raise LocalFieldError("twist axis outside the residue field's variables")
        c = self.c
        if c is None:
            c = Series.one(field, x.depth)
        elif c.depth != x.depth:
            raise LocalFieldError("twist coefficient has wrong depth")
        terms = []
        d = x
        fact = 1
        for j in range(0, self.depth + 1):
            if j > 0:
                d = c * d.derivative(rel_axis)
                fact *= j
            if d.is_exact_zero():
                continue
            if field.char == 0:
                coef = field.from_fraction(Fraction(1, fact))
            else:
                coef = field.from_int(pow(fact % field.char, -1, field.char))
            terms.append((j, d.scalar_mul(coef)))
        out = Series.zero(field, x.depth + 1)
        for j, val in terms:
            if val.is_exact_zero():
                continue
            out = out + Series(field, x.depth + 1, order=j, coeffs=(val,), exact=True)
        return out

    def verify_homomorphism(self, descriptor, rng, trials=8):
        """Spot-check sigma(xy) = sigma(x) sigma(y) modulo m^(L+1)."""
        if self.is_standard():
            return True
        m = descriptor.n - self.level
        for _ in range(trials):
            from .series import random_series

            x = random_series(descriptor.field, m, rng, max_terms=3, exp_span=2)
            y = random_series(descriptor.field, m, rng, max_terms=3, exp_span=2)
            lhs = self.apply(x * y)
            rhs = self.apply(x) * self.apply(y)
            diff = truncate_level1(lhs - rhs, self.depth + 1)
            if not diff.is_zero_within_window():
                return False
        return True

    def to_json(self):
        data = {"level": self.level, "kind": self.kind}
        if self.kind == "twisted":
            data["axis"] = self.axis
            data["c"] = self.c.to_json() if self.c is not None else None
            data["depth"] = self.depth
        return data

    @classmethod
    def from_json(cls, descriptor, data):
        if data["kind"] == "standard":
            return cls(data["level"])
        c = None
        if data.get("c") is not None:
            c = Series.from_json(
                descriptor.field, descriptor.n - data["level"], data["c"]
            )
        return cls(data["level"], "twisted", data["axis"], c, data.get("depth", 1))


class LiftingSystem:
    """Liftings sigma_1, ..., sigma_n for the whole tower."""

    def __init__(self, descriptor, specs, verify=True, rng=None):
        specs = tuple(specs)
        if len(specs) != descriptor.n:
            raise LocalFieldError("one lifting spec per level required")
        for i, s in enumerate(specs):
            if s.level != i + 1:
                raise LocalFieldError("lifting specs must be ordered by level")
            s._check_char(descriptor.field)
        self.descriptor = descriptor
        self.specs = specs
        if verify and rng is not None:
            for s in specs:
                if not s.verify_homomorphism(descriptor, rng):
                    raise LocalFieldError(
                        f"twisted lifting at level {s.level} fails the ring-homomorphism check"
                    )

    @classmethod
    def standard(cls, descriptor):
        return cls(descriptor, [LiftingSpec(i + 1) for i in range(descriptor.n)])

    @classmethod
    def twisted_at(cls, descriptor, level, axis, c=None, depth=1):
        specs = [
            LiftingSpec(i + 1)
            if i + 1 != level
            else LiftingSpec(level, "twisted", axis, c, depth)
            for i in range(descriptor.n)
        ]
        return cls(descriptor, specs)

    @property
    def sigma1(self):
        return self.specs[0]

    def d1(self):
        """The truncated system for k_1(K)."""
        res = self.descriptor.residue_descriptor()
        specs = [
            LiftingSpec(s.level - 1)
            if s.is_standard()
            else LiftingSpec(s.level - 1, "twisted", s.axis - 1, s.c, s.depth)
            for s in self.specs[1:]
        ]
        return LiftingSystem(res, specs)

    def is_standard(self):
        return all(s.is_standard() for s in self.specs)

    def to_json(self):
        return [s.to_json() for s in self.specs]


def sigma_expand(x, sigma1, a1=None, window=None):
    """Expansion coefficients b_q with x = sum_q sigma_1(b_q) a_1^q.

    Returns a list of (b_q, q) pairs covering the guaranteed window; the
    coefficients are solved by a triangular elimination in ascending q.
    """
    field = x.field
    if x.depth == 0:
        raise LocalFieldError("expansion needs depth >= 1")
    t1_standard = a1 is None or a1 == Series.generator(field, x.depth, 1)
    if sigma1.is_standard() and t1_standard:
        return [(c, x.order + k) for k, c in enumerate(x.coeffs)]
    if x.is_exact_zero():
        return []
    w = DEFAULT_WINDOW if window is None else window
    if a1 is None:
        a1 = Series.generator(field, x.depth, 1)
    try:
        va = a1.valuation()
    except IndeterminateValuation as exc:
        raise NotUniformizers(1, f"a_1 valuation indeterminate: {exc}") from exc
    if va != (1,) + (0,) * (x.depth - 1):
        raise NotUniformizers(1, f"v(a_1) = {va} is not (1,0,...)")
    a_inv = a1.inv(w + 2)
    out = []
    r = x
    q = x.order
    # the true expansion is t_1-adically convergent but usually infinite
    # (twisted sigmas spread Taylor tails forever); stop at the window bound
    stop = x.end if x.end is not None else x.order + max(w, len(x.coeffs))
    apow = {0: Series.one(field, x.depth)}

    def power(e):
        if e not in apow:
            if e > 0:
                apow[e] = power(e - 1) * a1
            else:
                apow[e] = power(e + 1) * a_inv
        return apow[e]

    while q < stop and not r.is_exact_zero():
        try:
            shifted = r * power(-q)
            bq = residue_level1(shifted)
        except InsufficientPrecision:
            break
        if not bq.is_exact_zero():
            out.append((bq, q))
            r = r - sigma1.apply(bq) * power(q)
        q += 1
    return out


def sigma_reassemble(pairs, sigma1, a1, depth, field):
    """Sum sigma_1(b_q) a_1^q back into an element."""
    acc = Series.zero(field, depth)
    for bq, q in pairs:
        term = sigma1.apply(bq)
        if q:
            term = term * a1.__pow__(q)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# artinian quotients and the change-of-lifting matrix
# ---------------------------------------------------------------------------


class ArtinianQuotient:
    """A = O_1/m_1^(l+1) of a depth-m field; elements clamped to t_1-degrees [0, l]."""

    def __init__(self, descriptor, exponent):
        if descriptor.n < 1:
            raise LocalFieldError("quotient needs a positive-dimensional field")
        if exponent < 0:
            raise LocalFieldError("exponent must be nonnegative")
        self.descriptor = descriptor
        self.exponent = exponent

    @property
    def rank(self):
        return self.exponent + 1

    def reduce(self, x):
        """Image of an element of O_1 in the quotient (exact truncation)."""
        if x.depth != self.descriptor.n:
            raise LocalFieldError("element has wrong depth")
        if not x.is_exact_zero() and x.order < 0:
            raise LocalFieldError("element not in O_1 (negative t_1-exponent)")
        if not x.exact and x.end <= self.exponent:
            raise InsufficientPrecision("element window does not cover the quotient degrees")
        return part_level1(x, 0, self.exponent + 1)

    def standard_basis(self):
        return [
            Series.monomial(self.descriptor.field, self.descriptor.n, (k,) + (0,) * (self.descriptor.n - 1))
            for k in range(self.rank)
        ]


def _most(bounds):
    """Order bound of a sum of operators with these bounds; None (zero) marks
    an operator that contributes nothing."""
    return max((b for b in bounds if b is not None), default=None)


class LiftingMatrix:
    """The matrix relating coordinates of one lifting to another on A.

    Entry (i, j) is the operator gamma_{i,j} on k_1(A) defined by
    sigma(b) m_i = sum_j sigma'(gamma_{i,j}(b)) m_j.  ``solve(i, b)`` is that
    definition: it computes (gamma_{i,0}(b), ..., gamma_{i,l}(b)) by the
    triangular solve in ascending t_1-degree.  ``entries[i][j]`` is gamma_{i,j}
    as an explicit ``bt_ops.DiffOp`` fitted to the solve, so applying it costs
    a few derivatives and products instead of a solve.

    ``orders[i][j]`` bounds the differential order of gamma_{i,j}, or is None
    where gamma_{i,j} is zero.  The bounds follow from the liftings'
    component orders (``LiftingSpec.component_order``) by induction over the
    triangular solve, for any filtered basis m_i = sum_{e>=i} t_1^e mu_{i,e}
    with mu_{i,i} a unit:

      * Component e of sigma(b) m_i is sum_{k+e'=e} mu_{i,e'} sigma_k(b).
        Multiplication by an element of k_1 has order 0, so its order is at
        most max_{k<=e-i} ord(sigma_k), and it is zero for e < i.
      * Throughout the solve, let rho_e bound component e of the remainder r.
        The coordinate c_jj is the t_1^0 coefficient of r m_jj^(-1), where
        m_jj^(-1) starts at t_1^(-jj); it sums components e <= jj of r times
        scalars, so its order is at most max_{e<=jj} rho_e.
      * Subtracting sigma'(c_jj) m_jj changes component e >= jj by
        sum_{k<=e-jj} mu_{jj,e-k} sigma'_k(c_jj).  Orders of differential
        operators add under composition (EGA IV, 16.8, in every
        characteristic), so rho_e grows to at most
        max_{k<=e-jj} ord(sigma'_k) + ord(c_jj).

    With ord(sigma_k), ord(sigma'_k) <= k, induction on jj gives
    rho_e <= e - i, so gamma_{i,j} has order <= j - i.  Below the diagonal
    every rho_e with e <= j < i is zero, so gamma_{i,j} = 0.  On the diagonal
    gamma_{i,i}(b) is the t_1^0 coefficient of sigma(b) m_i m_i^(-1), that is
    sigma_0(b) = b, since both component-0 maps are the identity.  Hence the
    matrix is unit upper triangular (``unit_triangular``).

    Fitting an entry on the monomials t^beta, beta >= 0 with |beta| <= d =
    orders[i][j], is exact.  The continuous differential operators of order
    <= d on k_1 are the k_1-span of the divided-power derivatives d^[alpha],
    |alpha| <= d, in every characteristic, so gamma_{i,j} = sum a_alpha
    d^[alpha].  Since d^[alpha] t^beta = C(beta, alpha) t^(beta - alpha) is
    zero unless alpha <= beta and is 1 at alpha = beta, the values on the
    monomials are unit triangular in the coefficients:
    a_beta = gamma(t^beta) - sum_{alpha < beta} a_alpha C(beta, alpha) t^(beta - alpha),
    solved in ascending |beta|.  Entries below the diagonal are the zero
    operator, with no fit.

    Two checks cross-check what the proof claims.  At construction, each fit is
    held against the solve on the next layer, |beta| = d + 1, where
    gamma - fit is exactly sum_{|alpha| = d + 1} a_alpha d^[alpha] of the true
    operator; a difference raises LocalFieldError, so a wrong order bound
    cannot hide inside an operator that is order-bounded by construction.
    On probes, ``orders_hold`` and ``is_unit_upper_triangular`` replay the
    commutator test and the triangular shape on the fitted entries.
    """

    def __init__(self, quotient, sigma, sigma_prime, basis, solve):
        self.quotient = quotient
        self.sigma = sigma
        self.sigma_prime = sigma_prime
        self.basis = basis
        self.solve = solve
        self.rank = len(basis)
        self.orders = []
        for i in range(self.rank):
            # rho[e] bounds the t_1^e component of the remainder of row i
            rho = [_most(sigma.component_order(k) for k in range(e - i + 1))
                   for e in range(self.rank)]
            row = []
            for j in range(self.rank):
                row.append(_most(rho[:j + 1]))
                if row[j] is None:
                    continue
                for e in range(j, self.rank):
                    step = _most(sigma_prime.component_order(k) for k in range(e - j + 1))
                    if step is not None:
                        rho[e] = _most((rho[e], step + row[j]))
            self.orders.append(row)
        self.unit_triangular = all(
            self.orders[i][j] is None for i in range(self.rank) for j in range(i)
        )
        self.entries = [self._fit_row(i) for i in range(self.rank)]

    def _fit_row(self, i):
        """Row i of the matrix as DiffOps fitted to the solve (see above); one
        solve per monomial serves every entry of the row."""
        from .bt_ops import DiffOp  # bt_ops imports this module

        res = self.quotient.descriptor.residue_descriptor()
        top = _most(self.orders[i])
        monomials = {} if top is None else {
            beta: res.monomial(beta) for beta in _exponents_up_to(res.n, top + 1)}
        values = {beta: self.solve(i, m) for beta, m in monomials.items()}
        row = []
        for j, d in enumerate(self.orders[i]):
            op = DiffOp(res, [])
            # ascending |beta|: fit a_beta up to d, then check the layer d + 1
            for beta, m in monomials.items():
                if d is None or sum(beta) > d + 1:
                    break
                gap = values[beta][j] - op.apply(m)
                if sum(beta) <= d:
                    if not gap.is_exact_zero():
                        op = DiffOp(res, op.terms + ((gap, beta),))
                elif not gap.is_zero_within_window():
                    raise LocalFieldError(
                        f"change-of-lifting entry ({i}, {j}) is not of order <= {d}:"
                        f" its fit differs from the triangular solve at t^{beta}"
                    )
            row.append(op)
        return row

    def apply_to_coordinates(self, coords):
        """Transform sigma-coordinates into sigma'-coordinates."""
        r = self.rank
        out = []
        for j in range(r):
            acc = None
            for i in range(r):
                term = self.entries[i][j](coords[i])
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def neumann_inverse(self):
        """The inverse: the reverse change, sigma' -> sigma, on the same basis.

        Coordinates in the quotient are unique, so this matrix equals the
        Neumann sum sum_k eps^k, eps = 1 - matrix (finite, since eps is
        nilpotent).
        """
        return change_of_lifting_matrix(self.quotient, self.sigma_prime, self.sigma, self.basis)

    def orders_hold(self, probes, multipliers):
        """Cross-check of ``orders`` on probes: the commutator test at each
        entry's bound, and a zero test where the bound says it vanishes."""
        for i in range(self.rank):
            for j in range(self.rank):
                entry, bound = self.entries[i][j], self.orders[i][j]
                if bound is None:
                    if not all(entry(p).is_zero_within_window() for p in probes):
                        return False
                elif not differential_order_bounded(entry, bound, probes, multipliers):
                    return False
        return True

    def is_unit_upper_triangular(self, probes):
        for i in range(self.rank):
            for j in range(self.rank):
                for p in probes:
                    img = self.entries[i][j](p)
                    if j < i and not img.is_zero_within_window():
                        return False
                    if j == i and not (img - p).is_zero_within_window():
                        return False
        return True


def _exponents_up_to(m, d):
    """Exponent vectors beta >= 0 in m variables with |beta| <= d, by ascending
    |beta|, so every alpha < beta comes before beta."""
    return sorted((b for b in product(range(d + 1), repeat=m) if sum(b) <= d),
                  key=lambda b: (sum(b), b))


def change_of_lifting_matrix(quotient, sigma, sigma_prime, basis=None, window=None):
    """Coordinates-change matrix between two liftings of an artinian quotient.

    The basis must be filtered by t_1-adic degree (degree i at position i with
    a unit leading coefficient); otherwise BasisNotFiltered is raised.
    """
    if basis is None:
        basis = quotient.standard_basis()
    if len(basis) != quotient.rank:
        raise BasisNotFiltered(f"need {quotient.rank} basis elements, got {len(basis)}")
    descriptor = quotient.descriptor
    for i, m in enumerate(basis):
        try:
            v = m.valuation()
        except IndeterminateValuation as exc:
            raise BasisNotFiltered(f"basis element {i} has indeterminate valuation") from exc
        if v[0] != i:
            raise BasisNotFiltered(
                f"basis element {i} has t_1-degree {v[0]}; filtered basis needs degree {i}"
            )
    w = descriptor.window if window is None else window
    l = quotient.exponent
    inv_basis = [m.inv(w) for m in basis]

    def solve(i, b):
        # triangular solve of sigma(b) m_i = sum_j sigma'(c_j) m_j, ascending degrees
        r = quotient.reduce(sigma.apply(b) * basis[i])
        coords = []
        for j in range(l + 1):
            coords.append(residue_level1(r * inv_basis[j]))
            if j < l and not coords[j].is_exact_zero():
                r = r - quotient.reduce(sigma_prime.apply(coords[j]) * basis[j])
        return coords

    return LiftingMatrix(quotient, sigma, sigma_prime, basis, solve)


def differential_order_bounded(op, order, probes, multipliers):
    """Commutator-filtration test: nested commutators with (order+1) multiplication
    operators annihilate the probes.  Sound on the probe set only.

    It is the cross-check of the orders a ``LiftingMatrix`` derives from its
    liftings, and the reference the tests hold those orders against; it proves
    no bound by itself.

    Multiplications commute, so C_T = [..[op, a_t1], ..., a_tk] depends only on
    the multiset T.  Per probe p it runs the recurrence
    C_{T+i}(a_S p) = C_T(a_{S+i} p) - a_i C_T(a_S p), C_0(a_S p) = op(a_S p),
    memoised over the pairs (T, S) of sorted index tuples, with each a_S p
    built from a_{S-last} p.  The multisets T of size order + 1 are tested in
    lexicographic order, and the first that does not vanish ends the test.
    """
    k = order + 1
    for p in probes:
        moved = {(): p}  # S -> a_S p
        memo = {}  # (T, S) -> C_T(a_S p)

        def times(S):
            if S not in moved:
                moved[S] = multipliers[S[-1]] * times(S[:-1])
            return moved[S]

        def commutator(T, S):
            if (T, S) not in memo:
                if T:
                    rest, i = T[:-1], T[-1]
                    memo[T, S] = (commutator(rest, tuple(sorted(S + (i,))))
                                  - multipliers[i] * commutator(rest, S))
                else:
                    memo[T, S] = op(times(S))
            return memo[T, S]

        for T in combinations_with_replacement(range(len(multipliers)), k):
            if not commutator(T, ()).is_zero_within_window():
                return False
    return True
