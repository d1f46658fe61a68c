"""O_1(K)-lattices in K^r: normal forms, containment, quotients, refinements.

Lattices are column spans over the first valuation ring O_1(K), with the
fixed uniformizer a = t_1.  The canonical representative is the column
Hermite form (lower triangular, monic t_1-power pivots, entries above each
pivot reduced); elementary divisors come from the two-sided Smith reduction,
which also yields the unit factor P with L = P diag(a^d) O_1^r and the
adapted bases used by quotient modules.

Pivots are chosen by t_1-valuation (``series.valuation_info``), and an entry
is reduced modulo a pivot t_1^h by splitting it with ``series.part_level1``
at h.  Eliminations know their targets vanish identically, so cancelled
entries are assigned exact zeros instead of the window-limited differences
the division would produce; all remaining arithmetic keeps honest windows.
"""

from .errors import (
    InsufficientPrecision,
    LocalFieldError,
    NoCertificate,
    NotContained,
    SingularMatrix,
)
from .scalars import mat_mul, mat_vec, row_reduce
from .series import DEFAULT_WINDOW, Series, part_level1, valuation_info
from .tlf import sigma_expand


# The widest unit-inverse window a normal form of exact generators retries on.
_NORMAL_FORM_MAX_WINDOW = 8 * DEFAULT_WINDOW


def _entry_nonnegative(e):
    """Whether v_1(e) >= 0, using the lower bound when it suffices."""
    v, known = valuation_info(e)
    if v is None or v >= 0:
        return True
    if known:
        return False
    raise InsufficientPrecision("entry sign of valuation indeterminate")


def _pick_pivot(entries):
    """Least-valuation pivot among determinable entries.

    entries: iterable of (key, series).  Returns (valuation, key) or None when
    everything is exactly zero; raises when an indeterminate entry could beat
    the best determinable one.
    """
    best = None
    bounds = []
    for key, e in entries:
        v, known = valuation_info(e)
        if v is None:
            continue
        if known:
            if best is None or v < best[0]:
                best = (v, key)
        else:
            bounds.append(v)
    if best is None:
        if bounds:
            raise InsufficientPrecision("no determinable pivot in window")
        return None
    if any(b < best[0] for b in bounds):
        raise InsufficientPrecision("window-limited entry could undercut the pivot")
    return best


# -- matrices over K (lists of rows of Series) ------------------------------


def mat_identity(descriptor, r):
    return [
        [descriptor.one() if i == j else descriptor.zero() for j in range(r)]
        for i in range(r)
    ]


def mat_inv(A, descriptor, window=None):
    """Inverse by Gauss-Jordan elimination on [A | I] with t_1-valuation pivots."""
    r = len(A)

    def pick(entries):
        picked = _pick_pivot(entries)
        if picked is None:
            raise SingularMatrix("matrix not invertible over K")
        return picked[1]

    rows = [a + e for a, e in zip(A, mat_identity(descriptor, r))]
    reduced, _, _ = row_reduce(
        rows, descriptor.zero(), descriptor.one(), pick, lambda p: p.inv(window)
    )
    return [row[r:] for row in reduced]


# -- normal forms -----------------------------------------------------------


class Lattice:
    """A lattice in normal form: canonical Hermite generators plus Smith data."""

    def __init__(self, descriptor, hnf, divisors, unit):
        self.descriptor = descriptor
        self.rank = len(hnf)
        self.hnf = hnf
        self.divisors = tuple(divisors)
        self.unit = unit

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.descriptor == other.descriptor
            and self.divisors == other.divisors
            and self.hnf == other.hnf
        )

    def __hash__(self):
        return hash((self.descriptor, self.divisors))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, divisors={list(self.divisors)})"

    def shift(self, m):
        """a^m L: every generator scaled by t_1^m."""
        desc = self.descriptor
        a_m = desc.monomial((m,) + (0,) * (desc.n - 1))
        hnf = [[a_m * e for e in row] for row in self.hnf]
        return Lattice(desc, hnf, [d + m for d in self.divisors], self.unit)

    def membership_coordinates(self, vec, window=None):
        """Coordinates of a vector in the Hermite basis."""
        inv = mat_inv(self.hnf, self.descriptor, window)
        return mat_vec(inv, vec)

    def contains_vector(self, vec, window=None):
        coords = self.membership_coordinates(vec, window)
        return all(_entry_nonnegative(y) for y in coords)

    def to_json(self):
        return {
            "rank": self.rank,
            "divisors": list(self.divisors),
            "unit": [[e.to_json() for e in row] for row in self.unit],
        }


def standard_lattice(descriptor, rank, i=0):
    """L_i = a^i O_1^r."""
    a_i = descriptor.monomial((i,) + (0,) * (descriptor.n - 1))
    gens = [
        [a_i if r == c else descriptor.zero() for c in range(rank)]
        for r in range(rank)
    ]
    return lattice_normal_form(descriptor, gens)


def lattice_normal_form(descriptor, generators, window=None):
    """Normalize a nonsingular generator matrix (columns generate the lattice).

    window is the number of coefficients of each unit inverse, None for
    DEFAULT_WINDOW.  With None and generators exact at every level, a pivot
    that window cannot determine is sought again on twice as many
    coefficients, up to _NORMAL_FORM_MAX_WINDOW: the normal form is unique,
    so only a refusal of the narrower window can change.
    """
    r = len(generators)
    for row in generators:
        if len(row) != r:
            raise LocalFieldError("generator matrix must be square")
    retry = window is None and all(e.smallest_unknown_index() is None
                                   for row in generators for e in row)
    while True:
        try:
            hnf = _column_hermite(descriptor, [row[:] for row in generators], window)
            divisors, unit = _smith(descriptor, [row[:] for row in generators], window)
            return Lattice(descriptor, hnf, divisors, unit)
        except InsufficientPrecision:
            window = 2 * (window or DEFAULT_WINDOW)
            if not retry or window > _NORMAL_FORM_MAX_WINDOW:
                raise


def _column_hermite(descriptor, M, window):
    """Lower-triangular column echelon with monic t_1-power pivots."""
    r = len(M)
    one_exps = (0,) * (descriptor.n - 1)
    for i in range(r):
        picked = _pick_pivot((col, M[i][col]) for col in range(i, r))
        if picked is None:
            raise SingularMatrix(f"no pivot available in row {i}")
        pivot_val, pivot_col = picked
        if pivot_col != i:
            for row in range(r):
                M[row][i], M[row][pivot_col] = M[row][pivot_col], M[row][i]
        # make the pivot exactly t_1^h by scaling the column with the unit part
        h = pivot_val
        unit_part = M[i][i] * descriptor.monomial((-h,) + one_exps)
        u_inv = unit_part.inv(window)
        for row in range(r):
            M[row][i] = M[row][i] * u_inv
        M[i][i] = descriptor.monomial((h,) + one_exps)
        # clear the rest of row i (entries divisible by the pivot)
        for col in range(i + 1, r):
            e = M[i][col]
            if e.is_exact_zero():
                continue
            f = e * descriptor.monomial((-h,) + one_exps)
            for row in range(r):
                M[row][col] = M[row][col] - f * M[row][i]
            M[i][col] = descriptor.zero()
        # reduce earlier columns modulo the pivot in row i
        for col in range(i):
            e = M[i][col]
            if e.is_exact_zero():
                continue
            high = part_level1(e, h)
            if high.is_exact_zero():
                continue
            f = high * descriptor.monomial((-h,) + one_exps)
            for row in range(r):
                M[row][col] = M[row][col] - f * M[row][i]
            M[i][col] = part_level1(e, None, h)
    return M


def _smith(descriptor, M, window):
    """Two-sided reduction to diag(a^d); returns (divisors, P) with M = P diag Q."""
    r = len(M)
    one_exps = (0,) * (descriptor.n - 1)
    P = mat_identity(descriptor, r)  # accumulates inverse row operations
    divisors = []
    for step in range(r):
        picked = _pick_pivot(
            ((i, j), M[i][j]) for i in range(step, r) for j in range(step, r)
        )
        if picked is None:
            raise SingularMatrix(f"rank deficiency at step {step}")
        pv, (pi, pj) = picked
        if pi != step:
            M[step], M[pi] = M[pi], M[step]
            # row swap: P picks up the inverse swap on columns
            for row in range(r):
                P[row][step], P[row][pi] = P[row][pi], P[row][step]
        if pj != step:
            for row in range(r):
                M[row][step], M[row][pj] = M[row][pj], M[row][step]
        # scale the pivot row to make the pivot exactly a^pv
        unit_part = M[step][step] * descriptor.monomial((-pv,) + one_exps)
        u_inv = unit_part.inv(window)
        for j in range(r):
            M[step][j] = u_inv * M[step][j]
        M[step][step] = descriptor.monomial((pv,) + one_exps)
        for row in range(r):
            P[row][step] = P[row][step] * unit_part
        # clear the pivot column with row operations
        for i in range(step + 1, r):
            e = M[i][step]
            if e.is_exact_zero():
                continue
            f = e * descriptor.monomial((-pv,) + one_exps)
            for j in range(r):
                M[i][j] = M[i][j] - f * M[step][j]
            M[i][step] = descriptor.zero()
            for row in range(r):
                P[row][step] = P[row][step] + f * P[row][i]
        # clear the pivot row with column operations (no P update needed)
        for j in range(step + 1, r):
            e = M[step][j]
            if e.is_exact_zero():
                continue
            f = e * descriptor.monomial((-pv,) + one_exps)
            for row in range(r):
                M[row][j] = M[row][j] - f * M[row][step]
            M[step][j] = descriptor.zero()
        divisors.append(pv)
    order = sorted(range(r), key=lambda i: divisors[i])
    divisors_sorted = [divisors[i] for i in order]
    P_sorted = [[P[row][i] for i in order] for row in range(r)]
    return divisors_sorted, P_sorted


# -- containment and quotients ----------------------------------------------


def _relative(L, L2, window):
    """L^{-1} L2: the generators of L2 in the Hermite basis of L."""
    if L.rank != L2.rank:
        raise LocalFieldError("lattices of different rank")
    return mat_mul(mat_inv(L.hnf, L.descriptor, window), L2.hnf)


def _integral(M):
    """True iff every entry of M lies in O_1."""
    return all(_entry_nonnegative(e) for row in M for e in row)


def contains(L, L2, window=None):
    """True iff L contains L2: all entries of L^{-1} L2 lie in O_1."""
    return _integral(_relative(L, L2, window))


class QuotientModule:
    """L/L' as a finite module over k_1(K) through sigma_1.

    The adapted basis comes from the relative Smith form: columns u_j of
    U = L_gens P with a^(g_j) u_j generating L'; coset representatives are
    u_j a^m for 0 <= m < g_j.
    """

    def __init__(self, descriptor, sigma1, adapted, gaps, window=None):
        self.descriptor = descriptor
        self.sigma1 = sigma1
        self.adapted = adapted
        self.gaps = tuple(gaps)
        self.window = window
        self._inv = mat_inv(adapted, descriptor, window) if adapted else []

    @property
    def dimension(self):
        return sum(self.gaps)

    def basis_labels(self):
        return [(j, m) for j, g in enumerate(self.gaps) for m in range(g)]

    def reduce(self, vec):
        """Coordinates over k_1(K) of a coset representative."""
        coords = mat_vec(self._inv, vec)
        w = self.descriptor.window if self.window is None else self.window
        out = {}
        for j, y in enumerate(coords):
            if y.is_exact_zero():
                continue
            pairs = sigma_expand(y, self.sigma1, window=w)
            for bq, q in pairs:
                if 0 <= q < self.gaps[j]:
                    out[(j, q)] = out.get((j, q), Series.zero(y.field, y.depth - 1)) + bq
        return out


def quotient_module(L, L2, sigma1, window=None):
    """The quotient L/L2 with its k_1(K)-structure; requires containment."""
    M = _relative(L, L2, window)
    if not _integral(M):
        raise NotContained("second lattice not contained in the first")
    desc = L.descriptor
    gaps, P = _smith(desc, [row[:] for row in M], window)
    adapted = mat_mul(L.hnf, P)
    return QuotientModule(desc, sigma1, adapted, gaps, window)


# -- refinements -------------------------------------------------------------


class LatticePair:
    def __init__(self, L1, L2):
        self.L1 = L1
        self.L2 = L2


class Refinement:
    """(L1', L2') with L1' ⊆ L1, L2 ⊆ L2', and the operator mapping conditions."""

    def __init__(self, pair, L1p, L2p, shift):
        self.pair = pair
        self.L1p = L1p
        self.L2p = L2p
        self.shift = shift

    def validate(self, apply_op=None, probes_per_gen=1, window=None):
        """Check the four inclusions, applying the operator to generators."""
        ok = contains(self.pair.L1, self.L1p, window) and contains(
            self.L2p, self.pair.L2, window
        )
        if not ok:
            return False
        if apply_op is None:
            return True
        r = self.pair.L1.rank
        for col in range(r):
            gen = [self.L1p.hnf[row][col] for row in range(r)]
            img = [apply_op(x) for x in gen]
            if not self.pair.L2.contains_vector(img, window):
                return False
            gen1 = [self.pair.L1.hnf[row][col] for row in range(r)]
            img1 = [apply_op(x) for x in gen1]
            if not self.L2p.contains_vector(img1, window):
                return False
        return True


def find_refinement(band_bound, pair, window=None):
    """Refine a lattice pair using a certified band bound v_1(phi x) >= v_1(x) - d.

    Without a certificate the search is refused (soundness over completeness).
    """
    if band_bound is None:
        raise NoCertificate("operator carries no level-1 band bound")
    d = band_bound
    m = max(0, d + max(pair.L2.divisors) - min(pair.L1.divisors))
    L1p = pair.L1.shift(m)
    L2p = pair.L2.shift(-m)
    return Refinement(pair, L1p, L2p, m)


def induced_quotient_map(apply_op, refinement, sigma1, window=None):
    """The map L1/L1' -> L2'/L2 on quotient bases, entries as k-linear closures.

    Entry ((k, q), (j, m)) sends a residue-field coefficient c to the (k, q)
    coordinate of phi(sigma_1(c) u_j a^m).
    """
    desc = refinement.pair.L1.descriptor
    Q1 = quotient_module(refinement.pair.L1, refinement.L1p, sigma1, window)
    Q2 = quotient_module(refinement.L2p, refinement.pair.L2, sigma1, window)
    r = refinement.pair.L1.rank
    one_exps = (0,) * (desc.n - 1)

    def entry(out_label, in_label):
        j, m = in_label

        def act(c):
            lift = sigma1.apply(c) * desc.monomial((m,) + one_exps)
            vec = [lift * Q1.adapted[row][j] for row in range(r)]
            img = [apply_op(x) for x in vec]
            coords = Q2.reduce(img)
            zero = Series.zero(desc.field, desc.n - 1)
            return coords.get(out_label, zero)

        return act

    entries = {}
    for out_label in Q2.basis_labels():
        for in_label in Q1.basis_labels():
            entries[(out_label, in_label)] = entry(out_label, in_label)
    return Q1, Q2, entries
