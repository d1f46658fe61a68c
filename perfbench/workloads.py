"""The four seeded workloads of the benchmark.

A workload is a closed loop with one client.  Its task list is an endless
repetition of one cycle of task kinds in a fixed order; the inputs of cycle
``i`` come from a random generator seeded with the workload name, the seed
and ``i``, so the same seed gives the same inputs.  The mix of kinds is the
same in every cycle, so runs on different seeds differ only in the values
drawn, never in the share of each kind.

A task is a ``run`` callable, which is the only part that is timed and the
only part that calls into tlfields with the generated inputs, and a
``check`` callable that compares the result with an oracle the benchmark
computes on its own (closed forms, direct coefficient sums, identities of
the underlying mathematics).  Results are dicts so that a test can perturb
each field and see the check fail.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import factorial

from tlfields import (
    AbstractForm,
    AddOp,
    ArtinianQuotient,
    Compose,
    Const,
    ExtensionSpec,
    Gen,
    LevelProjection,
    LiftingSpec,
    LiftingSystem,
    MulBy,
    ScalarMul,
    SeparatedForm,
    Series,
    TlfDescriptor,
    certify_membership,
    change_of_lifting_matrix,
    contains,
    decompose_identity,
    dlog_element,
    ext_trace,
    finite_potent_trace,
    lattice_normal_form,
    make_extension,
    parametrize,
    quotient_module,
    res_tlf,
    tate_residue_dim1,
    trace_forms,
    validate_uniformizers,
    verify_lifting_independence,
)
from tlfields import cli
from tlfields.bt_ops import _default_probes
from tlfields.residue import norm_map
from tlfields.tlf import differential_order_bounded

INF = float("inf")


class Task:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# oracle helpers: all comparisons below are the benchmark's own
# ---------------------------------------------------------------------------


def _bound_key(series):
    """Lex bound of guaranteed knowledge; None entries mean minus infinity."""
    bound = series.smallest_unknown_index()
    if bound is None:
        return (INF,)
    return tuple(-INF if b is None else b for b in bound)


def _known(series):
    return dict(series.known_terms())


def agrees_with_terms(approx, exact_terms, cover=True):
    """approx is a windowed image of the exact Laurent polynomial exact_terms.

    Every guaranteed nonzero term of approx must be a term of exact_terms, and
    every term of exact_terms below approx's window must appear in approx.
    With ``cover`` the window must also reach every term of exact_terms.
    """
    bound = _bound_key(approx)
    known = _known(approx)
    for idx, value in known.items():
        if exact_terms.get(idx) != value:
            return False
    for idx, value in exact_terms.items():
        if value.is_zero():
            continue
        if idx < bound:
            if known.get(idx) != value:
                return False
        elif cover:
            return False
    return True


def agree_windowed(a, b):
    """Two windowed series agree on every index both of them guarantee."""
    bound = min(_bound_key(a), _bound_key(b))
    ka = {i: v for i, v in _known(a).items() if i < bound}
    kb = {i: v for i, v in _known(b).items() if i < bound}
    return ka == kb


def _binom(m, j):
    """Generalized binomial coefficient C(m, j) for integer m and j >= 0."""
    num = 1
    for r in range(j):
        num *= m - r
    return num // factorial(j)


def _dense(field, depth, window, rng, span):
    """A dense series known on `window` coefficients per level, with its terms.

    The leading coefficient at every level is a unit, so the series is
    invertible; the rest are drawn freely and may vanish.
    """
    if depth == 0:
        scalar = field.random_nonzero(rng, span)
        return Series(field, 0, scalar=scalar), {(): scalar}
    order = rng.randint(-1, 1)
    coeffs = []
    terms = {}
    for k in range(window):
        if depth == 1 and k > 0:
            scalar = field.random_element(rng, span)
            inner, inner_terms = Series(field, 0, scalar=scalar), {(): scalar}
        else:
            inner, inner_terms = _dense(field, depth - 1, window, rng, span)
        coeffs.append(inner)
        for idx, value in inner_terms.items():
            if not value.is_zero():
                terms[(order + k,) + idx] = value
    return Series(field, depth, order=order, coeffs=coeffs, exact=False), terms


def _unit(field, rng, span=2):
    """A nonzero integer of height at most span, as a field element.

    Integers keep the height of the inputs, and so the cost of a task, from
    depending on the seed the way random fractions would.
    """
    while True:
        value = field.from_int(rng.choice((1, -1)) * rng.randint(1, span))
        if not value.is_zero():
            return value


def _sample(rng, items, count):
    items = sorted(items)
    return items if len(items) <= count else rng.sample(items, count)


# ---------------------------------------------------------------------------
# pullback-residue
# ---------------------------------------------------------------------------


class PullbackResidue:
    """Uniformizer changes, parametrizations, pulled-back top forms, residues.

    Each uniformizer change gives two tasks: validate, parametrize and run a
    forward-then-inverse round trip; validate, pull back top forms and take
    their residues.  Per field a cycle has one change at n = 1 and two at
    n = 2, one of them with an extra t1^2 t2 term in a_1, which makes the
    parametrization about ten times dearer.  Exponent patterns are fixed and
    only the nonzero coefficients are drawn, so the cost of a kind hardly
    depends on the seed.
    """

    name = "pullback-residue"
    tail_pct = 95
    trace_cycles = 2
    # exponents of the pulled-back top forms' coefficients and of the
    # round-trip element, per dimension
    form_patterns = {1: ((-3, -1, 2), (-2, 1)),
                     2: (((-1, -1), (1, 0)), ((-1, 1), (0, -1)))}
    element_patterns = {1: (-2, 1), 2: ((-1, 1), (1, -1))}

    def __init__(self, seed):
        self.seed = seed
        self.fields = [make_extension(0, [0, 1]), make_extension(5, [0, 1])]
        self.descs = {
            (f.char, n): TlfDescriptor(n, f, window=10 if n == 1 else 8)
            for f in self.fields
            for n in (1, 2)
        }

    def cycle(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        tasks = []
        for f in self.fields:
            for n, deep in ((1, False), (2, False), (2, True)):
                tasks += self._change(self.descs[(f.char, n)], deep, rng)
        # Eleven kinds, not twelve: with an odd count the median and p90 fall
        # inside one kind's cluster of latencies instead of between two.
        return [t for t in tasks if t.kind != "pullback-n1-char5"]

    def _change(self, K, deep, rng):
        field, n = K.field, K.n
        if n == 1:
            t = K.gen(1)
            a = t
            for k in range(2, 5):
                a = a + t ** k * K.constant(_unit(field, rng))
            elements = [a]
            pull_window = 12
        else:
            t1, t2 = K.gens()
            one = K.one()
            a1 = t1 * (one + t2.scalar_mul(_unit(field, rng)))
            if deep:
                a1 = a1 + t1 ** 2 * t2
            a2 = t2 * (one + (t1 * t2).scalar_mul(_unit(field, rng)))
            elements = [a1, a2]
            pull_window = 10
        index = (lambda e: (e,)) if n == 1 else tuple
        top = tuple(range(1, n + 1))
        residue_idx = (-1,) * n
        forms, expected = [], []
        for pattern in self.form_patterns[n]:
            terms = {index(e): _unit(field, rng, 4) for e in pattern}
            forms.append(SeparatedForm(K, n, {top: Series.from_terms(field, n, terms)}))
            expected.append(terms.get(residue_idx, field.zero).coeffs[0])
        x_terms = {index(e): _unit(field, rng, 4) for e in self.element_patterns[n]}
        x = Series.from_terms(field, n, x_terms)
        tag = f"n{n}{'-deep' if deep else ''}-char{field.char}"

        def roundtrip():
            iso = parametrize(K, validate_uniformizers(K, elements))
            return {"roundtrip": iso.inverse(iso.forward(x))}

        def check_roundtrip(result):
            # agreement within the window, which must reach x's leading term
            rt = result["roundtrip"]
            return min(x_terms) < _bound_key(rt) and agrees_with_terms(rt, x_terms, cover=False)

        def pullback():
            system = validate_uniformizers(K, elements)
            return {"residues": [
                res_tlf(omega.pullback_substitution(system.elements, window=pull_window))
                for omega in forms
            ]}

        def check_pullback(result):
            return result["residues"] == expected

        return [Task(f"parametrize-{tag}", roundtrip, check_roundtrip),
                Task(f"pullback-{tag}", pullback, check_pullback)]


# ---------------------------------------------------------------------------
# lifting-certificates
# ---------------------------------------------------------------------------


class LiftingCertificates:
    """Change-of-lifting certificates step by step, and bt_ops certificates.

    One certificate for O_1/m^(l+1) is split into tasks: build the matrix and
    check it is unit upper triangular; certify the differential order of each
    entry on each probe; the Neumann round trip.  Splitting gives enough
    samples per run for a tail percentile; the work per certificate is
    unchanged, since the order test evaluates each probe on its own.
    """

    name = "lifting-certificates"
    tail_pct = 90
    trace_cycles = 1
    combos = ((5, 1), (0, 1), (5, 2), (0, 2))
    twist_depth = 2
    shift_probe_span = 64

    def __init__(self, seed):
        self.seed = seed
        self.fields = {c: make_extension(c, [0, 1]) for c in (5, 0)}
        self.quotients = {}
        for char, l in self.combos:
            K = TlfDescriptor(2, self.fields[char])
            self.quotients[(char, l)] = ArtinianQuotient(K, l)
        self.k1 = {c: TlfDescriptor(1, f) for c, f in self.fields.items()}
        self.k2 = {c: TlfDescriptor(2, f) for c, f in self.fields.items()}

    def cycle(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        tasks = []
        for char, l in self.combos:
            tasks += self._certificate(self.quotients[(char, l)], rng)
        for char in (5, 0):
            tasks += self._bt_ops(char, index, rng)
        return tasks

    def _certificate(self, A, rng):
        field = A.descriptor.field
        l = A.exponent
        r = A.rank
        # the twist coefficient has a fixed height, so the cost does not
        # depend on the seed
        c = field.from_int(rng.choice((2, -2)))
        std = LiftingSpec(1)
        twist = LiftingSpec(1, "twisted", axis=2, c=Series.constant(field, 1, c),
                            depth=self.twist_depth)
        t2 = Series.generator(field, 1, 1)
        one = Series.one(field, 1)
        probes = [one, t2, t2 * t2, t2.inv()]
        mults = [t2, t2 * t2, one + t2]
        spot = Series.from_terms(
            field, 1, {(rng.randint(-2, 2),): field.random_nonzero(rng, 3) for _ in range(2)}
        )
        coords_terms = [
            {(rng.randint(-2, 2),): field.random_nonzero(rng, 3) for _ in range(2)}
            for _ in range(r)
        ]
        coords = [Series.from_terms(field, 1, t) for t in coords_terms]
        mat = change_of_lifting_matrix(A, std, twist)
        tag = f"l{l}-char{field.char}"

        def gamma(i, j, p):
            """Closed form gamma_{i,i+n} = (-D)^n / n!, D = c d/dt2, for l <= 2."""
            n = j - i
            if n < 0:
                return Series.zero(field, 1)
            x = p
            for _ in range(n):
                x = -(x.derivative(1).scalar_mul(c))
            return x.scalar_mul(field.from_fraction(Fraction(1, factorial(n))))

        def build():
            m = change_of_lifting_matrix(A, std, twist)
            return {"unit_triangular": m.is_unit_upper_triangular(probes),
                    "rank": m.rank}

        def check_build(result):
            if result["unit_triangular"] is not True or result["rank"] != r:
                return False
            return all(
                agree_windowed(mat.entries[i][j](spot), gamma(i, j, spot))
                for i in range(r) for j in range(r)
            )

        tasks = [Task(f"matrix-{tag}", build, check_build)]
        for i in range(r):
            for j in range(r):
                for probe in probes:
                    def run(i=i, j=j, probe=probe):
                        ok = differential_order_bounded(mat.entries[i][j], r - 1, [probe], mults)
                        return {"order_bounded": ok}

                    def check(result, i=i, j=j):
                        return result["order_bounded"] is True and agree_windowed(
                            mat.entries[i][j](spot), gamma(i, j, spot))

                    tasks.append(Task(f"entry-{tag}", run, check))

        def neumann():
            inv = mat.neumann_inverse()
            return {"back": inv.apply_to_coordinates(mat.apply_to_coordinates(coords))}

        def check_neumann(result):
            back = result["back"]
            return len(back) == r and all(
                agrees_with_terms(b, t) for b, t in zip(back, coords_terms))

        tasks.append(Task(f"neumann-{tag}", neumann, check_neumann))
        return tasks

    def _operators(self, K, rng):
        field = K.field
        sigma = LiftingSystem.standard(K)
        t = K.gen(1)
        m = 3
        window = Compose([LevelProjection(K, 1, ">=", 0, sigma),
                          LevelProjection(K, 1, "<", m, sigma)])
        a = field.random_nonzero(rng, 3)
        projected = Compose([window, MulBy(K, K.one() + t.scalar_mul(a)), window])
        pi = LevelProjection(K, 1, ">=", 0, sigma)
        f, g = (K.from_terms({(e,): field.random_nonzero(rng, 3) for e in exps})
                for exps in ((-2, 1), (2, -1)))
        commutator = AddOp([
            Compose([pi, MulBy(K, f), MulBy(K, g)]),
            ScalarMul(-1, Compose([MulBy(K, g), pi, MulBy(K, f)])),
        ])
        # 1 + a t is unipotent on the window [0, m), so the projected
        # multiplication has trace m; pi f g - g pi f has the Tate residue of (f, g)
        return [("projected", projected, field.base.from_int(m)),
                ("commutator", commutator, tate_residue_dim1(f, g))]

    def _bt_ops(self, char, index, rng):
        K = self.k1[char]
        field = K.field
        tasks = []
        probes = _default_probes(K)
        for label, op, expected in self._operators(K, rng):
            def certify(op=op):
                certs = {(1, j): certify_membership(op, (1, j)) for j in (1, 2)}
                return {"replayed": [c.replay(probes) for c in certs.values()],
                        "witness_shift": certs[(1, 1)].witness_shift,
                        "killed_shift": certs[(1, 2)].killed_shift}

            def check_certify(result, op=op):
                lo, hi = result["witness_shift"], result["killed_shift"]
                if result["replayed"] != [True, True] or lo is None or hi is None:
                    return False
                # the operator must map O into t^lo O and kill t^hi O; probe
                # both on a run of monomials and on the fixed probe set
                for k in range(self.shift_probe_span):
                    img = op.apply(K.monomial((k,)))
                    if _known(img) and min(_known(img))[0] < lo:
                        return False
                    if _known(op.apply(K.monomial((hi + k,)))):
                        return False
                return all(not _known(op.apply(p * K.monomial((hi,))))
                           for p in probes if p.order >= 0)

            def trace(op=op):
                return {"trace": finite_potent_trace(op)}

            def check_trace(result, op=op, expected=expected):
                certs = {(1, j): certify_membership(op, (1, j)) for j in (1, 2)}
                lo = certs[(1, 1)].witness_shift
                hi = max(certs[(1, 2)].killed_shift, lo)
                brute = field.zero
                for q in range(lo, hi):
                    brute = brute + op.apply(K.monomial((q,))).coefficient_at((q,))
                return result["trace"] == expected == ext_trace(brute)

            tasks.append(Task(f"certify-{label}-char{char}", certify, check_certify))
            tasks.append(Task(f"trace-{label}-char{char}", trace, check_trace))

        K2 = self.k2[char]
        sigma = LiftingSystem.standard(K2)
        level = 1 + index % 2
        x = K2.from_terms({(rng.randint(-2, 2), rng.randint(-2, 2)): field.random_nonzero(rng, 3)
                           for _ in range(3)})

        def decompose():
            phi1, phi2, certs = decompose_identity(K2, level, sigma)
            return {"sum": phi1.apply(x) + phi2.apply(x), "targets": sorted(certs)}

        def check_decompose(result):
            return result["targets"] == [(level, 1), (level, 2)] and agrees_with_terms(
                result["sum"], _known(x))

        tasks.append(Task(f"decompose-char{char}", decompose, check_decompose))
        twisted = LiftingSystem.twisted_at(K2, 1, 2, depth=2)
        mult = MulBy(K2, K2.one() + K2.gen(2).scalar_mul(field.from_int(rng.choice((2, -2)))))

        def independence():
            report = verify_lifting_independence(mult, sigma, twisted, ["E"], probe_count=3)
            return {"agreements": report["agreements"],
                    "induced": report["induced_maps_agree"]}

        def check_independence(result):
            return result["agreements"] == {"E": True} and result["induced"] is True

        tasks.append(Task(f"independence-char{char}", independence, check_independence))
        return tasks


# ---------------------------------------------------------------------------
# extension-kernel
# ---------------------------------------------------------------------------

EXT_FIELDS = {
    "F5[x]/(x^2-2)": (5, [3, 0, 1]),
    "Q(i)": (0, [1, 0, 1]),
    "F2[x]/(x^3+x+1)": (2, [1, 1, 0, 1]),
    "Q(cbrt2)": (0, [-2, 0, 0, 1]),
}
_ALL = tuple(EXT_FIELDS)
_FINITE = ("F5[x]/(x^2-2)", "F2[x]/(x^3+x+1)")
_FULL = ("mul", "inv", "substitute")

# (depth, window, fields, operations).  Fully dense depth-2 window-16 and
# depth-3 window-8 operands cost 0.3-1 s per operation over the finite fields
# and 1.3-3 s over the number fields, so those shapes run over the finite
# fields only; NOTES.md lists what is left out.  The eight dear tasks are
# about 12% of a cycle, which puts p95 inside their cluster of latencies.
EXT_SHAPES = (
    (1, 8, _ALL, _FULL),
    (1, 16, _ALL, _FULL),
    (1, 32, _ALL, _FULL),
    (2, 8, _ALL, _FULL),
    (2, 16, _FINITE, _FULL),
    (3, 8, ("F5[x]/(x^2-2)",), ("mul",)),
    (3, 8, ("F2[x]/(x^3+x+1)",), ("inv",)),
)


class ExtensionKernel:
    """Series kernel over degree-2/3 extensions, separation, traces, lattices."""

    name = "extension-kernel"
    tail_pct = 95
    trace_cycles = 1
    spot_checks = 4

    def __init__(self, seed):
        self.seed = seed
        self.fields = {name: make_extension(c, p) for name, (c, p) in EXT_FIELDS.items()}
        self.k1 = {name: TlfDescriptor(1, f) for name, f in self.fields.items()}
        self.k2 = {name: TlfDescriptor(2, f) for name, f in self.fields.items()}
        self.specs = {}
        for name, ext in self.fields.items():
            below = TlfDescriptor(1, make_extension(ext.char, [0, 1]), window=9)
            spec = ExtensionSpec.unramified(below, ext)
            self.specs[name] = (below, spec, spec.upstairs_descriptor())

    def cycle(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        tasks = []
        for depth, window, names, ops in EXT_SHAPES:
            for name in names:
                for op in ops:
                    tasks.append(self._kernel(name, depth, window, op, rng))
        for i, name in enumerate(self.fields):
            tasks.append(self._separate(name, rng))
            tasks.append(self._trace_norm(name, rng))
            tasks.append(self._lattice(name, 2 + (index + i) % 2, rng))
        return tasks

    def _kernel(self, name, depth, window, op, rng):
        field = self.fields[name]
        span = 3
        x, x_terms = _dense(field, depth, window, rng, span)
        kind = f"{op}-d{depth}-w{window}-{name}"
        picks = random.Random(rng.random())
        if op == "mul":
            y, y_terms = _dense(field, depth, window, rng, span)

            def run():
                return {"product": x * y}

            def check(result):
                p = result["product"]
                if p.order != x.order + y.order or len(p.coeffs) != window or p.exact:
                    return False
                known = _known(p)
                # leading terms multiply; other positions by direct sums
                lead = tuple(a + b for a, b in zip(min(x_terms), min(y_terms)))
                if min(known) != lead:
                    return False
                for k in set(_sample(picks, known, self.spot_checks)) | {lead}:
                    acc = field.zero
                    for i, xi in x_terms.items():
                        j = tuple(a - b for a, b in zip(k, i))
                        if j in y_terms:
                            acc = acc + xi * y_terms[j]
                    if acc != known[k]:
                        return False
                return True

            return Task(kind, run, check)
        if op == "inv":
            def run():
                return {"inverse": x.inv()}

            def check(result):
                inv = result["inverse"]
                if inv.order != -x.order or len(inv.coeffs) != window:
                    return False
                one = {(0,) * depth: field.one}
                return agrees_with_terms(x * inv, one)

            return Task(kind, run, check)
        cs = [field.random_nonzero(rng, 2) for _ in range(depth)]
        assignment = [
            Series.generator(field, depth, i + 1) * (Series.one(field, depth) + Series.monomial(
                field, depth, tuple(1 if a == i else 0 for a in range(depth)), cs[i]))
            for i in range(depth)
        ]
        char = field.char

        def coefficient(k):
            """[t^k] of sum x_m prod_i t_i^m_i (1 + c_i t_i)^m_i."""
            acc = field.zero
            for m, xm in x_terms.items():
                term = xm
                for ki, mi, ci in zip(k, m, cs):
                    e = ki - mi
                    if e < 0:
                        term = None
                        break
                    b = _binom(mi, e)
                    term = term * (ci ** e) * (b % char if char else b)
                if term is not None:
                    acc = acc + term
            return acc

        def run():
            return {"image": x.substitute(assignment)}

        def check(result):
            image = result["image"]
            if image.order != x.order:
                return False
            known = _known(image)
            lead = min(known) if known else None
            if lead is None or lead != min(x_terms):
                return False
            samples = set(_sample(picks, known, self.spot_checks)) | {lead}
            return all(coefficient(k) == known[k] for k in samples)

        return Task(kind, run, check)

    def _separate(self, name, rng):
        K = self.k2[name]
        field = K.field
        c = field.random_nonzero(rng, 2)
        b = field.random_element(rng, 2)
        t1, t2 = Gen(K, 1), Gen(K, 2)
        e = (Const(K, 1) - Const(K, c) * t1 * t2).inv() * t2 + Const(K, b) * t1 * t1
        one_form = AbstractForm.d_of(K, e)
        two_form = one_form.wedge(AbstractForm.d_of(K, t1 * t2))
        # oracle: e as a series, differentiated termwise
        s1, s2 = K.gen(1), K.gen(2)
        E = (K.one() - (s1 * s2).scalar_mul(c)).inv() * s2 + (s1 * s1).scalar_mul(b)
        e1, e2 = E.derivative(1), E.derivative(2)
        expected_top = e1 * s1 - e2 * s2

        def run():
            return {"d": one_form.separate(), "top": two_form.separate()}

        def check(result):
            d, top = result["d"], result["top"]
            return (
                agree_windowed(d.coefficient((1,)), e1)
                and agree_windowed(d.coefficient((2,)), e2)
                and agree_windowed(top.coefficient((1, 2)), expected_top)
                and bool(_known(top.coefficient((1, 2))))
            )

        return Task("separate-inv-d2", run, check)

    def _trace_norm(self, name, rng):
        below, spec, L = self.specs[name]
        ext = L.field
        u = L.one()
        for k in (1, 2):
            u = u + L.monomial((k,), ext.random_nonzero(rng, 2))

        def run():
            traced = trace_forms(dlog_element(L, u, window=9), spec)
            return {"trace_dlog": traced,
                    "dlog_norm": dlog_element(below, norm_map(u, spec), window=9)}

        def check(result):
            a = result["trace_dlog"].coefficient((1,))
            b = result["dlog_norm"].coefficient((1,))
            # the trace of a dlog may vanish, so ask only for a window
            # reaching the constant term
            return agree_windowed(a, b) and min(_bound_key(a), _bound_key(b)) > (0,)

        return Task("trace-norm-unramified", run, check)

    def _lattice(self, name, rank, rng):
        K = self.k1[name]
        field = K.field
        diag = [rng.randint(-2, 2) for _ in range(rank)]
        gens = [
            [
                K.monomial((diag[i] if i == j else rng.randint(-2, 2),),
                           field.random_nonzero(rng, 2)) if i <= j else K.zero()
                for j in range(rank)
            ]
            for i in range(rank)
        ]
        mixed = [row[:] for row in gens]
        for _ in range(2):
            c1, c2 = rng.sample(range(rank), 2)
            f = K.monomial((rng.randint(0, 2),), field.random_nonzero(rng, 2))
            for row in range(rank):
                mixed[row][c1] = mixed[row][c1] + f * mixed[row][c2]
        shift = rng.randint(1, 2)

        def run():
            L = lattice_normal_form(K, gens)
            L2 = lattice_normal_form(K, mixed)
            Ls = L.shift(shift)
            return {
                "canonical": (L.hnf == L2.hnf, L.divisors == L2.divisors),
                "divisor_sum": sum(L.divisors),
                "contains": (contains(L, Ls), contains(Ls, L)),
                "quotient_dim": quotient_module(L, Ls, LiftingSpec(1)).dimension,
            }

        def check(result):
            # det of a triangular basis has valuation sum(diag); L/t^s L has
            # dimension rank * s over the residue field
            return (
                result["canonical"] == (True, True)
                and result["divisor_sum"] == sum(diag)
                and result["contains"] == (True, False)
                and result["quotient_dim"] == rank * shift
            )

        return Task(f"lattice-r{rank}", run, check)


# ---------------------------------------------------------------------------
# cli-requests
# ---------------------------------------------------------------------------


def cli_call(argv):
    """One in-process CLI request; returns (exit code, parsed JSON reply)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _form_reply(value):
    """JSON of the 1-form value * t1^-1 dt1, as the CLI prints it."""
    return {"coeffs": {"[1]": {"coeffs": [{"scalar": [str(value)]}], "exact": True,
                               "order": -1, "window": 1}}, "deg": 1}


class CliRequests:
    """A seeded stream of small `tlfields` CLI requests, run in process.

    Each request carries the reply it must produce: one entry per reply key,
    either the exact value or a predicate where the value is only bounded.
    """

    name = "cli-requests"
    tail_pct = 95
    trace_cycles = 8

    def __init__(self, seed):
        self.seed = seed

    def cycle(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        makers = (
            self._dlog, self._residue_q, self._residue_wedge, self._tate,
            self._kummer, self._unramified, self._counterexample, self._certify_proj,
            self._certify_mul, self._decompose, self._trace_op, self._global_q,
            self._global_p,
        )
        tasks = [make(rng) for make in makers]
        tasks.append(self._lift_matrix(5 if index % 2 == 0 else 0))
        return tasks

    @staticmethod
    def _task(kind, argv, want):
        def run():
            code, reply = cli_call(argv)
            return {"code": code, "reply": reply}

        def check(result):
            reply = result["reply"]
            return result["code"] == 0 and set(reply) == set(want) and all(
                w(reply[k]) if callable(w) else reply[k] == w for k, w in want.items())

        return Task(kind, run, check)

    def _dlog(self, rng):
        n = rng.choice([1, 2])
        char = rng.choice([0, 5, 7])
        gens = ",".join(f"t{i}" for i in range(1, n + 1))
        argv = ["residue", "--n", str(n), "--char", str(char), f"dlog({gens})"]
        return self._task("residue-dlog", argv, {"value": "1", "window_used": 8})

    def _residue_q(self, rng):
        a, b, m = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 7)
        argv = ["residue", "--n", "1", f"{a}/{b}*inv(1-t1)*t1^-{m}*d(t1)"]
        return self._task("residue-geometric", argv,
                          {"value": str(Fraction(a, b)), "window_used": 8})

    def _residue_wedge(self, rng):
        a, char = rng.randint(1, 20), rng.choice([5, 7])
        argv = ["residue", "--n", "2", "--char", str(char), f"{a}*t1^-1*d(t1) ^ t2^-1*d(t2)"]
        return self._task("residue-wedge", argv, {"value": str(a % char), "window_used": 8})

    def _tate(self, rng):
        k, char = rng.randint(1, 6), rng.choice([0, 5])
        argv = ["tate-residue", "--char", str(char), f"t1^-{k}", f"t1^{k}"]
        return self._task("tate-residue", argv,
                          {"value": str(k % char if char else k), "window_used": 8})

    def _kummer(self, rng):
        e = rng.choice([2, 3])
        char = rng.choice([c for c in (0, 5, 7) if c % e])
        a = rng.choice([v for v in range(1, 10) if not char or v % char])
        value = a % char if char else a
        argv = ["trace-form", "--n", "1", "--char", str(char), "--kummer", str(e),
                f"{a}*t1^-1 * d(t1)"]
        return self._task("trace-form-kummer", argv,
                          {"form": _form_reply(value), "residue": str(value)})

    def _unramified(self, rng):
        char, poly, degree = rng.choice([(5, "3,0,1", 2), (0, "1,0,1", 2), (2, "1,1,0,1", 3)])
        a = rng.choice([v for v in range(1, 10) if not char or v * degree % char])
        value = a * degree % char if char else a * degree
        argv = ["trace-form", "--n", "1", "--char", str(char), "--upstairs-poly", poly,
                f"{a}*t1^-1 * d(t1)"]
        return self._task("trace-form-unramified", argv,
                          {"form": _form_reply(value), "residue": str(value)})

    def _counterexample(self, rng):
        return self._task("counterexample", ["counterexample"], {"res_st": "0", "res_nt": "1"})

    def _certify_proj(self, rng):
        m = rng.randint(-2, 3)
        argv = ["certify", "--n", "1", "--target", "1,2", f"proj1(<{m})"]
        # any shift s >= m is killed by the projection; 0 is the lattice floor
        return self._task("certify-projection", argv, {
            "band": 0, "certified": True, "replayed": True, "target": [1, 2],
            "killed_shift": lambda s: m <= s <= max(m, 0)})

    def _certify_mul(self, rng):
        k = rng.randint(1, 3)
        argv = ["certify", "--n", "1", "--char", str(rng.choice([0, 5])), "--target", "E",
                f"mul(1+t1^{k})"]
        return self._task("certify-mul", argv,
                          {"band": 0, "certified": True, "replayed": True, "target": "E"})

    def _decompose(self, rng):
        level = rng.choice([1, 2])
        argv = ["decompose", "--n", "2", "--level", str(level), "--seed", str(rng.randint(0, 99))]
        return self._task("decompose", argv, {
            "identity_on_probes": True,
            "certified_targets": [f"[{level}, 1]", f"[{level}, 2]"],
            "phi1": {"cmp": ">=", "cutoff": 0, "level": level, "op": "proj"},
            "phi2": {"cmp": "<", "cutoff": 0, "level": level, "op": "proj"}})

    def _trace_op(self, rng):
        a, m = rng.randint(1, 4), rng.randint(1, 4)
        argv = ["trace-op", "--n", "1", "--char", "5",
                f"proj1(>=0)*mul(1+{a}*t1)*proj1(<{m})*proj1(>=0)"]
        # 1 + a t1 is unipotent on the window [0, m), so the trace is m
        return self._task("trace-op", argv, {"value": str(m % 5)})

    def _global_q(self, rng):
        a, b = rng.sample(range(-3, 4), 2)
        argv = ["global-sum", "--char", "0", f"1/((t-({a}))*(t-({b}))) dt"]
        # partial fractions: residues 1/(a-b) at a, 1/(b-a) at b, 0 at infinity
        expected = sorted([Fraction(1, a - b), Fraction(1, b - a), Fraction(0)])
        return self._task("global-sum-q", argv, {
            "sum": "0",
            "locals": lambda r: sorted(Fraction(v) for v in r.values()) == expected})

    def _global_p(self, rng):
        p, c = rng.choice([(5, 2), (5, 3), (7, 1), (7, 2)])  # -c is not a square mod p
        a = rng.randint(0, p - 1)
        b = rng.choice([v for v in range(p) if (a + v) % p])  # t + a must not cancel t - b
        # residue (b + a)/(b^2 + c) at t = b, its negative at the quadratic
        # point, 0 at infinity
        res_b = (b + a) * pow(b * b + c, -1, p) % p
        expected = sorted([res_b, -res_b % p, 0])
        argv = ["global-sum", "--char", str(p), f"(t+{a})/((t-{b})*(t^2+{c})) dt"]
        return self._task("global-sum-p", argv, {
            "sum": "0",
            "locals": lambda r: sorted(int(v) for v in r.values()) == expected})

    def _lift_matrix(self, char):
        argv = ["lift-matrix", "--n", "2", "--char", str(char), "--exponent", "1"]
        return self._task("lift-matrix-l1", argv, {
            "rank": 2, "unit_triangular": True, "orders_certified": True,
            "neumann_identity": True})


WORKLOADS = {w.name: w for w in (PullbackResidue, LiftingCertificates, ExtensionKernel,
                                 CliRequests)}
