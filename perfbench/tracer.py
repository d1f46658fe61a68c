"""Spans around the calls the benchmark makes into each layer of tlfields.

The tracer patches the public entry points of every layer module for the
duration of a traced pass and restores them afterwards; ``src/`` is never
edited.  Each patched call pushes a frame on one stack.  When it returns, its
duration is charged to its parent frame, so a name's self time is its span
duration minus the time covered by its child spans.

Two kinds of entry point exist:

* span entry points record one span each (name, start, end, parent span,
  task id, self seconds) in memory; the list is written out after the run;
* hot entry points (scalar and series arithmetic, operator application,
  lifting application) run millions of times, so they only add to a count
  and a self-time total per name.

Outcome counters ride along: ``<name>.ok`` counts calls that returned, for
the ``success_ratio`` metrics, and ``<layer>.refusals`` counts
``InsufficientPrecision`` raised out of the layer to a caller in another
layer.
"""

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "series", "tlf", "forms", "residue", "lattices", "bt_ops", "geom", "cli")

# (metric name, module, attribute path, hot).  An attribute path "Cls.meth"
# patches a class attribute; a bare name patches the module function and
# every other tlfields module that imported the same object.
ENTRY_POINTS = [
    ("scalars.mul", "scalars", "ExtScalar.__mul__", True),
    ("scalars.mul", "scalars", "ExtScalar.__rmul__", True),
    ("scalars.add", "scalars", "ExtScalar.__add__", True),
    ("scalars.add", "scalars", "ExtScalar.__radd__", True),
    ("scalars.add", "scalars", "ExtScalar.__sub__", True),
    ("scalars.inv", "scalars", "ExtScalar.inv", True),
    ("scalars.field_eq", "scalars", "ExtField.__eq__", True),
    ("scalars.trace_norm", "scalars", "ExtScalar.trace", True),
    ("scalars.trace_norm", "scalars", "ExtScalar.norm", True),
    ("scalars.make_extension", "scalars", "make_extension", False),
    ("series.mul", "series", "Series.__mul__", True),
    ("series.mul", "series", "Series.__rmul__", True),
    ("series.add", "series", "Series.__add__", True),
    ("series.add", "series", "Series.__radd__", True),
    ("series.sub", "series", "Series.__sub__", True),
    ("series.sub", "series", "Series.__rsub__", True),
    ("series.inv", "series", "Series.inv", True),
    ("series.substitute", "series", "Series.substitute", True),
    ("series.scalar_mul", "series", "Series.scalar_mul", True),
    ("series.derivative", "series", "Series.derivative", True),
    ("series.valuation", "series", "Series.valuation", True),
    ("series.newton", "series", "newton_inverse_1d", True),
    ("series.truncate", "series", "truncate_lex", True),
    ("series.truncate", "series", "truncate_level1", True),
    ("series.truncate", "series", "truncate_box", True),
    ("series.residue_level1", "series", "residue_level1", True),
    ("tlf.lifting_apply", "tlf", "LiftingSpec.apply", True),
    ("tlf.sigma_expand", "tlf", "sigma_expand", True),
    ("tlf.change_of_lifting", "tlf", "change_of_lifting_matrix", False),
    ("tlf.lifting_matrix", "tlf", "LiftingMatrix.is_unit_upper_triangular", False),
    ("tlf.lifting_matrix", "tlf", "LiftingMatrix.apply_to_coordinates", False),
    ("tlf.lifting_matrix", "tlf", "LiftingMatrix.neumann_inverse", False),
    ("tlf.diff_order", "tlf", "differential_order_bounded", False),
    ("tlf.parametrize", "tlf", "parametrize", False),
    ("tlf.substitution_iso", "tlf", "SubstitutionIso.forward", False),
    ("tlf.substitution_iso", "tlf", "SubstitutionIso.inverse", False),
    ("tlf.validate", "tlf", "validate_uniformizers", False),
    ("forms.pullback", "forms", "SeparatedForm.pullback_substitution", False),
    ("forms.pullback", "forms", "AbstractForm.pullback", False),
    ("forms.separate", "forms", "AbstractForm.separate", False),
    ("forms.exterior_d", "forms", "SeparatedForm.exterior_d", False),
    ("forms.exterior_d", "forms", "AbstractForm.d", False),
    ("forms.wedge", "forms", "SeparatedForm.wedge", False),
    ("forms.wedge", "forms", "AbstractForm.wedge", False),
    ("forms.dlog", "forms", "dlog", False),
    ("forms.dlog", "forms", "dlog_element", False),
    ("residue.res_tlf", "residue", "res_tlf", False),
    ("residue.trace_forms", "residue", "trace_forms", False),
    ("residue.norm_map", "residue", "norm_map", False),
    ("residue.tate", "residue", "tate_residue_dim1", False),
    ("residue.counterexample", "residue", "counterexample_char0", False),
    ("lattices.normal_form", "lattices", "lattice_normal_form", False),
    ("lattices.contains", "lattices", "contains", False),
    ("lattices.quotient_module", "lattices", "quotient_module", False),
    ("bt_ops.apply", "bt_ops", "MulBy.apply", True),
    ("bt_ops.apply", "bt_ops", "DiffOp.apply", True),
    ("bt_ops.apply", "bt_ops", "LevelProjection.apply", True),
    ("bt_ops.apply", "bt_ops", "CoeffLift.apply", True),
    ("bt_ops.apply", "bt_ops", "FiniteRank.apply", True),
    ("bt_ops.apply", "bt_ops", "Compose.apply", True),
    ("bt_ops.apply", "bt_ops", "AddOp.apply", True),
    ("bt_ops.apply", "bt_ops", "ScalarMul.apply", True),
    ("bt_ops.certify", "bt_ops", "certify_membership", False),
    ("bt_ops.trace", "bt_ops", "finite_potent_trace", False),
    ("bt_ops.replay", "bt_ops", "Certificate.replay", False),
    ("bt_ops.decompose", "bt_ops", "decompose_identity", False),
    ("bt_ops.lifting_independence", "bt_ops", "verify_lifting_independence", False),
    ("geom.global_residues", "geom", "global_residues", False),
    ("geom.global_residue_sum", "geom", "global_residue_sum", False),
    ("geom.local_expansion", "geom", "local_expansion", False),
    ("geom.local_residue", "geom", "local_residue", False),
    ("cli.requests", "cli", "main", False),
    ("cli.parse", "cli", "parse_expression", False),
    ("cli.parse", "cli", "parse_series", False),
    ("cli.parse", "cli", "parse_form", False),
    ("cli.parse", "cli", "parse_operator", False),
    ("cli.parse", "cli", "parse_rational_form", False),
]
for _cmd in ("residue", "tate_residue", "trace_form", "counterexample", "certify",
             "decompose", "trace_op", "global_sum", "lift_matrix"):
    ENTRY_POINTS.append(("cli.command", "cli", "cmd_" + _cmd, False))


class Tracer:
    """Install with ``with tracer:``; calls are recorded only inside a task."""

    def __init__(self, namespaces=()):
        self.enabled = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.task = None
        self._namespaces = tuple(namespaces)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- task boundaries ------------------------------------------------

    def begin_task(self, task_id):
        """Open the root frame of one task; its self time is benchmark glue."""
        self.task = task_id
        self._stack[:] = [[0.0, None, 0]]
        self._root_start = time.perf_counter()
        self.enabled = True

    def end_task(self):
        self.enabled = False
        dt = time.perf_counter() - self._root_start
        self.self_s["task.unattributed"] += dt - self._stack[0][0]
        self._stack[:] = []

    # -- patching -------------------------------------------------------

    def __enter__(self):
        from tlfields.errors import InsufficientPrecision

        homes = {m: importlib.import_module("tlfields." + m) for m in LAYERS}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "tlfields" or key.startswith("tlfields.")]
        namespaces += list(self._namespaces)
        for name, mod, path, hot in ENTRY_POINTS:
            home = homes[mod]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, hot, InsufficientPrecision))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, hot, InsufficientPrecision)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.enabled = False
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hot, refusal):
        layer = name.split(".")[0]
        stack = self._stack
        perf = time.perf_counter
        calls, self_s, spans = self.calls, self.self_s, self.spans
        ok_name = name + ".ok"
        refusal_name = layer + ".refusals"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if hot:
                frame = [0.0, layer, parent[2]]
            else:
                tracer._next_id += 1
                frame = [0.0, layer, tracer._next_id]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except refusal:
                if parent[1] != layer:
                    calls[refusal_name] += 1
                raise
            else:
                calls[ok_name] += 1
                return out
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                own = dt - frame[0]
                calls[name] += 1
                self_s[name] += own
                if not hot:
                    spans.append((frame[2], parent[2], tracer.task, name, t0, t1, own))

        return wrapper

    # -- results --------------------------------------------------------

    def layer_self_s(self):
        """Self seconds per layer module, summed over its entry points."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            layer = name.split(".")[0]
            if layer in totals:
                totals[layer] += value
        return totals
