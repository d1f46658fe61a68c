"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Every task kind of every workload passes its check on the genuine result,
   and each single field of the result, perturbed into a wrong value, is
   counted as a failed task.
2. Two traced runs at the same seed report identical ``*.calls`` counts, and
   the layers a workload is chosen to exercise (or to leave alone) show it.
"""

import json
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tlfields import SeparatedForm, Series  # noqa: E402
from tlfields.scalars import ExtScalar  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, Task  # noqa: E402

# Certificate bounds are checked as bounds: a looser bound is still a valid
# certificate, so the wrong value must claim more than holds.
BOUND_SHIFTS = {"witness_shift": 50, "killed_shift": -50}


def perturbations(value, key=None):
    """Every copy of value with exactly one leaf made wrong."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + BOUND_SHIFTS.get(key, 1)
    elif isinstance(value, (Fraction, ExtScalar)):
        yield value + 1
    elif isinstance(value, str):
        yield value + "1"
    elif isinstance(value, Series):
        known = dict(value.known_terms())
        lead = min(known) if known else (0,) * value.depth
        yield value + Series.monomial(value.field, value.depth, lead, 1)
    elif isinstance(value, SeparatedForm):
        for axes, coeff in value.coeffs.items():
            for wrong in perturbations(coeff):
                yield SeparatedForm(value.descriptor, value.degree, {**value.coeffs, axes: wrong})
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            for wrong in perturbations(item):
                yield type(value)(value[:i]) + type(value)([wrong]) + type(value)(value[i + 1:])
    elif isinstance(value, dict):
        for k, item in value.items():
            for wrong in perturbations(item, k):
                yield {**value, k: wrong}
    else:
        raise TypeError(f"no perturbation for {type(value).__name__}")


def first_of_each_kind(workload):
    seen = {}
    for task in workload.cycle(0):
        seen.setdefault(task.kind, task)
    return list(seen.values())


class CheckersCountWrongResults(unittest.TestCase):
    def test_every_kind(self):
        for name, cls in WORKLOADS.items():
            for task in first_of_each_kind(cls(0)):
                with self.subTest(workload=name, kind=task.kind):
                    result = task.run()
                    self.assertTrue(task.check(result), "genuine result rejected")
                    wrongs = list(perturbations(result))
                    self.assertTrue(wrongs)
                    tally = run.Tally()
                    for wrong in wrongs:
                        fake = Task(task.kind, lambda wrong=wrong: wrong, task.check)
                        tally.add(task.kind, *run.execute(fake))
                    self.assertEqual(tally.failed, len(wrongs))

    def test_raised_error_is_a_failure(self):
        def boom():
            raise ArithmeticError("boom")

        tally = run.Tally()
        tally.add("boom", *run.execute(Task("boom", boom, lambda r: True)))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


def traced_run(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}, result


# Workload -> layers that must show self time there, and counts that must be 0.
EXPECTED = {
    "pullback-residue": (
        ("scalars", "series", "tlf", "forms", "residue"),
        ("tlf.lifting_apply.calls", "bt_ops.apply.calls", "bt_ops.certify.calls",
         "lattices.normal_form.calls", "geom.local_expansion.calls", "cli.requests.calls"),
    ),
    "lifting-certificates": (
        ("scalars", "series", "tlf", "bt_ops"),
        ("lattices.normal_form.calls", "geom.local_expansion.calls", "cli.requests.calls"),
    ),
    "extension-kernel": (
        ("scalars", "series", "forms", "residue", "lattices"),
        ("tlf.lifting_apply.calls", "bt_ops.apply.calls", "geom.local_expansion.calls",
         "cli.requests.calls"),
    ),
    "cli-requests": (
        ("scalars", "series", "tlf", "bt_ops", "geom", "cli", "residue", "forms"),
        ("lattices.normal_form.calls",),
    ),
}


class TracedRunIntegrity(unittest.TestCase):
    def test_counts_repeat_and_layers_show(self):
        for name, (busy, idle) in EXPECTED.items():
            with self.subTest(workload=name):
                first, result = traced_run(name, 3)
                second, _ = traced_run(name, 3)
                self.assertTrue(result["correct"])
                calls = {k: v for k, v in first.items() if k.endswith(".calls")}
                self.assertEqual(calls, {k: second[k] for k in calls})
                for layer in busy:
                    self.assertGreater(first[f"{layer}.self_s"], 0, layer)
                for key in idle:
                    self.assertEqual(first[key], 0, key)
                self.assertGreater(first["trace.overhead_ratio"], 0)


if __name__ == "__main__":
    unittest.main()
