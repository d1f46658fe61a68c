"""Single-call cost of the shapes the benchmark's workloads leave out.

    python3 perfbench/excluded.py

Each shape is too dear to repeat in every run of a workload.  A change that
makes one of them tractable adds it to a workload as a benchmark change of
its own.  The whole script takes several minutes.
"""

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import EXT_FIELDS, _dense, cli_call  # noqa: E402
from tlfields import make_extension  # noqa: E402


def timed(label, fn):
    t0 = time.perf_counter()
    fn()
    print(f"{label}: {time.perf_counter() - t0:.2f} s", flush=True)


def series_mul(field_name, depth, window):
    field = make_extension(*EXT_FIELDS[field_name])
    rng = random.Random(0)
    x, _ = _dense(field, depth, window, rng, 3)
    y, _ = _dense(field, depth, window, rng, 3)
    timed(f"dense Series mul, depth {depth}, window {window}, {field_name}", lambda: x * y)


def main():
    timed("lift-matrix --n 2 --char 5 --exponent 3",
          lambda: cli_call(["lift-matrix", "--n", "2", "--char", "5", "--exponent", "3"]))
    series_mul("F5[x]/(x^2-2)", 3, 16)
    series_mul("Q(i)", 3, 16)
    series_mul("Q(i)", 2, 32)
    for name in ("Q(i)", "Q(cbrt2)"):
        series_mul(name, 2, 16)
        series_mul(name, 3, 8)


if __name__ == "__main__":
    main()
