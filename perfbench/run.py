"""Benchmark of tlfields: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; the package is imported from ./src only.
With ``--trace 0`` the workload's task cycle repeats for at least
``--seconds`` seconds of task time (thread CPU time; the default is
``run_seconds`` of BENCHMARK.json), stopping only at the end of a cycle, and
the end-to-end metrics are printed.  With ``--trace 1`` a fixed number of
cycles runs once untraced and once traced, and the per-layer metrics are
printed; the spans are written to ``.perfbench_out/``.  The last line of
standard output is one JSON object; earlier lines are notes for people.
``--workload all`` runs every workload in a fresh interpreter in turn.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pullback-residue", "lifting-certificates", "extension-kernel", "cli-requests")
SETUP_PROBES = 10
REF_S = 0.001  # reference() time that task and set-up times are scaled to
CHILD_TIMEOUT_S = 170


def import_package():
    """Import tlfields from this checkout's src/, and nowhere else."""
    if not (SRC / "tlfields" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tlfields package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tlfields

    if Path(tlfields.__file__).resolve().parent != (SRC / "tlfields").resolve():
        raise SystemExit(f"perfbench: imported tlfields from {tlfields.__file__}")


def setup(name, seed):
    """Import, build fields and descriptors, generate the first cycle's inputs.

    The time taken is scaled to reference speed, like a task's.
    """
    before = min(time_reference() for _ in range(3))
    t0 = time.perf_counter()
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    first = workload.cycle(0)
    elapsed = time.perf_counter() - t0
    after = min(time_reference() for _ in range(3))
    return elapsed * 2 * REF_S / (before + after), workload, first


def reference():
    """A fixed computation in the style of the workloads: Fractions, tuples, a dict."""
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(1, i % 31 + 1) * 3
        seen[(i, i % 7)] = i * i
    return total


def time_reference():
    t0 = time.thread_time()
    reference()
    return time.thread_time() - t0


def execute(task, tracer=None, task_id=0):
    """Run one task; time (and trace) only its run, then check the result.

    Returns the task's time scaled to reference speed, whether it passed, the
    error if it did not, and its raw time.  Tasks are timed in CPU time of this
    thread, since a task is single-threaded.  The speed of a shared host can
    drift by a factor of two over seconds to minutes, so the reference
    computation is timed just before and just after the task, and the task's
    time is scaled to a machine on which the reference takes REF_S.
    """
    before = time_reference()
    if tracer:
        tracer.begin_task(task_id)
    t0 = time.thread_time()
    error = None
    try:
        result = task.run()
    except Exception as exc:  # a raised error is a failed task, not a crash
        error = f"{task.kind}: {type(exc).__name__}: {exc}"
    elapsed = time.thread_time() - t0
    if tracer:
        tracer.end_task()
    scaled = elapsed * 2 * REF_S / (before + time_reference())
    if error:
        return scaled, False, error, elapsed
    try:
        ok = task.check(result) is True
    except Exception as exc:  # a check that cannot run counts against the task
        return scaled, False, f"{task.kind}: check raised {type(exc).__name__}: {exc}", elapsed
    return scaled, ok, None if ok else f"{task.kind}: wrong result", elapsed


class Tally:
    """Latencies (scaled to reference speed) and failures of the tasks of one pass."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failed = 0
        self.errors = []
        self.raw_s = 0.0

    def add(self, kind, elapsed, ok, error, raw_s):
        self.latencies.append(elapsed)
        self.kinds.append(kind)
        self.raw_s += raw_s
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    @property
    def attempted(self):
        return len(self.latencies)

    def tasks_per_s(self):
        return (self.attempted - self.failed) / sum(self.latencies)


def tail_index(count, pct):
    """Nearest-rank index of the pct-th percentile in a sorted sample."""
    return max(0, -(-pct * count // 100) - 1)


def run_cycles(workload, first, stop):
    """Run whole cycles until stop(tally) holds after a cycle."""
    tally = Tally()
    index = 0
    tasks = first
    while True:
        for task in tasks:
            tally.add(task.kind, *execute(task))
        index += 1
        if stop(tally):
            return tally
        tasks = workload.cycle(index)


def measure_setup(name, seed, own_setup_s):
    """Set-up times of fresh interpreters and this one."""
    samples = [own_setup_s]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(name, seed, seconds):
    own_setup_s, workload, first = setup(name, seed)
    setups = measure_setup(name, seed, own_setup_s)
    min_samples = -(-1000 // (100 - workload.tail_pct))  # ten beyond the tail
    tally = run_cycles(
        workload, first,
        lambda t: t.raw_s >= seconds and t.attempted >= min_samples,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ordered = sorted(zip(tally.latencies, tally.kinds))
    k = tail_index(len(ordered), workload.tail_pct)
    mid = len(ordered) // 2
    print(f"{name} seed {seed}: {tally.attempted} tasks in "
          f"{tally.raw_s:.2f} s of task time ({sum(tally.latencies):.2f} s at reference "
          f"speed), {tally.failed} failed "
          f"(failed_share {tally.failed / tally.attempted:.4f})")
    print(f"task_tail_ms is p{workload.tail_pct} of {len(ordered)} samples, "
          f"{len(ordered) - k - 1} beyond it, a {ordered[k][1]} task; the median "
          f"lies at {ordered[mid - 1][1]} / {ordered[mid][1]}")
    print(f"setup_s is the median of {len(setups)} set-ups, which range from "
          f"{min(setups):.4f} to {max(setups):.4f} s at reference speed")
    for error in tally.errors:
        print("failure:", error)
    metrics = {
        "tasks_per_s": (tally.tasks_per_s(), "1/s"),
        "task_p50_ms": (statistics.median(tally.latencies) * 1000, "ms"),
        "task_tail_ms": (ordered[k][0] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, metrics


def traced(name, seed):
    _, workload, first = setup(name, seed)
    import workloads
    from tracer import Tracer

    tasks = list(first)
    for index in range(1, workload.trace_cycles):
        tasks += workload.cycle(index)
    untraced = Tally()
    for task in tasks:
        untraced.add(task.kind, *execute(task))

    tracer = Tracer(namespaces=[workloads])
    tally = Tally()
    per_kind = {}
    with tracer:
        for task_id, task in enumerate(tasks):
            before = dict(tracer.calls)
            tally.add(task.kind, *execute(task, tracer, task_id))
            counts = per_kind.setdefault(task.kind, {"tasks": 0})
            counts["tasks"] += 1
            for key, value in tracer.calls.items():
                if not key.endswith(".ok") and value != before.get(key, 0):
                    counts[key] = counts.get(key, 0) + value - before.get(key, 0)

    overhead = tally.tasks_per_s() / untraced.tasks_per_s()
    metrics = {m["name"]: (layer_metric(m["name"], tracer, overhead), m["unit"])
               for m in spec()["per_layer"]}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "tasks": len(tasks),
            "calls": dict(sorted(tracer.calls.items())),
            "self_s": dict(sorted(tracer.self_s.items())),
            "per_kind_calls": per_kind,
            "span_fields": ["id", "parent", "task", "name", "start", "end", "self_s"],
            "spans": tracer.spans,
        }, fh)
    total_self = sum(v for k, v in tracer.self_s.items())
    print(f"{name} seed {seed}: traced {len(tasks)} tasks, {len(tracer.spans)} spans "
          f"written to {path.relative_to(ROOT)}; scalars.mul is "
          f"{tracer.self_s.get('scalars.mul', 0.0) / total_self:.1%} of traced self time")
    for error in untraced.errors + tally.errors:
        print("failure:", error)
    both = Tally()
    both.latencies = untraced.latencies + tally.latencies
    both.failed = untraced.failed + tally.failed
    return both, metrics


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def layer_metric(name, tracer, overhead):
    """Value of one per-layer metric named in BENCHMARK.json."""
    from tracer import LAYERS

    if name == "trace.overhead_ratio":
        return overhead
    if name == "trace.spans":
        return len(tracer.spans)
    if name == "trace.unattributed_s":
        return tracer.self_s.get("task.unattributed", 0.0)
    base, quantity = name.rsplit(".", 1)
    if quantity == "calls":
        return tracer.calls.get(base, 0)
    if quantity == "self_s":
        return tracer.layer_self_s()[base] if base in LAYERS else tracer.self_s.get(base, 0.0)
    if quantity == "success_ratio":
        made = tracer.calls.get(base, 0)
        return tracer.calls.get(base + ".ok", 0) / made if made else 0.0
    raise KeyError(f"unknown per-layer metric {name}")


def report(tally, metrics):
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if tally.failed == 0 else 1


def run_all(args):
    """Every workload in a fresh interpreter; one summary line per workload."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        for key, m in result["metrics"].items():
            print(f"  {name:22s} {key:34s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {name:22s} {'failed_share':34s} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio")
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return report(*traced(args.workload, args.seed))
    return report(*end_to_end(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
