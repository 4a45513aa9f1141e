"""Run one cyclab benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; cyclab is imported from its `src`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (see README.md); with `--trace 1` they are
the per-layer ones from tracing.py.  The lines before it record the host,
the numeric libraries and the raw wall times.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify_small", "infimum_large", "lab_catalogue")
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"),
              ("bicyclic_norm", "1"), ("shift_norm", "1"))
# The host's speed drifts by up to 2x over seconds to minutes.  Every timed
# region therefore samples a fixed pure-Python kernel every PROBE_PERIOD_S
# and is rescaled to the speed at which that kernel takes REFERENCE_PROBE_S
# (its mean on a 2-vCPU x86-64 host with Python 3.11.7).
PROBE_PERIOD_S = 0.05
REFERENCE_PROBE_S = 1.5e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def cap_threads():
    """Cap the numeric thread pools at the CPUs this process may use."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)
    return cap


def _probe_kernel():
    total = 0
    for i in range(2000):
        total += i * i
    return total


class Clock:
    """Times one region in seconds at the reference host speed.

    A SIGALRM handler times `_probe_kernel` every PROBE_PERIOD_S while the
    region runs, and the kernel is also timed once at each end.  `seconds` is
    the region's wall time, less the time spent in the probe, scaled by
    REFERENCE_PROBE_S over the mean probe time.  `wall_s` is the raw wall
    time.
    """

    def _sample(self, *_):
        start = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        inside_s = sum(self.samples[1:])
        self._sample()
        speed = REFERENCE_PROBE_S / statistics.fmean(self.samples)
        self.seconds = (self.wall_s - inside_s) * speed
        return False


def import_cyclab():
    """Import cyclab from this checkout's src; returns the Clock that timed it."""
    if not (SRC / "cyclab" / "__init__.py").is_file():
        raise FileNotFoundError("no cyclab package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    with Clock() as clock:
        import cyclab  # noqa: F401  (timed: part of set-up)
    if Path(cyclab.__file__).resolve().parent != SRC / "cyclab":
        raise ImportError("cyclab was imported from %s, not %s" % (cyclab.__file__, SRC))
    return clock


def environment(cap):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "thread_cap": cap,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_round(workload, inputs, round_dir):
    """One round of the workload's operations: (Clock, results).

    Each result is (label, output, error); an operation that raises is
    recorded with its traceback and the round goes on.
    """
    ops = workload.operations(inputs, round_dir)
    results = []
    with Clock() as clock:
        for label, op in ops:
            try:
                results.append((label, op(), None))
            except Exception:
                results.append((label, None, traceback.format_exc()))
    return clock, results


def check_results(workload, inputs, results):
    """Number of failed operations; reasons go to standard error."""
    failed = 0
    for label, output, error in results:
        if error is None:
            try:
                problems = workload.check(inputs, label, output)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failed += 1
            for problem in problems:
                print("FAILED %s: %s" % (label, problem), file=sys.stderr)
    return failed


def main(argv=None):
    args = parse_args(argv)
    cap = cap_threads()
    try:
        import_clock = import_cyclab()
    except (ImportError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    from cyclab import engine

    workload = WORKLOADS[args.workload]
    run_dir = OUT / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            with Clock() as clock:
                inputs = workload.setup(args.seed)
            builds.append(clock)
        setup_s = import_clock.seconds + statistics.median(c.seconds for c in builds)

        # tracing off: whole rounds until the run has measured --seconds
        rounds, checked = [], []
        while not rounds or sum(c.wall_s for c in rounds) < args.seconds:
            clock, results = run_round(
                workload, inputs, run_dir / ("round%d" % len(rounds))
            )
            rounds.append(clock)
            checked.append((inputs, results))
            if args.trace:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            # one traced set-up and round, after the untraced one above
            tracer = tracing.Tracer(engine.LSMR_TOTAL_BUDGET)
            tracer.install()
            try:
                traced_inputs = workload.setup(args.seed)
                traced, traced_results = run_round(
                    workload, traced_inputs, run_dir / "traced"
                )
            finally:
                tracer.uninstall()
            checked.append((traced_inputs, traced_results))
            tracer.write_spans(OUT / ("spans-%s.csv" % args.workload))

        failed = sum(check_results(workload, i, r) for i, r in checked)
        attempted = sum(len(r) for _, r in checked)
        if failed == 0:
            first = {label: output for label, output, _ in checked[0][1]}
            bicyclic, shift = workload.norms(first)

        print("env " + json.dumps(environment(cap), sort_keys=True))
        print("wall " + json.dumps({
            "import_s": import_clock.wall_s,
            "build_s": [c.wall_s for c in builds],
            "round_s": [c.wall_s for c in rounds],
        }))
        if args.trace:
            overhead_s = traced.seconds - rounds[0].seconds
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in tracer.metrics(overhead_s).items()
            }
        elif failed:
            metrics = {}
        else:
            run_s = statistics.median(c.seconds for c in rounds)
            values = (setup_s, run_s, peak_rss_mb, bicyclic, shift)
            metrics = {
                name: {"value": value, "unit": unit}
                for (name, unit), value in zip(END_TO_END, values)
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
