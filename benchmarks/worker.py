"""One workload in one process: set up, time the jobs, check every output.

Started by ``run.py``, which owns the scratch directory and sets the BLAS
thread count in this process's environment.  Prints one JSON object on its
last line of standard output.

With ``--setup-only`` the worker stops after set-up and reports only
``setup_s``: the time from its spawn (the launcher's monotonic clock, which
is system-wide on Linux) to the point where the first timed job would start.
Set-up covers interpreter start, importing xyberry with numpy and scipy,
generating the inputs and one warm-up job at reduced size.

Otherwise it runs jobs back to back (a closed loop with one client) for
about ``--seconds`` of wall time: the window ends at the job boundary
nearest to ``--seconds``, and always holds at least one job.  It checks
every job's output as soon as the job ends.  With ``--trace 1`` the window
is split in two halves: the first runs untraced, the second with the layer
tracer installed, so a traced run takes no longer than an untraced one.

The host's CPU speed drifts by up to 1.7x for seconds to minutes at a time,
so raw job times of the same code spread more than any useful bound.  An
untraced window therefore also runs a ``SpeedProbe``: every
``PROBE_PERIOD_S`` it times a fixed reference kernel.  A job's cost is its
time divided by the kernel's median time during that job, and
``job_cost_p50`` is the median cost.  The raw times stay in the metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import statistics
import sys
import time

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_ERRORS_REPORTED = 10
PROBE_PERIOD_S = 0.025


def reference_kernel():
    """Fixed interpreter-bound work, about 0.35 ms, whose time tracks the
    CPU's current speed."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times ``reference_kernel`` every ``PROBE_PERIOD_S`` of wall time.

    It runs from a SIGALRM handler in the main thread, so it samples the
    speed throughout each job (between bytecodes, at about 1.5% of the
    job's time) and never competes with the job for a core.
    """

    def __init__(self):
        self.samples = []  # (start, duration)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def reference_s(self, start, end):
        """Median kernel time over the samples taken in [start, end], or over
        all samples when none fell in that interval."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return statistics.median(inside or [d for _, d in self.samples])

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def import_package():
    """Import xyberry from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import xyberry

    where = os.path.dirname(os.path.abspath(xyberry.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"xyberry was imported from {where}, not from {SRC}")
    return xyberry


def measure(workload, seconds, first_index, tracer=None, tamper=None):
    """Run and check jobs for about ``seconds`` of job time.

    The window closes at the job boundary nearest to ``seconds``: another
    job starts only if it would end, at the last job's pace, less than half
    a job past the target.  So a window of multi-second jobs does not
    overrun by up to a whole job.

    Each job is checked as soon as it ends, so no run holds more than one
    job's output in memory.  Checking is excluded from the window and, in a
    traced window, from the trace.  Returns (job spans as (start, end),
    per-job failure lists, window).
    """
    spans, failures = [], []
    checking = 0.0
    start = time.perf_counter()
    j = first_index
    while True:
        t0 = time.perf_counter()
        try:
            result = workload.job(j)
        except Exception as exc:  # a job that raises counts as failed
            result = exc
        t1 = time.perf_counter()
        spans.append((t0, t1))
        if tracer is not None:
            tracer.end_job()
            tracer.enabled = False
        if isinstance(result, Exception):
            failures.append([f"{type(result).__name__}: {result}"])
        else:
            if tamper is not None:
                tamper(result)
            failures.append(workload.check(result))
        if tracer is not None:
            tracer.enabled = True
        checking += time.perf_counter() - t1
        j += 1
        if time.perf_counter() - start - checking + (t1 - t0) / 2 >= seconds:
            break
    return spans, failures, time.perf_counter() - start - checking


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def library_versions():
    import numpy
    import scipy

    def openblas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": openblas(numpy.show_config),
        "scipy_openblas": openblas(scipy.show_config),
    }


def run(workload, seconds, trace, tamper=None):
    """Time, trace and check one workload; returns the worker's report."""
    if trace:
        spans, failures, window = measure(workload, seconds / 2, 0, tamper=tamper)
    else:
        with SpeedProbe() as probe:
            spans, failures, window = measure(workload, seconds, 0, tamper=tamper)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [t1 - t0 for t0, t1 in spans]
    passed = sum(not f for f in failures)
    report = {"meta": {"jobs": len(times), "job_s": times, "window_s": window,
                       "job_s_p50": statistics.median(times), "jobs_per_s": passed / window}}
    if trace:
        tracer = Tracer()
        with tracer:
            t_spans, t_failures, _ = measure(workload, seconds / 2, len(times), tracer, tamper)
        t_times = [t1 - t0 for t0, t1 in t_spans]
        failures += t_failures
        metrics = tracer.per_layer(len(t_times))
        metrics["trace.job_s"] = statistics.median(t_times)
        metrics["trace.overhead_s"] = statistics.median(t_times) - statistics.median(times)
        report["meta"].update(traced_jobs=len(t_times), traced_job_s=t_times)
    else:
        # Each job in units of the reference kernel's time during that job.
        costs = [(t1 - t0) / probe.reference_s(t0, t1) for t0, t1 in spans]
        metrics = {"job_cost_p50": statistics.median(costs), "peak_rss_mb": peak_rss_mb}
        report["meta"].update(job_cost=costs, probe_samples=len(probe.samples))
    failed = sum(bool(f) for f in failures)
    report.update(
        attempted=len(failures),
        failed=failed,
        metrics=metrics,
        errors=[e for f in failures for e in f][:MAX_ERRORS_REPORTED],
    )
    report["meta"]["fail_ratio"] = failed / len(failures)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    report = run(workload, args.seconds, args.trace)
    report["setup_s"] = setup_s
    report["meta"].update(library_versions(), blas_threads=blas_threads())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
