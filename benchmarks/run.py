"""xyberry benchmark: the CLI and the library end to end, and each layer on its own.

Usage, from the root of a checkout (no install needed; the package is
imported from ``src``):

    python3 benchmarks/run.py --workload grid-maps --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --seed 1 --seconds 10      # every workload in turn

Each workload runs in its own worker process (``worker.py``), which calls the
public API in-process and checks every output.  This launcher imports no
numerical library: it sets the BLAS thread count in the workers' environment
(one thread, which is no more than ``nproc`` and measured faster than two on
every workload here), makes a scratch directory for the job artifacts inside
the checkout and removes it afterwards.

Set-up is measured in ``SETUP_RUNS`` separate processes per run (the timed
worker and ``SETUP_RUNS - 1`` that stop after set-up), and ``setup_s`` is
their median.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace
0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones from a
traced window.  The line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-loops", "dense-observables", "grid-maps")
SETUP_RUNS = 7
BLAS_THREADS = 1
# The whole invocation must end within 180 s; keep a margin for the launcher.
DEADLINE_S = 170.0


def load_units():
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_revision():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkerError(RuntimeError):
    pass


def spawn(args, env, deadline):
    """Run one worker to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, WORKER, *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, units, deadline):
    """One workload: set-up repeats, then the timed worker; returns (meta, result)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        base = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(base + ["--setup-only"], env, deadline)["setup_s"])
        report = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report["setup_s"])
    metrics = dict(report["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    meta = dict(report["meta"])
    meta.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        git_revision=git_revision(),
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        blas_threads_env=BLAS_THREADS,
        setup_s_runs=setups,
        errors=report["errors"],
    )
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    return meta, result


def terminate(signum, frame):
    """Turn SIGTERM into SystemExit, so the worker is killed and awaited and
    the scratch directory removed on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "xyberry")):
        print(f"no xyberry sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        units = load_units()
    except (OSError, ValueError, KeyError) as exc:
        print(f"unreadable BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            meta, result = run_workload(
                name, args.seed, args.seconds, args.trace, units, deadline
            )
        except (WorkerError, ValueError, KeyError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for error in meta["errors"]:
            print(f"{name}: check failed: {error}", file=sys.stderr)
        results[name] = result
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"{name:18s} {metric:34s} {m['value']:.6g} {m['unit']}")
            print(f"{name:18s} {'fail_ratio':34s} {meta['fail_ratio']:.6g} "
                  f"({result['failed']}/{result['attempted']})")
        print(json.dumps({"meta": meta}))

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
