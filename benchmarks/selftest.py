"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 benchmarks/selftest.py

It checks three things:

* a corrupted artifact or a wrong value in any workload makes jobs fail, so
  ``failed`` and ``fail_ratio`` rise above zero (through ``worker.run``, the
  path the benchmark itself takes), while the untouched job passes;
* a short smoke run of every workload prints every metric BENCHMARK.json
  names, with ``fail_ratio`` in the run metadata;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.

The smoke run executes one full-size job of each workload, so the whole
test takes one to two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402

worker.import_package()
import workloads  # noqa: E402


def edit_field(data: bytes, row: int, col: int, fn) -> bytes:
    """Apply ``fn`` to one comma-separated field of a CSV artifact."""
    lines = data.decode().split("\n")
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode()


def scale(factor):
    return lambda text: repr(float(text) * factor)


def artifact_edit(name, edit):
    def tamper(result):
        result.artifacts[name] = edit(result.artifacts[name])

    return tamper


def json_edit(key, value):
    def edit(data):
        payload = json.loads(data)
        payload[key] = value
        return json.dumps(payload).encode()

    return edit


def set_code(name, code):
    def tamper(result):
        result.codes[name] = code

    return tamper


def shift_value(key, delta):
    def tamper(result):
        result.values[key] += delta

    return tamper


# Row 1 of the README surface is lambda = 0, gamma = 0 (critical); row 26 is
# lambda = 0, gamma = 0.5, which the sample always checks.
SURFACE_LAMBDA0_ROW = 26

TAMPERS = {
    "verify-loops": (
        lambda seed, d: workloads.VerifyLoops(seed, d, steps=400, draws=1),
        {
            "nonzero exit": set_code("summary.json", 1),
            "pass false": artifact_edit(
                "summary.json", lambda b: b.replace(b'"pass": true', b'"pass": false')
            ),
            "truncated summary": artifact_edit("summary.json", lambda b: b[: len(b) // 2]),
        },
    ),
    "dense-observables": (
        lambda seed, d: workloads.DenseObservables(seed, d, n_sites=6),
        {
            "wrong dense energy": shift_value("ed_energy", 1e-6),
            "wrong dense magnetization": shift_value("ed_magnetization", 1e-6),
        },
    ),
    "grid-maps": (
        lambda seed, d: workloads.GridMaps(seed, d),
        {
            "surface header": artifact_edit("surface.csv", lambda b: b.replace(b"phi_eg", b"phi", 1)),
            "surface row dropped": artifact_edit(
                "surface.csv", lambda b: b[: b.rstrip(b"\n").rfind(b"\n") + 1]
            ),
            "surface phi_eg at lambda=0": artifact_edit(
                "surface.csv", lambda b: edit_field(b, SURFACE_LAMBDA0_ROW, 4, scale(1.001))
            ),
            "gap-map value": artifact_edit(
                "gapmap.csv", lambda b: edit_field(b, 777, 2, scale(1.001))
            ),
            "gap-map tag": artifact_edit(
                "gapmap_n.csv", lambda b: edit_field(b, 3, 3, lambda _: "IsingPlane")
            ),
            "fit exponent": artifact_edit("fit_xx.json", json_edit("exponent", 1.05)),
            "step-trace lambda*": artifact_edit(
                "trace.csv", lambda b: edit_field(b, 2, 1, lambda t: repr(float(t) + 0.02))
            ),
            "step-trace exit": set_code("trace.csv", 1),
        },
    ),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


class CorruptionRaisesFailRatio(unittest.TestCase):
    def test_every_workload(self):
        for name, (make, tampers) in TAMPERS.items():
            with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
                clean = worker.run(make(3, workdir), 0, trace=0)
                self.assertEqual(clean["failed"], 0, f"{name}: {clean['errors']}")
                for label, tamper in tampers.items():
                    with self.subTest(workload=name, fault=label):
                        report = worker.run(make(3, workdir), 0, trace=0, tamper=tamper)
                        self.assertGreater(report["failed"], 0)
                        self.assertGreater(report["meta"]["fail_ratio"], 0.0)
                        self.assertEqual(report["meta"]["jobs_per_s"], 0.0)


class SmokeRunPrintsEveryMetric(unittest.TestCase):
    def test_trace_off_and_on(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = run_benchmark(ROOT, "--seconds", "0.1", "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
                self.assertEqual([m["workload"] for m in metas], names)
                for meta in metas:
                    self.assertEqual(meta["fail_ratio"], 0.0)
                for workload in names:
                    for metric in spec[section]:
                        key = f"{workload}.{metric['name']}"
                        self.assertIn(key, result["metrics"])
                        self.assertEqual(result["metrics"][key]["unit"], metric["unit"])
                        if section == "end_to_end":
                            self.assertGreater(result["metrics"][key]["value"], 0.0)


class BareDirectoryFails(unittest.TestCase):
    def test_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(bare, "--workload", "grid-maps", "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
