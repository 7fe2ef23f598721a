"""The rwre benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
A run times the set-up of a fresh process, makes one untimed reference
pass (lazy imports, exact work count, reference digest), then repeats the pass
closed-loop, one after another, for ``--seconds``, and reports the median
pass.  Every pass's output digest must equal the reference.

Each timed pass and set-up is bracketed by a fixed reference kernel, and
its end-to-end time is scaled to the kernel's speed on a quiet host (see
``scaled``): on a shared host the same pass runs up to twice as slowly for
seconds to minutes at a time, and the kernel slows with it.

With ``--trace 0`` the passes run untraced, the reference pass counts its
work through public entry points only, and the end-to-end metrics are
reported.  With ``--trace 1`` the reference pass is traced, untraced and
traced passes alternate, and the per-layer metrics are reported.  Metric names and units come from
BENCHMARK.json.  Informational JSON lines (environment, machine-drift
calibration, one line per pass) precede the result, which is the last line
of standard output.  Exit code 2 means the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from math import cos, log, sqrt
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from micro import micro_rates
from tracer import Tracer, WorkCounter, layer_metrics
from workloads import B, WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_PASSES = 3
CALIBRATION_RUNS = 9
KERNEL_REPEATS = 3
KERNEL_HASHES = 2000
KERNEL_SWEEPS = 60
# About the reference kernel's time on a quiet host: its fast readings (3.6
# to 4.2 ms) on the 2-vCPU KVM guest of an Intel Xeon (family 6, model 143)
# that this benchmark was tuned on.  It fixes the scale of ``scaled`` only.
REFERENCE_KERNEL_S = 0.0042


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def _kernel_once() -> float:
    """Seconds for one run of a fixed reference kernel, about 4 ms on a
    quiet host.  It mixes the kinds of work rwre does: a Python loop that
    chains 16-byte BLAKE2b hashes and turns each into a Box-Muller normal,
    then numpy sweeps over a 4096-element array.  Under outside load it
    slows by about as much as the workloads do."""
    blake = hashlib.blake2b
    d = bytes(16)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(KERNEL_HASHES):
        d = blake(d + b"\x01", digest_size=16).digest()
        u = ((int.from_bytes(d[:8], "little") >> 11) + 1) * 2.0 ** -53
        acc += sqrt(-2.0 * log(u)) * cos(6.283185307179586 * u)
    a = np.arange(4096, dtype=np.float64)
    for _ in range(KERNEL_SWEEPS):
        a = np.sqrt(np.abs(np.cumsum(a * 1.0001)))
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The reference kernel's median time over a few runs, so that one run
    that lost the processor does not skew the scaling of a pass."""
    return statistics.median(_kernel_once() for _ in range(KERNEL_REPEATS))


def scaled(seconds: float, kernels: Tuple[float, float]) -> float:
    """A time measured between two kernel runs, scaled to the kernel's
    speed on a quiet host: ``seconds * REFERENCE_KERNEL_S / mean(kernels)``."""
    return seconds * REFERENCE_KERNEL_S * 2.0 / sum(kernels)


def calibrate() -> float:
    """The drift record: median reference-kernel time, in milliseconds."""
    return statistics.median(kernel_s() for _ in range(CALIBRATION_RUNS)) * 1e3


def setup_times(name: str, seed: int, workdir: str) -> List[float]:
    """Scaled wall times of fresh set-up processes."""
    probe_dir = os.path.join(workdir, "setup")
    os.makedirs(probe_dir)
    argv = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
            probe_dir]
    # Set-up is single-threaded.  Keeping the probe on the processor the
    # kernel runs on makes the kernel see the probe's share of outside load.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_RUNS):
            before = kernel_s()
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
            wall = time.perf_counter() - t0
            times.append(scaled(wall, (before, kernel_s())))
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times


@dataclass
class Pass:
    """The record of one run of a workload's pass."""

    kind: str
    wall_s: float
    kernels: Tuple[float, float]  # reference-kernel seconds before, after
    outcome: Outcome
    probe: object  # the Tracer or WorkCounter the pass ran under, or None

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.kernels)

    def info(self, index: int) -> dict:
        o = self.outcome
        return {"pass": index, "kind": self.kind, "wall_s": self.wall_s,
                "kernel_s": self.kernels, "scaled_s": self.scaled_s,
                "digest": o.digest, "attempted": o.attempted,
                "failed": o.failed, "errors": o.errors}


def run_pass(job, kind: str, probe=None) -> Pass:
    before = kernel_s()
    if probe:
        probe.install()
    try:
        t0 = time.perf_counter()
        try:
            job.run()
        except Exception:  # a crash is a failed pass, reported below
            traceback.print_exc()
        wall = time.perf_counter() - t0
    finally:
        if probe:
            probe.uninstall()
    return Pass(kind, wall, (before, kernel_s()), job.outcome(), probe)


def execute(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Tuple[dict, List[dict]]:
    """One benchmark run; returns the result object and the info lines."""
    if not (SRC / "rwre" / "__init__.py").is_file():
        raise BenchError(f"no rwre package under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError("no BENCHMARK.json at the checkout root")
    e2e_units, layer_units = metric_units()
    workload = WORKLOADS[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    calib_start = calibrate()
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as work:
        setup = [] if trace else setup_times(name, seed, work)
        job = workload.prepare(seed, work, tiny)
        import rwre
        if not Path(rwre.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"rwre was imported from {rwre.__file__}")
        info = [{"environment": environment()}]
        passes = [run_pass(job, "reference",
                           Tracer() if trace else WorkCounter())]
        deadline = time.perf_counter() + seconds
        timed: List[Pass] = []
        traced: List[Pass] = []
        while (len(timed) < MIN_PASSES or (trace and len(traced) < 2)
               or time.perf_counter() < deadline):
            timed.append(run_pass(job, "timed"))
            if trace:
                traced.append(run_pass(job, "traced", Tracer()))
        passes += timed + traced
    calib_end = calibrate()

    ref = passes[0]
    errors = [f"pass {i} ({p.kind}): {e}" for i, p in enumerate(passes)
              for e in p.outcome.errors]
    errors += [f"pass {i} ({p.kind}): digest differs from the reference"
               for i, p in enumerate(passes)
               if p.outcome.digest != ref.outcome.digest]
    for i, p in enumerate(passes):
        if isinstance(p.probe, Tracer):
            errors += [f"pass {i} ({p.kind}): {e}"
                       for e in p.probe.identity_failures()]
            if p.probe.exact_counts() != ref.probe.exact_counts():
                errors.append(f"pass {i} ({p.kind}): trace counts differ "
                              "from the reference pass")
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)

    if trace:
        # Per-layer times are raw: the fastest pass, with the kernel's
        # slowdown over the run's passes reported next to them.
        metrics = layer_metrics(ref.probe, [p.probe for p in traced],
                                min(p.wall_s for p in timed),
                                min(p.wall_s for p in traced))
        metrics.update(micro_rates(ref.probe.digests, B, seed))
        metrics["failed_ratio"] = failed / attempted
        metrics["calibration.start_ms"] = calib_start
        metrics["calibration.end_ms"] = calib_end
        metrics["calibration.slowdown"] = statistics.median(
            k / REFERENCE_KERNEL_S for p in passes for k in p.kernels)
        units = layer_units
    else:
        work_done = getattr(ref.probe, workload.work_unit)
        if work_done == 0:
            errors.append(f"the reference pass counted no {workload.work_unit}")
        metrics = {
            "setup_s": statistics.median(setup),
            "work_per_s": work_done / statistics.median(
                p.scaled_s for p in timed),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = e2e_units
    if set(metrics) != set(units):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    info.append({"calibration_ms": {"start": calib_start, "end": calib_end}})
    if setup:
        info.append({"setup_s": setup})
    info += [p.info(i) for i, p in enumerate(passes)]
    if errors:
        info.append({"errors": errors})
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result, info = execute(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in info:
        print(json.dumps(line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
