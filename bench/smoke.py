"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 bench/smoke.py

For every workload, an untraced and a traced run must be correct with no
failed operation, must report exactly the metrics BENCHMARK.json names,
each with its unit, and every pass of both runs must produce the same
output digest.  Then the benchmark must exit nonzero, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile

from run import BENCH, ROOT, execute, metric_units
from workloads import WORKLOADS


def check_workload(name: str) -> list:
    problems = []
    digests = set()
    for trace, units in zip((False, True), metric_units()):
        result, info = execute(name, seed=1, seconds=0, trace=trace, tiny=True)
        tag = f"{name} trace={int(trace)}"
        if not result["correct"] or result["failed"]:
            errors = [line["errors"] for line in info if "errors" in line]
            problems.append(f"{tag}: not correct: {errors}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            problems.append(f"{tag}: metrics or units differ from "
                            "BENCHMARK.json")
        digests |= {line["digest"] for line in info if "digest" in line}
    if len(digests) != 1:
        problems.append(f"{name}: passes disagree on the output digest: "
                        f"{sorted(digests)}")
    return problems


def check_stripped_checkout() -> list:
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, f"{tmp}/{BENCH.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            command + ["--workload", next(iter(WORKLOADS)), "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a checkout without the package did not fail cleanly: "
                f"exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for name in WORKLOADS:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAIL'}")
        problems += found
    found = check_stripped_checkout()
    print(f"stripped checkout: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
