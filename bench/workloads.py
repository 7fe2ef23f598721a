"""The benchmark's workloads.

Each workload turns a seed into one pass of rwre work, reached through the
same public entry point a user calls, and reduces the pass's
result-determining outputs to a sha256 digest.  A pass is run many times
per benchmark run; every repeat must give the same digest.

Workload reasons and the metric-to-layer map are in METRICS.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List

# Never more workers than cores; cli.py ignores the value today, so a
# later change that makes --threads real shows its gain here unedited.
THREADS = min(2, os.cpu_count() or 1)
B = 4  # branching number of every workload's tree


@dataclass
class Outcome:
    """What one pass produced: its digest and its operation tally."""

    digest: str
    attempted: int
    failed: int
    errors: List[str]


def _write_config(path: str, sections: Dict[str, Dict[str, object]]) -> None:
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")


def _digest_outputs(out: str) -> str:
    """sha256 over every output file; the report's timestamp is dropped."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".json"):
            with open(path) as fh:
                report = json.load(fh)
            report.pop("timestamp", None)
            body = json.dumps(report, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                body = fh.read()
        h.update(name.encode() + b"\0" + body + b"\0")
    return h.hexdigest()


class CliPass:
    """One ``rwre <command>`` run in-process through ``rwre.cli.main``.

    An operation is one entry of the command's report.  A nonzero exit
    with no failing entry (a config error) counts as one failed operation.
    """

    def __init__(self, command: str, config: Dict[str, Dict[str, object]],
                 seed: int, workdir: str):
        from rwre import cli

        self._cli = cli
        self.command = command
        cfg = os.path.join(workdir, f"{command}.ini")
        _write_config(cfg, config)
        self.out = os.path.join(workdir, "out")
        self.argv = [command, "--config", cfg, "--seed", str(seed),
                     "--threads", str(THREADS), "--out", self.out]
        self.rc = None

    def run(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            self.rc = self._cli.main(self.argv)

    def outcome(self) -> Outcome:
        path = os.path.join(self.out, f"{self.command}_report.json")
        if not os.path.exists(path):
            return Outcome("", 1, 1, [f"exit {self.rc}, no report"])
        with open(path) as fh:
            results = json.load(fh)["results"]
        bad = [r["name"] for r in results if r["pass"] is False]
        errors = [f"check failed: {n}" for n in bad]
        failed = len(bad)
        if self.rc != 0 and not bad:
            failed = 1
            errors.append(f"exit {self.rc}")
        return Outcome(_digest_outputs(self.out), max(len(results), 1),
                       failed, errors)


class BetaPass:
    """``quenched.negative_moment_of_beta`` over sub-seeded environments.

    An operation is one environment; an environment the ladder did not
    converge on is dropped from the estimate and counts as failed.
    """

    def __init__(self, b: int, kind: str, p: float, n_envs: int,
                 rel_tol: float, seed: int):
        from rwre import quenched
        from rwre.env import EnvSpec

        self._quenched = quenched
        self.spec = EnvSpec(b, kind, seed)
        self.p = p
        self.n_envs = n_envs
        self.rel_tol = rel_tol
        self.report = None
        self.error = ""

    def run(self) -> None:
        from rwre.errors import RwreError

        self.report = None
        self.error = ""
        try:
            self.report = self._quenched.negative_moment_of_beta(
                self.spec, p=self.p, n_envs=self.n_envs, rel_tol=self.rel_tol)
        except RwreError as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def outcome(self) -> Outcome:
        if self.report is None:
            return Outcome("", self.n_envs, self.n_envs, [self.error])
        r = self.report
        key = f"{r.estimate.hex()} {r.std_error.hex()} {r.n_samples}"
        failed = self.n_envs - r.n_samples
        errors = [f"{failed} environment(s) did not converge"] if failed else []
        return Outcome(hashlib.sha256(key.encode()).hexdigest(),
                       self.n_envs, failed, errors)


@dataclass(frozen=True)
class Workload:
    name: str
    module: str      # what a user imports to reach the entry point
    work_unit: str   # the WorkCounter count that work_per_s divides by
    full: dict
    tiny: dict

    def prepare(self, seed: int, workdir: str, tiny: bool = False):
        sizes = self.tiny if tiny else self.full
        if self.module == "rwre.cli":
            return CliPass(sizes["command"], sizes["config"], seed, workdir)
        return BetaPass(seed=seed, **sizes)


# The statistical checks run at alpha = 1e-4, not the CLI's 0.01: at 0.01
# a correct program fails one seed in a hundred per check, and the
# benchmark must pass on every seed.  Output equality is checked by digest.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="clt-lerrw1",
        module="rwre.cli",
        work_unit="walk_steps",
        full={"command": "clt", "config": {
            "env": {"b": B, "kind": "lerrw:1.0"},
            "clt": {"walks": 100, "n_steps": 250, "speed_gaps": 200,
                    "alpha": 1e-4}}},
        tiny={"command": "clt", "config": {
            "env": {"b": B, "kind": "lerrw:1.0"},
            "clt": {"walks": 100, "n_steps": 200, "speed_gaps": 16,
                    "alpha": 1e-4}}},
    ),
    Workload(
        name="beta-lerrw1",
        module="rwre.quenched",
        work_unit="ladder_nodes",
        full={"b": B, "kind": "lerrw:1.0", "p": 2.0, "n_envs": 100,
              "rel_tol": 0.015},
        tiny={"b": B, "kind": "lerrw:1.0", "p": 2.0, "n_envs": 100,
              "rel_tol": 0.05},
    ),
    Workload(
        name="coupling-lerrw0.5",
        module="rwre.cli",
        work_unit="runs",
        full={"command": "coupling", "config": {
            "env": {"b": B, "kind": "lerrw:0.5"},
            "coupling": {"seeds": 12, "n_steps": 250,
                         "independence_trials": 3000, "alpha": 1e-4}}},
        tiny={"command": "coupling", "config": {
            "env": {"b": B, "kind": "lerrw:0.5"},
            "coupling": {"seeds": 1, "n_steps": 200,
                         "independence_trials": 100, "alpha": 1e-4}}},
    ),
)}
