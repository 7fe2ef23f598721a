"""Command line entry point: runs experiment pipelines from a config file
and writes CSV/JSON reports.

Exit codes: 0 when no report entry has ``pass: false``, 1 when at least
one does (a package error inside a command becomes a failing
``runtime_error`` entry), 2 for an invalid config or arguments.  Every
config value is checked before any stage runs, so an invalid config exits
2 without writing a report or any other output file.  Each command is a
function ``(spec, settings, out) -> entries`` in ``COMMANDS``.  Its
settings arrive parsed and checked against their declaration in
``_SETTINGS``; it checks only what joins two keys or the environment,
runs, and writes its CSVs into ``out`` through ``_write_csv``.

Reproducibility contract, checked by ``tests/test_cli.py``: the same
resolved config produces byte-identical CSVs and the same JSON report up
to its ``timestamp`` field, run after run, for any ``--threads``.  Every
random stream is keyed by a derived seed rather than by schedule, so a
trial draws the same bits in any process.  ``--threads K`` forks workers
in two commands only: ``coupling`` (its restriction seeds, then its
independence trials) and ``moments`` (its root-visit and regeneration
harvest).  Each of those loops runs on min(K, trials, CPUs this process
may use) processes, the command's own included, and its workers end
before the loop returns.  The other commands, and both at K = 1, run in
one process.  The output directory and the thread count are left out of
``config_hash``.
"""

import argparse
import configparser
import csv
import datetime
import hashlib
import json
import math
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .clocks import StopRule, independence_check
from .env import (
    EnvSpec,
    check_assumption_a,
    lerrw_negative_moment_cf,
    parse_descriptor,
    weight_sum_tail_index,
    weight_sums,
)
from .errors import ConfigError, InvalidInputError, RwreError
from .quenched import geometric_moment_bound, negative_moment_of_beta
from .stats import (
    MomentCheck,
    estimate_sigma,
    estimate_speed,
    fclt_increment_test,
    fit_geometric_tail,
    moment_check,
)
from .walk import run_walk
from . import experiments

# Every setting once: section -> key -> (default, bound).  The default's
# type is the setting's type, and str(default) is the text config_hash
# reads.  An int's bound is its least value, a float's the open interval
# it must lie in; None allows any finite float or any string.
_SETTINGS = {
    "run": {"seed": (7, 0), "out": ("rwre-out", None), "threads": (1, 1)},
    "env": {"b": (4, 1), "kind": ("lerrw:1.0", None)},
    "simulate": {"walks": (5, 1), "n_steps": (2000, 1), "stride": (10, 1)},
    # the tail fit needs 1000 gaps
    "regen": {"gaps": (2000, 1000), "max_level": (1200, 3), "guard": (100, 0),
              "r2_min": (0.98, None), "agree_tol": (0.05, None)},
    "clt": {"walks": (500, 100), "n_steps": (4000, 10),
            "speed_gaps": (2000, 16), "alpha": (0.01, (0.0, 1.0))},
    "moments": {"p": (2.0, (0.0, math.inf)),
                "epsilon": (0.3, (0.0, 1.0 / 3.0)), "n_envs": (300, 100),
                "mc_samples": (200000, 100), "tau_trials": (1000, 200)},
    "coupling": {"seeds": (50, 1), "n_steps": (10000, 10),
                 "independence_trials": (2000, 100),
                 "alpha": (0.01, (0.0, 1.0))},
    "appendix": {"theta_points": (99, 2), "powers": ("0.5,1.0,1.5,2.0", None)},
}


def _load_config(path: Optional[str], command: str,
                 overrides: Dict[str, Optional[str]]) -> Dict[str, str]:
    """Flat resolved settings: defaults, then file, then CLI overrides."""
    merged: Dict[str, str] = {}
    for section in ("run", "env", command):
        merged.update((k, str(d)) for k, (d, _) in _SETTINGS[section].items())
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            items = [(section, parser.items(section))
                     for section in parser.sections()]
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section, pairs in items:
            if section not in _SETTINGS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in pairs:
                if key not in _SETTINGS[section]:
                    raise ConfigError(
                        f"unknown key '{key}' in section [{section}]")
                if section in ("run", "env") or section == command:
                    merged[key] = value
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)
    return merged


def _checked(raw: Dict[str, str], command: str) -> Tuple[EnvSpec, dict]:
    """The environment, and every setting of ``run``, ``env`` and
    ``command`` as its default's type, checked against its bound."""
    settings = {}
    for section in ("run", "env", command):
        for key, (default, bound) in _SETTINGS[section].items():
            try:
                v = type(default)(raw[key])
            except ValueError:
                what = "an integer" if isinstance(default, int) else "a number"
                raise ConfigError(f"{key} must be {what}, got {raw[key]!r}")
            if isinstance(v, int) and v < bound:
                raise ConfigError(f"{key} must be >= {bound}, got {v}")
            if isinstance(v, float):
                lo, hi = bound or (-math.inf, math.inf)
                if not lo < v < hi:  # false for nan and for an infinite v
                    raise ConfigError(
                        f"{key} must lie in ({lo:g}, {hi:g}), got {raw[key]!r}")
            settings[key] = v
    try:
        return EnvSpec(b=settings["b"], kind=settings["kind"],
                       seed=settings["seed"]), settings
    except RwreError as exc:
        raise ConfigError(str(exc))


def _config_hash(settings: Dict[str, str], command: str) -> str:
    """Digest of the result-determining settings; output location and
    worker count cannot change any number in the report."""
    canon = command + "\n" + "\n".join(
        f"{k}={settings[k]}" for k in sorted(settings)
        if k not in ("out", "threads"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_csv(out: str, name: str, header: Sequence[str],
               rows: Iterable[Sequence]) -> str:
    """Write one CSV of the report into ``out``; return its file name."""
    with open(os.path.join(out, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return name


def _entry(name: str, operation: str, estimate=None, ci=None, p_value=None,
           ok=None, **detail) -> dict:
    return {
        "name": name,
        "operation": operation,
        "estimate": None if estimate is None else float(estimate),
        "ci": None if ci is None else [float(ci[0]), float(ci[1])],
        "p_value": None if p_value is None else float(p_value),
        "pass": ok,
        "detail": detail,
    }


def _cmd_simulate(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    results = []
    for i in range(s["walks"]):
        traj = run_walk(spec.subseed(b"sim", i),
                        StopRule(max_steps=s["n_steps"]))
        levels = traj.levels
        last = len(levels) - 1
        # every stride-th step and the last; written before the next walk
        # runs, so one trajectory is held at a time
        name = _write_csv(out, f"trajectory_{i:03d}.csv", ["step", "level"],
                          ((k, int(levels[k]))
                           for k in [*range(0, last, s["stride"]), last]))
        results.append(_entry(
            f"walk_{i:03d}", "walk.run_walk",
            estimate=float(levels[-1]), ok=True,
            steps=traj.steps_taken, max_level=traj.max_level_attained,
            csv=name))
    return results


def _cmd_regen(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    if s["max_level"] <= 2 * s["guard"]:
        raise ConfigError("max_level must exceed twice the guard")
    h = experiments.harvest_gaps(spec, s["gaps"], max_level=s["max_level"],
                                 guard=s["guard"])
    _write_csv(out, "gaps.csv", ["index", "level_gap", "time_gap"],
               ((i, int(lg), int(tg)) for i, (lg, tg) in
                enumerate(zip(h.gaps.level_gaps, h.gaps.time_gaps))))
    mle, reg = fit_geometric_tail(h.gaps.level_gaps)
    agree = abs(mle.a_hat - reg.a_hat)
    return [
        _entry("gaps_collected", "experiments.harvest_gaps",
               estimate=len(h.gaps), ok=True, walks=h.walks),
        _entry("tail_a_mle", "stats.fit_geometric_tail",
               estimate=mle.a_hat, ok=True),
        _entry("tail_a_regression", "stats.fit_geometric_tail",
               estimate=reg.a_hat, ok=bool(reg.r_squared >= s["r2_min"]),
               r_squared=reg.r_squared, k_range=list(reg.k_range)),
        _entry("tail_a_agreement", "stats.fit_geometric_tail",
               estimate=agree, ok=bool(agree <= s["agree_tol"])),
    ]


def _cmd_clt(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    gate = check_assumption_a(spec)
    if not gate > 1.0 / spec.b:
        raise ConfigError(
            "environment fails the transience criterion "
            f"(inf_t E[A^t] = {gate:.4f} <= {1.0 / spec.b:.4f}); "
            "refusing to run")
    walks, n_steps, alpha = s["walks"], s["n_steps"], s["alpha"]
    # One harvest gives v_hat for the speed entry and both FCLT plug-ins.
    # A plug-in error dv shifts every standardized FCLT increment by
    # dv*sqrt(dt)/sigma, and sd(v_hat) ~ sigma/sqrt(mean_tgap * gaps), so
    # about 180k gaps keep the two-standard-error shift below 0.08 for
    # dt ~ 1000; the default 2000 is far below that.
    h = experiments.harvest_gaps(spec, s["speed_gaps"], tag=b"speed")
    e = estimate_speed(h.gaps)
    results = [_entry(
        "speed", "stats.estimate_speed", estimate=e.v_hat,
        ci=(e.ci_low, e.ci_high), ok=bool(e.ci_low > 0.0),
        n_gaps=e.n_gaps)]
    cr = experiments.clt_report(spec, n_walks=walks, n_steps=n_steps)
    results.append(_entry(
        "clt_normality", "experiments.clt_report",
        estimate=cr.ks.ks_statistic, p_value=cr.ks.p_value,
        ok=bool(cr.ks.p_value >= alpha), v_hat=cr.v_hat,
        sigma_hat=cr.sigma_hat, n=cr.ks.n))
    skip = None
    # some p > 2 with E[(sum A)^-p] finite: for lerrw:delta, delta < b/4
    if spec.kind.startswith("lerrw:") and not weight_sum_tail_index(spec) > 2:
        skip = ("functional scaling condition delta < b/4 fails; "
                "increment normality is not expected")
    elif walks < 500:
        skip = "the increment tests need at least 500 walks"
    if skip:
        results.append(_entry(
            "fclt_increments", "stats.fclt_increment_test",
            ok=True, skipped=True, reason=skip))
    else:
        fr = fclt_increment_test(cr.levels, n_steps, e.v_hat,
                                 estimate_sigma(h.gaps, e.v_hat), alpha=alpha)
        results.append(_entry(
            "fclt_increments", "stats.fclt_increment_test",
            estimate=max(abs(c) for c in fr.correlations),
            p_value=min(t.p_value for t in fr.increment_tests),
            ok=bool(fr.passed),
            increment_p_values=[float(t.p_value) for t in
                                fr.increment_tests],
            correlation_limit=fr.correlation_limit))
    _write_csv(out, "clt_z.csv", ["index", "z"],
               ((i, f"{z:.10g}") for i, z in enumerate(cr.z_scores)))
    return results


def _tail(chk: MomentCheck) -> dict:
    """Hill's index and interval; a sample without a tail (all top values
    equal) has index inf, written as null because JSON has no inf."""
    if math.isinf(chk.tail_index):
        return {"tail_index": None, "tail_index_ci": None}
    return {"tail_index": chk.tail_index, "tail_index_ci": list(chk.index_ci)}


def _moment_entry(name: str, chk: MomentCheck) -> dict:
    return _entry(name, "stats.moment_check", estimate=chk.estimate,
                  ok=chk.finite, std_error=chk.std_error, n=chk.n_samples,
                  **_tail(chk))


def _cmd_moments(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    p, epsilon = s["p"], s["epsilon"]
    index = weight_sum_tail_index(spec)
    divergent = p >= index
    results = []
    if spec.kind.startswith("lerrw:") and divergent:
        results.append(_entry(
            "weight_sum_negative_moment_formula",
            "env.lerrw_negative_moment_cf", ok=True, divergent=True))
    elif spec.kind.startswith("lerrw:"):
        delta = parse_descriptor(spec.kind)[1][0]
        results.append(_entry(
            "weight_sum_negative_moment_formula",
            "env.lerrw_negative_moment_cf",
            estimate=lerrw_negative_moment_cf(spec.b, p, delta), ok=True))
    rep = negative_moment_of_beta(spec, p, n_envs=s["n_envs"])
    if divergent:
        # beta <= sum A/(1 + sum A), so E[beta^-p] > E[(sum A)^-p] = inf:
        # both moments are infinite and no sample is judged.
        results.extend(_entry(name, "env.weight_sum_tail_index", ok=True,
                              divergent=True, tail_index=index)
                       for name in ("weight_sum_negative_moment_mc",
                                    "beta_negative_moment"))
    else:
        results.append(_moment_entry(
            "weight_sum_negative_moment_mc",
            moment_check(1.0 / weight_sums(spec, s["mc_samples"]), p)))
        chk = moment_check(1.0 / rep.values, p)
        results.append(_entry(
            "beta_negative_moment", "quenched.negative_moment_of_beta",
            estimate=rep.estimate, ok=chk.finite, std_error=rep.std_error,
            n=rep.n_samples, **_tail(chk)))
    _write_csv(out, "beta.csv", ["env_seed_index", "beta", "depth", "gap"],
               ((i, f"{bv.value:.10g}", bv.depth, f"{bv.upper_gap:.4g}")
                for i, bv in enumerate(rep.betas)))
    mh = experiments.moment_harvest(spec, trials=s["tau_trials"],
                                    epsilon=epsilon, threads=s["threads"])
    for name, samples, power in (
            ("root_visits_cubed", mh.root_visits, 3.0),
            ("first_regen_time_2.5", mh.first_regen_times, 2.5)):
        results.append(_moment_entry(name, moment_check(samples, power)))
    results.append(_entry(
        "epsilon", "config", estimate=epsilon, ok=True))
    return results


def _cmd_coupling(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    if spec.b < 2:
        raise ConfigError("coupling checks need at least two children")
    seeds, trials, threads = s["seeds"], s["independence_trials"], s["threads"]
    cr = experiments.coupling_suite(spec, seeds=seeds, n_steps=s["n_steps"],
                                    threads=threads)
    ir = independence_check(spec, (1,), (2,), trials=trials, threads=threads)
    _write_csv(out, "independence_table.csv",
               [f"digit_{j + 1}" for j in range(spec.b)],
               ([int(x) for x in row] for row in ir.table))
    return [
        _entry("restriction_identity", "experiments.coupling_suite",
               estimate=cr.restriction_matches,
               ok=bool(cr.restriction_matches == seeds),
               compared_entries=cr.restriction_compared,
               nonempty=cr.nonempty_restrictions),
        _entry("disjoint_independence", "clocks.independence_check",
               estimate=ir.statistic, p_value=ir.p_value,
               ok=bool(ir.p_value >= s["alpha"]), dof=ir.dof, trials=trials),
    ]


def _cmd_appendix(spec: EnvSpec, s: Dict[str, Any], out: str) -> List[dict]:
    try:
        powers = [float(x) for x in s["powers"].split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"powers must be a comma list, got {s['powers']!r}")
    if not powers or not all(0 < p < math.inf for p in powers):
        raise ConfigError(f"powers must list positive finite numbers, "
                          f"got {s['powers']!r}")
    points = s["theta_points"]
    thetas = np.linspace(0.01, 0.99, points)
    results, rows = [], []
    for p in powers:
        worst = np.inf
        all_ok = True
        for theta in thetas:
            # the whole grid is made before the CSV, so a power whose
            # moment overflows a float exits 2 with no output
            try:
                exact, bound = geometric_moment_bound(float(theta), p)
            except InvalidInputError as exc:
                raise ConfigError(str(exc))
            ok = exact <= bound
            all_ok = all_ok and ok
            worst = min(worst, bound - exact)
            rows.append([f"{theta:.10g}", p, f"{exact:.10g}",
                         f"{bound:.10g}", int(ok)])
        results.append(_entry(
            f"bound_holds_p_{p:g}", "quenched.geometric_moment_bound",
            estimate=worst, ok=bool(all_ok), points=points))
    _write_csv(out, "appendix_grid.csv", ["theta", "p", "exact", "bound", "ok"],
               rows)
    return results


COMMANDS = {
    "simulate": _cmd_simulate,
    "regen": _cmd_regen,
    "clt": _cmd_clt,
    "moments": _cmd_moments,
    "coupling": _cmd_coupling,
    "appendix": _cmd_appendix,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwre",
        description="Simulation and statistical checks for transient random "
                    "walks in random environments on regular trees.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, metavar="FILE")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("--threads", type=int, default=None, metavar="K")
    parser.add_argument("--out", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        raw = _load_config(args.config, args.command, {
            "seed": args.seed, "threads": args.threads, "out": args.out})
        spec, settings = _checked(raw, args.command)
        out = settings["out"]
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot make output directory {out}: {exc.strerror}")
        results = COMMANDS[args.command](spec, settings, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RwreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        results = [_entry("runtime_error", type(exc).__name__, ok=False,
                          message=str(exc))]
    report = {
        "command": args.command,
        "config_hash": _config_hash(raw, args.command),
        "seed": settings["seed"],
        "version": __version__,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "results": results,
    }
    path = os.path.join(out, f"{args.command}_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [r["name"] for r in results if r["pass"] is False]
    for r in results:
        flag = {True: "pass", False: "FAIL", None: "info"}[r["pass"]]
        print(f"[{flag}] {r['name']}: estimate={r['estimate']}")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
