"""Command line entry point: runs experiment pipelines from a config file
and writes CSV/JSON reports.

Exit codes: 0 when no report entry has ``pass: false``, 1 when at least
one does (a package error inside a command becomes a failing
``runtime_error`` entry), 2 for an invalid config or arguments.

Reproducibility contract, checked by ``tests/test_cli.py``: the same
resolved config produces byte-identical CSVs and the same JSON report up
to its ``timestamp`` field, run after run.  ``--threads`` changes no
output: every command runs in one process today, so the value is
validated and then ignored, and every random stream is keyed by a
derived seed rather than by schedule.  The output directory and the
thread count are left out of ``config_hash``.
"""

import argparse
import configparser
import csv
import datetime
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from . import env
from .clocks import SubtreeSpec, independence_check
from .env import (
    EnvSpec,
    check_assumption_a,
    lerrw_negative_moment_cf,
    lerrw_negative_moment_quadrature,
    negative_moment_mc,
)
from .errors import ConfigError, RwreError
from .quenched import geometric_moment_bound, negative_moment_of_beta
from .stats import doubling_stability, fit_geometric_tail
from .walk import StopRule, run_walk, trajectory_to_csv
from . import experiments

COMMANDS = ("simulate", "regen", "clt", "moments", "coupling", "appendix")

_DEFAULTS = {
    "run": {"seed": "7", "out": "rwre-out", "threads": "1"},
    "env": {"b": "4", "kind": "lerrw:1.0"},
    "simulate": {"walks": "5", "n_steps": "2000", "stride": "10"},
    "regen": {"gaps": "2000", "max_level": "1200", "guard": "100",
              "r2_min": "0.98", "agree_tol": "0.05"},
    "clt": {"walks": "500", "n_steps": "4000", "fclt_walks": "500",
            "speed_gaps": "2000", "alpha": "0.01"},
    "moments": {"p": "2.0", "epsilon": "0.3", "n_envs": "300",
                "mc_samples": "200000", "tau_trials": "1000",
                "drift_tol": "0.05"},
    "coupling": {"seeds": "50", "n_steps": "10000",
                 "independence_trials": "2000", "alpha": "0.01"},
    "appendix": {"theta_points": "99", "powers": "0.5,1.0,1.5,2.0"},
}


def _load_config(path: Optional[str], command: str,
                 overrides: Dict[str, Optional[str]]) -> Dict[str, str]:
    """Flat resolved settings: defaults, then file, then CLI overrides."""
    merged: Dict[str, str] = {}
    for section in ("run", "env", command):
        merged.update(_DEFAULTS.get(section, {}))
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ConfigError(
                        f"unknown key '{key}' in section [{section}]")
                if section in ("run", "env") or section == command:
                    merged[key] = value
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)
    return merged


def _as_int(settings: Dict[str, str], key: str, minimum: int) -> int:
    try:
        v = int(settings[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {settings[key]!r}")
    if v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {v}")
    return v


def _as_float(settings: Dict[str, str], key: str) -> float:
    try:
        return float(settings[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {settings[key]!r}")


def _env_from(settings: Dict[str, str]) -> EnvSpec:
    b = _as_int(settings, "b", 1)
    seed = _as_int(settings, "seed", 0)
    try:
        return EnvSpec(b=b, kind=settings["kind"], seed=seed)
    except RwreError as exc:
        raise ConfigError(str(exc))


def _config_hash(settings: Dict[str, str], command: str) -> str:
    """Digest of the result-determining settings; output location and
    worker count cannot change any number in the report."""
    canon = command + "\n" + "\n".join(
        f"{k}={settings[k]}" for k in sorted(settings)
        if k not in ("out", "threads"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


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


def _cmd_simulate(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    walks = _as_int(s, "walks", 1)
    n_steps = _as_int(s, "n_steps", 1)
    stride = _as_int(s, "stride", 1)
    results = []
    for i in range(walks):
        traj = run_walk(spec.subseed(b"sim", i), StopRule(max_steps=n_steps))
        path = os.path.join(out, f"trajectory_{i:03d}.csv")
        with open(path, "w", newline="") as fh:
            trajectory_to_csv(traj, fh, stride=stride)
        results.append(_entry(
            f"walk_{i:03d}", "walk.run_walk",
            estimate=float(traj.levels[-1]), ok=True,
            steps=traj.steps_taken, max_level=traj.max_level_attained,
            csv=os.path.basename(path)))
    return results


def _cmd_regen(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    n_gaps = _as_int(s, "gaps", 16)
    max_level = _as_int(s, "max_level", 3)
    guard = _as_int(s, "guard", 0)
    r2_min = _as_float(s, "r2_min")
    agree_tol = _as_float(s, "agree_tol")
    h = experiments.harvest_gaps(spec, n_gaps, max_level=max_level,
                                 guard=guard)
    with open(os.path.join(out, "gaps.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "level_gap", "time_gap"])
        for i, (lg, tg) in enumerate(zip(h.gaps.level_gaps,
                                         h.gaps.time_gaps)):
            w.writerow([i, int(lg), int(tg)])
    mle, reg = fit_geometric_tail(h.gaps.level_gaps)
    agree = abs(mle.a_hat - reg.a_hat)
    return [
        _entry("gaps_collected", "experiments.harvest_gaps",
               estimate=len(h.gaps), ok=True, walks=h.walks),
        _entry("tail_a_mle", "stats.fit_geometric_tail",
               estimate=mle.a_hat, ok=True),
        _entry("tail_a_regression", "stats.fit_geometric_tail",
               estimate=reg.a_hat, ok=bool(reg.r_squared >= r2_min),
               r_squared=reg.r_squared, k_range=list(reg.k_range)),
        _entry("tail_a_agreement", "stats.fit_geometric_tail",
               estimate=agree, ok=bool(agree <= agree_tol)),
    ]


def _cmd_clt(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    walks = _as_int(s, "walks", 100)
    n_steps = _as_int(s, "n_steps", 10)
    fclt_walks = _as_int(s, "fclt_walks", 0)
    speed_gaps = _as_int(s, "speed_gaps", 16)
    alpha = _as_float(s, "alpha")
    results = []
    sr = experiments.speed_report(spec, n_gaps=speed_gaps)
    e = sr.estimate
    results.append(_entry(
        "speed", "experiments.speed_report", estimate=e.v_hat,
        ci=(e.ci_low, e.ci_high), ok=bool(e.ci_low > 0.0),
        n_gaps=e.n_gaps))
    cr = experiments.clt_report(spec, n_walks=walks, n_steps=n_steps)
    results.append(_entry(
        "clt_normality", "experiments.clt_report",
        estimate=cr.ks.ks_statistic, p_value=cr.ks.p_value,
        ok=bool(cr.ks.p_value >= alpha), v_hat=cr.v_hat,
        sigma_hat=cr.sigma_hat, n=cr.ks.n))
    if fclt_walks > 0:
        name, params = env.parse_descriptor(spec.kind)
        if name == "lerrw" and not env.lerrw_fclt_condition(spec.b, params[0]):
            results.append(_entry(
                "fclt_increments", "experiments.fclt_report",
                ok=True, skipped=True,
                reason="functional scaling condition delta < b/4 fails; "
                       "increment normality is not expected"))
        else:
            fr = experiments.fclt_report(spec, n_walks=fclt_walks,
                                         n_steps=n_steps, alpha=alpha,
                                         gap_target=speed_gaps)
            max_corr = max(abs(c) for c in fr.report.correlations)
            results.append(_entry(
                "fclt_increments", "experiments.fclt_report",
                estimate=max_corr,
                p_value=min(t.p_value for t in fr.report.increment_tests),
                ok=bool(fr.report.passed),
                increment_p_values=[float(t.p_value) for t in
                                    fr.report.increment_tests],
                correlation_limit=fr.report.correlation_limit))
    with open(os.path.join(out, "clt_z.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "z"])
        for i, z in enumerate(cr.z_scores):
            w.writerow([i, f"{z:.10g}"])
    return results


def _cmd_moments(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    p = _as_float(s, "p")
    epsilon = _as_float(s, "epsilon")
    n_envs = _as_int(s, "n_envs", 100)
    mc_samples = _as_int(s, "mc_samples", 100)
    tau_trials = _as_int(s, "tau_trials", 200)
    drift_tol = _as_float(s, "drift_tol")
    results = []
    if spec.kind.startswith("lerrw:"):
        cf = lerrw_negative_moment_cf(spec.b, p)
        if np.isfinite(cf):
            quad = lerrw_negative_moment_quadrature(spec.b, p)
            results.append(_entry(
                "weight_sum_negative_moment_formula",
                "env.lerrw_negative_moment_cf", estimate=cf,
                ok=bool(abs(cf - quad) <= 1e-8), quadrature=quad))
        else:
            results.append(_entry(
                "weight_sum_negative_moment_formula",
                "env.lerrw_negative_moment_cf", estimate=None,
                ok=True, divergent=True))
    mc = negative_moment_mc(spec, p, n_samples=mc_samples)
    results.append(_entry(
        "weight_sum_negative_moment_mc", "env.negative_moment_mc",
        estimate=mc.estimate, ok=bool(not mc.suspect_divergence),
        std_error=mc.std_error, suspect=bool(mc.suspect_divergence)))
    rep = negative_moment_of_beta(spec, p, n_envs=n_envs)
    results.append(_entry(
        "beta_negative_moment", "quenched.negative_moment_of_beta",
        estimate=rep.estimate, ok=bool(not rep.suspect_divergence),
        std_error=rep.std_error, n=rep.n_samples))
    with open(os.path.join(out, "beta.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["env_seed_index", "beta", "depth", "gap"])
        for i, bv in enumerate(rep.betas):
            w.writerow([i, f"{bv.value:.10g}", bv.depth,
                        f"{bv.upper_gap:.4g}"])
    mh = experiments.moment_harvest(spec, trials=tau_trials, epsilon=epsilon)
    for name, samples, power in (
            ("root_visits_cubed", mh.root_visits, 3.0),
            ("first_regen_time_2.5", mh.first_regen_times, 2.5)):
        r = doubling_stability(samples, power, rel_tol=drift_tol)
        results.append(_entry(
            name, "stats.doubling_stability", estimate=r.estimate,
            ok=bool(r.passed), drift=r.drift, n=r.n_samples))
    results.append(_entry(
        "epsilon", "config", estimate=epsilon, ok=True))
    return results


def _cmd_coupling(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    seeds = _as_int(s, "seeds", 1)
    n_steps = _as_int(s, "n_steps", 10)
    trials = _as_int(s, "independence_trials", 100)
    alpha = _as_float(s, "alpha")
    if spec.b < 2:
        raise ConfigError("coupling checks need at least two children")
    cr = experiments.coupling_suite(spec, seeds=seeds, n_steps=n_steps)
    ir = independence_check(spec, SubtreeSpec.lambda_subtree((1,)),
                            SubtreeSpec.lambda_subtree((2,)), trials=trials)
    with open(os.path.join(out, "independence_table.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"digit_{j + 1}" for j in range(spec.b)])
        for row in ir.table:
            w.writerow([int(x) for x in row])
    return [
        _entry("whole_tree_identity", "experiments.coupling_suite",
               estimate=cr.full_matches, ok=bool(cr.full_matches == seeds),
               seeds=seeds),
        _entry("restriction_identity", "experiments.coupling_suite",
               estimate=cr.restriction_matches,
               ok=bool(cr.restriction_matches == seeds),
               compared_entries=cr.restriction_compared,
               nonempty=cr.nonempty_restrictions),
        _entry("disjoint_independence", "clocks.independence_check",
               estimate=ir.statistic, p_value=ir.p_value,
               ok=bool(ir.p_value >= alpha), dof=ir.dof, trials=trials),
    ]


def _cmd_appendix(spec: EnvSpec, s: Dict[str, str], out: str) -> List[dict]:
    points = _as_int(s, "theta_points", 2)
    try:
        powers = [float(x) for x in s["powers"].split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"powers must be a comma list, got {s['powers']!r}")
    if not powers:
        raise ConfigError("powers must be non-empty")
    thetas = np.linspace(0.01, 0.99, points)
    results = []
    with open(os.path.join(out, "appendix_grid.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "p", "exact", "bound", "ok"])
        for p in powers:
            worst = np.inf
            all_ok = True
            for theta in thetas:
                exact, bound = geometric_moment_bound(float(theta), p)
                ok = exact <= bound
                all_ok = all_ok and ok
                worst = min(worst, bound - exact)
                w.writerow([f"{theta:.10g}", p, f"{exact:.10g}",
                            f"{bound:.10g}", int(ok)])
            results.append(_entry(
                f"bound_holds_p_{p:g}", "quenched.geometric_moment_bound",
                estimate=worst, ok=bool(all_ok), points=points))
    return results


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
        settings = _load_config(args.config, args.command, {
            "seed": args.seed, "threads": args.threads, "out": args.out})
        threads = _as_int(settings, "threads", 1)
        spec = _env_from(settings)
        if args.command == "clt":
            gate = check_assumption_a(spec)
            if not gate.passed:
                raise ConfigError(
                    "environment fails the transience criterion "
                    f"(inf_t E[A^t] = {gate.estimate:.4f} <= "
                    f"{gate.threshold:.4f}); refusing to run")
        out = settings["out"]
        os.makedirs(out, exist_ok=True)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    del threads  # derivation keys make any schedule produce the same output
    runner = {
        "simulate": _cmd_simulate,
        "regen": _cmd_regen,
        "clt": _cmd_clt,
        "moments": _cmd_moments,
        "coupling": _cmd_coupling,
        "appendix": _cmd_appendix,
    }[args.command]
    try:
        results = runner(spec, settings, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RwreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        results = [_entry("runtime_error", type(exc).__name__, ok=False,
                          message=str(exc))]
    report = {
        "command": args.command,
        "config_hash": _config_hash(settings, args.command),
        "seed": int(settings["seed"]),
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
