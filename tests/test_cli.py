"""Smoke and reproducibility tests of every ``rwre`` command.

Each command runs at a reduced config, twice with the default worker
count and once with ``--threads 2`` (on two or more CPUs, coupling and
moments then fork a worker).  The three output sets must agree byte for
byte (the JSON report up to its timestamp), and their sha256 is pinned,
so a refactor that changes any reported number or CSV row fails here.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

from rwre import cli
from rwre.env import lerrw_negative_moment_cf

REPORT_KEYS = {"command", "config_hash", "seed", "version", "timestamp",
               "results"}
ENTRY_KEYS = {"name", "operation", "estimate", "ci", "p_value", "pass",
              "detail"}

# lerrw:0.5 at b=4 meets delta < b/4, so clt computes its FCLT entry.
CONFIGS = {
    "simulate": {"simulate": {"walks": 2, "n_steps": 200, "stride": 10}},
    "regen": {"regen": {"gaps": 1000}},
    "clt": {"env": {"kind": "lerrw:0.5"},
            "clt": {"walks": 500, "n_steps": 100, "speed_gaps": 200}},
    "moments": {"moments": {"p": 1.5, "n_envs": 100, "mc_samples": 2000,
                            "tau_trials": 200}},
    "coupling": {"coupling": {"seeds": 2, "n_steps": 300,
                              "independence_trials": 200}},
    "appendix": {"appendix": {"theta_points": 9}},
}

# sha256 of each command's outputs at seed 7, timestamp dropped.
PINNED = {
    "simulate":
        "5e460522e7e22a6ba5d8eecab8ec53812cbb5dc93f7aef9e59735da6e6b144db",
    "regen":
        "1d9eb6676ab438a04a2c97eeff5cfe06ca25325552e49fb90cfce97c64fc8cea",
    "clt":
        "a6a7463264bb8420ac70e08d5afb52b36af64cf453ed2411ed965284e6a10369",
    "moments":
        "c631ba902032457fc2cb6e1128892725e9f32d2d9afed8794062d8681e85415d",
    "coupling":
        "e1619dcb78aaf16c982b433090c658cd85a5f4bbea62c14a608a30ace18c5402",
    "appendix":
        "d22c3f6c30da0f7c660006a51a7513f8a253c346e60acfdd3fc26df2651e1b11",
}


def _write_config(path, sections) -> None:
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")


def _run(tmp_path, command, sections, *extra):
    cfg = tmp_path / f"{command}.ini"
    _write_config(cfg, sections)
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    with open(out / f"{command}_report.json") as fh:
        report = json.load(fh)
    return rc, report, out


def _outputs(out) -> dict:
    """Every output file's bytes; the report's timestamp is dropped."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(out / name, "rb") as fh:
            body = fh.read()
        if name.endswith(".json"):
            report = json.loads(body)
            report.pop("timestamp")
            body = json.dumps(report, sort_keys=True).encode()
        files[name] = body
    return files


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, body in files.items():
        h.update(name.encode() + b"\0" + body + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def three_runs(tmp_path_factory):
    """Two default runs and one ``--threads 2`` run per command, made once."""
    made = {}

    def get(command):
        if command not in made:
            tmp = tmp_path_factory.mktemp(command)
            made[command] = [_run(tmp, command, CONFIGS[command]),
                             _run(tmp, command, CONFIGS[command]),
                             _run(tmp, command, CONFIGS[command],
                                  "--threads", "2")]
        return made[command]

    return get


@pytest.fixture(params=sorted(CONFIGS))
def runs(request, three_runs):
    return request.param, three_runs(request.param)


def test_report_schema(runs):
    command, got = runs
    for _, report, _ in got:
        assert set(report) == REPORT_KEYS
        assert report["command"] == command
        assert report["seed"] == 7
        assert report["results"]
        for entry in report["results"]:
            assert set(entry) == ENTRY_KEYS
            assert entry["pass"] in (True, False, None)
            assert entry["name"] != "runtime_error", entry["detail"]


def test_exit_code_follows_pass_flags(runs):
    _, got = runs
    for rc, report, _ in got:
        failed = any(e["pass"] is False for e in report["results"])
        assert rc == (1 if failed else 0)


def test_outputs_reproducible_and_thread_invariant(runs):
    _, got = runs
    first, again, threaded = (_outputs(out) for _, _, out in got)
    assert again == first
    assert threaded == first


def test_outputs_match_pinned_digest(runs):
    command, got = runs
    assert _digest(_outputs(got[0][2])) == PINNED[command]


def test_clt_smoke_config_runs_the_fclt(three_runs):
    # the entry is computed on the CLT's 500 test walks, not skipped; at
    # this harvest size its p-value is far below alpha (see the harvest
    # sizing note in cli._cmd_clt), so no pass is asserted
    _, report, _ = three_runs("clt")[0]
    entry = {e["name"]: e for e in report["results"]}["fclt_increments"]
    assert "skipped" not in entry["detail"]
    assert len(entry["detail"]["increment_p_values"]) == 3


def test_clt_skips_the_fclt_below_500_walks(tmp_path):
    _, report, _ = _run(tmp_path, "clt", {
        "env": {"kind": "lerrw:0.5"},
        "clt": {"walks": 100, "n_steps": 100, "speed_gaps": 200}})
    entry = {e["name"]: e for e in report["results"]}["fclt_increments"]
    assert entry["pass"] is True
    assert entry["detail"] == {
        "skipped": True, "reason": "the increment tests need at least 500 walks"}


def test_operation_labels_name_live_functions():
    # every literal label but "config" is module.function in the package
    tree = ast.parse(Path(cli.__file__).read_text())
    labels = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_entry":
            arg = (node.args[1] if len(node.args) > 1 else
                   next(k.value for k in node.keywords if k.arg == "operation"))
            if isinstance(arg, ast.Constant) and arg.value != "config":
                labels.add(arg.value)
    assert len(labels) >= 10
    dead = []
    for label in sorted(labels):
        module, _, name = label.partition(".")
        fn = getattr(importlib.import_module(f"rwre.{module}"), name, None)
        if not (isinstance(fn, FunctionType)
                and fn.__module__ == f"rwre.{module}"):
            dead.append(label)
    assert not dead, f"operation labels that name no package function: {dead}"


def _modules_after(tmp_path, command, sections, roots, *extra):
    """Exit code and the loaded modules under the top-level names ``roots``
    after one run in a fresh interpreter whose CPU set reads as two, as
    under ``two_cpus``, so that ``--threads 2`` forks on any host."""
    cfg = tmp_path / f"{command}.ini"
    _write_config(cfg, sections)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"),
            *extra]
    code = ("import os, sys, rwre.cli, rwre.quenched; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            f"rc = rwre.cli.main({argv!r}); "
            f"print(rc, [m for m in sys.modules if m.split('.')[0] in {roots!r}])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    rc, modules = got.stdout.strip().splitlines()[-1].split(" ", 1)
    return int(rc), ast.literal_eval(modules)


TINY_CLT = {"env": {"kind": "const:1.0"},
            "clt": {"walks": 100, "n_steps": 20, "speed_gaps": 16}}


def test_entry_modules_load_without_scipy(tmp_path):
    # Only the chi-square test (scipy.special) and the quadrature
    # (scipy.integrate) need scipy, and each imports it when called; the
    # coupling and moments digests above pin what those calls return.  A
    # tiny clt run must load none of it: scipy.special alone adds about
    # 26 MB of resident memory.
    assert _modules_after(tmp_path, "clt", TINY_CLT, ("scipy",)) == (0, [])


def test_clt_loads_no_process_pool(tmp_path):
    # clt runs in one process at any --threads, so it must not pay for
    # importing multiprocessing or concurrent.futures at start-up.
    assert _modules_after(tmp_path, "clt", TINY_CLT,
                          ("multiprocessing", "concurrent"),
                          "--threads", "2") == (0, [])


def test_coupling_forks_without_a_process_pool(tmp_path):
    # keyed_map forks its worker directly.  scipy.special loads
    # concurrent.futures._base itself, so only the pool's own modules are
    # named here.
    rc, modules = _modules_after(tmp_path, "coupling", {
        "env": {"kind": "lerrw:0.5"},
        "coupling": {"seeds": 2, "n_steps": 200,
                     "independence_trials": 100}},
        ("multiprocessing", "concurrent"), "--threads", "2")
    assert rc == 0
    assert not [m for m in modules if m.startswith("multiprocessing")]
    assert "concurrent.futures.process" not in modules


def test_threads_reach_the_three_keyed_loops(tmp_path, monkeypatch, two_cpus):
    # coupling hands --threads to its suite and its independence trials,
    # moments to its harvest
    from rwre import streams

    seen = []
    chunks = streams._chunks

    def spy(n, threads):
        seen.append((n, threads))
        return chunks(n, threads)

    monkeypatch.setattr(streams, "_chunks", spy)
    for command in ("coupling", "moments"):
        _run(tmp_path, command, CONFIGS[command], "--threads", "2")
    assert seen == [(2, 2), (200, 2), (200, 2)]


def test_coupling_loads_no_scipy_stats(tmp_path):
    # The chi-square tail comes from scipy.special.  scipy.stats would
    # almost double the command's peak memory for the same p-value.
    rc, modules = _modules_after(tmp_path, "coupling", {
        "env": {"kind": "lerrw:0.5"},
        "coupling": {"seeds": 1, "n_steps": 200,
                     "independence_trials": 100}}, ("scipy",))
    assert rc == 0
    assert "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.stats")]


def test_moments_at_default_law_and_power(tmp_path):
    # b=4, lerrw:1.0, p=2 sits on the boundary p = b/(2 delta): the weight
    # sum's negative moment is infinite, and the command must say so
    rc, report, _ = _run(tmp_path, "moments", {
        "moments": {"n_envs": 100, "mc_samples": 2000, "tau_trials": 200}})
    entries = {e["name"]: e for e in report["results"]}
    assert "runtime_error" not in entries
    formula = entries["weight_sum_negative_moment_formula"]
    assert formula["detail"] == {"divergent": True}
    assert formula["estimate"] is None
    # so do the Monte Carlo and beta entries, from the closed form
    for name in ("weight_sum_negative_moment_mc", "beta_negative_moment"):
        assert entries[name]["detail"] == {"divergent": True,
                                           "tail_index": 2.0}
        assert entries[name]["pass"] is True
    assert rc == (1 if any(e["pass"] is False for e in entries.values()) else 0)


@pytest.mark.parametrize("kind, b, p", [
    ("lerrw:1.0", 4, 2.5), ("lerrw:0.5", 3, 3.0), ("lerrw:0.5", 2, 2.0),
    ("gamma:0.5,2", 3, 1.5), ("uniform:0,2", 2, 2.0)])
def test_moments_past_the_closed_form_index_are_never_finite(tmp_path, kind,
                                                              b, p):
    # beta <= sum A/(1 + sum A), so E[beta^-p] is infinite wherever
    # E[(sum A)^-p] is, and no sampled estimate may say otherwise
    _, report, _ = _run(tmp_path, "moments", {
        "env": {"b": b, "kind": kind},
        "moments": {"p": p, "n_envs": 100, "mc_samples": 100,
                    "tau_trials": 200}})
    entries = {e["name"]: e for e in report["results"]}
    for name in ("weight_sum_negative_moment_mc", "beta_negative_moment"):
        assert entries[name]["estimate"] is None
        assert entries[name]["detail"]["divergent"] is True


def test_moments_formula_uses_the_law_delta(tmp_path):
    # lerrw:0.5 at b=4: E[(sum A)^-1.5] = 0.5, not the delta = 1 value 2.356
    _, report, _ = _run(tmp_path, "moments", {
        "env": {"kind": "lerrw:0.5"},
        "moments": {"p": 1.5, "n_envs": 100, "mc_samples": 2000,
                    "tau_trials": 200}})
    entries = {e["name"]: e for e in report["results"]}
    formula = entries["weight_sum_negative_moment_formula"]
    mc = entries["weight_sum_negative_moment_mc"]
    assert formula["estimate"] == lerrw_negative_moment_cf(4, 1.5, 0.5)
    assert formula["pass"] is True
    assert abs(formula["estimate"] - mc["estimate"]) <= 4 * mc["detail"]["std_error"]
    # p = 1.5 is far below the index 4, and the tail check agrees
    assert mc["pass"] is True


@pytest.mark.parametrize("command, sections", [
    ("simulate", {"run": {"seed": 2 ** 64}}),
    ("regen", {"regen": {"max_level": 200, "guard": 100}}),
    ("regen", {"regen": {"gaps": 999}}),
    ("clt", {"clt": {"fclt_walks": 499}}),
    ("clt", {"clt": {"walks": 99}}),
    ("appendix", {"appendix": {"powers": "1.0,0"}}),
    ("moments", {"moments": {"p": 0}}),
    ("moments", {"moments": {"epsilon": 0.34}}),
    ("moments", {"moments": {"drift_tol": 0.05}}),
    ("coupling", {"coupling": {"alpha": "nan"}}),
    ("appendix", {"appendix": {"powers": "1.0,inf"}}),
    ("clt", {"clt": {"alpha": 0}}),
    ("coupling", {"coupling": {"alpha": 1.5}}),
    ("coupling", {"run": {"threads": 0}}),
], ids=["seed", "max_level", "gaps", "unknown_key", "walks", "powers", "p",
        "epsilon", "drift_tol", "alpha_nan", "powers_inf", "alpha_zero",
        "alpha_above_one", "threads"])
def test_invalid_config_exits_2_before_any_output(tmp_path, command,
                                                  sections):
    cfg = tmp_path / f"{command}.ini"
    _write_config(cfg, sections)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)
