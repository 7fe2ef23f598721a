"""Smoke and reproducibility tests of every ``rwre`` command.

Each command runs at a reduced config, twice with the default worker
count and once with ``--threads 2``.  The three output sets must agree
byte for byte (the JSON report up to its timestamp), and their sha256 is
pinned, so a refactor that changes any reported number or CSV row fails
here.
"""

import hashlib
import json
import os

import pytest

from rwre import cli

REPORT_KEYS = {"command", "config_hash", "seed", "version", "timestamp",
               "results"}
ENTRY_KEYS = {"name", "operation", "estimate", "ci", "p_value", "pass",
              "detail"}

# lerrw:0.5 at b=4 meets delta < b/4, so clt computes its FCLT entry.
CONFIGS = {
    "simulate": {"simulate": {"walks": 2, "n_steps": 200, "stride": 10}},
    "regen": {"regen": {"gaps": 1000}},
    "clt": {"env": {"kind": "lerrw:0.5"},
            "clt": {"walks": 100, "n_steps": 100, "fclt_walks": 500,
                    "speed_gaps": 200}},
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
        "c14ae97ce906cb0d8155918f30de56d7f558304f82ab2f875f23475d4a9ea7f8",
    "moments":
        "b24a9e9dbfc0e4c293bf60c7dd052d5b89d03b5f4a346d86afc2515b9a4a177b",
    "coupling":
        "f19580bc067fb976e6eae3dcf551665085f4f0374a97250f8f6726f361a6f47f",
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
    # the entry is computed, not skipped; at this harvest size its p-value
    # is far below alpha (see experiments.fclt_report), so no pass is asserted
    _, report, _ = three_runs("clt")[0]
    entry = {e["name"]: e for e in report["results"]}["fclt_increments"]
    assert "skipped" not in entry["detail"]
    assert len(entry["detail"]["increment_p_values"]) == 3


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
    assert rc == (1 if any(e["pass"] is False for e in entries.values()) else 0)
