"""Command-line interface: verbs, config schema, artifacts, exit codes."""

import copy
import csv
import dataclasses
import importlib.util
import json
import math
import os
import random
import reprlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wormsim import cli
from wormsim.cli import (
    ConfigError,
    apply_override,
    load_config,
    main,
    parse_virulence,
    resolve_scenario,
)
from wormsim.core import Trajectory, TrajectorySource, itu_to_wallclock
from wormsim.fluid import fixed_validity_window
from wormsim.metrics import trajectory_extinction, trajectory_spread_time
from wormsim.scenarios import builtin_names, builtin_scenario
from wormsim.stochastic import simulate

ROOT = Path(__file__).resolve().parents[1]


# --- virulence parsing --------------------------------------------------


@pytest.mark.parametrize(
    "text,value,unit",
    [
        ("1.8/hour", 1.8, "hour"),
        ("1.5/minute", 1.5, "minute"),
        ("0.25 / day", 0.25, "day"),
        ("3/second", 3.0, "second"),
    ],
)
def test_parse_virulence_accepts_units(text, value, unit):
    assert parse_virulence(text) == (value, unit)


@pytest.mark.parametrize(
    "text", ["1.8", 1.8, "fast/hour", "1.8/fortnight", "-2/hour", "0/hour"]
)
def test_parse_virulence_rejects(text):
    with pytest.raises(ConfigError):
        parse_virulence(text)


# --- config resolution --------------------------------------------------


def _nopatch_config(**extra):
    config = {
        "name": "toy",
        "params": {
            "n_hosts": 10000,
            "virulence": "1.8/hour",
            "i0": 10,
            "defense": "no_patching",
        },
        "engines": ["closed_form"],
        "integrator": {"t_end_itu": 12.0},
    }
    config.update(extra)
    return config


def test_resolve_scenario_defaults():
    scn = resolve_scenario(_nopatch_config())
    assert scn.params.n_hosts == 10000
    assert scn.time_unit == "hour"
    assert scn.engines == ("closed_form",)
    assert scn.integrator.dt_itu == 0.001
    assert scn.extinction_threshold == 1.0
    assert scn.compare_tolerance == 0.10


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda c: c.update(bogus=1), "unknown key 'bogus'"),
        (lambda c: c["params"].update(extra=2), "unknown key 'extra'"),
        (lambda c: c["params"].pop("defense"), "params.defense is required"),
        # An unknown name is reported as "must be one of ..."; the ids name the
        # fault each of these two cases makes.
        pytest.param(
            lambda c: c["params"].update(defense="carrier_pigeon"),
            "params.defense must be one of",
            id="<lambda>-unknown defense",
        ),
        (lambda c: c.update(engines=[]), "engines"),
        pytest.param(
            lambda c: c.update(engines=["warp"]),
            "engines\\[0\\] must be one of",
            id="<lambda>-unknown engine",
        ),
        (lambda c: c["integrator"].update(dt_itu=0.5), "integrator"),
        (lambda c: c.update(kappa=[1.5]), "kappa"),
        (lambda c: c.update(extinction_threshold=-1.0), "extinction_threshold"),
        (lambda c: c.update(compare_tolerance=0.0), "compare_tolerance"),
        (lambda c: c["params"].update(i0=20000), "params"),
        (
            lambda c: c["params"].update(defense="fixed_servers", gamma=1.0, p_bar=5000),
            "n_hosts > 2 \\* p_bar",
        ),
    ],
)
def test_resolve_scenario_rejects(mutate, fragment):
    config = _nopatch_config()
    mutate(config)
    with pytest.raises(ConfigError, match=fragment):
        resolve_scenario(config)


def test_kappa_requires_no_patching():
    config = _nopatch_config(kappa=[0.5])
    config["params"]["defense"] = "peer_to_peer"
    config["params"]["gamma"] = 2.0
    config["params"]["p_bar"] = 10
    with pytest.raises(ConfigError, match="no_patching"):
        resolve_scenario(config)


def test_monitors_requires_no_patching():
    config = _nopatch_config(monitors={"deadline_itu": 2.0})
    config["params"]["defense"] = "fixed_servers"
    config["params"]["gamma"] = 2.0
    config["params"]["p_bar"] = 10
    with pytest.raises(ConfigError, match="no_patching"):
        resolve_scenario(config)


def test_builtin_configs_all_resolve():
    for name in builtin_names():
        scn = resolve_scenario(load_config(name))
        assert scn.name == name


def test_builtin_scenario_rejects_unknown_name():
    with pytest.raises(KeyError, match="no-such-scenario"):
        builtin_scenario("no-such-scenario")


def test_apply_override_parses_scalars():
    config = _nopatch_config()
    apply_override(config, "params.i0=99")
    apply_override(config, "integrator.dt_itu=0.002")
    apply_override(config, "engines=[closed_form, integrate]")
    apply_override(config, "stochastic.seed=5")
    assert config["params"]["i0"] == 99
    assert config["integrator"]["dt_itu"] == 0.002
    assert config["engines"] == ["closed_form", "integrate"]
    assert config["stochastic"] == {"seed": 5}


def test_apply_override_last_wins():
    config = _nopatch_config()
    apply_override(config, "params.i0=5")
    apply_override(config, "params.i0=7")
    assert config["params"]["i0"] == 7


def test_apply_override_rejects_malformed():
    with pytest.raises(ConfigError):
        apply_override(_nopatch_config(), "no_equals_sign")
    with pytest.raises(ConfigError):
        apply_override(_nopatch_config(), "params.n_hosts.deeper=1")


def test_yaml_1_2_floats_parse(tmp_path):
    # Neither a dot nor a signed exponent is needed, in --set or in a file.
    config = _nopatch_config()
    apply_override(config, "integrator.dt_itu=1e-3")
    apply_override(config, "params.gamma=1e300")
    assert config["integrator"]["dt_itu"] == 0.001
    assert config["params"]["gamma"] == 1e300
    path = tmp_path / "floats.yaml"
    path.write_text("integrator: {dt_itu: 1e-3, t_end_itu: 2E1}\n")
    assert load_config(str(path))["integrator"] == {"dt_itu": 0.001, "t_end_itu": 20.0}


# --- list-scenarios -----------------------------------------------------


def test_list_scenarios_prints_all(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out


# --- compare ------------------------------------------------------------


def test_compare_within_tolerance(capsys):
    assert main(["compare", "--config", "codered-nopatch"]) == 0
    out = capsys.readouterr().out
    assert "spread_time_itu(kappa=0.5)" in out
    assert "OK" in out


def test_compare_tight_tolerance_fails(capsys):
    code = main(
        ["compare", "--config", "codered-p2p-g1", "--set", "compare_tolerance=0.01"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_marks_subcritical_peak_na(capsys):
    assert main(["compare", "--config", "codered-p2p-g1"]) == 0
    assert "n/a (gamma <= 1)" in capsys.readouterr().out


def test_closed_form_grid_ends_at_fixed_validity_window(capsys):
    # t_hi / dt lies just below a whole number, so the grid's floor slack
    # steps past the window, where closed_form_fixed raises.
    sets = ["params.n_hosts=1000", "params.p_bar=1", "params.gamma=99.80000000499",
            "params.i0=1", "integrator.dt_itu=0.01", "integrator.sample_stride=100"]
    config = load_config("codered-fixed")
    for assignment in sets:
        apply_override(config, assignment)
    scn = resolve_scenario(config)
    traj, _extras = cli.run_engine(scn, "closed_form")
    assert traj.t_itu[-1] == fixed_validity_window(scn.params)
    argv = ["compare", "--config", "codered-fixed", "--engines", "closed_form"]
    assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_unknown_scenario_is_config_error(capsys):
    assert main(["compare", "--config", "no-such-scenario"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_error_exit_codes():
    assert main(["compare", "--config", "codered-nopatch", "--set", "bogus=1"]) == 2
    assert (
        main(["compare", "--config", "codered-fixed", "--engines", "warp"]) == 2
    )


def _diverging_integrate(params, config):
    raise RuntimeError("integration diverged")


def _negative_integrate(params, config):
    n = float(params.n_hosts)
    return Trajectory(
        t_itu=np.array([0.0, 1.0]), s=np.array([n - 1.0, n + 1.0]),
        i=np.array([1.0, -1.0]), p=np.zeros(2), params=params,
        source=TrajectorySource.INTEGRATED,
    )


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # One fake engine raises; the other returns a negative compartment,
    # which run_engine's validate_trajectory check must catch.
    for fake, message in (
        (_diverging_integrate, "diverged"),
        (_negative_integrate, "negative compartment"),
    ):
        monkeypatch.setattr(cli, "integrate", fake)
        code = main(["compare", "--config", "codered-nopatch", "--engines", "integrate"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and message in err


def test_numerical_failure_writes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "X"
    code = main(["run", "--config", "codered-p2p-g2", "--set", "params.gamma=1.0e+300",
                 "--engines", "integrate", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_non_finite_report_value_writes_nothing(tmp_path, capsys):
    # expected_scans_at_deadline overflows to inf, which JSON cannot hold.
    out = tmp_path / "X"
    code = main(["run", "--config", "monitoring-slammer", "--set",
                 "monitors.deadline_itu=1e308", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: report.json: ") and err.count("\n") == 1


def test_non_finite_time_leaf_writes_nothing(tmp_path, capsys, monkeypatch):
    # A NaN halt, the report's only non-finite value, sits in a time leaf that
    # the json.dumps hook renders: allow_nan=False holds for the leaf too.
    integrate = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda params, config: dataclasses.replace(
        integrate(params, config), halt_itu=math.nan))
    out = tmp_path / "X"
    assert main(["run", "--config", "codered-fixed", "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: report.json: ") and err.count("\n") == 1


def test_non_finite_report_value_prints_one_line(tmp_path):
    # In a fresh interpreter, so that numpy's overflow warning, which pytest
    # would catch, reaches stderr if it is raised: run and compare, which
    # build the same report, each print only the one-line message.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sets = ["--config", "monitoring-slammer", "--set", "monitors.deadline_itu=1e308"]
    for verb, code, lines in ((["run", "--out", str(tmp_path / "X")], 3, 1),
                              (["compare"], 3, 1)):
        proc = subprocess.run([sys.executable, "-m", "wormsim.cli"] + verb + sets, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr.count("\n")) == (code, lines), proc.stderr


_TOO_BIG = "1" + "0" * 400  # an integer too large for a float, as YAML reads it


@pytest.mark.parametrize("argv,message", [
    (["--config", "codered-nopatch", "--set", f"params.p_bar={_TOO_BIG}"],
     "params.p_bar must be an integer"),
    (["--config", "monitoring-slammer", "--set", f"params.n_hosts={_TOO_BIG}"],
     "params.n_hosts must be an integer"),
    (["--config", "codered-p2p-g2", "--engines", "closed_form",
      "--set", f"params.n_hosts={_TOO_BIG}"], "params.n_hosts must be an integer"),
    (["--config", "codered-nopatch-desk", "--engines", "stochastic",
      "--set", f"stochastic.seed={_TOO_BIG}"], "stochastic.seed must be an integer"),
    (["--config", "codered-nopatch-desk", "--engines", "stochastic",
      "--set", f"stochastic.seed={2**128 - 1}", "--set", "stochastic.runs=2"],
     "stochastic: seed + runs must be at most 2**128"),
])
def test_integer_out_of_range_is_one_line_config_error(argv, message, capsys):
    assert main(["compare"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


def test_last_philox_key_runs(capsys):
    assert main(["compare", "--config", "codered-nopatch-desk", "--engines", "stochastic",
                 "--set", f"stochastic.seed={2**128 - 1}", "--set", "stochastic.runs=1"]) == 0


# (case id, config, --set assignments, compare's exit code, the quantity whose
# analytic value is 0): such a quantity gets no relative error, as one with
# no predictor does, and its value and measurements are still reported.
ZERO_PREDICTIONS = [
    ("spread-time", "codered-nopatch", ["params.n_hosts=50", "kappa=0.5"], 0,
     "spread_time_itu(kappa=0.5)"),
    ("spread-time-two-hosts", "codered-nopatch", ["params.n_hosts=2", "params.i0=1"], 0,
     "spread_time_itu(kappa=0.5)"),
    ("fixed-peak-time", "codered-fixed",
     ["params.n_hosts=100", "params.p_bar=10", "params.i0=10", "params.gamma=100"], 1,
     "peak_time_itu"),
    ("p2p-peak-time", "codered-p2p-g2",
     ["params.n_hosts=1000", "params.p_bar=500", "params.i0=10"], 1, "peak_time_itu"),
]


@pytest.mark.parametrize("config,sets,code,quantity", [v[1:] for v in ZERO_PREDICTIONS],
                         ids=[v[0] for v in ZERO_PREDICTIONS])
def test_zero_prediction_has_no_relative_error(config, sets, code, quantity, tmp_path, capsys):
    argv = ["--config", config] + [arg for item in sets for arg in ("--set", item)]
    assert main(["compare"] + argv) == code
    row = [line for line in capsys.readouterr().out.splitlines() if line.startswith(quantity)]
    assert len(row) == 1 and row[0].split()[1] == "0" and "%" not in row[0]
    assert main(["run", "--out", str(tmp_path / "out")] + argv) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(quantity not in errors for errors in report["relative_errors"].values())


# --- run artifacts ------------------------------------------------------


def test_run_writes_csv_and_report(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "run",
            "--config",
            "codered-nopatch-desk",
            "--out",
            str(out),
            "--set",
            "stochastic.runs=3",
        ]
    )
    assert code == 0
    for engine in ("closed_form", "integrate", "stochastic"):
        csv_path = out / f"codered-nopatch-desk_{engine}.csv"
        assert csv_path.exists()
    with open(out / "codered-nopatch-desk_closed_form.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_itu", "t_wallclock", "S", "I", "P"]
    t_itu, t_wall = float(rows[2][0]), float(rows[2][1])
    assert t_wall == pytest.approx(t_itu / 1.8)
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "codered-nopatch-desk"
    assert report["time_unit"] == "hour"
    assert "0.5" in report["analytic"]["spread_time"]
    assert report["engines"]["stochastic"]["stochastic"]["runs"] == 3
    assert report["tolerance"]["within_tolerance"] is True


def test_run_reports_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert (
            main(
                [
                    "run",
                    "--config",
                    "codered-nopatch-desk",
                    "--out",
                    str(out),
                    "--set",
                    "stochastic.runs=3",
                ]
            )
            == 0
        )
        outs.append(out)
    for name in [p.name for p in outs[0].iterdir()]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_with_yaml_file_and_overrides(tmp_path, capsys):
    scenario = tmp_path / "custom.yaml"
    scenario.write_text(
        "params:\n"
        "  n_hosts: 50000\n"
        "  virulence: 2.4/hour\n"
        "  i0: 5\n"
        "  defense: peer_to_peer\n"
        "  gamma: 2.0\n"
        "  p_bar: 20\n"
        "engines: [closed_form]\n"
        "integrator: {t_end_itu: 10.0}\n"
        "extinction_threshold: 0.5\n"
    )
    out = tmp_path / "results"
    code = main(
        ["run", "--config", str(scenario), "--out", str(out), "--set", "params.gamma=3.0"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "custom"
    assert report["params"]["gamma"] == 3.0
    assert (out / "custom_closed_form.csv").exists()


def test_run_monitoring_report(tmp_path):
    out = tmp_path / "mon"
    assert main(["run", "--config", "monitoring-slammer", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    mon = report["monitoring"]
    assert mon["required_monitors"] == 8297
    assert mon["thumb_rule_monitors"]["fixed_servers"] == 7489
    assert mon["expected_scans_at_deadline"] == pytest.approx(0.9027, abs=1e-4)



@pytest.mark.parametrize(
    "overrides,message",
    [
        (
            ["monitors.deadline_itu=0.000001"],
            "monitors: deadline 1e-06 ITU needs 84999957596 monitors, "
            "more than the population of 85000",
        ),
        (
            ["params.n_hosts=2", "monitors.count=1"],
            "monitors: n_hosts must be an integer >= 3",
        ),
    ],
    ids=["deadline-too-early", "population-too-small"],
)
def test_monitor_faults_are_config_errors(overrides, message, tmp_path, capsys):
    # Both verbs exit 2 before any engine runs, so run writes no file.
    sets = [arg for assignment in overrides for arg in ("--set", assignment)]
    out = tmp_path / "mon"
    for verb in (["run", "--out", str(out)], ["compare"]):
        assert main(verb + ["--config", "monitoring-slammer"] + sets) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--config", "codered-p2p-g2", "--engines", "integrate",
     "--set", "integrator.t_end_itu=1e12"],
    ["--config", "codered-nopatch-desk", "--engines", "stochastic",
     "--set", "stochastic.sample_dt_itu=1e-12"],
    ["--config", "codered-p2p-g2-desk", "--engines", "stochastic",
     "--set", "stochastic.runs=1000000000"],
    ["--config", "codered-fixed", "--engines", "closed_form",
     "--set", "integrator.sample_stride=1", "--set", "integrator.dt_itu=1e-13"],
    ["--config", "monitoring-slammer", "--set", "monitors.deadline_itu=1e-17"],
    ["--config", "codered-nopatch-desk", "--engines", "stochastic",
     "--set", "params.n_hosts=10000000000000", "--set", "stochastic.runs=1"],
    ["--config", "codered-p2p-g2-desk", "--engines", "stochastic",
     "--set", "params.n_hosts=1000000000"],
    ["--config", "codered-p2p-g2", "--engines", "closed_form", "--set", "params.gamma=1e308"],
], ids=["integrate-samples", "stochastic-grid", "stochastic-runs", "closed-form-grid",
        "deadline-scans-round-to-zero", "stochastic-holding-times", "stochastic-host-counts",
        "patch-rate-infinite"])
def test_oversized_or_hopeless_requests_exit_2(argv, monkeypatch, tmp_path, capsys):
    # Refused before any engine runs, so nothing is allocated or written.
    monkeypatch.setattr(cli, "run_engine", lambda *_args: pytest.fail("an engine ran"))
    out = tmp_path / "X"
    for verb in (["run", "--out", str(out)], ["compare"]):
        assert main(verb + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "seeded"
    code = main(
        [
            "run",
            "--config",
            "codered-nopatch-desk",
            "--out",
            str(out),
            "--engines",
            "stochastic",
            "--seed",
            "7",
            "--set",
            "stochastic.runs=2",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["engines"]["stochastic"]["stochastic"]["seed"] == 7


# --- pinned outputs -----------------------------------------------------

COMPARE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "compare_builtins.json")


def _compare_argv(name):
    # 3 stochastic runs instead of the desk built-ins' 50 keep this fast.
    extra = ["--set", "stochastic.runs=3"] if name.endswith("-desk") else []
    return ["compare", "--config", name] + extra


@pytest.mark.parametrize("name", builtin_names())
def test_compare_output_is_pinned(name, capsys):
    # The golden file maps each built-in to {"exit": code, "stdout": text}
    # of main(_compare_argv(name)); re-pin it only for a deliberate change.
    with open(COMPARE_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    code = main(_compare_argv(name))
    assert {"exit": code, "stdout": capsys.readouterr().out} == golden


VARIANTS_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_variants.json")

# (case id, config, --set assignments) for report paths the built-ins miss:
# single stochastic runs, one-key monitors blocks, and measurements that
# never reach the predicted quantity.
VARIANTS = [
    ("codered-fixed-desk-one-run", "codered-fixed-desk", ["stochastic.runs=1"]),
    ("codered-nopatch-desk-one-run", "codered-nopatch-desk", ["stochastic.runs=1"]),
    ("codered-p2p-g2-desk-one-run", "codered-p2p-g2-desk", ["stochastic.runs=1"]),
    ("monitors-count-only", "monitoring-slammer", ["monitors={count: 5000}"]),
    ("monitors-deadline-only", "monitoring-slammer", ["monitors={deadline_itu: 3.0}"]),
    ("kappa-never-reached", "codered-nopatch",
     ["kappa=0.999999", "integrator.t_end_itu=5"]),
    ("extinction-never-reached", "codered-fixed", ["integrator.t_end_itu=5"]),
    ("spread-time-zero", "codered-nopatch", ["params.n_hosts=50", "kappa=0.5"]),
]


def _report_values(out_dir):
    """The report.json in out_dir without its environment block."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    del report["environment"]
    return report


def _variant_outputs(config, sets, out_dir, capsys):
    """report.json without its environment block, and compare's exit and stdout."""
    argv = ["--config", config] + [arg for item in sets for arg in ("--set", item)]
    assert main(["run", "--out", str(out_dir)] + argv) == 0
    capsys.readouterr()
    report = _report_values(out_dir)
    code = main(["compare"] + argv)
    return {"report": report, "compare": {"exit": code, "stdout": capsys.readouterr().out}}


@pytest.mark.parametrize("case,config,sets", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_variant_outputs_are_pinned(case, config, sets, tmp_path, capsys):
    # The golden file maps each case id to its _variant_outputs; re-pin it
    # only for a deliberate change.  Both sides are serialised alike, so 1
    # and 1.0 differ here as they do in report.json.
    with open(VARIANTS_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[case]
    outputs = _variant_outputs(config, sets, tmp_path / "out", capsys)
    assert (json.dumps(outputs, indent=2, sort_keys=True)
            == json.dumps(golden, indent=2, sort_keys=True))


@pytest.mark.parametrize("case", ["kappa-never-reached", "extinction-never-reached"])
def test_unreached_quantity_is_none_in_library_and_null_in_report(case, tmp_path):
    # The library's None for a quantity a run never reaches is what
    # report.json holds as null under the same key.
    _, config, sets = next(v for v in VARIANTS if v[0] == case)
    argv = ["--config", config] + [arg for item in sets for arg in ("--set", item)]
    assert main(["run", "--out", str(tmp_path)] + argv) == 0
    report = _report_values(tmp_path)
    raw = load_config(config)
    for item in sets:
        apply_override(raw, item)
    scn = resolve_scenario(raw)
    for engine in scn.engines:
        traj, _ = cli.run_engine(scn, engine)
        block = report["engines"][engine]
        if case == "kappa-never-reached":
            (kappa,) = scn.kappa
            assert trajectory_spread_time(traj, kappa) is None
            assert block["spread_time"][f"{kappa:g}"] is None
        else:
            assert trajectory_extinction(traj, scn.extinction_threshold) is None
            assert block["extinction_time"] is None


def test_undefended_extinction_threshold_ignores_p_bar(tmp_path):
    # An undefended run starts with no host patched, whatever p_bar says:
    # its default threshold is 1 host, and a worm that never dies out has
    # no extinction time, not one at t = 0.
    argv = ["run", "--config", "codered-nopatch", "--set", "params.p_bar=1000000"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    engines = _report_values(tmp_path)["engines"]
    assert sorted(engines) == ["closed_form", "integrate"]
    for block in engines.values():
        assert block["extinction_threshold"] == 1.0
        assert block["extinction_time"] is None


VALUES_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report_values.json")


def _builtin_report_values(name, out_dir):
    """_report_values of the benchmark's run of a built-in: the arguments and seed
    that perfbench/reference.json's report.json digests were recorded with."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = next(w for w in workloads.CLI_WORKLOADS if name in workloads.cli_names(w))
    seed = workloads.load_reference()["seed"]
    assert main(workloads.cli_argv(workload, name, str(out_dir), seed)) == 0
    return _report_values(out_dir)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_report_values_are_pinned(name, tmp_path, capsys):
    # The reference digests tell only that a report.json byte moved; this
    # golden holds the values, so capture.py --check names each leaf that
    # moves.  Re-pin it only for a deliberate change.
    with open(VALUES_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    values = _builtin_report_values(name, tmp_path / "out")
    assert (json.dumps(values, indent=2, sort_keys=True)
            == json.dumps(golden, indent=2, sort_keys=True))


def test_capture_check_prints_relative_change(monkeypatch):
    # capture.py --check's lines for two goldens that differ in one number.
    monkeypatch.setattr(sys, "path", list(sys.path))  # capture.py prepends to it
    spec = importlib.util.spec_from_file_location("capture", ROOT / "tests" / "data" / "capture.py")
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    old = json.dumps({"case": {"exit": 1, "report": {"peak": 2.0, "name": "x"}}})
    new = json.dumps({"case": {"exit": 1, "report": {"peak": 2.5, "name": "x"}}})
    assert capture.changed_leaves("golden.json", old, new) == [
        "golden.json/case/report/peak: 2.0 -> 2.5 (relative change +0.25)"]


@pytest.mark.parametrize("name", [n for n in builtin_names() if n.endswith("-desk")])
def test_single_stochastic_run_writes_simulate(name, tmp_path):
    # runs=1 takes run_engine's simulate branch, not the ensemble's.
    out = tmp_path / "one"
    assert main(["run", "--config", name, "--engines", "stochastic",
                 "--set", "stochastic.runs=1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["engines"]["stochastic"]["halt"] is not None
    config = load_config(name)
    apply_override(config, "stochastic.runs=1")
    scn = resolve_scenario(config)
    traj = simulate(scn.params, scn.stochastic)
    with open(out / f"{name}_stochastic.csv") as fh:
        columns = np.array(list(csv.reader(fh))[1:], dtype=float).T
    expected = (traj.t_itu, itu_to_wallclock(traj.t_itu, traj.params), traj.s, traj.i, traj.p)
    for column, values in zip(columns, expected):
        assert np.array_equal(column, values)


def test_trajectory_csv_matches_csv_writer(tmp_path):
    # The same bytes as the stdlib writer, for a signed zero, the reprs that
    # switch to exponent form, the smallest subnormal and the largest float,
    # repeated past the writer's first block of 65,536 rows.
    values = np.resize([-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308], 65536 + 3)
    params = resolve_scenario(_nopatch_config()).params
    traj = Trajectory(t_itu=values, s=values[::-1].copy(), i=np.roll(values, 1),
                      p=np.roll(values, 2), params=params,
                      source=TrajectorySource.CLOSED_FORM)
    cli.write_trajectory_csv(str(tmp_path / "fast.csv"), traj)
    with open(tmp_path / "stdlib.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_itu", "t_wallclock", "S", "I", "P"])
        wallclock = itu_to_wallclock(traj.t_itu, traj.params)
        writer.writerows(zip(values.tolist(), wallclock.tolist(), traj.s.tolist(),
                             traj.i.tolist(), traj.p.tolist()))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "stdlib.csv").read_bytes()


def test_trajectory_csv_peak_memory_does_not_grow_with_rows(tmp_path, traced_peak):
    # Rows become Python floats one block at a time, so four times the rows
    # must not take four times the memory; a run near the 2**28-float
    # ceiling would otherwise need about 10 GiB to write its CSV.
    params = resolve_scenario(_nopatch_config()).params
    peaks = []
    for rows in (100_000, 400_000):
        zeros = np.zeros(rows)
        traj = Trajectory(t_itu=np.arange(rows) * 0.5, s=zeros, i=zeros, p=zeros,
                          params=params, source=TrajectorySource.CLOSED_FORM)
        peaks.append(traced_peak(cli.write_trajectory_csv, str(tmp_path / "rows.csv"), traj)[1])
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert main(["run", "--config", "codered-nopatch", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out}: File exists\n"
    assert out.read_text() == "keep\n"


def _resolve_with(*mutations):
    config = _nopatch_config()
    for mutate in mutations:
        mutate(config)
    return lambda _tmp: resolve_scenario(config)


def _set(block, **values):
    return lambda c: (c if block is None else c.setdefault(block, {})).update(values)


def _drop(key):
    return lambda c: c["params"].pop(key)


def _fixed(c):
    c["params"].update(defense="fixed_servers", gamma=2.0, p_bar=10)


def _load_file(text):
    def load(tmp):
        path = tmp / "bad.yaml"
        path.write_text(text)
        return load_config(str(path))

    return load


def _load_directory(tmp):
    path = tmp / "bad.yaml"
    path.mkdir()
    return load_config(str(path))


# (case id, action, exact text) for each ConfigError check reachable from
# parse_virulence, load_config, apply_override and resolve_scenario.  Each
# action takes the test's tmp_path; "{path}" stands for the file it makes.
CONFIG_ERRORS = [
    # parse_virulence
    ("virulence-no-unit", lambda _t: parse_virulence("1.8"),
     "virulence unit must be one of second, minute, hour, day (got '')"),
    ("virulence-not-text", lambda _t: parse_virulence(1.8),
     "virulence must be a string (got 1.8)"),
    ("virulence-rate", lambda _t: parse_virulence("fast/hour"),
     "virulence rate must be a positive number (got 'fast')"),
    ("virulence-unit", lambda _t: parse_virulence("1.8/fortnight"),
     "virulence unit must be one of second, minute, hour, day (got 'fortnight')"),
    ("virulence-nonpositive", lambda _t: parse_virulence("-2/hour"),
     "virulence rate must be a positive number (got -2.0)"),
    ("virulence-infinite", lambda _t: parse_virulence("inf/hour"),
     "virulence rate must be a positive number (got inf)"),
    # load_config
    ("load-unknown", lambda _t: load_config("no-such-scenario"),
     "'no-such-scenario' is neither a built-in scenario nor an existing file; run "
     "'wormsim list-scenarios' for built-in names"),
    ("load-unparsable", _load_file("params: [1\n"),
     'cannot parse {path}: while parsing a flow sequence\n  in "{path}", line 1, '
     'column 9\nexpected \',\' or \']\', but got \'<stream end>\'\n  in "{path}", '
     "line 2, column 1"),
    ("load-not-mapping", _load_file("- 1\n- 2\n"),
     "scenario file {path} must be a mapping (got [1, 2])"),
    # apply_override
    ("set-no-equals", lambda _t: apply_override({}, "no_equals_sign"),
     "--set needs KEY=VALUE (got 'no_equals_sign')"),
    ("set-no-key", lambda _t: apply_override({}, "=5"),
     "--set needs KEY=VALUE (got '=5')"),
    ("set-unparsable", lambda _t: apply_override({}, "params.i0=[1"),
     "cannot parse value in --set 'params.i0=[1': while parsing a flow sequence\n "
     ' in "<unicode string>", line 1, column 1:\n    [1\n    ^\nexpected \',\' or '
     '\']\', but got \'<stream end>\'\n  in "<unicode string>", line 1, column '
     "3:\n    [1\n      ^"),
    ("set-non-mapping", lambda _t: apply_override({"params": 3}, "params.i0=1"),
     "--set path 'params.i0' descends into non-mapping 'params'"),
    # resolve_scenario: top level
    ("config-not-mapping", lambda _t: resolve_scenario([]),
     "scenario config must be a mapping (got [])"),
    ("top-unknown", _resolve_with(_set(None, bogus=1)),
     "unknown key 'bogus' in scenario config; allowed: compare_tolerance, "
     "description, engines, extinction_threshold, integrator, kappa, monitors, "
     "name, params, stochastic"),
    ("name-empty", _resolve_with(_set(None, name="")),
     "name must be a non-empty string (got '')"),
    ("name-not-text", _resolve_with(_set(None, name=5)),
     "name must be a non-empty string (got 5)"),
    ("description-not-text", _resolve_with(_set(None, description=5)),
     "description must be a string (got 5)"),
    # params
    ("params-missing", _resolve_with(lambda c: c.pop("params")),
     "params is required"),
    ("params-not-mapping", _resolve_with(_set(None, params=[1])),
     "params must be a mapping (got [1])"),
    ("params-unknown", _resolve_with(_set("params", extra=2)),
     "unknown key 'extra' in params; allowed: defense, gamma, i0, n_hosts, p_bar, "
     "virulence"),
    ("n_hosts-required", _resolve_with(_drop("n_hosts")),
     "params.n_hosts is required"),
    ("virulence-required", _resolve_with(_drop("virulence")),
     "params.virulence is required"),
    ("i0-required", _resolve_with(_drop("i0")),
     "params.i0 is required"),
    ("defense-required", _resolve_with(_drop("defense")),
     "params.defense is required"),
    ("virulence-bad", _resolve_with(_set("params", virulence="1.8/fortnight")),
     "virulence unit must be one of second, minute, hour, day (got 'fortnight')"),
    ("defense-unknown", _resolve_with(_set("params", defense="carrier_pigeon")),
     "params.defense must be one of no_patching, fixed_servers, peer_to_peer "
     "(got 'carrier_pigeon')"),
    ("n_hosts-not-int", _resolve_with(_set("params", n_hosts=1e4)),
     "params.n_hosts must be an integer (got 10000.0)"),
    ("n_hosts-bool", _resolve_with(_set("params", n_hosts=True)),
     "params.n_hosts must be an integer (got True)"),
    ("i0-not-int", _resolve_with(_set("params", i0="ten")),
     "params.i0 must be an integer (got 'ten')"),
    ("gamma-not-number", _resolve_with(_set("params", gamma="fast")),
     "params.gamma must be a finite number (got 'fast')"),
    ("gamma-infinite", _resolve_with(_set("params", gamma=float("inf"))),
     "params.gamma must be a finite number (got inf)"),
    ("p_bar-not-int", _resolve_with(_set("params", p_bar=2.5)),
     "params.p_bar must be an integer (got 2.5)"),
    ("params-invalid", _resolve_with(_set("params", i0=20000)),
     "params: i0 + p_bar >= n_hosts"),
    ("p_bar-negative-undefended", _resolve_with(_set("params", p_bar=-5)),
     "params: p_bar must be an integer >= 0"),
    ("fixed-too-few-hosts",
     _resolve_with(_set("params", defense="fixed_servers", gamma=1.0, p_bar=5000)),
     "params: fixed servers need n_hosts > 2 * p_bar"),
    # engines
    ("engines-empty", _resolve_with(_set(None, engines=[])),
     "engines must be a non-empty list (got [])"),
    ("engines-not-list", _resolve_with(_set(None, engines=5)),
     "engines must be one of closed_form, integrate, stochastic (got 5)"),
    ("engines-unknown", _resolve_with(_set(None, engines=["closed_form", "warp"])),
     "engines[1] must be one of closed_form, integrate, stochastic (got 'warp')"),
    ("engines-unknown-text", _resolve_with(_set(None, engines="warp")),
     "engines must be one of closed_form, integrate, stochastic (got 'warp')"),
    # integrator
    ("integrator-not-mapping", _resolve_with(_set(None, integrator=3)),
     "integrator must be a mapping (got 3)"),
    ("integrator-unknown", _resolve_with(_set("integrator", method="rk4")),
     "unknown key 'method' in integrator; allowed: dt_itu, sample_stride, "
     "t_end_itu"),
    ("integrator-t_end-not-number", _resolve_with(_set("integrator", t_end_itu="x")),
     "integrator.t_end_itu must be a finite number (got 'x')"),
    ("integrator-dt-infinite", _resolve_with(_set("integrator", dt_itu=float("nan"))),
     "integrator.dt_itu must be a finite number (got nan)"),
    ("integrator-stride-not-int", _resolve_with(_set("integrator", sample_stride=2.0)),
     "integrator.sample_stride must be an integer (got 2.0)"),
    ("integrator-invalid", _resolve_with(_set("integrator", dt_itu=0.5)),
     "integrator: dt_itu must be <= 0.01 ITU"),
    # stochastic
    ("stochastic-not-mapping", _resolve_with(_set(None, stochastic="x")),
     "stochastic must be a mapping (got 'x')"),
    ("stochastic-unknown", _resolve_with(_set("stochastic", workers=2)),
     "unknown key 'workers' in stochastic; allowed: runs, sample_dt_itu, seed, "
     "t_end_itu"),
    ("stochastic-t_end-not-number", _resolve_with(_set("stochastic", t_end_itu=None)),
     "stochastic.t_end_itu must be a finite number (got None)"),
    ("stochastic-seed-not-int", _resolve_with(_set("stochastic", seed=1.5)),
     "stochastic.seed must be an integer (got 1.5)"),
    ("stochastic-sample_dt-not-number",
     _resolve_with(_set("stochastic", sample_dt_itu=[])),
     "stochastic.sample_dt_itu must be a finite number (got [])"),
    ("stochastic-runs-not-int", _resolve_with(_set("stochastic", runs="many")),
     "stochastic.runs must be an integer (got 'many')"),
    ("stochastic-invalid", _resolve_with(_set("stochastic", runs=0)),
     "stochastic: runs must be an integer >= 1"),
    # kappa, extinction_threshold, compare_tolerance
    ("kappa-not-list", _resolve_with(_set(None, kappa="half")),
     "kappa must be a number in (0, 1) (got 'half')"),
    ("kappa-not-number", _resolve_with(_set(None, kappa=[0.5, "x"])),
     "kappa[1] must be a number in (0, 1) (got 'x')"),
    ("kappa-out-of-range", _resolve_with(_set(None, kappa=1.5)),
     "kappa must be a number in (0, 1) (got 1.5)"),
    ("kappa-needs-no-patching", _resolve_with(_fixed, _set(None, kappa=[0.5])),
     "kappa spread levels apply only to defense no_patching"),
    ("threshold-not-number", _resolve_with(_set(None, extinction_threshold="1")),
     "extinction_threshold must be a positive number (got '1')"),
    ("threshold-nonpositive", _resolve_with(_set(None, extinction_threshold=-1.0)),
     "extinction_threshold must be a positive number (got -1.0)"),
    ("tolerance-not-number", _resolve_with(_set(None, compare_tolerance=True)),
     "compare_tolerance must be a positive number (got True)"),
    ("tolerance-nonpositive", _resolve_with(_set(None, compare_tolerance=0.0)),
     "compare_tolerance must be a positive number (got 0.0)"),
    # monitors
    ("monitors-not-mapping", _resolve_with(_set(None, monitors=2.0)),
     "monitors must be a mapping (got 2.0)"),
    ("monitors-unknown", _resolve_with(_set("monitors", size=5)),
     "unknown key 'size' in monitors; allowed: count, deadline_itu"),
    ("monitors-needs-no-patching", _resolve_with(_fixed, _set("monitors", count=5)),
     "monitors block models undefended growth; defense must be no_patching"),
    ("monitors-deadline-not-number", _resolve_with(_set("monitors", deadline_itu="soon")),
     "monitors.deadline_itu must be a positive number (got 'soon')"),
    ("monitors-deadline-nonpositive", _resolve_with(_set("monitors", deadline_itu=0)),
     "monitors.deadline_itu must be a positive number (got 0)"),
    ("monitors-count-not-int", _resolve_with(_set("monitors", count=2.5)),
     "monitors.count must be an integer (got 2.5)"),
    ("monitors-count-out-of-range", _resolve_with(_set("monitors", count=10001)),
     "monitors.count must be an integer in [1, n_hosts] (got 10001)"),
    ("monitors-empty", _resolve_with(_set(None, monitors={})),
     "monitors block needs deadline_itu and/or count"),
    # kappa values that repeat or print alike would share one report key
    ("kappa-repeated", _resolve_with(_set(None, kappa=[0.5, 0.5, 0.50000001])),
     "kappa values must differ in 6 significant digits (got 0.5, 0.5, 0.5)"),
    # integers too large for a float, as YAML reads a 1 followed by 400 zeros
    ("gamma-overflow", _resolve_with(_set("params", gamma=10**400)),
     "params.gamma must be a finite number (got "
     "100000000000000000...0000000000000000000)"),
    ("kappa-overflow", _resolve_with(_set(None, kappa=[10**400])),
     "kappa[0] must be a number in (0, 1) (got "
     "100000000000000000...0000000000000000000)"),
    ("load-directory", _load_directory,
     "cannot read {path}: Is a directory"),
    ("kappa-list-out-of-range", _resolve_with(_set(None, kappa=[1.5])),
     "kappa[0] must be a number in (0, 1) (got 1.5)"),
    # integers too large for a float where an integer is read
    ("p_bar-overflow", _resolve_with(_set("params", p_bar=10**400)),
     "params.p_bar must be an integer (got 100000000000000000...0000000000000000000)"),
    ("n_hosts-overflow", _resolve_with(_set("params", n_hosts=10**400)),
     "params.n_hosts must be an integer (got 100000000000000000...0000000000000000000)"),
    ("sample_stride-overflow", _resolve_with(_set("integrator", sample_stride=10**400)),
     "integrator.sample_stride must be an integer (got "
     "100000000000000000...0000000000000000000)"),
    ("seed-overflow", _resolve_with(_set("stochastic", seed=10**400)),
     "stochastic.seed must be an integer (got 100000000000000000...0000000000000000000)"),
    ("runs-overflow", _resolve_with(_set("stochastic", runs=10**400)),
     "stochastic.runs must be an integer (got 100000000000000000...0000000000000000000)"),
    ("monitors-count-overflow", _resolve_with(_set("monitors", count=10**400)),
     "monitors.count must be an integer (got 100000000000000000...0000000000000000000)"),
    # run k is keyed seed + k, and a Philox key must stay below 2**128
    ("seed-past-philox-keys", _resolve_with(_set("stochastic", seed=2**128 - 1, runs=2)),
     "stochastic: seed + runs must be at most 2**128"),
    # at 1e-17 ITU the expected scans of one monitor round to 0
    ("monitors-deadline-scans-round-to-zero",
     _resolve_with(_set("params", n_hosts=85000, i0=1), _set("monitors", deadline_itu=1e-17)),
     "monitors: deadline 1e-17 ITU needs inf monitors, more than the population of 85000"),
    # buffers above 2**28 floats are refused before any engine allocates them
    ("integrate-too-many-floats",
     _resolve_with(_set(None, engines=["integrate"]), _set("integrator", t_end_itu=1e12)),
     "engine integrate would hold 4e+14 floats, more than the ceiling of 2**28"),
    ("closed-form-too-many-floats",
     _resolve_with(_set("integrator", dt_itu=1e-13, sample_stride=1)),
     "engine closed_form would hold 4.8e+14 floats, more than the ceiling of 2**28"),
    ("stochastic-too-many-floats",
     _resolve_with(_set(None, engines=["stochastic"]), _set("stochastic", runs=10**9)),
     "engine stochastic would hold 7.23e+11 floats, more than the ceiling of 2**28"),
    # an undefended run holds its N - i0 holding times, turned into jump times in place
    ("stochastic-holding-times-too-many-floats",
     _resolve_with(_set(None, engines=["stochastic"]), _set("params", n_hosts=10**13)),
     "engine stochastic would hold 1e+13 floats, more than the ceiling of 2**28"),
    # a patched run's float host counts are exact only while n_hosts**2 <= 2**55
    ("stochastic-host-counts-inexact",
     _resolve_with(_set(None, engines=["stochastic"]), _fixed,
                   _set("params", n_hosts=189812532)),
     "stochastic: a patched run counts hosts exactly only while n_hosts**2 <= 2**55, "
     "that is n_hosts <= 189812531 (got 189812532)"),
    # a patch rate past the float range made the p2p peak-time prediction log(0)
    ("patch-rate-infinite", _resolve_with(_fixed, _set("params", gamma=1e308)),
     "params: gamma * p_bar must be finite"),
    # the report's peer-to-peer thumb-rule telescope would outnumber 10 hosts
    ("monitors-thumb-rule-past-population",
     _resolve_with(_set("params", n_hosts=10, i0=1), _set("monitors", count=5)),
     "monitors: the peer_to_peer rule needs 12 monitors, more than the population of 10"),
]


@pytest.mark.parametrize(
    "action,message",
    [pytest.param(action, message, id=case) for case, action, message in CONFIG_ERRORS],
)
def test_config_error_texts(action, message, tmp_path):
    with pytest.raises(ConfigError) as info:
        action(tmp_path)
    assert str(info.value) == message.replace("{path}", str(tmp_path / "bad.yaml"))


# (case id, mutation, resolved field, value) for edge inputs that must still
# resolve: one value standing for a list, an empty kappa list, a null
# monitors block, repeated engines and an integer where a float is read.
ACCEPTED = [
    ("kappa-empty", _set(None, kappa=[]), lambda scn: scn.kappa, ()),
    ("kappa-scalar", _set(None, kappa=0.5), lambda scn: scn.kappa, (0.5,)),
    ("monitors-null", _set(None, monitors=None), lambda scn: scn.monitoring, None),
    ("engines-scalar", _set(None, engines="integrate"), lambda scn: scn.engines,
     ("integrate",)),
    ("engines-repeated", _set(None, engines=["integrate", "integrate"]),
     lambda scn: scn.engines, ("integrate",)),
    # report.json writes the float 2.0, not the integer 2
    ("gamma-int", _set("params", gamma=2), lambda scn: json.dumps(scn.params.gamma),
     "2.0"),
    # the exact-count bound binds only when the stochastic engine runs
    ("patched-past-count-bound-without-stochastic",
     lambda c: (_fixed(c), c["params"].update(n_hosts=10**9)),
     lambda scn: scn.params.n_hosts, 10**9),
]


@pytest.mark.parametrize(
    "mutate,field,value",
    [pytest.param(mutate, field, value, id=case) for case, mutate, field, value in ACCEPTED],
)
def test_edge_configs_resolve(mutate, field, value):
    config = _nopatch_config()
    mutate(config)
    assert field(resolve_scenario(config)) == value


LONG_TEXT = "x" * 10_000
SCHEMA_BLOCKS = [(None, cli._TOP), ("params", cli._PARAMS), ("integrator", cli._INTEGRATOR),
                 ("stochastic", cli._STOCHASTIC), ("monitors", cli._MONITORS)]
SCALAR_KEYS = [
    (block, key, kind)
    for block, table in SCHEMA_BLOCKS
    for key, (kind, _default) in table.items()
    if not isinstance(kind, list)
]


@pytest.mark.parametrize(
    "block,key,kind",
    SCALAR_KEYS,
    ids=[key if block is None else f"{block}.{key}" for block, key, _kind in SCALAR_KEYS],
)
def test_wrong_type_fault_has_one_form(block, key, kind):
    # A string kind gets a number; every other kind, and each nested block
    # (kind None), a 10,000-character string.
    value = 5 if kind in ("a string", "a non-empty string") else LONG_TEXT
    where = key if block is None else f"{block}.{key}"
    noun = "one of " + ", ".join(kind) if isinstance(kind, tuple) else kind or "a mapping"
    config = _nopatch_config()
    _set(block, **{key: value})(config)
    with pytest.raises(ConfigError) as info:
        resolve_scenario(config)
    assert str(info.value) == f"{where} must be {noun} (got {reprlib.repr(value)})"
    assert len(str(info.value)) < 200


# --- seeded schema fuzz -------------------------------------------------

# Values of the wrong kind for most keys, or at the edges of the float range.
_FUZZ_ODD = [True, False, None, "", "text", "nan", "inf", "-inf", ".inf", "nan/hour",
             [], [[0.5, "x"], [None]], {"k": 1}, 10**400, -(10**400), 1e308, -1e308,
             1e-300, 0, -1, 0.0]
# Values of each kind noun, some of them out of the key's range.
_FUZZ_KIND = {
    "an integer": [1, 2, 3, 10, 25, 300, 2000, 10**4, 2**32, 2**53 + 1],
    "a string": ["1.8/hour", "1.5/minute", "2/second", "1e-3/day", "1e308/day", "4/fortnight"],
    "a non-empty string": ["fz", "a b/c", "x" * 300],
    "a finite number": [0.001, 0.005, 0.05, 0.5, 2.0, 12.0, 48.0, 1e3, -1.0],
    "a positive number": [1e-9, 0.25, 2.42, 25, 1e6],
    "a number in (0, 1)": [1e-12, 0.1, 0.5, 0.9, 0.999999],
}
# Work a fuzz case may run: closed-form points, RK4 steps, and per stochastic
# run its hosts and grid points.
_FUZZ_CAP = 10_000


def _fuzz_value(rng, kind):
    """A value for a key of the kind: mostly of that kind, else odd."""
    if rng.random() < 0.3:
        return copy.deepcopy(rng.choice(_FUZZ_ODD))
    if isinstance(kind, list):
        return [_fuzz_value(rng, kind[0]) for _ in range(rng.randint(0, 3))]
    if isinstance(kind, tuple):
        return rng.choice(kind)
    if kind is None:  # a nested block, which later draws may fill
        return {}
    return rng.choice(_FUZZ_KIND[kind])


def _fuzz_config(rng):
    """A built-in, or a small config of any defense that runs every engine,
    with one to four keys set, dropped or unknown."""
    if rng.random() < 0.4:
        config = load_config(rng.choice(builtin_names()))
    else:
        config = _nopatch_config(engines=list(cli.ENGINE_NAMES),
                                 integrator={"t_end_itu": 12.0, "dt_itu": 0.01},
                                 stochastic={"t_end_itu": 8.0, "runs": 2})
        config["params"].update(n_hosts=1000, defense=rng.choice(cli._PARAMS["defense"][0]),
                                gamma=2.0, p_bar=5)
    for _ in range(rng.randint(1, 4)):
        block, table = rng.choice(SCHEMA_BLOCKS)
        node = config if block is None else config.get(block)
        if not isinstance(node, dict):
            node = config[block] = {}
        key = "bogus" if rng.random() < 0.05 else rng.choice(list(table))
        if rng.random() < 0.1:
            node.pop(key, None)
        else:
            node[key] = _fuzz_value(rng, table.get(key, ("a string",))[0])
    return config


def _fuzz_work(scn):
    form_dt, form_end = cli._closed_form_span(scn.params, scn.integrator)
    runs = scn.stochastic
    work = {"closed_form": form_end / form_dt,
            "integrate": scn.integrator.t_end_itu / scn.integrator.dt_itu,
            "stochastic": runs.runs * (scn.params.n_hosts + runs.t_end_itu / runs.sample_dt_itu)}
    return sum(work[engine] for engine in scn.engines)


def test_schema_fuzz_keeps_the_exit_contract(tmp_path, capsys):
    # resolve_scenario raises only ConfigError, and every accepted config
    # under the work cap ends main with 0-3; nothing over the cap runs.  The
    # seed and case count are fixed: a failure is a bug, never a reason to reseed.
    rng = random.Random(19)
    path, out = tmp_path / "case.json", tmp_path / "out"
    ran = 0
    for case in range(1500):
        config = _fuzz_config(rng)
        try:
            scn = resolve_scenario(copy.deepcopy(config))
        except ConfigError:
            continue
        if _fuzz_work(scn) > _FUZZ_CAP:
            continue
        path.write_text(json.dumps(config))
        verb = rng.choice([["run", "--out", str(out)], ["compare"]])
        try:
            code = main(verb + ["--config", str(path)])
        except Exception as exc:
            pytest.fail(f"case {case} raised {exc!r}: {json.dumps(config)}")
        assert code in (0, 1, 2, 3), (case, config)
        assert "Traceback" not in capsys.readouterr().err
        shutil.rmtree(out, ignore_errors=True)
        ran += 1
    assert ran >= 100  # enough accepted configs fall under the cap
