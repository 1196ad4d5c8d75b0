"""Command-line interface: verbs, config schema, artifacts, exit codes."""

import csv
import json

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
from wormsim.core import Trajectory, TrajectorySource
from wormsim.scenarios import builtin_names


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
        (lambda c: c["params"].update(defense="carrier_pigeon"), "unknown defense"),
        (lambda c: c.update(engines=[]), "engines"),
        (lambda c: c.update(engines=["warp"]), "unknown engine"),
        (lambda c: c["integrator"].update(dt_itu=0.5), "integrator"),
        (lambda c: c.update(kappa=[1.5]), "kappa"),
        (lambda c: c.update(extinction_threshold=-1.0), "extinction_threshold"),
        (lambda c: c.update(compare_tolerance=0.0), "compare_tolerance"),
        (lambda c: c["params"].update(i0=20000), "params"),
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
