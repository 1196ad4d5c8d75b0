"""Command-line front end: run scenarios, compare engines, list built-ins.

Usage:
    wormsim run --config codered-fixed --out results/
    wormsim run --config my_scenario.yaml --out results/ --set params.gamma=2
    wormsim compare --config codered-p2p-g2 --engines closed_form,integrate
    wormsim list-scenarios

A scenario config is a YAML mapping (built-in names resolve to the same
schema; JSON works too since it is a YAML subset).  ``run`` writes one
trajectory CSV per engine plus report.json with summary metrics,
analytic predictions, and relative errors; reruns with the same config
and seed produce byte-identical files.  ``compare`` prints an
analytic-vs-measured table and fails when any relative error exceeds
the scenario's tolerance.

Exit codes: 0 success, 1 comparison outside tolerance, 2 bad
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    DefenseKind,
    ScenarioError,
    ScenarioParams,
    TimeValue,
    Trajectory,
    validate,
    validate_trajectory,
)
from .fluid import closed_form_trajectory, fixed_validity_window
from .integrate import IntegratorConfig, integrate
from .integrate import validate_config as validate_integrator_config
from .metrics import (
    default_extinction_threshold,
    fixed_extinction_time,
    fixed_peak_time,
    p2p_extinction_time,
    p2p_peak_infected,
    p2p_peak_time,
    spread_time,
    summarize,
)
from .monitoring import expected_scans, monitors_for_detection, thumb_rule_monitors
from .scenarios import BUILTIN_SCENARIOS, builtin_names, builtin_scenario
from .stochastic import StochasticConfig, ensemble, simulate
from .stochastic import validate_config as validate_stochastic_config

ENGINE_NAMES = ("closed_form", "integrate", "stochastic")

TIME_UNITS = ("second", "minute", "hour", "day")

_TOP_KEYS = frozenset(
    {
        "name",
        "description",
        "params",
        "engines",
        "integrator",
        "stochastic",
        "kappa",
        "extinction_threshold",
        "compare_tolerance",
        "monitors",
    }
)
_PARAM_KEYS = frozenset({"n_hosts", "virulence", "i0", "defense", "gamma", "p_bar"})
_INTEGRATOR_KEYS = frozenset({"t_end_itu", "dt_itu", "sample_stride"})
_STOCHASTIC_KEYS = frozenset({"t_end_itu", "sample_dt_itu", "runs", "seed"})
_MONITOR_KEYS = frozenset({"deadline_itu", "count"})


class ConfigError(Exception):
    """Scenario config cannot be loaded or does not satisfy the schema."""


class NumericalError(Exception):
    """An engine failed to produce a finite trajectory."""


@dataclass(frozen=True)
class ResolvedScenario:
    """A validated scenario ready to hand to the engines."""

    name: str
    description: str
    params: ScenarioParams
    time_unit: str
    engines: tuple
    integrator: IntegratorConfig
    stochastic: StochasticConfig
    kappa: tuple
    extinction_threshold: float
    compare_tolerance: float
    monitors: Optional[dict]
    config: dict


def parse_virulence(text) -> tuple:
    """Split "1.8/hour" into (rate per wallclock unit, unit name)."""
    if not isinstance(text, str) or "/" not in text:
        raise ConfigError(
            "virulence must be a string like '1.5/minute' "
            f"(got {text!r}); units: {', '.join(TIME_UNITS)}"
        )
    value_text, _, unit = text.partition("/")
    try:
        value = float(value_text.strip())
    except ValueError:
        raise ConfigError(f"virulence rate {value_text.strip()!r} is not a number")
    unit = unit.strip()
    if unit not in TIME_UNITS:
        raise ConfigError(
            f"unknown virulence time unit {unit!r}; expected one of "
            f"{', '.join(TIME_UNITS)}"
        )
    if not value > 0.0 or not math.isfinite(value):
        raise ConfigError("virulence rate must be positive and finite")
    return value, unit


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return obj


def _reject_unknown(block: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(str(k) for k in block if k not in allowed)
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in {where}; allowed: "
            + ", ".join(sorted(allowed))
        )


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer (got {value!r})")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (got {value!r})")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be finite")
    return out


def load_config(source: str) -> dict:
    """Resolve a --config argument: built-in name first, then file path."""
    if source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    if os.path.exists(source):
        import yaml
        with open(source, "r", encoding="utf-8") as fh:
            try:
                config = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse {source}: {exc}")
        config = _require_mapping(config, f"scenario file {source}")
        config.setdefault("name", _slug(os.path.splitext(os.path.basename(source))[0]))
        return config
    raise ConfigError(
        f"'{source}' is neither a built-in scenario nor an existing file; "
        "run 'wormsim list-scenarios' for built-in names"
    )


def apply_override(config: dict, assignment: str) -> None:
    """Apply one --set KEY=VALUE assignment (dotted keys, YAML scalars)."""
    key, sep, value_text = assignment.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"--set needs KEY=VALUE (got {assignment!r})")
    import yaml
    try:
        value = yaml.safe_load(value_text) if value_text.strip() else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value in --set {assignment!r}: {exc}")
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise ConfigError(f"--set path '{key}' descends into non-mapping '{part}'")
        node = child
    node[parts[-1]] = value


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "scenario"


def resolve_scenario(config: dict) -> ResolvedScenario:
    """Validate a raw config mapping and freeze it into run-ready form."""
    config = _require_mapping(config, "scenario config")
    _reject_unknown(config, _TOP_KEYS, "scenario config")

    raw_params = _require_mapping(config.get("params"), "params")
    _reject_unknown(raw_params, _PARAM_KEYS, "params")
    for field in ("n_hosts", "virulence", "i0", "defense"):
        if field not in raw_params:
            raise ConfigError(f"params.{field} is required")
    virulence, time_unit = parse_virulence(raw_params["virulence"])
    try:
        defense = DefenseKind(raw_params["defense"])
    except ValueError:
        raise ConfigError(
            f"unknown defense {raw_params['defense']!r}; expected one of "
            + ", ".join(kind.value for kind in DefenseKind)
        )
    params = ScenarioParams(
        n_hosts=_as_int(raw_params["n_hosts"], "params.n_hosts"),
        virulence=virulence,
        i0=_as_int(raw_params["i0"], "params.i0"),
        defense=defense,
        gamma=_as_float(raw_params.get("gamma", 1.0), "params.gamma"),
        p_bar=_as_int(raw_params.get("p_bar", 0), "params.p_bar"),
    )
    try:
        validate(params)
    except ScenarioError as exc:
        raise ConfigError(f"params: {exc}")
    if defense is DefenseKind.FIXED_SERVERS and params.n_hosts <= 2 * params.p_bar:
        raise ConfigError("params: fixed servers need n_hosts > 2 * p_bar")

    engines = config.get("engines", ["closed_form", "integrate"])
    if isinstance(engines, str):
        engines = [engines]
    if not isinstance(engines, list) or not engines:
        raise ConfigError("engines must be a non-empty list")
    seen = []
    for engine in engines:
        if engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown engine {engine!r}; expected one of "
                + ", ".join(ENGINE_NAMES)
            )
        if engine not in seen:
            seen.append(engine)
    engines = tuple(seen)

    integ_block = _require_mapping(config.get("integrator", {}), "integrator")
    _reject_unknown(integ_block, _INTEGRATOR_KEYS, "integrator")
    integrator = IntegratorConfig(
        t_end_itu=_as_float(integ_block.get("t_end_itu", 50.0), "integrator.t_end_itu"),
        dt_itu=_as_float(integ_block.get("dt_itu", 0.001), "integrator.dt_itu"),
        sample_stride=_as_int(
            integ_block.get("sample_stride", 10), "integrator.sample_stride"
        ),
    )
    try:
        validate_integrator_config(integrator)
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}")

    stoch_block = _require_mapping(config.get("stochastic", {}), "stochastic")
    _reject_unknown(stoch_block, _STOCHASTIC_KEYS, "stochastic")
    stochastic = StochasticConfig(
        t_end_itu=_as_float(
            stoch_block.get("t_end_itu", integrator.t_end_itu), "stochastic.t_end_itu"
        ),
        seed=_as_int(stoch_block.get("seed", 12345), "stochastic.seed"),
        sample_dt_itu=_as_float(
            stoch_block.get("sample_dt_itu", 0.05), "stochastic.sample_dt_itu"
        ),
        runs=_as_int(stoch_block.get("runs", 1), "stochastic.runs"),
    )
    try:
        validate_stochastic_config(stochastic)
    except ValueError as exc:
        raise ConfigError(f"stochastic: {exc}")

    raw_kappa = config.get("kappa", [])
    if isinstance(raw_kappa, (int, float)) and not isinstance(raw_kappa, bool):
        raw_kappa = [raw_kappa]
    if not isinstance(raw_kappa, list):
        raise ConfigError("kappa must be a number or a list of numbers")
    kappa = []
    for value in raw_kappa:
        value = _as_float(value, "kappa")
        if not 0.0 < value < 1.0:
            raise ConfigError("kappa values must lie strictly between 0 and 1")
        kappa.append(value)
    if kappa and params.defense is not DefenseKind.NO_PATCHING:
        raise ConfigError("kappa spread levels apply only to defense no_patching")

    if "extinction_threshold" in config:
        threshold = _as_float(config["extinction_threshold"], "extinction_threshold")
        if threshold <= 0.0:
            raise ConfigError("extinction_threshold must be positive")
    else:
        threshold = default_extinction_threshold(params)

    tolerance = _as_float(config.get("compare_tolerance", 0.10), "compare_tolerance")
    if tolerance <= 0.0:
        raise ConfigError("compare_tolerance must be positive")

    monitors = None
    if "monitors" in config:
        block = _require_mapping(config["monitors"], "monitors")
        _reject_unknown(block, _MONITOR_KEYS, "monitors")
        if params.defense is not DefenseKind.NO_PATCHING:
            raise ConfigError(
                "monitors block models undefended growth; defense must be no_patching"
            )
        monitors = {}
        if "deadline_itu" in block:
            deadline = _as_float(block["deadline_itu"], "monitors.deadline_itu")
            if deadline <= 0.0:
                raise ConfigError("monitors.deadline_itu must be positive")
            monitors["deadline_itu"] = deadline
        if "count" in block:
            count = _as_int(block["count"], "monitors.count")
            if not 1 <= count <= params.n_hosts:
                raise ConfigError("monitors.count must be in [1, n_hosts]")
            monitors["count"] = count
        if not monitors:
            raise ConfigError("monitors block needs deadline_itu and/or count")

    name = config.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a non-empty string")
    description = config.get("description", "")
    if not isinstance(description, str):
        raise ConfigError("description must be a string")

    return ResolvedScenario(
        name=_slug(name),
        description=description,
        params=params,
        time_unit=time_unit,
        engines=engines,
        integrator=integrator,
        stochastic=stochastic,
        kappa=tuple(kappa),
        extinction_threshold=threshold,
        compare_tolerance=tolerance,
        monitors=monitors,
        config=copy.deepcopy(config),
    )


def _closed_form_grid(scn: ResolvedScenario) -> np.ndarray:
    dt = scn.integrator.dt_itu * scn.integrator.sample_stride
    t_hi = scn.integrator.t_end_itu
    if scn.params.defense is DefenseKind.FIXED_SERVERS:
        t_hi = min(t_hi, fixed_validity_window(scn.params))
    n_pts = int(math.floor(t_hi / dt + 1e-9))
    grid = np.arange(n_pts + 1) * dt
    if grid[-1] < t_hi * (1.0 - 1e-12):
        grid = np.append(grid, t_hi)
    return grid


def run_engine(scn: ResolvedScenario, engine: str):
    """Produce (trajectory, extras) for one engine name.

    A non-finite state, or a trajectory that fails
    ``validate_trajectory``, raises NumericalError.
    """
    try:
        extras = {}
        if engine == "closed_form":
            traj = closed_form_trajectory(scn.params, _closed_form_grid(scn))
        elif engine == "integrate":
            traj = integrate(scn.params, scn.integrator)
        elif engine == "stochastic" and scn.stochastic.runs == 1:
            traj = simulate(scn.params, scn.stochastic)
            extras = {"seed": scn.stochastic.seed, "runs": 1}
        elif engine == "stochastic":
            result = ensemble(scn.params, scn.stochastic)
            traj = result.mean
            extras = {
                "seed": scn.stochastic.seed,
                "runs": result.runs_used,
                "extinct_before_end": result.extinct_before_end,
            }
        else:
            raise ConfigError(f"unknown engine {engine!r}")
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"engine {engine}: {exc}") from exc
    try:
        return validate_trajectory(traj), extras
    except ValueError as exc:
        raise NumericalError(f"engine {engine}: {exc}") from exc


def _time_json(scn: ResolvedScenario, t_itu: float) -> dict:
    tv = TimeValue.from_itu(float(t_itu), scn.params)
    return {"itu": tv.itu, "wallclock": tv.wallclock, "unit": scn.time_unit}


def _optional_time_json(scn: ResolvedScenario, tv: Optional[TimeValue]):
    return None if tv is None else _time_json(scn, tv.itu)


def measure_trajectory(scn: ResolvedScenario, traj: Trajectory) -> dict:
    """Summary metrics for one engine's trajectory, JSON-ready."""
    summary = summarize(traj, scn.extinction_threshold, scn.kappa)
    block = {
        "peak_time": _time_json(scn, summary.peak_time.itu),
        "peak_infected": float(summary.peak_infected),
        "extinction_threshold": summary.extinction_threshold,
        "extinction_time": _optional_time_json(scn, summary.extinction_time),
        "samples": int(len(traj.t_itu)),
        "halt": None if traj.halt_itu is None else _time_json(scn, traj.halt_itu),
    }
    if scn.kappa:
        block["spread_time"] = {
            f"{kappa:g}": _optional_time_json(scn, tv)
            for kappa, tv in summary.spread_times.items()
        }
    return block


def analytic_predictions(scn: ResolvedScenario) -> dict:
    """Closed-form predictors for the scenario's defense, JSON-ready."""
    params = scn.params
    if params.defense is DefenseKind.NO_PATCHING:
        spread = {
            f"{value:g}": _time_json(scn, spread_time(params, value).itu)
            for value in scn.kappa
        }
        return {"spread_time": spread}
    if params.defense is DefenseKind.FIXED_SERVERS:
        return {
            "peak_time": _time_json(scn, fixed_peak_time(params).itu),
            "extinction_time": _time_json(scn, fixed_extinction_time(params).itu),
            "peak_infected": None,
            "peak_infected_note": "n/a (order-of-N scaling only)",
        }
    block = {
        "peak_time": _time_json(scn, p2p_peak_time(params).itu),
        "extinction_time": _time_json(scn, p2p_extinction_time(params).itu),
    }
    try:
        block["peak_infected"] = p2p_peak_infected(params)
    except ValueError:
        block["peak_infected"] = None
        block["peak_infected_note"] = "n/a (gamma <= 1)"
    return block


def comparison_rows(scn: ResolvedScenario, measured: dict) -> list:
    """Rows of (quantity, analytic value or None, note, {engine: value}).

    Times are compared in ITU; the wallclock ratio is identical.
    """
    analytic = analytic_predictions(scn)
    rows = []

    def engine_values(pick):
        values = {}
        for engine, block in measured.items():
            value = pick(block)
            values[engine] = None if value is None else float(value)
        return values

    if scn.params.defense is DefenseKind.NO_PATCHING:
        for value in scn.kappa:
            key = f"{value:g}"

            def pick(block, key=key):
                entry = block.get("spread_time", {}).get(key)
                return None if entry is None else entry["itu"]

            rows.append(
                (
                    f"spread_time_itu(kappa={key})",
                    analytic["spread_time"][key]["itu"],
                    "",
                    engine_values(pick),
                )
            )
        return rows

    rows.append(
        (
            "peak_time_itu",
            analytic["peak_time"]["itu"],
            "",
            engine_values(lambda block: block["peak_time"]["itu"]),
        )
    )
    rows.append(
        (
            "peak_infected",
            analytic.get("peak_infected"),
            analytic.get("peak_infected_note", ""),
            engine_values(lambda block: block["peak_infected"]),
        )
    )

    def pick_extinction(block):
        entry = block.get("extinction_time")
        return None if entry is None else entry["itu"]

    rows.append(
        (
            "extinction_time_itu",
            analytic["extinction_time"]["itu"],
            "",
            engine_values(pick_extinction),
        )
    )
    return rows


def relative_errors(rows: list) -> dict:
    """Per-engine relative error against each analytic value present."""
    out = {}
    for quantity, reference, _note, values in rows:
        if reference is None:
            continue
        for engine, value in values.items():
            if value is None:
                continue
            out.setdefault(engine, {})[quantity] = abs(value - reference) / abs(
                reference
            )
    return out


def monitoring_block(scn: ResolvedScenario) -> dict:
    """Telescope sizing results for the report."""
    params = scn.params
    block = {
        "thumb_rule_monitors": {
            "fixed_servers": thumb_rule_monitors(params.n_hosts, DefenseKind.FIXED_SERVERS),
            "peer_to_peer": thumb_rule_monitors(params.n_hosts, DefenseKind.PEER_TO_PEER),
        }
    }
    mon = scn.monitors or {}
    deadline = mon.get("deadline_itu")
    count = mon.get("count")
    if deadline is not None:
        try:
            plan = monitors_for_detection(params, deadline)
        except ValueError as exc:
            raise ConfigError(f"monitors: {exc}")
        block["deadline"] = _time_json(scn, deadline)
        block["required_monitors"] = plan.monitors
        block["expected_scans_with_required"] = plan.expected_scans_at_deadline
    if count is not None:
        block["count"] = count
        if deadline is not None:
            block["expected_scans_at_deadline"] = float(
                expected_scans(deadline, params, count)
            )
    return block


@dataclass(frozen=True)
class Evaluation:
    """Every engine's trajectory and measurement, compared with the analytics."""

    trajectories: dict
    measured: dict
    rows: list
    errors: dict
    worst: Optional[float]


def evaluate(scn: ResolvedScenario) -> Evaluation:
    """Run and measure each engine; compare the measurements with the analytics."""
    trajectories = {}
    measured = {}
    for engine in scn.engines:
        traj, extras = run_engine(scn, engine)
        trajectories[engine] = traj
        measured[engine] = measure_trajectory(scn, traj)
        if extras:
            measured[engine]["stochastic"] = extras
    rows = comparison_rows(scn, measured)
    errors = relative_errors(rows)
    worst = max(
        (err for per_engine in errors.values() for err in per_engine.values()),
        default=None,
    )
    return Evaluation(trajectories, measured, rows, errors, worst)


def build_report(scn: ResolvedScenario, result: Evaluation) -> dict:
    """The report.json mapping for an evaluated scenario."""
    params = scn.params
    report = {
        "scenario": scn.name,
        "description": scn.description,
        "time_unit": scn.time_unit,
        "params": {
            "n_hosts": params.n_hosts,
            "virulence_per_unit": params.virulence,
            "i0": params.i0,
            "defense": params.defense.value,
            "gamma": params.gamma,
            "p_bar": params.p_bar,
        },
        "engines": result.measured,
        "analytic": analytic_predictions(scn),
        "relative_errors": result.errors,
        "tolerance": {
            "compare_tolerance": scn.compare_tolerance,
            "worst_relative_error": result.worst,
            "within_tolerance": result.worst is None or result.worst <= scn.compare_tolerance,
        },
        "environment": {
            "package": f"wormsim {__version__}",
            "numpy": np.__version__,
        },
        "config": scn.config,
    }
    if scn.monitors is not None:
        report["monitoring"] = monitoring_block(scn)
    return report


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """CSV columns t_itu,t_wallclock,S,I,P; repr floats round-trip exactly."""
    wallclock = traj.t_wallclock()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_itu", "t_wallclock", "S", "I", "P"])
        columns = (traj.t_itu, wallclock, traj.s, traj.i, traj.p)
        writer.writerows(
            zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
        )


def write_report_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_value(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def format_comparison_table(scn: ResolvedScenario, rows: list) -> str:
    engines = list(scn.engines)
    header = ["quantity", "analytic"] + engines
    table = [header]
    for quantity, reference, note, values in rows:
        ref_text = note if reference is None else _format_value(reference)
        line = [quantity, ref_text]
        for engine in engines:
            value = values.get(engine)
            if value is None:
                line.append("-")
            elif reference is None:
                line.append(_format_value(value))
            else:
                rel = abs(value - reference) / abs(reference)
                line.append(f"{_format_value(value)} ({100.0 * rel:.2f}%)")
        table.append(line)
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def _scenario_banner(scn: ResolvedScenario) -> str:
    params = scn.params
    bits = [
        f"defense={params.defense.value}",
        f"N={params.n_hosts}",
        f"I0={params.i0}",
        f"virulence={params.virulence:g}/{scn.time_unit}",
    ]
    if params.defense is not DefenseKind.NO_PATCHING:
        bits.append(f"gamma={params.gamma:g}")
        bits.append(f"p_bar={params.p_bar}")
    return f"scenario {scn.name}: " + ", ".join(bits)


def cmd_run(scn: ResolvedScenario, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    result = evaluate(scn)
    print(_scenario_banner(scn))
    for engine, traj in result.trajectories.items():
        csv_path = os.path.join(out_dir, f"{scn.name}_{engine}.csv")
        write_trajectory_csv(csv_path, traj)
        print(f"wrote {csv_path} ({len(traj.t_itu)} samples)")
    report_path = os.path.join(out_dir, "report.json")
    write_report_json(report_path, build_report(scn, result))
    print(f"wrote {report_path}")
    if result.worst is not None:
        print(
            f"worst relative error {result.worst:.4g} "
            f"(tolerance {scn.compare_tolerance:g})"
        )
    return 0


def cmd_compare(scn: ResolvedScenario) -> int:
    result = evaluate(scn)
    print(_scenario_banner(scn))
    if not result.rows:
        print("no analytic comparisons defined for this scenario")
        return 0
    print(format_comparison_table(scn, result.rows))
    if result.worst is None:
        print("no measured quantities to compare")
        return 0
    verdict = "OK" if result.worst <= scn.compare_tolerance else "FAIL"
    print(
        f"worst relative error {result.worst:.4g} vs tolerance "
        f"{scn.compare_tolerance:g}: {verdict}"
    )
    return 0 if verdict == "OK" else 1


def cmd_list_scenarios() -> int:
    width = max(len(name) for name in builtin_names())
    for name in builtin_names():
        description = BUILTIN_SCENARIOS[name].get("description", "")
        print(f"{name.ljust(width)}  {description}")
    return 0


def _resolve_from_args(args) -> ResolvedScenario:
    config = load_config(args.config)
    for assignment in args.set or []:
        apply_override(config, assignment)
    if args.seed is not None:
        config.setdefault("stochastic", {})
        if not isinstance(config["stochastic"], dict):
            raise ConfigError("stochastic must be a mapping")
        config["stochastic"]["seed"] = args.seed
    if args.engines is not None:
        config["engines"] = [part.strip() for part in args.engines.split(",") if part.strip()]
    return resolve_scenario(config)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        required=True,
        metavar="NAME_OR_PATH",
        help="built-in scenario name or path to a YAML/JSON scenario file",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry by dotted path, e.g. params.gamma=2 "
        "(repeatable; later assignments win)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="shorthand for --set stochastic.seed=N",
    )
    parser.add_argument(
        "--engines",
        metavar="LIST",
        help="comma-separated engine subset: " + ",".join(ENGINE_NAMES),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormsim",
        description="Worm propagation and patch-dissemination scenario toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="simulate a scenario; write per-engine CSVs and report.json"
    )
    _add_common_arguments(run_parser)
    run_parser.add_argument(
        "--out", required=True, metavar="DIR", help="output directory"
    )

    compare_parser = sub.add_parser(
        "compare", help="print analytic-vs-measured table; exit 1 beyond tolerance"
    )
    _add_common_arguments(compare_parser)

    sub.add_parser("list-scenarios", help="list built-in scenario names")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            return cmd_list_scenarios()
        scn = _resolve_from_args(args)
        if args.command == "run":
            return cmd_run(scn, args.out)
        return cmd_compare(scn)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
