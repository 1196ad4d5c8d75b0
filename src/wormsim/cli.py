"""Command-line front end: run scenarios, compare engines, list built-ins.

Usage:
    wormsim run --config codered-fixed --out results/
    wormsim run --config my_scenario.yaml --out results/ --set params.gamma=2
    wormsim compare --config codered-p2p-g2 --engines closed_form,integrate
    wormsim list-scenarios

A scenario config is a YAML mapping (built-in names resolve to the same
schema; JSON works too since it is a YAML subset).  A value that is not of
its key's kind in the schema tables is a config error "<key> must be <kind>
(got <value>)".  ``run`` writes one trajectory CSV per engine plus
report.json with summary metrics, analytic predictions, and relative
errors; reruns with the same config and seed produce byte-identical files.
``compare`` prints an analytic-vs-measured table and fails when any
relative error exceeds the scenario's tolerance.

Exit codes: 0 success, 1 comparison outside tolerance, 2 bad
configuration, 3 numerical failure (also a NaN or infinity in the report).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import re
import reprlib
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    DefenseKind,
    ScenarioParams,
    TimeValue,
    Trajectory,
    validate_trajectory,
)
from .fluid import closed_form_trajectory, fixed_validity_window
from .integrate import IntegratorConfig, integrate
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

ENGINE_NAMES = ("closed_form", "integrate", "stochastic")

TIME_UNITS = ("second", "minute", "hour", "day")


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
    monitoring: Optional[dict]  # the report's telescope sizing block
    config: dict


def parse_virulence(text) -> tuple:
    """Split "1.8/hour" into (rate per wallclock unit, unit name)."""
    rate, _, unit = _read(text, "virulence", "a string").partition("/")
    try:
        rate = float(rate)
    except ValueError:
        pass  # the text stays, and _read rejects it as not a number
    return (_read(rate, "virulence rate", "a positive number"),
            _read(unit.strip(), "virulence unit", TIME_UNITS))


def _real(value) -> float:
    """A non-bool int or float as a float; otherwise NaN, which no range holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf


# Kind nouns: a type test each, or for a number kind the open range of its float;
# an integer too large for a float is not "an integer".
_TYPES = {
    "an integer": lambda value: isinstance(value, int) and math.isfinite(_real(value)),
    "a string": lambda value: isinstance(value, str),
    "a non-empty string": lambda value: isinstance(value, str) and value != "",
    "a mapping": lambda value: isinstance(value, dict),
    None: lambda value: True,  # a nested block, which resolve_scenario reads
}
_RANGES = {
    "a finite number": (-math.inf, math.inf),
    "a positive number": (0.0, math.inf),
    "a number in (0, 1)": (0.0, 1.0),
}


def _read(value, key: str, kind):
    """value as kind: a noun of _TYPES or _RANGES, a tuple of allowed names, or
    [kind], a list of that kind read as a tuple (one value is a list of one)."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            return (_read(value, key, kind[0]),)
        return tuple(_read(item, f"{key}[{k}]", kind[0]) for k, item in enumerate(value))
    if isinstance(kind, tuple):
        ok, kind = value in kind, "one of " + ", ".join(kind)
    elif kind in _RANGES:
        low, high = _RANGES[kind]
        ok = low < _real(value) < high
    else:
        ok = _TYPES[kind](value)
    if not ok:  # the one form of every type, range or choice fault
        raise ConfigError(f"{key} must be {kind} (got {reprlib.repr(value)})")
    return _real(value) if kind in _RANGES else value


# The schema: one table per block, mapping each allowed key to (kind, default).
# A missing key takes its default as is (None: unset), or is an error if the
# default is _REQUIRED.  Kind None: a nested block, read later by its own table.

_REQUIRED = object()

_TOP = {
    "name": ("a non-empty string", "scenario"),
    "description": ("a string", ""),
    "params": (None, _REQUIRED),
    "engines": ([ENGINE_NAMES], ("closed_form", "integrate")),
    "integrator": (None, {}),
    "stochastic": (None, {}),
    "kappa": (["a number in (0, 1)"], ()),
    "extinction_threshold": ("a positive number", None),
    "compare_tolerance": ("a positive number", 0.10),
    "monitors": (None, None),  # null: no telescope sizing
}
_PARAMS = {
    "n_hosts": ("an integer", _REQUIRED),
    "virulence": ("a string", _REQUIRED),
    "i0": ("an integer", _REQUIRED),
    "defense": (tuple(kind.value for kind in DefenseKind), _REQUIRED),
    "gamma": ("a finite number", ScenarioParams.gamma),
    "p_bar": ("an integer", ScenarioParams.p_bar),
}
_INTEGRATOR = {
    "t_end_itu": ("a finite number", 50.0),
    "dt_itu": ("a finite number", IntegratorConfig.dt_itu),
    "sample_stride": ("an integer", IntegratorConfig.sample_stride),
}
_STOCHASTIC = {
    "t_end_itu": ("a finite number", None),
    "seed": ("an integer", 12345),
    "sample_dt_itu": ("a finite number", StochasticConfig.sample_dt_itu),
    "runs": ("an integer", StochasticConfig.runs),
}
_MONITORS = {
    "deadline_itu": ("a positive number", None),
    "count": ("an integer", None),
}


def _read_block(block, table: dict, name: str = "") -> dict:
    """{key: value} of one config block; name "" is the top level."""
    where = name or "scenario config"
    block = _read(block, where, "a mapping")
    unknown = sorted(str(key) for key in block if key not in table)
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in {where}; allowed: " + ", ".join(sorted(table))
        )
    prefix = f"{name}." if name else ""
    for key, (_kind, default) in table.items():
        if default is _REQUIRED and key not in block:
            raise ConfigError(f"{prefix}{key} is required")
    return {key: _read(block[key], prefix + key, kind) if key in block else default
            for key, (kind, default) in table.items()}


def _checked(block: str, check, *args, **kwargs):
    """check(*args, **kwargs), with its ValueError reported as a fault of the block."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{block}: {exc}")


@functools.cache
def _yaml_loader():
    """yaml.SafeLoader that also reads YAML 1.2 floats such as 1e-3 and 1e300."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return Loader


def load_config(source: str) -> dict:
    """Resolve a --config argument: built-in name first, then file path."""
    if source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    if os.path.exists(source):
        import yaml
        try:
            with open(source, "r", encoding="utf-8") as fh:
                config = yaml.load(fh, Loader=_yaml_loader())
        except OSError as exc:
            raise ConfigError(f"cannot read {source}: {exc.strerror}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {source}: {exc}")
        config = _read(config, f"scenario file {source}", "a mapping")
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
        value = (yaml.load(value_text, Loader=_yaml_loader())
                 if value_text.strip() else None)
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


def _monitoring_json(params: ScenarioParams, time_unit: str, deadline, count) -> dict:
    """Telescope sizing for the report; ValueError where a size does not exist."""
    block = {
        "thumb_rule_monitors": {
            "fixed_servers": thumb_rule_monitors(params.n_hosts, DefenseKind.FIXED_SERVERS),
            "peer_to_peer": thumb_rule_monitors(params.n_hosts, DefenseKind.PEER_TO_PEER),
        }
    }
    if deadline is not None:
        plan = monitors_for_detection(params, deadline)
        block.update(deadline=_time_json(params, time_unit, deadline),
                     required_monitors=plan.monitors,
                     expected_scans_with_required=plan.expected_scans_at_deadline)
    if count is not None:
        block["count"] = count
        if deadline is not None:
            block["expected_scans_at_deadline"] = expected_scans(deadline, params, count)
    return block


def resolve_scenario(config: dict) -> ResolvedScenario:
    """Validate a raw config mapping and freeze it into run-ready form.

    The top-level keys are read first, then the params, integrator,
    stochastic and monitors blocks, each with the checks across its keys;
    a telescope sizing that does not exist is a fault of the monitors block.
    """
    top = _read_block(config, _TOP)
    engines = tuple(dict.fromkeys(top["engines"]))
    if not engines:
        raise ConfigError("engines must be a non-empty list (got [])")
    labels = [f"{kappa:g}" for kappa in top["kappa"]]  # the report and table keys
    if len(set(labels)) < len(labels):
        raise ConfigError(f"kappa values must differ in 6 significant digits "
                          f"(got {', '.join(labels)})")
    top.update(name=_slug(top["name"]), engines=engines)

    raw = _read_block(top["params"], _PARAMS, "params")
    virulence, time_unit = parse_virulence(raw.pop("virulence"))
    raw["defense"] = DefenseKind(raw["defense"])
    params = _checked("params", ScenarioParams, virulence=virulence, **raw)
    if params.defense is DefenseKind.FIXED_SERVERS and params.n_hosts <= 2 * params.p_bar:
        raise ConfigError("params: fixed servers need n_hosts > 2 * p_bar")
    undefended = params.defense is DefenseKind.NO_PATCHING

    raw = _read_block(top["integrator"], _INTEGRATOR, "integrator")
    integrator = _checked("integrator", IntegratorConfig, **raw)

    raw = _read_block(top["stochastic"], _STOCHASTIC, "stochastic")
    if raw["t_end_itu"] is None:
        raw["t_end_itu"] = integrator.t_end_itu
    stochastic = _checked("stochastic", StochasticConfig, **raw)

    # Floats held, to within a few: t, S, I, P per RK4 sample or closed-form point,
    # S, I, P per stochastic grid point and run, and for an undefended run its
    # N - i0 holding times, rates and jump times.  Over 2**28 (2 GiB) is refused: a
    # machine that overcommits memory would grant it, then run for hours.
    form_dt, form_end = _closed_form_span(params, integrator)
    floats = dict(
        integrate=4 * (integrator.t_end_itu / integrator.dt_itu / integrator.sample_stride + 3),
        closed_form=4 * (form_end / form_dt + 2),
        stochastic=3 * stochastic.runs * (stochastic.t_end_itu / stochastic.sample_dt_itu + 1)
        + (3 * (params.n_hosts - params.i0) if undefended else 0))
    for engine in engines:
        if floats[engine] > 2**28:
            raise ConfigError(f"engine {engine} would hold {floats[engine]:.3g} floats, "
                              "more than the ceiling of 2**28")

    if top["kappa"] and not undefended:
        raise ConfigError("kappa spread levels apply only to defense no_patching")
    threshold = top["extinction_threshold"]
    if threshold is None:
        threshold = default_extinction_threshold(params)

    monitors, monitoring = top.pop("monitors"), None
    if monitors is not None:
        raw = _read_block(monitors, _MONITORS, "monitors")
        deadline, count = raw["deadline_itu"], raw["count"]
        if not undefended:
            raise ConfigError(
                "monitors block models undefended growth; defense must be no_patching"
            )
        if deadline is None and count is None:
            raise ConfigError("monitors block needs deadline_itu and/or count")
        if count is not None and not 1 <= count <= params.n_hosts:
            raise ConfigError("monitors.count must be an integer in [1, n_hosts] "
                              f"(got {reprlib.repr(count)})")
        monitoring = _checked("monitors", _monitoring_json, params, time_unit, deadline, count)

    top.update(params=params, integrator=integrator, stochastic=stochastic,
               extinction_threshold=threshold, monitoring=monitoring)
    return ResolvedScenario(time_unit=time_unit, config=copy.deepcopy(config), **top)


def _closed_form_span(params: ScenarioParams, integrator: IntegratorConfig) -> tuple:
    """(spacing, end) of the closed-form grid; fixed servers end at the validity window."""
    t_hi = integrator.t_end_itu
    if params.defense is DefenseKind.FIXED_SERVERS:
        t_hi = min(t_hi, fixed_validity_window(params))
    return integrator.dt_itu * integrator.sample_stride, t_hi


def _closed_form_grid(scn: ResolvedScenario) -> np.ndarray:
    dt, t_hi = _closed_form_span(scn.params, scn.integrator)
    n_pts = int(math.floor(t_hi / dt + 1e-9))
    grid = np.arange(n_pts + 1) * dt
    if grid[-1] > t_hi:  # the slack above may step past a validity window
        grid[-1] = t_hi
    elif grid[-1] < t_hi * (1.0 - 1e-12):
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
                "runs": scn.stochastic.runs,
                "extinct_before_end": result.extinct_before_end,
            }
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"engine {engine}: {exc}") from exc
    try:
        return validate_trajectory(traj), extras
    except ValueError as exc:
        raise NumericalError(f"engine {engine}: {exc}") from exc


def _report_json(unit: str, leaf):
    """A quantity as report.json holds it: a TimeValue as {itu, wallclock,
    unit}, a dict key by key, and a count, a None or any other value as is."""
    if isinstance(leaf, dict):
        return {key: _report_json(unit, value) for key, value in leaf.items()}
    if isinstance(leaf, TimeValue):
        return {"itu": leaf.itu, "wallclock": leaf.wallclock, "unit": unit}
    return leaf


def _time_json(params: ScenarioParams, unit: str, t_itu: Optional[float]) -> Optional[dict]:
    """A plain ITU float, such as a halt or a deadline, rendered as a time."""
    return None if t_itu is None else _report_json(unit, TimeValue.from_itu(float(t_itu), params))


# The keys of the quantities that an engine block and the analytic block share.
_QUANTITIES = ("peak_time", "peak_infected", "extinction_time", "spread_time")


def _compare_names(block: dict) -> dict:
    """{compare-table name: value} of the quantities of a report block, with
    times in ITU: a time key gains "_itu", so block["spread_time"]["0.5"]["itu"]
    is "spread_time_itu(kappa=0.5)".  Other keys of the block are left out."""
    named = {}
    for key, leaf in block.items():
        if key not in _QUANTITIES:
            continue
        name = f"{key}_itu" if key.endswith("_time") else key
        labelled = isinstance(leaf, dict) and "itu" not in leaf  # {kappa label: time}
        for label, value in (leaf.items() if labelled else [(None, leaf)]):
            named[name if label is None else f"{name}(kappa={label})"] = (
                value["itu"] if isinstance(value, dict) else value)
    return named


def _predictions(scn: ResolvedScenario) -> dict:
    """The report's analytic block: the analytic quantities as report.json holds
    them, and beside each with no predictor (None) a "<key>_note" that says why."""
    params = scn.params
    if params.defense is DefenseKind.NO_PATCHING:
        return _report_json(scn.time_unit, {"spread_time": {
            f"{kappa:g}": spread_time(params, kappa) for kappa in scn.kappa}})
    if params.defense is DefenseKind.FIXED_SERVERS:
        peak, extinction = fixed_peak_time(params), fixed_extinction_time(params)
        infected, notes = None, {"peak_infected_note": "n/a (order-of-N scaling only)"}
    else:
        peak, extinction = p2p_peak_time(params), p2p_extinction_time(params)
        try:
            infected, notes = p2p_peak_infected(params), {}
        except ValueError:
            infected, notes = None, {"peak_infected_note": "n/a (gamma <= 1)"}
    return _report_json(scn.time_unit, {"peak_time": peak, "peak_infected": infected,
                                        "extinction_time": extinction, **notes})


def evaluate(scn: ResolvedScenario) -> tuple:
    """(trajectories, report, text): run and measure each engine, compare each
    measurement with its analytic value, build the report and serialise it as
    report.json holds it; a NaN or infinity in the report is a NumericalError.

    An engine's quantities take the keys and shape of ``_predictions``.  Times
    are compared in ITU; the wallclock ratio is identical.  A quantity with no
    predictor, or whose analytic value is 0, gets no relative error.
    """
    trajectories, measured = {}, {}
    for engine in scn.engines:
        traj, extras = run_engine(scn, engine)
        trajectories[engine] = traj
        measured[engine] = dict(
            _report_json(scn.time_unit, summarize(traj, scn.extinction_threshold, scn.kappa)),
            extinction_threshold=scn.extinction_threshold, samples=len(traj.t_itu),
            halt=_time_json(scn.params, scn.time_unit, traj.halt_itu))
        if extras:
            measured[engine]["stochastic"] = extras
    analytic = _predictions(scn)
    predicted, errors = _compare_names(analytic), {}
    for engine, block in measured.items():
        named = _compare_names(block)
        for name, reference in predicted.items():
            if reference and named[name] is not None:
                errors.setdefault(engine, {})[name] = (
                    abs(named[name] - reference) / abs(reference))
    report = build_report(scn, measured, analytic, errors)
    try:  # before any file is written
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report.json: {exc}") from exc
    return trajectories, report, text


def build_report(scn: ResolvedScenario, measured: dict, analytic: dict, errors: dict) -> dict:
    """The report.json mapping of the engine blocks, analytic block and errors."""
    params = scn.params
    worst = max((error for named in errors.values() for error in named.values()),
                default=None)
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
        "engines": measured,
        "analytic": analytic,
        "relative_errors": errors,
        "tolerance": {
            "compare_tolerance": scn.compare_tolerance,
            "worst_relative_error": worst,
            "within_tolerance": worst is None or worst <= scn.compare_tolerance,
        },
        "environment": {
            "package": f"wormsim {__version__}",
            "numpy": np.__version__,
        },
        "config": scn.config,
    }
    if scn.monitoring is not None:
        report["monitoring"] = scn.monitoring
    return report


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """CSV columns t_itu,t_wallclock,S,I,P; repr floats round-trip exactly.

    The bytes are those of ``csv.writer``: no float repr needs quoting.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t_itu,t_wallclock,S,I,P\r\n")
        for start in range(0, len(traj), 65536):  # Python floats for one block of rows
            block = slice(start, start + 65536)
            t_itu = traj.t_itu[block]
            columns = (t_itu, t_itu / traj.params.virulence,
                       traj.s[block], traj.i[block], traj.p[block])
            fh.writelines(f"{t!r},{w!r},{s!r},{i!r},{p!r}\r\n" for t, w, s, i, p in
                          zip(*(np.asarray(column, dtype=float).tolist() for column in columns)))


def write_report_json(path: str, text: str) -> None:
    """Write report.json: the text that ``evaluate`` serialised, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _format_value(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def format_comparison_table(report: dict) -> str:
    """A report mapping's analytic-vs-measured table, relative errors in %."""
    analytic, errors = report["analytic"], report["relative_errors"]
    notes = _compare_names({k[:-5]: note for k, note in analytic.items() if k.endswith("_note")})
    values = {engine: _compare_names(block) for engine, block in report["engines"].items()}
    header = ["quantity", "analytic"] + list(values)
    table = [header]
    for name, reference in _compare_names(analytic).items():
        line = [name, notes.get(name, "") if reference is None else _format_value(reference)]
        for engine, named in values.items():
            cell = _format_value(named[name])
            if name in errors.get(engine, {}):
                cell += f" ({100.0 * errors[engine][name]:.2f}%)"
            line.append(cell)
        table.append(line)
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def _scenario_banner(report: dict) -> str:
    params = report["params"]
    bits = [
        f"defense={params['defense']}",
        f"N={params['n_hosts']}",
        f"I0={params['i0']}",
        f"virulence={params['virulence_per_unit']:g}/{report['time_unit']}",
    ]
    if params["defense"] != DefenseKind.NO_PATCHING.value:
        bits += [f"gamma={params['gamma']:g}", f"p_bar={params['p_bar']}"]
    return f"scenario {report['scenario']}: " + ", ".join(bits)


def cmd_run(scn: ResolvedScenario, out_dir: str) -> int:
    trajectories, report, text = evaluate(scn)
    csv_paths = {engine: os.path.join(out_dir, f"{scn.name}_{engine}.csv")
                 for engine in trajectories}
    report_path = os.path.join(out_dir, "report.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for engine, csv_path in csv_paths.items():
            write_trajectory_csv(csv_path, trajectories[engine])
        write_report_json(report_path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror}")
    print(_scenario_banner(report))
    for engine, csv_path in csv_paths.items():
        print(f"wrote {csv_path} ({len(trajectories[engine].t_itu)} samples)")
    print(f"wrote {report_path}")
    worst = report["tolerance"]["worst_relative_error"]
    if worst is not None:
        print(f"worst relative error {worst:.4g} (tolerance {scn.compare_tolerance:g})")
    return 0


def cmd_compare(scn: ResolvedScenario) -> int:
    _trajectories, report, _text = evaluate(scn)
    print(_scenario_banner(report))
    if not _compare_names(report["analytic"]):
        print("no analytic comparisons defined for this scenario")
        return 0
    print(format_comparison_table(report))
    tolerance = report["tolerance"]
    if tolerance["worst_relative_error"] is None:
        print("no relative errors to check against the tolerance")
        return 0
    verdict = "OK" if tolerance["within_tolerance"] else "FAIL"
    print(f"worst relative error {tolerance['worst_relative_error']:.4g} vs tolerance "
          f"{tolerance['compare_tolerance']:g}: {verdict}")
    return 0 if tolerance["within_tolerance"] else 1


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
        stochastic = _read(config.setdefault("stochastic", {}), "stochastic", "a mapping")
        stochastic["seed"] = args.seed
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
