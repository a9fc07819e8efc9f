"""Command-line front end: analyze, synthesize, simulate, report.

Scenario configs and run reports are JSON, checked field by field in
``parse_config``; matrices are nested row arrays of numbers at full
round-trip precision so certificates stay auditable. Exit codes:
0 certified / success, 1 input or usage error, 2 no certificate found (a dual
certificate is attached when one proves none exists), 3 verification
failure (a tampered report or a failed internal check).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, lmi, sim, synthesis
from .errors import AssumptionViolated, ConfigError, InvalidMatrix, NcsPassiveError
from .model import (
    Gain,
    LossModel,
    Plant,
    Schedule,
    closed_loop,
    full_packet_schedule,
    mode_distribution,
)
from .numerics import DEFAULT_MARGIN, DefinitenessMargin

__all__ = ["main", "load_config", "ScenarioConfig", "EXIT_OK", "EXIT_INPUT", "EXIT_INDETERMINATE", "EXIT_VERIFY"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INDETERMINATE = 2
EXIT_VERIFY = 3

_TOP_KEYS = {"plant", "schedule", "loss", "eta", "gain", "solver", "simulation"}
_PLANT_KEYS = {"A", "B1", "B2", "C1", "D11", "D12"}
# Numeric fields: key -> (default, bounds passed to _number).
_INT_FROM_0 = {"integer": True, "minimum": 0}
_INT_FROM_1 = {"integer": True, "minimum": 1}
# a simulation size numpy can index at all; larger ones are refused before anything is allocated
_INDEX_MAX = int(np.iinfo(np.intp).max)
_SIZE = {**_INT_FROM_1, "maximum": _INDEX_MAX}
# largest |entry| of a plant or gain matrix: the product of any two entries stays finite
ENTRY_BOUND = 1e150
_SOLVER_FIELDS = {
    # the open interval DefinitenessMargin accepts
    "margin": (DEFAULT_MARGIN.epsilon_rel, {"above": 0.0, "below": 1.0}),
    "budget": (lmi.MAX_ITERS, _INT_FROM_1),
    "restarts": (8, _INT_FROM_1),
    "seed": (0, _INT_FROM_0),
}
_SIM_FIELDS = {
    "horizon": (200, _SIZE),
    "trials": (100, _SIZE),
    "seed": (1234, _INT_FROM_0),
    "terminal_threshold": (1e-3, {"above": 0.0}),
}
_SIM_KEYS = set(_SIM_FIELDS) | {"signal", "x0"}
_SIGNAL_FIELDS = {
    "sigma": {},
    "amplitude": {},
    "magnitude": {},
    "period": _INT_FROM_1,
    "step": _INT_FROM_0,
}


@dataclass
class SimSettings:
    signal: sim.InputSignal
    horizon: int
    trials: int
    seed: int
    terminal_threshold: float
    x0: list | None = None


@dataclass
class ScenarioConfig:
    plant: Plant
    schedule: Schedule
    loss: LossModel
    eta: float | str | None
    gain: Gain | None
    margin: DefinitenessMargin
    budget: int  # Newton steps per solve
    simulation: SimSettings
    raw: dict


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}")


def _number(value, where: str, *, integer=False, minimum=None, maximum=None, above=None,
            below=None, magnitude=None, finite=True):
    """``value`` as an int or float within bounds, else ConfigError naming ``where``.

    ``finite=False`` also takes inf and nan, which reports hold that were
    written before non-finite values became null.
    """
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or (finite and isinstance(value, float) and not math.isfinite(value))
        or (integer and value != int(value))
    ):
        expected = "an integer" if integer else "a finite number" if finite else "a number"
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{where}: must be > {above}, got {value!r}")
    if below is not None and value >= below:
        raise ConfigError(f"{where}: must be < {below}, got {value!r}")
    if magnitude is not None and abs(value) > magnitude:
        raise ConfigError(f"{where}: magnitude must be <= {magnitude:g}, got {value!r}")
    return int(value) if integer else float(value)


def _fields(spec: dict, fields: dict, where: str) -> dict:
    return {
        key: _number(spec.get(key, default), f"{where}.{key}", **bounds)
        for key, (default, bounds) in fields.items()
    }


def _matrix(value, where: str, magnitude=None) -> list:
    if not (isinstance(value, list) and value and all(isinstance(r, list) and r for r in value)):
        raise ConfigError(f"{where}: expected a non-empty nested array of numbers")
    width = len(value[0])
    if any(len(r) != width for r in value):
        raise ConfigError(f"{where}: rows have inconsistent lengths")
    for i, row in enumerate(value):
        for j, v in enumerate(row):
            _number(v, f"{where}[{i}][{j}]", magnitude=magnitude)
    return value


def _gain(value, where: str, plant: Plant) -> Gain:
    """A gain matrix of the plant's m2 x n shape, else ConfigError naming ``where``."""
    gain = Gain(_matrix(value, where, ENTRY_BOUND))
    if gain.K.shape != (plant.m2, plant.n):
        raise ConfigError(
            f"{where}: must be {plant.m2}x{plant.n}, got {gain.K.shape[0]}x{gain.K.shape[1]}"
        )
    return gain


def parse_config(data: dict, where: str = "config") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    _reject_unknown(data, _TOP_KEYS, where)

    plant_spec = data.get("plant")
    if not isinstance(plant_spec, dict):
        raise ConfigError(f"{where}.plant: required object missing")
    _reject_unknown(plant_spec, _PLANT_KEYS, f"{where}.plant")
    missing = sorted(_PLANT_KEYS - set(plant_spec))
    if missing:
        raise ConfigError(f"{where}.plant: missing field(s) {missing}")
    matrices = {k: _matrix(plant_spec[k], f"{where}.plant.{k}", ENTRY_BOUND)
                for k in sorted(_PLANT_KEYS)}
    try:
        plant = Plant(**matrices)
    except NcsPassiveError as exc:
        raise ConfigError(f"{where}.plant: {exc}") from exc

    sched_spec = data.get("schedule", "full-packet")
    if sched_spec == "full-packet":
        schedule = full_packet_schedule()
    elif isinstance(sched_spec, dict):
        _reject_unknown(sched_spec, {"period", "s1", "s2"}, f"{where}.schedule")
        period = _number(sched_spec.get("period"), f"{where}.schedule.period", **_INT_FROM_1)
        patterns = {}
        for key in ("s1", "s2"):
            pattern = sched_spec.get(key)
            if not isinstance(pattern, list):
                raise ConfigError(f"{where}.schedule.{key}: expected an array of integers")
            patterns[key] = tuple(_number(v, f"{where}.schedule.{key}[{i}]", **_INT_FROM_0)
                                  for i, v in enumerate(pattern))
        try:
            schedule = Schedule(period=period, **patterns)
        except ValueError as exc:
            raise ConfigError(f"{where}.schedule: {exc}") from exc
    else:
        raise ConfigError(f'{where}.schedule: expected "full-packet" or an object')
    for key, count, what in (("s1", plant.n, "sensor"), ("s2", plant.m2, "actuator")):
        worst = max(getattr(schedule, key))
        if worst > count:
            raise ConfigError(
                f"{where}.schedule.{key}: {what} index {worst} exceeds the plant's {count} {what}(s)"
            )

    loss_spec = data.get("loss")
    if not isinstance(loss_spec, dict):
        raise ConfigError(f"{where}.loss: required object missing")
    _reject_unknown(loss_spec, {"alpha1", "alpha2"}, f"{where}.loss")
    try:
        loss = LossModel(**{key: _number(loss_spec.get(key), f"{where}.loss.{key}")
                            for key in ("alpha1", "alpha2")})
    except ValueError as exc:
        raise ConfigError(f"{where}.loss: {exc}") from exc

    eta = data.get("eta")
    if eta is not None and eta != "maximize":
        if isinstance(eta, bool) or not isinstance(eta, (int, float)):
            raise ConfigError(f'{where}.eta: expected a number >= 0 or "maximize", got {eta!r}')
        # 2 eta I must stay finite in the dissipation and synthesis forms
        eta = _number(eta, f"{where}.eta", minimum=0.0, magnitude=ENTRY_BOUND)

    gain = _gain(data["gain"], f"{where}.gain", plant) if "gain" in data else None

    solver_spec = data.get("solver", {})
    if not isinstance(solver_spec, dict):
        raise ConfigError(f"{where}.solver: expected an object")
    _reject_unknown(solver_spec, set(_SOLVER_FIELDS), f"{where}.solver")
    # restarts and seed are still bound-checked, but the barrier solver uses neither
    solver = _fields(solver_spec, _SOLVER_FIELDS, f"{where}.solver")

    sim_spec = data.get("simulation", {})
    if not isinstance(sim_spec, dict):
        raise ConfigError(f"{where}.simulation: expected an object")
    _reject_unknown(sim_spec, _SIM_KEYS, f"{where}.simulation")
    signal_spec = sim_spec.get("signal", {"kind": "white-noise", "sigma": 1.0})
    if not isinstance(signal_spec, dict) or "kind" not in signal_spec:
        raise ConfigError(f'{where}.simulation.signal: expected an object with "kind"')
    _reject_unknown(signal_spec, set(_SIGNAL_FIELDS) | {"kind"}, f"{where}.simulation.signal")
    kind = signal_spec["kind"]
    if kind not in sim.SIGNAL_KINDS:
        raise ConfigError(
            f"{where}.simulation.signal.kind: expected one of {list(sim.SIGNAL_KINDS)}, got {kind!r}"
        )
    signal = sim.InputSignal(kind=kind, dimension=plant.m1, **{
        key: _number(value, f"{where}.simulation.signal.{key}", **_SIGNAL_FIELDS[key])
        for key, value in signal_spec.items() if key != "kind"
    })
    x0 = sim_spec.get("x0")
    if x0 is not None:
        if not isinstance(x0, list) or len(x0) != plant.n:
            raise ConfigError(f"{where}.simulation.x0: expected an array of {plant.n} numbers")
        x0 = [_number(v, f"{where}.simulation.x0[{i}]") for i, v in enumerate(x0)]
    settings = _fields(sim_spec, _SIM_FIELDS, f"{where}.simulation")
    # numpy must be able to size a trial's (horizon + 1) x width float64 arrays
    width = max(plant.n, plant.m1, plant.p1, plant.m2, 2)
    _number(settings["horizon"], f"{where}.simulation.horizon", maximum=_INDEX_MAX // (8 * width) - 1)
    simulation = SimSettings(signal=signal, x0=x0, **settings)

    return ScenarioConfig(
        plant=plant,
        schedule=schedule,
        loss=loss,
        eta=eta,
        gain=gain,
        margin=DefinitenessMargin(solver["margin"]),
        budget=solver["budget"],
        simulation=simulation,
        raw=data,
    )


def _read_json(path, prefix: str = ""):
    """The JSON value in the file at ``path``, else ConfigError naming ``prefix``
    and the path, and for a parse error its line and column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{prefix}{path}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"{prefix}{path}: empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{prefix}{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file; unknown fields are rejected."""
    return parse_config(_read_json(path), where=str(path))


# ---------------------------------------------------------------------------
# report helpers


def _digest(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(canonical).hexdigest()


def _mat(m) -> list:
    return np.asarray(m, dtype=float).tolist()


def _certified(certificate: lmi.LmiCertificate, **fields) -> dict:
    """The report section of a certificate: status, ``fields``, and verify at its problem's margin."""
    return {
        "status": "certified",
        **fields,
        "verify": {
            "margin_epsilon_rel": certificate.problem.margin.epsilon_rel,
            "constraints": [
                {"name": c.name, "lambda_max": c.lambda_max, "threshold": c.threshold}
                for c in certificate.report.checks
            ],
        },
    }


def _dual_dict(dual: dict | None) -> dict | None:
    return None if dual is None else {name: _mat(z) for name, z in dual.items()}


def _refusal(result: lmi.Indeterminate, eta) -> dict:
    """The report section of an Indeterminate at ``eta``, a number or "maximize"."""
    if eta == "maximize":
        # a maximize search that fails fails at eta = 0, which a dual refutes
        eta = 0.0 if result.dual is not None else None
    return {
        "status": "indeterminate",
        "eta": eta,
        "reason": result.message,
        "best_value": result.best_value,
        "iterations": result.iterations,
        "dual": _dual_dict(result.dual),
    }


def _finite(value, path: str, nulled: list):
    """``value`` with each non-finite float (a diverging run's statistic) as
    None, its dotted path, or its array's, appended to ``nulled``."""
    if isinstance(value, float) and not math.isfinite(value):
        nulled.append(path)
        return None
    if isinstance(value, dict):
        return {k: _finite(v, f"{path}.{k}" if path else k, nulled) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v, path, nulled) for v in value]
    return value


def _write_report(out_path, command: str, config: ScenarioConfig, results: dict, started: float) -> None:
    nulled: list = []
    results = _finite(results, "", nulled)
    if nulled:
        results["non_finite"] = sorted(set(nulled))
    report = {
        "tool": {"name": "ncspassive", "version": __version__},
        "command": command,
        "config": config.raw,
        "config_digest": _digest(config.raw),
        "results": results,
        "results_digest": _digest(results),
        "timing": {"seconds": time.time() - started},
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    try:
        _rewrite(out_path, text.encode())
    except OSError as exc:
        raise ConfigError(f"--out {out_path}: {exc.strerror}") from None


def _rewrite(path, data: bytes) -> None:
    """Write ``data`` to ``path`` in place, as ``Path.write_text`` would, without O_TRUNC.

    The mode (0o666 less the umask), the symlinks followed and the bytes left
    are ``write_text``'s. An existing report is overwritten and then cut to
    ``len(data)``, not truncated to 0 first: ext4 flushes a file truncated to
    0 and rewritten when it is closed. On a 2-core x86 VM a 2 KB rewrite
    takes a median 0.5 ms that way and 0.1 ms in place. Only a regular file
    is cut, so ``--out /dev/null`` works.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# commands


def _sms(config: ScenarioConfig, gain: Gain, dist) -> analysis.SmsReport:
    """The SMS oracle's report, else ConfigError where the second moments overflow float64.

    Such a plant is an input problem, as an entry above ENTRY_BOUND is; analyze
    calls this first, so no later product of the same operators warns.
    """
    families = [closed_loop(config.plant, gain, k, config.schedule)
                for k in range(config.schedule.period)]
    with np.errstate(over="raise"):
        try:
            return analysis.sms_oracle(families, dist)
        except FloatingPointError:
            raise ConfigError("plant: the closed loop's second moments overflow float64 "
                              "within one period of the schedule") from None


def cmd_analyze(config: ScenarioConfig) -> dict:
    if config.eta is not None and not config.schedule.full_packet:
        raise ConfigError("passivity analysis requires the full-packet schedule")
    gain = config.gain or Gain.zero(config.plant.m2, config.plant.n)
    dist = mode_distribution(config.loss)
    results: dict = {"gain": _mat(gain.K)}

    sms = _sms(config, gain, dist)
    results["sms"] = {"rho": sms.rho, "stable": sms.stable, "borderline": sms.borderline}

    stab = analysis.stability_lmi(config.plant, gain, config.schedule, dist, config.margin)
    if stab.feasible:
        results["stability"] = _certified(stab, P=[_mat(p) for p in stab.ps])
    else:
        results["stability"] = {
            "status": "indeterminate",
            "reason": stab.message,
            "dual": _dual_dict(stab.dual),
        }

    if config.eta is not None:
        pas = analysis.passivity_lmi(config.plant, gain, dist, config.eta, config.margin, config.budget)
        if pas.feasible:
            # rho is the full-packet loop's, which passivity requires
            results["passivity"] = _certified(pas, eta=pas.eta, P=_mat(pas.assignment["P"]),
                                              rho=sms.rho)
        else:
            results["passivity"] = _refusal(pas, config.eta)
    return results


def cmd_synthesize(config: ScenarioConfig) -> dict:
    if not config.schedule.full_packet:
        raise ConfigError("synthesis requires full-packet: set schedule to \"full-packet\"")
    eta = config.eta if config.eta is not None else 0.0
    result = synthesis.synthesize(config.plant, config.loss, eta, config.margin, config.budget)
    if not result.feasible:
        return {"synthesis": _refusal(result, eta)}
    return {"synthesis": _certified(
        result.passivity, eta=result.eta, K=_mat(result.gain.K),
        P=_mat(result.passivity.assignment["P"]), X=_mat(result.x), Y=_mat(result.y), rho=result.rho)}


def _gain_from_spec(spec: str, plant: Plant) -> Gain:
    """--gain accepts a report path, a JSON matrix literal, or a matrix file."""
    try:
        data = json.loads(spec)
    except json.JSONDecodeError:
        data = _read_json(spec, "--gain: ")
    if isinstance(data, dict):
        try:
            data = data["results"]["synthesis"]["K"]
        except (KeyError, TypeError):
            raise ConfigError(f"--gain: report {spec!r} carries no synthesized K") from None
    return _gain(data, "--gain", plant)


def cmd_simulate(config: ScenarioConfig, out_path, gain_spec: str | None, dump_traces: bool) -> dict:
    if gain_spec is not None:
        gain = _gain_from_spec(gain_spec, config.plant)
    elif config.gain is not None:
        gain = config.gain
    else:
        raise ConfigError("simulate needs a gain: set config.gain or pass --gain")

    s = config.simulation
    eta = config.eta if isinstance(config.eta, float) else 0.0
    on_trace = None
    if dump_traces:
        trace_dir = Path(str(out_path) + ".traces")
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_path}: {exc.strerror}") from None

        def on_trace(trace):
            sim.trace_to_csv(trace, trace_dir / f"trace_{trace.seed - s.seed:04d}.csv")

    stats = sim.ensemble(
        config.plant,
        gain,
        config.schedule,
        config.loss,
        s.signal,
        s.horizon,
        s.trials,
        s.seed,
        x0=s.x0,
        eta=eta,
        terminal_threshold=s.terminal_threshold,
        on_trace=on_trace,
    )
    results = {
        "gain": _mat(gain.K),
        "ensemble": {key: value.tolist() if isinstance(value, np.ndarray) else value
                     for key, value in vars(stats).items()},
    }
    try:
        beta, alpha = sim.decay_fit(stats)
        results["ensemble"]["decay_fit"] = {"beta": beta, "alpha": alpha}
    except NcsPassiveError as exc:
        results["ensemble"]["decay_fit"] = None
        results["ensemble"]["decay_fit_unavailable"] = str(exc)

    if dump_traces:
        results["traces_dir"] = trace_dir.name
    return results


def _recheck(label: str, entry: dict, build, assignment) -> tuple[list[str], list[str]]:
    """Re-verify one report section: (problems, what was checked).

    A certified section's ``assignment()`` goes through ``lmi.verify`` on
    the problem ``build()`` poses, any other section's stored dual through
    ``lmi.verify_dual``; a section holding neither has nothing to check.
    """
    if entry.get("status") == "certified":
        if _passes(lmi.verify, build(), assignment()):
            return [], [label]
        return [f"{label}: stored certificate no longer verifies"], [label]
    if entry.get("dual") is None:
        return [], []
    problem = build()
    dual = _stored_dual(entry["dual"], f"results.{label}.dual", problem)
    if _passes(lmi.verify_dual, problem, dual):
        return [], [f"{label} dual"]
    return [f"{label}: stored dual certificate no longer verifies"], [f"{label} dual"]


def _passes(check, problem: lmi.LmiProblem, values: dict) -> bool:
    """``check(problem, values).passed``, False where a form overflows: it cannot verify."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return check(problem, values).passed
        except InvalidMatrix:  # the non-finite form
            return False


def _stored_dual(dual, where: str, problem: lmi.LmiProblem) -> dict:
    """A report's multiplier for each of ``problem``'s constraints, else ConfigError naming the field."""
    if not isinstance(dual, dict):
        raise ConfigError(f"{where}: expected an object")
    for name, _ in problem.constraints:
        if name not in dual:
            raise ConfigError(f"{where}.{name}: missing multiplier")
    return {name: _matrix(dual[name], f"{where}.{name}") for name, _ in problem.constraints}


def _reverify(command: str, config: ScenarioConfig, results: dict) -> tuple[list[str], list[str]]:
    """Re-verify a report's certificates and duals: (problems, what was checked).

    A certified gain, analyzed or synthesized, is re-verified on ``analysis.passivity_problem``;
    a synthesize report that stores no ``P`` was certified by P = X^{-1}."""
    plant, dist, margin = config.plant, mode_distribution(config.loss), config.margin

    def level(label):
        return _number(results.get(label, {}).get("eta"), f"results.{label}.eta", minimum=0,
                       magnitude=ENTRY_BOUND)

    if command == "synthesize":
        synth = results.get("synthesis", {})

        def stored(key):
            return _matrix(synth.get(key), f"results.synthesis.{key}", ENTRY_BOUND)

        if synth.get("status") != "certified":  # a refusal: only a stored dual, on the synthesis LMI
            return _recheck("synthesis", synth, lambda: synthesis.build_synthesis_lmi(
                plant, dist, level("synthesis"), margin), None)
        problems, checked = _recheck(
            "synthesis", synth,
            lambda: analysis.passivity_problem(
                plant, Gain(stored("K")), dist, level("synthesis"), margin),
            lambda: {"P": stored("P") if "P" in synth else np.linalg.inv(stored("X"))})
        recovered = synthesis.recover_gain(stored("X"), stored("Y")).K
        if not np.allclose(recovered, np.asarray(stored("K"), dtype=float), rtol=1e-8, atol=1e-10):
            problems.append("synthesis: stored K is not Y X^{-1} of the stored transform")
        return problems, checked
    gain = Gain(_matrix(results.get("gain"), "results.gain", ENTRY_BOUND))
    stab, pas = results.get("stability", {}), results.get("passivity", {})
    ps = stab.get("P", [])
    if not isinstance(ps, list):
        raise ConfigError("results.stability.P: expected an array of matrices")
    if stab.get("status") == "certified" and len(ps) != config.schedule.period:
        problems = ["stability: stored P count does not match schedule period"]
        checked = ["stability"]
    else:
        problems, checked = _recheck(
            "stability", stab,
            lambda: analysis.stability_problem(plant, gain, config.schedule, dist, margin),
            lambda: {f"P{k}": _matrix(p, f"results.stability.P[{k}]", ENTRY_BOUND)
                     for k, p in enumerate(ps)})
        if "stability dual" in checked:  # a refutation needs the SMS oracle's verdict too
            sms = _sms(config, gain, dist)
            if sms.stable:
                problems.append(
                    f"stability: a stored dual refutes a loop whose rho = {sms.rho!r} < 1")
    found, seen = _recheck(
        "passivity", pas,
        lambda: analysis.passivity_problem(plant, gain, dist, level("passivity"), margin),
        lambda: {"P": _matrix(pas.get("P"), "results.passivity.P", ENTRY_BOUND)})
    return problems + found, checked + seen


def _shown(entry: dict, path: str, spec: str, nulled) -> str:
    """The display number at ``path``, or n/a where the writer nulled a non-finite value."""
    value = entry.get(path.rpartition(".")[2])
    if value is None and isinstance(nulled, list) and path in nulled:
        return "n/a"
    return format(_number(value, f"results.{path}", finite=False), spec)


def _worst_slack(entry: dict, section: str) -> float:
    """min over a certified section's stored checks of threshold - lambda_max, else ConfigError naming the field."""
    where = f"results.{section}.verify.constraints"
    checks = entry["verify"].get("constraints") if isinstance(entry["verify"], dict) else None
    if not (isinstance(checks, list) and checks):
        raise ConfigError(f"{where}: expected a non-empty array")
    slacks = []
    for i, check in enumerate(checks):
        if not isinstance(check, dict):
            raise ConfigError(f"{where}[{i}]: expected an object")
        slacks.append(_number(check.get("threshold"), f"{where}[{i}].threshold")
                      - _number(check.get("lambda_max"), f"{where}[{i}].lambda_max"))
    return min(slacks)


# Report sections that are objects when present; report reads them by key.
_REPORT_SECTIONS = ("synthesis", "stability", "passivity", "sms", "ensemble")


def cmd_report(report_path) -> int:
    """Summarize and re-verify a report; a malformed one raises ConfigError."""
    report = _read_json(report_path)
    if not isinstance(report, dict):
        raise ConfigError(f"malformed report: {report_path}: top level is not an object")
    for key in ("command", "config", "results"):
        if key not in report:
            raise ConfigError(f"{report_path}: missing {key!r}")
    results = report["results"]
    bad = "results" if not isinstance(results, dict) else next(
        (key for key in _REPORT_SECTIONS if not isinstance(results.get(key, {}), dict)), None)
    if bad:
        raise ConfigError(f"malformed report: {bad!r} is not an object")
    config = parse_config(report["config"], where=f"{report_path}#config")
    command = report["command"]
    if command not in ("analyze", "synthesize", "simulate"):
        raise ConfigError(f"unknown command {command!r} in report")

    lines = [f"command: {command}", f"tool: {report.get('tool', {})}"]
    nulled = results.get("non_finite", [])

    problems: list[str] = []
    checked: list[str] = []
    if report.get("config_digest") != _digest(report["config"]):
        problems.append("config digest mismatch")
    if report.get("results_digest") != _digest(results):
        problems.append("results digest mismatch")
    try:
        if command in ("analyze", "synthesize"):
            found, checked = _reverify(command, config, results)
            problems += found
        if command == "analyze":
            sms = results.get("sms", {})
            rho = _shown(sms, "sms.rho", ".6f", nulled)
            lines.append(f"rho = {rho} (stable: {sms.get('stable')})")
            for section in ("stability", "passivity"):
                if section in results:
                    entry = results[section]
                    lines.append(f"{section}: {entry.get('status')}")
                    if entry.get("status") == "certified" and "verify" in entry:
                        lines.append(f"  worst margin slack: {_worst_slack(entry, section):.3e}")
                    if entry.get("reason"):
                        lines.append(f"  reason: {entry['reason']}")
                    if section == "passivity" and entry.get("eta") is not None:
                        lines.append(f"  eta = {_number(entry['eta'], 'results.passivity.eta')}")
        elif command == "synthesize":
            synth = results.get("synthesis", {})
            lines.append(f"synthesis: {synth.get('status')}")
            if synth.get("reason"):
                lines.append(f"  reason: {synth['reason']}")
            if synth.get("dual") is not None:
                lines.append(f"  refuted eta = {synth['eta']}")
            if synth.get("status") == "certified":
                lines.append(f"  eta = {synth['eta']}")
                lines.append(f"  K = {synth['K']}")
                lines.append(f"  rho = {_number(synth.get('rho'), 'results.synthesis.rho'):.6f}")
        else:
            ens = results.get("ensemble", {})
            mean, se = (_shown(ens, f"ensemble.{key}", ".4f", nulled)
                        for key in ("dissipation_mean", "dissipation_se"))
            lines.append(f"ensemble: {ens.get('trials')} trials x {ens.get('horizon')} steps, "
                         f"dissipation {mean} +- {se}")
            fit = ens.get("decay_fit")
            if fit:
                alpha = _number(fit.get("alpha") if isinstance(fit, dict) else None,
                                "results.ensemble.decay_fit.alpha", finite=False)
                lines.append(f"  decay fit alpha = {alpha:.4f}")
            elif ens.get("decay_fit_unavailable"):
                lines.append(f"  decay fit unavailable: {ens['decay_fit_unavailable']}")
    except (KeyError, TypeError, ValueError, NcsPassiveError) as exc:
        raise ConfigError(f"malformed report: {exc}") from exc

    print("\n".join(lines))
    if problems:
        for p in problems:
            print(f"VERIFICATION FAILURE: {p}", file=sys.stderr)
        return EXIT_VERIFY
    if command == "simulate":
        print("ok")
    elif checked:
        print(f"certificates re-verified: {', '.join(checked)}")
    else:
        print("nothing to re-verify: the report holds no certificate or dual (digests match)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that exits EXIT_INPUT, not 2, on a usage error; 2 means no certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The CLI's argument parser, built on the first call and then reused.

    Building it (four subcommands, their flags, a help formatter per flag)
    costs about half a millisecond, as much as a whole ``report``; it holds
    no state between ``parse_args`` calls, each of which returns a fresh
    namespace, so one parser serves every ``main`` call of a process.
    """
    parser = _Parser(
        prog="ncspassive",
        description="Passivity analysis and synthesis for lossy networked control loops.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario config JSON")
    common.add_argument("--out", default="ncspassive-report.json", help="report output path")
    common.add_argument("--eta", help='override config eta (number or "max")')
    solver = argparse.ArgumentParser(add_help=False)  # simulate reads neither field
    solver.add_argument("--margin", help="override margin epsilon")
    solver.add_argument("--budget", help="override solver iteration budget")
    sub.add_parser("analyze", parents=[common, solver],
                   help="certify stability and passivity of a given gain")
    sub.add_parser("synthesize", parents=[common, solver], help="solve for a passivating gain")
    p_sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo ensemble for a gain")
    p_sim.add_argument("--gain", help="gain source: report JSON path or inline matrix")
    p_sim.add_argument("--dump-traces", action="store_true", help="write per-trace CSVs")
    p_rep = sub.add_parser("report", help="summarize and re-verify a report file")
    p_rep.add_argument("report", help="report JSON path")
    return parser


def main(argv=None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``) and return its exit code.

    ``analyze``, ``synthesize`` and ``simulate`` return their results, and
    the report is written here; the exit code is EXIT_INDETERMINATE when a
    results section has status "indeterminate". May be called any number
    of times in one process: the parser is built on the first call only,
    and nothing carries over between calls. A usage error raises
    ``SystemExit(1)``, ``--help`` and ``--version`` ``SystemExit(0)``.
    """
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.report)
        config = _apply_overrides(args)
        started = time.time()
        if args.command == "analyze":
            results = cmd_analyze(config)
        elif args.command == "synthesize":
            results = cmd_synthesize(config)
        else:
            results = cmd_simulate(config, args.out, args.gain, args.dump_traces)
        _write_report(args.out, args.command, config, results, started)
        refused = any(isinstance(section, dict) and section.get("status") == "indeterminate"
                      for section in results.values())
        return EXIT_INDETERMINATE if refused else EXIT_OK
    except (ConfigError, AssumptionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NcsPassiveError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def _flag_value(text: str):
    """A flag's text as an int, else a float, else unchanged for _number to reject."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _apply_overrides(args) -> ScenarioConfig:
    """The config file with --eta, and for analyze and synthesize --margin/--budget, merged in.

    Each flag is checked against its config field's bounds, so an error
    names the flag; the merged config is then parsed again, in memory.
    """
    config = load_config(args.config)
    data = dict(config.raw)
    if args.eta is not None:
        if args.eta in ("max", "maximize"):
            data["eta"] = "maximize"
        else:
            data["eta"] = _number(_flag_value(args.eta), "--eta", minimum=0.0, magnitude=ENTRY_BOUND)
    solver = {
        key: _number(_flag_value(getattr(args, key)), f"--{key}", **_SOLVER_FIELDS[key][1])
        for key in ("margin", "budget")
        if getattr(args, key, None) is not None
    }
    if solver:
        data["solver"] = {**data.get("solver", {}), **solver}
    return config if data == config.raw else parse_config(data, where=str(args.config))


if __name__ == "__main__":
    sys.exit(main())
