"""The three benchmark workloads, their inputs and their per-op oracles.

Each workload is built from a seed by its constructor (that is the
set-up the benchmark times) and then hands out *units*: callables that
run one timed op, or a short chain of them, and record the outcome on a
:class:`Tally`. Units come in passes over a fixed pool of inputs. A run
cycles through the pool until its time is up, and every timing metric
is taken over the *fastest* time each input reached, then a median or
sum over inputs. On a shared machine whose cores slow down by half for
seconds at a time, the fastest repeat of identical work is the figure
that repeats from run to run.

A failed op is counted and the run goes on. ``wrong`` counts the subset
of failures where the package returned an answer the oracle refutes (a
false certificate, a statistic outside its band); the rest are errors,
unexpected exit codes and exceptions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import replace

import numpy as np

import oracles
import stats
from speed import SpeedProbe

REF_PLANT = {"A": [[1.2]], "B1": [[1.0]], "B2": [[1.0]],
             "C1": [[0.5]], "D11": [[1.0]], "D12": [[0.0]]}
REF_LOSS = (0.0, 0.2)
SOLVER = {"margin": 1e-8, "budget": 300, "restarts": 8, "seed": 0}
MAX_FAILURE_NOTES = 20


class Tally:
    """Timed intervals per (op kind, input), plus attempted / failed / wrong counts.

    Intervals are scaled to the reference core only when read, so that the
    speed probe's bursts on both sides of an op are in by then.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.probe = probe or SpeedProbe()
        self._samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.counts: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str, *, wrong: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(what)
        return ok

    def between_ops(self) -> None:
        self.probe.sample()

    def time(self, kind: str, key, *intervals: tuple[float, float]) -> None:
        """One sample of op ``kind`` on input ``key``: the sum of its intervals."""
        self._samples[kind][key].append(intervals)

    def best(self, kind: str, where=None) -> list[float]:
        """Fastest sample, in reference-core seconds, of every input that ran op ``kind``.

        ``where(key)`` restricts the inputs.
        """
        scaled = self.probe.scaled
        return [min(sum(scaled(a, b) for a, b in sample) for sample in samples)
                for key, samples in self._samples[kind].items() if where is None or where(key)]


def _rng(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, index])


def _random_matrix(rng, rows, cols, scale=1.0):
    return (scale * rng.standard_normal((rows, cols))).tolist()


def _scaled_a(rng, n: int, radius: float) -> np.ndarray:
    a = rng.standard_normal((n, n))
    current = float(np.abs(np.linalg.eigvals(a)).max())
    return a * (radius / current) if current > 0 else a


def _latency(samples, unit: str, scale: float) -> dict:
    """Median and the highest percentile with ten samples beyond it."""
    xs = [scale * s for s in samples]
    q = stats.tail_percentile(len(xs))
    return {"value": stats.median(xs) if xs else 0.0, "unit": unit, "n": len(xs),
            "tail_p": q, "tail": stats.percentile(xs, q) if q is not None else None}


class Workload:
    """Common shape: ``units(pass_index)`` and the metric read-out."""

    name = ""
    salt = 0

    def __init__(self, pkg, seed: int, workdir: str) -> None:
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir

    def units(self, pass_index: int):
        raise NotImplementedError

    def end_to_end(self, tally: Tally) -> dict:
        """fast_ms, slow_ms and work_per_s, as this workload defines them."""
        raise NotImplementedError

    def named(self, tally: Tally) -> dict:
        """The workload's own metrics, under the names the README lists."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify-pipeline


class CertifyPipeline(Workload):
    """synthesize -> analyze -> simulate -> report, through ``cli.main``.

    A pass runs five scenarios: the README reference loop, three scalar
    variants in A and the loss rates, and one structurally infeasible
    A = 2 loop, which must exit 2 after ``synthesize``.

    The reference loop and the scalar variants are fixed, and the
    variants were picked to need about as many solver iterations as the
    reference (about 5800 in synthesize, 5600 in analyze). The cost of a
    maximize bisection comes in steps of one budget-exhausting probe
    (2400 iterations), so scalar loops drawn at random would move the
    medians by whole steps from seed to seed. The seed draws the
    infeasible loop's loss rates and solver seed and every simulation
    seed.

    Random full-packet plants are not in the timed pool: on some of them
    ``synthesize`` hits the known round-trip defect and exits 3, which
    the timed runs must not contain. :class:`RandomPlantCensus` runs
    them through the same pipeline and counts those failures.
    """

    name = "certify-pipeline"
    salt = 11
    FAMILIES = ("reference", "scalar", "infeasible", "scalar", "scalar")
    # (A, alpha1, alpha2) of the scalar variants, in pass order
    SCALARS = ((1.22, 0.0, 0.19), (1.19, 0.03, 0.22), (1.25, 0.0, 0.2))
    REPORT_REPEATS = 3
    FIXED = ("reference", "scalar")

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.cli = pkg.cli
        rng = _rng(seed, self.salt, 0)
        scalars = iter(self.SCALARS)
        self.scenarios = [
            self._scenario(rng, slot, family, next(scalars) if family == "scalar" else None)
            for slot, family in enumerate(self.FAMILIES)
        ]

    def _scenario(self, rng, slot: int, family: str, variant) -> dict:
        solver = dict(SOLVER, seed=int(rng.integers(0, 4)))
        expect = 0
        if family == "reference":
            plant, loss, solver = REF_PLANT, REF_LOSS, dict(SOLVER)
        elif family == "scalar":
            plant, loss, solver = dict(REF_PLANT, A=[[variant[0]]]), variant[1:], dict(SOLVER)
        elif family == "infeasible":
            # (1 - a11) * A^2 >= 1 for every gain: no second-moment stable loop exists
            plant = dict(REF_PLANT, A=[[2.0]])
            loss = (float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.25, 0.35)))
            expect = 2
        else:
            n = 2 + slot % 3
            plant = {
                "A": _scaled_a(rng, n, float(rng.uniform(0.9, 1.1))).tolist(),
                "B1": _random_matrix(rng, n, 1, 0.3),
                "B2": _random_matrix(rng, n, 1),
                "C1": _random_matrix(rng, 1, n, 0.3),
                "D11": [[1.0]],
                "D12": [[0.0]],
            }
            loss = (float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.05, 0.15)))
        config = {
            "plant": plant,
            "schedule": "full-packet",
            "loss": {"alpha1": loss[0], "alpha2": loss[1]},
            "eta": "maximize",
            "solver": solver,
            "simulation": {"signal": {"kind": "white-noise", "sigma": 1.0},
                           "horizon": 100, "trials": 20,
                           "seed": int(rng.integers(0, 2**31))},
        }
        path = os.path.join(self.workdir, f"scenario-{slot}")
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "config.json"), "w") as fh:
            json.dump(config, fh)
        return {"name": f"{family}#{slot}", "dir": path, "config": config, "expect": expect}

    def units(self, pass_index):
        for scenario in self.scenarios:
            yield lambda tally, s=scenario: self.pipeline(s, tally)

    def command(self, argv: list):
        """One timed ``cli.main`` call: (exit code or traceback text, (start, end))."""
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed op, never the end of the run
            code = traceback.format_exc(limit=2)
        return code, (start, time.perf_counter())

    def step(self, tally: Tally, name: str, kind: str, argv: list, spans: list, expect: int = 0,
             check=None, repeats: int = 1) -> bool:
        """One command as one op: right exit code, then the oracle on its output.

        A command of a few milliseconds runs ``repeats`` times; every run is
        a sample and the fastest counts. ``spans`` collects the first run's
        interval for the pipeline total.
        """
        tally.between_ops()
        runs = [self.command(argv) for _ in range(repeats)]
        for _, interval in runs:
            tally.time(kind, (name, argv[-1]), interval)
        spans.append(runs[0][1])
        code = next((c for c, _ in runs if c != expect), expect)
        if code != expect:
            return tally.op(False, f"{name}: {kind} exit {code!r}, expected {expect}")
        if check is None:
            return tally.op(True, "")
        try:
            problem = check()
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        return tally.op(not problem, f"{name}: {kind}: {problem}", wrong=True)

    def pipeline(self, scenario: dict, tally: Tally, expect: int | None = None) -> None:
        """The scenario's commands in order; the first failed op ends the scenario."""
        d, name, config = scenario["dir"], scenario["name"], scenario["config"]
        expect = scenario["expect"] if expect is None else expect
        cfg, analyze_cfg = os.path.join(d, "config.json"), os.path.join(d, "analyze-config.json")
        synth, anal, simu = (os.path.join(d, f) for f in ("synth.json", "analyze.json", "sim.json"))
        spans: list = []

        if not self.step(tally, name, "synthesize", ["synthesize", "--config", cfg, "--out", synth],
                         spans, expect, None if expect else lambda: check_synthesis(config, synth)):
            return
        if expect == 0:
            with open(analyze_cfg, "w") as fh:
                json.dump(dict(config, gain=_results(synth)["synthesis"]["K"]), fh)
            steps = [
                ("analyze", ["analyze", "--config", analyze_cfg, "--out", anal],
                 lambda: check_analysis(config, anal)),
                ("simulate", ["simulate", "--config", cfg, "--out", simu, "--gain", synth],
                 lambda: check_simulation(config, simu)),
            ] + [("report", ["report", path], None) for path in (synth, anal, simu)]
            for kind, argv, check in steps:
                repeats = self.REPORT_REPEATS if kind == "report" else 1
                if not self.step(tally, name, kind, argv, spans, 0, check, repeats):
                    return
        tally.time("pipeline", (name, "pipeline"), *spans)

    def end_to_end(self, tally):
        # Means over the fixed loops: the infeasible loop's synthesize is a
        # single refused probe, and only the fixed loops run a pipeline.
        def fixed(key) -> bool:
            return key[0].partition("#")[0] in self.FIXED

        pipes = tally.best("pipeline", where=fixed)
        return {
            "fast_ms": 1e3 * statistics.fmean(tally.best("report", where=fixed)),
            "slow_ms": 1e3 * statistics.fmean(tally.best("synthesize", where=fixed)),
            "work_per_s": len(pipes) / sum(pipes),
        }

    def named(self, tally):
        return {
            "pipeline_s_p50": _latency(tally.best("pipeline"), "s", 1.0),
            "synthesize_s_p50": _latency(tally.best("synthesize"), "s", 1.0),
            "analyze_s_p50": _latency(tally.best("analyze"), "s", 1.0),
            "simulate_s_p50": _latency(tally.best("simulate"), "s", 1.0),
            "report_ms_p50": _latency(tally.best("report"), "ms", 1e3),
        }


class RandomPlantCensus(CertifyPipeline):
    """Random full-packet plants through the certify pipeline, one pass, untimed.

    Plant k has n = 2 + k mod 3 states, A scaled to a spectral radius in
    [0.9, 1.1], B1 and C1 scaled by 0.3, D11 = 1, loss rates alpha1 in
    [0, 0.1) and alpha2 in [0.05, 0.15), a solver seed in 0..3, all drawn
    from the seed. Every op is checked as in certify-pipeline; the known
    defect (``synthesize`` exits 3 when the round trip's fresh
    ``passivity_lmi`` finds no certificate at the bisection's eta) shows
    as failed ops. Nothing is filtered or re-drawn.
    """

    name = "random-plant-census"
    salt = 44
    FAMILIES = ("random",) * 6


def _results(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["results"]


def check_synthesis(config: dict, path) -> str:
    """Empty when the synthesized gain is second-moment stable and eta within bound."""
    plant, loss = config["plant"], config["loss"]
    result = _results(path)["synthesis"]
    probs = oracles.mode_probs(loss["alpha1"], loss["alpha2"])
    rho = oracles.second_moment_radius(
        oracles.loop_modes(plant["A"], plant["B2"], result["K"]), probs)
    bound = oracles.dissipation_upper_bound(plant["D11"])
    if result.get("status") != "certified" or rho >= 1.0 or not 0.0 <= result["eta"] <= bound:
        return f"gain with rho {rho:.6f}, eta {result.get('eta')} against bound {bound}"
    return ""


def check_analysis(config: dict, path) -> str:
    """Empty when both certificates of an analyze report survive the oracles."""
    plant, loss = config["plant"], config["loss"]
    results = _results(path)
    probs = oracles.mode_probs(loss["alpha1"], loss["alpha2"])
    slots = oracles.loop_modes(plant["A"], plant["B2"], results["gain"])
    stab, pas = results["stability"], results["passivity"]
    if stab["status"] != "certified" or pas["status"] != "certified":
        return "no certificate for a synthesized gain"
    if not oracles.lyapunov_certificate_ok(stab["P"], slots, probs):
        return "stability certificate refuted"
    if oracles.second_moment_radius(slots, probs) >= 1.0:
        return "passivity certified for a loop with rho >= 1"
    if not 0.0 <= pas["eta"] <= oracles.dissipation_upper_bound(plant["D11"]):
        return f"eta {pas['eta']} above the feedthrough bound"
    return ""


def check_simulation(config: dict, path) -> str:
    ens = _results(path)["ensemble"]
    if ens["trials"] != config["simulation"]["trials"] or not np.all(np.isfinite(ens["mean_sq_norm"])):
        return "ensemble statistics malformed"
    return ""


# ---------------------------------------------------------------------------
# stability-population


class StabilityPopulation(Workload):
    """Verdicts (``sms_oracle`` + ``stability_lmi``) on a random population.

    The pool holds 108 closed loops: six times, for every n in 1..6, one
    stable full-packet loop, one stable 2-periodic loop and one unstable
    loop (full-packet for odd n, periodic for even n). Stable means the
    benchmark's own radius is at most 0.98, unstable at least 1.02. Loss
    rates are uniform on [0, 0.5). An unstable loop costs the solver its
    whole budget, so its verdict time depends on n and the period, which
    the pool fixes, and not on the draw.
    """

    name = "stability-population"
    salt = 22
    SIZES = (1, 2, 3, 4, 5, 6)
    REPLICAS = 6
    CERTIFIED_REPEATS = 5

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.systems = []
        for r in range(self.REPLICAS):
            rng = _rng(seed, self.salt, r)
            for n in self.SIZES:
                for stable, periodic in ((True, False), (True, True), (False, n % 2 == 0)):
                    self.systems.append(self._draw(rng, n, stable, periodic))

    def _draw(self, rng, n: int, stable: bool, periodic: bool) -> dict:
        m = self.pkg.model
        while True:
            a = _scaled_a(rng, n, float(0.2 + 1.5 * rng.random()))
            b2 = rng.standard_normal((n, 1))
            k = 0.5 * rng.standard_normal((1, n))
            alpha = (float(0.5 * rng.random()), float(0.5 * rng.random()))
            sched = (2, (int(rng.integers(1, n + 1)), 0), (0, 1)) if periodic else (1, None, None)
            probs = oracles.mode_probs(*alpha)
            slots = oracles.loop_modes(a, b2, k, *sched)
            rho = oracles.second_moment_radius(slots, probs)
            if (rho <= 0.98) if stable else (rho >= 1.02):
                break
        plant = m.Plant(A=a, B1=rng.standard_normal((n, 1)), B2=b2,
                        C1=rng.standard_normal((1, n)), D11=[[1.0 + rng.random()]],
                        D12=rng.standard_normal((1, 1)))
        schedule = (m.Schedule(period=2, s1=sched[1], s2=sched[2]) if periodic
                    else m.full_packet_schedule())
        return {"plant": plant, "gain": m.Gain(k), "schedule": schedule,
                "dist": m.mode_distribution(m.LossModel(*alpha)),
                "slots": slots, "probs": probs, "rho": rho,
                "name": f"n={n} {'periodic' if periodic else 'full-packet'} rho={rho:.4f}"}

    def units(self, pass_index):
        for i, system in enumerate(self.systems):
            yield lambda tally, i=i, s=system: self.verdict(i, s, tally)

    def verdict(self, key, s: dict, tally: Tally) -> None:
        """Decide one loop; a certified loop (milliseconds) is decided CERTIFIED_REPEATS times."""
        analysis, model = self.pkg.analysis, self.pkg.model
        for attempt in range(self.CERTIFIED_REPEATS):
            start = time.perf_counter()
            try:
                families = [model.closed_loop(s["plant"], s["gain"], k, s["schedule"])
                            for k in range(s["schedule"].period)]
                sms = analysis.sms_oracle(families, s["dist"])
                result = analysis.stability_lmi(s["plant"], s["gain"], s["schedule"], s["dist"])
            except Exception:  # counted, never fatal
                tally.time("verdict", key, (start, time.perf_counter()))
                tally.op(False, f"{s['name']}: {traceback.format_exc(limit=1)}")
                return
            tally.time("verdict", key, (start, time.perf_counter()))
            if attempt == 0:
                self.check(s, sms, result, tally)
            if not result.feasible:
                return

    def check(self, s: dict, sms, result, tally: Tally) -> None:
        tally.counts["stable"] += int(s["rho"] <= 0.98)
        if abs(sms.rho - s["rho"]) > 1e-6 * max(1.0, s["rho"]):
            tally.op(False, f"{s['name']}: sms_oracle says rho={sms.rho}", wrong=True)
        elif not result.feasible:
            tally.op(True, "")
        elif tally.op(s["rho"] < 1.0
                      and oracles.lyapunov_certificate_ok(result.ps, s["slots"], s["probs"]),
                      f"{s['name']}: false or unverifiable certificate", wrong=True):
            tally.counts["certified"] += 1

    def end_to_end(self, tally):
        # The quickest quarter are loops certified in a few iterations. The
        # median sits where those meet loops that need tens of iterations,
        # and their share moves with the draw.
        v = tally.best("verdict")
        quick = sorted(v)[:max(len(v) // 4, 1)]
        return {
            "fast_ms": 1e3 * statistics.fmean(quick),
            "slow_ms": 1e3 * stats.percentile(v, 90.0),
            "work_per_s": len(v) / sum(v),
        }

    def named(self, tally):
        v = tally.best("verdict")
        p90 = stats.percentile(v, 90.0)
        stable = tally.counts["stable"]
        return {
            "verdict_ms_p50": _latency(v, "ms", 1e3),
            "verdict_ms_p90": {"value": 1e3 * p90, "unit": "ms", "n": len(v),
                               "beyond": sum(1 for x in v if x > p90)},
            "verdicts_per_s": {"value": len(v) / sum(v), "unit": "1/s", "n": len(v)},
            "certified_share": {"value": tally.counts["certified"] / stable if stable else 0.0,
                                "unit": "ratio", "n": stable},
        }


# ---------------------------------------------------------------------------
# monte-carlo


class MonteCarlo(Workload):
    """``sim.ensemble`` at a fixed gain in three shapes, plus trace exports.

    The gain is the README loop's synthesized gain at eta = 0.1 (set-up).
    A pass runs the white-noise ensemble (1000 x 200, with the eta = 0.1
    ledger), the zero-input decay leg (30 000 x 6), a 4-state 4-periodic
    loop (500 x 200), and 16 exports: simulate, identity check, CSV.
    Every pass repeats the same seeds, so repeats are identical work.
    """

    name = "monte-carlo"
    salt = 33
    EXPORTS = 16
    HORIZON = 200
    # shape -> (trials, horizon)
    SHAPES = {"white_noise": (1000, 200), "decay": (30_000, 6), "periodic": (500, 200)}
    CHUNKS = 4

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        m, sim = pkg.model, pkg.sim
        self.plant = m.Plant(**REF_PLANT)
        self.loss = m.LossModel(*REF_LOSS)
        self.fp = m.full_packet_schedule()
        synth = pkg.synthesis.synthesize(self.plant, self.loss, eta=0.1)
        self.gain = synth.gain
        self.p = np.linalg.inv(synth.x)
        self.probs = oracles.mode_probs(*REF_LOSS)
        self.rho = oracles.second_moment_radius(
            oracles.loop_modes(REF_PLANT["A"], REF_PLANT["B2"], self.gain.K), self.probs)
        self.white = sim.InputSignal.white_noise(1)
        self.zero = sim.InputSignal.zero(1)
        rng = _rng(seed, self.salt, 0)
        a4 = _scaled_a(rng, 4, 0.9)
        self.plant4 = m.Plant(A=a4, B1=rng.standard_normal((4, 1)), B2=rng.standard_normal((4, 1)),
                              C1=rng.standard_normal((1, 4)), D11=[[1.0]], D12=[[0.0]])
        self.gain4 = m.Gain(0.2 * rng.standard_normal((1, 4)))
        self.sched4 = m.Schedule(period=4, s1=(1, 0, 3, 0), s2=(0, 1, 0, 1))
        self.loss4 = m.LossModel(float(0.5 * rng.random()), float(0.5 * rng.random()))
        self.seeds = {shape: int(rng.integers(0, 2**31)) for shape in self.SHAPES}
        self.export_seeds = [int(x) for x in rng.integers(0, 2**31, self.EXPORTS)]

    def units(self, pass_index):
        yield lambda tally: self.white_noise(tally)
        yield lambda tally: self.decay(tally)
        yield lambda tally: self.periodic(tally)
        for k, seed in enumerate(self.export_seeds):
            yield lambda tally, k=k, seed=seed: self.export(k, seed, tally)

    def _ensemble(self, shape, tally, plant, gain, schedule, loss, signal, **kwargs):
        """The shape's trials in CHUNKS calls over consecutive seeds, merged into one result.

        Trial ``t`` always runs with seed base + t, so the merged statistics
        are those of a single call over all trials. Calls of about a second
        let the speed probe bracket each one closely.
        """
        trials, horizon = self.SHAPES[shape]
        size = trials // self.CHUNKS
        parts = []
        for c in range(self.CHUNKS):
            tally.between_ops()
            start = time.perf_counter()
            try:
                parts.append(self.pkg.sim.ensemble(
                    plant, gain, schedule, loss, signal, horizon, size,
                    self.seeds[shape] + c * size, **kwargs))
            except Exception:  # counted, never fatal
                tally.time(shape, (shape, c), (start, time.perf_counter()))
                tally.op(False, f"{shape}: {traceback.format_exc(limit=1)}")
                return None
            tally.time(shape, (shape, c), (start, time.perf_counter()))
        return merge_ensembles(parts)

    def white_noise(self, tally):
        st = self._ensemble("white_noise", tally, self.plant, self.gain, self.fp, self.loss,
                            self.white, eta=0.1)
        if st is None:
            return
        ok = (st.dissipation_mean > 3.0 * st.dissipation_se
              and oracles.mode_counts_ok(st.mode_counts, self.probs))
        tally.op(ok, f"white-noise ledger {st.dissipation_mean:.2f} +- {st.dissipation_se:.2f}"
                 " or mode counts off", wrong=True)

    def decay(self, tally):
        st = self._ensemble("decay", tally, self.plant, self.gain, self.fp, self.loss,
                            self.zero, x0=[1.0])
        if st is None:
            return
        _, alpha = self.pkg.sim.decay_fit(st)
        ok = abs(alpha - self.rho) <= 0.1 and oracles.mode_counts_ok(st.mode_counts, self.probs)
        tally.op(ok, f"decay alpha {alpha:.4f} vs rho {self.rho:.4f} or mode counts off", wrong=True)

    def periodic(self, tally):
        st = self._ensemble("periodic", tally, self.plant4, self.gain4, self.sched4, self.loss4,
                            self.white)
        if st is None:
            return
        probs = oracles.mode_probs(self.loss4.alpha1, self.loss4.alpha2)
        ok = np.all(np.isfinite(st.mean_sq_norm)) and oracles.mode_counts_ok(st.mode_counts, probs)
        tally.op(ok, "periodic ensemble statistics off", wrong=True)

    def export(self, k: int, seed: int, tally):
        sim, analysis, m = self.pkg.sim, self.pkg.analysis, self.pkg.model
        path = os.path.join(self.workdir, f"trace-{k}.csv")
        start = time.perf_counter()
        try:
            trace = sim.simulate(self.plant, self.gain, self.fp, self.loss, self.white,
                                 self.HORIZON, seed)
            residual = analysis.dissipation_identity_check(
                self.plant, self.gain, m.mode_distribution(self.loss), self.p, 0.1, trace)
            sim.trace_to_csv(trace, path)
        except Exception:  # counted, never fatal
            tally.time("export", k, (start, time.perf_counter()))
            tally.op(False, f"export {k}: {traceback.format_exc(limit=1)}")
            return
        tally.time("export", k, (start, time.perf_counter()))
        tally.counts["csv_bytes"] += os.path.getsize(path)
        rows = oracles.csv_rows(path)
        tally.op(residual <= 1e-9 and rows == self.HORIZON,
                 f"export {k}: residual {residual:.3e}, {rows} rows", wrong=True)

    def trial_steps_per_s(self, tally) -> float:
        """One pass's trial-steps over the sum of each shape's fastest call."""
        steps = sum(trials * horizon for trials, horizon in self.SHAPES.values())
        return steps / sum(sum(tally.best(shape)) for shape in self.SHAPES)

    def end_to_end(self, tally):
        return {
            "fast_ms": 1e3 * stats.median(tally.best("export")),
            "slow_ms": 1e3 * sum(tally.best("white_noise")),
            "work_per_s": self.trial_steps_per_s(tally),
        }

    def named(self, tally):
        return {
            "trial_steps_per_s": {"value": self.trial_steps_per_s(tally), "unit": "1/s",
                                  "n": len(self.SHAPES)},
            "export_ms_per_trace": _latency(tally.best("export"), "ms", 1e3),
            "white_noise_ensemble_s": {"value": sum(tally.best("white_noise")), "unit": "s",
                                       "n": self.CHUNKS},
        }


def merge_ensembles(parts):
    """One EnsembleStats from calls over consecutive seed blocks (pooled mean and se)."""
    n = np.array([p.trials for p in parts], dtype=float)
    total = n.sum()
    means = np.array([p.dissipation_mean for p in parts])
    mean = float((n * means).sum() / total)
    # sum of squares about the pooled mean, rebuilt from each part's se
    ss = float(sum((k - 1) * (p.dissipation_se ** 2 * k) + k * (m - mean) ** 2
                   for k, p, m in zip(n, parts, means)))
    return replace(
        parts[0],
        trials=int(total),
        mean_sq_norm=sum(k * p.mean_sq_norm for k, p in zip(n, parts)) / total,
        terminal_fraction=float(sum(k * p.terminal_fraction for k, p in zip(n, parts)) / total),
        dissipation_mean=mean,
        dissipation_se=float(np.sqrt(ss / (total - 1) / total)),
        mode_counts=sum(p.mode_counts for p in parts),
    )


WORKLOADS = {w.name: w for w in (CertifyPipeline, StabilityPopulation, MonteCarlo)}
