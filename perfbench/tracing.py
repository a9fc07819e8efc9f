"""Outside-in tracing of the ncspassive layers.

The tracer replaces functions of the package with timing wrappers and
puts the originals back on ``uninstall``. Nothing under ``src/`` knows
about it. Two kinds of wrapper exist:

* a *span* records (name, start, end, parent span, op id, tag) and is
  kept in memory until the run writes it out;
* a *counter* only adds one call and its duration to a running total.
  Hot leaves (the eigensolvers, ``AffineExpr.assemble``/``grad``, the
  numerics and model helpers) are counters, because a budget-exhausting
  solve calls them tens of thousands of times.

Both kinds push a frame on one stack, so every wrapper knows how much
of its own interval its children covered; ``self_s`` is the rest.

A function imported by name into another module (``synthesis`` takes
``passivity_lmi`` and ``sms_oracle`` from ``analysis``; ``analysis``
takes the numerics helpers) is patched in every module that binds it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "model", "lmi", "analysis", "synthesis", "sim", "cli")

# Per-module public functions that are traced as spans; every other
# public function of a layer is a counter.
SPAN_FUNCTIONS = {
    "lmi": {"solve", "verify"},
    "analysis": {
        "sms_oracle",
        "stability_lmi",
        "passivity_lmi",
        "max_dissipation",
        "dissipation_identity_check",
    },
    "synthesis": {"synthesize", "round_trip_verify", "build_synthesis_lmi"},
    "sim": {"simulate", "ensemble", "decay_fit", "trace_to_csv"},
    "cli": {"main", "load_config"},
}
# cli exports constants and classes in __all__; these are its functions.
CLI_FUNCTIONS = ("main", "load_config", "parse_config")
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "eigvals")
AFFINE_METHODS = ("assemble", "grad")


class Tracer:
    """Wrappers, spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.op_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans, perf = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the index so children can point at it
            stack.append(frame)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, start, end, parent, self.op_id, frame[1], _tag(result))

        return wrapper

    def _counter(self, name: str, fn, size_of=None):
        stack, counters, perf = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                entry = counters[name]
                entry[0] += 1
                entry[1] += dur
                if size_of is not None:
                    entry[2] += size_of(args)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every layer of ``package``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
            for fname in names:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = f"{layer}.{fname}"
                if fname in SPAN_FUNCTIONS.get(layer, ()):
                    wrapped[id(fn)] = (fn, self._span(label, fn))
                else:
                    wrapped[id(fn)] = (fn, self._counter(label, fn))
        # every binding of a wrapped function, in every module of the package
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])
        affine = sys.modules[f"{package.__name__}.lmi"].AffineExpr
        for meth in AFFINE_METHODS:
            self._replace(affine, meth, self._counter(f"lmi.{meth}", getattr(affine, meth)))
        for fname in LINALG_FUNCTIONS:
            fn = getattr(np.linalg, fname)
            self._replace(np.linalg, fname,
                          self._counter(f"numerics.{fname}", fn, size_of=_first_dim))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per counter."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, child, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "self_s": (end - start) - child, "tag": tag}) + "\n")
            for name, (calls, seconds, size) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "s": seconds,
                                     "size": size}) + "\n")

    # -- per-layer metrics ------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metric names."""
        out: dict[str, float] = {}
        spans = self.spans
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[0]].append(i)

        def dur(i: int) -> float:
            return spans[i][2] - spans[i][1]

        def total(name: str) -> float:
            return sum(dur(i) for i in by_name.get(name, ()))

        def self_total(name: str) -> float:
            return sum(dur(i) - spans[i][5] for i in by_name.get(name, ()))

        def ancestors(i: int):
            p = spans[i][3]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][3]

        def counter(name: str):
            return self.counters.get(name, [0, 0.0, 0.0])

        # numerics (eigensolvers wrapped at numpy.linalg)
        calls, secs, dims = counter("numerics.eigh")
        out["numerics.eigh.calls"] = calls
        out["numerics.eigh.s"] = secs
        out["numerics.eigh.mean_dim"] = dims / calls if calls else 0.0
        for name in ("numerics.eigvalsh", "numerics.spectral_radius"):
            calls, secs, _ = counter(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = secs

        # lmi
        solves = by_name.get("lmi.solve", [])
        cert = [i for i in solves if spans[i][6].startswith("certified")]
        indet = [i for i in solves if spans[i][6].startswith("indeterminate")]
        iters = sum(_iterations(spans[i][6]) for i in solves)
        wasted = sum(_iterations(spans[i][6]) for i in indet)
        out["lmi.solve.calls"] = len(solves)
        out["lmi.solve.certified"] = len(cert)
        out["lmi.solve.indeterminate"] = len(indet)
        out["lmi.solve.certified_s"] = sum(dur(i) for i in cert)
        out["lmi.solve.indeterminate_s"] = sum(dur(i) for i in indet)
        out["lmi.iterations"] = iters
        out["lmi.iterations_wasted_share"] = wasted / iters if iters else 0.0
        out["lmi.us_per_iteration"] = 1e6 * total("lmi.solve") / iters if iters else 0.0
        for meth in AFFINE_METHODS:
            calls, secs, _ = counter(f"lmi.{meth}")
            out[f"lmi.{meth}.calls"] = calls
            out[f"lmi.{meth}.s"] = secs
        out["lmi.verify.calls"] = len(by_name.get("lmi.verify", []))
        out["lmi.verify.s"] = total("lmi.verify")

        # analysis
        out["analysis.stability_lmi.calls"] = len(by_name.get("analysis.stability_lmi", []))
        out["analysis.stability_lmi.s"] = total("analysis.stability_lmi")
        out["analysis.stability_lmi.self_s"] = self_total("analysis.stability_lmi")
        out["analysis.sms_oracle.calls"] = len(by_name.get("analysis.sms_oracle", []))
        out["analysis.sms_oracle.s"] = total("analysis.sms_oracle")
        out["analysis.passivity_lmi.calls"] = len(by_name.get("analysis.passivity_lmi", []))
        out["analysis.passivity_lmi.s"] = total("analysis.passivity_lmi")
        out["analysis.max_dissipation.s"] = total("analysis.max_dissipation")
        probes = [i for i in by_name.get("analysis.passivity_lmi", [])
                  if "analysis.max_dissipation" in ancestors(i)]
        out["analysis.max_dissipation.probes"] = len(probes)
        out["analysis.max_dissipation.probes_indeterminate"] = sum(
            1 for i in probes if spans[i][6].startswith("indeterminate"))
        out["analysis.dissipation_identity_check.s"] = total("analysis.dissipation_identity_check")

        # synthesis: probes are the solves of the bisection, not of the round trip
        out["synthesis.synthesize.s"] = total("synthesis.synthesize")
        out["synthesis.synthesize.self_s"] = self_total("synthesis.synthesize")
        synth_probes = []
        for i in solves:
            chain = list(ancestors(i))
            if "synthesis.synthesize" in chain and "synthesis.round_trip_verify" not in chain:
                synth_probes.append(i)
        out["synthesis.probes"] = len(synth_probes)
        out["synthesis.probes_indeterminate"] = sum(
            1 for i in synth_probes if spans[i][6].startswith("indeterminate"))
        out["synthesis.round_trip_verify.s"] = total("synthesis.round_trip_verify")

        # model
        calls, secs, _ = counter("model.closed_loop")
        out["model.closed_loop.calls"] = calls
        out["model.closed_loop.s"] = secs

        # sim
        ens = by_name.get("sim.ensemble", [])
        sims = by_name.get("sim.simulate", [])
        steps = sum(_iterations(spans[i][6]) for i in ens)
        out["sim.ensemble.calls"] = len(ens)
        out["sim.ensemble.s"] = total("sim.ensemble")
        out["sim.simulate.calls"] = len(sims)
        out["sim.simulate.s"] = total("sim.simulate")
        out["sim.us_per_trial_step"] = 1e6 * total("sim.ensemble") / steps if steps else 0.0
        out["sim.trace_to_csv.s"] = total("sim.trace_to_csv")
        out["sim.decay_fit.s"] = total("sim.decay_fit")

        # cli: self time is cli.main minus the nearest analysis/synthesis/sim/lmi spans
        out["cli.load_config.calls"] = len(by_name.get("cli.load_config", []))
        out["cli.load_config.s"] = total("cli.load_config")
        out["cli.main.s"] = total("cli.main")
        covered = 0.0
        for i, s in enumerate(spans):
            if s[0].split(".")[0] not in ("analysis", "synthesis", "sim", "lmi"):
                continue
            chain = list(ancestors(i))
            if chain and chain[0].startswith("cli.") and "cli.main" in chain:
                covered += dur(i)
        out["cli.self_s"] = out["cli.main.s"] - covered
        out["trace.spans"] = len(spans)
        return out


def _first_dim(args) -> float:
    a = args[0] if args else None
    shape = getattr(a, "shape", None)
    return float(shape[-1]) if shape else 0.0


def _tag(result) -> str:
    """Short outcome tag kept on a span: solver verdicts and ensemble sizes."""
    if result is None:
        return ""
    kind = type(result).__name__
    if kind == "Indeterminate":
        return f"indeterminate:{result.iterations}"
    if kind == "LmiCertificate":
        return f"certified:{result.iterations}"
    if kind == "EnsembleStats":
        return f"ensemble:{result.trials * result.horizon}"
    feasible = getattr(result, "feasible", None)
    if feasible is True:
        return "certified"
    if feasible is False:
        return "indeterminate"
    return ""


def _iterations(tag: str) -> int:
    _, _, count = tag.partition(":")
    return int(count) if count else 0
