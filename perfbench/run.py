"""ncspassive benchmark: one workload per run, JSON result on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --compare parent.txt change.txt
    python3 perfbench/run.py --defects --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed number of passes twice, untraced and then traced, and prints the
per-layer metrics and the tracing overhead. ``--compare`` reads the
saved standard output of runs of two commits (any number of runs per
file) and prints one verdict row per workload and metric. ``--defects``
runs random full-packet plants through the certify pipeline once and
prints every failed op (the known exit-3 ``synthesize`` defect shows
there, not in the timed workloads).

The package is imported from ``src/`` of the checkout this file lives
in, never from site-packages; without it the run exits 2 and prints no
result. Reports, CSVs and the span file go under ``.perfbench/`` in the
checkout (ignored by git); the temporary part is removed on exit.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere: one thread, one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from itertools import count  # noqa: E402

import numpy as np  # noqa: E402

import compare  # noqa: E402
import stats  # noqa: E402
from compare import DETAIL_PREFIX  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, RandomPlantCensus, Tally  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
END_TO_END = ("setup_s", "fast_ms", "slow_ms", "work_per_s")
UNITS = {"setup_s": "s", "fast_ms": "ms", "slow_ms": "ms", "work_per_s": "1/s"}


class PackageMissing(RuntimeError):
    pass


def import_package():
    """Fresh import of ncspassive (and its cli) from this checkout's src/."""
    for name in [m for m in sys.modules if m == "ncspassive" or m.startswith("ncspassive.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("ncspassive")
        importlib.import_module("ncspassive.cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import ncspassive from {SRC}: {exc}") from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise PackageMissing(f"ncspassive resolved to {pkg.__file__}, not under {SRC}")
    return pkg


def provenance() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload_cls, seed: int, workdir: str, probe):
    """Import + input generation, SETUP_REPEATS times; the last instance is used.

    Returns the instance and each repetition's (start, end).
    """
    intervals = []
    instance = None
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        pkg = import_package()
        instance = workload_cls(pkg, seed, workdir)
        intervals.append((start, time.perf_counter()))
    probe.sample()
    return instance, intervals


def run_passes(workload, tally, seconds: float | None, passes: int | None = None) -> tuple[float, int]:
    """Run units until ``seconds`` elapse, or exactly ``passes`` whole passes.

    The first pass always runs to its end, so every op kind has a sample;
    after it the clock is checked between units. Returns (wall, passes).
    """
    start = time.perf_counter()
    try:
        for p in count():
            if passes is not None and p >= passes:
                return time.perf_counter() - start, p
            for unit in workload.units(p):
                if passes is None and p > 0 and time.perf_counter() - start >= seconds:
                    return time.perf_counter() - start, p
                tally.between_ops()
                unit(tally)
            if passes is None and time.perf_counter() - start >= seconds:
                return time.perf_counter() - start, p + 1
    finally:
        tally.probe.sample()  # the last op needs a burst after it


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    probe = SpeedProbe()
    workload, setup_spans = set_up(WORKLOADS[name], seed, workdir, probe)
    setup_times = [probe.scaled(a, b) for a, b in setup_spans]
    setup_s = stats.median(setup_times)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_times_s": setup_times, "setup_raw_s": [b - a for a, b in setup_spans]}
    tally = Tally(probe)
    if not trace:
        wall, passes = run_passes(workload, tally, seconds)
        e2e = {"setup_s": setup_s, **workload.end_to_end(tally)}
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
        named = workload.named(tally)
        named["setup_s"] = {"value": setup_s, "unit": "s", "n": len(setup_times)}
        named["wall_s"] = {"value": wall, "unit": "s", "n": 1}
        named["failed_share"] = {"value": tally.failed / max(tally.attempted, 1),
                                 "unit": "ratio", "n": tally.attempted}
        result.update(passes=passes, named=named)
    else:
        # One pass untraced, then the same pass traced. Layer times are as
        # measured; the overhead compares the two walls on the reference core.
        t0 = time.perf_counter()
        run_passes(workload, Tally(probe), None, 1)
        t1 = time.perf_counter()
        tracer = Tracer()
        tracer.install(sys.modules["ncspassive"])
        try:
            _, passes = run_passes(workload, tally, None, 1)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        layer = tracer.metrics()
        layer["cli.report_bytes"] = _report_bytes(workdir)
        layer["sim.trace_to_csv.bytes"] = tally.counts.get("csv_bytes", 0)
        layer["trace.wall_s"] = t2 - t1
        layer["trace.untraced_wall_s"] = t1 - t0
        layer["trace.overhead_share"] = probe.scaled(t1, t2) / probe.scaled(t0, t1) - 1.0
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(span_file)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
        result.update(passes=passes, span_file=os.path.relpath(span_file, ROOT))
    result.update(metrics=metrics, speed_factor=probe.factor(probe.times[0], probe.times[-1]),
                  attempted=tally.attempted, failed=tally.failed,
                  wrong=tally.wrong, failures=tally.notes)
    return result


def run_census(seed: int, workdir: str) -> dict:
    """One untimed pass of :class:`RandomPlantCensus`: attempted, failed, notes."""
    census = RandomPlantCensus(import_package(), seed, workdir)
    tally = Tally()
    run_passes(census, tally, None, 1)
    return {"census": census.name, "seed": seed, "plants": len(census.scenarios),
            "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "failures": tally.notes}


def _report_bytes(workdir: str) -> int:
    """Bytes of the last report each certify-pipeline command wrote."""
    total = 0
    for dirpath, _, files in os.walk(workdir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files
                     if f in ("synth.json", "analyze.json", "sim.json"))
    return total


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "certified_s", "indeterminate_s", "wall_s", "untraced_wall_s"):
        return "s"
    if last.endswith("share"):
        return "ratio"
    if last.startswith("us_per"):
        return "us"
    if last == "mean_dim":
        return "rows"
    if last.endswith("bytes"):
        return "bytes"
    return "count"


def print_human(result: dict) -> None:
    head = (f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
            f"passes={result['passes']} attempted={result['attempted']} "
            f"failed={result['failed']} (wrong answers: {result['wrong']})")
    print(head)
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
        print(f"  spans written to {result['span_file']}")
    else:
        for name, m in result["named"].items():
            tail = ""
            if m.get("tail_p") is not None:
                tail = f"  p{m['tail_p']:g}={m['tail']:.6g}"
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{tail}")
    for note in result["failures"]:
        print(f"  failed: {note}")


def print_census(census: dict) -> None:
    print(f"# {census['census']} seed={census['seed']} plants={census['plants']} "
          f"attempted={census['attempted']} failed={census['failed']} "
          f"(wrong answers: {census['wrong']})")
    for note in census["failures"]:
        print(f"  failed: {note}")


def contract_line(result: dict) -> dict:
    return {"correct": result["wrong"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="certify-pipeline, stability-population, monte-carlo or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--defects", action="store_true",
                        help="run the random-plant census and print its failed ops")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not args.defects and any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.defects:
            census = run_census(args.seed, workdir)
            print_census(census)
            print(json.dumps(census))
            return 0
        results = []
        for name in names:
            sub = tempfile.mkdtemp(prefix=name + "-", dir=workdir)
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), sub)
            result["provenance"] = provenance()
            print_human(result)
            print(DETAIL_PREFIX + json.dumps(result))
            results.append(result)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        print(json.dumps(contract_line(results[0])))
    else:
        print(json.dumps({r["workload"]: contract_line(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
