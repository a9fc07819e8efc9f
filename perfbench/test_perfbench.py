"""Tests of the benchmark itself (not of ncspassive).

Run from the repository root:

    python3 -m pytest -q perfbench

Workloads are shrunk by subclassing, so the whole file takes under a
minute on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads, finds src/)
import workloads  # noqa: E402
from workloads import (CertifyPipeline, MonteCarlo, RandomPlantCensus,  # noqa: E402
                       StabilityPopulation, Tally)

NAMED = {
    "certify-pipeline": {"pipeline_s_p50": "s", "synthesize_s_p50": "s", "analyze_s_p50": "s",
                         "simulate_s_p50": "s", "report_ms_p50": "ms"},
    "stability-population": {"verdict_ms_p50": "ms", "verdict_ms_p90": "ms",
                             "verdicts_per_s": "1/s", "certified_share": "ratio"},
    "monte-carlo": {"trial_steps_per_s": "1/s", "export_ms_per_trace": "ms"},
}
COMMON = {"setup_s": "s", "wall_s": "s", "failed_share": "ratio"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
COUNTS = ("lmi.iterations", "numerics.eigh.calls", "synthesis.probes", "sim.simulate.calls",
          "lmi.solve.calls", "analysis.max_dissipation.probes", "model.closed_loop.calls")


class TinyCertify(CertifyPipeline):
    FAMILIES = ("reference", "infeasible")


class TinyStability(StabilityPopulation):
    SIZES = (1, 2)
    REPLICAS = 1


class TinyMonteCarlo(MonteCarlo):
    EXPORTS = 2
    SHAPES = {"white_noise": (40, 200), "decay": (2000, 6), "periodic": (20, 200)}


TINY = {"certify-pipeline": TinyCertify, "stability-population": TinyStability,
        "monte-carlo": TinyMonteCarlo}


@pytest.fixture
def tiny(monkeypatch):
    for name, cls in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.fixture
def pkg():
    return run.import_package()


@pytest.mark.parametrize("name", list(NAMED))
def test_smoke_every_metric_with_unit(tiny, tmp_path, name):
    result = run.run_workload(name, 3, 0.0, False, str(tmp_path))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for metric, unit in {**NAMED[name], **COMMON}.items():
        assert result["named"][metric]["unit"] == unit
    assert result["attempted"] >= 1
    assert result["wrong"] == 0
    line = run.contract_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_wrong_expected_exit_counts_as_failed(pkg, tmp_path):
    w = TinyCertify(pkg, 0, str(tmp_path))
    infeasible = w.scenarios[1]
    tally = Tally()
    w.pipeline(infeasible, tally, expect=0)  # really exits 2
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert "expected 0" in tally.notes[0]


def test_tampered_certificate_counts_as_failed(pkg, tmp_path):
    w = TinyCertify(pkg, 0, str(tmp_path))
    ref = w.scenarios[0]
    tally = Tally()
    w.pipeline(ref, tally)
    assert tally.failed == 0
    path = os.path.join(ref["dir"], "synth.json")
    with open(path) as fh:
        report = json.load(fh)
    report["results"]["synthesis"]["X"][0][0] *= 1.1
    with open(path, "w") as fh:
        json.dump(report, fh)
    before = tally.failed
    ok = w.step(tally, ref["name"], "report", ["report", path], [])
    assert not ok and tally.failed == before + 1


def test_census_counts_every_op_of_a_random_plant(pkg, tmp_path, monkeypatch):
    monkeypatch.setattr(RandomPlantCensus, "FAMILIES", ("random",))
    result = run.run_census(0, str(tmp_path))
    assert result["plants"] == 1 and result["attempted"] >= 1
    assert result["wrong"] == 0
    assert len(result["failures"]) == result["failed"]


def test_tampered_stability_certificate_is_a_wrong_answer(pkg, tmp_path):
    w = TinyStability(pkg, 0, str(tmp_path))
    s = next(s for s in w.systems if s["rho"] < 0.98)
    sms = pkg.analysis.sms_oracle(
        [pkg.model.closed_loop(s["plant"], s["gain"], k, s["schedule"])
         for k in range(s["schedule"].period)], s["dist"])
    cert = pkg.analysis.stability_lmi(s["plant"], s["gain"], s["schedule"], s["dist"])
    assert cert.feasible
    tally = Tally()
    w.check(s, sms, cert, tally)
    assert tally.failed == 0

    class Tampered:
        feasible = True
        ps = tuple(-p for p in cert.ps)

    w.check(s, sms, Tampered(), tally)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_traced_counts_repeat_exactly(tiny, tmp_path):
    runs = [run.run_workload("certify-pipeline", 4, 0.0, True, str(tmp_path / str(i)))
            for i in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
    assert first == second
    assert first["synthesis.probes"] > 0 and first["lmi.iterations"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in runs[0]["metrics"].items()} == declared


def test_tracer_restores_every_binding(pkg, tmp_path):
    from tracing import Tracer

    before = (pkg.synthesis.passivity_lmi, pkg.analysis.sym_eigvals,
              pkg.lmi.AffineExpr.assemble, np.linalg.eigh)
    tracer = Tracer()
    tracer.install(pkg)
    assert pkg.synthesis.passivity_lmi is not before[0]
    assert pkg.analysis.sym_eigvals is not before[1]
    tracer.uninstall()
    after = (pkg.synthesis.passivity_lmi, pkg.analysis.sym_eigvals,
             pkg.lmi.AffineExpr.assemble, np.linalg.eigh)
    assert after == before


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts(tmp_path, capsys):
    import compare

    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [0.7 * x for x in parent]
    assert compare.verdict(parent, faster, pairs(faster), False, 0.25)[0] == "improved"
    assert compare.verdict(parent, parent, pairs(parent), False, 0.25)[0] == "no worse"
    slower = [1.5 * x for x in parent]
    assert compare.verdict(parent, slower, pairs(slower), False, 0.25)[0] == "worse"
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy, pairs(noisy), False, 0.25)[0] == "unresolved"

    for name, scale in (("parent.txt", 1.0), ("change.txt", 0.5)):
        with open(tmp_path / name, "w") as fh:
            for seed in range(10):
                run_ = {"workload": "monte-carlo", "seed": seed, "trace": 0,
                        "named": {"wall_s": {"value": 25.0 + seed / 100}},
                        "metrics": {"slow_ms": {"value": scale * (100 + seed)}}}
                fh.write("noise\n" + run.DETAIL_PREFIX + json.dumps(run_) + "\n")
    compare.main(str(tmp_path / "parent.txt"), str(tmp_path / "change.txt"))
    rows = {line.split()[1]: line.rsplit("%", 1)[1].strip()
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"slow_ms": "improved", "wall_s": "no worse"}
