import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_sweep_loop
from ncspassive import analysis, cli, lmi, sim, synthesis
from ncspassive.model import Gain, LossModel, Plant, full_packet_schedule, mode_distribution

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def scenario(**overrides) -> dict:
    config = {
        "plant": {
            "A": [[1.2]], "B1": [[1.0]], "B2": [[1.0]],
            "C1": [[0.5]], "D11": [[1.0]], "D12": [[0.0]],
        },
        "schedule": "full-packet",
        "loss": {"alpha1": 0.0, "alpha2": 0.2},
        "eta": 0.1,
        "solver": {"margin": 1e-8, "budget": 300, "restarts": 8, "seed": 0},
        "simulation": {
            "signal": {"kind": "white-noise", "sigma": 1.0},
            "horizon": 100,
            "trials": 20,
            "seed": 77,
        },
    }
    config.update(overrides)
    return config


def write_config(tmp_path: Path, config: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out


def with_field(config: dict, path: str, value) -> dict:
    """Deep copy of ``config`` with the dotted ``path`` set to ``value``."""
    config = json.loads(json.dumps(config))
    *parents, last = path.split(".")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return config


def rewrite_results(report_path: Path, dest: Path, edit) -> Path:
    """Apply ``edit`` to a report's results and store it with a matching digest.

    Only re-verification, not the digest check, can then catch the edit.
    """
    report = json.loads(report_path.read_text())
    edit(report["results"])
    report["results_digest"] = cli._digest(report["results"])
    dest.write_text(json.dumps(report))
    return dest


# A stable two-state loop on a 2-periodic schedule: slot 0 sends the
# first sensor, slot 1 drives the only actuator.
PERIODIC = dict(
    scenario(gain=[[-0.3, 0.1]]),
    plant={"A": [[0.5, 0.1], [0.0, 0.6]], "B1": [[1.0], [0.0]], "B2": [[1.0], [0.5]],
           "C1": [[0.5, 0.0]], "D11": [[1.0]], "D12": [[0.0]]},
    schedule={"period": 2, "s1": [1, 0], "s2": [0, 1]},
)
PERIODIC.pop("eta")

# Acceptance c3's loop: x+ = 0.5 x + w, z = 0.5 x + w, lossless, no actuator.
# Its dissipation margin is exactly 2/3, so eta = 0.667 is infeasible.
C3_LOOP = scenario(
    plant={"A": [[0.5]], "B1": [[1.0]], "B2": [[0.0]],
           "C1": [[0.5]], "D11": [[1.0]], "D12": [[0.0]]},
    loss={"alpha1": 0.0, "alpha2": 0.0},
    eta=0.667,
)


def scaling_sweep_config(k: int, c: float) -> dict:
    """Loop k of the scaling sweep, in coordinates x = T x~, T = Q diag(logspace(0, log10 c, n))."""
    rng = np.random.default_rng([77, k])
    n = 2 + k % 3
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 0.95) / max(abs(np.linalg.eigvals(a)))
    b1, b2 = 0.3 * rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    c1 = 0.3 * rng.standard_normal((1, n))
    gain = 0.1 * rng.standard_normal((1, n))
    loss = {"alpha1": rng.uniform(0.0, 0.1), "alpha2": rng.uniform(0.05, 0.15)}
    t = np.linalg.qr(rng.standard_normal((n, n)))[0] @ np.diag(np.logspace(0.0, np.log10(c), n))
    ti = np.linalg.inv(t)
    plant = {"A": ti @ a @ t, "B1": ti @ b1, "B2": ti @ b2, "C1": c1 @ t,
             "D11": [[1.0]], "D12": [[0.0]]}
    config = scenario(plant={key: np.asarray(value).tolist() for key, value in plant.items()},
                      loss=loss, gain=(gain @ t).tolist())
    config.pop("eta")
    return config


class TestAnalyze:
    def test_certified_scenario_exits_zero(self, tmp_path):
        config = scenario(gain=[[-0.9]])
        cfg = write_config(tmp_path, config)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["stability"]["status"] == "certified"
        assert report["results"]["passivity"]["status"] == "certified"
        assert report["results"]["passivity"]["eta"] == 0.1
        assert report["results"]["passivity"]["rho"] < 1.0

    def test_unstable_open_loop_exits_two_with_rho(self, tmp_path):
        config = scenario()
        config["plant"]["A"] = [[2.0]]
        config.pop("eta")
        cfg = write_config(tmp_path, config)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["results"]["sms"]["rho"] == pytest.approx(4.0)
        stab = report["results"]["stability"]
        assert stab["status"] == "indeterminate"
        assert "NaN" not in out.read_text() and "Infinity" not in out.read_text()
        assert set(stab) == {"status", "reason", "dual"}
        assert stab["reason"].startswith("refuted")
        assert sorted(stab["dual"]) == ["P0_pos_def", "lyapunov_k0"]

    def test_unstable_loop_with_eta_skips_the_passivity_search(self, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("analyze ran lmi.solve")

        monkeypatch.setattr(lmi, "solve", no_search)
        config = scenario()
        config["plant"]["A"] = [[2.0]]
        config.pop("eta")
        cfg = write_config(tmp_path, config)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out), "--eta", "0.1"]) == 2
        pas = json.loads(out.read_text())["results"]["passivity"]
        assert pas["status"] == "indeterminate"
        assert pas["iterations"] == 0
        assert "rho = 4 >= 1" in pas["reason"]

    def test_zero_feedthrough_with_passivity_is_input_error(self, tmp_path, capsys):
        config = scenario()
        config["plant"]["D11"] = [[0.0]]
        cfg = write_config(tmp_path, config)
        code = cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "D11" in capsys.readouterr().err

    def test_feedthrough_missing_the_margin_names_the_threshold(self, tmp_path, capsys):
        # D11 + D11' = diag(2, 200) is positive definite, but its min eigenvalue 2 is below
        # 0.01 (1 + ||D11 + D11'||_F) = 2.010
        config = scenario(gain=[[-0.9]])
        config["plant"].update(B1=[[1.0, 0.0]], C1=[[0.5], [0.0]], D11=[[1.0, 0.0], [0.0, 100.0]],
                               D12=[[0.0], [0.0]])
        cfg = write_config(tmp_path, config)
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                         "--margin", "0.01"]) == 1
        assert ("min eigenvalue 2.000e+00 misses the margin threshold 2.010e+00 at epsilon_rel 0.01"
                in capsys.readouterr().err)

    def test_badly_scaled_plant_exits_two_saying_why(self, tmp_path):
        config = scenario(gain=[[-0.9]])
        config["plant"]["B1"] = [[1e8]]
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out)]) == 2
        passivity = json.loads(out.read_text())["results"]["passivity"]
        assert passivity["status"] == "indeterminate"
        assert "outside its domain" in passivity["reason"]

    def test_malformed_json_is_line_anchored(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "plant": [,]\n}\n')
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        config = scenario()
        config["plnat"] = {}
        cfg = write_config(tmp_path, config)
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
        assert "plnat" in capsys.readouterr().err

    def test_eta_maximize_reports_margin(self, tmp_path):
        config = scenario(gain=[[-0.9]], eta="maximize")
        cfg = write_config(tmp_path, config)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["passivity"]["eta"] > 0.0

    def test_eta_maximize_solves_only_what_the_bisection_needs(self, tmp_path, monkeypatch):
        solve, calls = lmi.solve, []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lmi, "solve", counting)
        config = scenario(gain=[[-0.9]], eta="maximize")
        cfg = write_config(tmp_path, config)
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
        from_cli = len(calls)
        analysis.passivity_lmi(Plant(**config["plant"]), Gain([[-0.9]]),
                               mode_distribution(LossModel(0.0, 0.2)), "maximize")
        assert from_cli > 0
        assert len(calls) == 2 * from_cli


class TestSynthesize:
    def test_lossy_scalar_scenario(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "report.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        synth = report["results"]["synthesis"]
        assert synth["status"] == "certified"
        assert synth["rho"] < 1.0
        k = synth["K"][0][0]
        assert 0.8 * (1.2 + k) ** 2 + 0.2 * 1.44 < 1.0

    def test_infeasible_scenario_exits_two(self, tmp_path):
        config = scenario(eta=0.0)
        config["plant"]["A"] = [[2.0]]
        config["loss"] = {"alpha1": 0.0, "alpha2": 0.5}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "report.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2
        assert json.loads(out.read_text())["results"]["synthesis"]["status"] == "indeterminate"

    # What an eleven-probe bisection reached on this loop at each margin.
    @pytest.mark.parametrize("margin,bisected", [("0.05", 0.5322265625), ("0.1", 0.2822265625)])
    def test_maximize_under_a_large_margin(self, tmp_path, margin, bisected):
        cfg = write_config(tmp_path, scenario(eta="maximize"))
        out = tmp_path / "report.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out),
                         "--margin", margin]) == 0
        synth = json.loads(out.read_text())["results"]["synthesis"]
        assert synth["eta"] >= bisected - lmi.ETA_TOL

    def test_round_trip_poses_its_problems_at_the_configured_margin(self, tmp_path):
        # D11 + D11' = 1e-8 meets the assumption at margin 1e-10 but not at the
        # default 1e-8, at which the congruence leg once posed its problems
        config = scenario(eta=0.0, solver={"margin": 1e-10, "budget": 300})
        config["plant"].update(D11=[[5e-9]], B1=[[1e-6]], C1=[[1e-6]])
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0

    def test_a_margin_below_the_default_certifies_and_re_verifies(self, tmp_path):
        # sweep plant 35 at margin 1e-9: P = X^-1 verifies at the configured margin
        plant, loss = random_sweep_loop(35)
        config = scenario(plant={name: getattr(plant, name).tolist()
                                 for name in ("A", "B1", "B2", "C1", "D11", "D12")},
                          loss={"alpha1": loss.alpha1, "alpha2": loss.alpha2})
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out), "--margin", "1e-9"]) == 0
        assert cli.main(["report", str(out)]) == 0

    # sweep plant 35 at eta 0.1 and sweep plant 7 at "maximize" and margin 0.05: a
    # synthesis form with one row per mode ended Indeterminate on the first (exit 2) and
    # with a gain whose P = X^-1 did not verify on the second (exit 3)
    @pytest.mark.parametrize("k,flags", [(35, []), (7, ["--margin", "0.05", "--eta", "maximize"])])
    def test_sweep_plants_certify_and_re_verify(self, tmp_path, k, flags):
        plant, loss = random_sweep_loop(k)
        config = scenario(plant={name: getattr(plant, name).tolist()
                                 for name in ("A", "B1", "B2", "C1", "D11", "D12")},
                          loss={"alpha1": loss.alpha1, "alpha2": loss.alpha2})
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out), *flags]) == 0
        assert cli.main(["report", str(out)]) == 0

    def test_d11_dominated_margin_certifies_by_a_search_at_the_gain(self, tmp_path):
        # README loop with D11 = 1e8 at eta 0.1: P = X^-1 misses the relative margin on the
        # passivity form at K (ROADMAP item 1), so the stored P is passivity_lmi's at K
        cfg = write_config(tmp_path, with_field(scenario(), "plant.D11", [[1e8]]))
        out = tmp_path / "synth.json"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        runs = [subprocess.run([sys.executable, "-m", "ncspassive.cli", *argv],
                               capture_output=True, text=True, env=env, cwd=tmp_path)
                for argv in (["synthesize", "--config", str(cfg), "--out", str(out)],
                             ["report", str(out)])]
        for proc in runs:
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            assert "Traceback" not in proc.stderr
        assert "certificates re-verified: synthesis" in runs[1].stdout
        synth = json.loads(out.read_text())["results"]["synthesis"]
        assert synth["eta"] == 0.1
        assert synth["P"][0][0] == pytest.approx(6.03, rel=1e-2)
        assert np.linalg.inv(synth["X"])[0][0] == pytest.approx(0.0687, rel=1e-2)

    def test_a_gain_neither_route_certifies_exits_two(self, tmp_path, monkeypatch, capsys):
        # with the search at K finding nothing, the D11 = 1e8 loop's gain is refused plainly
        monkeypatch.setattr(synthesis, "passivity_lmi",
                            lambda *args: lmi.Indeterminate(message="no P at K"))
        cfg = write_config(tmp_path, with_field(scenario(), "plant.D11", [[1e8]]))
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2
        synth = json.loads(out.read_text())["results"]["synthesis"]
        assert synth["status"] == "indeterminate"
        assert "'dissipation'" in synth["reason"] and "no P at K" in synth["reason"]
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        assert "nothing to re-verify" in capsys.readouterr().out

    def test_tampered_synthesized_p_detected(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, scenario())),
                         "--out", str(out)]) == 0

        def negate_p(results):
            results["synthesis"]["P"] = [[-v for v in row] for row in results["synthesis"]["P"]]

        bad = rewrite_results(out, tmp_path / "tampered.json", negate_p)
        capsys.readouterr()
        assert cli.main(["report", str(bad)]) == 3
        assert "synthesis: stored certificate no longer verifies" in capsys.readouterr().err

    def test_a_report_without_p_re_verifies_p_as_x_inverse(self, tmp_path, capsys):
        # synthesize reports that stored no P were certified by P = X^-1
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, scenario())),
                         "--out", str(out)]) == 0
        old = rewrite_results(out, tmp_path / "old.json",
                              lambda results: results["synthesis"].pop("P"))
        assert "P" not in json.loads(old.read_text())["results"]["synthesis"]
        capsys.readouterr()
        assert cli.main(["report", str(old)]) == 0
        assert "certificates re-verified: synthesis" in capsys.readouterr().out
        tampered = rewrite_results(old, tmp_path / "tampered.json",
                                   lambda results: results["synthesis"].update(eta=1e3))
        assert cli.main(["report", str(tampered)]) == 3

    def test_reports_with_and_without_a_round_trip_block_re_verify(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
        assert "round_trip" not in json.loads(out.read_text())["results"]["synthesis"]

        def add_round_trip(results):  # as reports written before the block was dropped
            results["synthesis"]["round_trip"] = {
                "direct_certified": True, "rho_ok": True, "congruence_rel_err": 1e-16}

        old = rewrite_results(out, tmp_path / "old.json", add_round_trip)
        assert cli.main(["report", str(out)]) == 0
        assert cli.main(["report", str(old)]) == 0

    def test_periodic_schedule_rejected(self, tmp_path, capsys):
        config = scenario(schedule={"period": 2, "s1": [1, 0], "s2": [0, 1]})
        cfg = write_config(tmp_path, config)
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
        assert "full-packet" in capsys.readouterr().err


class TestSimulate:
    def test_zero_everything_gives_zero_csv(self, tmp_path):
        config = scenario(gain=[[0.0]], loss={"alpha1": 0.0, "alpha2": 0.0})
        config["simulation"] = {
            "signal": {"kind": "zero"}, "horizon": 10, "trials": 2, "seed": 1,
        }
        cfg = write_config(tmp_path, config)
        out = tmp_path / "sim.json"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--dump-traces"])
        assert code == 0
        traces = sorted((tmp_path / "sim.json.traces").glob("*.csv"))
        assert len(traces) == 2
        for line in traces[0].read_text().splitlines()[1:]:
            values = [float(v) for v in line.split(",")[4:]]
            assert values == [0.0] * len(values)

    def test_gain_from_report_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        synth_report = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(synth_report)]) == 0

        out = tmp_path / "sim.json"
        captured = []
        for _ in range(2):
            code = cli.main([
                "simulate", "--config", str(cfg), "--out", str(out),
                "--gain", str(synth_report), "--dump-traces",
            ])
            assert code == 0
            captured.append((
                strip_timing(json.loads(out.read_text())),
                (tmp_path / "sim.json.traces" / "trace_0000.csv").read_bytes(),
            ))
        assert captured[0][0] == captured[1][0]
        assert captured[0][1] == captured[1][1]
        # end-to-end consistency: the certified loop dissipates in simulation
        ens = captured[0][0]["results"]["ensemble"]
        assert ens["eta"] == 0.1
        assert ens["dissipation_mean"] > 3.0 * ens["dissipation_se"]

    def test_inline_gain_matrix(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "sim.json"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--gain", "[[-0.9]]"])
        assert code == 0
        assert json.loads(out.read_text())["results"]["gain"] == [[-0.9]]

    def test_dump_traces_reuse_the_ensemble_records(self, tmp_path, monkeypatch):
        config = scenario()
        config["simulation"]["trials"] = 3
        cfg = write_config(tmp_path, config)
        lone = tmp_path / "lone.csv"
        plant = cli.load_config(cfg).plant
        sim.trace_to_csv(sim.simulate(plant, Gain([[-0.9]]), full_packet_schedule(),
                                      LossModel(0.0, 0.2), sim.InputSignal.white_noise(1),
                                      100, 77 + 2), lone)

        def no_resimulation(*args, **kwargs):
            raise AssertionError("simulate re-ran a trial of the ensemble")

        monkeypatch.setattr(sim, "simulate", no_resimulation)
        out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--gain", "[[-0.9]]", "--dump-traces"]) == 0
        traces = sorted((tmp_path / "sim.json.traces").glob("*.csv"))
        assert [t.name for t in traces] == ["trace_0000.csv", "trace_0001.csv", "trace_0002.csv"]
        assert traces[2].read_bytes() == lone.read_bytes()

    def test_missing_gain_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario())
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 1
        assert "gain" in capsys.readouterr().err

    def test_missing_decay_fit_says_why(self, tmp_path, capsys):
        # from the default x0 = 0 nothing decays, so there is no fit
        cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
        out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        ens = json.loads(out.read_text())["results"]["ensemble"]
        assert ens["decay_fit"] is None
        assert "initial state is zero" in ens["decay_fit_unavailable"]
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        assert "decay fit unavailable: the initial state is zero" in capsys.readouterr().out


class TestReport:
    def test_fresh_report_reverifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0
        assert "re-verified" in capsys.readouterr().out

    def test_indeterminate_synthesis_report_claims_nothing_reverified(self, tmp_path, capsys):
        config = scenario(eta=0.0)
        config["plant"]["A"] = [[2.0]]
        config["loss"] = {"alpha1": 0.0, "alpha2": 0.5}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "re-verified" not in stdout
        assert "nothing to re-verify" in stdout

    def test_tampered_certificate_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        report["results"]["stability"]["P"][0][0][0] *= 1.1
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(report))
        assert cli.main(["report", str(bad)]) == 3
        assert "VERIFICATION FAILURE" in capsys.readouterr().err

    def test_tampered_passivity_certificate_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0

        def negate_p(results):
            results["passivity"]["P"] = [[-v for v in row] for row in results["passivity"]["P"]]

        bad = rewrite_results(out, tmp_path / "tampered.json", negate_p)
        assert cli.main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "passivity: stored certificate no longer verifies" in err
        assert "digest" not in err

    def test_periodic_analyze_report_reverifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PERIODIC)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["results"]["stability"]["P"]) == 2
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified" in capsys.readouterr().out

    def test_stable_loop_in_bad_units_is_not_refuted(self, tmp_path, capsys, monkeypatch):
        # rho = 0.2954, yet the forms are homogeneous in P, so at c = 1e6 a Perron
        # dual passes verify_dual within its allowance: sms_oracle must agree too
        cfg = write_config(tmp_path, scaling_sweep_config(0, 1e6))
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        results = json.loads(out.read_text())["results"]
        assert results["sms"]["rho"] == pytest.approx(0.2954, abs=1e-4)
        assert results["stability"]["dual"] is None
        assert not results["stability"]["reason"].startswith("refuted")
        assert cli.main(["report", str(out)]) == 0
        assert "stability dual" not in capsys.readouterr().out

        # a report holding the dual that passes verify_dual is refused
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "spectral_radius", lambda m: 2.0)
            old = tmp_path / "old.json"
            assert cli.main(["analyze", "--config", str(cfg), "--out", str(old)]) == 2
        assert json.loads(old.read_text())["results"]["stability"]["dual"] is not None
        assert cli.main(["report", str(old)]) == 3
        err = capsys.readouterr().err
        assert "stability: a stored dual refutes a loop whose rho = 0.2954" in err
        assert "no longer verifies" not in err and "digest" not in err

    def test_tampered_stability_dual_detected(self, tmp_path, capsys):
        config = scenario()
        config["plant"]["A"] = [[2.0]]
        config.pop("eta")
        cfg = write_config(tmp_path, config)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified: stability dual" in capsys.readouterr().out

        def negate_dual(results):
            dual = results["stability"]["dual"]
            dual["lyapunov_k0"] = [[-v for v in row] for row in dual["lyapunov_k0"]]

        bad = rewrite_results(out, tmp_path / "tampered.json", negate_dual)
        assert cli.main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "stability: stored dual certificate no longer verifies" in err
        assert "digest" not in err

    def test_refuted_passivity_keeps_a_dual_that_reverifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, C3_LOOP)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        pas = json.loads(out.read_text())["results"]["passivity"]
        assert pas["status"] == "indeterminate"
        assert pas["eta"] == 0.667
        assert pas["reason"].startswith("refuted")
        assert sorted(pas["dual"]) == ["P_pos_def", "dissipation"]
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified: stability, passivity dual" in capsys.readouterr().out

        def negate_dual(results):
            dual = results["passivity"]["dual"]
            dual["dissipation"] = [[-v for v in row] for row in dual["dissipation"]]

        bad = rewrite_results(out, tmp_path / "tampered.json", negate_dual)
        assert cli.main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "passivity: stored dual certificate no longer verifies" in err
        assert "digest" not in err

    def test_refuted_synthesis_keeps_a_dual_that_reverifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, C3_LOOP)
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2
        synth = json.loads(out.read_text())["results"]["synthesis"]
        assert synth["eta"] == 0.667
        assert sorted(synth["dual"]) == ["X_pos_def", "synthesis"]
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified: synthesis dual" in capsys.readouterr().out

        def shift_eta(results):
            results["synthesis"]["eta"] = 0.5  # feasible there: nothing can refute it

        bad = rewrite_results(out, tmp_path / "tampered.json", shift_eta)
        assert cli.main(["report", str(bad)]) == 3
        assert "synthesis: stored dual certificate no longer verifies" in capsys.readouterr().err

    def test_a_dual_of_the_four_row_layout_is_an_input_error(self, tmp_path, capsys):
        # a refuted report written when the synthesis form had one row per mode stores a
        # (5n + m1)-square multiplier; the form now has one row per distinct loop
        cfg = write_config(tmp_path, C3_LOOP)
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 2

        def four_row_dual(results):
            z = np.zeros((6, 6))
            z[:3, :3] = results["synthesis"]["dual"]["synthesis"]
            results["synthesis"]["dual"]["synthesis"] = z.tolist()

        old = rewrite_results(out, tmp_path / "old.json", four_row_dual)
        capsys.readouterr()
        assert cli.main(["report", str(old)]) == 1
        err = capsys.readouterr().err
        assert "multiplier 'synthesis' must be 3x3" in err
        assert "Traceback" not in err

    # A loop whose D11 = 0.1 is too small for its C1 = 5 at any eta >= 0: a
    # maximize refuses at phase I's eta = 0, and the report keeps that eta.
    REFUSED_AT_ZERO = scenario(eta="maximize", gain=[[0.0]], plant={
        "A": [[0.5]], "B1": [[1.0]], "B2": [[1.0]], "C1": [[5.0]], "D11": [[0.1]], "D12": [[0.0]]})

    def test_refused_maximize_analysis_keeps_eta_zero_and_its_dual(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.REFUSED_AT_ZERO)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        pas = json.loads(out.read_text())["results"]["passivity"]
        assert (pas["status"], pas["eta"]) == ("indeterminate", 0.0)
        assert sorted(pas["dual"]) == ["P_pos_def", "dissipation"]
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified: stability, passivity dual" in capsys.readouterr().out

    def test_refused_maximize_synthesis_keeps_eta_zero_and_its_dual(self, tmp_path, capsys):
        config = with_field(self.REFUSED_AT_ZERO, "plant.B2", [[0.0]])
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out)]) == 2
        synth = json.loads(out.read_text())["results"]["synthesis"]
        assert (synth["status"], synth["eta"]) == ("indeterminate", 0.0)
        assert sorted(synth["dual"]) == ["X_pos_def", "synthesis"]
        assert cli.main(["report", str(out)]) == 0
        assert "certificates re-verified: synthesis dual" in capsys.readouterr().out

    def test_tampered_synthesized_gain_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0

        def scale_k(results):
            results["synthesis"]["K"] = [[1.1 * v for v in row] for row in results["synthesis"]["K"]]

        bad = rewrite_results(out, tmp_path / "tampered.json", scale_k)
        capsys.readouterr()
        assert cli.main(["report", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "synthesis: stored K is not Y X^{-1} of the stored transform" in err
        assert "digest" not in err

    def test_decay_fit_from_nonzero_x0_is_printed(self, tmp_path, capsys):
        config = scenario(gain=[[-0.9]])
        config["simulation"]["x0"] = [1.0]
        out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["ensemble"]["decay_fit"] is not None
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        assert "decay fit alpha = " in capsys.readouterr().out

    def test_dropped_periodic_p_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PERIODIC)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        bad = rewrite_results(out, tmp_path / "dropped.json",
                              lambda results: results["stability"]["P"].pop())
        assert cli.main(["report", str(bad)]) == 3
        assert "stored P count" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("synthesize", None, 5),
        ("synthesize", "results", []),
        ("synthesize", "synthesis", "certified"),
        ("analyze", "stability", []),
        ("analyze", "passivity", "certified"),
        ("analyze", "sms", 0.5),
        ("simulate", "ensemble", None),
    ], ids=["top-level", "results", "synthesis", "stability", "passivity", "sms", "ensemble"])
    def test_non_object_part_is_input_error(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
        out = tmp_path / "report.json"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if key is None:
            report = value
        elif key == "results":
            report["results"] = value
        else:
            report["results"][key] = value
        out.write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: malformed report" in err
        assert ("top level" if key is None else repr(key)) in err

    @pytest.mark.parametrize("command,key,value", [
        ("analyze", "sms.rho", None),
        ("analyze", "passivity.eta", None),
        ("analyze", "passivity.eta", -1.0),
        ("analyze", "stability.P", [[["a"]]]),
        ("analyze", "stability.P", 5),
        ("analyze", "passivity.P", [["a"]]),
        ("synthesize", "synthesis.rho", None),
        ("synthesize", "synthesis.eta", None),
        ("synthesize", "synthesis.X", [["a"]]),
        ("synthesize", "synthesis.Y", [["a"]]),
        ("synthesize", "synthesis.K", [["a"]]),
        ("simulate", "ensemble.dissipation_mean", None),
        ("simulate", "ensemble.dissipation_se", None),
        ("simulate", "ensemble.decay_fit.alpha", None),
        ("simulate", "ensemble.decay_fit", 5),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_malformed_field_is_input_error_naming_its_key(self, tmp_path, capsys, command, key, value):
        # x0 != 0 gives the ensemble a decay fit
        cfg = write_config(tmp_path, with_field(scenario(gain=[[-0.9]]), "simulation.x0", [1.0]))
        out = tmp_path / "report.json"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0

        def set_field(results):
            *parents, last = key.split(".")
            node = results
            for part in parents:
                node = node[part]
            node[last] = value

        bad = rewrite_results(out, tmp_path / "malformed.json", set_field)
        capsys.readouterr()
        assert cli.main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error: malformed report" in err
        assert f"results.{key}" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_ensemble_report_still_reads(self, tmp_path, capsys):
        # an overflowing run stores its non-finite statistics as null, named in
        # non_finite, and report prints them as n/a; a report holding NaN, as
        # reports written before did, still reads
        config = scenario(gain=[[0.0]])
        config["plant"]["A"] = [[1e30]]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["ensemble"]["dissipation_mean"] is None
        assert "ensemble.dissipation_mean" in results["non_finite"]
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        assert "dissipation n/a +- n/a" in capsys.readouterr().out

        def as_nan(results):
            del results["non_finite"]
            for key in ("dissipation_mean", "dissipation_se"):
                results["ensemble"][key] = float("nan")

        old = rewrite_results(out, tmp_path / "old.json", as_nan)
        assert cli.main(["report", str(old)]) == 0
        assert "dissipation nan +- nan" in capsys.readouterr().out

    def test_empty_file_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert cli.main(["report", str(empty)]) == 1

    def test_digest_mismatch_detected(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "synth.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        report["config"]["loss"]["alpha2"] = 0.3
        bad = tmp_path / "swapped.json"
        bad.write_text(json.dumps(report))
        assert cli.main(["report", str(bad)]) == 3


class TestPipelineDeterminism:
    def test_reports_identical_except_timing(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        reports = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.json"
            assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append(strip_timing(json.loads(out.read_text())))
        assert reports[0] == reports[1]

    def test_eta_flag_max_is_maximize(self, tmp_path):
        cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
        reports = []
        for flag in ("max", "maximize"):
            out = tmp_path / f"{flag}.json"
            assert cli.main(["analyze", "--config", str(cfg), "--out", str(out),
                             "--eta", flag]) == 0
            reports.append(strip_timing(json.loads(out.read_text())))
        assert reports[0] == reports[1]
        assert reports[0]["config"]["eta"] == "maximize"

    def test_cli_overrides_flow_into_solver(self, tmp_path):
        cfg = write_config(tmp_path, scenario())
        out = tmp_path / "r.json"
        assert cli.main(["synthesize", "--config", str(cfg), "--out", str(out),
                         "--budget", "200", "--eta", "0.05"]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["solver"]["budget"] == 200
        assert report["config"]["eta"] == 0.05
        assert report["results"]["synthesis"]["eta"] == 0.05
        assert not list(tmp_path.glob("*.config-patched.json"))

    def test_margin_flag_reaches_every_check(self, tmp_path):
        # c3's loop certifies eta = 0.6 at the default margin, not at 0.1
        cfg = write_config(tmp_path, dict(C3_LOOP, eta=0.6))
        loose, tight = tmp_path / "default.json", tmp_path / "tight.json"
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(loose)]) == 0
        assert cli.main(["analyze", "--config", str(cfg), "--out", str(tight),
                         "--margin", "0.1"]) == 2
        stab = json.loads(tight.read_text())["results"]["stability"]
        assert stab["verify"]["margin_epsilon_rel"] == 0.1
        assert cli.main(["report", str(loose)]) == 0
        assert cli.main(["report", str(tight)]) == 0


# The README plant with a non-square D11 (2 controlled outputs; 3 or 1 disturbance inputs):
# the supply rate w'z needs as many of one as of the other.
PLANT_D11_2X3 = {"A": [[1.2]], "B1": [[1.0, 0.5, 0.0]], "B2": [[1.0]], "C1": [[0.5], [0.2]],
                 "D11": [[1.0, 0.0, 0.3], [0.0, 1.0, 0.2]], "D12": [[0.0], [0.1]]}
PLANT_D11_2X1 = {"A": [[1.2]], "B1": [[1.0]], "B2": [[1.0]], "C1": [[0.5], [0.2]],
                 "D11": [[1.0], [0.3]], "D12": [[0.0], [0.1]]}

# (case, dotted config field to set or None, its value, extra argv, text the error must name);
# the command is simulate with --gain [[-0.9]], unless extra starts with another one
BAD_INPUTS = [
    ("solver-margin-zero", "solver.margin", 0, [], "solver.margin"),
    ("solver-margin-negative", "solver.margin", -1, [], "solver.margin"),
    # from 1 up no matrix clears the margin's cutoff
    ("solver-margin-one", "solver.margin", 1, [], "solver.margin: must be < 1.0, got 1"),
    ("solver-seed-negative", "solver.seed", -1, [], "solver.seed"),
    ("solver-budget-zero", "solver.budget", 0, [], "solver.budget"),
    ("solver-restarts-zero", "solver.restarts", 0, [], "solver.restarts"),
    ("trials-zero", "simulation.trials", 0, [], "simulation.trials"),
    ("horizon-negative", "simulation.horizon", -3, [], "simulation.horizon"),
    ("horizon-zero", "simulation.horizon", 0, [], "simulation.horizon"),
    # integral, but no numpy array can be that long: refused before anything is allocated
    ("horizon-huge", "simulation.horizon", 1e300, [], "simulation.horizon"),
    ("trials-huge", "simulation.trials", 2**70, [], "simulation.trials"),
    # fits the index, but a trial's (horizon + 1) x 2 float64 arrays would not
    ("horizon-past-the-index", "simulation.horizon", 2**62, [], "simulation.horizon"),
    ("horizon-past-the-array-size", "simulation.horizon", 2**60, [], "simulation.horizon"),
    ("plant-entry-huge", "plant.A", [[1e200]], [],
     "plant.A[0][0]: magnitude must be <= 1e+150, got 1e+200"),
    ("gain-entry-huge", "gain", [[1e200]], [], "gain[0][0]: magnitude must be <= 1e+150"),
    ("flag-gain-entry-huge", None, None, ["--gain", "[[1e200]]"],
     "--gain[0][0]: magnitude must be <= 1e+150"),
    ("sim-seed-negative", "simulation.seed", -1, [], "simulation.seed"),
    ("x0-wrong-length", "simulation.x0", [0.0, 1.0], [], "simulation.x0"),
    ("x0-non-numeric", "simulation.x0", ["a"], [], "simulation.x0"),
    ("signal-kind-unknown", "simulation.signal.kind", "square", [], "simulation.signal.kind"),
    ("signal-sigma-text", "simulation.signal.sigma", "x", [], "simulation.signal.sigma"),
    ("schedule-sensor-out-of-range", "schedule", {"period": 2, "s1": [2, 0], "s2": [0, 1]},
     [], "schedule.s1"),
    ("schedule-actuator-out-of-range", "schedule", {"period": 2, "s1": [1, 0], "s2": [0, 2]},
     [], "schedule.s2"),
    ("flag-eta-text", None, None, ["--eta", "abc"], "--eta"),
    ("flag-eta-negative", None, None, ["--eta", "-1"], "--eta"),
    # 2 eta I would overflow in the dissipation form
    ("eta-huge", "eta", 1e308, [], "json.eta: magnitude must be <= 1e+150, got 1e+308"),
    ("flag-eta-huge", None, None, ["--eta", "1.7e308"], "--eta: magnitude must be <= 1e+150"),
    ("flag-margin-zero", None, None, ["--margin", "0"], "--margin"),
    ("flag-margin-text", None, None, ["--margin", "abc"], "--margin"),
    ("flag-margin-two", None, None, ["--margin", "2"], "--margin: must be < 1.0, got 2"),
    ("flag-budget-fraction", None, None, ["--budget", "1.5"], "--budget"),
    ("flag-gain-not-a-report", None, None, ["--gain", '{"results": 3}'], "--gain"),
    ("flag-gain-non-finite", None, None, ["--gain", "[[NaN]]"], "--gain[0][0]"),
    ("gain-non-finite", "gain", [[float("nan")]], [], "gain[0][0]"),
    ("schedule-period-overflow", "schedule", {"period": 1e400, "s1": [0], "s2": [0]}, [], "schedule"),
    ("schedule-period-fraction", "schedule", {"period": 2.7, "s1": [1, 0], "s2": [0, 1]},
     [], "schedule.period"),
    ("schedule-s1-text", "schedule", {"period": 2, "s1": "10", "s2": [0, 1]}, [], "schedule.s1"),
    ("schedule-s1-fraction", "schedule", {"period": 2, "s1": [1.9, 0], "s2": [0, 1]},
     [], "schedule.s1"),
    ("loss-alpha1-bool", "loss.alpha1", True, [], "loss.alpha1"),
    ("loss-alpha1-text", "loss.alpha1", "0.5", [], "loss.alpha1"),
    ("gain-wrong-shape", "gain", [[1.0, 2.0]], [], "json.gain: must be 1x1, got 1x2"),
    ("flag-gain-wrong-shape", None, None, ["--gain", "[[1.0, 2.0]]"], "--gain: must be 1x1, got 1x2"),
    ("plant-b1-rows", "plant.B1", [[1.0], [0.0]], [], "json.plant: B1 must be 1x1, got 2x1"),
    ("schedule-both-scheduled", "schedule", {"period": 1, "s1": [1], "s2": [1]}, [],
     "schedule: slot 0: sensor 1 and actuator 1 both scheduled"),
    ("schedule-pattern-length", "schedule", {"period": 2, "s1": [1], "s2": [0, 1]}, [],
     "schedule: switching patterns must have length 2, got 1 and 2"),
    ("analyze-eta-periodic", "schedule", {"period": 2, "s1": [1, 0], "s2": [0, 1]},
     ["analyze", "--eta", "0.1"], "passivity analysis requires the full-packet schedule"),
    ("analyze-eta-d11-2x3", "plant", PLANT_D11_2X3, ["analyze", "--eta", "0.1"], "D11 is 2x3"),
    ("analyze-eta-d11-2x1", "plant", PLANT_D11_2X1, ["analyze", "--eta", "0.1"], "D11 is 2x1"),
    ("synthesize-d11-2x3", "plant", PLANT_D11_2X3, ["synthesize"], "D11 is 2x3"),
    ("synthesize-d11-2x1", "plant", PLANT_D11_2X1, ["synthesize"], "D11 is 2x1"),
]


@pytest.mark.parametrize("case,field,value,extra,names", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exits_one_naming_its_location(tmp_path, capsys, case, field, value, extra, names):
    config = scenario() if field is None else with_field(scenario(), field, value)
    cfg = write_config(tmp_path, config)
    out = tmp_path / "sim.json"
    if extra[:1] not in (["analyze"], ["synthesize"]):
        extra = ["simulate", "--gain", "[[-0.9]]", *extra]
    command, *flags = extra
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert names in err
    assert "config-patched" not in err
    assert not out.exists()


@pytest.mark.parametrize("plant", [PLANT_D11_2X3, PLANT_D11_2X1], ids=["2x3", "2x1"])
def test_non_square_d11_still_analyzes_stability_and_simulates(tmp_path, capsys, plant):
    # only passivity needs the supply rate; without an eta analyze certifies stability,
    # and simulate's dissipation ledger, which has no meaning here, is NaN
    config = scenario(gain=[[-0.9]], plant=plant)
    config.pop("eta")
    cfg = write_config(tmp_path, config)
    anal, sim = tmp_path / "analyze.json", tmp_path / "sim.json"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(anal)]) == 0
    assert json.loads(anal.read_text())["results"]["stability"]["status"] == "certified"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    results = json.loads(sim.read_text())["results"]
    assert results["non_finite"] == ["ensemble.dissipation_mean", "ensemble.dissipation_se"]
    assert cli.main(["report", str(anal)]) == 0
    assert cli.main(["report", str(sim)]) == 0
    assert capsys.readouterr().err == ""


def test_missing_config_file_exits_one_naming_the_path(tmp_path, capsys):
    cfg = tmp_path / "absent.json"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field", ["plant.A", "plant.D11", "plant.B2", "gain"])
def test_overflowing_entry_is_refused_before_any_numerics(tmp_path, field):
    # products of such entries overflow float64: refused at parse, nothing warns
    cfg = write_config(tmp_path, with_field(scenario(gain=[[-0.9]]), field, [[1e200]]))
    proc = subprocess.run(
        [sys.executable, "-m", "ncspassive.cli", "analyze",
         "--config", str(cfg), "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {cfg}.{field}[0][0]: magnitude must be <= 1e+150, got 1e+200\n"


def test_module_entry_point_smoke(tmp_path):
    cfg = write_config(tmp_path, scenario(gain=[[-0.9]]))
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "ncspassive.cli", "analyze",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_diverging_simulation_writes_strict_json_quietly(tmp_path):
    # the README loop with A = 2 and no feedback overflows within 2000 steps;
    # from x0 = 1 the decay fit sees the overflow too
    config = scenario(gain=[[0.0]])
    config["plant"]["A"] = [[2.0]]
    config["simulation"].update(horizon=2000, x0=[1.0])
    cfg = write_config(tmp_path, config)
    out = tmp_path / "sim.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ncspassive.cli", "simulate",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    results = json.loads(out.read_text(), parse_constant=reject)["results"]
    assert None in results["ensemble"]["mean_sq_norm"]
    assert results["ensemble"]["decay_fit"] is None
    assert results["non_finite"] == [
        "ensemble.dissipation_mean", "ensemble.dissipation_se", "ensemble.mean_sq_norm"]


# (argv, what argparse's message must name)
@pytest.mark.parametrize("argv,names", [
    (["analyze", "--config", "scenario.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["analyze"], "required: --config"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["synthesize", "--config", "scenario.json", "--seed", "5"],
     "unrecognized arguments: --seed 5"),
], ids=["unknown-flag", "missing-config", "unknown-subcommand", "removed-seed-flag"])
def test_usage_error_exits_one_with_argparse_message(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert names in err


# Inputs whose arithmetic overflows float64 inside the numerics: each ends in
# an exit code, not a traceback, and raises no numpy RuntimeWarning (an error
# under pytest).
@pytest.mark.parametrize("command,fields,code", [
    # ||M||_F of the dissipation form overflows in np.linalg.norm (exit 2)
    ("analyze", {"plant.B1": [[1e100]], "gain": [[-0.9]]}, cli.EXIT_INDETERMINATE),
    # the Newton decrement overflows; P = X^-1 misses the D11-dominated margin of ROADMAP
    # item 1, and the search at K certifies the gain (exit 0)
    ("synthesize", {"plant.D11": [[1e10]], "eta": "maximize"}, cli.EXIT_OK),
], ids=["analyze-b1-1e100", "synthesize-d11-1e10"])
def test_overflowing_numerics_end_in_an_exit_code(tmp_path, command, fields, code):
    config = scenario()
    for field, value in fields.items():
        config = with_field(config, field, value)
    out = tmp_path / "r.json"
    assert cli.main([command, "--config", str(write_config(tmp_path, config)),
                     "--out", str(out)]) == code


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    assert "ncspassive" in capsys.readouterr().out


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys):
    # each command's output matches the same command run first in a fresh process
    config = write_config(tmp_path, scenario(gain=[[-0.9]], eta="maximize"))
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()

    def command(argv, out=None):
        return argv + ["--config", str(config), "--out", str(out)] if out else argv

    commands = {
        "synth-eta.json": ["synthesize", "--eta", "0.1"],
        "synth.json": ["synthesize"],
        "sim-dump.json": ["simulate", "--dump-traces"],
        "sim.json": ["simulate"],
        "analyze.json": ["analyze"],
    }
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "ncspassive.cli"] + command(argv, fresh / name),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR), cwd=tmp_path)
        for name, argv in commands.items()
    }

    def run(argv, out=None):
        code = cli.main(command(argv, out and here / out))
        return code, capsys.readouterr()

    assert run(commands["synth-eta.json"], "synth-eta.json")[0] == 0
    assert run(commands["synth.json"], "synth.json")[0] == 0
    assert run(commands["sim-dump.json"], "sim-dump.json")[0] == 0
    assert run(commands["sim.json"], "sim.json")[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])
    assert exc.value.code == 1
    assert "--config" in capsys.readouterr().err
    assert run(commands["analyze.json"], "analyze.json")[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"ncspassive {cli.__version__}\n"
    report_code, report_out = run(["report", str(here / "synth.json")])
    assert report_code == 0
    fresh_report = subprocess.run(
        [sys.executable, "-m", "ncspassive.cli", "report", str(here / "synth.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), cwd=tmp_path)
    assert (fresh_report.returncode, fresh_report.stdout) == (0, report_out.out)

    for name, proc in procs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        ours = strip_timing(json.loads((here / name).read_text()))
        assert ours == strip_timing(json.loads((fresh / name).read_text())), name
    reports = {name: json.loads((here / name).read_text()) for name in commands}
    assert reports["synth-eta.json"]["config"]["eta"] == 0.1
    assert reports["synth.json"]["config"]["eta"] == "maximize"
    assert reports["sim-dump.json"]["results"]["traces_dir"] == "sim-dump.json.traces"
    assert "traces_dir" not in reports["sim.json"]["results"]
    assert not (here / "sim.json.traces").exists()
    traces = sorted(p.name for p in (here / "sim-dump.json.traces").iterdir())
    assert len(traces) == 20
    for trace in traces:
        assert ((here / "sim-dump.json.traces" / trace).read_bytes()
                == (fresh / "sim-dump.json.traces" / trace).read_bytes())


def _paths(node, prefix=()):
    """Every dict key and list index path below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, rng):
    """A deep copy of ``data`` with one node deleted or replaced by a bad value."""
    data = json.loads(json.dumps(data))
    paths = list(_paths(data))
    path = paths[rng.integers(len(paths))]
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    old = node[last]
    kind = ["delete", "text", "bool", "null", "object", "negative", "empty", "ragged",
            "1e300", "2**70"][rng.integers(10)]
    if kind == "delete":
        del node[last]
    else:
        node[last] = {
            "text": "x", "bool": True, "null": None, "object": {}, "empty": [],
            "negative": -old if isinstance(old, (int, float)) and not isinstance(old, bool) else -1,
            "ragged": [[1.0], [1.0, 2.0]], "1e300": 1e300, "2**70": 2**70,
        }[kind]
    return data, f"{'.'.join(map(str, path))}: {kind}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow from 1e300-sized entries
def test_fuzzed_configs_and_reports_end_in_an_exit_code(tmp_path, capsys):
    # one bad node per input, through cli.main in this process; seeded, so a failure repeats
    rng = np.random.default_rng(2024)
    base = scenario(gain=[[-0.9]])
    base["simulation"].update(horizon=8, trials=3)
    commands = ("analyze", "synthesize", "simulate")
    reports = {}
    for command in commands:
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--config", str(write_config(tmp_path, base)), "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text())
    capsys.readouterr()

    failures = []

    def run(argv, case):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape is the finding
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            return
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            failures.append(f"{case}: exit {code}, stderr {err[-200:]!r}")

    out = tmp_path / "out.json"
    for i in range(200):
        config, case = _mutate(base, rng)
        command = commands[i % 3]
        cfg = write_config(tmp_path, config, "fuzz.json")
        run([command, "--config", str(cfg), "--out", str(out)], f"{command} config {case}")

        report, case = _mutate(reports[command], rng)
        if i % 2 and isinstance(report.get("results"), dict) and "config" in report:
            report["results_digest"] = cli._digest(report["results"])
            report["config_digest"] = cli._digest(report["config"])
        path = tmp_path / "fuzz-report.json"
        path.write_text(json.dumps(report))
        run(["report", str(path)], f"{command} report {case}")
    assert failures == [], "\n".join(failures)
