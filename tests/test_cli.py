import csv
import json

import pytest

import hmm_spde.cli as cli_mod
from hmm_spde.cli import main
from hmm_spde.experiments import AveragingReport, RateReport, SweepRow


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestHmmRun:
    def test_explicit_params_outputs(self, tmp_path):
        main([
            "hmm", "run", "--problem", "p1", "--K", "7", "--T", "0.2",
            "--dt", "0.05", "--ddt", "5e-5", "--epsilon", "1e-3",
            "--N", "2", "--M", "2", "--nT", "2",
            "--seed", "11", "--out-dir", str(tmp_path),
        ])
        rows = read_csv(tmp_path / "hmm_trajectory.csv")
        assert rows[0] == ["n", "t"] + [f"mode_{k}" for k in range(1, 8)]
        assert len(rows) == 6  # header + n_0 + 1 states
        cost = json.loads((tmp_path / "hmm_cost.json").read_text())
        assert cost["total_micro_steps"] == 4 * 2 * 3  # n_0 M m_0
        assert cost["seed"] == 11

    def test_tolerance_mode(self, tmp_path):
        main([
            "hmm", "run", "--problem", "p1", "--K", "7", "--T", "0.3",
            "--tol", "0.3", "--epsilon", "1e-3", "--regime", "weak",
            "--seed", "0", "--out-dir", str(tmp_path),
        ])
        cost = json.loads((tmp_path / "hmm_cost.json").read_text())
        assert cost["direct_cost_ratio"] > 0
        assert cost["macro_dt"] == pytest.approx(0.3)

    def test_tolerance_mode_ends_at_T(self, tmp_path):
        # tol 0.3 picks dt 0.3; the run shrinks it to 0.25 so that it ends at T
        main([
            "hmm", "run", "--problem", "p1", "--K", "4", "--T", "1.0",
            "--tol", "0.3", "--epsilon", "1e-3", "--out-dir", str(tmp_path),
        ])
        rows = read_csv(tmp_path / "hmm_trajectory.csv")
        cost = json.loads((tmp_path / "hmm_cost.json").read_text())
        assert float(rows[-1][1]) == 1.0
        assert cost["T"] == 1.0
        assert cost["macro_dt"] == 0.25
        assert [float(r[1]) for r in rows[1:]] == [n * 0.25 for n in range(5)]

    def test_seed_reproducibility(self, tmp_path):
        args = [
            "hmm", "run", "--problem", "p2", "--K", "7", "--T", "0.1",
            "--dt", "0.05", "--ddt", "5e-5", "--epsilon", "1e-3", "--seed", "5",
        ]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/hmm_trajectory.csv").read_text() == (
            tmp_path / "b/hmm_trajectory.csv"
        ).read_text()

    def test_missing_params_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["hmm", "run", "--out-dir", str(tmp_path)])

    def test_horizon_not_divided_by_dt_rejected(self, tmp_path):
        args = ["hmm", "run", "--problem", "p1", "--K", "4", "--ddt", "5e-5",
                "--epsilon", "1e-3", "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit, match=r"--T 1\.0 .* --dt 0\.3 "):
            main(args + ["--dt", "0.3", "--T", "1.0"])
        assert not (tmp_path / "hmm_trajectory.csv").exists()
        main(args + ["--dt", "0.1", "--T", "0.3"])  # 0.3 / 0.1 is 3 up to rounding
        assert len(read_csv(tmp_path / "hmm_trajectory.csv")) == 5


class TestDirectRun:
    def test_outputs(self, tmp_path):
        main([
            "direct", "run", "--problem", "p1", "--K", "7", "--T", "0.1",
            "--dt", "0.01", "--epsilon", "0.5", "--seed", "3",
            "--out-dir", str(tmp_path),
        ])
        rows = read_csv(tmp_path / "direct_trajectory.csv")
        assert len(rows) == 12  # header + 10 steps + initial state
        cost = json.loads((tmp_path / "direct_cost.json").read_text())
        assert cost["total_steps"] == 10

    def test_horizon_not_divided_by_dt_rejected(self, tmp_path):
        args = ["direct", "run", "--problem", "p1", "--K", "4", "--epsilon", "0.5",
                "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit, match=r"--T 1\.0 .* --dt 0\.15 "):
            main(args + ["--dt", "0.15", "--T", "1.0"])
        assert not (tmp_path / "direct_trajectory.csv").exists()
        main(args + ["--dt", "0.1", "--T", "0.7"])  # 0.7 / 0.1 is 7 up to rounding
        rows = read_csv(tmp_path / "direct_trajectory.csv")
        assert len(rows) == 9 and float(rows[-1][1]) == pytest.approx(0.7)


class TestFbar:
    def test_quadrature_route(self, tmp_path):
        # p1 (g = 0) and p3 (linear g) have a Gaussian invariant law
        for problem in ("p1", "p3"):
            out = tmp_path / problem
            main(["fbar", "--problem", problem, "--K", "15", "--out-dir", str(out)])
            rows = read_csv(out / "fbar.csv")
            assert rows[0] == ["xi", "fbar_value", "stderr_or_zero"]
            assert len(rows) == 16
            stderrs = [float(r[2]) for r in rows[1:]]
            assert all(s == 0.0 for s in stderrs)  # analytic route reports zero

    def test_sampled_route(self, tmp_path):
        main([
            "fbar", "--problem", "p2", "--K", "7", "--tau", "0.01",
            "--window", "2000", "--out-dir", str(tmp_path),
        ])
        rows = read_csv(tmp_path / "fbar.csv")
        stderrs = [float(r[2]) for r in rows[1:]]
        assert any(s > 0 for s in stderrs)  # Monte-Carlo route reports spread


class TestRates:
    def test_invariant_tau(self, tmp_path):
        main(["rates", "--experiment", "invariant_tau", "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "invariant_tau.csv")
        assert rows[0] == ["tau", "error", "mc_stderr", "n_samples"]
        summary = json.loads((tmp_path / "invariant_tau.json").read_text())
        assert summary["slope"] == pytest.approx(0.5, abs=0.05)

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["rates", "--experiment", "bogus", "--out-dir", str(tmp_path)])


def tiny_report(experiment):
    return RateReport(experiment=experiment, sweep_variable="v",
                      rows=(SweepRow(1.0, 0.5, 0.01, 2),), slope=1.0, ci_low=0.5,
                      ci_high=1.5, n_rows_used=1, runtime_seconds=0.0)


class TestRatesTable:
    # --experiment name -> (function in hmm_spde.cli, kwargs it must get, CSVs)
    TABLE = {
        "strong_m": ("strong_error_experiment",
                     {"sweep": "M", "n_seeds": 5, "seed": 9}, ["strong_m"]),
        "strong_nt": ("warmup_bias_experiment", {"seed": 9}, ["strong_nt"]),
        "weak_tau": ("weak_error_experiment", {"n_seeds": 5, "seed": 9}, ["weak_tau"]),
        "invariant_tau": ("invariant_law_tau_sweep",
                          {"K": 4095, "tau_list": (1e-2, 1e-3, 1e-4, 1e-5)},
                          ["invariant_tau"]),
        "averaging": ("averaging_experiment", {"n_seeds": 5, "seed": 9},
                      ["averaging", "averaging_weak"]),
        "macro_order": ("macro_order_experiment", {}, ["macro_order"]),
    }

    def test_table_lists_every_experiment(self):
        assert sorted(cli_mod.EXPERIMENTS) == sorted(self.TABLE)

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_arguments_forwarded_and_reports_written(self, tmp_path, monkeypatch, name):
        func, expected, csvs = self.TABLE[name]
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            if len(csvs) == 2:
                return AveragingReport(strong=tiny_report(csvs[0]),
                                       weak=tiny_report(csvs[1]))
            return tiny_report(csvs[0])

        monkeypatch.setattr(cli_mod, func, fake)
        main(["rates", "--experiment", name, "--seeds", "5", "--seed", "9",
              "--out-dir", str(tmp_path)])
        assert calls == [expected]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{c}.{ext}" for c in csvs for ext in ("csv", "json"))
        for c in csvs:
            assert read_csv(tmp_path / f"{c}.csv") == [
                ["v", "error", "mc_stderr", "n_samples"], ["1", "0.5", "0.01", "2"]]

    def test_unknown_experiment_exits_through_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--experiment", "bogus", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not tmp_path.joinpath("bogus.csv").exists()

    @pytest.mark.parametrize("name", ["strong_m", "weak_tau", "averaging"])
    def test_one_seed_rejected(self, tmp_path, name):
        with pytest.raises(SystemExit, match="^hmm-spde rates: n_seeds must be >= 2"):
            main(["rates", "--experiment", name, "--seeds", "1",
                  "--out-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []
