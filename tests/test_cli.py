import csv
import json
import math

import pytest

import hmm_spde.cli as cli_mod
from hmm_spde.cli import main
from hmm_spde.coefficients import preset
from hmm_spde.experiments import AveragingReport, RateReport, SweepRow
from hmm_spde.hmm import choose_params
from hmm_spde.spectral import laplacian_spec


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
        # tol 0.3 asks for dt <= 0.3; choose_params delivers 0.25, which divides T
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

    @pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
    def test_tolerance_mode_uses_the_problems_rate(self, tmp_path, problem):
        # before: choose_params never saw the problem, so c_hat was 1 and n_T 14
        main(["hmm", "run", "--problem", problem, "--K", "63", "--T", "1.0",
              "--tol", "0.3", "--epsilon", "1e-3", "--out-dir", str(tmp_path)])
        cost = json.loads((tmp_path / "hmm_cost.json").read_text())
        want = choose_params(0.3, 1e-3, "weak", T=1.0, coeffs=preset(problem),
                             op_b=laplacian_spec(63))
        assert cost["n_T"] == want.n_T

    def test_tolerance_mode_keeps_a_dividing_dt(self, tmp_path):
        # 0.27 / 0.09 = 3.0000000000000004: a dt that divides T keeps its
        # value, so 4 states at t = 0, 0.09, 0.18, 0.27 (not 5 of dt 0.0675)
        main(["hmm", "run", "--problem", "p1", "--K", "7", "--tol", "0.09", "--T", "0.27",
              "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "hmm_trajectory.csv")
        assert [r[1] for r in rows[1:]] == ["0", "0.09", "0.18", "0.27"]

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
        with pytest.raises(SystemExit, match=r"T 1\.0 is not a whole number of macro_dt 0\.3 "):
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
        with pytest.raises(SystemExit, match=r"T 1\.0 is not a whole number of dt 0\.15 "):
            main(args + ["--dt", "0.15", "--T", "1.0"])
        assert not (tmp_path / "direct_trajectory.csv").exists()
        main(args + ["--dt", "0.1", "--T", "0.7"])  # 0.7 / 0.1 is 7 up to rounding
        rows = read_csv(tmp_path / "direct_trajectory.csv")
        assert len(rows) == 9 and float(rows[-1][1]) == pytest.approx(0.7)

    def test_dt_dividing_T_up_to_rounding_ends_at_T(self, tmp_path):
        # before: the CLI took 0.333333333333 as 3 steps of T = 1, but
        # run_direct took 4 and wrote a row at t = 1.33333333333
        main(["direct", "run", "--problem", "p1", "--K", "4", "--epsilon", "1.0",
              "--dt", "0.333333333333", "--T", "1.0", "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "direct_trajectory.csv")
        assert len(rows) == 5 and float(rows[-1][1]) <= 1.0  # header + 4 states
        assert json.loads((tmp_path / "direct_cost.json").read_text())["total_steps"] == 3

    def test_rejected_horizon_never_runs(self, tmp_path, monkeypatch):
        # before: the horizon was checked after the whole run
        def run_direct(*args):
            raise AssertionError("run_direct called for a rejected horizon")

        monkeypatch.setattr(cli_mod, "run_direct", run_direct)
        with pytest.raises(SystemExit, match="^hmm-spde direct run: T 10.0 is not a whole"):
            main(["direct", "run", "--K", "7", "--epsilon", "0.5", "--T", "10",
                  "--dt", "0.00015", "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


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

    def test_strong_nt_writes_six_finite_rows(self, tmp_path):
        # the one path through warmup_bias_experiment and the shared
        # mean/standard-error rule
        main(["rates", "--experiment", "strong_nt", "--seed", "1", "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "strong_nt.csv")[1:]
        assert len(rows) == 6
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_score_experiments_write_three_finite_rows(self, tmp_path):
        # the two drivers of the shared strong/weak score rules: weak_tau
        # through the batched run_hmm sweep, averaging through run_direct
        for name in ("weak_tau", "averaging"):
            main(["rates", "--experiment", name, "--seeds", "2", "--seed", "1",
                  "--out-dir", str(tmp_path)])
        for name in ("weak_tau", "averaging", "averaging_weak"):
            with open(tmp_path / f"{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3
            assert all(r["n_samples"] == "2" for r in rows)
            assert all(math.isfinite(float(v)) for r in rows for v in r.values())


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
        seeds = ["--seeds", "5"] if "n_seeds" in expected else []
        main(["rates", "--experiment", name, *seeds, "--seed", "9",
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

    def test_help_names_the_experiments_that_read_seeds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("read by strong_m, weak_tau, averaging; "
                "the other experiments refuse it") in text

    @pytest.mark.parametrize("name", ["strong_m", "weak_tau", "averaging"])
    def test_one_seed_rejected(self, tmp_path, name):
        with pytest.raises(SystemExit, match="^hmm-spde rates: n_seeds must be >= 2"):
            main(["rates", "--experiment", name, "--seeds", "1",
                  "--out-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []


# each rejected input used to leave an empty --out-dir behind, and the three
# ValueErrors ended in a traceback
REJECTED = [
    pytest.param(["hmm", "run", "--dt", "0.15", "--ddt", "1e-6", "--T", "1.0"],
                 r"hmm-spde hmm run: T 1\.0 is not a whole number of macro_dt 0\.15 steps$",
                 id="hmm-horizon"),
    pytest.param(["hmm", "run", "--epsilon", "-1", "--dt", "0.1", "--ddt", "1e-6"],
                 "hmm-spde hmm run: epsilon must be positive and finite",
                 id="hmm-epsilon"),
    pytest.param(["direct", "run", "--epsilon", "0", "--dt", "0.1"],
                 "hmm-spde direct run: epsilon must be positive", id="direct-epsilon"),
    pytest.param(["rates", "--experiment", "strong_m", "--seeds", "1"],
                 "hmm-spde rates: n_seeds must be >= 2", id="rates-seeds"),
    pytest.param(["hmm", "run", "--tol", "2"], r"hmm-spde hmm run: tol must lie in \(0, 1\)",
                 id="hmm-tol"),
    pytest.param(["hmm", "run", "--dt", "0.1"],
                 r"explicit parameter mode needs --dt and --ddt \(missing \['ddt'\]\)$",
                 id="hmm-dt-without-ddt"),
    # hmm run refuses the flags its parameter mode does not read: --tol ran
    # M = N = n_T = 1, --dt/--ddt ignored --regime, --r and --kappa, and
    # with --tol as well wrote a direct_cost_ratio computed against that tol
    pytest.param(["hmm", "run", "--K", "7", "--T", "0.27", "--tol", "0.09", "--M", "16",
                  "--N", "4"],
                 r"hmm-spde hmm run: parameter selection \(--tol\) takes no --N, --M$",
                 id="hmm-tol-with-N-M"),
    pytest.param(["hmm", "run", "--K", "7", "--T", "0.27", "--tol", "0.09", "--nT", "3"],
                 r"hmm-spde hmm run: parameter selection \(--tol\) takes no --nT$",
                 id="hmm-tol-with-nT"),
    pytest.param(["hmm", "run", "--K", "7", "--T", "0.2", "--dt", "0.1", "--ddt", "1e-4",
                  "--regime", "strong", "--r", "0.3", "--kappa", "0.2"],
                 r"hmm-spde hmm run: explicit parameter mode \(--dt/--ddt\) takes no "
                 r"--regime, --r, --kappa$", id="hmm-explicit-with-regime-r-kappa"),
    pytest.param(["hmm", "run", "--K", "7", "--T", "0.2", "--tol", "0.3", "--dt", "0.1",
                  "--ddt", "1e-4"],
                 r"hmm-spde hmm run: explicit parameter mode \(--dt/--ddt\) takes no --tol$",
                 id="hmm-explicit-with-tol"),
    # an experiment with its own budget ran and ignored --seeds
    *(pytest.param(["rates", "--experiment", name, "--seeds", "5"],
                   f"hmm-spde rates: --experiment {name} fixes its own Monte-Carlo "
                   "budget and takes no --seeds$", id=f"rates-{name}-seeds")
      for name in ("strong_nt", "invariant_tau", "macro_order")),
    # these ended in an OverflowError, ZeroDivisionError or "math domain
    # error" traceback
    pytest.param(["hmm", "run", "--dt", "0.05", "--ddt", "1e-6", "--T", "inf"],
                 "hmm-spde hmm run: T must be positive and finite, got inf",
                 id="hmm-T-inf"),
    pytest.param(["hmm", "run", "--dt", "0.05", "--ddt", "1e-6", "--T", "1e308"],
                 r"hmm-spde hmm run: step count T/macro_dt = 1e\+308/0\.05 is not finite$",
                 id="hmm-T-huge"),
    pytest.param(["direct", "run", "--dt", "0.01", "--T", "inf"],
                 "hmm-spde direct run: T must be positive and finite, got inf",
                 id="direct-T-inf"),
    pytest.param(["direct", "run", "--dt", "0.01", "--T", "1e308"],
                 r"hmm-spde direct run: step count T/dt = 1e\+308/0\.01 is not finite$",
                 id="direct-T-huge"),
    pytest.param(["hmm", "run", "--tol", "0.3", "--T", "0"],
                 "hmm-spde hmm run: T must be positive and finite, got 0.0$",
                 id="hmm-tol-T-zero"),
    pytest.param(["hmm", "run", "--tol", "0.3", "--T", "-1"],
                 "hmm-spde hmm run: T must be positive and finite, got -1.0$",
                 id="hmm-tol-T-negative"),
    pytest.param(["hmm", "run", "--tol", "0.3", "--T", "1e308"],
                 r"hmm-spde hmm run: step count T/macro_dt = 1e\+308/0\.3 is not finite$",
                 id="hmm-tol-T-huge"),
    # 1 + tau * mu_K overflowed with a RuntimeWarning and the run went on;
    # -1 and 0 were rejected under the names "step" and "dt"
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--tau", "1e308", "--window", "200"],
                 r"hmm-spde fbar: step 1e\+308 times the largest eigenvalue 483\.611 "
                 r"is not finite$", id="fbar-tau-huge"),
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--tau", "-1", "--window", "200"],
                 "hmm-spde fbar: tau must be positive and finite, got -1.0$",
                 id="fbar-tau-negative"),
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--tau", "0", "--window", "200"],
                 "hmm-spde fbar: tau must be positive and finite, got 0.0$",
                 id="fbar-tau-zero"),
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--tau", "nan", "--window", "200"],
                 "hmm-spde fbar: tau must be positive and finite, got nan$",
                 id="fbar-tau-nan"),
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--tau", "inf", "--window", "200"],
                 "hmm-spde fbar: tau must be positive and finite, got inf$",
                 id="fbar-tau-inf"),
    # p1 and p3 take the quadrature oracle, which never reads --tau or
    # --window: both were ignored; --window 10 was rejected as "need 2 <=
    # batches <= window", and batches is no flag
    pytest.param(["fbar", "--problem", "p1", "--K", "7", "--tau", "-1", "--window", "0"],
                 "hmm-spde fbar: tau must be positive and finite, got -1.0$",
                 id="fbar-p1-tau-negative"),
    pytest.param(["fbar", "--problem", "p1", "--K", "7", "--window", "0"],
                 "hmm-spde fbar: window 0 is shorter than batches=32$",
                 id="fbar-p1-window-zero"),
    pytest.param(["fbar", "--problem", "p3", "--K", "7", "--tau", "1e308"],
                 r"hmm-spde fbar: step 1e\+308 times the largest eigenvalue 483\.611 "
                 r"is not finite$", id="fbar-p3-tau-huge"),
    pytest.param(["fbar", "--problem", "p2", "--K", "7", "--window", "10"],
                 "hmm-spde fbar: window 10 is shorter than batches=32$",
                 id="fbar-p2-window-short"),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_rejected_input_leaves_no_directory(tmp_path, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{message}"):
        main(argv + ["--out-dir", str(out)])
    assert not out.exists()
