"""Command-line front end.

Subcommands:

* ``hmm run``     multiscale run; trajectory CSV + cost JSON
* ``direct run``  stiff baseline run; trajectory CSV + cost JSON
* ``fbar``        averaged coefficient on the grid as CSV
* ``rates``       one of the rate experiments; CSV table + JSON summary

Outputs land in --out-dir with fixed schemas (header row, comma separation,
deterministic row order) so downstream plotting can rely on them.  The
directory is created only once the run has returned.  A rejected input ends
in a one-line message, a solver's ValueError as ``hmm-spde <command>: ...``,
and leaves no directory and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .averaging import _check_sampling, fbar_sampled, make_gaussian_fbar
from .coefficients import PRESET_NAMES, preset
from .direct import run_direct
from .experiments import (
    AveragingReport,
    RateReport,
    _oracle_measure,
    averaging_experiment,
    default_x0,
    invariant_law_tau_sweep,
    macro_order_experiment,
    strong_error_experiment,
    warmup_bias_experiment,
    weak_error_experiment,
)
from .hmm import HmmParams, choose_params, cost_compare, run_hmm
from .noise import NoiseStreamKey
from .spectral import _whole_steps, grid_points, laplacian_spec, to_grid

# rates --experiment name -> its call on the parsed arguments
EXPERIMENTS = {
    "strong_m": lambda a: strong_error_experiment(sweep="M", n_seeds=a.seeds, seed=a.seed),
    "strong_nt": lambda a: warmup_bias_experiment(seed=a.seed),
    "weak_tau": lambda a: weak_error_experiment(n_seeds=a.seeds, seed=a.seed),
    "invariant_tau": lambda a: invariant_law_tau_sweep(K=4095,
                                                       tau_list=(1e-2, 1e-3, 1e-4, 1e-5)),
    "averaging": lambda a: averaging_experiment(n_seeds=a.seeds, seed=a.seed),
    "macro_order": lambda a: macro_order_experiment(),
}
# the experiments that read --seeds; the others fix their own budget
_SEEDED = ("strong_m", "weak_tau", "averaging")
# hmm run flags read only with --dt/--ddt or only with --tol, and their defaults
_EXPLICIT_FLAGS = {"N": 1, "M": 1, "nT": 1}
_TOL_FLAGS = {"regime": "weak", "r": 0.0, "kappa": 0.0}


def _write_trajectory_csv(path: Path, traj: np.ndarray, dt: float) -> None:
    K = traj.shape[1]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "t"] + [f"mode_{k}" for k in range(1, K + 1)])
        for n, row in enumerate(traj):
            w.writerow([n, f"{n * dt:.12g}"] + [f"{v:.17g}" for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rate_report(report: RateReport, out_dir: Path) -> None:
    csv_path = out_dir / f"{report.experiment}.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([report.sweep_variable, "error", "mc_stderr", "n_samples"])
        for row in report.rows:
            w.writerow([f"{row.value:.12g}", f"{row.error:.17g}",
                        f"{row.mc_stderr:.17g}", row.n_samples])
    payload = {
        "experiment": report.experiment,
        "sweep_variable": report.sweep_variable,
        "slope": report.slope,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "n_rows_used": report.n_rows_used,
        "runtime_seconds": report.runtime_seconds,
        "meta": {k: v for k, v in report.meta.items()},
    }
    _write_json(out_dir / f"{report.experiment}.json", payload)
    print(f"wrote {csv_path} (slope {report.slope:.4f} "
          f"[{report.ci_low:.4f}, {report.ci_high:.4f}])")


def _hmm_params_from_args(args, coeffs, op) -> HmmParams:
    explicit = args.dt is not None or args.ddt is not None
    if explicit:
        missing = [n for n in ("dt", "ddt") if getattr(args, n) is None]
        if missing:
            raise SystemExit(f"explicit parameter mode needs --dt and --ddt (missing {missing})")
        mode = "explicit parameter mode (--dt/--ddt)"
        own, foreign = _EXPLICIT_FLAGS, ("tol", *_TOL_FLAGS)
    elif args.tol is None:
        raise SystemExit("give either --tol (parameter selection) or explicit --dt/--ddt")
    else:
        mode, own, foreign = "parameter selection (--tol)", _TOL_FLAGS, _EXPLICIT_FLAGS
    given = [f"--{name}" for name in foreign if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{mode} takes no {', '.join(given)}")
    for name, default in own.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if explicit:
        return HmmParams(
            epsilon=args.epsilon, macro_dt=args.dt, micro_dt=args.ddt, T=args.T,
            N=args.N, M=args.M, n_T=args.nT,
        )
    return choose_params(args.tol, args.epsilon, args.regime, r=args.r, kappa=args.kappa,
                         T=args.T, coeffs=coeffs, op_b=op)


def _cmd_hmm_run(args) -> None:
    K = args.K
    op = laplacian_spec(K)
    coeffs = preset(args.problem)
    params = _hmm_params_from_args(args, coeffs, op)
    x0 = default_x0(K)
    run = run_hmm(x0, np.zeros(K), coeffs, op, op, params, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out_dir / "hmm_trajectory.csv", run.trajectory, params.macro_dt)
    cost = dataclasses.asdict(run.cost)
    cost.update(
        seed=args.seed, problem=args.problem, K=K, T=params.T,
        macro_dt=params.macro_dt, micro_dt=params.micro_dt, tau=params.tau,
        N=params.N, M=params.M, n_T=params.n_T,
    )
    if args.tol is not None:
        cost["direct_cost_ratio"] = cost_compare(params, args.tol, args.epsilon,
                                                 args.regime, kappa=args.kappa)
    _write_json(out_dir / "hmm_cost.json", cost)
    print(f"wrote {out_dir / 'hmm_trajectory.csv'} "
          f"({params.n_0} macro steps, {run.cost.total_micro_steps} micro steps)")


def _cmd_direct_run(args) -> None:
    K = args.K
    op = laplacian_spec(K)
    coeffs = preset(args.problem)
    x0 = default_x0(K)
    _whole_steps(args.T, args.dt)  # a dt that does not divide T: run_direct ends past T
    run = run_direct(x0, np.zeros(K), coeffs, op, op, args.epsilon, args.dt,
                     args.T, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out_dir / "direct_trajectory.csv", run.trajectory_X, args.dt)
    _write_json(out_dir / "direct_cost.json", {
        "total_steps": run.cost, "dt": args.dt, "epsilon": args.epsilon,
        "T": args.T, "seed": args.seed, "problem": args.problem, "K": K,
    })
    print(f"wrote {out_dir / 'direct_trajectory.csv'} ({run.cost} steps)")


def _cmd_fbar(args) -> None:
    K = args.K
    op_b = laplacian_spec(K)
    coeffs = preset(args.problem)
    x0 = default_x0(K)
    xi = grid_points(K)
    batches = 32
    _check_sampling(op_b, args.tau, args.window, batches)  # on every problem
    try:
        measure = _oracle_measure(coeffs, op_b)
    except ValueError:  # no Gaussian invariant law: sample the fast chain
        res = fbar_sampled(coeffs, x0, op_b, args.tau, args.window,
                           NoiseStreamKey(args.seed, replica=1), batches)
        values, stderr = res.grid_values, res.grid_stderr
    else:
        values = to_grid(make_gaussian_fbar(coeffs, measure)(x0))
        stderr = np.zeros(K)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "fbar.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "fbar_value", "stderr_or_zero"])
        for i in range(K):
            w.writerow([f"{xi[i]:.12g}", f"{values[i]:.17g}", f"{stderr[i]:.17g}"])
    print(f"wrote {path}")


def _cmd_rates(args) -> None:
    if args.seeds is None:
        args.seeds = 64
    elif args.experiment not in _SEEDED:
        raise ValueError(f"--experiment {args.experiment} fixes its own Monte-Carlo "
                         f"budget and takes no --seeds")
    result = EXPERIMENTS[args.experiment](args)
    reports = ((result.strong, result.weak) if isinstance(result, AveragingReport)
               else (result,))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        _write_rate_report(report, out_dir)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hmm-spde",
        description="Multiscale and direct solvers for slow-fast stochastic "
                    "reaction-diffusion systems, plus rate experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_T=True):
        sp.add_argument("--problem", choices=PRESET_NAMES, default="p1")
        sp.add_argument("--K", type=int, default=63, help="number of sine modes")
        if with_T:
            sp.add_argument("--T", type=float, default=1.0, help="final time")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-dir", default="out")

    hmm_p = sub.add_parser("hmm", help="multiscale solver")
    hmm_sub = hmm_p.add_subparsers(dest="subcommand", required=True)
    runp = hmm_sub.add_parser("run", help="run and dump trajectory + cost")
    add_common(runp)
    runp.add_argument("--tol", type=float, default=None, help="target tolerance")
    runp.add_argument("--epsilon", type=float, default=1e-3)
    runp.add_argument("--regime", choices=("strong", "weak"), default=None,
                      help="with --tol only (default weak)")
    runp.add_argument("--r", type=float, default=None, help="with --tol only (default 0)")
    runp.add_argument("--kappa", type=float, default=None, help="with --tol only (default 0)")
    runp.add_argument("--dt", type=float, default=None, help="explicit macro step")
    runp.add_argument("--ddt", type=float, default=None, help="explicit micro step")
    runp.add_argument("--N", type=int, default=None, help="with --dt/--ddt only (default 1)")
    runp.add_argument("--M", type=int, default=None, help="with --dt/--ddt only (default 1)")
    runp.add_argument("--nT", type=int, default=None, help="with --dt/--ddt only (default 1)")
    runp.set_defaults(func=_cmd_hmm_run)

    dir_p = sub.add_parser("direct", help="stiff baseline solver")
    dir_sub = dir_p.add_subparsers(dest="subcommand", required=True)
    drunp = dir_sub.add_parser("run", help="run and dump trajectory + cost")
    add_common(drunp)
    drunp.add_argument("--epsilon", type=float, default=1e-3)
    drunp.add_argument("--dt", type=float, required=True)
    drunp.set_defaults(func=_cmd_direct_run)

    fbar_p = sub.add_parser("fbar", help="averaged coefficient on the grid")
    add_common(fbar_p, with_T=False)
    fbar_p.add_argument("--tau", type=float, default=0.01,
                        help="fast step for the sampled estimator")
    fbar_p.add_argument("--window", type=int, default=200_000,
                        help="averaging window for the sampled estimator")
    fbar_p.set_defaults(func=_cmd_fbar)

    rates_p = sub.add_parser("rates", help="rate experiments")
    rates_p.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    rates_p.add_argument("--seeds", type=int, default=None,
                         help="Monte-Carlo budget per sweep point (default 64), read by "
                              f"{', '.join(_SEEDED)}; the other experiments refuse it")
    rates_p.add_argument("--seed", type=int, default=0)
    rates_p.add_argument("--out-dir", default="out")
    rates_p.set_defaults(func=_cmd_rates)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # a rejected input ends in a message, not a traceback
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        raise SystemExit(f"hmm-spde {command}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
