"""Command-line front end.

Subcommands: simulate | filter | pmcmc | pcrb | bench, each driven by one
config file.  Every run writes its artifacts plus a ``manifest.json`` that
echoes the config, seeds and versions needed to reproduce it byte-for-byte.

Output directory resolution: ``--out`` flag, then the ``NEUROSMC_OUT``
environment variable, then ``[output] dir`` from the config.  Exit codes:
0 success, 1 usage/validation errors, 2 numerical divergence.
"""

import argparse
import logging
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .bench import ExperimentError, run_experiment
from .bounds import pcrb_series
from .config import ConfigError, RunConfig, parse_config
from .filtering import FilterDivergence, initial_cov_diag, run_filter
from .io import (
    write_chain_csv,
    write_filter_csv,
    write_manifest,
    write_pcrb_csv,
    write_trace_csv,
)
from .model import NumericalDivergence
from .pmcmc import run_pmcmc
from .seeding import derive_seed
from .simulate import observe, simulate_truth

OUT_ENV_VAR = "NEUROSMC_OUT"
logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; reserve 2 for numerical
    # failures and report usage problems as 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="neurosmc",
                     description="Simulation and sequential Monte-Carlo inference "
                                 "for conductance-based neuron models.")
    parser.add_argument("--version", action="version", version=f"neurosmc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    descriptions = {
        "simulate": "simulate a ground-truth trace with noisy observations",
        "filter": "simulate a trace, then particle-filter it",
        "pmcmc": "simulate a trace, then run a particle MCMC chain over parameters",
        "pcrb": "compute the posterior error bound series",
        "bench": "run a Monte-Carlo benchmark (RMSE vs. bound over many trials)",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc, description=desc)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="master seed (overrides [output] seed)")
        cmd.add_argument("--workers", type=int, default=1,
                         help="worker processes for trial-parallel subcommands")
    return parser


def _simulate_pipeline(cfg: RunConfig, seed):
    truth = simulate_truth(cfg.params, cfg.noise, cfg.n_steps, s=cfg.syn,
                           seed=derive_seed(seed, 0, 0))
    return observe(truth, cfg.noise.sigma_y, seed=derive_seed(seed, 0, 1))


def _cmd_simulate(cfg, out_dir, seed, workers):
    trace = _simulate_pipeline(cfg, seed)
    path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(path, trace)
    return [path]


def _cmd_filter(cfg, out_dir, seed, workers):
    trace = _simulate_pipeline(cfg, seed)
    out = run_filter(trace, cfg.params, cfg.noise, s=cfg.syn,
                     n_particles=cfg.n_particles, seed=derive_seed(seed, 0, 2),
                     resample_policy=cfg.resample_policy,
                     ess_threshold=cfg.ess_threshold,
                     x0_mean=trace.x0, sigma_v=cfg.sigma_v,
                     x0_cov=initial_cov_diag(cfg.x0_sigma_v, cfg.x0_sigma_n, cfg.syn))
    paths = [os.path.join(out_dir, "trace.csv"), os.path.join(out_dir, "filter.csv")]
    write_trace_csv(paths[0], trace)
    write_filter_csv(paths[1], out)
    return paths


def _cmd_pmcmc(cfg, out_dir, seed, workers):
    if cfg.mcmc is None or cfg.space is None:
        raise ConfigError("the pmcmc subcommand requires an [mcmc] section")
    trace = _simulate_pipeline(cfg, seed)
    chain, retained = run_pmcmc(trace, cfg.space, cfg.mcmc,
                                cfg.params, cfg.noise, s=cfg.syn, seed=seed,
                                n_particles=cfg.n_particles,
                                resample_policy=cfg.resample_policy,
                                ess_threshold=cfg.ess_threshold,
                                x0_mean=trace.x0,
                                x0_cov=initial_cov_diag(cfg.x0_sigma_v, cfg.x0_sigma_n,
                                                        cfg.syn))
    paths = [os.path.join(out_dir, "trace.csv"),
             os.path.join(out_dir, "chain.csv"),
             os.path.join(out_dir, "filter.csv")]
    write_trace_csv(paths[0], trace)
    write_chain_csv(paths[1], chain)
    write_filter_csv(paths[2], retained)
    return paths


def _cmd_pcrb(cfg, out_dir, seed, workers):
    if cfg.syn is not None:
        raise ConfigError("the bound recursion covers the two-state model only "
                          "(drop the [synaptic] section)")
    j0 = np.diag([1.0 / cfg.x0_sigma_v**2, 1.0 / cfg.x0_sigma_n**2])
    series = pcrb_series(cfg.params, cfg.noise, cfg.n_steps,
                         n_trajectories=cfg.pcrb_trajectories, j0=j0,
                         seed=derive_seed(seed, 0, 3),
                         sensitivity=cfg.pcrb_sensitivity)
    path = os.path.join(out_dir, "pcrb.csv")
    write_pcrb_csv(path, series)
    return [path]


def _write_rmse_csv(path, report, n):
    labels = ["v", "n", "gE", "gI"]
    series = report.rmse[n]
    with open(path, "w", newline="") as fh:
        fh.write(f"# t_s={report.t_s!r}; n_particles={n}; trials={report.n_trials}\n")
        cols = ["k", "t_ms"] + [f"rmse_{labels[i]}" for i in range(series.shape[1])]
        fh.write(",".join(cols) + "\n")
        for k in range(len(series)):
            row = [str(k + 1), repr((k + 1) * report.t_s)]
            row += [repr(float(x)) for x in series[k]]
            fh.write(",".join(row) + "\n")


def _cmd_bench(cfg, out_dir, seed, workers):
    from .bench import summary_table

    exp = cfg.experiment_config(master_seed=seed)
    report = run_experiment(exp, workers=workers)
    paths = []
    for n in report.particle_counts:
        path = os.path.join(out_dir, f"rmse_n{n}.csv")
        _write_rmse_csv(path, report, n)
        paths.append(path)
    if report.pcrb is not None:
        path = os.path.join(out_dir, "pcrb.csv")
        write_pcrb_csv(path, report.pcrb)
        paths.append(path)
    if report.chains is not None:
        for n, per_trial in report.chains.items():
            for i, chain in enumerate(per_trial):
                path = os.path.join(out_dir, f"chain_n{n}_trial{i}.csv")
                write_chain_csv(path, chain)
                paths.append(path)
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write(summary_table(report))
    paths.append(summary_path)
    logger.info("benchmark finished in %.1f s", report.elapsed_s)
    return paths


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "pmcmc": _cmd_pmcmc,
    "pcrb": _cmd_pcrb,
    "bench": _cmd_bench,
}


def dispatch(subcommand, cfg: RunConfig, out_dir, seed, workers, config_text="",
             config_path=""):
    """Run one subcommand and write its artifacts plus a manifest.

    Returns the list of written artifact paths (manifest last).
    """
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    paths = _COMMANDS[subcommand](cfg, out_dir, seed, workers)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, {
        "subcommand": subcommand,
        "config_path": str(config_path),
        "config_text": config_text,
        "seed": int(seed),
        "workers": int(workers),
        "artifacts": [os.path.basename(p) for p in paths],
        "versions": {"neurosmc": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": time.perf_counter() - start,
    })
    paths.append(manifest_path)
    return paths


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 0
    try:
        cfg = parse_config(args.config)
        with open(args.config) as fh:
            config_text = fh.read()
        out_dir = args.out or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
        seed = cfg.seed if args.seed is None else args.seed
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        paths = dispatch(args.subcommand, cfg, out_dir, seed, args.workers,
                         config_text=config_text, config_path=args.config)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericalDivergence, FilterDivergence, ExperimentError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
