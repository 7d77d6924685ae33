"""Monte-Carlo experiment harness: RMSE curves, bound comparisons, efficiency.

Each trial regenerates its own truth and observations from seeds derived as
(master, trial, purpose), so a report is a pure function of its config and
master seed: distributing trials over processes cannot change the numbers,
only the wall time.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
import logging
import time

import numpy as np

from .bounds import PcrbSeries, pcrb_series
from .filtering import FilterDivergence, FilterOutput, initial_cov_diag, run_filter
from .model import (
    MorrisLecarParams,
    NoiseConfig,
    NumericalDivergence,
    SynapticParams,
    resting_state,
)
from .pmcmc import Chain, McmcConfig, ParameterSpace, run_pmcmc
from .seeding import derive_seed
from .simulate import Trace, observe, simulate_truth

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentError",
    "rmse_series",
    "run_experiment",
    "efficiency",
    "summary_table",
]

logger = logging.getLogger(__name__)

_PCRB_KEY = 4294967295  # reserved trial slot for the bound's trajectory seeds


class ExperimentError(RuntimeError):
    """Too many trials diverged for the aggregate numbers to mean anything."""


@dataclass
class ExperimentConfig:
    """Everything a Monte-Carlo experiment needs, seeds included.

    ``x0`` is the shared initial state of every trial (zero-current rest by
    default, conductances at their means); the filter of each trial starts
    from a cloud centered there with standard deviations ``x0_sigma_v`` and
    ``x0_sigma_n`` (conductance spread comes from the OU stationary sigmas).
    ``algorithm`` is ``"pf"`` for plain filtering or ``"pmcmc"`` to run a
    chain per trial (requires ``space`` and ``mcmc``), scoring the filter
    output retained at the last accepted parameter point.
    """

    params: MorrisLecarParams
    noise: NoiseConfig
    syn: SynapticParams = None
    scenario: str = ""
    particle_counts: tuple = (500,)
    n_trials: int = 1
    n_steps: int = 2000
    master_seed: int = 0
    algorithm: str = "pf"
    compute_pcrb: bool = None
    pcrb_trajectories: int = 200
    pcrb_sensitivity: str = "reduced"
    x0: np.ndarray = None
    x0_sigma_v: float = 1.0
    x0_sigma_n: float = 0.05
    resample_policy: str = "always"
    ess_threshold: float = 0.5
    sigma_v: float = None
    space: ParameterSpace = None
    mcmc: McmcConfig = None
    max_failure_fraction: float = 0.05

    def __post_init__(self):
        self.particle_counts = tuple(int(n) for n in self.particle_counts)
        if not self.particle_counts:
            raise ValueError("particle_counts must be nonempty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.algorithm not in ("pf", "pmcmc"):
            raise ValueError("algorithm must be 'pf' or 'pmcmc'")
        if self.algorithm == "pmcmc" and (self.space is None or self.mcmc is None):
            raise ValueError("pmcmc experiments need both space and mcmc settings")
        if self.compute_pcrb is None:
            self.compute_pcrb = self.syn is None
        if self.compute_pcrb and self.syn is not None:
            raise ValueError("the bound recursion covers the two-state model only")
        if self.pcrb_sensitivity not in ("reduced", "full"):
            raise ValueError("pcrb_sensitivity must be 'reduced' or 'full'")
        if not 0.0 <= self.max_failure_fraction < 1.0:
            raise ValueError("max_failure_fraction must lie in [0, 1)")
        if self.x0 is None:
            rest = resting_state(self.params, i_app=0.0)
            if self.syn is not None:
                rest = np.concatenate([rest, [self.syn.g_e0, self.syn.g_i0]])
            self.x0 = rest
        else:
            self.x0 = np.asarray(self.x0, dtype=float)

    @property
    def dim(self):
        return 2 if self.syn is None else 4

    def filter_init(self):
        return self.x0.copy(), initial_cov_diag(self.x0_sigma_v, self.x0_sigma_n, self.syn)


@dataclass
class ExperimentReport:
    """Aggregated experiment results keyed by particle count."""

    scenario: str
    algorithm: str
    particle_counts: tuple
    n_trials: int
    n_steps: int
    t_s: float
    master_seed: int
    rmse: dict               # N -> (T, d) per-step RMSE
    rmse_avg: dict           # N -> (d,) time-averaged RMSE
    failures: dict           # N -> number of diverged trials
    pcrb: PcrbSeries = None
    pcrb_avg: np.ndarray = None
    chains: dict = None      # N -> list of Chain (pmcmc runs only)
    elapsed_s: float = 0.0
    failure_messages: list = field(default_factory=list)


def rmse_series(truths, estimates):
    """Per-step root-mean-square error over a set of paired trials.

    ``truths`` are Traces (or raw (T, d) arrays); ``estimates`` are
    FilterOutputs (or raw arrays) in the same order.  Returns a (T, d)
    array: sqrt of the trial-averaged squared error at each step.
    """
    t_arr = np.stack([t.states if isinstance(t, Trace) else np.asarray(t, dtype=float)
                      for t in truths])
    e_arr = np.stack([e.estimates if isinstance(e, FilterOutput) else np.asarray(e, dtype=float)
                      for e in estimates])
    if t_arr.shape != e_arr.shape:
        raise ValueError("truths and estimates must match in count and shape")
    return np.sqrt(np.mean((t_arr - e_arr) ** 2, axis=0))


def _pmcmc_seed_int(master, trial, n):
    words = derive_seed(master, trial, 3, n).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def _run_trial(cfg: ExperimentConfig, trial: int):
    """Simulate, observe and filter one trial; returns per-N results.

    The per-N dict maps particle count to ``(squared_error, chain)`` or to an
    error string when that run diverged.
    """
    out = {}
    try:
        truth = simulate_truth(cfg.params, cfg.noise, cfg.n_steps, s=cfg.syn,
                               x0=cfg.x0, seed=derive_seed(cfg.master_seed, trial, 0))
        trace = observe(truth, cfg.noise.sigma_y, seed=derive_seed(cfg.master_seed, trial, 1))
    except NumericalDivergence as err:
        msg = f"trial {trial}: simulation diverged ({err})"
        return {n: msg for n in cfg.particle_counts}

    x0_mean, x0_cov = cfg.filter_init()
    for n in cfg.particle_counts:
        try:
            chain = None
            if cfg.algorithm == "pf":
                result = run_filter(trace, cfg.params, cfg.noise, s=cfg.syn,
                                    n_particles=n,
                                    seed=derive_seed(cfg.master_seed, trial, 2, n),
                                    resample_policy=cfg.resample_policy,
                                    ess_threshold=cfg.ess_threshold,
                                    x0_mean=x0_mean, x0_cov=x0_cov,
                                    sigma_v=cfg.sigma_v)
            else:
                chain, result = run_pmcmc(trace, cfg.space, cfg.mcmc,
                                          cfg.params, cfg.noise, s=cfg.syn,
                                          seed=_pmcmc_seed_int(cfg.master_seed, trial, n),
                                          n_particles=n,
                                          resample_policy=cfg.resample_policy,
                                          ess_threshold=cfg.ess_threshold,
                                          x0_mean=x0_mean, x0_cov=x0_cov)
            sq = (truth.states - result.estimates) ** 2
            out[n] = (sq, chain)
        except (FilterDivergence, NumericalDivergence) as err:
            out[n] = f"trial {trial}, N={n}: {err}"
    return out


def _trial_worker(payload):
    cfg, trial = payload
    return _run_trial(cfg, trial)


def run_experiment(cfg: ExperimentConfig, workers=1):
    """Run all trials, aggregate RMSE, and (optionally) attach the bound.

    ``workers`` > 1 distributes trials over processes; seeds are derived per
    trial, so the report is identical for any worker count.  Raises
    :class:`ExperimentError` when more than ``cfg.max_failure_fraction`` of
    the runs of any particle count diverge.
    """
    start = time.perf_counter()
    payloads = [(cfg, trial) for trial in range(cfg.n_trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_worker, payloads))
    else:
        results = [_trial_worker(p) for p in payloads]

    dim = cfg.dim
    sq_sums = {n: np.zeros((cfg.n_steps, dim)) for n in cfg.particle_counts}
    counts = {n: 0 for n in cfg.particle_counts}
    failures = {n: 0 for n in cfg.particle_counts}
    messages = []
    chains = {n: [] for n in cfg.particle_counts} if cfg.algorithm == "pmcmc" else None
    for per_trial in results:
        for n in cfg.particle_counts:
            item = per_trial[n]
            if isinstance(item, str):
                failures[n] += 1
                messages.append(item)
                continue
            sq, chain = item
            sq_sums[n] += sq
            counts[n] += 1
            if chains is not None:
                chains[n].append(chain)

    for n in cfg.particle_counts:
        if failures[n] > cfg.max_failure_fraction * cfg.n_trials or counts[n] == 0:
            raise ExperimentError(
                f"{failures[n]}/{cfg.n_trials} trials diverged at N={n}: "
                + "; ".join(messages[:5]))
    if messages:
        logger.warning("%d diverged runs were excluded from the averages", len(messages))

    rmse = {n: np.sqrt(sq_sums[n] / counts[n]) for n in cfg.particle_counts}
    rmse_avg = {n: rmse[n].mean(axis=0) for n in cfg.particle_counts}

    pcrb = pcrb_avg = None
    if cfg.compute_pcrb:
        j0 = np.diag([1.0 / cfg.x0_sigma_v**2, 1.0 / cfg.x0_sigma_n**2])
        pcrb = pcrb_series(cfg.params, cfg.noise, cfg.n_steps,
                           n_trajectories=cfg.pcrb_trajectories, x0=cfg.x0[:2],
                           j0=j0, seed=derive_seed(cfg.master_seed, _PCRB_KEY, 0),
                           sensitivity=cfg.pcrb_sensitivity)
        pcrb_avg = pcrb.bounds.mean(axis=0)

    return ExperimentReport(
        scenario=cfg.scenario, algorithm=cfg.algorithm,
        particle_counts=cfg.particle_counts, n_trials=cfg.n_trials,
        n_steps=cfg.n_steps, t_s=cfg.noise.t_s, master_seed=cfg.master_seed,
        rmse=rmse, rmse_avg=rmse_avg, failures=failures, pcrb=pcrb,
        pcrb_avg=pcrb_avg, chains=chains,
        elapsed_s=time.perf_counter() - start, failure_messages=messages)


def efficiency(report: ExperimentReport):
    """Ratio of time-averaged RMSE to time-averaged bound, per coordinate.

    Keyed by particle count.  Requires the report to carry a bound; raises
    on a zero bound average.
    """
    if report.pcrb_avg is None:
        raise ValueError("report has no bound; rerun with compute_pcrb")
    if (report.pcrb_avg <= 0).any():
        raise ValueError("bound average is zero; efficiency undefined")
    k = len(report.pcrb_avg)
    return {n: avg[:k] / report.pcrb_avg for n, avg in report.rmse_avg.items()}


_STATE_LABELS = ("v", "n", "gE", "gI")


def summary_table(report: ExperimentReport):
    """Plain-text table of time-averaged RMSE, bound averages and efficiency."""
    dim = len(next(iter(report.rmse_avg.values())))
    labels = _STATE_LABELS[:dim]
    header = ["N"] + [f"rmse_{w}" for w in labels]
    have_bound = report.pcrb_avg is not None
    if have_bound:
        header += [f"pcrb_{w}" for w in _STATE_LABELS[:len(report.pcrb_avg)]]
        header += [f"eta_{w}" for w in _STATE_LABELS[:len(report.pcrb_avg)]]
        eff = efficiency(report)
    lines = [f"scenario: {report.scenario or '(unnamed)'}  algorithm: {report.algorithm}  "
             f"trials: {report.n_trials}  steps: {report.n_steps}  seed: {report.master_seed}",
             "  ".join(f"{h:>10s}" for h in header)]
    for n in report.particle_counts:
        cells = [f"{n:>10d}"] + [f"{x:>10.4g}" for x in report.rmse_avg[n]]
        if have_bound:
            cells += [f"{x:>10.4g}" for x in report.pcrb_avg]
            cells += [f"{x:>10.4g}" for x in eff[n]]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
