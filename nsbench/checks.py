"""Output checks: properties that hold on every seed, and the oracle side checks.

Every check records a margin, value / limit, and passes when the margin is
below 1.  Config values are read here with :mod:`configparser`, not through
``neurosmc.config``, so a parsing fault in the package cannot hide itself.

Left out on purpose, because they fail on some seeds today: eta >= 1 under
the default bound, the g_E estimate beating the stationary mean, and PMMH
recovery bands.
"""

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
from neurosmc import bounds, config, filtering, pmcmc
from neurosmc.simulate import Trace

# Side checks run the filter on linear-Gaussian reductions of each workload's
# model, where the Kalman filter is exact.
SIDE_STEPS = 1000
SIDE_PARTICLES = 1000
# |PF log-likelihood - Kalman log-likelihood| in nats.  Measured spread
# (SD over seeds, N=1000, T=1000): 0.13 weak noise, 0.16 four-state, 0.41
# strong noise; each limit is about ten of those.  A g_l off by 10% moves the
# difference by hundreds to thousands of nats.
LOGLIK_TOL = {"mc_weak": 1.5, "syn_large_n": 2.0, "pmmh_leak": 4.0}
# RMS over steps of (PF mean - Kalman mean) / Kalman posterior SD; ~0.06 seen.
MEAN_Z_TOL = 0.3
# The bound recursion is deterministic; ~1e-8 relative seen (roundoff through
# the 1/sigma_n^2 gating information).
BOUND_RTOL = 1e-6
# [synaptic] units = ns conversion and reversal defaults, from the model docs.
REFERENCE_AREA_UM2 = 34636.0
E_EXC, E_INH = 0.0, -80.0


class Report:
    """Worst margin per named check, plus the messages of failed checks."""

    def __init__(self):
        self.margins = {}
        self.failures = []

    def below(self, name, value, limit):
        margin = float(value) / limit if math.isfinite(value) else math.inf
        self.margins[name] = max(self.margins.get(name, -math.inf), margin)
        if not margin < 1.0:
            self.failures.append(f"{name}: {value!r} is not below {limit!r}")

    def holds(self, name, ok, detail=""):
        self.margins[name] = max(self.margins.get(name, -math.inf), 0.0 if ok else 1.0)
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def ok(self):
        return not self.failures


# -- reading ---------------------------------------------------------------

def read_ini(path):
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    return parser


def read_csv(path):
    """Return (metadata dict, header, rows) of a package CSV file."""
    with open(path, newline="") as fh:
        first = fh.readline()
        meta = {}
        for item in first.lstrip("#").strip().split("; "):
            key, _, value = item.partition("=")
            meta[key] = value
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return meta, header, rows


def columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) for i in idx] for r in rows]).reshape(len(rows), len(idx))


def floats(text):
    return np.array([float(v) for v in text.split(",")])


# -- properties that hold on every seed -----------------------------------

def check_rmse(rep, prefix, header, rows, n_steps, sigma_y):
    """Per-step RMSE rows: complete, finite, and better than the raw observation.

    The observation y_k alone estimates v_k with RMSE sigma_y, so a working
    filter's time-averaged voltage RMSE lies below it (worst ratio over seeds
    0-49: 0.38).
    """
    labels = [h for h in header if h.startswith("rmse_")]
    values = columns(header, rows, labels)
    rep.holds(f"{prefix}.rows", len(rows) == n_steps, f"{len(rows)} rows, expected {n_steps}")
    rep.holds(f"{prefix}.finite", bool(np.isfinite(values).all()), "non-finite RMSE")
    rep.below(f"{prefix}.rmse_v_over_sigma_y", float(values[:, 0].mean()), sigma_y)


def check_bound(rep, prefix, bound, info):
    """Bound series positive and finite; information matrices symmetric positive definite."""
    rep.holds(f"{prefix}.bound_positive", bool(np.isfinite(bound).all() and (bound > 0).all()),
              "bound not positive and finite")
    asym = np.abs(info - np.swapaxes(info, -1, -2)).max() / np.abs(info).max()
    rep.below(f"{prefix}.info_asymmetry", float(asym), 1e-12)
    rep.holds(f"{prefix}.info_pd", bool((np.linalg.eigvalsh(info) > 0).all()),
              "information matrix not positive definite")


def check_chain(rep, prefix, samples, energies, accepted, theta0, energy0, factor,
                lower, upper):
    """PMMH invariants: the prior box, repeated rejections, a Cholesky factor."""
    rep.holds(f"{prefix}.finite", bool(np.isfinite(samples).all() and np.isfinite(energies).all()
                                       and math.isfinite(energy0)), "non-finite chain")
    rep.holds(f"{prefix}.in_prior_box",
              bool(((samples >= lower) & (samples <= upper)).all()), "sample outside the box")
    prev_s = np.vstack([theta0, samples[:-1]])
    prev_e = np.concatenate([[energy0], energies[:-1]])
    rej = ~accepted
    repeats = (samples[rej] == prev_s[rej]).all() and (energies[rej] == prev_e[rej]).all()
    rep.holds(f"{prefix}.rejection_repeats", bool(repeats),
              "a rejected iteration did not repeat the previous sample and energy")
    lower_tri = not np.triu(factor, 1).any()
    rep.holds(f"{prefix}.factor_cholesky", bool(lower_tri and (np.diag(factor) > 0).all()),
              f"proposal factor {factor.tolist()} is not lower-triangular with positive diagonal")


def check_manifest(rep, prefix, out_dir):
    with open(Path(out_dir) / "manifest.json") as fh:
        manifest = json.load(fh)
    missing = [a for a in manifest["artifacts"] if not (Path(out_dir) / a).is_file()]
    rep.holds(f"{prefix}.manifest", not missing, f"manifest names missing artifacts {missing}")


def check_summary(rep, prefix, out_dir, counts):
    """``summary.txt`` agrees with the per-step CSVs written beside it.

    Each N's ``rmse_*`` cells are the time-average of ``rmse_n{N}.csv``,
    ``pcrb_*`` that of ``pcrb.csv`` and ``eta_*`` their ratio, to the table's
    four significant digits.  A missing row or cell fails the check.
    """
    out_dir = Path(out_dir)
    table = {cells[0]: cells[1:] for cells in
             (line.split() for line in (out_dir / "summary.txt").read_text().splitlines()[2:])}
    bound = None
    if (out_dir / "pcrb.csv").is_file():
        _, header, rows = read_csv(out_dir / "pcrb.csv")
        bound = columns(header, rows, [h for h in header if h.startswith("bound_")]).mean(axis=0)
    worst = 0.0
    for n in counts:
        _, header, rows = read_csv(out_dir / f"rmse_n{n}.csv")
        expected = columns(header, rows, [h for h in header if h.startswith("rmse_")]).mean(axis=0)
        if bound is not None:
            expected = np.concatenate([expected, bound, expected[:len(bound)] / bound])
        got = np.array([float(c) for c in table.get(str(n), [])])
        diff = np.abs(got / expected - 1.0).max() if got.shape == expected.shape else math.inf
        worst = max(worst, float(diff))
    rep.below(f"{prefix}.summary_rel_diff", worst, 1e-3)


def check_bench_outputs(rep, workload, ini, out_dir, report):
    """Artifacts of ``neurosmc bench`` plus the report it returned in-process."""
    n_steps = ini.getint("bench", "n_steps")
    sigma_y = ini.getfloat("noise", "sigma_y")
    counts = [int(n) for n in ini.get("bench", "particle_counts").split(",")]
    failed = sum(report.failures.values()) + len(report.failure_messages)
    rep.holds(f"{workload}.no_divergence", failed == 0, f"diverged runs: {report.failure_messages}")
    for n in counts:
        _, header, rows = read_csv(Path(out_dir) / f"rmse_n{n}.csv")
        check_rmse(rep, f"{workload}.rmse", header, rows, n_steps, sigma_y)
    if not ini.has_section("synaptic"):  # the two-state model carries a bound
        _, header, rows = read_csv(Path(out_dir) / "pcrb.csv")
        check_bound(rep, f"{workload}.pcrb", columns(header, rows, ["bound_v", "bound_n"]),
                    report.pcrb.info)
    check_summary(rep, workload, out_dir, counts)
    check_manifest(rep, workload, out_dir)


def check_pmcmc_outputs(rep, workload, ini, out_dir):
    n_steps = ini.getint("bench", "n_steps")
    for name, cols in (("trace", ["v_true", "n_true", "i_app", "y"]),
                       ("filter", ["v_hat", "n_hat", "ess", "log_pred"])):
        _, header, rows = read_csv(Path(out_dir) / f"{name}.csv")
        values = columns(header, rows, cols)
        rep.holds(f"{workload}.{name}_csv", len(rows) == n_steps and np.isfinite(values).all(),
                  f"{name}.csv incomplete or non-finite")
    meta, header, rows = read_csv(Path(out_dir) / "chain.csv")
    names = [n.strip() for n in ini.get("mcmc", "names").split(",")]
    k = len(names)
    rep.holds(f"{workload}.chain_rows", len(rows) == ini.getint("mcmc", "n_iters"),
              f"{len(rows)} chain rows")
    check_chain(rep, f"{workload}.chain",
                samples=columns(header, rows, names), energies=columns(header, rows, ["energy"])[:, 0],
                accepted=columns(header, rows, ["accepted"])[:, 0] == 1,
                theta0=floats(meta["theta0"]), energy0=float(meta["energy0"]),
                factor=floats(meta["proposal_factor"]).reshape(k, k),
                lower=floats(ini.get("mcmc", "lower")), upper=floats(ini.get("mcmc", "upper")))
    check_manifest(rep, workload, out_dir)


# -- oracle side checks ----------------------------------------------------

def _trace(v, y, t_s, dim, sigma_y):
    states = np.zeros((len(v), dim))
    states[:, 0] = v
    return Trace(t_s=t_s, states=states, applied_current=np.zeros(len(v)),
                 observations=y, sigma_y=sigma_y)


def _reduction(ini, g_leak, e_rev):
    """Oracle coefficients, equilibrium voltage and priors for one leak/reversal."""
    get = ini.getfloat
    i_o = get("noise", "i_o")
    a, b, q = oracle.leak_reduction(get("model", "c_m"), g_leak, e_rev, i_o,
                                    get("noise", "t_s"), get("noise", "sigma_i_app"))
    m0 = e_rev + i_o / g_leak
    p0 = ini.getfloat("filter", "x0_sigma_v", fallback=1.0) ** 2
    pn = ini.getfloat("filter", "x0_sigma_n", fallback=0.05) ** 2
    return a, b, q, get("noise", "sigma_y") ** 2, m0, p0, pn


def _filter_vs_kalman(rep, workload, ini, cfg, p, s, g_leak, e_rev, seed):
    a, b, q, r, m0, p0, pn = _reduction(ini, g_leak, e_rev)
    v, y = oracle.simulate(np.random.default_rng([seed, 1]), a, b, q, r, m0, p0, SIDE_STEPS)
    means, var, loglik = oracle.kalman(y, a, b, q, r, m0, p0)
    dim = 2 if s is None else 4
    x0_mean = [m0, 0.5] + ([] if s is None else [s.g_e0, s.g_i0])
    x0_cov = [p0, pn] + ([] if s is None else [1e-18, 1e-18])
    out = filtering.run_filter(_trace(v, y, cfg.noise.t_s, dim, math.sqrt(r)), p,
                               cfg.noise.replace(sigma_g_l=0.0), s=s,
                               n_particles=SIDE_PARTICLES,
                               seed=np.random.SeedSequence([seed, 2]),
                               resample_policy=cfg.resample_policy,
                               x0_mean=np.array(x0_mean), x0_cov=np.array(x0_cov))
    rep.below(f"{workload}.oracle.loglik_abs_diff", abs(out.log_likelihood - loglik),
              LOGLIK_TOL[workload])
    z = math.sqrt(float(np.mean((out.estimates[:, 0] - means) ** 2 / var)))
    rep.below(f"{workload}.oracle.mean_v_rms_z", z, MEAN_Z_TOL)
    return a, q, r, m0, p0, pn


def side_check_mc_weak(rep, ini_path, seed):
    """Two-state filter and bound against Kalman with channels and leak noise off."""
    ini = read_ini(ini_path)
    cfg = config.parse_config(ini_path)
    p = cfg.params.replace(g_ca=0.0, g_k=0.0)
    a, q, r, m0, p0, pn = _filter_vs_kalman(rep, "mc_weak", ini, cfg, p, None,
                                            ini.getfloat("model", "g_l"),
                                            ini.getfloat("model", "e_l"), seed)
    series = bounds.pcrb_series(p, cfg.noise.replace(sigma_g_l=0.0), SIDE_STEPS,
                                n_trajectories=8, x0=np.array([m0, 0.5]),
                                j0=np.diag([1.0 / p0, 1.0 / pn]),
                                seed=np.random.SeedSequence([seed, 3]),
                                sensitivity=cfg.pcrb_sensitivity)
    expected = np.sqrt(oracle.posterior_variance(a, q, r, p0, SIDE_STEPS))
    rep.below("mc_weak.oracle.bound_v_rel_diff",
              float(np.abs(series.bounds[:, 0] / expected - 1.0).max()), BOUND_RTOL)


def side_check_syn(rep, ini_path, seed):
    """Four-state filter with frozen conductances against Kalman on the total leak."""
    ini = read_ini(ini_path)
    cfg = config.parse_config(ini_path)
    scale = 100.0 / ini.getfloat("synaptic", "area_um2", fallback=REFERENCE_AREA_UM2)
    g_l, e_l = ini.getfloat("model", "g_l"), ini.getfloat("model", "e_l")
    g_e, g_i = (ini.getfloat("synaptic", k) * scale for k in ("g_e0", "g_i0"))
    g_total = g_l + g_e + g_i
    e_total = (g_l * e_l + g_e * E_EXC + g_i * E_INH) / g_total
    p = cfg.params.replace(g_ca=0.0, g_k=0.0)
    s = cfg.syn.replace(sigma_e=1e-9, sigma_i=1e-9)
    _filter_vs_kalman(rep, "syn_large_n", ini, cfg, p, s, g_total, e_total, seed)


# Parameter points for the energy check, as fractions of the prior box: the
# chain's start and two points on either side of the shipped model.
ENERGY_POINTS = ((0.2, 0.2), (0.7, 0.75))


def side_check_pmmh(rep, ini_path, seed):
    """``pmcmc.energy`` at a few theta equals the negative Kalman log-likelihood.

    Each theta gets its own trace drawn at that theta, while the base model
    keeps the config's g_l and e_l; an energy that does not overlay theta
    therefore filters a mismatched model and misses by hundreds of nats.
    """
    ini = read_ini(ini_path)
    cfg = config.parse_config(ini_path)
    names = [n.strip() for n in ini.get("mcmc", "names").split(",")]
    lower, upper = floats(ini.get("mcmc", "lower")), floats(ini.get("mcmc", "upper"))
    thetas = [floats(ini.get("mcmc", "theta0"))]
    thetas += [lower + np.array(f) * (upper - lower) for f in ENERGY_POINTS]
    p = cfg.params.replace(g_ca=0.0, g_k=0.0)
    nc = cfg.noise.replace(sigma_g_l=0.0)
    worst = 0.0
    for j, theta in enumerate(thetas):
        point = dict(zip(names, theta))
        a, b, q, r, m0, p0, pn = _reduction(ini, point["g_l"], point["e_l"])
        v, y = oracle.simulate(np.random.default_rng([seed, 4, j]), a, b, q, r, m0, p0,
                               SIDE_STEPS)
        loglik = oracle.kalman(y, a, b, q, r, m0, p0)[2]
        value, _ = pmcmc.energy(theta, _trace(v, y, cfg.noise.t_s, 2, math.sqrt(r)),
                                cfg.space, p, nc, seed=np.random.SeedSequence([seed, 5, j]),
                                n_particles=SIDE_PARTICLES,
                                resample_policy=cfg.resample_policy,
                                x0_mean=np.array([m0, 0.5]), x0_cov=np.array([p0, pn]))
        worst = max(worst, abs(-value - loglik))
    rep.below("pmmh_leak.oracle.energy_abs_diff", worst, LOGLIK_TOL["pmmh_leak"])
